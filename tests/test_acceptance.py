"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (visible with ``pytest -s`` or on failure)."""

import numpy as np

from ppovm.channels import (
    choi_of_channel,
    contraction_channel,
    depolarizing_channel,
    identity_channel,
    ket,
    max_entangled_ket,
    projector,
)
from ppovm.discrimination import (
    NotPerfectlyDiscriminableError,
    build_plan,
    min_copies,
    overlap,
)
from ppovm.linalg import dagger, hs_inner, kron, max_abs
from ppovm.measurement import (
    build_ppovm,
    effects_multiset_equal,
    extra_effect,
    outcome_probabilities,
    process_effect,
    realize,
)
from ppovm.rand import (
    random_channel,
    random_density,
    random_effect,
    random_ppovm,
    random_unitary,
)
from ppovm.schemes import (
    BLOCH_KETS,
    identity_vs_contraction_ppovm,
    pauli_probe_couple,
    pauli_probe_ppovm,
    six_state_ppovm,
)
from ppovm.tomography import linear_inversion, reconstruction_error, simulate_counts


def _report(num, text):
    print(f"criterion {num:02d} ({text}): PASS")


def test_criterion_01_pauli_probe_effects_and_sum():
    couple = pauli_probe_couple()
    pp = build_ppovm([couple], 2)
    assert len(pp) == 36
    for m, f in zip(pp.matrices, couple.povm.effects):
        assert max_abs(m - f / 2) <= 1e-12
    total = sum(pp.matrices)
    assert max_abs(total - 0.5 * kron(np.eye(2), np.eye(2))) <= 1e-12
    _report(1, "entangled-probe effects are F/2 and sum to I/2 (x) I")


def test_criterion_02_scheme_coincidence():
    # transposition identities behind the coincidence, in the z basis
    for axis, partner in (("+x", "+x"), ("-x", "-x"), ("+y", "-y"), ("-y", "+y"), ("+z", "+z"), ("-z", "-z")):
        lhs = projector(BLOCH_KETS[axis]).T
        rhs = projector(BLOCH_KETS[partner])
        assert max_abs(lhs - rhs) <= 1e-15
    assert effects_multiset_equal(six_state_ppovm(), pauli_probe_ppovm(), 1e-12)
    _report(2, "six-state and entangled-probe schemes coincide as multisets")


def test_criterion_03_fundamental_equivalence():
    from ppovm.channels import apply_second

    rng = np.random.default_rng(2024)
    checked = 0
    for anc_dim in (1, 2, 4):
        for d in (2, 3):
            for _ in range(34):
                state = random_density(anc_dim * d, rng)
                effect = random_effect(anc_dim * d, rng)
                ch = random_channel(d, rng)
                lhs = hs_inner(effect, apply_second(ch, state, anc_dim)).real
                m = process_effect(state, effect, anc_dim, d)
                rhs = hs_inner(m, choi_of_channel(ch)).real
                assert abs(lhs - rhs) <= 1e-9
                checked += 1
    assert checked >= 200
    _report(3, f"experiment and effect pairing agree on {checked} random instances")


def test_criterion_04_realization_round_trip():
    rng = np.random.default_rng(77)
    cases = 0
    for d in (2, 3):
        for rank in range(1, d + 1):
            for _ in range(8):
                pp = random_ppovm(d, rng, rho_rank=rank)
                real = realize(pp)
                assert max_abs(sum(real.povm.effects) - np.eye(real.anc_dim * d)) <= 1e-9
                back = build_ppovm([real], d)
                for a, b in zip(pp.matrices, back.matrices):
                    assert max_abs(a - b) <= 1e-8
                cases += 1
    for _ in range(10):
        pp = random_ppovm(2, rng, n_couples=2)
        real = realize(pp)
        assert max_abs(sum(real.povm.effects) - np.eye(real.anc_dim * 2)) <= 1e-9
        back = build_ppovm([real], 2)
        for a, b in zip(pp.matrices, back.matrices):
            assert max_abs(a - b) <= 1e-8
        cases += 1
    assert cases >= 50
    _report(4, f"realize/build round trip on {cases} random process POVMs")


def test_criterion_05_identity_vs_contraction():
    pp = identity_vs_contraction_ppovm()
    omega_id = choi_of_channel(identity_channel(2))
    omega_contr = choi_of_channel(contraction_channel(ket(0, 2)))
    m_id, m_contr = pp.matrices
    assert abs(hs_inner(m_id, omega_id).real - 1.0) <= 1e-12
    assert abs(hs_inner(m_contr, omega_contr).real - 1.0) <= 1e-12
    assert hs_inner(m_contr, omega_id).real == 0.0
    assert hs_inner(m_id, omega_contr).real == 0.0
    _report(5, "identity vs contraction is identified without error")


def test_criterion_06_extra_effect_rate():
    rng = np.random.default_rng(31)
    for d in (2, 3):
        for _ in range(50):
            pp = random_ppovm(d, rng)
            omega = choi_of_channel(random_channel(d, rng))
            rate = hs_inner(extra_effect(pp), omega).real
            assert abs(rate - (d - 1)) <= 1e-9
    _report(6, "inconclusive-completion rate equals d-1")


def test_criterion_07_overlap_identity():
    rng = np.random.default_rng(55)
    for _ in range(100):
        d = int(rng.integers(2, 4))
        u = random_unitary(d, rng)
        v = random_unitary(d, rng)
        ket_u = kron(np.eye(d), u) @ max_entangled_ket(d)
        ket_v = kron(np.eye(d), v) @ max_entangled_ket(d)
        assert abs(overlap(u, v) - abs(hs_inner(ket_u, ket_v))) <= 1e-10
    _report(7, "|Tr U^dag V| equals the process-state overlap")


def test_criterion_08_qubit_orthogonality_criterion():
    rng = np.random.default_rng(808)
    for k in range(200):
        u = random_unitary(2, rng)
        if k % 2 == 0:
            v = random_unitary(2, rng)
        else:
            q = random_unitary(2, rng)
            alpha = rng.uniform(0, 2 * np.pi)
            w = q @ np.diag([np.exp(1j * alpha), np.exp(1j * (alpha + np.pi))]) @ dagger(q)
            v = u @ w
        orthogonal = abs(np.trace(dagger(u) @ v)) < 1e-9
        try:
            plan = build_plan(u, v)
            built = True
            assert max(abs(r) for r in plan.error_rates) <= 1e-9
        except NotPerfectlyDiscriminableError:
            built = False
        assert built == orthogonal
    _report(8, "qubit pairs are perfectly discriminable iff orthogonal")


def test_criterion_09_minimal_copies():
    expected = {np.pi / 2: 2, np.pi / 3: 3, 2 * np.pi / 5: 3, np.pi / 7: 7}
    rng = np.random.default_rng(99)
    for gap, n_expected in expected.items():
        u = random_unitary(2, rng)
        q = random_unitary(2, rng)
        v = u @ (q @ np.diag([1.0, np.exp(1j * gap)]) @ dagger(q))
        got = min_copies(u, v, 10)
        closed_form = int(np.ceil((np.pi - 1e-9) / gap))
        assert got == n_expected == closed_form
    _report(9, "iterative hull search matches ceil(pi / gap)")


def test_criterion_10_tomography_pipeline():
    pp = pauli_probe_ppovm()
    rng = np.random.default_rng(123)
    for _ in range(20):
        ch = random_channel(2, rng)
        result = linear_inversion(pp, outcome_probabilities(pp, ch))
        assert reconstruction_error(result, choi_of_channel(ch)) < 1e-7
    ch = depolarizing_channel(0.3, 2)
    truth = choi_of_channel(ch)
    real = realize(pp)
    medians = {}
    for shots in (10**4, 10**6):
        errors = []
        for seed in range(20):
            record = simulate_counts(ch, real, shots, seed)
            result = linear_inversion(pp, record.frequencies(pp.labels))
            errors.append(reconstruction_error(result, truth))
        medians[shots] = float(np.median(errors))
    assert medians[10**6] < medians[10**4]
    _report(
        10,
        f"exact inversion < 1e-7; median error {medians[10**6]:.2e} @ 1e6 shots"
        f" < {medians[10**4]:.2e} @ 1e4 shots",
    )
