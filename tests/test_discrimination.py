import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppovm.channels import (
    HADAMARD,
    PAULI_Z,
    KrausChannel,
    Povm,
    apply_channel,
    choi_of_channel,
    contraction_channel,
    identity_channel,
    ket,
    projector,
    unitary_channel,
)
from ppovm.discrimination import (
    DiscriminationPlan,
    NoHullError,
    NotPerfectlyDiscriminableError,
    build_plan,
    hull_weights,
    min_copies,
    necessary_condition,
    overlap,
    pair_report,
    support_orthogonal,
    unitary_eig,
    verify_plan,
    zero_in_hull,
)
from ppovm.linalg import dagger, hs_inner, kron, max_abs
from ppovm.measurement import validate_ppovm
from ppovm.rand import random_channel, random_povm, random_pure_state, random_unitary

TWO_PI = 2 * np.pi


# -- reference algorithms: the phase-multiset growth and triangle search that
# min_copies and hull_weights replaced, kept as oracles at small d ----------


def _dedup_phases(phases, tol=1e-12):
    phases = np.sort(np.asarray(phases, dtype=float) % TWO_PI)
    phases[TWO_PI - phases < tol] = 0.0
    phases = np.sort(phases)
    kept = [phases[0]]
    for p in phases[1:]:
        if p - kept[-1] > tol:
            kept.append(p)
    return np.array(kept)


def _reference_min_copies(base_phases, n_max, tol=1e-9):
    """Grow the n-fold sums of the distinct phases until zero is in their hull."""
    base = _dedup_phases(base_phases)
    if base.size == 1:
        return None
    current = base
    for n in range(1, n_max + 1):
        if n > 1:
            current = _dedup_phases((current[:, None] + base[None, :]).ravel())
        if zero_in_hull(current, tol):
            return n
    return None


def _cross(a, b):
    return a.real * b.imag - a.imag * b.real


def _reference_hull_weights(phases):
    """First index-ordered antipodal pair, else first triangle holding the
    origin (solved barycentrically); None when there is neither."""
    phases = np.asarray(phases, dtype=float) % TWO_PI
    n = phases.size
    weights = np.zeros(n)
    for i in range(n):
        for j in range(i + 1, n):
            delta = abs(phases[i] - phases[j])
            if abs(min(delta, TWO_PI - delta) - np.pi) <= 1e-9:
                weights[i] = weights[j] = 0.5
                return weights
    z = np.exp(1j * phases)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                tri = (z[i], z[j], z[k])
                crosses = [_cross(tri[m] - tri[m - 1], -tri[m - 1]) for m in (1, 2, 0)]
                if any(c > 1e-12 for c in crosses) and any(c < -1e-12 for c in crosses):
                    continue
                system = np.array([[w.real for w in tri], [w.imag for w in tri], [1.0] * 3])
                q, *_ = np.linalg.lstsq(system, np.array([0.0, 0.0, 1.0]), rcond=None)
                if q.min() < -1e-9:
                    continue
                q = np.clip(q, 0.0, None)
                q = q / q.sum()
                if abs(q @ np.array(tri)) > 1e-9:
                    continue
                weights[[i, j, k]] = q
                return weights
    return None


def _process_picture_rates(ch1, ch2, plan):
    """(Tr[M2 Omega1], Tr[M1 Omega2]) from the plan's process POVM."""
    m1, m2 = plan.ppovm.matrices
    return (
        hs_inner(m2, choi_of_channel(ch1)).real,
        hs_inner(m1, choi_of_channel(ch2)).real,
    )


def qubit_pair_with_phase_gap(gap, rng):
    """Random qubit pair whose relative eigenphases differ by ``gap``."""
    u = random_unitary(2, rng)
    q = random_unitary(2, rng)
    w = q @ np.diag([1.0, np.exp(1j * gap)]) @ dagger(q)
    return u, u @ w


def test_unitary_eig_contract():
    rng = np.random.default_rng(0)
    for d in (2, 3, 5):
        for _ in range(20):
            w = random_unitary(d, rng)
            phases, vectors = unitary_eig(w)
            assert np.all(np.diff(phases) >= 0)
            assert np.all((phases >= 0) & (phases < 2 * np.pi))
            assert max_abs(dagger(vectors) @ vectors - np.eye(d)) < 1e-10
            for theta, u in zip(phases, vectors.T):
                assert np.linalg.norm(w @ u - np.exp(1j * theta) * u) < 1e-8


def test_unitary_eig_degenerate_phases():
    # eigenphases {t, t, -t, -t}: the Hermitian part alone cannot split them
    rng = np.random.default_rng(1)
    q = random_unitary(4, rng)
    t = 0.7
    w = q @ np.diag(np.exp(1j * np.array([t, t, -t, -t]))) @ dagger(q)
    phases, vectors = unitary_eig(w)
    for theta, u in zip(phases, vectors.T):
        assert np.linalg.norm(w @ u - np.exp(1j * theta) * u) < 1e-8
    assert max_abs(dagger(vectors) @ vectors - np.eye(4)) < 1e-10


def _reference_unitary_eig(w):
    """The per-column loop that unitary_eig replaced."""
    d = w.shape[0]
    h = (w + dagger(w)) / 2
    k = (w - dagger(w)) / 2j
    h_values, h_vectors = np.linalg.eigh(h)
    columns = []
    start = 0
    while start < d:
        stop = start + 1
        while stop < d and h_values[stop] - h_values[stop - 1] < 1e-7:
            stop += 1
        block = h_vectors[:, start:stop]
        if stop - start == 1:
            columns.append(block[:, 0])
        else:
            sub = dagger(block) @ k @ block
            _, sub_vectors = np.linalg.eigh((sub + dagger(sub)) / 2)
            for col in (block @ sub_vectors).T:
                columns.append(col)
        start = stop
    phases = np.empty(d)
    vectors = np.column_stack(columns)
    for idx in range(d):
        u = vectors[:, idx]
        lam = np.vdot(u, w @ u)
        assert np.linalg.norm(w @ u - lam * u) <= 1e-8
        theta = float(np.angle(lam)) % TWO_PI
        if TWO_PI - theta < 1e-12:
            theta = 0.0
        phases[idx] = theta
    order = np.argsort(phases, kind="stable")
    return phases[order], vectors[:, order]


def test_unitary_eig_matches_reference_loop():
    rng = np.random.default_rng(31)
    q = random_unitary(4, np.random.default_rng(1))
    t = 0.7
    cases = [random_unitary(d, rng) for d in (2, 3, 5, 8, 16, 32) for _ in range(5)]
    cases.append(q @ np.diag(np.exp(1j * np.array([t, t, -t, -t]))) @ dagger(q))
    cases.append(np.diag(np.exp(-1j * np.array([1e-13, 1.0, 2.0]))))  # wraps to 0
    for w in cases:
        phases, vectors = unitary_eig(w)
        expected_phases, expected_vectors = _reference_unitary_eig(w)
        assert vectors.tobytes() == expected_vectors.tobytes()
        assert np.abs(phases - expected_phases).max() <= 2e-15


def test_unitaries_of_different_sizes_are_rejected():
    for check in (overlap, necessary_condition, build_plan, pair_report):
        with pytest.raises(ValueError, match="unitaries must share a dimension"):
            check(np.eye(2), np.eye(3))
    with pytest.raises(ValueError, match="unitaries must share a dimension"):
        min_copies(np.eye(2), np.eye(3), 4)


def test_scalars_are_rejected_before_their_dimension_is_read():
    for check in (overlap, necessary_condition, pair_report):
        with pytest.raises(ValueError, match=r"unitary must be square, got \(\)"):
            check(1.0, 1.0)


def test_unitary_eig_rejects_non_unitary():
    with pytest.raises(ValueError):
        unitary_eig(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_overlap_examples():
    u = random_unitary(3, np.random.default_rng(2))
    assert abs(overlap(u, u) - 3.0) < 1e-12
    assert abs(overlap(np.eye(2), PAULI_Z)) < 1e-12
    v = np.diag([1.0, np.exp(1j * np.pi / 3), np.exp(-1j * np.pi / 3)])
    assert abs(overlap(np.eye(3), v) - 2.0) < 1e-12


def test_overlap_equals_process_state_inner_product():
    from ppovm.channels import max_entangled_ket

    rng = np.random.default_rng(3)
    for d in (2, 3):
        for _ in range(50):
            u = random_unitary(d, rng)
            v = random_unitary(d, rng)
            ket_u = kron(np.eye(d), u) @ max_entangled_ket(d)
            ket_v = kron(np.eye(d), v) @ max_entangled_ket(d)
            assert abs(overlap(u, v) - abs(hs_inner(ket_u, ket_v))) < 1e-10


def test_overlap_rejects_non_unitary():
    with pytest.raises(ValueError):
        overlap(np.eye(2), np.diag([1.0, 0.5]))


def test_necessary_condition():
    assert necessary_condition(np.eye(2), PAULI_Z)
    assert not necessary_condition(np.eye(2), np.diag([1.0, np.exp(1j * 1e-3)]))
    v = np.diag([1.0, np.exp(1j * np.pi / 3), np.exp(-1j * np.pi / 3)])
    assert necessary_condition(np.eye(3), v)  # boundary |Tr| = d - 1


def test_zero_in_hull():
    assert zero_in_hull(np.array([0.0, np.pi]))
    assert not zero_in_hull(np.array([0.0, np.pi / 4]))
    assert zero_in_hull(np.array([0.0, 2 * np.pi / 3, 4 * np.pi / 3]))
    assert not zero_in_hull(np.array([0.1]))


def test_hull_weights_antipodal():
    q = hull_weights(np.array([0.0, np.pi]))
    assert np.allclose(q, [0.5, 0.5])


def test_hull_weights_trine():
    phases = np.array([0.0, 2 * np.pi / 3, 4 * np.pi / 3])
    q = hull_weights(phases)
    assert np.allclose(q, [1 / 3, 1 / 3, 1 / 3])
    assert abs(np.sum(q * np.exp(1j * phases))) < 1e-12


def test_hull_weights_antipodal_pair_takes_precedence():
    # {0, pi/2, pi} contains the antipodal pair (0, pi), which wins the
    # search; the middle point gets weight zero
    phases = np.array([0.0, np.pi / 2, np.pi])
    q = hull_weights(phases)
    assert np.allclose(q, [0.5, 0.0, 0.5])
    assert abs(np.sum(q * np.exp(1j * phases))) < 1e-9


def test_hull_weights_generic_triangle():
    phases = np.array([0.0, 1.8, 4.0])
    q = hull_weights(phases)
    assert q.min() >= 0.0
    assert abs(q.sum() - 1.0) < 1e-12
    assert abs(np.sum(q * np.exp(1j * phases))) < 1e-9
    assert (q > 1e-12).sum() <= 3


def test_hull_weights_near_antipode_unsorted():
    # pi - 1e-4 is no antipodal partner of 0 at tol 1e-9, so the triangle
    # (0, pi - 1e-4, pi + 0.5) holds the origin; weights follow input order
    phases = np.array([np.pi + 0.5, np.pi - 1e-4, 0.3, 0.0])
    q = hull_weights(phases)
    assert q.min() >= 0.0
    assert abs(q.sum() - 1.0) < 1e-12
    assert abs(np.sum(q * np.exp(1j * phases))) < 1e-12
    assert q[2] == 0.0 and np.count_nonzero(q) == 3


def test_hull_weights_requires_hull():
    with pytest.raises(NoHullError):
        hull_weights(np.array([0.0, np.pi / 4]))


def test_build_plan_identity_vs_pauli_z():
    plan = build_plan(np.eye(2), PAULI_Z)
    plus = (ket(0, 2) + ket(1, 2)) / np.sqrt(2)
    assert abs(abs(np.vdot(plan.probe, plus)) - 1.0) < 1e-9
    out_id = plan.probe
    out_z = PAULI_Z @ plan.probe
    assert abs(np.vdot(out_id, out_z)) < 1e-12
    assert max(abs(r) for r in plan.error_rates) < 1e-9


def test_build_plan_identical_channels_rejected():
    with pytest.raises(NotPerfectlyDiscriminableError):
        build_plan(np.eye(2), np.eye(2))


def test_build_plan_qutrit_trine_phases():
    rng = np.random.default_rng(4)
    q = random_unitary(3, rng)
    w = q @ np.diag(np.exp(1j * np.array([0.0, 2 * np.pi / 3, 4 * np.pi / 3]))) @ dagger(q)
    u = random_unitary(3, rng)
    v = u @ w
    plan = build_plan(u, v)
    # oracle: push the probe through both channels, outputs must be orthogonal
    out_u = apply_channel(unitary_channel(u), projector(plan.probe))
    out_v = apply_channel(unitary_channel(v), projector(plan.probe))
    assert abs(hs_inner(out_u, out_v)) < 1e-9
    rates = verify_plan(unitary_channel(u), unitary_channel(v), plan)
    assert max(abs(r) for r in rates) < 1e-9


def test_build_plan_probe_annihilates_relative_phase_operator():
    rng = np.random.default_rng(5)
    for _ in range(20):
        u, v = qubit_pair_with_phase_gap(np.pi, rng)
        plan = build_plan(u, v)
        w = dagger(u) @ v
        assert abs(np.vdot(plan.probe, w @ plan.probe)) < 1e-9


def test_plan_ppovm_is_valid_and_normalized():
    plan = build_plan(np.eye(2), PAULI_Z)
    total = sum(plan.ppovm.matrices)
    assert max_abs(total - kron(projector(plan.probe).T, np.eye(2))) < 1e-9
    validate_ppovm(list(plan.ppovm.matrices), 2)


def test_verify_plan_identity_vs_contraction():
    p0 = projector(ket(0, 2))
    povm = Povm((np.eye(2) - p0, p0), ("identity", "contraction"))
    plan = DiscriminationPlan(ket(1, 2), povm, (0.0, 0.0))
    rates = verify_plan(identity_channel(2), contraction_channel(ket(0, 2)), plan)
    assert rates == (0.0, 0.0)


@pytest.mark.parametrize("first", [True, False])
def test_verify_plan_names_both_dimensions_of_a_channel_that_changes_them(first):
    # a 2 -> 3 isometry, trace preserving; its 3x3 output once met the 2x2
    # effects in hs_inner
    iso = KrausChannel(2, 3, (np.eye(3, 2),))
    pair = (iso, identity_channel(2)) if first else (identity_channel(2), iso)
    with pytest.raises(ValueError, match=r"^channel maps dimension 2 to 3, expected 2 to 2$"):
        verify_plan(*pair, build_plan(np.eye(2), PAULI_Z))


def test_verify_plan_bad_probe_fails():
    # probing with |0> makes both outputs |0>; with a Hadamard-basis POVM
    # both misidentification rates are 1/2
    plus, minus = HADAMARD[:, 0], HADAMARD[:, 1]
    povm = Povm((projector(plus), projector(minus)), ("identity", "contraction"))
    plan = DiscriminationPlan(ket(0, 2), povm, (0.5, 0.5))
    x, y = verify_plan(identity_channel(2), contraction_channel(ket(0, 2)), plan)
    assert abs(x - 0.5) < 1e-12
    assert abs(y - 0.5) < 1e-12
    assert x * y > 0


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_verify_plan_equals_process_picture(d):
    # the paper's identity: Tr[M Omega] = Tr[F E(psi)] for M = psi^T (x) F
    rng = np.random.default_rng(20 + d)
    for _ in range(10):
        plan = DiscriminationPlan(random_pure_state(d, rng), random_povm(d, 2, rng), (0.0, 0.0))
        ch1, ch2 = random_channel(d, rng), random_channel(d, rng)
        state = verify_plan(ch1, ch2, plan)
        process = _process_picture_rates(ch1, ch2, plan)
        assert max_abs(np.subtract(state, process)) < 1e-12


def test_build_and_verify_plan_memory_below_one_process_operator():
    d = 32
    rng = np.random.default_rng(12)
    u, v = random_unitary(d, rng), random_unitary(d, rng)
    ch_u, ch_v = unitary_channel(u), unitary_channel(v)
    tracemalloc.start()
    try:
        plan = build_plan(u, v)
        verify_plan(ch_u, ch_v, plan)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one d^2 x d^2 complex operator is 16 d^4 bytes
    assert peak < 16 * d**4


def test_support_orthogonal_cases():
    omega_id = choi_of_channel(identity_channel(2))
    omega_z = choi_of_channel(unitary_channel(PAULI_Z))
    omega_contr = choi_of_channel(contraction_channel(ket(0, 2)))
    assert support_orthogonal(omega_id, omega_z)
    # non-orthogonal supports yet perfectly discriminable: sufficiency only
    assert not support_orthogonal(omega_id, omega_contr)
    assert not support_orthogonal(omega_id, omega_id)


def _report_oracle(u, v, n_max):
    """PairReport's fields from the standalone functions, one call each."""
    phases, _ = unitary_eig(dagger(u) @ v)
    hull = zero_in_hull(phases)
    identical = _dedup_phases(phases).size == 1
    if n_max is not None:
        copies = min_copies(u, v, n_max)
    else:
        copies = 1 if hull else None
    try:
        plan = build_plan(u, v)
    except NotPerfectlyDiscriminableError:
        plan = None
    return overlap(u, v), necessary_condition(u, v), hull, identical, copies, plan


def test_pair_report_matches_standalone_functions():
    rng = np.random.default_rng(13)
    # (u, v, copies expected with n_max = 10, or None to skip that check)
    cases = [(random_unitary(d, rng), random_unitary(d, rng), None) for d in (2, 3, 5, 8)]
    for gap, copies in ((np.pi / 3, 3), (2 * np.pi / 5, 3), (np.pi / 2, 2), (np.pi / 7, 7)):
        cases.append((*qubit_pair_with_phase_gap(gap, rng), copies))
    u = random_unitary(3, rng)
    same_channel = (u, np.exp(0.3j) * u)
    cases.append((*same_channel, None))
    # the |Tr| = d - 1 boundary: an arc of 2pi/3, so two copies
    cases.append((np.eye(3), np.diag(np.exp(1j * np.array([0.0, np.pi / 3, -np.pi / 3]))), 2))
    planned = set()
    for u, v, copies in cases:
        for n_max in (None, 10):
            report = pair_report(u, v, n_max)
            *answers, plan = _report_oracle(u, v, n_max)
            assert [
                report.overlap, report.necessary, report.zero_in_hull,
                report.always_indistinguishable, report.min_copies,
            ] == answers
            assert (report.plan is None) == (plan is None)
            planned.add(plan is not None)
            if plan is not None:
                assert report.plan.probe.tobytes() == plan.probe.tobytes()
                assert report.plan.povm.effects.tobytes() == plan.povm.effects.tobytes()
                assert report.plan.povm.labels == plan.povm.labels
                assert report.plan.error_rates == plan.error_rates
        if copies is not None:
            assert pair_report(u, v, 10).min_copies == copies
    assert pair_report(*same_channel, 10).always_indistinguishable
    assert planned == {True, False}


@pytest.mark.parametrize("identical", [True, False])
def test_pair_report_rejects_n_max_below_one(identical):
    rng = np.random.default_rng(14)
    u = random_unitary(3, rng)
    v = np.exp(0.3j) * u if identical else random_unitary(3, rng)
    assert pair_report(u, v, 1).always_indistinguishable == identical
    with pytest.raises(ValueError, match="n_max must be at least 1"):
        pair_report(u, v, 0)
    with pytest.raises(ValueError, match="n_max must be at least 1"):
        min_copies(u, v, 0)


def test_min_copies_antipodal_is_one():
    assert min_copies(np.eye(2), PAULI_Z, 5) == 1


def test_min_copies_matches_closed_form():
    rng = np.random.default_rng(6)
    for gap, expected in ((np.pi / 3, 3), (2 * np.pi / 5, 3), (np.pi / 2, 2), (np.pi / 7, 7)):
        u, v = qubit_pair_with_phase_gap(gap, rng)
        got = min_copies(u, v, 10)
        assert got == expected
        closed = int(np.ceil((np.pi - 1e-9) / gap))
        assert got == closed


def test_min_copies_monotone():
    rng = np.random.default_rng(7)
    u, v = qubit_pair_with_phase_gap(np.pi / 5, rng)
    n_star = min_copies(u, v, 12)
    assert n_star == 5
    # once feasible, more copies stay feasible
    base, _ = unitary_eig(dagger(u) @ v)
    base = _dedup_phases(base)
    current = base
    for n in range(2, 13):
        current = _dedup_phases((current[:, None] + base[None, :]).ravel())
        if n >= n_star:
            assert zero_in_hull(current)


def test_min_copies_identical_channels():
    u = random_unitary(2, np.random.default_rng(8))
    assert min_copies(u, np.exp(1j * 0.3) * u, 10) is None
    assert pair_report(u, np.exp(1j * 0.3) * u).always_indistinguishable
    assert not pair_report(np.eye(2), PAULI_Z).always_indistinguishable


def test_min_copies_closed_form_beyond_reference_reach():
    # an arc of 1e-6 needs ~3.1e6 copies: far past any multiset growth
    v = np.diag([1.0, np.exp(1e-6j)])
    assert not pair_report(np.eye(2), v).always_indistinguishable
    assert min_copies(np.eye(2), v, 4_000_000) == int(np.ceil((np.pi - 1e-9) / 1e-6))
    assert min_copies(np.eye(2), v, 3_000_000) is None


def test_min_copies_unreachable_within_bound():
    u, v = qubit_pair_with_phase_gap(np.pi / 7, np.random.default_rng(9))
    assert min_copies(u, v, 3) is None


def test_qubit_orthogonality_criterion():
    rng = np.random.default_rng(10)
    hits = 0
    for k in range(100):
        if k % 2 == 0:
            u, v = random_unitary(2, rng), random_unitary(2, rng)
        else:
            u, v = qubit_pair_with_phase_gap(np.pi, rng)
        orthogonal = overlap(u, v) < 1e-9
        phases, _ = unitary_eig(dagger(u) @ v)
        assert zero_in_hull(phases) == orthogonal
        try:
            build_plan(u, v)
            built = True
        except NotPerfectlyDiscriminableError:
            built = False
        assert built == orthogonal
        hits += built
    assert hits == 50


def test_hull_implies_trace_bound_empirically():
    # consistency probe: no counterexample to hull => |Tr W| <= d-1 observed
    rng = np.random.default_rng(11)
    for d in (2, 3):
        for _ in range(200):
            u = random_unitary(d, rng)
            v = random_unitary(d, rng)
            phases, _ = unitary_eig(dagger(u) @ v)
            if zero_in_hull(phases):
                assert necessary_condition(u, v)


@settings(max_examples=150)
@given(
    fractions=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6),
    offset=st.floats(0.0, TWO_PI),
    spread=st.floats(0.01, TWO_PI),
    seed=st.integers(0, 2**32 - 1),
)
def test_closed_forms_match_references(fractions, offset, spread, seed):
    # relative eigenphases offset + spread * fractions, in a random eigenbasis
    d = len(fractions)
    rng = np.random.default_rng(seed)
    q = random_unitary(d, rng)
    u = random_unitary(d, rng)
    v = u @ q @ np.diag(np.exp(1j * (offset + spread * np.array(fractions)))) @ dagger(q)
    phases, _ = unitary_eig(dagger(u) @ v)
    assert min_copies(u, v, 12) == _reference_min_copies(phases, 12)
    reference = _reference_hull_weights(phases)
    assert zero_in_hull(phases) == (reference is not None)
    assert pair_report(u, v).always_indistinguishable == (_dedup_phases(phases).size == 1)
    if reference is not None:
        shuffled = rng.permutation(phases)
        q = hull_weights(shuffled)
        assert q.min() >= 0.0
        assert abs(q.sum() - 1.0) < 1e-12
        assert abs(np.sum(q * np.exp(1j * shuffled))) < 1e-9
        assert np.count_nonzero(q) <= 3
