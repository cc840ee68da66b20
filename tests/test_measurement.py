import copy
import dataclasses
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppovm.channels import (
    KrausChannel,
    Povm,
    _conjugate_sum,
    _proven_povm,
    apply_first,
    apply_second,
    check_density,
    choi_of_channel,
    depolarizing_channel,
    dual_channel,
    identity_channel,
    ket,
    max_entangled_ket,
    povm_checks,
    projector,
    state_to_map,
)
from ppovm import serialize
from ppovm.cli import main
from ppovm.linalg import (
    DEFAULT_TOL, ProductGrid, column_grid, dagger, hermitian_parts, hermiticity_residuals,
    hs_inner, indexed_kron, kron, mat_sqrt_psd, max_abs, partial_trace, pinv,
)
from ppovm.measurement import (
    NormStateInvalidError,
    NotProductNormalizationError,
    NotPsdError,
    PpovmError,
    ProcessPovm,
    SupportViolationError,
    TestCouple,
    build_ppovm,
    couple_probabilities,
    effect_grid,
    effect_pairings,
    effects_multiset_equal,
    extra_effect,
    merge_couples,
    outcome_probabilities,
    ppovm_checks,
    process_effect,
    purification,
    realize,
    validate_ppovm,
)
from ppovm.rand import (
    random_channel,
    random_density,
    random_effect,
    random_povm,
    random_ppovm,
    random_test_couple,
    random_unitary,
)
from ppovm.schemes import (
    identity_vs_contraction_ppovm,
    mub_probe_couple,
    pauli_probe_couple,
    pauli_probe_ppovm,
    six_state_couples,
)
from ppovm.tomography import simulate_counts


# ---------------------------------------------------------------------------
# reference loops: the per-effect code that the stacked routines replaced
# ---------------------------------------------------------------------------


def _reference_apply_first(ch, x, right_dim):
    """sum_k (A_k (x) I) x (A_k (x) I)^dag: A_k on x's first index, then
    the dense (A_k (x) I)^dag on the right."""
    n, side = x.shape[1], ch.dim_out * right_dim
    out = np.zeros((side, side), dtype=complex)
    for a in ch.kraus:
        t = (a @ x.reshape(ch.dim_in, right_dim * n)).reshape(side, n)
        out += t @ dagger(kron(a, np.eye(right_dim)))
    return out


def _reference_build(couples, d):
    """Effect by effect: weight * (R_state^* (x) I)[F] for every F."""
    mats = []
    for couple in couples:
        lifted = dual_channel(state_to_map(couple.state, couple.anc_dim, d))
        mats += [couple.weight * _reference_apply_first(lifted, f, d) for f in couple.povm.effects]
    return mats


def _reference_effect_checks(m, tol, name):
    values = np.linalg.eigvalsh((m + dagger(m)) / 2)
    res = max_abs(m - dagger(m))
    return [
        (f"{name}_hermiticity_residual", res, res <= tol * max(1.0, max_abs(m))),
        (f"{name}_min_eigenvalue", float(values[0]), values[0] >= -tol),
        (f"{name}_max_eigenvalue", float(values[-1]), values[-1] <= 1.0 + tol),
    ]


def _reference_effects_checks(mats, tol):
    return [c for k, m in enumerate(mats) for c in _reference_effect_checks(m, tol, f"effect_{k}")]


def _reference_realize(pp, tol=1e-9):
    """POVM elements of the realization, one pinv congruence per effect."""
    d = pp.d
    a, v = purification(pp.norm_state.T, tol)
    p, b = v @ dagger(v), dagger(pinv(a, tol))
    effects = []
    for m in pp.matrices:
        # p and b act on the first index of m, their dense (x) I on the right
        wide = m.reshape(d, d**3)
        leak = (p @ wide).reshape(d * d, d * d) @ kron(p, np.eye(d)) - m
        assert max_abs(leak) <= 10 * tol * max(1.0, max_abs(m))
        f = (b @ wide).reshape(len(b) * d, d * d) @ dagger(kron(b, np.eye(d)))
        effects.append((f + dagger(f)) / 2)
    return effects


def _reference_probabilities(mats, x):
    return np.array([hs_inner(m, x).real for m in mats])


def _dense_realize(pp):
    """``realize`` of a copy of ``pp`` with the product-grid detector
    finding no grid: the dense route."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("ppovm.measurement.product_grid", lambda *args: None)
        return realize(ProcessPovm(pp.d, pp.effects, pp.norm_state, pp.labels))


def _same_entries(got, expected):
    """Same names and pass flags, bitwise equal values."""
    assert [(n, bool(p)) for n, _, p in got] == [(n, bool(p)) for n, _, p in expected]
    assert [v for _, v, _ in got] == [v for _, v, _ in expected]


@settings(max_examples=40)
@given(
    d=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
    ancillas=st.lists(st.integers(1, 5), min_size=1, max_size=2),
    rank_fractions=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2),
)
def test_stacked_pipeline_matches_reference_loops(d, seed, ancillas, rank_fractions):
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(len(ancillas)))
    couples = []
    for anc, w, frac in zip(ancillas, weights, rank_fractions):
        anc = min(anc, d)
        rank = 1 + int(frac * (anc * d - 1))  # rank-deficient test states included
        couples.append(random_test_couple(d, anc, rng, weight=float(w), rank=rank))
    pp = build_ppovm(couples, d)
    reference = _reference_build(couples, d)
    assert max(max_abs(m - r) for m, r in zip(pp.matrices, reference)) < 1e-12

    checks, rho = ppovm_checks(pp.matrices, d)
    _same_entries(checks[: 3 * len(pp)], _reference_effects_checks(pp.matrices, 1e-9))
    assert max_abs(rho - pp.norm_state) < 1e-12
    for couple in couples:
        _same_entries(
            povm_checks(couple.povm.effects)[:-1],
            _reference_effects_checks(couple.povm.effects, 1e-9),
        )

    real = realize(pp)
    realized = _reference_realize(pp)
    assert max(max_abs(f - r) for f, r in zip(real.povm.effects, realized)) < 1e-12
    dense = real
    if effect_grid(pp) is not None:
        # a product grid's realized effects are formed from its factors,
        # within rounding of the reference; the dense route's are bitwise
        # the reference's
        _same_entries(
            povm_checks(real.povm.effects)[:-1],
            _reference_effects_checks(real.povm.effects, 1e-9),
        )
        dense = _dense_realize(pp)
    _same_entries(
        povm_checks(dense.povm.effects)[:-1], _reference_effects_checks(realized, 1e-9)
    )
    back = build_ppovm([real], d)
    assert effects_multiset_equal(pp, back, 1e-8)

    ch = random_channel(d, rng)
    omega = choi_of_channel(ch)
    probs = outcome_probabilities(pp, ch)
    assert np.abs(probs - _reference_probabilities(pp.matrices, omega)).max() < 1e-12
    assert abs(probs.sum() - 1.0) < 1e-9
    output = apply_second(ch, real.state, real.anc_dim)
    born = couple_probabilities(real, ch)
    assert np.abs(born - _reference_probabilities(real.povm.effects, output)).max() < 1e-12
    assert abs(born.sum() - 1.0) < 1e-9


def _dense_congruence(a, x, right_dim):
    """Oracle: sum_k (a_k (x) I) x (a_k (x) I)^dag with the dense Kronecker
    products, and its rounding bound: each side's error is at most about
    n eps |a_k (x) I| |x| |a_k (x) I|^dag entrywise, n the side of x, which
    is at most n eps ||a_k||_inf^2 max|x| (max row sum of |a_k|); twice that
    for the two sides and the sum over k, and twice again for the two
    results compared."""
    ks = [kron(ak, np.eye(right_dim)) for ak in a]
    out = sum(k @ x @ dagger(k) for k in ks)
    norms = sum(np.abs(ak).sum(axis=1).max() ** 2 for ak in a)
    return out, 4 * x.shape[-1] * np.finfo(float).eps * norms * max_abs(x)


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(2, 5),
    anc=st.integers(1, 5),
    n_kraus=st.integers(1, 2),
    rank=st.integers(1, 5),
    leak=st.sampled_from([0.0, 1e-9, 3e-8, 1e-3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_first_factor_products_match_dense_kron(d, anc, n_kraus, rank, leak, seed):
    """The lift, the realized effects and the support-leak decision, all
    applied as a on the first index, agree with the dense a (x) I
    expressions within their rounding bound."""
    anc, rank = min(anc, d), min(rank, d)
    rng = np.random.default_rng(seed)

    # the lift: a map H_anc -> H_d with one or two Kraus operators
    ops = rng.standard_normal((n_kraus, d, anc)) + 1j * rng.standard_normal((n_kraus, d, anc))
    side = anc * d
    x = rng.standard_normal((7, side, side)) + 1j * rng.standard_normal((7, side, side))
    want, bound = _dense_congruence(ops, x, d)
    assert max_abs(apply_first(KrausChannel(anc, d, ops), x, d) - want) <= bound

    # realize: a norm state of rank 1..d, the first effect given a leak
    # outside its support when it has one
    a, v = purification(random_density(d, rng, rank=rank).T)
    r = a.shape[0]
    pp = build_ppovm([TestCouple(1.0, projector(a.reshape(-1)), random_povm(r * d, 6, rng), r)], d)
    effects = np.array(pp.effects)
    effects[0] += leak * kron(np.eye(d) - v @ dagger(v), np.eye(d))
    pp = ProcessPovm(d, effects, pp.norm_state, pp.labels)
    proj = kron(v @ dagger(v), np.eye(d))
    leaks = np.abs(proj @ effects @ proj - effects).max(axis=(1, 2))
    scales = np.maximum(1.0, np.abs(effects).max(axis=(1, 2)))
    if (leaks > 10 * DEFAULT_TOL * scales).any():
        assert r < d and leak >= 3e-8
        with pytest.raises(SupportViolationError, match="effect '0' leaks"):
            realize(pp)
        return
    b = dagger(pinv(a))[None]
    want, bound = _dense_congruence(b, effects, d)
    want = (want + dagger(want)) / 2
    assert max_abs(realize(pp).povm.effects - want) <= bound


def test_povm_and_ppovm_reject_repeated_labels():
    p0, p1 = projector(ket(0, 2)), projector(ket(1, 2))
    with pytest.raises(ValueError, match="repeated effect label 'a'"):
        Povm((p0, p1), ("a", "a"))
    with pytest.raises(ValueError, match="repeated effect label 'x'"):
        ProcessPovm(2, [kron(p1, p0), kron(p1, p1)], p1, ("x", "x"))
    with pytest.raises(ValueError, match="repeated effect label"):
        validate_ppovm([kron(p1, p0), kron(p1, p1)], 2, labels=["x", "x"])


def test_effects_are_one_read_only_stack():
    couple = pauli_probe_couple()
    pp = build_ppovm([couple], 2)
    assert pp.matrices is pp.effects
    assert pp.effects.shape == (36, 4, 4) and couple.povm.effects.shape == (36, 4, 4)
    assert not pp.effects.flags.writeable and not couple.povm.effects.flags.writeable
    source = [np.array(m) for m in pp.matrices]
    copy = ProcessPovm(2, source, pp.norm_state, pp.labels)
    source[0][0, 0] = 7.0  # the constructor copied its input
    assert np.array_equal(copy.effects, pp.effects)


def test_povm_tol_reaches_its_checks():
    p0 = projector(ket(0, 2))
    effects = ((1 - 1e-8) * p0, np.eye(2) - p0)  # complete to 1e-8 only
    with pytest.raises(ValueError, match="completeness_residual"):
        Povm(effects, ("0", "1"))
    assert len(Povm(effects, ("0", "1"), tol=1e-6)) == 2


def born_probability(state, anc_dim, d, ch, effect):
    """Oracle: send the test state through the channel, then measure."""
    output = apply_second(ch, state, anc_dim)
    return hs_inner(effect, output).real


def test_max_entangled_probe_halves_the_effects():
    rng = np.random.default_rng(0)
    povm = random_povm(4, 5, rng)
    state = projector(max_entangled_ket(2, normalized=True))
    pp = build_ppovm([TestCouple(1.0, state, povm, 2)], 2)
    for m, f in zip(pp.matrices, povm.effects):
        assert max_abs(m - f / 2) < 1e-12


def test_ancilla_free_couple_gives_transposed_tensor():
    rng = np.random.default_rng(1)
    rho = random_density(2, rng)
    povm = random_povm(2, 3, rng)
    pp = build_ppovm([TestCouple(1.0, rho, povm, 1)], 2)
    for m, f in zip(pp.matrices, povm.effects):
        assert max_abs(m - kron(rho.T, f)) < 1e-12


def test_factorized_ancilla_couple_ignores_ancilla_part():
    rng = np.random.default_rng(2)
    xi = random_density(3, rng)
    rho = random_density(2, rng)
    qubit_povm = random_povm(2, 3, rng)
    lifted = Povm(
        tuple(kron(np.eye(3), f) for f in qubit_povm.effects), qubit_povm.labels
    )
    pp = build_ppovm([TestCouple(1.0, kron(xi, rho), lifted, 3)], 2)
    for m, f in zip(pp.matrices, qubit_povm.effects):
        assert max_abs(m - kron(rho.T, f)) < 1e-10


def test_fundamental_equivalence_small():
    rng = np.random.default_rng(3)
    for anc_dim, d in ((1, 2), (2, 2), (4, 2), (1, 3), (2, 3)):
        for _ in range(12):
            state = random_density(anc_dim * d, rng)
            effect = random_effect(anc_dim * d, rng)
            ch = random_channel(d, rng)
            lhs = born_probability(state, anc_dim, d, ch, effect)
            m = process_effect(state, effect, anc_dim, d)
            rhs = hs_inner(m, choi_of_channel(ch)).real
            assert abs(lhs - rhs) < 1e-9


def test_build_normalization_state():
    rng = np.random.default_rng(4)
    couples = [
        random_test_couple(2, 1, rng, weight=0.25),
        random_test_couple(2, 2, rng, weight=0.75),
    ]
    pp = build_ppovm(couples, 2)
    expected = sum(
        c.weight * partial_trace(c.state, c.anc_dim, 2, "first") for c in couples
    )
    assert max_abs(pp.norm_state - expected) < 1e-12
    assert max_abs(sum(pp.matrices) - kron(expected.T, np.eye(2))) < 1e-9


def test_build_rejects_bad_weights():
    rng = np.random.default_rng(5)
    couple = random_test_couple(2, 1, rng, weight=0.5)
    with pytest.raises(ValueError):
        build_ppovm([couple], 2)  # weights sum to 0.5
    with pytest.raises(ValueError):
        build_ppovm(
            [couple, random_test_couple(2, 1, rng, weight=0.0),
             random_test_couple(2, 1, rng, weight=0.5)],
            2,
        )
    with pytest.raises(ValueError, match="weights sum to nan"):
        build_ppovm([dataclasses.replace(couple, weight=np.nan)], 2)


@settings(max_examples=30, deadline=None)
@given(
    d=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
    ancillas=st.lists(st.integers(1, 4), min_size=1, max_size=3),
)
def test_build_ppovm_effects_are_bitwise_each_couples_process_effect(d, seed, ancillas):
    # build_ppovm reads each couple's Kraus operators from the eigensolve
    # that checks its state; process_effect takes those of state_to_map
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(len(ancillas)))
    couples = [
        random_test_couple(d, min(anc, d), rng, weight=float(w)) for anc, w in zip(ancillas, weights)
    ]
    pp = build_ppovm(couples, d)
    expected = np.concatenate([
        process_effect(c.state, c.povm.effects, c.anc_dim, d, c.weight) for c in couples
    ])
    assert pp.effects.shape == expected.shape
    assert pp.effects.tobytes() == expected.tobytes()


def _bad_states():
    rho = random_density(4, np.random.default_rng(11))
    skew, nan, inf = np.zeros((4, 4)), rho.copy(), rho.copy()
    skew[0, 1] = 1e-3
    nan[2, 2], inf[0, 0] = np.nan, np.inf
    return {
        "not Hermitian": (rho + skew, "state_hermiticity_residual"),
        "negative eigenvalue": (np.diag([1.1, -0.1, 0.0, 0.0]), "min_eigenvalue"),
        "trace off": (1.01 * rho, "trace_deviation"),
        "NaN": (nan, "state_hermiticity_residual = nan"),
        "inf on the diagonal": (inf, "state_hermiticity_residual = nan"),
    }


BAD_STATES = _bad_states()


@pytest.mark.parametrize("case", list(BAD_STATES))
def test_build_ppovm_raises_check_densitys_error_for_a_bad_couple_state(case):
    state, entry = BAD_STATES[case]
    with pytest.raises(ValueError) as expected:
        check_density(state)
    couple = TestCouple(1.0, state, random_povm(4, 3, np.random.default_rng(12)), 2)
    with pytest.raises(ValueError) as got:
        build_ppovm([couple], 2)
    assert str(got.value) == str(expected.value)
    assert str(got.value).startswith(f"not a density operator: {entry}")


def test_validate_half_povm():
    rng = np.random.default_rng(6)
    povm = random_povm(4, 5, rng)
    pp = validate_ppovm([f / 2 for f in povm.effects], 2)
    assert max_abs(pp.norm_state - np.eye(2) / 2) < 1e-9


def test_validate_contraction_pair():
    p0 = projector(ket(0, 2))
    p1 = projector(ket(1, 2))
    m_id = kron(p1, np.eye(2) - p0)
    m_contr = kron(p1, p0)
    pp = validate_ppovm([m_id, m_contr], 2, labels=["identity", "contraction"])
    assert max_abs(pp.norm_state - p1) < 1e-12
    assert max_abs(sum(pp.matrices) - kron(p1, np.eye(2))) < 1e-12


def test_validate_identity_is_not_a_ppovm():
    # I (x) I factors as sigma (x) I with trace-2 sigma, so the product
    # check passes and the norm-state check is what fails
    with pytest.raises(NormStateInvalidError):
        validate_ppovm([np.eye(4)], 2)


def test_validate_rejects_non_product_sum():
    psi = projector(max_entangled_ket(2)) / 2
    with pytest.raises(NotProductNormalizationError):
        validate_ppovm([psi], 2)


def test_validate_rejects_non_psd():
    bad = kron(projector(ket(1, 2)), np.diag([1.0, -0.1]))
    good = kron(projector(ket(1, 2)), np.diag([0.0, 1.1]))
    with pytest.raises(NotPsdError):
        validate_ppovm([bad, good], 2)


@pytest.mark.parametrize(
    "stack, message",
    [
        # finite entries whose sum m + m^dag overflows to inf
        (1.5e308 * np.eye(4, dtype=complex)[None], "effect 0: max_eigenvalue = 1.500e+308"),
        (np.full((2, 4, 4), np.nan, dtype=complex), "effect 0: hermiticity_residual = nan"),
    ],
)
def test_validate_reports_huge_and_nan_effects_as_not_psd(stack, message):
    with pytest.raises(NotPsdError) as raised:
        validate_ppovm(stack, 2)
    assert str(raised.value) == message


def test_ppovm_checks_report_effects_near_the_float_limit():
    # the partial trace of the effect sum overflows; the inf and NaN it
    # becomes fail the sum's entries, with no RuntimeWarning
    checks, rho = ppovm_checks(1.5e308 * np.eye(4, dtype=complex)[None], 2)
    assert [name for name, _, passed in checks if not passed] == [
        "effect_0_max_eigenvalue",
        "product_normalization_residual",
        "norm_state_min_eigenvalue",
        "norm_state_trace_deviation",
    ]
    assert not np.isfinite(rho).all()


def test_tol_reaches_validate_and_probabilities():
    # one entry moved by 1e-8: the sum and the norm-state trace drift by 5e-9
    mats = [np.array(m) for m in pauli_probe_ppovm().matrices]
    mats[0][0, 0] += 1e-8
    ch = depolarizing_channel(0.37, 2)
    with pytest.raises(NotProductNormalizationError):
        validate_ppovm(mats, 2)
    pp = validate_ppovm(mats, 2, tol=1e-6)
    with pytest.raises(ValueError, match="sum to"):
        outcome_probabilities(pp, ch)
    assert abs(outcome_probabilities(pp, ch, tol=1e-6).sum() - 1.0) < 1e-6


def test_validate_reports_effect_index_and_entry():
    bad = kron(projector(ket(1, 2)), np.eye(2)).astype(complex)
    bad[0, 1] += 0.5j  # not Hermitian
    with pytest.raises(NotPsdError, match="hermiticity_residual") as info:
        validate_ppovm([np.zeros((4, 4)), bad], 2)
    assert info.value.index == 1


def test_merge_single_couple_is_identity():
    couple = pauli_probe_couple()
    merged = merge_couples([couple])
    assert merged.anc_dim == couple.anc_dim
    assert max_abs(merged.state - couple.state) < 1e-12
    pp_a = build_ppovm([couple], 2)
    pp_b = build_ppovm([merged], 2)
    for a, b in zip(pp_a.matrices, pp_b.matrices):
        assert max_abs(a - b) < 1e-9


def test_merge_two_ancilla_free_probes():
    p0 = projector(ket(0, 2))
    p1 = projector(ket(1, 2))
    povm = Povm((p0, p1), ("0", "1"))
    couples = [
        TestCouple(0.5, p0, povm, 1),
        TestCouple(0.5, p1, povm, 1),
    ]
    merged = merge_couples(couples)
    expected_state = 0.5 * (kron(p0, p0) + kron(p1, p1))
    assert max_abs(merged.state - expected_state) < 1e-12
    pp_a = build_ppovm(couples, 2)
    pp_b = build_ppovm([merged], 2)
    for a, b in zip(pp_a.matrices, pp_b.matrices):
        assert max_abs(a - b) < 1e-9


def test_merge_six_state_scheme():
    couples = six_state_couples()
    pp_a = build_ppovm(couples, 2)
    pp_b = build_ppovm([merge_couples(couples)], 2)
    for a, b in zip(pp_a.matrices, pp_b.matrices):
        assert max_abs(a - b) < 1e-9
    assert effects_multiset_equal(pp_a, pp_b, 1e-9)


@settings(max_examples=20)
@given(
    d=st.integers(2, 5),
    ancillas=st.lists(st.integers(1, 2), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_merge_couples_reproduces_process_povm(d, ancillas, seed):
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(len(ancillas)))
    couples = [
        random_test_couple(d, anc, rng, n_outcomes=3, weight=float(w))
        for anc, w in zip(ancillas, weights)
    ]
    pp = build_ppovm(couples, d)
    merged = build_ppovm([merge_couples(couples)], d)
    # one couple's labels are unprefixed; the merged couple's carry the flag
    prefixed = pp.labels if len(couples) > 1 else tuple(f"0:{lbl}" for lbl in pp.labels)
    assert merged.labels == prefixed
    assert max_abs(merged.effects - pp.effects) < 1e-9
    assert max_abs(merged.norm_state - pp.norm_state) < 1e-12


def test_merge_mixed_ancilla_sizes():
    rng = np.random.default_rng(7)
    couples = [
        random_test_couple(2, 1, rng, weight=0.3),
        random_test_couple(2, 2, rng, weight=0.7),
    ]
    merged = merge_couples(couples)
    assert merged.anc_dim == 4  # 2 couples x padded ancilla 2
    pp_a = build_ppovm(couples, 2)
    pp_b = build_ppovm([merged], 2)
    for a, b in zip(pp_a.matrices, pp_b.matrices):
        assert max_abs(a - b) < 1e-9


def test_outcome_probabilities_identity_vs_contraction():
    from ppovm.channels import contraction_channel

    pp = identity_vs_contraction_ppovm()
    assert np.array_equal(outcome_probabilities(pp, identity_channel(2)), [1.0, 0.0])
    got = outcome_probabilities(pp, contraction_channel(ket(0, 2)))
    assert np.array_equal(got, [0.0, 1.0])


def test_outcome_probabilities_match_born_rule():
    rng = np.random.default_rng(8)
    couple = pauli_probe_couple()
    pp = build_ppovm([couple], 2)
    for ch in (identity_channel(2), random_channel(2, rng)):
        probs = outcome_probabilities(pp, ch)
        direct = np.array(
            [
                born_probability(couple.state, 2, 2, ch, f)
                for f in couple.povm.effects
            ]
        )
        assert np.abs(probs - direct).max() < 1e-12
        assert abs(probs.sum() - 1.0) < 1e-9


def test_outcome_probabilities_requires_tp():
    from ppovm.channels import KrausChannel

    pp = pauli_probe_ppovm()
    with pytest.raises(ValueError):
        outcome_probabilities(pp, KrausChannel(2, 2, (np.diag([1.0, 0.5]),)))


def test_realize_maximally_mixed_norm_state():
    pp = pauli_probe_ppovm()  # norm state I/2
    real = realize(pp)
    assert real.anc_dim == 2
    assert abs(np.trace(real.state) - 1.0) < 1e-9
    assert max_abs(partial_trace(real.state, 2, 2, "first") - pp.norm_state) < 1e-8
    assert max_abs(real.state - projector(max_entangled_ket(2, normalized=True))) < 1e-12
    for f, m in zip(real.povm.effects, pp.matrices):
        assert max_abs(f - 2 * m) < 1e-9


def test_realize_identity_vs_contraction():
    real = realize(identity_vs_contraction_ppovm())
    assert real.anc_dim == 1
    assert max_abs(real.state - projector(ket(1, 2))) < 1e-12
    p0 = projector(ket(0, 2))
    assert max_abs(real.povm.effects[0] - (np.eye(2) - p0)) < 1e-12
    assert max_abs(real.povm.effects[1] - p0) < 1e-12


def test_realize_round_trip_ancilla_free_full_rank():
    rng = np.random.default_rng(9)
    rho = random_density(2, rng)
    povm = random_povm(2, 3, rng)
    pp = build_ppovm([TestCouple(1.0, rho, povm, 1)], 2)
    real = realize(pp)
    back = build_ppovm([real], 2)
    for a, b in zip(pp.matrices, back.matrices):
        assert max_abs(a - b) < 1e-8


def test_realize_round_trip_random_including_rank_deficient():
    rng = np.random.default_rng(10)
    for d in (2, 3):
        for rank in range(1, d + 1):
            pp = random_ppovm(d, rng, rho_rank=rank)
            real = realize(pp)
            assert real.anc_dim == rank
            assert max_abs(sum(real.povm.effects) - np.eye(rank * d)) < 1e-9
            back = build_ppovm([real], d)
            for a, b in zip(pp.matrices, back.matrices):
                assert max_abs(a - b) < 1e-8


def test_realize_detects_support_violation():
    # handcrafted: effect sticks out of the rank-one norm state's support
    pp = ProcessPovm(2, [np.eye(4)], projector(ket(1, 2)), ("full",))
    with pytest.raises(SupportViolationError):
        realize(pp)


def test_realize_detects_support_violation_of_rank_two_norm_state():
    rng = np.random.default_rng(12)
    pp = random_ppovm(3, rng, rho_rank=2)
    assert realize(pp).anc_dim == 2
    values, vectors = np.linalg.eigh(pp.norm_state.T)
    assert values[0] < 1e-12 < values[1]
    leaking = 0.1 * kron(projector(vectors[:, 0]), np.eye(3))
    bad = ProcessPovm(
        3, np.concatenate([pp.effects, leaking[None]]), pp.norm_state, [*pp.labels, "leak"]
    )
    with pytest.raises(SupportViolationError, match="'leak'"):
        realize(bad)


def test_a_leaking_factor_names_its_first_effect_in_stack_order():
    # a shuffled 4 x 5 product grid {A_a (x) B_b} at d = 3 whose A sum to a
    # rank-2 rho^T; one A is given a leak outside rho's support, so its five
    # effects all leak.  The factored check names the first of them in
    # stack order, in the message of the check on the effects themselves
    d, rng = 3, np.random.default_rng(31)
    order = rng.permutation(20)  # effect j of the stack is pair order[j] of the grid
    k = (order[0] // 5 + 1) % 4  # not the first effect's A
    sigma = random_density(d, rng, rank=2)
    root = mat_sqrt_psd(sigma)
    a = root @ random_povm(d, 4, rng).effects @ root
    _, v = purification(sigma)
    a[k] += 1e-3 * (np.eye(d) - v @ dagger(v))
    effects = kron(hermitian_parts(a), random_povm(d, 5, rng).effects)[order]
    labels = [f"{i}{j}" for i, j in zip(order // 5, order % 5)]
    pp = ProcessPovm(d, effects, sigma.T, labels)
    assert effect_grid(pp) is not None
    first = labels[np.flatnonzero(order // 5 == k)[0]]
    with pytest.raises(SupportViolationError) as factored:
        realize(pp)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("ppovm.measurement.product_grid", lambda *args: None)
        column = ProcessPovm(d, effects, sigma.T, labels)
        assert effect_grid(column) is None
        with pytest.raises(SupportViolationError) as dense:
            realize(column)
    message = f"effect {first!r} leaks outside the normalization support"
    assert str(factored.value) == str(dense.value) == message


def _ill_conditioned_ppovm(s: float, seed: int) -> ProcessPovm:
    """A d = 3 process POVM whose norm state has the eigenvalues 1 - 2s, s,
    s: all three are kept at the default tol, and the pinv congruence of
    ``realize`` scales the rounding of the effects by up to 1/s."""
    rng = np.random.default_rng(seed)
    u = random_unitary(3, rng)
    a, _ = purification(((u * [1 - 2 * s, s, s]) @ dagger(u)).T)
    assert a.shape[0] == 3
    couple = TestCouple(1.0, projector(a.reshape(-1)), random_povm(9, 10, rng), 3)
    return build_ppovm([couple], 3)


def test_realize_names_an_ill_conditioned_norm_state():
    pp = _ill_conditioned_ppovm(1e-8, 0)
    assert validate_ppovm(pp.effects, 3).effects is pp.effects  # a valid process POVM
    with pytest.raises(PpovmError) as raised:
        realize(pp)
    assert type(raised.value) is PpovmError
    message = str(raised.value)
    prefix = "norm state too ill-conditioned to realize: its smallest kept eigenvalue 1.000e-08"
    assert message.startswith(prefix + " gives a realized completeness_residual = ")
    assert message.endswith(" above tol = 1.000e-09")
    assert float(message.split(" = ")[1].split()[0]) > 1e-9
    # the same construction, well conditioned, realizes as before
    real = realize(_ill_conditioned_ppovm(1e-2, 0))
    assert real.anc_dim == 3
    assert max_abs(real.povm.effects.sum(axis=0) - np.eye(9)) <= 1e-9


def _common_support_ppovm(d: int, rank: int, n_couples: int, rng) -> ProcessPovm:
    """Couples of Dirichlet weights whose test states purify random qudit
    states on one rank-``rank`` support: a norm state of that rank at any
    number of couples."""
    support = random_unitary(d, rng)[:, :rank]
    couples = []
    for weight in rng.dirichlet(np.ones(n_couples)):
        a, _ = purification((support @ random_density(rank, rng) @ dagger(support)).T)
        r = a.shape[0]
        povm = random_povm(r * d, r * d + 1, rng)
        couples.append(TestCouple(float(weight), projector(a.reshape(-1)), povm, r))
    return build_ppovm(couples, d)


@settings(max_examples=40)
@given(
    d=st.integers(2, 5), rank=st.integers(1, 5), n_couples=st.integers(1, 3),
    push=st.floats(0.0, 1e-12), seed=st.integers(0, 2**32 - 1),
)
def test_realized_effects_are_exactly_hermitian(d, rank, n_couples, push, seed):
    # realize forms its effects as o/2 + (o/2)^dag, and its POVM is built
    # without gathering their hermiticity residuals: they must be exactly 0
    rng = np.random.default_rng(seed)
    pp = _common_support_ppovm(d, min(rank, d), n_couples, rng)
    re_part, im_part = rng.uniform(-1.0, 1.0, (2, *pp.effects.shape))
    noise = re_part + 1j * im_part
    off = push * (noise - dagger(noise)) / 2  # anti-Hermitian, parts within push
    pushed = ProcessPovm(d, pp.effects + off, pp.norm_state, pp.labels)
    real = realize(pushed)
    assert real.anc_dim == min(rank, d)
    assert (hermiticity_residuals(real.povm.effects)[0] == 0.0).all()
    grid = column_grid(real.povm.effects)
    assert _proven_povm(real.povm.effects, pushed.labels, DEFAULT_TOL, grid) is not None
    checked = Povm(real.povm.effects, pushed.labels, DEFAULT_TOL)  # every check runs
    assert checked.effects.tobytes() == real.povm.effects.tobytes()
    assert checked.labels == real.povm.labels == pushed.labels


def _unproven_ppovm(case: str) -> ProcessPovm:
    """Process POVMs built without validation, whose realized effects fail
    a check of ``Povm``."""
    if case == "ill-conditioned":
        return _ill_conditioned_ppovm(1e-8, 0)
    pp = pauli_probe_ppovm()
    effects = np.array(pp.effects)
    if case == "negative":  # effect 0 below zero by 1e-6, the sum kept
        v = np.linalg.eigh(effects[0])[1][:, :1]
        effects[0] -= 1e-6 * v @ dagger(v)
        effects[1] += 1e-6 * v @ dagger(v)
    elif case == "inf":
        effects[3, 2, 2] = np.inf
    else:
        effects[3, 0, 1] = np.nan
    return ProcessPovm(2, effects, pp.norm_state, pp.labels)


@pytest.mark.parametrize("case, error, message", [
    ("negative", ValueError, r"invalid POVM: effect_0_min_eigenvalue = -2\.000e-06"),
    ("nan", PpovmError, r"effect '\+x,-y' is not finite$"),
    ("inf", PpovmError, r"effect '\+x,-y' is not finite$"),
    ("ill-conditioned", PpovmError, "norm state too ill-conditioned to realize: its "
     r"smallest kept eigenvalue 1\.000e-08 gives a realized completeness_residual = "),
], ids=["negative", "nan", "inf", "ill-conditioned"])
def test_realize_raises_the_checked_povms_error_when_unproven(case, error, message, monkeypatch):
    pp = _unproven_ppovm(case)
    with pytest.raises(ValueError) as proven:
        realize(pp)
    assert type(proven.value) is error
    assert re.match(message, str(proven.value))
    # the error is the one realize raises when it builds every Povm checked
    monkeypatch.setattr(
        "ppovm.measurement._proven_povm", lambda f, labels, tol, grid: Povm(f, labels, tol)
    )
    with pytest.raises(ValueError) as checked:
        realize(pp)
    assert type(checked.value) is error and str(checked.value) == str(proven.value)


@pytest.mark.parametrize("entry", [np.inf, np.nan], ids=["inf", "nan"])
def test_realize_names_a_non_finite_effect_past_the_support_check(entry):
    # the norm state |1><1| is rank-deficient, so the support check runs
    # on the non-finite effect first, with no RuntimeWarning
    pp = identity_vs_contraction_ppovm()
    effects = np.array(pp.effects)
    effects[1, 0, 1] = entry
    with pytest.raises(PpovmError, match="^effect 'contraction' is not finite$"):
        realize(ProcessPovm(2, effects, pp.norm_state, pp.labels))


def test_validate_names_an_infinite_entry_without_a_warning():
    # inf at effect 3, entry (2, 2): its hermiticity residual inf - inf is
    # NaN, and neither it nor the Hermitian part raises a RuntimeWarning
    with pytest.raises(NotPsdError) as raised:
        validate_ppovm(_unproven_ppovm("inf").effects, 2)
    assert str(raised.value) == "effect 3: hermiticity_residual = nan"


def test_outcome_probabilities_of_a_non_finite_effect_raise():
    # ProcessPovm checks shapes and labels, not values: effect 3 holds a NaN
    pp = _unproven_ppovm("nan")
    with pytest.raises(ValueError, match="^outcome probabilities are not finite$"):
        outcome_probabilities(pp, depolarizing_channel(0.3, 2))
    effects = np.array(pp.effects)
    effects[3, 0, 0] = np.inf
    pp = ProcessPovm(2, effects, pp.norm_state, pp.labels)
    with pytest.raises(ValueError, match="^outcome probabilities are not finite$"):
        outcome_probabilities(pp, depolarizing_channel(0.3, 2))


def test_extra_effect_examples():
    pp = identity_vs_contraction_ppovm()  # norm state |1><1|
    assert max_abs(extra_effect(pp) - kron(projector(ket(0, 2)), np.eye(2))) < 1e-12
    pp2 = pauli_probe_ppovm()  # norm state I/2
    assert max_abs(extra_effect(pp2) - 0.5 * np.eye(4)) < 1e-12


def test_extra_effect_rate_is_d_minus_one():
    rng = np.random.default_rng(11)
    for d in (2, 3):
        pp = random_ppovm(d, rng)
        for _ in range(10):
            omega = choi_of_channel(random_channel(d, rng))
            rate = hs_inner(extra_effect(pp), omega).real
            assert abs(rate - (d - 1)) < 1e-9


def test_entangled_probe_equivalent_of_ancilla_free_scheme():
    # an ancilla-free scheme with test state rho can be reproduced by the
    # maximally entangled probe if the output is "measured" with the
    # operators d * rho^T (x) F_j; these give the same statistics but are
    # not effects once rho is not maximally mixed
    rng = np.random.default_rng(12)
    rho = np.diag([0.8, 0.2]).astype(complex)
    povm = random_povm(2, 3, rng)
    pp = build_ppovm([TestCouple(1.0, rho, povm, 1)], 2)
    psi = projector(max_entangled_ket(2, normalized=True))
    ch = random_channel(2, rng)
    output = apply_second(ch, psi, 2)
    for m, f in zip(pp.matrices, povm.effects):
        x = 2 * kron(rho.T, f)
        assert abs(hs_inner(x, output).real - hs_inner(m, choi_of_channel(ch)).real) < 1e-12
    total = sum(2 * kron(rho.T, f) for f in povm.effects)
    assert max_abs(total - np.eye(4)) > 0.5  # not a POVM
    assert max(np.linalg.eigvalsh(2 * kron(rho.T, f)).max() for f in povm.effects) > 1.0


def test_effects_multiset_equal_ignores_order_and_labels():
    pp = pauli_probe_ppovm()
    shuffled = ProcessPovm(
        2, pp.matrices[::-1], pp.norm_state, [f"x{k}" for k in range(len(pp))]
    )
    assert effects_multiset_equal(pp, shuffled, 1e-12)
    assert not effects_multiset_equal(pp.matrices[:-1], pp.matrices[1:], 1e-12)


def _rotated_mub_ppovm(d, rng):
    """``mub_probe_couple(d)``'s d^2 (d+1)^2 effects, each qudit measured in
    its own Haar-rotated frame."""
    couple = mub_probe_couple(d)
    k = kron(random_unitary(d, rng), random_unitary(d, rng))
    povm = Povm(hermitian_parts(k @ couple.povm.effects @ dagger(k)), None)
    return build_ppovm([TestCouple(1.0, couple.state, povm, d)], d)


def test_realize_then_build_gives_back_a_rotated_mub_scheme_as_a_multiset():
    d, tol = 5, 1e-8
    pp = _rotated_mub_ppovm(d, np.random.default_rng(5))
    assert len(pp) == d**2 * (d + 1) ** 2
    back = build_ppovm([realize(pp, tol)], d, tol).effects[::-1]
    assert effects_multiset_equal(pp, back, tol)
    moved = back.copy()
    moved[7] += 2 * tol * np.eye(d * d)
    assert not effects_multiset_equal(pp, moved, tol)
    assert not effects_multiset_equal(pp, back[1:], tol)


# ---------------------------------------------------------------------------
# a realized product grid: the dense effects only on demand
# ---------------------------------------------------------------------------


def _pauli_probe_file_ppovm(tmp_path):
    path = str(tmp_path / "p.json")
    assert main(["gen", "pauli-probe", "--out", path]) == 0
    effects, labels, d = serialize.decode_ppovm_effects(serialize.read_json(path))
    return validate_ppovm(effects, d, labels=labels)


def _product_ppovm(d, rng):
    """The maximally entangled probe with a random product POVM P (x) Q:
    a process POVM that is a product grid at any d."""
    p, q = random_povm(d, d + 1, rng).effects, random_povm(d, d, rng).effects
    povm = Povm(kron(p, q), None)
    state = projector(max_entangled_ket(d, normalized=True))
    pp = build_ppovm([TestCouple(1.0, state, povm, d)], d)
    return validate_ppovm(pp.effects, d, labels=pp.labels)


def _grid_schemes(tmp_path):
    rng = np.random.default_rng(34)
    yield "pauli-probe file", _pauli_probe_file_ppovm(tmp_path)
    for d in (3, 5):
        yield f"rotated mub d={d}", _rotated_mub_ppovm(d, rng)


def _realized_stack(pp, tol=DEFAULT_TOL):
    """The realized effects as one dense stack: the congruence of the
    grid's A factors, their exact Hermitian parts, and every pair's
    product written out (``indexed_kron``)."""
    grid = effect_grid(pp)
    a, _ = purification(pp.norm_state.T, tol)
    o = _conjugate_sum(dagger(pinv(a, tol))[None], grid.a, 1)
    o /= 2
    o += dagger(o)
    side = o.shape[-1] * grid.b.shape[-1]
    return indexed_kron(o, grid.b, grid.ia, grid.ib, np.empty((len(pp), side, side), complex))


def test_realized_grid_effects_are_bitwise_the_dense_stack(tmp_path):
    for name, pp in _grid_schemes(tmp_path):
        assert effect_grid(pp) is not None, name
        povm = realize(pp).povm
        assert "effects" not in vars(povm), name
        assert povm.effects.tobytes() == _realized_stack(pp).tobytes(), name
        assert not povm.effects.flags.writeable
        assert povm.effects is povm.effects  # formed once, then kept


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_grid_couple_probabilities_match_the_dense_pairing(d):
    rng = np.random.default_rng([34, d])
    ppovms = [_product_ppovm(d, rng)]
    if d != 4:  # mub_bases takes prime d only
        ppovms.append(_rotated_mub_ppovm(d, rng))
    for pp in ppovms:
        real = realize(pp)
        assert isinstance(vars(real.povm).get("_product_grid"), ProductGrid)
        for _ in range(3):
            ch = random_channel(d, rng)
            dense = effect_pairings(real.povm.effects, apply_second(ch, real.state, real.anc_dim))
            assert np.abs(couple_probabilities(real, ch) - dense).max() <= 1e-15


def test_couples_without_a_grid_keep_the_dense_pairing():
    rng = np.random.default_rng(35)
    for d in (2, 3):
        real = realize(random_ppovm(d, rng, n_couples=2))
        assert "_product_grid" not in vars(real.povm) and "effects" in vars(real.povm)
        ch = random_channel(d, rng)
        output = apply_second(ch, real.state, real.anc_dim)
        want = effect_pairings(real.povm.effects, output)
        assert couple_probabilities(real, ch).tobytes() == want.tobytes()


def test_simulated_counts_leave_the_realized_stack_unbuilt(tmp_path):
    for name, pp in _grid_schemes(tmp_path):
        couple = realize(pp)
        record = simulate_counts(random_channel(pp.d, np.random.default_rng(1)), couple, 500, 7)
        assert sum(record.counts.values()) == 500, name
        assert "effects" not in vars(couple.povm), name


def test_an_unbuilt_realized_povm_copies_pickles_and_builds_back(tmp_path):
    pp = _pauli_probe_file_ppovm(tmp_path)
    couple = realize(pp)
    povm = couple.povm
    assert (len(povm), povm.dim) == (36, 4)
    assert "effects" not in vars(povm)
    copied, pickled = copy.deepcopy(povm), pickle.loads(pickle.dumps(povm))
    assert "effects" not in vars(copied) and "effects" not in vars(pickled)
    for other in (copied, pickled):
        assert (len(other), other.dim, other.labels) == (36, 4, povm.labels)
    back = build_ppovm([realize(pp)], 2)
    want = _realized_stack(pp).tobytes()
    assert copied.effects.tobytes() == pickled.effects.tobytes() == want
    built = TestCouple(1.0, couple.state, Povm(povm.effects, povm.labels), couple.anc_dim)
    assert back.effects.tobytes() == build_ppovm([built], 2).effects.tobytes()
    assert back.labels == pp.labels
    assert effects_multiset_equal(back, pp, 1e-9)
    with pytest.raises(AttributeError):
        povm.missing


def _negative_grid_ppovm():
    """The Pauli-probe grid with one A factor pushed 1e-6 below zero and
    another lifted as much: a product grid with the sum kept, built
    without validation, whose realized effects fail the eigenvalue check."""
    pp = pauli_probe_ppovm()
    grid = effect_grid(pp)
    a = np.array(grid.a)
    v = np.linalg.eigh(a[0])[1][:, :1]
    a[0] -= 1e-6 * v @ dagger(v)
    a[1] += 1e-6 * v @ dagger(v)
    effects = np.array([kron(a[i], grid.b[j]) for i, j in zip(grid.ia, grid.ib)])
    return ProcessPovm(2, effects, pp.norm_state, pp.labels)


def test_an_unproven_realized_grid_raises_the_checked_povms_error(monkeypatch):
    bad = _negative_grid_ppovm()
    assert effect_grid(bad) is not None
    with pytest.raises(ValueError) as checked:  # every check of Povm on the dense stack
        Povm(_realized_stack(bad), bad.labels)
    assert str(checked.value).startswith("invalid POVM: effect_")
    with pytest.raises(ValueError) as proven:
        realize(bad)
    assert type(proven.value) is type(checked.value)
    assert str(proven.value) == str(checked.value)
    # with the factor proof failing, the dense spectra decide
    monkeypatch.setattr("ppovm.channels._products_proven", lambda grid, tol: False)
    with pytest.raises(ValueError) as dense:
        realize(bad)
    assert str(dense.value) == str(checked.value)
    pp = pauli_probe_ppovm()
    povm = realize(pp).povm
    assert "effects" not in vars(povm)
    assert povm.effects.tobytes() == _realized_stack(pp).tobytes()


def test_realize_and_simulate_at_d5_stay_within_one_megabyte():
    # the dense realized stack of the d = 5 MUB scheme alone is 9 MB
    rng = np.random.default_rng(36)
    pp = _rotated_mub_ppovm(5, rng)
    assert effect_grid(pp) is not None
    ch = random_channel(5, rng)
    realize(pp)  # first calls fill the caches of the routines it uses
    tracemalloc.start()
    try:
        couple = realize(pp)
        simulate_counts(ch, couple, 1000 * len(pp), 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
