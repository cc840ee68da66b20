import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ppovm import measurement, tomography
from ppovm.channels import (
    Povm,
    choi_of_channel,
    contraction_channel,
    depolarizing_channel,
    identity_channel,
    ket,
    kron,
    max_entangled_ket,
    projector,
)
from ppovm.linalg import hermiticity_residuals, hs_inner, max_abs, partial_trace
from ppovm.measurement import (
    ProcessPovm,
    TestCouple,
    build_ppovm,
    couple_probabilities,
    effects_multiset_equal,
    outcome_probabilities,
    realize,
    validate_ppovm,
)
from ppovm.rand import (
    random_channel,
    random_density,
    random_ppovm,
    random_test_couple,
    random_unitary,
)
from ppovm.schemes import (
    identity_vs_contraction_ppovm,
    mub_bases,
    mub_probe_couple,
    pauli_probe_ppovm,
    six_state_couples,
    six_state_ppovm,
)
from ppovm.tomography import (
    ic_check,
    linear_inversion,
    psd_project,
    reconstruction_error,
    simulate_counts,
)

PAULI_PP = pauli_probe_ppovm()


# Reference: least squares in an explicit orthonormal Hermitian basis, one
# Hilbert-Schmidt inner product per effect and basis element.


def hermitian_basis(n: int) -> list[np.ndarray]:
    """Orthonormal basis of n x n Hermitian matrices under Tr(A B).

    Ordered with I/sqrt(n) first, then the diagonal traceless elements,
    then the symmetric and antisymmetric off-diagonal pairs.
    """
    basis = [np.eye(n, dtype=complex) / np.sqrt(n)]
    for k in range(1, n):
        diag = np.zeros(n)
        diag[:k] = 1.0
        diag[k] = -k
        basis.append(np.diag(diag).astype(complex) / np.sqrt(k * (k + 1)))
    for i in range(n):
        for j in range(i + 1, n):
            sym = np.zeros((n, n), dtype=complex)
            sym[i, j] = sym[j, i] = 1.0 / np.sqrt(2)
            basis.append(sym)
            asym = np.zeros((n, n), dtype=complex)
            asym[i, j] = -1j / np.sqrt(2)
            asym[j, i] = 1j / np.sqrt(2)
            basis.append(asym)
    return basis


def traceless_marginal_basis(d: int) -> list[np.ndarray]:
    """Orthonormal basis of Hermitian operators on H_d (x) H_d whose
    second marginal vanishes; there are d^4 - d^2 of them."""
    single = hermitian_basis(d)
    return [kron(a, b) for a in single for b in single[1:]]


def _reference_coordinates(matrices, basis) -> np.ndarray:
    return np.array([[hs_inner(b, m).real for b in basis] for m in matrices])


def _reference_rank(matrix: np.ndarray) -> int:
    s = np.linalg.svd(matrix, compute_uv=False)
    return int((s > 1e-10 * s[0]).sum())


def _reference_inversion(pp, probs):
    """(omega_raw, residual, (ic_complete, deficiency))."""
    d = pp.d
    basis = traceless_marginal_basis(d)
    design = _reference_coordinates(pp.matrices, basis)
    center = np.eye(d * d, dtype=complex) / d
    rhs = probs - np.array([hs_inner(m, center).real for m in pp.matrices])
    coeff, *_ = np.linalg.lstsq(design, rhs, rcond=1e-10)
    omega_raw = center + sum(c * b for c, b in zip(coeff, basis))
    residual = float(np.linalg.norm(design @ coeff - rhs))
    rank = _reference_rank(design)
    target = d**4 - d**2
    return omega_raw, residual, (rank == target, target - rank)


def test_hermitian_basis_orthonormal():
    for n in (2, 4):
        basis = hermitian_basis(n)
        assert len(basis) == n * n
        for i, a in enumerate(basis):
            assert max_abs(a - a.conj().T) < 1e-14
            for j, b in enumerate(basis):
                expected = 1.0 if i == j else 0.0
                assert abs(hs_inner(a, b).real - expected) < 1e-10


def test_traceless_marginal_basis():
    basis = traceless_marginal_basis(2)
    assert len(basis) == 2**4 - 2**2
    for b in basis:
        assert max_abs(partial_trace(b, 2, 2, "second")) < 1e-14


def _single_effect_ppovm(d=2, seed=0):
    rho = random_density(d, np.random.default_rng(seed))
    return validate_ppovm([kron(rho.T, np.eye(d))], d)


def _random_qutrit_ppovm(n_couples, n_outcomes, seed):
    rng = np.random.default_rng(seed)
    weight = 1.0 / n_couples
    return build_ppovm(
        [random_test_couple(3, 3, rng, n_outcomes=n_outcomes, weight=weight)
         for _ in range(n_couples)],
        3,
    )


# name -> (process POVM, expected deficiency)
REFERENCE_SCHEMES = {
    "pauli-probe": (pauli_probe_ppovm, 0),
    "six-state": (six_state_ppovm, 0),
    "random d=3, two couples": (lambda: _random_qutrit_ppovm(2, 45, 11), 0),
    "random d=3, one 20-outcome couple": (lambda: _random_qutrit_ppovm(1, 20, 5), 53),
    "identity-vs-contraction": (identity_vs_contraction_ppovm, 11),
    "single effect": (_single_effect_ppovm, 12),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_SCHEMES))
def test_inversion_matches_reference_basis(name):
    build, deficiency = REFERENCE_SCHEMES[name]
    pp = build()
    rng = np.random.default_rng(3)
    # noisy probabilities, so that the residual is not zero
    probs = outcome_probabilities(pp, random_channel(pp.d, rng))
    probs = probs + 1e-3 * rng.standard_normal(len(pp))
    omega_raw, residual, verdict = _reference_inversion(pp, probs)
    result = linear_inversion(pp, probs)
    assert max_abs(result.omega_raw - omega_raw) < 1e-12
    assert result.residual == pytest.approx(residual, rel=1e-12)
    assert verdict == (deficiency == 0, deficiency)
    assert (result.ic_complete, result.deficiency) == verdict == ic_check(pp)


@st.composite
def random_schemes(draw):
    """(seed, d, couples) with couples (anc, outcomes, test-state rank) at
    d = 2..4: either one couple with a d-dimensional ancilla and n^2 + 1
    outcomes, n = d^2, complete for any rank of the test state, or one or
    two couples with an ancilla of 1..d, 2..n^2 + 1 outcomes and rank 1..n,
    n = anc * d, mostly deficient."""
    d = draw(st.integers(2, 4))
    if draw(st.booleans()):
        couples = [(d, d**4 + 1, draw(st.integers(1, d * d)))]
    else:
        couples = []
        for _ in range(draw(st.integers(1, 2))):
            anc = draw(st.integers(1, d))
            n = anc * d
            couples.append((anc, draw(st.integers(2, n * n + 1)), draw(st.integers(1, n))))
    return draw(st.integers(0, 2**32 - 1)), d, couples


def _random_scheme(seed, d, couples):
    rng = np.random.default_rng(seed)
    weight = 1.0 / len(couples)
    pp = build_ppovm(
        [random_test_couple(d, anc, rng, n_outcomes=k, weight=weight, rank=rank)
         for anc, k, rank in couples],
        d,
    )
    return pp, rng


def _assert_matches_lstsq(pp, rng):
    """ic_check and linear_inversion against an SVD rank and lstsq in the
    explicit basis of ``traceless_marginal_basis``; returns the max
    deviation of omega_raw from lstsq's."""
    d = pp.d
    basis = np.array(traceless_marginal_basis(d))
    design = np.einsum("bij,xji->xb", basis, pp.matrices).real
    s = np.linalg.svd(design, compute_uv=False)
    rank, target = _reference_rank(design), d**4 - d**2
    assert ic_check(pp) == (rank == target, target - rank)
    probs = outcome_probabilities(pp, random_channel(d, rng))
    probs = probs + 1e-3 * rng.standard_normal(len(pp))
    center = np.eye(d * d) / d
    rhs = probs - np.trace(pp.matrices, axis1=1, axis2=2).real / d
    coeff, *_ = np.linalg.lstsq(design, rhs, rcond=1e-10)
    result = linear_inversion(pp, probs)
    assert (result.ic_complete, result.deficiency) == ic_check(pp)
    # a solve through the Gram matrix is accurate to n * eps * condition^2
    # for n = d^4 unknowns, where lstsq reaches about eps * condition
    tol = 1e-12 + d**4 * np.finfo(float).eps * result.condition**2
    deviation = max_abs(result.omega_raw - center - np.einsum("b,bij->ij", coeff, basis))
    assert deviation < tol
    assert result.condition == pytest.approx(s[0] / s[rank - 1], rel=tol)
    return deviation


@settings(max_examples=40)
@given(random_schemes())
@example((5, 3, [(3, 81, 9)]))  # complete with the fewest outcomes
@example((6, 4, [(1, 3, 1)]))  # deficient, pure test state
def test_gram_factorization_matches_svd_and_lstsq(scheme):
    _assert_matches_lstsq(*_random_scheme(*scheme))


def _mub_unitaries(d):
    """Unitaries whose columns are mutually unbiased bases: the d + 1 of
    ``mub_bases`` at prime d, the 9 products of qubit ones at d = 4."""
    if d == 4:
        return [np.kron(a, b) for a in mub_bases(2) for b in mub_bases(2)]
    return mub_bases(d)


def _basis_vectors(d, bases, rng):
    """The vectors of ``bases`` randomly chosen unbiased bases, in a
    Haar-random frame: a random, well-conditioned set of bases * d pure
    states."""
    unitaries = _mub_unitaries(d)
    frame = random_unitary(d, rng)
    chosen = rng.choice(len(unitaries), size=bases, replace=False)
    return [(frame @ unitaries[c])[:, k] for c in chosen for k in range(d)]


def _basis_povm(d, bases, rng):
    """Measurement in one of the bases of ``_basis_vectors``, chosen
    uniformly: informationally complete when every basis is there."""
    vectors = _basis_vectors(d, bases, rng)
    effects = tuple(projector(v) * (d / len(vectors)) for v in vectors)
    return Povm(effects, tuple(str(k) for k in range(len(effects))))


def _probe_grid(d, rng, sizes):
    """Maximally entangled probe measured with P (x) Q, for random basis
    POVMs P and Q: effects A_a (x) B_b over every pair (a, b)."""
    p, q = (_basis_povm(d, bases, rng).effects for bases in sizes)
    effects = tuple(kron(a, b) for a in p for b in q)
    povm = Povm(effects, tuple(str(k) for k in range(len(effects))))
    probe = projector(max_entangled_ket(d, normalized=True))
    return build_ppovm([TestCouple(1.0, probe, povm, d)], d)


def _prepare_measure_grid(d, rng, sizes):
    """One couple per test state of ``_basis_vectors(d, sizes[0])``, all
    measured with one basis POVM: effects rho^T (x) F / N over every pair."""
    povm = _basis_povm(d, sizes[1], rng)
    states = _basis_vectors(d, sizes[0], rng)
    return build_ppovm([TestCouple(1.0 / len(states), projector(v), povm, 1) for v in states], d)


def _non_grid(d, rng, sizes):
    """random_ppovm with two or three couples: no product grid."""
    return random_ppovm(d, rng, n_couples=2 + sizes[0] % 2)


# kind -> (scheme constructor, the factorization's route)
ROUTES = {
    "probe": (_probe_grid, "kronecker"),
    "prepare-measure": (_prepare_measure_grid, "kronecker"),
    "random": (_non_grid, "dense"),
}


@st.composite
def factor_schemes(draw):
    """(kind, d, seed, sizes) at d = 2..5, each size a number of bases from
    one up to all of ``_mub_unitaries(d)`` (a complete factor)."""
    kind, d = draw(st.sampled_from(sorted(ROUTES))), draw(st.integers(2, 5))
    bases = st.integers(1, len(_mub_unitaries(d)))
    return kind, d, draw(st.integers(0, 2**32 - 1)), (draw(bases), draw(bases))


@settings(max_examples=17)  # 20 with the explicit examples
@given(factor_schemes())
@example(("probe", 5, 0, (6, 6)))  # complete, as the benchmark's MUB scheme
@example(("prepare-measure", 3, 1, (4, 2)))  # complete states, deficient POVM
@example(("random", 4, 2, (1, 1)))
def test_factor_routes_match_svd_and_lstsq(scheme):
    kind, d, seed, sizes = scheme
    build, route = ROUTES[kind]
    rng = np.random.default_rng(seed)
    pp = build(d, rng, sizes)
    deviation = _assert_matches_lstsq(pp, rng)
    assert (vars(pp)[tomography._MEMO].vectors_b.size > 1) == (route == "kronecker")
    if kind != "random":
        # the grids' factors are well conditioned
        assert deviation < 1e-12


def _rotated_mub(d, rng, sizes=None):
    """``mub_probe_couple(d)``'s process POVM with each qudit measured in its
    own Haar-rotated frame (V (x) W keeps the product form); d = 4, which
    has no such scheme, takes the probe grid of all its bases."""
    if d == 4:
        return _probe_grid(d, rng, (len(_mub_unitaries(4)),) * 2)
    couple = mub_probe_couple(d)
    k = kron(random_unitary(d, rng), random_unitary(d, rng))
    effects = k @ couple.povm.effects @ k.conj().T
    povm = Povm((effects + effects.conj().transpose(0, 2, 1)) / 2, couple.povm.labels)
    return build_ppovm([TestCouple(1.0, couple.state, povm, d)], d)


def _qubit_scheme(build):
    """A fixed qubit scheme at d = 2, for any d drawn."""
    return lambda d, rng, sizes: build()


# every scheme of the route tests: ROUTES, the rotated MUB scheme and the
# two qubit schemes that are grids in another order and of another shape
SCHEMES = {
    **{kind: build for kind, (build, _) in ROUTES.items()},
    "mub": _rotated_mub,
    "six-state": _qubit_scheme(six_state_ppovm),
    "identity-vs-contraction": _qubit_scheme(identity_vs_contraction_ppovm),
}


def _invalid_variants(pp):
    """Effect lists that fail validation: all effects scaled past 1 (still a
    grid, whose proof fails), halved (a proven grid whose sum fails), one
    effect pushed below 0, and one entry NaN."""
    effects = np.array(pp.effects)
    top = np.linalg.eigvalsh(effects).max()
    low = effects.copy()
    kernel = np.linalg.eigh(low[0])[1][:, :1]
    low[0] -= 1e-6 * kernel @ kernel.conj().T
    nan = effects.copy()
    nan[-1, 0, -1] = np.nan
    return {"scaled": effects * (1.5 / top), "halved": effects / 2, "low": low, "nan": nan}


def _route_outcomes(pp, rng_seed):
    """What each stage gives on ``pp``'s effects: validate's norm state,
    the errors of the invalid variants, ic_check, condition and omega_raw,
    and the realized couple with its round trip."""
    d = pp.d
    checked = validate_ppovm(list(pp.effects), d, labels=list(pp.labels))
    errors = {}
    for name, effects in _invalid_variants(pp).items():
        with pytest.raises(ValueError) as raised:
            validate_ppovm(effects, d)
        errors[name] = (type(raised.value), str(raised.value))
    rng = np.random.default_rng(rng_seed)
    probs = outcome_probabilities(checked, random_channel(d, rng))
    result = linear_inversion(checked, probs + 1e-3 * rng.standard_normal(len(probs)))
    real = realize(checked)
    return checked, errors, ic_check(checked), result, real


@st.composite
def route_schemes(draw):
    kind = draw(st.sampled_from(sorted(SCHEMES)))
    d = 2 if kind in ("six-state", "identity-vs-contraction") else draw(st.integers(2, 5))
    bases = st.integers(1, len(_mub_unitaries(d)))
    return kind, d, draw(st.integers(0, 2**32 - 1)), (draw(bases), draw(bases))


@settings(max_examples=24)
@given(route_schemes())
@example(("mub", 5, 0, (6, 6)))
@example(("six-state", 2, 0, (3, 3)))
@example(("identity-vs-contraction", 2, 0, (3, 3)))
def test_grid_route_matches_the_dense_route(scheme):
    kind, d, seed, sizes = scheme
    pp = SCHEMES[kind](d, np.random.default_rng(seed), sizes)
    grid = _route_outcomes(pp, seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("ppovm.measurement.product_grid", lambda *args: None)
        dense = _route_outcomes(pp, seed)
    (checked, errors, ic, result, real), (d_checked, d_errors, d_ic, d_result, d_real) = grid, dense
    on_grid = kind != "random"
    assert (measurement.effect_grid(checked) is not None) == on_grid
    assert measurement.effect_grid(d_checked) is None
    assert checked.norm_state.tobytes() == d_checked.norm_state.tobytes()
    assert errors == d_errors
    assert ic == d_ic
    assert result.condition == pytest.approx(d_result.condition, rel=1e-12, abs=1e-12)
    assert max_abs(result.omega_raw - d_result.omega_raw) < 1e-12
    for couple in (real, d_real):
        assert (hermiticity_residuals(couple.povm.effects)[0] == 0.0).all()
        assert effects_multiset_equal(build_ppovm([couple], d), pp)
    assert max_abs(real.state - d_real.state) == 0.0


@pytest.mark.parametrize("d", [2, 3, 5])
def test_mub_scheme_condition_is_the_closed_form(d):
    # the d + 1 MUBs are a 2-design on each factor: every kept Gram
    # eigenvalue of a factor is one of two values, and the design's
    # condition number is sqrt(d + 1)
    pp = build_ppovm([mub_probe_couple(d)], d)
    probs = outcome_probabilities(pp, identity_channel(d))
    assert measurement.effect_grid(pp) is not None
    assert abs(linear_inversion(pp, probs).condition - np.sqrt(d + 1)) < 1e-12


def test_gram_factorization_runs_once_per_process_povm(monkeypatch):
    pp = pauli_probe_ppovm()
    factorize = tomography._factorize
    builds = []

    def counting_factorize(*args):
        builds.append(args)
        return factorize(*args)

    monkeypatch.setattr(tomography, "_factorize", counting_factorize)
    probs = outcome_probabilities(pp, depolarizing_channel(0.3, 2))
    assert ic_check(pp) == (True, 0)
    first = linear_inversion(pp, probs)
    second = linear_inversion(pp, probs)
    assert len(builds) == 1
    assert max_abs(first.omega_raw - second.omega_raw) == 0.0
    # a new instance with the same effects starts without the factorization
    assert ic_check(dataclasses.replace(pp)) == (True, 0)
    assert len(builds) == 2


def test_condition_number_of_known_designs():
    # Pauli-probe: w_max / w_min of the Gram matrix is 3
    result = linear_inversion(PAULI_PP, outcome_probabilities(PAULI_PP, identity_channel(2)))
    assert result.condition == pytest.approx(np.sqrt(3), rel=1e-12)
    single = _single_effect_ppovm()
    assert linear_inversion(single, np.array([1.0])).condition == np.inf


def test_ic_check_pauli_probe_complete():
    assert ic_check(PAULI_PP) == (True, 0)


def test_ic_check_six_state_same_verdict():
    assert ic_check(six_state_ppovm()) == (True, 0)


def test_ic_check_single_effect_deficient():
    # A (x) I has no component with zero second marginal: its design row
    # is exactly zero, at every d
    for d in range(2, 6):
        assert ic_check(_single_effect_ppovm(d)) == (False, d**4 - d**2)


def test_one_dimensional_process_povm_is_complete():
    # at d = 1 there is one channel and nothing to determine
    pp = validate_ppovm([np.full((1, 1), 0.5), np.full((1, 1), 0.5)], 1)
    assert ic_check(pp) == (True, 0)
    result = linear_inversion(pp, np.array([0.5, 0.5]))
    assert result.omega_raw.tolist() == [[1.0]] and result.condition == np.inf


def test_ic_check_two_outcome_deficient():
    complete, deficiency = ic_check(identity_vs_contraction_ppovm())
    assert not complete
    assert 0 < deficiency < 12


@pytest.mark.parametrize("entry, value", [((0, 1), np.nan), ((2, 2), np.inf)])
def test_a_non_finite_effect_is_named_before_the_gram_eigensolve(entry, value):
    # ProcessPovm checks shapes and labels, not values: effect 3 of the
    # Pauli-probe scheme holds a NaN or an inf, which reaches a Gram factor;
    # numpy's eigh on it would raise LinAlgError
    effects = np.array(PAULI_PP.effects)
    effects[(3, *entry)] = value
    pp = ProcessPovm(2, effects, PAULI_PP.norm_state, PAULI_PP.labels)
    for call in (lambda: ic_check(pp), lambda: linear_inversion(pp, np.full(36, 1 / 36))):
        with pytest.raises(ValueError) as raised:
            call()
        assert type(raised.value) is ValueError
        assert str(raised.value) == "effect '+x,-y' is not finite"


def test_ic_check_invariant_under_permutation_and_relabeling():
    pp = PAULI_PP
    shuffled = ProcessPovm(
        2, pp.matrices[::-1], pp.norm_state, [f"r{k}" for k in range(len(pp))]
    )
    assert ic_check(shuffled) == ic_check(pp)


@settings(max_examples=20)
@given(d=st.integers(2, 5), n_couples=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_ic_check_invariant_under_random_permutation(d, n_couples, seed):
    rng = np.random.default_rng(seed)
    pp = random_ppovm(d, rng, n_couples=n_couples)
    order = rng.permutation(len(pp))
    shuffled = ProcessPovm(d, pp.effects[order], pp.norm_state, [pp.labels[k] for k in order])
    assert ic_check(shuffled) == ic_check(pp)


def test_ic_check_invariant_under_realization_round_trip():
    pp = identity_vs_contraction_ppovm()
    back = build_ppovm([realize(pp)], 2)
    assert ic_check(back) == ic_check(pp)


def test_exact_inversion_identity_channel():
    probs = outcome_probabilities(PAULI_PP, identity_channel(2))
    result = linear_inversion(PAULI_PP, probs)
    psi = projector(max_entangled_ket(2))
    assert max_abs(result.omega_raw - psi) < 1e-8
    assert result.residual < 1e-10
    assert result.ic_complete


def test_exact_inversion_depolarizing():
    ch = depolarizing_channel(0.3, 2)
    probs = outcome_probabilities(PAULI_PP, ch)
    result = linear_inversion(PAULI_PP, probs)
    assert reconstruction_error(result, choi_of_channel(ch)) < 1e-8


def test_deficient_inversion_minimum_norm():
    for d in range(2, 6):
        result = linear_inversion(_single_effect_ppovm(d, seed=1), np.array([1.0]))
        assert not result.ic_complete
        assert result.deficiency == d**4 - d**2
        assert result.condition == np.inf
        assert result.residual < 1e-10
        truth = projector(max_entangled_ket(d))
        assert reconstruction_error(result, truth) > 0.5


def test_inversion_rejects_non_finite_probabilities():
    probs = outcome_probabilities(PAULI_PP, identity_channel(2))
    for bad in (np.nan, np.inf):
        probs[0] = bad
        with pytest.raises(ValueError, match="not finite"):
            linear_inversion(PAULI_PP, probs)


def test_forward_inverse_residual_is_zero():
    rng = np.random.default_rng(2)
    for _ in range(5):
        ch = random_channel(2, rng)
        probs = outcome_probabilities(PAULI_PP, ch)
        result = linear_inversion(PAULI_PP, probs)
        assert result.residual < 1e-10


def test_psd_project_fixed_point():
    omega = choi_of_channel(depolarizing_channel(0.4, 2))
    projected, converged = psd_project(omega, 2)
    assert converged
    assert max_abs(projected - omega) < 1e-9


def test_psd_project_restores_invariants():
    psi = projector(max_entangled_ket(2))
    zz = np.diag([1.0, -1.0, -1.0, 1.0])
    omega_raw = psi + 0.01 * zz
    assert np.linalg.eigvalsh(omega_raw).min() < 0
    projected, converged = psd_project(omega_raw, 2)
    assert converged
    assert np.linalg.eigvalsh(projected).min() > -1e-6
    assert abs(np.trace(projected).real - 2.0) < 1e-6
    assert max_abs(partial_trace(projected, 2, 2, "second") - np.eye(2)) < 1e-6


def test_psd_project_rejects_a_nan_marginal():
    with pytest.raises(ValueError, match="marginal"):
        psd_project(np.full((4, 4), np.nan), 2)


def _reference_psd_project(omega_raw, d, iters=50, tol=1e-10):
    """The projection loop before broadcasting: numpy.kron for the marginal
    repair, the partial_trace and max_abs wrappers, np.eye per iteration."""
    omega = np.asarray(omega_raw, dtype=complex)
    if max_abs(partial_trace(omega, d, d, "second") - np.eye(d)) > 100 * tol:
        raise ValueError("input marginal is too far from the identity")
    omega = (omega + omega.conj().T) / 2
    for _ in range(iters):
        previous = omega
        values, vectors = np.linalg.eigh(omega)
        clamped = np.clip(values, 0.0, None)
        total = clamped.sum()
        if total > 0.0:
            clamped *= d / total
        omega = (vectors * clamped) @ vectors.conj().T
        repair = (np.eye(d) - partial_trace(omega, d, d, "second")) / d
        omega = omega + np.kron(repair, np.eye(d))
        if max_abs(omega - previous) < tol:
            return omega, True
    return omega, False


def _raw_estimate(d, seed, noise):
    """A random channel's Choi matrix plus Hermitian noise of max-norm
    ``noise`` with zero second marginal: PSD at noise 0, not PSD once the
    noise outweighs the smallest eigenvalue."""
    rng = np.random.default_rng(seed)
    omega = choi_of_channel(random_channel(d, rng))
    g = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
    h = g + g.conj().T
    h = h - kron(partial_trace(h, d, d, "second"), np.eye(d)) / d
    return omega + noise * h / max_abs(h)


@settings(max_examples=120)
@given(
    d=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
    noise=st.sampled_from([0.0, 1e-3, 0.05, 0.5]),
    iters=st.sampled_from([1, 3, 50]),
)
@example(d=2, seed=0, noise=0.0, iters=50)
@example(d=5, seed=1, noise=0.5, iters=1)
@example(d=3, seed=2, noise=0.5, iters=3)
def test_psd_project_is_bitwise_the_reference_loop(d, seed, noise, iters):
    omega_raw = _raw_estimate(d, seed, noise)
    omega, converged = psd_project(omega_raw, d, iters=iters)
    expected, expected_converged = _reference_psd_project(omega_raw, d, iters=iters)
    assert omega.dtype == expected.dtype and omega.shape == expected.shape
    assert omega.tobytes() == expected.tobytes()
    assert converged == expected_converged


def test_reference_cases_cover_both_flags():
    # the raw estimates above include PSD inputs that converge and
    # non-PSD inputs that the short iteration budgets leave unconverged
    assert np.linalg.eigvalsh(_raw_estimate(4, 7, 0.5)).min() < 0
    assert psd_project(_raw_estimate(4, 7, 0.0), 4)[1]
    assert not psd_project(_raw_estimate(4, 7, 0.5), 4, iters=1)[1]
    assert not psd_project(_raw_estimate(4, 7, 0.5), 4, iters=3)[1]


def test_psd_project_rejects_bad_marginal():
    with pytest.raises(ValueError):
        psd_project(np.diag([2.0, 0.0, 0.0, 0.0]), 2)


def test_simulate_counts_deterministic_and_complete():
    real = realize(PAULI_PP)
    ch = depolarizing_channel(0.5, 2)
    rec_a = simulate_counts(ch, real, 2000, 42)
    rec_b = simulate_counts(ch, real, 2000, 42)
    assert rec_a.counts == rec_b.counts
    assert sum(rec_a.counts.values()) == 2000
    assert set(rec_a.counts) == set(PAULI_PP.labels)
    rec_c = simulate_counts(ch, real, 2000, 43)
    assert rec_c.counts != rec_a.counts


def test_simulate_counts_zero_error_case():
    pp = identity_vs_contraction_ppovm()
    rec = simulate_counts(identity_channel(2), realize(pp), 500, 7)
    assert rec.counts["identity"] == 500
    assert rec.counts["contraction"] == 0
    rec2 = simulate_counts(contraction_channel(ket(0, 2)), realize(pp), 500, 7)
    assert rec2.counts["contraction"] == 500


def test_simulate_counts_rejects_zero_shots():
    with pytest.raises(ValueError):
        simulate_counts(identity_channel(2), realize(PAULI_PP), 0, 0)


def test_simulate_counts_takes_at_most_int64_shots():
    real = realize(PAULI_PP)
    with pytest.raises(ValueError, match="shots"):
        simulate_counts(identity_channel(2), real, tomography.MAX_SHOTS + 1, 0)
    rec = simulate_counts(identity_channel(2), real, tomography.MAX_SHOTS, 0)
    assert sum(rec.counts.values()) == rec.shots == 2**63 - 1


def test_simulated_frequencies_within_four_sigma():
    ch = depolarizing_channel(0.5, 2)
    real = realize(PAULI_PP)
    exact = couple_probabilities(real, ch)
    shots = 10**6
    rec = simulate_counts(ch, real, shots, 42)
    freqs = rec.frequencies(PAULI_PP.labels)
    sigma = np.sqrt(exact * (1 - exact) / shots)
    assert np.all(np.abs(freqs - exact) <= 4 * sigma + 1e-12)


def test_couple_probabilities_match_abstract_pairing():
    rng = np.random.default_rng(3)
    # realize: the realized experiment's distribution is the process POVM's,
    # rank-deficient norm states included
    cases = [(2, PAULI_PP)]
    cases += [(d, random_ppovm(d, rng, rho_rank=r)) for d in (2, 3, 4) for r in range(1, d + 1)]
    cases.append((3, random_ppovm(3, rng, n_couples=2)))
    for d, pp in cases:
        ch = random_channel(d, rng)
        got = couple_probabilities(realize(pp), ch)
        assert np.abs(got - outcome_probabilities(pp, ch)).max() < 1e-9
    # build: each couple's distribution, weighted and in couple order, is
    # that of the process POVM built from the couples
    couples = six_state_couples()
    pp = build_ppovm(couples, 2)
    for _ in range(5):
        ch = random_channel(2, rng)
        got = np.concatenate([c.weight * couple_probabilities(c, ch) for c in couples])
        assert np.abs(got - outcome_probabilities(pp, ch)).max() < 1e-9


def test_reconstruction_error_examples():
    psi = projector(max_entangled_ket(2))
    result = linear_inversion(PAULI_PP, outcome_probabilities(PAULI_PP, identity_channel(2)))
    assert reconstruction_error(result, result.omega_projected) == 0.0
    # distance between the identity Choi and the full-depolarizing Choi,
    # fixed by direct expansion: eigenvalues of the difference are
    # {3/2, -1/2, -1/2, -1/2}, so the HS norm is sqrt(3)
    diff = psi - np.eye(4) / 2
    by_hand = np.sqrt(sum(abs(x) ** 2 for x in diff.reshape(-1)))
    assert abs(by_hand - np.sqrt(3)) < 1e-12
    full_dep = linear_inversion(
        PAULI_PP, outcome_probabilities(PAULI_PP, depolarizing_channel(1.0, 2))
    )
    assert abs(reconstruction_error(full_dep, psi) - np.sqrt(3)) < 1e-7


def test_noisy_pipeline_produces_valid_state():
    ch = random_channel(2, np.random.default_rng(4))
    real = realize(PAULI_PP)
    rec = simulate_counts(ch, real, 10**4, 11)
    result = linear_inversion(PAULI_PP, rec.frequencies(PAULI_PP.labels))
    assert np.linalg.eigvalsh(result.omega_projected).min() > -1e-6
    assert abs(np.trace(result.omega_projected).real - 2.0) < 1e-6
    assert max_abs(
        partial_trace(result.omega_projected, 2, 2, "second") - np.eye(2)
    ) < 1e-6


def test_qutrit_pipeline_not_qubit_specific():
    rng = np.random.default_rng(11)
    d = 3
    couples = [
        random_test_couple(d, 3, rng, n_outcomes=45, weight=0.5),
        random_test_couple(d, 3, rng, n_outcomes=45, weight=0.5),
    ]
    pp = build_ppovm(couples, d)
    assert ic_check(pp) == (True, 0)
    ch = random_channel(d, rng)
    result = linear_inversion(pp, outcome_probabilities(pp, ch))
    assert reconstruction_error(result, choi_of_channel(ch)) < 1e-8


def test_error_decreases_with_shots():
    ch = depolarizing_channel(0.3, 2)
    truth = choi_of_channel(ch)
    real = realize(PAULI_PP)
    errors = {10**4: [], 10**6: []}
    for shots in errors:
        for seed in range(8):
            rec = simulate_counts(ch, real, shots, seed)
            result = linear_inversion(PAULI_PP, rec.frequencies(PAULI_PP.labels))
            errors[shots].append(reconstruction_error(result, truth))
    assert np.median(errors[10**6]) < np.median(errors[10**4])
