import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ppovm.channels import (
    PAULI_X, PAULI_Z, check_density, choi_of_channel, effect_checks, ket, max_entangled_ket,
    projector, state_checks,
)
from ppovm.linalg import (
    dagger,
    herm_eig,
    hermitian_parts,
    hermiticity_check,
    hermiticity_residuals,
    hs_inner,
    indexed_kron,
    is_psd,
    kron,
    mat_sqrt_psd,
    partial_trace,
    pinv,
    product_grid,
    rank_and_support,
    spectra,
    vec_reshape,
)
from ppovm.rand import random_channel, random_density, random_unitary


def kron_by_index_formula(a, b):
    """Oracle: expand the tensor product entry by entry."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


def test_kron_identity():
    assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_diagonal():
    got = kron(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
    assert np.array_equal(got, np.diag([3.0, 4.0, 6.0, 8.0]))


def test_kron_matches_index_formula():
    got = kron(PAULI_X, projector(ket(0, 2)))
    expected = kron_by_index_formula(PAULI_X, projector(ket(0, 2)))
    assert np.array_equal(got, expected)
    # the only nonzero entries sit at (0,2) and (2,0)
    nz = np.argwhere(np.abs(got) > 0)
    assert sorted(map(tuple, nz)) == [(0, 2), (2, 0)]


def test_kron_mixed_product_rule():
    rng = np.random.default_rng(1)
    for n in (2, 3):
        a, b, c, d = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(4))
        lhs = kron(a, b) @ kron(c, d)
        rhs = kron(a @ c, b @ d)
        assert np.abs(lhs - rhs).max() < 1e-12


def same_bits(got, expected):
    """Equal dtype, shape and bytes: signed zeros and NaN payloads count."""
    got, expected = np.asarray(got), np.asarray(expected)
    return got.dtype == expected.dtype and got.shape == expected.shape and got.tobytes() == expected.tobytes()


def numpy_kron(a, b):
    """numpy.kron of two matrices; when either is a stack (a matrix then
    counting as a stack of one), the a-major stack of numpy.kron of every
    pair."""
    if a.ndim == b.ndim == 2:
        return np.kron(a, b)
    return np.array([np.kron(x, y) for x in a.reshape(-1, *a.shape[-2:]) for y in b.reshape(-1, *b.shape[-2:])])


STACKS = [((2, 2, 2), (3, 2, 2)), ((1, 3, 3), (2, 2, 2)), ((4, 1, 2), (3, 2, 3)), ((2, 2, 3), (4, 1)), ((3, 3), (2, 2, 2))]


@pytest.mark.parametrize("dtypes", [(float, float), (complex, complex), (float, complex), (complex, float)])
@pytest.mark.parametrize("shapes", [((2, 2), (2, 2)), ((3, 3), (5, 5)), ((2, 3), (4, 1)), ((1, 4), (3, 2)), *STACKS])
def test_kron_is_bitwise_numpy_kron(dtypes, shapes):
    rng = np.random.default_rng(3)
    a, b = (
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape) if dtype is complex else rng.standard_normal(shape)
        for dtype, shape in zip(dtypes, shapes)
    )
    # signed zeros must survive as numpy.kron leaves them
    a[(0,) * a.ndim], b[(-1,) * b.ndim] = -0.0, -0.0
    assert same_bits(kron(a, b), numpy_kron(a, b))
    a_t = a.swapaxes(-1, -2)  # non-contiguous operand
    assert same_bits(kron(a_t, b), numpy_kron(a_t, b))
    assert same_bits(kron(b, np.eye(3)), numpy_kron(b, np.eye(3)))


def _reference_hermiticity_residuals(m, tol):
    """The full-matrix form: both triangles of m - m^dag, and max|m| of
    every matrix; a residual that is not finite fails."""
    res = np.abs(m - dagger(m)).max(axis=(-2, -1), initial=0.0)
    scale = np.maximum(1.0, np.abs(m).max(axis=(-2, -1), initial=0.0))
    return res, (res <= tol * scale) & np.isfinite(res)


def _hermiticity_case(seed, count, n, kind, scale, noise):
    """A stack of ``count`` n x n matrices (one matrix when count is None):
    Hermitian, non-Hermitian, Hermitian with a complex diagonal, or
    Hermitian with a NaN or an infinite entry; scaled, then perturbed by
    ``noise``."""
    rng = np.random.default_rng(seed)
    shape = (n, n) if count is None else (count, n, n)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    m = g if kind == "non-hermitian" else g + dagger(g)
    if kind == "complex-diagonal":
        m = m + np.eye(n) * 1j * rng.standard_normal(shape[:-1])[..., None]
    m = scale * m + noise * rng.standard_normal(shape)
    if kind in ("nan", "inf") and m.size:
        m.reshape(-1)[rng.integers(m.size)] = np.nan if kind == "nan" else np.inf
    return m


@settings(max_examples=200)
@given(
    seed=st.integers(0, 2**32 - 1),
    count=st.one_of(st.none(), st.integers(0, 5)),
    n=st.integers(0, 6),
    kind=st.sampled_from(["hermitian", "non-hermitian", "complex-diagonal", "nan", "inf"]),
    scale=st.sampled_from([1e-3, 1.0, 1e4, 1e8]),
    noise=st.sampled_from([0.0, 1e-12, 1e-9, 1e-6]),
    tol=st.sampled_from([1e-12, 1e-9, 1e-6]),
)
@example(seed=0, count=3, n=4, kind="hermitian", scale=1e8, noise=1e-6, tol=1e-9)
@example(seed=1, count=None, n=5, kind="nan", scale=1.0, noise=0.0, tol=1e-9)
def test_hermiticity_residuals_are_bitwise_the_full_form(seed, count, n, kind, scale, noise, tol):
    m = _hermiticity_case(seed, count, n, kind, scale, noise)
    with np.errstate(invalid="ignore"):  # inf - inf on an infinite diagonal, as callers take it
        res, passed = hermiticity_residuals(m, tol)
        expected_res, expected_passed = _reference_hermiticity_residuals(m, tol)
    assert same_bits(res, expected_res)
    assert same_bits(passed, expected_passed)


def test_hermiticity_cases_cover_every_flag():
    # residuals above tol that pass by the scale alone, and ones that fail
    res, passed = hermiticity_residuals(_hermiticity_case(0, 3, 4, "hermitian", 1e8, 1e-6), 1e-9)
    assert (res > 1e-9).all() and passed.all()
    for kind in ("non-hermitian", "complex-diagonal"):
        assert not hermiticity_residuals(_hermiticity_case(0, 3, 4, kind, 1.0, 0.0), 1e-9)[1].any()
    res, passed = hermiticity_residuals(_hermiticity_case(0, 3, 4, "nan", 1.0, 0.0), 1e-9)
    assert np.isnan(res).sum() == 1 and passed.sum() == 2
    # an off-diagonal inf: an infinite residual, which its bound tol max|m| = inf
    # would pass
    res, passed = hermiticity_residuals(_hermiticity_case(0, 3, 4, "inf", 1.0, 0.0), 1e-9)
    assert np.isinf(res).sum() == 1 and passed.sum() == 2


# case -> (a matrix with an infinite entry, its hermiticity residual)
INFINITE_ENTRIES = {
    # the residual is inf, and so is its bound relative to max|m|
    "inf": (np.array([[0.5, np.inf], [0.0, 0.5]]), np.inf),
    "-inf": (np.array([[0.5, -np.inf], [0.0, 0.5]]), np.inf),
    # inf - conj(inf) is NaN, which numpy would warn about
    "diagonal-inf": (np.diag([np.inf, 0.5]), np.nan),
    "mirrored-inf": (np.array([[0.5, np.inf], [np.inf, 0.5]]), np.nan),
}


@pytest.mark.parametrize("case", list(INFINITE_ENTRIES))
def test_an_infinite_hermiticity_residual_fails(case):
    # every routine that reads the residual gets the failing entry or its
    # named error, and no RuntimeWarning (the suite makes one an error)
    m, residual = INFINITE_ENTRIES[case]
    for name, (entry, value, passed) in (
        ("m", hermiticity_check("m", m)), ("effect", effect_checks(m)[0]),
        ("state", state_checks(m)[0]),
    ):
        assert (entry, passed) == (f"{name}_hermiticity_residual", False)
        assert np.array_equal(value, residual, equal_nan=True)
    assert not any(passed for _, _, passed in effect_checks(m))
    with pytest.raises(ValueError, match="^matrix is not Hermitian within tolerance$"):
        herm_eig(m)
    message = f"not a density operator: state_hermiticity_residual = {residual:.3e}"
    with pytest.raises(ValueError, match=f"^{message}$"):
        check_density(m)


def test_kron_rejects_non_matrices():
    for a, b in [(np.ones(2), np.eye(2)), (np.eye(2), np.ones(2)), (np.ones((2, 2, 2, 2)), np.eye(2)), (1.0, np.eye(2))]:
        with pytest.raises(ValueError, match="matrices"):
            kron(a, b)


def test_kron_associative():
    rng = np.random.default_rng(2)
    a, b, c = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3))
    assert np.abs(kron(kron(a, b), c) - kron(a, kron(b, c))).max() < 1e-12


def test_partial_trace_max_entangled():
    psi = projector(max_entangled_ket(2))
    assert np.abs(partial_trace(psi, 2, 2, "second") - np.eye(2)).max() < 1e-12


def test_partial_trace_factorized():
    rng = np.random.default_rng(3)
    xi = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    rho = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    got = partial_trace(kron(xi, rho), 3, 2, "first")
    assert np.abs(got - np.trace(xi) * rho).max() < 1e-12


def test_partial_trace_of_choi_is_identity():
    rng = np.random.default_rng(4)
    for _ in range(50):
        omega = choi_of_channel(random_channel(2, rng))
        assert np.abs(partial_trace(omega, 2, 2, "second") - np.eye(2)).max() < 1e-12


def test_partial_trace_composes_to_full_trace():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    tr1 = np.trace(partial_trace(m, 2, 3, "first"))
    tr2 = np.trace(partial_trace(m, 2, 3, "second"))
    assert abs(tr1 - np.trace(m)) < 1e-12
    assert abs(tr2 - np.trace(m)) < 1e-12


def test_partial_trace_dimension_mismatch():
    with pytest.raises(ValueError):
        partial_trace(np.eye(5), 2, 2, "first")


def test_vec_reshape_max_entangled():
    assert np.array_equal(vec_reshape(np.array([1, 0, 0, 1]), 2, 2), np.eye(2))


def test_vec_reshape_basis_vector():
    got = vec_reshape(np.kron(ket(0, 2), ket(1, 2)), 2, 2)
    expected = np.zeros((2, 2))
    expected[0, 1] = 1.0
    assert np.array_equal(got, expected)


def test_vec_reshape_defining_property():
    rng = np.random.default_rng(6)
    for dim_a, dim_b in ((2, 2), (3, 2), (2, 4)):
        phi = rng.standard_normal(dim_a * dim_b) + 1j * rng.standard_normal(dim_a * dim_b)
        m = vec_reshape(phi, dim_a, dim_b)
        assert np.abs(kron(m, np.eye(dim_b)) @ max_entangled_ket(dim_b) - phi).max() < 1e-12
        assert np.array_equal(m.reshape(-1), phi)


def test_vec_reshape_length_mismatch():
    with pytest.raises(ValueError):
        vec_reshape(np.ones(5), 2, 2)


def test_herm_eig_diagonal():
    values, vectors = herm_eig(np.diag([3.0, 1.0]).astype(complex))
    assert np.allclose(values, [1.0, 3.0])
    assert np.abs(np.abs(vectors) - np.array([[0, 1], [1, 0]])).max() < 1e-12


def test_herm_eig_pauli_x():
    values, vectors = herm_eig(PAULI_X)
    assert np.allclose(values, [-1.0, 1.0])
    assert np.abs(np.abs(vectors) - 0.5 ** 0.5).max() < 1e-12


def test_herm_eig_reconstruction_random():
    rng = np.random.default_rng(7)
    g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    m = g + dagger(g)
    values, vectors = herm_eig(m)
    recon = (vectors * values) @ dagger(vectors)
    assert np.abs(recon - m).max() < 1e-10 * max(1.0, np.abs(m).max())
    assert abs(values.sum() - np.trace(m).real) < 1e-10
    assert np.abs(dagger(vectors) @ vectors - np.eye(9)).max() < 1e-12


def test_herm_eig_rejects_bad_input():
    with pytest.raises(ValueError):
        herm_eig(np.ones((2, 3)))
    with pytest.raises(ValueError):
        herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_parts_are_bitwise_the_sum_form_and_finite_at_the_limit():
    rng = np.random.default_rng(10)
    m = rng.standard_normal((3, 5, 5)) + 1j * rng.standard_normal((3, 5, 5))
    h = hermitian_parts(m)
    assert h.tobytes() == ((m + dagger(m)) / 2).tobytes()
    assert np.array_equal(h, dagger(h))
    huge = 1.5e308 * np.eye(4, dtype=complex)
    huge[0, 1] = 1e308
    assert np.isfinite(hermitian_parts(huge)).all()
    values, _ = herm_eig(1.5e308 * np.eye(4))  # (m + m^dag)/2 overflows
    assert np.array_equal(values, np.full(4, 1.5e308))


def test_spectra_are_nan_for_non_finite_matrices():
    stack = np.array([np.diag([1.0, 2.0]), np.diag([np.inf, 0.0]), np.diag([3.0, np.nan])])
    values = spectra(stack.astype(complex))
    assert np.array_equal(values[0], [1.0, 2.0])
    assert np.isnan(values[1:]).all()
    assert np.array_equal(spectra(np.eye(2)), [1.0, 1.0])


def test_psd_rule():
    assert is_psd(np.array([-1e-9, 1.0]), 1e-9)
    assert not is_psd(np.array([-2e-9, 1.0]), 1e-9)
    assert is_psd(np.array([-2e-9, 2.0]), 1e-9)  # relative to the largest
    assert not is_psd(np.array([np.nan, 1.0]), 1e-9)
    assert not is_psd(np.array([np.nan, np.nan]), 1e-9)
    assert is_psd(np.array([]), 1e-9)


def test_mat_sqrt_psd_examples():
    assert np.abs(mat_sqrt_psd(np.eye(3)) - np.eye(3)).max() < 1e-12
    assert np.abs(mat_sqrt_psd(np.diag([4.0, 9.0])) - np.diag([2.0, 3.0])).max() < 1e-12


def test_mat_sqrt_psd_random():
    rng = np.random.default_rng(8)
    rho = random_density(4, rng)
    s = mat_sqrt_psd(rho.T)
    assert np.abs(s @ s - rho.T).max() < 1e-9
    # squaring and rooting again reproduces the root
    assert np.abs(mat_sqrt_psd(s @ s) - s).max() < 1e-8


def test_mat_sqrt_psd_rejects_negative():
    with pytest.raises(ValueError):
        mat_sqrt_psd(np.diag([1.0, -0.5]))


def test_pinv_examples():
    assert np.abs(pinv(np.diag([2.0, 0.0])) - np.diag([0.5, 0.0])).max() < 1e-12
    u = random_unitary(3, np.random.default_rng(9))
    assert np.abs(pinv(u) - dagger(u)).max() < 1e-9
    assert np.array_equal(pinv(np.zeros((2, 3))), np.zeros((3, 2)))


def test_pinv_penrose_identities():
    rng = np.random.default_rng(10)
    for rank in (1, 2, 3):
        g1 = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
        g2 = rng.standard_normal((rank, 3)) + 1j * rng.standard_normal((rank, 3))
        m = g1 @ g2
        p = pinv(m)
        assert np.abs(m @ p @ m - m).max() < 1e-9
        assert np.abs(p @ m @ p - p).max() < 1e-9
        assert np.abs(dagger(m @ p) - m @ p).max() < 1e-9
        assert np.abs(dagger(p @ m) - p @ m).max() < 1e-9


def test_rank_and_support_rank_one():
    psi = projector(max_entangled_ket(2))
    rank, support = rank_and_support(psi)
    assert rank == 1
    assert np.abs(support - psi / 2).max() < 1e-12


def test_rank_and_support_rank_two():
    rank, _ = rank_and_support(kron(np.eye(2), projector(ket(0, 2))))
    assert rank == 2


def test_supports_of_identity_and_contraction_choi_not_orthogonal():
    psi = projector(max_entangled_ket(2))  # Choi of the identity channel
    omega0 = kron(np.eye(2), projector(ket(0, 2)))  # Choi of the contraction
    _, p1 = rank_and_support(psi)
    _, p2 = rank_and_support(omega0)
    assert np.abs(p1 @ p2).max() > 0.1


def test_hs_inner_examples():
    assert hs_inner(np.eye(2), np.eye(2)) == pytest.approx(2.0)
    assert abs(hs_inner(PAULI_X, PAULI_Z)) < 1e-12


def test_hs_inner_shape_mismatch():
    with pytest.raises(ValueError):
        hs_inner(np.eye(2), np.eye(3))


# ---------------------------------------------------------------------------
# product_grid: the detector of stacks {A_a (x) B_b}
# ---------------------------------------------------------------------------


def _factors(count, n, rng):
    """``count`` random density operators on H_n, each of unit trace."""
    return np.array([random_density(n, rng) for _ in range(count)])


def _grid_stack(rng, p=2, q=3, na=3, nb=4):
    """Every a[x] (x) b[y] / (na nb), a-major."""
    a, b = _factors(na, p, rng), _factors(nb, q, rng)
    return kron(a, b) / (na * nb), a, b


def test_indexed_kron_writes_kron_in_any_order():
    rng = np.random.default_rng(40)
    a, b = rng.standard_normal((2, 3, 2, 2)) + 1j * rng.standard_normal((2, 3, 2, 2))
    ia, ib = rng.integers(0, 3, 7), rng.integers(0, 3, 7)
    out = indexed_kron(a, b, ia, ib, np.empty((7, 4, 4), dtype=complex))
    assert all(out[j].tobytes() == kron(a[ia[j]], b[ib[j]]).tobytes() for j in range(7))


def test_product_grid_finds_a_shuffled_grid():
    rng = np.random.default_rng(41)
    stack, a, b = _grid_stack(rng)
    order = rng.permutation(len(stack))
    grid = product_grid(stack[order], 2, 3)
    assert grid is not None and (grid.a.shape, grid.b.shape) == ((3, 2, 2), (4, 3, 3))
    products = np.array([np.kron(grid.a[x], grid.b[y]) for x, y in zip(grid.ia, grid.ib)])
    assert np.abs(products - stack[order]).max() < 1e-15
    # the factors are exactly Hermitian, and equal to a and b up to a scale
    for factors in (grid.a, grid.b):
        assert (hermiticity_residuals(factors)[0] == 0.0).all()
    rows = {x: order[j] // 4 for j, x in enumerate(grid.ia)}
    for x, k in rows.items():
        assert np.abs(grid.a[x] / np.trace(grid.a[x]) - a[k]).max() < 1e-14


def test_product_grid_rejects_stacks_that_are_no_grid():
    rng = np.random.default_rng(42)
    stack, a, b = _grid_stack(rng)
    moved = stack.copy()
    moved[5] += 1e-8 * kron(a[0], b[1])  # one effect moved by 1e-8
    repeated = kron(a[[0, 0, 1]], b) / 12  # a repeated factor: 2 x 4 factors, 12 effects
    twice = kron(a[:2], b[:2]) / 4
    twice[1] = twice[0]  # 2 x 2 factors and 4 effects, a pair twice and one missing
    zero = stack.copy()
    zero[7] = 0.0
    nan = stack.copy()
    nan[3, 0, 5] = np.nan
    dropped = stack[1:]  # 11 effects: no full grid
    for name, bad in {"moved": moved, "repeated": repeated, "twice": twice, "zero": zero,
                      "nan": nan, "dropped": dropped}.items():
        assert product_grid(bad, 2, 3) is None, name


def test_a_single_effect_is_a_one_by_one_grid():
    rng = np.random.default_rng(43)
    stack, _, _ = _grid_stack(rng, na=1, nb=1)
    grid = product_grid(stack, 2, 3)
    assert grid is not None and (len(grid.a), len(grid.b)) == (1, 1)
    assert product_grid(random_density(6, rng)[None], 2, 3) is None  # entangled
