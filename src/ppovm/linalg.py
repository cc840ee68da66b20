"""Dense complex linear algebra with a fixed tensor index convention.

Every composite index on H_A (x) H_B is a*dim(B) + b, first factor major,
which is exactly the layout produced by ``numpy.kron``.  All functions are
pure and never mutate their arguments.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

DEFAULT_TOL = 1e-9

# Complex entries per block of a stack pass: 2**16 entries are 1 MiB, half
# a 2 MiB L2 cache, so a block and its temporaries stay in cache.  The
# (N, 25, 25) effects of d = 5 go 104 to a block; the 144 (9, 9) effects
# of a d = 3 MUB scheme fit in one.  Each stage writes its blocks into one
# preallocated result (``blockwise``), so a block's temporaries are the
# only memory it takes beyond that result.
BLOCK_ENTRIES = 2**16

# A validation entry: (check name, measured value, passed).
Check = tuple[str, float, bool]


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of every matrix of a stack."""
    return np.conj(m).swapaxes(-1, -2)


def frozen(m: np.ndarray) -> np.ndarray:
    """``m`` as a read-only, C-contiguous complex array that owns its
    memory.  Such an array is returned as it is, so an array frozen once
    is never copied again; anything else, a writable array, a view or a
    non-contiguous array included, is copied."""
    if (
        type(m) is np.ndarray and m.dtype == complex and m.flags.owndata
        and m.flags.c_contiguous and not m.flags.writeable
    ):
        return m
    out = np.array(m, dtype=complex, order="C")
    out.setflags(write=False)
    return out


def block_slices(count: int, size: int) -> list[slice]:
    """Consecutive slices covering ``count`` items of ``size`` entries
    each, at most BLOCK_ENTRIES entries (and at least one item) a slice;
    no items take one empty slice."""
    step = max(1, BLOCK_ENTRIES // max(1, size))
    if count <= step:
        return [slice(0, count)]
    return [slice(start, min(start + step, count)) for start in range(0, count, step)]


def blockwise(fn: Callable[[slice, np.ndarray], None], out: np.ndarray, size: int) -> np.ndarray:
    """Fill the preallocated ``out`` a block at a time and return it:
    ``fn(part, out[part])`` writes the items of each of the
    ``block_slices(len(out), size)`` into that view of ``out``, so no
    block's result is built apart and copied in.  ``fn`` computes each
    item from that item alone, so ``out`` is bitwise what one call on all
    items gives."""
    for part in block_slices(len(out), size):
        fn(part, out[part])
    return out


@functools.cache
def identity(n: int) -> np.ndarray:
    """The read-only float n x n identity, ``np.eye(n)``, made once per n."""
    eye = np.eye(n)
    eye.setflags(write=False)
    return eye


def max_abs(m: np.ndarray) -> float:
    """Largest entry magnitude (max norm)."""
    m = np.asarray(m)
    return 0.0 if m.size == 0 else float(np.abs(m).max())


def square_matrix(m: np.ndarray, what: str = "matrix") -> np.ndarray:
    """``m`` as a complex array, which must be square."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be square, got {m.shape}")
    return m


@functools.cache
def _triangle(n: int) -> tuple[np.ndarray, int]:
    """Flat indices of the upper triangle of an n x n matrix, diagonal
    included, followed by those of the mirror image of each entry, and
    the number of entries in the triangle."""
    rows, cols = np.triu_indices(n)
    pairs = np.concatenate([rows * n + cols, cols * n + rows])
    pairs.setflags(write=False)
    return pairs, rows.size


def hermiticity_residuals(m: np.ndarray, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Max-norm residual of m - m^dag for a matrix or for every matrix of a
    stack, and whether each is within tol relative to its own max|m|.

    The upper triangle holds every residual, since |m_ij - conj(m_ji)| and
    |m_ji - conj(m_ij)| are exactly equal; one gather reads each entry of
    the triangle and its mirror.  A residual at most tol passes whatever
    max|m| is, so max|m| is read only when some residual is larger.  No
    residual that is not finite passes: NaN fails every bound, and an
    infinite one would pass tol max|m| = inf.  An infinite entry makes
    the subtraction inf - inf = NaN, and entries near the float limit
    overflow to inf; neither warns here, so every caller gets the failing
    residual.  The callers pass one matrix or one block of a stack."""
    m = np.asarray(m)
    n = m.shape[-1]
    pairs, size = _triangle(n)
    gathered = m.reshape(*m.shape[:-2], n * n).take(pairs, axis=-1)
    diff = gathered[..., :size]
    with np.errstate(invalid="ignore", over="ignore"):
        diff -= np.conj(gathered[..., size:])
        res = np.abs(diff).max(axis=-1, initial=0.0)
        passed = res <= tol
        # one matrix gives a numpy bool, whose own all() takes about 1 us
        if not (passed if passed.ndim == 0 else passed.all()):
            scale = np.maximum(1.0, np.abs(m).max(axis=(-2, -1), initial=0.0))
            passed = (res <= tol * scale) & (res < np.inf)
    return res, passed


def hermiticity_check(name: str, m: np.ndarray, tol: float = DEFAULT_TOL) -> Check:
    """Max-norm residual of m - m^dag, bounded by tol relative to max|m|."""
    res, passed = hermiticity_residuals(m, tol)
    return (f"{name}_hermiticity_residual", float(res), bool(passed))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product of two matrices; entry [i*rows(b)+k, j*cols(b)+l] is
    a[i,j]*b[k,l], the same products ``numpy.kron`` forms, by broadcasting.
    Given an (N, rows, cols) stack for either (a matrix is a stack of one),
    the stack of every a[x] (x) b[y], a-major, written by one multiply."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim not in (2, 3) or b.ndim not in (2, 3):
        raise ValueError(f"kron takes matrices or stacks of them, got {a.shape} and {b.shape}")
    if a.ndim == b.ndim == 2:
        (p, q), (r, s) = a.shape, b.shape
        return (a[:, None, :, None] * b[None, :, None, :]).reshape(p * r, q * s)
    a, b = a.reshape(-1, *a.shape[-2:]), b.reshape(-1, *b.shape[-2:])
    (na, p, q), (nb, r, s) = a.shape, b.shape
    grid = a[:, None, :, None, :, None] * b[None, :, None, :, None, :]
    return grid.reshape(na * nb, p * r, q * s)


def _pair_products(
    a: np.ndarray, b: np.ndarray, ia: np.ndarray, ib: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """out[j] = a[ia[j]] (x) b[ib[j]] for every j, written into ``out`` and
    returned: the products ``kron`` forms, bit for bit.  Only the pairs'
    factors are gathered, so no copy of a factor stack is tiled to the
    products' size."""
    (p, q), n = (a.shape[-1], b.shape[-1]), len(out)
    np.multiply(
        a.take(ia, axis=0)[:, :, None, :, None], b.take(ib, axis=0)[:, None, :, None, :],
        out=out.reshape(n, p, q, p, q),
    )
    return out


def indexed_kron(
    a: np.ndarray, b: np.ndarray, ia: np.ndarray, ib: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Fill ``out`` with a[ia[j]] (x) b[ib[j]] for every j and return it:
    the products ``kron`` forms, bit for bit, in any order of the pairs,
    a block at a time (``blockwise``)."""

    def fill(part, o):
        _pair_products(a, b, ia[part], ib[part], o)

    return blockwise(fill, out, out.shape[1] * out.shape[2])


# The entry test of ``product_grid``.  A stack that is a product grid in
# exact arithmetic carries the rounding of the products that formed it:
# an entry of a product of n x n matrices is computed to within gamma_n
# |A| |B|, gamma_n ~ n eps (Higham, Accuracy and Stability of Numerical
# Algorithms, 2nd ed., Sec. 3.5), so each M_j is its A (x) B to within
# about n eps times the product's largest entry.  The factored stages
# replace each M_j by A (x) B.  That moves no result by more than the
# dense stages' own rounding when M_j - A (x) B is within their backward
# error: their products, Cholesky factorizations and eigvalsh are each
# exact for an effect moved by about n eps ||M_j||.  So an entry passes
# when the real and the imaginary part of M_j - A (x) B are each at most
# GRID_FLOOR n eps s_j, s_j = max|A| max|B| the largest entry of the
# product, n = p q the effects' side; the spare factor 8 covers the
# rounding of the candidate factors (a partial trace of q terms and a
# division) and of the product itself.  The bound is rounding-sized, not
# ``tol``: 4.4e-14 s_j at n = 25, where ``tol`` is 1e-9.  Rotated MUB
# schemes at d = 2..7 sit within 0.72 n eps s_j of their products.
GRID_FLOOR = 8.0
_EPS = float(np.finfo(float).eps)

# Candidate factors that are equal up to rounding (about n eps apart)
# get keys far closer than this gap, relative to 1 + max|key|; distinct
# factors get keys about 1 apart, from a fixed generic functional.  Two
# distinct factors merged by a near tie fail the entry test, and one
# factor split in two fails the grid count: either way the stack is
# reported as no grid.
_GROUP_GAP = 1e-8


class ProductGrid:
    """A stack of effects M_j = a[ia[j]] (x) b[ib[j]], every pair of a
    factor of ``a`` and one of ``b`` once, in any order.  ``a`` (N_A, p, p)
    and ``b`` (N_B, q, q) are exactly Hermitian: entry (j, i) of each is
    the conjugate of entry (i, j).  ``scale_a`` and ``scale_b`` hold the
    largest entry modulus of each factor, so max|a[x] (x) b[y]| is
    scale_a[x] scale_b[y].  ``scale_a`` is computed on first use: the
    N x 1 grid of a stack (``column_grid``) has the whole stack as its a,
    and ``realize`` reads its scale only for a rank-deficient norm state.
    A plain class with ``__slots__``: a dataclass, or
    ``functools.cached_property``, costs more per construction or use,
    and a dataclass about 1 ms at import."""

    __slots__ = ("a", "b", "ia", "ib", "scale_b", "_scale_a")

    def __init__(self, a: np.ndarray, b: np.ndarray, ia: np.ndarray, ib: np.ndarray):
        self.a, self.b, self.ia, self.ib = a, b, ia, ib
        self.scale_b, self._scale_a = np.abs(b).max(axis=(1, 2)), None

    @property
    def scale_a(self) -> np.ndarray:
        if self._scale_a is None:
            self._scale_a = np.abs(self.a).max(axis=(1, 2))
        return self._scale_a

    def products(self) -> np.ndarray:
        """The read-only stack of the products a[ia[j]] (x) b[ib[j]], in
        the grid's order (``indexed_kron``), formed anew on each call."""
        side = self.a.shape[-1] * self.b.shape[-1]
        out = np.empty((len(self.ia), side, side), dtype=complex)
        indexed_kron(self.a, self.b, self.ia, self.ib, out)
        out.setflags(write=False)
        return out


def column_grid(stack: np.ndarray) -> ProductGrid:
    """The N x 1 grid of an (N, n, n) stack: a = the stack, b = [1].  Every
    stack is this grid; ``realize`` and the tomography design take
    effects that ``product_grid`` finds to be no product as it.  Its b has
    side 1, so each product a (x) b is a itself."""
    n = len(stack)
    return ProductGrid(stack, np.ones((1, 1, 1), dtype=complex), np.arange(n), np.zeros(n, np.intp))


@functools.cache
def _key_weights(p: int, q: int) -> np.ndarray:
    """The (2, n^2) weights, n = p q, that take a flattened n x n matrix M
    to Tr[F_A Tr_q M] and Tr[F_B Tr_p M]: F_A (p x p) and F_B (q x q) are
    fixed generic complex matrices, and the weights are F_A^T (x) I_q and
    I_p (x) F_B^T, flattened."""
    re, im = np.random.default_rng([p, q]).standard_normal((2, p * p + q * q))
    f = re + 1j * im
    f_a, f_b = f[: p * p].reshape(p, p), f[p * p :].reshape(q, q)
    weights = np.stack([kron(f_a.T, np.eye(q)).ravel(), kron(np.eye(p), f_b.T).ravel()])
    weights.setflags(write=False)
    return weights


def _groups(keys: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Group ids of the keys in each row of a (k, N) array, equal keys (to
    within rounding) sharing one, and the number of groups of each row:
    each row is sorted, and a gap above ``_GROUP_GAP`` starts a group."""
    ids, counts = np.empty(keys.shape, dtype=np.intp), []
    for row, out in zip(keys, ids):
        order = row.argsort()
        ranked = row[order]
        # max(-ranked[0], ranked[-1]) is max|key|
        starts = ranked[1:] - ranked[:-1] > _GROUP_GAP * (1.0 + max(-ranked[0], ranked[-1]))
        out[order[0]] = 0
        out[order[1:]] = starts.cumsum()
        counts.append(int(out[order[-1]]) + 1)
    return ids, counts


def product_grid(stack: np.ndarray, p: int, q: int) -> ProductGrid | None:
    """The product grid of an (N, p q, p q) stack, or None when it is none.

    The candidate factors of M_j are its partial traces over H_q and H_p
    divided by tr M_j, each of unit trace whatever the factors' traces.
    Each is keyed by a fixed generic functional, computed for every
    effect by one product of the flattened stack (``_key_weights``), and
    ``_groups`` gives each effect the index of its candidates.  The stack
    is a grid when N_A N_B = N and every pair (ia, ib) occurs once.  The
    factors are then read from the effects of one row and one column of
    the grid: a = Tr_q M over the column of effect 0, b = Tr_p M / tr M_0
    over its row, each replaced by its exact Hermitian part, so that
    a[ia] (x) b[ib] is M_j in exact arithmetic for a grid of Hermitian
    effects.  Every entry is then tested against its product (those of
    ``indexed_kron``) at the bound of ``GRID_FLOOR``, a block of effects
    at a time.  A stack with a zero, negative-trace or non-finite effect
    is no grid, and neither is one whose candidates do not group into a
    full grid; the callers take any such stack as its N x 1 grid
    (``column_grid``)."""
    n, side = len(stack), p * q
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        traces = stack.trace(axis1=1, axis2=2).real
        if not (traces.min() > 0.0 and traces.max() < np.inf):  # NaN fails
            return None
        keys = (_key_weights(p, q) @ stack.reshape(n, -1).T).real / traces
        (ia, ib), (na, nb) = _groups(keys)
        if na * nb != n:
            return None
        cells = np.zeros((na, nb), dtype=np.intp)  # 1 + the effect of each pair
        cells[ia, ib] = np.arange(1, n + 1)
        if not cells.all():  # a pair occurs twice
            return None
        column = stack[cells[:, ib[0]] - 1].reshape(na, p, q, p, q)
        row = stack[cells[ia[0]] - 1].reshape(nb, p, q, p, q)
        a = hermitian_parts(np.einsum("nakbk->nab", column))
        b = hermitian_parts(np.einsum("nakal->nkl", row) / traces[0])
        grid = ProductGrid(a, b, ia, ib)
        bound = grid.scale_a[ia] * grid.scale_b[ib] * (GRID_FLOOR * side * _EPS)
        products = np.empty((min(n, max(1, BLOCK_ENTRIES // side**2)), side, side), complex)
        for part in block_slices(n, side * side):
            diff = _pair_products(a, b, ia[part], ib[part], products[: part.stop - part.start])
            diff -= stack[part]
            parts = diff.view(float).reshape(len(diff), -1)
            np.abs(parts, out=parts)
            # (parts.max(axis=1) <= bound).all(), by the ufuncs alone; NaN fails
            if not np.logical_and.reduce(np.maximum.reduce(parts, axis=1) <= bound[part]):
                return None
    return grid


def partial_trace(m: np.ndarray, dim_a: int, dim_b: int, which: str = "first") -> np.ndarray:
    """Trace out one tensor factor of a square matrix on H_A (x) H_B.

    ``which="first"`` removes the dim_a factor, leaving a dim_b x dim_b
    matrix; ``which="second"`` removes the dim_b factor.
    """
    m = np.asarray(m, dtype=complex)
    n = dim_a * dim_b
    if m.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} matrix, got {m.shape}")
    t = m.reshape(dim_a, dim_b, dim_a, dim_b)
    if which == "first":
        return np.einsum("akal->kl", t)
    if which == "second":
        return np.einsum("akbk->ab", t)
    raise ValueError(f"which must be 'first' or 'second', got {which!r}")


def vec_reshape(phi: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """Fold a length dim_a*dim_b vector into the dim_a x dim_b matrix M
    with M[a, b] = phi[a*dim_b + b].

    The matrix satisfies (M (x) I)|omega> = phi for the unnormalized
    maximally entangled |omega> = sum_j |jj> on H_{dim_b} (x) H_{dim_b}.
    """
    phi = np.asarray(phi, dtype=complex).reshape(-1)
    if phi.size != dim_a * dim_b:
        raise ValueError(f"vector length {phi.size} != {dim_a}*{dim_b}")
    return phi.reshape(dim_a, dim_b)


def hermitian_parts(m: np.ndarray) -> np.ndarray:
    """(m + m^dag)/2 of a matrix or of every matrix of a stack, computed as
    m/2 + m^dag/2: bitwise the same in the normal range, and finite for
    every finite m, where m + m^dag may overflow.  Exactly Hermitian: entry
    (j, i) is computed as the conjugate of entry (i, j), since
    floating-point addition commutes."""
    h = m / 2
    h += dagger(h)
    return h


def herm_eig(m: np.ndarray, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix: eigenvalues ascending,
    then eigenvectors as columns.

    The input is replaced by its ``hermitian_parts`` before solving;
    deviations beyond ``tol`` (relative to the max norm) are an error.
    """
    m = square_matrix(m)
    if not hermiticity_check("matrix", m, tol)[2]:
        raise ValueError("matrix is not Hermitian within tolerance")
    return np.linalg.eigh(hermitian_parts(m))


def spectra(h: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix or of every matrix of a
    stack; a matrix with a non-finite entry, on which eigvalsh fails, gets
    NaN, which fails every bound."""
    if np.isfinite(h).all():
        return np.linalg.eigvalsh(h)
    finite = np.isfinite(h).all(axis=(-2, -1))
    values = np.full(h.shape[:-1], np.nan)
    if finite.any():
        values[finite] = np.linalg.eigvalsh(h[finite])
    return values


def is_psd(values: np.ndarray, tol: float) -> bool:
    """The PSD rule on an ascending spectrum: the least eigenvalue is at
    least -tol max(1, the largest).  NaN fails; an empty spectrum passes."""
    return not values.size or bool(values[0] >= -tol * max(1.0, float(values[-1])))


def mat_sqrt_psd(m: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix.

    Eigenvalues in [-tol*max_eig, 0) are clamped to zero; anything more
    negative (``is_psd``) is an error.
    """
    values, vectors = herm_eig(m, tol)
    if not is_psd(values, tol):
        raise ValueError(f"matrix is not PSD: min eigenvalue {values[0]:.3e}")
    clamped = np.clip(values, 0.0, None)
    return (vectors * np.sqrt(clamped)) @ dagger(vectors)


def pinv(m: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudo-inverse via SVD.

    Singular values <= tol * sigma_max are treated as exactly zero, so the
    zero matrix maps to the zero matrix.
    """
    m = np.asarray(m, dtype=complex)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((m.shape[1], m.shape[0]), dtype=complex)
    inv = np.where(s > tol * s[0], 1.0 / np.where(s > 0, s, 1.0), 0.0)
    return dagger(vh) @ np.diag(inv) @ dagger(u)


def rank_and_support(m: np.ndarray, tol: float = DEFAULT_TOL) -> tuple[int, np.ndarray]:
    """Numerical rank and support projector of a Hermitian matrix.

    Eigenvalues with |value| > tol * max|value| count toward the rank; the
    projector sums the corresponding eigenvector dyads.
    """
    values, vectors = herm_eig(m, tol)
    scale = max_abs(values)
    if scale == 0.0:
        return 0, np.zeros_like(np.asarray(m, dtype=complex))
    keep = np.abs(values) > tol * scale
    cols = vectors[:, keep]
    return int(keep.sum()), cols @ dagger(cols)


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product Tr(a^dag b)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


def hs_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Hilbert-Schmidt (Frobenius) distance between two matrices."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))
