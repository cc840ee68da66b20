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
def _triangle(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of the upper triangle of an n x n matrix, diagonal
    included, and of the mirror image of each entry."""
    rows, cols = np.triu_indices(n)
    upper, mirror = rows * n + cols, cols * n + rows
    upper.setflags(write=False)
    mirror.setflags(write=False)
    return upper, mirror


def hermiticity_residuals(m: np.ndarray, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Max-norm residual of m - m^dag for a matrix or for every matrix of a
    stack, and whether each is within tol relative to its own max|m|.

    The upper triangle holds every residual, since |m_ij - conj(m_ji)| and
    |m_ji - conj(m_ij)| are exactly equal.  A residual at most tol passes
    whatever max|m| is, so max|m| is read only when some residual is
    larger.  The callers pass one matrix or one block of a stack."""
    m = np.asarray(m)
    n = m.shape[-1]
    upper, mirror = _triangle(n)
    flat = m.reshape(*m.shape[:-2], n * n)
    diff = flat[..., upper]
    diff -= np.conj(flat[..., mirror])
    res = np.abs(diff).max(axis=-1, initial=0.0)
    passed = res <= tol
    if not passed.all():
        passed = res <= tol * np.maximum(1.0, np.abs(m).max(axis=(-2, -1), initial=0.0))
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
    out = np.empty((na * nb, p * r, q * s), np.result_type(a, b))
    grid = out.reshape(na, nb, p, r, q, s)
    np.multiply(a[:, None, :, None, :, None], b[None, :, None, :, None, :], out=grid)
    return out


def first_factor(a: np.ndarray, x: np.ndarray, right_dim: int) -> np.ndarray:
    """(a (x) I) x for every matrix of an (N, q right_dim, cols) stack, I
    the identity on H_{right_dim} and a of shape (p, q): a times x's first
    index, one batched product with x reshaped to (N, q, right_dim cols).
    That takes p q right_dim cols multiply-adds per matrix, where the
    dense a (x) I takes right_dim times as many; the result is
    (N, p right_dim, cols)."""
    (p, q), (n, _, cols) = a.shape, x.shape
    wide = a @ x.reshape(n, q, right_dim * cols)
    return wide.reshape(n, p * right_dim, cols)


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
