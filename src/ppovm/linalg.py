"""Dense complex linear algebra with a fixed tensor index convention.

Every composite index on H_A (x) H_B is a*dim(B) + b, first factor major,
which is exactly the layout produced by ``numpy.kron``.  All functions are
pure and never mutate their arguments.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

DEFAULT_TOL = 1e-9

# A validation entry: (check name, measured value, passed).
Check = tuple[str, float, bool]


class HermitianEigen(NamedTuple):
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending."""

    values: np.ndarray
    vectors: np.ndarray


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of every matrix of a stack."""
    return np.conj(m).swapaxes(-1, -2)


def frozen(m: np.ndarray) -> np.ndarray:
    """A read-only complex copy."""
    out = np.array(m, dtype=complex)
    out.setflags(write=False)
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
    larger."""
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
    a[i,j]*b[k,l], the same products ``numpy.kron`` forms, by broadcasting."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"kron takes two matrices, got shapes {a.shape} and {b.shape}")
    (p, q), (r, s) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(p * r, q * s)


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


def herm_eig(m: np.ndarray, tol: float = DEFAULT_TOL) -> HermitianEigen:
    """Eigendecomposition of a Hermitian matrix.

    The input is symmetrized to (m + m^dag)/2 before solving; deviations
    beyond ``tol`` (relative to the max norm) are an error.
    """
    m = square_matrix(m)
    if not hermiticity_check("matrix", m, tol)[2]:
        raise ValueError("matrix is not Hermitian within tolerance")
    values, vectors = np.linalg.eigh((m + dagger(m)) / 2)
    return HermitianEigen(values, vectors)


def mat_sqrt_psd(m: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix.

    Eigenvalues in [-tol*max_eig, 0) are clamped to zero; anything more
    negative is an error.
    """
    values, vectors = herm_eig(m, tol)
    floor = -tol * max(1.0, float(values[-1])) if values.size else 0.0
    if values.size and values[0] < floor:
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
