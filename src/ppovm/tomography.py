"""Informational completeness and channel reconstruction from statistics.

A process POVM determines every channel exactly when its effects span the
Hermitian operators on H_d (x) H_d with zero second marginal.  Those have
the orthonormal product basis {lambda_i (x) mu_j}.  The lambda_i are the
d^2 Hermitian d x d matrices: the diagonal units E_kk, then (E_rs + E_sr)
/ sqrt(2) and i (E_rs - E_sr) / sqrt(2) over the upper triangle r < s.
The mu_j are the d^2 - 1 traceless ones: the d - 1 Helmert diagonals,
then the same off-diagonal pairs.  The design D has one row per effect M, the
coordinates c_ij = Re Tr[M (lambda_i (x) mu_j)] of its Hermitian part.
Reconstruction is least squares in these coordinates, followed by an
alternating projection back onto the set of valid process states.

Both questions are answered from one factorization per process POVM: the
eigendecomposition of the Gram matrix G = D^T D, which is real symmetric
of side d^4 - d^2 and nonsingular iff the process POVM is complete.  A
process POVM whose effects form a product grid {A_a (x) B_b} (found by
``measurement.effect_grid``) has D = D_A (x) D_B, up to the order of its
rows: D_A holds the coordinates Re Tr[A lambda_i] of the N_A factors A,
and D_B those, Tr[B mu_j], of the N_B factors B.  Then G = G_A (x) G_B,
and its eigenpairs are the products of those of the d^2 x d^2 G_A and
the (d^2 - 1) x (d^2 - 1) G_B: neither D nor G is formed.  Any other
process POVM is the N x 1 grid of its own effects and of [1]
(``linalg.column_grid``, as ``realize`` takes it): D_A is the design D,
written a block of effects at a time into one preallocated array, and
D_B = [1], so G gets one dense ``eigh``, as the factor of G (x) [1],
and one factorization type serves both cases.  An eigenvalue
of G counts as zero when it is at most ``_CUTOFF`` times the largest
(1e-6 times the largest singular value of D).  The factorization is
computed on first use and kept in the process POVM's instance
``__dict__``, as ``functools.cached_property`` does; the effects are
read-only, so it cannot go stale.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .channels import KrausChannel, raise_failed, trace_preservation_checks
from .linalg import (
    DEFAULT_TOL, ProductGrid, blockwise, column_grid, hermitian_parts, hs_distance, identity,
    max_abs, partial_trace,
)
from .measurement import (
    ProcessPovm, TestCouple, couple_probabilities, effect_grid, non_finite_effect,
)

_CUTOFF = 1e-12  # Gram eigenvalues at most this times the largest count as zero
_MEMO = "_gram_factors"  # instance __dict__ key of a process POVM's factorization
MAX_SHOTS = 2**63 - 1  # numpy's multinomial takes its count as a C int64


@dataclass(frozen=True)
class _ProductBasis:
    """The product basis of one d, with the fixed maps that give design
    rows.  A d x d block B of an effect has the coordinates Tr[B mu_j]:
    ``helmert`` takes the differences B_kk - B_00 (k >= 1) to those of the
    Helmert mu_j, as Tr mu_j = 0, so that a block c I has coordinates
    exactly zero; ``off`` takes the entries of B to those of the
    off-diagonal mu_j.  ``lam`` takes the real, then the imaginary parts
    of y_ab over the blocks (a, b) to Re sum_ab lambda_i[b, a] y_ab."""

    lambdas: np.ndarray  # (d^2, d, d)
    mus: np.ndarray  # (d^2 - 1, d, d)
    helmert: np.ndarray  # (d - 1, d - 1)
    off: np.ndarray  # (d^2, d^2 - d), complex
    lam: np.ndarray  # (d^2, 2 d^2)


@functools.cache
def _product_basis(d: int) -> _ProductBasis:
    rows, cols = np.triu_indices(d, 1)
    pairs, diag, half = np.arange(rows.size), np.arange(d), 1.0 / math.sqrt(2.0)
    lambdas = np.zeros((d * d, d, d), dtype=complex)
    lambdas[diag, diag, diag] = 1.0
    lambdas[d + pairs, rows, cols] = lambdas[d + pairs, cols, rows] = half
    lambdas[d + rows.size + pairs, rows, cols] = 1j * half
    lambdas[d + rows.size + pairs, cols, rows] = -1j * half
    mus = np.zeros((d * d - 1, d, d), dtype=complex)
    for k in range(1, d):
        norm = math.sqrt(k * (k + 1))
        mus[k - 1, diag[:k], diag[:k]] = 1.0 / norm
        mus[k - 1, k, k] = -k / norm
    mus[d - 1 :] = lambdas[d:]
    helmert = np.diagonal(mus[: d - 1], axis1=1, axis2=2)[:, 1:].real.T
    off = mus[d - 1 :].transpose(0, 2, 1).reshape(-1, d * d).T  # off[kl, j] = mu_j[l, k]
    flipped = lambdas.transpose(0, 2, 1).reshape(d * d, d * d)  # [i, ab] = lambda_i[b, a]
    basis = _ProductBasis(
        lambdas, mus, helmert.copy(), off.copy(),
        np.concatenate([flipped.real, -flipped.imag], axis=1),
    )
    for table in vars(basis).values():
        table.setflags(write=False)
    return basis


def _design(effects: np.ndarray, d: int) -> np.ndarray:
    """Tomography design of an (N, d^2, d^2) stack: row x holds
    c_ij = Re Tr[M_x (lambda_i (x) mu_j)] at column i (d^2 - 1) + j.  The
    rows of effects A (x) I are exactly zero.  The rows are computed a
    block of effects at a time (``blockwise``), the lambda product of each
    block written straight into its rows of the preallocated design.  The
    Helmert and off-diagonal products are written the same way, by
    ``np.matmul(..., out=)`` into their columns of one buffer y: BLAS
    takes each strided column range through its leading dimension, so no
    product is formed apart and copied in, and every entry is bitwise
    what the product alone gives."""
    basis = _product_basis(d)
    p, q = d * d, d * d - 1

    def rows(part, out):
        stack = effects[part]
        n = len(stack)
        # blocks[x, a, b] is the d x d block (<a| (x) I) M_x (|b> (x) I)
        blocks = stack.reshape(n, d, d, d, d).transpose(0, 1, 3, 2, 4).reshape(n * p, p)
        diag = blocks[:, :: d + 1]
        y = np.empty((n * p, q), dtype=complex)
        np.matmul(diag[:, 1:] - diag[:, :1], basis.helmert, out=y[:, : d - 1])
        np.matmul(blocks, basis.off, out=y[:, d - 1 :])
        y = y.reshape(n, p, q)
        np.matmul(basis.lam, np.concatenate([y.real, y.imag], axis=1), out=out.reshape(n, p, q))

    return blockwise(rows, np.empty((len(effects), p * q)), d**4)


def _operator(coeff: np.ndarray, d: int) -> np.ndarray:
    """sum_ij c_ij lambda_i (x) mu_j, the d^2 x d^2 operator of coordinates
    ``coeff`` (ordered as the design's columns)."""
    basis = _product_basis(d)
    blocks = coeff.reshape(d * d, -1) @ basis.mus.reshape(-1, d * d)  # sum_j c_ij mu_j
    x = basis.lambdas.reshape(d * d, d * d).T @ blocks  # [ab, kl]
    return x.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


def _kept(values: np.ndarray) -> np.ndarray:
    """Mask of the eigenvalues of a Gram matrix that count as nonzero; the
    empty spectrum of d = 1 keeps none."""
    return values > _CUTOFF * values.max(initial=0.0)


@dataclass(frozen=True)
class _GramFactors:
    """The design D = D_A (x) D_B of a process POVM, whose effect j has the
    row of the pair (``rows[j]``, ``cols[j]``), the offsets Tr(M)/d of its
    effects, and the eigensystem of G = G_A (x) G_B: ``vectors_a`` and
    ``vectors_b`` hold the eigenvectors of G_A and G_B, and ``values``
    the eigenvalue of G for each pair of them, zero where it is not kept;
    ``rank`` counts the kept ones.  ``condition`` is the condition number
    of D on its span (inf when nothing is kept)."""

    design_a: np.ndarray
    design_b: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    offset: np.ndarray
    vectors_a: np.ndarray
    vectors_b: np.ndarray
    values: np.ndarray
    rank: int
    condition: float

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """The minimum-norm least-squares solution of D x = rhs:
        D^T rhs = D_A^T R D_B for R the (N_A, N_B) grid of rhs, then
        V_A^T Y V_B, a division by the kept products w_A w_B, and
        V_A Z V_B^T."""
        grid = np.zeros((len(self.design_a), len(self.design_b)))
        grid[self.rows, self.cols] = rhs
        y = self.design_a.T @ grid @ self.design_b
        z = self.vectors_a.T @ y @ self.vectors_b
        z = np.divide(z, self.values, out=np.zeros(z.shape), where=self.values > 0.0)
        return (self.vectors_a @ z @ self.vectors_b.T).reshape(-1)

    def apply(self, coeff: np.ndarray) -> np.ndarray:
        """D x, in the order of the effects."""
        x = coeff.reshape(self.design_a.shape[1], self.design_b.shape[1])
        return (self.design_a @ x @ self.design_b.T)[self.rows, self.cols]


def _factor_designs(grid: ProductGrid, d: int) -> tuple[np.ndarray, np.ndarray]:
    """D_A and D_B of a product grid: rows Re Tr[A lambda_i] of its factors
    A, and rows Tr[B mu_j] of its factors B, by the maps of
    ``_ProductBasis`` (a B = c I has coordinates exactly zero).  The N x 1
    grid of a stack and [1] (``column_grid``) has D_A = the stack's
    design and D_B = [1]."""
    if grid.b.shape[-1] == 1:
        with np.errstate(invalid="ignore", over="ignore"):  # _factorize names a non-finite effect
            return _design(grid.a, d), np.ones((1, 1))
    basis = _product_basis(d)
    a = grid.a.reshape(len(grid.a), d * d)
    design_a = np.concatenate([a.real, a.imag], axis=1) @ basis.lam.T
    diag = np.diagonal(grid.b, axis1=1, axis2=2).real
    design_b = np.concatenate([
        (diag[:, 1:] - diag[:, :1]) @ basis.helmert,
        (grid.b.reshape(len(grid.b), d * d) @ basis.off).real,
    ], axis=1)
    return design_a, design_b


def _factorize(
    design_a: np.ndarray, design_b: np.ndarray, rows: np.ndarray, cols: np.ndarray, pp: ProcessPovm
) -> _GramFactors:
    """The eigensystem of G = G_A (x) G_B, G_A = D_A^T D_A and
    G_B = D_B^T D_B, from one ``eigh`` of each factor, for the design of
    ``pp``'s effects.  ValueError names the first effect of ``pp`` that is
    not finite when G_A or G_B is not, on which ``eigh`` fails: a process
    POVM built without ``validate_ppovm`` may hold one.  One sum of each
    factor tells: a NaN or inf entry makes it non-finite, and the entries
    of effects at most 1 in modulus keep it far from the float limit."""
    gram_a, gram_b = design_a.T @ design_a, design_b.T @ design_b
    if not np.isfinite(gram_a.sum() + gram_b.sum()):
        raise ValueError(non_finite_effect(pp) or "the design's Gram matrix is not finite")
    w_a, v_a = np.linalg.eigh(gram_a)
    w_b, v_b = np.linalg.eigh(gram_b)
    products = w_a[:, None] * w_b  # np.outer's product
    keep = _kept(products)
    values = np.where(keep, products, 0.0)
    rank = int(np.count_nonzero(keep))
    condition = math.inf
    if rank:
        # sqrt(w_max / w_min) per factor, at the smallest kept product
        i, j = np.unravel_index(np.where(keep, products, np.inf).argmin(), keep.shape)
        condition = math.sqrt(w_a[-1] / w_a[i]) * math.sqrt(w_b[-1] / w_b[j])
    offset = pp.effects.trace(axis1=1, axis2=2).real / pp.d
    return _GramFactors(design_a, design_b, rows, cols, offset, v_a, v_b, values, rank, condition)


def _gram_factors(pp: ProcessPovm) -> _GramFactors:
    """The factorization of ``pp``'s design, computed once per instance:
    from the factors of its product grid when it has one, else from its
    design as the N x 1 grid (``column_grid``)."""
    memo = vars(pp)
    if _MEMO not in memo:
        grid = effect_grid(pp) or column_grid(pp.effects)
        memo[_MEMO] = _factorize(*_factor_designs(grid, pp.d), grid.ia, grid.ib, pp)
    return memo[_MEMO]


def ic_check(pp: ProcessPovm) -> tuple[bool, int]:
    """Decide informational completeness of a process POVM.

    Complete iff the effects, projected onto the traceless-marginal
    subspace, span all of it; the second return value is the rank
    deficiency (0 when complete).
    """
    target = pp.d**4 - pp.d**2
    rank = _gram_factors(pp).rank
    return rank == target, target - rank


@dataclass(frozen=True)
class TomographyResult:
    """Raw and projected reconstructions with their quality numbers;
    ``condition`` is the condition number of the design on its span,
    sqrt(w_max / w_min) over the kept Gram eigenvalues, taken per
    Kronecker factor and multiplied (inf when none is kept).  The fields
    are what ``ppovm tomo`` reports (table lines, JSON keys and ``--out``
    report), and their order is its table order."""

    ic_complete: bool
    deficiency: int
    residual: float
    converged: bool
    condition: float
    omega_raw: np.ndarray
    omega_projected: np.ndarray
    hs_error: float | None = None


def linear_inversion(pp: ProcessPovm, probs: np.ndarray) -> TomographyResult:
    """Least-squares reconstruction of a Choi operator from probabilities.

    The estimate is I/d + X, with X = sum_ij c_ij lambda_i (x) mu_j in the
    product basis of the module docstring: X has zero second marginal by
    construction, so trace and second marginal are exact, and positivity
    is restored afterwards by ``psd_project``.  The coordinates c are the
    minimum-norm least-squares solution of D c = p - t, t = Tr(M)/d, from
    the kept eigenpairs of the process POVM's memoized Gram factorization:
    V w^-1 V^T D^T (p - t) with V = V_A (x) V_B, applied as V_A^T Y V_B, a
    division by the kept products w_A w_B, and V_A Z V_B^T, with
    D^T (p - t) = D_A^T R D_B (V_B = D_B = [1] for a process POVM that is
    no product grid).  ``ic_check`` shares the factorization, which also
    gives ``ic_complete``, ``deficiency`` and ``condition``; a further
    call on the same process POVM costs a few matrix products.  Solving
    through the Gram matrix makes the error in X about
    d^4 * eps * condition^2, where an orthogonal factorization of D
    reaches about eps * condition.  Non-finite probabilities raise.
    """
    d = pp.d
    probs = np.asarray(probs, dtype=float).reshape(-1)
    if probs.size != len(pp):
        raise ValueError(f"expected {len(pp)} probabilities, got {probs.size}")
    if not np.isfinite(probs).all():
        raise ValueError("probabilities are not finite")
    factors = _gram_factors(pp)
    rhs = probs - factors.offset
    coeff = factors.solve(rhs)
    omega_raw = identity(d * d) / d + _operator(coeff, d)
    misfit = factors.apply(coeff) - rhs
    residual = math.sqrt(misfit.dot(misfit))  # np.linalg.norm's route for a real vector
    deficiency = d**4 - d**2 - factors.rank
    omega_projected, converged = psd_project(omega_raw, d)
    return TomographyResult(
        ic_complete=deficiency == 0, deficiency=deficiency, residual=residual, converged=converged,
        condition=factors.condition, omega_raw=omega_raw, omega_projected=omega_projected,
    )


def psd_project(
    omega_raw: np.ndarray, d: int, iters: int = 50, tol: float = 1e-10
) -> tuple[np.ndarray, bool]:
    """Alternate eigenvalue clamping with marginal repair.

    Step one clamps negative eigenvalues and rescales the trace to d; step
    two restores the unit second marginal by an affine shift.  Stops when
    an iteration moves the matrix by less than ``tol`` in max norm.  The
    input marginal must be within ``100 * tol`` of the identity.
    """
    omega = np.asarray(omega_raw, dtype=complex)
    n = d * d
    if omega.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} matrix, got {omega.shape}")
    if not max_abs(partial_trace(omega, d, d, "second") - identity(d)) <= 100 * tol:
        raise ValueError("input marginal is too far from the identity")
    omega = hermitian_parts(omega)
    # Each step calls the ufuncs that np.clip, ndarray.sum and .max call,
    # without their Python wrappers.  The marginal Tr_2 is summed over k in
    # partial_trace's order (its einsum's; the +0.0 it starts from only
    # signs a zero, which eye - Tr_2 gives +0.0 either way), and
    # kron(repair, eye) is kron's broadcast product.  The complex identity
    # is the float one as these operations cast it.
    eye = np.eye(d, dtype=complex)
    diagonal = eye[None, :, None, :]
    for _ in range(iters):
        previous = omega
        values, vectors = np.linalg.eigh(omega)
        clamped = np.maximum(values, 0.0)
        total = np.add.reduce(clamped)
        if total > 0.0:
            clamped *= d / total
        blocks = ((vectors * clamped) @ vectors.conj().T).reshape(d, d, d, d)
        marginal = blocks[:, 0, :, 0]
        for k in range(1, d):
            marginal = marginal + blocks[:, k, :, k]
        repair = (eye - marginal) / d
        omega = (blocks + repair[:, None, :, None] * diagonal).reshape(n, n)
        if np.maximum.reduce(np.abs(omega - previous), axis=None) < tol:
            return omega, True
    return omega, False


@dataclass(frozen=True)
class ShotRecord:
    """Counts of a finite-shot run, reproducible from (generator, seed)."""

    counts: dict[str, int]
    shots: int
    seed: int
    generator: str = "numpy-pcg64"

    def frequencies(self, labels: tuple[str, ...]) -> np.ndarray:
        counts = np.fromiter(map(self.counts.get, labels, repeat(0)), float, len(labels))
        return counts / self.shots


def simulate_counts(
    ch: KrausChannel, couple: TestCouple, shots: int, seed: int, tol: float = DEFAULT_TOL
) -> ShotRecord:
    """Draw i.i.d. outcomes of one couple's experiment (``realize``'s or
    any other) on a known channel, which must be trace preserving to
    ``tol``; the outcome distribution is ``couple_probabilities``, which
    reads a realized product grid's factors and leaves its dense effects
    unformed.

    Identical (seed, shots) always reproduce identical counts; every label
    appears in the record, including zero counts.
    """
    if not 1 <= shots <= MAX_SHOTS:
        raise ValueError(f"shots must be in [1, {MAX_SHOTS}], got {shots}")
    what = "simulated counts require a trace-preserving channel"
    raise_failed(trace_preservation_checks(ch, tol), what)
    probs = couple_probabilities(couple, ch)
    probs = np.maximum(probs, 0.0)
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    draws = rng.multinomial(shots, probs)
    counts = dict(zip(couple.povm.labels, draws.tolist()))  # Python ints
    return ShotRecord(counts, shots, seed)


def reconstruction_error(result: TomographyResult, truth: np.ndarray) -> float:
    """Hilbert-Schmidt distance of the projected estimate from the truth."""
    return hs_distance(result.omega_projected, np.asarray(truth, dtype=complex))
