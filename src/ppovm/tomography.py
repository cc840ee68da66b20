"""Informational completeness and channel reconstruction from statistics.

A process POVM determines every channel exactly when its effects, projected
onto the Hermitian operators with zero second marginal, span them all.
Reconstruction is least squares on those projections, written as real
vectors, followed by an alternating projection back onto the set of valid
process states.

Both questions are answered from one factorization per process POVM: the
eigendecomposition of the Gram matrix G = D^T D of the design D, which is
d^4 x d^4 and real symmetric.  An eigenvalue of G counts as zero when it is
at most ``_CUTOFF`` times the largest (1e-6 times the largest singular
value of D).  The factorization is computed on first use and kept in the
process POVM's instance ``__dict__``, as ``functools.cached_property``
does; the effects are read-only, so it cannot go stale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import KrausChannel, apply_second, projector, raise_failed, trace_preservation_checks
from .linalg import DEFAULT_TOL, dagger, hs_distance, max_abs, partial_trace
from .measurement import ProcessPovm, Realization, effect_pairings

_CUTOFF = 1e-12  # Gram eigenvalues at most this times the largest count as zero
_MEMO = "_gram_factors"  # instance __dict__ key of a process POVM's factorization


def _real_vectors(h: np.ndarray) -> np.ndarray:
    """Isometric real coordinates of stacked Hermitian n x n matrices: the
    diagonal, then sqrt(2) Re and sqrt(2) Im of the upper triangle, so that
    dot products of rows are Hilbert-Schmidt inner products."""
    rows, cols = np.triu_indices(h.shape[-1], 1)
    upper = np.sqrt(2) * h[:, rows, cols]
    return np.concatenate([np.diagonal(h, axis1=1, axis2=2).real, upper.real, upper.imag], axis=1)


def _hermitian_of(v: np.ndarray, n: int) -> np.ndarray:
    """Inverse of ``_real_vectors`` for one n x n matrix."""
    rows, cols = np.triu_indices(n, 1)
    upper = np.zeros((n, n), dtype=complex)
    upper[rows, cols] = (v[n : n + rows.size] + 1j * v[n + rows.size :]) / np.sqrt(2)
    return upper + upper.conj().T + np.diag(v[:n])


def _hermitian_stack(pp: ProcessPovm) -> np.ndarray:
    """The Hermitian parts of the effects as one (N, d^2, d^2) array."""
    h = pp.effects + dagger(pp.effects)
    h /= 2
    return h


def _zero_marginal(h: np.ndarray, d: int) -> np.ndarray:
    """Projections M - Tr_2(M) (x) I/d of stacked d^2 x d^2 matrices onto
    the zero-second-marginal subspace."""
    m = h.reshape(-1, d, d, d, d)
    marginal = np.einsum("xakbk->xab", m)
    projected = m - marginal[:, :, None, :, None] * np.eye(d)[:, None, :] / d
    return projected.reshape(-1, d * d, d * d)


def _design(h: np.ndarray, d: int) -> np.ndarray:
    """Tomography design of stacked Hermitian effects: one row per effect,
    its zero-marginal projection in the coordinates of ``_real_vectors``."""
    return _real_vectors(_zero_marginal(h, d))


def _kept(values: np.ndarray) -> np.ndarray:
    """Mask of the ascending eigenvalues of a Gram matrix that count as
    nonzero."""
    return values > _CUTOFF * values[-1]


@dataclass(frozen=True)
class _GramFactors:
    """The design D of a process POVM, the offsets Tr(M)/d of its effects,
    and the eigenpairs of G = D^T D above the cutoff (ascending)."""

    design: np.ndarray
    offset: np.ndarray
    values: np.ndarray
    vectors: np.ndarray

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """The minimum-norm least-squares solution of D x = rhs."""
        return self.vectors @ ((self.vectors.T @ (self.design.T @ rhs)) / self.values)


def _gram_factors(pp: ProcessPovm) -> _GramFactors:
    """The factorization of ``pp``'s design, computed once per instance."""
    memo = vars(pp)
    if _MEMO not in memo:
        h = _hermitian_stack(pp)
        design = _design(h, pp.d)
        values, vectors = np.linalg.eigh(design.T @ design)
        keep = _kept(values)
        offset = np.trace(h, axis1=1, axis2=2).real / pp.d
        memo[_MEMO] = _GramFactors(design, offset, values[keep], vectors[:, keep])
    return memo[_MEMO]


def ic_check(pp: ProcessPovm) -> tuple[bool, int]:
    """Decide informational completeness of a process POVM.

    Complete iff the effects, projected onto the traceless-marginal
    subspace, span all of it; the second return value is the rank
    deficiency (0 when complete).
    """
    target = pp.d**4 - pp.d**2
    rank = _gram_factors(pp).values.size
    return rank == target, target - rank


def ic_ranks(pp: ProcessPovm) -> tuple[int, int]:
    """(full span rank over all Hermitian coordinates, projected rank over
    the traceless-marginal subspace); the two differ by at most the d^2
    marginal directions."""
    full = _real_vectors(_hermitian_stack(pp))
    return int(_kept(np.linalg.eigvalsh(full.T @ full)).sum()), _gram_factors(pp).values.size


@dataclass(frozen=True)
class TomographyResult:
    """Raw and projected reconstructions with their quality numbers;
    ``condition`` is the condition number of the design on its span,
    sqrt(w_max / w_min) over the kept Gram eigenvalues (inf when none is
    kept)."""

    omega_raw: np.ndarray
    omega_projected: np.ndarray
    residual: float
    ic_complete: bool
    deficiency: int
    converged: bool
    condition: float
    hs_error: float | None = None


def linear_inversion(pp: ProcessPovm, probs: np.ndarray, iters: int = 50) -> TomographyResult:
    """Least-squares reconstruction of a Choi operator from probabilities.

    The unknown is identity/d plus the least-squares X with zero second
    marginal solving Tr[(M - Tr_2(M) (x) I/d) X] = p - Tr(M)/d for every
    effect M, so trace and second marginal are exact by construction;
    positivity is restored afterwards by ``psd_project``.  X is the
    minimum-norm solution V w^-1 V^T D^T (p - t), t = Tr(M)/d, from the
    kept eigenpairs (w, V) of the process POVM's memoized Gram
    factorization, which ``ic_check`` shares and which also gives
    ``ic_complete``, ``deficiency`` and ``condition``; a further call on
    the same process POVM costs a few matrix-vector products.  Solving
    through the Gram matrix makes the error in X about d^4 * eps *
    condition^2, where an orthogonal factorization of D reaches about eps *
    condition.  Non-finite probabilities raise.
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
    # eigenvectors of small eigenvalues carry round-off along the marginal
    # directions, which the projection removes
    x = _zero_marginal(_hermitian_of(coeff, d * d), d)[0]
    omega_raw = np.eye(d * d, dtype=complex) / d + x
    residual = float(np.linalg.norm(factors.design @ coeff - rhs))
    values = factors.values
    target, rank = d**4 - d**2, values.size
    condition = math.sqrt(values[-1] / values[0]) if rank else math.inf
    omega_projected, converged = psd_project(omega_raw, d, iters=iters)
    return TomographyResult(
        omega_raw, omega_projected, residual, rank == target, target - rank, converged, condition
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
    if max_abs(partial_trace(omega, d, d, "second") - np.eye(d)) > 100 * tol:
        raise ValueError("input marginal is too far from the identity")
    omega = (omega + omega.conj().T) / 2
    eye = np.eye(d)
    for _ in range(iters):
        previous = omega
        values, vectors = np.linalg.eigh(omega)
        clamped = np.clip(values, 0.0, None)
        total = clamped.sum()
        if total > 0.0:
            clamped *= d / total
        omega = (vectors * clamped) @ vectors.conj().T
        repair = (eye - np.einsum("akbk->ab", omega.reshape(d, d, d, d))) / d
        # repair (x) I, broadcast as in linalg.kron
        omega = omega + (repair[:, None, :, None] * eye[None, :, None, :]).reshape(n, n)
        if np.abs(omega - previous).max() < tol:
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
        return np.array([self.counts.get(lbl, 0) for lbl in labels]) / self.shots


def realization_probabilities(real: Realization, ch: KrausChannel) -> np.ndarray:
    """Born-rule outcome distribution of a realized experiment."""
    d = real.qudit_dim()
    if ch.dim_in != d or ch.dim_out != d:
        raise ValueError(f"channel dimension {ch.dim_in} != {d}")
    output = apply_second(ch, projector(real.test_vector), real.r)
    return effect_pairings(real.povm.effects, output)


def simulate_counts(
    ch: KrausChannel, real: Realization, shots: int, seed: int, tol: float = DEFAULT_TOL
) -> ShotRecord:
    """Draw i.i.d. outcomes of the realized experiment on a known channel,
    which must be trace preserving to ``tol``.

    Identical (seed, shots) always reproduce identical counts; every label
    appears in the record, including zero counts.
    """
    if shots < 1:
        raise ValueError("shots must be at least 1")
    what = "simulated counts require a trace-preserving channel"
    raise_failed(trace_preservation_checks(ch, tol), what)
    probs = realization_probabilities(real, ch)
    probs = np.clip(probs, 0.0, None)
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    draws = rng.multinomial(shots, probs)
    counts = {lbl: int(n) for lbl, n in zip(real.povm.labels, draws)}
    return ShotRecord(counts, shots, seed)


def reconstruction_error(result: TomographyResult, truth: np.ndarray) -> float:
    """Hilbert-Schmidt distance of the projected estimate from the truth."""
    return hs_distance(result.omega_projected, np.asarray(truth, dtype=complex))
