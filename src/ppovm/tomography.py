"""Informational completeness and channel reconstruction from statistics.

A process POVM determines every channel exactly when its effects, projected
onto the Hermitian operators with zero second marginal, span them all.
Reconstruction is least squares on those projections, written as real
vectors, followed by an alternating projection back onto the set of valid
process states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import KrausChannel, apply_second, projector, raise_failed, trace_preservation_checks
from .linalg import DEFAULT_TOL, dagger, hs_distance, kron, max_abs, partial_trace
from .measurement import ProcessPovm, Realization, effect_pairings

_RCOND = 1e-10  # singular values at most this times the largest count as zero


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


def _design(h: np.ndarray, d: int) -> np.ndarray:
    """Tomography design of stacked Hermitian effects: one row per effect,
    its projection M - Tr_2(M) (x) I/d onto the zero-second-marginal
    subspace in the coordinates of ``_real_vectors``."""
    m = h.reshape(-1, d, d, d, d)
    marginal = np.einsum("xakbk->xab", m)
    projected = m - marginal[:, :, None, :, None] * np.eye(d)[:, None, :] / d
    return _real_vectors(projected.reshape(-1, d * d, d * d))


def _rank(matrix: np.ndarray) -> int:
    s = np.linalg.svd(matrix, compute_uv=False)
    return int((s > _RCOND * s[0]).sum()) if s.size else 0


def ic_check(pp: ProcessPovm) -> tuple[bool, int]:
    """Decide informational completeness of a process POVM.

    Complete iff the effects, projected onto the traceless-marginal
    subspace, span all of it; the second return value is the rank
    deficiency (0 when complete).
    """
    target = pp.d**4 - pp.d**2
    rank = _rank(_design(_hermitian_stack(pp), pp.d))
    return rank == target, target - rank


def ic_ranks(pp: ProcessPovm) -> tuple[int, int]:
    """(full span rank over all Hermitian coordinates, projected rank over
    the traceless-marginal subspace); the two differ by at most the d^2
    marginal directions."""
    h = _hermitian_stack(pp)
    return _rank(_real_vectors(h)), _rank(_design(h, pp.d))


@dataclass(frozen=True)
class TomographyResult:
    """Raw and projected reconstructions with their quality numbers."""

    omega_raw: np.ndarray
    omega_projected: np.ndarray
    residual: float
    ic_complete: bool
    deficiency: int
    converged: bool
    hs_error: float | None = None


def linear_inversion(pp: ProcessPovm, probs: np.ndarray, iters: int = 50) -> TomographyResult:
    """Least-squares reconstruction of a Choi operator from probabilities.

    The unknown is identity/d plus the least-squares X with zero second
    marginal solving Tr[(M - Tr_2(M) (x) I/d) X] = p - Tr(M)/d for every
    effect M, so trace and second marginal are exact by construction;
    positivity is restored afterwards by ``psd_project``.  The rank of the
    same solve gives ``ic_complete`` and ``deficiency``; when deficient, X
    is the minimum-norm solution.  Non-finite probabilities raise.
    """
    d = pp.d
    probs = np.asarray(probs, dtype=float).reshape(-1)
    if probs.size != len(pp):
        raise ValueError(f"expected {len(pp)} probabilities, got {probs.size}")
    if not np.isfinite(probs).all():
        raise ValueError("probabilities are not finite")
    h = _hermitian_stack(pp)
    design = _design(h, d)
    rhs = probs - np.trace(h, axis1=1, axis2=2).real / d
    coeff, _, rank, _ = np.linalg.lstsq(design, rhs, rcond=_RCOND)
    omega_raw = np.eye(d * d, dtype=complex) / d + _hermitian_of(coeff, d * d)
    residual = float(np.linalg.norm(design @ coeff - rhs))
    target, rank = d**4 - d**2, int(rank)
    omega_projected, converged = psd_project(omega_raw, d, iters=iters)
    return TomographyResult(
        omega_raw, omega_projected, residual, rank == target, target - rank, converged
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
    for _ in range(iters):
        previous = omega
        values, vectors = np.linalg.eigh(omega)
        clamped = np.clip(values, 0.0, None)
        total = clamped.sum()
        if total > 0.0:
            clamped *= d / total
        omega = (vectors * clamped) @ vectors.conj().T
        repair = (np.eye(d) - partial_trace(omega, d, d, "second")) / d
        omega = omega + kron(repair, np.eye(d))
        if max_abs(omega - previous) < tol:
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
