"""Informational completeness and channel reconstruction from statistics.

A process POVM determines every channel exactly when no traceless-marginal
Hermitian perturbation of a Choi operator is invisible to all effects.
Reconstruction is plain least squares in an orthonormal Hermitian operator
basis, followed by an alternating projection back onto the set of valid
process states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import KrausChannel, apply_second, projector
from .linalg import DEFAULT_TOL, hs_distance, hs_inner, kron, max_abs, partial_trace
from .measurement import ProcessPovm, Realization


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


def _coordinates(matrices, basis) -> np.ndarray:
    """Real coordinate matrix: rows are matrices, columns basis elements."""
    return np.array([[hs_inner(b, m).real for b in basis] for m in matrices])


def _rank(matrix: np.ndarray, tol: float = 1e-10) -> int:
    if matrix.size == 0:
        return 0
    s = np.linalg.svd(matrix, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int((s > tol * s[0]).sum())


def ic_check(pp: ProcessPovm) -> tuple[bool, int]:
    """Decide informational completeness of a process POVM.

    Complete iff the effects, projected onto the traceless-marginal
    subspace, span all of it; the second return value is the rank
    deficiency (0 when complete).
    """
    target = pp.d**4 - pp.d**2
    rank = _rank(_coordinates(pp.matrices, traceless_marginal_basis(pp.d)))
    return rank == target, target - rank


def ic_ranks(pp: ProcessPovm) -> tuple[int, int]:
    """(full span rank over all Hermitian coordinates, projected rank over
    the traceless-marginal subspace); the two differ by at most the d^2
    marginal directions."""
    full = _rank(_coordinates(pp.matrices, hermitian_basis(pp.d**2)))
    proj = _rank(_coordinates(pp.matrices, traceless_marginal_basis(pp.d)))
    return full, proj


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

    The unknown is parameterized as identity/d plus a traceless-marginal
    part, so trace and second marginal are exact by construction;
    positivity is restored afterwards by ``psd_project``.  When the
    process POVM is not informationally complete the minimum-norm solution
    is returned and the deficiency recorded on the result.
    """
    d = pp.d
    probs = np.asarray(probs, dtype=float).reshape(-1)
    if probs.size != len(pp):
        raise ValueError(f"expected {len(pp)} probabilities, got {probs.size}")
    basis = traceless_marginal_basis(d)
    design = _coordinates(pp.matrices, basis)
    center = np.eye(d * d, dtype=complex) / d
    offset = np.array([hs_inner(m, center).real for m in pp.matrices])
    rhs = probs - offset
    coeff, *_ = np.linalg.lstsq(design, rhs, rcond=1e-10)
    omega_raw = center + sum(c * b for c, b in zip(coeff, basis))
    residual = float(np.linalg.norm(design @ coeff - rhs))
    complete, deficiency = ic_check(pp)
    omega_projected, converged = psd_project(omega_raw, d, iters=iters)
    return TomographyResult(
        omega_raw, omega_projected, residual, complete, deficiency, converged
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
    return np.array([hs_inner(f, output).real for f in real.povm.effects])


def simulate_counts(
    ch: KrausChannel, real: Realization, shots: int, seed: int
) -> ShotRecord:
    """Draw i.i.d. outcomes of the realized experiment on a known channel.

    Identical (seed, shots) always reproduce identical counts; every label
    appears in the record, including zero counts.
    """
    if shots < 1:
        raise ValueError("shots must be at least 1")
    probs = realization_probabilities(real, ch)
    total = probs.sum()
    if abs(total - 1.0) > 1000 * DEFAULT_TOL:
        raise ValueError(f"outcome probabilities sum to {total}, expected 1")
    probs = np.clip(probs, 0.0, None)
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    draws = rng.multinomial(shots, probs)
    counts = {lbl: int(n) for lbl, n in zip(real.povm.labels, draws)}
    return ShotRecord(counts, shots, seed)


def reconstruction_error(result: TomographyResult, truth: np.ndarray) -> float:
    """Hilbert-Schmidt distance of the projected estimate from the truth."""
    return hs_distance(result.omega_projected, np.asarray(truth, dtype=complex))
