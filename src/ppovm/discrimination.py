"""Perfect discrimination of channels, specialized to unitary pairs.

Two unitary channels admit an error-free single-shot test exactly when
zero lies in the convex hull of the eigenvalues of U^dag V on the unit
circle; the probe is then a weighted superposition of eigenvectors and no
ancilla is needed.  For general channel pairs only the sufficient
support-orthogonality test and verification of user-supplied plans are
offered.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import KrausChannel, Povm, check_unitary, choi_of_channel, projector
from .linalg import DEFAULT_TOL, dagger, hs_inner, max_abs, rank_and_support
from .measurement import ProcessPovm, TestCouple, build_ppovm

TWO_PI = 2.0 * np.pi


class NoHullError(ValueError):
    """Zero is not in the convex hull of the given unit-circle points."""


class NotPerfectlyDiscriminableError(ValueError):
    """The channel pair admits no error-free single-shot test."""


def unitary_eig(w: np.ndarray, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigenphases in [0, 2pi) and orthonormal eigenvectors of a unitary.

    Solved through the commuting Hermitian parts: eigenspaces of
    (W + W^dag)/2 are split by (W - W^dag)/2i, which keeps the vectors
    orthonormal even for clustered phases.  Phases come back sorted
    ascending with the vector columns in matching order.
    """
    w = check_unitary(w, tol)
    d = w.shape[0]
    h = (w + dagger(w)) / 2
    k = (w - dagger(w)) / 2j
    h_values, h_vectors = np.linalg.eigh(h)
    columns = []
    start = 0
    while start < d:
        stop = start + 1
        while stop < d and h_values[stop] - h_values[stop - 1] < 1e-7:
            stop += 1
        block = h_vectors[:, start:stop]
        if stop - start == 1:
            columns.append(block[:, 0])
        else:
            sub = dagger(block) @ k @ block
            _, sub_vectors = np.linalg.eigh((sub + dagger(sub)) / 2)
            for col in (block @ sub_vectors).T:
                columns.append(col)
        start = stop
    phases = np.empty(d)
    vectors = np.column_stack(columns)
    for idx in range(d):
        u = vectors[:, idx]
        lam = np.vdot(u, w @ u)
        if np.linalg.norm(w @ u - lam * u) > 1e-8:
            raise ValueError("eigenvector residual exceeds tolerance")
        theta = float(np.angle(lam)) % TWO_PI
        if TWO_PI - theta < 1e-12:
            theta = 0.0
        phases[idx] = theta
    order = np.argsort(phases, kind="stable")
    return phases[order], vectors[:, order]


def overlap(u: np.ndarray, v: np.ndarray, tol: float = DEFAULT_TOL) -> float:
    """|Tr(U^dag V)|: the unambiguous-discrimination failure rate of the
    two unitary channels' (trace-d) pure process states."""
    u = check_unitary(u, tol)
    v = check_unitary(v, tol)
    if u.shape != v.shape:
        raise ValueError("unitaries must share a dimension")
    return float(abs(np.trace(dagger(u) @ v)))


def necessary_condition(u: np.ndarray, v: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """|Tr(U^dag V)| <= d - 1, necessary (not sufficient) for an
    error-free test."""
    d = np.asarray(u).shape[0]
    return overlap(u, v, tol) <= d - 1 + tol


def zero_in_hull(phases: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True iff zero is in the convex hull of {exp(i theta)}.

    Equivalent to: no open half-plane through the origin contains all the
    points, i.e. the largest circular gap between consecutive phases is at
    most pi.  A gap of exactly pi (antipodal boundary) counts as inside.
    """
    phases = np.sort(np.asarray(phases, dtype=float) % TWO_PI)
    if phases.size == 0:
        raise ValueError("need at least one phase")
    gaps = np.diff(phases, append=phases[0] + TWO_PI)
    return float(gaps.max()) <= np.pi + tol


def _cross(a: complex, b: complex) -> float:
    return a.real * b.imag - a.imag * b.real


def hull_weights(phases: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Convex weights q with sum_k q_k exp(i theta_k) = 0.

    At most three weights are nonzero: an antipodal pair if one exists
    (first in index order), otherwise the first index-ordered triangle
    containing the origin, solved barycentrically.
    """
    phases = np.asarray(phases, dtype=float) % TWO_PI
    if not zero_in_hull(phases, tol):
        raise NoHullError("zero is not in the convex hull of the phases")
    n = phases.size
    weights = np.zeros(n)
    for i in range(n):
        for j in range(i + 1, n):
            delta = abs(phases[i] - phases[j])
            if abs(min(delta, TWO_PI - delta) - np.pi) <= tol:
                weights[i] = weights[j] = 0.5
                return weights
    z = np.exp(1j * phases)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                tri = (z[i], z[j], z[k])
                crosses = [
                    _cross(tri[1] - tri[0], -tri[0]),
                    _cross(tri[2] - tri[1], -tri[1]),
                    _cross(tri[0] - tri[2], -tri[2]),
                ]
                pos = any(c > 1e-12 for c in crosses)
                neg = any(c < -1e-12 for c in crosses)
                if pos and neg:
                    continue
                system = np.array(
                    [
                        [z[i].real, z[j].real, z[k].real],
                        [z[i].imag, z[j].imag, z[k].imag],
                        [1.0, 1.0, 1.0],
                    ]
                )
                q, *_ = np.linalg.lstsq(system, np.array([0.0, 0.0, 1.0]), rcond=None)
                if q.min() < -1e-9:
                    continue
                q = np.clip(q, 0.0, None)
                q = q / q.sum()
                if abs(q[0] * z[i] + q[1] * z[j] + q[2] * z[k]) > 1e-9:
                    continue
                weights[[i, j, k]] = q
                return weights
    raise NoHullError("no supporting pair or triangle found")


@dataclass(frozen=True)
class DiscriminationPlan:
    """Ancilla-free probe, output POVM, and the induced process POVM."""

    probe: np.ndarray
    povm: Povm
    ppovm: ProcessPovm
    error_rates: tuple[float, float]

    def __post_init__(self):
        v = np.array(self.probe, dtype=complex).reshape(-1)
        v.setflags(write=False)
        object.__setattr__(self, "probe", v)


def build_plan(u: np.ndarray, v: np.ndarray, tol: float = DEFAULT_TOL) -> DiscriminationPlan:
    """Construct an error-free test for two unitary channels.

    The probe mixes eigenvectors of U^dag V with hull weights, which makes
    the two output states orthogonal; outcome one means the channel was U,
    outcome two means V.  Raises when the hull criterion fails.
    """
    u = check_unitary(u, tol)
    v = check_unitary(v, tol)
    if u.shape != v.shape:
        raise ValueError("unitaries must share a dimension")
    d = u.shape[0]
    phases, vectors = unitary_eig(dagger(u) @ v, tol)
    if not zero_in_hull(phases, tol):
        raise NotPerfectlyDiscriminableError(
            "zero is outside the convex hull of the relative eigenphases"
        )
    q = hull_weights(phases, tol)
    probe = vectors @ np.sqrt(q)
    probe = probe / np.linalg.norm(probe)
    first = u @ projector(probe) @ dagger(u)
    first = (first + dagger(first)) / 2
    povm = Povm((first, np.eye(d) - first), ("ch1", "ch2"))
    pp = build_ppovm([TestCouple(1.0, projector(probe), povm, 1)], d, tol)
    rates = verify_plan_rates(pp, *(choi_of_channel(KrausChannel(d, d, (w,))) for w in (u, v)))
    if max(rates) > tol:
        raise NotPerfectlyDiscriminableError(
            f"constructed plan has residual error rates {rates}"
        )
    return DiscriminationPlan(probe, povm, pp, rates)


def verify_plan_rates(
    pp: ProcessPovm, omega1: np.ndarray, omega2: np.ndarray
) -> tuple[float, float]:
    """Misidentification rates (Tr[M2 omega1], Tr[M1 omega2]) of a
    two-outcome process POVM against two process states."""
    if len(pp) != 2:
        raise ValueError("discrimination requires exactly two effects")
    m1, m2 = pp.matrices
    return (
        float(hs_inner(m2, omega1).real),
        float(hs_inner(m1, omega2).real),
    )


def verify_plan(
    ch1: KrausChannel, ch2: KrausChannel, plan: DiscriminationPlan
) -> tuple[float, float]:
    """Misidentification rates of a plan on a concrete channel pair."""
    if ch1.dim_in != plan.ppovm.d or ch2.dim_in != plan.ppovm.d:
        raise ValueError("channel dimension does not match the plan")
    return verify_plan_rates(plan.ppovm, choi_of_channel(ch1), choi_of_channel(ch2))


def support_orthogonal(
    omega1: np.ndarray, omega2: np.ndarray, tol: float = DEFAULT_TOL
) -> bool:
    """True if the supports of two positive operators are orthogonal.

    Sufficient for perfect discriminability of the corresponding channels,
    but not necessary.
    """
    omega1 = np.asarray(omega1, dtype=complex)
    omega2 = np.asarray(omega2, dtype=complex)
    if omega1.shape != omega2.shape:
        raise ValueError("operators must share a dimension")
    _, p1 = rank_and_support(omega1, tol)
    _, p2 = rank_and_support(omega2, tol)
    return max_abs(p1 @ p2) <= tol


def _dedup_phases(phases: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    phases = np.sort(np.asarray(phases, dtype=float) % TWO_PI)
    phases[TWO_PI - phases < tol] = 0.0
    phases = np.sort(phases)
    kept = [phases[0]]
    for p in phases[1:]:
        if p - kept[-1] > tol:
            kept.append(p)
    return np.array(kept)


def always_indistinguishable(u: np.ndarray, v: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True iff U^dag V is a phase times the identity, so that no number
    of parallel copies can ever separate the two channels."""
    phases, _ = unitary_eig(dagger(check_unitary(u, tol)) @ check_unitary(v, tol), tol)
    return _dedup_phases(phases).size == 1


def min_copies(
    u: np.ndarray, v: np.ndarray, n_max: int, tol: float = DEFAULT_TOL
) -> int | None:
    """Smallest n <= n_max such that n parallel copies are perfectly
    discriminable, or None.

    The eigenphases of (U^dag V)^(x n) are all n-fold sums of the base
    phases; the multiset is grown iteratively with deduplication, and the
    hull test applied at each n.  Identical channels (a single distinct
    phase) always return None.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    base_phases, _ = unitary_eig(dagger(check_unitary(u, tol)) @ check_unitary(v, tol), tol)
    base = _dedup_phases(base_phases)
    if base.size == 1:
        return None
    current = base
    for n in range(1, n_max + 1):
        if n > 1:
            current = _dedup_phases((current[:, None] + base[None, :]).ravel())
        if zero_in_hull(current, tol):
            return n
    return None
