"""Perfect discrimination of channels, specialized to unitary pairs.

Every unitary-pair decision reads one number, the largest circular gap of
the eigenphases of U^dag V: zero is in the hull of the eigenvalues (an
error-free single-shot test exists) iff the gap is at most pi, and n
parallel copies stretch the arc Theta = 2pi - gap to n Theta.  The probe
mixes eigenvectors with closed-form hull weights and needs no ancilla, so
a plan's error rates are those of its output states, Tr[F E(|psi><psi|)].
For general channel pairs only the sufficient support-orthogonality test
and verification of user-supplied plans are offered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channels import KrausChannel, Povm, apply_channel, check_unitary, projector
from .linalg import (
    DEFAULT_TOL, dagger, frozen, hermitian_parts, hs_inner, max_abs, rank_and_support,
)
from .measurement import ProcessPovm, TestCouple, build_ppovm

TWO_PI = 2.0 * np.pi
# arcs shorter than this are a single phase: U^dag V is a multiple of I
_SAME_PHASE = 1e-12


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
    k = (w - dagger(w)) / 2j
    h_values, vectors = np.linalg.eigh(hermitian_parts(w))
    # clusters of h's eigenvalues, split where they differ by 1e-7 or more
    bounds = [0, *(np.flatnonzero(np.diff(h_values) >= 1e-7) + 1), d]
    for start, stop in zip(bounds[:-1], bounds[1:]):
        if stop - start > 1:
            block = vectors[:, start:stop]
            sub = dagger(block) @ k @ block
            _, sub_vectors = np.linalg.eigh(hermitian_parts(sub))
            vectors[:, start:stop] = block @ sub_vectors
    images = w @ vectors
    lams = np.einsum("ij,ij->j", vectors.conj(), images)  # <u|W|u> per column
    if (np.linalg.norm(images - lams * vectors, axis=0) > 1e-8).any():
        raise ValueError("eigenvector residual exceeds tolerance")
    phases = np.angle(lams) % TWO_PI
    phases[TWO_PI - phases < 1e-12] = 0.0
    order = np.argsort(phases, kind="stable")
    return phases[order], vectors[:, order]


def _checked_pair(u: np.ndarray, v: np.ndarray, tol: float):
    """U and V, each checked unitary once and of one shape."""
    u = check_unitary(u, tol)
    v = check_unitary(v, tol)
    if u.shape != v.shape:
        raise ValueError("unitaries must share a dimension")
    return u, v


def _relative_eig(u: np.ndarray, v: np.ndarray, tol: float):
    """The checked U and V and the ``unitary_eig`` phases and vectors of
    U^dag V."""
    u, v = _checked_pair(u, v, tol)
    return u, v, *unitary_eig(dagger(u) @ v, tol)


def overlap(u: np.ndarray, v: np.ndarray, tol: float = DEFAULT_TOL) -> float:
    """|Tr(U^dag V)|: the unambiguous-discrimination failure rate of the
    two unitary channels' (trace-d) pure process states."""
    u, v = _checked_pair(u, v, tol)
    return float(abs(np.trace(dagger(u) @ v)))


def necessary_condition(u: np.ndarray, v: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """|Tr(U^dag V)| <= d - 1, necessary (not sufficient) for an
    error-free test."""
    return overlap(u, v, tol) <= np.shape(u)[0] - 1 + tol  # U is checked first


def _largest_gap(phases: np.ndarray) -> float:
    """Largest circular gap between consecutive phases on [0, 2pi)."""
    phases = np.sort(np.asarray(phases, dtype=float) % TWO_PI)
    if phases.size == 0:
        raise ValueError("need at least one phase")
    return float(np.diff(phases, append=phases[0] + TWO_PI).max())


def _arc(phases: np.ndarray) -> float:
    """Theta: the length of the smallest arc holding the phases, i.e. 2pi
    minus their largest circular gap."""
    return TWO_PI - _largest_gap(phases)


def zero_in_hull(phases: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True iff zero is in the convex hull of {exp(i theta)}.

    Equivalent to: no open half-plane through the origin contains all the
    points, i.e. the largest circular gap between consecutive phases is at
    most pi.  A gap of exactly pi (antipodal boundary) counts as inside.
    """
    return _largest_gap(phases) <= np.pi + tol


def hull_weights(phases: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Convex weights q with sum_k q_k exp(i theta_k) = 0.

    Anchored at the smallest phase a: if a phase lies within ``tol`` of
    the antipode a + pi, that pair gets weights 1/2, 1/2.  Otherwise the
    phases b < a + pi < c on either side of the antipode form a triangle
    around the origin, with barycentric weights proportional to
    (sin(c - b), sin(a + 2pi - c), sin(b - a)).  At most three weights are
    nonzero; an antipodal pair that does not include the smallest phase
    gets no precedence over the triangle.  O(n log n).
    """
    phases = np.asarray(phases, dtype=float) % TWO_PI
    if not zero_in_hull(phases, tol):
        raise NoHullError("zero is not in the convex hull of the phases")
    order = np.argsort(phases, kind="stable")
    s = phases[order]
    antipode = s[0] + np.pi
    hi = int(np.searchsorted(s, antipode))
    weights = np.zeros(s.size)
    # zero in the hull leaves no phase past the antipode only when the
    # last one is within tol of it
    near = hi - 1 if hi == s.size or antipode - s[hi - 1] < s[hi] - antipode else hi
    if hi == s.size or abs(s[near] - antipode) <= tol:
        weights[order[[0, near]]] = 0.5
        return weights
    a, b, c = s[0], s[hi - 1], s[hi]
    q = np.clip([np.sin(c - b), np.sin(a + TWO_PI - c), np.sin(b - a)], 0.0, None)
    weights[order[[0, hi - 1, hi]]] = q / q.sum()
    return weights


@dataclass(frozen=True)
class DiscriminationPlan:
    """Ancilla-free probe, output POVM, and the error rates of the test.

    ``ppovm`` is the induced d^2 x d^2 process POVM, built only when asked
    for; the plan itself holds O(d^2) numbers.
    """

    probe: np.ndarray
    povm: Povm
    error_rates: tuple[float, float]

    def __post_init__(self):
        object.__setattr__(self, "probe", frozen(self.probe).reshape(-1))

    @property
    def ppovm(self) -> ProcessPovm:
        """The process POVM {rho^T (x) F_k} of the plan, built on each call."""
        couple = TestCouple(1.0, projector(self.probe), self.povm, 1)
        return build_ppovm([couple], self.probe.size)


def build_plan(u: np.ndarray, v: np.ndarray, tol: float = DEFAULT_TOL) -> DiscriminationPlan:
    """Construct an error-free test for two unitary channels.

    The probe mixes eigenvectors of U^dag V with hull weights, which makes
    the two output states orthogonal; outcome one means the channel was U,
    outcome two means V.  The error rates come from ``verify_plan``, so
    nothing larger than d x d is built.  Raises when the hull criterion
    fails.
    """
    return _plan(*_relative_eig(u, v, tol), tol)


def _plan(u, v, phases, vectors, tol: float) -> DiscriminationPlan:
    """``build_plan`` on checked U, V and the eigensystem of U^dag V."""
    d = u.shape[0]
    if not zero_in_hull(phases, tol):
        raise NotPerfectlyDiscriminableError(
            "zero is outside the convex hull of the relative eigenphases"
        )
    q = hull_weights(phases, tol)
    probe = vectors @ np.sqrt(q)
    probe = probe / np.linalg.norm(probe)
    first = hermitian_parts(u @ projector(probe) @ dagger(u))
    plan = DiscriminationPlan(
        probe, Povm((first, np.eye(d) - first), ("ch1", "ch2"), tol), (0.0, 0.0)
    )
    rates = verify_plan(KrausChannel(d, d, (u,)), KrausChannel(d, d, (v,)), plan)
    if max(rates) > tol:
        raise NotPerfectlyDiscriminableError(
            f"constructed plan has residual error rates {rates}"
        )
    return replace(plan, error_rates=rates)


def verify_plan(
    ch1: KrausChannel, ch2: KrausChannel, plan: DiscriminationPlan
) -> tuple[float, float]:
    """Misidentification rates (Tr[F2 E1(psi)], Tr[F1 E2(psi)]) of a plan
    on a concrete channel pair, psi = |probe><probe|.

    For an ancilla-free plan these equal the process-picture pairings
    Tr[M2 Omega1], Tr[M1 Omega2] with M_k = psi^T (x) F_k, at O(d^3) cost.
    """
    if len(plan.povm.effects) != 2:
        raise ValueError("discrimination requires exactly two effects")
    d = plan.probe.size
    if ch1.dim_in != d or ch2.dim_in != d:
        raise ValueError("channel dimension does not match the plan")
    psi = projector(plan.probe)
    f1, f2 = plan.povm.effects
    return (
        float(hs_inner(f2, apply_channel(ch1, psi)).real),
        float(hs_inner(f1, apply_channel(ch2, psi)).real),
    )


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


def min_copies(
    u: np.ndarray, v: np.ndarray, n_max: int, tol: float = DEFAULT_TOL
) -> int | None:
    """Smallest n <= n_max such that n parallel copies are perfectly
    discriminable, or None.

    The eigenphases of (U^dag V)^(x n) fill an arc n times as long as the
    arc Theta of the base phases, so the hull closes at the first n with
    n Theta >= pi - tol: N = max(1, ceil((pi - tol) / Theta)) (Acin 2001;
    Duan, Feng and Ying 2007).  Identical channels (Theta ~ 0) always
    return None.
    """
    return _copies(_arc(_relative_eig(u, v, tol)[2]), n_max, tol)


def _copies(theta: float, n_max: int, tol: float) -> int | None:
    """``min_copies`` for the arc Theta of the relative eigenphases."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if theta <= _SAME_PHASE:
        return None
    n = max(1, math.ceil((np.pi - tol) / theta))
    return n if n <= n_max else None


@dataclass(frozen=True)
class PairReport:
    """Every discrimination answer for one unitary pair.

    ``always_indistinguishable`` means U^dag V is a phase times the
    identity, so no number of parallel copies separates the channels.
    ``min_copies`` is the copies search up to ``n_max`` when one is given
    and the pair is not identical; otherwise 1 when zero is in the hull
    and None when it is not.  ``plan`` is None when no error-free
    single-shot test exists.
    """

    overlap: float
    necessary: bool
    zero_in_hull: bool
    always_indistinguishable: bool
    min_copies: int | None
    plan: DiscriminationPlan | None


def pair_report(
    u: np.ndarray, v: np.ndarray, n_max: int | None = None, tol: float = DEFAULT_TOL
) -> PairReport:
    """Check U and V once each, decompose U^dag V once, and read every
    answer of the pair from that one eigensystem."""
    u, v, phases, vectors = _relative_eig(u, v, tol)
    ov = float(abs(np.trace(dagger(u) @ v)))
    hull = zero_in_hull(phases, tol)
    theta = _arc(phases)
    identical = theta <= _SAME_PHASE
    try:
        plan = _plan(u, v, phases, vectors, tol)
    except NotPerfectlyDiscriminableError:
        plan = None
    if n_max is not None:
        copies = _copies(theta, n_max, tol)  # None for an identical pair
    else:
        copies = 1 if hull else None
    return PairReport(ov, ov <= u.shape[0] - 1 + tol, hull, identical, copies, plan)
