"""Process POVMs: measurements performed on quantum channels.

A process measurement prepares a (possibly entangled) test state, sends the
second factor through the unknown channel, and measures the output with a
POVM.  Each outcome is fully captured by a single process effect on two
copies of the channel's system, and the effects of one experiment sum to
rho^T (x) I for a state rho rather than to the identity.  This module
builds process effects from experiment descriptions, validates abstract
collections of them, and realizes any valid collection back as a concrete
experiment with a pure test state of minimal ancilla dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (
    KrausChannel,
    Povm,
    apply_first,
    check_density,
    choi_of_channel,
    density_checks,
    dual_channel,
    effect_checks,
    projector,
    raise_failed,
    state_to_map,
    trace_preservation_checks,
)
from .linalg import (
    DEFAULT_TOL,
    Check,
    dagger,
    herm_eig,
    hs_inner,
    kron,
    max_abs,
    partial_trace,
    pinv,
)


class PpovmError(ValueError):
    """A collection of matrices fails to be a valid process POVM."""


class NotPsdError(PpovmError):
    """An effect is not Hermitian or has spectrum outside [0, 1]."""

    def __init__(self, index: int, message: str):
        super().__init__(f"effect {index}: {message}")
        self.index = index


class NotProductNormalizationError(PpovmError):
    """The effect sum is not of the form sigma (x) I."""


class NormStateInvalidError(PpovmError):
    """The extracted normalization state is not a density operator."""


class SupportViolationError(PpovmError):
    """An effect leaks outside the support of the normalization state."""


@dataclass(frozen=True)
class ProcessEffect:
    """One labeled outcome of a process measurement."""

    label: str
    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class TestCouple:
    """A weighted experiment fragment: test state plus output POVM.

    The test state lives on H_anc (x) H_d and the POVM measures that same
    space after the channel acted on the second factor.  ``anc_dim`` may
    be 1 for ancilla-free probing.
    """

    __test__ = False  # not a pytest class, despite the name

    weight: float
    state: np.ndarray
    povm: Povm
    anc_dim: int

    def __post_init__(self):
        s = np.array(self.state, dtype=complex)
        s.setflags(write=False)
        object.__setattr__(self, "state", s)

    def qudit_dim(self) -> int:
        return self.state.shape[0] // self.anc_dim


@dataclass(frozen=True)
class ProcessPovm:
    """Process effects summing to norm_state^T (x) I on H_d (x) H_d."""

    d: int
    effects: tuple[ProcessEffect, ...]
    norm_state: np.ndarray

    def __post_init__(self):
        rho = np.array(self.norm_state, dtype=complex)
        rho.setflags(write=False)
        object.__setattr__(self, "norm_state", rho)
        object.__setattr__(self, "effects", tuple(self.effects))
        n = self.d * self.d
        for eff in self.effects:
            if eff.matrix.shape != (n, n):
                raise ValueError(f"effect {eff.label!r} is not {n}x{n}")
        if rho.shape != (self.d, self.d):
            raise ValueError("normalization state has wrong dimension")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(e.label for e in self.effects)

    @property
    def matrices(self) -> tuple[np.ndarray, ...]:
        return tuple(e.matrix for e in self.effects)

    def __len__(self) -> int:
        return len(self.effects)


@dataclass(frozen=True)
class Realization:
    """A concrete experiment implementing a process POVM.

    ``test_vector`` is a unit vector on H_r (x) H_d whose ancilla marginal
    is the POVM's normalization state; ``povm`` measures the channel
    output on that same space.
    """

    test_vector: np.ndarray
    r: int
    povm: Povm

    def __post_init__(self):
        v = np.array(self.test_vector, dtype=complex).reshape(-1)
        v.setflags(write=False)
        object.__setattr__(self, "test_vector", v)

    def qudit_dim(self) -> int:
        return self.test_vector.size // self.r

    def as_couple(self) -> TestCouple:
        return TestCouple(1.0, projector(self.test_vector), self.povm, self.r)


# ---------------------------------------------------------------------------
# construction from experiments
# ---------------------------------------------------------------------------


def process_effect(
    state: np.ndarray, effect: np.ndarray, anc_dim: int, d: int, weight: float = 1.0
) -> np.ndarray:
    """Process effect of one outcome: weight * (R_state^* (x) I)[effect].

    ``state`` is the test state on H_anc (x) H_d, ``effect`` the POVM
    element measured on the channel output.  The result is a positive
    operator on H_d (x) H_d whose pairing with any Choi operator gives the
    outcome probability of the underlying experiment.
    """
    lifted = dual_channel(state_to_map(state, anc_dim, d))
    return weight * apply_first(lifted, np.asarray(effect, dtype=complex), d)


def build_ppovm(couples: list[TestCouple], d: int, tol: float = DEFAULT_TOL) -> ProcessPovm:
    """Assemble the process POVM of an experiment given as weighted couples.

    Couple weights must sum to one and each POVM must be complete on its
    own test space.  Effect labels are the POVM outcome labels, prefixed
    with the couple index when there is more than one couple.
    """
    if not couples:
        raise ValueError("need at least one test couple")
    total_weight = sum(c.weight for c in couples)
    if abs(total_weight - 1.0) > tol:
        raise ValueError(f"couple weights sum to {total_weight}, expected 1")
    effects: list[ProcessEffect] = []
    norm_state = np.zeros((d, d), dtype=complex)
    for j, couple in enumerate(couples):
        if couple.weight <= 0.0:
            raise ValueError(f"couple {j} has non-positive weight {couple.weight}")
        if couple.qudit_dim() != d:
            raise ValueError(f"couple {j} is not defined on qudit dimension {d}")
        check_density(couple.state, tol)
        if couple.povm.dim != couple.anc_dim * d:
            raise ValueError(f"couple {j}: POVM dimension mismatch")
        lifted = dual_channel(state_to_map(couple.state, couple.anc_dim, d, tol))
        for label, f in zip(couple.povm.labels, couple.povm.effects):
            m = couple.weight * apply_first(lifted, f, d)
            name = label if len(couples) == 1 else f"{j}:{label}"
            effects.append(ProcessEffect(name, m))
        norm_state += couple.weight * partial_trace(
            couple.state, couple.anc_dim, d, "first"
        )
    total = sum(e.matrix for e in effects)
    checks = [_normalization_check(total, norm_state.T, d, tol)]
    what = "assembled effects do not satisfy the normalization condition"
    raise_failed(checks, what, NotProductNormalizationError)
    return ProcessPovm(d, tuple(effects), norm_state)


def _normalization_check(total: np.ndarray, sigma: np.ndarray, d: int, tol: float) -> Check:
    """Residual of sum M = sigma (x) I_d, bounded by tol relative to max|sum M|."""
    res = max_abs(total - kron(sigma, np.eye(d)))
    return ("product_normalization_residual", res, res <= tol * max(1.0, max_abs(total)))


def ppovm_checks(
    matrices: list[np.ndarray], d: int, tol: float = DEFAULT_TOL
) -> tuple[list[Check], np.ndarray]:
    """Process-POVM invariants of raw matrices, and the norm state rho.

    Each matrix must be an effect on H_d (x) H_d, and the sum must factor
    as sigma (x) I_d with rho = sigma^T a density operator.
    """
    mats = [np.asarray(m, dtype=complex) for m in matrices]
    n = d * d
    for k, m in enumerate(mats):
        if m.shape != (n, n):
            raise PpovmError(f"effect {k} is not {n}x{n}")
    checks = [c for k, m in enumerate(mats) for c in effect_checks(m, tol, f"effect_{k}")]
    total = sum(mats)
    sigma = partial_trace(total, d, d, "second") / d
    checks.append(_normalization_check(total, sigma, d, tol))
    rho = sigma.T
    return [*checks, *density_checks(rho, tol, "norm_state_")], rho


def validate_ppovm(
    matrices: list[np.ndarray],
    d: int,
    labels: list[str] | None = None,
    tol: float = DEFAULT_TOL,
) -> ProcessPovm:
    """Check that raw matrices form a process POVM and assemble it.

    Raises for the first failing entry of ``ppovm_checks``: NotPsdError
    for an effect, NotProductNormalizationError for the sum, and
    NormStateInvalidError for the norm state.
    """
    if labels is None:
        labels = [str(k) for k in range(len(matrices))]
    if len(labels) != len(matrices):
        raise ValueError("label count does not match effect count")
    checks, rho = ppovm_checks(matrices, d, tol)
    for name, value, passed in checks:
        if not passed:
            if name.startswith("effect_"):
                _, k, entry = name.split("_", 2)
                raise NotPsdError(int(k), f"{entry} = {value:.3e}")
            message = f"{name} = {value:.3e}"
            if name.startswith("norm_state_"):
                raise NormStateInvalidError(message)
            raise NotProductNormalizationError(message)
    effects = tuple(ProcessEffect(lbl, m) for lbl, m in zip(labels, matrices))
    return ProcessPovm(d, effects, rho)


def merge_couples(couples: list[TestCouple]) -> TestCouple:
    """Fuse several couples into one with a flag register on the ancilla.

    The merged test state is sum_j p_j |j><j| (x) state_j with every
    ancilla padded to the largest one; the merged POVM tags each original
    outcome with its flag projector.  The resulting couple defines the
    same process POVM, effect by effect.
    """
    if not couples:
        raise ValueError("need at least one test couple")
    d = couples[0].qudit_dim()
    if any(c.qudit_dim() != d for c in couples):
        raise ValueError("couples must share the qudit dimension")
    if any(c.weight <= 0.0 for c in couples):
        raise ValueError("zero-weight couples cannot be merged")
    m = len(couples)
    big_anc = max(c.anc_dim for c in couples)
    n_big = big_anc * d

    def pad(op: np.ndarray, anc: int) -> np.ndarray:
        if anc == big_anc:
            return np.asarray(op, dtype=complex)
        out = np.zeros((n_big, n_big), dtype=complex)
        n_small = anc * d
        out[:n_small, :n_small] = op
        return out

    state = np.zeros((m * n_big, m * n_big), dtype=complex)
    effects: list[np.ndarray] = []
    labels: list[str] = []
    flag = np.zeros((m, m), dtype=complex)
    for j, couple in enumerate(couples):
        flag[:] = 0.0
        flag[j, j] = 1.0
        state += couple.weight * kron(flag, pad(couple.state, couple.anc_dim))
        leftover = np.eye(n_big, dtype=complex) - pad(
            np.eye(couple.anc_dim * d), couple.anc_dim
        )
        for k, (lbl, f) in enumerate(zip(couple.povm.labels, couple.povm.effects)):
            padded = pad(f, couple.anc_dim)
            if k == 0:
                # park the padding complement on the first outcome so the
                # per-flag block still sums to the identity
                padded = padded + leftover
            effects.append(kron(flag, padded))
            labels.append(f"{j}:{lbl}")
    return TestCouple(1.0, state, Povm(tuple(effects), tuple(labels)), m * big_anc)


# ---------------------------------------------------------------------------
# probabilities, realization, completion
# ---------------------------------------------------------------------------


def outcome_probabilities(
    pp: ProcessPovm, ch: KrausChannel, tol: float = DEFAULT_TOL
) -> np.ndarray:
    """Outcome distribution Tr[choi(ch) M_alpha], clamped to [0, 1]."""
    if ch.dim_in != pp.d or ch.dim_out != pp.d:
        raise ValueError(f"channel dimension {ch.dim_in} != {pp.d}")
    what = "outcome probabilities require a trace-preserving channel"
    raise_failed(trace_preservation_checks(ch, tol), what)
    omega = choi_of_channel(ch)
    probs = np.array([hs_inner(e.matrix, omega).real for e in pp.effects])
    if probs.min() < -tol or probs.max() > 1.0 + tol:
        raise ValueError("probability outside [0, 1] beyond tolerance")
    total = probs.sum()
    if abs(total - 1.0) > tol:
        raise ValueError(f"probabilities sum to {total}, expected 1")
    return np.clip(probs, 0.0, 1.0)


def purification(rho_t: np.ndarray, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Minimal purification of a qudit state, as a map onto the ancilla.

    Returns A = sum_j sqrt(s_j) |j><v_j| over the eigenpairs of rho_t above
    the rank cutoff, and the support basis v.  The ancilla dimension is
    r = rank(rho_t), and A.reshape(-1) = (A (x) I)|Psi> is a unit vector on
    H_r (x) H_d whose qudit marginal is rho_t^T.
    """
    values, vectors = herm_eig(rho_t, tol)
    keep = values > tol * max(1.0, float(values[-1]))
    v = vectors[:, keep]
    return np.sqrt(values[keep])[:, None] * dagger(v), v


def realize(pp: ProcessPovm, tol: float = DEFAULT_TOL) -> Realization:
    """Implement an abstract process POVM as a concrete experiment.

    Uses the minimal purification of rho^T (``purification``): ancilla
    dimension r = rank(rho^T), and POVM elements obtained from the effects
    by the pseudo-inverse congruence.
    The realized POVM is complete on H_r (x) H_d and rebuilding a process
    POVM from it reproduces the input.
    """
    d = pp.d
    a, v = purification(pp.norm_state.T, tol)
    proj = kron(v @ dagger(v), np.eye(d))
    k = kron(dagger(pinv(a, tol)), np.eye(d))
    effects = []
    for eff in pp.effects:
        m = eff.matrix
        if max_abs(proj @ m @ proj - m) > 10 * tol * max(1.0, max_abs(m)):
            raise SupportViolationError(
                f"effect {eff.label!r} leaks outside the normalization support"
            )
        f = k @ m @ dagger(k)
        effects.append((f + dagger(f)) / 2)
    return Realization(a.reshape(-1), a.shape[0], Povm(tuple(effects), pp.labels))


def extra_effect(pp: ProcessPovm) -> np.ndarray:
    """The inconclusive completion (I - rho^T) (x) I.

    Adding it turns the process POVM into an ordinary POVM on two qudits;
    its rate on every process state is d - 1.
    """
    d = pp.d
    return kron(np.eye(d) - pp.norm_state.T, np.eye(d))


def effects_multiset_equal(
    a: ProcessPovm | list[np.ndarray],
    b: ProcessPovm | list[np.ndarray],
    tol: float = DEFAULT_TOL,
) -> bool:
    """Compare two effect collections as multisets, ignoring labels/order.

    Greedy matching under max-norm distance < tol.
    """
    mats_a = list(a.matrices) if isinstance(a, ProcessPovm) else [np.asarray(m) for m in a]
    mats_b = list(b.matrices) if isinstance(b, ProcessPovm) else [np.asarray(m) for m in b]
    if len(mats_a) != len(mats_b):
        return False
    remaining = list(range(len(mats_b)))
    for m in mats_a:
        hit = None
        for idx in remaining:
            if max_abs(m - mats_b[idx]) < tol:
                hit = idx
                break
        if hit is None:
            return False
        remaining.remove(hit)
    return True
