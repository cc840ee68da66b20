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
    _conjugate_sum,
    _products_proven,
    _proven_povm,
    apply_first,
    apply_second,
    check_density,
    choi_of_channel,
    completeness_check,
    density_checks,
    dual_channel,
    effect_labels,
    effect_stack,
    projector,
    raise_failed,
    require_effects,
    stacked_effect_checks,
    state_to_map,
    trace_preservation_checks,
)
from .linalg import (
    DEFAULT_TOL,
    Check,
    ProductGrid,
    blockwise,
    column_grid,
    dagger,
    frozen,
    herm_eig,
    indexed_kron,
    kron,
    max_abs,
    partial_trace,
    pinv,
    product_grid,
)

_GRID = "_product_grid"  # instance __dict__ key of a process POVM's product grid


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
        object.__setattr__(self, "state", frozen(self.state))

    def qudit_dim(self) -> int:
        return self.state.shape[0] // self.anc_dim


@dataclass(frozen=True)
class ProcessPovm:
    """Process effects summing to norm_state^T (x) I on H_d (x) H_d.

    ``effects`` is one read-only complex (N, d^2, d^2) array, kept by the
    rule of ``frozen``: a stack built here from a sequence, or one already
    frozen (``build_ppovm`` and ``validate_ppovm`` pass one), is kept as it
    is, and any other array is copied once.  ``matrices`` is the same
    array; ``labels`` holds one distinct label per effect ("0", "1", ...
    by default).
    """

    d: int
    effects: np.ndarray
    norm_state: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        effects = frozen(effect_stack(self.effects, self.d * self.d))
        object.__setattr__(self, "effects", effects)
        object.__setattr__(self, "labels", effect_labels(self.labels, len(effects)))
        rho = frozen(self.norm_state)
        object.__setattr__(self, "norm_state", rho)
        if rho.shape != (self.d, self.d):
            raise ValueError("normalization state has wrong dimension")

    @property
    def matrices(self) -> np.ndarray:
        return self.effects

    def __len__(self) -> int:
        return len(self.effects)


# ---------------------------------------------------------------------------
# construction from experiments
# ---------------------------------------------------------------------------


def process_effect(
    state: np.ndarray, effect: np.ndarray, anc_dim: int, d: int, weight: float = 1.0,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """Process effect of one outcome: weight * (R_state^* (x) I)[effect].

    ``state`` is the test state on H_anc (x) H_d, ``effect`` the POVM
    element measured on the channel output, or an (N, n, n) stack of them.
    The result is a positive operator on H_d (x) H_d whose pairing with any
    Choi operator gives the outcome probability of the underlying
    experiment; ``tol`` is the rank cutoff of the state's eigenvalues.
    The lift is ``apply_first``: each Kraus operator B of the lifted map
    acts on the effect's first index (d^5 multiply-adds per effect at
    anc_dim = d, where the dense B (x) I took d^6), and the right
    product is one BLAS product of a block's rows.  A weight of 1 is not
    multiplied in: numpy multiplies by 1 + 0j, which leaves every finite
    entry bit for bit as it is when no part is a negative zero, and the
    lift's sum starts from +0.0 (``_conjugate_sum``), so it has none.
    """
    lifted = dual_channel(state_to_map(state, anc_dim, d, tol))
    out = apply_first(lifted, np.asarray(effect, dtype=complex), d)
    if weight != 1.0:
        out *= weight
    return out


def build_ppovm(couples: list[TestCouple], d: int, tol: float = DEFAULT_TOL) -> ProcessPovm:
    """Assemble the process POVM of an experiment given as weighted couples.

    Couple weights must sum to one and each POVM must be complete on its
    own test space.  Effect labels are the POVM outcome labels, prefixed
    with the couple index when there is more than one couple.
    """
    if not couples:
        raise ValueError("need at least one test couple")
    total_weight = sum(c.weight for c in couples)
    if not abs(total_weight - 1.0) <= tol:
        raise ValueError(f"couple weights sum to {total_weight}, expected 1")
    blocks: list[np.ndarray] = []
    labels: list[str] = []
    norm_state = np.zeros((d, d), dtype=complex)
    for j, couple in enumerate(couples):
        if not couple.weight > 0.0:
            raise ValueError(f"couple {j} has non-positive weight {couple.weight}")
        if couple.qudit_dim() != d:
            raise ValueError(f"couple {j} is not defined on qudit dimension {d}")
        check_density(couple.state, tol)
        if couple.povm.dim != couple.anc_dim * d:
            raise ValueError(f"couple {j}: POVM dimension mismatch")
        blocks.append(process_effect(
            couple.state, couple.povm.effects, couple.anc_dim, d, couple.weight, tol
        ))
        if len(couples) == 1:
            labels += couple.povm.labels
        else:
            labels += [f"{j}:{lbl}" for lbl in couple.povm.labels]
        norm_state += couple.weight * partial_trace(
            couple.state, couple.anc_dim, d, "first"
        )
    effects = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    effects.setflags(write=False)  # so ProcessPovm keeps it without a copy
    checks = [_normalization_check(effects.sum(axis=0), norm_state.T, d, tol)]
    what = "assembled effects do not satisfy the normalization condition"
    raise_failed(checks, what, NotProductNormalizationError)
    return ProcessPovm(d, effects, norm_state, labels)


def _normalization_check(total: np.ndarray, sigma: np.ndarray, d: int, tol: float) -> Check:
    """Residual of sum M = sigma (x) I_d, bounded by tol relative to max|sum M|."""
    res = max_abs(total - kron(sigma, np.eye(d)))
    return ("product_normalization_residual", res, res <= tol * max(1.0, max_abs(total)))


def _sum_checks(stack: np.ndarray, d: int, tol: float) -> tuple[list[Check], np.ndarray]:
    """The sum factors as sigma (x) I_d, and rho = sigma^T is a density
    operator; returns those entries and rho.  Effects near the float limit
    overflow in the sum and its partial trace; the inf and NaN values they
    become fail the entries."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = stack.sum(axis=0)
        sigma = partial_trace(total, d, d, "second") / d
        rho = sigma.T
        return [
            _normalization_check(total, sigma, d, tol),
            *density_checks(rho, tol, "norm_state_"),
        ], rho


def ppovm_checks(
    matrices, d: int, tol: float = DEFAULT_TOL
) -> tuple[list[Check], np.ndarray]:
    """Process-POVM invariants of raw matrices, and the norm state rho.

    Each matrix must be an effect on H_d (x) H_d, and the sum must factor
    as sigma (x) I_d with rho = sigma^T a density operator.
    """
    stack = effect_stack(matrices, d * d, PpovmError)
    checks, rho = _sum_checks(stack, d, tol)
    return [*stacked_effect_checks(stack, tol), *checks], rho


def _not_psd(k: int, entry: str, value: float) -> NotPsdError:
    return NotPsdError(k, f"{entry} = {value:.3e}")


def effect_grid(pp: ProcessPovm) -> ProductGrid | None:
    """The product grid of ``pp``'s effects (``linalg.product_grid``), or
    None: found once per instance and kept in its ``__dict__``, as
    ``functools.cached_property`` does; the effects are read-only, so it
    cannot go stale.  ``validate_ppovm`` keeps the grid it found."""
    memo = vars(pp)
    if _GRID not in memo:
        memo[_GRID] = product_grid(pp.effects, pp.d, pp.d)
    return memo[_GRID]


def validate_ppovm(
    matrices,
    d: int,
    labels: list[str] | None = None,
    tol: float = DEFAULT_TOL,
) -> ProcessPovm:
    """Check that raw matrices form a process POVM and assemble it.

    Raises for the first failing entry of ``ppovm_checks``: NotPsdError
    for an effect, NotProductNormalizationError for the sum, and
    NormStateInvalidError for the norm state.  The effect bounds are
    proven one of two ways, and the sum and norm-state checks run on the
    whole stack either way.  A stack that ``product_grid`` finds to be a
    grid {A_a (x) B_b} has its effects proven from the spectra of its
    N_A + N_B factors (``_products_proven``), and the process POVM keeps
    the grid (``effect_grid``).  Any other stack, or a grid whose proof
    fails, goes through ``require_effects``: one Cholesky factorization of
    M + (tol/2) I proves lambda_min(M) > -tol, hence lambda_max(M) <
    tr M + (n - 1) tol, which proves M <= 1 + tol when
    tr M + (n - 1) tol <= 1 + tol/2.  The N effects sum to rho^T (x) I,
    of trace d, so with N well above d that test holds for most of them;
    only the effects that fail it are factored again, and spectra are
    computed only when this proof fails, so the error raised is the
    spectra's first failing entry.  A stack built here from a sequence is
    the process POVM's own, without a second copy.
    """
    stack = effect_stack(matrices, d * d, PpovmError)
    labels = effect_labels(labels, len(stack))
    grid = product_grid(stack, d, d)
    if grid is None or not _products_proven(grid, tol):
        require_effects(stack, tol, _not_psd)
    checks, rho = _sum_checks(stack, d, tol)
    for name, value, passed in checks:
        if not passed:
            message = f"{name} = {value:.3e}"
            if name.startswith("norm_state_"):
                raise NormStateInvalidError(message)
            raise NotProductNormalizationError(message)
    pp = ProcessPovm(d, stack, rho, labels)
    vars(pp)[_GRID] = grid
    return pp


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
    if not all(c.weight > 0.0 for c in couples):
        raise ValueError("zero-weight couples cannot be merged")
    n_big = max(c.anc_dim for c in couples) * d
    n = len(couples) * n_big
    state = np.zeros((n, n), dtype=complex)
    blocks: list[np.ndarray] = []
    labels: list[str] = []
    for j, couple in enumerate(couples):
        # flag block j holds the couple, zero-padded to the largest ancilla
        start = j * n_big
        used = slice(start, start + couple.anc_dim * d)
        state[used, used] = couple.weight * couple.state
        effects = np.zeros((len(couple.povm), n, n), dtype=complex)
        effects[:, used, used] = couple.povm.effects
        # park the padding complement on the first outcome so the
        # per-flag block still sums to the identity
        padding = np.arange(used.stop, start + n_big)
        effects[0, padding, padding] = 1.0
        blocks.append(effects)
        labels += [f"{j}:{lbl}" for lbl in couple.povm.labels]
    return TestCouple(1.0, state, Povm(np.concatenate(blocks), labels), n // d)


# ---------------------------------------------------------------------------
# probabilities, realization, completion
# ---------------------------------------------------------------------------


def outcome_probabilities(
    pp: ProcessPovm, ch: KrausChannel, tol: float = DEFAULT_TOL
) -> np.ndarray:
    """Outcome distribution Tr[choi(ch) M_alpha], clamped to [0, 1].

    Probabilities outside [-tol, 1 + tol], or summing to more than tol
    away from 1, raise ValueError; a non-finite one fails both bounds and
    raises one that says so."""
    ch.check_dims(pp.d)
    what = "outcome probabilities require a trace-preserving channel"
    raise_failed(trace_preservation_checks(ch, tol), what)
    omega = choi_of_channel(ch)
    probs = effect_pairings(pp.effects, omega)
    if not (probs.min() >= -tol and probs.max() <= 1.0 + tol):  # NaN fails
        if not np.isfinite(probs).all():
            raise ValueError("outcome probabilities are not finite")
        raise ValueError("probability outside [0, 1] beyond tolerance")
    total = probs.sum()
    if not abs(total - 1.0) <= tol:
        raise ValueError(f"probabilities sum to {total}, expected 1")
    return np.clip(probs, 0.0, 1.0)


def couple_probabilities(couple: TestCouple, ch: KrausChannel) -> np.ndarray:
    """Born-rule outcome distribution of running one couple's experiment on
    ``ch``, not scaled by the couple's weight."""
    ch.check_dims(couple.qudit_dim())
    output = apply_second(ch, couple.state, couple.anc_dim)
    return effect_pairings(couple.povm.effects, output)


def effect_pairings(effects: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Re Tr[E_k^dag x] for every matrix E_k of an (N, n, n) stack, in one
    einsum: the outcome probabilities of a measurement on x."""
    return np.einsum("kij,ij->k", effects, np.conj(x)).real


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


def realize(pp: ProcessPovm, tol: float = DEFAULT_TOL) -> TestCouple:
    """Implement an abstract process POVM as a concrete experiment: the
    one couple, of weight 1, that ``build_ppovm`` takes back to ``pp``.

    Uses the minimal purification of rho^T (``purification``): the test
    state is the projector onto the unit vector A.reshape(-1) on
    H_r (x) H_d, with ancilla dimension r = rank(rho^T), and the POVM
    elements are obtained from the effects by the pseudo-inverse
    congruence K M K^dag, K = B (x) I_d with B = pinv(A)^dag.  The realized
    POVM is complete on H_r (x) H_d.  The effects are first checked for
    support leaks: with rho rank-deficient, (P (x) I) M (P (x) I) must be
    M for the projector P onto its support.

    One route serves every process POVM.  Its effects are taken as a grid
    {F_a (x) G_b}: their product grid (``effect_grid``), or, when they are
    no product, the N x 1 grid of the effects and [1] (``column_grid``).
    K (F (x) G) K^dag = (B F B^dag) (x) G, so the support check and the
    congruence apply P or B to the first H_d factor of each F alone
    (``apply_first``'s ``_conjugate_sum``).  Effect j leaks when
    max|P F P - F| max|G| > 10 tol max(1, max|F| max|G|) for its F and G,
    which on the N x 1 grid is the test on M_j itself, and the first
    leaking effect in stack order is named.  Each B F B^dag is replaced in
    place by its exact Hermitian part o/2 + (o/2)^dag: entry (j, i) is the
    conjugate of entry (i, j), as floating-point addition commutes.  The
    N x 1 grid's realized factors are the realized effects; a product
    grid's are written with the G once (``indexed_kron``), exactly
    Hermitian too, as numpy forms conj(x) conj(y) as the conjugate of x y.
    The realized POVM is proven without running its checks
    (``_proven_povm``); when the proof fails, ``Povm`` runs every check
    and raises its first failing one.  The congruence scales the rounding
    of the effects by up to 1/s, s the smallest kept eigenvalue of rho;
    when that leaves the realized effects incomplete to ``tol``,
    PpovmError names s and the completeness residual, or the first effect
    of ``pp`` that is not finite.
    """
    d = pp.d
    a, v = purification(pp.norm_state.T, tol)
    b = dagger(pinv(a, tol))
    grid = effect_grid(pp) or column_grid(pp.effects)
    right = grid.a.shape[-1] // d  # the side of the identity beside H_d in a factor F
    if len(b) < d:  # else the support is all of H_d: nothing can leak
        _require_support(grid, v @ dagger(v), right, pp.labels, tol)
    realized = _conjugate_sum(b[None], grid.a, right)
    blockwise(_hermitian_in_place, realized, realized.shape[-1] ** 2)
    f = realized
    if grid.b.shape[-1] > 1:  # a product grid; the N x 1 grid's realized factors are its effects
        side = realized.shape[-1] * grid.b.shape[-1]
        f = indexed_kron(realized, grid.b, grid.ia, grid.ib,
                         np.empty((len(grid.ia), side, side), dtype=complex))
    f.setflags(write=False)  # so Povm keeps it without a copy
    povm = _proven_povm(f, pp.labels, tol, ProductGrid(realized, grid.b, grid.ia, grid.ib))
    if povm is None:
        try:
            povm = Povm(f, pp.labels, tol)
        except ValueError:
            _, res, complete = completeness_check(f, tol)
            if complete:
                raise
            # B's rounding, scaled by up to 1/s, or a non-finite effect broke completeness
            low = float((np.abs(a) ** 2).sum(axis=1).min())  # |row j of A|^2 = s_j
            raise PpovmError(non_finite_effect(pp) or (
                f"norm state too ill-conditioned to realize: its smallest kept "
                f"eigenvalue {low:.3e} gives a realized completeness_residual = "
                f"{res:.3e} above tol = {tol:.3e}"
            )) from None
    return TestCouple(1.0, projector(a.reshape(-1)), povm, a.shape[0])


def _hermitian_in_place(_, o: np.ndarray) -> None:
    """o/2 + (o/2)^dag written over a block of matrices, as
    ``hermitian_parts`` forms it."""
    o /= 2
    o += dagger(o)


def _require_support(grid: ProductGrid, p: np.ndarray, right: int, labels: tuple, tol: float):
    """``realize``'s support check: SupportViolationError names the first
    effect, in stack order, that leaks outside the support of the
    projector ``p``.  The leak max|P F P - F| of each factor F is formed a
    block of factors at a time (``blockwise``)."""

    def block(part, out):
        x = _conjugate_sum(p[None], grid.a[part], right)
        x -= grid.a[part]
        np.abs(x).max(axis=(1, 2), out=out)

    leak = blockwise(block, np.empty(len(grid.a)), grid.a.shape[-1] ** 2)
    scale_b = grid.scale_b[grid.ib]
    bound = 10 * tol * np.maximum(1.0, grid.scale_a[grid.ia] * scale_b)
    outside = np.flatnonzero(leak[grid.ia] * scale_b > bound)
    if outside.size:
        label = labels[outside[0]]
        raise SupportViolationError(f"effect {label!r} leaks outside the normalization support")


def non_finite_effect(pp: ProcessPovm) -> str | None:
    """"effect <label> is not finite" for the first effect of ``pp`` with
    an inf or NaN entry, or None when every entry is finite.  A process
    POVM built without ``validate_ppovm`` may hold one; the callers run
    this only once a result of ``pp`` is found not finite."""
    finite = np.isfinite(pp.effects).all(axis=(1, 2))
    return None if finite.all() else f"effect {pp.labels[finite.argmin()]!r} is not finite"


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

    Both stacks are sorted by one fixed, generic real linear functional of
    their entries and compared effect by effect in max norm (< tol).  True
    proves that a one-to-one pairing within tol exists; False may be a miss
    when effects far apart take nearly equal values of the functional.
    Different shapes or counts are unequal.
    """
    a, b = (np.asarray(x.matrices if isinstance(x, ProcessPovm) else x) for x in (a, b))
    if a.shape != b.shape:
        return False
    re, im = np.random.default_rng(0).standard_normal((2, *a.shape[1:]))
    functional = re + 1j * im
    a, b = (x[np.argsort(np.tensordot(x, functional, x.ndim - 1).real)] for x in (a, b))
    return max_abs(a - b) < tol
