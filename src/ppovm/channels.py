"""States, effects, POVMs, and completely positive maps.

A channel acting on a bipartite system always sits on the SECOND tensor
factor here; the first factor is the ancilla.  The Choi operator of a
channel E is accordingly (I (x) E)[Psi] with Psi the unnormalized
maximally entangled projector, so it has unit second marginal when E is
trace preserving.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Callable

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    GRID_FLOOR,
    Check,
    ProductGrid,
    block_slices,
    blockwise,
    dagger,
    first_factor,
    frozen,
    hermitian_parts,
    hermiticity_check,
    hermiticity_residuals,
    herm_eig,
    is_psd,
    kron,
    max_abs,
    partial_trace,
    spectra,
    square_matrix,
)

# Eigenvalues below this fraction of the largest are dropped when
# extracting Kraus operators from a PSD matrix.
KRAUS_CUTOFF = 1e-12


def ket(index: int, dim: int) -> np.ndarray:
    """Computational basis vector |index> of the given dimension."""
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def projector(v: np.ndarray) -> np.ndarray:
    """Rank-one projector |v><v| (input need not be normalized)."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    return np.outer(v, v.conj())


def max_entangled_ket(d: int, normalized: bool = False) -> np.ndarray:
    """The maximally entangled vector sum_j |j>|j> on H_d (x) H_d.

    Unnormalized by default (squared norm d); pass ``normalized=True`` for
    the unit vector.
    """
    v = np.eye(d, dtype=complex).reshape(-1)
    return v / np.sqrt(d) if normalized else v


PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


# ---------------------------------------------------------------------------
# validators for operator-valued objects (plain ndarrays)
#
# Each invariant has one routine returning (name, value, passed) entries.
# The raising validators below and the CLI's `validate` report read them.
# Effects are the exception on the raising side: `require_effects` proves
# the bounds 0 <= M <= 1 by one Cholesky factorization per effect plus the
# trace, block by block, factoring again only the effects whose trace is
# too large for that, and only falls back to the spectra of
# `stacked_effect_checks` when the proof fails, so a raised error still
# names that routine's first failing entry.  Reports always print the
# spectra, block by block; Hermitian parts, spectra and PSD tests are `linalg`'s.
# ---------------------------------------------------------------------------


def all_pass(checks: list[Check]) -> bool:
    return all(passed for _, _, passed in checks)


def raise_failed(checks: list[Check], what: str, error: type = ValueError) -> None:
    """Raise ``error`` naming the first failing entry, if there is one."""
    for name, value, passed in checks:
        if not passed:
            raise error(f"{what}: {name} = {value:.3e}")


def effect_stack(effects, side: int | None = None, error: type = ValueError) -> np.ndarray:
    """The effects as one complex (N, n, n) array, N >= 1, without a copy
    when they already are one; with ``side`` given, n must equal it.  An
    array built here from a sequence, or converted from another dtype, has
    no other holder, so it is returned read-only and ``frozen`` keeps it
    without a second copy."""
    try:
        stack = np.asarray(effects, dtype=complex)
    except ValueError:  # effects of different shapes
        stack = np.empty((0, 0))
    if stack.ndim == 3 and len(stack) and stack.shape[1] == stack.shape[2]:
        if side is None or stack.shape[1] == side:
            if stack is not effects and stack.flags.owndata and isinstance(
                effects, (list, tuple, np.ndarray)
            ):
                stack.setflags(write=False)
            return stack
    if not len(effects):
        raise error("need one or more effects")
    if side is None:
        raise error("POVM needs one or more effects of one shape")
    k = next((k for k, m in enumerate(effects) if np.shape(m) != (side, side)), 0)
    raise error(f"effect {k} is not {side}x{side}")


def effect_labels(labels, count: int, error: type = ValueError) -> tuple:
    """One distinct label per effect; None means "0", "1", ...  A repeat
    is named as the first label equal to an earlier one, found in one
    pass over the labels."""
    labels = tuple(str(k) for k in range(count)) if labels is None else tuple(labels)
    if len(labels) != count:
        raise error("label count does not match effect count")
    if len(set(labels)) != count:
        seen = set()
        for lbl in labels:
            if lbl in seen:
                raise error(f"repeated effect label {lbl!r}")
            seen.add(lbl)
    return labels


def stacked_effect_checks(
    stack: np.ndarray, tol: float = DEFAULT_TOL, names: list[str] | None = None
) -> list[Check]:
    """Effect checks of every matrix of an (N, n, n) stack, effect by effect:
    hermiticity residual relative to the effect's own max|m|, then min and
    max eigenvalue, from one ``spectra`` call per block.  Names default to effect_k."""
    if names is None:
        names = [f"effect_{k}" for k in range(len(stack))]
    rows: list[tuple] = []
    for part in block_slices(len(stack), stack.shape[-1] ** 2):
        res, hermitian = hermiticity_residuals(stack[part], tol)
        values = spectra(hermitian_parts(stack[part]))
        low, high = values[:, 0], values[:, -1]
        rows += zip(
            names[part], res.tolist(), hermitian.tolist(), low.tolist(),
            (low >= -tol).tolist(), high.tolist(), (high <= 1.0 + tol).tolist(),
        )
    return [
        entry
        for name, r, r_ok, lo, lo_ok, hi, hi_ok in rows
        for entry in (
            (f"{name}_hermiticity_residual", r, r_ok),
            (f"{name}_min_eigenvalue", lo, lo_ok),
            (f"{name}_max_eigenvalue", hi, hi_ok),
        )
    ]


# Cholesky's backward error (Higham, Accuracy and Stability of Numerical
# Algorithms, 2nd ed., Thm 10.3): when the factorization of an n x n
# Hermitian A runs to completion, which is all the bound needs, the
# computed R has R^H R = A + dA with |dA| <= gamma_{n+1} |R^H| |R|,
# gamma_{n+1} ~ (n + 1) eps / 2.  R^H R is positive definite, so
# lambda_min(A) >= -||dA||_2, and ||dA||_2 <= gamma_{n+1} ||R||_F^2 ~
# gamma_{n+1} tr(A), at most ~n^2 eps max_i A_ii.  The floor below is that
# bound times n, times CHOLESKY_FLOOR = 8, on the scale max(1, max_i |M_ii|):
# the spare factor 8 n covers the shifted diagonals reaching 1 + tol/2 +
# |M_ii|, the larger constants of complex arithmetic, the rounding of the
# shifts and of the diagonal sums of the trace bound (~n^2 eps), and
# eigvalsh's own error (~n eps on a proven spectrum), so that a proven
# stack passes the eigenvalue check too.  At tol = 1e-9 the proof
# runs up to n = 65, the d^2 x d^2 effects of d <= 8; larger effects fall
# back to the spectra.  LAPACK reads one triangle of each matrix and the
# real part of its diagonal, so the Hermitian matrix it factors differs
# from h = (M + M^dag)/2 by at most r/2 in each off-diagonal entry, r the
# largest hermiticity residual of the block, hence by at most n r / 2 in
# spectral norm; the proof requires tol/2 > floor + n r.
CHOLESKY_FLOOR = 8.0


def _effects_proven(stack: np.ndarray, tol: float, hermitian: bool = False) -> bool:
    """Whether every matrix of an (N, n, n) stack passes its effect checks:
    hermiticity as in ``stacked_effect_checks``, and the spectrum of its
    Hermitian part h inside [-tol, 1 + tol].  False means "not proven",
    not "failed".

    ``hermitian`` says that the stack was formed as o/2 + (o/2)^dag, as
    ``realize`` forms its effects: entry (j, i) is then computed as the
    conjugate of entry (i, j), since floating-point addition commutes, so
    every residual |m_ij - conj(m_ji)| of a finite entry is exactly 0 and
    is taken as 0 instead of gathered.  A non-finite entry is not proven
    that way: the caller must also check completeness, whose sum it
    makes non-finite.

    Factoring h + (tol/2) I proves lambda_min(h) > -tol, so the other
    n - 1 eigenvalues sum to more than -(n - 1) tol and
    lambda_max(h) < tr h + (n - 1) tol.  An effect with
    tr h + (n - 1) tol <= 1 + tol/2 is therefore proven at most 1; the
    margin tol/2 exceeds the round-off floor, which covers the rounding of
    the diagonal sum and eigvalsh's own error.  Only the other effects
    are factored again, as (1 + tol/2) I - h.

    The stack goes a block at a time (``block_slices``).  Each block is
    copied once, its diagonal shifted, and its transposed view factored:
    numpy copies every matrix into a Fortran-order buffer for LAPACK, and
    the transposed view makes that copy contiguous.  LAPACK then reads the
    upper triangle of each copy; the matrix it factors is the conjugate of
    that triangle's Hermitian matrix, with the same spectrum, within n r / 2
    of h (see ``CHOLESKY_FLOOR``).
    """
    n = stack.shape[-1]
    diag = np.arange(n)
    values = stack[:, diag, diag].real  # the diagonal of h, exactly
    scale = max(1.0, float(np.abs(values).max()))
    floor = CHOLESKY_FLOOR * n**3 * np.finfo(float).eps * scale
    if not tol / 2 > floor:
        return False  # tol/2 is inside the round-off floor
    # tr h + (n - 1) tol > 1 + tol/2: the trace does not bound lambda_max
    unbounded = values.sum(axis=1) > 1.0 - (n - 1.5) * tol
    for part in block_slices(len(stack), n * n):
        if not hermitian:
            residuals, passed = hermiticity_residuals(stack[part], tol)
            if not (passed.all() and tol / 2 > floor + n * residuals.max()):
                return False
        h, diagonal, over = stack[part].copy(), values[part], unbounded[part]
        try:
            h[:, diag, diag] = diagonal + tol / 2
            np.linalg.cholesky(h.swapaxes(1, 2))
            if over.any():
                if not over.all():  # else one buffer holds both shifted blocks
                    h, diagonal = h[over], diagonal[over]
                h *= -1
                h[:, diag, diag] = (1.0 + tol / 2) - diagonal
                np.linalg.cholesky(h.swapaxes(1, 2))
        except np.linalg.LinAlgError:
            return False
    return True


def _products_proven(grid: ProductGrid, tol: float) -> bool:
    """Whether every effect of a stack that ``product_grid`` found to be
    ``grid`` passes its effect checks, from the spectra of the N_A + N_B
    factors alone.  False means "not proven", not "failed".

    The spectrum of a (x) b is the products of the factors' eigenvalues,
    and every pair of factors is an effect, so the effects' eigenvalues
    are the products of an eigenvalue of some a and one of some b; their
    extremes are among the four products of the extremes over all a and
    over all b.  The factors of a grid are finite.  As in
    ``_effects_proven``, tol/2 must exceed a round-off floor, and the
    products' range must lie inside [-tol/2, 1 + tol/2].

    The floor is (CHOLESKY_FLOOR + 4 GRID_FLOOR) n^2 eps on the scale
    max(1, s), s = max|a| max|b| the largest entry of any product of the
    factors.  Effect M differs from its product by E, whose entries are
    at most sqrt(2) GRID_FLOOR n eps s in modulus, so ||E||_2 is at most
    sqrt(2) GRID_FLOOR n^2 eps s: no eigenvalue moves further (Weyl);
    twice that bounds the hermiticity residual of M, as the product is
    exactly Hermitian.  CHOLESKY_FLOOR n^2 eps s covers eigvalsh's error
    on the factors (about p eps ||a||_2 ||b||_2) and the dense check's
    own rounding (about n eps ||M||_2)."""
    a, b = grid.a, grid.b
    n = a.shape[-1] * b.shape[-1]
    scale = max(1.0, float(grid.scale_a.max()) * float(grid.scale_b.max()))
    if not tol / 2 > (CHOLESKY_FLOOR + 4.0 * GRID_FLOOR) * n**2 * np.finfo(float).eps * scale:
        return False
    if a.shape[1:] == b.shape[1:]:  # one call for both stacks
        values = np.linalg.eigvalsh(np.concatenate([a, b]))
        spectra_a, spectra_b = values[: len(a)], values[len(a) :]
    else:
        spectra_a, spectra_b = np.linalg.eigvalsh(a), np.linalg.eigvalsh(b)
    (lo_a, hi_a), (lo_b, hi_b) = (
        (float(w.min()), float(w.max())) for w in (spectra_a, spectra_b)
    )
    products = (lo_a * lo_b, lo_a * hi_b, hi_a * lo_b, hi_a * hi_b)
    return min(products) >= -tol / 2 and max(products) <= 1.0 + tol / 2


def require_effects(
    stack: np.ndarray, tol: float, error: Callable[[int, str, float], Exception]
) -> None:
    """Raise ``error(k, entry, value)`` for the first failing entry of
    ``stacked_effect_checks(stack, tol)``, where k is the effect index and
    entry one of hermiticity_residual, min_eigenvalue, max_eigenvalue.

    The spectra are computed only when ``_effects_proven`` cannot prove
    that every entry passes.  Every caller's stack gets its hermiticity
    residuals gathered here; ``realize`` skips this routine for the
    stack it forms as o/2 + (o/2)^dag, whose residuals are exactly 0
    (``_proven_povm``).
    """
    if _effects_proven(stack, tol):
        return
    for i, (name, value, passed) in enumerate(stacked_effect_checks(stack, tol)):
        if not passed:
            raise error(i // 3, name.split("_", 2)[2], value)


def effect_checks(m: np.ndarray, tol: float = DEFAULT_TOL, name: str = "effect") -> list[Check]:
    """Effect: Hermitian with spectrum inside [0, 1]."""
    return stacked_effect_checks(square_matrix(m, name)[None], tol, [name])


def density_checks(m: np.ndarray, tol: float = DEFAULT_TOL, prefix: str = "") -> list[Check]:
    """Density operator: PSD with unit trace (hermiticity is separate)."""
    values = spectra(hermitian_parts(m))
    trace_dev = abs(float(np.trace(m).real) - 1.0)
    return [
        (f"{prefix}min_eigenvalue", float(values[0]), is_psd(values, tol)),
        (f"{prefix}trace_deviation", trace_dev, trace_dev <= tol),
    ]


def state_checks(m: np.ndarray, tol: float = DEFAULT_TOL) -> list[Check]:
    """Density operator: Hermitian, PSD, unit trace."""
    m = square_matrix(m, "density operator")
    return [hermiticity_check("state", m, tol), *density_checks(m, tol)]


def completeness_check(stack: np.ndarray, tol: float = DEFAULT_TOL) -> Check:
    """Completeness: the effects of an (N, n, n) stack sum to the identity."""
    res = max_abs(stack.sum(axis=0) - np.eye(stack.shape[1]))
    return ("completeness_residual", res, res <= tol)


def povm_checks(effects, tol: float = DEFAULT_TOL) -> list[Check]:
    """Every effect, then completeness."""
    stack = effect_stack(effects)
    return [*stacked_effect_checks(stack, tol), completeness_check(stack, tol)]


def trace_preservation_checks(ch: KrausChannel, tol: float = DEFAULT_TOL) -> list[Check]:
    """Trace preservation: sum A^dag A = I."""
    total = (dagger(ch.kraus) @ ch.kraus).sum(axis=0)
    res = max_abs(total - np.eye(ch.dim_in))
    return [("trace_preservation_residual", res, res <= tol)]


def unitarity_checks(u: np.ndarray, tol: float = DEFAULT_TOL) -> list[Check]:
    """Unitarity: U^dag U = I."""
    u = square_matrix(u, "unitary")
    res = max_abs(dagger(u) @ u - np.eye(u.shape[0]))
    return [("unitarity_residual", res, res <= tol)]


def check_density(m: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Validate a density operator: Hermitian, PSD, unit trace."""
    raise_failed(state_checks(m, tol), "not a density operator")
    return np.asarray(m, dtype=complex)


def check_effect(m: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Validate an effect: Hermitian with spectrum inside [0, 1]."""
    m = square_matrix(m, "effect")
    require_effects(m[None], tol, _not_an_effect)
    return m


def _not_an_effect(_: int, entry: str, value: float) -> ValueError:
    return ValueError(f"not an effect: effect_{entry} = {value:.3e}")


def check_unitary(u: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Validate a unitary: square with U^dag U = I."""
    raise_failed(unitarity_checks(u, tol), "matrix is not unitary within tolerance")
    return np.asarray(u, dtype=complex)


def check_process_state(omega: np.ndarray, d: int, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Validate a process state on H_d (x) H_d.

    Must be Hermitian PSD with trace d and second marginal equal to the
    identity; this characterizes Choi operators of trace-preserving
    channels.
    """
    omega = np.asarray(omega, dtype=complex)
    if omega.shape != (d * d, d * d):
        raise ValueError(f"process state must be {d * d}x{d * d}, got {omega.shape}")
    values, _ = herm_eig(omega, tol)
    if not is_psd(values, tol):
        raise ValueError(f"process state not PSD: min eigenvalue {values[0]:.3e}")
    tr = float(np.trace(omega).real)
    if abs(tr - d) > tol * max(1.0, d):
        raise ValueError(f"process state trace {tr} != {d}")
    marginal = partial_trace(omega, d, d, "second")
    if max_abs(marginal - np.eye(d)) > tol * max(1.0, max_abs(omega)):
        raise ValueError("process state second marginal differs from identity")
    return omega


# ---------------------------------------------------------------------------
# POVMs and Kraus channels
# ---------------------------------------------------------------------------


def _invalid_povm_effect(k: int, entry: str, value: float) -> ValueError:
    return ValueError(f"invalid POVM: effect_{k}_{entry} = {value:.3e}")


@dataclass(frozen=True)
class Povm:
    """A measurement: effects summing to the identity, one distinct label each.

    ``effects`` is one read-only complex (N, n, n) array, kept by the
    rule of ``frozen``: a stack built here from a sequence, or one already
    frozen (``realize`` returns one), is kept as it is, and any other
    array is copied once.  Its checks use ``tol``.
    """

    effects: np.ndarray
    labels: tuple[str, ...]
    tol: InitVar[float] = DEFAULT_TOL

    def __post_init__(self, tol):
        effects = effect_stack(self.effects)
        object.__setattr__(self, "labels", effect_labels(self.labels, len(effects)))
        # checked before any copy is made, so the checks' temporaries
        # never sit beside two copies of the effects
        require_effects(effects, tol, _invalid_povm_effect)
        raise_failed([completeness_check(effects, tol)], "invalid POVM")
        object.__setattr__(self, "effects", frozen(effects))

    @property
    def dim(self) -> int:
        return self.effects.shape[1]

    def __len__(self) -> int:
        return len(self.effects)


def _proven_povm(
    effects: np.ndarray, labels: tuple[str, ...], tol: float, grid: ProductGrid
) -> Povm | None:
    """The ``Povm`` of a frozen stack and of its distinct labels, built
    without running ``Povm``'s checks again once ``completeness_check``
    and an effect proof show that they pass.  ``effects`` are the
    products of ``grid``'s factors.  The N x 1 grid of a stack formed as
    o/2 + (o/2)^dag (``linalg.column_grid``, b of side 1) is proven by
    ``_effects_proven`` with every hermiticity residual exactly 0; any
    other grid, whose factors are exactly Hermitian, from its factors'
    spectra (``_products_proven``).  None when a proof fails, so that the
    caller's ``Povm(effects, labels, tol)`` raises the error of the first
    failing check.  A non-finite entry fails completeness."""
    if grid.b.shape[-1] == 1:
        proven = _effects_proven(effects, tol, hermitian=True)
    else:
        proven = _products_proven(grid, tol)
    if not (proven and completeness_check(effects, tol)[2]):
        return None
    povm = object.__new__(Povm)
    object.__setattr__(povm, "effects", frozen(effects))
    object.__setattr__(povm, "labels", labels)
    return povm


@dataclass(frozen=True)
class KrausChannel:
    """A completely positive map X -> sum_k A_k X A_k^dag.

    ``kraus`` is one read-only complex (K, dim_out, dim_in) array, kept
    by the rule of ``frozen``: copied once here unless it already is one.
    Not necessarily trace preserving; ``is_trace_preserving``
    reports whether sum A^dag A = I holds to DEFAULT_TOL.
    """

    dim_in: int
    dim_out: int
    kraus: np.ndarray = field(default=())

    def __post_init__(self):
        shape = (self.dim_out, self.dim_in)
        try:
            ops = frozen(self.kraus)
        except ValueError:  # operators of different shapes
            raise ValueError(f"Kraus operators are not all {shape}") from None
        object.__setattr__(self, "kraus", ops)
        if ops.shape[:1] == (0,):
            raise ValueError("channel needs at least one Kraus operator")
        if ops.shape[1:] != shape:
            raise ValueError(f"Kraus operator shape {ops.shape[1:]} != {shape}")

    @property
    def is_trace_preserving(self) -> bool:
        return all_pass(trace_preservation_checks(self))

    def check_dims(self, d: int) -> None:
        """Raise ValueError unless the channel maps d x d operators to d x d."""
        if (self.dim_in, self.dim_out) != (d, d):
            maps = f"channel maps dimension {self.dim_in} to {self.dim_out}"
            raise ValueError(f"{maps}, expected {d} to {d}")


def apply_channel(ch: KrausChannel, x: np.ndarray) -> np.ndarray:
    """Apply the channel: sum_k A_k x A_k^dag."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (ch.dim_in, ch.dim_in):
        raise ValueError(f"operator shape {x.shape} != ({ch.dim_in}, {ch.dim_in})")
    return _conjugate_sum(ch.kraus, x)


def dual_channel(ch: KrausChannel) -> KrausChannel:
    """The adjoint map, with Kraus operators {A_k^dag}.

    Satisfies Tr(B^dag ch[A]) = Tr(dual(ch)[B]^dag A) for all A, B.
    """
    return KrausChannel(ch.dim_out, ch.dim_in, dagger(ch.kraus))


def apply_first(ch: KrausChannel, x: np.ndarray, right_dim: int) -> np.ndarray:
    """Apply the channel to the first factor of an operator on
    H_{dim_in} (x) H_{right_dim}, identity on the second: the sum of
    (A_k (x) I) x (A_k (x) I)^dag.  ``x`` may be an (N, n, n) stack; a
    matrix is taken as a stack of one.  The left product applies A_k to
    x's first index (``first_factor``): d^5 multiply-adds per Kraus
    operator and matrix at dim_in = dim_out = right_dim = d, where the
    d^2 x d^2 product took d^6.  The right product is one BLAS product
    of a block's rows (``_conjugate_sum``)."""
    x = _operand(x, ch.dim_in * right_dim)
    if x.ndim == 2:
        return _conjugate_sum(ch.kraus, x[None], right_dim)[0]
    return _conjugate_sum(ch.kraus, x, right_dim)


def apply_second(ch: KrausChannel, x: np.ndarray, left_dim: int) -> np.ndarray:
    """Apply the channel to the second factor of an operator on
    H_{left_dim} (x) H_{dim_in}, identity on the first; ``x`` may be a
    stack of operators."""
    x = _operand(x, left_dim * ch.dim_in)
    return _conjugate_sum(kron(np.eye(left_dim), ch.kraus), x)


def _operand(x: np.ndarray, n: int) -> np.ndarray:
    """``x`` as a complex n x n matrix or (N, n, n) stack; ValueError
    naming the expected and the actual shape otherwise."""
    x = np.asarray(x, dtype=complex)
    if x.ndim not in (2, 3) or x.shape[-2:] != (n, n):
        want = (len(x), n, n) if x.ndim == 3 else (n, n)
        raise ValueError(f"operator shape {x.shape} != {want}")
    return x


def _conjugate_sum(ops: np.ndarray, x: np.ndarray, right_dim: int = 1) -> np.ndarray:
    """sum_k (K_k (x) I) x (K_k (x) I)^dag over the last two axes of x, I
    the identity on H_{right_dim} (none by default).  An (N, n, n) stack
    is written a block at a time (``blockwise``) into one preallocated
    result: per K_k and block, t = (K_k (x) I) x is K_k applied to the
    first index of the block (``first_factor``), and t (K_k (x) I)^dag
    one BLAS product of t's rows, written straight into the result for
    the first K_k.  A matrix (right_dim 1 only) takes the plain products,
    which cost it no reshaping and no ``out`` argument."""
    x = np.asarray(x, dtype=complex)
    if x.ndim != 3:
        out = ops[0] @ x @ dagger(ops[0])
        out += 0.0  # the signed zeros of a sum started from zeros
        for k in ops[1:]:
            out += k @ x @ dagger(k)
        return out
    n, side = x.shape[2], ops.shape[1] * right_dim
    # kron(ops, I_1) would make the signed zeros of ops positive
    adj = dagger(ops if right_dim == 1 else kron(ops, np.eye(right_dim)))

    def block(part, out):
        xs, flat = x[part], out.reshape(len(out) * side, side)

        def left(k):
            return first_factor(k, xs, right_dim).reshape(len(xs) * side, n)

        np.matmul(left(ops[0]), adj[0], out=flat)
        out += 0.0  # as for a matrix
        for k, k_adj in zip(ops[1:], adj[1:]):
            flat += left(k) @ k_adj

    out = np.empty((len(x), side, side), dtype=complex)
    return blockwise(block, out, max(x.shape[1] * n, side * side))


# ---------------------------------------------------------------------------
# Choi correspondence
# ---------------------------------------------------------------------------


def _scaled_eigenvectors(m: np.ndarray, what: str, tol: float) -> np.ndarray:
    """Columns sqrt(s) v of the eigenpairs of a PSD matrix above KRAUS_CUTOFF."""
    values, vectors = herm_eig(m, tol)
    top = float(values[-1]) if values.size else 0.0
    if top <= 0.0:
        raise ValueError(f"{what} has no positive spectrum")
    if not is_psd(values, tol):
        raise ValueError(f"{what} not PSD: min eigenvalue {values[0]:.3e}")
    keep = values > KRAUS_CUTOFF * top
    return np.sqrt(values[keep]) * vectors[:, keep]


def choi_of_channel(ch: KrausChannel) -> np.ndarray:
    """Choi operator (I (x) ch)[Psi], channel on the second factor.

    Requires dim_in = dim_out.  The result is a valid process state
    exactly when the channel is trace preserving; validation is left to
    the caller so that CP-only maps can still be converted.
    """
    if ch.dim_in != ch.dim_out:
        raise ValueError("Choi operator requires a square channel")
    d = ch.dim_in
    omega = np.zeros((d * d, d * d), dtype=complex)
    # row k is vec(A_k^T): v[i*d + m] = A_k[m, i]
    for v in ch.kraus.swapaxes(1, 2).reshape(-1, d * d):
        omega += np.outer(v, v.conj())
    return omega


def channel_of_choi(omega: np.ndarray, d: int, tol: float = DEFAULT_TOL) -> KrausChannel:
    """Extract a Kraus decomposition from a Choi operator on H_d (x) H_d.

    Eigenvectors with eigenvalue above the extraction cutoff become Kraus
    operators K[m, i] = sqrt(s) v[i*d + m].
    """
    omega = np.asarray(omega, dtype=complex)
    if omega.shape != (d * d, d * d):
        raise ValueError(f"Choi operator must be {d * d}x{d * d}, got {omega.shape}")
    cols = _scaled_eigenvectors(omega, "Choi operator", tol)
    return KrausChannel(d, d, cols.T.reshape(-1, d, d).swapaxes(1, 2))


def state_to_map(state: np.ndarray, anc_dim: int, d: int, tol: float = DEFAULT_TOL) -> KrausChannel:
    """The CP map R with (R (x) I)[Psi] = state, for a state on
    H_anc (x) H_d.

    Each eigenvector phi of the state folds into a Kraus operator
    sqrt(lambda) * vec_reshape(phi): H_d -> H_anc.
    """
    state = np.asarray(state, dtype=complex)
    n = anc_dim * d
    if state.shape != (n, n):
        raise ValueError(f"state must be {n}x{n}, got {state.shape}")
    cols = _scaled_eigenvectors(state, "state", tol)
    return KrausChannel(d, anc_dim, cols.T.reshape(-1, anc_dim, d))


# ---------------------------------------------------------------------------
# standard channel factories
# ---------------------------------------------------------------------------


def identity_channel(d: int) -> KrausChannel:
    return KrausChannel(d, d, (np.eye(d, dtype=complex),))


def unitary_channel(u: np.ndarray) -> KrausChannel:
    u = check_unitary(u)
    return KrausChannel(u.shape[0], u.shape[0], (u,))


def contraction_channel(target: np.ndarray) -> KrausChannel:
    """Channel sending every state to the fixed pure state ``target``.

    Kraus operators are |target><k| over the computational basis.
    """
    t = np.asarray(target, dtype=complex).reshape(-1)
    if not abs(np.linalg.norm(t) - 1.0) <= DEFAULT_TOL:
        raise ValueError("target state must be normalized")
    d = t.size
    ops = tuple(np.outer(t, ket(k, d).conj()) for k in range(d))
    return KrausChannel(d, d, ops)


def _weyl_ops(d: int) -> list[np.ndarray]:
    """The d^2 discrete Weyl (shift-and-phase) unitaries."""
    shift = np.zeros((d, d), dtype=complex)
    for j in range(d):
        shift[(j + 1) % d, j] = 1.0
    phase = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    ops = []
    xj = np.eye(d, dtype=complex)
    for _ in range(d):
        zk = np.eye(d, dtype=complex)
        for _ in range(d):
            ops.append(xj @ zk)
            zk = zk @ phase
        xj = xj @ shift
    return ops


def depolarizing_channel(p: float, d: int) -> KrausChannel:
    """Mix toward the maximally mixed state: rho -> (1-p) rho + p I/d."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing strength {p} outside [0, 1]")
    weyl = _weyl_ops(d)
    ops = [np.sqrt(1.0 - p + p / d**2) * weyl[0]]
    ops += [np.sqrt(p) / d * w for w in weyl[1:]]
    return KrausChannel(d, d, tuple(ops))
