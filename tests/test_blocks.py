"""Effect stacks are streamed through blocks of BLOCK_ENTRIES entries: each
blocked stage must give, byte for byte, what its whole-stack expression
gives (kept here as the reference), stay within a small multiple of the
stack in memory, and keep every stack it allocated without a second copy.
The Kronecker test of the effects (``product_grid``) compares them with
their products a block at a time: it must decide as the whole difference
does (kept here as the reference), and the factored Gram matrix holds no
buffer of the design's or the Gram matrix's size."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from ppovm.channels import (
    CHOLESKY_FLOOR,
    Povm,
    _effects_proven,
    _products_proven,
    all_pass,
    dual_channel,
    max_entangled_ket,
    projector,
    require_effects,
    stacked_effect_checks,
    state_to_map,
)
from ppovm.linalg import (
    _GROUP_GAP,
    BLOCK_ENTRIES,
    DEFAULT_TOL,
    GRID_FLOOR,
    ProductGrid,
    _key_weights,
    block_slices,
    dagger,
    frozen,
    hermiticity_residuals,
    kron,
    max_abs,
    partial_trace,
    pinv,
    product_grid,
    spectra,
)
from ppovm.measurement import (
    ProcessPovm,
    SupportViolationError,
    TestCouple,
    _sum_checks,
    build_ppovm,
    effect_grid,
    ppovm_checks,
    purification,
    realize,
    validate_ppovm,
)
from ppovm.rand import (
    random_density, random_povm, random_ppovm, random_test_couple, random_unitary,
)
from ppovm.tomography import _design, _gram_factors, _product_basis, ic_check


def _per_block(d: int) -> int:
    """Effects of d^2 x d^2 in one block: 104 at d = 5."""
    return BLOCK_ENTRIES // d**4


# N = 1, one block less one, one block, one block and one, at d = 2..5;
# and the bench's 900 effects at d = 5
CASES = [
    (d, count)
    for d in (2, 3, 4, 5)
    for count in sorted({1, _per_block(d) - 1, _per_block(d), _per_block(d) + 1}
                        | ({900} if d == 5 else set()))
]


# ---------------------------------------------------------------------------
# whole-stack references: the expressions each blocked stage replaced
# ---------------------------------------------------------------------------


def _build_reference(couple: TestCouple, d: int) -> np.ndarray:
    """sum_k (a_k (x) I) x (a_k (x) I)^dag: a_k on x's first index, then
    the whole stack times the dense (a_k (x) I)^dag."""
    lifted = dual_channel(state_to_map(couple.state, couple.anc_dim, d))
    x = couple.povm.effects
    n, cols = len(x), x.shape[2]
    out = np.zeros((n, d * d, d * d), dtype=complex)
    for a in lifted.kraus:
        t = (a @ x.reshape(n, couple.anc_dim, d * cols)).reshape(n, d * d, cols)
        out += t @ dagger(kron(a, np.eye(d)))
    return couple.weight * out


def _residuals_reference(m: np.ndarray, tol: float):
    n = m.shape[-1]
    rows, cols = np.triu_indices(n)
    flat = m.reshape(len(m), n * n)
    diff = flat[:, rows * n + cols] - np.conj(flat[:, cols * n + rows])
    res = np.abs(diff).max(axis=-1, initial=0.0)
    passed = res <= tol
    if not passed.all():
        passed = res <= tol * np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))
    return res, passed


def _effect_checks_reference(m: np.ndarray, tol: float) -> list:
    res, passed = _residuals_reference(m, tol)
    values = spectra((m + dagger(m)) / 2)
    low, high = values[:, 0], values[:, -1]
    return [
        entry
        for k in range(len(m))
        for entry in (
            (f"effect_{k}_hermiticity_residual", float(res[k]), bool(passed[k])),
            (f"effect_{k}_min_eigenvalue", float(low[k]), bool(low[k] >= -tol)),
            (f"effect_{k}_max_eigenvalue", float(high[k]), bool(high[k] <= 1.0 + tol)),
        )
    ]


def _design_reference(effects: np.ndarray, d: int) -> np.ndarray:
    basis = _product_basis(d)
    n, q = len(effects), d * d - 1
    blocks = effects.reshape(n, d, d, d, d).transpose(0, 1, 3, 2, 4).reshape(n * d * d, d * d)
    diag = blocks[:, :: d + 1]
    y = np.empty((n * d * d, q), dtype=complex)
    y[:, : d - 1] = (diag[:, 1:] - diag[:, :1]) @ basis.helmert
    y[:, d - 1 :] = blocks @ basis.off
    y = y.reshape(n, d * d, q)
    return (basis.lam @ np.concatenate([y.real, y.imag], axis=1)).reshape(n, -1)


def _realize_reference(pp: ProcessPovm, tol: float = DEFAULT_TOL):
    """The support check and the congruence (b (x) I) m (b (x) I)^dag,
    b = pinv(a)^dag, on the whole stack: b and the support projector p
    act on the first index of m, the dense p (x) I and (b (x) I)^dag on
    the right."""
    d = pp.d
    a, v = purification(pp.norm_state.T, tol)
    b = dagger(pinv(a, tol))
    m = pp.effects
    n, r = len(m), len(b)
    wide = m.reshape(n, d, d**3)
    if r < d:
        p = v @ dagger(v)
        left = (p @ wide).reshape(n, d * d, d * d)
        leak = np.abs(left @ kron(p, np.eye(d)) - m).max(axis=(1, 2))
        outside = np.flatnonzero(leak > 10 * tol * np.maximum(1.0, np.abs(m).max(axis=(1, 2))))
        if outside.size:
            raise SupportViolationError(
                f"effect {pp.labels[outside[0]]!r} leaks outside the normalization support"
            )
    f = (b @ wide).reshape(n, r * d, d * d) @ dagger(kron(b, np.eye(d)))
    f += dagger(f)
    f /= 2
    return a.reshape(-1), f


def _couple(d: int, count: int, rng, rank: int | None = None) -> TestCouple:
    """A couple with ``count`` outcomes: a rank-2 test state on H_d (x) H_d,
    so the lifted channel has two Kraus operators; or, with ``rank``, the
    minimal purification of a rank-``rank`` qudit state."""
    if rank is None:
        return random_test_couple(d, d, rng, n_outcomes=count, rank=2)
    a, _ = purification(random_density(d, rng, rank=rank).T)
    r = a.shape[0]
    return TestCouple(1.0, projector(a.reshape(-1)), random_povm(r * d, count, rng), r)


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# the block helper
# ---------------------------------------------------------------------------


def test_block_slices_cover_the_items_in_order():
    assert _per_block(5) == 104
    assert block_slices(900, 625) == [
        slice(start, min(start + 104, 900)) for start in range(0, 900, 104)
    ]
    assert block_slices(144, 81) == [slice(0, 144)]  # d = 3 fits in one block
    assert block_slices(3, BLOCK_ENTRIES + 1) == [slice(0, 1), slice(1, 2), slice(2, 3)]
    assert block_slices(0, 625) == [slice(0, 0)]


# ---------------------------------------------------------------------------
# blocked stages are bitwise their whole-stack expressions
# ---------------------------------------------------------------------------


def _dense_realize(pp: ProcessPovm):
    """``realize`` of a copy of ``pp`` with the product-grid detector
    finding no grid: the dense route, which ``_realize_reference`` mirrors."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("ppovm.measurement.product_grid", lambda *args: None)
        return realize(ProcessPovm(pp.d, pp.effects, pp.norm_state, pp.labels))


def _assert_realized_as_reference(pp: ProcessPovm):
    """``realize(pp)`` gives the reference's state bit for bit, and its
    effects too on the dense route.  A product grid (here a one-effect
    stack, a 1 x 1 grid) is realized from its factors, within rounding of
    the reference and exactly Hermitian; the dense route is then checked
    on a copy."""
    real = realize(pp)
    vector, effects = _realize_reference(pp)
    assert _same_bytes(real.state, projector(vector))
    if effect_grid(pp) is not None:
        assert np.abs(real.povm.effects - effects).max() < 1e-12
        assert (hermiticity_residuals(real.povm.effects)[0] == 0.0).all()
        real = _dense_realize(pp)
    assert _same_bytes(real.povm.effects, effects)
    return real


@pytest.mark.parametrize("d, count", CASES)
def test_blocked_stages_match_whole_stack_references(d, count):
    rng = np.random.default_rng([d, count])
    couple = _couple(d, count, rng)
    pp = build_ppovm([couple], d)
    assert _same_bytes(pp.effects, _build_reference(couple, d))
    assert _same_bytes(_design(pp.effects, d), _design_reference(pp.effects, d))

    # effect checks of an almost-Hermitian stack, some residuals above tol:
    # the relative test then runs, per block and on the whole stack alike
    noise = rng.normal(size=pp.effects.shape) * 1e-9
    stack = pp.effects + 1j * noise
    for got, want in zip(hermiticity_residuals(stack, 1e-9), _residuals_reference(stack, 1e-9)):
        assert _same_bytes(got, want)
    got, want = stacked_effect_checks(stack, 1e-9), _effect_checks_reference(stack, 1e-9)
    assert got == want
    assert np.array([v for _, v, _ in got]).tobytes() == np.array([v for _, v, _ in want]).tobytes()

    _assert_realized_as_reference(pp)


@pytest.mark.parametrize("d, count", [case for case in CASES if case[1] < 900])
def test_blocked_realize_of_rank_deficient_norm_state(d, count):
    rng = np.random.default_rng([d, count, 1])
    pp = build_ppovm([_couple(d, count, rng, rank=d - 1)], d)
    real = _assert_realized_as_reference(pp)
    assert real.anc_dim == d - 1
    assert real.povm.effects.shape == (count, (d - 1) * d, (d - 1) * d)


def test_support_leak_names_the_first_leaking_effect_across_blocks():
    d, per_block = 5, _per_block(5)
    rng = np.random.default_rng(21)
    pp = build_ppovm([_couple(d, 2 * per_block + 3, rng, rank=d - 1)], d)
    _, v = purification(pp.norm_state.T)
    outside = np.eye(d) - v @ dagger(v)  # projector onto the complement
    effects = np.array(pp.effects)
    for k in (per_block + 7, 2 * per_block + 1):  # in the second and last block
        effects[k] += 1e-3 * kron(outside, np.eye(d))
    leaky = ProcessPovm(d, effects, pp.norm_state, pp.labels)
    with pytest.raises(SupportViolationError) as blocked:
        realize(leaky)
    with pytest.raises(SupportViolationError) as whole:
        _realize_reference(leaky)
    assert str(blocked.value) == str(whole.value) == f"effect {pp.labels[per_block + 7]!r} leaks outside the normalization support"


# ---------------------------------------------------------------------------
# the blocked bound proof
# ---------------------------------------------------------------------------


def _product_stack(d: int, count: int, rng) -> np.ndarray:
    """``count`` effects |a><a| (x) |b><b| / (d (d+1)^2) from Haar-random
    bases: spectra {0, 1/(d (d+1)^2)}, far inside [0, 1]."""
    weight = 1.0 / (d * (d + 1) ** 2)
    out = []
    while len(out) < count:
        a, b = random_unitary(d, rng), random_unitary(d, rng)
        out += [kron(np.outer(x, x.conj()), np.outer(y, y.conj())) * weight
                for x in a.T for y in b.T]
    return np.array(out[:count])


def _margin(stack: np.ndarray, tol: float) -> float:
    """The largest hermiticity residual r with tol/2 > floor + n r."""
    n = stack.shape[-1]
    scale = max(1.0, float(np.abs(np.diagonal(stack, axis1=1, axis2=2).real).max()))
    return (tol / 2 - CHOLESKY_FLOOR * n**3 * np.finfo(float).eps * scale) / n


def _skew(stack: np.ndarray, k: int, r: float) -> np.ndarray:
    """``stack`` with effect k given hermiticity residual r: i r/2 added at
    entries (0, 1) and (1, 0)."""
    out = stack.copy()
    out[k, 0, 1] += 0.5j * r
    out[k, 1, 0] += 0.5j * r
    return out


def test_failing_effect_in_the_last_partial_block_is_not_proven():
    d, per_block, tol = 5, _per_block(5), DEFAULT_TOL
    rng = np.random.default_rng(22)
    stack = _product_stack(d, 2 * per_block + 10, rng)  # the last block holds 10
    assert _effects_proven(stack, tol)
    last = len(stack) - 1
    # effect `last` is rank one: push its kernel to -2 tol
    kernel = np.linalg.eigh(stack[last])[1][:, 0]
    low = stack.copy()
    low[last] -= 2 * tol * np.outer(kernel, kernel.conj())
    # and a projector, whose trace needs the second factorization
    high = stack.copy()
    high[last] = np.outer(kernel, kernel.conj()) * (1 + 2 * tol)
    for bad, entry in ((low, "min_eigenvalue"), (high, "max_eigenvalue")):
        assert not _effects_proven(bad, tol)
        failed = [name for name, _, passed in stacked_effect_checks(bad, tol) if not passed]
        assert failed == [f"effect_{last}_{entry}"]
        with pytest.raises(AssertionError) as raised:
            require_effects(bad, tol, lambda *found: AssertionError(found))
        assert raised.value.args[0][:2] == (last, entry)


def test_residual_margin_is_read_per_block():
    d, per_block, tol = 5, _per_block(5), DEFAULT_TOL
    stack = _product_stack(d, 2 * per_block + 10, np.random.default_rng(23))
    margin = _margin(stack, tol)
    k = len(stack) - 3  # in the last, partial block
    below, above = _skew(stack, k, 0.9 * margin), _skew(stack, k, 1.1 * margin)
    assert hermiticity_residuals(above[k : k + 1])[0][0] == pytest.approx(1.1 * margin)
    assert _effects_proven(below, tol)
    assert not _effects_proven(above, tol)  # though every check passes:
    assert all_pass(stacked_effect_checks(above, tol))
    require_effects(above, tol, lambda *found: AssertionError(found))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    ratio=st.sampled_from([0.0, 0.5, 0.9, 1.1, 3.0]),
    shift=st.sampled_from([-2.0, -1.1, -0.9, -0.4, 0.0]),
    high=st.booleans(),
    tol=st.sampled_from([1e-9, 1e-7]),
)
def test_blocked_proof_is_sound(seed, ratio, shift, high, tol):
    """Whatever the residual and the edge of the spectrum of an effect in
    the last block, a proven stack passes every spectral check."""
    d, per_block = 5, _per_block(5)
    rng = np.random.default_rng(seed)
    stack = _product_stack(d, per_block + 6, rng)
    k = per_block + int(rng.integers(6))
    u = random_unitary(d * d, rng)
    values = rng.uniform(0.0, 0.01, d * d)
    values[0] = 1.0 - shift * tol if high else shift * tol
    stack[k] = (u * values) @ dagger(u)
    stack = _skew(stack, k, ratio * _margin(stack, tol))
    proven = _effects_proven(stack, tol)
    event(f"ratio {ratio}: {'proven' if proven else 'not proven'}")
    if proven:
        assert all_pass(stacked_effect_checks(stack, tol))
    if ratio > 1.0:
        assert not proven


# ---------------------------------------------------------------------------
# one copy per stack
# ---------------------------------------------------------------------------


def test_frozen_keeps_a_frozen_array_and_copies_anything_else():
    x = np.arange(16.0).reshape(4, 4) + 1j
    y = frozen(x)
    assert y is not x and not y.flags.writeable
    assert frozen(y) is y
    assert frozen(y[:2]) is not y  # a read-only view
    fortran = np.asfortranarray(x)
    fortran.setflags(write=False)
    copied = frozen(fortran)  # owns its memory, but is not C-contiguous
    assert copied is not fortran and copied.flags.c_contiguous
    assert frozen(x) is not x  # writable
    real = np.arange(4.0)
    real.setflags(write=False)
    assert frozen(real).dtype == complex


def test_stages_keep_the_stacks_they_allocate():
    d = 3
    rng = np.random.default_rng(24)
    couple = _couple(d, 20, rng)
    pp = build_ppovm([couple], d)
    assert not pp.effects.flags.writeable and pp.effects.flags.owndata
    again = validate_ppovm(pp.effects, d)
    assert again.effects is pp.effects  # a frozen stack is not copied
    fresh = validate_ppovm(list(pp.matrices), d)
    assert fresh.effects is not pp.effects
    assert not fresh.effects.flags.writeable and fresh.effects.flags.owndata
    assert frozen(fresh.effects) is fresh.effects
    real = realize(pp)
    assert not real.povm.effects.flags.writeable and real.povm.effects.flags.owndata


def test_a_callers_array_is_copied():
    d = 2
    pp = build_ppovm([_couple(d, 5, np.random.default_rng(25))], d)
    arr = np.array(pp.effects)
    kept = ProcessPovm(d, arr, pp.norm_state)
    arr[0] = 7.0
    assert _same_bytes(kept.effects, pp.effects)
    arr = np.array(pp.effects)
    checked = validate_ppovm(arr, d)
    arr[0] = 7.0
    assert _same_bytes(checked.effects, pp.effects)


# ---------------------------------------------------------------------------
# memory bounded by the size of the answer
# ---------------------------------------------------------------------------


def _rotated_product_couple(d: int, rng) -> TestCouple:
    """The shape of a MUB scheme's couple: a maximally entangled test state
    and the effects |a><a| (x) |b><b| / (d+1)^2 of d+1 Haar-random bases
    on each factor, d^2 (d+1)^2 of them."""
    first = [random_unitary(d, rng) for _ in range(d + 1)]
    second = [random_unitary(d, rng) for _ in range(d + 1)]
    effects = np.array([
        kron(np.outer(a, a.conj()), np.outer(b, b.conj())) / (d + 1) ** 2
        for u in first for a in u.T for w in second for b in w.T
    ])
    state = projector(max_entangled_ket(d, normalized=True))
    return TestCouple(1.0, state, Povm(effects, None), d)


def test_heavy_stages_stay_within_one_and_a_half_stacks():
    d = 5
    couple = _rotated_product_couple(d, np.random.default_rng(26))
    peaks = {}
    tracemalloc.start()
    try:
        stages = {
            "build_ppovm": lambda: build_ppovm([couple], d),
            "validate_ppovm": lambda: validate_ppovm(list(pp.matrices), d),
            "realize": lambda: realize(pp),
            "ic_check": lambda: ic_check(pp),
            "ppovm_checks": lambda: ppovm_checks(pp.matrices, d),
        }
        pp = None
        for name, stage in stages.items():
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = stage()
            peaks[name] = tracemalloc.get_traced_memory()[1] - before
            if name == "build_ppovm":
                pp = out
            del out
    finally:
        tracemalloc.stop()
    stack = pp.effects.nbytes  # 900 effects of 25 x 25: 9.0 MB
    assert {name: peak / stack <= 1.5 for name, peak in peaks.items()} == dict.fromkeys(peaks, True)


def test_lopsided_grid_stays_within_one_and_a_half_stacks():
    # one test state and a POVM of 900 outcomes: effects rho^T (x) E_k, a
    # 1 x 900 product grid, whose 900 second factors tiled to the effects'
    # size would take as much memory as the stack
    d = 5
    rng = np.random.default_rng(28)
    couple = TestCouple(1.0, random_density(d, rng), random_povm(d, 900, rng), 1)
    pp = build_ppovm([couple], d)
    peaks = {}
    tracemalloc.start()
    try:
        for name, stage in {
            "validate_ppovm": lambda: validate_ppovm(pp.effects, d),
            "realize": lambda: realize(checked),
            "ic_check": lambda: ic_check(checked),
        }.items():
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = stage()
            peaks[name] = tracemalloc.get_traced_memory()[1] - before
            if name == "validate_ppovm":
                checked = out
            del out
    finally:
        tracemalloc.stop()
    grid = effect_grid(checked)
    assert grid is not None and (len(grid.a), len(grid.b)) == (1, 900)
    stack = pp.effects.nbytes
    assert {name: peak / stack <= 1.5 for name, peak in peaks.items()} == dict.fromkeys(peaks, True)


# ---------------------------------------------------------------------------
# the Kronecker test of the effects: product_grid's blocked entry test
# ---------------------------------------------------------------------------


def _grid_ratio(stack: np.ndarray, grid) -> float:
    """The largest |Re| or |Im| of M_j - a[ia_j] (x) b[ib_j] over its bound
    GRID_FLOOR n eps s_j, from the whole difference: the expression the
    blocked test replaced."""
    n = stack.shape[-1]
    products = np.array([np.kron(grid.a[i], grid.b[j]) for i, j in zip(grid.ia, grid.ib)])
    diff = (stack - products).view(float).reshape(len(stack), -1)
    scales = grid.scale_a[grid.ia] * grid.scale_b[grid.ib]
    bound = GRID_FLOOR * n * np.finfo(float).eps * scales
    return float((np.abs(diff).max(axis=1) / bound).max())


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_kronecker_test_decides_as_the_whole_difference(d):
    rng = np.random.default_rng([27, d])
    stack = build_ppovm([_rotated_product_couple(d, rng)], d).effects
    grid = product_grid(stack, d, d)
    assert grid is not None and _grid_ratio(stack, grid) < 1.0
    # one entry of the last effect, in the last (partial) block, moved to
    # far below and above its bound: entry (0 d + 0, 1 d + 1) lies outside
    # both partial traces, so the candidate factors stay the same
    k, n = len(stack) - 1, d * d
    scale = grid.scale_a[grid.ia[k]] * grid.scale_b[grid.ib[k]]
    bound = GRID_FLOOR * n * np.finfo(float).eps * scale
    for size in (1e-3, 3.0):
        moved = stack.copy()
        moved[k, 0, d + 1] += size * bound
        found = product_grid(moved, d, d)
        assert (found is not None) == (_grid_ratio(moved, grid) <= 1.0) == (size < 1.0)
        if found is not None:
            for name in ("a", "b", "ia", "ib"):
                assert _same_bytes(getattr(found, name), getattr(grid, name))
    assert product_grid(random_ppovm(d, rng, rho_rank=d).effects, d, d) is None
    assert product_grid(random_ppovm(d, rng, n_couples=2).effects, d, d) is None


def test_kronecker_test_holds_no_second_gram_matrix():
    d = 5
    pp = build_ppovm([_rotated_product_couple(d, np.random.default_rng(28))], d)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert ic_check(pp) == (True, 0)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    factors = _gram_factors(pp)
    assert factors.design_a.shape == (d * (d + 1), d * d)  # D_A, not D
    assert factors.design_b.shape == (d * (d + 1), d * d - 1)
    # the grid's entry test holds two blocks of BLOCK_ENTRIES complex
    # entries (1 MiB each) and the tiled factors (0.6 MB), less than the
    # design D alone (4.32 MB); G took 2.88 MB more
    assert peak < len(pp) * (d**4 - d**2) * 8


# ---------------------------------------------------------------------------
# the validated process POVM, its checks, its factor proof and its design's
# condition number: whole-stack references in the plain numpy calls
# ---------------------------------------------------------------------------


def _groups_reference(keys: np.ndarray):
    ids, counts = np.empty(keys.shape, dtype=np.intp), []
    for row, out in zip(keys, ids):
        order = row.argsort()
        ranked = row[order]
        starts = ranked[1:] - ranked[:-1] > _GROUP_GAP * (1.0 + max(-ranked[0], ranked[-1]))
        out[order[0]] = 0
        out[order[1:]] = starts.cumsum()
        counts.append(int(out[order[-1]]) + 1)
    return ids, counts


def _grid_reference(stack: np.ndarray, d: int):
    """The factors a, b and the pair indices of a stack known to be a
    product grid: np.trace for the traces, a pair table filled from -1,
    and the partial traces by einsum."""
    n = len(stack)
    traces = np.trace(stack, axis1=1, axis2=2).real
    (ia, ib), (na, nb) = _groups_reference((_key_weights(d, d) @ stack.reshape(n, -1).T).real / traces)
    cells = np.full((na, nb), -1)
    cells[ia, ib] = np.arange(n)
    column = stack[cells[:, ib[0]]].reshape(na, d, d, d, d)
    row = stack[cells[ia[0]]].reshape(nb, d, d, d, d)
    a = np.einsum("nakbk->nab", column) / 2
    b = np.einsum("nakal->nkl", row) / traces[0] / 2
    return a + dagger(a), b + dagger(b), ia, ib


def _sum_checks_reference(stack: np.ndarray, d: int, tol: float):
    total = stack.sum(axis=0)
    sigma = partial_trace(total, d, d, "second") / d
    rho = sigma.T
    res = max_abs(total - np.kron(sigma, np.eye(d)))
    values = np.linalg.eigvalsh(rho / 2 + dagger(rho) / 2)
    trace_dev = abs(float(np.trace(rho).real) - 1.0)
    return [
        ("product_normalization_residual", res, res <= tol * max(1.0, max_abs(total))),
        ("norm_state_min_eigenvalue", float(values[0]),
         bool(values[0] >= -tol * max(1.0, float(values[-1])))),
        ("norm_state_trace_deviation", trace_dev, trace_dev <= tol),
    ], rho


def _products_proven_reference(grid, tol: float) -> bool:
    a, b = grid.a, grid.b
    n = a.shape[-1] * b.shape[-1]
    scale = max(1.0, float(np.abs(a).max()) * float(np.abs(b).max()))
    if not tol / 2 > (CHOLESKY_FLOOR + 4 * GRID_FLOOR) * n**2 * np.finfo(float).eps * scale:
        return False
    if a.shape[1:] == b.shape[1:]:
        values = np.linalg.eigvalsh(np.concatenate([a, b]))
        w_a, w_b = values[: len(a)], values[len(a) :]
    else:
        w_a, w_b = np.linalg.eigvalsh(a), np.linalg.eigvalsh(b)
    ends = [x * y for x in (w_a.min(), w_a.max()) for y in (w_b.min(), w_b.max())]
    return min(ends) >= -tol / 2 and max(ends) <= 1.0 + tol / 2


def _gram_reference(design_a: np.ndarray, design_b: np.ndarray):
    """The kept Gram eigenvalues, their count and the condition number, by
    np.outer and one eigh per factor."""
    w_a, _ = np.linalg.eigh(design_a.T @ design_a)
    w_b, _ = np.linalg.eigh(design_b.T @ design_b)
    products = np.outer(w_a, w_b)
    keep = products > 1e-12 * products.max(initial=0.0)
    condition = np.inf
    if keep.any():
        i, j = np.unravel_index(np.where(keep, products, np.inf).argmin(), keep.shape)
        condition = np.sqrt(w_a[-1] / w_a[i]) * np.sqrt(w_b[-1] / w_b[j])
    return np.where(keep, products, 0.0), int(keep.sum()), float(condition)


def _job_ppovms(d: int, seed: int):
    """A rotated product scheme, as a tomography job validates it, and a
    process POVM that is no product grid."""
    rng = np.random.default_rng([29, d, seed])
    built = build_ppovm([_rotated_product_couple(d, rng)], d)
    return built, random_ppovm(d, rng, rho_rank=d)


@pytest.mark.parametrize("d, seed", [(d, seed) for d in (2, 3, 5) for seed in (0, 1)])
def test_validated_ppovm_checks_proof_and_condition_match_references(d, seed):
    tol = DEFAULT_TOL
    for built, product in zip(_job_ppovms(d, seed), (True, False)):
        matrices = list(built.matrices)
        pp = validate_ppovm(matrices, d, labels=list(built.labels))
        assert _same_bytes(pp.effects, np.asarray(matrices, dtype=complex))
        assert pp.labels == built.labels and not pp.effects.flags.writeable

        got, rho = _sum_checks(pp.effects, d, tol)
        want, want_rho = _sum_checks_reference(pp.effects, d, tol)
        assert [(n, p) for n, _, p in got] == [(n, p) for n, _, p in want]
        assert _same_bytes(np.array([v for _, v, _ in got]), np.array([v for _, v, _ in want]))
        assert _same_bytes(rho, want_rho)
        assert _same_bytes(pp.norm_state, np.ascontiguousarray(want_rho))

        grid = effect_grid(pp)
        factors = _gram_factors(pp)
        values, rank, condition = _gram_reference(factors.design_a, factors.design_b)
        assert _same_bytes(factors.values, values) and factors.rank == rank
        assert _same_bytes(np.array(factors.condition), np.array(condition))
        assert (grid is not None) == product
        if not product:
            continue
        for got_part, want_part in zip((grid.a, grid.b, grid.ia, grid.ib), _grid_reference(pp.effects, d)):
            assert _same_bytes(got_part, want_part)
        # the verdict at the edge 1 + tol/2 of the factor proof: b scaled so
        # that the largest product crosses it within a few ulps
        top = float(np.linalg.eigvalsh(grid.a).max()) * float(np.linalg.eigvalsh(grid.b).max())
        verdicts = set()
        for k in range(-8, 9):
            scaled = ProductGrid(grid.a, grid.b * ((1 + tol / 2) / top * (1 + k * 2**-52)), grid.ia, grid.ib)
            verdict = _products_proven(scaled, tol)
            assert verdict == _products_proven_reference(scaled, tol)
            verdicts.add(verdict)
        assert verdicts == {True, False}
