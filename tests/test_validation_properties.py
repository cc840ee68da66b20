"""Property tests: the CLI's `validate ppovm` report and the library's
exceptions come from the same checks, so they agree on every input; and
the raising effect validators, which prove the bounds by factorization,
raise exactly where the spectra of `stacked_effect_checks` fail."""

import io
import json
import pathlib
import tempfile
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from ppovm import serialize
from ppovm.channels import (
    CHOLESKY_FLOOR,
    Povm,
    _effects_proven,
    all_pass,
    check_effect,
    effect_checks,
    povm_checks,
    require_effects,
    stacked_effect_checks,
)
from ppovm.cli import main
from ppovm.linalg import (
    BLOCK_ENTRIES,
    DEFAULT_TOL,
    dagger,
    hermitian_parts,
    hermiticity_residuals,
    kron,
    max_abs,
    rank_and_support,
)
from ppovm.measurement import (
    NormStateInvalidError,
    NotProductNormalizationError,
    NotPsdError,
    ppovm_checks,
    realize,
    validate_ppovm,
)
from ppovm.rand import random_ppovm, random_unitary

PROPERTY = settings(max_examples=60)

# exception raised for the first failing entry, by the entry's name prefix
ERRORS = {
    "effect": NotPsdError,
    "product": NotProductNormalizationError,
    "norm": NormStateInvalidError,
}


def _report(matrices, d, tol) -> dict:
    obj = {
        "d": d,
        "effects": [
            {"label": str(k), "matrix": serialize.encode_matrix(m)}
            for k, m in enumerate(matrices)
        ],
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "pp.json"
        serialize.write_json(path, obj)
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(["validate", "ppovm", str(path), "--tol", repr(tol), "--format", "json"])
    report = json.loads(out.getvalue())
    assert code == (0 if report["ok"] else 1)
    return report


def _perturbed(pp, kind, size, index, rng) -> list[np.ndarray]:
    mats = [np.array(m) for m in pp.matrices]
    k = index % len(mats)
    n = mats[k].shape[0]
    noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if kind == "hermitian":
        noise = noise + dagger(noise)
    if kind in ("hermitian", "non-hermitian"):
        mats[k] = mats[k] + size * noise / max_abs(noise)
    elif kind == "rescaled":
        mats = [(1.0 + size) * m for m in mats]
    elif kind == "halved":
        mats[k] = mats[k] / 2
    return mats


@PROPERTY
@given(
    d=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["non-hermitian", "hermitian", "rescaled", "halved", "none"]),
    scale=st.sampled_from([1e3, 10.0, 2.0, 0.5, 0.1]),
    tol=st.sampled_from([1e-9, 1e-7]),
    index=st.integers(0, 100),
)
@example(d=2, seed=0, kind="non-hermitian", scale=1e3, tol=1e-9, index=0)  # effect
@example(d=3, seed=0, kind="halved", scale=1.0, tol=1e-9, index=0)  # product normalization
@example(d=2, seed=0, kind="rescaled", scale=1e3, tol=1e-9, index=0)  # norm state
def test_report_and_exceptions_agree(d, seed, kind, scale, tol, index):
    rng = np.random.default_rng(seed)
    pp = random_ppovm(d, rng)
    mats = _perturbed(pp, kind, scale * tol, index, rng)
    report = _report(mats, d, tol)
    failed = [c["name"] for c in report["checks"] if not c["pass"]]
    assert report["ok"] == (not failed)
    event(f"first failing entry: {failed[0].split('_')[0] if failed else 'none'}")
    if not failed:
        validate_ppovm(mats, d, tol=tol)
        return
    with pytest.raises(ERRORS[failed[0].split("_")[0]]) as info:
        validate_ppovm(mats, d, tol=tol)
    assert type(info.value) is ERRORS[failed[0].split("_")[0]]
    if isinstance(info.value, NotPsdError):
        assert info.value.index == int(failed[0].split("_")[1])


@settings(max_examples=20)
@given(d=st.integers(2, 5), rank=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_random_ppovm_norm_state_has_requested_rank(d, rank, seed):
    rank = min(rank, d)
    pp = random_ppovm(d, np.random.default_rng(seed), rho_rank=rank)
    assert rank_and_support(pp.norm_state)[0] == rank
    assert _report(pp.matrices, d, 1e-9)["ok"]
    assert realize(pp).anc_dim == rank


# where the extreme eigenvalue of one effect sits, in units of tol below 0
# (the mirror values sit as far above 1)
OFFSETS = (-1.5, -1.1, -0.9, -0.6, -0.4, 0.0)


def _edge_stack(n, count, index, offset, high, tol, total, rng):
    """``count`` effects on C^n, then the completion total * I - sum; the
    spectra lie inside [0, total / count] except one eigenvalue of effect
    ``index``, which sits at offset * tol, or at 1 - offset * tol."""
    values = rng.uniform(0.0, total / count, (count, n))
    values[index, 0] = 1.0 - offset * tol if high else offset * tol
    rotations = np.array([random_unitary(n, rng) for _ in range(count)])
    stack = (rotations * values[:, None, :]) @ dagger(rotations)
    completion = total * np.eye(n) - stack.sum(axis=0)
    return np.concatenate([stack, completion[None]])


def _first_failure(checks):
    return next(((name, value) for name, value, passed in checks if not passed), None)


def _raised(call):
    try:
        call()
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "index", None)
    return None


@settings(max_examples=200)
@given(
    d=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 4),
    index=st.integers(0, 3),
    offset=st.sampled_from(OFFSETS),
    high=st.booleans(),
    tol=st.sampled_from([1e-9, 1e-7, 1e-16]),
)
@example(d=2, seed=0, count=2, index=1, offset=-1.1, high=False, tol=1e-9)
@example(d=5, seed=1, count=3, index=2, offset=-0.9, high=True, tol=1e-9)
@example(d=3, seed=2, count=2, index=0, offset=-0.6, high=False, tol=1e-16)
def test_raising_validators_agree_with_spectra(d, seed, count, index, offset, high, tol):
    rng = np.random.default_rng(seed)
    index %= count
    n = d * d

    # a POVM on C^n: Povm raises for the first failing entry of povm_checks
    stack = _edge_stack(n, count, index, offset, high, tol, 1.0, rng)
    expected = _first_failure(povm_checks(stack, tol))
    event(f"Povm: {expected[0].split('_')[-1] if expected else 'passes'}")
    if expected is None:
        assert _raised(lambda: Povm(stack, None, tol)) is None
    else:
        name, value = expected
        assert _raised(lambda: Povm(stack, None, tol)) == (
            ValueError, f"invalid POVM: {name} = {value:.3e}", None
        )

    # the effect alone
    name_value = _first_failure(effect_checks(stack[index], tol))
    raised = _raised(lambda: check_effect(stack[index], tol))
    if name_value is None:
        assert raised is None
    else:
        name, value = name_value
        assert raised == (ValueError, f"not an effect: {name} = {value:.3e}", None)

    # a process POVM with norm state I/d: effects summing to I/d (x) I
    stack = _edge_stack(n, count, index, offset, high, tol, 1.0 / d, rng)
    checks, _ = ppovm_checks(stack, d, tol)
    raised = _raised(lambda: validate_ppovm(stack, d, tol=tol))
    failed = _first_failure(checks[: 3 * len(stack)])
    if failed is None:
        assert raised is None or raised[0] is not NotPsdError
        assert (raised is None) == (_first_failure(checks) is None)
    else:
        name, value = failed
        k, entry = name.split("_", 2)[1:]
        assert raised == (NotPsdError, f"effect {k}: {entry} = {value:.3e}", int(k))


def _count_stacked_spectra(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        if np.ndim(a) == 3:
            calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return calls


def test_factorization_proves_random_ppovm_at_default_tol(monkeypatch):
    pp = random_ppovm(5, np.random.default_rng(5))
    assert _effects_proven(pp.effects, DEFAULT_TOL)
    calls = _count_stacked_spectra(monkeypatch)
    validate_ppovm(pp.matrices, 5)
    realize(pp)
    # the effects of one ancilla-free couple are a 1 x N product grid:
    # only its factors' spectra are computed, no effect's
    assert calls and all(shape[-1] <= 5 for shape in calls)
    calls.clear()
    # the dense route factors the effects and computes no spectra
    monkeypatch.setattr("ppovm.measurement.product_grid", lambda *args: None)
    realize(validate_ppovm(pp.matrices, 5))
    assert calls == []


def test_round_off_floor_falls_back_to_spectra(monkeypatch):
    rng = np.random.default_rng(6)
    u = random_unitary(4, rng)
    effect = (u * rng.uniform(0.25, 0.75, 4)) @ dagger(u)
    stack = np.array([effect, np.eye(4) - effect])  # spectra inside [0.25, 0.75]
    assert _effects_proven(stack, 1e-9)
    # at tol = 1e-16, tol/2 is below the floor ~8 n^3 eps
    assert not _effects_proven(stack, 1e-16)
    calls = _count_stacked_spectra(monkeypatch)
    require_effects(stack, 1e-16, lambda *entry: AssertionError(entry))
    assert calls == [stack.shape]
    # effects of 10 x 10 qudit pairs sit under the floor at the default tol
    assert not _effects_proven(np.full((1, 100, 100), 0.0, dtype=complex), DEFAULT_TOL)


def _two_factorization_proof(stack, tol):
    """The bound proof without the trace test: both shifted stacks are
    factored in full.  The reference the trace test must never fall
    short of."""
    n = stack.shape[-1]
    diag = np.arange(n)
    values = stack[:, diag, diag].real
    scale = max(1.0, float(np.abs(values).max()))
    if not tol / 2 > CHOLESKY_FLOOR * n**3 * np.finfo(float).eps * scale:
        return False
    if not hermiticity_residuals(stack, tol)[1].all():
        return False
    h = hermitian_parts(stack)
    try:
        h[:, diag, diag] = values + tol / 2
        np.linalg.cholesky(h)
        h *= -1
        h[:, diag, diag] = (1.0 + tol / 2) - values
        np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        return False
    return True


def _straddling_stack(n, count, low, tol, rng):
    """``count`` effects on C^n whose traces lie within 2 tol of the trace
    test's bound 1 - (n - 3/2) tol, each with its other n - 1 eigenvalues
    in [low * tol, 0.9 low * tol] and the rest of the trace on the top one
    (low just above -1/2 puts that one near 1 + tol); then
    ``count`` effects with spectra inside [0, 1/(2n)]."""
    lows = rng.uniform(low, 0.9 * low, (count, n - 1)) * tol
    traces = 1.0 - (n - 1.5) * tol + rng.uniform(-2.0, 2.0, count) * tol
    values = np.column_stack([lows, traces - lows.sum(axis=1)])
    values = np.concatenate([values, rng.uniform(0.0, 0.5 / n, (count, n))])
    rotations = np.array([random_unitary(n, rng) for _ in range(2 * count)])
    return (rotations * values[:, None, :]) @ dagger(rotations)


@settings(max_examples=200)
@given(
    d=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 3),
    low=st.sampled_from([-1.2, -0.49, -0.3, 0.0]),
    offset=st.sampled_from(OFFSETS),
    high=st.booleans(),
    exact=st.booleans(),
    tol=st.sampled_from([1e-9, 1e-7, 1e-4]),
)
@example(d=5, seed=3, count=3, low=-0.49, offset=-0.4, high=True, exact=True, tol=1e-9)
@example(d=2, seed=4, count=1, low=0.0, offset=-1.1, high=False, exact=False, tol=1e-4)
def test_trace_bound_proof_is_sound(d, seed, count, low, offset, high, exact, tol):
    rng = np.random.default_rng(seed)
    n = d * d
    index = int(rng.integers(count))
    stacks = {
        "straddling": _straddling_stack(n, count, low, tol, rng),
        "povm edge": _edge_stack(n, count, index, offset, high, tol, 1.0, rng),
        "ppovm edge": _edge_stack(n, count, index, offset, high, tol, 1.0 / d, rng),
    }
    for kind, stack in stacks.items():
        if exact:  # exactly Hermitian, as realize's effects are
            stack = hermitian_parts(stack)
        proven = _effects_proven(stack, tol)
        event(f"{kind}: {'proven' if proven else 'not proven'}")
        if proven:
            assert all_pass(stacked_effect_checks(stack, tol))
        if _two_factorization_proof(stack, tol):
            assert proven


def _count_factorizations(monkeypatch):
    calls = []
    cholesky = np.linalg.cholesky

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return cholesky(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    return calls


def _rotated_product_stack(d, rng):
    """Effects shaped like a MUB scheme's: |a><a| (x) |b><b| / (d (d+1)^2)
    for every vector a of d+1 Haar-random bases on the first factor and b
    of d+1 on the second, summing to I/d (x) I; each trace is
    1/(d (d+1)^2)."""
    first = [random_unitary(d, rng) for _ in range(d + 1)]
    second = [random_unitary(d, rng) for _ in range(d + 1)]
    weight = 1.0 / (d * (d + 1) ** 2)
    return np.array([
        kron(np.outer(a, a.conj()), np.outer(b, b.conj())) * weight
        for u in first for a in u.T for w in second for b in w.T
    ])


def _record_factorized_diagonals(monkeypatch):
    """The diagonal of every matrix each np.linalg.cholesky call factors,
    one (n_call, n) array per call."""
    calls = []
    cholesky = np.linalg.cholesky

    def recording(a, *args, **kwargs):
        calls.append(np.diagonal(a, axis1=-2, axis2=-1).real.copy())
        return cholesky(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", recording)
    return calls


def _assert_factored_in_blocks(calls, stack, tol):
    """One factorization per effect of ``stack``, its diagonal shifted by
    tol/2, in order, in calls of at most one block of effects each."""
    per_block = BLOCK_ENTRIES // stack[0].size
    assert max(map(len, calls)) <= per_block
    shifted = np.diagonal(stack, axis1=1, axis2=2).real + tol / 2
    np.testing.assert_array_equal(np.concatenate(calls), shifted)


def test_small_trace_effects_take_one_factorization(monkeypatch):
    stack = _rotated_product_stack(5, np.random.default_rng(7))
    calls = _record_factorized_diagonals(monkeypatch)
    # a product grid is proven from its factors' spectra, and so are its
    # realized effects: no effect is factored
    realize(validate_ppovm(stack, 5))
    assert calls == []
    # the dense route factors each effect once
    monkeypatch.setattr("ppovm.measurement.product_grid", lambda *args: None)
    pp = validate_ppovm(stack, 5)
    assert len(calls) == -(-900 // (BLOCK_ENTRIES // 625)) > 1
    _assert_factored_in_blocks(calls, stack, DEFAULT_TOL)
    calls.clear()
    realized = realize(pp)  # exactly Hermitian effects of trace ~0.028
    assert realized.povm.effects.shape == (900, 25, 25)
    _assert_factored_in_blocks(calls, realized.povm.effects, DEFAULT_TOL)


def test_projective_povm_takes_two_full_factorizations(monkeypatch):
    u = random_unitary(4, np.random.default_rng(8))
    p = np.outer(u[:, 0], u[:, 0].conj())
    calls = _count_factorizations(monkeypatch)
    Povm(np.array([p, np.eye(4) - p]), None)
    assert calls == [(2, 4, 4), (2, 4, 4)]


def test_second_factorization_covers_only_large_traces(monkeypatch):
    u = random_unitary(4, np.random.default_rng(9))
    p0, p1 = (np.outer(u[:, k], u[:, k].conj()) for k in (0, 1))
    small = (np.eye(4) - p0 - p1) / 4  # trace 1/2, under the trace test's bound
    calls = _count_factorizations(monkeypatch)
    Povm(np.array([small, p0, small, small, p1, small]), None)
    assert calls == [(6, 4, 4), (2, 4, 4)]
