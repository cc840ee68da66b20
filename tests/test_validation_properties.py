"""Property tests: the CLI's `validate ppovm` report and the library's
exceptions come from the same checks, so they agree on every input."""

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
from ppovm.cli import main
from ppovm.linalg import dagger, max_abs, rank_and_support
from ppovm.measurement import (
    NormStateInvalidError,
    NotProductNormalizationError,
    NotPsdError,
    realize,
    validate_ppovm,
)
from ppovm.rand import random_ppovm

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

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


@settings(derandomize=True, database=None, deadline=None, max_examples=20)
@given(d=st.integers(2, 5), rank=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_random_ppovm_norm_state_has_requested_rank(d, rank, seed):
    rank = min(rank, d)
    pp = random_ppovm(d, np.random.default_rng(seed), rho_rank=rank)
    assert rank_and_support(pp.norm_state)[0] == rank
    assert _report(pp.matrices, d, 1e-9)["ok"]
    assert realize(pp).r == rank
