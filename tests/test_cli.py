import dataclasses
import gc
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

import ppovm
from ppovm import cli, discrimination, serialize, tomography
from ppovm.channels import PAULI_Z, KrausChannel, identity_channel, ket, projector
from ppovm.cli import main
from ppovm.linalg import max_abs
from ppovm.measurement import TestCouple, build_ppovm, outcome_probabilities, purification
from ppovm.rand import random_channel, random_povm, random_unitary
from ppovm.schemes import mub_probe_couple, pauli_probe_ppovm


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen(tmp_path, name, *extra):
    path = tmp_path / f"{name}.json"
    assert main(["gen", name, "--out", str(path), *extra]) == 0
    return str(path)


def test_gen_and_validate_pauli_probe(tmp_path, capsys):
    path = gen(tmp_path, "pauli-probe")
    capsys.readouterr()
    code, out, _ = run(capsys, "validate", "ppovm", path, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"]
    norm = serialize.decode_matrix(payload["norm_state"])
    assert max_abs(norm - np.eye(2) / 2) < 1e-12


def test_validate_incomplete_povm(tmp_path, capsys):
    p0 = projector(ket(0, 2))
    obj = {"dim": 2, "effects": [{"label": "0", "matrix": serialize.encode_matrix(p0)}]}
    path = tmp_path / "povm.json"
    serialize.write_json(path, obj)
    code, out, _ = run(capsys, "validate", "povm", str(path))
    assert code == 1
    assert "completeness_residual" in out
    assert "FAIL" in out


def test_validate_reports_effects_near_the_float_limit(tmp_path, capsys):
    # finite, so the file decodes; m + m^dag would overflow to inf
    huge = 1.5e308 * np.eye(4)
    obj = {"d": 2, "effects": serialize.encode_effects(huge[None], ["0"])}
    path = _write(tmp_path, "huge.json", obj)
    code, out, err = run(capsys, "validate", "ppovm", path)
    assert (code, err) == (1, "")
    assert "effect_0_max_eigenvalue: 1.5e+308 [FAIL]" in out
    assert out.endswith("INVALID\n")
    code, out, err = run(capsys, "validate", "ppovm", path, "--format", "json")
    assert (code, err) == (1, "")
    payload = json.loads(out)
    assert not payload["ok"]
    assert payload["checks"][2] == {
        "name": "effect_0_max_eigenvalue", "pass": False, "value": 1.5e308
    }
    assert all(not c["pass"] for c in payload["checks"][3:])


def test_validate_reports_a_choi_matrix_near_the_float_limit(tmp_path, capsys):
    # its Hermitian part is finite, so the Kraus operators are; their
    # trace-preservation sum overflows, which the report shows as inf
    huge = {"kind": "choi", "d": 2, "matrix": serialize.encode_matrix(1.5e308 * np.eye(4))}
    path = _write(tmp_path, "huge-choi.json", huge)
    code, out, err = run(capsys, "validate", "channel", path)
    assert (code, err) == (1, "")
    assert out == "trace_preservation_residual: inf [FAIL]\nINVALID\n"


def test_validate_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "validate", "ppovm", str(path))
    assert code == 2
    assert "error" in err


def _write(tmp_path, name, obj):
    path = tmp_path / name
    serialize.write_json(path, obj)
    return str(path)


def _edited(tmp_path, name, edit):
    obj = serialize.read_json(gen(tmp_path, name))
    edit(obj)
    return _write(tmp_path, f"edited-{name}.json", obj)


def _encoded(tmp_path, encoding):
    """A Pauli-probe file whose first label is "\u03b8", as JSON text
    encoded in ``encoding``."""
    obj = serialize.read_json(gen(tmp_path, "pauli-probe"))
    obj["effects"][0]["label"] = "\u03b8"
    path = tmp_path / f"{encoding}.json"
    path.write_bytes(json.dumps(obj, ensure_ascii=False).encode(encoding))
    return str(path)


NAN = float("nan")


def _set(*keys, value):
    def edit(obj):
        for key in keys[:-1]:
            obj = obj[key]
        obj[keys[-1]] = value

    return edit


def _wrong_shape_effect(obj):
    obj["effects"][0]["matrix"] = serialize.encode_matrix(np.eye(3))


def _counts_file(tmp_path, shots, first, second=0):
    # pauli-probe counts: `first` and `second` on two outcomes, 0 elsewhere
    labels = [e["label"] for e in serialize.read_json(gen(tmp_path, "pauli-probe"))["effects"]]
    counts = {**dict.fromkeys(labels, 0), labels[0]: first, labels[1]: second}
    return _write(tmp_path, "counts.json", {"shots": shots, "seed": 0, "counts": counts})


def _oversized_povm(tmp_path):
    obj = {"dim": 2, "effects": [{"label": "0", "matrix": serialize.encode_matrix(np.eye(3))}]}
    return _write(tmp_path, "oversized.json", obj)


def _repeated_label(obj):
    obj["effects"][1]["label"] = obj["effects"][0]["label"]


def _nest_every_entry(obj):
    for op in obj["ops"]:
        op["data"] = [[[re], [im]] for re, im in op["data"]]


def _povm_with_repeated_label(tmp_path):
    p0, p1 = (serialize.encode_matrix(projector(ket(k, 2))) for k in (0, 1))
    effects = [{"label": "a", "matrix": p0}, {"label": "a", "matrix": p1}]
    return _write(tmp_path, "repeated.json", {"dim": 2, "effects": effects})


def _non_square(tmp_path):
    return _write(tmp_path, "rect.json", serialize.encode_matrix(np.ones((2, 3))))


MALFORMED = {
    "ppovm without d": lambda t: [
        "validate", "ppovm", _edited(t, "pauli-probe", lambda o: o.pop("d"))
    ],
    "effect without label": lambda t: [
        "probs", _edited(t, "pauli-probe", lambda o: o["effects"][0].pop("label")),
        gen(t, "identity"),
    ],
    "top-level array": lambda t: ["validate", "ppovm", _write(t, "array.json", [1, 2])],
    "nan kraus entry": lambda t: [
        "validate", "channel", _edited(t, "identity", _set("ops", 0, "data", 0, 0, value=NAN))
    ],
    "nan kraus entry in probs": lambda t: [
        "probs", gen(t, "pauli-probe"),
        _edited(t, "identity", _set("ops", 0, "data", 0, 0, value=NAN)),
    ],
    "nan ppovm entry": lambda t: [
        "validate", "ppovm",
        _edited(t, "pauli-probe", _set("effects", 1, "matrix", "data", 0, 1, value=NAN)),
    ],
    "top-level array channel": lambda t: ["validate", "channel", _write(t, "array.json", [])],
    "wrong-shape ppovm effect": lambda t: [
        "validate", "ppovm", _edited(t, "pauli-probe", _wrong_shape_effect)
    ],
    "zero-shot counts": lambda t: [
        "tomo", gen(t, "pauli-probe"), "--counts", _counts_file(t, 0, 0)
    ],
    "negative count": lambda t: [
        "tomo", gen(t, "pauli-probe"), "--counts", _counts_file(t, 1, -1, 2)
    ],
    "counts not summing to shots": lambda t: [
        "tomo", gen(t, "pauli-probe"), "--counts", _counts_file(t, 10, 5)
    ],
    "povm effect larger than dim": lambda t: ["validate", "povm", _oversized_povm(t)],
    "ppovm repeated label": lambda t: [
        "simulate", gen(t, "identity"), _edited(t, "pauli-probe", _repeated_label),
        "--shots", "1000", "--out", str(t / "counts.json"),
    ],
    "povm repeated label": lambda t: ["validate", "povm", _povm_with_repeated_label(t)],
    "entry of three numbers": lambda t: [
        "validate", "ppovm",
        _edited(t, "pauli-probe", _set("effects", 0, "matrix", "data", 0, value=[1.0, 0.0, 5.0])),
    ],
    "entry of one number": lambda t: [
        "validate", "ppovm",
        _edited(t, "pauli-probe", _set("effects", 0, "matrix", "data", 0, value=[1.0])),
    ],
    "string in entry": lambda t: [
        "validate", "ppovm",
        _edited(t, "pauli-probe", _set("effects", 0, "matrix", "data", 0, value=["1", 0.0])),
    ],
    "list in entry": lambda t: [
        "validate", "ppovm",
        _edited(t, "pauli-probe", _set("effects", 0, "matrix", "data", 0, value=[[1.0], 0.0])),
    ],
    "lists in every entry": lambda t: [
        "validate", "channel", _edited(t, "identity", _nest_every_entry)
    ],
    "rows not a number": lambda t: [
        "validate", "channel", _edited(t, "identity", _set("ops", 0, "rows", value="two"))
    ],
    "dim_in not a number": lambda t: [
        "validate", "channel", _edited(t, "identity", _set("dim_in", value="x"))
    ],
    "ppovm d not a number": lambda t: [
        "validate", "ppovm", _edited(t, "pauli-probe", _set("d", value="two"))
    ],
    "shots not a number": lambda t: [
        "tomo", gen(t, "pauli-probe"), "--counts",
        _write(t, "many.json", {**serialize.read_json(_counts_file(t, 1, 1)), "shots": "many"}),
    ],
    "kraus operator larger than dim": lambda t: [
        "validate", "channel",
        _edited(t, "identity", _set("ops", 0, value=serialize.encode_matrix(np.eye(3)))),
    ],
    "choi larger than d": lambda t: [
        "convert", "choi2kraus",
        _write(t, "c.json", {"kind": "choi", "d": 2, "matrix": serialize.encode_matrix(np.eye(3))}),
        "--out", str(t / "kraus.json"),
    ],
    "ppovm without effects": lambda t: [
        "validate", "ppovm", _edited(t, "pauli-probe", _set("effects", value=[]))
    ],
    "channel without kraus operators": lambda t: [
        "validate", "channel", _edited(t, "identity", _set("ops", value=[]))
    ],
    "non-square state": lambda t: ["validate", "state", _non_square(t)],
    "non-square unitary": lambda t: ["discriminate", _non_square(t), _non_square(t)],
    "ppovm after a byte-order mark": lambda t: ["validate", "ppovm", _encoded(t, "utf-8-sig")],
    "ppovm in an 8-bit encoding": lambda t: ["validate", "ppovm", _encoded(t, "cp1253")],
}


def _one_by_one(**keys):
    """A 1 x 1 matrix payload holding 1, with ``keys`` replaced."""
    return {"rows": 1, "cols": 1, "data": [[1.0, 0.0]], **keys}


def _one_outcome(kind, size, **matrix):
    """A povm (kind "dim") or ppovm (kind "d") file of one 1 x 1 effect."""
    return {kind: size, "effects": [{"label": "0", "matrix": _one_by_one(**matrix)}]}


def _counts_with(tmp_path, value, key=None):
    """Counts of 1 shot on a pauli-probe outcome, with ``key`` (or the
    first count) set to ``value``."""
    obj = serialize.read_json(_counts_file(tmp_path, 1, 1))
    if key is None:
        obj["counts"][next(iter(obj["counts"]))] = value
    else:
        obj[key] = value
    return ["tomo", gen(tmp_path, "pauli-probe"), "--counts", _write(tmp_path, "c.json", obj)]


def _validate(kind, obj):
    return lambda t: ["validate", kind, _write(t, "b.json", obj)]


def _kraus(**dims):
    return {"kind": "kraus", "dim_in": 1, "dim_out": 1, "ops": [_one_by_one()], **dims}


# a file holding JSON true where it needs an integer, or a boolean among
# (or as every one of) the numbers of a matrix, and the same file with 1
# and 0 there
BOOLEANS = {
    "ppovm d": lambda v: _validate("ppovm", _one_outcome("d", v)),
    "ppovm rows": lambda v: _validate("ppovm", _one_outcome("d", 1, rows=v)),
    "ppovm cols": lambda v: _validate("ppovm", _one_outcome("d", 1, cols=v)),
    "ppovm data": lambda v: _validate("ppovm", _one_outcome("d", 1, data=[[v, type(v)(0)]])),
    "ppovm data re": lambda v: _validate("ppovm", _one_outcome("d", 1, data=[[v, 0]])),
    "ppovm data im": lambda v: _validate("ppovm", _one_outcome("d", 1, data=[[1, type(v)(0)]])),
    "ppovm data beside a float": lambda v: _validate("ppovm", _one_outcome("d", 1, data=[[v, 0.0]])),
    "povm dim": lambda v: _validate("povm", _one_outcome("dim", v)),
    "dim_in": lambda v: _validate("channel", _kraus(dim_in=v)),
    "dim_out": lambda v: _validate("channel", _kraus(dim_out=v)),
    "shots": lambda v: lambda t: _counts_with(t, v, "shots"),
    "seed": lambda v: lambda t: _counts_with(t, v, "seed"),
    "a count": lambda v: lambda t: _counts_with(t, v),
}


@pytest.mark.parametrize("case", sorted(BOOLEANS))
def test_json_booleans_are_not_numbers(tmp_path, capsys, case):
    code, _, err = run(capsys, *BOOLEANS[case](1)(tmp_path))
    assert code == 0, err
    argv = BOOLEANS[case](True)(tmp_path)
    capsys.readouterr()
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:")


def _product_outcome(label):
    """A product_ppovm file of one 1 x 1 effect labelled ``label``."""
    second = [{"label": label, "matrix": _one_by_one()}]
    return {"kind": "product_ppovm", "d": 1, "first": [_one_by_one()], "second": second}


def _first_label(obj, value):
    obj["effects"][0]["label"] = value
    return obj


# a file whose label (or counts generator) is ``value``
LABELS = {
    "povm": lambda v: _validate("povm", _first_label(_one_outcome("dim", 1), v)),
    "ppovm": lambda v: _validate("ppovm", _first_label(_one_outcome("d", 1), v)),
    "product_ppovm": lambda v: _validate("ppovm", _product_outcome(v)),
    "probs": lambda v: lambda t: [
        "probs", _write(t, "p.json", _product_outcome(v)), gen(t, "identity", "--d", "1")
    ],
    "generator": lambda v: lambda t: _counts_with(t, v, "generator"),
}


@pytest.mark.parametrize("value", [True, None, 5, [1, 2]], ids=["true", "null", "5", "list"])
@pytest.mark.parametrize("case", sorted(LABELS))
def test_labels_that_are_not_strings_are_malformed(tmp_path, capsys, case, value):
    code, _, err = run(capsys, *LABELS[case]("0")(tmp_path))
    assert code == 0, err
    argv = LABELS[case](value)(tmp_path)
    capsys.readouterr()
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "must be a string" in err


def test_json_output_builds_no_table_text(tmp_path, capsys, monkeypatch):
    path = gen(tmp_path, "pauli-probe")
    capsys.readouterr()

    def refuse(*args, **kwargs):
        raise AssertionError("table text built for JSON output")

    monkeypatch.setattr(np, "array2string", refuse)
    code, out, err = run(capsys, "validate", "ppovm", path, "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["ok"] is True


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2(tmp_path, capsys, case):
    argv = MALFORMED[case](tmp_path)
    capsys.readouterr()
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")
    assert out == ""


def _python(*argv, **env):
    # run a fresh interpreter with the imported package on the path and the
    # environment variables ``env`` set
    src = str(pathlib.Path(ppovm.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": path, **env},
    )


def _module_cli(*argv, **env):
    # run the CLI as `python -m ppovm.cli`
    return _python("-m", "ppovm.cli", *argv, **env)


def test_module_entry_point(tmp_path):
    shown = _module_cli("--help")
    assert shown.returncode == 0
    assert shown.stdout.startswith("usage: ppovm")
    missing = str(tmp_path / "missing.json")
    failed = _module_cli("tomo", missing, "--exact", missing)
    assert failed.returncode == 2
    assert failed.stderr.startswith("error:")


def _perturbed_pauli_probe(tmp_path):
    def perturb(obj):
        obj["effects"][0]["matrix"]["data"][0][0] += 1e-8

    return _edited(tmp_path, "pauli-probe", perturb)


def test_tol_reaches_every_ppovm_bound(tmp_path, capsys):
    pp_path = _perturbed_pauli_probe(tmp_path)
    ch_path = gen(tmp_path, "depolarizing", "--p", "0.37")
    capsys.readouterr()
    code, out, _ = run(capsys, "validate", "ppovm", pp_path, "--tol", "1e-6", "--format", "json")
    assert code == 0
    assert json.loads(out)["ok"]
    code, out, err = run(capsys, "probs", pp_path, ch_path, "--tol", "1e-6", "--format", "json")
    assert (code, err) == (0, "")
    assert abs(json.loads(out)["sum"] - 1.0) < 1e-6
    counts = str(tmp_path / "counts.json")
    argv = ["simulate", ch_path, pp_path, "--shots", "1000", "--out", counts, "--tol", "1e-6"]
    code, _, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert sum(serialize.read_json(counts)["counts"].values()) == 1000


def test_default_tol_rejects_perturbed_ppovm(tmp_path, capsys):
    pp_path = _perturbed_pauli_probe(tmp_path)
    ch_path = gen(tmp_path, "identity")
    capsys.readouterr()
    code, out, _ = run(capsys, "validate", "ppovm", pp_path, "--format", "json")
    assert code == 1
    failed = [c["name"] for c in json.loads(out)["checks"] if not c["pass"]]
    assert failed == ["product_normalization_residual", "norm_state_trace_deviation"]
    code, _, err = run(capsys, "probs", pp_path, ch_path)
    assert code == 1
    assert err.startswith("error:")
    counts = str(tmp_path / "counts.json")
    code, _, err = run(capsys, "simulate", ch_path, pp_path, "--shots", "1000", "--out", counts)
    assert code == 1
    assert err.startswith("error:")


def _scaled_identity_channel(tmp_path, scale):
    # sum A^dag A = scale * I
    ch = KrausChannel(2, 2, (np.sqrt(scale) * np.eye(2),))
    return _write(tmp_path, "scaled.json", serialize.encode_channel(ch))


@pytest.mark.parametrize(
    "scale, tol, code", [(1 + 5e-8, "1e-12", 1), (1 + 5e-6, "1e-3", 0)]
)
def test_tol_reaches_simulate_channel_check(tmp_path, capsys, scale, tol, code):
    ch_path = _scaled_identity_channel(tmp_path, scale)
    pp_path = gen(tmp_path, "pauli-probe")
    counts = str(tmp_path / "counts.json")
    capsys.readouterr()
    probs_code, _, _ = run(capsys, "probs", pp_path, ch_path, "--tol", tol)
    assert probs_code == code
    argv = ["simulate", ch_path, pp_path, "--shots", "1000", "--out", counts, "--tol", tol]
    got, _, err = run(capsys, *argv)
    assert got == code
    if code:
        assert err.startswith("error:") and "trace" in err
    else:
        assert sum(serialize.read_json(counts)["counts"].values()) == 1000


def test_tol_reaches_discriminate_plan(tmp_path, capsys):
    z = np.diag([1.0, -1.0]).astype(complex)
    z[0, 1] += 1e-8  # unitary to 1e-8 only
    z_path = _write(tmp_path, "z.json", serialize.encode_matrix(z))
    id_path = _write(tmp_path, "id.json", serialize.encode_matrix(np.eye(2)))
    code, _, err = run(capsys, "discriminate", id_path, z_path)
    assert code == 1
    assert "unitary" in err
    for pair in ((id_path, z_path), (z_path, id_path)):
        code, out, _ = run(capsys, "discriminate", *pair, "--tol", "1e-6", "--format", "json")
        assert code == 0
        assert max(abs(r) for r in json.loads(out)["plan"]["error_rates"]) < 1e-6


def _slightly_negative_choi(tmp_path):
    # the identity channel's Choi matrix with eigenvalue -1e-7 on |01>
    omega = np.zeros((4, 4))
    omega[np.ix_([0, 3], [0, 3])] = 1.0
    omega[1, 1] = -1e-7
    return _write(tmp_path, "choi.json", {"kind": "choi", "d": 2, "matrix": serialize.encode_matrix(omega)})


# every command that reads a channel file, on the Choi file above
CHOI_READERS = {
    "validate channel": lambda t, c: ["validate", "channel", c],
    "convert": lambda t, c: ["convert", "choi2kraus", c, "--out", str(t / "kraus.json")],
    "probs": lambda t, c: ["probs", gen(t, "pauli-probe"), c],
    "simulate": lambda t, c: [
        "simulate", c, gen(t, "pauli-probe"), "--shots", "100", "--out", str(t / "counts.json")
    ],
    "tomo --exact": lambda t, c: ["tomo", gen(t, "pauli-probe"), "--exact", c],
    "tomo --truth": lambda t, c: [
        "tomo", gen(t, "pauli-probe"), "--exact", gen(t, "identity"), "--truth", c
    ],
}


@pytest.mark.parametrize("case", sorted(CHOI_READERS))
def test_tol_reaches_choi_psd_check(tmp_path, capsys, case):
    argv = CHOI_READERS[case](tmp_path, _slightly_negative_choi(tmp_path))
    capsys.readouterr()
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert "Choi operator not PSD" in err
    code, _, err = run(capsys, *argv, "--tol", "1e-5")
    assert code == 0, err


def test_validate_missing_file(tmp_path, capsys):
    code, _, _ = run(capsys, "validate", "state", str(tmp_path / "nope.json"))
    assert code == 2


def test_convert_identity_to_choi(tmp_path, capsys):
    ch_path = gen(tmp_path, "identity")
    out_path = tmp_path / "choi.json"
    code, _, _ = run(capsys, "convert", "kraus2choi", ch_path, "--out", str(out_path))
    assert code == 0
    obj = serialize.read_json(out_path)
    assert obj["kind"] == "choi"
    omega = serialize.decode_matrix(obj["matrix"])
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[0, 3] = expected[3, 0] = expected[3, 3] = 1.0
    assert max_abs(omega - expected) < 1e-12


def test_convert_contraction_choi_to_kraus(tmp_path, capsys):
    ch_path = gen(tmp_path, "contraction")
    choi_path = tmp_path / "choi.json"
    assert main(["convert", "kraus2choi", ch_path, "--out", str(choi_path)]) == 0
    kraus_path = tmp_path / "kraus.json"
    capsys.readouterr()
    code, out, _ = run(
        capsys, "convert", "choi2kraus", str(choi_path), "--out", str(kraus_path), "--format", "json"
    )
    assert code == 0
    obj = serialize.read_json(kraus_path)
    assert obj["kind"] == "kraus"
    assert len(obj["ops"]) == 2
    assert json.loads(out)["round_trip_residual"] < 1e-8


def test_convert_non_tp_warns_but_converts(tmp_path, capsys):
    ch = KrausChannel(2, 2, (np.diag([1.0, 0.5]),))
    path = tmp_path / "cp.json"
    serialize.write_json(path, serialize.encode_channel(ch))
    out_path = tmp_path / "cp_choi.json"
    code, _, err = run(capsys, "convert", "kraus2choi", str(path), "--out", str(out_path))
    assert code == 0
    assert "not trace preserving" in err
    assert out_path.exists()


def test_convert_reports_a_choi_matrix_near_the_float_limit(tmp_path, capsys):
    # the trace-preservation sum overflows to inf, which fails the check:
    # a warning, and no RuntimeWarning
    huge = {"kind": "choi", "d": 2, "matrix": serialize.encode_matrix(1.5e308 * np.eye(4))}
    path = _write(tmp_path, "huge-choi.json", huge)
    argv = ["convert", "choi2kraus", path, "--out", str(tmp_path / "k.json"), "--format", "json"]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "warning: channel is not trace preserving\n")
    assert json.loads(out)["round_trip_residual"] == 0.0


def test_probs_identity_vs_contraction(tmp_path, capsys):
    pp_path = gen(tmp_path, "identity-vs-contraction")
    id_path = gen(tmp_path, "identity")
    contr_path = gen(tmp_path, "contraction")
    capsys.readouterr()
    code, out, _ = run(capsys, "probs", pp_path, id_path, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["probs"]["identity"] == 1.0
    assert payload["probs"]["contraction"] == 0.0
    code, out, _ = run(capsys, "probs", pp_path, contr_path, "--format", "json")
    assert json.loads(out)["probs"] == {"identity": 0.0, "contraction": 1.0}


def test_probs_sum_to_one(tmp_path, capsys):
    pp_path = gen(tmp_path, "pauli-probe")
    ch_path = gen(tmp_path, "depolarizing", "--p", "0.37")
    capsys.readouterr()
    code, out, _ = run(capsys, "probs", pp_path, ch_path, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["probs"]) == 36
    assert abs(payload["sum"] - 1.0) < 1e-9


@pytest.mark.parametrize("command", ["probs", "simulate"])
def test_a_channel_that_changes_dimension_is_named_by_both(tmp_path, capsys, command):
    pp_path = gen(tmp_path, "pauli-probe")
    # a 2 -> 3 isometry, trace preserving, so the dimension check is the one to fail
    iso = KrausChannel(2, 3, (np.eye(3, 2),))
    ch_path = _write(tmp_path, "iso.json", serialize.encode_channel(iso))
    capsys.readouterr()
    if command == "probs":
        argv = ["probs", pp_path, ch_path]
    else:
        argv = ["simulate", ch_path, pp_path, "--shots", "10", "--out", str(tmp_path / "c.json")]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "error: channel maps dimension 2 to 3, expected 2 to 2\n"


def test_simulate_deterministic(tmp_path, capsys):
    pp_path = gen(tmp_path, "identity-vs-contraction")
    ch_path = gen(tmp_path, "identity")
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(["simulate", ch_path, pp_path, "--shots", "1000", "--seed", "5", "--out", str(out_a)]) == 0
    assert main(["simulate", ch_path, pp_path, "--shots", "1000", "--seed", "5", "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    counts = serialize.decode_counts(serialize.read_json(out_a))
    assert counts.counts["identity"] == 1000


def test_simulate_names_an_ill_conditioned_norm_state(tmp_path, capsys):
    # a valid d = 3 process POVM whose norm state has eigenvalues 1 - 2s, s,
    # s with s = 1e-8: realize's pinv congruence breaks completeness
    rng = np.random.default_rng(0)
    u = random_unitary(3, rng)
    a, _ = purification(((u * [1 - 2e-8, 1e-8, 1e-8]) @ u.conj().T).T)
    couple = TestCouple(1.0, projector(a.reshape(-1)), random_povm(9, 10, rng), 3)
    path = _write(tmp_path, "ill.json", serialize.encode_ppovm(build_ppovm([couple], 3)))
    channel = gen(tmp_path, "identity", "--d", "3")
    capsys.readouterr()
    assert run(capsys, "validate", "ppovm", path)[0] == 0
    code, out, err = run(capsys, "simulate", channel, path, "--shots", "100", "--out", str(tmp_path / "c.json"))
    assert (code, out) == (1, "")
    assert err.startswith("error: norm state too ill-conditioned to realize: its smallest kept eigenvalue 1.000e-08 ")
    assert not (tmp_path / "c.json").exists()


def test_tomo_exact_recovers_channel(tmp_path, capsys):
    pp_path = gen(tmp_path, "pauli-probe")
    ch_path = gen(tmp_path, "depolarizing", "--p", "0.3")
    report_path = tmp_path / "report.json"
    capsys.readouterr()
    code, out, _ = run(
        capsys,
        "tomo", pp_path, "--exact", ch_path, "--truth", ch_path,
        "--out", str(report_path), "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ic_complete"] is True
    assert payload["hs_error"] < 1e-7
    report = serialize.read_json(report_path)
    assert report["deficiency"] == 0


def test_tomo_counts_pipeline(tmp_path, capsys):
    pp_path = gen(tmp_path, "pauli-probe")
    ch_path = gen(tmp_path, "depolarizing", "--p", "0.5")
    counts_path = tmp_path / "counts.json"
    assert main(["simulate", ch_path, pp_path, "--shots", "100000", "--seed", "3", "--out", str(counts_path)]) == 0
    capsys.readouterr()
    code, out, _ = run(
        capsys, "tomo", pp_path, "--counts", str(counts_path), "--truth", ch_path, "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["hs_error"] < 0.05


def test_tomo_deficient_warns(tmp_path, capsys):
    rho = np.diag([0.25, 0.75])
    effect = np.kron(rho, np.eye(2))
    obj = {"d": 2, "effects": [{"label": "only", "matrix": serialize.encode_matrix(effect)}]}
    pp_path = tmp_path / "deficient.json"
    serialize.write_json(pp_path, obj)
    ch_path = gen(tmp_path, "identity")
    capsys.readouterr()
    code, out, err = run(capsys, "tomo", str(pp_path), "--exact", ch_path, "--format", "json")
    assert code == 0
    assert "deficiency = 12" in err
    assert json.loads(out)["deficiency"] == 12


def test_tomo_reports_design_condition(tmp_path, capsys):
    pp_path = gen(tmp_path, "pauli-probe")
    ch_path = gen(tmp_path, "identity")
    capsys.readouterr()
    code, out, _ = run(capsys, "tomo", pp_path, "--exact", ch_path, "--format", "json")
    assert code == 0
    assert abs(json.loads(out)["condition"] - np.sqrt(3)) < 1e-12
    code, out, _ = run(capsys, "tomo", pp_path, "--exact", ch_path)
    assert code == 0
    assert "condition: 1.73205080757" in out.splitlines()
    # a design with no informative direction has an infinite condition number
    effect = np.kron(np.diag([0.25, 0.75]), np.eye(2))
    obj = {"d": 2, "effects": [{"label": "only", "matrix": serialize.encode_matrix(effect)}]}
    serialize.write_json(tmp_path / "single.json", obj)
    code, out, _ = run(capsys, "tomo", str(tmp_path / "single.json"), "--exact", ch_path, "--format", "json")
    assert code == 0
    assert json.loads(out)["condition"] == np.inf


@pytest.mark.parametrize("sources", [[], ["--exact", "a.json", "--counts", "b.json"]])
def test_tomo_source_usage_is_checked_before_any_file_is_read(tmp_path, capsys, sources):
    code, out, err = run(capsys, "tomo", str(tmp_path / "missing.json"), *sources)
    assert (code, out) == (2, "")
    assert err.startswith("error: provide exactly one of --exact or --counts")


def test_tomo_counts_label_mismatch(tmp_path, capsys):
    pp_path = gen(tmp_path, "pauli-probe")
    counts_path = tmp_path / "counts.json"
    serialize.write_json(
        counts_path, {"shots": 4, "seed": 0, "counts": {"foo": 1, "bar": 3}}
    )
    code, _, err = run(capsys, "tomo", pp_path, "--counts", str(counts_path))
    assert code == 1
    assert "labels" in err


def _pauli_probe_result():
    pp = pauli_probe_ppovm()
    return tomography.linear_inversion(pp, outcome_probabilities(pp, identity_channel(2)))


def _assert_tomo_outputs_list_the_fields(tmp_path, capsys, result, *argv):
    """``tomo`` with arguments ``argv`` prints the non-array fields of
    ``result`` (a result of the type it reports) as JSON, with ``out``
    when given, writes every field with ``--out``, and prints one table
    line per field that is set, in field order; the JSON and table."""
    names = [f.name for f in dataclasses.fields(result)]
    scalars = [n for n in names if not isinstance(getattr(result, n), np.ndarray)]
    report_path = str(tmp_path / "report.json")
    capsys.readouterr()
    outputs = []
    for extra in (["--out", report_path, "--format", "json"], ["--format", "json"], []):
        code, out, _ = run(capsys, "tomo", *argv, *extra)
        assert code == 0
        outputs.append(out)
    with_out, without_out = json.loads(outputs[0]), json.loads(outputs[1])
    table = outputs[2].splitlines()
    assert set(serialize.read_json(report_path)) == set(names)
    assert set(with_out) == {*scalars, "out"} and set(without_out) == set(scalars)
    shown = [n for n in scalars if with_out[n] is not None]
    assert [line.split(": ")[0] for line in table] == shown
    return with_out, table


@pytest.mark.parametrize("truth", [False, True])
def test_tomo_outputs_list_the_result_fields_in_order(tmp_path, capsys, truth):
    pp_path, ch_path = gen(tmp_path, "pauli-probe"), gen(tmp_path, "depolarizing", "--p", "0.3")
    extra = ["--truth", ch_path] if truth else []
    argv = [pp_path, "--exact", ch_path, *extra]
    result = _pauli_probe_result()
    out, table = _assert_tomo_outputs_list_the_fields(tmp_path, capsys, result, *argv)
    assert (out["hs_error"] is not None) == truth
    assert table[0] == "ic_complete: True" and len(table) == 5 + truth


@dataclasses.dataclass(frozen=True)
class _ResultWithAStep(tomography.TomographyResult):
    last_step: float = 1 / 3


def test_a_new_result_field_reaches_every_tomo_output(tmp_path, capsys, monkeypatch):
    invert = cli.linear_inversion
    monkeypatch.setattr(cli, "linear_inversion", lambda *a: _ResultWithAStep(**vars(invert(*a))))
    pp_path, ch_path = gen(tmp_path, "pauli-probe"), gen(tmp_path, "identity")
    result = _ResultWithAStep(**vars(_pauli_probe_result()))
    argv = [pp_path, "--exact", ch_path, "--truth", ch_path]
    out, table = _assert_tomo_outputs_list_the_fields(tmp_path, capsys, result, *argv)
    assert out["last_step"] == 1 / 3
    assert table[-2:] == [f"hs_error: {out['hs_error']:.12g}", "last_step: 0.333333333333"]
    assert serialize.read_json(tmp_path / "report.json")["last_step"] == 1 / 3


def test_discriminate_identity_vs_pauli_z(tmp_path, capsys):
    u_path = gen(tmp_path, "pauli-z")
    id_path = tmp_path / "id.json"
    serialize.write_json(id_path, serialize.encode_matrix(np.eye(2)))
    capsys.readouterr()
    code, out, _ = run(capsys, "discriminate", str(id_path), u_path, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["overlap"] == 0.0
    assert payload["zero_in_hull"] is True
    assert payload["necessary"] is True
    assert payload["min_copies"] == 1
    assert max(abs(r) for r in payload["plan"]["error_rates"]) < 1e-9


def test_discriminate_phase_gate_min_copies(tmp_path, capsys):
    id_path = tmp_path / "id.json"
    serialize.write_json(id_path, serialize.encode_matrix(np.eye(2)))
    v_path = gen(tmp_path, "phase", "--angle", str(np.pi / 5))
    capsys.readouterr()
    code, out, _ = run(capsys, "discriminate", str(id_path), v_path, "--copies", "10", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["zero_in_hull"] is False
    assert payload["plan"] is None
    assert payload["min_copies"] == 5


def test_consecutive_main_calls_share_no_arguments(tmp_path, capsys):
    # the parser is built once per process; each call starts from its defaults
    id_path = tmp_path / "id.json"
    serialize.write_json(id_path, serialize.encode_matrix(np.eye(2)))
    v_path = gen(tmp_path, "phase", "--angle", str(np.pi / 5))
    capsys.readouterr()
    argv = ["discriminate", str(id_path), v_path, "--format", "json"]
    assert json.loads(run(capsys, *argv, "--copies", "10")[1])["min_copies"] == 5
    assert json.loads(run(capsys, *argv)[1])["min_copies"] is None
    pauli_z = gen(tmp_path, "pauli-z")
    capsys.readouterr()
    argv = ["discriminate", str(id_path), pauli_z, "--format", "json"]
    assert json.loads(run(capsys, *argv)[1])["min_copies"] == 1

    assert main(["gen", "depolarizing", "--d", "3", "--out", str(tmp_path / "d3.json")]) == 0
    assert main(["gen", "depolarizing", "--out", str(tmp_path / "d2.json")]) == 0
    assert serialize.read_json(tmp_path / "d3.json")["dim_in"] == 3
    assert serialize.read_json(tmp_path / "d2.json")["dim_in"] == 2


def test_discriminate_identical(tmp_path, capsys):
    id_path = tmp_path / "id.json"
    serialize.write_json(id_path, serialize.encode_matrix(np.eye(2)))
    code, out, _ = run(capsys, "discriminate", str(id_path), str(id_path), "--copies", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["always_indistinguishable"] is True
    assert payload["min_copies"] is None


def test_discriminate_decomposes_the_pair_once(tmp_path, capsys, monkeypatch):
    # U and V are each checked once; the one unitary_eig of U^dag V checks it
    rng = np.random.default_rng(12)
    paths = []
    for name in ("u", "v"):
        paths.append(str(tmp_path / f"{name}.json"))
        serialize.write_json(paths[-1], serialize.encode_matrix(random_unitary(8, rng)))
    calls = {}
    for name in ("unitary_eig", "check_unitary"):
        def counted(*args, _name=name, _original=getattr(discrimination, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(discrimination, name, counted)
    for extra in ([], ["--copies", "3"]):
        calls.update(unitary_eig=0, check_unitary=0)
        code, out, _ = run(capsys, "discriminate", *paths, "--format", "json", *extra)
        assert code == 0
        assert json.loads(out)["plan"] is not None
        assert calls == {"unitary_eig": 1, "check_unitary": 3}


def _matrix_files(tmp_path, **mats):
    return [
        _write(tmp_path, f"{name}.json", serialize.encode_matrix(m)) for name, m in mats.items()
    ]


def _no_dense_plan(monkeypatch):
    def dense(plan):
        raise AssertionError("the plan's d^2 x d^2 process POVM was built")

    monkeypatch.setattr(discrimination.DiscriminationPlan, "ppovm", property(dense))


def test_discriminate_writes_the_plan_in_product_form(tmp_path, capsys, monkeypatch):
    # the dense ppovm key alone held two 256 x 256 matrices: 10.6 MB of JSON
    rng = np.random.default_rng(16)
    paths = _matrix_files(tmp_path, u=random_unitary(16, rng), v=random_unitary(16, rng))
    _no_dense_plan(monkeypatch)
    code, out, err = run(capsys, "discriminate", *paths, "--format", "json")
    assert (code, err) == (0, "")
    assert len(out.encode()) < 200_000
    plan = json.loads(out)["plan"]
    ppovm = plan["ppovm"]
    assert (ppovm["kind"], ppovm["d"], len(ppovm["first"])) == ("product_ppovm", 16, 1)
    assert ppovm["second"] == plan["povm"]


def test_discriminate_at_d_128(tmp_path, capsys, monkeypatch):
    # one 16384 x 16384 complex matrix is 4 GiB; the output is O(d^2)
    d = 128
    phases = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    paths = _matrix_files(tmp_path, u=np.eye(d), v=phases)
    _no_dense_plan(monkeypatch)
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "discriminate", *paths, "--format", "json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, err) == (0, "")
    assert json.loads(out)["plan"] is not None
    assert len(out.encode()) < 4_000_000
    assert peak < 2**27


def test_product_plan_file_reads_like_its_dense_equivalent(tmp_path, capsys):
    identity, pauli_z = _matrix_files(tmp_path, identity=np.eye(2), pauli_z=PAULI_Z)
    code, out, _ = run(capsys, "discriminate", identity, pauli_z, "--format", "json")
    assert code == 0
    product = _write(tmp_path, "product.json", json.loads(out)["plan"]["ppovm"])
    plan = discrimination.pair_report(np.eye(2), PAULI_Z).plan
    dense = _write(tmp_path, "dense.json", serialize.encode_ppovm(plan.ppovm))
    channel = gen(tmp_path, "depolarizing", "--p", "0.37")
    capsys.readouterr()
    validated, probs = [], []
    for path in (product, dense):
        code, out, err = run(capsys, "validate", "ppovm", path, "--format", "json")
        assert (code, err) == (0, "")
        validated.append(json.loads(out))
        code, out, err = run(capsys, "probs", path, channel, "--format", "json")
        assert (code, err) == (0, "")
        probs.append(json.loads(out)["probs"])
        counts = str(tmp_path / "counts.json")
        argv = ["simulate", channel, path, "--shots", "100", "--out", counts]
        assert run(capsys, *argv)[0] == 0
        assert run(capsys, "tomo", path, "--counts", counts)[0] == 0
    a, b = validated
    assert a["n_effects"] == b["n_effects"] == 2
    assert [(c["name"], c["pass"]) for c in a["checks"]] == [
        (c["name"], c["pass"]) for c in b["checks"]
    ]
    # the two stacks differ by 1.1e-16 an entry, which moves an eigenvalue
    # near 1 of a 4 x 4 effect by up to 5 ulps (1.1e-15)
    assert max(abs(x["value"] - y["value"]) for x, y in zip(a["checks"], b["checks"])) <= 2e-15
    assert probs[0].keys() == probs[1].keys() == {"ch1", "ch2"}
    assert max(abs(probs[0][k] - probs[1][k]) for k in probs[0]) <= 1e-14


PLUS = projector(np.ones(2) / np.sqrt(2))


def _product_file(**keys):
    """A d = 2 product file {P^T (x) P, P^T (x) (I - P)}, P = |+><+|, with
    ``keys`` replaced."""
    obj = serialize.encode_product_ppovm([PLUS.T], [PLUS, np.eye(2) - PLUS], ["a", "b"])
    return {**obj, **keys}


# case -> (the replaced keys, the message)
PRODUCT_MALFORMED = {
    "unknown kind": ({"kind": "product"}, "unknown process POVM kind 'product'"),
    "first factor of the wrong shape": (
        {"first": [serialize.encode_matrix(np.eye(4))]},
        "first factor 0 is 4x4 with 16 entries, not 2x2",
    ),
    "second factor of the wrong shape": (
        {"second": [{"label": "a", "matrix": serialize.encode_matrix(np.eye(3))}]},
        "second factor 0 is 3x3 with 9 entries, not 2x2",
    ),
    "no first factor": ({"first": []}, "need one or more first factors"),
    "no second factor": ({"second": []}, "need one or more second factors"),
    "repeated second label": (
        {"second": serialize.encode_effects([PLUS, np.eye(2) - PLUS], ["a", "a"])},
        "repeated effect label 'a'",
    ),
}


@pytest.mark.parametrize("case", sorted(PRODUCT_MALFORMED))
def test_malformed_product_ppovm_exits_2(tmp_path, capsys, case):
    assert run(capsys, "validate", "ppovm", _write(tmp_path, "ok.json", _product_file()))[0] == 0
    keys, message = PRODUCT_MALFORMED[case]
    path = _write(tmp_path, "bad.json", _product_file(**keys))
    code, out, err = run(capsys, "validate", "ppovm", path)
    assert (code, out, err) == (2, "", f"error: {path}: {message}\n")


# (command, the file's JSON value, the message after "error: <path>: ");
# a tomo case reads the file as its --counts
CONTAINER_MALFORMED = {
    "effects object": ("validate ppovm", {"d": 2, "effects": {"a": 1}}, "effects must be a JSON array, got an object"),
    "effects string": ("validate ppovm", {"d": 2, "effects": "abc"}, "effects must be a JSON array, got a string"),
    "effect number": ("validate ppovm", {"d": 2, "effects": [1]}, "effect 0 must be a JSON object, got a number"),
    "data null": (
        "validate ppovm",
        {"d": 1, "effects": [{"label": "a", "matrix": {"rows": 1, "cols": 1, "data": None}}]},
        "effect 0 data must be a JSON array, got null",
    ),
    "entry number": (
        "validate ppovm",
        {"d": 1, "effects": [{"label": "a", "matrix": {"rows": 1, "cols": 1, "data": [1]}}]},
        "a matrix entry is not a [re, im] pair",
    ),
    "ppovm list": ("validate ppovm", [1], "a process POVM must be a JSON object, got an array"),
    "state list": ("validate state", [[1, 0]], "a matrix must be a JSON object, got an array"),
    "counts list": ("tomo", [1], "a counts record must be a JSON object, got an array"),
    "counts field list": (
        "tomo", {"shots": 1, "seed": 0, "counts": [1]}, "counts must be a JSON object, got an array"
    ),
}


@pytest.mark.parametrize("case", sorted(CONTAINER_MALFORMED))
def test_malformed_json_containers_exit_2_naming_the_field(tmp_path, capsys, case):
    command, obj, message = CONTAINER_MALFORMED[case]
    path = _write(tmp_path, "bad.json", obj)
    if command == "tomo":
        argv = ["tomo", gen(tmp_path, "pauli-probe"), "--counts", path]
        capsys.readouterr()
    else:
        argv = [*command.split(), path]
    assert run(capsys, *argv) == (2, "", f"error: {path}: {message}\n")


@pytest.mark.parametrize(
    "exc, line",
    [
        (MemoryError("Unable to allocate 8 GiB"), "error: out of memory: Unable to allocate 8 GiB"),
        (MemoryError(), "error: out of memory"),
    ],
)
@pytest.mark.parametrize("command", ["validate", "probs"])
def test_memory_error_exits_2(tmp_path, capsys, monkeypatch, command, exc, line):
    # such as the dense stack of a large product file; nothing is allocated
    pp, channel = gen(tmp_path, "pauli-probe"), gen(tmp_path, "identity")
    capsys.readouterr()

    def exhausted(obj):
        raise exc

    monkeypatch.setattr(serialize, "decode_ppovm_effects", exhausted)
    argv = ["validate", "ppovm", pp] if command == "validate" else ["probs", pp, channel]
    assert run(capsys, *argv) == (2, "", line + "\n")


def _counted_decoder(monkeypatch):
    """Weak references to the stacks ``decode_ppovm_effects`` returns from
    now on, one per call."""
    decode, stacks = serialize.decode_ppovm_effects, []

    def counted(obj):
        found = decode(obj)
        stacks.append(weakref.ref(found[0]))
        return found

    monkeypatch.setattr(serialize, "decode_ppovm_effects", counted)
    return stacks


def test_every_ppovm_reader_parses_a_file_once(tmp_path, capsys, monkeypatch):
    pp, channel = gen(tmp_path, "pauli-probe"), gen(tmp_path, "depolarizing", "--p", "0.3")
    counts = str(tmp_path / "counts.json")
    stacks = _counted_decoder(monkeypatch)
    for argv in (
        ["validate", "ppovm", pp],
        ["probs", pp, channel],
        ["simulate", channel, pp, "--shots", "1000", "--out", counts],
        ["tomo", pp, "--counts", counts, "--truth", channel],
        ["tomo", pp, "--exact", channel],
    ):
        assert main(argv) == 0, argv
    assert len(stacks) == 1


def test_a_rewritten_ppovm_file_is_parsed_again(tmp_path, capsys, monkeypatch):
    path = pathlib.Path(gen(tmp_path, "pauli-probe"))
    stacks = _counted_decoder(monkeypatch)
    assert run(capsys, "validate", "ppovm", str(path))[0] == 0
    text = path.read_text()
    edited = text.replace("0.013888888888888874", "0.513888888888888874", 1)
    assert len(edited) == len(text) and edited != text
    path.write_text(edited)
    code, out, _ = run(capsys, "validate", "ppovm", str(path))
    assert (code, out.splitlines()[-1]) == (1, "INVALID")
    assert len(stacks) == 2


@pytest.mark.parametrize("first", ["1e-6", None])
def test_tol_reaches_every_check_on_a_memo_hit(tmp_path, capsys, first):
    pp_path, ch_path = _perturbed_pauli_probe(tmp_path), gen(tmp_path, "identity")
    # counts with the perturbed file's labels, which any tol can read back
    counts, simulated = str(tmp_path / "counts.json"), str(tmp_path / "simulated.json")
    argv = ["simulate", ch_path, gen(tmp_path, "pauli-probe"), "--shots", "1000", "--out", counts]
    assert run(capsys, *argv)[0] == 0
    tols = ["1e-6", None] if first else [None, "1e-6"]
    for tol in tols * 2:
        extra = ["--tol", tol] if tol else []
        assert run(capsys, "validate", "ppovm", pp_path, *extra)[0] == (0 if tol else 1)
        assert run(capsys, "probs", pp_path, ch_path, *extra)[0] == (0 if tol else 1)
        # neither makes a sum check of its own that the perturbation fails
        argv = ["simulate", ch_path, pp_path, "--shots", "1000", "--out", simulated, *extra]
        assert run(capsys, *argv)[0] == (0 if tol else 1)
        assert run(capsys, "tomo", pp_path, "--counts", counts, *extra)[0] == (0 if tol else 1)


def test_a_malformed_ppovm_file_is_not_kept(tmp_path, capsys):
    path = tmp_path / "pp.json"
    path.write_text("{not json")
    for _ in range(2):
        code, out, err = run(capsys, "validate", "ppovm", str(path))
        assert (code, out) == (2, "") and err.startswith(f"error: {path}: not a JSON file")
    path.write_bytes(pathlib.Path(gen(tmp_path, "pauli-probe")).read_bytes())
    assert run(capsys, "validate", "ppovm", str(path))[0] == 0


def test_at_most_two_ppovm_stacks_are_kept(tmp_path, capsys, monkeypatch):
    paths = [gen(tmp_path, name) for name in ("pauli-probe", "six-state", "identity-vs-contraction")]
    stacks = _counted_decoder(monkeypatch)
    for path in paths:
        assert main(["validate", "ppovm", path]) == 0
    gc.collect()
    assert [ref() is not None for ref in stacks] == [False, True, True]
    # the two most recently used are hits; the first is parsed again
    for path in (paths[1], paths[2], paths[0]):
        assert main(["validate", "ppovm", path]) == 0
    assert len(stacks) == 4


def test_a_ppovm_file_above_the_size_bound_is_not_kept(tmp_path, capsys, monkeypatch):
    # the Pauli probe's 30 kB text and 9 kB stack, against a 30 kB bound
    path = gen(tmp_path, "pauli-probe")
    monkeypatch.setattr(cli, "_PPOVM_BYTES", 30_000)
    stacks = _counted_decoder(monkeypatch)
    for _ in range(2):
        assert main(["validate", "ppovm", path]) == 0
    gc.collect()
    assert [ref() is not None for ref in stacks] == [False, False]
    assert cli._ppovm_memo == []


_STEPS = {
    "decode": (serialize, "decode_ppovm_effects"),
    "validate": (cli, "validate_ppovm"),
    "realize": (cli, "realize"),
    "factorize": (tomography, "_factorize"),
    "report": (cli, "ppovm_checks"),
    "dumps": (serialize, "dumps"),
}


def _counted_steps(monkeypatch, *steps):
    """Calls, from now on, of ``steps``: by default those the memo keeps
    the results of (parsing a process-POVM file, validating, realizing and
    factorizing its design, and computing validate's checks); "dumps"
    counts each JSON text laid out."""
    calls = dict.fromkeys(steps or ["decode", "validate", "realize", "factorize", "report"], 0)

    def count(module, name, step):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[step] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for step in calls:
        count(*_STEPS[step], step)
    return calls


def _mub_scheme(tmp_path):
    """A d = 3 scheme file of 144 effects: a maximally entangled probe, and
    both qutrits measured in one of the four mutually unbiased bases."""
    pp = build_ppovm([mub_probe_couple(3)], 3)
    return _write(tmp_path, "mub3.json", serialize.encode_ppovm(pp))


def _cli_pass(tmp_path, capsys, pp, channel, *extra):
    """Outputs of one validate, probs, simulate and tomo pass over ``pp``:
    each command's (exit code, stdout, stderr), then the bytes of the files
    it wrote."""
    counts, report = tmp_path / "counts.json", tmp_path / "report.json"
    outputs = [
        run(capsys, *argv, *extra)
        for argv in (
            ["validate", "ppovm", pp],
            ["probs", pp, channel],
            ["simulate", channel, pp, "--shots", "1000", "--seed", "7", "--out", str(counts)],
            ["tomo", pp, "--counts", str(counts), "--truth", channel, "--out", str(report)],
        )
    ]
    return outputs, counts.read_bytes(), report.read_bytes()


def test_one_pass_validates_realizes_and_factorizes_once(tmp_path, capsys, monkeypatch):
    pp, channel = gen(tmp_path, "pauli-probe"), gen(tmp_path, "depolarizing", "--p", "0.3")
    calls = _counted_steps(monkeypatch)
    for _ in range(2):
        outputs = _cli_pass(tmp_path, capsys, pp, channel)[0]
        assert [code for code, _, _ in outputs] == [0, 0, 0, 0]
    assert calls == {"decode": 1, "validate": 1, "realize": 1, "factorize": 1, "report": 1}


def test_a_changed_tol_validates_and_realizes_again(tmp_path, capsys, monkeypatch):
    pp, channel = gen(tmp_path, "pauli-probe"), gen(tmp_path, "identity")
    counts = str(tmp_path / "counts.json")
    calls = _counted_steps(monkeypatch)
    for tol in ["1e-9", "1e-8", "1e-8", "1e-9"]:
        assert main(["simulate", channel, pp, "--shots", "10", "--out", counts, "--tol", tol]) == 0
        assert main(["probs", pp, channel, "--tol", tol]) == 0
    assert calls == {"decode": 1, "validate": 3, "realize": 3, "factorize": 0, "report": 0}


def test_a_changed_tol_reports_again(tmp_path, capsys, monkeypatch):
    pp = _perturbed_pauli_probe(tmp_path)
    capsys.readouterr()
    calls = _counted_steps(monkeypatch)
    shown = {}
    for tol in ["1e-9", "1e-6", "1e-6", "1e-9"]:
        code, out, _ = run(capsys, "validate", "ppovm", pp, "--tol", tol, "--format", "json")
        assert shown.setdefault(tol, (code, out)) == (code, out)
    assert (shown["1e-9"][0], shown["1e-6"][0]) == (1, 0)
    assert calls == {"decode": 1, "validate": 0, "realize": 0, "factorize": 0, "report": 3}


def test_a_memo_hit_writes_the_kept_report_text(tmp_path, capsys, monkeypatch):
    pp = _perturbed_pauli_probe(tmp_path)
    capsys.readouterr()
    cold = {}
    for tol in ["1e-9", "1e-6"]:
        for fmt in ["json", "table"]:
            cli._ppovm_memo.clear()
            cold[tol, fmt] = run(capsys, "validate", "ppovm", pp, "--tol", tol, "--format", fmt)
    assert (cold["1e-9", "json"][0], cold["1e-6", "json"][0]) == (1, 0)
    calls = _counted_steps(monkeypatch, "report", "dumps")
    for tol in ["1e-9", "1e-6", "1e-6", "1e-9"]:
        for fmt in ["json", "table"]:
            code, out, err = run(capsys, "validate", "ppovm", pp, "--tol", tol, "--format", fmt)
            assert (code, out, err) == cold[tol, fmt]
    # each tol's checks and text are computed once, and only at a change of tol
    assert calls == {"report": 3, "dumps": 3}


def test_a_failed_report_is_kept_but_no_process_povm(tmp_path, capsys, monkeypatch):
    pp = _perturbed_pauli_probe(tmp_path)
    calls = _counted_steps(monkeypatch)
    for _ in range(2):
        code, out, _ = run(capsys, "validate", "ppovm", pp)
        assert code == 1 and out.endswith("INVALID\n")
    [kept] = cli._ppovm_memo
    assert not {"ppovm", "realization"} & vars(kept).keys()
    assert not kept.report[1].flags.writeable
    assert calls["report"] == 1


def test_a_failed_validation_keeps_no_process_povm(tmp_path, capsys, monkeypatch):
    pp, channel = _perturbed_pauli_probe(tmp_path), gen(tmp_path, "identity")
    calls = _counted_steps(monkeypatch)
    for _ in range(2):
        code, _, err = run(capsys, "probs", pp, channel)
        assert code == 1 and err.startswith("error: product_normalization_residual")
    [kept] = cli._ppovm_memo
    assert not {"ppovm", "realization"} & vars(kept).keys()
    assert (calls["decode"], calls["validate"]) == (1, 2)


@pytest.mark.parametrize("scheme", ["pauli-probe", "mub3"])
def test_a_memo_hit_writes_the_bytes_of_a_cold_run(tmp_path, capsys, scheme):
    if scheme == "mub3":
        pp = _mub_scheme(tmp_path)
        channel = _write(tmp_path, "ch3.json", serialize.encode_channel(
            random_channel(3, np.random.default_rng(5))
        ))
    else:
        pp, channel = gen(tmp_path, scheme), gen(tmp_path, "depolarizing", "--p", "0.3")
    capsys.readouterr()
    for extra in (["--format", "json"], []):
        cli._ppovm_memo.clear()
        cold = _cli_pass(tmp_path, capsys, pp, channel, *extra)
        assert [code for code, _, _ in cold[0]] == [0, 0, 0, 0]
        assert len(cli._ppovm_memo) == 1 and cli._ppovm_memo[0].realization is not None
        assert _cli_pass(tmp_path, capsys, pp, channel, *extra) == cold


def test_a_ppovm_whose_factorization_can_exceed_the_bound_is_not_kept(tmp_path, capsys):
    # a d = 8 plan's two 64 x 64 effects take 131 kB, but a dense Gram
    # eigenbasis of side 8^4 - 8^2 would take 130 MB
    d = 8
    u = _write(tmp_path, "u.json", serialize.encode_matrix(np.eye(d)))
    v = _write(tmp_path, "v.json", serialize.encode_matrix(np.diag(np.exp(2j * np.pi * np.arange(d) / d))))
    code, out, _ = run(capsys, "discriminate", u, v, "--format", "json")
    assert code == 0
    plan = _write(tmp_path, "plan.json", json.loads(out)["plan"]["ppovm"])
    assert run(capsys, "validate", "ppovm", plan)[0] == 0
    assert cli._ppovm_memo == []
    # the d = 3 scheme's 0.7 MB text with its worst case is kept
    assert run(capsys, "validate", "ppovm", _mub_scheme(tmp_path))[0] == 0
    [kept] = cli._ppovm_memo
    assert kept.bound() <= cli._PPOVM_BYTES


# reads the traced memory of one kept report in a fresh interpreter: a
# process that already ran other tests hands out float and tuple objects
# from free lists that tracemalloc never sees, and reads less
_REPORT_MEMORY = """
import pathlib, sys, tracemalloc
from ppovm import cli, serialize
raw = pathlib.Path(sys.argv[1]).read_bytes()
kept = cli._Kept(raw, serialize.decode_ppovm_effects(serialize.parse_json(raw)), 1e-9)
tracemalloc.start()
before = tracemalloc.get_traced_memory()[0]
kept.report, kept.text
print(tracemalloc.get_traced_memory()[0] - before)
"""


def test_the_bound_counts_the_kept_report(tmp_path):
    path = _mub_scheme(tmp_path)
    raw = pathlib.Path(path).read_bytes()
    kept = cli._Kept(raw, serialize.decode_ppovm_effects(serialize.parse_json(raw)), 1e-9)
    stack = kept.decoded[0]
    n, side = len(stack), stack.shape[1]
    checks, rho = kept.report
    assert len(checks) == 3 * n + 3 and rho.shape == (3, 3)
    assert len(json.loads(kept.text)["checks"]) == 3 * n + 3
    shown = _python("-c", _REPORT_MEMORY, path)
    assert (shown.returncode, shown.stderr) == (0, "")
    held = int(shown.stdout)
    report = cli._CHECK_BYTES * (3 * n + 3) + 16 * side
    assert held <= report
    rest = len(raw) + 2 * stack.nbytes + 8 * (side**2 - side) * (n + side**2 - side)
    assert kept.bound() >= rest + report


def test_emptying_the_memo_forgets_every_kept_step(tmp_path, capsys, monkeypatch):
    assert cli._ppovm_memo == []  # emptied by conftest before every test
    pp, channel = gen(tmp_path, "pauli-probe"), gen(tmp_path, "depolarizing", "--p", "0.3")
    calls = _counted_steps(monkeypatch)
    _cli_pass(tmp_path, capsys, pp, channel)
    cli._ppovm_memo.clear()  # what conftest's fixture does
    _cli_pass(tmp_path, capsys, pp, channel)
    assert calls == {"decode": 2, "validate": 2, "realize": 2, "factorize": 2, "report": 2}


def test_a_utf8_file_reads_whatever_the_locale(tmp_path):
    pp, channel = _encoded(tmp_path, "utf-8"), gen(tmp_path, "identity")
    shown = _module_cli(
        "probs", pp, channel, "--format", "json",
        LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
    )
    assert (shown.returncode, shown.stderr) == (0, "")
    assert "\u03b8" in json.loads(shown.stdout)["probs"]
    # table text the locale cannot encode is written with escapes
    shown = _module_cli("probs", pp, channel, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    assert (shown.returncode, shown.stderr) == (0, "")
    lines = shown.stdout.splitlines()
    assert (len(lines), lines[0], lines[-1]) == (37, "\\u03b8\t0.0555555555556", "sum\t1")


def test_discriminate_rejects_non_unitary(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    serialize.write_json(bad, serialize.encode_matrix(np.diag([1.0, 0.5])))
    code, _, err = run(capsys, "discriminate", str(bad), str(bad))
    assert code == 1
    assert "unitary" in err


def test_json_output_byte_identical(tmp_path, capsys):
    pp_path = gen(tmp_path, "pauli-probe")
    ch_path = gen(tmp_path, "identity")
    capsys.readouterr()
    _, out_a, _ = run(capsys, "probs", pp_path, ch_path, "--format", "json")
    _, out_b, _ = run(capsys, "probs", pp_path, ch_path, "--format", "json")
    assert out_a == out_b


def test_gen_unknown_name(tmp_path, capsys):
    code, _, err = run(capsys, "gen", "nonsense", "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert "unknown generator" in err


def test_convert_non_psd_choi_is_domain_failure(tmp_path, capsys):
    obj = {"kind": "choi", "d": 2, "matrix": serialize.encode_matrix(np.diag([1.0, 1.0, 1.0, -1.0]))}
    path = tmp_path / "bad_choi.json"
    serialize.write_json(path, obj)
    code, _, err = run(capsys, "convert", "choi2kraus", str(path), "--out", str(tmp_path / "o.json"))
    assert code == 1
    assert "PSD" in err


def test_unknown_channel_kind_is_parse_failure(tmp_path, capsys):
    path = tmp_path / "weird.json"
    serialize.write_json(path, {"kind": "stinespring"})
    code, _, _ = run(capsys, "convert", "kraus2choi", str(path), "--out", str(tmp_path / "o.json"))
    assert code == 2


def test_validate_non_hermitian_ppovm_effect_fails(tmp_path, capsys):
    m = np.kron(projector(ket(1, 2)), np.eye(2)).astype(complex)
    m[0, 1] += 0.5j  # break hermiticity
    obj = {"d": 2, "effects": [{"label": "x", "matrix": serialize.encode_matrix(m)}]}
    path = tmp_path / "nonherm.json"
    serialize.write_json(path, obj)
    code, out, _ = run(capsys, "validate", "ppovm", str(path))
    assert code == 1
    assert "hermiticity_residual" in out


def _command_argv(t, command):
    """A valid invocation of each file-reading command, exit 0 at the default --tol."""
    pp, ch = gen(t, "pauli-probe"), gen(t, "depolarizing")
    u, v = gen(t, "identity-matrix"), gen(t, "pauli-z")
    counts = str(t / "counts.json")
    return {
        "validate": ["validate", "ppovm", pp],
        "probs": ["probs", pp, ch],
        "tomo": ["tomo", pp, "--exact", ch],
        "simulate": ["simulate", ch, pp, "--shots", "100", "--out", counts],
        "discriminate": ["discriminate", u, v],
    }[command]


@pytest.mark.parametrize("command", ["validate", "probs", "tomo", "simulate", "discriminate"])
@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1e-9"])
def test_tol_must_be_positive_and_finite(tmp_path, capsys, command, tol):
    argv = _command_argv(tmp_path, command)
    assert main(argv) == 0
    capsys.readouterr()
    code, out, err = run(capsys, *argv, f"--tol={tol}")
    assert (code, out) == (2, "")
    assert err.startswith("error: --tol ")


@pytest.mark.parametrize(
    "name, d",
    [("identity", "0"), ("contraction", "-2"), ("identity-matrix", "0"), ("depolarizing", "-1")]
    + [(name, "3") for name in ["pauli-x", "pauli-y", "pauli-z", "hadamard", "phase"]]
    + [(name, "3") for name in ["pauli-probe", "six-state", "identity-vs-contraction"]]
    + [("pauli-probe", "1")],
)
def test_gen_rejects_unusable_d(tmp_path, capsys, name, d):
    out_path = tmp_path / "out.json"
    code, out, err = run(capsys, "gen", name, "--d", d, "--out", str(out_path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: gen {name}") and "--d" in err
    assert not out_path.exists()


@pytest.mark.parametrize("name", ["identity", "contraction", "identity-matrix", "depolarizing"])
def test_gen_d_one_is_readable(tmp_path, capsys, name):
    path = gen(tmp_path, name, "--d", "1")
    kind = "state" if name == "identity-matrix" else "channel"
    capsys.readouterr()
    assert run(capsys, "validate", kind, path)[0] == 0


def test_integer_options_out_of_range_are_usage_errors(tmp_path, capsys):
    ch, pp = gen(tmp_path, "identity"), gen(tmp_path, "pauli-probe")
    u, v = gen(tmp_path, "identity-matrix"), gen(tmp_path, "pauli-z")
    counts = str(tmp_path / "counts.json")
    cases = [
        (["simulate", ch, pp, "--shots", "0", "--out", counts], "--shots must be at least"),
        (["simulate", ch, pp, "--shots", str(10**20), "--out", counts], "--shots must be at most"),
        (["simulate", ch, pp, "--shots", str(2**63), "--out", counts], "--shots must be at most"),
        (["simulate", ch, pp, "--shots", "10", "--seed", "-1", "--out", counts], "--seed must be at least"),
        (["discriminate", u, v, "--copies", "0"], "--copies must be at least"),
        (["discriminate", u, u, "--copies", "0"], "--copies must be at least"),
    ]
    capsys.readouterr()
    for argv, message in cases:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}")
    assert not pathlib.Path(counts).exists()
    assert run(capsys, "simulate", ch, pp, "--shots", "1", "--seed", "0", "--out", counts)[0] == 0
    assert run(capsys, "simulate", ch, pp, "--shots", str(2**63 - 1), "--out", counts)[0] == 0
    assert run(capsys, "discriminate", u, v, "--copies", "1")[0] == 0


@pytest.mark.parametrize(
    "name, option, value",
    [
        ("phase", "--angle", "nan"),
        ("phase", "--angle", "inf"),
        ("phase", "--angle=-inf", None),
        ("depolarizing", "--p", "2"),
        ("depolarizing", "--p", "-0.1"),
        ("depolarizing", "--p", "nan"),
    ],
)
def test_gen_float_options_out_of_range_are_usage_errors(tmp_path, capsys, name, option, value):
    # a negative value goes as --option=value, which argparse cannot take for a flag
    out_path = tmp_path / "out.json"
    argv = [option] if value is None else [option, value]
    code, out, err = run(capsys, "gen", name, *argv, "--out", str(out_path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {option.split('=')[0]} must be")
    assert not out_path.exists()


@pytest.mark.parametrize("name, option", [("phase", "--angle=-7.5"), ("depolarizing", "--p=0"), ("depolarizing", "--p=1")])
def test_gen_float_options_in_range_are_readable(tmp_path, capsys, name, option):
    path = gen(tmp_path, name, option)
    capsys.readouterr()
    argv = ["discriminate", path, path] if name == "phase" else ["validate", "channel", path]
    assert run(capsys, *argv)[0] == 0


@pytest.mark.parametrize("joined", [True, False])
@pytest.mark.parametrize(
    "argv, message",
    [
        (["discriminate", "U", "U", "--tol", "-1e-9"], "--tol must be positive"),
        (["validate", "ppovm", "P", "--tol", "-inf"], "--tol must be positive"),
        (["tomo", "P", "--exact", "C", "--tol", "-nan"], "--tol must be positive"),
        (["gen", "phase", "--angle", "-inf"], "--angle must be finite"),
        (["gen", "phase", "--ang", "-inf"], "--angle must be finite"),  # an abbreviation
        (["gen", "depolarizing", "--p", "-1e-3"], "--p must be in [0, 1]"),
    ],
)
def test_negative_float_values_reach_the_range_checks(tmp_path, capsys, argv, message, joined):
    # argparse alone reads "-1e-9" or "-inf" after a space as an option, not a value
    files = {"U": gen(tmp_path, "pauli-z"), "P": gen(tmp_path, "pauli-probe"),
             "C": gen(tmp_path, "identity")}
    argv = [files.get(token, token) for token in argv]
    if joined:
        argv[-2:] = ["=".join(argv[-2:])]
    out_path = tmp_path / "out.json"
    if argv[0] == "gen":
        argv += ["--out", str(out_path)]
    capsys.readouterr()
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}")
    assert not out_path.exists()


@pytest.mark.parametrize("joined", [True, False])
@pytest.mark.parametrize("value", ["-7.5", "-1e-3", "-0"])
def test_negative_angle_is_readable_in_both_spellings(tmp_path, capsys, value, joined):
    argv = [f"--angle={value}"] if joined else ["--angle", value]
    path = gen(tmp_path, "phase", *argv)
    capsys.readouterr()
    assert run(capsys, "discriminate", path, path)[0] == 0


def test_float_option_keeps_a_following_non_number(tmp_path, capsys):
    # "--tol" followed by another option is still a missing value
    pp = gen(tmp_path, "pauli-probe")
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        main(["validate", "ppovm", pp, "--tol", "--format", "json"])
    assert info.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


# each command that writes --out, with its other arguments
OUT_WRITERS = {
    "gen": lambda t: ["gen", "identity"],
    "convert": lambda t: ["convert", "kraus2choi", gen(t, "identity")],
    "simulate": lambda t: [
        "simulate", gen(t, "identity"), gen(t, "pauli-probe"), "--shots", "10"
    ],
    "tomo": lambda t: ["tomo", gen(t, "pauli-probe"), "--exact", gen(t, "identity")],
}


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
@pytest.mark.parametrize("command", sorted(OUT_WRITERS))
def test_unwritable_out_is_io_failure(tmp_path, capsys, command, where):
    out = tmp_path / "missing" / "out.json" if where == "missing-directory" else tmp_path
    argv = OUT_WRITERS[command](tmp_path)
    capsys.readouterr()
    code, stdout, err = run(capsys, *argv, "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(out) in err


# each command that writes --out, with a fixed seed so that two runs print
# the same payload
DEVICE_WRITERS = {
    "gen": lambda t: ["gen", "pauli-probe"],
    "convert": OUT_WRITERS["convert"],
    "simulate": lambda t: [*OUT_WRITERS["simulate"](t), "--seed", "3"],
    "tomo": OUT_WRITERS["tomo"],
}


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("command", sorted(DEVICE_WRITERS))
def test_out_to_a_device_is_written_and_not_truncated(tmp_path, capsys, command, fmt):
    # /dev/null takes the bytes but cannot be truncated: the writer cuts
    # only a regular file to length
    argv = [*DEVICE_WRITERS[command](tmp_path), "--format", fmt]
    path = str(tmp_path / "out.json")
    capsys.readouterr()
    assert run(capsys, *argv, "--out", path)[0] == 0
    code, stdout, err = run(capsys, *argv, "--out", os.devnull)
    assert (code, err) == (0, "")
    assert stdout == run(capsys, *argv, "--out", path)[1].replace(path, os.devnull)
