"""Files and stdout of the ``ppovm`` CLI: the schemes ``gen`` writes, the
layout of ``--format json``, the error of a norm state ``realize`` cannot
take, the error of a ``tomo --truth`` channel near the float limit, UTF-8
files read under the C locale, a plan's product-file process
POVM read like its dense file, ``--out`` written to a device, and a
d = 128 plan written in O(d^2) memory.

The module imports ``ppovm`` from wherever it is found and needs nothing
else of the checkout: the tier-1 tests run it over ``src``, and CI's
installed-package step runs a copy of it against the installed package.
Each command runs in-process through ``ppovm.cli.main``, which the
``ppovm`` console script calls, except the locale test, which runs
``python -m ppovm.cli`` in a fresh interpreter with the imported package
on its path."""

import json
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import ppovm
from ppovm import TestCouple, build_ppovm, discrimination, projector, serialize
from ppovm.channels import PAULI_Z
from ppovm.cli import main
from ppovm.measurement import effects_multiset_equal, purification, validate_ppovm
from ppovm.rand import random_povm, random_unitary


def _gen(tmp_path, name, *extra):
    path = str(tmp_path / f"{name}.json")
    assert main(["gen", name, "--out", path, *extra]) == 0
    return path


def _run(capsys, *argv):
    capsys.readouterr()
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _stdout(capsys, *argv):
    code, out, _ = _run(capsys, *argv)
    assert code == 0
    return out


def _write(tmp_path, name, obj):
    path = tmp_path / name
    serialize.write_json(path, obj)
    return str(path)


def _matrix_files(tmp_path, **mats):
    return [
        _write(tmp_path, f"{name}.json", serialize.encode_matrix(m)) for name, m in mats.items()
    ]


def _no_dense_plan(monkeypatch):
    def dense(plan):
        raise AssertionError("the plan's d^2 x d^2 process POVM was built")

    monkeypatch.setattr(discrimination.DiscriminationPlan, "ppovm", property(dense))


def _encoded(tmp_path, encoding):
    """A Pauli-probe file whose first label is "\u03b8", as JSON text
    encoded in ``encoding``."""
    obj = serialize.read_json(_gen(tmp_path, "pauli-probe"))
    obj["effects"][0]["label"] = "\u03b8"
    path = tmp_path / f"{encoding}.json"
    path.write_bytes(json.dumps(obj, ensure_ascii=False).encode(encoding))
    return str(path)


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


def test_gen_six_state_matches_pauli_probe_multiset(tmp_path):
    # the six-state and entangled-probe schemes hold equal multisets of
    # effects, read back from the files gen writes
    def read(path):
        stack, labels, d = serialize.decode_ppovm_effects(serialize.read_json(path))
        return validate_ppovm(stack, d, labels=labels)

    six = read(_gen(tmp_path, "six-state"))
    pauli = read(_gen(tmp_path, "pauli-probe"))
    assert effects_multiset_equal(six, pauli, 1e-12)


def test_tomo_stdout_is_its_report_without_matrices_plus_out(tmp_path, capsys):
    pp, channel = _gen(tmp_path, "pauli-probe"), _gen(tmp_path, "identity")
    report = str(tmp_path / "r.json")
    out = json.loads(_stdout(capsys, "tomo", pp, "--exact", channel, "--out", report,
                             "--format", "json"))
    with open(report) as f:
        written = json.load(f)
    assert out.pop("out") == report
    assert set(out) == {k for k, v in written.items() if not isinstance(v, dict)}, (out, written)


def test_format_json_is_sorted_keys_indent_one_and_a_newline(tmp_path, capsys):
    # validate's checks at two tols, the map of probs and tomo's result
    # fields: json.dumps(obj, sort_keys=True, indent=1) plus a newline
    pp, channel = _gen(tmp_path, "pauli-probe"), _gen(tmp_path, "identity")
    report = str(tmp_path / "r.json")
    for argv in (
        ["validate", "ppovm", pp],
        ["validate", "ppovm", pp, "--tol", "1e-6"],
        ["probs", pp, channel],
        ["tomo", pp, "--exact", channel, "--out", report],
    ):
        text = _stdout(capsys, *argv, "--format", "json")
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=1) + "\n", argv


def test_simulate_names_an_ill_conditioned_norm_state(tmp_path, capsys):
    # a valid d = 3 process POVM whose norm state has eigenvalues 1 - 2s, s,
    # s with s = 1e-8: realize's pinv congruence breaks completeness
    rng = np.random.default_rng(0)
    u = random_unitary(3, rng)
    a, _ = purification(((u * [1 - 2e-8, 1e-8, 1e-8]) @ u.conj().T).T)
    couple = TestCouple(1.0, projector(a.reshape(-1)), random_povm(9, 10, rng), 3)
    path = str(tmp_path / "ill.json")
    serialize.write_json(path, serialize.encode_ppovm(build_ppovm([couple], 3)))
    channel = _gen(tmp_path, "identity", "--d", "3")
    assert _run(capsys, "validate", "ppovm", path)[0] == 0
    code, out, err = _run(capsys, "simulate", channel, path, "--shots", "100", "--out", str(tmp_path / "c.json"))
    assert (code, out) == (1, "")
    assert err.startswith("error: norm state too ill-conditioned to realize: its smallest kept eigenvalue 1.000e-08 ")
    assert not (tmp_path / "c.json").exists()


def test_tomo_names_a_truth_channel_near_the_float_limit(tmp_path, capsys):
    # a 1e308 Kraus entry overflows in the truth's Choi matrix; its
    # trace-preservation entry is named first, as probs and simulate name it
    pp, channel = _gen(tmp_path, "pauli-probe"), _gen(tmp_path, "identity")
    obj = serialize.read_json(channel)
    obj["ops"][0]["data"][0] = [1e308, 0.0]
    truth = _write(tmp_path, "big.json", obj)
    code, out, err = _run(capsys, "tomo", pp, "--exact", channel, "--truth", truth)
    assert (code, out) == (1, "")
    assert err == (
        "error: the reconstruction error requires a trace-preserving channel: "
        "trace_preservation_residual = inf\n"
    )


def test_a_utf8_file_reads_whatever_the_locale(tmp_path):
    pp, channel = _encoded(tmp_path, "utf-8"), _gen(tmp_path, "identity")
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


def test_product_plan_file_reads_like_its_dense_equivalent(tmp_path, capsys):
    identity, pauli_z = _matrix_files(tmp_path, identity=np.eye(2), pauli_z=PAULI_Z)
    out = _stdout(capsys, "discriminate", identity, pauli_z, "--format", "json")
    product = _write(tmp_path, "product.json", json.loads(out)["plan"]["ppovm"])
    plan = discrimination.pair_report(np.eye(2), PAULI_Z).plan
    dense = _write(tmp_path, "dense.json", serialize.encode_ppovm(plan.ppovm))
    channel = _gen(tmp_path, "depolarizing", "--p", "0.37")
    validated, probs = [], []
    for path in (product, dense):
        code, out, err = _run(capsys, "validate", "ppovm", path, "--format", "json")
        assert (code, err) == (0, "")
        validated.append(json.loads(out))
        code, out, err = _run(capsys, "probs", path, channel, "--format", "json")
        assert (code, err) == (0, "")
        probs.append(json.loads(out)["probs"])
        counts = str(tmp_path / "counts.json")
        argv = ["simulate", channel, path, "--shots", "100", "--out", counts]
        assert _run(capsys, *argv)[0] == 0
        assert _run(capsys, "tomo", path, "--counts", counts)[0] == 0
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


# each command that writes --out, with its other arguments
OUT_WRITERS = {
    "gen": lambda t: ["gen", "identity"],
    "convert": lambda t: ["convert", "kraus2choi", _gen(t, "identity")],
    "simulate": lambda t: [
        "simulate", _gen(t, "identity"), _gen(t, "pauli-probe"), "--shots", "10"
    ],
    "tomo": lambda t: ["tomo", _gen(t, "pauli-probe"), "--exact", _gen(t, "identity")],
}

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
    assert _run(capsys, *argv, "--out", path)[0] == 0
    code, stdout, err = _run(capsys, *argv, "--out", os.devnull)
    assert (code, err) == (0, "")
    assert stdout == _run(capsys, *argv, "--out", path)[1].replace(path, os.devnull)


def test_discriminate_at_d_128(tmp_path, capsys, monkeypatch):
    # one 16384 x 16384 complex matrix is 4 GiB; the output is O(d^2)
    d = 128
    phases = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    paths = _matrix_files(tmp_path, u=np.eye(d), v=phases)
    _no_dense_plan(monkeypatch)
    tracemalloc.start()
    try:
        code, out, err = _run(capsys, "discriminate", *paths, "--format", "json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, err) == (0, "")
    assert json.loads(out)["plan"] is not None
    assert len(out.encode()) < 4_000_000
    assert peak < 2**27
