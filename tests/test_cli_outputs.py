"""Files and stdout of the ``ppovm`` CLI: the schemes ``gen`` writes, and
the layout of ``--format json``.

The module imports ``ppovm`` from wherever it is found and needs nothing
else of the checkout: the tier-1 tests run it over ``src``, and CI's
installed-package step runs a copy of it against the installed package.
Each command runs in-process through ``ppovm.cli.main``, which the
``ppovm`` console script calls."""

import json

from ppovm import serialize
from ppovm.cli import main
from ppovm.measurement import effects_multiset_equal, validate_ppovm


def _gen(tmp_path, name):
    path = str(tmp_path / f"{name}.json")
    assert main(["gen", name, "--out", path]) == 0
    return path


def _stdout(capsys, *argv):
    capsys.readouterr()
    assert main(list(argv)) == 0
    return capsys.readouterr().out


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
