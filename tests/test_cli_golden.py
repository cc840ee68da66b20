"""Byte-for-byte stability of the CLI's ``--format json`` output and of
the files it writes.

Each case builds its input files, runs one subcommand in process, and
compares stdout with the file of the same name under ``tests/data/golden``;
each written-file case compares the file its command writes with the one
under ``tests/data/golden/written``.  To regenerate the files after an
intended output change, run

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import io
import json
import pathlib
import re
import shutil
import sys
import tempfile
from contextlib import redirect_stdout

import numpy as np
import pytest

from ppovm import serialize
from ppovm.channels import ket, projector
from ppovm.cli import main
from ppovm.schemes import BLOCH_KETS

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden"
WRITTEN_GOLDEN = GOLDEN / "written"


def _gen(tmp, name, *extra):
    path = tmp / f"{name}{''.join(extra)}.json"
    assert main(["gen", name, "--out", str(path), *extra]) == 0
    return str(path)


def _write(tmp, name, obj):
    path = tmp / name
    serialize.write_json(path, obj)
    return str(path)


def _perturbed_pauli_probe(tmp):
    obj = serialize.read_json(_gen(tmp, "pauli-probe"))
    obj["effects"][0]["matrix"]["data"][0][0] += 1e-8
    return _write(tmp, "perturbed.json", obj)


def _norm_state(tmp):
    # the norm state printed by `validate ppovm`, as a state file
    argv = ["validate", "ppovm", _gen(tmp, "pauli-probe"), "--format", "json"]
    return _write(tmp, "state.json", _run(argv)[1]["norm_state"])


def _six_state_povm(tmp):
    effects = [projector(BLOCH_KETS[a]) / 3 for a in sorted(BLOCH_KETS)]
    obj = {"dim": 2, "effects": serialize.encode_effects(effects, sorted(BLOCH_KETS))}
    return _write(tmp, "six.json", obj)


def _incomplete_povm(tmp):
    obj = {"dim": 2, "effects": [{"label": "0", "matrix": serialize.encode_matrix(projector(ket(0, 2)))}]}
    return _write(tmp, "incomplete.json", obj)


def _non_hermitian_ppovm(tmp):
    m = np.kron(projector(ket(1, 2)), np.eye(2)).astype(complex)
    m[0, 1] += 0.5j
    obj = {"d": 2, "effects": [{"label": "x", "matrix": serialize.encode_matrix(m)}]}
    return _write(tmp, "nonherm.json", obj)


def _phase_pair(tmp):
    identity = _write(tmp, "id.json", serialize.encode_matrix(np.eye(2)))
    return identity, _gen(tmp, "phase", "--angle", str(np.pi / 5))


# name -> (expected exit code, argv builder)
CASES = {
    "validate_state": (0, lambda t: ["validate", "state", _norm_state(t)]),
    "validate_povm": (0, lambda t: ["validate", "povm", _six_state_povm(t)]),
    "validate_channel_depolarizing": (
        0, lambda t: ["validate", "channel", _gen(t, "depolarizing", "--p", "0.37")]
    ),
    "validate_channel_depolarizing_d3": (
        0, lambda t: ["validate", "channel", _gen(t, "depolarizing", "--d", "3")]
    ),
    "validate_channel_contraction": (0, lambda t: ["validate", "channel", _gen(t, "contraction")]),
    "validate_ppovm_pauli_probe": (0, lambda t: ["validate", "ppovm", _gen(t, "pauli-probe")]),
    "validate_ppovm_six_state": (0, lambda t: ["validate", "ppovm", _gen(t, "six-state")]),
    "validate_ppovm_identity_vs_contraction": (
        0, lambda t: ["validate", "ppovm", _gen(t, "identity-vs-contraction")]
    ),
    "validate_povm_incomplete": (1, lambda t: ["validate", "povm", _incomplete_povm(t)]),
    "validate_ppovm_non_hermitian": (1, lambda t: ["validate", "ppovm", _non_hermitian_ppovm(t)]),
    "validate_ppovm_perturbed": (1, lambda t: ["validate", "ppovm", _perturbed_pauli_probe(t)]),
    "probs_pauli_probe_depolarizing": (
        0, lambda t: ["probs", _gen(t, "pauli-probe"), _gen(t, "depolarizing", "--p", "0.37")]
    ),
    "discriminate_phase_copies": (0, lambda t: ["discriminate", *_phase_pair(t), "--copies", "10"]),
    "discriminate_pauli_z_plan": (
        0, lambda t: ["discriminate", _phase_pair(t)[0], _gen(t, "pauli-z")]
    ),
    "tomo_exact_depolarizing": (
        0, lambda t: ["tomo", _gen(t, "pauli-probe"), "--exact", _gen(t, "depolarizing"),
                      "--truth", _gen(t, "depolarizing")]
    ),
}

# name -> argv builder taking the directory and the path of the file written
WRITTEN = {
    "gen_pauli_probe": lambda t, out: ["gen", "pauli-probe", "--out", out],
    "gen_depolarizing_d3": lambda t, out: ["gen", "depolarizing", "--d", "3", "--out", out],
    "simulate_pauli_probe_depolarizing": lambda t, out: [
        "simulate", _gen(t, "depolarizing", "--p", "0.37"), _gen(t, "pauli-probe"),
        "--shots", "1000", "--seed", "7", "--out", out,
    ],
    "convert_kraus2choi_depolarizing": lambda t, out: [
        "convert", "kraus2choi", _gen(t, "depolarizing", "--p", "0.37"), "--out", out
    ],
}


# Outputs whose listed fields (dotted paths into the payload; a number or a
# list of numbers) are exact zeros up to rounding: their last bits depend on
# the order of summation, so each is compared with a placeholder and bounded
# instead.
ROUNDING_ZEROS = {
    "tomo_exact_depolarizing": ("hs_error", "residual"),
    "discriminate_pauli_z_plan": ("plan.error_rates",),
}
ROUNDING_ZERO_BOUND = 1e-14


def _mask_rounding_zeros(text, keys):
    for key in keys:
        name = key.rsplit(".", 1)[-1]
        text = re.sub(rf'("{name}": )(\[[^\]]*\]|[^,\n]+)', r"\1<rounding zero>", text)
    return text


def _rounding_zeros(payload, key):
    for part in key.split("."):
        payload = payload[part]
    return np.atleast_1d(payload)


def _run(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    text = out.getvalue()
    return code, json.loads(text), text


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_output_matches_golden(name, tmp_path):
    code_expected, build = CASES[name]
    argv = [*build(tmp_path), "--format", "json"]
    code, payload, text = _run(argv)
    assert code == code_expected
    golden = (GOLDEN / f"{name}.json").read_text()
    keys = ROUNDING_ZEROS.get(name, ())
    assert _mask_rounding_zeros(text, keys) == _mask_rounding_zeros(golden, keys)
    for key in keys:
        assert np.all(np.abs(_rounding_zeros(payload, key)) <= ROUNDING_ZERO_BOUND)


def _written(name, tmp):
    out = tmp / "written.json"
    with redirect_stdout(io.StringIO()):
        assert main(WRITTEN[name](tmp, str(out))) == 0
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(WRITTEN))
def test_written_file_matches_golden(name, tmp_path):
    assert _written(name, tmp_path) == (WRITTEN_GOLDEN / f"{name}.json").read_bytes()


@pytest.mark.parametrize(
    "path", sorted(GOLDEN.glob("**/*.json")), ids=lambda p: str(p.relative_to(GOLDEN))
)
def test_golden_text_is_the_writer_layout(path):
    # pins serialize.dumps to the checked-in bytes, masks aside
    text = path.read_text()
    assert serialize.dumps(json.loads(text)) == text


def regenerate(golden):
    """Write every case's output under the directory ``golden``.  A file
    whose new text equals its old one once the rounding zeros are masked
    keeps its old bytes, so this host's last bits of those zeros do not
    replace the checked-in ones."""
    golden.mkdir(parents=True, exist_ok=True)
    for name, (_, build) in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            _, _, text = _run([*build(pathlib.Path(tmp)), "--format", "json"])
        path, keys = golden / f"{name}.json", ROUNDING_ZEROS.get(name, ())
        old = path.read_text() if path.exists() else None
        if old is None or _mask_rounding_zeros(text, keys) != _mask_rounding_zeros(old, keys):
            path.write_text(text)
            print(f"wrote {name}", file=sys.stderr)
    (golden / "written").mkdir(exist_ok=True)
    for name in sorted(WRITTEN):
        with tempfile.TemporaryDirectory() as tmp:
            (golden / "written" / f"{name}.json").write_bytes(_written(name, pathlib.Path(tmp)))
        print(f"wrote written/{name}", file=sys.stderr)


def test_regenerating_unchanged_goldens_keeps_their_bytes(tmp_path):
    copy = tmp_path / "golden"
    shutil.copytree(GOLDEN, copy)
    regenerate(copy)
    paths = sorted(p.relative_to(GOLDEN) for p in GOLDEN.glob("**/*.json"))
    assert sorted(p.relative_to(copy) for p in copy.glob("**/*.json")) == paths
    for path in paths:
        assert (copy / path).read_bytes() == (GOLDEN / path).read_bytes(), path


if __name__ == "__main__":
    regenerate(GOLDEN)
