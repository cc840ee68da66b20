import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ppovm import serialize
from ppovm.channels import choi_of_channel, depolarizing_channel, identity_channel
from ppovm.linalg import max_abs
from ppovm.measurement import outcome_probabilities
from ppovm.rand import random_channel
from ppovm.schemes import pauli_probe_ppovm
from ppovm.tomography import ShotRecord, linear_inversion


def test_matrix_round_trip_bit_exact():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    text = serialize.dumps(serialize.encode_matrix(m))
    back = serialize.decode_matrix(json.loads(text))
    assert back.shape == (3, 4)
    assert np.array_equal(back, m)  # exact, not approximate


def test_matrix_rejects_bad_length():
    with pytest.raises(ValueError):
        serialize.decode_matrix({"rows": 2, "cols": 2, "data": [[1.0, 0.0]]})


def test_channel_kraus_round_trip():
    ch = depolarizing_channel(0.3, 2)
    back = serialize.decode_channel(serialize.encode_channel(ch, kind="kraus"))
    assert max_abs(choi_of_channel(back) - choi_of_channel(ch)) < 1e-12


def test_channel_choi_round_trip():
    rng = np.random.default_rng(1)
    ch = random_channel(3, rng)
    back = serialize.decode_channel(serialize.encode_channel(ch, kind="choi"))
    assert max_abs(choi_of_channel(back) - choi_of_channel(ch)) < 1e-8


def test_ppovm_round_trip_validates():
    pp = pauli_probe_ppovm()
    back = serialize.decode_ppovm(serialize.encode_ppovm(pp))
    assert back.labels == pp.labels
    assert max_abs(back.norm_state - pp.norm_state) < 1e-9
    for a, b in zip(pp.matrices, back.matrices):
        assert np.array_equal(a, b)


def test_counts_round_trip_and_validation():
    rec = ShotRecord({"a": 3, "b": 7}, 10, 99)
    back = serialize.decode_counts(json.loads(serialize.dumps(serialize.encode_counts(rec))))
    assert back == rec
    with pytest.raises(ValueError):
        serialize.decode_counts({"shots": 11, "seed": 0, "counts": {"a": 3, "b": 7}})


def test_tomography_report_fields():
    pp = pauli_probe_ppovm()
    result = linear_inversion(pp, outcome_probabilities(pp, identity_channel(2)))
    report = serialize.encode_tomography_report(result)
    assert report["ic_complete"] is True
    assert report["deficiency"] == 0
    assert report["omega_raw"]["rows"] == 4
    raw = serialize.decode_matrix(report["omega_raw"])
    assert np.array_equal(raw, result.omega_raw)


def test_dumps_deterministic():
    pp = pauli_probe_ppovm()
    a = serialize.dumps(serialize.encode_ppovm(pp))
    b = serialize.dumps(serialize.encode_ppovm(pauli_probe_ppovm()))
    assert a == b
    assert a.endswith("\n")


# The per-entry matrix codec the array codec replaced, kept as its oracle.
def _reference_encode_matrix(m):
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    return {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "data": [[float(x.real), float(x.imag)] for x in m.reshape(-1)],
    }


def _reference_decode_matrix(obj):
    rows, cols = int(obj["rows"]), int(obj["cols"])
    return np.array([complex(re, im) for re, im in obj["data"]]).reshape(rows, cols)


EDGE_FLOATS = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1.7e308, -1.7e308])
FLOATS = st.one_of(
    st.sampled_from(EDGE_FLOATS.tolist()), st.floats(allow_nan=False, allow_infinity=False)
)


def _arrays(shape):
    size = 2 * math.prod(shape)
    values = st.lists(FLOATS, min_size=size, max_size=size)
    return values.map(lambda v: np.array(v).view(complex).reshape(shape))


MATRICES = st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(_arrays)
STACKS = st.tuples(st.integers(1, 8), st.integers(1, 6)).flatmap(lambda s: _arrays((s[0], s[1], s[1])))


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(derandomize=True, max_examples=150, deadline=None)
@given(m=MATRICES, stack=STACKS)
@example(m=EDGE_FLOATS.view(complex).reshape(2, 2), stack=EDGE_FLOATS.view(complex).reshape(4, 1, 1))
def test_array_codec_matches_per_entry_reference(m, stack):
    text = serialize.dumps(serialize.encode_matrix(m))
    assert text == serialize.dumps(_reference_encode_matrix(m))
    obj = json.loads(text)
    assert _same_bits(serialize.decode_matrix(obj), _reference_decode_matrix(obj))

    labels = [f"e{k}" for k in range(len(stack))]
    reference = [{"label": lbl, "matrix": _reference_encode_matrix(e)} for lbl, e in zip(labels, stack)]
    text = serialize.dumps(serialize.encode_effects(stack, labels))
    assert text == serialize.dumps(reference)
    effects, back_labels = serialize.decode_effects({"effects": json.loads(text)}, stack.shape[1])
    expected = np.array([_reference_decode_matrix(e["matrix"]) for e in reference])
    assert _same_bits(effects, expected)
    assert list(back_labels) == labels
