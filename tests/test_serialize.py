import dataclasses
import json
import math
import os
import stat

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ppovm import serialize
from ppovm.channels import (
    PAULI_Z, choi_of_channel, depolarizing_channel, identity_channel, projector,
)
from ppovm.discrimination import pair_report
from ppovm.linalg import kron, max_abs
from ppovm.measurement import outcome_probabilities, validate_ppovm
from ppovm.rand import random_channel, random_unitary
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
    stack, labels, d = serialize.decode_ppovm_effects(serialize.encode_ppovm(pp))
    back = validate_ppovm(stack, d, labels=labels)
    assert back.labels == pp.labels
    assert max_abs(back.norm_state - pp.norm_state) < 1e-9
    for a, b in zip(pp.matrices, back.matrices):
        assert np.array_equal(a, b)


def _plan(d):
    """The plan of I against Z at d = 2, else of the first seeded Haar pair
    that has one."""
    if d == 2:
        return pair_report(np.eye(2), PAULI_Z).plan
    for seed in range(20):
        rng = np.random.default_rng([d, seed])
        plan = pair_report(random_unitary(d, rng), random_unitary(d, rng)).plan
        if plan is not None:
            return plan
    raise AssertionError(f"no one-shot pair at d={d}")


@pytest.mark.parametrize("d", [2, 3, 8])
def test_product_ppovm_decodes_to_the_plan_process_povm(d):
    plan = _plan(d)
    obj = serialize.encode_product_ppovm(
        [projector(plan.probe).T], plan.povm.effects, plan.povm.labels
    )
    stack, labels, side = serialize.decode_ppovm_effects(json.loads(serialize.dumps(obj)))
    dense = plan.ppovm
    assert (labels, side) == (dense.labels, d)
    assert stack.tobytes() == dense.effects.tobytes()


def test_product_ppovm_effects_are_kron_products_a_major():
    rng = np.random.default_rng(3)
    first, second = (
        rng.standard_normal((n, 3, 3)) + 1j * rng.standard_normal((n, 3, 3)) for n in (2, 3)
    )
    obj = serialize.encode_product_ppovm(first, second, ["x", "y", "z"])
    assert (obj["kind"], obj["d"]) == ("product_ppovm", 3)
    stack, labels, d = serialize.decode_ppovm_effects(obj)
    assert stack.tobytes() == np.array([kron(a, b) for a in first for b in second]).tobytes()
    assert labels == ("0:x", "0:y", "0:z", "1:x", "1:y", "1:z")
    assert d == 3 and not stack.flags.writeable


@pytest.mark.parametrize("data", [[[True, 0]], [[1, False]], [[True, 0.5]]])
def test_booleans_in_matrix_data_are_malformed(data):
    with pytest.raises(serialize.FormatError, match="not a number"):
        serialize.decode_matrix({"rows": 1, "cols": 1, "data": data})
    effect = {"label": "0", "matrix": {"rows": 1, "cols": 1, "data": data}}
    with pytest.raises(serialize.FormatError, match="not a number"):
        serialize.decode_ppovm_effects({"d": 1, "effects": [effect]})


@pytest.mark.parametrize("label", [True, None, 5, [1, 2]], ids=["true", "null", "5", "list"])
def test_labels_that_are_not_strings_are_malformed(label):
    effect = {"label": label, "matrix": {"rows": 1, "cols": 1, "data": [[1.0, 0.0]]}}
    product = {"kind": "product_ppovm", "d": 1, "first": [effect["matrix"]], "second": [effect]}
    counts = {**serialize.encode_counts(ShotRecord({"a": 1}, 1, 0)), "generator": label}
    for decode, obj in [
        (serialize.decode_povm_effects, {"dim": 1, "effects": [effect]}),
        (serialize.decode_ppovm_effects, {"d": 1, "effects": [effect]}),
        (serialize.decode_ppovm_effects, product),
        (serialize.decode_counts, counts),
    ]:
        with pytest.raises(serialize.FormatError, match="must be a string"):
            decode(obj)


def test_written_labels_are_strings_and_read_back():
    effects = serialize.encode_effects(np.ones((2, 1, 1)), [0, 1])
    assert [e["label"] for e in effects] == ["0", "1"]
    assert serialize.decode_povm_effects({"dim": 1, "effects": effects})[1] == ("0", "1")


def test_an_integer_beyond_the_float_range_is_malformed():
    with pytest.raises(serialize.FormatError):
        serialize.decode_matrix({"rows": 1, "cols": 1, "data": [[10**400, 0]]})


def test_dense_ppovm_effects_are_read_into_one_owned_array():
    stack, labels, d = serialize.decode_ppovm_effects(serialize.encode_ppovm(pauli_probe_ppovm()))
    assert stack.flags.owndata and not stack.flags.writeable
    assert np.shares_memory(validate_ppovm(stack, d, labels=labels).effects, stack)


def test_counts_round_trip_and_validation():
    rec = ShotRecord({"a": np.int64(3), "b": 7}, 10, 99)
    obj = json.loads(serialize.dumps(serialize.encode_counts(rec)))
    # a counts file holds the record's fields, each count as an int
    assert set(obj) == {f.name for f in dataclasses.fields(ShotRecord)}
    assert serialize.decode_counts(obj) == rec
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


@settings(max_examples=150)
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


# The writer's oracle is the stdlib: dumps must give json.dumps's indent=1
# text exactly, for matrix data and for everything around it.
def _stdlib_dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


PLAIN_FLOATS = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e-300, 1e300, math.nan, math.inf, -math.inf]),
    st.floats(),
)
WRITER_FLOATS = PLAIN_FLOATS | PLAIN_FLOATS.map(np.float64)  # a float subclass
LABELS = st.one_of(
    st.text(max_size=8),
    st.sampled_from(
        ['"', 'say "hi"', "naïve ψ", "\\", "\x00", "\x000", '"\x00', "nan", "inf", "],\n ["]
    ),
    st.integers(0, 20).map(lambda k: "\x00" + str(k)),
)
ENTRIES = st.one_of(WRITER_FLOATS, st.integers(-3, 3), st.booleans())


def _with_bool(rows, k, value):
    """``rows`` with the k-th entry, counted across rows, set to ``value``."""
    width = len(rows[0])
    return [
        [value if i * width + j == k else x for j, x in enumerate(row)]
        for i, row in enumerate(rows)
    ]


FLOAT_ROWS = st.integers(1, 3).flatmap(
    lambda width: st.lists(
        st.lists(WRITER_FLOATS, min_size=width, max_size=width), min_size=1, max_size=4
    )
)
ROWS = st.one_of(
    st.integers(1, 3).flatmap(
        lambda width: st.lists(
            st.one_of(
                st.lists(WRITER_FLOATS, min_size=width, max_size=width),
                st.lists(ENTRIES, min_size=width, max_size=width),
            ),
            max_size=5,
        )
    ),
    st.lists(st.lists(WRITER_FLOATS, max_size=3), max_size=4),  # rows of mixed lengths
    FLOAT_ROWS.flatmap(  # float rows but for one bool
        lambda rows: st.builds(
            _with_bool, st.just(rows), st.integers(0, len(rows) * len(rows[0]) - 1), st.booleans()
        )
    ),
    FLOAT_ROWS.map(lambda rows: tuple(map(tuple, rows))),  # written as lists
    FLOAT_ROWS.map(tuple),
)
WRITER_MATRICES = st.fixed_dictionaries(
    {"rows": st.integers(0, 4), "cols": st.integers(0, 4), "data": ROWS}
)
CHECKS = st.fixed_dictionaries({"name": LABELS, "value": WRITER_FLOATS, "pass": st.booleans()})
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), WRITER_FLOATS, LABELS)
PLAIN_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), PLAIN_FLOATS, LABELS)
# validate's checks and the probs and counts maps, of the sizes the CLI
# writes, with plain-float, mixed-scalar and np.float64 values
RECORDS = st.one_of(
    *(
        st.lists(
            st.fixed_dictionaries({"name": LABELS, "value": values, "pass": st.booleans()}),
            min_size=9,
            max_size=40,
        )
        for values in (PLAIN_FLOATS, PLAIN_SCALARS, WRITER_FLOATS)
    )
)
SCALAR_MAPS = st.one_of(
    st.dictionaries(LABELS, PLAIN_FLOATS, max_size=150),
    st.dictionaries(LABELS, st.integers(0, 10**6), max_size=150),
    st.dictionaries(LABELS, SCALARS, max_size=150),
)
PAYLOADS = st.recursive(
    st.one_of(
        SCALARS,
        st.sampled_from([[], {}, (), [[]], [{}], {"": []}]),  # empty containers, at any depth
        ROWS,
        WRITER_MATRICES,
        CHECKS,
        RECORDS,
        SCALAR_MAPS,
        st.dictionaries(LABELS, st.integers(0, 10**6), max_size=4),  # counts
        st.fixed_dictionaries({"label": LABELS, "matrix": WRITER_MATRICES}),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(LABELS, inner, max_size=4),
    ),
    max_leaves=12,
)


@settings(max_examples=200)
@given(obj=PAYLOADS)
@example(obj={"data": [[-0.0, 5e-324], [1e-300, 1e300], [math.nan, math.inf], [-math.inf, 0.0]]})
@example(obj={"data": [[1, 0]], "ints": [[1.0, 0], [True, 0.5]], "empty": [], "rows": [[]]})
@example(obj=[[[0.5, 1.0, 2.0]], [[0.25]], [[0.5, 1.0], [0.25]]])
@example(obj={"a": {"label": "\x000", "matrix": {"data": [[0.1, 0.2]]}}})
@example(obj={"effects": [{"label": '"\x00', "matrix": {"data": [[0.1, 0.2], [0.3, 0.4]]}}]})
@example(obj={"\x000": [[0.5, 0.5]], "x": "\x001"})
@example(obj={"a": ([0.5, 1.0], [2.0, 3.0]), "b": [[0.5, True], [1.0, 2.0]], "c": [[[], {}]]})
@example(obj=[np.float64(0.1), [[np.float64(-0.0), np.float64(math.nan)]], ()])
# records whose key sets differ, or that hold one nested value
@example(obj=[{"name": "a", "pass": True, "value": 0.5}] * 8 + [{"name": "b", "pass": False}])
@example(obj=[{"name": "a", "pass": True, "value": 0.5}] * 9 + [{"name": "b", "pass": 1, "x": 0}])
@example(obj=[{"name": "a", "pass": True, "value": 0.5}] * 9 + [{"name": "b", "pass": [], "value": 1}])
@example(obj=({"a": 0.5, "b": {"c": 1.0}}, {"a": 0.5, "b": {"c": 2.0}}))
# every scalar type, NaN and the infinities beside one another
@example(obj=[
    {"name": "x", "pass": p, "value": v}
    for v, p in zip([np.float64(0.1), 1, True, math.nan, math.inf, -math.inf, -0.0, None, 1.0], [1, True] * 5)
])
@example(obj=[{"name": "x", "pass": p, "value": v} for v in [math.nan, math.inf, -math.inf] for p in [True, 1]] * 2)
@example(obj={"probs": {"a": math.nan, "b": -math.inf, "c": math.inf, "d": 1e300}, "counts": {"a": 1, "b": True}})
@example(obj={"a": np.float64(0.1), "b": 0.1, "c": True, "d": 1, "e": None, "f": "nan"})
# names and keys that hold %- and format-template characters
@example(obj=[{k: k for k in ["%", "%s", "%(a)s", "{", "{0}", '"', "\x00", "ψ", "naïve"]}] * 9)
@example(obj={k: 0.5 for k in ["%", "%%", "%s", "%d", "{}", "{0}", "}", '"', "\x00", "\u03b8"]})
@example(obj=[{"%s": "%s", "{0}": "{1}", '"': "\x00", "é": "ψ"}] * 12)
def test_dumps_is_the_stdlib_indent_1_layout(obj):
    before = json.dumps(obj, sort_keys=True)
    assert serialize.dumps(obj) == _stdlib_dumps(obj)
    assert json.dumps(obj, sort_keys=True) == before  # obj is not modified


@pytest.mark.parametrize(
    "obj",
    [
        np.int64(1), np.bool_(True), {1, 2}, [0.5, np.int64(1)], [[0.5, np.int64(1)]], {"a": {1}},
        [{"a": 0.5}, {"a": np.int64(1)}], {"a": 0.5, "b": np.bool_(True)},
    ],
    ids=["int64", "bool_", "set", "list", "rows", "nested", "records", "map"],
)
def test_dumps_raises_type_error_where_the_stdlib_does(obj):
    with pytest.raises(TypeError):
        json.dumps(obj, sort_keys=True, indent=1)
    with pytest.raises(TypeError):
        serialize.dumps(obj)


@pytest.mark.parametrize(
    "obj", [{1: 0.5}, {None: 1}, {"a": {2.5: 1}}, {True: []}, [{1: 0.5, 2: 1}] * 3, [{1: "a"}] * 3]
)
def test_dumps_takes_only_str_keys(obj):
    # the stdlib writes these keys as strings; every library payload has
    # str keys, so dumps refuses the others
    json.dumps(obj, sort_keys=True, indent=1)
    with pytest.raises(TypeError):
        serialize.dumps(obj)


def test_dumps_of_library_payloads_is_the_stdlib_layout():
    pp = pauli_probe_ppovm()
    rng = np.random.default_rng(3)
    ch = random_channel(3, rng)
    result = linear_inversion(pp, outcome_probabilities(pp, identity_channel(2)))
    for obj in (
        serialize.encode_ppovm(pp),
        serialize.encode_channel(ch, "kraus"),
        serialize.encode_channel(ch, "choi"),
        serialize.encode_tomography_report(result),
        {"plan": {"probe": serialize.encode_vector(rng.standard_normal(4)), "error_rates": [0.0]}},
    ):
        assert serialize.dumps(obj) == _stdlib_dumps(obj)


# write_json overwrites in place; every file it leaves holds exactly the
# payload's bytes
LONG = serialize.encode_ppovm(pauli_probe_ppovm())
SHORT = serialize.encode_matrix(np.eye(2))


def test_write_json_over_a_longer_file_leaves_only_the_payload(tmp_path):
    path = tmp_path / "out.json"
    serialize.write_json(path, LONG)
    assert path.read_bytes() == serialize.dumps(LONG).encode()
    serialize.write_json(path, SHORT)
    assert path.read_bytes() == serialize.dumps(SHORT).encode()


def test_write_json_keeps_an_existing_file_inode_and_mode(tmp_path):
    path = tmp_path / "out.json"
    serialize.write_json(path, LONG)
    path.chmod(0o640)
    before = path.stat()
    serialize.write_json(path, SHORT)
    after = path.stat()
    assert (after.st_ino, stat.S_IMODE(after.st_mode)) == (before.st_ino, 0o640)


def test_write_json_creates_a_file_with_mode_666_less_the_umask(tmp_path):
    old = os.umask(0o027)
    try:
        serialize.write_json(tmp_path / "out.json", SHORT)
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "out.json").stat().st_mode) == 0o640


def test_write_json_writes_through_a_symlink(tmp_path):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    serialize.write_json(target, LONG)
    link.symlink_to(target)
    serialize.write_json(link, SHORT)
    assert link.is_symlink()
    assert target.read_bytes() == serialize.dumps(SHORT).encode()


def test_write_json_opens_without_truncating(tmp_path, monkeypatch):
    # truncating to zero before the write is what the in-place write saves
    calls = []
    real_open = os.open

    def recorder(path, flags, *args, **kwargs):
        calls.append((str(path), flags))
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(serialize.os, "open", recorder)
    path = tmp_path / "out.json"
    serialize.write_json(path, LONG)
    serialize.write_json(path, SHORT)
    assert [p for p, _ in calls] == [str(path)] * 2
    assert all(flags & os.O_CREAT and not flags & os.O_TRUNC for _, flags in calls)
