"""JSON interchange for matrices, channels, measurements, and reports.

A matrix is ``{"rows": r, "cols": c, "data": [[re, im], ...]}``, entries
row-major, written from its (r*c, 2) float view; floats round-trip
bit-exactly through Python's shortest-repr encoding.  The ``effects`` of
a povm or ppovm file and the ``ops`` of a kraus channel are read as one
(N, rows, cols) stack; a ``product_ppovm`` file, which holds the d x d
factors of a process POVM {A_a (x) B_b}, is read as the stack of their
``linalg.kron`` products.  Every decoder raises ``FormatError`` for a
structural fault: a missing key, a wrong type, a dimension that is not a
positive integer (JSON true and false are not integers), an entry that is
not a [re, im] pair of finite numbers, a matrix of the wrong length or
shape (a state or unitary file that is not square among them), an empty
list, a label or counts generator that is not a string, a repeated label,
an unknown kind, bad counts.  A well-formed payload that breaks a
physical invariant (a Choi matrix that is not PSD beyond the caller's
``tol``) raises a plain ``ValueError`` instead.  A tomography report and
a counts file hold every field of their ``TomographyResult`` and
``ShotRecord``, so a field added to either is written with no edit here.

Every file and ``--format json`` output is ``dumps``'s text: exactly
``json.dumps(obj, sort_keys=True, indent=1)`` plus a newline, laid out by
one recursive writer that renders the float rows of matrix data in bulk.
Every file is read as UTF-8 (``parse_json``), whatever the locale.
"""

from __future__ import annotations

import functools
import json
import operator
import os
import pathlib
import stat
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from .channels import KrausChannel, channel_of_choi, choi_of_channel, effect_labels
from .linalg import DEFAULT_TOL, kron
from .measurement import ProcessPovm
from .tomography import ShotRecord, TomographyResult


class FormatError(ValueError):
    """Structurally malformed payload."""


def _decoder(decode):
    """``decode`` raising FormatError where the payload lacks a key, holds
    a value of the wrong type or a number beyond the float range."""

    @functools.wraps(decode)
    def checked(obj, *args, **kwargs):
        try:
            return decode(obj, *args, **kwargs)
        except KeyError as exc:
            raise FormatError(f"missing key {exc}") from exc
        except (TypeError, AttributeError, OverflowError) as exc:
            raise FormatError(str(exc)) from exc

    return checked


def _int(value, what: str, least: int) -> int:
    """``value`` as an integer of at least ``least``; a JSON boolean, which
    Python counts as an integer, is not one."""
    try:
        if isinstance(value, bool):
            raise TypeError
        n = operator.index(value)
    except TypeError:
        raise FormatError(f"{what} must be an integer, got {value!r}") from None
    if n < least:
        raise FormatError(f"{what} must be at least {least}, got {n}")
    return n


def _str(value, what: str) -> str:
    """``value``, which must be a JSON string."""
    if not isinstance(value, str):
        raise FormatError(f"{what} must be a string, got {value!r}")
    return value


def _json_type(value) -> str:
    """The JSON type of a decoded value, with its article."""
    names = {
        dict: "an object", list: "an array", str: "a string", bool: "a boolean", type(None): "null",
    }
    return names.get(type(value), "a number")


def _object(value, what: str) -> dict:
    """``value``, which must be a JSON object."""
    if not isinstance(value, dict):
        raise FormatError(f"{what} must be a JSON object, got {_json_type(value)}")
    return value


def _list(value, what: str) -> list:
    """``value``, which must be a JSON array."""
    if not isinstance(value, list):
        raise FormatError(f"{what} must be a JSON array, got {_json_type(value)}")
    return value


def _shape(m, what: str) -> tuple[int, int, int]:
    """Rows, columns and number of entries of a matrix payload."""
    m = _object(m, what)
    entries = len(_list(m["data"], f"{what} data"))
    return _int(m["rows"], "rows", 1), _int(m["cols"], "cols", 1), entries


def _payloads(stack: np.ndarray) -> list[dict]:
    """Matrix payloads of an (N, rows, cols) stack."""
    n, rows, cols = stack.shape
    pairs = np.ascontiguousarray(stack, dtype=complex).view(float).reshape(n, rows * cols, 2)
    return [{"rows": rows, "cols": cols, "data": data} for data in pairs.tolist()]


def _stack(mats: list[dict], shape: tuple[int, int] | None, what: str) -> np.ndarray:
    """One or more matrix payloads of one shape (``shape``, or the first
    one's) as one owned, read-only (N, rows, cols) complex array, which
    ``linalg.frozen`` keeps as it is."""
    if not mats:
        raise FormatError(f"need one or more {what}s")
    found = [_shape(m, f"{what} {k}") for k, m in enumerate(mats)]
    rows, cols = shape or found[0][:2]
    if set(found) != {(rows, cols, rows * cols)}:
        k, (r, c, n) = next((k, s) for k, s in enumerate(found) if s != (rows, cols, rows * cols))
        raise FormatError(f"{what} {k} is {r}x{c} with {n} entries, not {rows}x{cols}")
    pairs = list(chain.from_iterable(m["data"] for m in mats))
    if set(map(type, pairs)) - {list} or set(map(len, pairs)) - {2}:
        raise FormatError("a matrix entry is not a [re, im] pair")
    flat = list(chain.from_iterable(pairs))
    if not set(map(type, flat)) <= {int, float}:  # JSON true and false are not numbers
        raise FormatError("matrix data holds a value that is not a number")
    stack = np.empty((len(mats), rows, cols), complex)
    parts = stack.view(float).reshape(-1)
    parts[:] = flat  # an OverflowError for an integer beyond the float range
    if not np.isfinite(parts).all():
        raise FormatError("matrix data is not finite")
    stack.setflags(write=False)
    return stack


def encode_matrix(m: np.ndarray) -> dict:
    return _payloads(np.atleast_2d(np.asarray(m, dtype=complex))[None])[0]


@_decoder
def decode_matrix(obj: dict) -> np.ndarray:
    return _stack([_object(obj, "a matrix")], None, "matrix")[0]


def decode_square_matrix(obj: dict) -> np.ndarray:
    """The matrix of a state or unitary file, which must be square."""
    m = decode_matrix(obj)
    if m.shape[0] != m.shape[1]:
        raise FormatError(f"matrix must be square, got {m.shape[0]}x{m.shape[1]}")
    return m


def encode_vector(v: np.ndarray) -> dict:
    return encode_matrix(np.asarray(v, dtype=complex).reshape(-1, 1))


def encode_channel(ch: KrausChannel, kind: str = "kraus") -> dict:
    if kind == "kraus":
        ops = _payloads(ch.kraus)
        return {"kind": "kraus", "dim_in": ch.dim_in, "dim_out": ch.dim_out, "ops": ops}
    if kind == "choi":
        if ch.dim_in != ch.dim_out:
            raise ValueError("Choi encoding requires a square channel")
        return {"kind": "choi", "d": ch.dim_in, "matrix": encode_matrix(choi_of_channel(ch))}
    raise ValueError(f"unknown channel encoding {kind!r}")


@_decoder
def decode_channel(obj: dict, tol: float = DEFAULT_TOL) -> KrausChannel:
    """A kraus or choi channel file; ``tol`` bounds the Choi matrix's
    negative eigenvalues."""
    kind = _object(obj, "a channel").get("kind")
    if kind == "kraus":
        dim_in, dim_out = _int(obj["dim_in"], "dim_in", 1), _int(obj["dim_out"], "dim_out", 1)
        ops = _stack(_list(obj["ops"], "ops"), (dim_out, dim_in), "Kraus operator")
        return KrausChannel(dim_in, dim_out, ops)
    if kind == "choi":
        d = _int(obj["d"], "d", 1)
        return channel_of_choi(_stack([obj["matrix"]], (d * d, d * d), "Choi matrix")[0], d, tol)
    raise FormatError(f"unknown channel kind {kind!r}")


def encode_effects(effects, labels) -> list[dict]:
    """The ``effects`` list of a povm or ppovm file; each label is written
    as a string."""
    payloads = _payloads(np.asarray(effects))
    return [{"label": str(lbl), "matrix": m} for lbl, m in zip(labels, payloads)]


def _labelled(effects: list[dict], side: int, what: str) -> tuple[np.ndarray, tuple[str, ...]]:
    """A list of labelled matrices as one (N, side, side) stack, and the
    distinct labels."""
    effects = [_object(e, f"{what} {k}") for k, e in enumerate(effects)]
    stack = _stack([e["matrix"] for e in effects], (side, side), what)
    labels = [_str(e["label"], "an effect label") for e in effects]
    return stack, effect_labels(labels, len(stack), FormatError)


@_decoder
def decode_effects(obj: dict, side: int) -> tuple[np.ndarray, tuple[str, ...]]:
    """The ``effects`` list of a povm or ppovm file as one (N, side, side)
    stack, and the labels."""
    return _labelled(_list(_object(obj, "a POVM")["effects"], "effects"), side, "effect")


@_decoder
def decode_povm_effects(obj: dict) -> tuple[np.ndarray, tuple[str, ...]]:
    """Effects and labels of a povm file; every effect is dim x dim."""
    return decode_effects(obj, _int(_object(obj, "a POVM")["dim"], "dim", 1))


def encode_ppovm(pp: ProcessPovm) -> dict:
    return {"d": pp.d, "effects": encode_effects(pp.effects, pp.labels)}


def encode_product_ppovm(first, second, labels) -> dict:
    """A ``product_ppovm`` file: the process POVM {A_a (x) B_b}, a-major, of
    the d x d factors A = ``first`` and B = ``second``, whose effects carry
    ``labels``.  It holds O(d^2) numbers per factor where the dense file
    holds d^4 per effect."""
    first = np.asarray(first)
    return {
        "kind": "product_ppovm",
        "d": first.shape[-1],
        "first": _payloads(first),
        "second": encode_effects(second, labels),
    }


@_decoder
def decode_ppovm_effects(obj: dict) -> tuple[np.ndarray, tuple[str, ...], int]:
    """Effects, labels and d of a ppovm file; every effect is d^2 x d^2.

    A file with no ``kind`` lists the effects; a ``product_ppovm`` file
    lists d x d factors A_a (``first``) and labelled B_b (``second``), and
    its effects are the A_a (x) B_b, a-major, labelled as ``build_ppovm``
    labels couples: B_b's label alone when there is one A, else "a:label".
    """
    kind = _object(obj, "a process POVM").get("kind")
    if kind is not None and kind != "product_ppovm":
        raise FormatError(f"unknown process POVM kind {kind!r}")
    d = _int(obj["d"], "d", 1)
    if kind is None:
        return *decode_effects(obj, d * d), d
    first = _stack(_list(obj["first"], "first"), (d, d), "first factor")
    second, labels = _labelled(_list(obj["second"], "second"), d, "second factor")
    if len(first) > 1:
        labels = tuple(f"{a}:{lbl}" for a in range(len(first)) for lbl in labels)
    effects = kron(first, second)
    effects.setflags(write=False)  # so ProcessPovm keeps it without a copy
    return effects, labels, d


def encode_counts(record: ShotRecord) -> dict:
    return {**vars(record), "counts": {lbl: int(n) for lbl, n in record.counts.items()}}


@_decoder
def decode_counts(obj: dict) -> ShotRecord:
    counts = _object(_object(obj, "a counts record")["counts"], "counts")
    counts = {str(k): _int(v, "a count", 0) for k, v in counts.items()}
    shots = _int(obj["shots"], "shots", 1)
    if sum(counts.values()) != shots:
        raise FormatError("counts do not sum to the recorded shot total")
    seed = _int(obj["seed"], "seed", 0)
    generator = _str(obj.get("generator", "numpy-pcg64"), "the generator")
    return ShotRecord(counts, shots, seed, generator)


def encode_tomography_report(result: TomographyResult) -> dict:
    """Every field of ``result``, each array as a matrix payload."""
    return {
        name: encode_matrix(value) if isinstance(value, np.ndarray) else value
        for name, value in vars(result).items()
    }


# ``indent`` sends ``json.dumps`` to its pure-Python encoder, which spends
# ~3 us on each float of a matrix; ``float.__repr__`` alone takes ~1 us.  So
# ``dumps`` lays out the document itself, and writes each list of float rows
# in bulk.


def _rows_text(rows: list, level: int) -> str | None:
    """The stdlib's ``indent=1`` text of ``rows`` at indent ``level``, when
    it is a non-empty list of equally long non-empty lists of floats;
    else None."""
    first = rows[0] if rows else None
    if type(first) is not list or not first or not isinstance(first[0], float):
        return None
    if set(map(type, rows)) != {list} or set(map(len, rows)) != {len(first)}:
        return None
    try:  # float.__repr__ is the stdlib's rendering of a float, subclasses too
        floats = map(float.__repr__, chain.from_iterable(rows))
        outer, inner = "\n" + " " * (level + 1), "\n" + " " * (level + 2)
        text = (outer + "]," + outer + "[" + inner).join(
            map(("," + inner).join, zip(*[floats] * len(first)))
        )
    except TypeError:  # an int, a bool or another non-float entry
        return None
    if "n" in text:  # nan, inf and -inf, which the stdlib writes NaN, Infinity, -Infinity
        text = text.replace("nan", "NaN").replace("inf", "Infinity")
    return "[" + outer + "[" + inner + text + outer + "]\n" + " " * level + "]"


def _write(obj, level: int, out: list[str]) -> None:
    """Append the stdlib's ``sort_keys=True, indent=1`` text of ``obj``, at
    indent ``level``, to ``out`` as chunks."""
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        out.append(float.__repr__(obj).replace("nan", "NaN").replace("inf", "Infinity"))
    elif isinstance(obj, (list, tuple)):
        rows = _rows_text(obj, level)
        if rows is not None:
            out.append(rows)
        elif obj:
            sep = ",\n" + " " * (level + 1)
            for k, item in enumerate(obj):
                out.append(sep if k else "[" + sep[1:])
                _write(item, level + 1, out)
            out.append("\n" + " " * level + "]")
        else:
            out.append("[]")
    elif isinstance(obj, dict):
        if obj:
            sep = ",\n" + " " * (level + 1)
            for k, key in enumerate(sorted(obj)):
                out.append(sep if k else "{" + sep[1:])
                out.append(encode_basestring_ascii(key) + ": ")  # a TypeError for a non-str key
                _write(obj[key], level + 1, out)
            out.append("\n" + " " * level + "}")
        else:
            out.append("{}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def dumps(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=1)`` plus a newline, byte for
    byte, with the float rows of matrix data rendered in bulk.  Like the
    stdlib it raises TypeError for a value JSON has no form for (a numpy
    integer, a set); unlike it, also for a dict key that is not a str,
    which no library payload holds."""
    out: list[str] = []
    _write(obj, 0, out)
    out.append("\n")
    return "".join(out)


def write_json(path, obj) -> None:
    """Write ``dumps(obj)``'s ASCII bytes to ``path`` in place: the file is
    opened without ``O_TRUNC`` (created with mode 0o666 less the umask),
    written over from its start, and then, when it is a regular file, cut
    to the new length.  As with ``open(path, "w")``, an existing file keeps
    its inode and its mode and a symlink is written through to its target;
    a device such as /dev/null, which cannot be truncated, is only
    written.  Truncating an ext4 file to zero before writing it again makes
    its close start writing back the new blocks (``auto_da_alloc``), which
    costs more than the write itself.  Like ``open(path, "w")`` the write
    is not atomic: an interrupted one leaves a file that does not parse,
    the new bytes' prefix over the old file's tail."""
    data = dumps(obj).encode("ascii")
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(data)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate(len(data))


def parse_json(raw: bytes):
    """The JSON value of a file's bytes, read as UTF-8 whatever the locale;
    FormatError for bytes that are not UTF-8 JSON text, a leading
    byte-order mark included."""
    try:
        return json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise FormatError(f"not a JSON file: {exc}") from exc


def read_json(path):
    """The JSON value in the file at ``path``: ``parse_json`` of its
    bytes."""
    return parse_json(pathlib.Path(path).read_bytes())
