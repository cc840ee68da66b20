"""JSON interchange for matrices, channels, measurements, and reports.

A matrix is ``{"rows": r, "cols": c, "data": [[re, im], ...]}``, entries
row-major, written from its (r*c, 2) float view; floats round-trip
bit-exactly through Python's shortest-repr encoding.  The ``effects`` of
a povm or ppovm file and the ``ops`` of a kraus channel are read as one
(N, rows, cols) stack.  Every decoder raises ``FormatError`` for a
structural fault: a missing key, a wrong type, a dimension that is not a
positive integer (JSON true and false are not integers), an entry that is
not a [re, im] pair of finite numbers, a matrix of the wrong length or
shape (a state or unitary file that is not square among them), an empty
list, a repeated label, bad counts.  A well-formed payload that breaks a
physical invariant (a Choi matrix that is not PSD beyond the caller's
``tol``) raises a plain ``ValueError`` instead.

Every file and ``--format json`` output is ``dumps``'s text: exactly
``json.dumps(obj, sort_keys=True, indent=1)`` plus a newline.  The float
rows of matrix data are rendered in bulk and spliced into the standard
library's layout of the rest.
"""

from __future__ import annotations

import functools
import json
import operator
from itertools import chain

import numpy as np

from .channels import KrausChannel, channel_of_choi, choi_of_channel, effect_labels
from .linalg import DEFAULT_TOL
from .measurement import ProcessPovm, validate_ppovm
from .tomography import ShotRecord, TomographyResult


class FormatError(ValueError):
    """Structurally malformed payload."""


def _decoder(decode):
    """``decode`` raising FormatError where the payload lacks a key or
    holds a value of the wrong type."""

    @functools.wraps(decode)
    def checked(obj, *args, **kwargs):
        try:
            return decode(obj, *args, **kwargs)
        except KeyError as exc:
            raise FormatError(f"missing key {exc}") from exc
        except (TypeError, AttributeError) as exc:
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


def _payloads(stack: np.ndarray) -> list[dict]:
    """Matrix payloads of an (N, rows, cols) stack."""
    n, rows, cols = stack.shape
    pairs = np.ascontiguousarray(stack, dtype=complex).view(float).reshape(n, rows * cols, 2)
    return [{"rows": rows, "cols": cols, "data": data} for data in pairs.tolist()]


def _entries(mats: list[dict]) -> np.ndarray:
    """The entries of the matrix payloads ``mats``, concatenated, as one
    flat complex array."""
    pairs = list(chain.from_iterable(m["data"] for m in mats))
    if set(map(len, pairs)) - {2}:
        raise FormatError("a matrix entry is not a [re, im] pair")
    try:
        flat = np.asarray(list(chain.from_iterable(pairs)))
        numbers = flat.ndim == 1 and flat.dtype.kind in "iuf"  # no all-boolean data
    except ValueError:  # values that are lists of different lengths
        numbers = False
    if not numbers:
        raise FormatError("matrix data holds a value that is not a number")
    if not np.isfinite(flat).all():
        raise FormatError("matrix data is not finite")
    return flat.astype(float, copy=False).view(complex)


def _stack(mats: list[dict], shape: tuple[int, int] | None, what: str) -> np.ndarray:
    """One or more matrix payloads of one shape (``shape``, or the first
    one's) as an (N, rows, cols) array."""
    if not mats:
        raise FormatError(f"need one or more {what}s")
    found = [(_int(m["rows"], "rows", 1), _int(m["cols"], "cols", 1), len(m["data"])) for m in mats]
    rows, cols = shape or found[0][:2]
    if set(found) != {(rows, cols, rows * cols)}:
        k, (r, c, n) = next((k, s) for k, s in enumerate(found) if s != (rows, cols, rows * cols))
        raise FormatError(f"{what} {k} is {r}x{c} with {n} entries, not {rows}x{cols}")
    return _entries(mats).reshape(len(mats), rows, cols)


def encode_matrix(m: np.ndarray) -> dict:
    return _payloads(np.atleast_2d(np.asarray(m, dtype=complex))[None])[0]


@_decoder
def decode_matrix(obj: dict) -> np.ndarray:
    return _stack([obj], None, "matrix")[0]


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
    kind = obj.get("kind")
    if kind == "kraus":
        dim_in, dim_out = _int(obj["dim_in"], "dim_in", 1), _int(obj["dim_out"], "dim_out", 1)
        ops = _stack(obj["ops"], (dim_out, dim_in), "Kraus operator")
        return KrausChannel(dim_in, dim_out, ops)
    if kind == "choi":
        d = _int(obj["d"], "d", 1)
        return channel_of_choi(_stack([obj["matrix"]], (d * d, d * d), "Choi matrix")[0], d, tol)
    raise FormatError(f"unknown channel kind {kind!r}")


def encode_effects(effects, labels) -> list[dict]:
    """The ``effects`` list of a povm or ppovm file."""
    payloads = _payloads(np.asarray(effects))
    return [{"label": lbl, "matrix": m} for lbl, m in zip(labels, payloads)]


@_decoder
def decode_effects(obj: dict, side: int) -> tuple[np.ndarray, tuple[str, ...]]:
    """The ``effects`` list of a povm or ppovm file as one (N, side, side)
    stack, and the labels."""
    effects = obj["effects"]
    stack = _stack([e["matrix"] for e in effects], (side, side), "effect")
    return stack, effect_labels([str(e["label"]) for e in effects], len(stack), FormatError)


@_decoder
def decode_povm_effects(obj: dict) -> tuple[np.ndarray, tuple[str, ...]]:
    """Effects and labels of a povm file; every effect is dim x dim."""
    return decode_effects(obj, _int(obj["dim"], "dim", 1))


def encode_ppovm(pp: ProcessPovm) -> dict:
    return {"d": pp.d, "effects": encode_effects(pp.effects, pp.labels)}


@_decoder
def decode_ppovm_effects(obj: dict) -> tuple[np.ndarray, tuple[str, ...], int]:
    """Effects, labels and d of a ppovm file; every effect is d^2 x d^2."""
    d = _int(obj["d"], "d", 1)
    return *decode_effects(obj, d * d), d


def decode_ppovm(obj: dict, tol: float = DEFAULT_TOL) -> ProcessPovm:
    stack, labels, d = decode_ppovm_effects(obj)
    return validate_ppovm(stack, d, labels=labels, tol=tol)


def encode_counts(record: ShotRecord) -> dict:
    return {
        "shots": record.shots,
        "seed": record.seed,
        "generator": record.generator,
        "counts": {lbl: int(n) for lbl, n in record.counts.items()},
    }


@_decoder
def decode_counts(obj: dict) -> ShotRecord:
    counts = {str(k): _int(v, "a count", 0) for k, v in obj["counts"].items()}
    shots = _int(obj["shots"], "shots", 1)
    if sum(counts.values()) != shots:
        raise FormatError("counts do not sum to the recorded shot total")
    seed = _int(obj["seed"], "seed", 0)
    return ShotRecord(counts, shots, seed, str(obj.get("generator", "numpy-pcg64")))


def encode_tomography_report(result: TomographyResult) -> dict:
    return {
        "ic_complete": result.ic_complete,
        "deficiency": result.deficiency,
        "residual": result.residual,
        "converged": result.converged,
        "condition": result.condition,
        "hs_error": result.hs_error,
        "omega_raw": encode_matrix(result.omega_raw),
        "omega_projected": encode_matrix(result.omega_projected),
    }


# ``indent`` sends ``json.dumps`` to its pure-Python encoder, which spends
# ~3 us on each float of a matrix; ``float.__repr__`` alone takes ~1 us.  So
# ``dumps`` writes the text of each list of float rows itself and lets the
# stdlib lay out the rest, where a slot string stands for each such list.
_SLOT = "\x00"
_SLOT_TEXT = json.dumps(_SLOT)[:-1]  # the slot's opening quote and escape


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


_CONTAINERS = frozenset((dict, list))


def _hoist(obj, level: int, texts: list[str]):
    """``obj``, at indent ``level``, with each list of float rows in it
    replaced by a slot string holding the index of its text in ``texts``.
    A container with no such list inside is returned as it is, uncopied."""
    if type(obj) is dict:
        keys = obj.keys()
        if _CONTAINERS.isdisjoint(map(type, obj.values())):
            return obj
    elif type(obj) is list:
        text = _rows_text(obj, level)
        if text is not None:
            texts.append(text)
            return _SLOT + str(len(texts) - 1)
        types = set(map(type, obj))
        if _CONTAINERS.isdisjoint(types) or types == {dict} and _CONTAINERS.isdisjoint(
            map(type, chain.from_iterable(map(dict.values, obj)))
        ):  # scalars, or records of scalars such as check entries
            return obj
        keys = range(len(obj))
    else:
        return obj
    out = obj
    for key in keys:
        value = obj[key]
        if type(value) in _CONTAINERS:
            new = _hoist(value, level + 1, texts)
            if new is not value:
                if out is obj:
                    out = obj.copy()
                out[key] = new
    return out


def dumps(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=1)`` plus a newline, byte for
    byte, with the float rows of matrix data rendered in bulk."""
    texts: list[str] = []
    text = json.dumps(_hoist(obj, 0, texts), sort_keys=True, indent=1)
    if texts:
        head, *slots = text.split(_SLOT_TEXT)
        if len(slots) != len(texts):  # a string of obj holds the slot text
            return json.dumps(obj, sort_keys=True, indent=1) + "\n"
        parts = [head]
        for slot in slots:
            index, rest = slot.split('"', 1)
            parts += (texts[int(index)], rest)
        text = "".join(parts)
    return text + "\n"


def write_json(path, obj) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(obj))


def read_json(path):
    """The JSON value in the file at ``path``; FormatError when the file is
    not JSON text."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not text
            raise FormatError(f"not a JSON file: {exc}") from exc
