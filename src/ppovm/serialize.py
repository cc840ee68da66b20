"""JSON interchange for matrices, channels, measurements, and reports.

Matrices are stored row-major as [re, im] pairs; floats round-trip
bit-exactly through Python's shortest-repr encoding.
"""

from __future__ import annotations

import json

import numpy as np

from .channels import KrausChannel, Povm, channel_of_choi, choi_of_channel, effect_labels
from .linalg import DEFAULT_TOL
from .measurement import ProcessPovm, TestCouple, validate_ppovm
from .tomography import ShotRecord, TomographyResult


class FormatError(ValueError):
    """Structurally malformed payload (wrong lengths, unknown kinds,
    non-finite numbers)."""


def encode_matrix(m: np.ndarray) -> dict:
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    return {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "data": [[float(x.real), float(x.imag)] for x in m.reshape(-1)],
    }


def decode_matrix(obj: dict) -> np.ndarray:
    rows, cols = int(obj["rows"]), int(obj["cols"])
    data = obj["data"]
    if len(data) != rows * cols:
        raise FormatError(f"matrix data length {len(data)} != {rows}*{cols}")
    flat = np.array([complex(re, im) for re, im in data])
    if not np.isfinite(flat).all():
        raise FormatError("matrix data is not finite")
    return flat.reshape(rows, cols)


def encode_vector(v: np.ndarray) -> dict:
    return encode_matrix(np.asarray(v, dtype=complex).reshape(-1, 1))


def decode_vector(obj: dict) -> np.ndarray:
    return decode_matrix(obj).reshape(-1)


def encode_channel(ch: KrausChannel, kind: str = "kraus") -> dict:
    if kind == "kraus":
        return {
            "kind": "kraus",
            "dim_in": ch.dim_in,
            "dim_out": ch.dim_out,
            "ops": [encode_matrix(a) for a in ch.kraus],
        }
    if kind == "choi":
        if ch.dim_in != ch.dim_out:
            raise ValueError("Choi encoding requires a square channel")
        return {"kind": "choi", "d": ch.dim_in, "matrix": encode_matrix(choi_of_channel(ch))}
    raise ValueError(f"unknown channel encoding {kind!r}")


def decode_channel(obj: dict) -> KrausChannel:
    kind = obj.get("kind")
    if kind == "kraus":
        ops = tuple(decode_matrix(o) for o in obj["ops"])
        return KrausChannel(int(obj["dim_in"]), int(obj["dim_out"]), ops)
    if kind == "choi":
        d = int(obj["d"])
        return channel_of_choi(decode_matrix(obj["matrix"]), d)
    raise FormatError(f"unknown channel kind {kind!r}")


def encode_povm(povm: Povm) -> dict:
    return {
        "dim": povm.dim,
        "effects": [
            {"label": lbl, "matrix": encode_matrix(e)}
            for lbl, e in zip(povm.labels, povm.effects)
        ],
    }


def decode_effects(obj: dict, side: int) -> tuple[list[np.ndarray], list[str]]:
    """Matrices and labels of the ``effects`` list of a povm or ppovm file;
    every effect must be side x side."""
    effects = obj["effects"]
    mats = [decode_matrix(e["matrix"]) for e in effects]
    for k, m in enumerate(mats):
        if m.shape != (side, side):
            raise FormatError(f"effect {k} is {m.shape[0]}x{m.shape[1]}, not {side}x{side}")
    labels = effect_labels([str(e["label"]) for e in effects], len(mats), FormatError)
    return mats, list(labels)


def decode_povm_effects(obj: dict) -> tuple[list[np.ndarray], list[str]]:
    """Matrices and labels of a povm file; every effect is dim x dim."""
    return decode_effects(obj, int(obj["dim"]))


def decode_povm(obj: dict) -> Povm:
    effects, labels = decode_povm_effects(obj)
    return Povm(tuple(effects), tuple(labels))


def encode_ppovm(pp: ProcessPovm) -> dict:
    return {
        "d": pp.d,
        "effects": [
            {"label": lbl, "matrix": encode_matrix(m)} for lbl, m in zip(pp.labels, pp.effects)
        ],
    }


def decode_ppovm_effects(obj: dict) -> tuple[list[np.ndarray], list[str], int]:
    """Matrices, labels and d of a ppovm file; every effect is d^2 x d^2."""
    d = int(obj["d"])
    return *decode_effects(obj, d * d), d


def decode_ppovm(obj: dict, tol: float = DEFAULT_TOL) -> ProcessPovm:
    mats, labels, d = decode_ppovm_effects(obj)
    return validate_ppovm(mats, d, labels=labels, tol=tol)


def encode_couples(couples: list[TestCouple], d: int) -> dict:
    return {
        "d": d,
        "couples": [
            {
                "weight": float(c.weight),
                "anc_dim": c.anc_dim,
                "state": encode_matrix(c.state),
                "povm": [encode_matrix(e) for e in c.povm.effects],
            }
            for c in couples
        ],
    }


def decode_couples(obj: dict) -> tuple[list[TestCouple], int]:
    d = int(obj["d"])
    couples = []
    for entry in obj["couples"]:
        effects = tuple(decode_matrix(m) for m in entry["povm"])
        povm = Povm(effects, tuple(str(k) for k in range(len(effects))))
        couples.append(
            TestCouple(
                float(entry["weight"]),
                decode_matrix(entry["state"]),
                povm,
                int(entry["anc_dim"]),
            )
        )
    return couples, d


def encode_counts(record: ShotRecord) -> dict:
    return {
        "shots": record.shots,
        "seed": record.seed,
        "generator": record.generator,
        "counts": {lbl: int(n) for lbl, n in record.counts.items()},
    }


def decode_counts(obj: dict) -> ShotRecord:
    counts = {str(k): int(v) for k, v in obj["counts"].items()}
    if int(obj["shots"]) < 1:
        raise FormatError("shots must be at least 1")
    if any(n < 0 for n in counts.values()):
        raise FormatError("counts must be non-negative")
    record = ShotRecord(
        counts, int(obj["shots"]), int(obj["seed"]), str(obj.get("generator", "numpy-pcg64"))
    )
    if sum(counts.values()) != record.shots:
        raise FormatError("counts do not sum to the recorded shot total")
    return record


def encode_tomography_report(result: TomographyResult) -> dict:
    return {
        "ic_complete": result.ic_complete,
        "deficiency": result.deficiency,
        "residual": result.residual,
        "converged": result.converged,
        "hs_error": result.hs_error,
        "omega_raw": encode_matrix(result.omega_raw),
        "omega_projected": encode_matrix(result.omega_projected),
    }


def dumps(obj) -> str:
    """Deterministic JSON text: sorted keys, fixed layout, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def write_json(path, obj) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(obj))


def read_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
