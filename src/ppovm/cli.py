"""Command-line front end over the JSON file formats.

Exit codes: 0 success, 1 domain or invariant failure, 2 usage, I/O or
parse failure, or memory exhausted.  Malformed input, every
``serialize.FormatError`` (non-finite numbers among them), is a parse
failure; so is an option out of its range, such as a ``--tol`` that is
not positive and finite.  ``--tol`` is the tolerance of every invariant
check made on the input files; ``validate`` prints the library's own
check entries.  Table output is for humans; ``--format json`` is the
stable surface.

Every file is read as UTF-8 JSON, whatever the locale; table text that
the output stream's encoding cannot hold is written as backslash escapes.
In one process, successive ``main`` calls share the work a process-POVM
file's content needs, for the two most recently used contents: the file
is read on every call and parsed once per content.  Each kept entry is
one content at one ``--tol``, and computes each result on first use and
keeps it: the validated effects, their realization as an experiment,
their tomography design's factorization, and ``validate``'s checks and
``--format json`` text.  A call at another ``--tol`` replaces the entry
by one at that ``--tol``, which shares the decoded effects and computes
every result again.  A content
is kept only while the most it can come to hold is at most 16 MiB
(1.33 MB for a dense d=3 file of 144 effects).
Separate ``ppovm`` processes share nothing.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import math
import pathlib
import sys

import numpy as np

from . import schemes, serialize
from .channels import (
    HADAMARD,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    all_pass,
    check_process_state,
    choi_of_channel,
    contraction_channel,
    depolarizing_channel,
    identity_channel,
    ket,
    povm_checks,
    projector,
    state_checks,
    trace_preservation_checks,
)
from .discrimination import pair_report
from .linalg import DEFAULT_TOL, Check, max_abs
from .measurement import (
    ProcessPovm, TestCouple, outcome_probabilities, ppovm_checks, realize, validate_ppovm,
)
from .tomography import MAX_SHOTS, linear_inversion, reconstruction_error, simulate_counts


class ParseFailure(Exception):
    """File missing, unreadable, or structurally malformed."""


@contextlib.contextmanager
def _reading(path):
    # an unreadable or malformed file is a parse failure (exit 2); the
    # library's ValueErrors (invariant violations) propagate and exit 1
    try:
        yield
    except (OSError, serialize.FormatError) as exc:
        raise ParseFailure(f"{path}: {exc}") from exc


def _read(path, decode, **kwargs):
    with _reading(path):
        return decode(serialize.read_json(path), **kwargs)


# What the CLI keeps of the last _PPOVM_FILES process-POVM contents read,
# least recently used first.  Two, so that a caller alternating two scheme
# files never misses.  A content is found by comparing its bytes with each
# kept content's, which costs less than hashing them would (~0.02 ms
# against ~0.24 ms for a 0.69 MB d=3 file); nothing is hashed.  A content
# is kept only when the most it can come to hold (``_Kept.bound``) is at
# most _PPOVM_BYTES: 1.33 MB for that d=3 file, but the effects and the
# Gram eigenbasis of a product file, with N d^4 values and a side of
# d^4 - d^2, can be far larger than its O(d^2) text.  _CHECK_BYTES bounds
# one entry of validate's report with its share of the JSON text: a
# (name, value, passed) tuple takes ~180 bytes with its list slot, and its
# entry in the text ~100 (tracemalloc reads 314 a check for that file).
_PPOVM_FILES = 2
_PPOVM_BYTES = 16 << 20
_CHECK_BYTES = 352


def _report(kind: str, checks, **extra) -> dict:
    """``validate``'s JSON payload: the verdict, each check and ``extra``."""
    return {
        "kind": kind,
        "ok": all_pass(checks),
        "checks": [
            {"name": name, "value": float(value), "pass": bool(passed)}
            for name, value, passed in checks
        ],
        **extra,
    }


@dataclasses.dataclass(eq=False)
class _Kept:
    """One process-POVM content at one ``--tol``: the file's bytes, their
    decoding, and what is computed from them at ``tol`` on first use.  That
    is ``validate``'s checks with the read-only norm state and its
    ``--format json`` text, kept whether or not the checks pass, and the
    process POVM (which keeps its own Gram factorization once ``tomo`` asks
    for it) with its realization.  A getter that raises keeps nothing, so a
    validation that fails keeps no process POVM."""

    raw: bytes
    decoded: tuple[np.ndarray, tuple[str, ...], int]
    tol: float

    def bound(self) -> int:
        """Bytes this content can come to hold: the file, the stack, a
        realized stack no larger, the design (N (d^4 - d^2) doubles), a
        dense Gram eigenbasis ((d^4 - d^2)^2 doubles) and the report's
        3N + 3 check entries, each with its text, and its d x d norm
        state."""
        stack = self.decoded[0]
        side = stack.shape[1]
        cols = side**2 - side
        report = _CHECK_BYTES * (3 * len(stack) + 3) + 16 * side
        return len(self.raw) + 2 * stack.nbytes + 8 * cols * (len(stack) + cols) + report

    @functools.cached_property
    def report(self) -> tuple[tuple[Check, ...], np.ndarray]:
        """``ppovm_checks`` of the effects, and the norm state."""
        stack, _, d = self.decoded
        checks, rho = ppovm_checks(stack, d, self.tol)
        rho.setflags(write=False)
        return tuple(checks), rho

    @functools.cached_property
    def text(self) -> str:
        """``validate``'s ``--format json`` text of the checks."""
        checks, rho = self.report
        extra = {"norm_state": serialize.encode_matrix(rho), "n_effects": len(self.decoded[0])}
        return serialize.dumps(_report("ppovm", checks, **extra))

    @functools.cached_property
    def ppovm(self) -> ProcessPovm:
        """The process POVM, validated."""
        stack, labels, d = self.decoded
        return validate_ppovm(stack, d, labels=labels, tol=self.tol)

    @functools.cached_property
    def realization(self) -> TestCouple:
        """The realization of the process POVM: ``realize``'s couple."""
        return realize(self.ppovm, self.tol)


_ppovm_memo: list[_Kept] = []


def _read_kept(path, tol: float) -> _Kept:
    """The content of the process-POVM file at ``path``, at ``tol``: the
    file is read on every call and parsed only when no kept content has its
    bytes.  A kept content at another tol is replaced by a new entry at
    ``tol`` that shares its decoding and none of its results.  A read that
    fails is not kept."""
    with _reading(path):
        raw = pathlib.Path(path).read_bytes()
        kept = next((k for k in _ppovm_memo if k.raw == raw), None)
        if kept is None:
            kept = _Kept(raw, serialize.decode_ppovm_effects(serialize.parse_json(raw)), tol)
        else:
            _ppovm_memo.remove(kept)
            if kept.tol != tol:
                kept = _Kept(raw, kept.decoded, tol)
    if kept.bound() <= _PPOVM_BYTES:
        _ppovm_memo.append(kept)
        if len(_ppovm_memo) > _PPOVM_FILES:
            del _ppovm_memo[0]
    return kept


def _emit(args, payload: dict, table) -> None:
    """Print ``payload`` as JSON, or the lines ``table()`` gives; JSON
    output builds no table text.  A table line that the stream's encoding
    cannot hold, such as a label under the C locale, is written with
    backslash escapes (JSON text is ASCII)."""
    if args.format == "json":
        sys.stdout.write(serialize.dumps(payload))
    else:
        for line in table():
            try:
                print(line)
            except UnicodeEncodeError:  # raised before any of the line is written
                encoding = sys.stdout.encoding
                print(line.encode(encoding, "backslashreplace").decode(encoding))


def _fmt(x: float) -> str:
    return f"{x:.12g}"


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    # finite entries near the float limit overflow in sums and traces; the
    # report shows the inf and NaN values they become, as failed checks
    with np.errstate(over="ignore", invalid="ignore"):
        if args.kind == "state":
            m = _read(args.path, serialize.decode_square_matrix)
            checks = state_checks(m, args.tol)
        elif args.kind == "povm":
            effects, _ = _read(args.path, serialize.decode_povm_effects)
            checks = povm_checks(effects, args.tol)
        elif args.kind == "channel":
            ch = _read(args.path, serialize.decode_channel, tol=args.tol)
            checks = trace_preservation_checks(ch, args.tol)
        else:
            kept = _read_kept(args.path, args.tol)
            checks, rho = kept.report
    ok = all_pass(checks)

    def table():
        for name, value, passed in checks:
            yield f"{name}: {_fmt(value)} [{'ok' if passed else 'FAIL'}]"
        if args.kind == "ppovm":
            yield "norm_state: " + np.array2string(rho, precision=6, suppress_small=True)
        yield "valid" if ok else "INVALID"

    if args.kind == "ppovm" and args.format == "json":
        sys.stdout.write(kept.text)
    else:
        _emit(args, _report(args.kind, checks), table)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# convert
# ---------------------------------------------------------------------------


def cmd_convert(args) -> int:
    # as in validate: sums of entries near the float limit overflow, and the
    # trace-preservation check fails on the inf they become
    with np.errstate(over="ignore", invalid="ignore"):
        ch = _read(args.path, serialize.decode_channel, tol=args.tol)
        if not all_pass(trace_preservation_checks(ch, args.tol)):
            print("warning: channel is not trace preserving", file=sys.stderr)
        kind = "choi" if args.direction == "kraus2choi" else "kraus"
        out = serialize.encode_channel(ch, kind=kind)
        residual = max_abs(choi_of_channel(serialize.decode_channel(out)) - choi_of_channel(ch))
    serialize.write_json(args.out, out)
    _emit(
        args,
        {"out": args.out, "round_trip_residual": float(residual)},
        lambda: [f"wrote {args.out}", f"round_trip_residual: {_fmt(residual)}"],
    )
    return 0


# ---------------------------------------------------------------------------
# probs
# ---------------------------------------------------------------------------


def cmd_probs(args) -> int:
    pp = _read_kept(args.ppovm, args.tol).ppovm
    ch = _read(args.channel, serialize.decode_channel, tol=args.tol)
    probs = outcome_probabilities(pp, ch, args.tol)
    payload = {
        "probs": {lbl: float(p) for lbl, p in zip(pp.labels, probs)},
        "sum": float(probs.sum()),
    }

    def table():
        for lbl, p in zip(pp.labels, probs):
            yield f"{lbl}\t{_fmt(p)}"
        yield f"sum\t{_fmt(probs.sum())}"

    _emit(args, payload, table)
    return 0


# ---------------------------------------------------------------------------
# tomo
# ---------------------------------------------------------------------------


def cmd_tomo(args) -> int:
    pp = _read_kept(args.ppovm, args.tol).ppovm
    if args.exact is not None:
        ch = _read(args.exact, serialize.decode_channel, tol=args.tol)
        probs = outcome_probabilities(pp, ch, args.tol)
    else:
        record = _read(args.counts, serialize.decode_counts)
        if set(record.counts) != set(pp.labels):
            raise ValueError("counts labels do not match the measurement's outcomes")
        probs = record.frequencies(pp.labels)
    result = linear_inversion(pp, probs)
    if args.truth is not None:
        truth_ch = _read(args.truth, serialize.decode_channel, tol=args.tol)
        truth = check_process_state(choi_of_channel(truth_ch), pp.d, args.tol)
        result = dataclasses.replace(result, hs_error=reconstruction_error(result, truth))
    if not result.ic_complete:
        print(
            f"warning: measurement is informationally deficient, deficiency = {result.deficiency}; "
            "reconstruction is minimum-norm",
            file=sys.stderr,
        )
    report = serialize.encode_tomography_report(result)
    if args.out:
        serialize.write_json(args.out, report)
    # the result's fields, in order: the matrices are only written, the rest printed
    fields = {k: v for k, v in report.items() if not isinstance(v, dict)}
    lines = [
        f"{k}: {_fmt(v) if isinstance(v, float) else v}" for k, v in fields.items() if v is not None
    ]
    _emit(args, {**fields, "out": args.out} if args.out else fields, lambda: lines)
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    ch = _read(args.channel, serialize.decode_channel, tol=args.tol)
    real = _read_kept(args.ppovm, args.tol).realization
    record = simulate_counts(ch, real, args.shots, args.seed, args.tol)
    serialize.write_json(args.out, serialize.encode_counts(record))
    _emit(
        args,
        {"out": args.out, "shots": record.shots, "seed": record.seed},
        lambda: [f"wrote {args.out} ({record.shots} shots, seed {record.seed})"],
    )
    return 0


# ---------------------------------------------------------------------------
# discriminate
# ---------------------------------------------------------------------------


def cmd_discriminate(args) -> int:
    u = _read(args.u, serialize.decode_square_matrix)
    v = _read(args.v, serialize.decode_square_matrix)
    report = pair_report(u, v, args.copies, args.tol)
    plan = report.plan
    plan_payload = None if plan is None else {
        "probe": serialize.encode_vector(plan.probe),
        "povm": serialize.encode_effects(plan.povm.effects, plan.povm.labels),
        # the process POVM {rho^T (x) F_k} in product form: O(d^2) numbers
        "ppovm": serialize.encode_product_ppovm(
            [projector(plan.probe).T], plan.povm.effects, plan.povm.labels
        ),
        "error_rates": [float(x) for x in plan.error_rates],
    }
    lines = [
        f"overlap: {_fmt(report.overlap)}",
        f"necessary_condition: {report.necessary}",
        f"zero_in_hull: {report.zero_in_hull}",
    ]
    if report.always_indistinguishable:
        lines.append("always indistinguishable: the channels differ by a global phase")
    elif args.copies is not None:
        copies = report.min_copies
        lines.append(f"min_copies: {copies if copies is not None else f'none <= {args.copies}'}")
    if plan is not None:
        lines.append(f"plan: error rates {plan_payload['error_rates']}")
    # the report's fields, in order, are the payload's keys
    _emit(args, {**vars(report), "plan": plan_payload}, lambda: lines)
    return 0


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

_UNITARIES = {
    "identity-matrix": lambda args: np.eye(args.d, dtype=complex),
    "pauli-x": lambda args: PAULI_X,
    "pauli-y": lambda args: PAULI_Y,
    "pauli-z": lambda args: PAULI_Z,
    "hadamard": lambda args: HADAMARD,
    "phase": lambda args: np.diag([1.0, np.exp(1j * args.angle)]),
}

_CHANNELS = {
    "identity": lambda args: identity_channel(args.d),
    "contraction": lambda args: contraction_channel(ket(0, args.d)),
    "depolarizing": lambda args: depolarizing_channel(args.p, args.d),
}

_PPOVMS = {
    "pauli-probe": schemes.pauli_probe_ppovm,
    "six-state": schemes.six_state_ppovm,
    "identity-vs-contraction": schemes.identity_vs_contraction_ppovm,
}

GEN_NAMES = sorted([*_UNITARIES, *_CHANNELS, *_PPOVMS])

# generators of fixed qubit objects, which take no --d but the default 2
_QUBIT_ONLY = frozenset({"pauli-x", "pauli-y", "pauli-z", "hadamard", "phase", *_PPOVMS})


def cmd_gen(args) -> int:
    if args.name not in GEN_NAMES:
        raise ParseFailure(f"unknown generator {args.name!r}; choose from {GEN_NAMES}")
    if args.d < 1:
        raise ParseFailure(f"gen {args.name}: --d must be at least 1, got {args.d}")
    if args.d != 2 and args.name in _QUBIT_ONLY:
        raise ParseFailure(f"gen {args.name} writes a qubit object: --d must be 2, got {args.d}")
    if args.name in _PPOVMS:
        obj = serialize.encode_ppovm(_PPOVMS[args.name]())
    elif args.name in _CHANNELS:
        obj = serialize.encode_channel(_CHANNELS[args.name](args))
    else:
        obj = serialize.encode_matrix(_UNITARIES[args.name](args))
    serialize.write_json(args.out, obj)
    _emit(args, {"out": args.out, "name": args.name}, lambda: [f"wrote {args.out}"])
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: each ``parse_args``
    call makes a fresh namespace from the defaults."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--tol", type=float, default=DEFAULT_TOL, help="tolerance of every invariant check"
    )
    common.add_argument(
        "--format", choices=("json", "table"), default="table", help="output format"
    )

    parser = argparse.ArgumentParser(
        prog="ppovm", description="Process measurements on quantum channels."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common], help="check a file's invariants")
    p.add_argument("kind", choices=("state", "povm", "channel", "ppovm"))
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("convert", parents=[common], help="convert channel representations")
    p.add_argument("direction", choices=("kraus2choi", "choi2kraus"))
    p.add_argument("path")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("probs", parents=[common], help="outcome probabilities")
    p.add_argument("ppovm")
    p.add_argument("channel")
    p.set_defaults(func=cmd_probs)

    p = sub.add_parser("tomo", parents=[common], help="reconstruct a channel")
    p.add_argument("ppovm")
    p.add_argument("--exact", help="channel file: use exact probabilities")
    p.add_argument("--counts", help="counts file from simulate")
    p.add_argument("--truth", help="channel file to compare against")
    p.add_argument("--out", help="write the full report here")
    p.set_defaults(func=cmd_tomo)

    p = sub.add_parser("simulate", parents=[common], help="sample measurement outcomes")
    p.add_argument("channel")
    p.add_argument("ppovm")
    p.add_argument("--shots", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("discriminate", parents=[common], help="perfect discrimination report")
    p.add_argument("u")
    p.add_argument("v")
    p.add_argument("--copies", type=int, help="search minimal parallel copies up to here")
    p.set_defaults(func=cmd_discriminate)

    p = sub.add_parser("gen", parents=[common], help="write a built-in example file")
    p.add_argument("name", metavar=f"{{{','.join(GEN_NAMES)}}}")
    p.add_argument("--d", type=int, default=2, help="qudit dimension")
    p.add_argument("--p", type=float, default=0.5, help="depolarizing strength")
    p.add_argument("--angle", type=float, default=np.pi / 2, help="phase-gate angle")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    return parser


# (option, least, most allowed value) of the integer options; the library's
# own range checks stay as they are, these are usage errors
_INT_RANGES = (("shots", 1, MAX_SHOTS), ("seed", 0, math.inf), ("copies", 1, math.inf))


def _check_usage(args) -> None:
    tol = getattr(args, "tol", 1.0)
    if not (math.isfinite(tol) and tol > 0):
        raise ParseFailure(f"--tol must be positive and finite, got {tol}")
    if args.command == "tomo" and (args.exact is None) == (args.counts is None):
        raise ParseFailure("provide exactly one of --exact or --counts")
    for name, least, most in _INT_RANGES:
        value = getattr(args, name, None)
        if value is not None and value < least:
            raise ParseFailure(f"--{name} must be at least {least}, got {value}")
        if value is not None and value > most:
            raise ParseFailure(f"--{name} must be at most {most}, got {value}")
    # gen's float options; NaN fails every comparison
    angle = getattr(args, "angle", 0.0)
    if not math.isfinite(angle):
        raise ParseFailure(f"--angle must be finite, got {angle}")
    strength = getattr(args, "p", 0.0)
    if not 0.0 <= strength <= 1.0:
        raise ParseFailure(f"--p must be in [0, 1], got {strength}")


# argparse takes only digit-led negatives such as -1 or -.5 for values, so
# "--tol -1e-9" or "--angle -inf" would read as a missing value; main
# writes such a pair as "--tol=-1e-9", which reaches the range checks
_FLOAT_OPTIONS = ("--tol", "--angle", "--p")


def _is_float_option(token: str) -> bool:
    """Whether ``token`` is a float option, in full or abbreviated."""
    return len(token) > 2 and token.startswith("--") and any(
        option.startswith(token) for option in _FLOAT_OPTIONS
    )


def _join_float_values(argv: list[str]) -> list[str]:
    """``argv`` with each float option joined to a following token that
    ``float`` accepts."""
    out = []
    for token in argv:
        if out and _is_float_option(out[-1]):
            try:
                float(token)
            except ValueError:
                pass
            else:
                out[-1] = f"{out[-1]}={token}"
                continue
        out.append(token)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(_join_float_values(argv))
    try:
        _check_usage(args)
        return args.func(args)
    except (ParseFailure, OSError) as exc:  # OSError: an --out that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # e.g. the dense effects of a large product file
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2
    except (ValueError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
