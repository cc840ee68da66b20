"""Run one workload in this process and print its result as one JSON line.

Started by ``run.py`` with ``src`` on PYTHONPATH; not meant to be run by
hand.  The job loop is closed with one client: the next job starts when
the previous one ends.  Each job class gets a fixed share of the run's
wall time; at each step the class furthest behind its share runs next, so
the classes interleave and drift in machine speed hits them alike.
"""

import os
import time

T_START = time.perf_counter()
# BLAS and OpenMP read these once, when numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import ppovm  # noqa: E402
from speed import Clock, SpeedProbe  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

IMPORT_S = time.perf_counter() - T_START

SETUP_REPS = 5  # setup_s is the median of this many set-ups
IMPORTS = "import numpy, ppovm.cli, ppovm.rand"
P90_MIN_SAMPLES = 100  # a p90 needs at least ten samples above it

# per-layer metrics: <module>.<function>.{calls,busy_ms} for each call the
# benchmark makes, then <module>.{self_ms,errors} for each module
LAYER_CALLS = {
    "linalg": ("partial_trace",),
    "channels": ("choi_of_channel", "unitary_channel", "check_process_state", "Povm"),
    "measurement": ("build_ppovm", "validate_ppovm", "realize", "outcome_probabilities"),
    "tomography": ("ic_check", "linear_inversion", "simulate_counts", "reconstruction_error"),
    "discrimination": (
        "overlap", "necessary_condition", "unitary_eig", "zero_in_hull",
        "build_plan", "verify_plan", "min_copies",
    ),
    "schemes": ("pauli_probe_couple",),
    "rand": ("random_channel", "random_unitary"),
    "serialize": (
        "encode_channel", "encode_matrix", "encode_ppovm", "write_json",
        "read_json", "decode_matrix",
    ),
    "cli": ("validate", "probs", "simulate", "tomo", "convert", "discriminate"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        cpu = platform.processor() or platform.machine()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "ppovm": ppovm.__version__,
    }


def time_imports() -> float:
    """Seconds a fresh interpreter takes to import numpy and ppovm."""
    code = f"import time; t = time.perf_counter(); {IMPORTS}; print(time.perf_counter() - t)"
    proc = subprocess.run(
        [sys.executable, "-c", code], stdout=subprocess.PIPE, check=True, timeout=60
    )
    return float(proc.stdout)


def run_jobs(w, first_inputs, seconds: float, tracer, clock: Clock):
    """The closed job loop.  With a tracer, every other job of each class
    is traced so the two halves give the tracing overhead."""
    null = NullTracer()
    n = len(w.classes)
    # (scaled, raw, reference) seconds of each ok job, by traced or not
    durations = [{False: [], True: []} for _ in range(n)]
    spent, done = [0.0] * n, [0] * n
    failures, attempted, failed = [], 0, 0
    t0 = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t0
        due = [c for c in range(n) if done[c] < w.classes[c].min_jobs]
        if not due:
            # start a job only if a job of its class on average still fits
            due = [c for c in range(n) if elapsed + _ratio(spent[c], done[c]) <= seconds]
        if not due:
            break
        c = min(due, key=lambda c: spent[c] / w.classes[c].share)
        k, key = done[c], w.classes[c].key
        traced = tracer is not None and k % 2 == 0
        tr = tracer if traced else null
        job = f"{key}-{k}"
        start = time.perf_counter()
        attempted += 1
        try:
            with tr.span(f"input.{key}", job=job):
                x = first_inputs[c] if k == 0 else w.make_input(tr, c, k)
            # every job starts with no garbage left by the ones before it
            gc.collect()
            with SpeedProbe(clock) as probe, tr.span(f"job.{key}", job=job):
                out = w.run(tr, c, x)
            with tr.span(f"gate.{key}", job=job):
                fails = w.check(tr, c, k, x, out)
        except Exception as exc:  # a failed job is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            fails = [f"{w.name} {job}: {type(exc).__name__}: {exc}"]
        if fails:
            failed += 1
            failures.extend(fails)
        else:
            durations[c][traced].append((probe.scale(probe.elapsed), probe.elapsed, probe.reference))
        done[c] += 1
        spent[c] += time.perf_counter() - start
    return durations, failures, attempted, failed


def end_to_end(w, durations, setup_s):
    """The metrics every workload reports, plus table-only figures under
    per-size names such as tomo_ms_p50.d5."""
    jobs = [d[False] + d[True] for d in durations]
    times = [[j[0] for j in js] for js in jobs]
    # jobs a second when the time is split between the classes by share
    rate = sum(cls.share * _ratio(len(ts), sum(ts)) for cls, ts in zip(w.classes, times))
    metrics = {
        "setup_s": (statistics.median(setup_s), "s", len(setup_s)),
        "jobs_per_s": (rate, "1/s", sum(map(len, times))),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
    }
    aliases, extra = {}, {}
    for c, (cls, ts) in enumerate(zip(w.classes, times)):
        ms = [1e3 * t for t in ts]
        p50 = statistics.median(ms) if ms else None
        p90 = statistics.quantiles(ms, n=10)[8] if len(ms) >= P90_MIN_SAMPLES else None
        metrics[f"class{c + 1}_ms_p50"] = (p50, "ms", len(ms))
        aliases[f"class{c + 1}_ms_p50"] = f"{cls.stem}_p50.{cls.key}"
        if c == 0:
            # class 1 runs enough jobs for a p90 unless jobs fail
            metrics["class1_ms_p90"] = (p90, "ms", len(ms))
            aliases["class1_ms_p90"] = f"{cls.stem}_p90.{cls.key}"
        elif p90 is not None:
            extra[f"{cls.stem}_p90.{cls.key}"] = (p90, "ms", len(ms))
        raw = [1e3 * j[1] for j in jobs[c]]
        if raw:
            extra[f"unscaled {cls.stem}_p50.{cls.key}"] = (statistics.median(raw), "ms", len(raw))
    refs = [1e3 * j[2] for js in jobs for j in js]
    if refs:
        extra["reference kernel"] = (statistics.median(refs), "ms", len(refs))
    hs = getattr(w, "hs_err", {})
    if hs:
        values = [statistics.fmean(v) for v in hs.values()]
        extra["tomo_hs_err"] = (statistics.fmean(values), "HS", sum(map(len, hs.values())))
    return metrics, aliases, extra


def per_layer(w, tracer, durations):
    calls, busy, self_s, errors = tracer.rollup()
    counts = tracer.counts
    metrics = {}
    for module, names in LAYER_CALLS.items():
        for fn in names:
            metrics[f"{module}.{fn}.calls"] = (calls[f"{module}.{fn}"], "count")
            metrics[f"{module}.{fn}.busy_ms"] = (1e3 * busy[f"{module}.{fn}"], "ms")
    for module in LAYER_CALLS:
        metrics[f"{module}.self_ms"] = (1e3 * self_s[module], "ms")
        metrics[f"{module}.errors"] = (errors[module], "count")
    design_s = busy["tomography.ic_check"] + busy["tomography.linear_inversion"]
    hs = getattr(w, "hs_err", {})
    metrics.update({
        "tomography.design_cells": (counts["tomography.design_cells"], "cells-computed"),
        "tomography.design_cells_per_s": (
            _ratio(counts["tomography.design_cells"], design_s), "cells-computed/s"),
        "tomography.converged_frac": (
            _ratio(counts["tomography.converged"], calls["tomography.linear_inversion"]), "ratio"),
        "tomography.ic_complete_frac": (
            _ratio(counts["tomography.ic_complete"], calls["tomography.ic_check"]), "ratio"),
        "tomography.hs_err_mean": (
            statistics.fmean(statistics.fmean(v) for v in hs.values()) if hs else 0.0, "HS"),
        "measurement.effect_bytes": (counts["measurement.effect_bytes"], "B-computed"),
        "serialize.bytes_read": (counts["serialize.bytes_read"], "B-computed"),
        "serialize.bytes_written": (counts["serialize.bytes_written"], "B-computed"),
        "discrimination.hull_frac": (
            _ratio(counts["discrimination.hull"], calls["discrimination.zero_in_hull"]), "ratio"),
        "discrimination.copies_mean": (
            _ratio(counts["discrimination.copies"], calls["discrimination.min_copies"]), "count"),
        "trace.spans": (len(tracer.spans), "count"),
        "trace.overhead_pct": (_overhead_pct(durations), "%"),
    })
    return metrics


def _overhead_pct(durations) -> float:
    """Traced over untraced job time, in percent, for one job of each class
    that has both kinds."""
    both = [d for d in durations if d[False] and d[True]]
    traced = sum(statistics.median(j[0] for j in d[True]) for d in both)
    untraced = sum(statistics.median(j[0] for j in d[False]) for d in both)
    return 100.0 * (_ratio(traced, untraced) - 1.0) if untraced else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", help="write the traced run's spans here")
    args = parser.parse_args(argv)

    clock = Clock()
    tracer = Tracer(clock.now) if args.trace else None
    setup_tr = tracer or NullTracer()
    os.makedirs(args.workdir)
    try:
        setup_s = []
        for rep in range(SETUP_REPS):
            with SpeedProbe(clock) as probe:
                import_s = IMPORT_S if rep == 0 else time_imports()
                t = clock.now()
                with setup_tr.span("setup"):
                    w = WORKLOADS[args.workload](args.seed, args.workdir)
                    w.setup(setup_tr)
                    first = [w.make_input(setup_tr, c, 0) for c in range(len(w.classes))]
                build_s = clock.now() - t
            setup_s.append(probe.scale(import_s + build_s))
        gc.freeze()  # keep the set-up's objects out of later collections
        durations, failures, attempted, failed = run_jobs(w, first, args.seconds, tracer, clock)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)

    result = {
        "workload": w.name,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "env": _environment(),
    }
    if tracer is None:
        metrics, result["aliases"], extra = end_to_end(w, durations, setup_s)
        result["extra"] = {k: list(v) for k, v in extra.items()}
    else:
        metrics = {k: (*v, None) for k, v in per_layer(w, tracer, durations).items()}
        if args.spans:
            tracer.write(args.spans)
    result["metrics"] = {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in metrics.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
