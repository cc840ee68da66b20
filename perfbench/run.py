"""The ppovm benchmark: one command, three closed-loop workloads.

    python3 perfbench/run.py --workload tomo-sweep --seed 1 --seconds 20 --trace 0

Run it from the root of a source tree that holds ``src/ppovm``; nothing
needs installing.  Each workload runs in a fresh worker process with BLAS
and OpenMP pinned to one thread, one client, jobs back to back.  Inputs
come from ``--seed`` and are made outside the timed region.

Workloads, each with three job classes (class1/2/3):

* ``tomo-sweep``: build_ppovm -> validate_ppovm -> realize -> ic_check ->
  simulate_counts -> linear_inversion -> reconstruction_error on a fresh
  random channel, at d = 2 / 3 / 5 (36 / 144 / 900 effects).  Tomography
  and measurement do the work; discrimination is idle.
* ``unitary-pairs``: overlap, necessary_condition, unitary_eig,
  zero_in_hull, then build_plan + verify_plan for Haar pairs at
  d = 16 / 32, or min_copies for narrow-arc pairs at d = 10.
  Discrimination does the work; tomography is idle.
* ``cli-files``: in-process ``ppovm.cli.main`` passes over JSON files --
  validate, probs, simulate, tomo, convert, discriminate -- at d = 2 / 3,
  and ``discriminate`` on a Haar pair at d = 8.  cli and serialize do
  the work.

With ``--trace 0`` the last line of output is a JSON object whose
``metrics`` are the end-to-end metrics of BENCHMARK.json; above it a
table gives each metric with its unit and sample count, under its
per-size name too (``class3_ms_p50`` of tomo-sweep is ``tomo_ms_p50.d5``).
Times are rescaled to a fixed core speed (see ``speed.py``); the table
also gives the unscaled medians.
With ``--trace 1`` the metrics are the per-layer ones, from spans the
benchmark records around its own calls into ``ppovm``; the spans are
written to ``perfbench/_out/``.  ``--workload all`` runs the three
workloads in turn.  The run exits 1 when a correctness gate fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tomo-sweep", "unitary-pairs", "cli-files")
TIMEOUT_S = 170


def run_worker(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in its own process and return its result."""
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    tag = f"{workload}-seed{seed}-trace{trace}"
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--workdir", os.path.join(HERE, "_work", f"{tag}-{os.getpid()}"),
    ]
    if trace:
        os.makedirs(os.path.join(HERE, "_out"), exist_ok=True)
        cmd += ["--spans", os.path.join(HERE, "_out", f"spans-{tag}.jsonl")]
    # subprocess.run kills the worker and waits for it on timeout
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, timeout=TIMEOUT_S)
    try:
        os.rmdir(os.path.join(HERE, "_work"))
    except OSError:
        pass
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def print_table(r: dict, seed: int, seconds: float, trace: int) -> None:
    env = r["env"]
    print(f"# workload {r['workload']}  seed {seed}  seconds {seconds}  trace {trace}")
    print(
        f"# python {env['python']}  numpy {env['numpy']}  blas {env['blas']} "
        f"({env['blas_threads']} thread)  nproc {env['nproc']}  cpu {env['cpu']}"
    )
    print(f"# jobs attempted {r['attempted']}  failed {r['failed']}")
    for msg in r["failures"]:
        print(f"# FAILED {msg}")
    aliases = r.get("aliases", {})
    rows = [(k, m["value"], m["unit"], m["n"], aliases.get(k, "")) for k, m in r["metrics"].items()]
    rows += [(k, v, unit, n, "(table only)") for k, (v, unit, n) in r.get("extra", {}).items()]
    if not trace:
        rows.append(("failed_frac", r["failed"] / r["attempted"], "ratio", r["attempted"], "(table only)"))
    for name, value, unit, n, note in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        samples = "" if n is None else f"n={n}"
        print(f"{name:<44} {shown:>12} {unit:<16} {samples:<7} {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "ppovm", "__init__.py")):
        print(f"error: no ppovm sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        try:
            r = run_worker(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print_table(r, args.seed, args.seconds, args.trace)
        results.append(r)

    def key(r, name):
        return name if len(results) == 1 else f"{r['workload']}/{name}"

    metrics = {
        key(r, k): {"value": m["value"], "unit": m["unit"]}
        for r in results for k, m in r["metrics"].items()
    }
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = failed == 0 and all(m["value"] is not None for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
