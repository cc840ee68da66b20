"""The three workloads: their job classes, inputs, jobs and correctness gates.

Each workload has three job classes.  A class is one kind of job at one
size; the scheduler in ``worker.py`` gives each class a fixed share of the
run's time.  For a job of class ``c`` the worker calls, in order:

* ``make_input(tr, c, k)`` -- seeded by (workload seed, c, k), untimed;
* ``run(tr, c, x)``        -- the timed job;
* ``check(tr, c, k, x, out)`` -- untimed gates, returning failure messages.

``setup(tr)`` builds what every job reuses.  All calls into ``ppovm`` go
through the tracer ``tr``.
"""

from __future__ import annotations

import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import numpy as np

from ppovm import (
    channels,
    cli,
    discrimination,
    linalg,
    measurement,
    rand,
    schemes,
    serialize,
    tomography,
)

from inputs import haar_pair, mub_couple, narrow_arc_pair, rotate_couple

EXACT_TOL = 1e-8
PLAN_RATE_TOL = 1e-9


@dataclass(frozen=True)
class JobClass:
    key: str  # size label, e.g. "d5"
    stem: str  # stem of the per-size metric name, e.g. "tomo_ms" in tomo_ms_p50.d5
    share: float  # share of the run's wall time
    min_jobs: int  # jobs to run even past the deadline


def _max_dev(a, b) -> float:
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


# ---------------------------------------------------------------------------
# tomo-sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TomoInput:
    d: int
    couple: measurement.TestCouple
    channel: channels.KrausChannel
    truth: np.ndarray
    shots: int
    sim_seed: int


class TomoSweep:
    """Full reconstructions of fresh random channels at d = 2, 3, 5."""

    name = "tomo-sweep"
    classes = (
        JobClass("d2", "tomo_ms", 0.2, 110),
        JobClass("d3", "tomo_ms", 0.4, 1),
        JobClass("d5", "tomo_ms", 0.4, 2),  # one 5-7 s job is too few for a median
    )
    dims = (2, 3, 5)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.hs_err: dict[int, list[float]] = {}  # per class

    def setup(self, tr) -> None:
        self.base = [tr(schemes.pauli_probe_couple), mub_couple(tr, 3), mub_couple(tr, 5)]

    def make_input(self, tr, c: int, k: int) -> TomoInput:
        rng = np.random.default_rng([self.seed, c, k])
        d = self.dims[c]
        couple = rotate_couple(tr, self.base[c], rng)
        ch = tr(rand.random_channel, d, rng)
        truth = tr(channels.choi_of_channel, ch)
        # about 1000 counts per outcome whatever the number of outcomes
        shots = 1000 * len(couple.povm)
        return TomoInput(d, couple, ch, truth, shots, int(rng.integers(2**31)))

    def run(self, tr, c: int, x: TomoInput):
        d = x.d
        pp = tr(measurement.build_ppovm, [x.couple], d)
        pp = tr(measurement.validate_ppovm, list(pp.matrices), d, labels=list(pp.labels))
        real = tr(measurement.realize, pp)
        ic = tr(tomography.ic_check, pp)
        record = tr(tomography.simulate_counts, x.channel, real, x.shots, x.sim_seed)
        result = tr(tomography.linear_inversion, pp, record.frequencies(pp.labels))
        err = tr(tomography.reconstruction_error, result, x.truth)
        return pp, ic, result, err

    def check(self, tr, c: int, k: int, x: TomoInput, out) -> list[str]:
        pp, (complete, deficiency), result, err = out
        d, n = x.d, len(pp)
        fails = []
        if not complete or deficiency:
            fails.append(f"d={d}: scheme not informationally complete, deficiency {deficiency}")
        try:
            tr(channels.check_process_state, result.omega_projected, d)
        except ValueError as exc:
            fails.append(f"d={d}: projected estimate is not a process state: {exc}")
        marginal = tr(linalg.partial_trace, result.omega_raw, d, d, "second")
        if _max_dev(marginal, np.eye(d)) > EXACT_TOL:
            fails.append(f"d={d}: raw estimate has a wrong second marginal")
        if not math.isfinite(err):
            fails.append(f"d={d}: HS error is {err}")
        self.hs_err.setdefault(c, []).append(err)
        results = [result]
        if k == 0:
            # the first job of each size also inverts exact probabilities
            probs = tr(measurement.outcome_probabilities, pp, x.channel)
            exact = tr(tomography.linear_inversion, pp, probs)
            results.append(exact)
            dev = _max_dev(exact.omega_raw, x.truth)
            if dev > EXACT_TOL:
                fails.append(f"d={d}: exact-probability inversion is off by {dev:.3e}")
        cells = n * (d**4 - d**2)
        tr.count("tomography.design_cells", cells * (1 + len(results)))
        tr.count("measurement.effect_bytes", n * d**4 * 16)
        tr.count("tomography.ic_complete", bool(complete))
        tr.count("tomography.converged", sum(r.converged for r in results))
        return fails


# ---------------------------------------------------------------------------
# unitary-pairs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairInput:
    u: np.ndarray
    v: np.ndarray
    copies: int | None  # ceil(pi / theta) for a narrow-arc pair, else None


class UnitaryPairs:
    """Haar pairs that get a one-shot plan, narrow arcs that need copies."""

    name = "unitary-pairs"
    classes = (
        JobClass("d16", "plan_ms", 0.2, 110),
        JobClass("d32", "plan_ms", 0.4, 1),
        JobClass("d10", "copies_ms", 0.4, 1),
    )
    dims = (16, 32, 10)
    arc_copies = 10

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def setup(self, tr) -> None:
        pass

    def make_input(self, tr, c: int, k: int) -> PairInput:
        rng = np.random.default_rng([self.seed, c, k])
        d = self.dims[c]
        if self.classes[c].stem == "copies_ms":
            u, v, theta = narrow_arc_pair(tr, d, self.arc_copies, rng)
            return PairInput(u, v, math.ceil(math.pi / theta))
        return PairInput(*haar_pair(tr, d, rng), None)

    def run(self, tr, c: int, x: PairInput):
        u, v = x.u, x.v
        tr(discrimination.overlap, u, v)
        necessary = tr(discrimination.necessary_condition, u, v)
        phases, _ = tr(discrimination.unitary_eig, u.conj().T @ v)
        hull = tr(discrimination.zero_in_hull, phases)
        if hull:
            plan = tr(discrimination.build_plan, u, v)
            ch_u = tr(channels.unitary_channel, u)
            ch_v = tr(channels.unitary_channel, v)
            return hull, necessary, tr(discrimination.verify_plan, ch_u, ch_v, plan)
        n_max = (x.copies or 1) + 2
        return hull, necessary, tr(discrimination.min_copies, u, v, n_max)

    def check(self, tr, c: int, k: int, x: PairInput, out) -> list[str]:
        hull, necessary, answer = out
        d = self.dims[c]
        tr.count("discrimination.hull", bool(hull))
        if x.copies is None:
            if not (hull and necessary):
                return [f"d={d}: Haar pair failed the hull or necessary condition"]
            if max(abs(r) for r in answer) > PLAN_RATE_TOL:
                return [f"d={d}: plan error rates {answer}"]
            return []
        tr.count("discrimination.copies", answer or 0)
        if hull or answer != x.copies:
            return [f"d={d}: min_copies {answer}, expected {x.copies}"]
        return []


# ---------------------------------------------------------------------------
# cli-files
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CliInput:
    d: int
    files: tuple[str, ...]  # channel file, or the two unitary files at d=8
    shots: int
    sim_seed: int


class CliFiles:
    """In-process ``ppovm.cli.main`` passes over JSON files."""

    name = "cli-files"
    classes = (
        JobClass("d2", "cli_ms", 0.4, 110),
        JobClass("d3", "cli_ms", 0.4, 1),
        JobClass("d8", "disc_ms", 0.2, 1),
    )
    dims = (2, 3, 8)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.hs_err: dict[int, list[float]] = {}  # per class

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def _write(self, tr, name: str, obj) -> str:
        path = self._path(name)
        tr(serialize.write_json, path, obj)
        tr.count("serialize.bytes_written", os.path.getsize(path))
        return path

    def setup(self, tr) -> None:
        # one scheme file per size, reused by every pass as a lab would
        couples = {2: tr(schemes.pauli_probe_couple), 3: mub_couple(tr, 3)}
        for d, couple in couples.items():
            pp = tr(measurement.build_ppovm, [couple], d)
            self._write(tr, f"scheme{d}.json", tr(serialize.encode_ppovm, pp))
        phase = np.diag([1.0, np.exp(1j * math.pi / 5)])
        self._write(tr, "identity.json", tr(serialize.encode_matrix, np.eye(2)))
        self._write(tr, "phase.json", tr(serialize.encode_matrix, phase))

    def make_input(self, tr, c: int, k: int) -> CliInput:
        rng = np.random.default_rng([self.seed, c, k])
        d = self.dims[c]
        if self.classes[c].stem == "disc_ms":
            u, v = haar_pair(tr, d, rng)
            files = tuple(
                self._write(tr, name, tr(serialize.encode_matrix, m))
                for name, m in (("u.json", u), ("v.json", v))
            )
            return CliInput(d, files, 0, 0)
        ch = tr(rand.random_channel, d, rng)
        path = self._write(tr, f"channel{d}.json", tr(serialize.encode_channel, ch))
        n_effects = d**2 * (d + 1) ** 2
        return CliInput(d, (path,), 1000 * n_effects, int(rng.integers(2**31)))

    @staticmethod
    def _cli(tr, *argv) -> tuple[int, str]:
        out = io.StringIO()
        with tr.span(f"cli.{argv[0]}"), redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main([*argv, "--format", "json"])
        return code, out.getvalue()

    def run(self, tr, c: int, x: CliInput):
        if self.classes[c].stem == "disc_ms":
            return {"discriminate": self._cli(tr, "discriminate", *x.files)}
        scheme, (channel,) = self._path(f"scheme{x.d}.json"), x.files
        counts, report = self._path("counts.json"), self._path("report.json")
        return {
            "validate": self._cli(tr, "validate", "ppovm", scheme),
            "probs": self._cli(tr, "probs", scheme, channel),
            "simulate": self._cli(
                tr, "simulate", channel, scheme, "--shots", str(x.shots),
                "--seed", str(x.sim_seed), "--out", counts,
            ),
            "tomo": self._cli(
                tr, "tomo", scheme, "--counts", counts, "--truth", channel, "--out", report
            ),
            "convert": self._cli(
                tr, "convert", "kraus2choi", channel, "--out", self._path("choi.json")
            ),
            "discriminate": self._cli(
                tr, "discriminate", self._path("identity.json"), self._path("phase.json"),
                "--copies", "10",
            ),
        }

    def check(self, tr, c: int, k: int, x: CliInput, out) -> list[str]:
        fails = [f"d={x.d}: {step} exited {code}" for step, (code, _) in out.items() if code]
        if fails:
            return fails
        disc = json.loads(out["discriminate"][1])
        if self.classes[c].stem == "disc_ms":
            rates = (disc["plan"] or {}).get("error_rates", [1.0])
            if not disc["zero_in_hull"] or disc["min_copies"] != 1:
                fails.append("d=8: Haar pair reported as not one-shot discriminable")
            elif max(abs(r) for r in rates) > PLAN_RATE_TOL:
                fails.append(f"d=8: plan error rates {rates}")
            return fails
        if disc["min_copies"] != 5:
            fails.append(f"identity vs phase pi/5: min_copies {disc['min_copies']}, expected 5")
        if not json.loads(out["validate"][1])["ok"]:
            fails.append(f"d={x.d}: scheme file failed validation")
        path = self._path("report.json")
        report = tr(serialize.read_json, path)
        tr.count("serialize.bytes_read", os.path.getsize(path))
        omega = tr(serialize.decode_matrix, report["omega_projected"])
        try:
            tr(channels.check_process_state, omega, x.d)
        except ValueError as exc:
            fails.append(f"d={x.d}: projected estimate is not a process state: {exc}")
        self.hs_err.setdefault(c, []).append(float(report["hs_error"]))
        return fails


WORKLOADS = {w.name: w for w in (TomoSweep, UnitaryPairs, CliFiles)}
