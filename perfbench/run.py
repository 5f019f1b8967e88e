"""Closed-loop benchmark of the bollobas toolkit.

    python3 perfbench/run.py --workload scan|simulate|certify --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the package is imported from ``src/``.
One client on one thread runs the workload's job list back to back: once
untimed, then repeated until ``--seconds`` have passed.  Most jobs call
``bollobas.cli.main`` in process with stdout captured; the exact event oracle
has no subcommand and is called directly.  Every job's output is checked.

The CPU speed of a shared machine drifts by tens of percent within minutes,
so a fixed reference unit of pure-Python work is timed between jobs, and the
end-to-end times are reported in calibrated seconds: the measured time divided
by the reference unit's time around that moment, times REFERENCE_S.  A change
to the program moves these; a change of the machine's speed mostly does not.

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it wraps the package's layer functions, records a span per call, and reports
per-layer self times and work counters instead.  The last line of stdout is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--record-digests`` runs each job of the default seed once and
stores the sha256 of its stdout in ``digests.json``, which later runs with
that seed compare against.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0
MIN_SETUPS = 9  # set-up runs at least this often and for at least SETUP_SECONDS
SETUP_SECONDS = 1.5
REFERENCE_S = 0.001  # calibrated seconds per reference unit; one takes about a millisecond
PROBE_UNITS = 3  # reference units per probe
WINDOW_S = 0.5  # a job is calibrated by the probes within this many seconds of it
TAIL = 0.90
MIN_JOBS = 100  # so that the tail percentile has at least 10 samples above it

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def reference_unit() -> int:
    """Fixed pure-Python work of the kinds the package does: bit-mask tests in
    a generator, list shuffles with a seeded RNG, and Fraction arithmetic."""
    rng = random.Random(1)
    masks = [rng.getrandbits(12) for _ in range(28)]
    hits = sum(1 for a in masks for b in masks if not any(a & (b >> s) for s in (0, 3, 6)))
    order = list(range(28))
    for _ in range(8):
        rng.shuffle(order)
    x = Fraction(0)
    for k in range(1, 20):
        x += Fraction(order[k], k + 1)
    return hits + x.numerator % 7


def probe() -> float:
    """Seconds one reference unit takes now, the mean of PROBE_UNITS runs; a
    stall counts, as it does in a job's time."""
    start = time.perf_counter()
    for _ in range(PROBE_UNITS):
        reference_unit()
    return (time.perf_counter() - start) / PROBE_UNITS


class Calibration:
    """Probes of the reference unit taken between timed intervals.

    Interval i lies between probes i and i + 1.  It is calibrated by the
    median of the probes within WINDOW_S of its middle, and at least by those
    two: a single probe is noisy, and the drift that matters is slower.
    """

    def __init__(self):
        self.times: list[float] = []
        self.values: list[float] = []
        self.take()

    def take(self) -> None:
        value = probe()
        self.times.append(time.perf_counter())
        self.values.append(value)

    def scale(self, i: int, start: float, end: float) -> float:
        """Calibrated seconds of interval i, which ran from start to end."""
        mid = (start + end) / 2
        lo = min(i, bisect.bisect_left(self.times, mid - WINDOW_S))
        hi = max(i + 2, bisect.bisect_right(self.times, mid + WINDOW_S))
        return (end - start) * REFERENCE_S / statistics.median(self.values[lo:hi])


def _purge() -> None:
    for name in [n for n in sys.modules if n == "bollobas" or n.startswith("bollobas.")]:
        del sys.modules[name]


def setup(workload: str, seed: int, workdir: Path):
    """Import the package afresh and write the workload's inputs; returns (seconds, jobs)."""
    _purge()
    gc.collect()  # free the last set-up's package and inputs, so peak memory holds one copy
    start = time.perf_counter()
    pkg = importlib.import_module("bollobas")
    importlib.import_module("bollobas.cli")
    jobs = workloads.build(workload, pkg, seed, workdir)
    return time.perf_counter() - start, jobs


def quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Loop:
    """The closed loop: runs jobs, checks their outputs and keeps the tallies."""

    def __init__(self, jobs, golden: dict[str, str] | None):
        self.jobs = jobs
        self.golden = golden
        self.first: dict[str, str] = {}
        self.failures: Counter = Counter()
        self.counters: Counter = Counter()
        self.attempted = 0

    def attempt(self, job) -> None:
        """Run one job, check its output and count its work."""
        self.attempted += 1
        try:
            code, out = job.run()
        except Exception as exc:  # a raising job is a failed job, and the loop goes on
            self.failures[f"{job.name}: raised {exc!r}"] += 1
            return
        digest = hashlib.sha256(out.encode()).hexdigest()
        if self.first.setdefault(job.name, digest) != digest:
            problem = "stdout differs from this job's earlier run"
        elif self.golden is not None and self.golden.get(job.name) != digest:
            problem = "stdout differs from the recorded digest"
        else:
            try:
                problem = job.check(code, out)
                self.counters.update(job.count(out))
            except (ValueError, KeyError, TypeError) as exc:
                problem = f"unreadable output: {exc!r}"
        if job.cli:
            self.counters["cli.stdout_bytes"] += len(out.encode())
        if problem is not None:
            self.failures[f"{job.name}: {problem}"] += 1

    def warm_up(self) -> None:
        """One untimed, checked pass, so that first-use costs are not timed."""
        for job in self.jobs:
            self.attempt(job)
        self.counters.clear()

    def timed(self, seconds: float, calibrate: bool) -> tuple[list[float], list[float], float, float]:
        """Run whole passes until `seconds` have passed and at least MIN_JOBS
        jobs have run; returns the latencies, the calibrated latencies (empty
        unless `calibrate`), the wall time and the start time.

        Whole passes weigh every job the same in every run, so the percentiles
        do not depend on where a run happens to stop.  A pass is cut short only
        if the run has taken three times `seconds`.  With `calibrate`, the
        reference unit is probed before the first job and after every job, and
        each latency is calibrated by the probes around it.
        """
        latencies: list[float] = []
        intervals: list[tuple[float, float]] = []
        jobs = self.jobs
        cal = Calibration() if calibrate else None
        t0 = time.perf_counter()
        now = t0
        i = 0
        while (now - t0 < seconds or i < MIN_JOBS or i % len(jobs)) and now - t0 < 3 * seconds:
            start = time.perf_counter()
            self.attempt(jobs[i % len(jobs)])
            end = time.perf_counter()
            latencies.append(end - start)
            if cal is not None:
                cal.take()
                intervals.append((start, end))
            now = time.perf_counter()
            i += 1
        scaled = [cal.scale(k, *interval) for k, interval in enumerate(intervals)]
        return latencies, scaled, now - t0, t0


def layer_metrics(tracer: spans.Tracer, counters: Counter, wall: float) -> dict[str, tuple[float, str]]:
    per, root = tracer.summary()

    def calls(fn):
        return per.get(fn, [0, 0.0, 0])[0]

    def self_s(*fns):
        return sum(per.get(fn, [0, 0.0, 0])[1] for fn in fns)

    def ratio(a, b):
        return a / b if b else 0.0

    out: dict[str, tuple[float, str]] = {}
    for layer in spans.LAYERS:
        rows = [row for fn, row in per.items() if fn.startswith(layer + ".")]
        out[f"{layer}.calls"] = (sum(r[0] for r in rows), "count")
        out[f"{layer}.self_s"] = (sum(r[1] for r in rows), "s")
        out[f"{layer}.failed"] = (sum(r[2] for r in rows), "count")
    scans = self_s("families.bollobas_violation", "families.skew_violation")
    mc = self_s("events.monte_carlo")
    exact = self_s("events.exact_event_probability")
    named = {
        "families.bollobas_violation.self_s": (self_s("families.bollobas_violation"), "s"),
        "families.skew_violation.self_s": (self_s("families.skew_violation"), "s"),
        "families.pairs_checked": (counters["families.pairs_checked"], "count"),
        "families.pairs_per_s": (ratio(counters["families.pairs_checked"], scans), "1/s"),
        "search.max_bollobas_uniform.self_s": (self_s("search.max_bollobas_uniform"), "s"),
        "search.max_skew_uniform.self_s": (self_s("search.max_skew_uniform"), "s"),
        "search.nodes_explored": (counters["search.nodes_explored"], "count"),
        "search.useful_ratio": (ratio(counters["search.max_size"], counters["search.nodes_explored"]), "ratio"),
        "constructions.all_tuples_of_type.calls": (calls("constructions.all_tuples_of_type"), "count"),
        "constructions.all_tuples_of_type.self_s": (self_s("constructions.all_tuples_of_type"), "s"),
        "sums.bollobas_sum.self_s": (self_s("sums.bollobas_sum"), "s"),
        "sums.skew_sum.self_s": (self_s("sums.skew_sum"), "s"),
        "events.monte_carlo.self_s": (mc, "s"),
        "events.trials_per_s": (ratio(counters["events.trials"], mc), "1/s"),
        "events.tuple_checks_per_s": (ratio(counters["events.tuple_checks"], mc), "1/s"),
        "events.exact_event_probability.self_s": (exact, "s"),
        "events.exact_orderings_per_s": (ratio(counters["events.exact_orderings"], exact), "1/s"),
        "certificates.build_phi.self_s": (self_s("certificates.build_phi"), "s"),
        "certificates.sample_general_position.self_s": (self_s("certificates.sample_general_position"), "s"),
        "certificates.evaluation_matrix.self_s": (self_s("certificates.evaluation_matrix"), "s"),
        "certificates.constraints": (counters["certificates.constraints"], "count"),
        "certificates.useful_draw_ratio": (
            ratio(counters["certificates.accepted"], counters["certificates.draws"]), "ratio"),
        "spaces.subspace_family_from_json.self_s": (self_s("spaces.subspace_family_from_json"), "s"),
        "spaces.lift_to_spaces.self_s": (self_s("spaces.lift_to_spaces"), "s"),
        "spaces.skew_spaces_violation.self_s": (self_s("spaces.skew_spaces_violation"), "s"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "cli.stdout_bytes": (counters["cli.stdout_bytes"], "count"),
        "trace.coverage": (ratio(root, wall), "ratio"),
        "trace_overhead_frac": (ratio(len(tracer.label) * spans.span_cost(), wall), "ratio"),
    }
    for fn in ("rank", "det", "row_basis"):
        named[f"exterior.{fn}.calls"] = (calls(f"exterior.{fn}"), "count")
        named[f"exterior.{fn}.self_s"] = (self_s(f"exterior.{fn}"), "s")
    named["exterior.sum_rank.self_s"] = (self_s("exterior.sum_rank"), "s")
    out.update(named)
    return out


def record_digests(workload: str, workdir: Path) -> None:
    _, jobs = setup(workload, DEFAULT_SEED, workdir)
    loop = Loop(jobs, None)
    loop.warm_up()
    if loop.failures:
        raise SystemExit(f"digests not recorded: {sorted(loop.failures)}")
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {"seed": DEFAULT_SEED}
    digests[workload] = loop.first
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(loop.first)} digests for {workload} in {DIGESTS.name}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args(argv)

    if not (SRC / "bollobas" / "__init__.py").is_file():
        print(f"error: no package at {SRC}/bollobas; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = HERE / "out" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.record_digests:
            record_digests(args.workload, workdir)
            return 0
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: Path) -> int:
    setups: list[tuple[float, float]] = []
    cal = Calibration()
    while len(setups) < MIN_SETUPS or sum(e - s for s, e in setups) < SETUP_SECONDS:
        jobs = None
        seconds, jobs = setup(args.workload, args.seed, workdir)
        end = time.perf_counter()
        setups.append((end - seconds, end))
        cal.take()
    pkg_file = Path(sys.modules["bollobas"].__file__).resolve()
    if SRC.resolve() not in pkg_file.parents:
        print(f"error: imported bollobas from {pkg_file}, not from {SRC}", file=sys.stderr)
        return 2
    golden = None
    if args.seed == DEFAULT_SEED and DIGESTS.exists():
        golden = json.loads(DIGESTS.read_text()).get(args.workload)

    loop = Loop(jobs, golden)
    loop.warm_up()
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        bindings = tracer.install("bollobas")
    latencies, scaled, wall, t0 = loop.timed(args.seconds, calibrate=tracer is None)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failures = loop.attempted, loop.failures
    failed = sum(failures.values())

    n = len(latencies)
    print(f"# workload {args.workload}, seed {args.seed}, {len(jobs)} jobs in the list, "
          f"closed loop with one client, one untimed pass then {wall:.2f} s timed")
    print(f"# python {platform.python_version()}, {os.cpu_count()} cpus, {platform.machine()}")
    print(f"# latency over {n} jobs: p50 and p{round(TAIL * 100)} (nearest rank); "
          f"{n - math.ceil(TAIL * n)} samples above the tail percentile")
    wall_sorted = sorted(latencies)
    print(f"# wall clock: setup {statistics.median(e - s for s, e in setups):.4g} s, "
          f"{n / sum(latencies):.4g} jobs/s "
          f"busy, p50 {quantile(wall_sorted, 0.5) * 1e3:.4g} ms, "
          f"p{round(TAIL * 100)} {quantile(wall_sorted, TAIL) * 1e3:.4g} ms")
    print(f"# failed_frac = {failed / attempted:.6g} ({failed} of {attempted} jobs)")
    for what, times in sorted(failures.items()):
        print(f"# FAILED x{times}: {what}")
    if tracer is None:
        ordered = sorted(scaled)
        # the pass rate when every job takes its median time: a long job slowed
        # by a passing stall moves the mean but not the median of its copies
        by_job: dict[int, list[float]] = {}
        for k, seconds in enumerate(scaled):
            by_job.setdefault(k % len(jobs), []).append(seconds)
        values = {
            "setup_s": statistics.median(cal.scale(k, *interval) for k, interval in enumerate(setups)),
            "jobs_per_s": len(jobs) / sum(statistics.median(v) for v in by_job.values()),
            "job_p50_ms": quantile(ordered, 0.5) * 1000.0,
            "job_p90_ms": quantile(ordered, TAIL) * 1000.0,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        layer = layer_metrics(tracer, loop.counters, wall)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        trace_file = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json.gz"
        tracer.dump(trace_file, t0)
        print(f"# {len(tracer.labels)} functions wrapped at {bindings} module bindings; "
              f"{len(tracer.label)} spans written to {trace_file.relative_to(ROOT)}")
    for k, m in metrics.items():
        print(f"{k} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
