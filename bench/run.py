#!/usr/bin/env python3
"""Layered benchmark for esym.

    python3 bench/run.py --workload expand|enumerate|formula|all
                         [--seed N] [--seconds S] [--trace 0|1]

One workload runs in one process, single-threaded and closed-loop: one
client, and each job starts when the previous one has finished.  The
workload's cycle of jobs runs in whole cycles until --seconds have passed
(at least MIN_CYCLES cycles).  Jobs and set-ups are timed in CPU time of
this process: esym is single-threaded pure computation, so on an idle
core its CPU time is its wall time, while on a shared host the wall clock
also counts the time the host gives to other tenants.  Each timing is
taken at the reference host speed (reference_time()): a fixed loop that
does not touch esym (probe()) runs right before and right after the timed
call, and the call's CPU time is scaled by REFERENCE_PROBE_S over the
loop's mean time.  The host this benchmark was built on changes speed by
up to 1.5x, in phases from under a second to minutes, and the loop slows
down with it.  Every cycle runs the same jobs, and each job's latency is
the median of its scaled times over the cycles.  jobs_per_s, job_ms_p50
and job_ms_tail are taken over the per-job latencies of every job, failed
ones included; jobs_per_s counts only verified jobs.  Set-up (import
esym, make_field for every field, input generation from the seed) runs
SETUP_REPEATS times from a cold import, spread over the run, and their
median is setup_s.  Each set-up replaces the live one, so peak_rss_mb
covers one set-up and its jobs.  Every answer is checked outside the
timed region by bench/checks.py; a job that raises or fails its check
counts as failed and never aborts the run.

--trace 0 prints the end-to-end metrics; --trace 1 runs one cycle with
every public esym layer wrapped (bench/tracing.py) and prints the per-layer
metrics, writing the spans to bench/out/.  The last stdout line is always
one JSON object {"correct", "attempted", "failed", "metrics"}.
--workload all runs each workload in its own child process, one after the
other, for a human reading the tables.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing
from workloads import BUILDERS, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
SETUP_REPEATS = 11
CLOCK = time.process_time   # CPU time of this process; see the module docstring
MIN_CYCLES = 4
PROBE_LOOPS = 3000
# probe()'s time on the 2-core host this benchmark was built on, in its
# fast phases; times are reported as if the host always ran at that speed
REFERENCE_PROBE_S = 0.75e-3
# tail percentiles tried from the top; the highest with at least ten jobs
# beyond it is used, so it is fixed per workload
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 85.0, 80.0, 75.0, 50.0)
END_TO_END = {  # name: unit
    "setup_s": "s", "jobs_per_s": "1/s", "job_ms_p50": "ms",
    "job_ms_tail": "ms", "peak_rss_mb": "MB",
}


def import_esym():
    """A cold import of esym from this checkout's src/ directory."""
    for name in [m for m in sys.modules if m == "esym" or m.startswith("esym.")]:
        del sys.modules[name]
    esym = importlib.import_module("esym")
    importlib.import_module("esym.cli")
    if SRC not in Path(esym.__file__).resolve().parents:
        raise ImportError(f"esym was imported from {esym.__file__}, not from {SRC}")
    return esym


def probe() -> float:
    """CPU time of a fixed loop of the interpreter work esym does (small
    tuples, dicts, ints and strings), independent of esym: the host-speed
    reference."""
    t0 = CLOCK()
    total = 0
    for i in range(PROBE_LOOPS):
        total += len((i, i + 1, str(i))) + {i: i}.get(i, 0)
    return CLOCK() - t0


def reference_time(fn):
    """(result, error, seconds): fn's CPU time at the reference host
    speed, that is scaled by REFERENCE_PROBE_S over the mean time of the
    probes right before and right after it.  An exception from fn is
    returned, not raised."""
    before = probe()
    t0 = CLOCK()
    try:
        result, error = fn(), None
    except Exception as exc:  # a raising job is a failure, not an abort
        result, error = None, exc
    elapsed = CLOCK() - t0
    after = probe()
    return result, error, elapsed * 2.0 * REFERENCE_PROBE_S / (before + after)


def set_up(workload: str, seed: int):
    """A cold set-up, timed.  It starts and ends with settle(), so that
    each set-up starts with the collector in the same state."""
    settle()
    jobs, error, elapsed = reference_time(lambda: BUILDERS[workload](import_esym(), seed))
    if error is not None:
        raise error
    settle()
    return jobs, elapsed


def settle():
    """Keep the live objects out of the collector's scans: the inputs are
    the benchmark's, not the program's, and their number should not time
    jobs or set-ups."""
    gc.collect()
    gc.freeze()


class Tally:
    """Latencies of verified runs, the latencies of each job of the cycle
    over all its runs, the jobs that ever failed, and time spent
    checking."""

    def __init__(self):
        self.latencies: list[tuple[str, float]] = []
        self.runs: dict[int, list[float]] = {}
        self.failed_jobs: set[int] = set()
        self.attempted = 0
        self.failures: list[str] = []
        self.check_s = 0.0

    def job_latencies(self) -> list[float]:
        """Each job's median latency over its runs, in seconds."""
        return [statistics.median(times) for times in self.runs.values()]

    def run_cycle(self, jobs, tracer=None) -> float:
        """Run every job once; return the cycle's job time in seconds."""
        busy = 0.0
        for index, job in enumerate(jobs):
            self.attempted += 1
            if tracer is not None:
                tracer.start_job(f"{job.kind}#{index}")
            answer, error, elapsed = reference_time(job.run)
            if tracer is not None:
                tracer.stop_job()
            busy += elapsed
            self.runs.setdefault(index, []).append(elapsed)
            t1 = time.perf_counter()
            if error is not None:
                self.failures.append(f"{job.kind}#{index} raised {error!r}")
                self.failed_jobs.add(index)
            else:
                self.check(job, index, answer, elapsed)
            self.check_s += time.perf_counter() - t1
        return busy

    def check(self, job, index: int, answer, elapsed: float) -> None:
        try:
            job.check(answer)
        except checks.CheckFailed as exc:
            self.failures.append(f"{job.kind}#{index}: {exc}")
            self.failed_jobs.add(index)
        except Exception as exc:  # a malformed answer can break a checker
            self.failures.append(f"{job.kind}#{index} check raised {exc!r}")
            self.failed_jobs.add(index)
        else:
            self.latencies.append((job.kind, elapsed))


def percentile(sorted_values, pct: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = (len(sorted_values) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    return next((p for p in TAIL_LADDER if n * (100.0 - p) / 100.0 >= 10), 50.0)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def set_up_again(workload: str, seed: int):
    """A cold set-up in place of the live one, which the caller has
    dropped: its objects are unfrozen, so that they are collected and one
    set-up is alive at a time."""
    gc.unfreeze()
    return set_up(workload, seed)


def run_end_to_end(workload: str, seed: int, seconds: float):
    jobs, elapsed = set_up(workload, seed)
    setups = [elapsed]
    tally = Tally()
    cycles = []
    t0 = time.perf_counter()
    cpus = sorted(os.sched_getaffinity(0))
    while len(cycles) < MIN_CYCLES or time.perf_counter() - t0 < seconds:
        # a shared host slows one core at a time for up to tens of seconds;
        # cycles take turns on the cores, so that a run does not sit on the
        # slow one
        os.sched_setaffinity(0, {cpus[len(cycles) % len(cpus)]})
        cycles.append(tally.run_cycle(jobs))
        # the set-ups are spread over the run, so that their median samples
        # the host's speed over the run rather than in one phase; the same
        # seed gives the same jobs in the same order
        if (len(setups) < SETUP_REPEATS
                and time.perf_counter() - t0 >= seconds * len(setups) / SETUP_REPEATS):
            jobs = None
            jobs, elapsed = set_up_again(workload, seed)
            setups.append(elapsed)
    os.sched_setaffinity(0, cpus)
    while len(setups) < SETUP_REPEATS:
        jobs = None
        jobs, elapsed = set_up_again(workload, seed)
        setups.append(elapsed)
    verified = len(tally.latencies)
    job_ms = sorted(t * 1000.0 for t in tally.job_latencies())
    tail_p = tail_percentile(len(jobs))
    metrics = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": 1000.0 * (len(jobs) - len(tally.failed_jobs)) / sum(job_ms),
        "job_ms_p50": statistics.median(job_ms),
        "job_ms_tail": percentile(job_ms, tail_p),
        "peak_rss_mb": peak_rss_mb(),
    }
    failed = tally.attempted - verified
    lines = [f"workload {workload}  seed {seed}  cycles {len(cycles)}  jobs/cycle {len(jobs)}  "
             f"job time {sum(cycles):.2f} s  check time {tally.check_s:.2f} s",
             f"  {'setup_s':<14}{metrics['setup_s']:>12.4f} s      median of {len(setups)} cold set-ups",
             f"  {'jobs_per_s':<14}{metrics['jobs_per_s']:>12.4f} 1/s    {len(jobs) - len(tally.failed_jobs)} of {len(job_ms)} jobs verified, median of {len(cycles)} runs each",
             f"  {'job_ms_p50':<14}{metrics['job_ms_p50']:>12.4f} ms     n = {len(job_ms)} jobs",
             f"  {'job_ms_tail':<14}{metrics['job_ms_tail']:>12.4f} ms     p{tail_p:g}, n = {len(job_ms)} jobs, "
             f"{len(job_ms) - int(len(job_ms) * tail_p / 100.0)} beyond",
             f"  {'failed_frac':<14}{failed / tally.attempted:>12.4f}        "
             f"{failed} of {tally.attempted} attempted",
             f"  {'peak_rss_mb':<14}{metrics['peak_rss_mb']:>12.4f} MB",
             "  cycle job times (s, reference speed): " + " ".join(f"{b:.3f}" for b in cycles),
             "  set-up times (s, reference speed): " + " ".join(f"{b:.3f}" for b in setups),
             "  per job kind: count, median ms, max ms"]
    by_kind: dict[str, list[float]] = {}
    for kind, t in tally.latencies:
        by_kind.setdefault(kind, []).append(t * 1000.0)
    for kind in sorted(by_kind):
        v = by_kind[kind]
        lines.append(f"    {kind:<22}{len(v):>6}{statistics.median(v):>12.3f}{max(v):>12.3f}")
    return tally, metrics, lines


def run_traced(workload: str, seed: int, seconds: float):
    """Per-layer metrics from one traced cycle, with the trace overhead
    measured against untraced cycles of the same jobs."""
    esym = import_esym()
    tracer = tracing.Tracer()
    tracer.install()
    tracer.start_job("setup")
    jobs = BUILDERS[workload](esym, seed)
    tracer.stop_job()
    tracer.uninstall()
    settle()
    plain = Tally()
    untraced = []
    t0 = time.perf_counter()
    while len(untraced) < 2 or time.perf_counter() - t0 < seconds:
        untraced.append(plain.run_cycle(jobs))
    tracer.install()
    tally = Tally()
    traced = tally.run_cycle(jobs, tracer)
    tracer.uninstall()
    metrics = tracer.per_layer()
    metrics["bench.check_s"] = (tally.check_s, "s")
    metrics["bench.trace_overhead_frac"] = (traced / min(untraced) - 1.0, "frac")
    path = tracer.write(BENCH_DIR / "out" / f"trace-{workload}-{seed}.jsonl.gz")
    lines = [f"workload {workload}  seed {seed}  traced cycle: {len(jobs)} jobs, "
             f"{len(tracer.spans)} spans written to {path.relative_to(BENCH_DIR.parent)}"]
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:<34}{value:>16.6g} {unit}")
    lines += tracer.self_time_table()
    tally.attempted += plain.attempted
    tally.latencies += plain.latencies
    tally.failures += plain.failures
    return tally, metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        results = {}
        for workload in WORKLOADS:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            out = proc.stdout.rstrip("\n").split("\n")
            print("\n".join(out[:-1]), flush=True)
            if proc.returncode != 0:
                print(f"error: workload {workload} exited with {proc.returncode}",
                      file=sys.stderr)
                return 1
            results[workload] = json.loads(out[-1])
        print(json.dumps(results, sort_keys=True))
        return 0

    if not (SRC / "esym" / "__init__.py").is_file():
        print(f"error: no esym sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.trace:
        tally, metrics, lines = run_traced(args.workload, args.seed, args.seconds)
        out_metrics = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    else:
        tally, metrics, lines = run_end_to_end(args.workload, args.seed, args.seconds)
        out_metrics = {name: {"value": metrics[name], "unit": unit}
                       for name, unit in END_TO_END.items()}
    for line in lines:
        print(line)
    for failure in tally.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    failed = tally.attempted - len(tally.latencies)
    print(json.dumps({"correct": failed == 0, "attempted": tally.attempted,
                      "failed": failed, "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
