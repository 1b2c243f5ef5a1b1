"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload hot_read --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics, measured with no
tracing; with ``--trace 1`` they are the per-layer metrics of a traced
run plus its tracing overhead.  The line before it holds the details: the
host record, every latency percentile, sample counts, the exact counters
and any failures.  The program is imported from ``src/`` next to this
directory; without it the script exits with status 2 and prints no
result.  See ``README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
perf = time.perf_counter

#: Measured seconds between two calibrations of the host's speed: the
#: host changes speed within a tenth of a second, so a window must be
#: shorter than that to run at one speed.
WINDOW_S = 0.02

#: End-to-end metrics every untraced run reports (BENCHMARK.json).
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_ops_s", "ops/s"),
    ("query_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# Host record
# ----------------------------------------------------------------------


def steal_ticks() -> int | None:
    """Cumulative steal ticks of all CPUs (``/proc/stat``), if readable."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def git_sha(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_record(seed: int, *, traced: bool) -> dict:
    """Where and how the run was made; ``affinity`` is the CPU the run
    is pinned to."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "git_sha": git_sha(ROOT),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "traced": traced,
    }


# ----------------------------------------------------------------------
# Phases
# ----------------------------------------------------------------------


@dataclass
class Phase:
    ops: int
    measured: float  #: wall seconds the steps took
    cpu: float  #: CPU seconds the program spent in the steps
    scaled_cpu: float  #: ``cpu`` at the reference speed
    latencies: dict  #: kind -> latencies in seconds at the reference speed
    exact: Counter
    exact_at: int  #: operations completed when ``exact`` was read


def run_phase(workload, seconds: float, scale, *, max_ops=None, tracer=None):
    """Closed loop until ``seconds`` of measured time (or ``max_ops``).

    Only the steps are timed: the clocks stop while answers are checked.
    Every ``WINDOW_S`` of measured time ``scale`` calibrates the host's
    speed, and the window's times are scaled by it.  The exact counts
    are read once the phase completed ``workload.exact_ops`` operations.
    """
    exact = None
    exact_at = 0
    ops = 0
    measured = cpu = scaled_cpu = 0.0
    window_wall = window_cpu = 0.0
    raw = workload.latencies
    marks = {kind: len(values) for kind, values in raw.items()}
    latencies = {kind: array("d") for kind in raw}
    limit = max_ops if max_ops is not None else float("inf")
    scale.restart()
    while measured < seconds and ops < limit:
        if tracer is not None:
            tracer.op = ops
            tracer.active = True
        started = perf()
        cpu_started = workload.cpu_seconds()
        ops += workload.step()
        spent_cpu = workload.cpu_seconds() - cpu_started
        spent = perf() - started
        if tracer is not None:
            tracer.active = False
        window_wall += spent
        window_cpu += spent_cpu
        measured += spent
        cpu += spent_cpu
        if window_wall >= WINDOW_S or not (measured < seconds and ops < limit):
            # Calibrate before the checks, which may start a new round:
            # the reference must run next to the window it scales.
            wall_factor, cpu_factor = scale.close()
            scaled_cpu += window_cpu * cpu_factor
            for kind, values in raw.items():
                latencies[kind].extend(x * wall_factor for x in values[marks[kind]:])
                marks[kind] = len(values)
            window_wall = window_cpu = 0.0
        workload.check()
        if exact is None and ops >= workload.exact_ops:
            exact, exact_at = _exact_counts(workload, tracer), ops
    if exact is None:
        exact, exact_at = _exact_counts(workload, tracer), ops
    workload.finish()
    return Phase(ops, measured, cpu, scaled_cpu, latencies, exact, exact_at)


def _exact_counts(workload, tracer) -> Counter:
    counts = workload.snapshot_counters()
    if tracer is not None:
        counts.update(tracer.counts)
    return counts


def percentile_ms(samples, fraction: float) -> float:
    import numpy

    return float(numpy.percentile(samples, fraction * 100.0)) * 1e3 if samples else 0.0


def measured_run(cls, seed: int, seconds: float, workdir: str):
    workload = cls(seed, workdir)
    scale = calibrate.Scale()
    setups = []
    raw_setups = []
    try:
        for _ in range(workload.setup_repeats):
            if workload.state is not None:
                workload.teardown()
                gc.collect()
            scale.restart()
            started = perf()
            workload.setup()
            took = perf() - started
            raw_setups.append(took)
            setups.append(took * scale.close()[0])
        workload.start()
        host = host_record(seed, traced=False)
        steal_before = steal_ticks()
        phase = run_phase(workload, seconds, scale)
        steal_after = steal_ticks()
    finally:
        _teardown(workload)
    latencies = phase.latencies
    queries = latencies["query"]
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_ops_s": phase.ops / phase.scaled_cpu,
        "query_p50_ms": percentile_ms(queries, 0.50),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw_queries = workload.latencies["query"]
    detail = {
        "host": host,
        "reference_ms": statistics.median(scale.seen) * 1e3,
        "calibrations": len(scale.seen),
        "setups_s": setups,
        "raw_setups_s": raw_setups,
        "ops": phase.ops,
        "measured_s": phase.measured,
        "cpu_s": phase.cpu,
        "raw_throughput_ops_s": phase.ops / phase.cpu,
        "wall_throughput_ops_s": phase.ops / phase.measured,
        "raw_query_p50_ms": percentile_ms(raw_queries, 0.50),
        "raw_query_p90_ms": percentile_ms(raw_queries, 0.90),
        "steal_ticks": _difference(steal_before, steal_after),
        "samples": {kind: len(values) for kind, values in latencies.items()},
        "query_p90_ms": percentile_ms(queries, 0.90),
        "query_p99_ms": percentile_ms(queries, 0.99),
        "exact_at_ops": phase.exact_at,
        "exact": dict(sorted(phase.exact.items())),
        "counts": dict(sorted(workload.counters.items())),
    }
    for kind in ("write", "reverse"):
        if kind in latencies:
            detail[f"{kind}_p50_ms"] = percentile_ms(latencies[kind], 0.50)
            detail[f"{kind}_p90_ms"] = percentile_ms(latencies[kind], 0.90)
    return workload, metrics, detail


def traced_run(cls, seed: int, seconds: float, workdir: str):
    """Traced phase, then an untraced replay of the same operations.

    Both phases start from a fresh set-up on the same seed and run the
    same operation stream; the replay gives the tracing overhead and a
    second reading of the exact counters, which must agree.
    """
    import tracing

    extra = {}
    scale = calibrate.Scale()
    workload = cls(seed, workdir)
    tracer = tracing.Tracer()
    try:
        workload.setup()
        workload.start()
        host = host_record(seed, traced=True)
        steal_before = steal_ticks()
        tracing.install(tracer)
        try:
            traced = run_phase(workload, seconds / 2, scale, tracer=tracer)
        finally:
            tracer.uninstall()
        steal_after = steal_ticks()
    finally:
        _teardown(workload)
    ops = traced.ops
    if workload.spawns_owners:
        extra["owner.service_us"] = workload.owner_seconds / ops * 1e6
        extra["owner.cpu_ms_per_query"] = workload.owner_cpu / ops * 1e3
        extra["owner.start_ms"] = statistics.median(workload.start_ms)
    gc.collect()

    replay = cls(seed, workdir)
    try:
        replay.setup()
        replay.start()
        untraced = run_phase(replay, 4 * seconds, scale, max_ops=ops)
    finally:
        _teardown(replay)
    repeat = untraced.exact_at == traced.exact_at and all(
        traced.exact[key] == value for key, value in untraced.exact.items()
    )
    extra["trace.overhead_pct"] = (
        (traced.scaled_cpu / ops) / (untraced.scaled_cpu / untraced.ops) - 1.0
    ) * 100.0
    metrics = tracing.layer_metrics(
        tracer, ops=ops, exact=traced.exact, exact_ops=traced.exact_at, extra=extra
    )
    detail = {
        "host": host,
        "ops": ops,
        "measured_s": traced.measured,
        "steal_ticks": _difference(steal_before, steal_after),
        "cpu_s": traced.cpu,
        "replay_ops": untraced.ops,
        "replay_cpu_s": untraced.cpu,
        "spans": len(tracer.spans),
        "exact_at_ops": traced.exact_at,
        "exact": dict(sorted(traced.exact.items())),
        "exact_counters_repeat": repeat,
    }
    if not repeat:
        print(
            "perfbench: NONDETERMINISM: the exact counters of the traced "
            "phase and its replay differ",
            file=sys.stderr,
        )
    workload.attempted += replay.attempted
    workload.failed += replay.failed
    workload.failures += replay.failures
    return workload, metrics, detail


def _teardown(workload) -> None:
    """Release what the workload set up (owner processes included)."""
    if workload.state is not None:
        workload.teardown()


def _difference(before, after):
    return after - before if before is not None and after is not None else None


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    from workloads import WORKLOADS

    cls = WORKLOADS.get(args.workload)
    if cls is None:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    traced = bool(args.trace)
    # Scratch files (the networked snapshot) stay inside the checkout.
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="perfbench-", dir=ROOT / ".bench_build")
    # One CPU for the whole run, inherited by networked's owner process:
    # no operation or calibration waits for a move or a wake-up across
    # CPUs, and on a small VM a cross-CPU wake-up per round trip costs
    # more than the round trip itself.
    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(affinity)})
    try:
        run = traced_run if traced else measured_run
        workload, values, detail = run(cls, args.seed, args.seconds, workdir)
    finally:
        os.sched_setaffinity(0, affinity)
        shutil.rmtree(workdir, ignore_errors=True)
    units = dict(tracing.PER_LAYER if traced else END_TO_END)
    attempted = max(1, workload.attempted)
    detail = {
        "workload": args.workload,
        "failed_ops_ratio": workload.failed / attempted,
        "failures": workload.failures,
        **detail,
    }
    print(json.dumps({"detail": detail}))
    print(
        json.dumps(
            {
                "correct": workload.failed == 0,
                "attempted": attempted,
                "failed": workload.failed,
                "metrics": {
                    name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
