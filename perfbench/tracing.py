"""Spans and counts recorded around the program's public entry points.

The traced run installs wrappers from the benchmark's own files; nothing
under ``src/`` knows about them.  Each name is patched where its caller
looks it up (``repro.exec.run.QueryContext``, not the class's home
module), and :meth:`Tracer.uninstall` puts every original back.

A span is ``(id, name, start, end, parent id, op id, self seconds)``.
Self time is the span's duration minus the durations of its child spans.
Spans stay in memory until the run ends, where :func:`layer_metrics`
folds them into per-layer numbers.  While the tracer is paused (the
benchmark checks answers, for instance) the wrappers record nothing.
"""

from __future__ import annotations

import json
import time
import types
from collections import Counter

perf = time.perf_counter


class Tracer:
    """Records spans and counts; installs and removes the wrappers."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.op = 0
        self.active = True
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple] = []

    def traced(self, name: str, function, on_result=None):
        """``function`` wrapped in a span named ``name``."""
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return function(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf()
            try:
                result = function(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer.spans.append(
                    (span_id, name, start, end, parent, tracer.op, duration - frame[1])
                )
                tracer.counts[name] += 1
            if on_result is not None:
                on_result(tracer.counts, result)
            return result

        wrapper.__wrapped__ = function
        return wrapper

    def counted(self, name: str, function):
        """``function`` wrapped in a bare call counter (no span)."""
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counts[name] += 1
            return function(*args, **kwargs)

        wrapper.__wrapped__ = function
        return wrapper

    def patch(self, owner, key: str, replacement) -> None:
        """Replace ``owner.key`` (or ``owner[key]`` for a dict)."""
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key], False))
            owner[key] = replacement
            return
        inherited = isinstance(owner, type) and key not in vars(owner)
        self._patches.append((owner, key, getattr(owner, key), inherited))
        setattr(owner, key, replacement)

    def wrap(self, owner, key: str, name: str, on_result=None) -> None:
        original = owner[key] if isinstance(owner, dict) else getattr(owner, key)
        self.patch(owner, key, self.traced(name, original, on_result))

    def uninstall(self) -> None:
        """Put every patched name back, last patch first."""
        while self._patches:
            owner, key, original, inherited = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            elif inherited:
                delattr(owner, key)
            else:
                setattr(owner, key, original)

    def self_seconds(self) -> Counter:
        """Summed self time per span name."""
        totals: Counter = Counter()
        for span in self.spans:
            totals[span[1]] += span[6]
        return totals


def _count_outcome(counts, looked) -> None:
    counts[f"cache.{looked.outcome}"] += 1


def _count_tally(counts, result) -> None:
    tally = result.tally
    counts["exec.executions"] += 1
    counts["exec.sorted"] += tally.sorted
    counts["exec.random"] += tally.random
    counts["exec.direct"] += tally.direct


def _count_reverse(counts, result) -> None:
    stats = result.stats
    counts["reverse.users"] += stats.users
    counts["reverse.bound_decided"] += stats.bound_in + stats.bound_out
    counts["reverse.fallbacks"] += stats.fallbacks
    counts["reverse.boundary_hits"] += stats.boundary_hits


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry points (the README's layer table)."""
    import repro.columnar.database as columnar_database
    import repro.distributed.socket_transport as socket_transport
    import repro.dynamic.database as dynamic_database
    import repro.exec.certify as certify
    import repro.exec.drivers as drivers
    import repro.exec.run as exec_run
    import repro.reverse.engine as reverse_engine
    import repro.reverse.index as reverse_index
    import repro.scoring.functions as scoring
    import repro.service.cache as cache
    import repro.service.planner as planner
    import repro.service.service as service
    import repro.service.sharding as sharding
    import repro.watch.manager as watch

    wrap = tracer.wrap
    wrap(service.QueryService, "submit", "service.submit")
    wrap(service.QueryService, "_refresh", "service.refresh")
    wrap(planner.QueryPlanner, "plan", "planner.plan")
    wrap(planner, "ListStatistics", "planner.statistics")
    wrap(cache.ResultCache, "lookup", "cache.lookup", _count_outcome)
    wrap(cache.ResultCache, "put", "cache.put")
    wrap(sharding.ShardExecutor, "run", "executor.run")
    wrap(sharding.ShardExecutor, "reload", "executor.reload")
    wrap(sharding, "execute_query", "exec.execute", _count_tally)
    wrap(exec_run, "QueryContext", "columnar.context")
    get_kernel = exec_run.get_kernel
    tracer.patch(
        exec_run,
        "get_kernel",
        lambda name: tracer.traced("columnar.kernel", get_kernel(name)),
    )
    wrap(service, "patch_database", "columnar.patch")
    wrap(columnar_database.ColumnarDatabase, "layout", "columnar.layout")
    for cls in (scoring.SumScoring, scoring.WeightedSumScoring):
        tracer.patch(cls, "__call__", tracer.counted("scoring", cls.__call__))
    wrap(certify, "classify_delta", "exec.certify")
    for name in list(drivers.DRIVERS):
        wrap(drivers.DRIVERS, name, "exec.driver")
    for method in ("update_score", "insert_item", "remove_item"):
        wrap(dynamic_database.DynamicDatabase, method, "dynamic.write")
    wrap(watch.SubscriptionManager, "on_mutation", "watch.maintain")
    wrap(reverse_engine.ReverseTopkEngine, "query", "reverse.query", _count_reverse)
    wrap(reverse_engine.ReverseTopkEngine, "on_mutation", "reverse.maintain")
    wrap(reverse_index.RTopkIndex, "decide", "reverse.decide")
    wrap(socket_transport.SocketNetwork, "request_many", "net.request_many")
    wrap(socket_transport, "send_frame", "net.send")
    wrap(socket_transport, "recv_frame", "net.recv")
    tracer.patch(
        socket_transport,
        "json",
        types.SimpleNamespace(
            dumps=tracer.traced("net.encode", json.dumps),
            loads=tracer.traced("net.decode", json.loads),
            JSONDecodeError=json.JSONDecodeError,
        ),
    )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: ``(name, unit)`` of every per-layer metric, in report order.
PER_LAYER = (
    ("service.submit_self_us", "us"),
    ("service.refresh_ms", "ms"),
    ("service.refreshes", "count"),
    ("planner.plan_us", "us"),
    ("planner.statistics_builds", "count"),
    ("planner.statistics_ms", "ms"),
    ("cache.lookup_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.revalidated", "count"),
    ("cache.patched", "count"),
    ("cache.misses", "count"),
    ("executor.run_ms", "ms"),
    ("executor.reload_ms", "ms"),
    ("columnar.context_builds", "count"),
    ("columnar.context_ms", "ms"),
    ("columnar.kernel_ms", "ms"),
    ("columnar.patch_ms", "ms"),
    ("columnar.layout_ms", "ms"),
    ("scoring.calls_per_query", "count"),
    ("exec.accesses_sorted", "count"),
    ("exec.accesses_random", "count"),
    ("exec.accesses_direct", "count"),
    ("exec.driver_self_ms", "ms"),
    ("exec.certify_us", "us"),
    ("dynamic.write_self_us", "us"),
    ("watch.maintain_us", "us"),
    ("watch.unchanged", "count"),
    ("watch.patched", "count"),
    ("watch.recomputed", "count"),
    ("reverse.query_ms", "ms"),
    ("reverse.decide_us", "us"),
    ("reverse.bound_decided_ratio", "ratio"),
    ("reverse.fallbacks", "count"),
    ("reverse.boundary_hits", "count"),
    ("reverse.maintain_us", "us"),
    ("net.rounds_per_query", "count"),
    ("net.frames_per_query", "count"),
    ("net.bytes_per_query", "B"),
    ("net.encode_us", "us"),
    ("net.decode_us", "us"),
    ("net.wait_us", "us"),
    ("owner.service_us", "us"),
    ("owner.cpu_ms_per_query", "ms"),
    ("owner.start_ms", "ms"),
    ("trace.overhead_pct", "%"),
)


def layer_metrics(
    tracer: Tracer,
    *,
    ops: int,
    exact: Counter,
    exact_ops: int,
    extra: dict,
) -> dict:
    """Fold a traced phase into the :data:`PER_LAYER` values.

    Times are self time per operation of the traced phase (``ops``), so
    the layers of one workload add up to its per-operation latency.
    Counts come from ``exact``: tracer and workload counts read when the
    phase completed its first ``exact_ops`` operations, which repeat bit
    for bit on a seed.  ``extra`` holds the values a workload measured
    itself (owner-side numbers, the tracing overhead).
    """
    own = tracer.self_seconds()

    def per_op(*names: str, scale: float) -> float:
        return _ratio(sum(own[name] for name in names), ops) * scale

    executions = exact["exec.executions"]
    lookups = sum(
        exact[f"cache.{outcome}"]
        for outcome in ("hit", "revalidated", "patched", "miss")
    )
    queries = exact["net.queries"]
    values = {
        "service.submit_self_us": per_op("service.submit", scale=1e6),
        "service.refresh_ms": per_op("service.refresh", scale=1e3),
        "service.refreshes": exact["service.refresh"],
        "planner.plan_us": per_op("planner.plan", scale=1e6),
        "planner.statistics_builds": exact["planner.statistics"],
        "planner.statistics_ms": per_op("planner.statistics", scale=1e3),
        "cache.lookup_us": per_op("cache.lookup", "cache.put", scale=1e6),
        "cache.hit_ratio": _ratio(lookups - exact["cache.miss"], lookups),
        "cache.revalidated": exact["cache.revalidated"],
        "cache.patched": exact["cache.patched"],
        "cache.misses": exact["cache.miss"],
        "executor.run_ms": per_op("executor.run", "exec.execute", scale=1e3),
        "executor.reload_ms": per_op("executor.reload", scale=1e3),
        "columnar.context_builds": exact["columnar.context"],
        "columnar.context_ms": per_op("columnar.context", scale=1e3),
        "columnar.kernel_ms": per_op("columnar.kernel", scale=1e3),
        "columnar.patch_ms": per_op("columnar.patch", scale=1e3),
        "columnar.layout_ms": per_op("columnar.layout", scale=1e3),
        "scoring.calls_per_query": _ratio(exact["scoring"], exact_ops),
        "exec.accesses_sorted": _ratio(exact["exec.sorted"], executions),
        "exec.accesses_random": _ratio(exact["exec.random"], executions),
        "exec.accesses_direct": _ratio(exact["exec.direct"], executions),
        "exec.driver_self_ms": per_op("exec.driver", scale=1e3),
        "exec.certify_us": per_op("exec.certify", scale=1e6),
        "dynamic.write_self_us": per_op("dynamic.write", scale=1e6),
        "watch.maintain_us": per_op("watch.maintain", scale=1e6),
        "watch.unchanged": exact["watch.unchanged"],
        "watch.patched": exact["watch.patched"],
        "watch.recomputed": exact["watch.recomputed"],
        "reverse.query_ms": per_op("reverse.query", scale=1e3),
        "reverse.decide_us": per_op("reverse.decide", scale=1e6),
        "reverse.bound_decided_ratio": _ratio(
            exact["reverse.bound_decided"], exact["reverse.users"]
        ),
        "reverse.fallbacks": exact["reverse.fallbacks"],
        "reverse.boundary_hits": exact["reverse.boundary_hits"],
        "reverse.maintain_us": per_op("reverse.maintain", scale=1e6),
        "net.rounds_per_query": _ratio(exact["net.rounds"], queries),
        "net.frames_per_query": _ratio(exact["net.frames"], queries),
        "net.bytes_per_query": _ratio(exact["net.bytes"], queries),
        "net.encode_us": per_op("net.encode", scale=1e6),
        "net.decode_us": per_op("net.decode", scale=1e6),
        "net.wait_us": per_op("net.send", "net.recv", "net.request_many", scale=1e6),
        "owner.service_us": 0.0,
        "owner.cpu_ms_per_query": 0.0,
        "owner.start_ms": 0.0,
        "trace.overhead_pct": 0.0,
    }
    values.update(extra)
    return values
