"""Quickstart: run TA, BPA and BPA2 on a synthetic database.

Builds the paper's default setting (uniform scores, sum scoring), answers
one top-k query with each algorithm, and compares the three metrics the
paper evaluates: execution cost, number of accesses, response time.

Run:  python examples/quickstart.py

The doctest below is the smallest end-to-end session; CI executes it on
every push (``tests/integration/test_quickstart_doctest.py``), so this
example cannot silently rot.  Everything is seeded, so the output is
exact:

>>> from repro import BestPositionAlgorithm, SUM, UniformGenerator
>>> database = UniformGenerator().generate(n=200, m=3, seed=7)
>>> result = BestPositionAlgorithm().run(database, k=3, scoring=SUM)
>>> result.item_ids
(16, 7, 134)
>>> [round(score, 4) for score in result.scores]
[2.6934, 2.585, 2.576]
>>> result.stop_position <= 200 and result.tally.random == result.tally.sorted * 2
True

The same query through the NumPy columnar backend returns the identical
answer with the identical access tally:

>>> from repro import ColumnarDatabase, fast_bpa
>>> result == fast_bpa(ColumnarDatabase.from_database(database), 3, SUM)
True

Batching many queries over one database amortizes the columnar
precomputation: the snapshot's layout is built once, and each row's
total at most once per scoring:

>>> from repro import BatchRunner, QuerySpec
>>> report = BatchRunner(database, backend="columnar").run(
...     [QuerySpec("bpa2", k=k) for k in (1, 5, 10)])
>>> report.queries, report.kernel_queries
(3, 3)
>>> report.results[0].item_ids
(16,)

To *serve* query traffic, wrap the database in a ``QueryService``: the
planner picks algorithm and kernel per query, execution fans out over
shards with an exact merge, and repeated queries hit the result cache:

>>> from repro import QueryService
>>> service = QueryService(database, shards=2, pool="serial")
>>> first, second = service.submit_many([QuerySpec("auto", k=3)] * 2)
>>> first.item_ids == result.item_ids, first.stats.fanout
(True, 2)
>>> second.stats.cache_hit
True
>>> service.close()

Serving *changing* data, build the service over a ``DynamicDatabase``:
mutations are recorded in a bounded ``MutationLog``, and a cached answer
whose certificate (its k-th score under the library's total order)
proves a mutation harmless is **revalidated** in place instead of
recomputed — ``ServiceStats.cache_outcome`` says which of
hit/revalidated/patched/miss served each answer:

>>> from repro.dynamic import DynamicDatabase
>>> source = DynamicDatabase.from_score_rows(
...     [[9.0, 7.0, 5.0, 3.0, 1.0], [8.0, 6.0, 4.0, 2.0, 0.0]])
>>> service = QueryService(source, pool="serial")
>>> service.submit(QuerySpec("ta", k=2)).stats.cache_outcome
'miss'
>>> source.update_score(0, 4, 1.5)  # item 4 stays far below the top-2
>>> served = service.submit(QuerySpec("ta", k=2))
>>> served.stats.cache_outcome, served.item_ids
('revalidated', (0, 1))
>>> service.close()

A *standing* query subscribes once and is pushed changes instead of
polling: every mutation is classified against the maintained answer
through the same certificate, and a ``ResultDelta`` is delivered only
when the visible top-k actually moves — the harmless mutation below
pushes nothing, the overtake pushes exactly one delta:

>>> source = DynamicDatabase.from_score_rows(
...     [[9.0, 7.0, 5.0, 3.0, 1.0], [8.0, 6.0, 4.0, 2.0, 0.0]])
>>> service = QueryService(source, pool="serial")
>>> watching = service.watch(QuerySpec("ta", k=2))
>>> watching.item_ids
(0, 1)
>>> source.update_score(0, 4, 1.5)   # harmless: certified, nothing pushed
>>> source.update_score(0, 1, 12.0)  # item 1 overtakes item 0: one delta
>>> (delta,) = watching.poll()
>>> delta.cause, delta.seq, watching.item_ids
('patched', 1, (1, 0))
>>> (watching.stats.unchanged, watching.stats.patched, watching.stats.deltas)
(1, 1, 1)
>>> service.close()

The *reverse* top-k question — which registered users rank a given
item inside their personal top-k? — runs over the same service.
Register per-user weight vectors, then ``submit_reverse``: vectorized
score bounds decide most users without running a single query, and the
undecided rest fall back to their exact (cached, incrementally
maintained) top-k boundary:

>>> source = DynamicDatabase.from_score_rows(
...     [[9.0, 7.0, 5.0, 3.0, 1.0], [8.0, 6.0, 4.0, 2.0, 0.0]])
>>> service = QueryService(source, pool="serial")
>>> registry = service.reverse_registry
>>> _ = registry.add("alice", [1.0, 0.0])  # only list 0 matters to alice
>>> _ = registry.add("bob", [0.0, 1.0])
>>> _ = registry.add("cara", [1.0, 1.0])
>>> service.submit_reverse(0, k=2).users   # item 0 leads both lists
('alice', 'bob', 'cara')
>>> service.submit_reverse(2, k=2).users   # item 2 is mid-pack for all
()
>>> source.update_score(0, 2, 20.0)        # item 2 now tops list 0
>>> service.submit_reverse(2, k=2).users   # bob only watches list 1
('alice', 'cara')
>>> service.close()

Under concurrency, submit through the async front-end: ``gather_many``
runs shard fan-out on an asyncio event loop with bounded concurrency,
and identical in-flight queries are *coalesced* into one execution:

>>> import asyncio
>>> service = QueryService(database, shards=2, pool="serial")
>>> results = asyncio.run(
...     service.gather_many([QuerySpec("auto", k=3)] * 4, concurrency=2))
>>> all(r.item_ids == result.item_ids for r in results)
True
>>> service.counters.executions, service.counters.cache_hits
(1, 3)
>>> service.close()

``ServicePolicy(adaptive=True)`` closes the control loop: observed
latencies calibrate the planner's cost predictions, and a drift
detector re-tunes the service when the workload's shape moves.  The
controllers are plain objects, so the loop is easy to watch
deterministically (no wall clock below — every signal is synthetic).
A workload shift re-prices an arm and the hysteresis-guarded selection
re-plans exactly once:

>>> from repro.service import PlanFeedback
>>> feedback = PlanFeedback(min_samples=1, tolerance=0.25)
>>> signature = ("sum", 8)   # scoring key + power-of-two k bucket
>>> feedback.select(("bpa2", "ta"), {"ta": 100.0, "bpa2": 110.0},
...                 signature=signature)[0]   # cheapest prediction wins
'ta'
>>> feedback.select(("bpa2", "ta"), {"ta": 100.0, "bpa2": 90.0},
...                 signature=signature)[0]   # within hysteresis: keep ta
'ta'
>>> algorithm, replanned, _why = feedback.select(
...     ("bpa2", "ta"), {"ta": 100.0, "bpa2": 60.0}, signature=signature)
>>> (algorithm, replanned, feedback.replans)  # beyond the band: re-plan
('bpa2', True, 1)

The drift detector compares consecutive windows of bucketed query
shapes by total-variation distance; a stationary stream never fires,
a narrow-to-deep shift fires exactly one epoch:

>>> from repro.service import DriftDetector
>>> detector = DriftDetector(window=4, threshold=0.5)
>>> narrow = DriftDetector.bucket("auto", 2, SUM)
>>> deep = DriftDetector.bucket("auto", 64, SUM)
>>> any(detector.observe(narrow) for _ in range(8))
False
>>> [detector.observe(deep) for _ in range(4)]
[False, False, False, True]
>>> (detector.epochs, detector.last_divergence)
(1, 1.0)

The distributed stack is the same round-plan engine over a transport.
Here each of the three list owners runs in its **own OS process**,
serving length-prefixed binary frames over TCP; the pipelined wire
protocol ships the batched protocol's messages as overlapped waves
(identical message counts, less waiting), and ``block_width`` fetches
sorted/direct blocks instead of single entries:

>>> from repro.distributed import DistributedBPA2
>>> remote = DistributedBPA2(transport="socket", protocol="pipelined",
...                          block_width=8).run(database, 3, SUM)
>>> remote.item_ids == result.item_ids
True
>>> remote.extras["transport"], remote.extras["network"]["messages"] > 0
('socket', True)

Owners are **multi-tenant**: ``owners=2`` co-locates the three lists on
two daemon processes (contiguous placement: lists 0,1 together) and the
transport coalesces each round's ops into one frame per owner —
identical answers, fewer frames.  Each daemon also serves a
``/metrics``-style stats endpoint (per-kind op counts, reservoir-
sampled latency quantiles):

>>> clustered = DistributedBPA2(transport="socket", protocol="pipelined",
...                             owners=2).run(database, 3, SUM)
>>> clustered.item_ids == result.item_ids, clustered.extras["owners"]
(True, 2)
>>> from repro import ColumnarDatabase
>>> from repro.distributed import SocketCluster
>>> with SocketCluster(ColumnarDatabase.from_database(database),
...                    owners=2) as cluster:
...     with cluster.connect() as fabric:
...         _ = fabric.request("owner/0", "sorted_next", {"list": 0})
...         metrics = fabric.request("owner/0", "state", {"metrics": True})
>>> cluster.placement.groups
((0, 1), (2,))
>>> metrics["lists"], metrics["ops"]["sorted_next"]
([0, 1], 1)
>>> metrics["latency"]["count"] == 1 and metrics["latency"]["p50_us"] > 0
True

A long-lived service survives restarts through epoch-stamped snapshot
files: ``save_snapshot`` persists the served columnar snapshot (atomic,
checksummed, compressed) and ``from_snapshot`` warm-starts a new
process from it — no cold rebuild, identical answers, epoch clock
resumed at the stamp:

>>> import pathlib, tempfile
>>> state = pathlib.Path(tempfile.mkdtemp()) / "state.bpsn"
>>> source = DynamicDatabase.from_score_rows(
...     [[9.0, 7.0, 5.0, 3.0, 1.0], [8.0, 6.0, 4.0, 2.0, 0.0]])
>>> service = QueryService(source, pool="serial")
>>> source.update_score(0, 2, 9.5)     # mutate, then persist
>>> service.submit(QuerySpec("ta", k=2)).item_ids
(0, 2)
>>> service.save_snapshot(state)       # returns the stamped epoch
1
>>> service.close()
>>> from repro.storage import verify_snapshot
>>> verify_snapshot(state).ok          # offline integrity audit
True
>>> restarted = QueryService.from_snapshot(state, pool="serial")
>>> restarted.submit(QuerySpec("ta", k=2)).item_ids
(0, 2)
>>> restarted.close()
"""

import time

from repro import (
    SUM,
    BestPositionAlgorithm,
    BestPositionAlgorithm2,
    CostModel,
    ThresholdAlgorithm,
    UniformGenerator,
)

N, M, K, SEED = 10_000, 8, 20, 42


def main() -> None:
    print(f"generating uniform database: n={N:,} items, m={M} lists (seed={SEED})")
    database = UniformGenerator().generate(N, M, seed=SEED)
    model = CostModel.paper(N)  # cs = 1, cr = log2(n)

    algorithms = [ThresholdAlgorithm(), BestPositionAlgorithm(), BestPositionAlgorithm2()]
    print(f"\ntop-{K} query, sum scoring:\n")
    print(f"{'algorithm':>10} {'stop pos':>10} {'accesses':>10} "
          f"{'exec cost':>12} {'time (ms)':>10}")
    baseline_cost = None
    for algorithm in algorithms:
        started = time.perf_counter()
        result = algorithm.run(database, K, SUM)
        elapsed_ms = (time.perf_counter() - started) * 1e3
        cost = result.execution_cost(model)
        if baseline_cost is None:
            baseline_cost = cost
        print(f"{result.algorithm:>10} {result.stop_position:>10,} "
              f"{result.tally.total:>10,} {cost:>12,.0f} {elapsed_ms:>10.1f}"
              f"   ({baseline_cost / cost:4.2f}x vs TA)")

    result = BestPositionAlgorithm().run(database, K, SUM)
    print(f"\ntop-{K} answers (item id: overall score):")
    for entry in result.items:
        print(f"  item {entry.item:>6}: {entry.score:.4f}")


if __name__ == "__main__":
    main()
