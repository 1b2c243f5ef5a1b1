"""The four seeded, closed-loop, single-caller workloads.

Each workload builds its inputs from the seed alone, sets the program up
(:meth:`Workload.setup`, timed), then runs one operation at a time
(:meth:`Workload.step`) until the phase ends.  Every answer is checked;
checks run with the phase clock stopped (:meth:`Workload.check`).  Why
each workload exists is in ``README.md``.

Counts that depend only on the seed (cache outcomes, access tallies,
frames, maintenance verdicts) accumulate in :attr:`Workload.counters`.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import time
from array import array
from collections import Counter

import numpy as np

from repro import SUM, QueryService, QuerySpec, UniformGenerator, WeightedSumScoring
from repro.algorithms.base import get_algorithm
from repro.algorithms.naive import brute_force_topk
from repro.distributed.socket_transport import SocketCluster
from repro.distributed.transport import NetworkBackend
from repro.exec import drivers
from repro.service.workload import (
    WorkloadMutator,
    answers_match,
    dynamic_from,
    fresh_topk,
)
from repro.storage import write_snapshot

from oracle import Mirror

perf = time.perf_counter

M = 4
K_MAX = 20


def zipf_pool(size: int = 64) -> tuple[list[QuerySpec], np.ndarray]:
    """``size`` SUM specs (k in 1..K_MAX) and Zipf(theta=1) draw weights.

    The pool is the same for every seed (the seed draws the stream from
    it): which k values are popular decides how many requests share a
    cache entry, and a pool that changed with the seed would move the
    median latency from run to run.
    """
    pool = [
        QuerySpec(algorithm="auto", k=int(k), scoring=SUM)
        for k in np.random.default_rng(0).integers(1, K_MAX + 1, size)
    ]
    weights = 1.0 / np.arange(1, size + 1)
    return pool, weights / weights.sum()


def draws(rng: np.random.Generator, p: np.ndarray):
    """Endless stream of pool indices drawn with probabilities ``p``."""
    while True:
        yield from rng.choice(len(p), 4096, p=p).tolist()


def stratified(rng: np.random.Generator, values: list):
    """Endless stream: each block is a seeded permutation of ``values``."""
    while True:
        for index in rng.permutation(len(values)).tolist():
            yield values[index]


def generate(n: int, seed: int, index: int = 0):
    """Database ``index`` of a run on ``seed``: uniform, ``n`` items, M lists.

    Workloads that start over on fresh data every round use 1, 2, ...:
    what a query costs depends on the data, so a run that spans many
    data sets costs what the workload costs, not what one seed's data
    happens to cost.
    """
    state = np.random.SeedSequence([seed, index]).generate_state(1)[0]
    return UniformGenerator().generate(n, M, seed=int(state))


def fresh_weights(rng: np.random.Generator) -> WeightedSumScoring:
    return WeightedSumScoring((1.0 - rng.random(M)).tolist())


class Workload:
    """One workload: inputs from a seed, set-up, operations, checks."""

    name = ""
    #: set-ups per run; ``setup_s`` is their median
    setup_repeats = 5
    #: operations after which the exact counters are read
    exact_ops = 100
    #: latency kinds this workload records
    kinds = ("query",)
    #: whether set-up spawns owner processes (see :class:`Networked`)
    spawns_owners = False

    def __init__(self, seed: int, workdir: str) -> None:
        self.workdir = workdir
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        #: how many times the run started over on fresh data
        self.round = 0
        self.latencies = {kind: array("d") for kind in self.kinds}
        self.counters: Counter = Counter()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.state = None

    def cpu_seconds(self) -> float:
        """CPU time the program has used so far.

        Time the hypervisor steals from the vCPU is not in it, unlike in
        wall-clock time.
        """
        return time.thread_time()

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(what)

    def timed(self, kind: str, call, *args):
        """One operation: its latency is recorded, or its failure."""
        self.attempted += 1
        started = perf()
        try:
            result = call(*args)
        except Exception as exc:  # noqa: BLE001 - a failed operation is a result
            self.fail(f"{kind} {args!r}: {exc!r}")
            return None
        self.latencies[kind].append(perf() - started)
        return result

    def count_served(self, served) -> None:
        self.counters[f"served.{served.stats.cache_outcome}"] += 1

    def setup(self) -> None:
        """Build the program's servable state (timed by the caller)."""
        raise NotImplementedError

    def teardown(self) -> None:
        self.state = None

    def start(self) -> None:
        """Per-phase preparation after set-up, outside any clock."""

    def step(self) -> int:
        """Run the next operation(s); returns how many ran."""
        raise NotImplementedError

    def check(self) -> None:
        """Verify the answers of the last step, once (no clock runs)."""

    def finish(self) -> None:
        """End-of-phase checks."""
        self.check()

    def snapshot_counters(self) -> Counter:
        """The seed-determined counts so far."""
        return Counter(self.counters)

    def next_data(self) -> None:
        """Off the clock: tear down and move to the run's next database
        (the caller sets up again)."""
        self.teardown()
        self.round += 1
        self.database = generate(self.n, self.seed, self.round)


class HotRead(Workload):
    name = "hot_read"
    exact_ops = 2000
    n = 20_000
    pool_size = 64

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.database = generate(self.n, seed)
        self.pool, self.p = zipf_pool(self.pool_size)
        self.stream_seed = int(self.rng.integers(2**31))
        ranked = brute_force_topk(self.database, K_MAX, SUM)
        ids = tuple(entry.item for entry in ranked)
        scores = tuple(entry.score for entry in ranked)
        self.expected = {k: (ids[:k], scores[:k]) for k in range(1, K_MAX + 1)}

    def setup(self) -> None:
        service = QueryService(self.database, shards=1, pool="serial", cache_size=1024)
        for spec in self.pool:
            service.submit(spec)
        self.state = service

    def teardown(self) -> None:
        self.state.close()
        self.state = None

    def start(self) -> None:
        self.draws = draws(np.random.default_rng(self.stream_seed), self.p)
        self.last = None

    def step(self) -> int:
        spec = self.pool[next(self.draws)]
        self.last = (spec.k, self.timed("query", self.state.submit, spec))
        return 1

    def check(self) -> None:
        if self.last is None:
            return
        k, served = self.last
        self.last = None
        if served is not None:
            self.count_served(served)
            if (served.item_ids, served.scores) != self.expected[k]:
                self.fail(f"wrong top-{k}")


class ScoringChurn(Workload):
    name = "scoring_churn"
    exact_ops = 40
    n = 2_000
    warmup = 20
    #: queries per round: the per-scoring caches grow without bound, so
    #: a fresh service every round keeps memory (and the garbage
    #: collector's work) the same in every run, however fast it goes;
    #: each round also serves fresh data
    round_size = 200
    #: k values of the stream, each block a seeded permutation of them.
    #: The planner serves small k with a cheaper plan than large k (about
    #: 4.6 against 5.8 ms); k > 8 comes twice as often as k <= 8, so about
    #: a third of the queries take the cheap plan and p50 and p90 both
    #: sit inside the other plan's mode, not on the edge between the two.
    ks = tuple(range(1, K_MAX + 1)) + tuple(range(9, K_MAX + 1))

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.database = generate(self.n, seed)
        self.mirror = Mirror(self.database)
        self.warm_specs = [
            QuerySpec(algorithm="auto", k=int(k), scoring=fresh_weights(self.rng))
            for k in self.rng.integers(1, K_MAX + 1, self.warmup)
        ]
        self.stream_seed = int(self.rng.integers(2**31))

    def setup(self) -> None:
        service = QueryService(self.database, shards=1, pool="serial")
        for spec in self.warm_specs:
            service.submit(spec)
        self.state = service

    def teardown(self) -> None:
        self.state.close()
        self.state = None

    def start(self) -> None:
        self.stream = np.random.default_rng(self.stream_seed)
        self.k_stream = stratified(self.stream, list(self.ks))
        self.last = None
        self.in_round = 0

    def step(self) -> int:
        spec = QuerySpec(
            algorithm="auto", k=next(self.k_stream), scoring=fresh_weights(self.stream)
        )
        self.last = (spec, self.timed("query", self.state.submit, spec))
        return 1

    def check(self) -> None:
        if self.last is None:
            return
        spec, served = self.last
        self.last = None
        if served is not None:
            self.count_served(served)
            expected = self.mirror.topk(spec.k, spec.scoring)
            if not answers_match(
                served.item_ids, served.scores, self.database, spec.k, spec.scoring,
                expected=expected,
            ):
                self.fail(f"wrong top-{spec.k} under {spec.scoring!r}")
        self.in_round += 1
        if self.in_round == self.round_size:
            self.next_data()
            self.mirror = Mirror(self.database)
            gc.collect()
            self.setup()
            self.in_round = 0


class RecordingSource:
    """The dynamic database as :class:`WorkloadMutator` sees it.

    Forwards every write, times it, and applies it to the benchmark's
    mirror, so the oracle follows the data without reading the program.
    """

    def __init__(self, source, mirror: Mirror, latencies: list, counters: Counter) -> None:
        self._source = source
        self._mirror = mirror
        self._latencies = latencies
        self._counters = counters

    def __getattr__(self, name):
        return getattr(self._source, name)

    def _timed(self, kind: str, call, *args) -> None:
        started = perf()
        call(*args)
        self._latencies.append(perf() - started)
        self._counters[f"write.{kind}"] += 1

    def update_score(self, list_index, item, score) -> None:
        self._timed("update_score", self._source.update_score, list_index, item, score)
        self._mirror.update_score(list_index, item, score)

    def insert_item(self, item, scores) -> None:
        self._timed("insert_item", self._source.insert_item, item, scores)
        self._mirror.insert_item(item, scores)

    def remove_item(self, item) -> None:
        self._timed("remove_item", self._source.remove_item, item)
        self._mirror.remove_item(item)


class Mutating(Workload):
    name = "mutating"
    setup_repeats = 5
    exact_ops = 200
    kinds = ("query", "write", "reverse")
    n = 5_000
    users = 16
    pool_size = 64
    reverse_k = 10
    reverse_targets = 200
    warm_reverse = 4
    #: per block of 20 steps: this many writes and reverse queries
    block, writes_per_block, reverses_per_block = 20, 3, 2
    #: one point answer in this many is also checked with ``fresh_topk``
    library_check_every = 250
    #: steps per round: each round starts over from a fresh set-up on
    #: fresh data, so the run's cost does not depend on how far the
    #: writes drifted the data (a faster host gets further) or on one
    #: seed's data
    round_steps = 2500

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.steps = 0
        self.database = generate(self.n, seed)
        self.pool, self.p = zipf_pool(self.pool_size)
        self.watch_specs = [
            QuerySpec(algorithm="auto", k=k, scoring=scoring)
            for scoring in (SUM, fresh_weights(self.rng))
            for k in (5, 10, 20, 50)
        ]
        self.library_offset = int(self.rng.integers(self.library_check_every))
        self.users_seed = int(self.rng.integers(2**31))
        self.stream_seed = int(self.rng.integers(2**31))
        self._pick_warm_targets()

    def _pick_warm_targets(self) -> None:
        """Items whose reverse queries warm the boundary cache in set-up."""
        top = Mirror(self.database).topk(self.reverse_targets, SUM)[0]
        picks = self.rng.choice(len(top), self.warm_reverse, replace=False)
        self.warm_targets = [top[index] for index in picks.tolist()]

    def setup(self) -> None:
        dynamic = dynamic_from(self.database)
        service = QueryService(dynamic, shards=1, pool="serial", cache_size=1024)
        service.reverse_registry.seed_users(self.users, M, seed=self.users_seed)
        watches = [service.watch(spec) for spec in self.watch_specs]
        for item in self.warm_targets:
            service.submit_reverse(item, self.reverse_k)
        for spec in self.pool:
            service.submit(spec)
        self.state = (dynamic, service, watches)

    def teardown(self) -> None:
        self.state[1].close()
        self.state = None

    def start(self) -> None:
        dynamic, service, _ = self.state
        stream = np.random.default_rng([self.stream_seed, self.round])
        self.draws = draws(stream, self.p)
        self.schedule = np.random.default_rng(stream.integers(2**31))
        self.mirror = Mirror(self.database)
        self.source = RecordingSource(
            dynamic, self.mirror, self.latencies["write"], self.counters
        )
        self.mutator = WorkloadMutator(
            self.source, np.random.default_rng(stream.integers(2**31))
        )
        self.user_scorings = [
            (entry.user, entry.scoring) for entry in service.reverse_registry.entries()
        ]
        self.round_end = self.steps + self.round_steps
        self.plan: list[tuple[bool, bool]] = []
        self.targets = self.mirror.topk(self.reverse_targets, SUM)[0]
        self.checks: list = []

    def _next_plan(self) -> tuple[bool, bool]:
        if not self.plan:
            # Writes and reverse queries never share a step, so exactly
            # one point query in each step with a write pays the
            # snapshot refresh: the share of refresh-paying queries is
            # fixed, and p90 stays inside that mode.
            slots = self.schedule.permutation(self.block).tolist()
            writes = set(slots[: self.writes_per_block])
            reverses = set(slots[self.writes_per_block :][: self.reverses_per_block])
            self.plan = [(i in writes, i in reverses) for i in range(self.block)]
            self.plan.reverse()
        return self.plan.pop()

    def step(self) -> int:
        _, service, _ = self.state
        write, reverse = self._next_plan()
        self.wrote = write
        if write:
            self.attempted += 1
            try:
                self.mutator.apply_one()
            except Exception as exc:  # noqa: BLE001 - a failed operation is a result
                self.fail(f"write: {exc!r}")
        if reverse:
            # The target comes from the oracle's copy of the live data
            # (refreshed in check()), so it always exists.
            item = self.targets[int(self.schedule.integers(len(self.targets)))]
            result = self.timed("reverse", service.submit_reverse, item, self.reverse_k)
            if result is not None:
                self.checks.append(("reverse", item, result))
        spec = self.pool[next(self.draws)]
        served = self.timed("query", service.submit, spec)
        if served is not None:
            self.checks.append(("query", spec, served))
        self.steps += 1
        return 1 + write + reverse

    def check(self) -> None:
        self._check_answers()
        if self.steps == self.round_end:
            self._next_round()
        elif self.wrote:
            self.targets = self.mirror.topk(self.reverse_targets, SUM)[0]

    def _check_answers(self) -> None:
        dynamic, _, _ = self.state
        for kind, what, result in self.checks:
            if kind == "reverse":
                expected = self.mirror.reverse(what, self.reverse_k, self.user_scorings)
                stats = result.stats
                self.counters["served.reverse_fallbacks"] += stats.fallbacks
                self.counters["served.reverse_boundary_hits"] += stats.boundary_hits
                if result.users != expected:
                    self.fail(f"wrong reverse top-{self.reverse_k} of item {what}")
                continue
            self.count_served(result)
            expected = self.mirror.topk(what.k, what.scoring)
            ok = answers_match(
                result.item_ids,
                result.scores,
                self.mirror,
                what.k,
                what.scoring,
                expected=expected,
            )
            if ok and self.steps % self.library_check_every == self.library_offset:
                ok = answers_match(result.item_ids, result.scores, dynamic, what.k, what.scoring)
                self.counters["library_checks"] += 1
            if not ok:
                self.fail(f"wrong top-{what.k} at step {self.steps}")
        self.checks.clear()

    def _next_round(self) -> None:
        """Start over on fresh data.  Nothing of the old round may stay
        referenced here, or set-up would run beside it and raise the
        peak memory by a round's state."""
        self._check_watches(library=False)
        self.source = self.mutator = None
        self.next_data()
        self._pick_warm_targets()
        gc.collect()
        self.setup()
        self.start()

    def finish(self) -> None:
        self.check()
        self._check_watches(library=True)

    def _check_watches(self, *, library: bool) -> None:
        """Every standing query against a fresh top-k: the oracle's at
        the end of a round, the library's ``fresh_topk`` at the end."""
        dynamic, _, watches = self.state
        for subscription in watches:
            spec = subscription.spec
            if library:
                expected = fresh_topk(dynamic, spec.k, spec.scoring)
            else:
                expected = self.mirror.topk(spec.k, spec.scoring)
            entries = subscription.entries
            ids = tuple(entry.item for entry in entries)
            scores = tuple(entry.score for entry in entries)
            if not answers_match(ids, scores, dynamic, spec.k, spec.scoring, expected=expected):
                self.fail(f"standing top-{spec.k} diverged in round {self.round}")

    def snapshot_counters(self) -> Counter:
        counts = super().snapshot_counters()
        service = self.state[1].counters
        for verdict in ("unchanged", "patched", "recomputed"):
            counts[f"watch.{verdict}"] = getattr(service, f"watch_{verdict}")
        return counts


class Networked(Workload):
    name = "networked"
    spawns_owners = True
    #: a set-up is mostly a process start, whose time varies more
    setup_repeats = 9
    exact_ops = 20
    n = 5_000
    width = 8
    algorithms = ("ta-block", "bpa2-block")
    warmup = (("ta-block", 10), ("bpa2-block", 10), ("ta-block", 20))

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        # Each round of the phase runs every (algorithm, k) pair once on
        # its own database: how deep the algorithms read depends on the
        # data, and frames per query ranged over 12 % between seeds when
        # a run served one database.
        self.stream_seed = int(self.rng.integers(2**31))
        self.database = generate(self.n, seed)
        self.snapshot = os.path.join(workdir, "networked.bpsn")
        self.start_ms: list[float] = []
        #: owner service seconds (their metrics endpoint) over the phase
        self.owner_seconds = 0.0
        #: owner CPU seconds spent inside the phase's steps
        self.owner_cpu = 0.0

    def setup(self) -> None:
        write_snapshot(self.database, self.snapshot)
        started = perf()
        cluster = SocketCluster.from_snapshot(self.snapshot, owners=1)
        self.start_ms.append((perf() - started) * 1e3)
        fabric = cluster.connect()
        self.owner_pids = [child.pid for child in multiprocessing.active_children()]
        self.state = (cluster, fabric)
        for name, k in self.warmup:
            self._query(name, k)

    def teardown(self) -> None:
        cluster, fabric = self.state
        fabric.close()
        cluster.close()
        self.state = None

    def start(self) -> None:
        self.combos = [(name, k) for name in self.algorithms for k in range(1, K_MAX + 1)]
        self.order_rng = np.random.default_rng(self.stream_seed)
        self.last = None
        self._begin_round()

    def _begin_round(self) -> None:
        """Queue every (algorithm, k) pair once, in a seeded order."""
        order = self.order_rng.permutation(len(self.combos)).tolist()
        self.order = [self.combos[index] for index in reversed(order)]
        self.owner_base = self._owner_service_seconds()

    def _end_round(self) -> None:
        self.owner_seconds += self._owner_service_seconds() - self.owner_base

    def _next_round(self) -> None:
        """Off the clock: serve the next database from a fresh owner."""
        self._end_round()
        self.next_data()
        self.setup()
        self._begin_round()

    def _owner_cpu(self) -> float:
        total = 0
        for pid in self.owner_pids:
            with open(f"/proc/{pid}/schedstat") as handle:
                total += int(handle.read().split()[0])
        return total / 1e9

    def cpu_seconds(self) -> float:
        """The caller thread's CPU time plus every owner process's."""
        return time.thread_time() + self._owner_cpu()

    def _query(self, name: str, k: int):
        cluster, fabric = self.state
        for owner in range(cluster.placement.owners):
            fabric.request(f"owner/{owner}", "reset")
        fabric.reset_stats()
        backend = NetworkBackend.remote(
            fabric, m=M, n=self.n, protocol="pipelined", placement=cluster.placement
        )
        return backend, drivers.DRIVERS[name](backend, k, SUM, width=self.width)

    def step(self) -> int:
        name, k = self.order.pop()
        owner_before = self._owner_cpu()
        done = self.timed("query", self._query, name, k)
        self.owner_cpu += self._owner_cpu() - owner_before
        self.last = None if done is None else (name, k, *done)
        return 1

    def check(self) -> None:
        if self.last is not None:
            self._verify(*self.last)
            self.last = None
        if not self.order:
            self._next_round()

    def _verify(self, name, k, backend, outcome) -> None:
        _, fabric = self.state
        stats = fabric.stats
        tally = backend.total_tally()
        counters = self.counters
        counters["net.queries"] += 1
        counters["net.rounds"] += stats.rounds
        counters["net.frames"] += stats.messages
        counters["net.bytes"] += stats.bytes
        counters["exec.executions"] += 1
        counters["exec.sorted"] += tally.sorted
        counters["exec.random"] += tally.random
        counters["exec.direct"] += tally.direct
        reference = get_algorithm(name, width=self.width).run(self.database, k, SUM)
        if outcome.items != reference.items or tally != reference.tally:
            self.fail(f"{name} k={k} round {self.round}: items or tally differ from the reference")

    def finish(self) -> None:
        if self.last is not None:
            self._verify(*self.last)
            self.last = None
        self._end_round()

    def _owner_service_seconds(self) -> float:
        """Seconds the owners report spending on requests so far."""
        cluster, fabric = self.state
        return sum(
            entry["seconds"]
            for owner in range(cluster.placement.owners)
            for entry in fabric.request(f"owner/{owner}", "state", {"metrics": True})[
                "per_list"
            ].values()
        )


WORKLOADS = {cls.name: cls for cls in (HotRead, ScoringChurn, Mutating, Networked)}
