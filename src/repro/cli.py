"""Command-line interface.

Examples::

    repro-topk query --generator uniform --n 10000 --m 8 --k 20
    repro-topk figure fig3
    repro-topk figure all --scale smoke
    repro-topk paper-examples
    repro-topk adversarial --m 6 --u 5
    repro-topk distributed --n 2000 --m 6 --k 10
    repro-topk distributed --transport socket --protocol pipelined \
               --block-width 8 --verify
    repro-topk serve-workload --n 100000 --m 3 --shards 4 --queries 400
    repro-topk serve-workload --shards auto --async-mode --concurrency 8
    repro-topk cluster serve --snapshot db.bpsn --owners 2 --spec-out spec.json
    repro-topk serve-workload --cluster-spec spec.json --verify
    repro-topk cluster stats --spec spec.json

The timed service benchmark is ``perfbench/run.py`` (see
``perfbench/README.md``), not a subcommand.

(Equivalently ``python -m repro ...``.)
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Sequence

from repro.algorithms.base import get_algorithm, known_algorithms
from repro.bench.config import resolve_scale
from repro.bench.experiments import get_figure, list_figures, speedup_factors
from repro.datagen.adversarial import bpa2_favorable_database, bpa_favorable_database
from repro.datagen.base import make_generator
from repro.datagen.figures import figure1_database, figure2_database
from repro.types import CostModel


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-topk",
        description="Reproduction of 'Best Position Algorithms for Top-k Queries' (VLDB 2007)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    query = sub.add_parser("query", help="run one top-k query and report costs")
    query.add_argument("--generator", default="uniform",
                       choices=("uniform", "gaussian", "correlated", "zipf"))
    query.add_argument("--alpha", type=float, default=0.01,
                       help="correlation parameter (correlated generator only)")
    query.add_argument("--n", type=int, default=10_000)
    query.add_argument("--m", type=int, default=8)
    query.add_argument("--k", type=int, default=20)
    query.add_argument("--seed", type=int, default=42)
    query.add_argument("--algorithms", nargs="+", default=["ta", "bpa", "bpa2"])

    figure = sub.add_parser("figure", help="reproduce a paper figure (or 'all')")
    figure.add_argument("name", help=f"one of {list_figures()} or 'all'")
    figure.add_argument("--scale", default=None,
                        help="smoke | default | paper (or set REPRO_SCALE)")
    figure.add_argument("--csv", action="store_true", help="emit CSV instead of a table")
    figure.add_argument("--out", default=None, metavar="DIR",
                        help="also write <fig>.txt/.csv/.json under DIR")

    sub.add_parser("paper-examples",
                   help="replay the worked examples of Figures 1 and 2")

    adversarial = sub.add_parser(
        "adversarial", help="demonstrate the Lemma 3 / Theorem 8 worst cases"
    )
    adversarial.add_argument("--m", type=int, default=6)
    adversarial.add_argument("--u", type=int, default=5)
    adversarial.add_argument("--k", type=int, default=3)

    trace = sub.add_parser(
        "trace", help="round-by-round TA vs BPA trace on a small database"
    )
    trace.add_argument("--n", type=int, default=30)
    trace.add_argument("--m", type=int, default=3)
    trace.add_argument("--k", type=int, default=3)
    trace.add_argument("--seed", type=int, default=42)
    trace.add_argument("--figure1", action="store_true",
                       help="trace the paper's Figure 1 database instead")

    distributed = sub.add_parser(
        "distributed", help="compare message counts of the distributed drivers"
    )
    distributed.add_argument("--n", type=int, default=2_000)
    distributed.add_argument("--m", type=int, default=6)
    distributed.add_argument("--k", type=int, default=10)
    distributed.add_argument("--seed", type=int, default=42)
    distributed.add_argument("--generator", default="uniform",
                             choices=("uniform", "gaussian", "correlated"))
    distributed.add_argument("--alpha", type=float, default=0.01)
    distributed.add_argument("--transport", default="simulated",
                             choices=("simulated", "socket"),
                             help="simulated in-process network or real "
                                  "multi-process TCP owners")
    distributed.add_argument("--protocol", default="entry",
                             choices=("entry", "batch", "pipelined"),
                             help="wire protocol (pipelined = batched "
                                  "messages as overlapped waves)")
    distributed.add_argument("--block-width", type=int, default=1,
                             help="sorted/direct block width (>1 runs the "
                                  "*-block round planners)")
    distributed.add_argument("--verify", action="store_true",
                             help="cross-check every answer against the "
                                  "reference single-node algorithm and exit "
                                  "non-zero on any mismatch")

    serve = sub.add_parser(
        "serve-workload",
        help="replay a zipf-popular query workload through the sharded "
             "QueryService and write a reports/service_*.json summary",
    )
    serve.add_argument("--generator", default="uniform",
                       choices=("uniform", "gaussian", "correlated", "zipf"))
    serve.add_argument("--alpha", type=float, default=None,
                       help="correlation parameter (correlated generator only)")
    serve.add_argument("--n", type=int, default=100_000)
    serve.add_argument("--m", type=int, default=3)
    serve.add_argument("--seed", type=int, default=42)
    serve.add_argument("--queries", type=int, default=400,
                       help="replayed queries")
    serve.add_argument("--distinct", type=int, default=40,
                       help="distinct query shapes in the pool")
    serve.add_argument("--k-max", type=int, default=20,
                       help="per-query k is drawn from 1..K_MAX")
    serve.add_argument("--zipf-theta", type=float, default=1.0,
                       help="popularity skew over the query pool "
                            "(0 = uniform traffic)")
    serve.add_argument("--algorithm", default="auto",
                       help="algorithm per query ('auto' lets the planner pick)")
    serve.add_argument("--key-skew", type=float, default=None, metavar="THETA",
                       help="phased workloads: per-phase Zipf theta over a "
                            "fresh query pool (default: --zipf-theta)")
    serve.add_argument("--adversarial-ratio", type=float, default=0.0,
                       metavar="P",
                       help="replace each query with probability P by a "
                            "deep-k outlier (k in K_MAX+1..4*K_MAX; the "
                            "planner clamps k to n, answers stay exact)")
    serve.add_argument("--phase-shift", type=int, default=0, metavar="N",
                       help="shift the workload's shape N times mid-replay "
                            "(alternating narrow-k and deep-k phases over "
                            "fresh pools) to exercise drift re-tuning")
    serve.add_argument("--adaptive", action="store_true",
                       help="serve with ServicePolicy(adaptive=True): "
                            "feedback-calibrated planning and drift-aware "
                            "re-tuning")
    serve.add_argument("--shards", default="4",
                       help="shard count, or 'auto' to let the planner's "
                            "cost model pick it (default: 4)")
    serve.add_argument("--pool", default="auto",
                       choices=("auto", "serial", "thread", "process"))
    serve.add_argument("--cache-size", type=int, default=1024)
    serve.add_argument("--no-cache", action="store_true",
                       help="disable the result cache")
    serve.add_argument("--async-mode", action="store_true",
                       help="replay through submit_async/gather_many "
                            "instead of the serial submit_many")
    serve.add_argument("--concurrency", type=int, default=8,
                       help="bounded concurrency for --async-mode")
    serve.add_argument("--mutation-rate", type=float, default=0.0,
                       metavar="R",
                       help="serve a live DynamicDatabase and apply ~R random "
                            "mutations (update/insert/remove) before each "
                            "query — the delta-aware cache replay mode")
    serve.add_argument("--reverse-rate", type=float, default=0.0,
                       metavar="R",
                       help="also issue a reverse top-k query (which "
                            "registered users rank a random item in their "
                            "top k?) after each forward query with "
                            "probability R; implies the live-database "
                            "replay path")
    serve.add_argument("--reverse-users", type=int, default=32,
                       help="seeded weight vectors registered for "
                            "--reverse-rate (default: 32)")
    serve.add_argument("--reverse-k", type=int, default=10,
                       help="k for the interleaved reverse queries "
                            "(default: 10)")
    serve.add_argument("--verify", action="store_true",
                       help="cross-check every served answer against a "
                            "brute-force ranking of the current data "
                            "(bit-identical scores, honest aggregates); "
                            "exit non-zero on any mismatch")
    serve.add_argument("--out", default=None, metavar="FILE",
                       help="report path (default: reports/service_workload.json)")
    serve.add_argument("--smoke", action="store_true",
                       help="tiny CI preset (n=2000, 60 queries, 2 shards, "
                            "serial pool; writes reports/service_smoke.json)")
    serve.add_argument("--snapshot-in", default=None, metavar="FILE",
                       help="warm-start the service from an epoch-stamped "
                            ".bpsn snapshot instead of generating the "
                            "database (with --mutation-rate the snapshot "
                            "seeds the live DynamicDatabase)")
    serve.add_argument("--snapshot-out", default=None, metavar="FILE",
                       help="after the replay, atomically persist the "
                            "service's snapshot (epoch-stamped, "
                            "checksummed, compressed) to FILE")
    serve.add_argument("--watch-port", type=int, default=None, metavar="PORT",
                       help="with --mutation-rate: also serve standing "
                            "subscriptions (watch/delta/unwatch push "
                            "frames) on PORT while the replay mutates — "
                            "tail them with 'repro-topk watch --port PORT' "
                            "from another process")
    serve.add_argument("--watch-wait", type=float, default=0.0,
                       metavar="SECONDS",
                       help="with --watch-port: wait up to SECONDS for the "
                            "first subscription before starting the replay")
    serve.add_argument("--cluster-spec", default=None, metavar="FILE",
                       help="hammer a running owner-daemon cluster (spec "
                            "from 'cluster serve --spec-out') instead of "
                            "building a service; with --verify every "
                            "answer (items and access tallies) is checked "
                            "against the snapshot's reference ranking")

    watch = sub.add_parser(
        "watch",
        help="tail a standing top-k subscription's pushed deltas from a "
             "watch server",
    )
    watch.add_argument("--port", type=int, required=True,
                       help="watch server port (see serve-workload "
                            "--watch-port)")
    watch.add_argument("--host", default="127.0.0.1")
    watch.add_argument("--algorithm", default="auto",
                       help="algorithm for the standing query "
                            "('auto' lets the planner pick)")
    watch.add_argument("--k", type=int, default=10)
    watch.add_argument("--scoring", default="sum",
                       choices=("sum", "min", "max", "average"))
    watch.add_argument("--max-deltas", type=int, default=None, metavar="N",
                       help="stop tailing after N deltas (default: until "
                            "the server closes)")
    watch.add_argument("--poll-timeout", type=float, default=0.5,
                       metavar="SECONDS",
                       help="poll granularity while tailing")

    reverse = sub.add_parser(
        "reverse",
        help="reverse top-k demo over seeded user weight vectors (which "
             "users rank an item in their top k?)",
    )
    reverse.add_argument("--n", type=int, default=1_500,
                         help="database size")
    reverse.add_argument("--m", type=int, default=4)
    reverse.add_argument("--k", type=int, default=10)
    reverse.add_argument("--users", type=int, default=48,
                         help="seeded weight vectors to register")
    reverse.add_argument("--queries", type=int, default=20,
                         help="reverse queries over random items")
    reverse.add_argument("--generator", default="uniform",
                         choices=("uniform", "gaussian", "correlated",
                                  "zipf"))
    reverse.add_argument("--seed", type=int, default=13)
    reverse.add_argument("--item", type=int, default=None,
                         help="query this one item id instead of random "
                              "items and list every matching user")
    reverse.add_argument("--no-verify", action="store_true",
                         help="skip the per-query brute-force oracle check")

    verify_snap = sub.add_parser(
        "verify-snapshot",
        help="audit a .bpsn snapshot file: checksums, canonical sort "
             "order, rank/index cross-validation; optionally repair",
    )
    verify_snap.add_argument("path", help="snapshot file to audit")
    verify_snap.add_argument("--repair", action="store_true",
                             help="rebuild damaged index sections from "
                                  "intact rank sections and rewrite the "
                                  "file atomically")

    cluster = sub.add_parser(
        "cluster",
        help="multi-tenant owner daemons: serve lists from a snapshot, "
             "read owner metrics",
    )
    cluster_sub = cluster.add_subparsers(dest="cluster_command", required=True)
    cl_serve = cluster_sub.add_parser(
        "serve",
        help="spawn owner daemons from a .bpsn snapshot and publish a "
             "spec file other processes connect with (see serve-workload "
             "--cluster-spec)",
    )
    cl_serve.add_argument("--snapshot", required=True, metavar="FILE",
                          help="epoch-stamped .bpsn snapshot; each owner "
                               "process warm-starts its own lists from it")
    cl_serve.add_argument("--owners", type=int, default=0,
                          help="owner processes (0 = one per list)")
    cl_serve.add_argument("--placement", default="contiguous",
                          choices=("contiguous", "striped"),
                          help="list-to-owner assignment strategy")
    cl_serve.add_argument("--include-position", action="store_true",
                          help="ship positions in lookup responses "
                               "(BPA-family clients)")
    cl_serve.add_argument("--latency-sample-k", type=int, default=64,
                          help="per-owner latency reservoir size")
    cl_serve.add_argument("--spec-out", default=None, metavar="FILE",
                          help="atomically write the cluster spec JSON "
                               "(ports, placement) to FILE once the owners "
                               "are up")
    cl_serve.add_argument("--serve-for", type=float, default=None,
                          metavar="SECONDS",
                          help="exit after SECONDS (default: serve until "
                               "interrupted)")
    cl_stats = cluster_sub.add_parser(
        "stats",
        help="read every owner's metrics endpoint (op counts, latency "
             "quantiles) from a running cluster",
    )
    cl_stats.add_argument("--spec", required=True, metavar="FILE",
                          help="spec file written by 'cluster serve "
                               "--spec-out'")
    cl_stats.add_argument("--suggest-placement", action="store_true",
                          help="fold the owners' per-list latency mass "
                               "through the LPT rebalancer and print the "
                               "suggested owner/list layout when it beats "
                               "the current imbalance")

    return parser


def _cmd_query(args: argparse.Namespace) -> int:
    params = {"alpha": args.alpha} if args.generator == "correlated" else {}
    generator = make_generator(args.generator, **params)
    database = generator.generate(args.n, args.m, seed=args.seed)
    model = CostModel.for_database_size(args.n)
    print(f"database: {args.generator} n={args.n} m={args.m} k={args.k} seed={args.seed}")
    print(f"{'algorithm':>10} {'stop':>8} {'sorted':>9} {'random':>9} "
          f"{'direct':>9} {'cost':>14} {'time_ms':>9}")
    for name in args.algorithms:
        if name not in known_algorithms():
            print(f"unknown algorithm {name!r}; known: {known_algorithms()}",
                  file=sys.stderr)
            return 2
        algorithm = get_algorithm(name)
        started = time.perf_counter()
        result = algorithm.run(database, args.k)
        elapsed = (time.perf_counter() - started) * 1e3
        tally = result.tally
        print(f"{name:>10} {result.stop_position:>8} {tally.sorted:>9} "
              f"{tally.random:>9} {tally.direct:>9} "
              f"{model.execution_cost(tally):>14,.0f} {elapsed:>9.1f}")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    scale = resolve_scale(args.scale)
    names = list_figures() if args.name == "all" else [args.name]
    out_dir = None
    if args.out:
        from pathlib import Path

        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
    for name in names:
        experiment = get_figure(name)
        table = experiment.run(scale, progress=lambda msg: print(f"  .. {msg}", file=sys.stderr))
        print(table.to_csv() if args.csv else table.to_text())
        if out_dir is not None:
            (out_dir / f"{name}.txt").write_text(table.to_text() + "\n")
            (out_dir / f"{name}.csv").write_text(table.to_csv() + "\n")
            (out_dir / f"{name}.json").write_text(table.to_json() + "\n")
        if experiment.sweep_name == "m" and not args.csv:
            factors = speedup_factors(table)
            print("   speedup vs TA (measured | paper prediction):")
            for m in table.sweep_values:
                print(
                    f"     m={int(m):>2}:  BPA {factors['bpa_measured'][m]:5.2f} | "
                    f"{factors['bpa_paper'][m]:5.2f}    "
                    f"BPA2 {factors['bpa2_measured'][m]:5.2f} | "
                    f"{factors['bpa2_paper'][m]:5.2f}"
                )
        print()
    return 0


def _cmd_paper_examples(_args: argparse.Namespace) -> int:
    print("Figure 1 database, top-3, sum scoring (paper Examples 1-3):")
    database = figure1_database()
    for name in ("fa", "ta", "bpa", "bpa2"):
        result = get_algorithm(name).run(database, 3)
        answers = ", ".join(
            f"{database.label(e.item)}={e.score:g}" for e in result.items
        )
        print(f"  {name:>5}: stops at position {result.stop_position}, "
              f"accesses={result.tally.total} ({result.tally}) -> {answers}")
    print("\nFigure 2 database, top-3 (paper Section 5.1 example):")
    database = figure2_database()
    for name in ("bpa", "bpa2"):
        result = get_algorithm(name).run(database, 3)
        print(f"  {name:>5}: stops at position {result.stop_position}, "
              f"total accesses={result.tally.total}")
    print("\nExpected from the paper: FA stops at 8, TA at 6, BPA at 3;"
          " on Figure 2, BPA does 63 accesses vs BPA2's 36.")
    return 0


def _cmd_adversarial(args: argparse.Namespace) -> int:
    database, info = bpa_favorable_database(args.m, args.u)
    k = min(args.k, info.max_k)
    ta = get_algorithm("ta").run(database, k)
    bpa = get_algorithm("bpa").run(database, k)
    print(f"Lemma 3 instance (m={args.m}, u={args.u}, n={info.n}):")
    print(f"  TA  stops at {ta.stop_position} ({ta.tally.total} accesses)")
    print(f"  BPA stops at {bpa.stop_position} ({bpa.tally.total} accesses)")
    print(f"  ratio {ta.stop_position / bpa.stop_position:.2f} (m-1 = {args.m - 1})")
    database, info = bpa2_favorable_database(args.m, args.u)
    bpa = get_algorithm("bpa").run(database, k)
    bpa2 = get_algorithm("bpa2").run(database, k)
    print(f"Theorem 8 instance (m={args.m}, u={args.u}, n={info.n}):")
    print(f"  BPA  : {bpa.tally.total} accesses")
    print(f"  BPA2 : {bpa2.tally.total} accesses")
    print(f"  ratio {bpa.tally.total / bpa2.tally.total:.2f} "
          f"(prediction {info.j / (args.u + 1):.2f}, m-1 = {args.m - 1})")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.analysis import trace_bpa, trace_ta

    if args.figure1:
        database = figure1_database()
    else:
        database = make_generator("uniform").generate(
            args.n, args.m, seed=args.seed
        )
    print(f"TA trace (n={database.n}, m={database.m}, k={args.k}):")
    for round_trace in trace_ta(database, args.k):
        marker = "  <-- stops" if round_trace.stopped else ""
        top = ", ".join(f"{s:g}" for s in round_trace.top_scores)
        print(f"  pos {round_trace.position:>3}: delta={round_trace.threshold:<10g} "
              f"Y=[{top}]{marker}")
    print(f"\nBPA trace:")
    for round_trace in trace_bpa(database, args.k):
        marker = "  <-- stops" if round_trace.stopped else ""
        top = ", ".join(f"{s:g}" for s in round_trace.top_scores)
        print(f"  pos {round_trace.position:>3}: lambda={round_trace.threshold:<10g} "
              f"bp={list(round_trace.best_positions)} Y=[{top}]{marker}")
    return 0


def _cmd_distributed(args: argparse.Namespace) -> int:
    from repro.distributed import (
        DistributedBPA,
        DistributedBPA2,
        DistributedTA,
        DistributedTPUT,
    )

    params = {"alpha": args.alpha} if args.generator == "correlated" else {}
    generator = make_generator(args.generator, **params)
    database = generator.generate(args.n, args.m, seed=args.seed)
    options = dict(
        transport=args.transport,
        protocol=args.protocol,
        block_width=args.block_width,
    )
    default_wire = (
        args.transport == "simulated"
        and args.protocol == "entry"
        and args.block_width == 1
    )
    print(f"database: {args.generator} n={args.n} m={args.m} k={args.k} "
          f"transport={args.transport} protocol={args.protocol}"
          + (f" block_width={args.block_width}" if args.block_width > 1 else ""))
    print(f"{'driver':>10} {'messages':>10} {'bytes':>12} {'accesses':>10} "
          f"{'stop':>7} {'ms':>8}" + ("  verified" if args.verify else ""))
    failures = 0
    drivers = [DistributedTA(**options), DistributedBPA(**options),
               DistributedBPA2(**options)]
    if default_wire:
        # TPUT is a bulk-phase baseline outside the round-plan engine;
        # it only speaks the original simulated per-entry wire.
        drivers.append(DistributedTPUT())
    for driver in drivers:
        started = time.perf_counter()
        result = driver.run(database, args.k)
        elapsed_ms = (time.perf_counter() - started) * 1e3
        net = result.extras.get("network", {})
        verified = ""
        if args.verify and driver.name != "dist-tput":
            base = driver.name.split("-", 1)[1]
            if args.block_width > 1:
                reference = get_algorithm(
                    f"{base}-block", width=args.block_width
                ).run(database, args.k)
            else:
                reference = get_algorithm(base).run(database, args.k)
            ok = (result.items == reference.items
                  and result.tally == reference.tally)
            failures += not ok
            verified = "  OK" if ok else "  MISMATCH"
        print(f"{driver.name:>10} {net.get('messages', 0):>10,} "
              f"{net.get('bytes', 0):>12,} {result.tally.total:>10,} "
              f"{result.stop_position:>7} {elapsed_ms:>8.1f}{verified}")
    if failures:
        print(f"ERROR: {failures} driver(s) diverge from the reference — "
              "this is a bug", file=sys.stderr)
        return 1
    return 0


def _cmd_verify_snapshot(args: argparse.Namespace) -> int:
    from repro.errors import StorageError
    from repro.storage import verify_snapshot

    try:
        report = verify_snapshot(args.path, repair=args.repair)
    except StorageError as exc:
        print(f"unrecoverable: {exc}", file=sys.stderr)
        return 1
    print(f"snapshot {report.path}: epoch {report.epoch}, "
          f"m={report.m} n={report.n}, "
          f"{'deflate' if report.compressed else 'raw'} payload, "
          f"{report.checks} checks")
    for fixed in report.repaired:
        print(f"  repaired: {fixed}")
    for issue in report.issues:
        print(f"  ISSUE: {issue}")
    if report.ok:
        print("snapshot OK" + (" (after repair)" if report.repaired else ""))
        return 0
    print("snapshot FAILED verification"
          + (" (rank-section damage is not repairable)" if args.repair else
             " (try --repair to rebuild index sections)"),
          file=sys.stderr)
    return 1


def _cmd_serve_workload(args: argparse.Namespace) -> int:
    from repro.service.workload import WorkloadConfig, run_workload, write_report

    if args.cluster_spec is not None:
        return _cmd_hammer_cluster(args)
    if args.algorithm != "auto" and args.algorithm not in known_algorithms():
        print(f"unknown algorithm {args.algorithm!r}; known: "
              f"{known_algorithms()} or 'auto'", file=sys.stderr)
        return 2
    if args.shards == "auto":
        shards = "auto"
    else:
        try:
            shards = int(args.shards)
        except ValueError:
            print(f"--shards must be an integer or 'auto' (got {args.shards})",
                  file=sys.stderr)
            return 2
    args.shards = shards

    settings = dict(
        generator=args.generator,
        alpha=args.alpha,
        n=args.n,
        m=args.m,
        seed=args.seed,
        queries=args.queries,
        distinct=args.distinct,
        k_max=args.k_max,
        zipf_theta=args.zipf_theta,
        algorithm=args.algorithm,
        shards=args.shards,
        pool=args.pool,
        cache_size=0 if args.no_cache else args.cache_size,
        key_skew=args.key_skew,
        adversarial_ratio=args.adversarial_ratio,
        phase_shift=args.phase_shift,
        adaptive=args.adaptive,
    )
    if args.smoke:
        settings.update(
            n=min(args.n, 2_000),
            queries=min(args.queries, 60),
            distinct=min(args.distinct, 10),
            k_max=min(args.k_max, 10),
            shards="auto" if args.shards == "auto" else min(args.shards, 2),
            pool="serial",
        )
        default_out = (
            "reports/service_smoke_async.json"
            if args.async_mode
            else "reports/service_smoke.json"
        )
    else:
        default_out = "reports/service_workload.json"
    if args.watch_port is not None and args.mutation_rate <= 0:
        print("--watch-port needs --mutation-rate: standing queries over "
              "static data never produce a delta", file=sys.stderr)
        return 2
    if args.mutation_rate > 0 or args.reverse_rate > 0:
        if args.async_mode:
            print("--mutation-rate/--reverse-rate replay serially (the "
                  "per-query oracle needs a deterministic interleaving); "
                  "drop --async-mode",
                  file=sys.stderr)
            return 2
        default_out = (
            "reports/service_mutation_smoke.json"
            if args.smoke
            else "reports/service_mutation_workload.json"
        )
    config = WorkloadConfig(**settings)

    if args.watch_port is not None:
        print(f"watch server on 127.0.0.1:{args.watch_port} — tail with "
              f"'repro-topk watch --port {args.watch_port}'")
    report = run_workload(
        config,
        mode="async" if args.async_mode else "serial",
        concurrency=args.concurrency,
        mutation_rate=args.mutation_rate,
        verify=args.verify,
        snapshot_in=args.snapshot_in,
        snapshot_out=args.snapshot_out,
        watch_port=args.watch_port,
        watch_wait=args.watch_wait,
        reverse_rate=args.reverse_rate,
        reverse_users=args.reverse_users,
        reverse_k=args.reverse_k,
    )
    out = write_report(report, args.out or default_out)
    summary = report["service"]

    if "snapshot_restored_epoch" in report:
        print(f"warm start: restored snapshot {args.snapshot_in} "
              f"(epoch {report['snapshot_restored_epoch']})")

    if args.mutation_rate > 0 or args.reverse_rate > 0:
        outcomes = summary["cache_outcomes"]
        mutations = summary["mutations"]
        print(f"mutation replay: {summary['queries']} queries over "
              f"{config.generator} n={config.n:,} m={config.m}, "
              f"~{args.mutation_rate:g} mutations/query "
              f"({sum(mutations.values())} applied: "
              f"{mutations['update_score']} updates, "
              f"{mutations['insert_item']} inserts, "
              f"{mutations['remove_item']} removes)")
        print(f"cache outcomes: {outcomes['hit']} hit / "
              f"{outcomes['revalidated']} revalidated / "
              f"{outcomes['patched']} patched / {outcomes['miss']} miss "
              f"-> reuse rate {summary['reuse_rate']:.1%}")
        watching = report.get("watch")
        if watching is not None:
            print(f"standing queries: {watching['subscriptions']} live at "
                  f"shutdown; maintenance {watching['unchanged']} unchanged "
                  f"/ {watching['patched']} patched / "
                  f"{watching['recomputed']} recomputed -> "
                  f"{watching['deltas']} deltas pushed")
        reverse = summary.get("reverse")
        if reverse is not None:
            decisions = (reverse["bound_in"] + reverse["bound_out"]
                         + reverse["boundary_hits"] + reverse["fallbacks"])
            pruned = reverse["bound_in"] + reverse["bound_out"]
            upkeep = reverse["maintenance"]
            print(f"reverse top-k: {reverse['queries']} queries "
                  f"(k={reverse['k']}, {reverse['users']} users) — "
                  f"{pruned}/{decisions} user decisions bound-pruned, "
                  f"{reverse['boundary_hits']} boundary hits, "
                  f"{reverse['fallbacks']} fallbacks")
            print(f"  boundary maintenance: {upkeep['unchanged']} unchanged "
                  f"/ {upkeep['patched']} patched / {upkeep['dropped']} "
                  f"dropped / {upkeep['flushes']} flushes")
        if args.verify:
            verdict = summary["verified_identical"]
            print(f"oracle verification: "
                  f"{'all answers identical' if verdict else 'MISMATCH'} "
                  f"({summary['verify_mismatches']} mismatches)")
            if not verdict:
                print("ERROR: a served answer diverged from the brute-force "
                      "ranking of the current data", file=sys.stderr)
                return 1
            if reverse is not None and not reverse["verified_identical"]:
                print("ERROR: a reverse top-k answer diverged from the "
                      "per-user brute-force oracle", file=sys.stderr)
                return 1
        saved = report.get("snapshot_saved")
        if saved is not None:
            print(f"snapshot saved to {saved['path']} "
                  f"(epoch {saved['epoch']})")
        print(f"report written to {out}")
        return 0
    print(f"workload: {summary['queries']} queries "
          f"({config.distinct} distinct, zipf theta={config.zipf_theta}) over "
          f"{config.generator} n={config.n:,} m={config.m}")
    mode_note = (
        f" mode=async(x{args.concurrency}, {summary.get('coalesced', 0)} "
        "coalesced)" if args.async_mode else ""
    )
    print(f"service:  shards={summary['shards']} "
          f"pool={report['pool_resolved']} "
          f"cache={'off' if config.cache_size == 0 else config.cache_size}"
          f"{mode_note}")
    print(f"{'':>10}{'queries/s':>12} {'hit rate':>9} {'p50 ms':>8} "
          f"{'p95 ms':>8}")
    print(f"{'service':>10}{summary['queries_per_second']:>12,.0f} "
          f"{summary['cache_hit_rate']:>9.1%} "
          f"{summary['latency_ms']['p50']:>8.2f} "
          f"{summary['latency_ms']['p95']:>8.2f}")
    baseline = report.get("baseline_unsharded_no_cache")
    if baseline is not None:
        print(f"{'baseline':>10}{baseline['queries_per_second']:>12,.0f} "
              f"{'-':>9} {baseline['latency_ms']['p50']:>8.2f} "
              f"{baseline['latency_ms']['p95']:>8.2f}")
        print(f"speedup vs unsharded/no-cache baseline: "
              f"{report['speedup_vs_baseline']:.2f}x  "
              f"(results identical: {report['results_identical_to_baseline']})")
        if not report["results_identical_to_baseline"]:
            print("ERROR: service answers diverge from the baseline — "
                  "this is a bug", file=sys.stderr)
            return 1
    adaptive = summary.get("adaptive")
    if adaptive is not None:
        print(f"adaptive: {adaptive['drift_epochs']} drift epochs, "
              f"{adaptive['replans']} re-plans over {adaptive['arms']} arms")
    if args.verify:
        verdict = summary.get("verified_identical")
        print(f"oracle verification: "
              f"{'all answers identical' if verdict else 'MISMATCH'} "
              f"({summary.get('verify_mismatches', 0)} mismatches)")
        if not verdict:
            print("ERROR: a served answer diverged from the brute-force "
                  "ranking", file=sys.stderr)
            return 1
    saved = report.get("snapshot_saved")
    if saved is not None:
        print(f"snapshot saved to {saved['path']} (epoch {saved['epoch']})")
    print(f"report written to {out}")
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    from repro.watch.client import WatchClient

    try:
        client = WatchClient(args.port, host=args.host)
    except OSError as exc:
        print(f"cannot reach watch server at {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 1
    with client:
        handle = client.watch(
            algorithm=args.algorithm, k=args.k, scoring=args.scoring
        )
        print(f"subscription #{handle.id} (k={args.k}, {args.scoring}, "
              f"epoch {handle.epoch}):")
        for rank, entry in enumerate(handle.entries, start=1):
            print(f"  {rank:>3}. item {entry.item}  score {entry.score:.6f}")
        seen = 0
        try:
            while args.max_deltas is None or seen < args.max_deltas:
                for delta in client.poll(timeout=args.poll_timeout):
                    if not handle.apply(delta):
                        continue
                    seen += 1
                    exits = ",".join(str(item) for item in delta.exits)
                    moves = ", ".join(
                        f"#{u.rank + 1} item {u.item} ({u.score:.6f})"
                        for u in delta.upserts
                    )
                    print(f"delta seq={delta.seq} epoch={delta.epoch} "
                          f"[{delta.cause}]"
                          + (f" out: {exits}" if exits else "")
                          + (f" in/move: {moves}" if moves else ""))
                    if args.max_deltas is not None and seen >= args.max_deltas:
                        break
        except ConnectionError:
            print("server closed the stream")
        except KeyboardInterrupt:
            pass
    print(f"tailed {seen} deltas; final top-{args.k}: "
          f"{list(handle.item_ids)}")
    return 0


def _cmd_reverse(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.datagen import make_generator
    from repro.reverse import brute_force_reverse_topk
    from repro.service.service import QueryService
    from repro.service.workload import dynamic_from

    static = make_generator(args.generator).generate(
        args.n, args.m, seed=args.seed
    )
    source = dynamic_from(static)
    rng = np.random.default_rng(args.seed + 1)
    mismatches = 0
    with QueryService(source, shards=1, pool="serial") as service:
        registry = service.reverse_registry
        registry.seed_users(args.users, args.m, seed=args.seed + 2)
        ids = sorted(source.item_ids)
        if args.item is not None:
            if args.item not in source.item_ids:
                print(f"item {args.item} is not in the database "
                      f"(ids 0..{max(ids)})", file=sys.stderr)
                return 2
            items = [args.item]
        else:
            items = [
                ids[int(rng.integers(len(ids)))]
                for _ in range(args.queries)
            ]
        print(f"reverse top-{args.k} over {args.generator} "
              f"n={args.n:,} m={args.m}, {args.users} registered users:")
        for item in items:
            result = service.submit_reverse(item, args.k)
            stats = result.stats
            verdict = ""
            if not args.no_verify:
                expected = brute_force_reverse_topk(
                    source, registry, item, args.k
                )
                if result.users != expected:
                    mismatches += 1
                    verdict = "  MISMATCH vs oracle"
            print(f"  item {item}: {len(result)} users "
                  f"(bounds {stats.bound_in}+{stats.bound_out}, "
                  f"cached {stats.boundary_hits}, "
                  f"fallback {stats.fallbacks}, "
                  f"{stats.seconds * 1e3:.2f} ms){verdict}")
            if args.item is not None and result.users:
                for user in result.users:
                    weights = registry.get(user).weights
                    rendered = ", ".join(f"{w:.3f}" for w in weights)
                    print(f"    {user}  weights [{rendered}]")
        counters = service.reverse_engine.counters
        decided = counters.bound_in + counters.bound_out
        total = decided + counters.boundary_hits + counters.fallbacks
        print(f"decisions: {decided}/{total} bound-pruned, "
              f"{counters.boundary_hits} boundary hits, "
              f"{counters.fallbacks} fallbacks")
    if not args.no_verify:
        print(f"oracle verification: "
              f"{'all answers identical' if mismatches == 0 else 'MISMATCH'} "
              f"({mismatches} mismatches)")
        if mismatches:
            return 1
    return 0


def _cmd_hammer_cluster(args: argparse.Namespace) -> int:
    """``serve-workload --cluster-spec``: hammer a cluster we did not spawn."""
    import json

    from repro.distributed.cluster_bench import hammer_cluster
    from repro.service.workload import write_report

    with open(args.cluster_spec, encoding="utf-8") as handle:
        spec = json.load(handle)
    ks = tuple(sorted({max(1, args.k_max // 4), max(1, args.k_max // 2),
                       max(1, args.k_max)}))
    report = hammer_cluster(spec, ks=ks, verify=args.verify)
    print(f"cluster workload: {report['queries']} queries over "
          f"{report['owners']} owners ({report['protocol']} protocol)")
    print(f"{'algorithm':>10} {'k':>4} {'messages':>9} {'bytes':>10} "
          f"{'ms':>8} {'verified':>9}")
    for row in report["rows"]:
        verified = str(row.get("verified", "-"))
        print(f"{row['algorithm']:>10} {row['k']:>4} {row['messages']:>9,} "
              f"{row['bytes']:>10,} {row['seconds'] * 1e3:>8.1f} "
              f"{verified:>9}")
    out = write_report(report, args.out or "reports/cluster_workload.json")
    print(f"report written to {out}")
    if args.verify and report["failures"]:
        print(f"{report['failures']} queries diverged from the reference",
              file=sys.stderr)
        return 1
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    handlers = {
        "serve": _cmd_cluster_serve,
        "stats": _cmd_cluster_stats,
    }
    return handlers[args.cluster_command](args)


def _cmd_cluster_serve(args: argparse.Namespace) -> int:
    import json

    from repro.distributed.socket_transport import SocketCluster
    from repro.storage import atomic_writer

    cluster = SocketCluster.from_snapshot(
        args.snapshot,
        owners=args.owners or None,
        placement=args.placement,
        include_position=args.include_position,
        latency_sample_k=args.latency_sample_k,
    )
    try:
        spec = {
            "ports": cluster.ports,
            "placement": cluster.placement.to_dict(),
            "m": cluster.m,
            "n": cluster.n,
            "epoch": cluster.epoch,
            "include_position": cluster.include_position,
            "snapshot": args.snapshot,
        }
        body = json.dumps(spec, indent=2) + "\n"
        if args.spec_out:
            # Atomic so a poll-for-the-file client never reads a torn spec.
            with atomic_writer(args.spec_out) as handle:
                handle.write(body.encode("utf-8"))
        print(f"cluster up: {cluster.placement.owners} owners hosting "
              f"{cluster.m} lists (n={cluster.n:,}, epoch {cluster.epoch}, "
              f"{cluster.placement.strategy} placement)")
        for owner, (group, port) in enumerate(
            zip(cluster.placement.groups, cluster.ports)
        ):
            print(f"  owner/{owner}: lists {list(group)} on port {port}")
        if args.spec_out:
            print(f"spec written to {args.spec_out}")
        else:
            print(body, end="")
        try:
            if args.serve_for is not None:
                time.sleep(args.serve_for)
            else:
                while True:
                    time.sleep(1.0)
        except KeyboardInterrupt:
            pass
    finally:
        cluster.close()
    print("cluster shut down")
    return 0


def _cmd_cluster_stats(args: argparse.Namespace) -> int:
    import json

    from repro.distributed.socket_transport import connect_ports

    with open(args.spec, encoding="utf-8") as handle:
        spec = json.load(handle)
    documents = []
    with connect_ports(spec["ports"]) as fabric:
        for owner in range(len(spec["ports"])):
            metrics = fabric.request(f"owner/{owner}", "state",
                                     {"metrics": True})
            documents.append(metrics)
            # A fresh daemon reports only zero counts (no quantile
            # keys, possibly no latency section at all over older
            # protocols) — render "no data", don't crash.
            latency = metrics.get("latency") or {}
            ops = ", ".join(f"{kind}={count:,}" for kind, count
                            in sorted(metrics["ops"].items())) or "none"
            print(f"owner/{owner}: lists {metrics['lists']}")
            print(f"  ops: {ops}")
            if latency.get("count") and "p50_us" in latency:
                print(f"  latency ({latency['count']:,} ops, "
                      f"{latency['samples']} sampled): "
                      f"p50 {latency['p50_us']}us  "
                      f"p90 {latency['p90_us']}us  "
                      f"p99 {latency['p99_us']}us  "
                      f"max {latency['max_us']}us")
            else:
                print("  latency: no ops served yet")
            frames = metrics.get("frames") or {}
            if frames.get("count"):
                print(f"  frames: {frames['count']:,} served; summed "
                      f"decode {frames['decode_seconds'] * 1e3:.3f}ms  "
                      f"handle {frames['handle_seconds'] * 1e3:.3f}ms  "
                      f"encode {frames['encode_seconds'] * 1e3:.3f}ms")
            else:
                print("  frames: none served yet")
    if args.suggest_placement:
        from repro.distributed.placement import (
            ClusterPlacement,
            list_masses,
            placement_balance,
            rebalance_placement,
        )

        # Decide the edge cases from the *observed* mass before ever
        # invoking the rebalancer: a fresh cluster may report no
        # per-list statistics at all (rebalance_placement would raise),
        # and a single-owner cluster has no move worth proposing.
        current = ClusterPlacement.from_dict(spec["placement"])
        masses = list_masses(documents)
        before = placement_balance(current, masses)
        print(f"placement: {current.strategy}, imbalance "
              f"{before['imbalance']:.3f} (max/mean observed latency "
              f"mass; 1.0 is perfect)")
        if before["total_mass"] <= 0:
            print("  no observed load yet — serve some queries before "
                  "rebalancing")
        elif current.owners <= 1:
            print("  single owner hosts every list — nothing to "
                  "rebalance")
        else:
            proposal = rebalance_placement(documents)
            after = placement_balance(proposal, masses)
            if after["imbalance"] < before["imbalance"]:
                print(f"  suggested rebalance -> imbalance "
                      f"{after['imbalance']:.3f}:")
                for owner, group in enumerate(proposal.groups):
                    print(f"    owner/{owner}: lists {list(group)} "
                          f"(mass {after['per_owner_mass'][owner]:.6f})")
            else:
                print("  current placement is already balanced — "
                      "no move suggested")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "query": _cmd_query,
        "figure": _cmd_figure,
        "paper-examples": _cmd_paper_examples,
        "adversarial": _cmd_adversarial,
        "trace": _cmd_trace,
        "distributed": _cmd_distributed,
        "serve-workload": _cmd_serve_workload,
        "watch": _cmd_watch,
        "reverse": _cmd_reverse,
        "verify-snapshot": _cmd_verify_snapshot,
        "cluster": _cmd_cluster,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
