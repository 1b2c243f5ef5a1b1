"""Smoke tests of the benchmark itself: ``python3 -m pytest perfbench``.

Every workload runs at a few hundred items for a fraction of a second.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import calibrate  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro import SUM, QueryService, UniformGenerator  # noqa: E402
from repro.algorithms.naive import brute_force_topk  # noqa: E402
from repro.reverse import UserWeightRegistry, brute_force_reverse_topk  # noqa: E402
from repro.service.workload import WorkloadMutator, dynamic_from, fresh_topk  # noqa: E402

SMOKE = {
    workloads.HotRead: {"n": 500, "pool_size": 16, "exact_ops": 50},
    workloads.ScoringChurn: {"n": 300, "warmup": 2, "exact_ops": 5, "round_size": 7},
    workloads.Mutating: {
        "n": 400,
        "users": 8,
        "warm_reverse": 2,
        "reverse_targets": 40,
        "exact_ops": 30,
        "library_check_every": 5,
        "round_steps": 60,
    },
    workloads.Networked: {"n": 300, "exact_ops": 3},
}


@pytest.fixture(autouse=True)
def smoke_sizes(monkeypatch):
    for cls, sizes in SMOKE.items():
        monkeypatch.setattr(cls, "setup_repeats", 1)
        for name, value in sizes.items():
            monkeypatch.setattr(cls, name, value)


def bench(capsys, workload: str, *, trace: int, seed: int = 3) -> tuple[dict, dict]:
    assert run.main(
        ["--workload", workload, "--seed", str(seed), "--seconds", "0.3", "--trace", str(trace)]
    ) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_reported_with_its_unit(capsys, workload, trace):
    detail, result = bench(capsys, workload, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, detail["failures"]
    assert result["attempted"] >= 1
    reported = {name: value["unit"] for name, value in result["metrics"].items()}
    assert reported == declared("per_layer" if trace else "end_to_end")
    assert detail["failed_ops_ratio"] == 0.0
    assert set(detail["host"]) >= {"nproc", "affinity", "git_sha", "seed", "python", "numpy", "traced"}


@pytest.mark.parametrize("workload", ["hot_read", "scoring_churn", "mutating"])
def test_a_wrong_answer_raises_the_failed_ratio(capsys, monkeypatch, workload):
    submit = QueryService.submit

    def wrong(self, spec):
        served = submit(self, spec)
        items = served.result.items
        bad = items[1:] + items[:1] if len(items) > 1 else ()
        object.__setattr__(served.result, "items", bad)
        return served

    monkeypatch.setattr(QueryService, "submit", wrong)
    detail, result = bench(capsys, workload, trace=0)
    assert result["correct"] is False
    assert result["failed"] > 0
    assert detail["failed_ops_ratio"] > 0.0


def test_times_are_scaled_by_the_reference_speed(capsys, monkeypatch):
    slow = 2.0 * calibrate.REFERENCE_S
    monkeypatch.setattr(calibrate, "reference_time", lambda: (slow, slow))
    detail, result = bench(capsys, "hot_read", trace=0)
    metrics = {name: value["value"] for name, value in result["metrics"].items()}
    assert detail["reference_ms"] == pytest.approx(slow * 1e3)
    assert metrics["query_p50_ms"] == pytest.approx(detail["raw_query_p50_ms"] / 2)
    assert detail["query_p90_ms"] == pytest.approx(detail["raw_query_p90_ms"] / 2)
    assert metrics["throughput_ops_s"] == pytest.approx(detail["raw_throughput_ops_s"] * 2)
    assert metrics["setup_s"] == pytest.approx(np.median(detail["raw_setups_s"]) / 2)


def test_a_wrong_network_tally_is_a_failure(capsys, monkeypatch):
    from repro.distributed.transport import NetworkBackend
    from repro.types import AccessTally

    total = NetworkBackend.total_tally
    monkeypatch.setattr(
        NetworkBackend, "total_tally", lambda self: total(self) + AccessTally(sorted=1)
    )
    detail, result = bench(capsys, "networked", trace=0)
    assert result["failed"] == result["attempted"] > 0


def patch_targets():
    probe = tracing.Tracer()
    tracing.install(probe)
    targets = [(owner, key, original) for owner, key, original, _ in probe._patches]
    probe.uninstall()
    return targets


def current(owner, key):
    return owner[key] if isinstance(owner, dict) else getattr(owner, key)


@pytest.mark.parametrize("workload", ["mutating", "networked"])
def test_tracing_wrappers_are_gone_after_a_traced_run(capsys, workload):
    targets = patch_targets()
    assert len(targets) > 30
    assert all(current(owner, key) is original for owner, key, original in targets)
    bench(capsys, workload, trace=1)
    assert all(current(owner, key) is original for owner, key, original in targets)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_exact_counters_repeat_across_runs(capsys, workload):
    first, _ = bench(capsys, workload, trace=1)
    second, _ = bench(capsys, workload, trace=1)
    assert first["exact_counters_repeat"] and second["exact_counters_repeat"]
    assert first["exact_at_ops"] == second["exact_at_ops"]
    assert first["exact"] == second["exact"]
    untraced, _ = bench(capsys, workload, trace=0)
    assert untraced["exact"] == {
        key: value for key, value in first["exact"].items() if key in untraced["exact"]
    }


def test_an_answer_is_checked_once_even_across_a_new_round(tmp_path):
    workload = workloads.ScoringChurn(3, str(tmp_path))
    workload.setup()
    workload.start()
    for _ in range(workload.round_size):
        workload.step()
        workload.check()
    assert workload.round == 1  # the last check moved to fresh data
    workload.finish()  # must not re-check the last answer on the new data
    workload.teardown()
    assert workload.failed == 0, workload.failures


def test_mirror_oracle_equals_the_library_oracles():
    database = UniformGenerator().generate(300, 4, seed=5)
    source = dynamic_from(database)
    mirror = oracle.Mirror(database)
    recording = workloads.RecordingSource(source, mirror, [], Counter())
    mutator = WorkloadMutator(recording, np.random.default_rng(5))
    registry = UserWeightRegistry()
    registry.seed_users(6, 4, seed=5)
    users = [(entry.user, entry.scoring) for entry in registry.entries()]
    rng = np.random.default_rng(6)
    for round_ in range(40):
        mutator.apply_one()
        scoring = SUM if round_ % 2 else workloads.fresh_weights(rng)
        k = int(rng.integers(1, 25))
        assert mirror.topk(k, scoring) == fresh_topk(source, k, scoring)
        if round_ % 8 == 0:
            item = mirror.topk(30, SUM)[0][int(rng.integers(30))]
            assert mirror.reverse(item, 5, users) == brute_force_reverse_topk(
                source, registry, item, 5
            )
    ranked = brute_force_topk(database, 10, SUM)
    fresh = oracle.Mirror(database)
    assert fresh.topk(10, SUM)[0] == tuple(entry.item for entry in ranked)


def test_without_program_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hot_read", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
