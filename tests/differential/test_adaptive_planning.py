"""Differential proof that adaptive planning is a pure optimization.

The control loop (:mod:`repro.service.feedback`) may move a query
between algorithms at any moment — but every candidate is exact, so the
*only* observable difference allowed is cost.  Hypothesis drives three
claims:

* every adaptive decision stays on the valid configuration lattice
  (auto candidates, ``k_fetch >= k``);
* answers are bit-identical to a static cache-off service, phase
  shifts, adversarial outliers and drift re-tuning included;
* hysteresis holds: once converged on a stationary workload, the
  feedback store re-plans at most once more (no flapping between
  near-tied arms).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import ColumnarDatabase
from repro.datagen import make_generator
from repro.exec import QuerySpec
from repro.service import QueryService, ServicePolicy
from repro.service.planner import AUTO_CANDIDATES
from repro.service.workload import WorkloadConfig, build_workload

ADAPTIVE_POLICY = dict(
    adaptive=True,
    feedback_min_samples=1,
    drift_window=8,
)


def _database(generator: str, n: int, m: int, seed: int):
    return ColumnarDatabase.from_database(
        make_generator(generator).generate(n, m, seed=seed)
    )


def _workload(seed: int, *, phase_shift: int, adversarial: float):
    return build_workload(
        WorkloadConfig(
            generator="uniform",
            n=300,
            m=3,
            seed=seed,
            queries=48,
            distinct=8,
            k_max=12,
            phase_shift=phase_shift,
            adversarial_ratio=adversarial,
        )
    )


class TestAdaptiveIsAPureOptimization:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        phase_shift=st.integers(min_value=0, max_value=3),
        adversarial=st.sampled_from([0.0, 0.2]),
    )
    def test_bit_identical_answers_under_every_decision(
        self, seed, phase_shift, adversarial
    ):
        database = _database("uniform", 300, 3, seed % 7)
        workload = _workload(
            seed, phase_shift=phase_shift, adversarial=adversarial
        )
        with QueryService(
            database, shards=1, pool="serial", cache_size=0
        ) as static:
            expected = static.submit_many(workload)
        with QueryService(
            database,
            shards=1,
            pool="serial",
            cache_size=0,
            policy=ServicePolicy(**ADAPTIVE_POLICY),
        ) as adaptive:
            served = adaptive.submit_many(workload)
        assert [r.item_ids for r in served] == [
            r.item_ids for r in expected
        ]
        assert [r.scores for r in served] == [r.scores for r in expected]

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_decisions_stay_on_the_configuration_lattice(self, seed):
        database = _database("uniform", 300, 3, 11)
        workload = _workload(seed, phase_shift=2, adversarial=0.2)
        with QueryService(
            database,
            shards=1,
            pool="serial",
            cache_size=0,
            policy=ServicePolicy(**ADAPTIVE_POLICY),
        ) as service:
            for spec in workload:
                result = service.submit(spec)
                plan = result.stats.plan
                assert plan.algorithm in AUTO_CANDIDATES
                assert plan.k_fetch >= min(spec.k, database.n)

    def test_stationary_workload_replans_at_most_once_after_convergence(
        self,
    ):
        database = _database("uniform", 300, 3, 5)
        stationary = [
            QuerySpec("auto", k=4 + (index % 3)) for index in range(96)
        ]
        with QueryService(
            database,
            shards=1,
            pool="serial",
            cache_size=0,
            policy=ServicePolicy(**ADAPTIVE_POLICY),
        ) as service:
            for spec in stationary[:48]:
                service.submit(spec)
            converged = service.adaptive_state.feedback.replans
            for spec in stationary[48:]:
                service.submit(spec)
            assert (
                service.adaptive_state.feedback.replans - converged <= 1
            )
            # Stationary shape: the drift detector must stay quiet.
            assert service.counters.drift_epochs == 0
