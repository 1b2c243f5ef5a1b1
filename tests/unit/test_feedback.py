"""The control loop's bookkeeping: arms and drift windows."""

from __future__ import annotations

import pytest

from repro.scoring import MIN, SUM
from repro.service.feedback import (
    AdaptiveState,
    DriftDetector,
    PlanFeedback,
    plan_signature,
    total_variation,
)
from repro.service.planner import ServicePolicy
from repro.types import CostModel


def _record(feedback, algorithm, *, seconds, predicted=100.0, sig=("sum", 8)):
    feedback.record(
        algorithm=algorithm,
        signature=sig,
        predicted_cost=predicted,
        seconds=seconds,
    )


class TestPlanSignature:
    def test_buckets_k_by_power_of_two(self):
        assert plan_signature(SUM, 5) == plan_signature(SUM, 8)
        assert plan_signature(SUM, 8) != plan_signature(SUM, 9)
        assert plan_signature(SUM, 1)[1] == 1

    def test_distinguishes_scoring(self):
        assert plan_signature(SUM, 4) != plan_signature(MIN, 4)


class TestPlanFeedback:
    def test_validates_parameters(self):
        with pytest.raises(ValueError, match="smoothing"):
            PlanFeedback(smoothing=0.0)
        with pytest.raises(ValueError, match="min_samples"):
            PlanFeedback(min_samples=0)
        with pytest.raises(ValueError, match="tolerance"):
            PlanFeedback(tolerance=-0.1)
        with pytest.raises(ValueError, match="blend"):
            PlanFeedback(blend=1.5)

    def test_records_accumulate_per_arm(self):
        feedback = PlanFeedback(min_samples=2)
        _record(feedback, "ta", seconds=0.01)
        _record(feedback, "ta", seconds=0.01)
        _record(feedback, "bpa", seconds=0.02)
        assert feedback.samples("ta", ("sum", 8)) == 2
        assert feedback.samples("bpa", ("sum", 8)) == 1
        assert feedback.samples("bpa2", ("sum", 8)) == 0
        assert feedback.arm_count == 2

    def test_signatures_scope_arms_independently(self):
        feedback = PlanFeedback(min_samples=1)
        _record(feedback, "ta", seconds=0.01, sig=("sum", 8))
        _record(feedback, "ta", seconds=0.04, sig=("sum", 16))
        assert feedback.arm_count == 2
        assert feedback.samples("ta", ("sum", 8)) == 1
        assert feedback.samples("ta", ("sum", 16)) == 1
        # One global rate converts both: each arm's cost is its own
        # seconds over that rate, so the costs keep the seconds' ratio.
        narrow = feedback.observed_cost("ta", ("sum", 8))
        deep = feedback.observed_cost("ta", ("sum", 16))
        assert deep == pytest.approx(4 * narrow)

    def test_explore_candidate_prefers_least_sampled(self):
        feedback = PlanFeedback(min_samples=2)
        sig = ("sum", 8)
        assert (
            feedback.explore_candidate(("ta", "bpa"), signature=sig) == "bpa"
        )
        _record(feedback, "bpa", seconds=0.01)
        assert (
            feedback.explore_candidate(("ta", "bpa"), signature=sig) == "ta"
        )
        for _ in range(2):
            _record(feedback, "ta", seconds=0.01)
            _record(feedback, "bpa", seconds=0.01)
        assert feedback.explore_candidate(("ta", "bpa"), signature=sig) is None

    def test_select_keeps_incumbent_inside_hysteresis_band(self):
        feedback = PlanFeedback(min_samples=1, tolerance=0.25)
        sig = ("sum", 8)
        picked, replanned, _ = feedback.select(
            ("ta", "bpa"), {"ta": 100.0, "bpa": 110.0}, signature=sig
        )
        assert (picked, replanned) == ("ta", False)
        # bpa now 10% cheaper — inside the 25% band, incumbent holds.
        picked, replanned, _ = feedback.select(
            ("ta", "bpa"), {"ta": 100.0, "bpa": 90.0}, signature=sig
        )
        assert (picked, replanned) == ("ta", False)
        assert feedback.replans == 0

    def test_select_replans_beyond_the_band(self):
        feedback = PlanFeedback(min_samples=1, tolerance=0.25)
        sig = ("sum", 8)
        feedback.select(("ta", "bpa"), {"ta": 100.0, "bpa": 110.0}, signature=sig)
        picked, replanned, reason = feedback.select(
            ("ta", "bpa"), {"ta": 100.0, "bpa": 60.0}, signature=sig
        )
        assert (picked, replanned) == ("bpa", True)
        assert feedback.replans == 1
        assert "re-planned" in reason

    def test_calibrated_costs_blend_only_mature_arms(self):
        feedback = PlanFeedback(min_samples=1, blend=0.5)
        sig = ("sum", 8)
        _record(feedback, "ta", seconds=0.01, predicted=100.0, sig=sig)
        model = CostModel.paper(1000)
        calibrated = feedback.calibrated_costs(
            {"ta": 100.0, "bpa": 80.0}, signature=sig, model=model
        )
        # bpa has no observations: its prediction passes through.
        assert calibrated["bpa"] == 80.0
        # ta's observation equals its prediction (it seeded the rate).
        assert calibrated["ta"] == pytest.approx(100.0)

    def test_unpriced_runs_leave_the_rate_unseeded(self):
        # A forced algorithm the cost model does not price (qc) records
        # a zero prediction: its arm matures, the rate stays unseeded.
        feedback = PlanFeedback(min_samples=1)
        sig = ("sum", 8)
        _record(feedback, "qc", seconds=0.01, predicted=0.0, sig=sig)
        assert feedback.samples("qc", sig) == 1
        assert feedback.observed_cost("qc", sig) is None

    def test_invalidate_clears_incumbents(self):
        feedback = PlanFeedback(min_samples=1)
        sig = ("sum", 8)
        feedback.select(("ta", "bpa"), {"ta": 1.0, "bpa": 2.0}, signature=sig)
        feedback.invalidate()
        _, replanned, reason = feedback.select(
            ("ta", "bpa"), {"ta": 1.0, "bpa": 2.0}, signature=sig
        )
        assert not replanned and "initial" in reason


class TestTotalVariation:
    def test_identical_histograms_have_zero_distance(self):
        assert total_variation({"a": 3, "b": 1}, {"a": 6, "b": 2}) == 0.0

    def test_disjoint_histograms_have_distance_one(self):
        assert total_variation({"a": 5}, {"b": 7}) == 1.0

    def test_empty_histogram_reports_zero(self):
        assert total_variation({}, {"a": 1}) == 0.0


class TestDriftDetector:
    def test_validates_parameters(self):
        with pytest.raises(ValueError, match="window"):
            DriftDetector(window=1)
        with pytest.raises(ValueError, match="threshold"):
            DriftDetector(threshold=0.0)

    def test_stationary_stream_never_fires(self):
        detector = DriftDetector(window=8, threshold=0.6)
        key = DriftDetector.bucket("ta", 4, SUM)
        assert not any(detector.observe(key, k=4) for _ in range(64))
        assert detector.epochs == 0

    def test_shape_shift_fires_one_epoch(self):
        detector = DriftDetector(window=8, threshold=0.6)
        narrow = DriftDetector.bucket("ta", 2, SUM)
        deep = DriftDetector.bucket("ta", 64, SUM)
        for _ in range(16):  # reference + one confirming window
            detector.observe(narrow, k=2)
        fired = [detector.observe(deep, k=64) for _ in range(8)]
        assert fired.count(True) == 1
        assert detector.epochs == 1
        assert detector.last_divergence == 1.0

    def test_bucketing_absorbs_nearby_k(self):
        # k=5..8 share a bucket: drifting within it is not a shift.
        detector = DriftDetector(window=8, threshold=0.3)
        for index in range(64):
            key = DriftDetector.bucket("ta", 5 + index % 4, SUM)
            assert not detector.observe(key)

    def test_recent_k_and_distinct_ratio_window(self):
        detector = DriftDetector(window=4, threshold=0.6)
        for k in (1, 2, 3, 4, 5):
            detector.observe(DriftDetector.bucket("ta", k, SUM), k=k)
        assert list(detector.recent_k) == [2, 3, 4, 5]
        assert 0.0 < detector.distinct_ratio <= 1.0

    def test_distinct_ratio_of_an_empty_window_is_zero(self):
        assert DriftDetector(window=4).distinct_ratio == 0.0


class TestAdaptiveState:
    def test_from_policy_carries_the_feedback_knobs(self):
        state = AdaptiveState.from_policy(
            ServicePolicy(
                adaptive=True,
                feedback_min_samples=3,
                feedback_tolerance=0.1,
                feedback_blend=0.75,
            )
        )
        feedback = state.feedback
        assert (feedback.min_samples, feedback.tolerance, feedback.blend) == (
            3,
            0.1,
            0.75,
        )

    def test_from_policy_carries_the_drift_knobs(self):
        state = AdaptiveState.from_policy(
            ServicePolicy(adaptive=True, drift_window=8, drift_threshold=0.4)
        )
        assert (state.drift.window, state.drift.threshold) == (8, 0.4)

    def test_starts_empty_with_no_overfetch_override(self):
        state = AdaptiveState.from_policy(ServicePolicy(adaptive=True))
        assert state.overfetch_override is None
        assert (state.feedback.arm_count, state.feedback.replans) == (0, 0)
        assert state.drift.epochs == 0
