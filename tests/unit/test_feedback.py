"""The control loop's bookkeeping: arms, width AIMD, drift windows."""

from __future__ import annotations

import pytest

from repro.scoring import MIN, SUM
from repro.service.feedback import (
    WIDTH_LATTICE,
    AdaptiveState,
    BlockWidthController,
    DriftDetector,
    PlanFeedback,
    WidthProbe,
    plan_signature,
    total_variation,
)
from repro.service.planner import ServicePolicy
from repro.types import CostModel


def _record(feedback, algorithm, *, seconds, predicted=100.0, sig=("sum", 8)):
    feedback.record(
        algorithm=algorithm,
        transport="local",
        signature=sig,
        predicted_cost=predicted,
        seconds=seconds,
        rounds=3,
        messages=12,
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
        assert feedback.samples("ta", "local", ("sum", 8)) == 2
        assert feedback.samples("bpa", "local", ("sum", 8)) == 1
        assert feedback.samples("bpa2", "local", ("sum", 8)) == 0
        assert feedback.arm_count == 2

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

    def test_invalidate_clears_incumbents(self):
        feedback = PlanFeedback(min_samples=1)
        sig = ("sum", 8)
        feedback.select(("ta", "bpa"), {"ta": 1.0, "bpa": 2.0}, signature=sig)
        feedback.invalidate()
        _, replanned, reason = feedback.select(
            ("ta", "bpa"), {"ta": 1.0, "bpa": 2.0}, signature=sig
        )
        assert not replanned and "initial" in reason


class TestBlockWidthController:
    def test_validates_parameters(self):
        with pytest.raises(ValueError, match="lattice"):
            BlockWidthController(initial=3)
        with pytest.raises(ValueError, match="threshold"):
            BlockWidthController(threshold=1.0)
        with pytest.raises(ValueError, match="overshoot"):
            BlockWidthController(overshoot_limit=1.0)
        with pytest.raises(ValueError, match="patience"):
            BlockWidthController(patience=0)

    def test_steps_up_after_patience_deep_records(self):
        controller = BlockWidthController(initial=1, patience=2)
        for _ in range(2):
            controller.record(
                seconds=0.001, rounds=4, fetched_positions=4,
                stop_position=4, k=4,
            )
        assert controller.width == 2
        assert controller.adjustments == 1

    def test_never_steps_up_when_width_covers_the_stop(self):
        controller = BlockWidthController(initial=4, patience=1)
        for _ in range(10):
            controller.record(
                seconds=0.001, rounds=1, fetched_positions=4,
                stop_position=3, k=1,
            )
        assert controller.width == 4

    def test_overshoot_steps_down_only_after_patience(self):
        # k=1 query stopping at position 1 but fetching a whole block
        # of 16: provable need is 1, overshoot is 16x.
        controller = BlockWidthController(
            initial=16, patience=2, overshoot_limit=3.0
        )
        controller.record(
            seconds=0.001, rounds=1, fetched_positions=16,
            stop_position=1, k=1,
        )
        assert controller.width == 16  # one bad record: patience holds
        controller.record(
            seconds=0.001, rounds=1, fetched_positions=16,
            stop_position=1, k=1,
        )
        assert controller.width == 8

    def test_single_bad_record_does_not_break_an_up_streak(self):
        controller = BlockWidthController(initial=8, patience=2)
        deep = dict(seconds=0.001, rounds=2, fetched_positions=16,
                    stop_position=16, k=16)
        narrow = dict(seconds=0.001, rounds=1, fetched_positions=8,
                      stop_position=1, k=1)
        controller.record(**deep)
        controller.record(**narrow)  # overshoots, but patience=2
        controller.record(**deep)
        controller.record(**deep)
        assert controller.width == 16

    def test_slow_rounds_step_down_from_latency_alone(self):
        controller = BlockWidthController(
            initial=8, patience=1, threshold=2.0
        )
        covered = dict(rounds=1, fetched_positions=4, stop_position=2, k=2)
        controller.record(seconds=0.001, **covered)  # seeds the baseline
        controller.record(seconds=0.010, **covered)  # 10x the baseline
        assert controller.width == 4

    def test_width_stays_on_lattice_at_both_ends(self):
        controller = BlockWidthController(initial=1, patience=1)
        for _ in range(5):
            controller.record(
                seconds=0.001, rounds=1, fetched_positions=64,
                stop_position=1, k=1,
            )
        assert controller.width == 1
        controller = BlockWidthController(initial=16, patience=1)
        for _ in range(10):
            controller.record(
                seconds=0.001, rounds=8, fetched_positions=128,
                stop_position=128, k=64,
            )
        assert controller.width == 16

    def test_histogram_counts_the_width_each_record_ran_at(self):
        controller = BlockWidthController(initial=1, patience=1)
        controller.record(
            seconds=0.001, rounds=2, fetched_positions=2,
            stop_position=2, k=2,
        )
        controller.record(
            seconds=0.001, rounds=1, fetched_positions=2,
            stop_position=4, k=2,
        )
        assert controller.width_histogram[1] == 1
        assert controller.width_histogram[2] == 1


class TestWidthProbe:
    def test_tracks_last_total_and_calls(self):
        controller = BlockWidthController(initial=4)
        probe = WidthProbe(controller)
        assert probe() == 4
        assert probe() == 4
        assert (probe.last, probe.total, probe.calls) == (4, 8, 2)

    def test_follows_the_controller_live(self):
        controller = BlockWidthController(initial=2, patience=1)
        probe = WidthProbe(controller)
        assert probe() == 2
        controller.record(
            seconds=0.001, rounds=2, fetched_positions=4,
            stop_position=4, k=4,
        )
        assert probe() == 4
        assert probe.last == 4


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


class TestAdaptiveState:
    def test_from_policy_seeds_controllers_at_policy_width(self):
        state = AdaptiveState.from_policy(
            ServicePolicy(adaptive=True, block_width=8)
        )
        assert state.controller_for("network-batch").width == 8

    def test_off_lattice_policy_width_falls_back_to_one(self):
        state = AdaptiveState.from_policy(
            ServicePolicy(adaptive=True, block_width=5)
        )
        assert state.controller_for("network-batch").width == 1

    def test_signature_scopes_controllers_independently(self):
        state = AdaptiveState.from_policy(ServicePolicy(adaptive=True))
        narrow = state.controller_for("network-batch", ("sum", 1))
        deep = state.controller_for("network-batch", ("sum", 16))
        assert narrow is not deep
        assert state.controller_for("network-batch", ("sum", 1)) is narrow

    def test_width_histogram_merges_across_controllers(self):
        state = AdaptiveState.from_policy(ServicePolicy(adaptive=True))
        for signature in (("sum", 1), ("sum", 16)):
            state.controller_for("network-batch", signature).record(
                seconds=0.001, rounds=1, fetched_positions=1,
                stop_position=1, k=1,
            )
        assert state.width_histogram() == {1: 2}

    def test_lattice_is_sorted_and_starts_at_one(self):
        assert WIDTH_LATTICE[0] == 1
        assert list(WIDTH_LATTICE) == sorted(WIDTH_LATTICE)
