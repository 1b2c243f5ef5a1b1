"""Runtime feedback for the planner: the service's control loop.

The planner (:mod:`repro.service.planner`) predicts costs from *static*
list statistics.  This module closes the loop with two controllers fed
from completed queries:

* :class:`PlanFeedback` — per (algorithm, workload-signature) *arms*
  accumulate EWMA-smoothed observed seconds.  A global
  seconds-per-cost-unit rate (observed seconds over the cost the model
  predicted for the same run) converts them back into cost units, and
  :meth:`repro.types.CostModel.calibrate` blends them with the static
  predictions.  Selection is guarded: an arm participates only after
  ``min_samples`` observations, a challenger must beat the incumbent by
  the hysteresis ``tolerance``, and while any candidate arm is immature
  the least-sampled one is explored (safe — every candidate algorithm
  is exact, so answers never depend on the choice).  The planner reads
  it on every plan it makes, that is on every cache miss.
* :class:`DriftDetector` — total-variation divergence between
  consecutive windows of bucketed query-spec keys.  A divergence above
  the threshold declares a drift epoch: the service bumps
  ``drift_epochs``, drops every signature's incumbent arm, and re-tunes
  shard count and cache overfetch for the new regime.

Everything here is algorithm-agnostic bookkeeping; the wiring lives in
:class:`repro.service.service.QueryService`, which runs every query on
its shard pool and feeds each execution's time back here.
"""

from __future__ import annotations

import threading
from collections import Counter, deque
from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.exec.keys import scoring_key
from repro.scoring import ScoringFunction
from repro.types import CostModel


def plan_signature(scoring: ScoringFunction, k_fetch: int) -> tuple:
    """The workload-signature arms are keyed by.

    Power-of-two ``k`` buckets mirror the planner's overfetch buckets,
    so every ``k`` served from the same cache bucket feeds the same arm.
    """
    bucket = 1 << (max(1, k_fetch) - 1).bit_length()
    return (scoring_key(scoring), bucket)


@dataclass
class ArmStats:
    """EWMA state of one (algorithm, signature) arm."""

    samples: int = 0
    ewma_seconds: float = 0.0

    def observe(self, *, seconds: float, smoothing: float) -> None:
        if self.samples == 0:
            self.ewma_seconds = seconds
        else:
            self.ewma_seconds = (
                (1.0 - smoothing) * self.ewma_seconds + smoothing * seconds
            )
        self.samples += 1


class PlanFeedback:
    """Observed-cost store + guarded arm selection for the planner.

    New evidence counts from the next plan, that is the next cache
    miss, on; :meth:`select`'s hysteresis keeps a stationary workload
    on its incumbent.
    """

    def __init__(
        self,
        *,
        smoothing: float = 0.25,
        min_samples: int = 5,
        tolerance: float = 0.25,
        blend: float = 0.5,
    ) -> None:
        if not 0.0 < smoothing <= 1.0:
            raise ValueError(f"smoothing must be in (0, 1], got {smoothing}")
        if min_samples < 1:
            raise ValueError(f"min_samples must be >= 1, got {min_samples}")
        if tolerance < 0.0:
            raise ValueError(f"tolerance must be >= 0, got {tolerance}")
        if not 0.0 <= blend <= 1.0:
            raise ValueError(f"blend must be in [0, 1], got {blend}")
        self.smoothing = smoothing
        self.min_samples = min_samples
        self.tolerance = tolerance
        self.blend = blend
        self.replans = 0
        self._arms: dict[tuple, ArmStats] = {}
        self._incumbents: dict[tuple, str] = {}
        # Global seconds-per-cost-unit rate: converts arm seconds back
        # into the cost model's units so calibrate() compares like units.
        self._rate = 0.0
        self._rate_samples = 0
        self._lock = threading.Lock()

    def record(
        self,
        *,
        algorithm: str,
        signature: tuple,
        predicted_cost: float,
        seconds: float,
    ) -> None:
        """Fold one completed execution into its arm.

        The seconds-per-cost-unit rate learns only from runs the cost
        model priced: a forced algorithm it does not price (``qc``, say)
        records ``predicted_cost=0`` and feeds its arm alone.
        """
        with self._lock:
            arm = self._arms.get((algorithm, signature))
            if arm is None:
                arm = self._arms[(algorithm, signature)] = ArmStats()
            arm.observe(seconds=max(0.0, seconds), smoothing=self.smoothing)
            if predicted_cost > 0 and seconds > 0:
                rate = seconds / predicted_cost
                if self._rate_samples == 0:
                    self._rate = rate
                else:
                    self._rate = (
                        (1.0 - self.smoothing) * self._rate
                        + self.smoothing * rate
                    )
                self._rate_samples += 1

    def samples(self, algorithm: str, signature: tuple) -> int:
        """Observation count of one arm (0 when never recorded)."""
        arm = self._arms.get((algorithm, signature))
        return arm.samples if arm else 0

    def observed_cost(self, algorithm: str, signature: tuple) -> float | None:
        """EWMA observed cost of an arm in cost-model units.

        ``None`` while the arm is immature or the global rate is still
        unseeded.
        """
        arm = self._arms.get((algorithm, signature))
        if self._rate <= 0 or arm is None or arm.samples < self.min_samples:
            return None
        return arm.ewma_seconds / self._rate

    def calibrated_costs(
        self,
        predicted: Mapping[str, float],
        *,
        signature: tuple,
        model: CostModel,
    ) -> dict[str, float]:
        """Blend static predictions with mature observations per arm."""
        with self._lock:
            calibrated: dict[str, float] = {}
            for name, cost in predicted.items():
                observed = self.observed_cost(name, signature)
                if observed is None:
                    calibrated[name] = cost
                else:
                    calibrated[name] = model.calibrate(
                        cost, observed, blend=self.blend
                    )
            return calibrated

    def explore_candidate(
        self,
        candidates: Iterable[str],
        *,
        signature: tuple,
    ) -> str | None:
        """The least-sampled immature candidate, or ``None`` if all mature.

        Bounded exploration: every candidate arm gets ``min_samples``
        looks, after which selection is purely calibrated-cost driven.
        Safe because every candidate algorithm is exact — the answer is
        bit-identical whichever arm runs.
        """
        with self._lock:
            immature = [
                name
                for name in candidates
                if self.samples(name, signature) < self.min_samples
            ]
            if not immature:
                return None
            return min(
                immature, key=lambda name: (self.samples(name, signature), name)
            )

    def select(
        self,
        candidates: tuple[str, ...],
        calibrated: Mapping[str, float],
        *,
        signature: tuple,
    ) -> tuple[str, bool, str]:
        """Hysteresis-guarded pick among calibrated candidates.

        Returns ``(algorithm, replanned, reason)``.  The incumbent (last
        selection for this signature) is kept unless a challenger's
        calibrated cost undercuts it by more than ``tolerance`` — the
        guard that keeps a stationary workload from flapping between
        near-tied arms.
        """
        with self._lock:
            best = min(candidates, key=lambda name: (calibrated[name], name))
            incumbent = self._incumbents.get(signature)
            if incumbent is None or incumbent not in calibrated:
                self._incumbents[signature] = best
                return best, False, "initial calibrated pick"
            if best != incumbent and calibrated[best] < calibrated[
                incumbent
            ] * (1.0 - self.tolerance):
                self._incumbents[signature] = best
                self.replans += 1
                return (
                    best,
                    True,
                    (
                        f"re-planned from {incumbent}: calibrated cost "
                        f"{calibrated[best]:,.0f} undercuts "
                        f"{calibrated[incumbent]:,.0f} beyond the "
                        f"{self.tolerance:.0%} hysteresis band"
                    ),
                )
            return incumbent, False, "incumbent within hysteresis band"

    @property
    def arm_count(self) -> int:
        """How many (algorithm, signature) arms hold samples."""
        with self._lock:
            return len(self._arms)

    def invalidate(self) -> None:
        """Forget every signature's incumbent (drift epoch)."""
        with self._lock:
            self._incumbents.clear()


def total_variation(a: Mapping, b: Mapping) -> float:
    """Total-variation distance between two count histograms (0..1)."""
    total_a = sum(a.values())
    total_b = sum(b.values())
    if total_a == 0 or total_b == 0:
        return 0.0
    keys = set(a) | set(b)
    return 0.5 * sum(
        abs(a.get(key, 0) / total_a - b.get(key, 0) / total_b) for key in keys
    )


class DriftDetector:
    """Windowed divergence over the bucketed query-spec histogram.

    Query keys (algorithm, power-of-two ``k`` bucket, scoring) stream
    into a current window; when it fills, its histogram is compared to
    the previous full window by total-variation distance.  A distance
    above the threshold is a *drift epoch*: the workload's shape moved
    enough that plans, shard count and cache policy tuned for the old
    shape deserve a fresh look.  Bucketed keys keep stationary
    workloads with many distinct ``k`` values below the threshold.
    """

    def __init__(self, *, window: int = 32, threshold: float = 0.6) -> None:
        if window < 2:
            raise ValueError(f"window must be >= 2, got {window}")
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], got {threshold}")
        self.window = window
        self.threshold = threshold
        self._reference: Counter | None = None
        self._current: Counter = Counter()
        self._count = 0
        self._recent_keys: deque = deque(maxlen=window)
        self.recent_k: deque[int] = deque(maxlen=window)
        self.epochs = 0
        self.last_divergence = 0.0

    @staticmethod
    def bucket(algorithm: str, k: int, scoring: ScoringFunction) -> tuple:
        """The bucketed key one query contributes to the histogram."""
        k_bucket = 1 << (max(1, k) - 1).bit_length()
        return (algorithm, k_bucket, scoring_key(scoring))

    @property
    def distinct_ratio(self) -> float:
        """Distinct keys / window size over the most recent keys."""
        if not self._recent_keys:
            return 0.0
        return len(set(self._recent_keys)) / len(self._recent_keys)

    def observe(self, key: tuple, *, k: int | None = None) -> bool:
        """Stream one query key; ``True`` when a drift epoch fires."""
        self._recent_keys.append(key)
        if k is not None:
            self.recent_k.append(int(k))
        self._current[key] += 1
        self._count += 1
        if self._count < self.window:
            return False
        current, self._current, self._count = self._current, Counter(), 0
        if self._reference is None:
            self._reference = current
            return False
        self.last_divergence = total_variation(self._reference, current)
        self._reference = current
        if self.last_divergence > self.threshold:
            self.epochs += 1
            return True
        return False


@dataclass
class AdaptiveState:
    """Everything the service's adaptive mode owns, bundled.

    Survives planner rebuilds (snapshot refreshes recreate the planner;
    the feedback store persists so calibration is not lost) and is
    shared by the sync and async submission paths.
    """

    feedback: PlanFeedback
    drift: DriftDetector
    overfetch_override: bool | None = None

    @classmethod
    def from_policy(cls, policy) -> "AdaptiveState":
        """Build the controllers from a ``ServicePolicy``'s knobs."""
        return cls(
            feedback=PlanFeedback(
                min_samples=policy.feedback_min_samples,
                tolerance=policy.feedback_tolerance,
                blend=policy.feedback_blend,
            ),
            drift=DriftDetector(
                window=policy.drift_window,
                threshold=policy.drift_threshold,
            ),
        )
