"""Runtime feedback for the planner: the service's control loop.

The planner (:mod:`repro.service.planner`) predicts costs from *static*
list statistics.  This module closes the loop with three controllers
fed from completed queries:

* :class:`PlanFeedback` — per (algorithm, transport, workload-signature)
  *arms* accumulate EWMA-smoothed observed seconds.  A global
  seconds-per-cost-unit rate (observed seconds over the cost the model
  predicted for the same run) converts them back into cost units, and
  :meth:`repro.types.CostModel.calibrate` blends them with the static
  predictions.  Selection is guarded: an arm participates only after
  ``min_samples`` observations, a challenger must beat the incumbent by
  the hysteresis ``tolerance``, and while any candidate arm is immature
  the least-sampled one is explored (safe — every candidate algorithm
  is exact, so answers never depend on the choice).  The planner reads
  it on every plan it makes, that is on every cache miss.
* :class:`BlockWidthController` — AIMD over the width lattice
  ``{1, 2, 4, 8, 16}``, one controller per transport, tuned from
  observed round latencies exactly the way
  :class:`repro.service.service.AdaptiveConcurrency` tunes the
  ``gather_many`` window.  A deterministic *overshoot guard* (positions
  fetched far past the stop position) steps the width down even when
  wall-clock noise hides the waste.
* :class:`DriftDetector` — total-variation divergence between
  consecutive windows of bucketed query-spec keys.  A divergence above
  the threshold declares a drift epoch: the service bumps
  ``drift_epochs``, drops every signature's incumbent arm, and re-tunes
  shard count and cache overfetch for the new regime.

Everything here is transport- and algorithm-agnostic bookkeeping; the
wiring lives in :class:`repro.service.service.QueryService`.
"""

from __future__ import annotations

import threading
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from repro.exec.keys import scoring_key
from repro.scoring import ScoringFunction
from repro.types import CostModel

#: The block widths the adaptive controller moves across.  Matches the
#: widths the round-plan engine's ``*-block`` planners are benchmarked
#: at; width 1 is the degenerate single-entry block.
WIDTH_LATTICE: tuple[int, ...] = (1, 2, 4, 8, 16)


def plan_signature(scoring: ScoringFunction, k_fetch: int) -> tuple:
    """The workload-signature arms are keyed by.

    Power-of-two ``k`` buckets mirror the planner's overfetch buckets,
    so every ``k`` served from the same cache bucket feeds the same arm.
    """
    bucket = 1 << (max(1, k_fetch) - 1).bit_length()
    return (scoring_key(scoring), bucket)


@dataclass
class ArmStats:
    """EWMA state of one (algorithm, transport, signature) arm."""

    samples: int = 0
    ewma_seconds: float = 0.0
    ewma_messages: float = 0.0
    ewma_rounds: float = 0.0

    def observe(
        self,
        *,
        seconds: float,
        messages: float,
        rounds: float,
        smoothing: float,
    ) -> None:
        if self.samples == 0:
            self.ewma_seconds = seconds
            self.ewma_messages = messages
            self.ewma_rounds = rounds
        else:
            keep = 1.0 - smoothing
            self.ewma_seconds = keep * self.ewma_seconds + smoothing * seconds
            self.ewma_messages = keep * self.ewma_messages + smoothing * messages
            self.ewma_rounds = keep * self.ewma_rounds + smoothing * rounds
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

    def _arm(self, algorithm: str, transport: str, signature: tuple) -> ArmStats:
        key = (algorithm, transport, signature)
        arm = self._arms.get(key)
        if arm is None:
            arm = ArmStats()
            self._arms[key] = arm
        return arm

    def record(
        self,
        *,
        algorithm: str,
        transport: str,
        signature: tuple,
        predicted_cost: float,
        seconds: float,
        rounds: int = 0,
        messages: int = 0,
    ) -> None:
        """Fold one completed execution into its arm."""
        with self._lock:
            arm = self._arm(algorithm, transport, signature)
            arm.observe(
                seconds=max(0.0, seconds),
                messages=float(messages),
                rounds=float(rounds),
                smoothing=self.smoothing,
            )
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

    def samples(self, algorithm: str, transport: str, signature: tuple) -> int:
        """Observation count of one arm (0 when never recorded)."""
        arm = self._arms.get((algorithm, transport, signature))
        return arm.samples if arm else 0

    def total_samples(self, algorithm: str, signature: tuple) -> int:
        """Observation count across transports for one algorithm arm."""
        return sum(
            arm.samples
            for (name, _transport, sig), arm in self._arms.items()
            if name == algorithm and sig == signature
        )

    def observed_cost(self, algorithm: str, signature: tuple) -> float | None:
        """EWMA observed cost of an algorithm in cost-model units.

        Aggregated across transports by taking the most-sampled mature
        arm — in practice an algorithm runs on one transport per
        signature, so this is simply "the arm we have evidence for".
        Returns ``None`` while no arm is mature or the global rate is
        still unseeded.
        """
        if self._rate <= 0:
            return None
        best: ArmStats | None = None
        for (name, _transport, sig), arm in self._arms.items():
            if name != algorithm or sig != signature:
                continue
            if arm.samples < self.min_samples:
                continue
            if best is None or arm.samples > best.samples:
                best = arm
        if best is None:
            return None
        return best.ewma_seconds / self._rate

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
                if self.total_samples(name, signature) < self.min_samples
            ]
            if not immature:
                return None
            return min(
                immature,
                key=lambda name: (self.total_samples(name, signature), name),
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
        """How many (algorithm, transport, signature) arms hold samples."""
        with self._lock:
            return len(self._arms)

    def invalidate(self) -> None:
        """Forget every signature's incumbent (drift epoch)."""
        with self._lock:
            self._incumbents.clear()


class BlockWidthController:
    """AIMD block-width tuning from observed round latencies.

    The same control shape as ``AdaptiveConcurrency``, with patience in
    both directions: ``patience`` consecutive *bad* records (a round
    slower than ``threshold`` times the EWMA baseline, or a provable
    overshoot) step the width down the lattice, and ``patience``
    consecutive healthy records step it up — the latter only when the
    query actually ran deeper than the current width (``stop_position >
    width``), i.e. a wider block would genuinely have saved a round.
    Symmetric patience is what keeps a *mixed* stationary stream (one
    narrow query between two deep ones) from oscillating.  The
    *overshoot guard* is deterministic: fetching more than
    ``overshoot_limit`` times the positions the algorithm needed means
    the width is wasting accesses regardless of what the clock says.
    """

    def __init__(
        self,
        *,
        initial: int = 1,
        threshold: float = 2.0,
        overshoot_limit: float = 3.0,
        patience: int = 2,
        smoothing: float = 0.2,
    ) -> None:
        if initial not in WIDTH_LATTICE:
            raise ValueError(
                f"initial width {initial} not on the lattice {WIDTH_LATTICE}"
            )
        if threshold <= 1.0:
            raise ValueError(f"threshold must be > 1, got {threshold}")
        if overshoot_limit <= 1.0:
            raise ValueError(
                f"overshoot_limit must be > 1, got {overshoot_limit}"
            )
        if patience < 1:
            raise ValueError(f"patience must be >= 1, got {patience}")
        if not 0.0 < smoothing <= 1.0:
            raise ValueError(f"smoothing must be in (0, 1], got {smoothing}")
        self._index = WIDTH_LATTICE.index(initial)
        self._threshold = threshold
        self._overshoot_limit = overshoot_limit
        self._patience = patience
        self._smoothing = smoothing
        self._baseline = 0.0
        self._seeded = False
        self._streak = 0
        self._bad_streak = 0
        self.adjustments = 0
        self.width_histogram: Counter[int] = Counter()

    @property
    def width(self) -> int:
        """The width the next networked round should use."""
        return WIDTH_LATTICE[self._index]

    def provider(self) -> Callable[[], int]:
        """A zero-argument width provider for the round-plan drivers."""
        return lambda: self.width

    def _step_down(self) -> None:
        if self._index > 0:
            self._index -= 1
            self.adjustments += 1
        self._streak = 0
        self._bad_streak = 0

    def _step_up(self) -> None:
        if self._index + 1 < len(WIDTH_LATTICE):
            self._index += 1
            self.adjustments += 1
        self._streak = 0
        self._bad_streak = 0

    def record(
        self,
        *,
        seconds: float,
        rounds: int,
        fetched_positions: int,
        stop_position: int,
        k: int = 1,
    ) -> None:
        """Fold one completed networked execution into the controller.

        The overshoot denominator is a *provable lower bound* on the
        positions the query truly needed: at least ``k`` (a top-k needs
        k positions per list), and more than ``stop_position - width``
        (the rounds before the last were insufficient).  The raw stop
        position itself is useless here — block execution quantizes it
        up to the block boundary, so ``fetched / stop`` is ~1 at every
        width and would never see a too-wide block.
        """
        self.width_histogram[self.width] += 1
        per_round = seconds / max(1, rounds)
        need = max(1, k, stop_position - self.width + 1)
        overshoot = fetched_positions / need
        slow = (
            self._seeded
            and self._baseline > 0
            and per_round > self._threshold * self._baseline
        )
        if overshoot > self._overshoot_limit or slow:
            # Patience applies in both directions: a single narrow query
            # inside a mixed stream must not knock the width down — only
            # a *run* of overshooting queries (a phase) should.
            self._streak = 0
            self._bad_streak += 1
            if self._bad_streak >= self._patience:
                self._step_down()
        else:
            self._bad_streak = 0
            self._streak += 1
            # A wider block only reduces rounds when the current width
            # cannot cover the stop depth in a single round.
            if self._streak >= self._patience and stop_position > self.width:
                self._step_up()
        if not self._seeded:
            self._baseline = per_round
            self._seeded = True
        else:
            self._baseline = (
                (1.0 - self._smoothing) * self._baseline
                + self._smoothing * per_round
            )


class WidthProbe:
    """A width provider that remembers what it handed out.

    Passed as ``block_width`` to the distributed drivers: each round
    resolves the controller's *current* width through ``__call__``, and
    after the run the service reads back the last width used (stamped
    into ``extras["block_width"]`` /
    ``ServiceStats.effective_block_width``) and the total positions
    fetched (the overshoot guard's numerator).
    """

    __slots__ = ("_controller", "last", "total", "calls")

    def __init__(self, controller: BlockWidthController) -> None:
        self._controller = controller
        self.last = controller.width
        self.total = 0
        self.calls = 0

    def __call__(self) -> int:
        width = self._controller.width
        self.last = width
        self.total += width
        self.calls += 1
        return width


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
    shared by the sync and async submission paths, hence the lock
    around the width controllers map.
    """

    feedback: PlanFeedback
    drift: DriftDetector
    #: keyed by transport, or by ``(transport, signature)`` when the
    #: service scopes widths per workload class
    controllers: dict = field(default_factory=dict)
    overfetch_override: bool | None = None
    _lock: threading.Lock = field(default_factory=threading.Lock)

    @classmethod
    def from_policy(cls, policy) -> "AdaptiveState":
        """Build the controllers from a ``ServicePolicy``'s knobs."""
        initial = (
            policy.block_width
            if policy.block_width in WIDTH_LATTICE
            else 1
        )
        state = cls(
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
        state._initial_width = initial  # type: ignore[attr-defined]
        return state

    def controller_for(
        self, transport: str, signature: tuple | None = None
    ) -> BlockWidthController:
        """The (lazily created) width controller of one transport.

        With a ``signature`` the controller is further scoped to that
        workload class (the planner's ``plan_signature``): queries of
        different depths tune their own widths independently, so an
        adversarial deep query inside a narrow phase widens *its own*
        block without dragging the narrow queries' width up — and each
        class's stream of records is homogeneous, which is what lets
        the patience guards converge instead of churn.
        """
        key = (transport, signature) if signature is not None else transport
        with self._lock:
            controller = self.controllers.get(key)
            if controller is None:
                controller = BlockWidthController(
                    initial=getattr(self, "_initial_width", 1)
                )
                self.controllers[key] = controller
            return controller

    def width_histogram(self) -> dict[int, int]:
        """Merged width usage across transports (for reports)."""
        merged: Counter[int] = Counter()
        with self._lock:
            for controller in self.controllers.values():
                merged.update(controller.width_histogram)
        return {width: merged[width] for width in sorted(merged)}
