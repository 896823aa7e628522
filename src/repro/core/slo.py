"""SLO feedback: per-cgroup p99 demand-fault latency drives adaptation.

Canvas already has the two mechanisms an SLO loop needs — the
two-dimensional RDMA scheduler's per-cgroup WFQ weights (§4) and the
adaptive allocator's reservation aggressiveness (§5.1) — but nothing
closes the loop.  This controller does, in the spirit of the paper's
"performance isolation as a first-class goal": every period it reads
each live cgroup's p99 *demand* swap-in latency from telemetry and

* **scheduler lever** — scales the cgroup's WFQ weight up while it
  breaches its latency target (more of the shared wire) and decays it
  back toward the registered base weight while compliant, bounded to
  ``[base/max_boost, base*max_boost]`` so one tenant can never starve
  the rest;
* **allocator lever** — while breaching, drops the cgroup's adaptive
  hot-page threshold one step (reserve entries for more of the working
  set, shaving entry allocation off the eviction path that backs up
  behind demand faults), restoring it on compliance.

Both levers act on *live* state only: a cgroup that unregisters simply
disappears from the next control round (its controller state is dropped
with it), so the loop is churn-safe by construction.  The controller
reads telemetry and writes policy knobs — it never touches the engine
schedule directly — and a controller over a system whose latencies stay
under target applies no adjustment at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, Optional

from repro.rdma.message import RequestKind

__all__ = ["SloConfig", "SloAppState", "SloStats", "SloController"]


@dataclass(frozen=True)
class SloConfig:
    """Control-loop knobs.  Frozen: sits inside an ``ExperimentConfig``."""

    #: p99 demand swap-in latency target per cgroup.
    target_p99_us: float = 400.0
    #: Control period.
    period_us: float = 2_000.0
    #: Multiplicative weight step per breaching period.
    gain: float = 0.25
    #: Decay rate back toward the base weight while compliant.
    decay: float = 0.5
    #: Weight boost bound (relative to the registered base weight).
    max_boost: float = 8.0
    #: New demand samples required in a period before acting on it
    #: (quantiles over a handful of faults are noise).
    min_samples: int = 16
    #: Adaptive-allocator lever: hot-threshold multiplier while
    #: breaching (``<1`` reserves more aggressively).
    hot_threshold_scale: float = 0.5

    def __post_init__(self):
        if self.target_p99_us <= 0:
            raise ValueError("target_p99_us must be positive")
        if self.period_us <= 0:
            raise ValueError("period_us must be positive")
        if self.max_boost < 1.0:
            raise ValueError("max_boost must be >= 1.0")


@dataclass
class SloAppState:
    """Per-cgroup controller memory (dropped when the cgroup departs)."""

    base_weight: float
    boost: float = 1.0
    #: Histogram count at the last control round (windowing).
    last_count: int = 0
    base_hot_threshold: Optional[float] = None
    breaching: bool = False
    last_p99_us: float = 0.0


@dataclass
class SloStats:
    rounds: int = 0
    breaches: int = 0
    boosts_applied: int = 0
    decays_applied: int = 0
    #: Most recent per-app p99 observations (for reporting/tests).
    last_p99: Dict[str, float] = field(default_factory=dict)


class SloController:
    """Periodic feedback from demand-latency telemetry into policy knobs."""

    def __init__(self, engine, system, telemetry, config: Optional[SloConfig] = None):
        self.engine = engine
        self.system = system
        self.telemetry = telemetry
        self.config = config if config is not None else SloConfig()
        self.stats = SloStats()
        self._states: Dict[str, SloAppState] = {}
        #: Canvas exposes the 2-D scheduler; baselines have no weight
        #: lever, so the controller degrades to measurement-only there.
        self._scheduler = getattr(system, "scheduler", None)
        engine.spawn(self._control_loop(), name="slo.controller")

    # -- levers --------------------------------------------------------------

    def _state_for(self, name: str) -> SloAppState:
        state = self._states.get(name)
        if state is None:
            base = 1.0
            if self._scheduler is not None:
                base = self._scheduler.weight_of(name) or 1.0
            state = SloAppState(base_weight=base)
            self._states[name] = state
        return state

    def _adaptive_for(self, name: str):
        canvas_state = getattr(self.system, "_state", {}).get(name)
        return getattr(canvas_state, "adaptive", None)

    def _apply_weight(self, name: str, state: SloAppState) -> None:
        if self._scheduler is not None:
            self._scheduler.set_weight(name, state.base_weight * state.boost)

    def _apply_allocator(self, name: str, state: SloAppState) -> None:
        adaptive = self._adaptive_for(name)
        if adaptive is None:
            return
        if state.base_hot_threshold is None:
            state.base_hot_threshold = adaptive.hot_threshold
        if state.breaching:
            adaptive.hot_threshold = (
                state.base_hot_threshold * self.config.hot_threshold_scale
            )
        else:
            adaptive.hot_threshold = state.base_hot_threshold

    # -- control loop --------------------------------------------------------

    def _control_round(self) -> None:
        config = self.config
        self.stats.rounds += 1
        live = list(self.system.apps)
        # Departed cgroups: drop their controller memory.
        for name in [n for n in self._states if n not in self.system.apps]:
            del self._states[name]
        for name in live:
            hist = self.telemetry.latency_hist(name, RequestKind.DEMAND)
            state = self._state_for(name)
            fresh = hist.count - state.last_count
            if fresh < config.min_samples:
                # Not enough new signal; decay any boost so an idle (or
                # finished-faulting) cgroup returns the wire share.
                if state.boost > 1.0:
                    state.boost = max(
                        1.0, 1.0 + (state.boost - 1.0) * (1.0 - config.decay)
                    )
                    state.breaching = False
                    self._apply_weight(name, state)
                    self._apply_allocator(name, state)
                    self.stats.decays_applied += 1
                continue
            state.last_count = hist.count
            p99 = hist.percentile(99.0)
            state.last_p99_us = p99
            self.stats.last_p99[name] = p99
            if p99 > config.target_p99_us:
                state.breaching = True
                state.boost = min(config.max_boost, state.boost * (1.0 + config.gain))
                self.stats.breaches += 1
                self.stats.boosts_applied += 1
            else:
                state.breaching = False
                if state.boost > 1.0:
                    state.boost = max(
                        1.0, 1.0 + (state.boost - 1.0) * (1.0 - config.decay)
                    )
                    self.stats.decays_applied += 1
            self._apply_weight(name, state)
            self._apply_allocator(name, state)

    def _control_loop(self) -> Generator:
        while True:
            yield self.engine.sleep(self.config.period_us)
            self._control_round()
