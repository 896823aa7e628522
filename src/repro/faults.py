"""Deterministic fault injection for the RDMA fabric and remote memory.

Canvas's evaluation assumes a healthy fabric; real disaggregated-memory
deployments do not get one.  This module gives the simulator a scripted,
*seeded* fault model so degraded-fabric behaviour is reproducible: every
schedule below is a pure function of ``(FaultConfig, seed)``, so two runs
with the same seed and plan produce bit-identical digests, and a plan
with every knob at zero is bit-identical to running with no plan at all.

Three fault classes are injected:

* **Per-request verbs faults** — silent wire drops (the completion never
  arrives; detected by the NIC's retransmission timeout) and completion
  errors (an error CQE arrives after the normal propagation delay).  The
  NIC retries both with exponential backoff up to a retry budget, then
  surfaces an error CQE to the kernel (see ``rdma/nic.py``).
* **Link-level windows** — full link flaps (the dispatch loop stalls
  until the link returns) and bandwidth-degradation windows (transfers
  serialize at a fraction of nominal bandwidth).
* **Remote-server episodes** — slowdown windows that add latency to
  every completion and multiply RDMA buffer-registration cost in
  ``core/remote_memory.py``.

Window placement is evenly spaced across ``window_horizon_us`` with
seeded jitter, or supplied explicitly via the ``*_windows`` tuples (unit
tests script exact instants that way).  Per-request verdicts come from a
dedicated numpy stream drawn in NIC dispatch order — itself
deterministic — or from an explicit ``roll_script`` prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.rdma.message import RdmaOp, RdmaRequest
from repro.sim.rng import derive_seed

__all__ = [
    "FAULT_OK",
    "FAULT_DROP",
    "FAULT_ERROR",
    "FaultConfig",
    "FaultPlan",
    "SCENARIOS",
    "RACK_SCENARIOS",
    "scenario_config",
    "rack_scenario_config",
    "make_plan",
]

#: Verdicts returned by :meth:`FaultPlan.roll` for one served request.
FAULT_OK, FAULT_DROP, FAULT_ERROR = 0, 1, 2


@dataclass(frozen=True)
class FaultConfig:
    """Every knob of one fault scenario (all rates default to zero).

    Frozen so a config can sit inside an ``ExperimentConfig`` and feed
    the result cache's repr-based job key without aliasing surprises.
    """

    #: Root seed for the plan's RNG streams; ``None`` derives one from
    #: the experiment seed so co-run digests stay seed-stable.
    fault_seed: Optional[int] = None

    # -- per-request verb faults ------------------------------------------
    #: Probability a served transfer is silently lost on the wire.
    drop_prob: float = 0.0
    #: Probability a served transfer completes with an error CQE.
    completion_error_prob: float = 0.0
    #: Scope the verb faults to one direction (reads = swap-ins).
    read_faults: bool = True
    write_faults: bool = True
    #: Explicit verdict prefix (FAULT_* ints) consumed in dispatch order
    #: before the probabilistic rolls take over; unit tests script exact
    #: drop-then-succeed sequences with it.
    roll_script: Tuple[int, ...] = ()

    # -- RC-style retransmission ------------------------------------------
    #: First retransmission timeout; doubles (``retransmit_backoff``)
    #: per attempt up to ``retransmit_cap_us``.
    retransmit_timeout_us: float = 150.0
    retransmit_backoff: float = 2.0
    retransmit_cap_us: float = 5_000.0
    #: An error CQE is detected at completion time (not by RTO), so its
    #: retry waits only this fraction of the current RTO.
    error_retry_scale: float = 0.25
    #: Retransmissions per request before the NIC gives up and delivers
    #: an error CQE to the kernel.
    transport_retry_limit: int = 6

    # -- link flaps --------------------------------------------------------
    n_flaps: int = 0
    flap_down_us: float = 2_000.0
    #: Explicit (start_us, duration_us) pairs; overrides ``n_flaps``.
    flap_windows: Tuple[Tuple[float, float], ...] = ()

    # -- bandwidth degradation windows ------------------------------------
    n_degrade_windows: int = 0
    degrade_factor: float = 0.5
    degrade_duration_us: float = 50_000.0
    #: Explicit (start_us, duration_us, factor) triples.
    degrade_windows: Tuple[Tuple[float, float, float], ...] = ()

    # -- remote-memory-server slowdown episodes ---------------------------
    n_server_slowdowns: int = 0
    #: Extra per-completion latency while a server episode is active.
    server_delay_us: float = 25.0
    server_slowdown_duration_us: float = 50_000.0
    #: RDMA buffer-registration cost multiplier during an episode.
    registration_slowdown_factor: float = 4.0
    #: Explicit (start_us, duration_us) pairs.
    server_windows: Tuple[Tuple[float, float], ...] = ()

    # -- rack episodes (multi-server fabric; see repro.cluster) -----------
    #: Explicit (server_id, at_us) memory-server failures.  Always
    #: scripted — killing a *specific* server at a *specific* instant is
    #: what the chaos suite needs, and there is no meaningful way to
    #: auto-place a death without knowing the rack size.
    server_deaths: Tuple[Tuple[int, float], ...] = ()
    #: Explicit (server_id, at_us) drain episodes (planned removal via
    #: background migration instead of failure).
    server_drains: Tuple[Tuple[int, float], ...] = ()

    #: Horizon over which auto-placed windows are spread.
    window_horizon_us: float = 1_000_000.0

    @property
    def any_faults(self) -> bool:
        return bool(
            self.drop_prob > 0.0
            or self.completion_error_prob > 0.0
            or self.roll_script
            or self.n_flaps > 0
            or self.flap_windows
            or self.n_degrade_windows > 0
            or self.degrade_windows
            or self.n_server_slowdowns > 0
            or self.server_windows
            or self.server_deaths
            or self.server_drains
        )


def _by_start(windows: Tuple[tuple, ...]) -> Tuple[tuple, ...]:
    return tuple(sorted(windows, key=lambda window: window[0]))


class FaultPlan:
    """A fully materialized fault schedule: pure function of (config, seed)."""

    def __init__(self, config: FaultConfig, seed: int = 0):
        self.config = config
        self.seed = (
            config.fault_seed
            if config.fault_seed is not None
            else derive_seed(seed, "faults")
        )
        window_rng = np.random.default_rng(derive_seed(self.seed, "windows"))
        # Windows are placed in a fixed draw order (flaps, degradation,
        # server) so adding one class never perturbs another's placement
        # ... within a plan; across plans the stream is seed-derived.
        self.flap_windows = self._place(
            window_rng,
            config.flap_windows,
            config.n_flaps,
            config.flap_down_us,
            config.window_horizon_us,
        )
        if config.degrade_windows:
            self.degrade_windows = tuple(
                (start, start + duration, factor)
                for start, duration, factor in config.degrade_windows
            )
        else:
            self.degrade_windows = tuple(
                (start, end, config.degrade_factor)
                for start, end in self._place(
                    window_rng,
                    (),
                    config.n_degrade_windows,
                    config.degrade_duration_us,
                    config.window_horizon_us,
                )
            )
        self.server_windows = self._place(
            window_rng,
            config.server_windows,
            config.n_server_slowdowns,
            config.server_slowdown_duration_us,
            config.window_horizon_us,
        )
        # The window queries scan in start order and stop at the first
        # window starting after the query time, so explicit windows
        # given out of order are sorted here (placed ones already are).
        self.flap_windows = _by_start(self.flap_windows)
        self.degrade_windows = _by_start(self.degrade_windows)
        self.server_windows = _by_start(self.server_windows)
        # Rack episodes are always scripted, so they pass through
        # verbatim and never touch the window RNG (adding a death to a
        # plan cannot perturb any other fault class's placement).
        self.server_deaths = config.server_deaths
        self.server_drains = config.server_drains
        self._roll_rng = np.random.default_rng(derive_seed(self.seed, "rolls"))
        self._p_drop = config.drop_prob
        self._p_total = config.drop_prob + config.completion_error_prob
        self._script = list(config.roll_script)
        self._script_next = 0
        #: Verdict tallies, mostly for tests asserting the plan fired.
        self.rolls = 0
        self.verdicts: Dict[int, int] = {FAULT_DROP: 0, FAULT_ERROR: 0}

    @staticmethod
    def _place(
        rng: np.random.Generator,
        explicit: Tuple[Tuple[float, float], ...],
        count: int,
        duration_us: float,
        horizon_us: float,
    ) -> Tuple[Tuple[float, float], ...]:
        """(start, end) windows: explicit, or jittered-even placement."""
        if explicit:
            return tuple((start, start + dur) for start, dur in explicit)
        if count <= 0:
            return ()
        spacing = horizon_us / (count + 1)
        windows: List[Tuple[float, float]] = []
        for index in range(count):
            jitter = (rng.random() - 0.5) * 0.5 * spacing
            start = spacing * (index + 1) + jitter
            windows.append((start, start + duration_us))
        return tuple(windows)

    # -- per-request verdicts ---------------------------------------------

    def roll(self, request: RdmaRequest) -> int:
        """Verdict for one served transfer (drawn in dispatch order)."""
        if request.op is RdmaOp.READ:
            if not self.config.read_faults:
                return FAULT_OK
        elif not self.config.write_faults:
            return FAULT_OK
        if self._script_next < len(self._script):
            verdict = self._script[self._script_next]
            self._script_next += 1
        elif self._p_total > 0.0:
            draw = self._roll_rng.random()
            if draw < self._p_drop:
                verdict = FAULT_DROP
            elif draw < self._p_total:
                verdict = FAULT_ERROR
            else:
                verdict = FAULT_OK
        else:
            return FAULT_OK
        self.rolls += 1
        if verdict != FAULT_OK:
            self.verdicts[verdict] += 1
        return verdict

    def rto_us(self, attempt: int) -> float:
        """Retransmission timeout for the ``attempt``-th retry (1-based)."""
        cfg = self.config
        timeout = cfg.retransmit_timeout_us * cfg.retransmit_backoff ** (attempt - 1)
        return min(timeout, cfg.retransmit_cap_us)

    # -- window queries ----------------------------------------------------

    def link_down_until(self, now_us: float) -> float:
        """End of the flap covering ``now_us``, or ``now_us`` if link is up."""
        for start, end in self.flap_windows:
            if start <= now_us < end:
                return end
            if start > now_us:
                break
        return now_us

    def bandwidth_scale(self, now_us: float) -> float:
        for start, end, factor in self.degrade_windows:
            if start <= now_us < end:
                return factor
            if start > now_us:
                break
        return 1.0

    def server_delay_us(self, now_us: float) -> float:
        for start, end in self.server_windows:
            if start <= now_us < end:
                return self.config.server_delay_us
            if start > now_us:
                break
        return 0.0

    def registration_slowdown(self, now_us: float) -> float:
        for start, end in self.server_windows:
            if start <= now_us < end:
                return self.config.registration_slowdown_factor
            if start > now_us:
                break
        return 1.0

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"FaultPlan(seed={self.seed}, flaps={len(self.flap_windows)}, "
            f"degrade={len(self.degrade_windows)}, "
            f"server={len(self.server_windows)}, "
            f"p_drop={self._p_drop}, p_total={self._p_total})"
        )


#: Named scenarios for ``canvas-sim chaos`` and the chaos test suite.
SCENARIOS: Dict[str, FaultConfig] = {
    "drops": FaultConfig(drop_prob=0.01),
    "errors": FaultConfig(completion_error_prob=0.02),
    "flaky-link": FaultConfig(drop_prob=0.01, n_flaps=2),
    #: The acceptance scenario: 1% wire drops plus one link flap.
    "degraded": FaultConfig(drop_prob=0.01, n_flaps=1),
    "brownout": FaultConfig(n_degrade_windows=2, degrade_factor=0.35),
    "server-slow": FaultConfig(
        n_server_slowdowns=2, registration_slowdown_factor=6.0
    ),
    "chaos": FaultConfig(
        drop_prob=0.02,
        completion_error_prob=0.01,
        n_flaps=2,
        n_degrade_windows=1,
        n_server_slowdowns=1,
    ),
}


#: Rack-scale scenarios (``canvas-sim rack`` and the rack chaos tests).
#: Kept separate from :data:`SCENARIOS` — these only make sense with a
#: multi-server :class:`repro.cluster.ClusterConfig` attached, and the
#: chaos suite iterates "all SCENARIOS" against the single-endpoint
#: fabric.  Server ids are modulo'd by callers against the rack size.
RACK_SCENARIOS: Dict[str, FaultConfig] = {
    #: One server dies mid-run; survivors absorb its pages.  (Scaled-down
    #: workloads complete in milliseconds of simulated time, so episodes
    #: land early enough to fire on every scale.)
    "server-death": FaultConfig(server_deaths=((0, 200.0),)),
    #: Planned removal: one server drains via background migration.
    "server-drain": FaultConfig(server_drains=((0, 200.0),)),
    #: Two servers die back to back (survivors re-home twice).
    "double-failure": FaultConfig(server_deaths=((0, 200.0), (1, 400.0))),
    #: A drain racing a flaky fabric: migration legs see verb faults.
    "drain-storm": FaultConfig(
        drop_prob=0.01,
        completion_error_prob=0.01,
        server_drains=((0, 150.0),),
    ),
}


def scenario_config(name: str) -> FaultConfig:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown fault scenario {name!r}; known: {sorted(SCENARIOS)}"
        ) from None


def rack_scenario_config(name: str) -> FaultConfig:
    try:
        return RACK_SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown rack scenario {name!r}; known: {sorted(RACK_SCENARIOS)}"
        ) from None


def make_plan(config: Optional[FaultConfig], seed: int = 0) -> Optional[FaultPlan]:
    """The harness entry point: ``None`` config means no plan at all."""
    if config is None:
        return None
    return FaultPlan(config, seed)
