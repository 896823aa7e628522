"""Rack-scale disaggregation: multi-server fabric, placement, re-homing.

The paper's testbed terminates every swap path at one remote-memory
endpoint behind one NIC.  This module gives the simulator the "many
hosts per rack" substrate that story implies (after DRackSim's
multi-memory-node rack model): N memory servers with independent
capacity, bandwidth, and registration cost, all reached through the
host NIC's shared uplink, plus a cluster-level placement layer deciding
which server backs each swap partition's entries.

Topology model
--------------
The host uplink (the existing :class:`~repro.rdma.nic.DirectionalChannel`
pair inside :class:`~repro.rdma.nic.RNIC`) stays the primary serializing
resource.  Each :class:`MemoryServer` adds a second pair of directional
channels representing its own NIC/DRAM bandwidth; a transfer reserves
*both* its server's channel and the uplink, and completes at the later
of the two (the NIC adds the per-server *lag* to the propagation delay).
With one server at scale 1.0 the server channel sees exactly the uplink's
reservation sequence, the lag is exactly ``0.0``, and every completion
timestamp is bit-identical to the single-endpoint model — that is the
``n_servers=1`` oracle the digest suite pins.

Placement policies (pure functions of config + adoption order):

* ``stripe`` — chunks of ``chunk_entries`` round-robin across eligible
  servers (bandwidth aggregation, the default);
* ``locality`` — a whole partition homes on one server (fate sharing is
  contained; the rolling cursor spreads partitions across servers);
* ``capacity-pressure`` — each chunk goes to the least-loaded eligible
  server (ties break on the lowest server id).

Failure model
-------------
``kill_server`` marks a server dead: its pooled free entries are retired
immediately, in-flight verbs against it surface error CQEs (the kernel's
existing error hooks then rebind the page to a live entry), and a sweep
process re-homes every surviving binding — resident pages just drop the
dead binding, swap-cache pages are written to their new home, and pages
whose only copy was on the dead server are re-read from a surviving
replica and written back out.  ``drain_server`` migrates a live server's
bindings away in bounded batches instead.  The migration ledger
reconciles exactly: ``pages_rehomed + migration_aborts ==
pages_lost_from_dead + pages_drained`` (aborts are zero unless a fault
plan defeats the migration retry budget).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Tuple

from repro.obs.trace import (
    RACK_MIGRATE,
    RACK_REHOME,
    RACK_RETIRE,
    RACK_SERVER_DEAD,
    RACK_SERVER_DRAIN,
)
from repro.rdma.message import RdmaOp, RdmaRequest, RequestKind, acquire_request
from repro.rdma.nic import DirectionalChannel, RNIC
from repro.sim.engine import Engine
from repro.swap.entry import SwapEntry
from repro.swap.partition import SwapPartition

__all__ = ["ClusterConfig", "MemoryServer", "RackStats", "Rack", "PLACEMENTS"]

PLACEMENTS = ("stripe", "locality", "capacity-pressure")


@dataclass(frozen=True)
class ClusterConfig:
    """Sizing and policy knobs for one rack of memory servers.

    Frozen for the same reason :class:`~repro.faults.FaultConfig` is: a
    config sits inside an ``ExperimentConfig`` and feeds the result
    cache's repr-based job key.
    """

    n_servers: int = 1
    #: One of :data:`PLACEMENTS`.
    placement: str = "stripe"
    #: Placement granularity: entries are homed in runs of this many.
    chunk_entries: int = 512
    #: Soft per-server cap on homed entries; ``None`` means uncapped.
    #: When every server is at its cap, placement falls back to the
    #: least-loaded eligible server rather than failing.
    server_capacity_entries: Optional[int] = None
    #: Per-server bandwidth multipliers over the uplink bandwidth;
    #: shorter tuples are padded with 1.0 (the homogeneous default).
    server_bandwidth_scale: Tuple[float, ...] = ()
    #: Per-server RDMA buffer-registration cost multipliers (same
    #: padding rule); scales demand-driven growth's registration cost.
    server_registration_scale: Tuple[float, ...] = ()
    #: Background migration: bindings moved per drain round, and the
    #: pause between rounds (also the re-scan period of death sweeps).
    migration_batch: int = 8
    migration_round_us: float = 50.0
    #: Error-CQE reissues per migration leg before the rack gives up.
    migration_retry_limit: int = 16

    def __post_init__(self):
        if self.n_servers <= 0:
            raise ValueError(f"rack needs servers > 0, got {self.n_servers}")
        if self.placement not in PLACEMENTS:
            raise ValueError(
                f"unknown placement {self.placement!r}; known: {PLACEMENTS}"
            )
        if self.chunk_entries <= 0:
            raise ValueError(f"chunk_entries must be > 0, got {self.chunk_entries}")

    def bandwidth_scale_of(self, server_id: int) -> float:
        if server_id < len(self.server_bandwidth_scale):
            return self.server_bandwidth_scale[server_id]
        return 1.0

    def registration_scale_of(self, server_id: int) -> float:
        if server_id < len(self.server_registration_scale):
            return self.server_registration_scale[server_id]
        return 1.0


class MemoryServer:
    """One memory server: its own bandwidth pair plus homing ledger."""

    __slots__ = (
        "server_id",
        "name",
        "alive",
        "draining",
        "bandwidth_scale",
        "registration_scale",
        "capacity_entries",
        "entries_homed",
        "read_channel",
        "write_channel",
    )

    def __init__(
        self,
        server_id: int,
        read_bandwidth: float,
        write_bandwidth: float,
        bandwidth_scale: float,
        registration_scale: float,
        capacity_entries: Optional[int],
    ):
        self.server_id = server_id
        self.name = f"mserver{server_id}"
        self.alive = True
        self.draining = False
        self.bandwidth_scale = bandwidth_scale
        self.registration_scale = registration_scale
        self.capacity_entries = capacity_entries
        #: Non-retired entries currently homed here (the per-server
        #: charge the placement property suite reconciles).
        self.entries_homed = 0
        self.read_channel = DirectionalChannel(
            f"{self.name}.read", read_bandwidth * bandwidth_scale
        )
        self.write_channel = DirectionalChannel(
            f"{self.name}.write", write_bandwidth * bandwidth_scale
        )

    def __repr__(self) -> str:  # pragma: no cover
        state = "dead" if not self.alive else ("draining" if self.draining else "up")
        return f"MemoryServer({self.server_id}, {state}, homed={self.entries_homed})"


@dataclass
class RackStats:
    """Migration/failure ledger.  Never part of a result digest."""

    #: Pages whose only remote copy sat on a failed server (re-homed
    #: from a surviving replica or from the locally cached copy).
    pages_lost_from_dead: int = 0
    #: Pages migrated off a draining server.
    pages_drained: int = 0
    #: Migrations whose final new-home write completed.
    pages_rehomed: int = 0
    #: Migrations abandoned past ``migration_retry_limit`` error CQEs.
    migration_aborts: int = 0
    #: Resident pages that simply dropped a dead kept/reserved binding.
    bindings_dropped: int = 0
    #: Writebacks rebound to a live entry by the kernel's error hook.
    writeback_rebinds: int = 0
    #: Demand reads rebound to a live entry by the kernel's error hook.
    demand_rebinds: int = 0
    entries_retired: int = 0
    servers_failed: int = 0
    servers_drained: int = 0
    rehome_reads: int = 0
    rehome_writes: int = 0
    migration_retries: int = 0


class Rack:
    """The cluster layer: servers, placement, and re-homing machinery.

    The rack owns its own pooled-request lane (it is a request-pool
    owner exactly like a swap system: migration completions dispatch to
    :meth:`_request_completed` and recycle into ``_request_pool``), and
    submits migration verbs straight to the NIC on low-priority QPs —
    Canvas's per-cgroup scheduler ignores requests it never forwarded,
    so background migration cannot disturb per-app window accounting.
    """

    def __init__(self, engine: Engine, nic: RNIC, config: ClusterConfig, seed: int = 0):
        self.engine = engine
        self.nic = nic
        self.config = config
        self.seed = seed
        self.stats = RackStats()
        self.servers: List[MemoryServer] = [
            MemoryServer(
                sid,
                nic.read_channel.bandwidth_bytes_per_us,
                nic.write_channel.bandwidth_bytes_per_us,
                config.bandwidth_scale_of(sid),
                config.registration_scale_of(sid),
                config.server_capacity_entries,
            )
            for sid in range(config.n_servers)
        ]
        #: (system, partition, allocator) triples under rack management.
        self._adopted: List[tuple] = []
        self._adopted_names: set = set()
        #: Rolling placement cursors (stripe chunks / locality homes).
        self._stripe_cursor = 0
        self._locality_cursor = 0
        self._homes: Dict[str, int] = {}
        #: Trace buffer for the rack tracepoints.
        self.tracer = None
        #: Migration request pool (the rack is the requests' owner).
        self._request_pool: List[RdmaRequest] = []
        #: request_id -> (op, entry, write_entry_or_None, retries).
        self._pending: Dict[int, tuple] = {}
        self._mig_qps = {
            RdmaOp.READ: nic.create_qp("rack.migrate.read", RdmaOp.READ, priority=1),
            RdmaOp.WRITE: nic.create_qp("rack.migrate.write", RdmaOp.WRITE, priority=1),
        }
        nic.rack = self

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------

    def _eligible(self) -> List[MemoryServer]:
        """Servers placement may target, most-preferred tier first."""
        healthy = [s for s in self.servers if s.alive and not s.draining]
        cap = self.config.server_capacity_entries
        if cap is not None and healthy:
            with_room = [s for s in healthy if s.entries_homed < cap]
            if with_room:
                return with_room
        if healthy:
            return healthy
        alive = [s for s in self.servers if s.alive]
        if alive:
            return alive
        raise RuntimeError("rack: no live memory servers")

    def _place_chunk(self, partition: SwapPartition) -> int:
        eligible = self._eligible()
        placement = self.config.placement
        if placement == "stripe":
            server = eligible[self._stripe_cursor % len(eligible)]
            self._stripe_cursor += 1
            return server.server_id
        if placement == "locality":
            home = self._homes.get(partition.name)
            if home is not None and self.servers[home] in eligible:
                return home
            server = eligible[self._locality_cursor % len(eligible)]
            self._locality_cursor += 1
            self._homes[partition.name] = server.server_id
            return server.server_id
        # capacity-pressure: least-loaded eligible server, lowest id wins.
        server = min(eligible, key=lambda s: (s.entries_homed, s.server_id))
        return server.server_id

    def _peek_chunk(self, partition: SwapPartition) -> int:
        """The server the next chunk would land on, without state change."""
        eligible = self._eligible()
        placement = self.config.placement
        if placement == "stripe":
            return eligible[self._stripe_cursor % len(eligible)].server_id
        if placement == "locality":
            home = self._homes.get(partition.name)
            if home is not None and self.servers[home] in eligible:
                return home
            return eligible[self._locality_cursor % len(eligible)].server_id
        return min(eligible, key=lambda s: (s.entries_homed, s.server_id)).server_id

    def registration_scale_for(self, partition: SwapPartition) -> float:
        """Registration-cost multiplier of the next chunk's home server."""
        return self.servers[self._peek_chunk(partition)].registration_scale

    def _assign(self, partition: SwapPartition, entries: List[SwapEntry]) -> None:
        chunk = self.config.chunk_entries
        for start in range(0, len(entries), chunk):
            run = entries[start : start + chunk]
            sid = self._place_chunk(partition)
            for entry in run:
                entry.server_id = sid
            self.servers[sid].entries_homed += len(run)

    def _on_partition_grow(
        self, partition: SwapPartition, new_entries: List[SwapEntry]
    ) -> None:
        self._assign(partition, new_entries)

    def adopt(self, system, partition: SwapPartition, allocator=None) -> None:
        """Bring one partition (and its allocator) under rack management.

        Homes every current entry, hooks demand-driven growth so new
        chunks get placed, and arms the allocator's retire-instead-of-
        pool guard.  Idempotent per partition name.
        """
        if partition.name in self._adopted_names:
            return
        self._adopted_names.add(partition.name)
        self._adopted.append((system, partition, allocator))
        self._assign(partition, partition.entries)
        partition.on_grow = self._on_partition_grow
        if allocator is not None:
            allocator.rack = self

    def withdraw(self, partition: SwapPartition) -> None:
        """Undo :meth:`adopt` for a departing app's private partition.

        Retires every non-retired entry (decrementing the per-server
        homed charges), unhooks growth, and forgets the locality home so
        the ledgers reconcile after teardown.  Entries must already be
        free — teardown sweeps the pages first.  No-op for partitions
        the rack never adopted (e.g. the shared global partition stays
        adopted for the apps still using it).
        """
        if partition.name not in self._adopted_names:
            return
        self._adopted_names.discard(partition.name)
        self._adopted = [
            triple for triple in self._adopted if triple[1] is not partition
        ]
        for entry in partition.entries:
            if not entry.retired:
                self._retire(entry)
        self._homes.pop(partition.name, None)
        partition.on_grow = None

    # ------------------------------------------------------------------
    # NIC integration
    # ------------------------------------------------------------------

    def dead_target(self, request: RdmaRequest) -> bool:
        entry = request.entry
        if entry is None:
            return False
        return not self.servers[entry.server_id].alive

    def wire_lag(
        self,
        request: RdmaRequest,
        start_us: float,
        uplink_release_us: float,
        bandwidth_scale: float = 1.0,
    ) -> float:
        """Reserve the target server's channel; return the extra delay.

        Mirrors the uplink reservation with identical arguments, so on a
        one-server rack at scale 1.0 the two channels stay in lockstep
        and the lag is exactly ``0.0`` — the digest-identity guarantee.
        """
        entry = request.entry
        if entry is None:
            return 0.0
        server = self.servers[entry.server_id]
        channel = (
            server.read_channel
            if request.op is RdmaOp.READ
            else server.write_channel
        )
        release = channel.reserve(start_us, request.size_bytes, bandwidth_scale)
        lag = release - uplink_release_us
        return lag if lag > 0.0 else 0.0

    # ------------------------------------------------------------------
    # Entry retirement (the free-pool guard)
    # ------------------------------------------------------------------

    def entry_condemned(self, entry: SwapEntry) -> bool:
        """Free-path guard: should this entry retire instead of pooling?"""
        if entry.retired:
            return True
        server = self.servers[entry.server_id]
        return not server.alive or server.draining

    def retire_freed(self, entry: SwapEntry) -> None:
        """Called by ``EntryAllocator.free`` in place of pooling."""
        self._retire(entry)
        entry.allocated = False
        entry.reserved = False
        entry.stored_vpn = None
        entry.timestamp_us = None
        entry.valid = True

    def _retire(self, entry: SwapEntry) -> None:
        if entry.retired:
            return
        entry.retired = True
        self.servers[entry.server_id].entries_homed -= 1
        self.stats.entries_retired += 1
        if self.tracer is not None:
            self.tracer.emit(RACK_RETIRE, "rack", 0, entry.entry_id, entry.server_id)

    def _purge_free_pools(self, server_id: int) -> int:
        """Retire every pooled free entry homed on ``server_id``."""
        retired = 0
        for _system, _partition, allocator in self._adopted:
            if allocator is None:
                continue
            for entry in allocator.retire_matching(server_id):
                if not entry.retired:
                    self._retire(entry)
                    entry.allocated = False
                    retired += 1
        return retired

    # ------------------------------------------------------------------
    # Failure and drain episodes
    # ------------------------------------------------------------------

    def schedule_plan(self, plan) -> None:
        """Arm a fault plan's server-death / drain episodes."""
        if plan is None:
            return
        for server_id, when_us in getattr(plan, "server_deaths", ()):
            self.engine.call_after(when_us, self.kill_server, server_id)
        for server_id, when_us in getattr(plan, "server_drains", ()):
            self.engine.call_after(when_us, self.drain_server, server_id)

    def kill_server(self, server_id: int) -> None:
        """A memory server fails: retire its pool, re-home its pages."""
        server = self.servers[server_id]
        if not server.alive:
            return
        server.alive = False
        server.draining = False
        self.stats.servers_failed += 1
        if self.tracer is not None:
            self.tracer.emit(
                RACK_SERVER_DEAD, "rack", 0, server_id, server.entries_homed
            )
        self._purge_free_pools(server_id)
        self.engine.spawn(
            self._death_sweep(server), name=f"rack.death.{server_id}"
        )

    def drain_server(self, server_id: int) -> None:
        """Take a live server out of service via background migration."""
        server = self.servers[server_id]
        if not server.alive or server.draining:
            return
        if not any(
            s.alive and not s.draining and s is not server for s in self.servers
        ):
            return  # nowhere to migrate to; refuse the drain
        server.draining = True
        if self.tracer is not None:
            self.tracer.emit(
                RACK_SERVER_DRAIN, "rack", 0, server_id, server.entries_homed
            )
        self._purge_free_pools(server_id)
        self.engine.spawn(
            self._drain_sweep(server), name=f"rack.drain.{server_id}"
        )

    def _unretired_on(self, server_id: int) -> List[Tuple[object, SwapPartition, SwapEntry]]:
        out = []
        for system, partition, _allocator in self._adopted:
            for entry in partition.entries:
                if entry.server_id == server_id and not entry.retired:
                    out.append((system, partition, entry))
        return out

    def _bindings(self, system, server_id: int) -> Dict[int, tuple]:
        """entry_id -> (app, page) for live bindings onto ``server_id``.

        Covers both the PTE binding (``page.swap_entry``) and adaptive
        allocation's reservation binding (``page.reserved_entry``).
        """
        out: Dict[int, tuple] = {}
        for app in system.apps.values():
            for page in app.space.pages.values():
                entry = page.swap_entry
                if (
                    entry is not None
                    and entry.server_id == server_id
                    and not entry.retired
                ):
                    out[entry.entry_id] = (app, page)
                reserved = page.reserved_entry
                if (
                    reserved is not None
                    and reserved is not entry
                    and reserved.server_id == server_id
                    and not reserved.retired
                ):
                    out[reserved.entry_id] = (app, page)
        return out

    def _death_sweep(self, server: MemoryServer) -> Generator:
        """Re-home every surviving binding off a failed server.

        Pages with in-flight I/O are skipped — their verbs surface error
        CQEs whose kernel hooks rebind them — and re-scanned next round.
        """
        sid = server.server_id
        if not any(s.alive for s in self.servers):
            # Total rack loss: nothing to re-home onto.  Retire every
            # entry so the ledgers stay consistent; the data is gone.
            for _system, _partition, entry in self._unretired_on(sid):
                self._retire(entry)
            return
        while True:
            # Bindings per system, built once per round: nothing yields
            # inside a round, and resolving an entry changes only the
            # bindings of its own page.
            bindings = {}
            for system, _partition, entry in self._unretired_on(sid):
                if system not in bindings:
                    bindings[system] = self._bindings(system, sid)
                bound = bindings[system].get(entry.entry_id)
                if bound is None:
                    # Unreferenced (idle free entry the pools missed, or
                    # a binding the kernel dropped since the last scan).
                    self._retire(entry)
                    continue
                app, page = bound
                if page in system._inflight_req:
                    continue  # error hooks own this one
                self._resolve_dead(system, app, page, entry)
            if not self._unretired_on(sid):
                break
            yield self.engine.sleep(self.config.migration_round_us)

    def _resolve_dead(self, system, app, page, entry: SwapEntry) -> None:
        if page.resident:
            self._drop_resident_binding(system, app, page, entry)
            return
        in_cache = page.in_swap_cache
        new_entry = self.rebind(system, app, page, entry)
        self.stats.pages_lost_from_dead += 1
        # Cached pages still hold the data locally (write-only re-home);
        # otherwise re-read from a surviving replica, then write.
        self._issue_leg(
            RdmaOp.WRITE if in_cache else RdmaOp.READ,
            new_entry,
            write_entry=None if in_cache else new_entry,
        )

    def _drain_sweep(self, server: MemoryServer) -> Generator:
        """Migrate a draining server's bindings away in bounded batches."""
        sid = server.server_id
        batch = self.config.migration_batch
        while True:
            moved = 0
            bindings = {}  # per system, once per round (see _death_sweep)
            for system, _partition, entry in self._unretired_on(sid):
                if moved >= batch:
                    break
                if system not in bindings:
                    bindings[system] = self._bindings(system, sid)
                bound = bindings[system].get(entry.entry_id)
                if bound is None:
                    self._retire(entry)
                    continue
                app, page = bound
                if page in system._inflight_req:
                    continue  # quiesce first; re-scan next round
                if page.resident:
                    # Same as a dead binding on a resident page: cheaper
                    # to drop than to copy data the host already has.
                    self._drop_resident_binding(system, app, page, entry)
                    continue
                new_entry = self.rebind(system, app, page, entry)
                self.stats.pages_drained += 1
                # Read the page off the draining (still live) server,
                # then write it to its new home.
                self._issue_leg(RdmaOp.READ, entry, write_entry=new_entry)
                moved += 1
            if not self._unretired_on(sid):
                break
            yield self.engine.sleep(self.config.migration_round_us)
        self.stats.servers_drained += 1

    def _drop_resident_binding(self, system, app, page, entry: SwapEntry) -> None:
        """The local copy is intact: the kept/reserved binding on a dead
        or draining server just goes away (a later eviction re-allocates
        and writes)."""
        if page.reserved_entry is entry:
            page.reserved_entry = None
            entry.reserved = False
        if page.swap_entry is entry:
            cache = system.path_for(app, page).cache
            if cache._pages.pop(entry.entry_id, None) is not None:
                page.in_swap_cache = False
            page.swap_entry = None
        self._retire(entry)
        self.stats.bindings_dropped += 1

    # ------------------------------------------------------------------
    # Rebinding (shared with the kernel's error hooks)
    # ------------------------------------------------------------------

    def rebind(self, system, app, page, old_entry: SwapEntry) -> SwapEntry:
        """Move a page's bindings from ``old_entry`` to a fresh live entry.

        Grabs the new entry untimed (re-homing is an emergency path, not
        the contended swap-out path), re-keys any swap-cache slot, and
        retires the old entry.  Growing the partition by one chunk is the
        fallback when re-homing itself exhausted the free list.
        """
        path = system.path_for(app, page)
        try:
            new_entry = path.allocator.take_free_untimed()
        except RuntimeError:
            path.partition.grow(self.config.chunk_entries)
            new_entry = path.allocator.take_free_untimed()
        new_entry.stored_vpn = page.vpn
        new_entry.timestamp_us = old_entry.timestamp_us
        new_entry.valid = old_entry.valid
        cache = path.cache
        moved = cache._pages.pop(old_entry.entry_id, None)
        if moved is not None:
            cache._pages[new_entry.entry_id] = moved
        if page.swap_entry is old_entry:
            page.swap_entry = new_entry
        if page.reserved_entry is old_entry:
            page.reserved_entry = new_entry
            new_entry.reserved = True
        if self.tracer is not None:
            self.tracer.emit(
                RACK_REHOME,
                app.name,
                0,
                old_entry.entry_id,
                new_entry.server_id,
            )
        self._retire(old_entry)
        old_entry.stored_vpn = None
        return new_entry

    # -- kernel error-hook entry points --------------------------------

    def rebind_for_read_retry(self, system, app, page, old_entry: SwapEntry) -> SwapEntry:
        """A demand read hit a dead server: rebind, count, re-home.

        The kernel retries the read against the returned entry (the
        fault-back path); the rack writes the replica's copy to the new
        home in the background.
        """
        new_entry = self.rebind(system, app, page, old_entry)
        self.stats.pages_lost_from_dead += 1
        self.stats.demand_rebinds += 1
        self._issue_leg(RdmaOp.WRITE, new_entry, write_entry=None)
        return new_entry

    def rebind_for_writeback_retry(
        self, system, app, page, old_entry: SwapEntry
    ) -> SwapEntry:
        """A writeback hit a dead server: retarget it at a live entry.

        The data never left the host, so this is neither a loss nor a
        migration — just a retarget (counted separately).
        """
        new_entry = self.rebind(system, app, page, old_entry)
        self.stats.writeback_rebinds += 1
        return new_entry

    # ------------------------------------------------------------------
    # Migration transfers (the rack as a request-pool owner)
    # ------------------------------------------------------------------

    def _issue_leg(
        self,
        op: RdmaOp,
        entry: SwapEntry,
        write_entry: Optional[SwapEntry],
        retries: int = 0,
    ) -> None:
        request = acquire_request(self, op, RequestKind.REHOME, "rack", entry, None)
        self._pending[request.request_id] = (op, entry, write_entry, retries)
        if op is RdmaOp.READ:
            self.stats.rehome_reads += 1
        else:
            self.stats.rehome_writes += 1
        self.nic.submit(self._mig_qps[op], request)

    def _request_completed(self, request: RdmaRequest) -> None:
        leg = self._pending.pop(request.request_id, None)
        if leg is None:
            return
        op, entry, write_entry, retries = leg
        if request.error:
            if retries >= self.config.migration_retry_limit:
                self.stats.migration_aborts += 1
                return
            self.stats.migration_retries += 1
            self._issue_leg(op, entry, write_entry, retries + 1)
            return
        if self.tracer is not None:
            self.tracer.emit(
                RACK_MIGRATE, "rack", 0, entry.entry_id, op.value
            )
        if write_entry is not None:
            self._issue_leg(RdmaOp.WRITE, write_entry, write_entry=None)
            return
        self.stats.pages_rehomed += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def migrations_quiesced(self) -> bool:
        return not self._pending

    def homed_counts(self) -> Dict[int, int]:
        """Actual non-retired entry count per server, from the ground up."""
        counts = {server.server_id: 0 for server in self.servers}
        for _system, partition, _allocator in self._adopted:
            for entry in partition.entries:
                if not entry.retired:
                    counts[entry.server_id] += 1
        return counts

    def ledger_balanced(self) -> bool:
        s = self.stats
        return (
            s.pages_rehomed + s.migration_aborts
            == s.pages_lost_from_dead + s.pages_drained
        )

    def __repr__(self) -> str:  # pragma: no cover
        up = sum(1 for s in self.servers if s.alive)
        return f"Rack({up}/{len(self.servers)} up, {self.config.placement})"
