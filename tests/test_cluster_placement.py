"""Property suite for the rack's cluster-placement layer (PR 9).

Four layers:

* **Config validation** — :class:`~repro.cluster.ClusterConfig` rejects
  nonsense sizing and pads the per-server scale tuples.
* **Placement properties** — every entry homes on exactly one live
  server; placement is a pure function of ``(config, adoption order)``;
  the three policies distribute chunks as specified; the per-server
  ``entries_homed`` charge reconciles with a ground-up recount.
* **Retirement properties** — killing or draining a server leaves no
  non-retired entry behind, the allocator free-path guard retires
  condemned entries instead of pooling them, and a clustered
  partition's purge never condemns an in-use entry.
* **Interleaving property** — a seeded random schedule of arrive
  (adopt), grow, fail, and drain events keeps the charge ledger
  reconciled at every step.
"""

import random

import pytest

from repro.cluster import PLACEMENTS, ClusterConfig, Rack
from repro.rdma import RNIC
from repro.sim import Engine
from repro.swap import SwapPartition
from repro.swap.allocator import EntryAllocator


class _BareSystem:
    """Stand-in system: adopted partitions with no app bindings.

    The death/drain sweeps scan ``apps`` for page bindings; with none,
    every entry on the condemned server is unreferenced and retires in
    one pass — exactly what these structural properties need.
    """

    def __init__(self):
        self.apps = {}
        self._inflight_req = {}


def _rack(config, n_entries=0, name="p", allocator_cls=None):
    """A bare rack; optionally with one adopted partition of n_entries."""
    eng = Engine()
    nic = RNIC(eng)
    rack = Rack(eng, nic, config, seed=0)
    system = _BareSystem()
    partition = allocator = None
    if n_entries:
        partition = SwapPartition(name, n_entries)
        if allocator_cls is not None:
            allocator = allocator_cls(eng, partition)
        rack.adopt(system, partition, allocator)
    return eng, rack, system, partition, allocator


def _server_ids(partition):
    return [entry.server_id for entry in partition.entries]


def _reconciles(rack):
    """Per-server charges match a ground-up recount of live entries."""
    counts = rack.homed_counts()
    return all(
        counts[server.server_id] == server.entries_homed
        for server in rack.servers
    )


# -- ClusterConfig validation ---------------------------------------------


def test_config_rejects_bad_sizing():
    with pytest.raises(ValueError):
        ClusterConfig(n_servers=0)
    with pytest.raises(ValueError):
        ClusterConfig(placement="scatter")
    with pytest.raises(ValueError):
        ClusterConfig(chunk_entries=0)


def test_scale_tuples_pad_with_ones():
    config = ClusterConfig(
        n_servers=4,
        server_bandwidth_scale=(0.5,),
        server_registration_scale=(2.0, 3.0),
    )
    assert config.bandwidth_scale_of(0) == 0.5
    assert config.bandwidth_scale_of(3) == 1.0
    assert config.registration_scale_of(1) == 3.0
    assert config.registration_scale_of(2) == 1.0


# -- Placement properties -------------------------------------------------


def test_every_entry_homes_on_exactly_one_live_server():
    _, rack, _, partition, _ = _rack(
        ClusterConfig(n_servers=4, chunk_entries=8), n_entries=64
    )
    for entry in partition.entries:
        assert 0 <= entry.server_id < 4
        assert rack.servers[entry.server_id].alive
        assert not entry.retired
    assert _reconciles(rack)
    assert sum(s.entries_homed for s in rack.servers) == 64


@pytest.mark.parametrize("placement", sorted(PLACEMENTS))
def test_placement_is_a_pure_function_of_config_and_order(placement):
    config = ClusterConfig(n_servers=4, placement=placement, chunk_entries=8)
    maps = []
    for _ in range(2):
        _, rack, system, _, _ = _rack(config)
        parts = [SwapPartition(f"p{i}", 48) for i in range(3)]
        for part in parts:
            rack.adopt(system, part)
        maps.append([_server_ids(p) for p in parts])
    assert maps[0] == maps[1]


def test_stripe_round_robins_chunks():
    _, _, _, partition, _ = _rack(
        ClusterConfig(n_servers=4, placement="stripe", chunk_entries=4),
        n_entries=16,
    )
    assert _server_ids(partition) == [0] * 4 + [1] * 4 + [2] * 4 + [3] * 4


def test_locality_pins_each_partition_to_one_server():
    _, rack, system, _, _ = _rack(
        ClusterConfig(n_servers=4, placement="locality", chunk_entries=4)
    )
    parts = [SwapPartition(f"p{i}", 16) for i in range(3)]
    for part in parts:
        rack.adopt(system, part)
    homes = [set(_server_ids(p)) for p in parts]
    assert all(len(h) == 1 for h in homes)  # fate sharing is contained
    assert len(set.union(*homes)) == 3  # the cursor spreads partitions


def test_capacity_pressure_picks_the_least_loaded_server():
    config = ClusterConfig(
        n_servers=3, placement="capacity-pressure", chunk_entries=4
    )
    _, rack, system, _, _ = _rack(config)
    rack.adopt(system, SwapPartition("big", 8))  # 4 on s0, 4 on s1
    rack.adopt(system, SwapPartition("small", 4))  # least-loaded: s2
    assert rack.servers[2].entries_homed == 4
    # A tie (all at 4) breaks on the lowest server id.
    rack.adopt(system, SwapPartition("tie", 4))
    assert rack.servers[0].entries_homed == 8


def test_capacity_cap_diverts_chunks_to_servers_with_room():
    config = ClusterConfig(
        n_servers=2,
        placement="stripe",
        chunk_entries=4,
        server_capacity_entries=8,
    )
    _, rack, _, partition, _ = _rack(config, n_entries=16)
    # The cap keeps both servers at their limit instead of striping past
    # a full one; with every server full, placement falls back rather
    # than failing, so a third partition still homes somewhere live.
    assert [s.entries_homed for s in rack.servers] == [8, 8]
    assert _reconciles(rack)


def test_growth_places_new_chunks():
    _, rack, _, partition, _ = _rack(
        ClusterConfig(n_servers=2, chunk_entries=4), n_entries=8
    )
    new = partition.grow(8)
    assert all(0 <= e.server_id < 2 for e in new)
    assert _reconciles(rack)
    assert sum(s.entries_homed for s in rack.servers) == 16


def test_registration_scale_tracks_the_next_chunks_home():
    config = ClusterConfig(
        n_servers=2,
        placement="stripe",
        chunk_entries=4,
        server_registration_scale=(1.0, 3.0),
    )
    _, rack, _, partition, _ = _rack(config, n_entries=4)  # cursor now at s1
    assert rack.registration_scale_for(partition) == 3.0
    partition.grow(4)  # lands on s1, cursor back to s0
    assert rack.registration_scale_for(partition) == 1.0


def test_eligibility_tiers_and_total_loss():
    _, rack, system, _, _ = _rack(ClusterConfig(n_servers=3))
    rack.servers[0].draining = True
    assert [s.server_id for s in rack._eligible()] == [1, 2]
    rack.servers[1].draining = True
    rack.servers[2].alive = False
    # Healthy tier empty, alive tier is the draining survivor.
    assert [s.server_id for s in rack._eligible()] == [0, 1]
    rack.servers[0].alive = False
    rack.servers[1].alive = False
    with pytest.raises(RuntimeError):
        rack._eligible()


# -- Retirement properties ------------------------------------------------


def test_kill_retires_every_entry_on_the_dead_server():
    eng, rack, _, partition, _ = _rack(
        ClusterConfig(n_servers=4, chunk_entries=8), n_entries=64
    )
    rack.kill_server(0)
    eng.run(until=1_000)
    assert not rack.servers[0].alive
    assert all(
        entry.retired for entry in partition.entries if entry.server_id == 0
    )
    assert rack.servers[0].entries_homed == 0
    assert _reconciles(rack)
    # No bindings existed, so nothing was lost or migrated.
    assert rack.stats.pages_lost_from_dead == 0
    assert rack.ledger_balanced()
    # Killing a dead server is a no-op.
    rack.kill_server(0)
    assert rack.stats.servers_failed == 1


def test_drain_retires_unbound_entries_and_completes():
    eng, rack, _, partition, _ = _rack(
        ClusterConfig(n_servers=2, chunk_entries=8), n_entries=32
    )
    rack.drain_server(1)
    eng.run(until=10_000)
    assert rack.servers[1].draining
    assert rack.stats.servers_drained == 1
    assert all(
        entry.retired for entry in partition.entries if entry.server_id == 1
    )
    assert _reconciles(rack)
    assert rack.ledger_balanced()


def test_drain_refuses_without_a_destination():
    eng, rack, _, _, _ = _rack(ClusterConfig(n_servers=1), n_entries=8)
    rack.drain_server(0)
    assert not rack.servers[0].draining  # nowhere to migrate to
    _, rack2, _, _, _ = _rack(ClusterConfig(n_servers=2), n_entries=8)
    rack2.servers[1].alive = False
    rack2.drain_server(0)
    assert not rack2.servers[0].draining


def test_total_rack_loss_retires_without_rehoming():
    eng, rack, _, partition, _ = _rack(
        ClusterConfig(n_servers=2, chunk_entries=8), n_entries=16
    )
    rack.kill_server(0)
    rack.kill_server(1)
    eng.run(until=10_000)
    assert all(entry.retired for entry in partition.entries)
    assert rack.stats.pages_rehomed == 0
    assert _reconciles(rack)


def test_free_path_retires_condemned_entries():
    eng, rack, _, partition, allocator = _rack(
        ClusterConfig(n_servers=2, chunk_entries=8),
        n_entries=16,
        allocator_cls=EntryAllocator,
    )
    held = [allocator.take_free_untimed() for _ in range(10)]
    doomed = next(e for e in held if e.server_id == 0)
    safe = next(e for e in held if e.server_id == 1)
    # Kill without running the engine: the synchronous pool purge fires,
    # the (binding-scanning) death sweep does not — isolating the guard.
    rack.kill_server(0)
    # In-use entries on the dead server were NOT retired by the purge —
    # only the free pool was; the free path finishes the job.
    assert not doomed.retired
    free_before = partition.free_count
    allocator.free(doomed)
    assert doomed.retired
    assert partition.free_count == free_before  # never re-pooled
    allocator.free(safe)
    assert not safe.retired
    assert partition.free_count == free_before + 1
    assert allocator.stats.frees == 2
    assert _reconciles(rack)


def test_per_core_purge_spares_in_use_entries():
    eng, rack, _, partition, allocator = _rack(
        ClusterConfig(n_servers=2, chunk_entries=8),
        n_entries=16,
        allocator_cls=lambda eng, part: EntryAllocator(eng, part, cluster_entries=4),
    )
    held = [allocator.take_free_untimed() for _ in range(10)]
    in_use_on_0 = [e for e in held if e.server_id == 0]
    assert in_use_on_0  # the schedule must actually exercise the hazard
    rack.kill_server(0)
    # The purge reaches only the partition's free clusters, so held
    # entries stay live until the owner frees them (and the free guard
    # retires them then).
    assert all(not e.retired for e in in_use_on_0)
    for entry in held:
        allocator.free(entry)
    assert all(e.retired for e in in_use_on_0)
    # Every live entry is back in a cluster, and no retired one is.
    live = [e for e in partition.entries if not e.retired]
    assert partition.free_count == len(live)
    assert not any(e.allocated for e in live)
    assert _reconciles(rack)


# -- Interleaving property ------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_charge_ledger_reconciles_under_random_interleavings(seed):
    """Arbitrary arrive/grow/fail/drain schedules keep charges exact."""
    rng = random.Random(seed)
    config = ClusterConfig(
        n_servers=4,
        placement=rng.choice(PLACEMENTS),
        chunk_entries=rng.choice([4, 8, 16]),
    )
    eng, rack, system, _, _ = _rack(config)
    partitions = []
    for step in range(24):
        op = rng.random()
        if op < 0.5 or not partitions:
            part = SwapPartition(f"p{len(partitions)}", rng.choice([8, 16, 32]))
            rack.adopt(system, part)
            partitions.append(part)
        elif op < 0.75:
            rng.choice(partitions).grow(rng.choice([4, 8]))
        else:
            candidates = [
                s for s in rack.servers if s.alive and not s.draining
            ]
            if len(candidates) > 1:
                victim = rng.choice(candidates)
                if rng.random() < 0.5:
                    rack.kill_server(victim.server_id)
                else:
                    rack.drain_server(victim.server_id)
        eng.run(until=eng.now + 1_000)
        assert _reconciles(rack)
        counts = rack.homed_counts()
        live = sum(
            1
            for part in partitions
            for entry in part.entries
            if not entry.retired
        )
        assert sum(counts.values()) == live
    # End state: nothing lives on a dead or draining server, and every
    # live entry still names a real server.
    eng.run(until=eng.now + 10_000)
    for part in partitions:
        for entry in part.entries:
            if entry.retired:
                continue
            server = rack.servers[entry.server_id]
            assert server.alive and not server.draining
    assert rack.ledger_balanced()
