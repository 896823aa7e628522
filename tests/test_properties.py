"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem import AddressSpace, FramePool, GenerationLRU
from repro.metrics import Histogram
from repro.prefetch import KernelReadahead, PageGroupGraph, majority_vote
from repro.sim import Engine
from repro.swap import SwapPartition
from repro.workloads import ZipfSampler


# -- engine ordering -----------------------------------------------------------


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
def test_engine_fires_timeouts_in_order(delays):
    eng = Engine()
    fired = []

    def proc(eng, delay):
        yield eng.timeout(delay)
        fired.append(eng.now)

    for delay in delays:
        eng.spawn(proc(eng, delay))
    eng.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(st.lists(st.floats(min_value=0.0, max_value=1e5), min_size=1, max_size=30))
def test_engine_clock_never_goes_backwards(delays):
    eng = Engine()
    observed = []

    def proc(eng, delay):
        yield eng.timeout(delay)
        observed.append(eng.now)
        yield eng.timeout(delay / 2 + 1)
        observed.append(eng.now)

    for delay in delays:
        eng.spawn(proc(eng, delay))
    eng.run()
    assert observed == sorted(observed)


# -- majority vote -----------------------------------------------------------


def naive_majority(values):
    for candidate in set(values):
        if values.count(candidate) * 2 > len(values):
            return candidate
    return None


@given(st.lists(st.integers(min_value=-8, max_value=8), max_size=60))
def test_majority_vote_matches_naive(values):
    assert majority_vote(values) == naive_majority(values)


# -- histogram -----------------------------------------------------------------


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=200))
def test_histogram_percentile_monotone_and_bounded(samples):
    hist = Histogram()
    hist.extend(samples)
    previous = None
    for q in (0, 25, 50, 75, 90, 99, 100):
        value = hist.percentile(q)
        assert min(samples) <= value <= max(samples)
        if previous is not None:
            assert value >= previous
        previous = value


@given(
    st.lists(st.floats(min_value=0, max_value=1e4), min_size=1, max_size=200),
    st.floats(min_value=0, max_value=1e4),
)
def test_histogram_fraction_above_matches_count(samples, threshold):
    hist = Histogram()
    hist.extend(samples)
    expected = sum(1 for s in samples if s > threshold) / len(samples)
    assert abs(hist.fraction_above(threshold) - expected) < 1e-9


# -- frame pool ------------------------------------------------------------------


@given(
    st.integers(min_value=1, max_value=500),
    st.lists(st.integers(min_value=-30, max_value=30), max_size=100),
)
def test_frame_pool_never_overcommits(capacity, deltas):
    pool = FramePool(capacity)
    for delta in deltas:
        if delta >= 0:
            pool.try_charge(delta)
        else:
            pool.uncharge(min(-delta, pool.used))
        assert 0 <= pool.used <= pool.capacity_pages


# -- swap partition ---------------------------------------------------------------


@given(st.lists(st.booleans(), min_size=1, max_size=200))
def test_partition_alloc_free_conservation(ops):
    part = SwapPartition("p", 64)
    held = []
    for is_alloc in ops:
        if is_alloc and part.free_count > 0:
            held.append(part.pop_free())
        elif held:
            part.push_free(held.pop())
        assert part.free_count + len(held) == 64
        assert part.used_count == len(held)
    ids = [e.entry_id for e in held]
    assert len(ids) == len(set(ids))  # no entry handed out twice


# -- LRU ---------------------------------------------------------------------------


@given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=150))
def test_lru_membership_invariants(vpns):
    space = AddressSpace("p")
    vma = space.map_region(31)
    lru = GenerationLRU(space)
    pages = {}
    for vpn in vpns:
        if vpn not in pages:
            pages[vpn] = space.page(vma.start_vpn + vpn)
            lru.insert(pages[vpn])
        else:
            lru.note_access(pages[vpn])
        # A page is never on both lists.
        assert not (pages[vpn] in lru.active and pages[vpn] in lru.inactive)
    assert len(lru) == len(pages)
    # Evicting everything drains exactly all pages with no duplicates.
    victims = []
    while True:
        popped = lru.select_victims(1)
        if not popped:
            break
        victims.extend(popped)
    assert len(victims) == len(pages)
    assert len(set(v.vpn for v in victims)) == len(pages)


# -- zipf sampler ------------------------------------------------------------------


@given(
    st.integers(min_value=1, max_value=2000),
    st.floats(min_value=0.0, max_value=2.5),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=30)
def test_zipf_sampler_always_in_range(n, theta, seed):
    sampler = ZipfSampler(n, theta, np.random.default_rng(seed))
    draws = sampler.sample_many(200)
    assert draws.min() >= 0
    assert draws.max() < n


# -- page group graph --------------------------------------------------------------


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=500),
            st.integers(min_value=0, max_value=500),
        ),
        max_size=100,
    ),
    st.integers(min_value=0, max_value=500),
    st.integers(min_value=1, max_value=4),
)
def test_graph_reachability_properties(edges, start_vpn, max_hops):
    graph = PageGroupGraph(group_pages=8)
    for src, dst in edges:
        graph.record_reference(src, dst)
    start = graph.group_of(start_vpn)
    reached = graph.reachable_groups(start, max_hops)
    # No duplicates, never includes the start, min_hops filter is a subset.
    assert len(reached) == len(set(reached))
    assert start not in reached
    deeper_only = graph.reachable_groups(start, max_hops, min_hops=2)
    assert set(deeper_only) <= set(reached)
    # Growing the hop limit never shrinks the reachable set.
    reached_more = graph.reachable_groups(start, max_hops + 1)
    assert set(reached) <= set(reached_more)


# -- readahead window bounds ----------------------------------------------------------


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4000),
            st.booleans(),
        ),
        min_size=1,
        max_size=150,
    )
)
def test_readahead_window_always_bounded(faults):
    pf = KernelReadahead(max_window=8)
    for vpn, hit in faults:
        proposals = pf.on_fault("a", 0, vpn, 0.0, prefetched_hit=hit)
        assert 0 <= len(proposals) <= 8
        assert all(p != vpn for p in proposals)
