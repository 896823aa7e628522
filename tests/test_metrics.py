"""Unit tests for metric collectors and report formatting."""

import pytest

from repro.metrics import (
    BandwidthMeter,
    Histogram,
    RateMeter,
    format_series,
    format_table,
    weighted_min_max_ratio,
)


# -- Histogram ----------------------------------------------------------------


def test_histogram_mean_min_max():
    hist = Histogram()
    hist.extend([1.0, 2.0, 3.0, 4.0])
    assert hist.mean == pytest.approx(2.5)
    assert hist.min_value == 1.0
    assert hist.max_value == 4.0
    assert hist.count == 4


def test_histogram_percentiles():
    hist = Histogram()
    hist.extend(float(i) for i in range(1, 101))
    assert hist.percentile(50) == pytest.approx(50.5)
    assert hist.percentile(99) == pytest.approx(99.01)
    assert hist.percentile(0) == 1.0
    assert hist.percentile(100) == 100.0


def test_histogram_empty():
    hist = Histogram()
    assert hist.mean == 0.0
    assert hist.percentile(50) == 0.0
    assert hist.cdf() == []
    assert hist.fraction_above(10) == 0.0


def test_histogram_fraction_above():
    hist = Histogram()
    hist.extend([1.0, 2.0, 3.0, 4.0])
    assert hist.fraction_above(2.0) == pytest.approx(0.5)
    assert hist.fraction_above(0.0) == 1.0
    assert hist.fraction_above(4.0) == 0.0


def test_histogram_cdf_points():
    hist = Histogram()
    hist.extend([1.0, 2.0, 3.0, 4.0])
    cdf = hist.cdf(points=[2.5])
    assert cdf == [(2.5, 0.5)]


def test_histogram_stddev():
    hist = Histogram()
    hist.extend([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
    assert hist.stddev == pytest.approx(2.138, rel=1e-3)


def test_histogram_insertion_after_percentile_query():
    hist = Histogram()
    hist.extend([1.0, 2.0])
    assert hist.percentile(100) == 2.0
    hist.record(10.0)
    assert hist.percentile(100) == 10.0  # sorted cache invalidated


def test_histogram_add_many_matches_serial_records():
    serial = Histogram()
    batched = Histogram()
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6]
    for value in values:
        serial.record(value)
    batched.add_many(values)
    assert batched.count == serial.count
    assert batched.total == serial.total  # same left-to-right fold
    assert batched.min_value == serial.min_value
    assert batched.max_value == serial.max_value
    assert batched.percentile(50) == serial.percentile(50)


def test_histogram_add_many_invalidates_percentile_memo():
    """Regression: the bulk ingestion path must drop the memoized
    percentile answers, not just the sorted view."""
    hist = Histogram()
    hist.add_many([1.0, 2.0])
    assert hist.percentile(100) == 2.0  # primes _pcache
    hist.add_many([10.0])
    assert hist.percentile(100) == 10.0
    assert hist.percentile(0) == 1.0
    # And the overflow fallback invalidates too.
    capped = Histogram(max_samples=4)
    capped.add_many([1.0, 2.0, 3.0])
    assert capped.percentile(100) == 3.0
    capped.add_many([50.0, 60.0])  # would overflow: per-value fallback
    assert capped.count == 5
    assert capped.percentile(100) >= 3.0
    assert capped.max_value == 60.0


def test_histogram_add_many_empty_batch_is_noop():
    hist = Histogram()
    hist.add_many([])
    assert hist.count == 0
    assert hist.percentile(50) == 0.0


# -- RateMeter -----------------------------------------------------------------


def test_rate_meter_series():
    meter = RateMeter(bin_us=1000.0)
    meter.record(100.0)
    meter.record(200.0)
    meter.record(1500.0)
    series = meter.series()
    assert series == [(0.0, 2000.0), (1000.0, 1000.0)]


def test_rate_meter_mean_and_peak():
    meter = RateMeter(bin_us=1000.0)
    for t in (0.0, 1.0, 2.0, 1500.0):
        meter.record(t)
    assert meter.mean_rate_per_second(2000.0) == pytest.approx(2000.0)
    assert meter.peak_rate_per_second() == pytest.approx(3000.0)


def test_rate_meter_invalid_bin():
    with pytest.raises(ValueError):
        RateMeter(bin_us=0)


# -- BandwidthMeter --------------------------------------------------------------


def test_bandwidth_meter_mbps():
    meter = BandwidthMeter(bin_us=1000.0)
    meter.record("a", 0.0, 4096)
    meter.record("a", 500.0, 4096)
    meter.record("b", 0.0, 8192)
    # bytes/µs == MB/s
    assert meter.mean_mbps("a", 1000.0) == pytest.approx(8192 / 1000.0)
    assert meter.total_mean_mbps(1000.0) == pytest.approx(16384 / 1000.0)


def test_bandwidth_meter_peak_total():
    meter = BandwidthMeter(bin_us=1000.0)
    meter.record("a", 100.0, 1000)
    meter.record("b", 200.0, 1000)
    meter.record("a", 1500.0, 500)
    assert meter.peak_total_mbps() == pytest.approx(2.0)


def test_bandwidth_meter_streams():
    meter = BandwidthMeter()
    meter.record("b", 0.0, 1)
    meter.record("a", 0.0, 1)
    assert meter.streams() == ["a", "b"]


# -- WMMR -----------------------------------------------------------------------


def test_wmmr_perfect_fairness():
    assert weighted_min_max_ratio({"a": 10.0, "b": 10.0}, {"a": 1, "b": 1}) == 1.0


def test_wmmr_weighted():
    # b has twice the weight and twice the bandwidth: still fair.
    assert weighted_min_max_ratio({"a": 5.0, "b": 10.0}, {"a": 1, "b": 2}) == 1.0


def test_wmmr_unfair():
    assert weighted_min_max_ratio({"a": 1.0, "b": 10.0}, {"a": 1, "b": 1}) == pytest.approx(0.1)


def test_wmmr_empty_and_zero():
    assert weighted_min_max_ratio({}, {}) == 1.0
    assert weighted_min_max_ratio({"a": 0.0, "b": 0.0}, {"a": 1, "b": 1}) == 1.0


def test_wmmr_invalid_weight():
    with pytest.raises(ValueError):
        weighted_min_max_ratio({"a": 1.0}, {"a": 0.0})


# -- formatting ---------------------------------------------------------------------


def test_format_table_alignment():
    out = format_table(["name", "value"], [["spark", 1.5], ["x", 20000.0]])
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("name")
    assert "20,000" in lines[3]


def test_format_series():
    out = format_series("title", {"a": [(0.0, 1.0), (5.0, 2.0)]}, unit="MB/s")
    assert "title" in out
    assert "a MB/s" in out


def test_bandwidth_total_until():
    meter = BandwidthMeter(bin_us=1000.0)
    meter.record("a", 500.0, 100)
    meter.record("a", 1500.0, 200)
    meter.record("a", 2500.0, 400)
    assert meter.total_until("a", 2000.0) == 300
    assert meter.total_until("a", 10_000.0) == 700
    assert meter.total_until("missing", 10_000.0) == 0


def test_format_cdf():
    from repro.metrics import format_cdf

    out = format_cdf(
        "latency",
        {"demand": {"p50": 5.0, "p99": 40.0}, "prefetch": {"p50": 100.0, "p99": 900.0}},
    )
    assert "latency" in out
    assert "demand" in out and "prefetch" in out


def test_format_cdf_empty():
    from repro.metrics import format_cdf

    out = format_cdf("t", {})
    assert out.startswith("t")


# -- Histogram reservoir + memoization -----------------------------------------


def test_histogram_empty_stddev():
    hist = Histogram()
    assert hist.stddev == 0.0
    hist.record(5.0)
    assert hist.stddev == 0.0  # one sample: undefined, reported as 0


def test_histogram_reservoir_is_unbiased_past_cap():
    # The old thinning overwrote a sliding window of slots with every
    # other late sample, skewing post-cap percentiles toward recent
    # values.  Algorithm R keeps a uniform sample: recording 0..9999
    # into a 200-slot reservoir must keep the median near 5000.
    hist = Histogram(name="latency", max_samples=200)
    for value in range(10_000):
        hist.record(float(value))
    assert hist.count == 10_000
    assert len(hist._samples) == 200
    assert 3500 <= hist.percentile(50) <= 6500
    assert hist.percentile(10) < 3500
    assert hist.percentile(90) > 6500
    # Exact aggregates are unaffected by thinning.
    assert hist.mean == pytest.approx(4999.5)
    assert hist.min_value == 0.0 and hist.max_value == 9999.0


def test_histogram_reservoir_is_deterministic():
    def build():
        hist = Histogram(name="same-name", max_samples=50)
        for value in range(1000):
            hist.record(float(value))
        return hist._samples

    assert build() == build()


def test_histogram_percentile_memo_invalidated_past_cap():
    hist = Histogram(name="memo", max_samples=4)
    hist.extend([1.0, 2.0, 3.0, 4.0])
    assert hist.percentile(100) == 4.0
    # Record past the cap until a replacement lands, then re-query.
    for _ in range(64):
        hist.record(100.0)
        if 100.0 in hist._samples:
            break
    assert 100.0 in hist._samples
    assert hist.percentile(100) == 100.0


# -- RateMeter bin boundaries --------------------------------------------------


def test_rate_meter_bin_boundaries():
    meter = RateMeter(bin_us=1000.0)
    meter.record(999.999)  # last instant of bin 0
    meter.record(1000.0)  # first instant of bin 1
    meter.record(1999.999)
    series = dict(meter.series())
    assert series[0.0] == pytest.approx(1000.0)  # 1 event/bin -> 1000/s
    assert series[1000.0] == pytest.approx(2000.0)
    assert 2000.0 not in series


# -- BandwidthMeter partial-bin accounting -------------------------------------


def test_bandwidth_total_until_pro_rates_final_bin():
    meter = BandwidthMeter(bin_us=1000.0)
    meter.record("a", 500.0, 100)
    meter.record("a", 1500.0, 200)
    meter.record("a", 2500.0, 400)
    # Halfway through bin 2: full bins 0+1 plus half of bin 2's bytes.
    assert meter.total_until("a", 2500.0) == pytest.approx(300 + 200)
    assert meter.total_until("a", 2250.0) == pytest.approx(300 + 100)
    # Bin-aligned cutoffs are unchanged (no partial coverage).
    assert meter.total_until("a", 2000.0) == pytest.approx(300)
    assert meter.total_until("a", 0.0) == 0.0


def test_bandwidth_total_until_mid_first_bin():
    meter = BandwidthMeter(bin_us=1000.0)
    meter.record("a", 0.0, 1000)
    assert meter.total_until("a", 250.0) == pytest.approx(250.0)


def test_histogram_mixed_add_paths_keep_algorithm_r_uniform():
    """Interleaving ``add_many`` with scalar ``record`` above the
    reservoir cap must preserve Algorithm R's inclusion probability
    ``max_samples / count`` for every value — early or late, bulk or
    scalar.  Each histogram name seeds an independent reservoir RNG, so
    many names act as many independent trials; tallying which insertion
    indexes survive across trials and binning by decile of insertion
    order exposes any skew (the old sliding-window thinning failed this
    by a factor of ~3 on the last decile)."""
    import numpy as np

    cap, total, trials = 64, 1024, 300
    deciles = np.zeros(10)
    for trial in range(trials):
        hist = Histogram(name=f"mix{trial}", max_samples=cap)
        index = 0
        # Mixed ingestion: scalar records and bulk batches of varying
        # size — some land below the cap, one straddles it, and the
        # rest arrive past it (the per-value fall-back path).
        while index < total:
            if index % 3 == 0:
                hist.record(float(index))
                index += 1
            else:
                n = min(7 + (index % 5), total - index)
                hist.add_many([float(index + j) for j in range(n)])
                index += n
        assert hist.count == total
        assert len(hist._samples) == cap
        kept = np.asarray(hist._samples, dtype=int)
        assert len(set(hist._samples)) == cap, "reservoir duplicated a slot"
        deciles += np.histogram(kept, bins=10, range=(0, total))[0]
    # Every decile of insertion order keeps ~trials * cap / 10 samples;
    # the tolerance is ~5 sigma for Bernoulli(1/16) inclusions.
    expected = trials * cap / 10.0
    assert np.all(np.abs(deciles - expected) < 0.12 * expected), deciles


# -- SimProfiler layer table ------------------------------------------------


def _defined_functions(path):
    import ast

    tree = ast.parse(path.read_text())
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def test_profiler_layer_table_matches_the_source():
    """Every entry of the profiler's layer table names a real module and
    real functions, no function has two owners, and every layer is one
    of perfbench's (plus ``sim.engine``).  A rename that left the table
    behind would silently move host time to the callers' layers."""
    from pathlib import Path

    import repro
    from perfbench.tracer import LAYERS as BENCH_LAYERS
    from repro.metrics.profiler import LAYER_TABLE, LAYERS, layer_of

    assert LAYERS == tuple(BENCH_LAYERS) + ("sim.engine",)
    root = Path(repro.__file__).parent
    modules = {
        path.relative_to(root).as_posix(): _defined_functions(path)
        for path in root.rglob("*.py")
    }

    def matches(table_path, module):
        if table_path.endswith("/"):
            return module.startswith(table_path)
        return module == table_path

    for table_path, layer, names in LAYER_TABLE:
        assert layer in LAYERS, (table_path, layer)
        covered = [module for module in modules if matches(table_path, module)]
        assert covered, f"{table_path} matches no module under repro/"
        if names is not None:
            missing = names - modules[table_path]
            assert not missing, f"{table_path} defines no {sorted(missing)}"

    for module, functions in modules.items():
        for name in functions:
            named = [
                (path, layer)
                for path, layer, names in LAYER_TABLE
                if names is not None and name in names and matches(path, module)
            ]
            named_paths = {path for path, _ in named}
            rest = [
                (path, layer)
                for path, layer, names in LAYER_TABLE
                if names is None and matches(path, module) and path not in named_paths
            ]
            owners = named + rest
            assert len(owners) <= 1, f"{module}:{name} has owners {owners}"
            expected = owners[0][1] if owners else None
            assert layer_of(module, name) == expected, (module, name)
