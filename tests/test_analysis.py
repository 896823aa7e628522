"""Tests for the analysis and export package."""

import csv

import pytest

from repro.analysis import (
    AppSummary,
    export_bandwidth_series,
    export_cdf,
    export_rate_series,
    export_rows,
    export_summaries,
    slowdown_matrix,
    summarize,
)
from repro.harness import ExperimentConfig, run_experiment
from repro.metrics import BandwidthMeter, Histogram, RateMeter


@pytest.fixture(scope="module")
def small_result():
    return run_experiment(["memcached"], ExperimentConfig(system="canvas", scale=0.1))


def test_summarize_produces_per_app_records(small_result):
    summaries = summarize(small_result)
    assert set(summaries) == {"memcached"}
    summary = summaries["memcached"]
    assert isinstance(summary, AppSummary)
    assert summary.completion_time_ms > 0
    assert summary.faults > 0
    assert summary.accesses >= summary.faults
    assert 0.0 <= summary.fault_rate <= 1.0
    assert summary.mean_fault_stall_us > 0
    assert summary.read_bandwidth_mbps > 0


def test_summary_as_dict_roundtrip(small_result):
    summary = summarize(small_result)["memcached"]
    record = summary.as_dict()
    assert record["app"] == "memcached"
    assert record["faults"] == summary.faults


def test_slowdown_matrix():
    solo = run_experiment(["snappy"], ExperimentConfig(system="linux", scale=0.1))
    canvas = run_experiment(["snappy"], ExperimentConfig(system="canvas", scale=0.1))
    baseline = {"snappy": solo.completion_time("snappy")}
    matrix = slowdown_matrix({"linux": solo, "canvas": canvas}, baseline)
    assert matrix["linux"]["snappy"] == pytest.approx(1.0)
    assert matrix["canvas"]["snappy"] > 0


def test_slowdown_matrix_skips_missing_baseline(small_result):
    matrix = slowdown_matrix({"run": small_result}, baseline={})
    assert matrix == {"run": {}}


def test_export_rows(tmp_path):
    path = tmp_path / "t.csv"
    n = export_rows(path, ["a", "b"], [[1, 2], [3, 4]])
    assert n == 2
    with path.open() as handle:
        rows = list(csv.reader(handle))
    assert rows == [["a", "b"], ["1", "2"], ["3", "4"]]


def test_export_cdf(tmp_path):
    hist = Histogram()
    hist.extend(float(i) for i in range(100))
    path = tmp_path / "cdf.csv"
    n = export_cdf(path, hist, points=50)
    assert n == 50
    with path.open() as handle:
        rows = list(csv.reader(handle))[1:]
    values = [float(r[1]) for r in rows]
    assert values == sorted(values)  # CDF is monotone
    assert values[-1] >= 0.99  # float-rounded top sample point


def test_export_cdf_empty(tmp_path):
    path = tmp_path / "cdf.csv"
    assert export_cdf(path, Histogram()) == 0


def test_export_cdf_single_value(tmp_path):
    hist = Histogram()
    hist.record(5.0)
    path = tmp_path / "cdf.csv"
    assert export_cdf(path, hist) == 1


def test_export_rate_series(tmp_path):
    meter = RateMeter(bin_us=1000.0)
    meter.record(0.0)
    meter.record(1500.0)
    path = tmp_path / "rate.csv"
    assert export_rate_series(path, meter) == 2


def test_export_bandwidth_series(tmp_path):
    meter = BandwidthMeter(bin_us=1000.0)
    meter.record("a", 0.0, 4096)
    meter.record("b", 100.0, 4096)
    path = tmp_path / "bw.csv"
    assert export_bandwidth_series(path, meter) == 2
    with path.open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["stream", "time_us", "mbps"]


def test_export_summaries(tmp_path, small_result):
    summaries = summarize(small_result)
    path = tmp_path / "summary.csv"
    assert export_summaries(path, summaries) == 1
    with path.open() as handle:
        rows = list(csv.reader(handle))
    assert "app" in rows[0]
    assert rows[1][0] == "memcached"
