"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import build_parser, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "memcached" in out
    assert "spark_lr" in out
    assert "canvas" in out


def test_run_command(capsys):
    assert main(["run", "--apps", "snappy", "--scale", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "snappy" in out
    assert "faults" in out


def test_run_multiple_apps(capsys):
    assert main(["run", "--apps", "snappy", "memcached", "--scale", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "snappy" in out and "memcached" in out


def test_compare_command(capsys):
    code = main(
        [
            "compare",
            "--apps",
            "snappy",
            "--scale",
            "0.1",
            "--systems",
            "linux",
            "canvas",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "linux" in out and "canvas" in out


def test_unknown_app_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--apps", "doom"])


def test_unknown_system_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--apps", "snappy", "--system", "bsd"])


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_run_with_csv(tmp_path, capsys):
    csv_path = tmp_path / "out.csv"
    assert main(["run", "--apps", "snappy", "--scale", "0.1", "--csv", str(csv_path)]) == 0
    assert csv_path.exists()
    header = csv_path.read_text().splitlines()[0]
    assert "completion_time_ms" in header


def test_compare_with_csv(tmp_path, capsys):
    csv_path = tmp_path / "cmp.csv"
    code = main(
        ["compare", "--apps", "snappy", "--scale", "0.1",
         "--systems", "linux", "canvas", "--csv", str(csv_path)]
    )
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("system,")
    assert len(lines) == 3  # header + one row per system


def test_trace_command(tmp_path, capsys):
    import json

    out_path = tmp_path / "trace.json"
    code = main(
        [
            "trace",
            "--apps",
            "snappy",
            "--scale",
            "0.08",
            "--system",
            "canvas",
            "--out",
            str(out_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "invariant checker: ok" in out
    assert "snappy" in out
    doc = json.loads(out_path.read_text())
    assert doc["traceEvents"]


def test_trace_command_with_scenario(tmp_path, capsys):
    out_path = tmp_path / "trace.json"
    code = main(
        [
            "trace",
            "--apps",
            "snappy",
            "--scale",
            "0.08",
            "--scenario",
            "degraded",
            "--out",
            str(out_path),
        ]
    )
    assert code == 0
    assert "invariant checker: ok" in capsys.readouterr().out
    assert out_path.exists()


def test_churn_command(capsys):
    code = main(
        ["churn", "--sessions", "12", "--slo-target-us", "8",
         "--fault-scenario", "drops"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert re.search(r"still registered\s+0\s", out)
    assert "slo rounds" in out and "slo breaches" in out
    assert "digest: " in out


def test_rack_command(capsys):
    code = main(
        ["rack", "--apps", "snappy", "memcached", "--scale", "0.05",
         "--servers", "1", "3", "--scenario", "server-death"]
    )
    assert code == 0
    rows = {
        line.split()[0]: line
        for line in capsys.readouterr().out.splitlines()
        if line[:1].isdigit()
    }
    assert "scenario skipped" in rows["1"]
    assert "ledger ok" in rows["3"]
