"""The example scripts must keep running as the library evolves."""

import runpy
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"


def run_example(name, monkeypatch, capsys, extra_patch=None):
    """Execute an example as __main__ and return its stdout."""
    path = EXAMPLES / name
    assert path.exists(), f"missing example {name}"
    if extra_patch:
        extra_patch()
    runpy.run_path(str(path), run_name="__main__")
    return capsys.readouterr().out


def test_quickstart(monkeypatch, capsys):
    out = run_example("quickstart.py", monkeypatch, capsys)
    assert "completed in" in out
    assert "page faults" in out
    assert "lock-free swap-outs" in out


def test_custom_workload(monkeypatch, capsys):
    out = run_example("custom_workload.py", monkeypatch, capsys)
    assert "prefetch contribution" in out
    assert "uffd forwards" in out


@pytest.mark.slow
def test_corun_interference(monkeypatch, capsys):
    out = run_example("corun_interference.py", monkeypatch, capsys)
    assert "Canvas speedup over Linux co-run" in out


@pytest.mark.slow
def test_prefetcher_comparison(monkeypatch, capsys):
    out = run_example("prefetcher_comparison.py", monkeypatch, capsys)
    assert "two-tier" in out


@pytest.mark.slow
def test_trace_replay(monkeypatch, capsys):
    out = run_example("trace_replay.py", monkeypatch, capsys)
    assert "recorded" in out
    assert "speedup on the identical fault sequence" in out
