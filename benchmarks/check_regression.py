#!/usr/bin/env python
"""Guard the harness micro-benchmarks against performance regressions.

Usage::

    python benchmarks/check_regression.py out1.json [out2.json ...]
    python benchmarks/check_regression.py --update out1.json [...]

Each ``outN.json`` is a ``pytest-benchmark --benchmark-json`` output.
The script compares every guarded ``extra_info`` metric (throughput
numbers — higher is better) against ``benchmarks/perf_baseline.json``
and exits non-zero when a current value falls below
``baseline * (1 - tolerance)``.

Tolerances live in the baseline file per metric: ratio metrics
(``*_speedup``) are machine-independent and use a tight bound,
absolute rates (steps/s, accesses/s, faults/s) vary with runner
hardware and get a loose one.  ``REPRO_PERF_TOLERANCE_SCALE`` multiplies
every tolerance (e.g. ``2.0`` on a known-slow runner); ``--update``
rewrites the baseline from the provided JSONs: existing metrics keep
their tolerances, and guardable metrics (``*_per_second`` rates,
``*_speedup`` ratios) from benchmarks or metrics not yet in the
baseline are added with the default tolerance for their kind.

Benchmarks present in the outputs but absent from the baseline are
reported and ignored by ``check``, so adding a benchmark never breaks
CI until a baseline entry is recorded — run ``--update`` once to record
it.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

BASELINE_PATH = Path(__file__).resolve().parent / "perf_baseline.json"

#: Default tolerances for metrics newly adopted by ``--update``, keyed
#: by name suffix.  Rates are runner-dependent (loose); speedup ratios
#: are machine-independent (tight).  Metrics matching neither pattern
#: are informational ``extra_info`` and never auto-guarded.
DEFAULT_TOLERANCES = (
    ("_per_second", 0.5),
    ("_speedup", 0.3),
)


def _default_tolerance(metric: str) -> float | None:
    for suffix, tolerance in DEFAULT_TOLERANCES:
        if metric.endswith(suffix):
            return tolerance
    return None


def load_results(paths: list[str]) -> dict[str, dict[str, float]]:
    """name -> extra_info metrics, merged across the given JSON files."""
    merged: dict[str, dict[str, float]] = {}
    for path in paths:
        with open(path) as handle:
            data = json.load(handle)
        for bench in data.get("benchmarks", []):
            info = {
                key: value
                for key, value in bench.get("extra_info", {}).items()
                if isinstance(value, (int, float))
            }
            merged.setdefault(bench["name"], {}).update(info)
    return merged


def update_baseline(results: dict[str, dict[str, float]]) -> None:
    baseline = json.loads(BASELINE_PATH.read_text()) if BASELINE_PATH.exists() else {}
    # Orphan detection: a baseline entry whose benchmark (or metric)
    # no longer appears in the provided outputs keeps its stale value
    # silently — and ``check`` would then FAIL it as "missing from
    # benchmark output" on the next CI run.  Warn loudly so a renamed
    # or deleted benchmark gets its baseline entry cleaned up (or the
    # missing JSON gets passed) instead of rotting.
    for name, entries in baseline.items():
        if name not in results:
            print(
                f"  WARNING: baseline benchmark {name!r} absent from the "
                f"provided outputs; its entry was kept unchanged (delete "
                f"it from {BASELINE_PATH.name} if the benchmark is gone)"
            )
            continue
        for metric in entries:
            if metric not in results[name]:
                print(
                    f"  WARNING: baseline metric {name}.{metric} absent "
                    f"from the provided outputs; kept unchanged"
                )
    for name, metrics in results.items():
        entries = baseline.setdefault(name, {})
        # Refresh values of metrics already guarded, keeping tolerances.
        for metric, entry in entries.items():
            if metric in metrics:
                entry["value"] = metrics[metric]
        # Adopt guardable metrics this baseline has never seen — new
        # benchmarks land with the default tolerance for their kind.
        for metric, value in metrics.items():
            if metric in entries:
                continue
            tolerance = _default_tolerance(metric)
            if tolerance is None:
                continue
            entries[metric] = {"value": value, "tolerance": tolerance}
            print(f"  adopted {name}.{metric} (tolerance {tolerance})")
        if not entries:
            del baseline[name]
    BASELINE_PATH.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    print(f"baseline updated: {BASELINE_PATH}")


def check(results: dict[str, dict[str, float]]) -> int:
    baseline = json.loads(BASELINE_PATH.read_text())
    scale = float(os.environ.get("REPRO_PERF_TOLERANCE_SCALE", "1.0"))
    failures = 0
    for name in sorted(results):
        guarded = baseline.get(name)
        if guarded is None:
            print(f"  (no baseline for {name}; skipped)")
            continue
        for metric, entry in sorted(guarded.items()):
            current = results[name].get(metric)
            if current is None:
                print(f"FAIL {name}.{metric}: missing from benchmark output")
                failures += 1
                continue
            tolerance = min(0.95, entry["tolerance"] * scale)
            floor = entry["value"] * (1.0 - tolerance)
            verdict = "ok" if current >= floor else "FAIL"
            print(
                f"{verdict:>4} {name}.{metric}: {current:.1f} "
                f"(baseline {entry['value']:.1f}, floor {floor:.1f})"
            )
            if current < floor:
                failures += 1
    if failures:
        print(f"{failures} metric(s) regressed past tolerance")
    else:
        print("all guarded metrics within tolerance")
    return 1 if failures else 0


def main(argv: list[str]) -> int:
    update = "--update" in argv
    paths = [a for a in argv if a != "--update"]
    if not paths:
        print(__doc__)
        return 2
    results = load_results(paths)
    if update:
        update_baseline(results)
        return 0
    return check(results)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
