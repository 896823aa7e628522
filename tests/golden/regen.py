"""Check or regenerate the committed golden digests.

Usage (from the repository root)::

    PYTHONPATH=src python tests/golden/regen.py            # list changes, exit 1 if any
    PYTHONPATH=src python tests/golden/regen.py --regen --reason "why"

Check mode recomputes every entry and prints one line per key
that differs from ``digests.json`` (or is missing from it).  ``--regen``
rewrites the file with the recomputed digests and records ``--reason``;
regenerate only for a change that is *meant* to move simulated results,
and say which change that is.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from tests.golden import GOLDEN_PATH, load_golden  # noqa: E402
from tests.golden.matrix import ENTRIES  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--regen", action="store_true", help="rewrite digests.json")
    parser.add_argument("--reason", default="", help="why the digests move (required with --regen)")
    args = parser.parse_args(argv)
    if args.regen and not args.reason.strip():
        parser.error("--regen needs --reason")

    old = load_golden()["digests"] if GOLDEN_PATH.exists() else {}
    new = {}
    changed = []
    for key, fn in ENTRIES.items():
        digest = fn()
        new[key] = digest
        if old.get(key) != digest:
            changed.append(key)
            print(f"changed  {key}: {old.get(key, '<missing>')[:16]} -> {digest[:16]}")
    stale = sorted(set(old) - set(ENTRIES))
    for key in stale:
        print(f"removed  {key}")
    if not changed and not stale:
        print(f"all {len(ENTRIES)} entries match")
    if args.regen:
        GOLDEN_PATH.write_text(
            json.dumps({"reason": args.reason.strip(), "digests": new}, indent=2)
            + "\n"
        )
        print(f"wrote {GOLDEN_PATH.relative_to(ROOT)} ({len(new)} entries)")
        return 0
    return 1 if changed or stale else 0


if __name__ == "__main__":
    sys.exit(main())
