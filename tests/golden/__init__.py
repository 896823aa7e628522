"""Committed golden digests: the simulator's behavioral oracle.

``digests.json`` maps each key of :data:`tests.golden.matrix.ENTRIES` to
the digest that run produced when the file was last regenerated, plus the
stated reason for that regeneration.  A change that moves any simulated
number moves a digest; ``python tests/golden/regen.py`` lists which.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

__all__ = ["GOLDEN_PATH", "load_golden", "golden"]

GOLDEN_PATH = Path(__file__).with_name("digests.json")


def load_golden() -> Dict[str, object]:
    """The whole file: ``{"reason": str, "digests": {key: digest}}``."""
    return json.loads(GOLDEN_PATH.read_text())


_DIGESTS: Dict[str, str] = {}


def golden(key: str) -> str:
    """The committed digest for one matrix key."""
    if not _DIGESTS:
        _DIGESTS.update(load_golden()["digests"])
    return _DIGESTS[key]
