"""Every run of the golden matrix reproduces its committed digest.

The digests pin simulated behavior across changes: a refactor that is
meant to be invisible must leave every entry untouched, and a change that
is meant to move results regenerates the file with a stated reason
(``python tests/golden/regen.py --regen --reason "..."``).
"""

import pytest

from tests.golden import golden, load_golden
from tests.golden.matrix import ENTRIES


def test_golden_file_covers_the_matrix():
    data = load_golden()
    assert data["reason"].strip()
    assert list(data["digests"]) == list(ENTRIES)


@pytest.mark.parametrize("key", list(ENTRIES))
def test_golden_digest(key):
    assert ENTRIES[key]() == golden(key), (
        f"{key} moved; if intended, regenerate with a reason: "
        "python tests/golden/regen.py --regen --reason '...'"
    )
