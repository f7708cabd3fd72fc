"""The split table, pinned byte for byte through ``inccat constants``.

``inccat constants`` prints every entry (P, Q, R, N) of one degree of
``hall.split_index``, so a change to the split walk that moves a class,
a count or a key changes the sha256 of its stdout.  Two contexts are
pinned: fin at size 7, where connected classes walk their ideals and
disconnected ones convolve their components' tables, and 2-colored
forests at size 5, where the keys keep colors.  The digests were taken
before the walk moved to side keys and table-driven restriction.

Run as a script it prints both digests and exits 1 when one differs
from the pinned one:

    PYTHONPATH=src python -O tests/test_constants_digest.py
"""

import contextlib
import hashlib
import io
import sys

import pytest

from inccat.cli import main

PINNED_CONSTANTS_DIGESTS = {
    ("fin", 7): "a194a89f743b2d0f695d56d0ac7c7795d19426ea204f44e8fed6855a1742ac2e",
    ("cforests:2", 5): "cc381cf7721b5c3e9e2cc6802a4da5569e709d879d5054704c0e599ca15981e5",
}


def constants_digest(spec: str, size: int) -> str:
    """sha256 of the stdout of ``inccat constants --family spec --max-size size --size size``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["constants", "--family", spec, "--max-size", str(size), "--size", str(size)])
    assert code == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("spec, size", list(PINNED_CONSTANTS_DIGESTS))
def test_constants_match_pinned_digest(spec, size):
    assert constants_digest(spec, size) == PINNED_CONSTANTS_DIGESTS[(spec, size)]


if __name__ == "__main__":
    failed = False
    for (spec, size), pinned in PINNED_CONSTANTS_DIGESTS.items():
        digest = constants_digest(spec, size)
        print(f"{spec} {size} {digest}")
        failed |= digest != pinned
    sys.exit(failed)
