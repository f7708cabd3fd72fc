"""The canonical key bytes of four families, pinned by one digest.

Every class, golden and benchmark sample is named by a canonical key, so
a change that moves one key byte reorders them.  The unpruned search in
``test_posets`` shares the key definition with ``canonical_form``, so
this digest, taken before the key search moved to integer ranks and
int-coded blocks, is the independent check that no byte moved.

Run as a script it prints the digest and exits 1 when it differs from
the pinned one:

    PYTHONPATH=src python -O tests/test_key_digest.py
"""

import hashlib
import sys

from inccat.families import family_from_spec

PINNED_KEY_DIGEST = "a3eb46bc8b51cc111ed10a1fd1b5ec8557da3425cc474a665157d46e05560cfb"
FAMILIES = (("fin", 7), ("forests", 7), ("csets:2", 5), ("cforests:2", 4))


def key_digest() -> str:
    """sha256 of the hex keys of every class of ``FAMILIES``, one per line, in order."""
    h = hashlib.sha256()
    for spec, max_size in FAMILIES:
        for cls in family_from_spec(spec, max_size).all_classes():
            h.update(cls.hex_key.encode() + b"\n")
    return h.hexdigest()


def test_key_bytes_match_pinned_digest():
    assert key_digest() == PINNED_KEY_DIGEST


if __name__ == "__main__":
    digest = key_digest()
    print(digest)
    sys.exit(digest != PINNED_KEY_DIGEST)
