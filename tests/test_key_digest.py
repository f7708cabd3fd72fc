"""The canonical key bytes and representatives of four families, pinned by digests.

Every class, golden and benchmark sample is named by a canonical key, so
a change that moves one key byte reorders them.  The unpruned search in
``test_posets`` shares the key definition with ``canonical_form``, so
the key digest, taken before the key search moved to integer ranks and
int-coded blocks, is the independent check that no byte moved.

Generation keeps the first candidate of each key as its class's
representative and skips candidates whose key it can infer, so the
representative digest pins each class's key with its representative's
relation rows, labels and colors.  It was taken before generation
started to skip candidates.  A wrong skip might only show above the
sizes the tests reach, so fin up to 8 has a representative digest too.

Run as a script it prints the key and representative digests of the
four families and exits 1 when either differs from the pinned one:

    PYTHONPATH=src python -O tests/test_key_digest.py

and with the argument ``fin:8`` it checks the representative digest of
fin up to 8 alone (about 3 s):

    PYTHONPATH=src python -O tests/test_key_digest.py fin:8
"""

import hashlib
import sys

from inccat.families import family_from_spec

PINNED_KEY_DIGEST = "a3eb46bc8b51cc111ed10a1fd1b5ec8557da3425cc474a665157d46e05560cfb"
PINNED_REPRESENTATIVE_DIGEST = "125f30cb4b8bdae39557548bd048ec4da241c2c5b182a4e2c274ae4347f5431e"
PINNED_FIN8_REPRESENTATIVE_DIGEST = "f1e93823e6098acdd7c331a2f4054fb5344c7c750399eb9c9bc3f5f6747d94e2"
FAMILIES = (("fin", 7), ("forests", 7), ("csets:2", 5), ("cforests:2", 4))


def key_digest() -> str:
    """sha256 of the hex keys of every class of ``FAMILIES``, one per line, in order."""
    h = hashlib.sha256()
    for spec, max_size in FAMILIES:
        for cls in family_from_spec(spec, max_size).all_classes():
            h.update(cls.hex_key.encode() + b"\n")
    return h.hexdigest()


def representative_digest(families=FAMILIES) -> str:
    """sha256 of (hex key, leq, labels, colors) of every class of ``families``, one per line, in order."""
    h = hashlib.sha256()
    for spec, max_size in families:
        for cls in family_from_spec(spec, max_size).all_classes():
            rep = cls.representative
            h.update(f"{cls.hex_key} {rep.leq} {rep.labels} {rep.colors}\n".encode())
    return h.hexdigest()


def test_key_bytes_match_pinned_digest():
    assert key_digest() == PINNED_KEY_DIGEST


def test_representatives_match_pinned_digest():
    assert representative_digest() == PINNED_REPRESENTATIVE_DIGEST


if __name__ == "__main__":
    if sys.argv[1:] == ["fin:8"]:
        digest = representative_digest((("fin", 8),))
        print(digest)
        sys.exit(digest != PINNED_FIN8_REPRESENTATIVE_DIGEST)
    keys, reps = key_digest(), representative_digest()
    print(keys)
    print(reps)
    sys.exit(keys != PINNED_KEY_DIGEST or reps != PINNED_REPRESENTATIVE_DIGEST)
