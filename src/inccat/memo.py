"""The memo tables: every one is declared here, with its owner and its key.

Process tables are plain dicts bound to a module global of their owner
module, so a lookup on a hot path stays one ``dict.get``.  Their entries
never go stale, so they live until :func:`clear`; filling an entry twice
stores an equal value, so a race can only repeat work.

* ``canonical_keys`` (``posets``): canonical key bytes by (tag, leq,
  color keys), everything the key depends on and nothing more.  The tag
  (0 or 1, as in the key) stands for the mode because it hashes in C.
* ``iso_signatures`` (``posets``): the element signatures that prune
  ``find_isomorphisms``, with their sorted multiset, by the same
  (tag, leq, color keys) as ``canonical_keys``.  A separate table, so
  the isomorphism search, an oracle for the keys, reads no key.
* ``ideal_lattices`` (``ideals``): J_P by ``leq``; it depends on the
  order alone, so relabelled and recoloured copies share an entry.  A
  split walk does not store the lattice of a class at its context's
  cutoff: it reads that class's ideals once, through
  ``ideals.ideal_masks``.
* ``hom_sets`` (``category``): hom sets by (source, target, mode); the
  objects carry their labels, so the key is the whole object.

Context tables live in ``FamilyContext.memo``, one dict per name, and
die with the context:

* ``splits``: the Hall split index by degree.
* ``component_splits``: the split table of each connected class below
  the cutoff by key, its sides as key pairs.
* ``intervals``: the interval classes of each poset's ideal splits by
  (leq, colors).
* ``hom_tables``: the composition table of the category checks by its
  size bound; one entry per bound asked for, each built for exactly it.
* ``antipode`` and ``schmitt_antipode``: both antipodes of a class by key.

``posets._BYTE_TABLES`` is not a memo table: its 256 slots depend on no
input, so it never grows and there is nothing to clear.
"""

from __future__ import annotations

from typing import Any

PROCESS_TABLES = ("canonical_keys", "iso_signatures", "ideal_lattices", "hom_sets")
CONTEXT_TABLES = ("splits", "component_splits", "intervals", "hom_tables", "antipode", "schmitt_antipode")

_process: dict[str, dict] = {name: {} for name in PROCESS_TABLES}


def process_table(name: str) -> dict:
    """The process table ``name``; a ``KeyError`` for an undeclared name."""
    return _process[name]


def context_tables() -> dict[str, dict]:
    """A fresh set of empty context tables, one per declared name."""
    return {name: {} for name in CONTEXT_TABLES}


def stats(ctx: Any = None) -> dict[str, int]:
    """Entries per table: the process tables, then those of ``ctx`` if given."""
    out = {name: len(table) for name, table in _process.items()}
    if ctx is not None:
        out.update((name, len(table)) for name, table in ctx.memo.items())
    return out


def clear() -> None:
    """Empty every process table; context tables go with their context."""
    for table in _process.values():
        table.clear()
