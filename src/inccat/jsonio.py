"""JSON serialization for posets, morphisms and Hall elements.

The poset document format (consumed by the CLI, produced by the family
dump) is::

    { "elements": ["a", "b", ...],
      "covers":   [["a", "b"], ...],
      "colors":   {"a": 0, ...} }          # optional

with the element order fixing indices 0..n-1.  A morphism document embeds
its source and target posets (a bare triple does not determine the
ambient objects)::

    { "source": {...}, "target": {...},
      "I1": ["a", ...], "I2": ["x", ...],
      "f": {"b": "x", ...} }

Hall elements serialize as JSON maps from canonical-key hex to rational
strings "p/q"; canonical keys serialize as lowercase hex.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .category import CategoryObject, Morphism
from .errors import IncCatError, PosetError
from .families import FamilyContext
from .hall import HallElement, TensorElement
from .posets import MapMode, Poset, bits, from_covers, mask_of


def poset_to_doc(p: Poset) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "elements": list(p.labels),
        "covers": [[p.labels[i], p.labels[j]] for i, j in p.covers],
    }
    if any(p.colors):
        doc["colors"] = {p.labels[i]: p.colors[i] for i in range(p.size)}
    return doc


def _is_list_of(value: Any, item_ok) -> bool:
    return isinstance(value, (list, tuple)) and all(item_ok(item) for item in value)


def _is_label(value: Any) -> bool:
    return isinstance(value, str)


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_poset_doc(doc: Any) -> None:
    """Raise PosetError unless the document has the poset shape."""
    if not isinstance(doc, dict) or "elements" not in doc:
        raise PosetError("malformed poset document: expected an object with 'elements'")
    if not _is_list_of(doc["elements"], _is_label):
        raise PosetError("malformed poset document: 'elements' must be a list of strings")
    if not _is_list_of(
        doc.get("covers", []), lambda pair: _is_list_of(pair, _is_label) and len(pair) == 2
    ):
        raise PosetError("malformed poset document: 'covers' must be a list of label pairs")
    colors = doc.get("colors")
    if colors is not None and not (
        isinstance(colors, dict) and all(_is_int(v) for v in colors.values())
    ):
        raise PosetError("malformed poset document: 'colors' must map labels to integers")


def poset_from_doc(doc: dict[str, Any]) -> Poset:
    _check_poset_doc(doc)
    covers = [tuple(pair) for pair in doc.get("covers", [])]
    return from_covers(doc["elements"], covers, doc.get("colors"))


def load_poset(path: str) -> Poset:
    with open(path, encoding="utf-8") as handle:
        return poset_from_doc(json.load(handle))


def _labels_to_mask(p: Poset, labels: list[str], what: str) -> int:
    index = {lab: i for i, lab in enumerate(p.labels)}
    try:
        return mask_of(index[lab] for lab in labels)
    except KeyError as exc:
        raise PosetError(f"{what} references unknown label {exc.args[0]!r}") from exc


def morphism_to_doc(m: Morphism) -> dict[str, Any]:
    p1, p2 = m.source.poset, m.target.poset
    return {
        "source": poset_to_doc(p1),
        "target": poset_to_doc(p2),
        "I1": [p1.labels[i] for i in bits(m.i1)],
        "I2": [p2.labels[i] for i in bits(m.i2)],
        "f": {p1.labels[a]: p2.labels[b] for a, b in zip(m.domain_elements, m.fmap)},
    }


def _check_morphism_doc(doc: Any) -> None:
    """Raise PosetError unless the document has the morphism shape.

    The embedded source and target are checked by ``poset_from_doc``.
    """
    if not isinstance(doc, dict) or not {"source", "target", "I1", "I2", "f"} <= doc.keys():
        raise PosetError(
            "malformed morphism document: expected an object with "
            "'source', 'target', 'I1', 'I2' and 'f'"
        )
    for key in ("I1", "I2"):
        if not _is_list_of(doc[key], _is_label):
            raise PosetError(f"malformed morphism document: {key!r} must be a list of labels")
    if not (isinstance(doc["f"], dict) and all(_is_label(v) for v in doc["f"].values())):
        raise PosetError("malformed morphism document: 'f' must map labels to labels")


def morphism_from_doc(doc: dict[str, Any], mode: MapMode = MapMode.ALL_POSET_ISOS) -> Morphism:
    _check_morphism_doc(doc)
    source = poset_from_doc(doc["source"])
    target = poset_from_doc(doc["target"])
    fmap_labels = doc["f"]
    i1 = _labels_to_mask(source, doc["I1"], "I1")
    i2 = _labels_to_mask(target, doc["I2"], "I2")
    domain = [source.labels[i] for i in bits(source.full_mask & ~i1)]
    if fmap_labels.keys() != set(domain):
        raise PosetError(f"malformed morphism document: 'f' must map exactly P1 \\ I1 = {domain}")
    tgt_index = {lab: i for i, lab in enumerate(target.labels)}
    fmap = []
    for lab in domain:
        image_label = fmap_labels[lab]
        if image_label not in tgt_index:
            raise PosetError(f"f references unknown target label {image_label!r}")
        fmap.append(tgt_index[image_label])
    return Morphism(CategoryObject(source), CategoryObject(target), i1, i2, tuple(fmap), mode)


def load_morphism(path: str, mode: MapMode = MapMode.ALL_POSET_ISOS) -> Morphism:
    with open(path, encoding="utf-8") as handle:
        return morphism_from_doc(json.load(handle), mode)


def fraction_to_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}" if value.denominator != 1 else str(
        value.numerator
    )


def str_to_fraction(text: str) -> Fraction:
    """Parse a rational string such as "p/q"; anything else raises IncCatError."""
    if isinstance(text, str):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            pass
    raise IncCatError(f"not a rational number: {text!r}")


def ordered_hall_items(f: HallElement) -> list:
    """(class, coefficient) pairs in output order: by size, then by key."""
    return sorted(f.items(), key=lambda kv: (kv[0].size, kv[0].key))


def hall_element_to_doc(f: HallElement) -> dict[str, str]:
    return {cls.hex_key: fraction_to_str(value) for cls, value in ordered_hall_items(f)}


def hall_element_from_doc(doc: dict[str, str], ctx: FamilyContext) -> HallElement:
    if not isinstance(doc, dict):
        raise IncCatError("malformed Hall element document: expected an object")
    by_key = {cls.hex_key: cls for cls in ctx.all_classes()}
    coeffs = {}
    for hex_key, text in doc.items():
        cls = by_key.get(hex_key)
        if cls is None:
            raise IncCatError(f"unknown canonical key {hex_key!r} for family {ctx.name!r}")
        coeffs[cls] = str_to_fraction(text)
    return HallElement(coeffs)


def tensor_element_to_doc(t: TensorElement) -> list[list[str]]:
    def sort_key(kv):
        (a, b), _ = kv
        return (a.size, b.size, a.key, b.key)

    return [
        [a.hex_key, b.hex_key, fraction_to_str(v)]
        for (a, b), v in sorted(t.items(), key=sort_key)
    ]


def dumps(payload: Any) -> str:
    """Deterministic JSON text: sorted keys, compact separators, newline."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
