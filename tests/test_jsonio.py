import pytest

from inccat import jsonio
from inccat.category import CategoryObject, Morphism, hom_set, kernel
from inccat.errors import IncCatError, PosetError
from inccat.families import fin_up_to
from inccat.hall import delta, product
from inccat.posets import Poset, from_covers


class TestPosetDocs:
    def test_roundtrip(self, chain3):
        doc = jsonio.poset_to_doc(chain3)
        assert doc == {
            "elements": ["a", "b", "c"],
            "covers": [["a", "b"], ["b", "c"]],
        }
        back = jsonio.poset_from_doc(doc)
        assert back == chain3

    def test_colors_roundtrip(self):
        p = Poset((1, 2), ("r", "b"), (0, 1))
        doc = jsonio.poset_to_doc(p)
        assert doc["colors"] == {"r": 0, "b": 1}
        assert jsonio.poset_from_doc(doc) == p

    def test_colors_omitted_when_zero(self, chain2):
        assert "colors" not in jsonio.poset_to_doc(chain2)

    def test_malformed_rejected(self):
        with pytest.raises(PosetError):
            jsonio.poset_from_doc({"covers": []})
        with pytest.raises(PosetError):
            jsonio.poset_from_doc({"elements": ["a"], "covers": [["a", "z"]]})

    @pytest.mark.parametrize(
        "doc",
        [
            None,
            {"elements": 5},
            {"elements": [["x"]]},
            {"elements": [1]},
            {"elements": ["a", "b"], "covers": [["a"]]},
            {"elements": ["a", "b"], "covers": [["a", "b", "a"]]},
            {"elements": ["a", "b"], "covers": "ab"},
            {"elements": ["a"], "colors": [1]},
            {"elements": ["a"], "colors": {"a": "x"}},
            {"elements": ["a"], "colors": {"a": True}},
            {"elements": ["a"], "colors": {"a": 1.0}},
        ],
    )
    def test_wrong_shape_rejected(self, doc):
        with pytest.raises(PosetError):
            jsonio.poset_from_doc(doc)


class TestMorphismDocs:
    def test_roundtrip_all_morphisms(self, dot, chain2, antichain2):
        for a in (dot, chain2, antichain2):
            for b in (dot, chain2, antichain2):
                for m in hom_set(CategoryObject(a), CategoryObject(b)):
                    doc = jsonio.morphism_to_doc(m)
                    assert jsonio.morphism_from_doc(doc) == m

    def test_spec_shape(self, chain2):
        m = kernel(
            Morphism(
                CategoryObject(chain2),
                CategoryObject(from_covers(["p"], [])),
                0b01,
                0b1,
                (0,),
            )
        )
        doc = jsonio.morphism_to_doc(m)
        assert set(doc) == {"source", "target", "I1", "I2", "f"}
        assert doc["I1"] == [] and doc["I2"] == ["a"] and doc["f"] == {"a": "a"}

    def test_missing_image_rejected(self, chain2, dot):
        doc = {
            "source": jsonio.poset_to_doc(dot),
            "target": jsonio.poset_to_doc(chain2),
            "I1": [],
            "I2": ["a"],
            "f": {},
        }
        with pytest.raises(PosetError):
            jsonio.morphism_from_doc(doc)


class TestHallDocs:
    def test_rational_strings(self):
        from fractions import Fraction

        fin = fin_up_to(4)
        dot = fin.classes(1)[0]
        f = product(delta(dot), delta(dot), fin) * Fraction(1, 2)
        doc = jsonio.hall_element_to_doc(f)
        assert set(doc.values()) == {"1", "1/2"}

    def test_hex_keys_roundtrip(self):
        fin = fin_up_to(4)
        dot = fin.classes(1)[0]
        f = product(delta(dot), delta(dot), fin)
        doc = jsonio.hall_element_to_doc(f)
        assert all(
            bytes.fromhex(k) == cls.key
            for k, cls in zip(sorted(doc), sorted(f.coeffs, key=lambda c: c.key))
        )
        assert jsonio.hall_element_from_doc(doc, fin) == f

    def test_unknown_key_rejected(self):
        fin = fin_up_to(2)
        with pytest.raises(IncCatError):
            jsonio.hall_element_from_doc({"deadbeef": "1"}, fin)

    @pytest.mark.parametrize("text", ["x", "1/0", "0/0", "", "1/2/3", None, 3])
    def test_bad_rational_rejected(self, text):
        with pytest.raises(IncCatError):
            jsonio.str_to_fraction(text)

    def test_rational_parsed(self):
        from fractions import Fraction

        assert jsonio.str_to_fraction("-6/4") == Fraction(-3, 2)
        assert jsonio.str_to_fraction("5") == 5

    def test_bad_coefficient_rejected(self):
        fin = fin_up_to(2)
        doc = {fin.classes(1)[0].hex_key: "1/0"}
        with pytest.raises(IncCatError):
            jsonio.hall_element_from_doc(doc, fin)
        with pytest.raises(IncCatError):
            jsonio.hall_element_from_doc(["1"], fin)

    def test_deterministic_dumps(self):
        payload = {"b": 1, "a": [2, 3]}
        assert jsonio.dumps(payload) == '{"a":[2,3],"b":1}\n'
