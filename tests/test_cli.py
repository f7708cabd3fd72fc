import json
from pathlib import Path

import pytest

from inccat import hall
from inccat.cli import main
from inccat.families import family_from_spec
from inccat.hall import structure_constant

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture()
def files(tmp_path):
    docs = {
        "chain2.json": {"elements": ["a", "b"], "covers": [["a", "b"]]},
        "n1.json": {"elements": ["u"], "covers": []},
        "n2.json": {"elements": ["x", "y"], "covers": []},
        "dot.json": {"elements": ["p"], "covers": []},
        "m_inc.json": {
            "source": {"elements": ["p"], "covers": []},
            "target": {"elements": ["a", "b"], "covers": [["a", "b"]]},
            "I1": [],
            "I2": ["a"],
            "f": {"p": "a"},
        },
        "m_proj.json": {
            "source": {"elements": ["a", "b"], "covers": [["a", "b"]]},
            "target": {"elements": ["p"], "covers": []},
            "I1": ["a"],
            "I2": ["p"],
            "f": {"b": "p"},
        },
    }
    for name, doc in docs.items():
        (tmp_path / name).write_text(json.dumps(doc))
    return tmp_path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, out


class TestIdeals:
    def test_three_lines(self, files, capsys):
        code, out = run(capsys, "ideals", files / "chain2.json")
        assert code == 0
        assert out.splitlines() == ["3", "{}", "{a}", "{a,b}"]

    def test_golden_json(self, files, capsys):
        code, out = run(capsys, "ideals", "--json", files / "chain2.json")
        assert code == 0
        assert out == (GOLDEN / "ideals_chain2.json").read_text()


class TestHomCompose:
    def test_hom_count(self, files, capsys):
        code, out = run(capsys, "hom", files / "dot.json", files / "chain2.json")
        assert code == 0
        assert out.splitlines()[0] == "2"

    def test_compose_gives_zero(self, files, capsys):
        code, out = run(capsys, "compose", files / "m_inc.json", files / "m_proj.json")
        assert code == 0
        doc = json.loads(out)
        assert doc["I2"] == [] and doc["I1"] == ["p"]

    def test_kernel(self, files, capsys):
        code, out = run(capsys, "kernel", files / "m_proj.json")
        assert code == 0
        doc = json.loads(out)
        assert doc["I1"] == [] and doc["I2"] == ["a"]

    def test_cokernel(self, files, capsys):
        code, out = run(capsys, "cokernel", files / "m_inc.json")
        assert code == 0
        doc = json.loads(out)
        assert doc["I1"] == ["a"] and doc["target"]["elements"] == ["b"]

    def test_ses(self, files, capsys):
        code, out = run(capsys, "ses", files / "chain2.json")
        assert code == 0
        assert out.splitlines()[0] == "3"


class TestHallCommands:
    def test_product_binomial(self, files, capsys):
        code, out = run(
            capsys,
            "product", "--family", "sets", "--max-size", "8", "--json",
            files / "n2.json", files / "n1.json",
        )
        assert code == 0
        assert out == (GOLDEN / "product_sets_2_1.json").read_text()
        doc = json.loads(out)
        assert list(doc.values()) == ["3"]

    def test_coproduct(self, files, capsys):
        code, out = run(
            capsys,
            "coproduct", "--family", "fin", "--max-size", "4", "--json",
            files / "n2.json",
        )
        assert code == 0
        triples = json.loads(out)
        assert len(triples) == 3

    def test_antipode(self, files, capsys):
        code, out = run(
            capsys,
            "antipode", "--family", "fin", "--max-size", "4", "--json",
            files / "dot.json",
        )
        assert code == 0
        assert list(json.loads(out).values()) == ["-1"]

    def test_constants_tsv(self, files, capsys):
        code, out = run(capsys, "constants", "--family", "fin", "--max-size", "3", "--size", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "P\tQ\tR\tN"
        assert all(len(line.split("\t")) == 4 for line in lines[1:])

    @pytest.mark.parametrize("spec", ["fin", "csets:2"])
    @pytest.mark.parametrize("size", range(5))
    def test_constants_match_structure_constant(self, spec, size, capsys):
        # Oracle, kept apart from split_index on purpose: structure_constant
        # (isomorphism search, no canonical keys) over every class triple.
        ctx = family_from_spec(spec, 4)
        expected = sorted(
            (p.hex_key, q.hex_key, r.hex_key, n)
            for r in ctx.classes(size)
            for a in range(size + 1)
            for p in ctx.classes(a)
            for q in ctx.classes(size - a)
            if (n := structure_constant(p, q, r))
        )
        code, out = run(capsys, "constants", "--family", spec, "--max-size", 4, "--size", size)
        assert code == 0
        assert out.splitlines() == ["P\tQ\tR\tN"] + ["\t".join(map(str, row)) for row in expected]

    def test_primitives(self, files, capsys):
        code, out = run(
            capsys, "primitives", "--family", "fin", "--max-size", "4", "--degree", "2"
        )
        assert code == 0
        assert out.splitlines()[0] == "1"

    def test_k0_golden(self, files, capsys):
        code, out = run(
            capsys, "k0", "--family", "fin", "--max-size", "3", "--cutoff", "3", "--json"
        )
        assert code == 0
        assert out == (GOLDEN / "k0_fin_cutoff3.json").read_text()

    def test_k0_builds_no_relation_row(self, capsys, monkeypatch):
        # The rows are the Smith oracle's view; the command reads the count.
        def no_rows(pres):
            raise AssertionError("inccat k0 built the relation rows")

        monkeypatch.setattr(hall.K0Presentation, "relations", property(no_rows))
        argv = ("k0", "--family", "fin", "--max-size", "3", "--cutoff", "3")
        assert run(capsys, *argv, "--json") == (0, (GOLDEN / "k0_fin_cutoff3.json").read_text())
        assert run(capsys, *argv) == (
            0,
            "family fin, cutoff 3 (truncated presentation)\n"
            "generators 9, relations 38\n"
            "invariant factors [1, 1, 1, 1, 1, 1, 1, 1]\n"
            "free rank 1, torsion []\n",
        )


class TestFamilyDump:
    def test_golden(self, capsys):
        code, out = run(
            capsys, "family", "dump", "--family", "forests", "--max-size", "3", "--size", "3"
        )
        assert code == 0
        assert out == (GOLDEN / "dump_forests_3.jsonl").read_text()

    def test_round_trip_through_ideals(self, tmp_path, capsys):
        code, out = run(
            capsys, "family", "dump", "--family", "fin", "--max-size", "3", "--size", "3"
        )
        assert code == 0
        for i, line in enumerate(out.splitlines()):
            path = tmp_path / f"rep{i}.json"
            path.write_text(line)
            code, _ = run(capsys, "ideals", path)
            assert code == 0


class TestVerify:
    def test_quick_passes(self, capsys):
        code, out = run(
            capsys, "verify", "--family", "fin", "--max-size", "3", "--quick"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("verify family=fin")
        assert all(line.startswith("ok") for line in lines[1:])

    def test_colored_golden(self, capsys):
        # color mode end to end: every "N checked" count is pinned
        code, out = run(capsys, "verify", "--family", "csets:2", "--max-size", "3")
        assert code == 0
        assert out == (GOLDEN / "verify_csets2_3.stdout").read_text()

    def test_small_bounds_golden(self, capsys):
        # --deep 0 gives the associativity scan rows of width one
        out = ""
        for bounds in (["--deep", "0"], ["--deep", "1"], ["--quick"], ["--deep", "3"]):
            code, part = run(capsys, "verify", "--family", "fin", "--max-size", "3", *bounds)
            assert code == 0
            out += part
        assert out == (GOLDEN / "verify_fin3_bounds.stdout").read_text()

    def test_seed_printed(self, capsys):
        code, out = run(
            capsys, "verify", "--family", "sets", "--max-size", "2", "--quick",
            "--seed", "99",
        )
        assert code == 0
        assert "seed=99" in out.splitlines()[0]

    def test_deterministic_output(self, capsys):
        _, first = run(capsys, "verify", "--family", "sets", "--max-size", "3", "--quick")
        _, second = run(capsys, "verify", "--family", "sets", "--max-size", "3", "--quick")
        assert first == second

    def test_schmitt_only(self, capsys):
        code, out = run(
            capsys, "verify", "--family", "sets", "--max-size", "3", "--quick",
            "--schmitt",
        )
        assert code == 0
        lines = out.splitlines()[1:]
        assert lines and all("schmitt." in line for line in lines)


class TestErrors:
    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_quick_with_deep_exit_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--family", "sets", "--max-size", "3", "--quick", "--deep", "1"])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "not allowed with argument" in captured.err

    def test_missing_file_exit_2(self, capsys):
        assert main(["ideals", "/nonexistent/poset.json"]) == 2

    def test_bad_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["ideals", str(path)]) == 2

    @pytest.mark.parametrize(
        "command, doc",
        [
            ("ideals", {"elements": 5}),
            ("ideals", {"elements": ["a", "b", "c"], "covers": [["a", "b", "c"]]}),
            ("ideals", {"elements": ["a"], "colors": [1]}),
            ("ideals", {"elements": ["a"], "colors": {"a": "x"}}),
            ("ideals", {"elements": [["x"]]}),
            ("ideals", ["a", "b"]),
            ("kernel", {
                "source": {"elements": ["a", "b"], "covers": [["a", "b"]]},
                "target": {"elements": ["b"]},
                "I1": ["a"], "I2": ["b"], "f": ["b"],
            }),
            ("kernel", {
                "source": {"elements": ["a"]}, "target": {"elements": ["a"]},
                "I1": "a", "I2": [], "f": {},
            }),
            ("kernel", {"source": {"elements": ["a"]}, "target": {"elements": 5},
                        "I1": [], "I2": [], "f": {}}),
            ("kernel", {
                "source": {"elements": ["a", "b"], "covers": [["a", "b"]]},
                "target": {"elements": ["x"]},
                "I1": ["a"], "I2": ["x"], "f": {"a": "x", "b": "x"},
            }),
            ("kernel", {
                "source": {"elements": ["a", "b"], "covers": [["a", "b"]]},
                "target": {"elements": ["x"]},
                "I1": ["a"], "I2": ["x"], "f": {"b": "x", "zzz": "x"},
            }),
        ],
    )
    def test_malformed_document_exit_2(self, tmp_path, capsys, command, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: malformed")

    def test_non_member_exit_2(self, files, capsys):
        assert (
            main(
                ["product", "--family", "sets", "--max-size", "4",
                 str(files / "chain2.json"), str(files / "n1.json")]
            )
            == 2
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["family", "dump", "--family", "fin", "--max-size", "2", "--size", "-1"],
            ["primitives", "--family", "fin", "--max-size", "2", "--degree", "-1"],
            ["constants", "--family", "fin", "--max-size", "2", "--size", "-1"],
            ["k0", "--family", "fin", "--max-size", "2", "--cutoff", "-1"],
            ["k0", "--family", "fin", "--max-size", "-1", "--cutoff", "-1"],
            ["verify", "--family", "sets", "--max-size", "-1"],
            ["verify", "--family", "sets", "--max-size", "2", "--deep", "-1"],
        ],
    )
    def test_negative_size_exit_2(self, argv, capsys):
        code, out = run(capsys, *argv)
        assert code == 2 and out == ""

    def test_family_over_the_cap_exit_2(self, files, capsys):
        code = main(
            ["product", "--family", "sets", "--max-size", "33",
             str(files / "dot.json"), str(files / "dot.json")]
        )
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "cap 32" in captured.err

    @pytest.mark.parametrize("spec", ["csets:257", "cforests:257"])
    def test_too_many_colors_exit_2(self, spec, capsys):
        code = main(["family", "dump", "--family", spec, "--max-size", "1", "--size", "1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "256 colors" in captured.err

    def test_cover_cycle_exit_2(self, tmp_path, capsys):
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps({"elements": ["a", "b"], "covers": [["a", "b"], ["b", "a"]]}))
        code = main(["ideals", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "cover relation contains a cycle" in captured.err

    @pytest.mark.parametrize("env", [None, "300"], ids=["no-env", "env-300"])
    def test_poset_over_the_cap_exit_2(self, env, tmp_path, capsys, monkeypatch):
        # The cap is a fixed 32; the environment variable that once moved it is ignored.
        if env is not None:
            monkeypatch.setenv("INCCAT_MAX_POSET_SIZE", env)
        names = [f"e{i}" for i in range(33)]
        path = tmp_path / "chain33.json"
        path.write_text(json.dumps({"elements": names, "covers": [list(c) for c in zip(names, names[1:])]}))
        code = main(["ideals", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "cap 32" in captured.err
