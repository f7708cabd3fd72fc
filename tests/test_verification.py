import json

import pytest

import inccat.category as category
import inccat.verification as verification
from inccat import jsonio
from inccat.category import (
    Morphism,
    compose,
    hom_set,
    identity,
    is_epi,
    is_mono,
    short_exact_sequences,
    zero_morphism,
)
from inccat.cli import main
from inccat.families import colored_sets_up_to, fin_up_to, forests_up_to, sets_up_to
from inccat.ideals import order_ideals
from inccat.posets import canonical_form, induced_subposet
from inccat.verification import (
    CheckResult,
    category_suite,
    check_associativity,
    check_cokernel_universal,
    check_kernel_universal,
    check_mono_epi_cancellation,
    check_ses_classification,
    check_unit_laws,
    run_verification,
)

TABLE_CHECKS = (
    "check_unit_laws",
    "check_associativity",
    "check_kernel_universal",
    "check_cokernel_universal",
    "check_mono_epi_cancellation",
)


@pytest.fixture
def fresh_fin():
    """A context of its own, so no clean table is memoized from another test."""
    return fin_up_to(3)


class TestCheckResult:
    def test_ok_line(self):
        assert CheckResult("x", True, "5 checked").line() == "ok   x (5 checked)"

    def test_fail_line(self):
        line = CheckResult("x", False, "1 failure(s)", {"m": 1}).line()
        assert line.startswith("FAIL x")


class TestSuitesPass:
    def test_run_verification_sets(self):
        results = run_verification(sets_up_to(4), 2, 2, 3, 3, 3, seed=1)
        assert results and all(r.passed for r in results)

    def test_cancellation_reads_prefix_of_larger_table(self):
        # a larger bound replaces the table; that one table then serves
        # every check at bounds 2 and 3, and each result, "N checked"
        # included, equals the check's on a table of its own bound
        ctx = fin_up_to(3)
        check_associativity(ctx, 2)
        small = ctx.memo["hom_tables"]
        check_associativity(ctx, 3)
        table = ctx.memo["hom_tables"]
        assert table is not small
        for name in TABLE_CHECKS:
            check = getattr(verification, name)
            for bound in (2, 3):
                own = check(fin_up_to(3), bound)
                assert own.passed and check(ctx, bound) == own, (name, bound)
        assert ctx.memo["hom_tables"] is table

    def test_suite_calls_each_public_check_once(self, monkeypatch):
        # the benchmark's per-check timings wrap these module globals
        calls = dict.fromkeys(TABLE_CHECKS, 0)
        for name in TABLE_CHECKS:
            original = getattr(verification, name)

            def counting(ctx, max_size, name=name, original=original):
                calls[name] += 1
                return original(ctx, max_size)

            monkeypatch.setattr(verification, name, counting)
        category_suite(fin_up_to(3), 3, 3)
        assert calls == dict.fromkeys(TABLE_CHECKS, 1)

    @pytest.mark.parametrize(
        "make, bounds",
        [(lambda: fin_up_to(3), (3, 3)), (lambda: forests_up_to(3), (3, 2))],
        ids=["fin3-own-table", "forests3-prefix"],
    )
    def test_universal_checks_on_shared_table_match_public(self, make, bounds):
        # with universal < assoc, category_suite reads a prefix of the
        # associativity table; on a fresh context each check builds its own
        ctx = make()
        universal = bounds[1]
        results = {r.name: r for r in category_suite(ctx, *bounds)}
        checks = (check_kernel_universal, check_cokernel_universal, check_mono_epi_cancellation)
        for public in checks:
            own = public(make(), universal)
            assert own.passed and results[own.name] == own

    def test_suite_builds_no_hom_set_above_the_table_bound(self, monkeypatch):
        # the SES check runs one size above the table; it reads only monos
        # and epis there, so no full hom set of a larger object is built
        monkeypatch.setattr(category, "_hom_sets", {})
        ctx = fin_up_to(4)
        results = category_suite(ctx, 3, 3)
        assert all(r.passed for r in results)
        assert results[-1].name == "category.ses-classification[n<=4]"
        bound = ctx.memo["hom_tables"].max_size
        assert bound == 3 and category._hom_sets
        assert all(a.size <= bound and b.size <= bound for a, b, _ in category._hom_sets)


def filtered_ses_classification(ctx, max_size):
    """The SES check as it read before monos/epis: full hom sets, filtered."""
    objects = verification._objects_of(ctx, max_size)
    failures = []
    checked = 0
    for b in objects:
        epis_to = [(c, [e for e in hom_set(b, c, ctx.mode) if is_epi(e)]) for c in objects]
        for a in objects:
            monos = [m for m in hom_set(a, b, ctx.mode) if is_mono(m)]
            for c, epis in epis_to:
                for f in monos:
                    for g in epis:
                        if f.i2 != g.i1:
                            continue
                        checked += 1
                        sub, _ = induced_subposet(b.poset, f.i2)
                        rest, _ = induced_subposet(b.poset, b.poset.full_mask & ~f.i2)
                        ok = canonical_form(a.poset, ctx.mode) == canonical_form(
                            sub, ctx.mode
                        ) and canonical_form(c.poset, ctx.mode) == canonical_form(rest, ctx.mode)
                        if not ok:
                            failures.append(
                                {
                                    "f": jsonio.morphism_to_doc(f),
                                    "g": jsonio.morphism_to_doc(g),
                                }
                            )
    for b in objects:
        sequences = short_exact_sequences(b, ctx.mode)
        checked += len(sequences)
        if len(sequences) != len(order_ideals(b.poset)):
            failures.append({"middle": jsonio.poset_to_doc(b.poset)})
    return verification._result(
        f"category.ses-classification[n<={max_size}]", failures, checked
    )


@pytest.mark.parametrize(
    "make, bound",
    [
        (lambda: fin_up_to(4), 4),
        (lambda: forests_up_to(4), 4),
        (lambda: colored_sets_up_to(3, 2), 3),
    ],
    ids=["fin4", "forests4", "csets2-3"],
)
def test_ses_classification_matches_filtered_hom_sets(make, bound, monkeypatch):
    monkeypatch.setattr(category, "_hom_sets", {})
    expected = filtered_ses_classification(make(), bound)
    result = check_ses_classification(make(), bound)
    assert result == expected and result.passed


class TestFailureDetection:
    """The checkers must notice a broken composition, not pass vacuously."""

    def test_unit_check_catches_broken_compose(self, fresh_fin, monkeypatch):
        def sabotaged(second, first):
            from inccat.category import zero_morphism

            result = compose(second, first)
            if first.source.size == 1 and result.i2 != 0:
                return zero_morphism(result.source, result.target, result.mode)
            return result

        monkeypatch.setattr(verification, "compose", sabotaged)
        result = check_unit_laws(fresh_fin, 1)
        assert not result.passed
        assert result.counterexample is not None

    def test_associativity_catches_biased_compose(self, fresh_fin, monkeypatch):
        calls = {"n": 0}

        def flaky(second, first):
            calls["n"] += 1
            result = compose(second, first)
            if calls["n"] % 97 == 0 and not result.is_zero:
                from inccat.category import zero_morphism

                return zero_morphism(result.source, result.target, result.mode)
            return result

        monkeypatch.setattr(verification, "compose", flaky)
        result = check_associativity(fresh_fin, 2)
        assert not result.passed


def corrupt_one_composite(monkeypatch, chooses):
    """Make ``verification.compose`` return zero for one composable pair.

    The pair is the first one with a nonzero composite that ``chooses``
    accepts; every later composition of that same pair is corrupted too.
    """
    corrupted = []

    def sabotaged(second, first):
        result = compose(second, first)
        if not corrupted and not result.is_zero and chooses(second, first):
            corrupted.append((second, first))
        if corrupted and corrupted[0] == (second, first):
            return zero_morphism(result.source, result.target, result.mode)
        return result

    monkeypatch.setattr(verification, "compose", sabotaged)
    return corrupted


def record_calls(monkeypatch, name):
    """Wrap ``verification.<name>`` and collect the morphisms it returns."""
    made = []
    original = getattr(verification, name)

    def recording(m):
        out = original(m)
        made.append(out)
        return out

    monkeypatch.setattr(verification, name, recording)
    return made


class TestTabulatedChecksCatchCorruption:
    """A single wrong composite in a tabulated check must surface as a failure."""

    def test_kernel_universal(self, fresh_fin, monkeypatch):
        kernels = record_calls(monkeypatch, "kernel")
        corrupted = corrupt_one_composite(monkeypatch, lambda second, first: second in kernels)
        result = check_kernel_universal(fresh_fin, 2)
        assert corrupted
        assert not result.passed
        assert result.counterexample["factorizations"] != 1

    def test_cokernel_universal(self, fresh_fin, monkeypatch):
        cokernels = record_calls(monkeypatch, "cokernel")
        corrupted = corrupt_one_composite(monkeypatch, lambda second, first: first in cokernels)
        result = check_cokernel_universal(fresh_fin, 2)
        assert corrupted
        assert not result.passed
        assert result.counterexample["factorizations"] != 1

    def test_universal_checks_on_shared_table(self, fresh_fin, monkeypatch):
        # the table says g o f = 0, but f does not factor through ker(g)
        # and g does not factor through coker(f)
        build = verification._hom_tables
        corrupted = []

        def corrupting(ctx, max_size):
            # every check asks for the memoized table; corrupt it only once
            tables = build(ctx, max_size)
            if corrupted:
                return tables
            for g, row in tables.rows.items():
                into_c = tables.into[g.target]
                for i, k in enumerate(row):
                    if not into_c[k].is_zero:
                        f = tables.into[g.source][i]
                        zero = zero_morphism(f.source, g.target, g.mode)
                        zero_id = tables.intern[g.target][zero]
                        tables.rows[g] = row[:i] + (zero_id,) + row[i + 1 :]
                        corrupted.append((g, f))
                        return tables
            return tables

        monkeypatch.setattr(verification, "_hom_tables", corrupting)
        results = {r.name: r for r in category_suite(fresh_fin, 2, 2)}
        assert corrupted
        g, f = corrupted[0]
        for name, m, u in (("kernel", g, f), ("cokernel", f, g)):
            result = results[f"category.{name}-universal[n<=2]"]
            assert not result.passed
            assert result.counterexample == {
                "m": jsonio.morphism_to_doc(m),
                "u": jsonio.morphism_to_doc(u),
                "factorizations": 0,
            }

    def test_mono_epi_cancellation_on_shared_table(self, fresh_fin, monkeypatch):
        # id o f collides with id o 0 in the identity's row, so id stops
        # looking left-cancellable although it is a mono
        corrupted = corrupt_one_composite(
            monkeypatch, lambda second, first: second == identity(second.source, second.mode)
        )
        results = {r.name: r for r in category_suite(fresh_fin, 2, 2)}
        result = results["category.mono-epi-cancellation[n<=2]"]
        assert corrupted
        assert not result.passed
        assert result.counterexample["side"] == "mono"


class TestVerifyCliFailurePath:
    def test_exit_one_with_counterexample(self, monkeypatch, capsys):
        def fake_run(*args, **kwargs):
            return [CheckResult("fake.axiom", False, "1 failure(s)", {"why": "broken"})]

        monkeypatch.setattr("inccat.cli.run_verification", fake_run)
        code = main(["verify", "--family", "sets", "--max-size", "2", "--quick"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL fake.axiom" in out
        assert json.loads(out.splitlines()[-1]) == {"why": "broken"}
