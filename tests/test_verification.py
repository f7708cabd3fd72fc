import dataclasses
import json

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import inccat.category as category
import inccat.incidence as incidence
import inccat.verification as verification
from inccat import jsonio, memo
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
from inccat.families import (
    colored_forests_up_to,
    colored_sets_up_to,
    fin_up_to,
    forests_up_to,
    sets_up_to,
)
from inccat.ideals import order_ideals
from inccat.posets import Poset, canonical_form, induced_subposet
from inccat.verification import (
    CheckResult,
    category_suite,
    check_associativity,
    check_cokernel_universal,
    check_interval_ideal_dictionary,
    check_kernel_universal,
    check_mono_epi_cancellation,
    check_phi_intertwines,
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

    def test_each_bound_reads_a_table_of_its_own(self):
        # checks at bound 3 and then at bound 2 leave two tables, each
        # built for exactly its bound; every result, "N checked" included,
        # equals the check's on a fresh context
        ctx = fin_up_to(3)
        results = {
            (name, bound): getattr(verification, name)(ctx, bound)
            for bound in (3, 2)
            for name in TABLE_CHECKS
        }
        tables = ctx.memo["hom_tables"]
        assert sorted(tables) == [2, 3]
        for bound, table in tables.items():
            assert table.objects == verification._objects_of(ctx, bound)
        for (name, bound), result in results.items():
            own = getattr(verification, name)(fin_up_to(3), bound)
            assert own.passed and result == own, (name, bound)

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
        ids=["fin3-own-table", "forests3-two-bounds"],
    )
    def test_universal_checks_on_shared_table_match_public(self, make, bounds):
        # with universal < assoc, category_suite builds a second table for
        # the universal bound; on a fresh context each check builds its own
        ctx = make()
        universal = bounds[1]
        results = {r.name: r for r in category_suite(ctx, *bounds)}
        assert sorted(ctx.memo["hom_tables"]) == sorted(set(bounds))
        checks = (check_kernel_universal, check_cokernel_universal, check_mono_epi_cancellation)
        for public in checks:
            own = public(make(), universal)
            assert own.passed and results[own.name] == own

    def test_suite_builds_no_hom_set_above_the_table_bound(self, cold_memo):
        # the SES check runs one size above the table; it reads only monos
        # and epis there, so no full hom set of a larger object is built
        ctx = fin_up_to(4)
        results = category_suite(ctx, 3, 3)
        assert all(r.passed for r in results)
        assert results[-1].name == "category.ses-classification[n<=4]"
        (bound,) = ctx.memo["hom_tables"]
        hom_sets = memo.process_table("hom_sets")
        assert bound == 3 and hom_sets
        assert all(a.size <= bound and b.size <= bound for a, b, _ in hom_sets)


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
def test_ses_classification_matches_filtered_hom_sets(make, bound, cold_memo):
    expected = filtered_ses_classification(make(), bound)
    result = check_ses_classification(make(), bound)
    assert result == expected and result.passed


KEY_FAMILIES = {
    "fin3": lambda: fin_up_to(3),
    "csets2-3": lambda: colored_sets_up_to(3, 2),
    "cforests2-3": lambda: colored_forests_up_to(3, 2),
}


def as_morphism(key, f, g):
    """The morphism f.source -> g.target with the key's (K1, K3, h)."""
    return Morphism(f.source, g.target, key[1], key[2], key[3], f.mode)


def rows_by_compose(ctx, max_size):
    """The composition table as built before keys, by ``compose``.

    Returns the morphisms into each object, in table order, and yields
    per morphism g: b -> c the list of ``compose(g, f)`` over f into b.
    """
    objects = verification._objects_of(ctx, max_size)
    into = [[m for a in objects for m in hom_set(a, b, ctx.mode)] for b in objects]

    def rows():
        for b, into_b in enumerate(into):
            for c, target in enumerate(objects):
                for g in hom_set(objects[b], target, ctx.mode):
                    yield b, c, g, [compose(g, f) for f in into_b]

    return into, rows()


@pytest.mark.parametrize("family", KEY_FAMILIES)
def test_key_level_table_matches_compose(family):
    # on every composable pair the key composite, turned back into a
    # morphism, is compose(g, f); and the rows equal, entry for entry,
    # the table built by compose and interned by morphism
    ctx = KEY_FAMILIES[family]()
    tables = verification._hom_tables(ctx, 3)
    into, rows = rows_by_compose(ctx, 3)
    assert tables.into == into and not tables.unmatched
    intern = [{m: i for i, m in enumerate(ms)} for ms in into]
    arrows = [
        [verification._arrow(f, a) for a, (lo, hi) in enumerate(blocks) for f in into_b[lo:hi]]
        for into_b, blocks in zip(into, tables.blocks)
    ]
    row_count = 0
    for b, c, g, composites in rows:
        g_arrow = verification._arrow(g, -1)
        for f, f_arrow, gf in zip(into[b], arrows[b], composites):
            key = verification._composite_key(g_arrow, f_arrow)
            assert key[0] == f_arrow[0][0] and as_morphism(key, f, g) == gf, (g, f)
        g_id = into[c].index(g)
        assert tables.rows[c][g_id] == tuple([intern[c][gf] for gf in composites]), g
        row_count += 1
    assert row_count == sum(len(rows_c) for rows_c in tables.rows)


RANDOM_FAMILIES = {
    "fin4": lambda: fin_up_to(4),
    "forests5": lambda: forests_up_to(5),
    "csets2-4": lambda: colored_sets_up_to(4, 2),
    "cforests2-4": lambda: colored_forests_up_to(4, 2),
}
_random_objects: dict = {}


def random_objects(name):
    if name not in _random_objects:
        ctx = RANDOM_FAMILIES[name]()
        _random_objects[name] = (ctx.mode, verification._objects_of(ctx, ctx.max_size))
    return _random_objects[name]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_key_composite_matches_compose_on_random_pairs(data):
    mode, objects = random_objects(data.draw(st.sampled_from(sorted(RANDOM_FAMILIES))))
    a_index = data.draw(st.integers(0, len(objects) - 1))
    b, c = (data.draw(st.sampled_from(objects)) for _ in range(2))
    f = data.draw(st.sampled_from(hom_set(objects[a_index], b, mode)))
    g = data.draw(st.sampled_from(hom_set(b, c, mode)))
    key = verification._composite_key(verification._arrow(g, -1), verification._arrow(f, a_index))
    assert key[0] == a_index
    assert as_morphism(key, f, g) == compose(g, f)


def sabotage_composites(monkeypatch, corrupt):
    """Route every key-level composite through ``corrupt(second, first, key)``.

    ``verification._arrow`` is wrapped so that each arrow maps back to the
    morphism it was made from; ``corrupt`` sees both morphisms and the key
    of the true composite, and returns the key the check reads instead.
    """
    made = {}
    arrow, composite_key = verification._arrow, verification._composite_key

    def recording(m, source):
        out = arrow(m, source)
        made[id(out)] = (m, out)  # holds the arrow, so its id is never reused
        return out

    def sabotaged(g, f):
        return corrupt(made[id(g)][0], made[id(f)][0], composite_key(g, f))

    monkeypatch.setattr(verification, "_arrow", recording)
    monkeypatch.setattr(verification, "_composite_key", sabotaged)


def zero_key(key, first):
    """The key of the zero morphism out of ``first``'s source."""
    return key[0], first.source.poset.full_mask, 0, ()


def corrupt_first_nonzero(tables):
    """Make the table say g o f = 0 at its first nonzero entry; return (g, f)."""
    for into_c, rows_c in zip(tables.into, tables.rows):
        for j, row in enumerate(rows_c):
            for i, k in enumerate(row):
                if not into_c[k].is_zero:
                    g = into_c[j]
                    f = tables.into[tables.objects.index(g.source)][i]
                    zero_id = into_c.index(zero_morphism(f.source, g.target, g.mode))
                    rows_c[j] = row[:i] + (zero_id,) + row[i + 1 :]
                    return g, f
    raise AssertionError("no nonzero composite")


def test_associativity_names_each_failing_triple():
    # oracle: every triple read from the corrupted rows one by one, named
    # by its first failing f, in (b, c, g, d, h) order
    ctx = fin_up_to(3)
    tables = verification._hom_tables(ctx, 3)
    corrupt_first_nonzero(tables)
    n, blocks, rows, into = len(tables.objects), tables.blocks, tables.rows, tables.into
    expected = []
    for b in range(n):
        for c in range(n):
            for g in range(*blocks[c][b]):
                for d in range(n):
                    for h in range(*blocks[d][c]):
                        bad = [
                            f
                            for f in range(len(into[b]))
                            if rows[d][h][rows[c][g][f]] != rows[d][rows[d][h][g]][f]
                        ]
                        if bad:
                            expected.append((into[b][bad[0]], into[c][g], into[d][h]))
    result = check_associativity(ctx, 3)
    assert expected and result.details == f"{len(expected)} failure(s)"
    f, g, h = expected[0]
    assert result.counterexample == {
        "f": jsonio.morphism_to_doc(f),
        "g": jsonio.morphism_to_doc(g),
        "h": jsonio.morphism_to_doc(h),
    }


class TestFailureDetection:
    """The checkers must notice a broken composition, not pass vacuously."""

    def test_unit_check_catches_broken_compose(self, fresh_fin, monkeypatch):
        def corrupt(second, first, key):
            if first.source.size == 1 and key[2] != 0:
                return zero_key(key, first)
            return key

        sabotage_composites(monkeypatch, corrupt)
        result = check_unit_laws(fresh_fin, 1)
        assert not result.passed
        assert result.counterexample is not None

    @pytest.mark.parametrize("name", TABLE_CHECKS)
    def test_unmatched_table_composite_fails_each_table_check(self, fresh_fin, monkeypatch, name):
        # the first pair the table composes gets a key that no morphism has
        pairs = []

        def corrupt(second, first, key):
            if not pairs:
                pairs.append((second, first))
                return key[0], -1, 0, ()
            return key

        sabotage_composites(monkeypatch, corrupt)
        result = getattr(verification, name)(fresh_fin, 2)
        ((g, f),) = pairs
        assert not result.passed and result.details == "1 failure(s)"
        assert result.counterexample == {
            "f": jsonio.morphism_to_doc(f),
            "g": jsonio.morphism_to_doc(g),
        }

    def test_associativity_catches_biased_compose(self, fresh_fin, monkeypatch):
        calls = {"n": 0}

        def flaky(second, first, key):
            calls["n"] += 1
            if calls["n"] % 97 == 0 and key[2] != 0:
                return zero_key(key, first)
            return key

        sabotage_composites(monkeypatch, flaky)
        result = check_associativity(fresh_fin, 2)
        assert not result.passed


def corrupt_one_composite(monkeypatch, chooses):
    """Make the key-level composite zero for one composable pair.

    The pair is the first one with a nonzero composite that ``chooses``
    accepts; every later composition of that same pair is corrupted too.
    """
    corrupted = []

    def corrupt(second, first, key):
        if not corrupted and key[2] != 0 and chooses(second, first):
            corrupted.append((second, first))
        if corrupted and corrupted[0] == (second, first):
            return zero_key(key, first)
        return key

    sabotage_composites(monkeypatch, corrupt)
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

    @pytest.mark.parametrize(
        "check, made_by, side",
        [(check_kernel_universal, "kernel", 0), (check_cokernel_universal, "cokernel", 1)],
        ids=["kernel", "cokernel"],
    )
    def test_unmatched_tally_composite(self, fresh_fin, monkeypatch, check, made_by, side):
        # ker(m) o v (resp. v o coker(m)) with a key that no morphism has
        made = record_calls(monkeypatch, made_by)
        pairs = []

        def corrupt(second, first, key):
            if not pairs and (second, first)[side] in made:
                pairs.append((second, first))
                return key[0], -1, 0, ()
            return key

        sabotage_composites(monkeypatch, corrupt)
        result = check(fresh_fin, 2)
        assert pairs and not result.passed
        g, f = pairs[0]
        assert result.counterexample == {
            "f": jsonio.morphism_to_doc(f),
            "g": jsonio.morphism_to_doc(g),
        }

    def test_universal_checks_on_shared_table(self, fresh_fin, monkeypatch):
        # the table says g o f = 0, but f does not factor through ker(g)
        # and g does not factor through coker(f)
        build = verification._hom_tables
        corrupted = []

        def corrupting(ctx, max_size):
            # every check asks for the memoized table; corrupt it only once
            tables = build(ctx, max_size)
            if not corrupted:
                corrupted.append(corrupt_first_nonzero(tables))
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


def chain_of_two(ctx):
    (chain,) = [c.representative for c in ctx.classes(2) if c.representative.covers]
    return chain


ANTICHAIN_OF_TWO = Poset((0b01, 0b10))


class TestSchmittSuiteCatchesCorruption:
    """One misclassified side of one poset's splits fails the dictionary.

    Each test builds its own context, so the interval table starts cold.
    Had the two routes shared a table, the corruption would reach both
    sides of the dictionary and it would pass.
    """

    def test_misclassified_interval(self, fresh_fin, monkeypatch):
        chain = chain_of_two(fresh_fin)
        real = incidence.interval_to_quotient_lattice

        def corrupt(p, lower, upper):
            corr = real(p, lower, upper)
            if p.leq == chain.leq and (lower, upper) == (0, p.full_mask):
                return dataclasses.replace(corr, quotient=ANTICHAIN_OF_TWO)
            return corr

        monkeypatch.setattr(incidence, "interval_to_quotient_lattice", corrupt)
        dictionary = check_interval_ideal_dictionary(fresh_fin, 3)
        assert not dictionary.passed
        assert dictionary.counterexample["P"] == jsonio.poset_to_doc(chain)
        assert not check_phi_intertwines(fresh_fin, 3).passed

    def test_misclassified_ideal_side(self, fresh_fin, monkeypatch):
        chain = chain_of_two(fresh_fin)
        real = incidence.induced_subposet

        def corrupt(p, mask):
            if p.leq == chain.leq and mask == p.full_mask:
                return real(ANTICHAIN_OF_TWO, mask)
            return real(p, mask)

        monkeypatch.setattr(incidence, "induced_subposet", corrupt)
        dictionary = check_interval_ideal_dictionary(fresh_fin, 3)
        assert not dictionary.passed
        assert dictionary.counterexample["P"] == jsonio.poset_to_doc(chain)
        # phi's checks read the interval route only, which this leaves intact
        assert check_phi_intertwines(fresh_fin, 3).passed


class TestVerifyCliFailurePath:
    def test_hom_set_missing_a_morphism_fails_with_the_pair(self, monkeypatch, capsys):
        # Hom(dot, dot) without its zero morphism: a composite that lands
        # on it has no key in the table, which is a failure, not a KeyError
        full = category.hom_set
        dropped = []

        def missing_zero(a, b, mode):
            ms = full(a, b, mode)
            if a.size == b.size == 1:
                dropped[:] = [m for m in ms if m.is_zero]
                return tuple(m for m in ms if not m.is_zero)
            return ms

        monkeypatch.setattr(verification, "hom_set", missing_zero)
        code = main(["verify", "--family", "fin", "--max-size", "2", "--quick"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 1
        failed = {line.split()[1] for line in lines if line.startswith("FAIL")}
        table_checks = (
            "unit-laws",
            "associativity",
            "kernel-universal",
            "cokernel-universal",
            "mono-epi-cancellation",
        )
        assert {f"category.{name}[n<=2]" for name in table_checks} <= failed
        pair = json.loads("\n".join(lines[lines.index("counterexample:") + 1 :]))
        assert set(pair) == {"f", "g"}
        f, g = (jsonio.morphism_from_doc(pair[k]) for k in ("f", "g"))
        assert compose(g, f) in dropped

    def test_hom_set_missing_an_identity(self, monkeypatch):
        # no composite of fin up to 1 lands on id_dot once it is dropped
        full = category.hom_set

        def missing_identity(a, b, mode):
            ms = full(a, b, mode)
            if a.size == b.size == 1:
                return tuple(m for m in ms if m.is_zero)
            return ms

        monkeypatch.setattr(verification, "hom_set", missing_identity)
        ctx = fin_up_to(1)
        dot = verification._objects_of(ctx, 1)[1]
        result = check_unit_laws(ctx, 1)
        assert not result.passed
        assert result.counterexample == jsonio.morphism_to_doc(identity(dot, ctx.mode))

    def test_exit_one_with_counterexample(self, monkeypatch, capsys):
        def fake_run(*args, **kwargs):
            return [CheckResult("fake.axiom", False, "1 failure(s)", {"why": "broken"})]

        monkeypatch.setattr("inccat.cli.run_verification", fake_run)
        code = main(["verify", "--family", "sets", "--max-size", "2", "--quick"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL fake.axiom" in out
        assert json.loads(out.splitlines()[-1]) == {"why": "broken"}
