import hashlib
import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from asphere.actions import all_submonoids, enveloping_group_presentation
from asphere.fixtures import load_fixtures
from asphere.partial import EXHAUSTED
from asphere.presentations import (
    CosetTable,
    GroupPresentation,
    MonoidPresentation,
    NotReducibleError,
    ParseError,
    Retraction,
    UnionFind,
    coset_enumeration,
    coset_table,
    decompose,
    is_reducible_lot,
    lot_presentation,
    parse,
    retract,
    solve_single_occurrence,
    to_text,
    universal_group_presentation,
)
from asphere.words import (
    Alphabet,
    AlphabetError,
    FreeWord,
    generator,
    invert,
    letter,
    letter_index,
    letter_sign,
    multiply,
    product,
    reduce,
    word_from_text,
    word_to_text,
)

from conftest import raw_letters

LOT_RETRACTIONS = [fx.retraction for fx in load_fixtures().reducible_fixtures()]


class TestParse:
    def test_group_example(self):
        p = parse("group P\ngens a b\nrel r = a b a^-1 b^-1")
        assert isinstance(p, GroupPresentation)
        assert word_to_text(p.relator("r")) == "a b a^-1 b^-1"

    def test_unknown_generator(self):
        with pytest.raises(ParseError) as exc:
            parse("group P\ngens a\nrel r = a c")
        assert exc.value.line == 3

    def test_monoid_relation_with_identity(self):
        p = parse("monoid M\ngens p q\nrel p q = 1")
        assert isinstance(p, MonoidPresentation)
        lhs, rhs = p.relations[0]
        assert len(lhs.letters) == 2 and len(rhs.letters) == 0

    def test_duplicate_relator_names(self):
        with pytest.raises(ParseError):
            parse("group P\ngens a\nrel r = a\nrel r = a a")

    def test_comments_and_blanks(self):
        p = parse("# header\ngroup P\n\ngens a  # generators\nrel r = a a  # square\n")
        assert word_to_text(p.relator("r")) == "a a"

    def test_round_trip(self):
        text = "group P\ngens a b\nrel r1 = a b a^-1 b^-1\nrel r2 = a a\n"
        assert to_text(parse(text)) == text
        mtext = "monoid M\ngens p q\nrel p q = q p\nrel p p = 1\n"
        assert to_text(parse(mtext)) == mtext

    def test_eliminate_directive(self):
        p = parse("group P\ngens a z\nrel w = z a\neliminate z\n")
        assert p.eliminate == "z"
        assert to_text(p).endswith("eliminate z\n")

    def test_a_second_eliminate_is_rejected(self):
        text = "group g\ngens a b\nrel r = a b a^-1 b^-1\neliminate a\neliminate b\n"
        with pytest.raises(ParseError, match="at most once") as exc:
            parse(text)
        assert exc.value.line == 5

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse("gens a\n")


class TestConstructors:
    def test_relators_passed_as_lists_are_stored_as_tuples(self):
        from asphere.peiffer import base_insert_pool

        a = Alphabet(("a",))
        cube = word_from_text(a, "a a a")
        built = GroupPresentation("c3", a, (("r", cube),))
        for relators in ([("r", cube)], [["r", cube]]):
            gp = GroupPresentation("c3", a, relators)
            assert gp.relators == (("r", cube),)
            assert gp == built and hash(gp) == hash(built)
            assert base_insert_pool(gp) == base_insert_pool(built)

    def test_relations_passed_as_lists_are_stored_as_tuples(self):
        a = Alphabet(("p", "q"))
        lhs, rhs = word_from_text(a, "p q"), word_from_text(a, "q p")
        built = MonoidPresentation("M", a, ((lhs, rhs),))
        mp = MonoidPresentation("M", a, [[lhs, rhs]])
        assert mp.relations == ((lhs, rhs),)
        assert mp == built and hash(mp) == hash(built)


class TestUniversalGroup:
    def test_relation_to_trivializing_relator(self):
        mp = parse("monoid M\ngens p q\nrel p q = 1")
        gp = universal_group_presentation(mp)
        assert [word_to_text(w) for _, w in gp.relators] == ["p q"]

    def test_commuting_relation(self):
        mp = parse("monoid M\ngens p q\nrel p q = q p")
        gp = universal_group_presentation(mp)
        assert [word_to_text(w) for _, w in gp.relators] == ["p q p^-1 q^-1"]

    def test_reduction_applies(self):
        mp = parse("monoid M\ngens a\nrel a a = a")
        gp = universal_group_presentation(mp)
        assert [word_to_text(w) for _, w in gp.relators] == ["a"]


class TestSolveSingleOccurrence:
    def test_positive_occurrence(self):
        gp = parse("group P\ngens a z\nrel w = z a")
        retr = solve_single_occurrence(gp, "z")
        assert word_to_text(retr.solved) == "a^-1"

    def test_negative_occurrence(self):
        # a z^-1 b = 1 forces z = b a; checked by retracting the relator
        gp = parse("group P\ngens a b z\nrel w = a z^-1 b")
        retr = solve_single_occurrence(gp, "z")
        assert word_to_text(retr.solved) == "b a"
        assert retract(retr, gp.relator("w")).is_identity

    def test_two_occurrences_rejected(self):
        gp = parse("group P\ngens a z\nrel w = z a z^-1")
        with pytest.raises(NotReducibleError):
            solve_single_occurrence(gp, "z")

    def test_zero_occurrences_rejected(self):
        gp = parse("group P\ngens a z\nrel w = a a")
        with pytest.raises(NotReducibleError):
            solve_single_occurrence(gp, "z")


class TestRetractAndDecompose:
    @pytest.fixture
    def retr(self):
        gp = parse("group P\ngens a b z\nrel w = z a")
        return solve_single_occurrence(gp, "z")

    def test_fixes_small_generators(self, retr):
        big = retr.big_alphabet
        assert word_to_text(retract(retr, word_from_text(big, "a"))) == "a"

    def test_kills_the_relator(self, retr):
        big = retr.big_alphabet
        assert retract(retr, word_from_text(big, "z a")).is_identity

    def test_substitutes(self, retr):
        big = retr.big_alphabet
        assert word_to_text(retract(retr, word_from_text(big, "b z"))) == "b a^-1"

    def test_small_alphabet_is_the_big_one_without_z(self, retr):
        # any order of the other generators is a small alphabet; dropping
        # another generator or adding one is not
        big = retr.big_alphabet
        swapped = Alphabet(("b", "a"))
        twin = Retraction(big, swapped, "z", word_from_text(swapped, "a^-1"), "w")
        u = word_from_text(big, "b z a b^-1 z^-1 a")
        assert retract(twin, u) == word_from_text(swapped, "b a^-1 a b^-1 a a")
        assert retract(twin, word_from_text(big, "a b")) == word_from_text(swapped, "a b")
        for names in (("a",), ("a", "b", "c")):
            small = Alphabet(names)
            with pytest.raises(AlphabetError):
                Retraction(big, small, "z", word_from_text(small, "a^-1"), "w")

    def test_decompose_of_z(self, retr):
        big = retr.big_alphabet
        u0, u1 = decompose(retr, word_from_text(big, "z"))
        assert word_to_text(u1) == "a^-1"
        assert word_to_text(u0) == "z a"

    def test_decompose_without_z(self, retr):
        big = retr.big_alphabet
        u = word_from_text(big, "a b")
        u0, u1 = decompose(retr, u)
        assert u0.is_identity and u1 == u

    def test_decompose_recomputed_by_oracle(self, retr):
        # oracle: recompute both parts from retract and multiply directly
        big = retr.big_alphabet
        u = word_from_text(big, "a z a^-1")
        u0, u1 = decompose(retr, u)
        from asphere.words import embed

        assert u1 == embed(retract(retr, u), big)
        assert u0 == multiply(u, invert(u1))
        assert multiply(u0, u1) == u
        assert retract(retr, u0).is_identity

    @given(st.sampled_from(LOT_RETRACTIONS), st.data())
    def test_matches_product_of_letter_images(self, retr, data):
        # oracle: multiply the images of the letters one at a time
        big, small = retr.big_alphabet, retr.small_alphabet

        def image(c):
            name, sign = big.name(letter_index(c)), letter_sign(c)
            if name == retr.z:
                return retr.solved if sign > 0 else invert(retr.solved)
            return generator(small, name, sign)

        u = reduce(big, data.draw(raw_letters(len(big), 16)))
        assert retract(retr, u) == product(small, (image(c) for c in u.letters))


class TestLot:
    def test_two_vertex_example(self):
        gp = lot_presentation(2, [(1, 2, 2)])
        assert [word_to_text(w) for _, w in gp.relators] == ["x2 x1^-1"]

    def test_three_vertex_chain_label_x3(self):
        gp = lot_presentation(3, [(2, 3, 1), (3, 3, 2)])
        assert [word_to_text(w) for _, w in gp.relators] == [
            "x3 x1 x3^-1 x2^-1",
            "x3 x2 x3^-1 x3^-1",
        ]

    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            lot_presentation(2, [(1, 2, 2), (2, 1, 1)])

    def test_wrong_edge_count_rejected(self):
        with pytest.raises(ValueError):
            lot_presentation(3, [(1, 2, 2)])

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            lot_presentation(2, [(1, 3, 2)])


class TestIsReducible:
    def test_alphabet_order_tie_break(self):
        gp = parse("group P\ngens a z\nrel w = z a")
        assert is_reducible_lot(gp) == "a"

    def test_commutator_is_not_reducible(self):
        gp = parse("group P\ngens a b\nrel r = a b a^-1 b^-1")
        assert is_reducible_lot(gp) is None

    def test_chain_lot(self):
        gp = lot_presentation(3, [(2, 3, 1), (3, 3, 2)])
        counts = {}
        for _, w in gp.relators:
            for c in w.letters:
                l = letter_index(c)
                counts[l] = counts.get(l, 0) + 1
        assert counts[gp.alphabet.index("x1")] == 1
        assert is_reducible_lot(gp) == "x1"


def brute_force_sym3_order():
    """Independent oracle: close {transpositions} under composition."""
    def compose(p, q):
        return tuple(q[p[i]] for i in range(3))

    gens = [(1, 0, 2), (0, 2, 1)]
    elems = {(0, 1, 2)}
    frontier = [(0, 1, 2)]
    while frontier:
        p = frontier.pop()
        for g in gens:
            q = compose(p, g)
            if q not in elems:
                elems.add(q)
                frontier.append(q)
    return len(elems)


class TestCosetEnumeration:
    def test_cyclic_three(self, c3):
        assert coset_enumeration(c3, (), 100) == 3

    def test_sym3_against_brute_force(self, sym3):
        assert coset_enumeration(sym3, (), 100) == brute_force_sym3_order() == 6

    def test_infinite_cyclic_exhausts(self):
        gp = parse("group Z\ngens a\n")
        assert coset_enumeration(gp, (), 100) is EXHAUSTED

    def test_subgroup_index(self, sym3):
        sub = [word_from_text(sym3.alphabet, "a")]
        assert coset_enumeration(sym3, sub, 100) == 3

    def test_deterministic_tables(self, sym3):
        t1 = coset_table(sym3, (), 100)
        t2 = coset_table(sym3, (), 100)
        assert isinstance(t1, CosetTable)
        assert t1.rows == t2.rows

    def test_trace_respects_relators(self, c3):
        t = coset_table(c3, (), 100)
        a = word_from_text(c3.alphabet, "a")
        cube = multiply(multiply(a, a), a)
        for coset in range(t.index):
            assert t.trace(cube, coset) == coset

    @pytest.mark.parametrize("generators", (("p",), ("p", "q", "s")))
    def test_trace_rejects_a_word_over_another_alphabet(self, sym3, generators):
        # p over ("p",) used to trace like a, and s, past sym3's columns,
        # raised an IndexError
        t = coset_table(sym3, (), 100)
        w = word_from_text(Alphabet(generators), generators[-1])
        for start in range(t.index):
            with pytest.raises(AlphabetError):
                t.trace(w, start)
        assert t.trace(word_from_text(sym3.alphabet, "a")) == 1

    def test_representatives_are_reduced_and_distinct(self, sym3):
        t = coset_table(sym3, (), 100)
        reps = t.representatives()
        assert len({r.letters for r in reps}) == t.index
        assert reps[0].is_identity

    def test_budget_one_is_legal(self):
        gp = parse("group Z\ngens a\n")
        assert coset_enumeration(gp, (), 1) is EXHAUSTED
        with pytest.raises(ValueError):
            coset_enumeration(gp, (), 0)

    @pytest.mark.parametrize("budget", (3.5, 3.0, True, False, 0, -2))
    def test_budget_must_be_an_int_of_at_least_one(self, c3, budget):
        # 3.5 used to close c3 at 3 cosets and True to act as a budget of 1
        with pytest.raises(ValueError, match="budget must be an int >= 1"):
            coset_table(c3, (), budget)
        with pytest.raises(ValueError, match="budget"):
            coset_enumeration(c3, (), budget)

    def test_coincidence_heavy_groups(self):
        # orders that force collapses during the scan
        a4 = parse("group a4\ngens a b\nrel r1 = a a a\nrel r2 = b b b\nrel r3 = a b a b\n")
        assert coset_enumeration(a4, (), 200) == 12
        q8 = parse(
            "group q8\ngens a b\nrel r1 = a a a a\nrel r2 = a a b^-1 b^-1\nrel r3 = b^-1 a b a\n"
        )
        assert coset_enumeration(q8, (), 200) == 8
        d4 = parse("group d4\ngens a b\nrel r1 = a a a a\nrel r2 = b b\nrel r3 = b a b a\n")
        assert coset_enumeration(d4, (), 200) == 8
        rotation = [word_from_text(d4.alphabet, "a")]
        assert coset_enumeration(d4, rotation, 200) == 2


PINNED_GROUPS = (
    "group a4\ngens a b\nrel r1 = a a a\nrel r2 = b b b\nrel r3 = a b a b\n",
    "group q8\ngens a b\nrel r1 = a a a a\nrel r2 = a a b^-1 b^-1\nrel r3 = b^-1 a b a\n",
    "group d4\ngens a b\nrel r1 = a a a a\nrel r2 = b b\nrel r3 = b a b a\n",
    "group s4\ngens a b\nrel r1 = a a\nrel r2 = b b b\nrel r3 = a b a b a b a b\n",
    "group a5\ngens a b\nrel r1 = a a\nrel r2 = b b b\nrel r3 = a b a b a b a b a b\n",
    "group free\ngens a\n",
)


def pinned_enumerations():
    """(presentation, subgroup, budget) for every enumeration the digest pins."""
    fixtures = load_fixtures()
    for gp in fixtures.presentations.values():
        for budget in (1, 5, 50, 200, 2000):
            yield gp, (), budget
    for text in PINNED_GROUPS:
        gp = parse(text)
        subgroups = [()]
        for w in ("a", "b", "a b", "a b^-1"):
            try:
                subgroups.append((word_from_text(gp.alphabet, w),))
            except ValueError:
                pass
        for budget in (1, 10, 100, 500):
            for sub in subgroups:
                yield gp, sub, budget
    for m in fixtures.monoids.values():
        gp = enveloping_group_presentation(m)
        for u in all_submonoids(m):
            gens = [FreeWord(gp.alphabet, (letter(x, 1),)) for x in u.sorted_elements]
            for budget in (30, 1000):
                yield gp, gens, budget


class TestCosetTablePins:
    def test_tables_and_representatives_are_pinned(self):
        outcomes = []
        for gp, sub, budget in pinned_enumerations():
            t = coset_table(gp, sub, budget)
            if t is EXHAUSTED:
                outcomes.append("EXHAUSTED")
            else:
                outcomes.append([t.rows, [list(r.letters) for r in t.representatives()]])
        assert len(outcomes) == 399 and outcomes.count("EXHAUSTED") == 66
        digest = hashlib.sha256(json.dumps(outcomes, sort_keys=True).encode()).hexdigest()
        assert digest == "2f66c404638720e80d1fa036850c21fb2f2be06fbbb144b0b76ffd3d6646d704"

    @given(
        st.lists(raw_letters(2, 7), min_size=1, max_size=3),
        st.lists(raw_letters(2, 7), max_size=2),
        st.sampled_from((20, 100, 400)),
    )
    @settings(max_examples=200, deadline=None)
    def test_completed_tables_are_coset_actions(self, raw_relators, raw_subgroup, budget):
        gp = parse("group g\ngens a b\n")
        words = [reduce(gp.alphabet, raw) for raw in raw_relators]
        relators = tuple((f"r{i}", w) for i, w in enumerate(words) if not w.is_identity)
        assume(relators)
        gp = GroupPresentation("g", gp.alphabet, relators)
        subgroup = [reduce(gp.alphabet, raw) for raw in raw_subgroup]
        t = coset_table(gp, subgroup, budget)
        if t is EXHAUSTED:
            return
        cosets = list(range(t.index))
        for col in range(4):
            column = [row[col] for row in t.rows]
            assert sorted(column) == cosets
            assert [t.rows[d][col ^ 1] for d in column] == cosets
        for _, r in gp.relators:
            assert all(t.trace(r, c) == c for c in cosets)
        for w in subgroup:
            assert t.trace(w) == 0
        assert [t.trace(rep) for rep in t.representatives()] == cosets


class TestUnionFind:
    def test_union_keeps_the_smaller_root(self):
        uf = UnionFind(4)
        assert uf.union(3, 1) and uf.find(3) == 1
        assert uf.union(2, 3) and uf.find(2) == 1
        assert not uf.union(1, 2)
        assert uf.find(0) == 0

    def test_add_appends_a_singleton(self):
        uf = UnionFind()
        assert [uf.add(), uf.add()] == [0, 1]
        assert uf.union(1, 0) and uf.find(1) == 0
