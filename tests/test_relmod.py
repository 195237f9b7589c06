import argparse
import hashlib
import json
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asphere.cli import cmd_relmod_gmap
from asphere.fixtures import DEFAULT_DIR, PRESENTATION_FILES, load_fixtures
from asphere.partial import Tri
from asphere.peiffer import (
    Move,
    MoveKind,
    YSequence,
    YSymbol,
    apply_move,
    conjugate_sequence,
    empty_sequence,
    insertion_generator,
    scramble,
    ysequence_to_json,
)
from asphere.presentations import parse
from asphere.relmod import (
    AbelianizationOracle,
    CosetOracle,
    FreeOracle,
    GroupOracle,
    RelModElement,
    _IntLattice,
    is_zero,
    module_action,
    module_image,
)
from asphere.words import (
    Alphabet,
    AlphabetError,
    conjugate,
    empty_word,
    invert,
    multiply,
    random_word,
    word_from_text,
)

GP = parse("group P\ngens a b\nrel r = a a a\nrel s = b b\n")
# same relators plus commutation: the quotient is the cyclic group of order 6
GP_FIN = parse(
    "group P6\ngens a b\nrel r = a a a\nrel s = b b\nrel c = a b a^-1 b^-1\n"
)
AB = GP.alphabet
ONE = empty_word(AB)
A = word_from_text(AB, "a")
FREE = FreeOracle(AB)
FX = load_fixtures().presentations


def rand_seq(rng, max_len=4):
    return YSequence(
        GP,
        tuple(
            YSymbol(rng.choice(GP.relator_names), random_word(AB, rng, 3), rng.choice((1, -1)))
            for _ in range(rng.randrange(max_len + 1))
        ),
    )


def rand_seq_fin(rng, max_len=4):
    return YSequence(
        GP_FIN,
        tuple(
            YSymbol(
                rng.choice(GP_FIN.relator_names), random_word(AB, rng, 3), rng.choice((1, -1))
            )
            for _ in range(rng.randrange(max_len + 1))
        ),
    )


class TestModuleImage:
    def test_empty_sequence_is_zero(self):
        assert module_image(YSequence(GP, ()), FREE) == RelModElement.zero()

    def test_inverse_pair_gives_coefficient_two(self):
        d = YSequence(GP, (YSymbol("r", A, 1), YSymbol("r", A, -1)))
        assert module_image(d, FREE) == RelModElement.basis("r", A, 2)

    def test_distinct_keys_stay_distinct(self):
        b = word_from_text(AB, "b")
        d = YSequence(GP, (YSymbol("r", A, 1), YSymbol("r", b, 1)))
        expected = RelModElement.basis("r", A).add(RelModElement.basis("r", b))
        assert module_image(d, FREE) == expected

    def test_sign_is_dropped_by_default(self):
        d = YSequence(GP, (YSymbol("r", A, -1),))
        assert module_image(d, FREE) == RelModElement.basis("r", A, 1)

    def test_signed_variant(self):
        d = YSequence(GP, (YSymbol("r", A, -1), YSymbol("r", A, 1)))
        assert module_image(d, FREE, signed=True) == RelModElement.zero()

    def test_insertion_identity_batch(self):
        rng = random.Random(0)
        for _ in range(500):
            d = rand_seq(rng)
            a = YSymbol(rng.choice(GP.relator_names), random_word(AB, rng, 3), rng.choice((1, -1)))
            extended = d.concat(insertion_generator(a, GP))
            delta = module_image(extended, FREE).subtract(module_image(d, FREE))
            assert delta == RelModElement.basis(a.relator, a.conjugator, 2)


class TestModuleAction:
    def test_empty_word_is_identity(self):
        e = RelModElement.basis("r", A)
        assert module_action(ONE, e, FREE) == e

    def test_key_update_convention(self):
        # acting by w sends the key u to w^-1 u
        e = RelModElement.basis("r", ONE)
        acted = module_action(A, e, FREE)
        assert acted == RelModElement.basis("r", invert(A))

    def test_round_trip(self):
        rng = random.Random(1)
        for _ in range(200):
            e = module_image(rand_seq(rng), FREE)
            w = random_word(AB, rng, 4)
            assert module_action(invert(w), module_action(w, e, FREE), FREE) == e

    def test_composition_reverses_order(self):
        rng = random.Random(2)
        for _ in range(500):
            e = module_image(rand_seq(rng), FREE)
            w1 = random_word(AB, rng, 3)
            w2 = random_word(AB, rng, 3)
            assert module_action(w1, module_action(w2, e, FREE), FREE) == module_action(
                multiply(w2, w1), e, FREE
            )


class TestIsZero:
    def test_zero(self):
        assert is_zero(RelModElement.zero(), FREE) is Tri.YES

    def test_nonzero_coefficient(self):
        assert is_zero(RelModElement.basis("r", ONE, 2), FREE) is Tri.NO

    def test_unknown_difference(self):
        oracle = AbelianizationOracle(GP)
        u = word_from_text(AB, "a")
        v = word_from_text(AB, "a a a a")  # differs by the cube relator lattice
        e = RelModElement.basis("r", u).add(RelModElement.basis("r", v, -1))
        assert oracle.equal(u, v) is Tri.UNKNOWN
        assert is_zero(e, oracle) is Tri.UNKNOWN

    def test_refuted_difference(self):
        oracle = AbelianizationOracle(GP)
        u = word_from_text(AB, "a")
        e = RelModElement.basis("r", u).add(RelModElement.basis("r", ONE, -1))
        assert is_zero(e, oracle) is Tri.NO

    def test_same_sign_residue_is_definite(self):
        oracle = AbelianizationOracle(GP)
        u = word_from_text(AB, "a")
        v = word_from_text(AB, "a a a a")
        e = RelModElement.basis("r", u).add(RelModElement.basis("r", v))
        assert is_zero(e, oracle) is Tri.NO

    def test_unknown_link_from_a_class_member_joins_the_whole_class(self):
        # 1 = a proven (YES); a a shares their coarse key (UNKNOWN).  The
        # class {1, a} sums to 2 and a a can still cancel it, so UNKNOWN
        oracle = PartitionOracle([0, 0, 1], [0, 0, 0])
        e = RelModElement.from_items((("r", POWERS[k]), c) for k, c in [(0, 1), (1, 1), (2, -2)])
        assert is_zero(e, oracle) is Tri.UNKNOWN


POWERS = [word_from_text(AB, " ".join(["a"] * k) or "1") for k in range(8)]


class PartitionOracle(GroupOracle):
    """Sound over two nested partitions of the keys: keys with the same label
    are equal, keys with different coarse labels are not, and any other pair
    is undecided.  ``coarse`` must be a coarsening of ``labels``."""

    alphabet = AB

    def __init__(self, labels, coarse):
        self.labels = labels
        self.coarse_labels = coarse

    def canon(self, w):
        return POWERS[self.labels.index(self.labels[POWERS.index(w)])]

    def coarse(self, w):
        return self.coarse_labels[POWERS.index(w)]


TERMS = st.lists(
    st.tuples(st.sampled_from(("r", "s")), st.integers(0, len(POWERS) - 1), st.integers(-3, 3)),
    max_size=12,
)


def components(keys, joined):
    """The connected components of ``keys`` under the symmetric ``joined``."""
    left, parts = set(keys), []
    while left:
        part, frontier = set(), [left.pop()]
        while frontier:
            k = frontier.pop()
            part.add(k)
            near = {m for m in left if joined(k, m)}
            left -= near
            frontier.extend(near)
        parts.append(part)
    return parts


def expected_is_zero(coeff, labels, unknown):
    """Per relator, classes are the keys joined by YES answers and components
    the keys joined by YES or UNKNOWN answers.  A component is NO when a class
    in it has a nonzero sum and it has one class or a nonzero total, and
    UNKNOWN when it has a nonzero class but a zero total."""
    verdict = Tri.YES
    for rel in {rel for rel, _ in coeff}:
        keys = [k for r, k in coeff if r == rel]
        yes = lambda i, j: labels[i] == labels[j] and frozenset((i, j)) not in unknown
        for part in components(keys, lambda i, j: yes(i, j) or frozenset((i, j)) in unknown):
            class_sums = [sum(coeff[rel, k] for k in c) for c in components(part, yes)]
            if any(class_sums):
                if len(class_sums) == 1 or sum(class_sums):
                    return Tri.NO
                verdict = Tri.UNKNOWN
    return verdict


@given(
    st.lists(st.integers(0, 3), min_size=len(POWERS), max_size=len(POWERS)),
    st.lists(st.integers(0, 3), min_size=4, max_size=4),
    st.data(),
)
def test_is_zero_under_a_partition_oracle_sums_each_class(labels, merge, data):
    # the coarse label of a key is the merged label of its class; the pairs
    # left undecided are those sharing a coarse label but not a label
    coarse = [merge[label] for label in labels]
    unknown = frozenset(
        frozenset((i, j))
        for i in range(len(POWERS))
        for j in range(i)
        if coarse[i] == coarse[j] and labels[i] != labels[j]
    )
    items = data.draw(TERMS)
    balance = data.draw(st.sampled_from(("none", "class", "total")))
    if balance == "class":
        # cancel each term against a key of its class, then perturb a little
        same = [[j for j, lj in enumerate(labels) if lj == lk] for lk in labels]
        items += [(rel, data.draw(st.sampled_from(same[k])), -c) for rel, k, c in items]
        items += data.draw(TERMS.map(lambda extra: extra[:1]))
    elif balance == "total":
        # cancel each term against any key, so only the relator totals vanish
        keys = st.integers(0, len(POWERS) - 1)
        items += [(rel, data.draw(keys), -c) for rel, _, c in items]
    coeff = {}
    for rel, k, c in items:
        coeff[rel, k] = coeff.get((rel, k), 0) + c
    coeff = {key: c for key, c in coeff.items() if c}
    sums = {}
    for (rel, k), c in coeff.items():
        sums[rel, labels[k]] = sums.get((rel, labels[k]), 0) + c
    truth = Tri.YES if not any(sums.values()) else Tri.NO

    e = RelModElement.from_items(((rel, POWERS[k]), c) for rel, k, c in items)
    got = is_zero(e, PartitionOracle(labels, coarse))
    assert got is expected_is_zero(coeff, labels, unknown)
    assert got in (truth, Tri.UNKNOWN)
    if not unknown:
        assert got is truth


ELEMENT_KEYS = st.tuples(st.sampled_from(("r", "s")), st.sampled_from(POWERS[:4]))
ELEMENT_ITEMS = st.lists(st.tuples(ELEMENT_KEYS, st.integers(-3, 3)), max_size=10)


def counter_terms(items):
    """The reference: coefficients summed per key in a Counter, zeros dropped."""
    acc = Counter()
    for key, c in items:
        acc[key] += c
    return {key: c for key, c in acc.items() if c}


@given(ELEMENT_ITEMS, ELEMENT_ITEMS, st.data())
def test_element_arithmetic_agrees_with_a_counter(xs, ys, data):
    e, f = RelModElement.from_items(xs), RelModElement.from_items(ys)
    assert dict(e.terms) == counter_terms(xs)
    assert RelModElement.from_items(data.draw(st.permutations(xs))) == e
    assert dict(e.add(f).terms) == counter_terms(xs + ys)
    assert dict(e.add(e).terms) == counter_terms(xs + xs)
    assert e.add(f) == f.add(e)
    assert e.subtract(e) == RelModElement.zero()


class TestAlphabetCheck:
    """An oracle answers only about words over its own alphabet."""

    def lot3_sequence(self):
        lot3 = FX["lot3"]
        x1 = word_from_text(lot3.alphabet, "x1")
        return YSequence(lot3, (YSymbol(lot3.relator_names[0], x1, 1),))

    def test_image_under_an_oracle_over_another_alphabet(self):
        with pytest.raises(AlphabetError):
            module_image(self.lot3_sequence(), FreeOracle(FX["sym3"].alphabet))

    def test_coset_oracle_of_a_smaller_alphabet(self):
        klein = FX["klein"]
        d = YSequence(klein, (YSymbol("r", word_from_text(klein.alphabet, "b"), 1),))
        with pytest.raises(AlphabetError):
            module_image(d, CosetOracle(FX["c3"]))

    def test_zero_test_cannot_refute_over_another_alphabet(self):
        lot3 = FX["lot3"]
        x1, x3 = (word_from_text(lot3.alphabet, x) for x in ("x1", "x3"))
        rel = lot3.relator_names[0]
        e = RelModElement.basis(rel, x3).subtract(RelModElement.basis(rel, x1))
        assert is_zero(e, AbelianizationOracle(lot3)) is Tri.UNKNOWN
        with pytest.raises(AlphabetError):
            is_zero(e, AbelianizationOracle(FX["c3"]))

    def test_action_under_an_oracle_over_another_alphabet(self):
        lot3 = FX["lot3"]
        x1 = word_from_text(lot3.alphabet, "x1")
        e = RelModElement.basis(lot3.relator_names[0], x1)
        with pytest.raises(AlphabetError):
            module_action(x1, e, FREE)

    ORACLES = {
        "free": lambda gp: FreeOracle(gp.alphabet),
        "cosets": CosetOracle,
        "abelian": AbelianizationOracle,
    }

    @pytest.mark.parametrize("kind", ORACLES)
    @pytest.mark.parametrize("generators", (("p",), ("p", "q", "s")))
    def test_oracles_reject_a_word_over_another_alphabet(self, kind, generators):
        # called directly, an oracle used to answer: a cosets YES for p = a
        # over c3, an abelian UNKNOWN from a truncated zip, an IndexError
        c3 = FX["c3"]
        oracle = self.ORACLES[kind](c3)
        a = word_from_text(c3.alphabet, "a")
        p = word_from_text(Alphabet(generators), "p")
        for u, v in ((p, a), (a, p), (p, p)):
            with pytest.raises(AlphabetError):
                oracle.equal(u, v)
        with pytest.raises(AlphabetError):
            oracle.canon(p)
        assert oracle.equal(a, a) is Tri.YES and oracle.canon(a).alphabet is c3.alphabet

    def test_oracle_of_a_quotient_over_the_same_alphabet(self):
        # GP_FIN adds a relator to GP: its oracle decides in a quotient of GP
        d = YSequence(GP, (YSymbol("r", A, 1), YSymbol("r", word_from_text(AB, "a a a a"), -1)))
        oracle = CosetOracle(GP_FIN, 500)
        assert module_image(d, oracle) == RelModElement.basis("r", A, 2)
        assert is_zero(module_image(d, oracle, signed=True), oracle) is Tri.YES


class TestOracles:
    def test_free_oracle_never_unknown(self):
        rng = random.Random(3)
        for _ in range(200):
            u, v = random_word(AB, rng), random_word(AB, rng)
            assert FREE.equal(u, v) in (Tri.YES, Tri.NO)

    def test_coset_oracle_identifies_quotient_equal_words(self):
        oracle = CosetOracle(GP_FIN, 500)
        cube = word_from_text(AB, "a a a")
        assert oracle.equal(cube, ONE) is Tri.YES
        assert oracle.equal(A, ONE) is Tri.NO
        assert oracle.canon(cube) == ONE

    def test_coset_oracle_needs_finite_quotient(self):
        free_gp = parse("group F\ngens a\n")
        with pytest.raises(ValueError):
            CosetOracle(free_gp, 50)

    @pytest.mark.parametrize("budget", (3.0, True, 0))
    def test_coset_oracle_budget_must_be_an_int(self, budget):
        with pytest.raises(ValueError, match="budget must be an int >= 1"):
            CosetOracle(FX["c3"], budget)

    def test_abelian_oracle_is_sound_for_quotient_equalities(self):
        # words equal in the quotient are never refuted
        oracle = AbelianizationOracle(GP_FIN)
        table = CosetOracle(GP_FIN, 500)
        rng = random.Random(4)
        for _ in range(300):
            u, v = random_word(AB, rng), random_word(AB, rng)
            if table.equal(u, v) is Tri.YES:
                assert oracle.equal(u, v) in (Tri.YES, Tri.UNKNOWN)


def _reference_add(lattice, vec):
    """The extended-gcd echelon insertion that ``_IntLattice.add`` replaced."""

    def ext_gcd(a, b):
        old_r, r = a, b
        old_s, s = 1, 0
        old_t, t = 0, 1
        while r:
            q = old_r // r
            old_r, r = r, old_r - q * r
            old_s, s = s, old_s - q * s
            old_t, t = t, old_t - q * t
        return old_s, old_t

    v = list(vec)
    while True:
        piv = lattice._pivot(v)
        if piv is None:
            return
        row = lattice.rows.get(piv)
        if row is None:
            if v[piv] < 0:
                v = [-x for x in v]
            lattice.rows[piv] = v
            return
        a, b = row[piv], v[piv]
        g = math.gcd(a, b)
        x, y = ext_gcd(a, b)
        new_row = [x * r + y * w for r, w in zip(row, v)]
        v = [(a // g) * w - (b // g) * r for r, w in zip(row, v)]
        lattice.rows[piv] = new_row


class TestIntLattice:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_membership_agrees_with_the_extended_gcd_insertion(self, data):
        dim = data.draw(st.integers(1, 4))
        vector = st.lists(st.integers(-9, 9), min_size=dim, max_size=dim)
        gens = data.draw(st.lists(vector, max_size=4))
        lattice, reference = _IntLattice(), _IntLattice()
        for g in gens:
            lattice.add(g)
            _reference_add(reference, g)
        # integer combinations of the generators are members, so both answers occur
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(gens), max_size=len(gens)))
        combo = [sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(dim)]
        for query in [combo, *data.draw(st.lists(vector, max_size=6))]:
            assert lattice.member(query) is reference.member(query)
        assert lattice.member(combo)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_residue_is_canonical(self, data):
        dim = data.draw(st.integers(1, 4))
        vector = st.lists(st.integers(-9, 9), min_size=dim, max_size=dim)
        lattice = _IntLattice()
        gens = data.draw(st.lists(vector, max_size=4))
        for g in gens:
            lattice.add(g)
        v = data.draw(vector)
        residue = lattice.residue(v)
        for _ in range(3):
            coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(gens), max_size=len(gens)))
            combo = [sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(dim)]
            assert lattice.residue([a + b for a, b in zip(v, combo)]) == residue
            assert not any(lattice.residue(combo))
        for piv, row in lattice.rows.items():
            p = row[piv]
            assert 0 <= residue[piv] < p if p > 0 else p < residue[piv] <= 0


class TestExchangeInvariance:
    def test_exchanges_preserve_image_under_quotient_oracle(self):
        oracle = CosetOracle(GP_FIN, 500)
        rng = random.Random(5)
        checked = 0
        for _ in range(200):
            d = rand_seq_fin(rng)
            if len(d.symbols) < 2:
                continue
            pos = rng.randrange(len(d.symbols) - 1)
            kind = rng.choice((MoveKind.EXCHANGE_L, MoveKind.EXCHANGE_R))
            before = module_image(d, oracle)
            after = module_image(apply_move(d, Move(kind, pos)), oracle)
            assert before == after
            checked += 1
        assert checked >= 100

    def test_exchanges_keep_the_free_image_zero_under_quotient_oracle(self):
        # an exchange can move the free image's keys, but each moved key
        # equals its old one in the quotient, so the difference is zero there
        oracle = CosetOracle(GP_FIN, 500)
        rng = random.Random(6)
        checked = moved = 0
        for _ in range(200):
            d = rand_seq_fin(rng)
            if len(d.symbols) < 2:
                continue
            pos = rng.randrange(len(d.symbols) - 1)
            kind = rng.choice((MoveKind.EXCHANGE_L, MoveKind.EXCHANGE_R))
            after = apply_move(d, Move(kind, pos))
            diff = module_image(d, FREE).subtract(module_image(after, FREE))
            assert is_zero(diff, oracle) is Tri.YES
            checked += 1
            moved += is_zero(diff, FREE) is Tri.NO
        assert checked >= 100 and moved >= 50

    def test_exchanges_can_move_free_oracle_image(self):
        d = YSequence(GP, (YSymbol("r", ONE, 1), YSymbol("s", ONE, 1)))
        before = module_image(d, FREE)
        after = module_image(apply_move(d, Move(MoveKind.EXCHANGE_L, 0)), FREE)
        assert before != after


# sha256 of the relation-module outputs over the fixture corpus, taken before
# elements became order-free; any change of answer or of CLI bytes moves it
PIN_DIGEST = "a29a1e50147136a0ec8bffb6403039e1f38f061093c4763b8dc8f15ceae60350"


def test_relmod_outputs_are_pinned(tmp_path):
    """``relmod gmap`` (code, payload, human) rows, signed and unsigned, plus
    per oracle the signed zero verdict and whether the action agrees with
    conjugating the sequence, for the empty sequence and 20 scrambles of
    every fixture.  Coset oracles run where the quotient closes at 2000."""
    gmap_rows, verdict_rows, closed = [], [], []
    for name in PRESENTATION_FILES:
        gp = FX[name]
        oracles = {"free": FreeOracle(gp.alphabet), "abelian": AbelianizationOracle(gp)}
        try:
            oracles["cosets"] = CosetOracle(gp, 2000)
            closed.append(name)
        except ValueError:
            pass
        sequences = [empty_sequence(gp)] + [scramble(gp, s, 1 + s % 6)[0] for s in range(20)]
        for i, d in enumerate(sequences):
            path = tmp_path / f"{name}-{i}.json"
            path.write_text(json.dumps(ysequence_to_json(d)))
            w = random_word(gp.alphabet, random.Random(i), 4)
            for kind, o in oracles.items():
                for signed in (False, True):
                    args = argparse.Namespace(
                        presentation=str(DEFAULT_DIR / f"{name}.pres"),
                        sequence=str(path),
                        oracle=kind,
                        budget=2000,
                        signed=signed,
                    )
                    gmap_rows.append([name, i, kind, signed, list(cmd_relmod_gmap(args))])
                acts = module_action(w, module_image(d, o), o) == module_image(
                    conjugate_sequence(invert(w), d), o
                )
                zero = is_zero(module_image(d, o, signed=True), o).value
                verdict_rows.append([name, i, kind, zero, acts])
    assert closed == ["c3", "sym3"]
    assert (len(gmap_rows), len(verdict_rows)) == (672, 336)
    blob = json.dumps([gmap_rows, verdict_rows], sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == PIN_DIGEST


def random_element(gp, rng):
    """Up to three random terms, most followed by a term on the same word or
    on a word equal to it in the group (times a conjugated relator), so
    every verdict occurs under the free, abelian and coset oracles.  Also
    returns the (word, twin) pairs of the second kind."""
    items, pairs = [], []
    for _ in range(1 + rng.randrange(3)):
        rel = rng.choice(gp.relator_names)
        w = random_word(gp.alphabet, rng, 3)
        c = rng.choice((1, -1, 2))
        items.append(((rel, w), c))
        roll = rng.randrange(6)
        if roll == 0:
            items.append(((rel, w), -c))
        elif roll < 5:
            # the twin cancels the term (1, 2), misses it by a letter (3) or
            # doubles it (4)
            _, r = gp.relators[rng.randrange(len(gp.relators))]
            twin = multiply(w, conjugate(random_word(gp.alphabet, rng, 2), r))
            if roll == 3:
                twin = multiply(twin, random_word(gp.alphabet, rng, 1))
            pairs.append((w, twin))
            items.append(((rel, twin), c if roll == 4 else -c))
    return RelModElement.from_items(items), pairs


def verdict_corpus():
    """300 seeded random elements per fixture presentation."""
    for name in PRESENTATION_FILES:
        gp = FX[name]
        rng = random.Random(name)
        yield gp, [random_element(gp, rng) for _ in range(300)]


def fixture_oracles(gp, free=FreeOracle, abelian=AbelianizationOracle, cosets=CosetOracle):
    """The free and abelian oracles of gp, and its coset oracle where the
    quotient closes within 2000 cosets."""
    oracles = {"free": free(gp.alphabet), "abelian": abelian(gp)}
    if gp.name in ("c3", "sym3"):
        oracles["cosets"] = cosets(gp, 2000)
    return oracles


# sha256 of the verdict corpus's answers, taken while every oracle still
# defined its own equal and is_zero merged keys by pairwise equal answers
VERDICT_DIGEST = "87995c9beca4a6e08c1a7b046e7f0213823381488e7ba06ac3ba5fbaf367fdcd"


def test_zero_and_equality_verdicts_are_pinned():
    """Per element and oracle, the is_zero verdict and the equal answer of
    each (word, twin) pair."""
    rows, counts = [], Counter()
    for gp, elements in verdict_corpus():
        oracles = fixture_oracles(gp)
        for i, (e, pairs) in enumerate(elements):
            for kind, o in oracles.items():
                verdict = is_zero(e, o).value
                counts[kind, verdict] += 1
                rows.append([gp.name, i, kind, verdict, [o.equal(u, v).value for u, v in pairs]])
    assert len(rows) == 4800
    # exact oracles never answer UNKNOWN; every verdict occurs
    assert counts["free", "unknown"] == counts["cosets", "unknown"] == 0
    assert all(counts[kind, v] for kind in ("free", "abelian", "cosets") for v in ("yes", "no"))
    assert counts["abelian", "unknown"]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == VERDICT_DIGEST


def no_equal(cls):
    """A subclass of an oracle class whose equal raises."""

    def equal(self, u, v):
        raise AssertionError("equal called")

    return type(f"NoEqual{cls.__name__}", (cls,), {"equal": equal})


def test_is_zero_never_calls_equal():
    # the zero test reads the two normal forms only
    classes = {
        "free": no_equal(FreeOracle),
        "abelian": no_equal(AbelianizationOracle),
        "cosets": no_equal(CosetOracle),
    }
    seen = set()
    for gp, elements in verdict_corpus():
        oracles = fixture_oracles(gp)
        bare = fixture_oracles(gp, **classes)
        for e, _ in elements:
            for kind, o in oracles.items():
                verdict = is_zero(e, bare[kind])
                assert verdict is is_zero(e, o)
                seen.add(verdict)
    assert seen == set(Tri)
