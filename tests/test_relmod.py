import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from asphere.partial import Tri
from asphere.peiffer import (
    Move,
    MoveKind,
    YSequence,
    YSymbol,
    apply_move,
    insertion_generator,
)
from asphere.presentations import parse
from asphere.relmod import (
    AbelianizationOracle,
    CosetOracle,
    FreeOracle,
    PartialResultError,
    RelModElement,
    is_zero,
    module_action,
    module_image,
)
from asphere.words import empty_word, invert, multiply, random_word, word_from_text

GP = parse("group P\ngens a b\nrel r = a a a\nrel s = b b\n")
# same relators plus commutation: the quotient is the cyclic group of order 6
GP_FIN = parse(
    "group P6\ngens a b\nrel r = a a a\nrel s = b b\nrel c = a b a^-1 b^-1\n"
)
AB = GP.alphabet
ONE = empty_word(AB)
A = word_from_text(AB, "a")
FREE = FreeOracle(AB)


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


class StubOracle:
    """Cannot canonicalize anything; exercises the partial-result path."""

    alphabet = AB

    def equal(self, u, v):
        return Tri.UNKNOWN

    def canon(self, w):
        return None


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

    def test_stub_oracle_raises_partial(self):
        d = YSequence(GP, (YSymbol("r", A, 1),))
        with pytest.raises(PartialResultError) as exc:
            module_image(d, StubOracle())
        assert exc.value.undecided == (A,)


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
        # 1 = a proven (YES); a vs a a unknown; 1 vs a a refuted (NO).  The
        # class {1, a} sums to 2 and a a can still cancel it, so UNKNOWN
        oracle = PartitionOracle([0, 0, 1], frozenset({frozenset((1, 2))}))
        e = RelModElement.from_items(("r", POWERS[k], c) for k, c in [(0, 1), (1, 1), (2, -2)])
        assert is_zero(e, oracle) is Tri.UNKNOWN


POWERS = [word_from_text(AB, " ".join(["a"] * k) or "1") for k in range(8)]
KEY_PAIRS = [frozenset((i, j)) for i in range(len(POWERS)) for j in range(i)]


class PartitionOracle:
    """Sound over a partition of the keys: a key pair in ``unknown`` answers
    UNKNOWN, any other pair YES exactly when both keys carry the same label."""

    alphabet = AB

    def __init__(self, labels, unknown=frozenset()):
        self.labels = labels
        self.unknown = unknown

    def equal(self, u, v):
        i, j = POWERS.index(u), POWERS.index(v)
        if frozenset((i, j)) in self.unknown:
            return Tri.UNKNOWN
        return Tri.YES if self.labels[i] == self.labels[j] else Tri.NO

    def canon(self, w):
        return w


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
    st.frozensets(st.sampled_from(KEY_PAIRS)),
    st.data(),
)
def test_is_zero_under_a_partition_oracle_sums_each_class(labels, unknown, data):
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

    e = RelModElement.from_items((rel, POWERS[k], c) for rel, k, c in items)
    got = is_zero(e, PartitionOracle(labels, unknown))
    assert got is expected_is_zero(coeff, labels, unknown)
    assert got in (truth, Tri.UNKNOWN)
    if not unknown:
        assert got is truth


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

    def test_abelian_oracle_is_sound_for_quotient_equalities(self):
        # words equal in the quotient are never refuted
        oracle = AbelianizationOracle(GP_FIN)
        table = CosetOracle(GP_FIN, 500)
        rng = random.Random(4)
        for _ in range(300):
            u, v = random_word(AB, rng), random_word(AB, rng)
            if table.equal(u, v) is Tri.YES:
                assert oracle.equal(u, v) in (Tri.YES, Tri.UNKNOWN)


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

    def test_exchanges_can_move_free_oracle_image(self):
        d = YSequence(GP, (YSymbol("r", ONE, 1), YSymbol("s", ONE, 1)))
        before = module_image(d, FREE)
        after = module_image(apply_move(d, Move(MoveKind.EXCHANGE_L, 0)), FREE)
        assert before != after
