import copy
import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from asphere.words import (
    Alphabet,
    AlphabetError,
    FreeWord,
    WordSyntaxError,
    abelianize,
    conjugate,
    embed,
    empty_word,
    exponent_sum,
    invert,
    letter,
    letter_column,
    letter_index,
    letter_sign,
    monoid_word_from_text,
    multiply,
    random_word,
    reduce,
    restrict,
    word_from_text,
    word_to_text,
)

from conftest import raw_letters

AB = Alphabet(("a", "b"))


def decode(letters):
    """(index, sign) pairs of letter codes, read through the helpers."""
    return tuple((letter_index(c), letter_sign(c)) for c in letters)


def naive_reduce(letters):
    """Oracle: repeat single-pass cancellation of decoded (index, sign) pairs
    until nothing changes."""
    current = list(decode(letters))
    while True:
        out = []
        i = 0
        changed = False
        while i < len(current):
            if (
                i + 1 < len(current)
                and current[i][0] == current[i + 1][0]
                and current[i][1] == -current[i + 1][1]
            ):
                i += 2
                changed = True
            else:
                out.append(current[i])
                i += 1
        current = out
        if not changed:
            return tuple(current)


def w(text):
    return word_from_text(AB, text)


class TestAlphabet:
    def test_rejects_duplicates(self):
        with pytest.raises(AlphabetError):
            Alphabet(("a", "a"))

    def test_rejects_bad_names(self):
        with pytest.raises(AlphabetError):
            Alphabet(("1x",))
        with pytest.raises(AlphabetError):
            Alphabet(("a-b",))

    def test_order_is_observable(self):
        assert Alphabet(("b", "a")).index("b") == 0

    def test_equal_alphabets_are_one_object(self):
        ab = Alphabet(("a", "b"))
        assert Alphabet(["a", "b"]) is ab
        assert Alphabet(("a", "b", "c")).without("c") is ab
        assert copy.copy(ab) is ab
        assert copy.deepcopy(ab) is ab
        assert pickle.loads(pickle.dumps(ab)) is ab

    def test_different_tuples_are_different_objects(self):
        ab, ba = Alphabet(("a", "b")), Alphabet(("b", "a"))
        assert ab is not ba and ab != ba

    @pytest.mark.parametrize("names", [("1x",), ("a", "a"), ("a", "b", "a")])
    def test_invalid_names_raise_on_every_call(self, names):
        for _ in range(3):
            with pytest.raises(AlphabetError):
                Alphabet(names)


class TestReduce:
    def test_adjacent_pair_cancels(self):
        assert reduce(AB, [letter(0, 1), letter(0, -1), letter(1, 1)]) == w("b")

    def test_empty_is_identity(self):
        assert reduce(AB, []) == empty_word(AB)

    def test_nested_cancellation(self):
        # oracle: naive cancellation to fixpoint
        raw = [letter(0, 1), letter(1, 1), letter(1, -1), letter(0, -1), letter(0, 1)]
        assert naive_reduce(raw) == ((0, 1),)
        assert reduce(AB, raw) == w("a")

    def test_unknown_letter_rejected(self):
        with pytest.raises(AlphabetError):
            reduce(AB, [letter(5, 1)])

    @given(raw_letters(2))
    def test_matches_naive_oracle(self, raw):
        assert decode(reduce(AB, raw).letters) == naive_reduce(raw)

    @given(raw_letters(2))
    def test_idempotent(self, raw):
        once = reduce(AB, raw)
        assert reduce(AB, once.letters) == once


class TestMultiply:
    def test_inverse_pair(self):
        assert multiply(w("a"), w("a^-1")) == empty_word(AB)

    def test_identity_law(self):
        assert multiply(empty_word(AB), w("b")) == w("b")

    def test_cancellation_across_the_seam(self):
        # oracle: reduce of the concatenation
        u, v = w("a b"), w("b^-1 a")
        assert multiply(u, v) == reduce(AB, u.letters + v.letters)
        assert word_to_text(multiply(u, v)) == "a a"

    def test_alphabet_mismatch(self):
        other = Alphabet(("x",))
        with pytest.raises(AlphabetError):
            multiply(w("a"), empty_word(other))

    @given(raw_letters(2), raw_letters(2), raw_letters(2))
    def test_associative(self, r1, r2, r3):
        u, v, t = (reduce(AB, r) for r in (r1, r2, r3))
        assert multiply(multiply(u, v), t) == multiply(u, multiply(v, t))

    @given(raw_letters(2))
    def test_inverse_law(self, raw):
        u = reduce(AB, raw)
        assert multiply(u, invert(u)).is_identity

    @given(raw_letters(2), raw_letters(2))
    def test_matches_reduced_concatenation(self, r1, r2):
        # oracle: free reduction of the concatenated letters
        u, v = reduce(AB, r1), reduce(AB, r2)
        assert multiply(u, v) == reduce(AB, u.letters + v.letters)


class TestInvert:
    def test_reverse_and_flip(self):
        assert invert(w("a b^-1")) == w("b a^-1")

    def test_empty(self):
        assert invert(empty_word(AB)).is_identity

    def test_square(self):
        assert invert(w("a a")) == w("a^-1 a^-1")

    @given(raw_letters(2))
    def test_matches_letterwise_definition(self, raw):
        # oracle: reverse the letters and flip every sign
        u = reduce(AB, raw)
        assert decode(invert(u).letters) == tuple((l, -s) for l, s in reversed(decode(u.letters)))


class TestConjugate:
    def test_by_identity(self):
        assert conjugate(empty_word(AB), w("b")) == w("b")

    def test_no_cancellation(self):
        assert conjugate(w("a"), w("b")) == w("a b a^-1")

    def test_self_conjugation_fixes(self):
        assert conjugate(w("a"), w("a")) == w("a")

    @staticmethod
    def three_products(u, v):
        # oracle: two junction-cancelled products and an inverse
        return multiply(multiply(u, v), invert(u))

    @given(raw_letters(2), raw_letters(2), st.sampled_from(("v", "u^-1 v u", "u^-1", "u", "1")))
    def test_matches_three_products(self, r1, r2, shape):
        # the shapes of v force cancellation at one junction, at both, or all
        # the way through
        u, t = reduce(AB, r1), reduce(AB, r2)
        v = {
            "v": t,
            "u^-1 v u": multiply(multiply(invert(u), t), u),
            "u^-1": invert(u),
            "u": u,
            "1": empty_word(AB),
        }[shape]
        assert conjugate(u, v) == self.three_products(u, v)
        assert conjugate(v, u) == self.three_products(v, u)

    def test_edge_cases(self):
        cases = [
            ("1", "1"),
            ("1", "a b"),
            ("a b", "1"),
            ("a b", "b^-1 a^-1"),
            ("a b", "b^-1 a b a^-1 b"),
            ("a b a", "a^-1 b^-1 a^-1"),
        ]
        for u, v in cases:
            assert conjugate(w(u), w(v)) == self.three_products(w(u), w(v))

    def test_left_action(self):
        rng = random.Random(0)
        for _ in range(1000):
            u = random_word(AB, rng)
            v = random_word(AB, rng)
            t = random_word(AB, rng)
            assert conjugate(u, conjugate(t, v)) == conjugate(multiply(u, t), v)


class TestExponentAndAbelianization:
    def test_balanced(self):
        assert exponent_sum(w("a b a^-1"), "a") == 0

    def test_single(self):
        z = Alphabet(("z", "a"))
        assert exponent_sum(word_from_text(z, "z a"), "z") == 1

    def test_count_by_scan(self):
        word = w("a a b^-1 a")
        assert exponent_sum(word, "a") == sum(s for l, s in decode(word.letters) if l == 0) == 3

    def test_abelianize_examples(self):
        assert abelianize(w("a b a^-1")) == (0, 1)
        assert abelianize(empty_word(AB)) == (0, 0)
        assert abelianize(w("a a b^-1")) == (2, -1)

    def test_homomorphisms(self):
        rng = random.Random(1)
        for _ in range(1000):
            u, v = random_word(AB, rng), random_word(AB, rng)
            uv = multiply(u, v)
            assert abelianize(uv) == tuple(
                x + y for x, y in zip(abelianize(u), abelianize(v))
            )
            assert exponent_sum(uv, "b") == exponent_sum(u, "b") + exponent_sum(v, "b")


class TestEmbedAndText:
    def test_embed_identity_on_shared_names(self):
        big = Alphabet(("a", "b", "z"))
        assert word_to_text(embed(w("a b^-1"), big)) == "a b^-1"

    def test_embed_requires_subset(self):
        with pytest.raises(AlphabetError):
            embed(w("a"), Alphabet(("x", "y")))

    def test_round_trip(self):
        for text in ("1", "a", "a b^-1 a", "b b b"):
            assert word_to_text(word_from_text(AB, text)) == text

    def test_rejects_general_exponents(self):
        with pytest.raises(WordSyntaxError):
            word_from_text(AB, "a^2")

    def test_monoid_word_keeps_raw_letters(self):
        mw = monoid_word_from_text(AB, "a a b")
        assert len(mw.letters) == 3
        assert mw == w("a a b")

    def test_monoid_word_can_forbid_signs(self):
        with pytest.raises(WordSyntaxError):
            monoid_word_from_text(AB, "a^-1")


def test_freeword_rejects_unreduced_letters():
    with pytest.raises(ValueError):
        FreeWord(AB, (letter(0, 1), letter(0, -1)))


def test_freeword_from_a_list_is_the_same_hashable_word():
    # letters given as a list or any iterable are stored as bytes, so the
    # word equals and hashes like the parsed one
    built = FreeWord(AB, [letter(1, 1)])
    assert built.letters == bytes([letter(1, 1)])
    assert built == w("b") and hash(built) == hash(w("b"))
    assert FreeWord(AB, iter([letter(0, 1), letter(1, -1)])) == w("a b^-1")


@pytest.mark.parametrize("code", (4, -1, 7, "a", (0, 1), 1.0, None))
def test_freeword_rejects_codes_outside_its_alphabet(code):
    # AB has the codes 0..3; anything else must fail at construction, not
    # later when the word is printed
    with pytest.raises(AlphabetError):
        FreeWord(AB, (code,))
    with pytest.raises(AlphabetError):
        reduce(AB, [letter(0, 1), code])


class TestEncoding:
    """One int per letter: generator i is 2*i + 1, its inverse 2*i."""

    INDICES = st.integers(0, 50)
    SIGNS = st.sampled_from((1, -1))

    @given(INDICES, SIGNS)
    def test_helpers_round_trip(self, index, sign):
        c = letter(index, sign)
        assert (letter_index(c), letter_sign(c)) == (index, sign)
        assert letter(letter_index(c), letter_sign(c)) == c

    @given(st.integers(0, 101))
    def test_every_code_decodes(self, c):
        assert letter(letter_index(c), letter_sign(c)) == c

    @given(INDICES, SIGNS)
    def test_column_alternates_generator_and_inverse(self, index, sign):
        assert letter_column(letter(index, sign)) == 2 * index + (0 if sign > 0 else 1)

    def test_rejects_a_bad_sign(self):
        with pytest.raises(AlphabetError):
            letter(0, 0)

    @given(raw_letters(3), raw_letters(3))
    def test_codes_sort_like_index_sign_pairs(self, r1, r2):
        # certificates, pools and relation-module keys sort by ``letters``,
        # and a sort is fixed by its pairwise comparisons
        u, v = (reduce(Alphabet(("a", "b", "c")), r).letters for r in (r1, r2))
        assert (u < v, u == v) == (decode(u) < decode(v), decode(u) == decode(v))


class TestEmbedTable:
    """``embed`` maps letters through a cached table per alphabet pair; the
    oracle looks every letter's name up in the big alphabet."""

    ALPHABETS = st.lists(st.sampled_from(("a", "b", "c", "z")), min_size=1, unique=True).map(
        lambda names: Alphabet(tuple(names))
    )

    @staticmethod
    def per_name(u, big):
        if not set(u.alphabet.generators) <= set(big.generators):
            raise AlphabetError("not a subset")
        names = u.alphabet.generators
        return FreeWord(big, tuple(letter(big.index(names[l]), s) for l, s in decode(u.letters)))

    @given(ALPHABETS, ALPHABETS, st.data())
    def test_matches_the_per_name_mapping(self, small, big, data):
        u = reduce(small, data.draw(raw_letters(len(small))))
        for _ in range(2):  # the second call reads the cached table, or fails again
            try:
                expected = self.per_name(u, big)
            except AlphabetError:
                with pytest.raises(AlphabetError):
                    embed(u, big)
            else:
                assert embed(u, big) == expected


class TestRestrict:
    BIG = Alphabet(("a", "z", "b"))

    @given(raw_letters(2))
    def test_inverts_embed(self, raw):
        u = reduce(AB, raw)
        assert restrict(embed(u, self.BIG), AB) == u

    @given(raw_letters(3))
    def test_rejects_exactly_the_words_using_the_dropped_generator(self, raw):
        u = reduce(self.BIG, raw)
        if any(l == 1 for l, _ in decode(u.letters)):
            with pytest.raises(AlphabetError):
                restrict(u, AB)
        else:
            assert embed(restrict(u, AB), self.BIG) == u

    def test_rejects_the_dropped_generator(self):
        with pytest.raises(AlphabetError):
            restrict(word_from_text(self.BIG, "a z"), AB)


class TestAlphabetCap:
    """A letter is one byte, so an alphabet holds at most 128 generators."""

    def test_accepts_128_generators(self):
        big = Alphabet(tuple(f"g{i}" for i in range(128)))
        last = word_from_text(big, "g127 g0^-1 g127")
        assert list(last.letters) == [255, 0, 255]
        assert invert(last).letters == bytes([254, 1, 254])

    def test_rejects_129_generators(self):
        with pytest.raises(AlphabetError, match="at most 128"):
            Alphabet(tuple(f"g{i}" for i in range(129)))


def test_freeword_is_the_same_from_a_list_a_tuple_and_bytes():
    codes = [letter(0, 1), letter(1, -1), letter(0, 1)]
    words = [FreeWord(AB, codes), FreeWord(AB, tuple(codes)), FreeWord(AB, bytes(codes))]
    assert all(u == w("a b^-1 a") and hash(u) == hash(w("a b^-1 a")) for u in words)
    assert all(type(u.letters) is bytes for u in words)


class TestTranslateAgainstDefinitions:
    """``invert``, ``embed`` and ``restrict`` rewrite the letters with one
    ``translate``; each is checked against its per-letter definition on
    seeded random words, the 128-generator alphabet's codes up to 255
    included."""

    SMALL = Alphabet(("b", "d", "a"))
    BIG = Alphabet(("a", "b", "c", "d", "z"))
    WIDE = Alphabet(tuple(f"g{i}" for i in range(128)))
    NARROW = Alphabet(("g127", "g3", "g0"))

    @staticmethod
    def renamed(u, target):
        names = u.alphabet.generators
        return [letter(target.index(names[letter_index(c)]), letter_sign(c)) for c in u.letters]

    @pytest.mark.parametrize("alphabet", (SMALL, BIG, WIDE), ids=len)
    def test_invert_reverses_and_flips_every_letter(self, alphabet):
        rng = random.Random(f"invert/{len(alphabet)}")
        for _ in range(300):
            u = random_word(alphabet, rng, 12)
            flipped = [letter(letter_index(c), -letter_sign(c)) for c in reversed(u.letters)]
            assert invert(u) == FreeWord(alphabet, flipped)

    @pytest.mark.parametrize("small, big", ((SMALL, BIG), (NARROW, WIDE)), ids=("five", "wide"))
    def test_embed_and_restrict_rename_every_letter(self, small, big):
        rng = random.Random(f"rename/{len(big)}")
        dropped = 0
        for _ in range(300):
            u = random_word(small, rng, 12)
            v = embed(u, big)
            assert v == FreeWord(big, self.renamed(u, big))
            assert restrict(v, small) == FreeWord(small, self.renamed(v, small)) == u
            v = random_word(big, rng, 4)
            if any(big.name(letter_index(c)) not in small for c in v.letters):
                dropped += 1
                with pytest.raises(AlphabetError):
                    restrict(v, small)
            else:
                assert restrict(v, small) == FreeWord(small, self.renamed(v, small))
        assert dropped > 100
