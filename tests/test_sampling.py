"""The samplers draw the stream the standard library's ``randrange`` and
``choice`` draw.

Each sampler runs the ``getrandbits`` rejection loop of
``random.Random._randbelow`` itself.  The references below are the samplers
written with ``randrange`` and ``choice``; every sampler must give the same
output as its reference and leave the generator in the same state, so every
suite report, draw pin and search corpus built on them keeps its bytes.  A
CPython whose ``randrange`` stops drawing this way fails here by name.
"""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asphere import peiffer
from asphere.fixtures import load_fixtures
from asphere.peiffer import (
    Move,
    MoveKind,
    YSymbol,
    apply_move,
    dynamic_insert_pool,
    empty_sequence,
    legal_moves,
    random_sequence,
    random_symbol,
    scramble,
)
from asphere.presentations import parse
from asphere.words import (
    Alphabet,
    _below,
    _random_codes,
    conjugate,
    empty_word,
    letter,
    multiply,
    random_word,
    reduce,
)
from asphere.xmod import random_kernel_element

FIXTURES = load_fixtures()
REDUCIBLE = FIXTURES.reducible_fixtures()
PRESENTATIONS = [*FIXTURES.peiffer_presentations(), *(fx.presentation for fx in REDUCIBLE)]
SEEDS = st.integers(0, 2**64)


# --- references: the samplers as written with randrange and choice -----------


def ref_codes(rng, size, max_len):
    count = rng.randrange(max_len + 1)
    return [letter(rng.randrange(size), rng.choice((1, -1))) for _ in range(count)]


def ref_random_word(alphabet, rng, max_len=6):
    return reduce(alphabet, ref_codes(rng, len(alphabet), max_len))


def ref_random_element(retr, rng, max_factors=3):
    big = retr.big_alphabet
    seed_rel, seed_inv = retr._kernel_generators
    acc = empty_word(big)
    for _ in range(rng.randrange(max_factors + 1)):
        u = ref_random_word(big, rng, 3)
        r = seed_rel if rng.random() < 0.5 else seed_inv
        acc = multiply(acc, conjugate(u, r))
    return acc


def ref_random_symbol(gp, rng, conj_len=3):
    names = gp.relator_names
    name = names[rng.randrange(len(names))]
    return name, ref_random_word(gp.alphabet, rng, conj_len), rng.choice((1, -1))


def ref_random_sequence(gp, rng, max_len=4):
    if not gp.relators:
        return ()
    return tuple(ref_random_symbol(gp, rng) for _ in range(rng.randrange(max_len + 1)))


def ref_scramble_moves(gp, seed, k):
    rng = random.Random(seed)
    seq = empty_sequence(gp)
    moves = []
    base = peiffer._base_pool(gp)
    for _ in range(k):
        candidates = legal_moves(seq, ())
        if not candidates or rng.random() < 0.6:
            # the merged pool: the sorted union of the two pools
            dynamic = dynamic_insert_pool(seq)
            pool = sorted(set(base) | set(dynamic), key=YSymbol.sort_key)
            m = Move(MoveKind.INSERT, rng.randrange(len(seq) + 1), rng.choice(pool))
        else:
            m = rng.choice(candidates)
        seq = apply_move(seq, m)
        moves.append(m)
    return seq, tuple(moves)


def as_tuple(s):
    return s.relator, s.conjugator, s.sign


def pair(seed):
    return random.Random(seed), random.Random(seed)


class Bounded(random.Random):
    """A generator that raises once a draw has spent more ``getrandbits``
    calls than any terminating draw here needs, so a rejection loop that
    cannot end fails the test instead of hanging it."""

    def __init__(self, seed):
        self.calls = 0
        super().__init__(seed)

    def getrandbits(self, k):
        self.calls += 1
        if self.calls > 10_000:
            raise RuntimeError("the draw does not terminate")
        return super().getrandbits(k)


# --- the contract ---------------------------------------------------------------


def test_below_is_randrange():
    for n in (*range(1, 301), 1 << 30):
        mine, theirs = pair(f"below/{n}")
        for _ in range(50):
            assert _below(mine.getrandbits, n) == theirs.randrange(n), n
        assert mine.getstate() == theirs.getstate(), n


@given(SEEDS, st.integers(1, 6), st.integers(0, 12))
@settings(max_examples=200, deadline=None)
def test_random_word_draws_like_randrange(seed, size, max_len):
    alphabet = Alphabet(tuple(f"x{i}" for i in range(size)))
    mine, theirs = pair(seed)
    for _ in range(10):
        assert random_word(alphabet, mine, max_len) == ref_random_word(alphabet, theirs, max_len)
    assert mine.getstate() == theirs.getstate()


@given(SEEDS, st.integers(1, 6), st.integers(0, 12))
@settings(max_examples=200, deadline=None)
def test_raw_codes_draw_like_randrange(seed, size, max_len):
    # the word-laws battery's unreduced draw
    mine, theirs = pair(seed)
    for _ in range(10):
        assert _random_codes(mine.getrandbits, size, max_len) == ref_codes(theirs, size, max_len)
    assert mine.getstate() == theirs.getstate()


@given(SEEDS, st.sampled_from(REDUCIBLE), st.integers(0, 5))
@settings(max_examples=100, deadline=None)
def test_random_element_draws_like_randrange(seed, fx, max_factors):
    retr = fx.retraction
    mine, theirs = pair(seed)
    for _ in range(5):
        assert random_kernel_element(retr, mine, max_factors) == ref_random_element(
            retr, theirs, max_factors
        )
    assert mine.getstate() == theirs.getstate()


@given(SEEDS, st.sampled_from(PRESENTATIONS), st.integers(0, 5))
@settings(max_examples=100, deadline=None)
def test_random_symbol_draws_like_randrange(seed, gp, conj_len):
    mine, theirs = pair(seed)
    for _ in range(5):
        assert as_tuple(random_symbol(gp, mine, conj_len)) == ref_random_symbol(
            gp, theirs, conj_len
        )
    assert mine.getstate() == theirs.getstate()


@given(SEEDS, st.sampled_from(PRESENTATIONS), st.integers(0, 6))
@settings(max_examples=100, deadline=None)
def test_random_sequence_draws_like_randrange(seed, gp, max_len):
    mine, theirs = pair(seed)
    for _ in range(5):
        drawn = random_sequence(gp, mine, max_len)
        assert tuple(map(as_tuple, drawn.symbols)) == ref_random_sequence(gp, theirs, max_len)
    assert mine.getstate() == theirs.getstate()


@given(st.integers(0, 2**40), st.sampled_from(PRESENTATIONS), st.integers(0, 12))
@settings(max_examples=60, deadline=None)
def test_scramble_draws_like_randrange(seed, gp, k):
    seq, cert = scramble(gp, seed, k)
    assert (seq, cert.moves) == ref_scramble_moves(gp, seed, k)


# --- empty ranges raise, as randrange does, and do not spin ----------------------


@pytest.mark.parametrize("n", [0, -1, -7])
def test_below_rejects_an_empty_range(n):
    with pytest.raises(ValueError):
        _below(Bounded(0).getrandbits, n)


def test_a_letter_over_the_empty_alphabet_raises():
    empty = Alphabet(())
    outcomes = set()
    for seed in range(20):
        count = random.Random(seed).randrange(7)
        if count:
            with pytest.raises(ValueError):
                random_word(empty, Bounded(seed))
        else:
            assert random_word(empty, Bounded(seed)) == empty_word(empty)
        outcomes.add(count > 0)
    assert outcomes == {True, False}


def test_a_negative_length_raises():
    with pytest.raises(ValueError):
        random_word(Alphabet(("a", "b")), Bounded(0), -1)


def test_a_symbol_without_relators_raises():
    free = parse("group free\ngens a b\n")
    with pytest.raises(ValueError):
        random_symbol(free, Bounded(0))
