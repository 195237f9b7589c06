import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asphere import peiffer
from asphere.fixtures import load_fixtures
from asphere.partial import EXHAUSTED
from asphere.peiffer import (
    Certificate,
    IllegalMoveError,
    Move,
    MoveKind,
    NotIdentityError,
    YSequence,
    YSymbol,
    apply_move,
    base_insert_pool,
    boundary,
    certificate_from_json,
    certificate_to_json,
    conjugate_sequence,
    dynamic_insert_pool,
    empty_sequence,
    fiber_pair,
    insertion_generator,
    inverse_sequence,
    invert_certificate,
    is_identity,
    legal_moves,
    length_lower_bound,
    replay,
    scramble,
    search_trivialization,
    symbol_to_json,
    verify_certificate,
    ysequence_from_json,
    ysequence_to_json,
)
from asphere.presentations import parse
from asphere.xmod import ReducibleFixture
from asphere.words import (
    AlphabetError,
    FreeWord,
    empty_word,
    multiply,
    random_word,
    word_from_text,
    word_to_text,
)

GP = parse("group P\ngens a b\nrel r = a b\nrel s = a a b^-1\n")
ONE = empty_word(GP.alphabet)
A = word_from_text(GP.alphabet, "a")


def sym(rel="r", conj=ONE, sign=1):
    return YSymbol(rel, conj, sign)


def seq(*symbols):
    return YSequence(GP, tuple(symbols))


def random_sequence(rng, max_len=4):
    names = GP.relator_names
    return YSequence(
        GP,
        tuple(
            YSymbol(rng.choice(names), random_word(GP.alphabet, rng, 3), rng.choice((1, -1)))
            for _ in range(rng.randrange(max_len + 1))
        ),
    )


class TestBoundary:
    def test_empty(self):
        assert boundary(empty_sequence(GP)).is_identity

    def test_single_symbol(self):
        assert word_to_text(boundary(seq(sym()))) == "a b"

    def test_inverse_pair_cancels(self):
        assert boundary(seq(sym(), sym(sign=-1))).is_identity

    def test_conjugated_symbol(self):
        assert word_to_text(boundary(seq(sym(conj=A)))) == "a a b a^-1"

    def test_is_identity_examples(self):
        assert is_identity(empty_sequence(GP))
        assert not is_identity(seq(sym()))
        assert is_identity(seq(sym(conj=A), sym(conj=A, sign=-1)))

    def test_unknown_relator_rejected(self):
        with pytest.raises(KeyError):
            seq(YSymbol("nope", ONE, 1))


class TestMoves:
    def test_exchange_left_twists_by_boundary(self):
        # the slid symbol picks up the first symbol's whole boundary word
        d = seq(sym(), sym())
        e = apply_move(d, Move(MoveKind.EXCHANGE_L, 0))
        assert e.symbols[0] == YSymbol("r", word_from_text(GP.alphabet, "a b"), 1)
        assert e.symbols[1] == sym()

    def test_exchange_right_twists_by_inverse_boundary(self):
        d = seq(sym(), sym("s"))
        e = apply_move(d, Move(MoveKind.EXCHANGE_R, 0))
        assert e.symbols[0] == sym("s")
        assert e.symbols[1].relator == "r"
        assert e.symbols[1].conjugator == boundary(seq(sym("s", sign=-1)))

    def test_delete_requires_exact_pair(self):
        ok = seq(sym(conj=A), sym(conj=A, sign=-1))
        assert apply_move(ok, Move(MoveKind.DELETE, 0)) == empty_sequence(GP)
        bad = seq(sym(conj=A), sym(sign=-1))
        with pytest.raises(IllegalMoveError):
            apply_move(bad, Move(MoveKind.DELETE, 0))

    def test_insert_adds_adjacent_pair(self):
        d = apply_move(empty_sequence(GP), Move(MoveKind.INSERT, 0, sym(conj=A)))
        assert d == seq(sym(conj=A), sym(conj=A, sign=-1))

    def test_out_of_range_rejected(self):
        with pytest.raises(IllegalMoveError):
            apply_move(seq(sym()), Move(MoveKind.EXCHANGE_L, 0))
        with pytest.raises(IllegalMoveError):
            apply_move(empty_sequence(GP), Move(MoveKind.INSERT, 1, sym()))

    def test_boundary_invariance_samples(self):
        rng = random.Random(0)
        pool = base_insert_pool(GP)
        for _ in range(1000):
            d = random_sequence(rng)
            moves = legal_moves(d, pool)
            if not moves:
                continue
            m = rng.choice(moves)
            assert boundary(apply_move(d, m)) == boundary(d)

    def test_exchange_involution_samples(self):
        rng = random.Random(1)
        for _ in range(500):
            d = random_sequence(rng)
            if len(d.symbols) < 2:
                continue
            i = rng.randrange(len(d.symbols) - 1)
            assert apply_move(apply_move(d, Move(MoveKind.EXCHANGE_L, i)), Move(MoveKind.EXCHANGE_R, i)) == d
            assert apply_move(apply_move(d, Move(MoveKind.EXCHANGE_R, i)), Move(MoveKind.EXCHANGE_L, i)) == d


class TestLegalMoves:
    def test_empty_sequence_no_pool(self):
        assert legal_moves(empty_sequence(GP), ()) == []

    def test_two_symbols_no_delete(self):
        moves = legal_moves(seq(sym(), sym("s")), ())
        assert [m.kind for m in moves] == [MoveKind.EXCHANGE_L, MoveKind.EXCHANGE_R]
        assert [m.pos for m in moves] == [0, 0]

    def test_deletable_pair_counted_by_hand(self):
        moves = legal_moves(seq(sym(conj=A), sym(conj=A, sign=-1)), ())
        assert len(moves) == 3
        assert moves[0].kind == MoveKind.DELETE

    def test_insert_positions(self):
        pool = [sym()]
        moves = legal_moves(seq(sym()), pool)
        inserts = [m for m in moves if m.kind == MoveKind.INSERT]
        assert [m.pos for m in inserts] == [0, 1]

    @staticmethod
    def grow_step_tables():
        # twelve symbols need step moves at positions 0..10
        long = seq(*(sym(conj=A, sign=(-1) ** i) for i in range(12)))
        moves = legal_moves(long, ())
        assert len(moves) == 11 + 2 * 11

    def test_short_sequences_after_growth(self):
        # the step moves come from shared tables; a short sequence gets only
        # the positions it has, whatever the tables hold
        self.grow_step_tables()
        assert legal_moves(empty_sequence(GP), ()) == []
        assert legal_moves(seq(sym()), ()) == []
        assert legal_moves(seq(sym(), sym("s")), ()) == [
            Move(MoveKind.EXCHANGE_L, 0),
            Move(MoveKind.EXCHANGE_R, 0),
        ]
        assert legal_moves(seq(sym(conj=A), sym(conj=A, sign=-1)), ()) == [
            Move(MoveKind.DELETE, 0),
            Move(MoveKind.EXCHANGE_L, 0),
            Move(MoveKind.EXCHANGE_R, 0),
        ]

    def test_table_entry_is_its_position(self):
        self.grow_step_tables()
        moves = legal_moves(seq(sym(), sym("s"), sym()), ())
        assert moves == [
            Move(MoveKind.EXCHANGE_L, 0),
            Move(MoveKind.EXCHANGE_L, 1),
            Move(MoveKind.EXCHANGE_R, 0),
            Move(MoveKind.EXCHANGE_R, 1),
        ]
        # the same (kind, position) is the same object on every call
        again = legal_moves(seq(sym("s"), sym(), sym("s"), sym()), ())
        assert all(m is a for m, a in zip(moves[:2], again[:2]))


class TestTrustedMoves:
    def test_every_legal_move_equals_its_public_twin(self):
        rng = random.Random(23)
        for gp in load_fixtures().peiffer_presentations():
            pool = base_insert_pool(gp)
            for _ in range(20):
                d = peiffer.random_sequence(gp, rng, max_len=5)
                for m in legal_moves(d, pool + dynamic_insert_pool(d)):
                    twin = Move(m.kind, m.pos, m.symbol)
                    assert m == twin and hash(m) == hash(twin)

    def test_public_move_still_checks_its_symbol(self):
        with pytest.raises(ValueError):
            Move(MoveKind.INSERT, 0)
        with pytest.raises(ValueError):
            Move(MoveKind.DELETE, 0, sym())

    @pytest.mark.parametrize("pos", [True, 1.5, "0"])
    def test_public_move_takes_only_an_int_position(self, pos):
        # a bool would be written as a JSON boolean the reader rejects, and a
        # float or string would fail a replay by TypeError, not by report
        with pytest.raises(ValueError, match="position"):
            Move(MoveKind.DELETE, pos)

    @pytest.mark.parametrize("sign", [True, 1.0])
    def test_public_symbol_takes_only_an_int_sign(self, sign):
        # True == 1, but it would be written as "sign": true, which
        # ysequence_from_json rejects
        with pytest.raises(ValueError, match="sign"):
            YSymbol("r", ONE, sign)


class TestScramble:
    def test_zero_moves(self):
        d, cert = scramble(GP, seed=0, k=0)
        assert d == empty_sequence(GP) and cert.moves == ()

    def test_one_move_is_an_insert(self):
        d, cert = scramble(GP, seed=0, k=1)
        assert len(d.symbols) == 2
        assert d.symbols[1] == d.symbols[0].inverse()
        assert cert.moves[0].kind == MoveKind.INSERT

    def test_pool_specs_name_the_cap(self):
        d, cert = scramble(GP, seed=3, k=2)
        assert cert.pool_spec == "scramble(seed=3,cap=8)"
        assert search_trivialization(d).pool_spec == "dynamic(cap=8)"

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError, match="k"):
            scramble(GP, seed=0, k=-1)

    def test_negative_seed_rejected(self):
        # random.Random(-5) draws the stream of random.Random(5), so the
        # result would name a seed that did not make it
        with pytest.raises(ValueError, match="seed"):
            scramble(GP, seed=-5, k=4)
        with pytest.raises(ValueError, match="seed"):
            scramble(GP, seed=-1, k=0)

    def test_no_relators_rejected(self):
        # nothing can be inserted, so a move cannot be drawn
        free = parse("group free\ngens a b\n")
        with pytest.raises(ValueError, match="no relators"):
            scramble(free, seed=0, k=2)
        d, cert = scramble(free, seed=0, k=0)
        assert d == empty_sequence(free) and cert.moves == ()

    def test_merged_pool_is_the_sorted_union(self):
        # scramble builds insert symbol j of the merged pool by index, sharing
        # one twist table across the steps; the reference sorts the union of
        # the two pools and indexes it
        steps = 0
        for gp in load_fixtures().presentations.values():
            base = base_insert_pool(gp)
            for seed in range(40):
                d = empty_sequence(gp)
                twists = {}
                for m in scramble(gp, seed, 1 + seed % 8)[1].moves:
                    dynamic = dynamic_insert_pool(d)
                    reference = sorted(set(base) | set(dynamic), key=YSymbol.sort_key)
                    rows = peiffer._scramble_rows(gp, d.symbols, twists)
                    assert sum(2 * len(us) for _, us in rows) == len(reference)
                    for j, expected in enumerate(reference):
                        assert peiffer._row_symbol(rows, j) == expected
                    d = apply_move(d, m)
                    steps += 1
        assert steps == 1260

    @given(st.integers(0, 10_000), st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_always_identity(self, seed, k):
        d, cert = scramble(GP, seed=seed, k=k)
        assert is_identity(d)
        assert replay(empty_sequence(GP), cert) == d


class TestBasePool:
    """The base pool is built once per presentation; each call hands out a
    new list."""

    @staticmethod
    def uncached(gp):
        alphabet = gp.alphabet
        conjugators = [empty_word(alphabet)] + [
            word_from_text(alphabet, text)
            for name in alphabet.generators
            for text in (name, f"{name}^-1")
        ]
        pool = [
            YSymbol(rel, u, sign)
            for rel in gp.relator_names
            for u in conjugators
            for sign in (1, -1)
        ]
        return sorted(pool, key=YSymbol.sort_key)

    @pytest.mark.parametrize("name", sorted(load_fixtures().presentations))
    def test_equals_the_sorted_uncached_build(self, name):
        gp = load_fixtures().presentations[name]
        assert base_insert_pool(gp) == self.uncached(gp)
        assert base_insert_pool(gp) == self.uncached(gp)

    def test_a_caller_cannot_change_the_cache(self):
        gp = load_fixtures().presentations["sym3"]
        expected = scramble(gp, 4, 6)
        first = base_insert_pool(gp)
        second = base_insert_pool(gp)
        assert first is not second
        first.append(sym())
        first.reverse()
        assert base_insert_pool(gp) == second == self.uncached(gp)
        assert scramble(gp, 4, 6) == expected


def long_identity(symbols: int, seed: int = 0) -> YSequence:
    """d d^-1 for d of ``symbols`` random c3 symbols: its lower bound is
    ``symbols`` moves, and deletions alone reach the empty sequence."""
    gp = load_fixtures().presentations["c3"]
    rng = random.Random(seed)
    d = YSequence(gp, tuple(peiffer.random_symbol(gp, rng) for _ in range(symbols)))
    return d.concat(inverse_sequence(d))


def leftmost_deletes(d: YSequence) -> tuple[Move, ...]:
    """The moves that delete the leftmost adjacent inverse pair of d until
    d is empty; d must reduce to the empty sequence by deletions alone."""
    syms = list(d.symbols)
    moves = []
    i = 0
    while syms:
        # a deletion at i leaves the pairs left of i - 1 as they were
        while syms[i + 1] != syms[i].inverse():
            i += 1
        moves.append(Move(MoveKind.DELETE, i))
        del syms[i : i + 2]
        i = max(i - 1, 0)
    return tuple(moves)


class TestSearch:
    def test_a_certificate_past_the_recursion_limit_is_found(self):
        # 1,050 moves, past Python's default recursion limit of 1,000: only
        # the budget bounds the depth.  At the lower bound every move is a
        # deletion, tried leftmost first, and deletions alone reduce d d^-1
        # to empty from any sequence they reach
        d = long_identity(1050)
        assert length_lower_bound(d) == 1050
        cert = search_trivialization(d)
        assert cert.moves == leftmost_deletes(d)
        assert len(cert.moves) == 1050 and verify_certificate(d, cert)

    def test_empty_sequence(self):
        cert = search_trivialization(empty_sequence(GP))
        assert cert.moves == ()

    def test_single_delete(self):
        d = seq(sym(conj=A), sym(conj=A, sign=-1))
        cert = search_trivialization(d)
        assert len(cert.moves) == 1 and cert.moves[0].kind == MoveKind.DELETE
        assert verify_certificate(d, cert)

    @pytest.mark.parametrize("kwargs", [{"node_budget": -1}, {"depth_limit": -3}])
    def test_negative_budgets_rejected(self, kwargs):
        # a negative budget is an input error, not an exhausted search;
        # zero stays legal everywhere
        d = seq(sym(conj=A), sym(conj=A, sign=-1))
        with pytest.raises(ValueError):
            search_trivialization(d, **kwargs)
        assert search_trivialization(d, node_budget=0) is EXHAUSTED
        assert search_trivialization(d, depth_limit=0) is EXHAUSTED

    def test_rejects_non_identity(self):
        with pytest.raises(NotIdentityError):
            search_trivialization(seq(sym()))

    def test_scramble_recover_rate(self):
        rng = random.Random(7)
        found = 0
        total = 60
        for _ in range(total):
            k = rng.randrange(1, 7)
            d, _ = scramble(GP, seed=rng.randrange(1 << 30), k=k)
            cert = search_trivialization(d, node_budget=50_000, depth_limit=2 * k)
            if cert is not EXHAUSTED:
                assert verify_certificate(d, cert)
                found += 1
        assert found / total >= 0.95

    def test_deterministic(self):
        d, _ = scramble(GP, seed=11, k=4)
        c1 = search_trivialization(d)
        c2 = search_trivialization(d)
        assert c1 == c2
        assert json.dumps(certificate_to_json(c1)) == json.dumps(certificate_to_json(c2))
        # certificates share their step moves and their pool_spec string
        assert c1.pool_spec is c2.pool_spec
        for m1, m2 in zip(c1.moves, c2.moves):
            assert m1 is m2 or m1.kind is MoveKind.INSERT

    def test_certificate_is_shortest_then_lexicographically_least(self):
        # two deletable pairs: the minimal certificates are two deletions,
        # and the canonical one deletes at position 0 first
        d = seq(sym(conj=A), sym(conj=A, sign=-1), sym("s"), sym("s", sign=-1))
        cert = search_trivialization(d)
        assert [(m.kind, m.pos) for m in cert.moves] == [
            (MoveKind.DELETE, 0),
            (MoveKind.DELETE, 0),
        ]

    def test_odd_length_identity_exhausts_immediately(self):
        # r * r * (r r)^-1-like odd configurations can be identities but
        # never reach the empty sequence: length parity is move-invariant
        gp = parse("group Q\ngens a\nrel r = a\nrel s = a a\n")
        one = empty_word(gp.alphabet)
        d = YSequence(
            gp,
            (YSymbol("r", one, 1), YSymbol("r", one, 1), YSymbol("s", one, -1)),
        )
        assert is_identity(d)
        assert search_trivialization(d, node_budget=10_000, depth_limit=8) is EXHAUSTED


def counter_lower_bound(d):
    """The lower bound's reference formula: n minus the sum over (relator,
    conjugator) keys of min(#sign +1, #sign -1), counted with ``Counter``."""
    plus = Counter((s.relator, s.conjugator) for s in d.symbols if s.sign > 0)
    minus = Counter((s.relator, s.conjugator) for s in d.symbols if s.sign < 0)
    return len(d.symbols) - sum((plus & minus).values())


class TestEntryFormulas:
    """The search's entry work against the plain formulas, over random
    sequences of every fixture with conjugators of up to 8 letters: each
    sequence d, the identity d d^-1, and a shuffle of d d^-1 d, which repeats
    keys with both signs and is rarely an identity."""

    @staticmethod
    def sequences(seed):
        rng = random.Random(seed)
        for gp in load_fixtures().presentations.values():
            count = rng.randrange(7)
            d = YSequence(gp, tuple(peiffer.random_symbol(gp, rng, 8) for _ in range(count)))
            doubled = d.concat(inverse_sequence(d))
            mixed = list(doubled.symbols + d.symbols)
            rng.shuffle(mixed)
            yield from (d, doubled, YSequence(gp, tuple(mixed)))

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_boundary_and_identity_match_the_multiply_fold(self, seed):
        for d in self.sequences(seed):
            gp = d.presentation
            fold = empty_word(gp.alphabet)
            for s in d.symbols:
                fold = multiply(fold, peiffer.symbol_boundary(gp, s))
            assert boundary(d) == fold
            assert is_identity(d) == fold.is_identity

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_lower_bound_matches_the_counter_formula(self, seed):
        for d in self.sequences(seed):
            assert length_lower_bound(d) == counter_lower_bound(d)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_symbol_hash_is_the_field_tuple_hash(self, seed):
        for d in self.sequences(seed):
            for s in d.symbols:
                assert hash(s) == hash((s.relator, s.conjugator, s.sign))
                # random_symbol builds trusted; the public twin hashes alike
                u = s.conjugator
                twin = YSymbol(s.relator, FreeWord(u.alphabet, u.letters), s.sign)
                assert twin == s and hash(twin) == hash(s)


class TestLengthLowerBound:
    """h = n - M over seeded scrambles of every Peiffer fixture: every
    sequence on each scramble's path, and every child of it by a legal move
    with the dynamic insert pool."""

    @staticmethod
    def scramble_paths():
        for gp in load_fixtures().peiffer_presentations():
            for seed in range(16):
                k = 1 + seed % 8
                d, cert = scramble(gp, seed=seed, k=k)
                path = [empty_sequence(gp)]
                for m in cert.moves:
                    path.append(apply_move(path[-1], m))
                assert path[-1] == d
                yield k, path

    def test_zero_exactly_on_empty_and_at_least_half_the_length(self):
        for _, path in self.scramble_paths():
            for d in path:
                h = length_lower_bound(d)
                n = len(d.symbols)
                assert (h == 0) == (n == 0)
                assert h >= n // 2

    def test_every_move_changes_it_by_at_most_one(self):
        children = {kind: 0 for kind in MoveKind}
        for _, path in self.scramble_paths():
            for d in path:
                h = length_lower_bound(d)
                for m in legal_moves(d, dynamic_insert_pool(d)):
                    step = length_lower_bound(apply_move(d, m)) - h
                    if m.kind is MoveKind.DELETE:
                        assert step == -1
                    elif m.kind is MoveKind.INSERT:
                        assert step == 1
                    else:
                        assert abs(step) <= 1
                    children[m.kind] += 1
        assert all(children.values())

    def test_no_certificate_is_shorter(self):
        found = 0
        for k, path in self.scramble_paths():
            d = path[-1]
            h = length_lower_bound(d)
            assert h <= k  # the scramble's own moves, inverted, take d back
            cert = search_trivialization(d, node_budget=100, depth_limit=2 * k)
            if cert is not EXHAUSTED:
                assert verify_certificate(d, cert)
                assert h <= len(cert.moves)
                found += 1
        assert found


class TestCertificates:
    def test_inverted_scramble_certificate_trivializes(self):
        for seed in range(30):
            d, forward = scramble(GP, seed=seed, k=4)
            backward = invert_certificate(empty_sequence(GP), forward)
            assert verify_certificate(d, backward)

    def test_out_of_range_move_fails_at_step_zero(self):
        # the range is apply_move's check, not Move's: a replay reports it
        for pos in (5, -1):
            report = verify_certificate(seq(sym()), Certificate((Move(MoveKind.DELETE, pos),)))
            assert not report
            assert report.failed_step == 0

    def test_leftover_symbols_fail(self):
        report = verify_certificate(seq(sym()), Certificate(()))
        assert not report and "length" in report.reason

    def test_insert_symbol_is_checked_against_the_presentation(self):
        # the moves build trusted sequences, so an Insert move's symbol is the
        # one input a replay must still check
        other = parse("group Q\ngens a c\nrel r = a c\n")
        unknown = Move(MoveKind.INSERT, 0, YSymbol("nope", ONE, 1))
        foreign = Move(MoveKind.INSERT, 0, YSymbol("r", word_from_text(other.alphabet, "c"), 1))
        with pytest.raises(KeyError):
            apply_move(seq(sym()), unknown)
        with pytest.raises(AlphabetError):
            apply_move(seq(sym()), foreign)
        d = seq(sym(), sym(sign=-1))
        for bad in (unknown, foreign):
            report = verify_certificate(d, Certificate((Move(MoveKind.DELETE, 0), bad)))
            assert not report.ok
            assert report.failed_step == 1

    def test_json_round_trip(self):
        d, cert = scramble(GP, seed=3, k=3)
        as_json = json.loads(json.dumps(certificate_to_json(cert)))
        assert certificate_from_json(GP, as_json) == cert
        seq_json = json.loads(json.dumps(ysequence_to_json(d)))
        assert ysequence_from_json(GP, seq_json) == d


class TestSequenceOperations:
    def test_conjugate_by_identity(self):
        rng = random.Random(2)
        d = random_sequence(rng)
        assert conjugate_sequence(ONE, d) == d

    def test_conjugate_single(self):
        assert conjugate_sequence(A, seq(sym())) == seq(sym(conj=A))

    def test_action_composition(self):
        rng = random.Random(3)
        for _ in range(500):
            d = random_sequence(rng)
            v, w = random_word(GP.alphabet, rng, 3), random_word(GP.alphabet, rng, 3)
            from asphere.words import multiply

            assert conjugate_sequence(v, conjugate_sequence(w, d)) == conjugate_sequence(
                multiply(v, w), d
            )

    def test_identity_preserved_under_conjugation(self):
        rng = random.Random(4)
        for seed in range(50):
            d, _ = scramble(GP, seed=seed, k=3)
            w = random_word(GP.alphabet, rng, 4)
            assert is_identity(conjugate_sequence(w, d))

    def test_fiber_pair_of_empty(self):
        assert fiber_pair(A, empty_sequence(GP)) == empty_sequence(GP)

    def test_fiber_pair_identity_boundary(self):
        d = seq(sym(), sym(sign=-1))
        n0 = boundary(seq(sym()))
        result = fiber_pair(n0, d)
        assert len(result.symbols) == 4
        assert is_identity(result)

    def test_fiber_pair_rejects_non_identity(self):
        with pytest.raises(NotIdentityError):
            fiber_pair(A, seq(sym()))

    def test_inverse_sequence_shape(self):
        d = seq(sym(), sym("s", conj=A))
        inv = inverse_sequence(d)
        assert inv.symbols[0] == YSymbol("s", A, -1)
        assert inv.symbols[1] == YSymbol("r", ONE, -1)


class TestInsertionGenerator:
    def test_shape(self):
        g = insertion_generator(sym(), GP)
        assert g.symbols == (sym(), sym(sign=-1))

    def test_boundary_empty(self):
        rng = random.Random(5)
        pool = base_insert_pool(GP)
        for a in pool:
            assert boundary(insertion_generator(a, GP)).is_identity

    def test_single_delete_trivializes(self):
        g = insertion_generator(sym(conj=A), GP)
        cert = search_trivialization(g)
        assert len(cert.moves) == 1


class TestPairCrossing:
    def test_two_exchange_rights_carry_a_symbol_across_a_pair(self):
        # the centrality battery's witness: ExchangeR at 0, then at 1, takes
        # (b, a, a^-1) to exactly (a, a^-1, b)
        rng = random.Random(6)
        pool = base_insert_pool(GP)
        for _ in range(200):
            a = rng.choice(pool)
            b = YSymbol(
                rng.choice(GP.relator_names), random_word(GP.alphabet, rng, 2), rng.choice((1, -1))
            )
            d = seq(b, a, a.inverse())
            for pos in (0, 1):
                d = apply_move(d, Move(MoveKind.EXCHANGE_R, pos))
            assert d == seq(a, a.inverse(), b)

    def test_boundary_level_centrality(self):
        rng = random.Random(8)
        pool = base_insert_pool(GP)
        for _ in range(200):
            d = random_sequence(rng)
            g = insertion_generator(rng.choice(pool), GP)
            assert boundary(d.concat(g)) == boundary(d)
            assert boundary(g.concat(d)) == boundary(d)


class TestDynamicPool:
    def test_contains_present_conjugators(self):
        d = seq(sym(conj=A))
        pool = dynamic_insert_pool(d)
        assert sym(conj=A) in pool
        assert sym(conj=A, sign=-1) in pool

    def test_cap_filters_long_conjugators(self):
        long_word = word_from_text(GP.alphabet, "a b a b a b a b a")
        assert len(long_word.letters) > peiffer.CONJ_CAP
        d = seq(sym(conj=long_word), sym(conj=A))
        conjugators = {s.conjugator for s in dynamic_insert_pool(d)}
        assert A in conjugators and long_word not in conjugators
        assert all(len(u.letters) <= peiffer.CONJ_CAP for u in conjugators)

    @given(st.integers(0, 10_000), st.integers(0, 6))
    @settings(max_examples=40, deadline=None)
    def test_pool_and_insert_children_match_their_definitions(self, seed, max_len):
        # the pool is emitted in order and Insert children are built in place;
        # both must equal the plain construction over public constructors.  A
        # symbol one letter over the cap joins each sequence, so the cap acts
        cap = peiffer.CONJ_CAP
        rng = random.Random(seed)
        for gp in load_fixtures().peiffer_presentations():
            long_word = word_from_text(gp.alphabet, f"{gp.alphabet.generators[0]} " * (cap + 1))
            syms = peiffer.random_sequence(gp, rng, max_len=max_len).symbols
            at = rng.randrange(len(syms) + 1)
            syms = syms[:at] + (YSymbol(gp.relator_names[0], long_word, 1),) + syms[at:]
            d = YSequence(gp, syms)
            conjugators = {s.conjugator for s in syms}
            for a, b in zip(syms, syms[1:]):
                conjugators.add(multiply(peiffer.symbol_boundary(gp, a), b.conjugator))
                conjugators.add(multiply(peiffer.symbol_boundary(gp, b.inverse()), a.conjugator))
            expected = sorted(
                (
                    YSymbol(rel, u, sign)
                    for rel in {s.relator for s in syms}
                    for u in conjugators
                    if len(u.letters) <= cap
                    for sign in (1, -1)
                ),
                key=YSymbol.sort_key,
            )
            pool = dynamic_insert_pool(d)
            assert pool == expected
            assert all(s.conjugator != long_word for s in pool)
            # the pool holds every one-step exchange product within the cap:
            # the slid symbol of each ExchangeL and ExchangeR child
            for i in range(len(syms) - 1):
                for kind, slid in ((MoveKind.EXCHANGE_L, i), (MoveKind.EXCHANGE_R, i + 1)):
                    twisted = apply_move(d, Move(kind, i)).symbols[slid]
                    if len(twisted.conjugator.letters) <= cap:
                        assert twisted in pool
            for i in range(len(syms) + 1):
                for a in pool:
                    child = apply_move(d, Move(MoveKind.INSERT, i, a))
                    assert child == YSequence(gp, syms[:i] + (a, a.inverse()) + syms[i:])


class TestRandomSamplers:
    """The draws are pinned: the suite's report bytes depend on them."""

    def test_random_sequence_draws(self):
        gp = load_fixtures().presentations["sym3"]
        rng = random.Random(5)
        draws = [ysequence_to_json(peiffer.random_sequence(gp, rng)) for _ in range(3)]
        assert draws == [
            [
                {"rel": "r2", "conj": "1", "sign": 1},
                {"rel": "r1", "conj": "b b", "sign": 1},
                {"rel": "r1", "conj": "b^-1", "sign": 1},
                {"rel": "r2", "conj": "a", "sign": -1},
            ],
            [{"rel": "r1", "conj": "1", "sign": 1}],
            [{"rel": "r1", "conj": "a^-1", "sign": -1}],
        ]
        assert rng.randrange(1 << 30) == 427111572

    def test_random_symbol_draws(self):
        lot4 = ReducibleFixture.from_presentation(load_fixtures().presentations["lot4"])
        rng = random.Random(7)
        draws = [
            symbol_to_json(peiffer.random_symbol(lot4.subpresentation, rng, conj_len=4))
            for _ in range(3)
        ]
        assert draws == [
            {"rel": "r3", "conj": "x3", "sign": 1},
            {"rel": "r2", "conj": "x4 x4", "sign": 1},
            {"rel": "r2", "conj": "x3 x2 x4^-1", "sign": 1},
        ]
        assert rng.randrange(1 << 30) == 265862673

    def test_no_relators_draws_nothing(self):
        gp = parse("group F\ngens a\n")
        rng = random.Random(0)
        assert peiffer.random_sequence(gp, rng).symbols == ()
        assert rng.getstate() == random.Random(0).getstate()
