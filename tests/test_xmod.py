import hashlib
import random

import pytest

from asphere import xmod
from asphere.fixtures import load_fixtures
from asphere.partial import EXHAUSTED
from asphere.peiffer import (
    NotIdentityError,
    YSequence,
    YSymbol,
    empty_sequence,
    is_identity,
    random_sequence,
    random_symbol,
    scramble,
    search_trivialization,
    symbol_boundary,
    verify_certificate,
)
from asphere.presentations import (
    Retraction,
    decompose,
    in_kernel,
    lot_presentation,
    parse,
    retract,
    to_text,
)
from asphere.suite import FIXTURE_BATTERY_TABLE
from asphere.words import (
    Alphabet,
    AlphabetError,
    _commutator,
    conjugate,
    embed,
    empty_word,
    generator,
    invert,
    letter_index,
    letter_sign,
    multiply,
    product,
    random_word,
    restrict,
    word_from_text,
    word_to_text,
)
from asphere.xmod import (
    Derivation,
    MembershipError,
    NonRegularError,
    ReducibleFixture,
    _derivation,
    check_action_laws,
    check_actor_diagram,
    check_composition_formulas,
    check_crossed_module_axioms,
    check_decompose_roundtrip,
    check_derivation_law,
    check_projection,
    check_regularity,
    compose_alternative,
    compose_derivations,
    derivation_automorphism,
    induced_map,
    inner_derivation,
    project_identity_sequence,
    project_symbol,
    random_kernel_element,
    recombine,
    semidirect_action,
    sequence_derivation,
    symbol_derivation,
)

# toy fixture: z a = 1 forces z = a^-1; one surviving relator b
TOY = ReducibleFixture.from_presentation(
    parse("group toy\ngens a b z\nrel r0 = z a\nrel r = b\neliminate z\n")
)
LOT3 = ReducibleFixture.from_presentation(
    parse(
        "group lot3\ngens x1 x2 x3\n"
        "rel r1 = x3 x1 x3^-1 x2^-1\nrel r2 = x3 x2 x3^-1 x3^-1\neliminate x1\n"
    )
)
LOTS = load_fixtures().reducible_fixtures()
BIG = TOY.presentation.alphabet
SMALL = TOY.retraction.small_alphabet


def big(text):
    return word_from_text(BIG, text)


def small(text):
    return word_from_text(SMALL, text)


def toy_derivation(u, sign):
    """The relator derivation of the toy symbol (r, u, sign)."""
    return symbol_derivation(TOY.retraction, TOY.subpresentation, YSymbol("r", small(u), sign))


class TestConjugationXmod:
    def test_action_stays_in_kernel(self):
        t = big("z a")
        assert xmod._in_kernel(TOY.retraction, t)
        moved = conjugate(big("b"), t)
        assert word_to_text(moved) == "b z a b^-1"
        assert xmod._in_kernel(TOY.retraction, moved)

    def test_sampled_axioms(self):
        result = check_crossed_module_axioms(TOY, random.Random(1), 500)
        assert result.passed


class TestRelatorDerivation:
    def test_kills_the_identity(self):
        d = toy_derivation("1", 1)
        assert d(empty_word(BIG)).is_identity

    def test_toy_value_and_membership(self):
        d = toy_derivation("1", 1)
        n0 = big("z a")
        expected = multiply(conjugate(big("b"), n0), invert(n0))
        assert d(n0) == expected
        assert xmod._in_kernel(TOY.retraction, d(n0))

    def test_regularity_by_evaluation(self):
        rng = random.Random(2)
        d_plus = toy_derivation("a", 1)
        d_minus = toy_derivation("a", -1)
        for _ in range(200):
            n0 = random_kernel_element(TOY.retraction, rng)
            assert compose_derivations(d_plus, d_minus)(n0).is_identity
            assert compose_derivations(d_minus, d_plus)(n0).is_identity

    def test_derivation_law_battery(self):
        assert check_derivation_law(LOT3, random.Random(3), 500).passed

    def test_rejects_non_kernel_argument(self):
        d = toy_derivation("1", 1)
        with pytest.raises(MembershipError):
            d(big("a"))

    def test_regularity_battery_and_control(self):
        assert check_regularity(LOT3, random.Random(4), 300).passed
        assert not check_regularity(LOT3, random.Random(4), 300, perturb=True).passed


class TestComposition:
    def test_trivial_is_two_sided_identity(self):
        rng = random.Random(5)
        d = toy_derivation("a", 1)
        triv = inner_derivation(TOY.retraction, empty_word(SMALL))
        for _ in range(50):
            x = random_kernel_element(TOY.retraction, rng)
            assert compose_derivations(d, triv)(x) == d(x)
            assert compose_derivations(triv, d)(x) == d(x)

    def test_two_expressions_agree(self):
        rng = random.Random(6)
        retr, sub = LOT3.retraction, LOT3.subpresentation
        name = sub.relators[0][0]
        for _ in range(200):
            u1 = random_word(LOT3.retraction.small_alphabet, rng, 3)
            u2 = random_word(LOT3.retraction.small_alphabet, rng, 3)
            d1 = symbol_derivation(retr, sub, YSymbol(name, u1, rng.choice((1, -1))))
            d2 = symbol_derivation(retr, sub, YSymbol(name, u2, rng.choice((1, -1))))
            x = random_kernel_element(LOT3.retraction, rng)
            assert compose_derivations(d1, d2)(x) == compose_alternative(d1, d2)(x)

    def test_battery_and_control(self):
        assert check_composition_formulas(LOT3, random.Random(7), 300).passed
        assert not check_composition_formulas(LOT3, random.Random(7), 300, perturb=True).passed


class TestAutomorphismPairs:
    def test_trivial_derivation_gives_identity_pair(self):
        triv = inner_derivation(TOY.retraction, empty_word(SMALL))
        aut = derivation_automorphism(triv, triv, random.Random(0), 16)
        x = big("z a")
        assert aut(x) == x

    @pytest.mark.parametrize("fx", (TOY, *LOTS), ids=lambda fx: fx.presentation.name)
    def test_sigma_of_relator_derivation_is_conjugation(self, fx):
        retr, sub = fx.retraction, fx.subpresentation
        rng = random.Random(f"sigma/{fx.presentation.name}")
        for _ in range(100):
            s = random_symbol(sub, rng, conj_len=4)
            aut = induced_map(symbol_derivation(retr, sub, s))
            c = embed(symbol_boundary(sub, s), retr.big_alphabet)
            n0 = random_kernel_element(retr, rng)
            assert aut(n0) == conjugate(c, n0)

    def test_bad_witness_rejected(self):
        d = toy_derivation("a", 1)
        same = toy_derivation("a", 1)
        with pytest.raises(NonRegularError):
            derivation_automorphism(d, same, random.Random(11), samples=24)


class TestActorDiagram:
    def test_trivial_fixture_vacuous_pass(self):
        trivial = ReducibleFixture.from_presentation(
            parse("group t\ngens x1 x2\nrel r1 = x2 x1 x2^-1 x2^-1\neliminate x1\n")
        )
        result = check_actor_diagram(trivial, random.Random(14), 50)
        assert result.passed and result.samples == 0

    def test_toy_fixture_50_samples(self):
        assert check_actor_diagram(TOY, random.Random(15), 50).passed

    def test_corrupted_formula_fails(self):
        result = check_actor_diagram(TOY, random.Random(15), 50, perturb=True)
        assert not result.passed


class TestSemidirectAction:
    def test_identity_acts_trivially(self):
        t = big("z a")
        m = YSequence(TOY.subpresentation, (YSymbol("r", small("a"), 1),))
        t2, m2 = semidirect_action(TOY.retraction, empty_word(BIG), small("1"), t, m)
        assert t2 == t and m2.symbols == m.symbols

    def test_empty_sequence_reduces_to_double_conjugation(self):
        t = big("z a")
        g = big("b z a b^-1")
        p = small("a")
        t2, m2 = semidirect_action(
            TOY.retraction, g, p, t, empty_sequence(TOY.subpresentation)
        )
        assert t2 == conjugate(g, conjugate(embed(p, BIG), t))
        assert m2.symbols == ()

    def test_composition_law_battery(self):
        assert check_action_laws(LOT3, random.Random(16), 100).passed
        assert not check_action_laws(LOT3, random.Random(16), 100, perturb=True).passed

    def test_membership_checked(self):
        m = empty_sequence(TOY.subpresentation)
        with pytest.raises(MembershipError):
            semidirect_action(TOY.retraction, big("a"), small("1"), big("z a"), m)


class TestRecombine:
    def test_kernel_identity_gives_embedding(self):
        u1 = small("a b")
        assert recombine(TOY.retraction, empty_word(BIG), u1) == embed(u1, BIG)

    def test_round_trips(self):
        rng = random.Random(17)
        for _ in range(1000):
            u = random_word(BIG, rng, 8)
            u0, u1 = decompose(TOY.retraction, u)
            assert recombine(TOY.retraction, u0, u1) == u
        for _ in range(1000):
            n0 = random_kernel_element(TOY.retraction, rng, max_factors=2)
            w1 = random_word(SMALL, rng, 5)
            v = recombine(TOY.retraction, n0, w1)
            v0, v1 = decompose(TOY.retraction, v)
            assert v0 == n0 and v1 == embed(w1, BIG)

    def test_rejects_non_kernel_first_component(self):
        with pytest.raises(MembershipError):
            recombine(TOY.retraction, big("a"), small("1"))

    def test_battery(self):
        assert check_decompose_roundtrip(TOY, random.Random(18), 500).passed


class TestProjectSymbol:
    def test_surviving_relator_with_trivial_conjugator(self):
        first, second = project_symbol(TOY, YSymbol("r", empty_word(BIG), 1))
        assert first.is_identity
        assert second == YSymbol("r", small("1"), 1)

    def test_eliminated_relator(self):
        first, second = project_symbol(TOY, YSymbol("r0", empty_word(BIG), 1))
        assert first == big("z a")
        assert second is None

    def test_eliminated_relator_with_sign(self):
        first, second = project_symbol(TOY, YSymbol("r0", big("b"), -1))
        assert first == conjugate(big("b"), invert(big("z a")))
        assert second is None

    def test_z_conjugator_splits(self):
        first, second = project_symbol(TOY, YSymbol("r", big("z"), 1))
        u0, u1 = decompose(TOY.retraction, big("z"))
        assert word_to_text(u0) == "z a"
        assert second == YSymbol("r", small("a^-1"), 1)
        # correction term recomputed from the derivation formula
        c = embed(conjugate(small("a^-1"), small("b")), BIG)
        expected = invert(multiply(conjugate(c, u0), invert(u0)))
        assert first == expected
        assert xmod._in_kernel(TOY.retraction, first)

    def test_unknown_relator_rejected(self):
        with pytest.raises(KeyError):
            project_symbol(TOY, YSymbol("missing", empty_word(BIG), 1))


class TestProjectIdentitySequence:
    def test_empty(self):
        d1 = project_identity_sequence(TOY, empty_sequence(TOY.presentation))
        assert d1.symbols == ()

    def test_eliminated_pair_cancels(self):
        d = YSequence(
            TOY.presentation,
            (YSymbol("r0", empty_word(BIG), 1), YSymbol("r0", empty_word(BIG), -1)),
        )
        d1 = project_identity_sequence(TOY, d)
        assert d1.symbols == ()

    def test_rejects_non_identity(self):
        d = YSequence(TOY.presentation, (YSymbol("r", empty_word(BIG), 1),))
        with pytest.raises(NotIdentityError):
            project_identity_sequence(TOY, d)

    def test_rejects_a_sequence_over_another_presentation(self):
        # the same alphabet and relator names as lot3, but other relators:
        # such a sequence used to project to a residual or to report an
        # inconsistency
        fx = next(fx for fx in LOTS if fx.presentation.name == "lot3")
        other = parse(
            "group lot3\ngens x1 x2 x3\n"
            "rel r1 = x1 x2 x1^-1 x3^-1\nrel r2 = x2 x3 x2^-1 x1^-1\n"
        )
        twin = parse(to_text(fx.presentation))
        assert other.alphabet is twin.alphabet is fx.presentation.alphabet
        rng = random.Random(23)
        for _ in range(30):
            seed = rng.randrange(1 << 30)
            d, _ = scramble(other, seed=seed, k=4)
            with pytest.raises(ValueError, match="fixture's presentation"):
                project_identity_sequence(fx, d)
            # an equal presentation that is another object is the fixture's
            d, _ = scramble(twin, seed=seed, k=4)
            assert is_identity(project_identity_sequence(fx, d))

    def test_scrambles_project_cleanly(self):
        rng = random.Random(19)
        for fixture in (TOY, LOT3):
            for _ in range(50):
                d, _ = scramble(fixture.presentation, seed=rng.randrange(1 << 30), k=rng.randrange(1, 6))
                d1 = project_identity_sequence(fixture, d)
                assert is_identity(d1)

    def test_projection_battery(self):
        result = check_projection(LOT3, random.Random(20), 30)
        assert result.passed
        counters = dict(result.counters)
        assert counters["searched"] == 30 and counters["found"] >= 27

    def test_residual_certificates_replay(self):
        rng = random.Random(21)
        for _ in range(20):
            d, _ = scramble(LOT3.presentation, seed=rng.randrange(1 << 30), k=4)
            d1 = project_identity_sequence(LOT3, d)
            cert = search_trivialization(d1, depth_limit=2 * max(len(d1.symbols), 1))
            if cert is not EXHAUSTED:
                assert verify_certificate(d1, cert)


def wrong_retraction():
    """TOY's retraction with z sent to a word that does not kill r0 = z a."""
    retr = TOY.retraction
    return Retraction(
        retr.big_alphabet, retr.small_alphabet, retr.z, small("a^-1 b"), retr.source_relator
    )


class TestProjectionFailure:
    """A retraction that sends z to a wrong word breaks the projection: the
    kernel component of some identity sequences no longer vanishes, and the
    raised inconsistency carries it."""

    def wrong_fixture(self):
        # the constructor rejects this fixture, so build it around the check
        fx = object.__new__(ReducibleFixture)
        fx.__dict__.update(
            presentation=TOY.presentation,
            retraction=wrong_retraction(),
            subpresentation=TOY.subpresentation,
        )
        return fx

    def test_nonvanishing_kernel_component_is_the_residue(self):
        fx = self.wrong_fixture()
        rng = random.Random(0)
        residues = []
        for _ in range(200):
            d, _ = scramble(fx.presentation, seed=rng.randrange(1 << 30), k=rng.randrange(1, 6))
            assert is_identity(project_identity_sequence(TOY, d))
            try:
                project_identity_sequence(fx, d)
            except xmod.InconsistencyError as exc:
                residues.append(exc.residue)
        assert residues
        assert all(w is not None and not w.is_identity for w in residues)

    def test_projection_battery_reports_the_failure(self):
        result = check_projection(self.wrong_fixture(), random.Random(0), 100)
        assert not result.passed
        assert "nonvanishing kernel component" in result.detail[0]


class TestSequenceDerivation:
    def test_empty_sequence_is_trivial(self):
        d = sequence_derivation(TOY.retraction, empty_sequence(TOY.subpresentation))
        assert d(big("z a")).is_identity

    def test_singleton_matches_relator_derivation(self):
        m = YSequence(TOY.subpresentation, (YSymbol("r", small("a"), -1),))
        composed = sequence_derivation(TOY.retraction, m)
        direct = toy_derivation("a", -1)
        rng = random.Random(22)
        for _ in range(100):
            x = random_kernel_element(TOY.retraction, rng)
            assert composed(x) == direct(x)


    @pytest.mark.parametrize("fx", LOTS, ids=lambda fx: fx.presentation.name)
    def test_closed_form_matches_the_composed_chain(self, fx):
        # the deliberate cross-check of the closed form: Whitehead composition
        # of the per-symbol relator derivations, left to right
        retr, sub = fx.retraction, fx.subpresentation
        rng = random.Random(f"sequence-derivation/{fx.presentation.name}")
        for _ in range(40):
            m = random_sequence(sub, rng, max_len=5)
            chain = inner_derivation(retr, empty_word(retr.small_alphabet))
            for s in m.symbols:
                chain = compose_derivations(chain, symbol_derivation(retr, sub, s))
            closed = sequence_derivation(retr, m)
            for _ in range(3):
                x = random_kernel_element(retr, rng)
                assert closed(x) == chain(x)


class TestFixtureConstruction:
    def test_direct_construction_of_a_fitting_fixture(self):
        for fx in [TOY, LOT3, *LOTS]:
            assert ReducibleFixture(fx.presentation, fx.retraction, fx.subpresentation) == fx

    def test_rejects_a_retraction_that_keeps_the_source_relator(self):
        with pytest.raises(ValueError, match="source relator"):
            ReducibleFixture(TOY.presentation, wrong_retraction(), TOY.subpresentation)
        retr = TOY.retraction
        unknown = Retraction(retr.big_alphabet, retr.small_alphabet, retr.z, retr.solved, "nope")
        with pytest.raises(ValueError, match="source relator 'nope'"):
            ReducibleFixture(TOY.presentation, unknown, TOY.subpresentation)

    def test_rejects_a_subpresentation_that_is_not_the_restriction(self):
        for text in ("rel r = b b\n", "rel r = b\nrel s = a\n", ""):
            other = parse(f"group s\ngens a b\n{text}")
            assert other.alphabet is SMALL
            with pytest.raises(ValueError, match="restricted"):
                ReducibleFixture(TOY.presentation, TOY.retraction, other)
        foreign = parse("group s\ngens a c\nrel r = c\n")
        with pytest.raises(ValueError, match="alphabets"):
            ReducibleFixture(TOY.presentation, TOY.retraction, foreign)
        with pytest.raises(ValueError, match="alphabets"):
            ReducibleFixture(LOT3.presentation, TOY.retraction, TOY.subpresentation)

    def test_lot_presentation_builds_fixture(self):
        gp = lot_presentation(3, [(2, 3, 1), (3, 3, 2)])
        fx = ReducibleFixture.from_presentation(gp)
        assert fx.retraction.z == "x1"
        assert [n for n, _ in fx.subpresentation.relators] == ["r2"]

    def test_rejects_relator_sharing_the_generator(self):
        gp = parse(
            "group bad\ngens a z\nrel w = z a\nrel r = a z a z^-1 a\neliminate z\n"
        )
        with pytest.raises(ValueError):
            ReducibleFixture.from_presentation(gp)

    def test_solved_value_substitutes_back(self):
        fx = LOT3
        w = fx.presentation.relator(fx.retraction.source_relator)
        assert retract(fx.retraction, w).is_identity



class TestMembershipChecks:
    """Calling a derivation checks its argument once, at the call; every
    checked entry point raises on an argument outside the kernel."""

    # words outside the kernel: in the free group, or over the small alphabet
    OUTSIDE = [(BIG, "a"), (BIG, "z"), (SMALL, "a")]

    def derivations(self):
        d1 = toy_derivation("a", 1)
        d2 = toy_derivation("b", -1)
        m = YSequence(TOY.subpresentation, (YSymbol("r", small("a"), 1),) * 2)
        return (
            d1,
            toy_derivation("a", -1),
            compose_derivations(d1, d2),
            sequence_derivation(TOY.retraction, m),
        )

    @pytest.mark.parametrize("alphabet,text", OUTSIDE)
    def test_derivations_reject_non_kernel_arguments(self, alphabet, text):
        for d in self.derivations():
            with pytest.raises(MembershipError):
                d(word_from_text(alphabet, text))

    @pytest.mark.parametrize("alphabet,text", OUTSIDE)
    def test_induced_maps_and_pairs_reject_non_kernel_arguments(self, alphabet, text):
        d = toy_derivation("a", 1)
        d_inverse = toy_derivation("a", -1)
        checked = (
            induced_map(d),
            compose_alternative(d, d_inverse),
            derivation_automorphism(d, d_inverse, random.Random(0), 2),
        )
        for f in checked:
            with pytest.raises(MembershipError):
                f(word_from_text(alphabet, text))

    # each map that checks its argument, built from two relator derivations
    CHECKED = {
        "derivation": lambda d1, d2: d1,
        "induced-map": lambda d1, d2: induced_map(d1),
        "compose-alternative": compose_alternative,
    }

    @pytest.mark.parametrize("entry", sorted(CHECKED))
    @pytest.mark.parametrize("fx", LOTS, ids=lambda fx: fx.presentation.name)
    def test_each_checked_map_rejects_a_big_word_outside_the_kernel(self, fx, entry):
        # inside, the maps run the rules unchecked; the one check at the
        # argument must still reject a word of the big alphabet the
        # retraction does not kill
        retr, sub = fx.retraction, fx.subpresentation
        rng = random.Random(f"outside/{fx.presentation.name}/{entry}")
        rejected = 0
        for _ in range(60):
            u = random_word(retr.big_alphabet, rng, 6)
            if in_kernel(retr, u):
                continue
            d1 = symbol_derivation(retr, sub, random_symbol(sub, rng, conj_len=4))
            d2 = symbol_derivation(retr, sub, random_symbol(sub, rng, conj_len=4))
            with pytest.raises(MembershipError):
                self.CHECKED[entry](d1, d2)(u)
            rejected += 1
        assert rejected > 30

    # each composition of two derivations, which runs their rules unchecked
    COMPOSITIONS = {
        "compose-derivations": compose_derivations,
        "compose-alternative": compose_alternative,
        "automorphism": lambda d1, d2: derivation_automorphism(d1, d2, random.Random(0), 2),
    }

    @pytest.mark.parametrize("entry", sorted(COMPOSITIONS))
    def test_compositions_reject_derivations_of_two_fixtures(self, entry):
        # a word in one fixture's kernel need not lie in the other's, and the
        # composed rules would evaluate it unchecked
        compose = self.COMPOSITIONS[entry]
        rng = random.Random(f"two-fixtures/{entry}")
        for fx1 in LOTS:
            retr, sub = fx1.retraction, fx1.subpresentation
            s = random_symbol(sub, rng)
            d1 = symbol_derivation(retr, sub, s)
            # one fixture: d1 and its compositional inverse compose
            compose(d1, symbol_derivation(retr, sub, s.inverse()))
            for fx2 in LOTS:
                if fx2 is fx1:
                    continue
                sub2 = fx2.subpresentation
                d2 = symbol_derivation(fx2.retraction, sub2, random_symbol(sub2, rng))
                with pytest.raises(ValueError, match="different retractions"):
                    compose(d1, d2)

    def test_semidirect_action_rejects_non_kernel_t(self):
        m = empty_sequence(TOY.subpresentation)
        with pytest.raises(MembershipError):
            semidirect_action(TOY.retraction, big("z a"), small("1"), big("a"), m)

    def test_trivial_derivation_rejects_a_foreign_alphabet(self):
        triv = inner_derivation(TOY.retraction, empty_word(SMALL))
        with pytest.raises(MembershipError):
            triv(word_from_text(Alphabet(("p", "q")), "p q"))
        with pytest.raises(MembershipError):
            triv(big("a"))
        assert triv(big("z a")).is_identity

    @pytest.mark.parametrize("fx", LOTS, ids=lambda fx: fx.presentation.name)
    def test_derivation_constructors_reject_a_foreign_alphabet(self, fx):
        # a word, symbol or sequence over the big alphabet names no derivation
        retr, gp = fx.retraction, fx.presentation
        source = YSymbol(retr.source_relator, word_from_text(gp.alphabet, retr.z), 1)
        with pytest.raises(AlphabetError):
            inner_derivation(retr, gp.relator(retr.source_relator))
        with pytest.raises(AlphabetError):
            symbol_derivation(retr, gp, source)
        with pytest.raises(AlphabetError):
            sequence_derivation(retr, YSequence(gp, (source, source.inverse())))


def letter_by_letter_retract(retr, u):
    """The definition of the retraction: the product of each letter's image,
    multiplied in one at a time."""
    big_alphabet, small_alphabet = retr.big_alphabet, retr.small_alphabet

    def image(c):
        name, sign = big_alphabet.name(letter_index(c)), letter_sign(c)
        if name == retr.z:
            return retr.solved if sign > 0 else invert(retr.solved)
        return generator(small_alphabet, name, sign)

    return product(small_alphabet, map(image, u.letters))


class TestFastPathsAgainstDefinitions:
    """Each fast path of the crossed-module layer against the slow path it
    stands for, at seeded draws over the three reducible fixtures."""

    @pytest.mark.parametrize("fx", LOTS, ids=lambda fx: fx.presentation.name)
    def test_in_kernel_agrees_with_the_retracted_word(self, fx):
        # retract and in_kernel reduce the letter images of a word with z as
        # one stream on a stack, and rename a word without z into the small
        # alphabet; the definition multiplies the image of each letter, one
        # at a time.  Words with z are counted on both sides of the verdict.
        # The only z-free word in the kernel is the empty one, so the z-free
        # words are counted outside it and, where empty, inside.
        retr = fx.retraction
        big_alphabet = retr.big_alphabet
        z_index = big_alphabet.index(retr.z)
        rng = random.Random(f"in-kernel/{fx.presentation.name}")
        found = {True: 0, False: 0}
        with_z = {True: 0, False: 0}
        without_z = {True: 0, False: 0}
        for _ in range(300):
            element = random_kernel_element(retr, rng)
            extra = random_word(big_alphabet, rng, 1)
            z_free = embed(random_word(retr.small_alphabet, rng, 8), big_alphabet)
            for u in (random_word(big_alphabet, rng, 8), element, multiply(element, extra), z_free):
                image = letter_by_letter_retract(retr, u)
                expected = image.is_identity
                assert retract(retr, u) == image
                assert in_kernel(retr, u) is expected
                assert xmod._in_kernel(retr, u) is expected
                found[expected] += 1
                if any(letter_index(c) == z_index for c in u.letters):
                    with_z[expected] += 1
                else:
                    assert expected is u.is_identity
                    without_z[expected] += 1
        assert min(found.values()) > 100
        assert min(with_z.values()) > 100
        assert without_z[False] > 100 and without_z[True] > 0
        # an equal alphabet that is another object is still the big one
        twin = Alphabet(big_alphabet.generators)
        element = random_kernel_element(retr, random.Random(1), max_factors=5)
        assert in_kernel(retr, embed(element, twin)) is retract(retr, element).is_identity

    @pytest.mark.parametrize("fx", LOTS, ids=lambda fx: fx.presentation.name)
    def test_in_kernel_rejects_a_small_alphabet_word(self, fx):
        retr = fx.retraction
        u = random_word(retr.small_alphabet, random.Random(0), 4)
        with pytest.raises(AlphabetError):
            retract(retr, u)
        with pytest.raises(AlphabetError):
            in_kernel(retr, u)
        assert not xmod._in_kernel(retr, u)

    @pytest.mark.parametrize("fx", LOTS, ids=lambda fx: fx.presentation.name)
    def test_compose_alternative_is_its_formula(self, fx):
        # the alternative checks x once and runs d1's rule unchecked; the
        # formula evaluates through the checked calls
        retr, sub = fx.retraction, fx.subpresentation
        rng = random.Random(f"compose-alternative/{fx.presentation.name}")
        for _ in range(100):
            d1 = symbol_derivation(retr, sub, random_symbol(sub, rng, conj_len=4))
            d2 = symbol_derivation(retr, sub, random_symbol(sub, rng, conj_len=4))
            x = random_kernel_element(retr, rng)
            expected = multiply(induced_map(d1)(d2(x)), d1(x))
            assert compose_alternative(d1, d2)(x) == expected

    @pytest.mark.parametrize("fx", LOTS, ids=lambda fx: fx.presentation.name)
    def test_project_symbol_is_the_derivation_correction(self, fx):
        # project_symbol evaluates the correction as a product of two
        # boundaries and builds the residual unchecked; the definition
        # decomposes the conjugator, builds the residual with the checked
        # constructor and inverts its relator derivation at the kernel factor
        retr, gp, sub = fx.retraction, fx.presentation, fx.subpresentation
        z = word_from_text(gp.alphabet, retr.z)
        z_index = gp.alphabet.index(retr.z)
        rng = random.Random(f"project-symbol/{fx.presentation.name}")
        kinds = {"source": 0, "with z": 0, "without z": 0}
        for _ in range(300):
            s = random_symbol(gp, rng, conj_len=4)
            if rng.random() < 0.5:  # put z into the conjugator, after a random prefix
                u = multiply(random_word(gp.alphabet, rng, 2), multiply(z, s.conjugator))
                s = YSymbol(s.relator, u, s.sign)
            t, m = project_symbol(fx, s)
            if s.relator == retr.source_relator:
                assert m is None and t == symbol_boundary(gp, s)
                kinds["source"] += 1
                continue
            u0, u1 = decompose(retr, s.conjugator)
            residual = YSymbol(s.relator, restrict(u1, retr.small_alphabet), s.sign)
            assert m == residual
            assert t == invert(symbol_derivation(retr, sub, residual).rule(u0))
            has_z = any(letter_index(c) == z_index for c in s.conjugator.letters)
            kinds["with z" if has_z else "without z"] += 1
        assert min(kinds.values()) > 30

    @pytest.mark.parametrize("fx", LOTS, ids=lambda fx: fx.presentation.name)
    def test_commutator_is_the_conjugate_times_the_inverse(self, fx):
        # _commutator scans the junctions of c x c^-1 x^-1 and builds one
        # word; the definition builds the conjugate and multiplies by x^-1.
        # The draws cover an empty c, an empty x, x a power of c (the whole
        # commutator cancels) and kernel elements, the derivations' arguments
        retr = fx.retraction
        big_alphabet = retr.big_alphabet
        rng = random.Random(f"commutator/{fx.presentation.name}")
        empty = empty_word(big_alphabet)
        cancelled = partly = 0
        for _ in range(500):
            c = random_word(big_alphabet, rng, 6)
            u = random_word(big_alphabet, rng, 6)
            pairs = [
                (c, u),
                (empty, u),
                (c, empty),
                (c, c),
                (c, invert(multiply(c, c))),
                (embed(random_word(retr.small_alphabet, rng, 6), big_alphabet), random_kernel_element(retr, rng)),
                (c, multiply(invert(c), u)),
            ]
            for a, x in pairs:
                got = _commutator(a, x)
                assert got == multiply(conjugate(a, x), invert(x))
                if not a.is_identity and not x.is_identity:
                    cancelled += got.is_identity
                    partly += 0 < len(got) < 2 * (len(a) + len(x))
        assert cancelled > 700 and partly > 400
        with pytest.raises(AlphabetError):
            _commutator(random_word(retr.small_alphabet, rng, 3), empty)

    @pytest.mark.parametrize("fx", LOTS, ids=lambda fx: fx.presentation.name)
    def test_composed_rules_agree_with_the_checked_calls(self, fx):
        # the regularity and composition batteries run a composition's rule
        # unchecked on the kernel elements they draw; each draw lies in the
        # kernel, and there the rule is the checked call
        retr, sub = fx.retraction, fx.subpresentation
        rng = random.Random(f"composed-rules/{fx.presentation.name}")
        for _ in range(200):
            s = random_symbol(sub, rng, conj_len=4)
            d1 = symbol_derivation(retr, sub, s)
            d2 = symbol_derivation(retr, sub, random_symbol(sub, rng, conj_len=4))
            for composed in (
                compose_derivations(d1, d2),
                compose_derivations(d1, symbol_derivation(retr, sub, s.inverse())),
            ):
                x = random_kernel_element(retr, rng)
                assert xmod._in_kernel(retr, x)
                assert composed.rule(x) == composed(x)

    @pytest.mark.parametrize("fx", LOTS, ids=lambda fx: fx.presentation.name)
    def test_trusted_derivation_is_the_public_one(self, fx):
        # inner_derivation and compose_derivations build their values with
        # the trusted constructor
        retr, sub = fx.retraction, fx.subpresentation
        rng = random.Random(f"trusted-derivation/{fx.presentation.name}")
        d = symbol_derivation(retr, sub, random_symbol(sub, rng, conj_len=4))
        composed = compose_derivations(d, d)
        for built in (d, composed):
            public = Derivation(built.retraction, built.rule)
            trusted = _derivation(built.retraction, built.rule)
            assert type(built) is Derivation
            assert built == public == trusted and hash(built) == hash(public) == hash(trusted)
            x = random_kernel_element(retr, rng, max_factors=4)
            assert built(x) == public(x) == trusted(x)
            outside = random_word(retr.big_alphabet, rng, 8)
            while retract(retr, outside).is_identity:
                outside = random_word(retr.big_alphabet, rng, 8)
            for value in (built, public, trusted):
                with pytest.raises(MembershipError):
                    value(outside)

    @pytest.mark.parametrize("fx", (TOY, *LOTS), ids=lambda fx: fx.presentation.name)
    def test_cached_kernel_generator(self, fx):
        retr = fx.retraction
        b = retr.big_alphabet
        expected = multiply(generator(b, retr.z), invert(embed(retr.solved, b)))
        assert retr._kernel_generators == (expected, invert(expected))
        assert in_kernel(retr, expected)

    @pytest.mark.parametrize("fx", (TOY, *LOTS), ids=lambda fx: fx.presentation.name)
    def test_an_equal_new_retraction_hits_the_cache(self, fx):
        # every suite run solves its fixtures afresh; equal retractions
        # still compare and hash equal, since the data built from the fields
        # (the letter images, the kernel generators) are not fields
        retr = fx.retraction
        twin = Retraction(
            retr.big_alphabet, retr.small_alphabet, retr.z, retr.solved, retr.source_relator
        )
        assert twin is not retr and twin == retr and hash(twin) == hash(retr)


class TestNegativeControls:
    """A perturbed battery stops at its first failing sample."""

    CONTROLS = [(name, fn, n) for name, fn, n, control in FIXTURE_BATTERY_TABLE if control]

    @pytest.mark.parametrize("seed", (0, 17, 1))
    @pytest.mark.parametrize("fx", LOTS, ids=lambda fx: fx.presentation.name)
    def test_each_control_detects_and_stops(self, fx, seed):
        for name, fn, n in self.CONTROLS:
            label = f"{seed}/{fx.presentation.name}/{name}/control"  # the suite's generator
            result = fn(fx, random.Random(label), n, perturb=True)
            assert result.failures, label
            assert result.samples < n, label
            # the stop is at the first failing sample: one draw fewer detects nothing
            shorter = fn(fx, random.Random(label), result.samples - 1, perturb=True)
            assert shorter.passed, label


def _symbols_text(m):
    return " ".join(f"{s.relator}:{word_to_text(s.conjugator)}:{s.sign:+d}" for s in m.symbols)


def _pinned_values(fx):
    """Values of the derivation arithmetic and the projection at seeded
    kernel draws, computed only through the public derivation, action and
    projection functions, one line per value."""
    retr, sub = fx.retraction, fx.subpresentation
    rng = random.Random(f"xmod-values/{fx.presentation.name}")
    out = []
    for _ in range(6):
        for name, _ in sub.relators:
            u = random_word(retr.small_alphabet, rng, 3)
            for sign in (1, -1):
                x = random_kernel_element(retr, rng)
                d = symbol_derivation(retr, sub, YSymbol(name, u, sign))
                out.append(word_to_text(d(x)))
        d1 = symbol_derivation(retr, sub, random_symbol(sub, rng, conj_len=4))
        d2 = symbol_derivation(retr, sub, random_symbol(sub, rng, conj_len=4))
        x = random_kernel_element(retr, rng)
        out.append(word_to_text(compose_derivations(d1, d2)(x)))
        out.append(word_to_text(compose_alternative(d1, d2)(x)))
        for m in (empty_sequence(sub), random_sequence(sub, rng, max_len=3)):
            x = random_kernel_element(retr, rng)
            out.append(word_to_text(sequence_derivation(retr, m)(x)))
        t, g = random_kernel_element(retr, rng), random_kernel_element(retr, rng)
        p = random_word(retr.small_alphabet, rng, 3)
        t2, m2 = semidirect_action(retr, g, p, t, random_sequence(sub, rng, max_len=3))
        out.append(f"{word_to_text(t2)} | {_symbols_text(m2)}")
        d, _ = scramble(fx.presentation, seed=rng.randrange(1 << 30), k=rng.randrange(1, 7))
        d_1 = project_identity_sequence(fx, d)
        out.append(f"1 | {_symbols_text(d_1)}")
    return out


class TestPinnedValues:
    """The suite report records only failure counts, so a change that moves
    these values on both sides of a law would leave it unchanged; the
    digests pin the values themselves."""

    DIGESTS = {
        "toy": "0be0204285871c83bfc76bf0c6b89dd0b6331fae67045f467496dd632841df4b",
        "lot3": "b47fc64a25ea02a1196cd2f9780cc3fed201c08c6ccaee1df01952f120e586f1",
        "lot4": "2b89b9da1ee9bcf44b48dcf0d46939e08c3f1164fe4bfa5c55db03da77a0650b",
        "lot3b": "f75adf3bb1717294c5449ad118d4582f4167135962a27b575ee9227b51f14538",
    }

    @pytest.mark.parametrize("fx", (TOY, *LOTS), ids=lambda fx: fx.presentation.name)
    def test_values_are_unchanged(self, fx):
        text = "\n".join(_pinned_values(fx))
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGESTS[fx.presentation.name]
