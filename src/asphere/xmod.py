"""The kernel crossed module, derivations, and the projection pipeline.

The central fixture is a presentation with one generator eliminable by a
single-occurrence relator.  The retraction F(X + z) -> F(X) splits the
ambient free group as kernel x complement.  The kernel N, the normal closure
of the source relator, is the words the retraction kills, so membership and
equality are exact.  N is normal in the ambient free group F, so N -> F is a
crossed module whose boundary is the inclusion and whose action is
conjugation (Whitehead, "Combinatorial homotopy II"; Brown and Huebschmann,
"Identities among relations").  It is the only crossed module here: the
boundary is never written out and the action is ``words.conjugate``.

Every construction here stays inside that decidable territory: derivations
are evaluation rules, their automorphisms x -> d(x) · x are checked for
regularity on samples, and quotient elements on the complement side are
carried as Y-sequences whose equality is never decided, only their
boundaries.

Kernel membership is checked once, where a word comes in: a ``Derivation``
call, the maps ``induced_map`` and ``compose_alternative`` return (both
through one such call), ``semidirect_action`` and ``recombine``; the
derivation constructors check their word's alphabet instead.  Inside, the
values are trusted.  A derivation maps the kernel into itself, and the
kernel is a normal subgroup, so every value a composition builds from a
checked argument lies in the kernel again; ``compose_derivations`` and
``compose_alternative`` therefore evaluate their rules unchecked on it.
``random_kernel_element`` draws products of conjugates of the kernel's
generator, which lie in the kernel by construction, so
``derivation_automorphism`` and the regularity and composition batteries
evaluate compositions by their ``rule``, unchecked, on the elements they draw
(``compose_alternative`` keeps its own check of x); the laws compare the same
values either way.  That holds only for one kernel, so the compositions
refuse two derivations over different retractions when they are built.
``inner_derivation`` and ``compose_derivations`` build their ``Derivation``
through the trusted ``_derivation``, which sets the two slots without the
frozen ``__init__``; an inner derivation's rule is ``words._commutator``.

Verification is sampled: each structural law (derivation law, regularity,
the two composition expressions, the actor diagram, the semidirect action
laws) has a battery with an optional deliberately perturbed variant used as
a negative control.  A control stops at its first failing sample, which
settles its verdict "some sample fails", and reports the samples it drew.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from .partial import EXHAUSTED
from .peiffer import (
    NotIdentityError,
    YSequence,
    YSymbol,
    _symbol,
    boundary,
    conjugate_sequence,
    is_identity,
    random_sequence,
    random_symbol,
    scramble,
    search_trivialization,
    symbol_boundary,
    verify_certificate,
)
from .presentations import (
    GroupPresentation,
    Retraction,
    decompose,
    in_kernel,
    is_reducible_lot,
    retract,
    solve_single_occurrence,
)
from .words import (
    AlphabetError,
    FreeWord,
    _below,
    _commutator,
    _inverse_letters,
    _random_codes,
    _reduce,
    conjugate,
    embed,
    empty_word,
    invert,
    multiply,
    random_word,
    restrict,
)


class MembershipError(ValueError):
    pass


class NonRegularError(ValueError):
    pass


class InconsistencyError(RuntimeError):
    """The projection of an identity sequence left a nonvanishing component;
    flags an implementation or fixture bug."""

    def __init__(self, message: str, residue: FreeWord | None = None):
        super().__init__(message)
        self.residue = residue


# --- the kernel crossed module ------------------------------------------------------


def random_kernel_element(retr: Retraction, rng: random.Random, max_factors: int = 3) -> FreeWord:
    """A product of up to ``max_factors`` conjugates u g u^-1, with u a
    random word of up to 3 letters and g the kernel's generator or its
    inverse.  The letters of every factor are reduced together in one pass,
    which gives the product's reduced word, since that word is unique."""
    big = retr.big_alphabet
    seed_rel, seed_inv = retr._kernel_generators
    bits, size = rng.getrandbits, len(big)
    parts: list[bytes] = []
    for _ in range(_below(bits, max_factors + 1)):
        u = bytes(_random_codes(bits, size, 3))
        parts += (u, (seed_rel if rng.random() < 0.5 else seed_inv).letters, _inverse_letters(u))
    return _reduce(big, b"".join(parts))


def _in_kernel(retr: Retraction, w: FreeWord) -> bool:
    """Membership for the checked entry points: False, not an error, for a
    word over another alphabet."""
    return w.alphabet is retr.big_alphabet and in_kernel(retr, w)


# --- derivations ----------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Derivation:
    """Map d from the kernel to itself with d(xy) = d(x) · x d(y) x^-1;
    represented by an evaluation rule.  A call checks that its argument lies
    in the kernel; ``rule`` evaluates unchecked."""

    retraction: Retraction
    rule: Callable[[FreeWord], FreeWord]

    def __call__(self, x: FreeWord) -> FreeWord:
        if not _in_kernel(self.retraction, x):
            raise MembershipError("argument is not in the kernel")
        return self.rule(x)


_SET_RETRACTION = Derivation.retraction.__set__
_SET_RULE = Derivation.rule.__set__


def _derivation(retr: Retraction, rule: Callable[[FreeWord], FreeWord]) -> Derivation:
    """Trusted constructor: sets the two slots directly, without the frozen
    ``__init__``."""
    d = object.__new__(Derivation)
    _SET_RETRACTION(d, retr)
    _SET_RULE(d, rule)
    return d


def inner_derivation(retr: Retraction, c: FreeWord) -> Derivation:
    """The inner derivation x -> c x c^-1 x^-1 of a word c over the small
    alphabet: the displacement of a kernel element under conjugation by c.
    Composing the inner derivations of c1 and c2 gives that of c1 c2, so the
    empty word's is the unit and c^-1's is the compositional inverse.  The
    one alphabet check of every derivation constructor."""
    if c.alphabet is not retr.small_alphabet:
        raise AlphabetError("a derivation's word must avoid the eliminated generator")
    c = embed(c, retr.big_alphabet)
    return _derivation(retr, lambda x: _commutator(c, x))


def induced_map(d: Derivation) -> Callable[[FreeWord], FreeWord]:
    """The endomorphism x -> d(x) · x of the kernel.  With the inclusion as
    boundary, the top map t -> d(boundary t) · t and the base map
    x -> boundary(d x) · x are both this one formula."""
    return lambda x: multiply(d(x), x)


def _require_shared_retraction(d1: Derivation, d2: Derivation) -> None:
    """Raise unless d1 and d2 act on one kernel: a composition checks its
    argument against one retraction and runs both rules on it unchecked."""
    if d1.retraction is not d2.retraction:
        raise ValueError("the derivations are over different retractions")


def compose_derivations(d1: Derivation, d2: Derivation) -> Derivation:
    """Whitehead composition: x -> d1(d2(x) · x) · d2(x).  The inner argument
    lies in the kernel by construction, so the rules run unchecked."""
    _require_shared_retraction(d1, d2)
    rule1, rule2 = d1.rule, d2.rule

    def rule(x: FreeWord) -> FreeWord:
        v = rule2(x)
        return multiply(rule1(multiply(v, x)), v)

    return _derivation(d1.retraction, rule)


def compose_alternative(d1: Derivation, d2: Derivation) -> Callable[[FreeWord], FreeWord]:
    """The other expression for the composition: push d2's value through the
    first derivation's induced map, then multiply by d1(x); must agree with
    compose_derivations pointwise.  The call d2(x) checks x; d2's value lies
    in the kernel, so d1's rule runs unchecked on it and on x."""
    _require_shared_retraction(d1, d2)
    rule1 = d1.rule

    def alternative(x: FreeWord) -> FreeWord:
        v = d2(x)
        return multiply(multiply(rule1(v), v), rule1(x))

    return alternative


def derivation_automorphism(
    d: Derivation, d_inverse: Derivation, rng: random.Random, samples: int
) -> Callable[[FreeWord], FreeWord]:
    """The automorphism x -> d(x) · x of a regular derivation; regularity is
    verified on samples against the supplied compositional inverse."""
    left = compose_derivations(d, d_inverse).rule
    right = compose_derivations(d_inverse, d).rule
    for _ in range(samples):
        x = random_kernel_element(d.retraction, rng)  # in the kernel: rules run unchecked
        if not left(x).is_identity or not right(x).is_identity:
            raise NonRegularError("witness does not invert the derivation on samples")
    return induced_map(d)


# --- fixtures -------------------------------------------------------------------


@dataclass(frozen=True)
class ReducibleFixture:
    """A presentation with a distinguished single-occurrence generator, its
    retraction, and the subpresentation on the remaining generators.  The
    constructor checks that the three fit together."""

    presentation: GroupPresentation
    retraction: Retraction
    subpresentation: GroupPresentation

    def __post_init__(self):
        gp, retr, sub = self.presentation, self.retraction, self.subpresentation
        if retr.big_alphabet is not gp.alphabet or sub.alphabet is not retr.small_alphabet:
            raise ValueError("retraction alphabets do not match the presentations")
        source = retr.source_relator
        if source not in gp or not in_kernel(retr, gp.relator(source)):
            raise ValueError(f"the retraction does not kill the source relator {source!r}")
        if sub.relators != _other_relators(gp, retr):
            raise ValueError("the subpresentation is not the other relators, restricted")

    @classmethod
    def from_presentation(cls, gp: GroupPresentation) -> ReducibleFixture:
        z = gp.eliminate or is_reducible_lot(gp)
        if z is None:
            raise ValueError("presentation has no single-occurrence generator")
        retr = solve_single_occurrence(gp, z)
        sub = GroupPresentation(f"{gp.name}_sub", retr.small_alphabet, _other_relators(gp, retr))
        return cls(gp, retr, sub)


def _other_relators(gp: GroupPresentation, retr: Retraction) -> tuple:
    """The relators but the source one, restricted to the small alphabet;
    ``restrict`` raises for one that still contains z."""
    small = retr.small_alphabet
    return tuple((n, restrict(w, small)) for n, w in gp.relators if n != retr.source_relator)


# --- eta over sequences and the semidirect action --------------------------------


def symbol_derivation(retr: Retraction, gp: GroupPresentation, s: YSymbol) -> Derivation:
    """The relator derivation of one symbol over the subpresentation gp: the
    inner derivation of its boundary u r^e u^-1.  The opposite-sign symbol's
    is its compositional inverse."""
    return inner_derivation(retr, symbol_boundary(gp, s))


def sequence_derivation(retr: Retraction, m: YSequence) -> Derivation:
    """Derivation attached to a whole Y-sequence on the complement side: the
    composition of the per-symbol relator derivations.  Each is inner, so
    the chain is the inner derivation of the boundary of m."""
    return inner_derivation(retr, boundary(m))


def semidirect_action(
    retr: Retraction,
    g: FreeWord,
    p: FreeWord,
    t: FreeWord,
    m: YSequence,
    perturb: bool = False,
) -> tuple[FreeWord, YSequence]:
    """Action of (g, p) on (t, m): conjugate the kernel part, correct by the
    derivation of the (conjugated) sequence evaluated at g, and conjugate
    the sequence's conjugators by p."""
    big = retr.big_alphabet
    if not _in_kernel(retr, g):
        raise MembershipError("g must lie in the kernel")
    if not _in_kernel(retr, t):
        raise MembershipError("t must lie in the kernel")
    if p.alphabet is not retr.small_alphabet:
        raise AlphabetError("p must avoid the eliminated generator")
    if m.presentation.alphabet is not retr.small_alphabet:
        raise AlphabetError("m must live over the subpresentation")
    pm = conjugate_sequence(p, m)
    pt = conjugate(embed(p, big), t)
    gpt = conjugate(g, pt)
    correction = sequence_derivation(retr, pm).rule(g)
    twist = correction if perturb else invert(correction)
    return multiply(gpt, twist), pm


def recombine(retr: Retraction, u0: FreeWord, u1: FreeWord) -> FreeWord:
    """Inverse of decompose: u0 · u1 with u0 in the kernel."""
    if not _in_kernel(retr, u0):
        raise MembershipError("u0 must lie in the kernel")
    if u1.alphabet is retr.small_alphabet:
        u1 = embed(u1, retr.big_alphabet)
    elif u1.alphabet is not retr.big_alphabet:
        raise AlphabetError("u1 over the wrong alphabet")
    return multiply(u0, u1)


# --- the projection pipeline ------------------------------------------------------


def project_symbol(fx: ReducibleFixture, s: YSymbol) -> tuple[FreeWord, YSymbol | None]:
    """Split one Y-symbol into its kernel part and its residual symbol over
    the subpresentation.

    The eliminated relator contributes only a kernel word, and no symbol;
    any other symbol contributes the retracted symbol plus the derivation
    correction of the kernel factor of its conjugator.  With u = u0 u1
    (``decompose``) and c = u1 r^e u1^-1 the residual's boundary, that
    correction is the inverse of the inner derivation of c at u0,
    u0 c u0^-1 c^-1 = (u r^e u^-1) c^-1: the symbol's boundary times the
    inverse of the residual's, which is how it is evaluated.
    """
    retr, gp = fx.retraction, fx.presentation
    if s.relator == retr.source_relator:
        return symbol_boundary(gp, s), None
    retracted = retract(retr, s.conjugator)
    u1 = embed(retracted, retr.big_alphabet)
    inverse_c = conjugate(u1, gp.signed_relator(s.relator, -s.sign))
    return multiply(symbol_boundary(gp, s), inverse_c), _symbol(s.relator, retracted, s.sign)


def project_identity_sequence(fx: ReducibleFixture, d: YSequence) -> YSequence:
    """Fold the symbol projection across an identity sequence with the
    semidirect multiplication and return the residual sequence.  The kernel
    component must vanish and the residual sequence must again be an
    identity sequence; anything else is an inconsistency, which carries a
    nonvanishing kernel component as its ``residue``.
    """
    if d.presentation != fx.presentation:
        raise ValueError("the sequence is not over the fixture's presentation")
    if not is_identity(d):
        raise NotIdentityError("projection needs an identity sequence")
    retr, sub = fx.retraction, fx.subpresentation
    big = retr.big_alphabet
    t_acc = empty_word(big)
    m_syms: list[YSymbol] = []
    bm = empty_word(retr.small_alphabet)
    for s in d.symbols:
        t_i, m_i = project_symbol(fx, s)
        t_acc = multiply(t_acc, conjugate(embed(bm, big), t_i))
        if m_i is not None:
            m_syms.append(m_i)
            bm = multiply(bm, symbol_boundary(sub, m_i))
    if not t_acc.is_identity:
        raise InconsistencyError(
            "projection left a nonvanishing kernel component", residue=t_acc
        )
    if bm.letters:
        raise InconsistencyError("projected sequence is not an identity sequence")
    return YSequence(sub, tuple(m_syms))


# --- sampled batteries --------------------------------------------------------------


@dataclass(frozen=True)
class BatteryResult:
    name: str
    samples: int
    failures: int
    detail: tuple[str, ...] = ()
    counters: tuple[tuple[str, int], ...] = ()

    @classmethod
    def collect(
        cls, name: str, samples: int, failures: list[str], counters=()
    ) -> BatteryResult:
        """The result of a battery run, keeping the first five failure messages."""
        return cls(name, samples, len(failures), tuple(failures[:5]), tuple(counters))

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "samples": self.samples,
            "failures": self.failures,
            "detail": list(self.detail),
            "counters": {k: v for k, v in self.counters},
            "passed": self.passed,
        }


def check_crossed_module_axioms(
    fx: ReducibleFixture, rng: random.Random, samples: int
) -> BatteryResult:
    """Sampled axioms of the kernel crossed module: conjugation by the free
    group keeps the kernel (normality), composes, and is a homomorphism.
    Equivariance and the Peiffer identity are not sampled: with the inclusion
    as boundary, both sides of each are the same conjugate."""
    retr = fx.retraction
    big = retr.big_alphabet
    failures = []
    for i in range(samples):
        t = random_kernel_element(retr, rng)
        t2 = random_kernel_element(retr, rng)
        g = random_word(big, rng)
        h = random_word(big, rng)
        gt = conjugate(g, t)
        if not _in_kernel(retr, gt):
            failures.append(f"sample {i}: action left the kernel")
            continue
        if conjugate(multiply(g, h), t) != conjugate(g, conjugate(h, t)):
            failures.append(f"sample {i}: action composition fails")
        if conjugate(g, multiply(t, t2)) != multiply(gt, conjugate(g, t2)):
            failures.append(f"sample {i}: action is not homomorphic")
    return BatteryResult.collect("crossed-module-axioms", samples, failures)


def check_derivation_law(
    fx: ReducibleFixture, rng: random.Random, samples: int, perturb: bool = False
) -> BatteryResult:
    retr, sub = fx.retraction, fx.subpresentation
    failures = []
    if not sub.relators:
        return BatteryResult.collect("derivation-law", 0, [])
    for i in range(samples):
        if perturb and failures:  # a control stops at its first detection
            return BatteryResult.collect("derivation-law", i, failures)
        s = random_symbol(sub, rng, conj_len=4)
        d = symbol_derivation(retr, sub, s)
        rule = d.rule
        if perturb:
            rule = lambda x, _r=d.rule: invert(_r(x))  # noqa: E731
        x = random_kernel_element(retr, rng)
        y = random_kernel_element(retr, rng)
        rx = rule(x)
        if rule(multiply(x, y)) != multiply(rx, conjugate(x, rule(y))) or not _in_kernel(retr, rx):
            failures.append(f"sample {i}: derivation law fails for {s.relator}")
    return BatteryResult.collect("derivation-law", samples, failures)


def check_regularity(
    fx: ReducibleFixture, rng: random.Random, samples: int, perturb: bool = False
) -> BatteryResult:
    retr, sub = fx.retraction, fx.subpresentation
    failures = []
    if not sub.relators:
        return BatteryResult.collect("regularity", 0, [])
    for i in range(samples):
        if perturb and failures:  # a control stops at its first detection
            return BatteryResult.collect("regularity", i, failures)
        s = random_symbol(sub, rng, conj_len=4)
        d_plus = symbol_derivation(retr, sub, s)
        d_minus = symbol_derivation(retr, sub, s if perturb else s.inverse())
        composed = compose_derivations(d_plus, d_minus).rule
        x = random_kernel_element(retr, rng)  # in the kernel: the rule runs unchecked
        if not composed(x).is_identity:
            failures.append(f"sample {i}: composition with the witness is not trivial")
    return BatteryResult.collect("regularity", samples, failures)


def check_composition_formulas(
    fx: ReducibleFixture, rng: random.Random, samples: int, perturb: bool = False
) -> BatteryResult:
    retr, sub = fx.retraction, fx.subpresentation
    failures = []
    if not sub.relators:
        return BatteryResult.collect("composition-agreement", 0, [])
    for i in range(samples):
        if perturb and failures:  # a control stops at its first detection
            return BatteryResult.collect("composition-agreement", i, failures)
        d1 = symbol_derivation(retr, sub, random_symbol(sub, rng, conj_len=4))
        d2 = symbol_derivation(retr, sub, random_symbol(sub, rng, conj_len=4))
        composed = compose_derivations(d1, d2).rule
        alt = compose_alternative(d1, d2)
        if perturb:
            map1 = induced_map(d1)
            alt = lambda x, _m=map1, _d1=d1, _d2=d2: multiply(_d1(x), _m(_d2(x)))  # noqa: E731
        x = random_kernel_element(retr, rng)  # in the kernel: the rule runs unchecked
        if composed(x) != alt(x):
            failures.append(f"sample {i}: the two composition expressions disagree")
    d_any = inner_derivation(retr, sub.relators[0][1])
    triv = inner_derivation(retr, empty_word(retr.small_alphabet))
    probe = random_kernel_element(retr, rng)
    left, right = compose_derivations(d_any, triv), compose_derivations(triv, d_any)
    if not left(probe) == d_any(probe) == right(probe):
        failures.append("trivial derivation is not a unit")
    return BatteryResult.collect("composition-agreement", samples, failures)


def check_actor_diagram(
    fx: ReducibleFixture, rng: random.Random, samples: int, perturb: bool = False
) -> BatteryResult:
    """Sampled commutation of the derivation/automorphism square: the
    automorphism of a relator derivation is conjugation by the relator
    conjugate, checked at a top and a base sample."""
    retr, sub = fx.retraction, fx.subpresentation
    failures = []
    if not sub.relators:
        return BatteryResult.collect("actor-diagram", 0, [])
    for i in range(samples):
        if perturb and failures:  # a control stops at its first detection
            return BatteryResult.collect("actor-diagram", i, failures)
        s = random_symbol(sub, rng, conj_len=4)
        d = symbol_derivation(retr, sub, s)
        aut = derivation_automorphism(d, symbol_derivation(retr, sub, s.inverse()), rng, 2)
        c = symbol_boundary(sub, s)
        if perturb:
            c = invert(c)
        c = embed(c, retr.big_alphabet)
        t = random_kernel_element(retr, rng)
        x = random_kernel_element(retr, rng)
        if aut(t) != conjugate(c, t):
            failures.append(f"sample {i}: top components disagree for {s.relator}")
        if aut(x) != conjugate(c, x):
            failures.append(f"sample {i}: base components disagree for {s.relator}")
    return BatteryResult.collect("actor-diagram", samples, failures)


def check_action_laws(
    fx: ReducibleFixture, rng: random.Random, samples: int, perturb: bool = False
) -> BatteryResult:
    """Identity and composition laws of the semidirect action."""
    retr = fx.retraction
    small = retr.small_alphabet
    big = retr.big_alphabet
    failures = []
    for i in range(samples):
        if perturb and failures:  # a control stops at its first detection
            return BatteryResult.collect("action-laws", i, failures)
        t = random_kernel_element(retr, rng, max_factors=2)
        m = random_sequence(fx.subpresentation, rng, max_len=3)
        g = random_kernel_element(retr, rng, max_factors=2)
        p = random_word(small, rng, 3)
        g2 = random_kernel_element(retr, rng, max_factors=2)
        p2 = random_word(small, rng, 3)

        t_id, m_id = semidirect_action(retr, empty_word(big), empty_word(small), t, m)
        if t_id != t or m_id.symbols != m.symbols:
            failures.append(f"sample {i}: identity law fails")
            continue

        inner_t, inner_m = semidirect_action(retr, g2, p2, t, m, perturb=perturb)
        lhs_t, lhs_m = semidirect_action(retr, g, p, inner_t, inner_m, perturb=perturb)
        g_comb = multiply(g, conjugate(embed(p, big), g2))
        p_comb = multiply(p, p2)
        rhs_t, rhs_m = semidirect_action(retr, g_comb, p_comb, t, m, perturb=perturb)
        if lhs_t != rhs_t or lhs_m.symbols != rhs_m.symbols:
            failures.append(f"sample {i}: composition law fails")
    return BatteryResult.collect("action-laws", samples, failures)


def check_decompose_roundtrip(
    fx: ReducibleFixture, rng: random.Random, samples: int
) -> BatteryResult:
    retr = fx.retraction
    big = retr.big_alphabet
    failures = []
    for i in range(samples):
        u = random_word(big, rng, 8)
        u0, u1 = decompose(retr, u)
        if not retract(retr, u0).is_identity:
            failures.append(f"sample {i}: kernel part fails the retraction test")
        if multiply(u0, u1) != u:
            failures.append(f"sample {i}: decompose does not recombine")
        if recombine(retr, u0, u1) != u:
            failures.append(f"sample {i}: recombine disagrees")
        n0 = random_kernel_element(retr, rng, max_factors=2)
        w1 = random_word(retr.small_alphabet, rng, 5)
        v = recombine(retr, n0, w1)
        v0, v1 = decompose(retr, v)
        if v0 != n0 or v1 != embed(w1, big):
            failures.append(f"sample {i}: pair round-trip fails")
    return BatteryResult.collect("decompose-roundtrip", samples, failures)


def check_projection(fx: ReducibleFixture, rng: random.Random, sequences: int) -> BatteryResult:
    """Project scrambled identity sequences and search for certificates of
    the residual sequences.  Projection failures are hard failures; search
    misses are counted and only fail the battery below a 0.9 success rate."""
    failures = []
    searched = 0
    found = 0
    for i in range(sequences):
        k = 1 + _below(rng.getrandbits, 6)
        d, _ = scramble(fx.presentation, _below(rng.getrandbits, 1 << 30), k)
        try:
            d1 = project_identity_sequence(fx, d)
        except InconsistencyError as exc:
            failures.append(f"sequence {i}: {exc}")
            continue
        searched += 1
        cert = search_trivialization(d1)
        if cert is EXHAUSTED:
            continue
        if not verify_certificate(d1, cert):
            failures.append(f"sequence {i}: certificate does not replay")
            continue
        found += 1
    if searched and found / searched < 0.9:
        failures.append(f"search success rate {found}/{searched} below threshold 0.9")
    return BatteryResult.collect(
        "projection-pipeline",
        sequences,
        failures,
        counters=(("searched", searched), ("found", found)),
    )
