"""The full verification battery behind ``asphere suite``.

Each battery draws its own deterministically seeded generator, so the whole
report is a pure function of the seed and the configuration, byte for byte.
Battery sample counts are the defaults used by the acceptance checks; the
``samples`` override scales everything down for smoke runs.  A plain sampled
battery is its set-up and a per-sample law, declared once through ``_sampled``.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import partial

from . import actions, peiffer, words, xmod
from .fixtures import FixtureSet, load_fixtures
from .partial import EXHAUSTED, Tri
from .peiffer import (
    Move,
    MoveKind,
    _legal_move_at,
    apply_move,
    base_insert_pool,
    boundary,
    conjugate_sequence,
    empty_sequence,
    insertion_generator,
    is_identity,
    legal_moves,
    random_sequence,
    random_symbol,
    scramble,
    search_trivialization,
    verify_certificate,
)
from .presentations import coset_enumeration, coset_table, retract
from .relmod import CosetOracle, FreeOracle, RelModElement, is_zero, module_action, module_image
from .words import (
    _below,
    _random_codes,
    abelianize,
    conjugate,
    empty_word,
    exponent_sum,
    invert,
    multiply,
    random_word,
    reduce,
)
from .xmod import BatteryResult, ReducibleFixture

COSET_BUDGET = 2000  # coset cap of the suite's finite-quotient tables
# (b, a, a^-1) -> (a, b', a^-1) -> (a, a^-1, b): the second twist undoes the first
_PAIR_CROSSING = peiffer.Certificate((Move(MoveKind.EXCHANGE_R, 0), Move(MoveKind.EXCHANGE_R, 1)))


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    samples: int | None = None  # None: per-battery defaults
    fixtures_dir: str | None = None

    def __post_init__(self):
        # a bool or a float would seed the generators from "True/..." or
        # "1.0/..." and be written into the report, so neither is an int here
        if type(self.seed) is not int:
            raise ValueError(f"seed must be an int, got {self.seed!r}")
        if self.samples is None:
            return
        if type(self.samples) is not int:
            raise ValueError(f"samples must be an int or None, got {self.samples!r}")
        if self.samples < 0:
            raise ValueError(f"samples must be non-negative, got {self.samples}")
        if self.samples == 0:
            raise ValueError("samples must be positive: zero draws would pass vacuously")

    def count(self, default: int) -> int:
        return default if self.samples is None else self.samples


def _rng(config: RunConfig, battery: str) -> random.Random:
    return random.Random(f"{config.seed}/{battery}")


def _sampled(config: RunConfig, name: str, default: int, law) -> BatteryResult:
    """Battery ``name``: ``config.count(default)`` calls of ``law(rng)``, on the
    generator labelled ``name``, run by ``xmod``'s sample loop."""
    return xmod._sampled_battery(name, config.count(default), partial(law, _rng(config, name)))


# --- individual batteries -------------------------------------------------------


def battery_word_laws(config: RunConfig, fixtures: FixtureSet) -> BatteryResult:
    alphabet = fixtures.presentations["sym3"].alphabet

    def law(rng):
        raw = _random_codes(rng.getrandbits, len(alphabet), 7)
        w = reduce(alphabet, raw)
        if reduce(alphabet, w.letters) != w:
            yield "reduction is not idempotent"
        u = random_word(alphabet, rng)
        v = random_word(alphabet, rng)
        t = random_word(alphabet, rng)
        if multiply(multiply(u, v), t) != multiply(u, multiply(v, t)):
            yield "associativity fails"
        if not multiply(u, invert(u)).is_identity:
            yield "inverse law fails"
        if conjugate(empty_word(alphabet), v) != v:
            yield "empty conjugation moves a word"
        if conjugate(u, conjugate(t, v)) != conjugate(multiply(u, t), v):
            yield "conjugation action law fails"
        for g in range(len(alphabet)):
            if exponent_sum(multiply(u, v), g) != exponent_sum(u, g) + exponent_sum(v, g):
                yield "exponent sum is not additive"
        if abelianize(multiply(u, v)) != tuple(
            a + b for a, b in zip(abelianize(u), abelianize(v))
        ):
            yield "abelianization is not additive"

    return _sampled(config, "word-laws", 1000, law)


def battery_retraction(config: RunConfig, fixtures: FixtureSet) -> BatteryResult:
    rng = _rng(config, "retraction")
    n = config.count(1000)
    failures = []
    for fx in fixtures.reducible_fixtures():
        retr = fx.retraction
        for i in range(n):
            w_small = random_word(retr.small_alphabet, rng, 6)
            if retract(retr, words.embed(w_small, retr.big_alphabet)) != w_small:
                failures.append(
                    f"{fx.presentation.name} sample {i}: retract after embed moved a word"
                )
    return BatteryResult.collect("retraction", n, failures)


def battery_coset_determinism(config: RunConfig, fixtures: FixtureSet) -> BatteryResult:
    failures = []
    checked = 0
    for name in ("c3", "sym3"):
        gp = fixtures.presentations[name]
        first = coset_table(gp, (), COSET_BUDGET)
        second = coset_table(gp, (), COSET_BUDGET)
        checked += 1
        if first is EXHAUSTED or second is EXHAUSTED:
            failures.append(f"{name}: enumeration did not close")
        elif first.rows != second.rows:
            failures.append(f"{name}: two runs disagree")
    return BatteryResult.collect("coset-determinism", checked, failures)


def battery_move_soundness(config: RunConfig, fixtures: FixtureSet) -> BatteryResult:
    """Boundary invariance of all four moves on random sequences.  A sample's
    move is drawn from all its legal moves, insertions of the base pool
    included, without building the insertions."""
    presentations = fixtures.peiffer_presentations()

    def law(rng):
        gp = presentations[_below(rng.getrandbits, len(presentations))]
        d = random_sequence(gp, rng)
        pool = base_insert_pool(gp)
        steps = legal_moves(d)
        count = len(steps) + (len(d.symbols) + 1) * len(pool)
        if not count:
            return
        m = _legal_move_at(steps, pool, _below(rng.getrandbits, count))
        before = boundary(d)
        after = boundary(apply_move(d, m))
        if before != after:
            yield f"{m.kind.value} changed the boundary"

    return _sampled(config, "move-soundness", 1000, law)


def battery_exchange_involution(config: RunConfig, fixtures: FixtureSet) -> BatteryResult:
    presentations = fixtures.peiffer_presentations()

    def law(rng):
        gp = presentations[_below(rng.getrandbits, len(presentations))]
        d = random_sequence(gp, rng, max_len=5)
        if len(d.symbols) < 2:
            return
        pos = _below(rng.getrandbits, len(d.symbols) - 1)
        there = apply_move(d, Move(MoveKind.EXCHANGE_L, pos))
        back = apply_move(there, Move(MoveKind.EXCHANGE_R, pos))
        if back != d:
            yield "left-then-right exchange is not the identity"
        there = apply_move(d, Move(MoveKind.EXCHANGE_R, pos))
        back = apply_move(there, Move(MoveKind.EXCHANGE_L, pos))
        if back != d:
            yield "right-then-left exchange is not the identity"

    return _sampled(config, "exchange-involution", 500, law)


def battery_centrality(config: RunConfig, fixtures: FixtureSet) -> BatteryResult:
    """Inserted pairs commute: at the boundary level against whole sequences,
    and by moves across a single symbol b, where ExchangeR at 0 and then at 1
    take (b, a, a^-1) to exactly (a, a^-1, b)."""
    presentations = fixtures.peiffer_presentations()

    def law(rng):
        gp = presentations[_below(rng.getrandbits, len(presentations))]
        d = random_sequence(gp, rng)
        pool = base_insert_pool(gp)
        a = pool[_below(rng.getrandbits, len(pool))]
        g = insertion_generator(a, gp)
        if boundary(d.concat(g)) != boundary(d) or boundary(g.concat(d)) != boundary(d):
            yield "inserted pair shifted the boundary"
        b = random_symbol(gp, rng, conj_len=2)
        crossed = peiffer.replay(peiffer.YSequence(gp, (b,) + g.symbols), _PAIR_CROSSING)
        if crossed.symbols != g.symbols + (b,):
            yield "the two ExchangeR moves did not carry b across the pair"

    return _sampled(config, "centrality", 200, law)


def battery_sequence_action(config: RunConfig, fixtures: FixtureSet) -> BatteryResult:
    presentations = fixtures.peiffer_presentations()

    def law(rng):
        gp = presentations[_below(rng.getrandbits, len(presentations))]
        d = random_sequence(gp, rng)
        v = random_word(gp.alphabet, rng, 3)
        w = random_word(gp.alphabet, rng, 3)
        if conjugate_sequence(empty_word(gp.alphabet), d) != d:
            yield "identity conjugation moved the sequence"
        lhs = conjugate_sequence(v, conjugate_sequence(w, d))
        rhs = conjugate_sequence(multiply(v, w), d)
        if lhs != rhs:
            yield "conjugation action law fails"
        if boundary(conjugate_sequence(w, d)) != conjugate(w, boundary(d)):
            yield "boundary does not intertwine the action"

    return _sampled(config, "sequence-action", 500, law)


def battery_scramble_recover(config: RunConfig, fixtures: FixtureSet) -> BatteryResult:
    bits = _rng(config, "scramble-recover").getrandbits
    n = config.count(200)
    failures = []
    found = 0
    presentations = fixtures.peiffer_presentations()
    for i in range(n):
        gp = presentations[_below(bits, len(presentations))]
        k = 1 + _below(bits, 6)
        d, forward = scramble(gp, seed=_below(bits, 1 << 30), k=k)
        if not is_identity(d):
            failures.append(f"seed {i}: scramble output is not an identity sequence")
            continue
        cert = search_trivialization(d, depth_limit=2 * k)
        if cert is EXHAUSTED:
            continue
        if not verify_certificate(d, cert):
            failures.append(f"seed {i}: certificate does not replay to empty")
            continue
        found += 1
    if n and found / n < 0.95:
        failures.append(f"recovery rate {found}/{n} below 95%")
    return BatteryResult.collect("scramble-recover", n, failures, counters=(("found", found),))


def battery_tensor_dominion(config: RunConfig, fixtures: FixtureSet) -> BatteryResult:
    failures = []
    instances = 0
    for name, m in fixtures.monoids.items():
        if m.size > 5:
            continue
        for sub in actions.all_submonoids(m):
            instances += 1
            uf = actions.tensor_product(sub)
            naive = actions.tensor_product_naive(sub)
            if uf != naive:
                failures.append(f"{name} U={sorted(sub.elements)}: closures disagree")
                continue
            dom = actions.dominion(sub)
            if sub.elements == {m.identity} and dom != frozenset({m.identity}):
                failures.append(f"{name}: dominion of the trivial submonoid is not trivial")
            if actions.is_inverse_monoid(sub) and dom != sub.elements:
                failures.append(
                    f"{name} U={sorted(sub.elements)}: inverse submonoid is not closed"
                )
    return BatteryResult.collect("tensor-dominion", instances, failures)


def battery_envelope_probe(config: RunConfig, fixtures: FixtureSet) -> BatteryResult:
    failures = []
    cyc = fixtures.monoids["cyc_1_2"]
    gp = actions.enveloping_group_presentation(cyc)
    idx = coset_enumeration(gp, (), 100)
    if idx != 2:
        failures.append(f"three-element cyclic monoid: envelope index {idx} != 2")
    wd = actions.weak_dominion(actions.Submonoid(cyc, frozenset({0})), 100)
    if wd is EXHAUSTED or 1 in wd:
        failures.append(f"weak dominion of {{0}} should exclude the generator, got {wd!r}")
    for name, expected in (("c3", 3), ("sym3", 6)):
        idx = coset_enumeration(fixtures.presentations[name], (), 100)
        if idx != expected:
            failures.append(f"{name}: index {idx} != {expected}")
    return BatteryResult.collect("envelope-probe", 4, failures)


def battery_insertion_identity(config: RunConfig, fixtures: FixtureSet) -> BatteryResult:
    """Appending an inserted pair adds exactly twice its basis element."""
    presentations = fixtures.peiffer_presentations()

    def law(rng):
        gp = presentations[_below(rng.getrandbits, len(presentations))]
        oracle = FreeOracle(gp.alphabet)
        d = random_sequence(gp, rng)
        a = random_symbol(gp, rng)
        extended = d.concat(insertion_generator(a, gp))
        delta = module_image(extended, oracle).subtract(module_image(d, oracle))
        expected = RelModElement.basis(a.relator, a.conjugator, 2)
        if delta != expected:
            yield "insertion does not add twice the basis element"

    return _sampled(config, "insertion-identity", 500, law)


def battery_exchange_keys(config: RunConfig, fixtures: FixtureSet) -> BatteryResult:
    """Exchanges preserve the module image under a finite-quotient oracle, and
    move the free-group image only by an element that is zero there."""
    oracles = {
        name: CosetOracle(fixtures.presentations[name], COSET_BUDGET)
        for name in ("c3", "sym3")
    }
    frees = {name: FreeOracle(fixtures.presentations[name].alphabet) for name in oracles}
    names = tuple(oracles)

    def law(rng):
        name = names[_below(rng.getrandbits, len(names))]
        gp = fixtures.presentations[name]
        oracle, free = oracles[name], frees[name]
        d = random_sequence(gp, rng)
        if len(d.symbols) < 2:
            return
        pos = _below(rng.getrandbits, len(d.symbols) - 1)
        kind = MoveKind.EXCHANGE_L if rng.random() < 0.5 else MoveKind.EXCHANGE_R
        moved = apply_move(d, Move(kind, pos))
        before = module_image(d, oracle)
        if before != module_image(moved, oracle):
            yield f"exchange moved the module image over {name}"
        w = random_word(gp.alphabet, rng, 3)
        acted = module_action(w, before, oracle)
        back = module_action(invert(w), acted, oracle)
        if back != before:
            yield f"action round trip fails over {name}"
        # an exchange may move the free image's keys, but only to keys equal in the quotient
        shift = module_image(d, free).subtract(module_image(moved, free))
        if is_zero(shift, oracle) is not Tri.YES:
            yield f"the free images differ by a nonzero element over {name}"

    return _sampled(config, "exchange-keys", 200, law)


def battery_certificates_roundtrip(config: RunConfig, fixtures: FixtureSet) -> BatteryResult:
    presentations = fixtures.peiffer_presentations()

    def law(rng):
        bits = rng.getrandbits
        gp = presentations[_below(bits, len(presentations))]
        d, forward = scramble(gp, seed=_below(bits, 1 << 30), k=_below(bits, 5))
        try:
            endpoint = peiffer.replay(empty_sequence(gp), forward)
        except peiffer.IllegalMoveError as exc:
            yield f"forward certificate broken: {exc}"
            return
        if endpoint != d:
            yield "forward replay misses the scrambled output"
            return
        backward = peiffer.invert_certificate(empty_sequence(gp), forward)
        if not verify_certificate(d, backward):
            yield "inverted certificate does not trivialize"

    return _sampled(config, "certificates", 200, law)


FIXTURE_BATTERY_TABLE = (
    ("cm-axioms", xmod.check_crossed_module_axioms, 500, False),
    ("derivation-law", xmod.check_derivation_law, 500, True),
    ("regularity", xmod.check_regularity, 500, True),
    ("composition-agreement", xmod.check_composition_formulas, 500, True),
    ("actor-diagram", xmod.check_actor_diagram, 200, True),
    ("action-laws", xmod.check_action_laws, 100, True),
    ("decompose-roundtrip", xmod.check_decompose_roundtrip, 1000, False),
)


def fixture_batteries(fx: ReducibleFixture, config: RunConfig) -> list[BatteryResult]:
    """All sampled structural-law batteries for one reducible fixture, each
    law paired with its deliberately perturbed negative control.  A control
    stops at its first detection; its reported samples are its draw budget.
    Without relators every relator derivation is trivial, so no perturbation
    can show: each control is then vacuous, with 0 samples."""
    out = []
    fixture_name = fx.presentation.name
    for name, fn, default, has_control in FIXTURE_BATTERY_TABLE:
        n = config.count(default)
        result = fn(fx, _rng(config, f"{fixture_name}/{name}"), n)
        out.append(replace(result, name=f"{fixture_name}/{name}"))
        if has_control:
            # sensitivity checks need enough draws to dodge degenerate samples,
            # whatever the smoke-mode scale is
            control_n = max(n, 25) if fx.subpresentation.relators else 0
            perturbed = fn(
                fx, _rng(config, f"{fixture_name}/{name}/control"), control_n, perturb=True
            )
            missed = ["perturbed formula went undetected"] if control_n and perturbed.passed else []
            out.append(
                BatteryResult.collect(f"{fixture_name}/{name}/negative-control", control_n, missed)
            )
    n_proj = config.count(100)
    proj = xmod.check_projection(fx, _rng(config, f"{fixture_name}/projection"), n_proj)
    out.append(replace(proj, name=f"{fixture_name}/projection-pipeline"))
    return out


def battery_xmod(config: RunConfig, fixtures: FixtureSet) -> list[BatteryResult]:
    out = []
    for fx in fixtures.reducible_fixtures():
        out.extend(fixture_batteries(fx, config))
    return out


# --- the suite -------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteReport:
    seed: int
    batteries: tuple[BatteryResult, ...]

    @property
    def passed(self) -> bool:
        return all(b.passed for b in self.batteries)

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "passed": self.passed,
            "batteries": [b.to_json() for b in self.batteries],
        }


def run_suite(config: RunConfig) -> SuiteReport:
    fixtures = load_fixtures(config.fixtures_dir)
    batteries: list[BatteryResult] = [
        battery_word_laws(config, fixtures),
        battery_retraction(config, fixtures),
        battery_coset_determinism(config, fixtures),
        battery_move_soundness(config, fixtures),
        battery_exchange_involution(config, fixtures),
        battery_centrality(config, fixtures),
        battery_sequence_action(config, fixtures),
        battery_certificates_roundtrip(config, fixtures),
        battery_scramble_recover(config, fixtures),
        battery_tensor_dominion(config, fixtures),
        battery_envelope_probe(config, fixtures),
        battery_insertion_identity(config, fixtures),
        battery_exchange_keys(config, fixtures),
    ]
    batteries.extend(battery_xmod(config, fixtures))
    return SuiteReport(config.seed, tuple(batteries))
