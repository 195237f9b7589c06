"""Golden digests of smoke-size suite reports, and pinned battery draws.

The report is a pure function of the seed, and these digests pin its bytes
across releases and Python versions: a change to a battery or the report
format shows here.  A report where every battery passes records no drawn
input, so the draws each battery makes are pinned separately.  Update
either only for an intended change of the report.
"""
import hashlib
import json
import random

import pytest

from asphere import suite
from asphere.fixtures import load_fixtures
from asphere.partial import Tri
from asphere.peiffer import _legal_move_at, base_insert_pool, legal_moves, random_sequence
from asphere.suite import FIXTURE_BATTERY_TABLE, RunConfig, run_suite
from asphere.words import Alphabet
from asphere.xmod import check_projection

GOLDEN = {
    0: "bd9e4435f250fc4a5bea5b7d4baedba91d0892b910f532be80518aa3452da2c1",
    17: "374ed3508c84a2a1da17adc31f9912be4d97daa5057c2c3aa3fbb7b422dfb814",
}


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_smoke_report_digest(seed):
    report = run_suite(RunConfig(seed=seed, samples=4))
    payload = json.dumps(report.to_json(), sort_keys=True).encode()
    assert hashlib.sha256(payload).hexdigest() == GOLDEN[seed]


class TestRunConfig:
    """The constructor takes an int seed, negative ones too (the CLI passes
    them on), and samples None or an int >= 1; a bool or a float is neither."""

    @pytest.mark.parametrize("seed", [True, False, 1.0, 0.5, "1", None])
    def test_a_seed_that_is_not_an_int_is_rejected(self, seed):
        # seed=True or seed=1.0 used to seed every battery from "True/..." or
        # "1.0/...", a report other than seed 1's
        with pytest.raises(ValueError, match="seed must be an int"):
            RunConfig(seed=seed)

    @pytest.mark.parametrize("samples", [True, False, 2.5, 2.0, "3"])
    def test_samples_that_are_not_an_int_are_rejected(self, samples):
        # samples=True used to run every battery once and write "samples": true
        # into the report; samples=2.5 raised TypeError inside the first battery
        with pytest.raises(ValueError, match="samples must be an int"):
            RunConfig(samples=samples)

    @pytest.mark.parametrize("samples", [-1, 0])
    def test_samples_below_one_are_rejected(self, samples):
        with pytest.raises(ValueError, match="samples"):
            RunConfig(samples=samples)

    def test_valid_configurations(self):
        assert RunConfig(seed=-3, samples=1).seed == -3
        assert RunConfig().count(7) == 7
        assert RunConfig(samples=2).count(7) == 2


def test_a_second_run_compares_no_distinct_equal_alphabets(monkeypatch):
    # process-wide caches (insert pools, rename tables, the alphabet table)
    # outlive a run; the next run must still give the same bytes, and every
    # alphabet it meets must be the one object of its generator tuple, so
    # alphabet checks are identity tests and no run calls Alphabet.__eq__
    def digest():
        report = run_suite(RunConfig(seed=0, samples=4))
        return hashlib.sha256(json.dumps(report.to_json(), sort_keys=True).encode()).hexdigest()

    first = digest()
    calls = []
    plain_eq = Alphabet.__eq__

    def counting_eq(self, other):
        calls.append((self, other))
        return plain_eq(self, other)

    monkeypatch.setattr(Alphabet, "__eq__", counting_eq)
    assert digest() == first
    assert calls == []


def test_exchange_keys_zero_check_reads_the_oracle(monkeypatch):
    # the battery's zero test must depend on the coset oracle: a zero test
    # blind to it, YES only for an element without terms, has to fail samples
    config, fixtures = RunConfig(seed=0), load_fixtures()
    assert suite.battery_exchange_keys(config, fixtures).passed

    def blind_is_zero(element, oracle):
        return Tri.NO if element.terms else Tri.YES

    monkeypatch.setattr(suite, "is_zero", blind_is_zero)
    assert suite.battery_exchange_keys(config, fixtures).failures > 0


# rng.random() after each fixture battery ran 4 samples under a named seed;
# negative controls are exempt, since they stop at their first detection
DRAW_PINS = {
    ("lot3", "cm-axioms"): 0.5344702029028889,
    ("lot3", "derivation-law"): 0.41044039247750197,
    ("lot3", "regularity"): 0.0096521814218673,
    ("lot3", "composition-agreement"): 0.41019434054727,
    ("lot3", "actor-diagram"): 0.19640238044283242,
    ("lot3", "action-laws"): 0.45275261998406724,
    ("lot3", "decompose-roundtrip"): 0.5209386818546453,
    ("lot3", "projection"): 0.346824209302095,
    ("lot4", "cm-axioms"): 0.09236136891981905,
    ("lot4", "derivation-law"): 0.6207322887801591,
    ("lot4", "regularity"): 0.7376584979270753,
    ("lot4", "composition-agreement"): 0.5993874353436098,
    ("lot4", "actor-diagram"): 0.1291325177764039,
    ("lot4", "action-laws"): 0.7188020721864989,
    ("lot4", "decompose-roundtrip"): 0.3627488851941921,
    ("lot4", "projection"): 0.18559518031247446,
    ("lot3b", "cm-axioms"): 0.07914307076586513,
    ("lot3b", "derivation-law"): 0.9195562563109222,
    ("lot3b", "regularity"): 0.7257405954073537,
    ("lot3b", "composition-agreement"): 0.11284755480533482,
    ("lot3b", "actor-diagram"): 0.7619917416233312,
    ("lot3b", "action-laws"): 0.7402731544216369,
    ("lot3b", "decompose-roundtrip"): 0.47322997732817185,
    ("lot3b", "projection"): 0.3214082224537649,
}
FIXTURES = {fx.presentation.name: fx for fx in load_fixtures().reducible_fixtures()}
BATTERIES = {name: fn for name, fn, _, _ in FIXTURE_BATTERY_TABLE}
BATTERIES["projection"] = check_projection


def test_every_fixture_battery_is_pinned():
    assert set(DRAW_PINS) == {(f, b) for f in FIXTURES for b in BATTERIES}


@pytest.mark.parametrize("fixture,battery", sorted(DRAW_PINS))
def test_battery_draws_are_pinned(fixture, battery):
    rng = random.Random(f"pin/{fixture}/{battery}")
    assert BATTERIES[battery](FIXTURES[fixture], rng, 4).passed
    assert rng.random() == DRAW_PINS[fixture, battery]


class DrawLog(random.Random):
    """A generator that hashes the argument and result of every
    ``getrandbits`` and ``random`` call, in call order.

    Every draw the code makes reduces to these two: ``randrange`` and
    ``choice`` spend ``getrandbits`` in a rejection loop, and so do the
    samplers that call ``getrandbits`` directly, so the log pins the random
    stream and not the method that spent it.  Overriding ``getrandbits`` also
    keeps ``_randbelow`` on its ``getrandbits`` path: a subclass that
    overrides ``random`` alone makes ``Random.__init_subclass__`` switch to
    the path without it, which changes every integer draw.
    """

    def __init__(self, seed):
        self.log = hashlib.sha256()
        super().__init__(seed)

    def getrandbits(self, k):
        r = super().getrandbits(k)
        self.log.update(f"getrandbits({k})={r}\n".encode())
        return r

    def random(self):
        x = super().random()
        self.log.update(f"random()={x!r}\n".encode())
        return x


# sha256 of each suite-level battery's draw log at seed 0, samples=4; the
# batteries that draw nothing (coset-determinism, tensor-dominion,
# envelope-probe) ask for no generator
SUITE_DRAW_LOGS = {
    "centrality": "74eb6343cd142170db1b5482fd7d35b5a91888bcc7e8010eab012b6d4dbb12a1",
    "certificates": "ce4858a956181a537965ce7861c7f3b8cb2e6f7133543d04c3c55c5687becee2",
    "exchange-involution": "583880478d15c8d77b61d39d5e8bd9cfb9bb2576d63c964d454b12c96c98eba3",
    "exchange-keys": "0285a38a0d2fa2b3c3c0913b31b59835601d94a269e3455fae35772420e92c42",
    "insertion-identity": "02e5b832c59ae6c83d7419ebe9c84dffcdb1201e0fc3031aa397bb5e63fe64b2",
    "move-soundness": "c955bfe6d9d6dcd9d8176e9b947cf6d03ef64d42c9ebeae1d6dac3187a13983e",
    "retraction": "04885fa5f2847914f9b1a2c0fc7aee4df5a97aeac90960225cbb691876b77367",
    "scramble-recover": "e8a59452a41e094fbb6ad15574ef91fd2a0244f6618b52c8fa2f5c49b1ffe3fa",
    "sequence-action": "288a976a3641303e3960f44d2f6b2d1c561a8d5b70ab1c36356383ebb860e2c4",
    "word-laws": "6d6c75f9b5ae8a04be359ccc5febbb50cdeee21127c070f2764104e2b249e3ca",
}

# sha256 of each fixture battery's draw log, 4 samples under a named seed
FIXTURE_DRAW_LOGS = {
    ("lot3", "cm-axioms"): "2098bba72ae663d19c378539b3ccc77aeeb533ca0fd2e64f4bfc3d51a155bac8",
    ("lot3", "derivation-law"): "8264ba08b48317dac35da7d1942682489360e9f4dead4da4069651d75fd23f66",
    ("lot3", "regularity"): "9e9264ecb0de7f8ae7d192693ce124f6f7f8a3e4600ebec972947031a725f7df",
    ("lot3", "composition-agreement"): "7e75521b25977e547de7ec43c3694c81e7c8ce90a1d56536f7046d9d5d335a9d",
    ("lot3", "actor-diagram"): "e349c003fbba62896aa677d0e1d6a1ad30d30e889cc5a332cb0ab5d04c0239d8",
    ("lot3", "action-laws"): "fec6821cc089c2b53ad079c63943cbb81e3f781024dcd5a0f998caf35ebde0db",
    ("lot3", "decompose-roundtrip"): "8f512eb4c864d5fae6f7469d67c6470d232f4c06de26e65ce7c05082778730bd",
    ("lot3", "projection"): "570f02efb128750908ab1efbf429d7a85ab697d499163728b517c0ad36ae1424",
    ("lot4", "cm-axioms"): "c91dcc957b068a113ff66ec51fbad270b52beecf97b4533d3848349250fc00b9",
    ("lot4", "derivation-law"): "cca14dd9b30162ce8334ca7315bef5ffd630a0e78d9c647d18552ad6e957c44f",
    ("lot4", "regularity"): "fb34474a47cdc11f0d205744104cea24674c4161a91b4cbef9a6c11ffc463442",
    ("lot4", "composition-agreement"): "00de003606f255e39af6ae749f7960832bbbc4357000dfb0a8ac30bfb7495b2b",
    ("lot4", "actor-diagram"): "c2892084cf2c18365533973e87b69a153934733b3f19a8dea37fb0412abc03ca",
    ("lot4", "action-laws"): "21590d75f1cf6fd284552b68a6af91b94491ebed3faefa9e6246681fa6468364",
    ("lot4", "decompose-roundtrip"): "93b94679d036c591ed60835491e6529df7d80a293c15496f1a0fcf3b05176a30",
    ("lot4", "projection"): "9fc66447ffef830c4e0a8dff5338637935282aac4e207439eb638914ac9ae5b7",
    ("lot3b", "cm-axioms"): "e122cb851781a0b85d22fd04f22d1e2b7769e5257326539cd5472718386523d7",
    ("lot3b", "derivation-law"): "d55b82066d15d5b6a253966c618d04b40d925453fc699a989abf3d990b8ed1d2",
    ("lot3b", "regularity"): "e9e0c82df72ccc218f1be93ad0221f2924c51e5aab926e38d22d0987ad38fe5f",
    ("lot3b", "composition-agreement"): "3902bd8d3f32463818cf2e31b5a16d9e4dc6b74c16b2a4d8c35f3eb41cf8936d",
    ("lot3b", "actor-diagram"): "7c01f69ca29397931b8a691d9eb4bcbc802e6d4ddb59a306ec2e25a2017bb00b",
    ("lot3b", "action-laws"): "377b40cbf7ef203456bacd18da8fd2a2a223d10328a312f04723491fe4c94a01",
    ("lot3b", "decompose-roundtrip"): "f40fa63e86f241acc3fcf2273e6de7a55e4aec739ba8eba3e39fcbc8d6766735",
    ("lot3b", "projection"): "eb6a3a3092e43a0657bbe79457868cd31066d863ea6f09a01a00fbff1a397836",
}


def test_recorder_draws_like_the_plain_generator():
    plain, logged = random.Random("draws"), DrawLog("draws")
    for n in (2, 3, 5, 1 << 30):
        assert logged.randrange(n) == plain.randrange(n)
    assert logged.choice((1, -1)) == plain.choice((1, -1))
    assert logged.random() == plain.random()


def test_suite_battery_draws_are_pinned(monkeypatch):
    logs = {}

    def recording_rng(config, battery):
        logs[battery] = DrawLog(f"{config.seed}/{battery}")
        return logs[battery]

    monkeypatch.setattr(suite, "_rng", recording_rng)
    report = run_suite(RunConfig(seed=0, samples=4))
    payload = json.dumps(report.to_json(), sort_keys=True).encode()
    assert hashlib.sha256(payload).hexdigest() == GOLDEN[0]
    suite_logs = {name: rng.log.hexdigest() for name, rng in logs.items() if "/" not in name}
    assert suite_logs == SUITE_DRAW_LOGS


@pytest.mark.parametrize("fixture,battery", sorted(DRAW_PINS))
def test_fixture_battery_draw_logs_are_pinned(fixture, battery):
    rng = DrawLog(f"pin/{fixture}/{battery}")
    assert BATTERIES[battery](FIXTURES[fixture], rng, 4).passed
    assert rng.log.hexdigest() == FIXTURE_DRAW_LOGS[fixture, battery]


def test_move_soundness_builds_the_legal_move_it_draws():
    # the battery draws j below the count of d's legal moves, base-pool
    # insertions included, and builds only move j from the step moves
    rng = random.Random("legal-move-at")
    draws = {"step": 0, "insert": 0}
    while min(draws.values()) < 1000:
        for gp in load_fixtures().peiffer_presentations():
            d = random_sequence(gp, rng)
            pool = base_insert_pool(gp)
            steps = legal_moves(d)
            moves = legal_moves(d, pool)
            assert len(moves) == len(steps) + (len(d.symbols) + 1) * len(pool)
            picks = [rng.randrange(len(moves)), len(steps), len(moves) - 1]
            if steps:
                picks.append(rng.randrange(len(steps)))
            for j in picks:
                assert _legal_move_at(steps, pool, j) == moves[j]
                draws["step" if j < len(steps) else "insert"] += 1
