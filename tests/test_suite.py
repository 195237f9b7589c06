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
    """A generator that hashes the method, arguments and result of every
    ``randrange``, ``choice`` and ``random`` call, in call order.

    ``getrandbits`` is overridden too, delegating like the others: a subclass
    that overrides ``random`` alone makes ``Random.__init_subclass__`` switch
    ``_randbelow`` to its path without ``getrandbits``, which changes every
    integer draw.
    """

    def __init__(self, seed):
        self.log = hashlib.sha256()
        super().__init__(seed)

    def _note(self, method, args, result):
        self.log.update(f"{method}{args!r}={result!r}\n".encode())
        return result

    def randrange(self, *args):
        return self._note("randrange", args, super().randrange(*args))

    def choice(self, seq):
        return self._note("choice", (seq,), super().choice(seq))

    def random(self):
        return self._note("random", (), super().random())

    def getrandbits(self, k):
        return super().getrandbits(k)


# sha256 of each suite-level battery's draw log at seed 0, samples=4; the
# batteries that draw nothing (coset-determinism, tensor-dominion,
# envelope-probe) ask for no generator
SUITE_DRAW_LOGS = {
    "centrality": "408d00c17940dc72429b0de3caf957fcbfd109f1ff154ce61d6d2d3463bac526",
    "certificates": "3b9c959c8aab35e5537febb50a9e64e8dca35a6bc0d2186e6c7a3079057772c4",
    "exchange-involution": "0956a09d6552dbac2b484f200169888870878070665bc82e8df3b8860876a2b6",
    "exchange-keys": "64dd9989d49cfbb4d5bb7083e669af09416a5053cdf93a83666b2318e0a58fd9",
    "insertion-identity": "0c9726194dfd8651b22c7a9fa87757544c873cdf31a19391216b63621664bc21",
    "move-soundness": "e2575cf88b2bcfeea851eb2c6094edfb539fc9e2ab1e89870e11b3c482a5a761",
    "retraction": "3e49be8875e92d20c63e26102a05474e922da95f118bde7be479e7a0d495d337",
    "scramble-recover": "ddd50cb033aba55e177819f40800434c15a7a822b56ee6bd40041abdefa649cd",
    "sequence-action": "cdc73f62f2d01e4acd582b51ec41abe6a57e63cb59ee01fa7f72b13cf2dc06ae",
    "word-laws": "86fa4ec1b5cd4b4298e3c91527089fa9af9eb77808560c95f72dcc4102579bd9",
}

# sha256 of each fixture battery's draw log, 4 samples under a named seed
FIXTURE_DRAW_LOGS = {
    ("lot3", "cm-axioms"): "8a22296a3097333004722502b19629ee9067947b2e1280d1aa4db8a71e1020b9",
    ("lot3", "derivation-law"): "501c430e9762f28414b2c109ccdd8c2b6121f26a4f89d711892dac0a9a76ef5b",
    ("lot3", "regularity"): "de0577d3ccac4ddfc69003903e8527a4ad473e99f220e16428f380af8896c8db",
    ("lot3", "composition-agreement"): "c196f64564aabb437155b0460163cb8775f7536885e2a79283a14248e501d81a",
    ("lot3", "actor-diagram"): "c597fe86e7eaa9abfec49595c80aed560f6783b8a341327dcc916b36615dcf2a",
    ("lot3", "action-laws"): "b552512d4d06e248621989feb919b88caa05c02d6133892c6bf080945f64022f",
    ("lot3", "decompose-roundtrip"): "4839c7a293fd883765f67e1fa862580881e1c4725d999189ef9b6487d9224411",
    ("lot3", "projection"): "35e0223a93905aa686115fb795b6551b26d4f78f00c17c69b84574d46771730b",
    ("lot4", "cm-axioms"): "8424fed0baad105b09d75f9aa5ed159d6d9c503cd2e1c69e7e8834f3ba6e579f",
    ("lot4", "derivation-law"): "309b2793583b7674d3898f4c08c325a9eb6b00950637a8b7998bf40bb60ffc5a",
    ("lot4", "regularity"): "c18affae59e681488464c9410c87bf2e555185b5ade8ce3f4795dcdccf9f60ec",
    ("lot4", "composition-agreement"): "41937708e1fe4638bef4ff848f4850babf2a0352265b48bf7a1acd7fe4424347",
    ("lot4", "actor-diagram"): "bf1f6f55c0aadd632c500f3552b963774d804937242ba152543e856fe4299882",
    ("lot4", "action-laws"): "f561bb0f60b209a5cb2264bf2053ffee38c70c8a0d83153175e050fd54a59cfd",
    ("lot4", "decompose-roundtrip"): "904bbff67c03a13114fe30da1e691fb96b3b92da594eaa2a81f47a93a77419b6",
    ("lot4", "projection"): "e8a26c9ce56af378da59601f16db5ac3f4934dbefd632bf3edd00d075ce0aa54",
    ("lot3b", "cm-axioms"): "93d4eb211f0f2625c837d2dce08c1717b1f128e2d8863cfcc5bb8087803c1172",
    ("lot3b", "derivation-law"): "06cba16281776302f9aa62b13418bfc218c92f007ad513d76f68f66e5857ba24",
    ("lot3b", "regularity"): "730f7bef65e934a46eb11c5f58ac7ac6f0680d3ac8f8257a24ac68c35b3910c3",
    ("lot3b", "composition-agreement"): "473f0ce6e8f89d3b755efd63d67256c448caa2187a004d06a66bcc8a9419e3b9",
    ("lot3b", "actor-diagram"): "3a15c39b9e6f3d3af82404847a1c9a606b49e525580458234cfea1aa353ceb67",
    ("lot3b", "action-laws"): "36102e58a7fec16bbdf56b96bbf675b6aa16f0d148885d1ac8c1b432b5f6a11f",
    ("lot3b", "decompose-roundtrip"): "b75f1e16bf682726e0f6d7913e6f7c42a3c7acf863d7606e863c1ca7f06c67d7",
    ("lot3b", "projection"): "c45e0f3d584e1a37268c8ca627664cce30e374fcead1e4dd4d852966aa1b8304",
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
