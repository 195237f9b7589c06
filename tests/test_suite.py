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

from asphere.fixtures import load_fixtures
from asphere.suite import FIXTURE_BATTERY_TABLE, RunConfig, run_suite
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
