"""Acceptance criteria, one test per criterion, each printing a pass/fail
line.  Sample counts and tolerances are fixed here; run with ``-s`` to see
the lines as they pass:

    pytest tests/test_acceptance.py -v -s
"""
import json
import random
import time

import pytest

from asphere import suite as suite_mod
from asphere.actions import (
    all_submonoids,
    dominion,
    enveloping_group_presentation,
    is_inverse_monoid,
    tensor_product,
    tensor_product_naive,
)
from asphere.fixtures import load_fixtures
from asphere.partial import EXHAUSTED
from asphere.peiffer import (
    is_identity,
    scramble,
    search_trivialization,
    verify_certificate,
)
from asphere.presentations import coset_enumeration
from asphere.suite import RunConfig
from asphere.xmod import check_projection

FIXTURES = load_fixtures()
CONFIG = RunConfig(seed=0)


def _report(num: int, name: str, ok: bool, extra: str = ""):
    suffix = f"  [{extra}]" if extra else ""
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def test_criterion_1_peiffer_soundness():
    result = suite_mod.battery_move_soundness(CONFIG, FIXTURES)
    assert result.samples == 1000
    _report(1, "peiffer soundness", result.failures == 0, f"{result.samples} pairs")


def test_criterion_2_scramble_recover():
    rng = random.Random("acceptance/scramble")
    presentations = FIXTURES.peiffer_presentations()
    start = time.monotonic()
    found = 0
    replayed = 0
    total = 200
    for _ in range(total):
        gp = presentations[rng.randrange(len(presentations))]
        k = rng.randrange(1, 7)
        d, _ = scramble(gp, seed=rng.randrange(1 << 30), k=k)
        assert is_identity(d)
        cert = search_trivialization(d, node_budget=50_000, depth_limit=2 * k)
        if cert is EXHAUSTED:
            continue
        found += 1
        if verify_certificate(d, cert):
            replayed += 1
    elapsed = time.monotonic() - start
    ok = found / total >= 0.95 and replayed == found and elapsed < 120
    _report(
        2,
        "scramble/recover",
        ok,
        f"found {found}/{total}, replayed {replayed}/{found}, {elapsed:.1f}s",
    )


def test_criterion_3_zigzag_dominion():
    small = {name: m for name, m in FIXTURES.monoids.items() if m.size <= 5}
    assert len(small) >= 20
    failures = 0
    instances = 0
    for name, m in small.items():
        for u in all_submonoids(m):
            instances += 1
            fast = tensor_product(u)
            slow = tensor_product_naive(u)
            dom = dominion(u)  # raises if U is missed or closure fails
            if fast != slow:
                failures += 1
            if u.elements == {m.identity} and dom != frozenset({m.identity}):
                failures += 1
            if is_inverse_monoid(u) and dom != u.elements:
                failures += 1
    _report(3, "zigzag/dominion", failures == 0, f"{instances} instances over {len(small)} tables")


def test_criterion_4_universal_group_probe():
    cyc = FIXTURES.monoids["cyc_1_2"]
    envelope = coset_enumeration(enveloping_group_presentation(cyc), (), 100)
    c3 = coset_enumeration(FIXTURES.presentations["c3"], (), 100)
    s3 = coset_enumeration(FIXTURES.presentations["sym3"], (), 100)
    ok = envelope == 2 and c3 == 3 and s3 == 6
    _report(4, "universal-group probe", ok, f"envelope={envelope}, c3={c3}, sym3={s3}")


@pytest.fixture(scope="module")
def xmod_results():
    """The crossed-module batteries, run once for criteria 5 and 6."""
    return suite_mod.battery_xmod(CONFIG, FIXTURES)


def test_criterion_5_structural_law_batteries(xmod_results):
    fixtures = FIXTURES.reducible_fixtures()
    assert len(fixtures) >= 3
    law_names = (
        "derivation-law",
        "regularity",
        "composition-agreement",
        "actor-diagram",
        "action-laws",
    )
    counts = {
        "derivation-law": 500,
        "regularity": 500,
        "composition-agreement": 500,
        "actor-diagram": 200,
        "action-laws": 100,
    }
    checked = 0
    ok = True
    for result in xmod_results:
        parts = result.name.split("/")
        if len(parts) == 2 and parts[1] in law_names:
            checked += 1
            ok = ok and result.failures == 0 and result.samples == counts[parts[1]]
        if len(parts) == 3 and parts[1] in law_names:
            ok = ok and result.failures == 0  # negative control detected the perturbation
    assert checked == len(fixtures) * len(law_names)
    _report(5, "structural-law batteries + negative controls", ok, f"{checked} batteries on {len(fixtures)} fixtures")


def test_criterion_6_decomposition_round_trips(xmod_results):
    relevant = [r for r in xmod_results if r.name.endswith("/decompose-roundtrip")]
    ok = all(r.failures == 0 and r.samples == 1000 for r in relevant)
    _report(6, "decomposition round-trips", ok, f"{len(relevant)} fixtures x 1000 words")


def test_criterion_7_projection_pipeline():
    ok = True
    details = []
    for fx in FIXTURES.reducible_fixtures():
        result = check_projection(
            fx, random.Random(f"acceptance/projection/{fx.presentation.name}"), 100
        )
        counters = dict(result.counters)
        details.append(
            f"{fx.presentation.name}: {counters['found']}/{counters['searched']}"
        )
        ok = ok and result.failures == 0
    _report(7, "projection pipeline", ok, "; ".join(details))


def test_criterion_8_relation_module():
    insertion = suite_mod.battery_insertion_identity(CONFIG, FIXTURES)
    exchange = suite_mod.battery_exchange_keys(CONFIG, FIXTURES)
    ok = (
        insertion.failures == 0
        and insertion.samples == 500
        and exchange.failures == 0
        and exchange.samples == 200
    )
    _report(8, "relation module identities", ok, "500 insertions, 200 exchanges")


def test_criterion_9_suite_determinism():
    config = RunConfig(seed=17)
    first = json.dumps(suite_mod.run_suite(config).to_json(), sort_keys=True)
    second = json.dumps(suite_mod.run_suite(config).to_json(), sort_keys=True)
    ok = first == second and json.loads(first)["passed"]
    _report(9, "suite determinism", ok, f"{len(first)} bytes compared")
