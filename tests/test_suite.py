"""Golden digests of smoke-size suite reports.

The report is a pure function of the seed, and these digests pin its bytes
across releases and Python versions: a change to a sampler's draws, a
battery or the report format shows here.  Update them only for an intended
change of the report.
"""
import hashlib
import json

import pytest

from asphere.suite import RunConfig, run_suite

GOLDEN = {
    0: "bd9e4435f250fc4a5bea5b7d4baedba91d0892b910f532be80518aa3452da2c1",
    17: "374ed3508c84a2a1da17adc31f9912be4d97daa5057c2c3aa3fbb7b422dfb814",
}


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_smoke_report_digest(seed):
    report = run_suite(RunConfig(seed=seed, samples=4))
    payload = json.dumps(report.to_json(), sort_keys=True).encode()
    assert hashlib.sha256(payload).hexdigest() == GOLDEN[seed]
