"""The battery layout that perfbench/tracer.py reads.

The tracer labels each battery's time without any hook in the package: it
wraps every public function of the traced modules by name and rebinds the
module globals, treats ``suite.battery_*`` and ``xmod.check_*`` as battery
spans, labels a fixture battery from ``FIXTURE_BATTERY_TABLE`` and names its
negative control by the ``perturb=`` keyword, and rebuilds the table with the
wrappers.  These tests pin that layout, so a change to how batteries are
declared keeps every battery labelled.
"""
import inspect

from asphere import suite, xmod
from asphere.fixtures import load_fixtures
from asphere.suite import RunConfig
from asphere.xmod import BatteryResult

LOT3 = next(fx for fx in load_fixtures().reducible_fixtures() if fx.presentation.name == "lot3")


def _public_functions(module, prefix):
    return {
        name: obj
        for name, obj in vars(module).items()
        if name.startswith(prefix) and inspect.isfunction(obj) and obj.__module__ == module.__name__
    }


def test_table_entries_are_name_function_count_control():
    for entry in suite.FIXTURE_BATTERY_TABLE:
        name, fn, default, control = entry
        assert len(entry) == 4 and type(name) is str, entry
        assert type(default) is int and type(control) is bool, entry
        assert getattr(xmod, fn.__name__) is fn, entry


def test_every_check_is_in_the_table_or_the_projection():
    table = {fn.__name__ for _, fn, _, _ in suite.FIXTURE_BATTERY_TABLE}
    assert set(_public_functions(xmod, "check_")) == table | {"check_projection"}


def test_battery_signatures():
    for name, fn in _public_functions(suite, "battery_").items():
        assert list(inspect.signature(fn).parameters) == ["config", "fixtures"], name
    for _, fn, _, control in suite.FIXTURE_BATTERY_TABLE:
        params = inspect.signature(fn).parameters
        expected = ["fx", "rng", "samples"] + ["perturb"] * control
        assert list(params) == expected, fn.__name__
        if control:
            assert params["perturb"].default is False, fn.__name__


def test_fixture_batteries_read_the_table_at_call_time(monkeypatch):
    calls = []

    def fake(fx, rng, samples, **kwargs):
        calls.append((fx, samples, kwargs))
        return BatteryResult.collect("fake", samples, ["found"] if kwargs else [])

    monkeypatch.setattr(suite, "FIXTURE_BATTERY_TABLE", (("fake", fake, 3, True),))
    monkeypatch.setattr(xmod, "check_projection", lambda fx, rng, n: BatteryResult("p", n, 0))
    names = [r.name for r in suite.fixture_batteries(LOT3, RunConfig(seed=0))]
    assert names == ["lot3/fake", "lot3/fake/negative-control", "lot3/projection-pipeline"]
    # the law runs without the keyword, its control with perturb=True by keyword
    assert calls == [(LOT3, 3, {}), (LOT3, 25, {"perturb": True})]


def test_run_suite_calls_each_battery_through_the_module_global(monkeypatch):
    batteries = _public_functions(suite, "battery_")
    called = []

    def fake(name):
        def battery(config, fixtures):
            called.append(name)
            result = BatteryResult(name, 0, 0)
            return [result] if name == "battery_xmod" else result

        return battery

    for name in batteries:
        monkeypatch.setattr(suite, name, fake(name))
    report = suite.run_suite(RunConfig(seed=0, samples=1))
    assert sorted(called) == sorted(batteries)
    assert [b.name for b in report.batteries] == called
