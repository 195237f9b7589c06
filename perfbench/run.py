#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload search-easy --seed 1 --seconds 25 --trace 0

Workloads: search-easy, search-hard, suite (see perfbench/README.md).  With
``--trace 0`` the last line of standard output carries the end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` it carries the per-layer ones,
from one traced pass that follows an untraced one, and the spans go to
``perfbench/out/``.  The line before it is a ``{"meta": ...}`` record with
the run's provenance.  ``--smoke`` shrinks every workload to a few seconds.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import speed
import tracer
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 7  # at least; and on until SETUP_SECONDS have passed
SETUP_SECONDS = 2.0
WORKLOADS = ("search-easy", "search-hard", "suite")


def git_sha() -> str | None:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            sha, _, ref_name = line.partition(" ")
            if ref_name == name:
                return sha
    return None


def source_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "asphere").glob("*.py"))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


class Run:
    """One workload run: set-up, timed passes, checks and metrics."""

    def __init__(self, args):
        self.args = args
        self.checks = wl.Checks()
        self.meta: dict = {}
        self.trace_json: dict | None = None

    # set-up: import, fixture load and input generation, repeated; the median counts
    def _setup_once(self):
        api = wl.import_package()
        fixtures = api.fixtures.load_fixtures()
        return api, fixtures, self._inputs(api, fixtures)

    def _inputs(self, api, fixtures):
        args = self.args
        if args.workload == "search-easy":
            count = wl.SMOKE["easy_count"] if args.smoke else wl.EASY_COUNT
            return wl.easy_corpus(api, fixtures, args.input_seed, count)
        if args.workload == "search-hard":
            if args.smoke:
                return wl.hard_corpus(
                    api, fixtures, args.input_seed, wl.SMOKE["hard_per_cell"], wl.SMOKE["hard_budget"]
                )
            return wl.hard_corpus(api, fixtures, args.input_seed)
        return None

    def setup(self):
        spans = []
        with speed.Pace() as pace:
            while len(spans) < SETUP_REPS or spans[-1][1] - spans[0][0] < SETUP_SECONDS:
                t0 = time.perf_counter()
                result = self._setup_once()
                spans.append((t0, time.perf_counter()))
        times = [pace.scaled(*span) for span in spans]
        self.meta["setup_reps_s"] = times
        self.meta["setup_raw_s"] = [end - start for start, end in spans]
        return result, statistics.median(times)

    def _repeat(self, step, at_least: int):
        """Call ``step(results so far)`` ``at_least`` times, and again while
        the next call should still end within ``--seconds``.  A traced run
        makes one untraced call; the traced one follows."""
        results = []
        start = time.perf_counter()
        while True:
            results.append(step(results))
            n, elapsed = len(results), time.perf_counter() - start
            if self.args.trace or (n >= at_least and elapsed * (n + 1) / n > self.args.seconds):
                return results

    # --- search tiers -------------------------------------------------------------

    def search(self, api, fixtures, corpus):
        args, checks = self.args, self.checks
        wl.check_inputs(api, corpus, checks)
        order = list(range(len(corpus)))
        random.Random(f"order/{args.seed}").shuffle(order)
        self.meta["instances"] = {
            "scrambles": sum(i.kind == "scramble" for i in corpus),
            "planted": sum(i.kind == "planted" for i in corpus),
        }
        self.meta["budgets"] = sorted({i.budget for i in corpus})
        solved = []

        def one_pass(passes, indices=order):
            spans, verdicts = wl.search_pass(api, corpus, indices)
            reference = passes[0][1] if passes else None
            solved.append(wl.check_pass(api, corpus, verdicts, reference, checks, indices))
            return spans, verdicts

        with speed.Pace() as pace:
            passes = self._repeat(one_pass, 1)
            first = passes[0][0]
            light = [i for i in order if first[i][1] - first[i][0] < wl.LIGHT_S]
            passes += [one_pass(passes, light) for _ in range(wl.LIGHT_SAMPLES - len(passes))]
        samples = [[] for _ in corpus]
        for spans, _ in passes:
            for i, span in enumerate(spans):
                if span is not None:
                    samples[i].append(pace.scaled(*span))
        raw = [sum(end - start for start, end in filter(None, spans)) for spans, _ in passes]
        self.meta["pass_s"] = [sum(pace.scaled(*span) for span in filter(None, spans)) for spans, _ in passes]
        self.meta["pass_raw_s"] = raw
        self.meta["probe_ms"] = 1e3 * pace.median_probe_s()
        self.meta["light_instances"] = len(light)
        self.meta["exhausted"] = sum(wl.judge(api, i, v) == "exhausted" for i, v in zip(corpus, passes[0][1]))
        if not args.trace:
            return wl.search_figures(corpus, samples, solved[0])

        with tracer.Tracer() as trace:
            traced_corpus = self._inputs(api, fixtures)
            spans, verdicts = wl.search_pass(api, traced_corpus, order)
            wl.check_pass(api, traced_corpus, verdicts, passes[0][1], checks, order)
        checks.record(
            [i.seq for i in traced_corpus] == [i.seq for i in corpus],
            "traced input generation differs from the untraced one",
        )
        traced_s = sum(end - start for start, end in spans)
        return self._layers(trace, traced_s / raw[0])

    # --- suite --------------------------------------------------------------------

    def suite(self, api):
        args, checks = self.args, self.checks
        samples = wl.SMOKE["suite_samples"] if args.smoke else None
        config = api.suite.RunConfig(seed=args.input_seed, samples=samples)

        def one_rep(reps):
            rep = wl.suite_rep(api, config)
            wl.check_suite_rep(rep, reps[0][2] if reps else None, checks)
            return rep if not reps else (rep[0], None, rep[2])  # keep one report

        with speed.Pace() as pace:
            reps = self._repeat(one_rep, 2)  # two, for the digest check
        times = [pace.scaled(*span) for span, _, _ in reps]
        self.meta["probe_ms"] = 1e3 * pace.median_probe_s()
        self.meta["rep_s"] = times
        self.meta["rep_raw_s"] = [end - start for (start, end), _, _ in reps]
        self.meta["digest"] = reps[0][2]
        self.meta["batteries"] = len(reps[0][1].batteries)
        if not args.trace:
            return wl.suite_figures(times, reps[0][1])

        with tracer.Tracer() as trace:
            traced = wl.suite_rep(api, config)
        wl.check_suite_rep(traced, reps[0][2], checks)
        labels = trace.battery_seconds()
        missing = [b.name for b in traced[1].batteries if b.name not in labels]
        checks.record(not missing, f"batteries without a span: {missing}")
        (start, end), _, _ = traced
        return self._layers(trace, (end - start) / self.meta["rep_raw_s"][0])

    def _layers(self, trace: tracer.Tracer, overhead: float) -> dict:
        figures = tracer.layer_metrics(trace)
        figures["trace_overhead"] = overhead
        self.checks.record(
            figures["peiffer.expanded"] > 0 and figures["peiffer.generated"] > 0,
            "the traced pass counted no expanded or generated search nodes",
        )
        self.trace_json = trace.to_json()
        return figures


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True, help="orders the closed loop")
    ap.add_argument("--seconds", type=float, required=True, help="measuring time; a search tier makes at least one pass, the suite two repetitions")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--input-seed",
        type=int,
        default=0,
        help="draws the instances and the suite seed; 0 is the development set, 1 the held-out one",
    )
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "asphere" / "__init__.py").is_file():
        print(f"error: package sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    run = Run(args)
    (api, fixtures, corpus), setup_s = run.setup()
    if args.workload == "suite":
        figures = run.suite(api)
    else:
        figures = run.search(api, fixtures, corpus)
    checks = run.checks

    if args.trace:
        wanted = spec["per_layer"]
    else:
        wanted = spec["end_to_end"]
        figures.update(
            setup_s=setup_s,
            peak_rss_mb=peak_rss_mb(),
            passed_share=1 - len(checks.failures) / checks.attempted,
        )
    metrics = {m["name"]: {"value": figures.get(m["name"], 0), "unit": m["unit"]} for m in wanted}

    run.meta.update(
        workload=args.workload,
        seed=args.seed,
        input_seed=args.input_seed,
        input_seeds=wl.INPUT_SEEDS,
        trace=args.trace,
        smoke=args.smoke,
        git_sha=git_sha(),
        python=platform.python_version(),
        nproc=os.cpu_count(),
        src_asphere_py_lines=source_lines(),
        unreported=sorted(set(figures) - set(metrics)),
        failures=checks.failures[:10],
    )
    if run.trace_json is not None:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        path = out / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"meta": run.meta, **run.trace_json}))
    for line in checks.failures:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({"meta": run.meta}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not checks.failures,
                "attempted": checks.attempted,
                "failed": len(checks.failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
