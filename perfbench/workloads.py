"""Inputs, timed passes and correctness checks for the three workloads.

All three are closed loops with one caller: the next instance starts only
after the previous verdict.  Inputs are generated with the package's own
code from an input seed (``INPUT_SEEDS`` names the development and held-out
ones); the run seed only orders the closed loop.  Inputs are pinned per input
seed because per-instance search cost is heavy-tailed: redrawing 200
criterion-2 scrambles per run seed moved the pass time by 0.84 of its median
(interquartile range, bootstrap over 2,239 timed scrambles), and
``run_suite`` took 23 to 32 s across suite seeds 0 to 7, both beyond any
allowed regression bound.
"""
from __future__ import annotations

import hashlib
import importlib
import json
import random
import statistics
import sys
import time
from dataclasses import dataclass
from types import SimpleNamespace

MODULES = ("partial", "words", "presentations", "actions", "peiffer", "relmod", "xmod", "fixtures", "suite")

INPUT_SEEDS = {"development": 0, "held_out": 1}

# search-easy: criterion-2 draws, five Peiffer fixtures uniform, k uniform in 1..6
EASY_COUNT = 200
EASY_BUDGET = 50_000

# On the search tiers, instances whose first search took under LIGHT_S are
# searched in more passes until they have LIGHT_SAMPLES samples, so that the
# median (about 1 ms on search-easy, which makes one full pass) and the 95th
# percentile (about 130 ms) rest on three samples an instance, for about 3 s
# more a run.  With one sample each, the median's spread over ten runs was
# 0.16 of its value; with three, 0.06.
LIGHT_S = 0.2
LIGHT_SAMPLES = 3

# search-hard: deep scrambles under a small expanded-node budget, plus planted
# identity sequences that no certificate can trivialize.  The default 50k
# budget does not bound wall time here (a sym3 scramble at k=9 ran past
# 400 s).  At 12 expansions a pass over the 88 instances takes about 3.5 s,
# and they are many enough that the median and 95th percentile do not rest
# on one or two instances.
HARD_FIXTURES = ("sym3", "lot3", "lot4", "klein")
HARD_DEPTHS = (7, 8, 9)
HARD_PER_CELL = 6
HARD_BUDGET = 12
# (fixture, relator, root): the relator is a proper power of the root, so
# (r, 1, +1)(r, root, -1) is an identity sequence with signed image e - root
PLANTED_ROOTS = (("c3", "r", "a"), ("sym3", "r1", "a"), ("sym3", "r2", "b"), ("sym3", "r3", "a b"))

SMOKE = {"easy_count": 12, "hard_per_cell": 1, "hard_budget": 10, "suite_samples": 4}


def import_package():
    """Import the package afresh (dropping any earlier import), so set-up can
    be repeated in one process."""
    for name in [n for n in sys.modules if n == "asphere" or n.startswith("asphere.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"asphere.{m}") for m in MODULES})


@dataclass(frozen=True)
class Instance:
    kind: str  # "scramble" or "planted"
    fixture: str
    k: int  # scramble moves; for planted ones, those of the appended scramble
    seq: object  # YSequence
    budget: int
    depth_limit: int | None


class Checks:
    """Counts every checked operation and every failure; failures carry a
    one-line reason for the log."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


# --- inputs -----------------------------------------------------------------------


def easy_corpus(api, fixtures, input_seed: int, count: int = EASY_COUNT) -> list[Instance]:
    rng = random.Random(f"search-easy/{input_seed}")
    presentations = fixtures.peiffer_presentations()
    out = []
    for _ in range(count):
        gp = presentations[rng.randrange(len(presentations))]
        k = rng.randrange(1, 7)
        d, _ = api.peiffer.scramble(gp, seed=rng.randrange(1 << 30), k=k)
        out.append(Instance("scramble", gp.name, k, d, EASY_BUDGET, 2 * k))
    return out


def _nonempty_word(api, alphabet, rng):
    while True:
        w = api.words.random_word(alphabet, rng, 3)
        if w.letters:
            return w


def hard_corpus(
    api, fixtures, input_seed: int, per_cell: int = HARD_PER_CELL, budget: int = HARD_BUDGET
) -> list[Instance]:
    pf = api.peiffer
    rng = random.Random(f"search-hard/{input_seed}")
    out = []
    for name in HARD_FIXTURES:
        gp = fixtures.presentations[name]
        for k in HARD_DEPTHS:
            for _ in range(per_cell):
                d, _ = pf.scramble(gp, seed=rng.randrange(1 << 30), k=k)
                out.append(Instance("scramble", name, k, d, budget, 2 * k))
    for name, rel, root in PLANTED_ROOTS:
        gp = fixtures.presentations[name]
        alphabet = gp.alphabet
        base = pf.YSequence(
            gp,
            (
                pf.YSymbol(rel, api.words.empty_word(alphabet), 1),
                pf.YSymbol(rel, api.words.word_from_text(alphabet, root), -1),
            ),
        )
        for conjugated in (False, True):
            for appended in (False, True):
                d = base
                if conjugated:
                    d = pf.conjugate_sequence(_nonempty_word(api, alphabet, rng), d)
                k = 0
                if appended:
                    k = rng.randrange(2, 5)
                    extra, _ = pf.scramble(gp, seed=rng.randrange(1 << 30), k=k)
                    d = d.concat(extra) if rng.random() < 0.5 else extra.concat(d)
                out.append(Instance("planted", name, k, d, budget, None))
    return out


def check_inputs(api, corpus: list[Instance], checks: Checks) -> None:
    """Every instance is an identity sequence; every planted one has a
    nonzero signed relation-module image under the coset-table oracle, which
    proves that no certificate exists."""
    oracles = {}
    for i, inst in enumerate(corpus):
        try:
            ok = api.peiffer.is_identity(inst.seq)
            if ok and inst.kind == "planted":
                gp = inst.seq.presentation
                oracle = oracles.get(gp.name)
                if oracle is None:
                    oracle = oracles[gp.name] = api.relmod.CosetOracle(gp)
                image = api.relmod.module_image(inst.seq, oracle, signed=True)
                ok = api.relmod.is_zero(image, oracle) is api.partial.Tri.NO
        except Exception as exc:  # a raising check is a failed operation
            ok = False
            print(f"input {i}: {exc!r}", file=sys.stderr)
        checks.record(ok, f"input {i} ({inst.kind} {inst.fixture}): ground truth does not hold")


# --- timed search passes ----------------------------------------------------------


def search_pass(api, corpus: list[Instance], indices: list[int]):
    """One closed-loop pass over ``corpus[i]`` for ``i`` in ``indices``; only
    the search calls are timed.  Returns the (start, end) clock readings of
    each call and the verdicts, indexed like the corpus (None where not run);
    a call that raised leaves its exception as the verdict."""
    search = api.peiffer.search_trivialization
    clock = time.perf_counter
    spans: list[tuple[float, float] | None] = [None] * len(corpus)
    verdicts: list[object] = [None] * len(corpus)
    for i in indices:
        inst = corpus[i]
        t0 = clock()
        try:
            verdicts[i] = search(inst.seq, node_budget=inst.budget, depth_limit=inst.depth_limit)
        except Exception as exc:
            verdicts[i] = exc
        spans[i] = (t0, clock())
    return spans, verdicts


def judge(api, inst: Instance, verdict) -> str:
    """'solved', 'exhausted' or 'failed'.  A certificate counts as solved only
    if it replays to the empty sequence; a planted instance must never get
    one."""
    pf = api.peiffer
    if verdict is api.partial.EXHAUSTED:
        return "exhausted"
    if inst.kind == "planted" or not isinstance(verdict, pf.Certificate):
        return "failed"
    try:
        return "solved" if pf.verify_certificate(inst.seq, verdict) else "failed"
    except Exception:
        return "failed"


def check_pass(api, corpus, verdicts, reference, checks: Checks, indices) -> int:
    """Judge the instances of one pass, and require the same verdicts as the
    reference pass.  Returns the number of solved scrambles."""
    solved = 0
    for i in indices:
        inst, verdict = corpus[i], verdicts[i]
        outcome = judge(api, inst, verdict)
        same = reference is None or verdict == reference[i]
        if checks.record(outcome != "failed" and same, f"instance {i} ({inst.kind} {inst.fixture}): {outcome}, repeatable={same}"):
            solved += outcome == "solved"
    return solved


def percentile_95(values) -> float:
    """Interpolated between order statistics, so that the figure does not
    jump from one instance to the next."""
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def search_figures(corpus, samples, solved: int) -> dict:
    """End-to-end figures from each instance's median time at the nominal
    pace (``samples[i]`` holds instance i's times): their sum, which is the
    time of a pass, and their median and 95th percentile."""
    per_instance = [statistics.median(s) for s in samples]
    scrambles = sum(inst.kind == "scramble" for inst in corpus)
    return {
        "wall_s": sum(per_instance),
        "verdict_p50_ms": 1e3 * statistics.median(per_instance),
        "verdict_p95_ms": 1e3 * percentile_95(per_instance),
        "solved_share": solved / scrambles,
    }


# --- suite --------------------------------------------------------------------------


def suite_rep(api, config):
    """One timed ``run_suite`` call; returns its (start, end) clock readings,
    its report, and the sha256 of the report's sorted-key JSON."""
    t0 = time.perf_counter()
    report = api.suite.run_suite(config)
    span = (t0, time.perf_counter())
    payload = json.dumps(report.to_json(), sort_keys=True).encode()
    return span, report, hashlib.sha256(payload).hexdigest()


def suite_figures(times, report) -> dict:
    """``times`` are the repetitions' times at the nominal pace."""
    recover = next(b for b in report.batteries if b.name == "scramble-recover")
    return {
        "wall_s": statistics.median(times),
        "verdict_p50_ms": 1e3 * statistics.median(times),
        "verdict_p95_ms": 1e3 * percentile_95(times),
        "solved_share": dict(recover.counters)["found"] / recover.samples,
    }


def check_suite_rep(rep, first_digest: str | None, checks: Checks) -> None:
    """The report passes, and its bytes match the first repetition's."""
    _, report, digest = rep
    checks.record(report.passed, "run_suite did not pass")
    if first_digest is not None:
        checks.record(digest == first_digest, f"report digest {digest} differs from {first_digest}")
