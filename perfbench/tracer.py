"""Per-module tracing for the benchmark, installed from outside the package.

The asphere modules bind each other's functions by name (``from .words
import multiply``), so wrapping ``asphere.words.multiply`` alone would miss
every call made from ``peiffer`` or ``xmod``.  ``Tracer.install`` therefore
wraps every public function of the traced modules once and then rebinds each
name, in every loaded ``asphere`` module, that still points at an original.
``suite.FIXTURE_BATTERY_TABLE`` captured the ``xmod.check_*`` function
objects at import, so the table is rebuilt with the wrappers as well.

Coarse calls (searches, scrambles, projections, coset enumerations,
batteries) become spans with a name, a start, an end and a parent.  Hot
calls (word arithmetic, moves, pools) only add to a counter and an
accumulated time, keyed by the name of the enclosing span.  Every wrapper
also books its duration as child time of its caller, so self times follow.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time

TRACED_MODULES = ("words", "presentations", "actions", "peiffer", "relmod", "xmod", "suite")

SPAN_FUNCTIONS = frozenset(
    {
        "peiffer.search_trivialization",
        "peiffer.scramble",
        "xmod.project_identity_sequence",
        "presentations.coset_table",
        "suite.run_suite",
        "suite.fixture_batteries",
    }
)

SEARCH = "peiffer.search_trivialization"

# span record fields
NAME, LABEL, START, END, PARENT, CHILD_S = range(6)


def _is_span(name: str) -> bool:
    short = name.split(".", 1)[1]
    return (
        name in SPAN_FUNCTIONS
        or (name.startswith("suite.") and short.startswith("battery_"))
        or (name.startswith("xmod.") and short.startswith("check_"))
    )


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.hot: dict[tuple[str, str], list] = {}  # (span name, fn) -> [calls, incl_s, self_s]
        self._open: list[int] = []
        self._frames: list[list[float]] = [[0.0]]
        self._patches: list[tuple[object, str, object]] = []

    # --- wrappers -----------------------------------------------------------------

    def _wrap_hot(self, name, fn):
        frames, hot, spans, open_ = self._frames, self.hot, self.spans, self._open
        clock = time.perf_counter
        depth = [0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            depth[0] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                depth[0] -= 1
                frames.pop()
                frames[-1][0] += dt
                key = (spans[open_[-1]][NAME] if open_ else "", name)
                rec = hot.get(key)
                if rec is None:
                    rec = hot[key] = [0, 0.0, 0.0]
                rec[0] += 1
                if not depth[0]:  # recursive calls count their time once
                    rec[1] += dt
                rec[2] += dt - frame[0]

        return wrapper

    def _wrap_span(self, name, fn, label_of=None):
        frames, spans, open_ = self._frames, self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, None, 0.0, 0.0, open_[-1] if open_ else None, 0.0]
            open_.append(len(spans))
            spans.append(rec)
            frame = [0.0]
            frames.append(frame)
            t0 = rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                frames.pop()
                frames[-1][0] += rec[END] - t0
                rec[CHILD_S] = frame[0]
                open_.pop()
            if label_of is not None:
                rec[LABEL] = label_of(args, kwargs, result)
            return result

        return wrapper

    # --- installation -------------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of the traced modules everywhere they are
        bound.  Call ``uninstall`` to restore the originals."""
        suite = sys.modules["asphere.suite"]
        table_names = {fn: name for name, fn, _, _ in suite.FIXTURE_BATTERY_TABLE}

        def fixture_battery_label(fn):
            battery = table_names.get(fn, "projection-pipeline")

            def label(args, kwargs, result):
                control = "/negative-control" if kwargs.get("perturb") else ""
                return f"{args[0].presentation.name}/{battery}{control}"

            return label

        def result_label(args, kwargs, result):
            return getattr(result, "name", None)  # battery_xmod returns a list

        wrappers = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"asphere.{short}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                if not _is_span(name):
                    wrappers[obj] = self._wrap_hot(name, obj)
                elif short == "xmod" and attr.startswith("check_"):
                    wrappers[obj] = self._wrap_span(name, obj, fixture_battery_label(obj))
                elif short == "suite" and attr.startswith("battery_"):
                    wrappers[obj] = self._wrap_span(name, obj, result_label)
                else:
                    wrappers[obj] = self._wrap_span(name, obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "asphere" or mod_name.startswith("asphere.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        table = suite.FIXTURE_BATTERY_TABLE
        self._patches.append((suite, "FIXTURE_BATTERY_TABLE", table))
        suite.FIXTURE_BATTERY_TABLE = tuple(
            (name, wrappers.get(fn, fn), default, control) for name, fn, default, control in table
        )

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # --- derived figures ----------------------------------------------------------

    def calls(self, fn: str, under: str | None = None) -> int:
        """Calls of a function; for a hot one, optionally only those whose
        nearest enclosing span is ``under``."""
        if _is_span(fn):
            return sum(s[NAME] == fn for s in self.spans)
        return sum(
            rec[0]
            for (span, name), rec in self.hot.items()
            if name == fn and (under is None or span == under)
        )

    def seconds(self, fn: str) -> float:
        """Inclusive time of a function: summed span durations for a span
        function, accumulated outermost-call time for a hot one."""
        if _is_span(fn):
            return sum(s[END] - s[START] for s in self.spans if s[NAME] == fn)
        return sum(rec[1] for (_, name), rec in self.hot.items() if name == fn)

    def span_self_seconds(self, fn: str) -> float:
        return sum(s[END] - s[START] - s[CHILD_S] for s in self.spans if s[NAME] == fn)

    def _has_ancestor(self, span: list, name: str) -> bool:
        parent = span[PARENT]
        while parent is not None:
            if self.spans[parent][NAME] == name:
                return True
            parent = self.spans[parent][PARENT]
        return False

    def seconds_within(self, fn: str, ancestor: str) -> float:
        return sum(
            s[END] - s[START]
            for s in self.spans
            if s[NAME] == fn and self._has_ancestor(s, ancestor)
        )

    def battery_seconds(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for s in self.spans:
            if s[LABEL] is not None:
                out[s[LABEL]] = out.get(s[LABEL], 0.0) + s[END] - s[START]
        return out

    def to_json(self) -> dict:
        return {
            "spans": [
                {
                    "name": s[NAME],
                    "label": s[LABEL],
                    "start": s[START],
                    "end": s[END],
                    "parent": s[PARENT],
                    "self_s": s[END] - s[START] - s[CHILD_S],
                }
                for s in self.spans
            ],
            "hot": [
                {"span": span, "fn": fn, "calls": rec[0], "s": rec[1], "self_s": rec[2]}
                for (span, fn), rec in sorted(self.hot.items())
            ],
        }


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced pass, named as in BENCHMARK.json.
    Times include the tracing overhead."""
    t = tracer
    search_s = t.seconds(SEARCH)
    expanded = t.calls("peiffer.legal_moves", under=SEARCH)
    generated = t.calls("peiffer.apply_move", under=SEARCH)
    multiply_calls = t.calls("words.multiply")
    m = {
        "peiffer.search.calls": t.calls(SEARCH),
        "peiffer.search.s": search_s,
        "peiffer.search.self_s": t.span_self_seconds(SEARCH),
        "peiffer.expanded": expanded,
        "peiffer.generated": generated,
        "peiffer.generated_per_expanded": generated / expanded if expanded else 0.0,
        "peiffer.expanded_per_s": expanded / search_s if search_s else 0.0,
        "peiffer.generated_per_s": generated / search_s if search_s else 0.0,
        "words.multiply.ns_per_call": 1e9 * t.seconds("words.multiply") / multiply_calls
        if multiply_calls
        else 0.0,
        "xmod.laws.s": sum(
            s[END] - s[START]
            for s in t.spans
            if s[NAME].startswith("xmod.check_") and s[NAME] != "xmod.check_projection"
        ),
        "xmod.projection.search_s": t.seconds_within(SEARCH, "xmod.check_projection"),
    }
    for fn in ("apply_move", "legal_moves", "dynamic_insert_pool", "scramble", "verify_certificate"):
        m[f"peiffer.{fn}.s"] = t.seconds(f"peiffer.{fn}")
    for fn in ("words.multiply", "words.conjugate", "words.reduce", "presentations.retract", "presentations.coset_table"):
        m[f"{fn}.calls"] = t.calls(fn)
        m[f"{fn}.s"] = t.seconds(fn)
    for fn in (
        "xmod.project_identity_sequence",
        "relmod.module_image",
        "relmod.is_zero",
        "actions.tensor_product",
        "actions.dominion",
        "actions.weak_dominion_membership",
    ):
        m[f"{fn}.s"] = t.seconds(fn)
    for label, seconds in t.battery_seconds().items():
        m[f"suite.battery.{label.replace('/', '.')}.s"] = seconds
    return m
