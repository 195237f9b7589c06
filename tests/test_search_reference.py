"""The trivialization search against a reference that builds every child.

``reference_search`` is the deepening search written plainly: every
expansion builds the dynamic insert pool and every child, and the parity and
depth bound is applied on entry.  The search in ``peiffer`` tests each child
in its loop and enters only those the bound admits, and it builds the insert
pool and the insert children only when an insert child, two symbols longer
than its parent, fits the limit.  Both start deepening at
``length_lower_bound`` of the root.  They must give the same certificate (or
EXHAUSTED) and call ``legal_moves`` equally often, since an expansion is
one call and spends one unit of budget; the search may call ``apply_move``
less often, never more, since it builds a subset of the children.  A root
whose adjacent inverse symbols cancel it completely is the exception: the
search answers it in closed form, with the reference's outcome and without
one ``legal_moves``, ``apply_move`` or ``dynamic_insert_pool`` call.

A second reference run starts at n // 2 instead.  The limits between n // 2
and the bound cannot succeed, so starting at the bound only leaves more
budget for the rest: wherever the n // 2 run finds a certificate, the search
must find the same one.
"""
import random
from collections import Counter

import pytest

from asphere import peiffer
from asphere.fixtures import load_fixtures
from asphere.partial import EXHAUSTED
from asphere.peiffer import Certificate, YSequence, YSymbol, certificate_to_json
from asphere.words import empty_word, word_from_text


class _OutOfBudget(Exception):
    pass


def reference_search(d, node_budget=50_000, depth_limit=None, root_bound=True):
    if depth_limit is None:
        depth_limit = 2 * len(d.symbols)
    pool_spec = "dynamic(cap=8)"
    if not d.symbols:
        return Certificate((), pool_spec=pool_spec)
    remaining = [node_budget]

    def min_deletes(seq):
        n = len(seq.symbols)
        return n // 2 if n % 2 == 0 else depth_limit + 1

    def dfs(seq, g, limit, visited, trail):
        if not seq.symbols:
            return list(trail)
        if g + min_deletes(seq) > limit:
            return None
        seen = visited.get(seq.symbols)
        if seen is not None and seen <= g:
            return None
        visited[seq.symbols] = g
        remaining[0] -= 1
        if remaining[0] < 0:
            raise _OutOfBudget
        for m in peiffer.legal_moves(seq, peiffer.dynamic_insert_pool(seq)):
            child = peiffer.apply_move(seq, m)
            trail.append(m)
            found = dfs(child, g + 1, limit, visited, trail)
            if found is not None:
                return found
            trail.pop()
        return None

    try:
        first = min_deletes(d)
        if root_bound:
            first = max(first, peiffer.length_lower_bound(d))
        for limit in range(first, depth_limit + 1):
            found = dfs(d, 0, limit, {}, [])
            if found is not None:
                return Certificate(tuple(found), pool_spec=pool_spec)
    except _OutOfBudget:
        pass
    return EXHAUSTED


def cancels(d):
    """Whether adjacent inverse symbols cancel d to the empty sequence."""
    stack = []
    for s in d.symbols:
        if stack and s == stack[-1].inverse():
            stack.pop()
        else:
            stack.append(s)
    return not stack


def _corpus():
    """120 criterion-2 scrambles (five Peiffer fixtures, k in 1..6, depth 2k),
    each at the default budget and at 6 expansions, then the c3 identity
    (r,1,+1)(r,a,-1), which no certificate trivializes, at a small budget."""
    fixtures = load_fixtures()
    presentations = fixtures.peiffer_presentations()
    rng = random.Random("reference-search")
    scrambles = []
    for _ in range(120):
        gp = presentations[rng.randrange(len(presentations))]
        k = rng.randrange(1, 7)
        d, _ = peiffer.scramble(gp, seed=rng.randrange(1 << 30), k=k)
        scrambles.append((d, 2 * k))
    out = [(d, budget, depth) for budget in (50_000, 6) for d, depth in scrambles]
    c3 = fixtures.presentations["c3"]
    planted = YSequence(
        c3,
        (
            YSymbol("r", empty_word(c3.alphabet), 1),
            YSymbol("r", word_from_text(c3.alphabet, "a"), -1),
        ),
    )
    out.append((planted, 40, None))
    return out


# (legal_moves, apply_move) calls over the whole corpus, as the reference
# search makes them
REFERENCE_TOTALS = (946, 24349)
# (legal_moves, apply_move, dynamic_insert_pool) calls over the whole corpus,
# as the search makes them: the expansions of the roots that do not cancel
# completely, with the insert pool built in 29 of them
SEARCH_TOTALS = (616, 2069, 29)
# instances (all at 6 expansions) that the n // 2 start leaves EXHAUSTED and
# the bound's start solves
GAINED = 14
# instances whose root cancels completely, which the search answers in
# closed form: 69 scrambles, each at both budgets
CLOSED = 138


@pytest.fixture
def counts(monkeypatch):
    calls = Counter()
    for name in ("legal_moves", "apply_move", "dynamic_insert_pool"):
        fn = getattr(peiffer, name)

        def counted(*args, _fn=fn, _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(peiffer, name, counted)
    return calls


def _outcome(verdict):
    return "EXHAUSTED" if verdict is EXHAUSTED else certificate_to_json(verdict)


def test_search_matches_the_reference(counts):
    totals = Counter()
    fast_totals = Counter()
    gained = 0
    closed = 0
    for i, (d, budget, depth) in enumerate(_corpus()):
        counts.clear()
        fast = _outcome(peiffer.search_trivialization(d, node_budget=budget, depth_limit=depth))
        fast_calls = Counter(counts)
        counts.clear()
        slow = _outcome(reference_search(d, node_budget=budget, depth_limit=depth))
        assert fast == slow, f"instance {i}"
        if cancels(d):
            assert not fast_calls, f"instance {i}"
            closed += 1
        else:
            assert fast_calls["legal_moves"] == counts["legal_moves"], f"instance {i}"
            assert fast_calls["apply_move"] <= counts["apply_move"], f"instance {i}"
        totals.update(counts)
        fast_totals.update(fast_calls)
        half = _outcome(
            reference_search(d, node_budget=budget, depth_limit=depth, root_bound=False)
        )
        if half != "EXHAUSTED":
            assert fast == half, f"instance {i}"
        elif fast != "EXHAUSTED":
            gained += 1
    assert slow == "EXHAUSTED"  # the planted c3 identity
    assert (totals["legal_moves"], totals["apply_move"]) == REFERENCE_TOTALS
    assert totals["dynamic_insert_pool"] == totals["legal_moves"]
    assert (
        fast_totals["legal_moves"],
        fast_totals["apply_move"],
        fast_totals["dynamic_insert_pool"],
    ) == SEARCH_TOTALS
    assert closed == CLOSED
    assert gained == GAINED

