"""Built-in fixture corpus: presentation files and small monoid tables.

The presentation fixtures live as ``.pres`` files next to this module and
can be loaded from an alternative directory, so the suite can be pointed at
modified presentations.  The monoid corpus is built by the functions here;
they are its only source.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path

from .actions import FiniteMonoid
from .presentations import GroupPresentation, parse
from .xmod import ReducibleFixture

DEFAULT_DIR = Path(__file__).parent / "fixtures"

PEIFFER_NAMES = ("c3", "sym3", "klein", "ab2", "lot3")
REDUCIBLE_NAMES = ("lot3", "lot4", "lot3b")
PRESENTATION_FILES = tuple(dict.fromkeys(PEIFFER_NAMES + REDUCIBLE_NAMES))


class FixtureError(ValueError):
    pass


# --- monoid corpus builders ---------------------------------------------------


def cyclic_monoid(index: int, period: int) -> FiniteMonoid:
    """The monoid generated by one element with a^(index+period) = a^index."""
    size = index + period

    def fold(e: int) -> int:
        while e >= size:
            e -= period
        return e

    table = tuple(tuple(fold(x + y) for y in range(size)) for x in range(size))
    return FiniteMonoid(table)


def cyclic_group(n: int) -> FiniteMonoid:
    return cyclic_monoid(0, n)


def klein_four() -> FiniteMonoid:
    table = tuple(tuple(x ^ y for y in range(4)) for x in range(4))
    return FiniteMonoid(table)


def chain_semilattice(n: int) -> FiniteMonoid:
    """Meet of a chain, identity on top."""
    table = tuple(tuple(max(x, y) for y in range(n)) for x in range(n))
    return FiniteMonoid(table)


def diamond_semilattice() -> FiniteMonoid:
    """1 above two incomparable idempotents above 0."""
    meet = [
        [0, 1, 2, 3],
        [1, 1, 3, 3],
        [2, 3, 2, 3],
        [3, 3, 3, 3],
    ]
    return FiniteMonoid(meet)


def _identity_adjoined(size: int, product) -> FiniteMonoid:
    """Table on 0..size-1 with 0 the adjoined identity and ``product`` on the
    rest."""
    table = tuple(
        tuple(y if x == 0 else x if y == 0 else product(x, y) for y in range(size))
        for x in range(size)
    )
    return FiniteMonoid(table)


def null_monoid_plus_one(k: int) -> FiniteMonoid:
    """k nilpotents with every product the absorbing zero, identity adjoined.
    Elements: 0 = identity, 1..k nilpotents, k+1 = zero."""
    return _identity_adjoined(k + 2, lambda x, y: k + 1)


def left_zero_plus_one(k: int) -> FiniteMonoid:
    """x·y = x on k elements, identity adjoined."""
    return _identity_adjoined(k + 1, lambda x, y: x)


def right_zero_plus_one(k: int) -> FiniteMonoid:
    """x·y = y on k elements, identity adjoined."""
    return _identity_adjoined(k + 1, lambda x, y: y)


def transformations_of_two_points() -> FiniteMonoid:
    """All maps {0,1} -> {0,1} under left-to-right composition."""
    maps = [(0, 1), (1, 0), (0, 0), (1, 1)]  # id, swap, const0, const1
    index = {m: i for i, m in enumerate(maps)}
    table = tuple(
        tuple(index[(g[f[0]], g[f[1]])] for g in maps) for f in maps
    )
    return FiniteMonoid(table)


def monoid_corpus() -> dict[str, FiniteMonoid]:
    """Named tables of size <= 5, in a fixed order."""
    corpus: dict[str, FiniteMonoid] = {}
    for n in range(1, 6):
        corpus[f"z{n}"] = cyclic_group(n)
    corpus["v4"] = klein_four()
    for i, p in ((1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1)):
        corpus[f"cyc_{i}_{p}"] = cyclic_monoid(i, p)
    for n in (3, 4, 5):
        corpus[f"chain{n}"] = chain_semilattice(n)
    corpus["diamond"] = diamond_semilattice()
    for k in (1, 2, 3):
        corpus[f"null{k}"] = null_monoid_plus_one(k)
    corpus["leftzero2"] = left_zero_plus_one(2)
    corpus["leftzero3"] = left_zero_plus_one(3)
    corpus["rightzero2"] = right_zero_plus_one(2)
    corpus["t2"] = transformations_of_two_points()
    return corpus


def monoid_to_json(m: FiniteMonoid) -> dict:
    return {"size": m.size, "identity": m.identity, "table": [list(row) for row in m.table]}


def monoid_from_json(data: dict) -> FiniteMonoid:
    table = data.get("table") if isinstance(data, dict) else None
    # FiniteMonoid checks the entries
    if not isinstance(table, list) or not all(isinstance(row, list) for row in table):
        raise FixtureError(f'a monoid is {{"table": [[int, ...], ...]}}, got {data!r}')
    m = FiniteMonoid(table)
    for key, value in (("size", m.size), ("identity", m.identity)):
        declared = data.get(key, value)
        if type(declared) is not int or declared != value:
            raise FixtureError(f"declared {key} does not match the table")
    return m


# --- loading -------------------------------------------------------------------


@dataclass(frozen=True)
class FixtureSet:
    presentations: dict[str, GroupPresentation]
    monoids: dict[str, FiniteMonoid]

    def peiffer_presentations(self) -> list[GroupPresentation]:
        return [self.presentations[name] for name in PEIFFER_NAMES]

    def reducible_fixtures(self) -> list[ReducibleFixture]:
        """A new list of the fixtures, solved once per set."""
        return list(self._reducible)

    @functools.cached_property
    def _reducible(self) -> tuple[ReducibleFixture, ...]:
        gps = (self.presentations[name] for name in REDUCIBLE_NAMES)
        return tuple(map(ReducibleFixture.from_presentation, gps))


def load_fixtures(directory: str | Path | None = None) -> FixtureSet:
    """The ``.pres`` files of ``directory`` and the built corpus, by name."""
    base = Path(directory) if directory is not None else DEFAULT_DIR
    presentations = {}
    for name in PRESENTATION_FILES:
        path = base / f"{name}.pres"
        if not path.exists():
            raise FixtureError(f"missing fixture file {path}")
        gp = parse(path.read_text())
        if not isinstance(gp, GroupPresentation):
            raise FixtureError(f"{path} is not a group presentation")
        presentations[name] = gp
    return FixtureSet(presentations, dict(sorted(monoid_corpus().items())))
