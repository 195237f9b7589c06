"""Finite monoids, the tensor product S ⊗_U S, and dominions.

Monoids are given by multiplication tables over {0..n-1}.  For a submonoid
U of S, S ⊗_U S is the partition of S × S generated by (a·s, b) ~ (a, s·b)
over s in U; by Isbell's zigzag theorem, d lies in the dominion of U exactly
when d⊗1 = 1⊗d.  The weak dominion WDom(U) goes through the universal
enveloping group and is budgeted: it may be EXHAUSTED.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .partial import EXHAUSTED
from .presentations import (
    GroupPresentation,
    MonoidPresentation,
    UnionFind,
    coset_table,
    universal_group_presentation,
)
from .words import Alphabet, FreeWord, letter


class MonoidError(ValueError):
    pass


@dataclass(frozen=True)
class FiniteMonoid:
    """A monoid on {0..n-1} given by its multiplication table, which fixes
    the identity: the e with e·x = x = x·e for every x."""

    table: tuple[tuple[int, ...], ...]
    identity: int = field(init=False)

    def __post_init__(self):
        table = tuple(tuple(row) for row in self.table)
        object.__setattr__(self, "table", table)
        n = len(table)
        for row in table:
            # type(x) is int: a bool is an int to isinstance and compares as one
            if len(row) != n or any(type(x) is not int or not 0 <= x < n for x in row):
                raise MonoidError("table must be square over the ints {0..n-1}")
        identities = [e for e in range(n) if all(table[e][x] == x == table[x][e] for x in range(n))]
        if not identities:
            raise MonoidError("no identity element")
        object.__setattr__(self, "identity", identities[0])
        for x in range(n):
            for y in range(n):
                xy = table[x][y]
                for z in range(n):
                    if table[xy][z] != table[x][table[y][z]]:
                        raise MonoidError(f"not associative at ({x},{y},{z})")

    @property
    def size(self) -> int:
        return len(self.table)

    def mul(self, x: int, y: int) -> int:
        return self.table[x][y]


@dataclass(frozen=True)
class Submonoid:
    parent: FiniteMonoid
    elements: frozenset[int]

    def __post_init__(self):
        if not isinstance(self.elements, frozenset):
            object.__setattr__(self, "elements", frozenset(self.elements))
        if any(type(x) is not int for x in self.elements):
            raise MonoidError(f"elements must be ints, got {set(self.elements)}")
        for x in sorted(self.elements):
            if not 0 <= x < self.parent.size:
                raise MonoidError(f"element {x} out of range")
        if self.parent.identity not in self.elements:
            raise MonoidError("submonoid must contain the identity")
        for x in self.elements:
            for y in self.elements:
                if self.parent.mul(x, y) not in self.elements:
                    raise MonoidError(f"not closed: {x}*{y} escapes")

    @property
    def sorted_elements(self) -> tuple[int, ...]:
        return tuple(sorted(self.elements))


def all_submonoids(m: FiniteMonoid) -> list[Submonoid]:
    """Every subset containing the identity and closed under the table."""
    rest = [x for x in range(m.size) if x != m.identity]
    found = []
    for k in range(len(rest) + 1):
        for combo in itertools.combinations(rest, k):
            elems = frozenset((m.identity, *combo))
            if all(m.mul(x, y) in elems for x in elems for y in elems):
                found.append(Submonoid(m, elems))
    return found


@dataclass(frozen=True)
class TensorPartition:
    """Partition of S × S; classes carry dense ids ordered by their minimal
    pair index, so the representation is independent of construction order.
    """

    size: int
    class_of: tuple[int, ...]
    num_classes: int

    def class_id(self, a: int, b: int) -> int:
        if not (0 <= a < self.size and 0 <= b < self.size):
            raise IndexError(f"pair ({a},{b}) outside {self.size}x{self.size}")
        return self.class_of[a * self.size + b]

    def classes(self) -> list[list[tuple[int, int]]]:
        out: list[list[tuple[int, int]]] = [[] for _ in range(self.num_classes)]
        for a in range(self.size):
            for b in range(self.size):
                out[self.class_id(a, b)].append((a, b))
        return out


def _canonical_partition(n: int, rep_of) -> TensorPartition:
    reps = [rep_of(i) for i in range(n * n)]
    ids: dict[int, int] = {}
    labels = []
    for i, r in enumerate(reps):
        if r not in ids:
            ids[r] = len(ids)
        labels.append(ids[r])
    return TensorPartition(n, tuple(labels), len(ids))


def tensor_product(u: Submonoid) -> TensorPartition:
    """S ⊗_U S for S = ``u.parent``: union-find closure of the relation
    (a·s, b) ~ (a, s·b) over s in U."""
    table, n, elems = u.parent.table, u.parent.size, u.sorted_elements
    uf = UnionFind(n * n)
    for a in range(n):
        for b in range(n):
            for s in elems:
                uf.union(table[a][s] * n + b, a * n + table[s][b])
    return _canonical_partition(n, uf.find)


def tensor_product_naive(u: Submonoid) -> TensorPartition:
    """Independent closure by repeated scanning; cross-checks tensor_product."""
    table, n, elems = u.parent.table, u.parent.size, u.sorted_elements
    label = list(range(n * n))
    changed = True
    while changed:
        changed = False
        for a in range(n):
            for b in range(n):
                for s in elems:
                    p = label[table[a][s] * n + b]
                    q = label[a * n + table[s][b]]
                    if p != q:
                        lo, hi = min(p, q), max(p, q)
                        for i, l in enumerate(label):
                            if l == hi:
                                label[i] = lo
                        changed = True
    return _canonical_partition(n, lambda i: label[i])


def dominion(u: Submonoid) -> frozenset[int]:
    s = u.parent
    t = tensor_product(u)
    e = s.identity
    dom = frozenset(d for d in range(s.size) if t.class_id(d, e) == t.class_id(e, d))
    if not u.elements <= dom:
        raise AssertionError("dominion does not contain the submonoid")
    for x in dom:
        for y in dom:
            if s.mul(x, y) not in dom:
                raise AssertionError("dominion is not closed under the table")
    return dom


def is_inverse_monoid(u: Submonoid) -> bool:
    """True when every element of ``u`` has a unique generalized inverse in
    ``u``, under its parent's table."""
    elems, mul = u.sorted_elements, u.parent.mul
    return all(
        sum(mul(mul(x, y), x) == x and mul(mul(y, x), y) == y for y in elems) == 1
        for x in elems
    )


# --- weak dominion through the universal enveloping group --------------------


def table_monoid_presentation(s: FiniteMonoid) -> MonoidPresentation:
    """Monoid presentation with one generator m<i> per element and all n^2
    table relations (x·y, xy)."""
    alphabet = Alphabet(tuple(f"m{i}" for i in range(s.size)))
    relations = []
    for x in range(s.size):
        for y in range(s.size):
            lhs = FreeWord(alphabet, (letter(x, 1), letter(y, 1)))
            rhs = FreeWord(alphabet, (letter(s.mul(x, y), 1),))
            relations.append((lhs, rhs))
    return MonoidPresentation("table", alphabet, tuple(relations))


def enveloping_group_presentation(s: FiniteMonoid) -> GroupPresentation:
    return universal_group_presentation(table_monoid_presentation(s))


def weak_dominion(u: Submonoid, budget: int = 1000):
    """WDom(U) as a frozenset: every d whose image in the enveloping group
    of ``u.parent`` lies in the subgroup generated by the image of U.  One
    budgeted coset enumeration answers every d; EXHAUSTED when it does not
    close.
    """
    gp = enveloping_group_presentation(u.parent)
    gens = [FreeWord(gp.alphabet, (letter(x, 1),)) for x in u.sorted_elements]
    table = coset_table(gp, gens, budget)
    if table is EXHAUSTED:
        return EXHAUSTED
    return frozenset(d for d in range(u.parent.size) if table.step(0, letter(d, 1)) == 0)
