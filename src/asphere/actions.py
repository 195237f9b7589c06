"""Finite monoids, their actions, tensor products, and dominions.

Monoids are given by multiplication tables over {0..n-1}.  The tensor
product of a right action and a left action over a common submonoid is the
partition of the product set generated by (a·u, b) ~ (a, u·b); dominion
membership is decided through that partition (two homomorphisms agreeing on
the submonoid must agree exactly on the elements with d⊗1 = 1⊗d).  The weak
dominion probe goes through the universal enveloping group and is budgeted:
it may answer UNKNOWN.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

from .partial import EXHAUSTED, Tri
from .presentations import (
    GroupPresentation,
    MonoidPresentation,
    UnionFind,
    coset_table,
    universal_group_presentation,
)
from .words import Alphabet, FreeWord, MonoidWord, letter


class MonoidError(ValueError):
    pass


class ActionError(ValueError):
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
            if len(row) != n or any(not 0 <= x < n for x in row):
                raise MonoidError("table must be square over {0..n-1}")
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


def _check_right_action(table: Sequence[Sequence[int]], size: int, u: Submonoid) -> None:
    parent = u.parent
    for x in range(size):
        if table[x][parent.identity] != x:
            raise ActionError(f"right action: {x}·1 != {x}")
        for a in u.elements:
            for b in u.elements:
                if table[table[x][a]][b] != table[x][parent.mul(a, b)]:
                    raise ActionError(f"right action not associative at ({x},{a},{b})")


def _check_left_action(table: Sequence[Sequence[int]], size: int, u: Submonoid) -> None:
    parent = u.parent
    for x in range(size):
        if table[parent.identity][x] != x:
            raise ActionError(f"left action: 1·{x} != {x}")
    for a in u.elements:
        for b in u.elements:
            ab = parent.mul(a, b)
            for x in range(size):
                if table[a][table[b][x]] != table[ab][x]:
                    raise ActionError(f"left action not associative at ({a},{b},{x})")


@dataclass(frozen=True)
class TensorPartition:
    """Partition of A x B; classes carry dense ids ordered by their minimal
    pair index, so the representation is independent of construction order.
    """

    a_size: int
    b_size: int
    class_of: tuple[int, ...]
    num_classes: int

    def class_id(self, a: int, b: int) -> int:
        if not (0 <= a < self.a_size and 0 <= b < self.b_size):
            raise IndexError(f"pair ({a},{b}) outside {self.a_size}x{self.b_size}")
        return self.class_of[a * self.b_size + b]

    def classes(self) -> list[list[tuple[int, int]]]:
        out: list[list[tuple[int, int]]] = [[] for _ in range(self.num_classes)]
        for a in range(self.a_size):
            for b in range(self.b_size):
                out[self.class_id(a, b)].append((a, b))
        return out


def _canonical_partition(a_size: int, b_size: int, rep_of) -> TensorPartition:
    reps = [rep_of(i) for i in range(a_size * b_size)]
    ids: dict[int, int] = {}
    labels = []
    for i, r in enumerate(reps):
        if r not in ids:
            ids[r] = len(ids)
        labels.append(ids[r])
    return TensorPartition(a_size, b_size, tuple(labels), len(ids))


def tensor_product(
    a_right: Sequence[Sequence[int]],
    b_left: Sequence[Sequence[int]],
    u: Submonoid,
) -> TensorPartition:
    """Union-find closure of the relation (a·u, b) ~ (a, u·b).

    ``a_right[a][s]`` and ``b_left[s][b]`` are indexed by the parent monoid;
    only the columns of the submonoid are consulted.
    """
    a_size, b_size = len(a_right), len(b_left[0]) if b_left else 0
    _check_right_action(a_right, a_size, u)
    _check_left_action(b_left, b_size, u)
    uf = UnionFind(a_size * b_size)
    for a in range(a_size):
        for b in range(b_size):
            for s in u.sorted_elements:
                uf.union(a_right[a][s] * b_size + b, a * b_size + b_left[s][b])
    return _canonical_partition(a_size, b_size, uf.find)


def tensor_product_naive(
    a_right: Sequence[Sequence[int]],
    b_left: Sequence[Sequence[int]],
    u: Submonoid,
) -> TensorPartition:
    """Independent closure by repeated scanning; cross-checks tensor_product."""
    a_size, b_size = len(a_right), len(b_left[0]) if b_left else 0
    _check_right_action(a_right, a_size, u)
    _check_left_action(b_left, b_size, u)
    label = list(range(a_size * b_size))
    changed = True
    while changed:
        changed = False
        for a in range(a_size):
            for b in range(b_size):
                for s in u.sorted_elements:
                    p = label[a_right[a][s] * b_size + b]
                    q = label[a * b_size + b_left[s][b]]
                    if p != q:
                        lo, hi = min(p, q), max(p, q)
                        for i, l in enumerate(label):
                            if l == hi:
                                label[i] = lo
                        changed = True
    return _canonical_partition(a_size, b_size, lambda i: label[i])


def same_class(t: TensorPartition, p: tuple[int, int], q: tuple[int, int]) -> bool:
    return t.class_id(*p) == t.class_id(*q)


def multiplication_tensor(u: Submonoid) -> TensorPartition:
    """S ⊗_U S for S = ``u.parent`` acting on itself from both sides."""
    s = u.parent
    return tensor_product(s.table, s.table, u)


def dominion(u: Submonoid) -> frozenset[int]:
    s = u.parent
    t = multiplication_tensor(u)
    e = s.identity
    dom = frozenset(d for d in range(s.size) if same_class(t, (d, e), (e, d)))
    if not u.elements <= dom:
        raise AssertionError("dominion does not contain the submonoid")
    for x in dom:
        for y in dom:
            if s.mul(x, y) not in dom:
                raise AssertionError("dominion is not closed under the table")
    return dom


def is_inverse_monoid(u: Submonoid | FiniteMonoid) -> bool:
    """True when every element has a unique generalized inverse; a
    submonoid is tested in place, under its parent's table."""
    if isinstance(u, Submonoid):
        elems, mul = u.sorted_elements, u.parent.mul
    else:
        elems, mul = range(u.size), u.mul
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
            lhs = MonoidWord(alphabet, (letter(x, 1), letter(y, 1)))
            rhs = MonoidWord(alphabet, (letter(s.mul(x, y), 1),))
            relations.append((lhs, rhs))
    return MonoidPresentation("table", alphabet, tuple(relations))


def enveloping_group_presentation(s: FiniteMonoid) -> GroupPresentation:
    return universal_group_presentation(table_monoid_presentation(s))


def weak_dominion_membership(u: Submonoid, d: int, budget: int = 1000) -> Tri:
    """Is the image of d inside the subgroup generated by the image of u in
    the enveloping group of ``u.parent``?  Budgeted: UNKNOWN when the
    enumeration does not close.
    """
    s = u.parent
    if not 0 <= d < s.size:
        raise MonoidError(f"element {d} out of range")
    gp = enveloping_group_presentation(s)
    gens = [FreeWord(gp.alphabet, (letter(x, 1),)) for x in u.sorted_elements]
    table = coset_table(gp, gens, budget)
    if table is EXHAUSTED:
        return Tri.UNKNOWN
    target = table.trace(FreeWord(gp.alphabet, (letter(d, 1),)))
    return Tri.YES if target == 0 else Tri.NO
