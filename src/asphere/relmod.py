"""Relation-module bookkeeping over pluggable word-problem oracles.

Elements are finite integer combinations of basis pairs (relator name, coset
representative).  The image of a Y-sequence adds one basis element per
symbol regardless of its sign; the group-ring action relabels coset keys by
w^-1 · u.  Every oracle canonicalizes every word over its own alphabet (an
oracle of another presentation over it decides a quotient).  Only equality
may be partial: exact in the free group or a finite quotient, refutation-only
modulo the relator lattice, so zero-testing is three-valued.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Protocol, Sequence

from .partial import EXHAUSTED, Tri
from .peiffer import YSequence
from .presentations import GroupPresentation, UnionFind, coset_table
from .words import Alphabet, AlphabetError, FreeWord, abelianize, invert, multiply


class GroupOracle(Protocol):
    alphabet: Alphabet

    def equal(self, u: FreeWord, v: FreeWord) -> Tri: ...

    def canon(self, w: FreeWord) -> FreeWord: ...


def _require_alphabet(oracle: GroupOracle, *alphabets: Alphabet) -> None:
    for a in alphabets:
        if a is not oracle.alphabet:
            raise AlphabetError(f"word over {a.generators}, oracle {oracle.alphabet.generators}")


@dataclass(frozen=True)
class FreeOracle:
    """Equality in the free group itself: exact, canonical form is the
    reduced word."""

    alphabet: Alphabet

    def equal(self, u: FreeWord, v: FreeWord) -> Tri:
        _require_alphabet(self, u.alphabet, v.alphabet)
        return Tri.YES if u == v else Tri.NO

    def canon(self, w: FreeWord) -> FreeWord:
        _require_alphabet(self, w.alphabet)
        return w


class QuotientExhausted(ValueError):
    """The coset enumeration ran out of budget before the quotient closed."""


class CosetOracle:
    """Equality in a finite quotient, decided by a completed coset table on
    the trivial subgroup.  Canonical forms are shortlex Schreier
    representatives.  Read-only after construction."""

    def __init__(self, gp: GroupPresentation, budget: int = 2000):
        table = coset_table(gp, (), budget)
        if table is EXHAUSTED:
            raise QuotientExhausted("quotient not shown finite within budget; oracle unavailable")
        self.alphabet = gp.alphabet
        self._table = table
        self._reps = table.representatives()

    def equal(self, u: FreeWord, v: FreeWord) -> Tri:
        return Tri.YES if self._table.trace(u) == self._table.trace(v) else Tri.NO

    def canon(self, w: FreeWord) -> FreeWord:
        return self._reps[self._table.trace(w)]


class _IntLattice:
    """Integer row span with echelon basis; supports membership tests."""

    def __init__(self):
        self.rows: dict[int, list[int]] = {}

    @staticmethod
    def _pivot(v: Sequence[int]) -> int | None:
        for i, x in enumerate(v):
            if x:
                return i
        return None

    def add(self, vec: Sequence[int]) -> None:
        v = list(vec)
        while (piv := self._pivot(v)) is not None:
            row = self.rows.get(piv)
            if row is None:
                self.rows[piv] = v
                return
            # Euclid on the pivot column by unimodular row steps: the kept row
            # ends with the gcd there, the incoming one with 0 and goes on down
            while v[piv]:
                q = row[piv] // v[piv]
                row, v = v, [r - q * w for r, w in zip(row, v)]
            self.rows[piv] = row

    def member(self, vec: Sequence[int]) -> bool:
        v = list(vec)
        while True:
            piv = self._pivot(v)
            if piv is None:
                return True
            row = self.rows.get(piv)
            if row is None or v[piv] % row[piv] != 0:
                return False
            q = v[piv] // row[piv]
            v = [w - q * r for r, w in zip(row, v)]


class AbelianizationOracle:
    """Refutation-only: two words cannot be equal in the quotient when their
    abelianized difference lies outside the integer span of the relator
    abelianizations.  Never answers YES for distinct words."""

    def __init__(self, gp: GroupPresentation):
        self.alphabet = gp.alphabet
        self._lattice = _IntLattice()
        for _, r in gp.relators:
            self._lattice.add(abelianize(r))

    def equal(self, u: FreeWord, v: FreeWord) -> Tri:
        _require_alphabet(self, u.alphabet, v.alphabet)
        if u == v:
            return Tri.YES
        diff = [a - b for a, b in zip(abelianize(u), abelianize(v))]
        return Tri.UNKNOWN if self._lattice.member(diff) else Tri.NO

    def canon(self, w: FreeWord) -> FreeWord:
        _require_alphabet(self, w.alphabet)
        return w


# --- elements -----------------------------------------------------------------


@dataclass(frozen=True)
class RelModElement:
    """Finite map (relator name, coset representative) -> nonzero integer,
    held as an order-free set of (key, coefficient) pairs."""

    terms: frozenset[tuple[tuple[str, FreeWord], int]]

    @classmethod
    def from_items(cls, items: Iterable[tuple[tuple[str, FreeWord], int]]) -> RelModElement:
        acc: dict[tuple[str, FreeWord], int] = {}
        for key, coeff in items:
            acc[key] = acc.get(key, 0) + coeff
        return cls(frozenset((key, c) for key, c in acc.items() if c))

    @classmethod
    def zero(cls) -> RelModElement:
        return cls(frozenset())

    @classmethod
    def basis(cls, rel: str, w: FreeWord, coeff: int = 1) -> RelModElement:
        return cls.from_items([((rel, w), coeff)])

    def add(self, other: RelModElement) -> RelModElement:
        # not a set union: a pair both sides hold must count twice
        return RelModElement.from_items(chain(self.terms, other.terms))

    def neg(self) -> RelModElement:
        return RelModElement(frozenset((key, -c) for key, c in self.terms))

    def subtract(self, other: RelModElement) -> RelModElement:
        return self.add(other.neg())


def module_image(d: YSequence, oracle: GroupOracle, signed: bool = False) -> RelModElement:
    """Image of a Y-sequence: one basis element (r, canon(u)) per symbol.

    The symbol's sign is dropped; the ``signed`` variant (off by default)
    sends it to the coefficient instead.
    """
    _require_alphabet(oracle, d.presentation.alphabet)
    return RelModElement.from_items(
        ((s.relator, oracle.canon(s.conjugator)), s.sign if signed else 1) for s in d.symbols
    )


def module_action(w: FreeWord, e: RelModElement, oracle: GroupOracle) -> RelModElement:
    """Relabel every coset key by canon(w^-1 · u); coefficients unchanged.

    The empty word acts as the identity and action by w then w^-1 restores
    the element; composition reverses order (act(w1, act(w2, e)) equals
    act(w2·w1, e)); a key over another alphabet than w's fails in multiply.
    """
    _require_alphabet(oracle, w.alphabet)
    w_inv = invert(w)
    return RelModElement.from_items(
        ((rel, oracle.canon(multiply(w_inv, u))), c) for (rel, u), c in e.terms
    )


def is_zero(e: RelModElement, oracle: GroupOracle) -> Tri:
    """Three-valued zero test under an oracle.

    Keys the oracle proves equal are merged; after merging, the element is
    zero exactly when every class sums to zero.  UNKNOWN answers block a
    definite zero only where merging could still cancel the residue.
    """
    by_rel: dict[str, list[tuple[FreeWord, int]]] = {}
    for (rel, w), c in e.terms:
        _require_alphabet(oracle, w.alphabet)
        by_rel.setdefault(rel, []).append((w, c))

    saw_unknown_residue = False
    for pairs in by_rel.values():
        n = len(pairs)
        # classes: keys the oracle proves equal.  linked: classes joined by an
        # UNKNOWN answer too; inside such a component further merging is
        # conceivable, so only its total is certain
        classes, linked = UnionFind(n), UnionFind(n)
        for i in range(n):
            for j in range(i + 1, n):
                answer = oracle.equal(pairs[i][0], pairs[j][0])
                if answer is Tri.YES:
                    classes.union(i, j)
                    linked.union(i, j)
                elif answer is Tri.UNKNOWN:
                    linked.union(i, j)

        sums: dict[int, int] = {}
        for i, (_, c) in enumerate(pairs):
            root = classes.find(i)
            sums[root] = sums.get(root, 0) + c

        # merging inside a component keeps its total, so a nonzero total is
        # certain; nonzero classes with a zero total might still cancel
        components: dict[int, list[int]] = {}
        for root, s in sums.items():
            components.setdefault(linked.find(root), []).append(s)
        for class_sums in components.values():
            if sum(class_sums):
                return Tri.NO
            if any(class_sums):
                saw_unknown_residue = True
    return Tri.UNKNOWN if saw_unknown_residue else Tri.YES
