"""Relation-module bookkeeping over pluggable word-problem oracles.

Elements are finite integer combinations of basis pairs (relator name, coset
representative).  The image of a Y-sequence adds one basis element per
symbol regardless of its sign; the group-ring action relabels coset keys by
w^-1 · u.  Every oracle gives each word over its own alphabet (an oracle of
another presentation over it decides a quotient) two normal forms: canon
proves equality, coarse refutes it.  They coincide for the exact oracles of
the free group and of a finite quotient; modulo the relator lattice only
refutation is possible, so equality and the zero test are three-valued.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Hashable, Iterable, Sequence

from .partial import EXHAUSTED, Tri
from .peiffer import YSequence
from .presentations import GroupPresentation, coset_table
from .words import Alphabet, AlphabetError, FreeWord, abelianize, invert, multiply


class GroupOracle:
    """Two normal forms of a word: ``canon`` is one word per group element,
    so equal forms prove equality; ``coarse`` is a key shared by any two
    words that may be equal, so different keys refute equality."""

    alphabet: Alphabet

    def canon(self, w: FreeWord) -> FreeWord:
        raise NotImplementedError

    def coarse(self, w: FreeWord) -> Hashable:
        raise NotImplementedError

    def equal(self, u: FreeWord, v: FreeWord) -> Tri:
        if self.canon(u) == self.canon(v):
            return Tri.YES
        return Tri.NO if self.coarse(u) != self.coarse(v) else Tri.UNKNOWN


def _require_alphabet(oracle: GroupOracle, *alphabets: Alphabet) -> None:
    for a in alphabets:
        if a is not oracle.alphabet:
            raise AlphabetError(f"word over {a.generators}, oracle {oracle.alphabet.generators}")


@dataclass(frozen=True)
class FreeOracle(GroupOracle):
    """Equality in the free group itself: exact, canonical form is the
    reduced word."""

    alphabet: Alphabet

    def canon(self, w: FreeWord) -> FreeWord:
        _require_alphabet(self, w.alphabet)
        return w

    coarse = canon


class QuotientExhausted(ValueError):
    """The coset enumeration ran out of budget before the quotient closed."""


class CosetOracle(GroupOracle):
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

    def canon(self, w: FreeWord) -> FreeWord:
        return self._reps[self._table.trace(w)]

    coarse = canon


class _IntLattice:
    """Integer row span with echelon basis; gives canonical residues."""

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

    def residue(self, vec: Sequence[int]) -> tuple[int, ...]:
        """The canonical representative of vec modulo the lattice: pivot by
        pivot in column order, the entry is reduced into [0, p), or (p, 0]
        for a negative pivot entry p.  The rows are in echelon form, so two
        vectors share a residue exactly when their difference is a member."""
        v = list(vec)
        for piv in sorted(self.rows):
            row = self.rows[piv]
            q = v[piv] // row[piv]
            v = [w - q * r for r, w in zip(row, v)]
        return tuple(v)

    def member(self, vec: Sequence[int]) -> bool:
        return not any(self.residue(vec))


class AbelianizationOracle(GroupOracle):
    """Refutation-only: two words cannot be equal in the quotient when their
    abelianized difference lies outside the integer span of the relator
    abelianizations, that is, when their residues modulo that span differ.
    Never answers YES for distinct words."""

    def __init__(self, gp: GroupPresentation):
        self.alphabet = gp.alphabet
        self._lattice = _IntLattice()
        for _, r in gp.relators:
            self._lattice.add(abelianize(r))

    def canon(self, w: FreeWord) -> FreeWord:
        _require_alphabet(self, w.alphabet)
        return w

    def coarse(self, w: FreeWord) -> tuple[int, ...]:
        _require_alphabet(self, w.alphabet)
        return self._lattice.residue(abelianize(w))


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

    Coefficients summed per relator and canonical form merge the keys the
    oracle proves equal; the element is zero exactly when every such sum
    vanishes.  Keys sharing a coarse key may still be equal, so the nonzero
    sums are totalled per relator and coarse key: a nonzero total is certain,
    while nonzero sums with a zero total might still cancel.
    """
    exact: dict[tuple[str, FreeWord], int] = {}
    for (rel, w), c in e.terms:
        _require_alphabet(oracle, w.alphabet)
        key = rel, oracle.canon(w)
        exact[key] = exact.get(key, 0) + c
    totals: dict[tuple[str, Hashable], int] = {}
    for (rel, w), c in exact.items():
        if c:
            key = rel, oracle.coarse(w)
            totals[key] = totals.get(key, 0) + c
    if any(totals.values()):
        return Tri.NO
    return Tri.UNKNOWN if totals else Tri.YES
