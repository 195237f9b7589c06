"""Group and monoid presentations and their transforms.

Covers the presentation file grammar, the universal-group transform of a
monoid presentation, single-occurrence generator elimination (yielding a
retraction of free groups and the kernel/complement decomposition), labeled
oriented tree presentations, and a budgeted Todd-Coxeter coset enumeration.

File grammar (UTF-8 text, ``#`` starts a comment)::

    group <name>            |  monoid <name>
    gens <id> <id> ...
    rel <name> = <word>     |  rel <word> = <word>
    eliminate <id>          (optional, at most once, group files only)
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

from .partial import EXHAUSTED
from .words import (
    Alphabet,
    AlphabetError,
    FreeWord,
    _substitute,
    _substitution,
    embed,
    empty_word,
    generator,
    invert,
    letter,
    letter_column,
    letter_index,
    letter_sign,
    monoid_word_from_text,
    multiply,
    reduce,
    restrict,
    word_from_text,
    word_to_text,
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class NotReducibleError(ValueError):
    """The requested generator cannot be eliminated."""


class UnionFind:
    """Disjoint sets over 0..n-1 with path halving.  A union keeps the
    smaller root, so representatives never depend on the union order."""

    def __init__(self, n: int = 0):
        self.parent = list(range(n))

    def add(self) -> int:
        """A new singleton set; returns its element."""
        self.parent.append(len(self.parent))
        return len(self.parent) - 1

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of a and b; False when they were already one."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True


@dataclass(frozen=True)
class GroupPresentation:
    name: str
    alphabet: Alphabet
    relators: tuple[tuple[str, FreeWord], ...]
    eliminate: str | None = None  # optional `eliminate z` directive

    def __post_init__(self):
        # tuples of pairs however passed, so presentations hash and compare
        object.__setattr__(self, "relators", tuple((n, w) for n, w in self.relators))
        seen = set()
        for rel_name, word in self.relators:
            if rel_name in seen:
                raise ValueError(f"duplicate relator name {rel_name!r}")
            seen.add(rel_name)
            if word.alphabet is not self.alphabet:
                raise AlphabetError(f"relator {rel_name!r} is over the wrong alphabet")
            if word.is_identity:
                raise ValueError(f"relator {rel_name!r} is empty")
        if self.eliminate is not None and self.eliminate not in self.alphabet:
            raise AlphabetError(f"eliminate names unknown generator {self.eliminate!r}")
        # name -> relator, the names in order and (name, sign) -> r or r^-1,
        # built once; not fields, so equality and the hash ignore them
        # (peiffer reads _by_name and _signed directly)
        object.__setattr__(self, "_by_name", dict(self.relators))
        object.__setattr__(self, "_relator_names", tuple(self._by_name))
        signed = {}
        for rel_name, word in self.relators:
            signed[rel_name, 1], signed[rel_name, -1] = word, invert(word)
        object.__setattr__(self, "_signed", signed)

    @property
    def relator_names(self) -> tuple[str, ...]:
        return self._relator_names

    def relator(self, name: str) -> FreeWord:
        return self.signed_relator(name, 1)

    def signed_relator(self, name: str, sign: int) -> FreeWord:
        """The relator for sign +1, its inverse for sign -1."""
        try:
            return self._signed[name, sign]
        except KeyError:
            raise KeyError(f"no relator named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name


@dataclass(frozen=True)
class MonoidPresentation:
    name: str
    alphabet: Alphabet
    relations: tuple[tuple[FreeWord, FreeWord], ...]

    def __post_init__(self):
        object.__setattr__(self, "relations", tuple((lhs, rhs) for lhs, rhs in self.relations))
        for lhs, rhs in self.relations:
            if lhs.alphabet is not self.alphabet or rhs.alphabet is not self.alphabet:
                raise AlphabetError("relation is over the wrong alphabet")


@dataclass(frozen=True)
class Retraction:
    """Data of the homomorphism fixing every generator but z and sending z
    to its solved value; the kernel is the normal closure of the source
    relator, or equally of z · solved^-1.
    """

    big_alphabet: Alphabet
    small_alphabet: Alphabet
    z: str
    solved: FreeWord  # over small_alphabet: the value of z
    source_relator: str

    def __post_init__(self):
        if self.solved.alphabet is not self.small_alphabet:
            raise AlphabetError("solved word must be over the small alphabet")
        if self.z not in self.big_alphabet or self.z in self.small_alphabet:
            raise AlphabetError("z must belong to the big alphabet only")
        # built once and not fields: the homomorphism's data for retract
        big = self.big_alphabet
        object.__setattr__(
            self, "_substitution", _substitution(big, self.small_alphabet, self.z, self.solved)
        )
        # likewise: the kernel's normal generator z · solved^-1, and its inverse
        gen = multiply(generator(big, self.z), invert(embed(self.solved, big)))
        object.__setattr__(self, "_kernel_generators", (gen, invert(gen)))


# --- parsing and printing ---------------------------------------------------


def _strip_comment(line: str) -> str:
    return line.split("#", 1)[0]


def parse(text: str) -> GroupPresentation | MonoidPresentation:
    lines = text.splitlines()
    content = [
        (i + 1, stripped)
        for i, raw in enumerate(lines)
        if (stripped := _strip_comment(raw).strip())
    ]
    if not content:
        raise ParseError("empty presentation", 1)

    lineno, header = content[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] not in ("group", "monoid"):
        raise ParseError("expected `group <name>` or `monoid <name>`", lineno)
    kind, name = parts

    if len(content) < 2:
        raise ParseError("missing `gens` line", lineno)
    lineno, gens_line = content[1]
    gen_parts = gens_line.split()
    if gen_parts[0] != "gens" or len(gen_parts) < 2:
        raise ParseError("expected `gens <id> ...`", lineno)
    try:
        alphabet = Alphabet(tuple(gen_parts[1:]))
    except AlphabetError as exc:
        raise ParseError(str(exc), lineno) from None

    group_relators: list[tuple[str, FreeWord]] = []
    monoid_relations: list[tuple[FreeWord, FreeWord]] = []
    eliminate: str | None = None
    for lineno, line in content[2:]:
        tokens = line.split()
        if tokens[0] == "eliminate":
            if kind != "group":
                raise ParseError("`eliminate` is only valid in group files", lineno)
            if len(tokens) != 2:
                raise ParseError("expected `eliminate <id>`", lineno)
            if eliminate is not None:
                raise ParseError("`eliminate` may appear at most once", lineno)
            eliminate = tokens[1]
            if eliminate not in alphabet:
                raise ParseError(f"unknown generator {eliminate!r}", lineno)
            continue
        if tokens[0] != "rel" or "=" not in tokens:
            raise ParseError("expected `rel ... = ...`", lineno)
        eq = tokens.index("=")
        lhs_tokens, rhs_tokens = tokens[1:eq], tokens[eq + 1 :]
        if kind == "group":
            if len(lhs_tokens) != 1:
                raise ParseError("group relators need a single name before `=`", lineno)
            rel_name = lhs_tokens[0]
            if any(rel_name == existing for existing, _ in group_relators):
                raise ParseError(f"duplicate relator name {rel_name!r}", lineno)
            try:
                word = word_from_text(alphabet, " ".join(rhs_tokens))
            except (AlphabetError, ValueError) as exc:
                raise ParseError(str(exc), lineno, line.find("=") + 2) from None
            if word.is_identity:
                raise ParseError(f"relator {rel_name!r} reduces to the empty word", lineno)
            group_relators.append((rel_name, word))
        else:
            try:
                lhs = monoid_word_from_text(alphabet, " ".join(lhs_tokens))
                rhs = monoid_word_from_text(alphabet, " ".join(rhs_tokens))
            except (AlphabetError, ValueError) as exc:
                raise ParseError(str(exc), lineno) from None
            monoid_relations.append((lhs, rhs))

    if kind == "group":
        return GroupPresentation(name, alphabet, tuple(group_relators), eliminate)
    return MonoidPresentation(name, alphabet, tuple(monoid_relations))


def to_text(p: GroupPresentation | MonoidPresentation) -> str:
    lines = []
    if isinstance(p, GroupPresentation):
        lines.append(f"group {p.name}")
        lines.append("gens " + " ".join(p.alphabet.generators))
        for rel_name, word in p.relators:
            lines.append(f"rel {rel_name} = {word_to_text(word)}")
        if p.eliminate is not None:
            lines.append(f"eliminate {p.eliminate}")
    else:
        lines.append(f"monoid {p.name}")
        lines.append("gens " + " ".join(p.alphabet.generators))
        for lhs, rhs in p.relations:
            lines.append(f"rel {word_to_text(lhs)} = {word_to_text(rhs)}")
    return "\n".join(lines) + "\n"


# --- universal group of a monoid presentation -------------------------------


def universal_group_presentation(mp: MonoidPresentation) -> GroupPresentation:
    """Group presentation on the same generators with one relator u·v^-1 per
    relation (u, v).  Relations whose relator freely reduces to the empty
    word impose nothing and are dropped.
    """
    relators = []
    counter = 0
    for lhs, rhs in mp.relations:
        counter += 1
        word = multiply(lhs, invert(rhs))
        if word.is_identity:
            continue
        relators.append((f"h{counter}", word))
    return GroupPresentation(mp.name, mp.alphabet, tuple(relators))


# --- single-occurrence elimination ------------------------------------------


def solve_single_occurrence(gp: GroupPresentation, z: str) -> Retraction:
    """Eliminate a generator occurring exactly once among the relators.

    For the source relator A·z·B the solved value is A^-1 B^-1; for
    A·z^-1·B it is B·A.  Either way the source relator maps to 1.
    """
    z_idx = gp.alphabet.index(z)
    hits = [
        (rel_name, pos, letter_sign(c))
        for rel_name, word in gp.relators
        for pos, c in enumerate(word.letters)
        if letter_index(c) == z_idx
    ]
    if len(hits) != 1:
        raise NotReducibleError(
            f"generator {z!r} occurs {len(hits)} times among the relators; need exactly 1"
        )
    rel_name, pos, sign = hits[0]
    word = gp.relator(rel_name)
    small = gp.alphabet.without(z)
    a = restrict(FreeWord(gp.alphabet, word.letters[:pos]), small)
    b = restrict(FreeWord(gp.alphabet, word.letters[pos + 1 :]), small)
    if sign > 0:
        solved = multiply(invert(a), invert(b))
    else:
        solved = multiply(b, a)
    retr = Retraction(gp.alphabet, small, z, solved, rel_name)
    if not retract(retr, word).is_identity:
        raise AssertionError("internal invariant violation: source relator did not map to 1")
    return retr


def retract(retr: Retraction, u: FreeWord) -> FreeWord:
    """Apply the retraction: fixes the small generators, sends z to its
    solved value.  Result is over the small alphabet: the letters' images,
    in order, freely reduced as one stream.  A word without z is that word
    renamed into the small alphabet, which is reduced as it stands.
    """
    if u.alphabet is not retr.big_alphabet:
        raise AlphabetError("retract expects a word over the big alphabet")
    return _substitute(u, retr._substitution)


def in_kernel(retr: Retraction, u: FreeWord) -> bool:
    """Whether u retracts to the empty word."""
    return not retract(retr, u).letters


def decompose(retr: Retraction, u: FreeWord) -> tuple[FreeWord, FreeWord]:
    """Split u = u0 · u1 with u0 in the kernel and u1 the embedded retract.

    Both components are over the big alphabet; ``retract(retr, u0)`` is the
    empty word and ``multiply(u0, u1) == u``.
    """
    u1 = embed(retract(retr, u), retr.big_alphabet)
    u0 = multiply(u, invert(u1))
    return u0, u1


# --- labeled oriented trees --------------------------------------------------


def lot_presentation(n: int, edges: Sequence[tuple[int, int, int]]) -> GroupPresentation:
    """Presentation with generators x1..xn and one relator
    x_j x_k x_j^-1 x_i^-1 per edge (i, j, k); the edges i--k must form a
    spanning tree on {1..n}.
    """
    if n < 1:
        raise ValueError("need at least one generator")
    for i, j, k in edges:
        if not all(1 <= v <= n for v in (i, j, k)):
            raise ValueError(f"edge {(i, j, k)} has an index outside 1..{n}")
    if len(edges) != n - 1:
        raise ValueError(f"a tree on {n} vertices needs exactly {n - 1} edges, got {len(edges)}")
    # n-1 edges that close no cycle connect all n vertices: a spanning tree
    components = UnionFind(n + 1)
    for i, _, k in edges:
        if not components.union(i, k):
            raise ValueError("edges do not form a tree")

    alphabet = Alphabet(tuple(f"x{v}" for v in range(1, n + 1)))
    relators = []
    for s, (i, j, k) in enumerate(edges, start=1):
        xi, xj, xk = (alphabet.index(f"x{v}") for v in (i, j, k))
        word = reduce(alphabet, [letter(xj, 1), letter(xk, 1), letter(xj, -1), letter(xi, -1)])
        relators.append((f"r{s}", word))
    return GroupPresentation(f"lot{n}", alphabet, tuple(relators))


def is_reducible_lot(gp: GroupPresentation) -> str | None:
    """First generator (alphabet order) occurring exactly once among the
    relators, or None.
    """
    counts = [0] * len(gp.alphabet)
    for _, word in gp.relators:
        for c in word.letters:
            counts[letter_index(c)] += 1
    if 1 not in counts:
        return None
    return gp.alphabet.name(counts.index(1))


# --- Todd-Coxeter coset enumeration ------------------------------------------


class CosetTable:
    """Completed coset table for a subgroup of a finitely presented group.

    Rows are live cosets (0 is the subgroup itself); columns alternate
    generator / inverse in alphabet order.
    """

    def __init__(self, gp: GroupPresentation, rows: list[list[int]]):
        self.presentation = gp
        self.rows = rows

    @property
    def index(self) -> int:
        return len(self.rows)

    def step(self, coset: int, code: int) -> int:
        return self.rows[coset][letter_column(code)]

    def trace(self, word: FreeWord, start: int = 0) -> int:
        if word.alphabet is not self.presentation.alphabet:
            raise AlphabetError("trace expects a word over the table's alphabet")
        c = start
        for code in word.letters:
            c = self.step(c, code)
        return c

    def representatives(self) -> list[FreeWord]:
        """Shortlex coset representatives via breadth-first search from 0."""
        alphabet = self.presentation.alphabet
        reps: list[FreeWord | None] = [None] * self.index
        reps[0] = empty_word(alphabet)
        queue = deque([0])
        while queue:
            c = queue.popleft()
            for l in range(len(alphabet)):
                for sign in (1, -1):
                    code = letter(l, sign)
                    d = self.step(c, code)
                    if reps[d] is None:
                        reps[d] = multiply(reps[c], FreeWord(alphabet, (code,)))
                        queue.append(d)
        return reps  # type: ignore[return-value]


class _CosetCap(Exception):
    """The enumeration would define more cosets than its budget allows."""


class _Enumeration:
    """One HLT pass (Holt, Eick & O'Brien, *Handbook of Computational Group
    Theory*, 2005): scan the subgroup words at coset 0, then at each live
    coset in order scan every relator, defining cosets to close each scan, and
    fill the coset's row.  A hard cap on cosets defined, where ``_new_coset``
    raises ``_CosetCap``; no lookahead.

    ``_set`` is the only writer of table entries.  A conflicting entry queues a
    coincidence; ``_process_coincidences`` merges the two cosets and moves the
    dead row's entries through ``_set``.
    """

    def __init__(self, gp: GroupPresentation, budget: int):
        self.gp = gp
        self.budget = budget
        self.ncols = 2 * len(gp.alphabet)
        self.table: list[list[int | None]] = []
        self.cosets = UnionFind()  # coincident cosets share a representative
        self._rep = self.cosets.find
        self.queue: deque[tuple[int, int]] = deque()
        self._new_coset()

    def _new_coset(self) -> int:
        if len(self.table) >= self.budget:
            raise _CosetCap
        self.table.append([None] * self.ncols)
        return self.cosets.add()

    def _set(self, c: int, col: int, d: int) -> None:
        """c·col = d and d·col⁻¹ = c, or a queued coincidence where an entry
        already says otherwise."""
        c, d = self._rep(c), self._rep(d)
        existing = self.table[c][col]
        if existing is not None and self._rep(existing) != d:
            self.queue.append((existing, d))
            return
        self.table[c][col] = d
        back = self.table[d][col ^ 1]
        if back is None:
            self.table[d][col ^ 1] = c
        elif self._rep(back) != c:
            self.queue.append((back, c))

    def _process_coincidences(self) -> None:
        while self.queue:
            a, b = self.queue.popleft()
            a, b = self._rep(a), self._rep(b)
            if a == b:
                continue
            if b < a:
                a, b = b, a
            self.cosets.union(a, b)
            # nothing writes the dead row b: every _set target is a live coset
            for col, d in enumerate(self.table[b]):
                if d is not None:
                    self._set(a, col, d)

    def _scan_and_fill(self, start: int, cols: list[int]) -> None:
        """Scan the word with these columns at start, defining cosets to close
        the cycle."""
        table, rep = self.table, self._rep
        start = rep(start)
        f, i = start, 0
        while i < len(cols) and (nxt := table[f][cols[i]]) is not None:
            f, i = rep(nxt), i + 1
        if i == len(cols):
            self.queue.append((f, start))  # the scan closed: its ends coincide
        else:
            b, j = start, len(cols) - 1
            while j > i and (prev := table[b][cols[j] ^ 1]) is not None:
                b, j = rep(prev), j - 1
            # fill the gap with fresh cosets; reduced words make each fresh
            # entry free, so only the last, deduced entry can conflict
            while j > i:
                d = self._new_coset()
                self._set(f, cols[i], d)
                f, i = d, i + 1
            self._set(f, cols[i], b)
        self._process_coincidences()

    def run(self, subgroup: Sequence[FreeWord]) -> CosetTable:
        table, rep = self.table, self._rep
        words = [list(map(letter_column, w.letters)) for w in subgroup]
        relators = [list(map(letter_column, r.letters)) for _, r in self.gp.relators]
        for cols in words:
            self._scan_and_fill(0, cols)
        c = 0
        while c < len(table):
            for cols in relators:
                if rep(c) != c:
                    break
                self._scan_and_fill(c, cols)
            if rep(c) == c:
                # a fresh coset's row is empty, so these entries never conflict
                for col in range(self.ncols):
                    if table[c][col] is None:
                        self._set(c, col, self._new_coset())
            c += 1
        live = [c for c in range(len(table)) if rep(c) == c]
        if any(None in table[c] for c in live):
            raise AssertionError("internal invariant violation: the HLT pass left the table open")
        relabel = {old: new for new, old in enumerate(live)}
        rows = [[relabel[rep(d)] for d in table[c]] for c in live]  # type: ignore[arg-type]
        done = CosetTable(self.gp, rows)
        if any(done.trace(w) != 0 for w in subgroup) or any(
            done.trace(r, c) != c for _, r in self.gp.relators for c in range(done.index)
        ):
            raise AssertionError("internal invariant violation: a word does not close in the table")
        return done


def coset_table(
    gp: GroupPresentation, subgroup: Sequence[FreeWord] = (), budget: int = 1000
):
    """Run the enumeration; returns a CosetTable or EXHAUSTED."""
    # a bool or a float is not a coset count: True would act as 1, 3.5 as 3
    if type(budget) is not int or budget < 1:
        raise ValueError(f"budget must be an int >= 1, got {budget!r}")
    for w in subgroup:
        if w.alphabet is not gp.alphabet:
            raise AlphabetError("subgroup generator over the wrong alphabet")
    try:
        return _Enumeration(gp, budget).run(subgroup)
    except _CosetCap:
        return EXHAUSTED


def coset_enumeration(
    gp: GroupPresentation, subgroup: Sequence[FreeWord] = (), budget: int = 1000
):
    """Index of the subgroup if the enumeration closes within budget,
    else EXHAUSTED.
    """
    result = coset_table(gp, subgroup, budget)
    return result if result is EXHAUSTED else result.index
