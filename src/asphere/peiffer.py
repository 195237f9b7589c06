"""Y-sequences over a group presentation and the Peiffer move calculus.

A Y-symbol is a relator conjugated by a free-group word, with a sign; its
boundary is u r^e u^-1.  Sequences of Y-symbols are rewritten by four moves:
two exchanges that slide adjacent symbols past each other (twisting one
conjugator by the other symbol's boundary), deletion of an adjacent inverse
pair, and insertion of such a pair.  All four preserve the boundary product.

Equality of symbols is componentwise on the reduced conjugator, so deletion
legality is syntactic.  The trivialization search is a bounded
iterative-deepening walk over an explicit stack; it returns a replayable
certificate or EXHAUSTED, never a refutation.  Its first depth limit is
``length_lower_bound``, a length no certificate falls short of (the proof is
in its docstring; IDA* with a consistent heuristic, Korf 1985); its
per-child gates are argued in ``search_trivialization``.  Each move rule has
one definition: the exchange twists are ``_exchanged``, over ``symbol_boundary``,
and the step moves are shared objects, one per (kind, position), listed in one
order by ``legal_moves``, which ``scramble`` draws from too.

Validation happens once, at the boundary: the public ``YSymbol`` and
``YSequence`` constructors check every sign, relator name and conjugator
alphabet.  Symbols, sequences, moves and certificates the calculus proves
valid (a move applied to a valid sequence, an inverse, a concatenation, the
moves of ``legal_moves``, the search's move lists) are built unchecked by
setting their slots, through ``_symbol``, ``_sequence``, ``_move`` and
``_certificate``; only ``legal_moves`` builds its insert moves inline.  The
one per-child validation is ``apply_move``'s check of an ``Insert`` move's
symbol, the one thing a move brings in from outside: its relator must belong
to the presentation and its conjugator must be over its alphabet, so a
replayed certificate still fails on a bad symbol.  The boundary is the
symbols' letters freely reduced by ``words._reduce`` as one stream.  The
entry check of ``is_identity`` and of the search is one scan, ``_cancel``:
it cancels adjacent inverse symbols on a stack, so only the letters of the
symbols left are reduced, and a sequence that cancels completely builds no
word.

A root that cancels completely, n symbols, is answered in closed form,
without a search: the Deletes of the scan's pops, or EXHAUSTED when n / 2
exceeds the depth limit or the budget.  That is the loop's own answer.  Its
lower bound is n / 2, each pop deletes the leftmost adjacent inverse pair,
the loop tries Deletes first, leftmost first, and Deletes alone keep the
sequence cancelling completely; so at the first limit the loop walks the
pops' path in n / 2 expansions, without backtracking (the full argument is
at the closed form in ``search_trivialization``).  A count of the search's
expansions must count those n / 2 for such a root.
"""
from __future__ import annotations

import enum
import functools
import random
from dataclasses import dataclass
from typing import Sequence

from .partial import EXHAUSTED
from .presentations import GroupPresentation
from .words import (
    AlphabetError,
    FreeWord,
    _below,
    _inverse_letters,
    _reduce,
    conjugate,
    empty_word,
    multiply,
    random_word,
    shortlex_key,
    word_from_text,
    word_to_text,
)


class IllegalMoveError(ValueError):
    pass


class NotIdentityError(ValueError):
    pass


class FormatError(ValueError):
    """A JSON value that is not the documented sequence or certificate shape."""


@dataclass(frozen=True, slots=True)
class YSymbol:
    relator: str
    conjugator: FreeWord
    sign: int

    def __post_init__(self):
        if type(self.sign) is not int or self.sign not in (1, -1):
            raise ValueError(f"sign must be the int +1 or -1, got {self.sign!r}")

    def __hash__(self) -> int:
        # the generated hash's value, without FreeWord.__hash__'s frame
        return hash((self.relator, self.conjugator.letters, self.sign))

    def inverse(self) -> YSymbol:
        return _symbol(self.relator, self.conjugator, -self.sign)

    def sort_key(self):
        return (self.relator, len(self.conjugator.letters), self.conjugator.letters, self.sign)


@dataclass(frozen=True, slots=True)
class YSequence:
    presentation: GroupPresentation
    symbols: tuple[YSymbol, ...]

    def __post_init__(self):
        if not isinstance(self.symbols, tuple):
            object.__setattr__(self, "symbols", tuple(self.symbols))
        gp = self.presentation
        for s in self.symbols:
            if s.relator not in gp:
                raise KeyError(f"unknown relator {s.relator!r}")
            if s.conjugator.alphabet is not gp.alphabet:
                raise AlphabetError(f"conjugator of {s.relator!r} over the wrong alphabet")

    def __len__(self) -> int:
        return len(self.symbols)

    def concat(self, other: YSequence) -> YSequence:
        if other.presentation != self.presentation:
            raise ValueError("sequences over different presentations")
        return _sequence(self.presentation, self.symbols + other.symbols)


_NEW = object.__new__
_SET_RELATOR = YSymbol.relator.__set__
_SET_CONJUGATOR = YSymbol.conjugator.__set__
_SET_SIGN = YSymbol.sign.__set__
_SET_PRESENTATION = YSequence.presentation.__set__
_SET_SYMBOLS = YSequence.symbols.__set__


def _symbol(relator: str, conjugator: FreeWord, sign: int) -> YSymbol:
    """Trusted constructor: ``sign`` must be +1 or -1."""
    s = _NEW(YSymbol)
    _SET_RELATOR(s, relator)
    _SET_CONJUGATOR(s, conjugator)
    _SET_SIGN(s, sign)
    return s


def _sequence(gp: GroupPresentation, symbols: tuple[YSymbol, ...]) -> YSequence:
    """Trusted constructor: every symbol must name a relator of ``gp`` and
    carry a conjugator over its alphabet."""
    d = _NEW(YSequence)
    _SET_PRESENTATION(d, gp)
    _SET_SYMBOLS(d, symbols)
    return d


def empty_sequence(gp: GroupPresentation) -> YSequence:
    return _sequence(gp, ())


def symbol_boundary(gp: GroupPresentation, s: YSymbol) -> FreeWord:
    return conjugate(s.conjugator, gp.signed_relator(s.relator, s.sign))


def boundary(d: YSequence) -> FreeWord:
    """The product of every symbol's u r^e u^-1: their letters, in order, freely
    reduced as one stream.  Free reduction is confluent, so that is the
    reduced product."""
    return _boundary(d.presentation, d.symbols)


def _boundary(gp: GroupPresentation, symbols: Sequence[YSymbol]) -> FreeWord:
    signed = gp._signed
    parts: list[bytes] = []
    for s in symbols:
        u = s.conjugator.letters
        parts += (u, signed[s.relator, s.sign].letters, _inverse_letters(u))
    return _reduce(gp.alphabet, b"".join(parts))


def _cancel(symbols: tuple[YSymbol, ...]) -> tuple[list[YSymbol], list[int]]:
    """The symbols left after cancelling adjacent inverse symbols, and the
    Delete positions that cancel them.

    The symbols are read onto a stack, and a symbol that is the inverse of
    the one on top (``_deletable``) pops it instead.  Before each read the
    sequence so far is the stack followed by the unread symbols, and the
    stack holds no adjacent inverse pair, so a pop deletes the leftmost
    adjacent inverse pair of that sequence, at position ``len(stack)`` after
    the pop; the positions are listed in the order of the pops.  A Delete
    keeps the boundary (u r^e u^-1 . u r^-e u^-1 = 1), so the symbols left
    have the boundary of ``symbols``.
    """
    stack: list[YSymbol] = []
    deletes: list[int] = []
    for s in symbols:
        if stack and _deletable(stack[-1], s):
            stack.pop()
            deletes.append(len(stack))
        else:
            stack.append(s)
    return stack, deletes


def is_identity(d: YSequence) -> bool:
    """Whether d's boundary is the empty word.  Only the letters of the
    symbols ``_cancel`` leaves are freely reduced, so a sequence that cancels
    completely builds no word."""
    left, _ = _cancel(d.symbols)
    return not left or not _boundary(d.presentation, left).letters


def inverse_sequence(d: YSequence) -> YSequence:
    """Reverse order, flipped signs, same conjugators."""
    return _sequence(d.presentation, tuple(s.inverse() for s in reversed(d.symbols)))


def conjugate_sequence(w: FreeWord, d: YSequence) -> YSequence:
    """Multiply every conjugator by w on the left; boundary is conjugated by w."""
    if w.alphabet is not d.presentation.alphabet:
        raise AlphabetError("conjugating word over the wrong alphabet")
    return _sequence(
        d.presentation,
        tuple(_symbol(s.relator, multiply(w, s.conjugator), s.sign) for s in d.symbols),
    )


def insertion_generator(a: YSymbol, gp: GroupPresentation) -> YSequence:
    return YSequence(gp, (a, a.inverse()))


def fiber_pair(n0: FreeWord, d: YSequence) -> YSequence:
    """The identity sequence (conjugate of d by n0) followed by the formal
    inverse of d."""
    if not is_identity(d):
        raise NotIdentityError("fiber_pair needs an identity sequence")
    return conjugate_sequence(n0, d).concat(inverse_sequence(d))


# --- moves -------------------------------------------------------------------


class MoveKind(enum.Enum):
    DELETE = "Delete"
    EXCHANGE_L = "ExchangeL"
    EXCHANGE_R = "ExchangeR"
    INSERT = "Insert"


_DELETE, _EXCHANGE_L, _EXCHANGE_R, _INSERT = MoveKind

@dataclass(frozen=True, slots=True)
class Move:
    kind: MoveKind
    pos: int
    symbol: YSymbol | None = None  # Insert only

    def __post_init__(self):
        # the range check is apply_move's, so a bad position replays as an illegal move
        if type(self.pos) is not int:
            raise ValueError(f"a move's position must be an int, got {self.pos!r}")
        if (self.kind is MoveKind.INSERT) != (self.symbol is not None):
            raise ValueError("exactly the Insert move carries a symbol")


_SET_KIND = Move.kind.__set__
_SET_POS = Move.pos.__set__
_SET_MOVE_SYMBOL = Move.symbol.__set__


def _move(kind: MoveKind, pos: int, symbol: YSymbol | None = None) -> Move:
    """Trusted constructor: ``symbol`` must be given exactly for an Insert."""
    m = _NEW(Move)
    _SET_KIND(m, kind)
    _SET_POS(m, pos)
    _SET_MOVE_SYMBOL(m, symbol)
    return m


@dataclass(frozen=True, slots=True)
class Certificate:
    moves: tuple[Move, ...]
    pool_spec: str = ""

    def __len__(self) -> int:
        return len(self.moves)


_SET_MOVES = Certificate.moves.__set__
_SET_POOL_SPEC = Certificate.pool_spec.__set__


def _certificate(moves: tuple[Move, ...], pool_spec: str) -> Certificate:
    """Trusted constructor: ``moves`` must be a tuple of moves."""
    c = _NEW(Certificate)
    _SET_MOVES(c, moves)
    _SET_POOL_SPEC(c, pool_spec)
    return c


def _deletable(a: YSymbol, b: YSymbol) -> bool:
    return a.relator == b.relator and a.conjugator == b.conjugator and a.sign == -b.sign


def _exchanged(
    gp: GroupPresentation, a: YSymbol, b: YSymbol, left: bool, table: dict | None
) -> YSymbol:
    """ExchangeL's b' (``left``: b's conjugator twisted by a's boundary) or
    ExchangeR's a' (a's conjugator twisted by b^-1's boundary) of (a, b).
    ``table``, when given, holds those already built over ``gp``, keyed by
    the fields of a and b and by ``left``, and gains this one: a repeated key
    returns the same object.  The fields hash without YSymbol.__hash__'s frame."""
    key = (a.relator, a.conjugator.letters, a.sign, b.relator, b.conjugator.letters, b.sign, left)
    s = None if table is None else table.get(key)
    if s is None:
        if left:
            s = _symbol(b.relator, multiply(symbol_boundary(gp, a), b.conjugator), b.sign)
        else:
            twist = symbol_boundary(gp, b.inverse())
            s = _symbol(a.relator, multiply(twist, a.conjugator), a.sign)
        if table is not None:
            table[key] = s
    return s


def apply_move(d: YSequence, m: Move, table: dict | None = None) -> YSequence:
    """d after the move m; raises on an illegal move.  ``table`` is passed to
    ``_exchanged``."""
    gp = d.presentation
    syms = d.symbols
    n = len(syms)
    pos = m.pos
    if m.kind is _INSERT:
        if not 0 <= pos <= n:
            raise IllegalMoveError(f"insert position {pos} out of range 0..{n}")
        # the one per-child check: the symbol comes from outside the sequence
        a = m.symbol
        relator, conjugator = a.relator, a.conjugator
        if relator not in gp._by_name:
            raise KeyError(f"unknown relator {relator!r}")
        if conjugator.alphabet is not gp.alphabet:
            raise AlphabetError(f"conjugator of {relator!r} over the wrong alphabet")
        out = syms[:pos] + (a, _symbol(relator, conjugator, -a.sign)) + syms[pos:]
    else:
        if not 0 <= pos <= n - 2:
            raise IllegalMoveError(f"position {pos} has no adjacent pair in length {n}")
        a, b = syms[pos], syms[pos + 1]
        if m.kind is _DELETE:
            if not _deletable(a, b):
                raise IllegalMoveError(f"pair at {pos} is not an adjacent inverse pair")
            out = syms[:pos] + syms[pos + 2 :]
        elif m.kind is _EXCHANGE_L:
            out = syms[:pos] + (_exchanged(gp, a, b, True, table), a) + syms[pos + 2 :]
        elif m.kind is _EXCHANGE_R:
            out = syms[:pos] + (b, _exchanged(gp, a, b, False, table)) + syms[pos + 2 :]
        else:
            raise IllegalMoveError(f"unknown move kind {m.kind}")
    return _sequence(gp, out)


@functools.cache
def _step_move(kind: MoveKind, pos: int) -> Move:
    """The one Delete, ExchangeL or ExchangeR move at ``pos`` that all share."""
    return _move(kind, pos)


# bounded: the tables of every length up to N would hold about 1.5 N^2 moves
@functools.lru_cache(maxsize=128)
def _step_tables(n: int) -> tuple[tuple[Move, ...], ...]:
    """The Delete, ExchangeL and ExchangeR tables of a length-n sequence, in
    that order; entry i of each is the step move at position i."""
    kinds = (_DELETE, _EXCHANGE_L, _EXCHANGE_R)
    return tuple(tuple(_step_move(kind, i) for i in range(n - 1)) for kind in kinds)


def legal_moves(d: YSequence, insert_pool: Sequence[YSymbol] = ()) -> list[Move]:
    """All moves applicable to d, in deterministic order: deletions first,
    then exchanges, then insertions of pool symbols.  The step moves come
    from shared tables; only the insertions are built per call."""
    syms = d.symbols
    n = len(syms)
    deletes, lefts, rights = _step_tables(n)
    moves = [deletes[i] for i in range(n - 1) if _deletable(syms[i], syms[i + 1])]
    moves += lefts
    moves += rights
    # inline, not through _move: the call per insert move slowed the search
    for i in range(n + 1):
        for sym in insert_pool:
            m = _NEW(Move)
            _SET_KIND(m, _INSERT)
            _SET_POS(m, i)
            _SET_MOVE_SYMBOL(m, sym)
            moves.append(m)
    return moves


# --- insert pools ------------------------------------------------------------


def base_insert_pool(gp: GroupPresentation) -> list[YSymbol]:
    """Symbols with short conjugators: the empty word and single letters, in
    ``YSymbol.sort_key`` order.  The pool is built once per presentation;
    each call returns a new list, so a caller may change it freely."""
    return list(_base_pool(gp))


@functools.cache
def _base_pool(gp: GroupPresentation) -> tuple[YSymbol, ...]:
    rows = _base_rows(gp)
    return tuple(_symbol(rel, u, sign) for rel, us in rows for u in us for sign in (-1, 1))


@functools.cache
def _base_rows(gp: GroupPresentation) -> tuple[tuple[str, tuple[FreeWord, ...]], ...]:
    """The base pool as rows: each relator name, in sorted order, with the
    empty word and the single letters in shortlex order.  Row (rel, us)
    stands for the symbols (rel, u, -1), (rel, u, +1) for u in us, in that
    order, so the rows list the pool in ``YSymbol.sort_key`` order."""
    alphabet = gp.alphabet
    conjugators = [empty_word(alphabet)]
    for name in alphabet.generators:
        conjugators.append(word_from_text(alphabet, name))
        conjugators.append(word_from_text(alphabet, f"{name}^-1"))
    conjugators.sort(key=shortlex_key)
    return tuple((rel, tuple(conjugators)) for rel in sorted(gp.relator_names))


# The longest conjugator the dynamic insert pool keeps; every pool_spec names
# it, and every certificate the search writes shares one pool_spec string.
CONJ_CAP = 8
_SEARCH_POOL_SPEC = f"dynamic(cap={CONJ_CAP})"


def _dynamic_conjugators(
    gp: GroupPresentation, syms: tuple[YSymbol, ...], table: dict | None
) -> list[FreeWord]:
    """The dynamic pool's conjugators, unordered: those of ``syms`` and each
    adjacent pair's ExchangeL and ExchangeR twists, at most ``CONJ_CAP``
    letters long.  ``table`` is passed to ``_exchanged``."""
    conjugators = {s.conjugator for s in syms}
    for a, b in zip(syms, syms[1:]):
        conjugators.add(_exchanged(gp, a, b, True, table).conjugator)
        conjugators.add(_exchanged(gp, a, b, False, table).conjugator)
    return [u for u in conjugators if len(u.letters) <= CONJ_CAP]


def dynamic_insert_pool(d: YSequence, table: dict | None = None) -> list[YSymbol]:
    """Symbols built from relators and conjugators already present in the
    sequence, plus their one-step exchange products, with conjugators of at
    most ``CONJ_CAP`` letters.  Emitted in ``YSymbol.sort_key`` order:
    relator, then conjugator in shortlex order, then sign -1 before +1.
    ``table`` is passed to ``_exchanged``."""
    syms = d.symbols
    relators = sorted({s.relator for s in syms})
    kept = sorted(_dynamic_conjugators(d.presentation, syms, table), key=shortlex_key)
    return [_symbol(rel, u, sign) for rel in relators for u in kept for sign in (-1, 1)]


def _scramble_rows(
    gp: GroupPresentation, syms: tuple[YSymbol, ...], table: dict
) -> Sequence[tuple[str, Sequence[FreeWord]]]:
    """The sorted union of the base pool and the dynamic pool of ``syms``,
    as rows like ``_base_rows``: a relator of ``syms`` has the base and the
    dynamic conjugators, any other relator the base ones only."""
    rows = _base_rows(gp)
    present = {s.relator for s in syms}
    dynamic = _dynamic_conjugators(gp, syms, table)
    both = sorted(set(rows[0][1]).union(dynamic), key=shortlex_key)
    return [(rel, both if rel in present else us) for rel, us in rows]


def _row_symbol(rows: Sequence[tuple[str, Sequence[FreeWord]]], j: int) -> YSymbol:
    """Symbol j of the pool the rows stand for; 0 <= j < the pool size."""
    for rel, us in rows:
        if j < 2 * len(us):
            return _symbol(rel, us[j >> 1], (-1, 1)[j & 1])
        j -= 2 * len(us)
    raise IndexError("symbol index out of range")


# --- random symbols and scrambles (test-case generators) ----------------------


def _require_count(name: str, value) -> None:
    """Raise ``ValueError`` unless ``value`` is an int >= 0; a bool or a float
    is not, so none reaches a certificate's ``pool_spec`` or a ``range``."""
    if type(value) is not int or value < 0:
        raise ValueError(f"{name} must be an int >= 0, got {value!r}")


def random_symbol(gp: GroupPresentation, rng: random.Random, conj_len: int = 3) -> YSymbol:
    """A uniformly drawn relator, a random conjugator of at most ``conj_len``
    letters and a random sign, drawn in that order."""
    names = gp.relator_names
    name = names[_below(rng.getrandbits, len(names))]
    conjugator = random_word(gp.alphabet, rng, conj_len)
    return _symbol(name, conjugator, (1, -1)[_below(rng.getrandbits, 2)])


def random_sequence(gp: GroupPresentation, rng: random.Random, max_len: int = 4) -> YSequence:
    """Up to ``max_len`` random symbols; draws nothing when gp has no relators."""
    if not gp.relators:
        return empty_sequence(gp)
    count = _below(rng.getrandbits, max_len + 1)
    return _sequence(gp, tuple(random_symbol(gp, rng) for _ in range(count)))


def scramble(gp: GroupPresentation, seed: int, k: int) -> tuple[YSequence, Certificate]:
    """Apply k random legal moves starting from the empty sequence.

    Each move is an insertion with probability 0.6 (always when no other move
    is legal), so the result grows; it is an identity sequence by
    construction.  An insertion draws a position, then a symbol of the base
    pool merged with the dynamic pool of the current sequence; any other
    move is drawn from the step moves ``legal_moves(seq)``, at most 3n of
    them.  Returns the sequence and the replayable move list; k >= 1 on a
    presentation without relators, which has nothing to insert, raises
    ``ValueError`` before any draw.  So does a seed or k that is not an int
    >= 0: ``random.Random`` would read a negative seed as its absolute value,
    and a bool or float seed would be written into the ``pool_spec``.

    The merged pool is not built; the insert draw builds only the symbol at
    the drawn index.  The pool in ``YSymbol.sort_key`` order runs through
    the relators in sorted order, each one's conjugators in shortlex order
    and the signs -1, +1, so ``_row_symbol`` finds symbol j from the
    conjugator counts, the symbol the sorted pool would give.  Each adjacent
    pair's two twists are computed once per call.
    """
    _require_count("seed", seed)
    _require_count("k", k)
    if k and not gp.relators:
        raise ValueError(f"cannot scramble {gp.name}: it has no relators to insert")
    rng = random.Random(seed)
    bits = rng.getrandbits
    seq = empty_sequence(gp)
    moves = []
    table: dict = {}
    for _ in range(k):
        syms = seq.symbols
        n = len(syms)
        # legal_moves(seq) is empty exactly when there is no adjacent pair
        if n < 2 or rng.random() < 0.6:
            rows = _scramble_rows(gp, syms, table)
            pos = _below(bits, n + 1)
            j = _below(bits, sum(2 * len(us) for _, us in rows))
            m = _move(_INSERT, pos, _row_symbol(rows, j))
        else:
            steps = legal_moves(seq)
            m = steps[_below(bits, len(steps))]
        seq = apply_move(seq, m)
        moves.append(m)
    return seq, Certificate(tuple(moves), pool_spec=f"scramble(seed={seed},cap={CONJ_CAP})")


def invert_certificate(start: YSequence, cert: Certificate) -> Certificate:
    """Mechanical inverse: replay forward, recording the inverse of each
    move, then reverse the list."""
    inverse_moves = []
    seq = start
    for m in cert.moves:
        if m.kind is MoveKind.INSERT:
            inverse_moves.append(Move(MoveKind.DELETE, m.pos))
        elif m.kind is MoveKind.DELETE:
            inverse_moves.append(Move(MoveKind.INSERT, m.pos, seq.symbols[m.pos]))
        elif m.kind is MoveKind.EXCHANGE_L:
            inverse_moves.append(Move(MoveKind.EXCHANGE_R, m.pos))
        else:
            inverse_moves.append(Move(MoveKind.EXCHANGE_L, m.pos))
        seq = apply_move(seq, m)
    return Certificate(tuple(reversed(inverse_moves)), pool_spec=cert.pool_spec)


# --- certificate replay -------------------------------------------------------


def replay(d: YSequence, cert: Certificate) -> YSequence:
    """Apply every move of the certificate; raises on an illegal move."""
    seq = d
    for m in cert.moves:
        seq = apply_move(seq, m)
    return seq


@dataclass(frozen=True)
class ReplayReport:
    ok: bool
    failed_step: int | None = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def verify_certificate(d: YSequence, cert: Certificate) -> ReplayReport:
    seq = d
    for i, m in enumerate(cert.moves):
        try:
            seq = apply_move(seq, m)
        except (IllegalMoveError, KeyError, AlphabetError) as exc:
            return ReplayReport(False, i, str(exc))
    if seq.symbols:
        return ReplayReport(False, len(cert.moves), f"final sequence has length {len(seq)}")
    return ReplayReport(True)


# --- bounded trivialization search --------------------------------------------


def length_lower_bound(d: YSequence) -> int:
    """A lower bound h = n - M on the length of every certificate for d.

    n is the length of d and M is the sum, over the (relator, conjugator)
    keys of its symbols, of min(#sign +1, #sign -1): the most disjoint
    inverse pairs the symbols could form.  A delete removes one +1 and one -1
    symbol of one key, so n falls by 2 and M by exactly 1; an insert adds
    such a pair, so n rises by 2 and M by exactly 1.  An exchange keeps n and
    moves one symbol to another conjugator, leaving one key (M falls by 0 or
    1) for another (M rises by 0 or 1), so M moves by at most 1.  Hence every
    move changes h by at most 1.  Since M <= n // 2, h >= n - n // 2 >= n // 2,
    and h = 0 only for the empty sequence.  So a certificate needs at least
    h moves.
    """
    # a key's running balance #(+1) - #(-1); a symbol that moves it toward
    # zero closes one pair, so the pairs closed number min(#+1, #-1).  The
    # conjugators share gp.alphabet, so their letters stand for them.
    balance: dict = {}
    pairs = 0
    for s in d.symbols:
        key = (s.relator, s.conjugator.letters)
        b = balance.get(key, 0)
        if b * s.sign < 0:
            pairs += 1
        balance[key] = b + s.sign
    return len(d.symbols) - pairs


def default_depth_limit(d: YSequence) -> int:
    """The search's depth limit when none is given: twice the length of d."""
    return 2 * len(d.symbols)


def search_trivialization(
    d: YSequence, node_budget: int = 50_000, depth_limit: int | None = None
):
    """Bounded search for a move list taking d to the empty sequence.

    Iterative deepening; deletions are explored first, then exchanges, then
    insertions drawn from the dynamic pool.  Deterministic: among minimal
    certificates the lexicographically least move list is produced.  Returns
    a Certificate or EXHAUSTED.
    """
    _require_count("node_budget", node_budget)
    if depth_limit is not None:
        _require_count("depth_limit", depth_limit)
    left, deletes = _cancel(d.symbols)
    if left and _boundary(d.presentation, left).letters:
        raise NotIdentityError("cannot trivialize: boundary is not the empty word")
    if depth_limit is None:
        depth_limit = default_depth_limit(d)
    # The closed form: a root that ``_cancel`` empties, n symbols, gets the
    # loop's answer without the loop.  Its pops pair every symbol with an
    # inverse of its key, so length_lower_bound(d) = n - n / 2 = n / 2 and
    # the first limit is n / 2.  Deleting an adjacent inverse pair keeps the
    # symbol-level reduced form (reduction is confluent), so every sequence
    # Deletes reach still cancels completely, and a length-m one needs m / 2
    # more moves.  At that limit an insert child never fits, Deletes are tried
    # first, leftmost first, and each pop deletes the leftmost adjacent pair:
    # the walk takes the pops' path, every Delete child fits, and no sequence
    # on it is met twice (each is shorter than the last).  So the loop enters
    # the root and each non-empty sequence on the path, n / 2 expansions, and
    # returns these Deletes; with a depth limit below n / 2 it runs no
    # iteration, and with a budget below n / 2 it spends it on this path.
    # An empty root gets the empty certificate.  A count of expansions must
    # count n / 2 for this path.
    if not left:
        half = len(deletes)
        if half > depth_limit or half > node_budget:
            return EXHAUSTED
        delete_at = _step_tables(len(d.symbols))[0]
        return _certificate(tuple([delete_at[p] for p in deletes]), _SEARCH_POOL_SPEC)
    # Admissible bounds: every move changes the length by 0 or 2, so it keeps
    # the length's parity, and each deletion removes two symbols.  So an odd
    # length never reaches empty, every sequence the search meets from an
    # even root is even, and a length n needs at least n // 2 more moves; a
    # child is entered only when g + n // 2 fits the limit.  The root needs
    # at least length_lower_bound(d) moves (proved there), so the limits
    # below it cannot succeed, and the deepening starts there.  An insert child
    # of a length-n sequence has length n + 2, so it is admitted only when
    # g + n // 2 + 1 fits the limit; otherwise the insert pool is not built
    # and no insert move is generated.  The inserts come last in
    # ``legal_moves``, so the children entered, their order, ``visited`` and
    # the budget are exactly those of the ungated loop.
    if len(d.symbols) % 2:
        return EXHAUSTED

    # Each adjacent pair's twisted symbols, built once per call: the exchange
    # children and the insert pools read them from this ``_exchanged`` table.
    # It holds at most two entries, ExchangeL's and ExchangeR's, per distinct
    # adjacent pair of d and its generated children, and is dropped on return.
    # It memoizes a pure function of (gp, a, b, side), so every child is as
    # without it.  A miss builds only the twist asked for, so a search that
    # ends early builds no twist it does not read.
    table: dict = {}
    remaining = node_budget
    for limit in range(length_lower_bound(d), depth_limit + 1):
        visited = {}
        # one frame per entered sequence on the path: the sequence, its
        # children's depth, its unread moves and the move that entered it
        stack = []
        seq, g, m = d, 0, None
        while seq is not None:
            # seq, at depth g, fits the limit; enter it unless seen no deeper.
            # One hash of its symbols enters a new one; a second write only
            # records a shallower depth for one seen before.
            size = len(visited)
            seen = visited.setdefault(seq.symbols, g)
            if seen > g:
                visited[seq.symbols] = g
            if seen > g or len(visited) > size:
                remaining -= 1
                if remaining < 0:
                    return EXHAUSTED
                g += 1
                insert_fits = g + len(seq.symbols) // 2 + 1 <= limit
                pool = dynamic_insert_pool(seq, table) if insert_fits else ()
                stack.append((seq, g, iter(legal_moves(seq, pool)), m))
            # the next child the bound admits, from the deepest frame with one
            seq = None
            while stack and seq is None:
                parent, g, moves, _ = stack[-1]
                for m in moves:
                    child = apply_move(parent, m, table)
                    n = len(child.symbols)
                    if not n:
                        path = [frame[3] for frame in stack[1:]]
                        path.append(m)
                        return _certificate(tuple(path), _SEARCH_POOL_SPEC)
                    if g + n // 2 <= limit:
                        seq = child
                        break
                else:
                    stack.pop()
    return EXHAUSTED


# --- JSON wire formats ---------------------------------------------------------


def symbol_to_json(s: YSymbol) -> dict:
    return {"rel": s.relator, "conj": word_to_text(s.conjugator), "sign": s.sign}


def _check_shape(data, fields: dict[str, type], what: str) -> None:
    """Reject ``data`` unless it is a JSON object whose ``fields`` have exactly
    the given types (so a JSON boolean is not an int)."""
    if not isinstance(data, dict) or any(type(data.get(k)) is not t for k, t in fields.items()):
        raise FormatError(f"a {what} is an object with fields {sorted(fields)}, got {data!r}")


def symbol_from_json(gp: GroupPresentation, data: dict) -> YSymbol:
    _check_shape(data, {"rel": str, "conj": str, "sign": int}, "symbol")
    return YSymbol(data["rel"], word_from_text(gp.alphabet, data["conj"]), data["sign"])


def ysequence_to_json(d: YSequence) -> list[dict]:
    return [symbol_to_json(s) for s in d.symbols]


def ysequence_from_json(gp: GroupPresentation, data: list[dict]) -> YSequence:
    if not isinstance(data, list):
        raise FormatError(f"a Y-sequence is a list of symbols, got {data!r}")
    return YSequence(gp, tuple(symbol_from_json(gp, item) for item in data))


def move_to_json(m: Move) -> dict:
    out: dict = {"kind": m.kind.value, "pos": m.pos}
    if m.symbol is not None:
        out["symbol"] = symbol_to_json(m.symbol)
    return out


def move_from_json(gp: GroupPresentation, data: dict) -> Move:
    _check_shape(data, {"kind": str, "pos": int}, "move")
    kind = MoveKind(data["kind"])
    symbol = symbol_from_json(gp, data["symbol"]) if "symbol" in data else None
    return Move(kind, data["pos"], symbol)


def certificate_to_json(c: Certificate) -> dict:
    return {"pool_spec": c.pool_spec, "moves": [move_to_json(m) for m in c.moves]}


def certificate_from_json(gp: GroupPresentation, data: dict) -> Certificate:
    _check_shape(data, {"moves": list}, "certificate")
    pool_spec = data.get("pool_spec", "")
    if type(pool_spec) is not str:
        raise FormatError(f"a certificate's pool_spec is a string, got {pool_spec!r}")
    return Certificate(tuple(move_from_json(gp, m) for m in data["moves"]), pool_spec=pool_spec)
