"""Free-group and free-monoid words over named alphabets.

Words are value types: a ``FreeWord`` is stored eagerly reduced, so equality
and hashing read its letters.  A free-monoid word is a ``FreeWord`` of
positive letters, which is reduced as it stands.  Cross-alphabet arithmetic
is an error; moving a word into a larger alphabet is the explicit ``embed``.

A letter is one int: generator ``i`` is ``2*i + 1`` and its inverse ``2*i``, so
the inverse of code ``c`` is ``c ^ 1``.  Codes sort exactly as ``(index, sign)``
pairs do, so every order built on ``letters`` (symbol keys, insert pools,
certificates, relation-module terms) is that of the pairs.  Only this module
knows the format; others use ``letter``, ``letter_index``, ``letter_sign`` and
``letter_column``.

Validation happens once, at the boundary: the public constructors (``FreeWord``,
``reduce``, the text parsers) check every letter and reject unreduced input.
Results the arithmetic proves reduced, such as the junction-cancelled
concatenation of two reduced factors, the reversal of a reduced word or its
renaming by ``embed`` and ``restrict``, go through the private ``_word``,
which checks nothing and sets the two slots directly; only code that has such
a proof may call it.

Textual syntax (shared by file formats and the CLI): whitespace-separated
tokens, ``x`` for a generator, ``x^-1`` for its inverse, ``1`` for the empty
word.  Example: ``a b^-1 a``.
"""
from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_ALPHABETS: dict[tuple[str, ...], Alphabet] = {}  # the one object per generator tuple


class AlphabetError(ValueError):
    """A letter or word does not belong to the expected alphabet."""


class WordSyntaxError(ValueError):
    """Malformed word text."""


def letter(index: int, sign: int) -> int:
    """The code of generator ``index`` (``sign`` +1) or of its inverse (-1)."""
    if sign not in (1, -1):
        raise AlphabetError(f"sign must be +1 or -1, got {sign}")
    return 2 * index + (sign > 0)


def letter_index(code: int) -> int:
    return code >> 1


def letter_sign(code: int) -> int:
    return 1 if code & 1 else -1


def letter_column(code: int) -> int:
    """Column of a letter in a coset table: generator i is 2*i, its inverse 2*i + 1."""
    return code ^ 1


@dataclass(frozen=True, eq=False, init=False)
class Alphabet:
    """Ordered tuple of distinct generator names.

    The order is observable and used for deterministic tie-breaking.  Equal
    generator tuples give one object, however made, copied or unpickled, and
    the table keeps it alive, so equality and the hash are those of identity.
    """

    generators: tuple[str, ...]

    def __new__(cls, generators: Iterable[str]) -> Alphabet:
        key = tuple(generators)
        self = _ALPHABETS.get(key)
        if self is None:
            for i, name in enumerate(key):
                if not _IDENT_RE.match(name):
                    raise AlphabetError(f"bad generator name {name!r}")
                if name in key[:i]:
                    raise AlphabetError(f"duplicate generator {name!r}")
            self = object.__new__(cls)
            object.__setattr__(self, "generators", key)
            self = _ALPHABETS.setdefault(key, self)
        return self

    def __reduce__(self):
        return Alphabet, (self.generators,)

    def __len__(self) -> int:
        return len(self.generators)

    def __contains__(self, name: str) -> bool:
        return name in self.generators

    def index(self, name: str) -> int:
        try:
            return self.generators.index(name)
        except ValueError:
            raise AlphabetError(f"unknown generator {name!r}") from None

    def name(self, i: int) -> str:
        return self.generators[i]

    def without(self, name: str) -> Alphabet:
        """The alphabet with one generator removed, order preserved."""
        if name not in self:
            raise AlphabetError(f"unknown generator {name!r}")
        return Alphabet(tuple(g for g in self.generators if g != name))


def _check_codes(alphabet: Alphabet, codes: Sequence[int]) -> None:
    bound = 2 * len(alphabet)
    for c in codes:
        if type(c) is not int or not 0 <= c < bound:
            raise AlphabetError(f"letter code {c!r} out of range for {alphabet.generators}")


@dataclass(frozen=True, slots=True, eq=False)
class FreeWord:
    """A freely reduced word; the empty sequence is the identity.  Equal words
    have equal letters, so the hash reads only those."""

    alphabet: Alphabet
    letters: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.letters, tuple):
            object.__setattr__(self, "letters", tuple(self.letters))
        _check_codes(self.alphabet, self.letters)
        if any(a == b ^ 1 for a, b in zip(self.letters, self.letters[1:])):
            raise ValueError("FreeWord must be freely reduced; use reduce()")

    def __eq__(self, other) -> bool:
        if other.__class__ is not FreeWord:
            return NotImplemented
        return self.letters == other.letters and self.alphabet is other.alphabet

    def __hash__(self) -> int:
        return hash(self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def __repr__(self) -> str:
        return f"FreeWord({word_to_text(self)!r})"


_SET_WORD_ALPHABET = FreeWord.alphabet.__set__
_SET_WORD_LETTERS = FreeWord.letters.__set__


def _word(alphabet: Alphabet, letters: tuple[int, ...]) -> FreeWord:
    """Trusted constructor: ``letters`` must already be freely reduced
    letter codes of ``alphabet``."""
    w = object.__new__(FreeWord)
    _SET_WORD_ALPHABET(w, alphabet)
    _SET_WORD_LETTERS(w, letters)
    return w


def empty_word(alphabet: Alphabet) -> FreeWord:
    return _word(alphabet, ())


def generator(alphabet: Alphabet, name: str, sign: int = 1) -> FreeWord:
    return FreeWord(alphabet, (letter(alphabet.index(name), sign),))


def reduce(alphabet: Alphabet, raw: Sequence[int]) -> FreeWord:
    """Freely reduce a raw sequence of letter codes.  Idempotent."""
    _check_codes(alphabet, raw)
    return _reduce(alphabet, raw)


def _reduce(alphabet: Alphabet, letters: Iterable[int]) -> FreeWord:
    """``reduce`` for letters already known to be codes of ``alphabet``."""
    stack: list[int] = []
    for c in letters:
        if stack and stack[-1] == c ^ 1:
            stack.pop()
        else:
            stack.append(c)
    return _word(alphabet, tuple(stack))


def _require_same_alphabet(u: FreeWord, v: FreeWord) -> None:
    """Raise for two words over different alphabets; callers test ``is not`` first."""
    raise AlphabetError(f"alphabet mismatch: {u.alphabet.generators} vs {v.alphabet.generators}")


def multiply(u: FreeWord, v: FreeWord) -> FreeWord:
    if u.alphabet is not v.alphabet:
        _require_same_alphabet(u, v)
    ul, vl = u.letters, v.letters
    if not vl:
        return u
    if not ul:
        return v
    # both factors are reduced, so letters can only cancel at the junction
    i, j, n = len(ul), 0, len(vl)
    while i and j < n and ul[i - 1] == vl[j] ^ 1:
        i, j = i - 1, j + 1
    return _word(u.alphabet, ul[:i] + vl[j:])


def shortlex_key(u: FreeWord) -> tuple[int, tuple[int, ...]]:
    """Sort key ordering words by length, then letter by letter."""
    return (len(u.letters), u.letters)


def product(alphabet: Alphabet, words: Iterable[FreeWord]) -> FreeWord:
    acc = empty_word(alphabet)
    for w in words:
        acc = multiply(acc, w)
    return acc


def _inverse_letters(letters: tuple[int, ...]) -> tuple[int, ...]:
    return tuple([c ^ 1 for c in reversed(letters)])


def invert(u: FreeWord) -> FreeWord:
    return _word(u.alphabet, _inverse_letters(u.letters))


def conjugate(u: FreeWord, v: FreeWord) -> FreeWord:
    """u v u^-1, reduced.  Left action: conjugate(uw, v) == conjugate(u, conjugate(w, v))."""
    if u.alphabet is not v.alphabet:
        _require_same_alphabet(u, v)
    ul, vl = u.letters, v.letters
    if not ul:
        return v
    n, m = len(ul), len(vl)
    # u v = ul[:i] vl[j:]: the tail of u cancels against the head of v
    i, j = n, 0
    while i and j < m and ul[i - 1] == vl[j] ^ 1:
        i, j = i - 1, j + 1
    # (u v) u^-1: the tail of u v cancels against the head of u^-1, which is
    # u read from its end; first the surviving part of v, then that of u
    e, k = m, n
    while e > j and k and vl[e - 1] == ul[k - 1]:
        e, k = e - 1, k - 1
    if e == j:
        while i and k and ul[i - 1] == ul[k - 1]:
            i, k = i - 1, k - 1
    return _word(u.alphabet, ul[:i] + vl[j:e] + _inverse_letters(ul[:k]))


def exponent_sum(u: FreeWord, x: str | int) -> int:
    idx = u.alphabet.index(x) if isinstance(x, str) else x
    if not 0 <= idx < len(u.alphabet):
        raise AlphabetError(f"letter index {idx} out of range")
    return u.letters.count(2 * idx + 1) - u.letters.count(2 * idx)


def abelianize(u: FreeWord) -> tuple[int, ...]:
    counts = [0] * len(u.alphabet)
    for c in u.letters:
        counts[c >> 1] += 1 if c & 1 else -1
    return tuple(counts)


@functools.cache
def _rename_table(source: Alphabet, target: Alphabet) -> tuple[tuple[int | None, ...], bool]:
    """The code of the same-named target letter for every source code (None
    where the target lacks the name), and whether that map is total."""
    names = target.generators
    table = tuple(
        2 * names.index(name) + bit if name in names else None
        for name in source.generators
        for bit in (0, 1)
    )
    return table, None not in table


def embed(u: FreeWord, big: Alphabet) -> FreeWord:
    """Reinterpret u over a larger alphabet (identity on shared names)."""
    table, total = _rename_table(u.alphabet, big)
    if not total:
        raise AlphabetError(
            f"cannot embed: {u.alphabet.generators} is not a subset of {big.generators}"
        )
    return _word(big, tuple(map(table.__getitem__, u.letters)))


def restrict(u: FreeWord, small: Alphabet) -> FreeWord:
    """Reinterpret u over a smaller alphabet holding every generator u uses;
    the inverse of ``embed``."""
    table, _ = _rename_table(u.alphabet, small)
    letters = tuple(map(table.__getitem__, u.letters))
    if None in letters:
        raise AlphabetError(
            f"cannot restrict: {word_to_text(u)!r} uses a generator outside {small.generators}"
        )
    return _word(small, letters)


# --- textual syntax ---------------------------------------------------------


def parse_letters(alphabet: Alphabet, text: str) -> tuple[int, ...]:
    letters = []
    for token in text.split():
        if token == "1":
            continue
        if token.endswith("^-1"):
            name, bit = token[:-3], 0
        elif "^" in token:
            raise WordSyntaxError(f"bad token {token!r} (only ^-1 exponents are supported)")
        else:
            name, bit = token, 1
        letters.append(2 * alphabet.index(name) + bit)
    return tuple(letters)


def word_from_text(alphabet: Alphabet, text: str) -> FreeWord:
    return reduce(alphabet, parse_letters(alphabet, text))


def monoid_word_from_text(alphabet: Alphabet, text: str) -> FreeWord:
    """A word of positive letters, which is freely reduced as it stands."""
    letters = parse_letters(alphabet, text)
    if any(letter_sign(c) < 0 for c in letters):
        raise WordSyntaxError("inverse letters are not allowed here")
    return _word(alphabet, letters)


def letters_to_text(alphabet: Alphabet, letters: Sequence[int]) -> str:
    if not letters:
        return "1"
    names = alphabet.generators
    return " ".join(names[c >> 1] if c & 1 else f"{names[c >> 1]}^-1" for c in letters)


def word_to_text(u: FreeWord) -> str:
    return letters_to_text(u.alphabet, u.letters)


# --- sampling (deterministic, for the test batteries) -----------------------
#
# Every sampler in the package draws the values ``randrange`` and ``choice``
# draw on a ``random.Random`` whose ``_randbelow`` uses ``getrandbits`` (the
# plain generator, and every subclass that keeps or overrides
# ``getrandbits``): a value below n is ``getrandbits(n.bit_length())``, drawn
# again until it is below n, and ``choice(seq)`` is ``seq`` at such a value
# below ``len(seq)``.  The samplers run that loop on ``getrandbits`` directly,
# so they give the same values, in the same order, and leave the generator in
# the same state as the ``randrange`` and ``choice`` calls they stand for,
# without the Python frames each of those runs around its one C call.
# ``random()`` is drawn as it is.


def _below(bits, n: int) -> int:
    """``randrange(n)`` of the generator whose ``getrandbits`` is ``bits``."""
    if n < 1:
        raise ValueError(f"empty range: nothing to draw below {n}")
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def _random_codes(bits, size: int, max_len: int) -> list[int]:
    """The raw letter codes of a random word over ``size`` generators: a count
    below ``max_len + 1``, then for each letter a generator below ``size`` and
    a sign, drawn as ``randrange(size)`` and ``choice((1, -1))`` draw them.
    The two rejection loops are inlined, since a call per draw would cost
    what drawing from ``bits`` saves."""
    count = _below(bits, max_len + 1)
    if count and size < 1:
        raise ValueError("empty range: no generator to draw a letter from")
    k = size.bit_length()
    codes = []
    for _ in range(count):
        g = bits(k)
        while g >= size:
            g = bits(k)
        s = bits(2)
        while s >= 2:
            s = bits(2)
        codes.append(2 * g + 1 - s)  # choice((1, -1)) is +1 at s == 0
    return codes


def random_word(alphabet: Alphabet, rng, max_len: int = 6) -> FreeWord:
    """Up to ``max_len`` letters, each a generator then a sign, freely
    reduced."""
    return _reduce(alphabet, _random_codes(rng.getrandbits, len(alphabet), max_len))
