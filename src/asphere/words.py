"""Free-group and free-monoid words over named alphabets.

Words are value types: a ``FreeWord`` is stored eagerly reduced, so equality
and hashing read its letters.  A free-monoid word is a ``FreeWord`` of
positive letters, which is reduced as it stands.  Cross-alphabet arithmetic
is an error; moving a word into a larger alphabet is the explicit ``embed``.

A letter is one int: generator ``i`` is ``2*i + 1`` and its inverse ``2*i``, so
the inverse of code ``c`` is ``c ^ 1``.  A word's ``letters`` are a ``bytes``
string of those codes, so an alphabet holds at most ``MAX_GENERATORS`` (128)
generators.  Indexing and iteration yield the int codes, and bytes sort
exactly as the code tuples, hence as ``(index, sign)`` pairs, do, so every
order built on ``letters`` (symbol keys, insert pools, certificates,
relation-module terms) is that of the pairs.  Inversion and renaming are one
``translate`` each, and bytes cache their hash.  Only this module knows the
format; others use ``letter``, ``letter_index``, ``letter_sign`` and
``letter_column``.

Validation happens once, at the boundary: the public constructors (``FreeWord``,
``reduce``, the text parsers) check every letter and reject unreduced input.
Results the arithmetic proves reduced, such as the junction-cancelled
concatenation of two reduced factors, the reversal of a reduced word or its
renaming by ``embed`` and ``restrict``, go through the private ``_word``,
which checks nothing and sets the two slots directly; only code that has such
a proof may call it.  ``_reduce`` is the package's one free reduction of a
stream of letters: the boundary of a Y-sequence is such a stream, which
``peiffer`` hands to it, and so is the image of a word under a substitution
(``_substitution``), as the retraction of a word with z.

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
MAX_GENERATORS = 128  # codes 0..255: one byte per letter
_FLIP = bytes(c ^ 1 for c in range(256))  # translate table of letter inversion


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
    At most ``MAX_GENERATORS`` (128) generators, since a letter is one byte.
    """

    generators: tuple[str, ...]

    def __new__(cls, generators: Iterable[str]) -> Alphabet:
        key = tuple(generators)
        self = _ALPHABETS.get(key)
        if self is None:
            if len(key) > MAX_GENERATORS:
                raise AlphabetError(
                    f"{len(key)} generators; an alphabet holds at most {MAX_GENERATORS}"
                )
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
    """A freely reduced word; the empty string is the identity.  ``letters``
    is a ``bytes`` string of letter codes, one byte a letter; any iterable of
    int codes is stored as one.  Equal words have equal letters, so the hash
    reads only those, and bytes compute it once."""

    alphabet: Alphabet
    letters: bytes

    def __post_init__(self):
        letters = self.letters
        if letters.__class__ is not bytes:
            letters = tuple(letters)
        _check_codes(self.alphabet, letters)
        if any(a == b ^ 1 for a, b in zip(letters, letters[1:])):
            raise ValueError("FreeWord must be freely reduced; use reduce()")
        object.__setattr__(self, "letters", bytes(letters))

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


def _word(alphabet: Alphabet, letters: bytes) -> FreeWord:
    """Trusted constructor: ``letters`` must already be freely reduced
    letter codes of ``alphabet``."""
    w = object.__new__(FreeWord)
    _SET_WORD_ALPHABET(w, alphabet)
    _SET_WORD_LETTERS(w, letters)
    return w


def empty_word(alphabet: Alphabet) -> FreeWord:
    return _word(alphabet, b"")


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
    return _word(alphabet, bytes(stack))


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


def shortlex_key(u: FreeWord) -> tuple[int, bytes]:
    """Sort key ordering words by length, then letter by letter."""
    return (len(u.letters), u.letters)


def product(alphabet: Alphabet, words: Iterable[FreeWord]) -> FreeWord:
    acc = empty_word(alphabet)
    for w in words:
        acc = multiply(acc, w)
    return acc


def _inverse_letters(letters: bytes) -> bytes:
    return letters[::-1].translate(_FLIP)


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
def _rename_table(source: Alphabet, target: Alphabet) -> tuple[bytes, bytes, bool]:
    """A ``translate`` table taking every source code whose name the target
    has to the code of the same-named target letter, those source codes, and
    whether they are all of them.  Renaming keeps inverse pairs, so it takes
    reduced words to reduced words."""
    names = target.generators
    table = bytearray(256)
    kept = bytearray()
    for i, name in enumerate(source.generators):
        if name in names:
            for bit in (0, 1):
                table[2 * i + bit] = 2 * names.index(name) + bit
                kept.append(2 * i + bit)
    return bytes(table), bytes(kept), len(kept) == 2 * len(source)


def embed(u: FreeWord, big: Alphabet) -> FreeWord:
    """Reinterpret u over a larger alphabet (identity on shared names)."""
    table, _, total = _rename_table(u.alphabet, big)
    if not total:
        raise AlphabetError(
            f"cannot embed: {u.alphabet.generators} is not a subset of {big.generators}"
        )
    return _word(big, u.letters.translate(table))


def restrict(u: FreeWord, small: Alphabet) -> FreeWord:
    """Reinterpret u over a smaller alphabet holding every generator u uses;
    the inverse of ``embed``."""
    table, kept, _ = _rename_table(u.alphabet, small)
    # deleting the codes small has leaves those it lacks
    if u.letters.translate(None, kept):
        raise AlphabetError(
            f"cannot restrict: {word_to_text(u)!r} uses a generator outside {small.generators}"
        )
    return _word(small, u.letters.translate(table))


def _substitution(big: Alphabet, small: Alphabet, name: str, value: FreeWord) -> tuple:
    """The data ``_substitute`` reads for the homomorphism from the free
    group on ``big`` to that on ``small`` that sends the generator ``name``
    to ``value``, a word over ``small``, and renames every other generator;
    ``small`` must hold exactly those."""
    table, kept, _ = _rename_table(big, small)
    if name in small or len(kept) != 2 * len(big) - 2:
        raise AlphabetError(f"{small.generators} is not {big.generators} without {name!r}")
    i = big.index(name)
    pos, neg = letter(i, 1), letter(i, -1)
    image = embed(value, big).letters
    return small, pos, neg, bytes((pos,)), image, bytes((neg,)), _inverse_letters(image), table


def _substitute(u: FreeWord, substitution: tuple) -> FreeWord:
    """The image of u, a word over the big alphabet, under a
    ``_substitution``: each letter of the substituted generator replaced by
    the value or its inverse, then every letter renamed into the small
    alphabet in one ``translate`` and the result freely reduced.  A word
    without that generator is only renamed, which keeps it reduced."""
    small, pos, neg, pos_letter, image, neg_letter, inverse, table = substitution
    letters = u.letters
    # int operands: ``in`` takes a bytes one only after failing it as an int
    if pos in letters or neg in letters:
        letters = letters.replace(pos_letter, image).replace(neg_letter, inverse)
        return _reduce(small, letters.translate(table))
    return _word(small, letters.translate(table))


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
    return _word(alphabet, bytes(letters))


def word_to_text(u: FreeWord) -> str:
    if not u.letters:
        return "1"
    names = u.alphabet.generators
    return " ".join(names[c >> 1] if c & 1 else f"{names[c >> 1]}^-1" for c in u.letters)


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
