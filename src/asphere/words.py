"""Free-group and free-monoid words over named alphabets.

Words are value types: a ``FreeWord`` is stored eagerly reduced, so equality
is plain sequence equality and hashing is free.  Cross-alphabet arithmetic is
an error; moving a word into a larger alphabet is the explicit ``embed``.

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

import re
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


class AlphabetError(ValueError):
    """A letter or word does not belong to the expected alphabet."""


class WordSyntaxError(ValueError):
    """Malformed word text."""


class SignedLetter(NamedTuple):
    letter: int  # index into the alphabet
    sign: int  # +1 or -1


class _InverseLetters(dict):
    """SignedLetter -> its inverse, each built once on first use."""

    def __missing__(self, sl: SignedLetter) -> SignedLetter:
        inv = self[sl] = SignedLetter(sl[0], -sl[1])
        return inv


_INVERSE = _InverseLetters()


@dataclass(frozen=True)
class Alphabet:
    """Ordered tuple of distinct generator names.

    The order is observable and used for deterministic tie-breaking.
    """

    generators: tuple[str, ...]

    def __post_init__(self):
        if not isinstance(self.generators, tuple):
            object.__setattr__(self, "generators", tuple(self.generators))
        seen = set()
        for name in self.generators:
            if not _IDENT_RE.match(name):
                raise AlphabetError(f"bad generator name {name!r}")
            if name in seen:
                raise AlphabetError(f"duplicate generator {name!r}")
            seen.add(name)

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


def _check_raw(alphabet: Alphabet, raw: Iterable[SignedLetter]) -> list[SignedLetter]:
    out = []
    n = len(alphabet)
    for item in raw:
        letter, sign = item
        if not 0 <= letter < n:
            raise AlphabetError(f"letter index {letter} out of range for {alphabet.generators}")
        if sign not in (1, -1):
            raise AlphabetError(f"sign must be +1 or -1, got {sign}")
        out.append(SignedLetter(letter, sign))
    return out


@dataclass(frozen=True, slots=True)
class FreeWord:
    """A freely reduced word; the empty sequence is the identity."""

    alphabet: Alphabet
    letters: tuple[SignedLetter, ...]

    def __post_init__(self):
        for a, b in zip(self.letters, self.letters[1:]):
            if a.letter == b.letter and a.sign == -b.sign:
                raise ValueError("FreeWord must be freely reduced; use reduce()")

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def __repr__(self) -> str:
        return f"FreeWord({word_to_text(self)!r})"


@dataclass(frozen=True)
class MonoidWord:
    """A word with no reduction applied (letters may carry signs)."""

    alphabet: Alphabet
    letters: tuple[SignedLetter, ...]

    def __len__(self) -> int:
        return len(self.letters)

    def as_free(self) -> FreeWord:
        return reduce(self.alphabet, self.letters)

    def __repr__(self) -> str:
        return f"MonoidWord({letters_to_text(self.alphabet, self.letters)!r})"


_SET_WORD_ALPHABET = FreeWord.alphabet.__set__
_SET_WORD_LETTERS = FreeWord.letters.__set__


def _word(alphabet: Alphabet, letters: tuple[SignedLetter, ...]) -> FreeWord:
    """Trusted constructor: ``letters`` must already be freely reduced
    signed letters of ``alphabet``."""
    w = object.__new__(FreeWord)
    _SET_WORD_ALPHABET(w, alphabet)
    _SET_WORD_LETTERS(w, letters)
    return w


def empty_word(alphabet: Alphabet) -> FreeWord:
    return _word(alphabet, ())


def generator(alphabet: Alphabet, name: str, sign: int = 1) -> FreeWord:
    return FreeWord(alphabet, (SignedLetter(alphabet.index(name), sign),))


def reduce(alphabet: Alphabet, raw: Sequence[SignedLetter]) -> FreeWord:
    """Freely reduce a raw letter sequence.  Idempotent."""
    return _reduce(alphabet, _check_raw(alphabet, raw))


def _reduce(alphabet: Alphabet, letters: Iterable[SignedLetter]) -> FreeWord:
    """``reduce`` for letters already known to be signed letters of
    ``alphabet``."""
    stack: list[SignedLetter] = []
    for sl in letters:
        if stack and stack[-1].letter == sl.letter and stack[-1].sign == -sl.sign:
            stack.pop()
        else:
            stack.append(sl)
    return _word(alphabet, tuple(stack))


def _require_same_alphabet(u: FreeWord, v: FreeWord) -> None:
    if u.alphabet != v.alphabet:
        raise AlphabetError(
            f"alphabet mismatch: {u.alphabet.generators} vs {v.alphabet.generators}"
        )


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
    while i and j < n and ul[i - 1] == _INVERSE[vl[j]]:
        i -= 1
        j += 1
    return _word(u.alphabet, ul[:i] + vl[j:])


def product(alphabet: Alphabet, words: Iterable[FreeWord]) -> FreeWord:
    acc = empty_word(alphabet)
    for w in words:
        acc = multiply(acc, w)
    return acc


def invert(u: FreeWord) -> FreeWord:
    return _word(u.alphabet, tuple(map(_INVERSE.__getitem__, reversed(u.letters))))


def conjugate(u: FreeWord, v: FreeWord) -> FreeWord:
    """u v u^-1, reduced.  Left action: conjugate(uw, v) == conjugate(u, conjugate(w, v))."""
    return multiply(multiply(u, v), invert(u))


def exponent_sum(u: FreeWord, x: str | int) -> int:
    idx = u.alphabet.index(x) if isinstance(x, str) else x
    if not 0 <= idx < len(u.alphabet):
        raise AlphabetError(f"letter index {idx} out of range")
    return sum(s for l, s in u.letters if l == idx)


def abelianize(u: FreeWord) -> tuple[int, ...]:
    counts = [0] * len(u.alphabet)
    for l, s in u.letters:
        counts[l] += s
    return tuple(counts)


class _EmbedTables(dict):
    """(small, big) alphabet pair -> the signed-letter map of ``embed``, each
    built once on first use."""

    def __missing__(self, key: tuple[Alphabet, Alphabet]) -> dict[SignedLetter, SignedLetter]:
        small, big = key
        if not set(small.generators) <= set(big.generators):
            raise AlphabetError(
                f"cannot embed: {small.generators} is not a subset of {big.generators}"
            )
        table = self[key] = {
            SignedLetter(l, s): SignedLetter(big.index(name), s)
            for l, name in enumerate(small.generators)
            for s in (1, -1)
        }
        return table


_EMBED = _EmbedTables()


def embed(u: FreeWord, big: Alphabet) -> FreeWord:
    """Reinterpret u over a larger alphabet (identity on shared names)."""
    return _word(big, tuple(map(_EMBED[u.alphabet, big].__getitem__, u.letters)))


def restrict(u: FreeWord, small: Alphabet) -> FreeWord:
    """Reinterpret u over a smaller alphabet holding every generator u uses;
    the inverse of ``embed``."""
    names = u.alphabet.generators
    try:
        return _word(small, tuple(SignedLetter(small.index(names[l]), s) for l, s in u.letters))
    except AlphabetError:
        raise AlphabetError(
            f"cannot restrict: {word_to_text(u)!r} uses a generator outside {small.generators}"
        ) from None


# --- textual syntax ---------------------------------------------------------


def parse_letters(alphabet: Alphabet, text: str) -> tuple[SignedLetter, ...]:
    letters = []
    for token in text.split():
        if token == "1":
            continue
        if token.endswith("^-1"):
            name, sign = token[:-3], -1
        elif "^" in token:
            raise WordSyntaxError(f"bad token {token!r} (only ^-1 exponents are supported)")
        else:
            name, sign = token, 1
        letters.append(SignedLetter(alphabet.index(name), sign))
    return tuple(letters)


def word_from_text(alphabet: Alphabet, text: str) -> FreeWord:
    return reduce(alphabet, parse_letters(alphabet, text))


def monoid_word_from_text(alphabet: Alphabet, text: str, allow_signs: bool = True) -> MonoidWord:
    letters = parse_letters(alphabet, text)
    if not allow_signs and any(s < 0 for _, s in letters):
        raise WordSyntaxError("inverse letters are not allowed here")
    return MonoidWord(alphabet, letters)


def letters_to_text(alphabet: Alphabet, letters: Sequence[SignedLetter]) -> str:
    if not letters:
        return "1"
    return " ".join(
        alphabet.name(l) if s > 0 else f"{alphabet.name(l)}^-1" for l, s in letters
    )


def word_to_text(u: FreeWord | MonoidWord) -> str:
    return letters_to_text(u.alphabet, u.letters)


# --- sampling (deterministic, for the test batteries) -----------------------


def random_word(alphabet: Alphabet, rng, max_len: int = 6) -> FreeWord:
    n = rng.randrange(max_len + 1)
    raw = [
        SignedLetter(rng.randrange(len(alphabet)), rng.choice((1, -1))) for _ in range(n)
    ]
    return _reduce(alphabet, raw)
