"""Value semantics of the slotted word, symbol, sequence, move and
certificate types, and the signed relator table of a presentation.

Each type has a trusted constructor that sets its slots directly; its
instances must be indistinguishable from the validated public ones.  The
types carry no ``__dict__``, so nothing can be cached on an instance.
"""
import dataclasses

import pytest

from asphere.fixtures import load_fixtures
from asphere.peiffer import (
    Certificate,
    Move,
    MoveKind,
    YSequence,
    YSymbol,
    _move,
    _sequence,
    _symbol,
    certificate_from_json,
    certificate_to_json,
    scramble,
    search_trivialization,
)
from asphere.words import FreeWord, _word, invert, word_from_text

FIXTURES = load_fixtures()
SYM3 = FIXTURES.presentations["sym3"]
WORD = word_from_text(SYM3.alphabet, "a b^-1")


def _trusted_and_public_pairs():
    """(type, trusted instance, public instance) for each slotted type."""
    sym = YSymbol("r1", WORD, -1)
    d, _ = scramble(SYM3, seed=3, k=3)
    cert = search_trivialization(d)
    assert cert.moves
    return [
        (FreeWord, _word(SYM3.alphabet, WORD.letters), FreeWord(SYM3.alphabet, WORD.letters)),
        (YSymbol, _symbol("r1", WORD, -1), sym),
        (YSequence, _sequence(SYM3, (sym, sym.inverse())), YSequence(SYM3, (sym, sym.inverse()))),
        (Move, _move(MoveKind.INSERT, 1, sym), Move(MoveKind.INSERT, 1, sym)),
        # the search builds its moves with the trusted constructor; the JSON
        # reader builds them with the public one
        (Certificate, cert, certificate_from_json(SYM3, certificate_to_json(cert))),
    ]


PAIRS = _trusted_and_public_pairs()
IDS = [cls.__name__ for cls, _, _ in PAIRS]


@pytest.mark.parametrize("cls,trusted,public", PAIRS, ids=IDS)
def test_trusted_instance_equals_and_hashes_like_the_public_one(cls, trusted, public):
    assert type(trusted) is cls and type(public) is cls
    assert trusted == public and hash(trusted) == hash(public)
    assert repr(trusted) == repr(public)


@pytest.mark.parametrize("cls,trusted,public", PAIRS, ids=IDS)
def test_assignment_raises(cls, trusted, public):
    field = dataclasses.fields(cls)[0].name
    for obj in (trusted, public):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, field, getattr(obj, field))


@pytest.mark.parametrize("cls,trusted,public", PAIRS, ids=IDS)
def test_no_instance_dict(cls, trusted, public):
    for obj in (trusted, public):
        assert not hasattr(obj, "__dict__")
        with pytest.raises(AttributeError):
            object.__setattr__(obj, "_cache", None)


@pytest.mark.parametrize("name", sorted(FIXTURES.presentations))
def test_signed_relator_table(name):
    gp = FIXTURES.presentations[name]
    for rel in gp.relator_names:
        assert gp.signed_relator(rel, 1) == gp.relator(rel)
        assert gp.signed_relator(rel, -1) == invert(gp.relator(rel))


def test_unknown_signed_relator_raises_like_relator():
    with pytest.raises(KeyError) as plain:
        SYM3.relator("nope")
    for sign in (1, -1):
        with pytest.raises(KeyError) as signed:
            SYM3.signed_relator("nope", sign)
        assert str(signed.value) == str(plain.value)
