import pytest

from asphere.actions import all_submonoids
from asphere.fixtures import (
    PEIFFER_NAMES,
    REDUCIBLE_NAMES,
    FixtureError,
    load_fixtures,
    monoid_corpus,
    monoid_from_json,
    monoid_to_json,
)
from asphere.presentations import is_reducible_lot
from asphere.words import word_to_text


def test_corpus_is_large_enough_and_small():
    corpus = monoid_corpus()
    assert len(corpus) >= 20
    assert all(m.size <= 5 for m in corpus.values())


def test_each_monoid_has_several_submonoids():
    total = sum(len(all_submonoids(m)) for m in monoid_corpus().values())
    assert total > 50


def test_fixture_set_loads():
    fs = load_fixtures()
    assert set(PEIFFER_NAMES) <= set(fs.presentations)
    assert len(fs.peiffer_presentations()) == 5
    assert len(fs.reducible_fixtures()) == 3


def test_loaded_corpus_is_the_built_one_in_name_order():
    monoids = load_fixtures().monoids
    assert list(monoids) == sorted(monoid_corpus())
    assert monoids == monoid_corpus()


def test_monoid_json_round_trip():
    for m in monoid_corpus().values():
        assert monoid_from_json(monoid_to_json(m)) == m


@pytest.mark.parametrize("field,value", (("identity", 1), ("size", 4)))
def test_monoid_json_declaration_must_match_the_table(field, value):
    data = {**monoid_to_json(monoid_corpus()["cyc_1_2"]), field: value}
    with pytest.raises(FixtureError, match=f"declared {field}"):
        monoid_from_json(data)


def test_reducible_fixtures_eliminate_a_single_occurrence_generator():
    fs = load_fixtures()
    for name in REDUCIBLE_NAMES:
        gp = fs.presentations[name]
        assert gp.eliminate == is_reducible_lot(gp) == "x1"


def test_lot_family_shape():
    # relators of the shipped chains follow U x_i U^-1 x_(i+1)^-1
    fs = load_fixtures()
    lot3 = fs.presentations["lot3"]
    assert word_to_text(lot3.relator("r1")) == "x3 x1 x3^-1 x2^-1"
    assert word_to_text(lot3.relator("r2")) == "x3 x2 x3^-1 x3^-1"
    lot4 = fs.presentations["lot4"]
    assert word_to_text(lot4.relator("r1")) == "x2 x3 x1 x3^-1 x2^-1 x2^-1"
    assert word_to_text(lot4.relator("r3")) == "x2 x3 x2^-1 x4^-1"
