import pytest
from hypothesis import strategies as st

from asphere.presentations import parse
from asphere.words import Alphabet, letter


@pytest.fixture
def ab():
    return Alphabet(("a", "b"))


@pytest.fixture
def klein():
    return parse("group klein\ngens a b\nrel r = a b a b^-1\n")


@pytest.fixture
def c3():
    return parse("group c3\ngens a\nrel r = a a a\n")


@pytest.fixture
def sym3():
    return parse(
        "group sym3\ngens a b\nrel r1 = a a\nrel r2 = b b\nrel r3 = a b a b a b\n"
    )


def raw_letters(n_gens: int, max_len: int = 10):
    return st.lists(
        st.tuples(st.integers(0, n_gens - 1), st.sampled_from((1, -1))).map(
            lambda t: letter(*t)
        ),
        max_size=max_len,
    )
