import argparse
import hashlib
import itertools
import json
import random

import pytest

from asphere.actions import (
    FiniteMonoid,
    MonoidError,
    Submonoid,
    all_submonoids,
    dominion,
    enveloping_group_presentation,
    is_inverse_monoid,
    tensor_product,
    tensor_product_naive,
    weak_dominion_membership,
)
from asphere.cli import cmd_monoid_dominion, cmd_monoid_tensor
from asphere.fixtures import monoid_corpus, monoid_to_json
from asphere.partial import Tri
from asphere.presentations import coset_enumeration

Z3 = FiniteMonoid([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
SL3 = FiniteMonoid([[0, 1, 2], [1, 1, 2], [2, 2, 2]])  # chain 1 > e > f
NULL3 = FiniteMonoid([[0, 1, 2], [1, 2, 2], [2, 2, 2]])  # a^2 = 0, 0 absorbing
CYC3 = FiniteMonoid([[0, 1, 2], [1, 2, 1], [2, 1, 2]])  # a^3 = a


def sub(m, elems):
    return Submonoid(m, frozenset(elems))


class TestValidate:
    def test_trivial(self):
        assert FiniteMonoid([[0]]).size == 1

    def test_z2(self):
        assert FiniteMonoid([[0, 1], [1, 0]]).identity == 0

    def test_two_element_semilattice_all_triples(self):
        table = [[0, 1], [1, 1]]
        m = FiniteMonoid(table)
        for x, y, z in itertools.product(range(2), repeat=3):
            assert table[table[x][y]][z] == table[x][table[y][z]]
        assert m.size == 2

    def test_no_identity_rejected(self):
        with pytest.raises(MonoidError):
            FiniteMonoid([[0, 0], [0, 0]])

    def test_non_associative_rejected(self):
        # x*y = x except 1 acts as identity; force (1*2)*2 != 1*(2*2)
        with pytest.raises(MonoidError):
            FiniteMonoid([[0, 1, 2], [1, 1, 2], [2, 1, 1]])

    def test_submonoid_must_be_closed(self):
        with pytest.raises(MonoidError):
            sub(Z3, {0, 1})

    def test_identity_is_found_anywhere(self):
        # meet of the chain 0 < 1 < 2: the top element 2 is the identity
        meet = FiniteMonoid([[0, 0, 0], [0, 1, 1], [0, 1, 2]])
        assert meet.identity == 2
        assert FiniteMonoid(meet.table) == meet

    def test_non_square_rejected(self):
        with pytest.raises(MonoidError, match="square"):
            FiniteMonoid([[0, 1], [1, 0], [1, 1]])
        with pytest.raises(MonoidError, match="square"):
            FiniteMonoid([[0, 1], [1]])

    @pytest.mark.parametrize("bad", (5, -1))
    def test_submonoid_element_out_of_range(self, bad):
        # checked before closure, so neither an index error nor a wrapped index
        with pytest.raises(MonoidError, match=f"element {bad} out of range"):
            sub(Z3, {0, bad})


class TestTensor:
    def test_trivial_submonoid_discrete(self):
        t = tensor_product(sub(Z3, {0}))
        assert t.num_classes == Z3.size * Z3.size

    def test_group_case_collapses_to_group_size(self):
        t = tensor_product(sub(Z3, {0, 1, 2}))
        assert t.num_classes == 3
        assert t.class_id(1, 2) == t.class_id(0, Z3.mul(1, 2))

    def test_semilattice_against_naive_closure(self):
        u = sub(SL3, {0, 1})
        fast = tensor_product(u)
        slow = tensor_product_naive(u)
        assert fast == slow

    def test_trivial_submonoid_discrete_on_a_semilattice(self):
        t = tensor_product(sub(SL3, {0}))
        n = SL3.size
        assert t.num_classes == n * n
        assert len({t.class_id(a, b) for a in range(n) for b in range(n)}) == n * n

    def test_out_of_range_rejected(self):
        t = tensor_product(sub(SL3, {0}))
        with pytest.raises(IndexError):
            t.class_id(5, 0)

    def test_scan_order_independence(self):
        # oracle: same closure computed from shuffled generating pairs
        u = sub(SL3, {0, 1})
        reference = tensor_product(u)
        rng = random.Random(0)
        n = SL3.size
        for _ in range(20):
            pairs = [
                (a, b, s)
                for a in range(n)
                for b in range(n)
                for s in u.sorted_elements
            ]
            rng.shuffle(pairs)
            parent = list(range(n * n))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for a, b, s in pairs:
                ra = find(SL3.table[a][s] * n + b)
                rb = find(a * n + SL3.table[s][b])
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
            labels = {}
            canon = []
            for i in range(n * n):
                r = find(i)
                if r not in labels:
                    labels[r] = len(labels)
                canon.append(labels[r])
            assert tuple(canon) == reference.class_of


class TestDominion:
    def test_identity_always_inside(self):
        assert 0 in dominion(sub(SL3, {0}))

    def test_whole_monoid(self):
        assert dominion(sub(Z3, {0, 1, 2})) == frozenset({0, 1, 2})

    def test_trivial_submonoid(self):
        for m in (Z3, SL3, NULL3, CYC3):
            assert dominion(sub(m, {0})) == frozenset({0})


class TestInverseMonoid:
    def test_groups_are_inverse(self):
        assert is_inverse_monoid(sub(Z3, range(Z3.size)))

    def test_semilattice_is_inverse(self):
        sl2 = FiniteMonoid([[0, 1], [1, 1]])
        assert is_inverse_monoid(sub(sl2, range(sl2.size)))

    def test_null_monoid_is_not(self):
        # a x a stays in {0} for every candidate x, so a has no inverse
        for x in range(3):
            assert NULL3.mul(NULL3.mul(1, x), 1) == 2
        assert not is_inverse_monoid(sub(NULL3, range(NULL3.size)))

    def test_submonoid_restriction(self):
        assert is_inverse_monoid(sub(NULL3, {0, 2}))


class TestAbsoluteClosure:
    def test_inverse_submonoids_are_closed_across_corpus(self):
        for name, m in monoid_corpus().items():
            for u in all_submonoids(m):
                if is_inverse_monoid(u):
                    assert dominion(u) == u.elements, (name, sorted(u.elements))

    def test_union_find_matches_naive_across_corpus(self):
        for name, m in monoid_corpus().items():
            for u in all_submonoids(m):
                fast = tensor_product(u)
                slow = tensor_product_naive(u)
                assert fast == slow, (name, sorted(u.elements))


class TestWeakDominion:
    def test_member_of_u_is_yes(self):
        assert weak_dominion_membership(sub(CYC3, {0, 1, 2}), 1, 100) is Tri.YES

    def test_group_case_outside_subgroup(self):
        # Z/4 as a table; U generated by the square; odd elements are outside
        z4 = FiniteMonoid([[(i + j) % 4 for j in range(4)] for i in range(4)])
        u = sub(z4, {0, 2})
        assert weak_dominion_membership(u, 1, 200) is Tri.NO
        assert weak_dominion_membership(u, 2, 200) is Tri.YES

    def test_three_element_cyclic_monoid(self):
        # envelope collapses the idempotent and leaves one involution,
        # matching the two-coset table built by hand
        gp = enveloping_group_presentation(CYC3)
        assert coset_enumeration(gp, (), 100) == 2
        assert weak_dominion_membership(sub(CYC3, {0}), 1, 100) is Tri.NO
        assert weak_dominion_membership(sub(CYC3, {0}), 0, 100) is Tri.YES

    def test_budget_exhaustion_is_unknown(self):
        assert weak_dominion_membership(sub(CYC3, {0}), 1, 1) is Tri.UNKNOWN

    @pytest.mark.parametrize("bad", (True, 1.0, "1"))
    def test_element_must_be_an_int(self, bad):
        # True used to answer for element 1
        with pytest.raises(MonoidError, match="element must be an int"):
            weak_dominion_membership(sub(CYC3, {0}), bad, 100)

    @pytest.mark.parametrize("budget", (True, 100.0))
    def test_budget_must_be_an_int(self, budget):
        with pytest.raises(ValueError, match="budget"):
            weak_dominion_membership(sub(CYC3, {0}), 1, budget)

    def test_dominion_implies_wdom_not_no(self):
        # Dom(U) is contained in WDom(U): over every submonoid of the whole
        # corpus (128 pairs, 324 dominion elements) the coset enumeration
        # closes within 400 cosets and proves each membership
        pairs = cases = 0
        for name, m in monoid_corpus().items():
            for u in all_submonoids(m):
                pairs += 1
                for d in dominion(u):
                    cases += 1
                    answer = weak_dominion_membership(u, d, 400)
                    assert answer is Tri.YES, (name, sorted(u.elements), d)
        assert (pairs, cases) == (128, 324)


# sha256 of the monoid-layer outputs over the corpus, taken before the tensor
# product lost its act-table parameters; any change of answer or of CLI bytes
# moves it
MONOID_PIN_DIGEST = "54cfb409fa2f5138d9d46cc1890a4724f5be9a4ca56dc1f4ffb09f0d955718f1"


def test_monoid_outputs_are_pinned(tmp_path):
    """``monoid tensor`` and ``monoid dominion`` (code, payload, human) rows
    and ``is_inverse_monoid`` for every submonoid of every corpus monoid, in
    name order."""
    rows = []
    for name, m in sorted(monoid_corpus().items()):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(monoid_to_json(m)))
        for u in all_submonoids(m):
            args = argparse.Namespace(file=str(path), u=",".join(map(str, u.sorted_elements)))
            rows.append(
                [
                    name,
                    list(u.sorted_elements),
                    list(cmd_monoid_tensor(args)),
                    list(cmd_monoid_dominion(args)),
                    is_inverse_monoid(u),
                ]
            )
    assert len(rows) == 128
    blob = json.dumps(rows, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == MONOID_PIN_DIGEST
