import itertools
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

import reference_groups as ref
from conftest import CROSS_CHECK_SPECS, EXTRA_SPECS
from reference_kcomplex import conjugate
from stabring import _kernels
from stabring.groups import (FiniteGroup, GroupError, cyclic_group,
                             enumerate_subgroups, load_group, max_order, perm_group,
                             product_group)
from stabring.kcomplex import _group_tables


def brute_force_subgroups(G):
    """Independent oracle: closure test over all element subsets (tiny groups)."""
    subs = set()
    for size in range(1, G.order + 1):
        for cand in itertools.combinations(range(G.order), size):
            s = set(cand)
            if 0 not in s:
                continue
            closed = all(int(G.table[a, b]) in s for a in s for b in s) and \
                all(int(G.inverse[a]) in s for a in s)
            if closed:
                subs.add(frozenset(s))
    return subs


def test_cyclic_order_two():
    G = load_group({"kind": "cyclic", "order": 2})
    assert G.order == 2
    assert G.identity == 0
    assert int(G.table[1, 1]) == 0


def test_explicit_cayley_table_accepted():
    table = [[(i + j) % 3 for j in range(3)] for i in range(3)]
    G = load_group({"kind": "cayley", "table": table, "name": "C3-explicit"})
    assert G.order == 3 and G.inverse[1] == 2
    assert G.name == "C3-explicit"


def test_nonassociative_table_rejected_with_triple():
    # row/column 0 is the identity but 1*(1*1) != (1*1)*1
    table = [[0, 1, 2], [1, 0, 0], [2, 0, 1]]
    with pytest.raises(GroupError, match=r"not associative.*\("):
        load_group({"kind": "cayley", "table": table})


def test_identity_must_be_element_zero():
    table = [[1, 0], [0, 1]]
    with pytest.raises(GroupError, match="identity"):
        load_group({"kind": "cayley", "table": table})


def test_perm_generators_give_order_six():
    G = load_group({"kind": "perm", "generators": [[[1, 2]], [[1, 2, 3]]]})
    assert G.order == 6
    assert not G.is_abelian


def test_perm_closure_cap(monkeypatch):
    # 3000 B fits the 24 B/triple associativity check of order 5 and no more
    monkeypatch.setattr(_kernels, "memory_budget", lambda: 24 * 5 ** 3)
    with pytest.raises(GroupError, match="permutation closure size 6 is over 5"):
        perm_group([[[1, 2]], [[1, 2, 3, 4, 5]]])


def test_max_order_is_the_largest_order_that_fits(monkeypatch):
    for k in (1, 2, 5, 100, 678):
        for budget, want in ((24 * k ** 3, k), (24 * k ** 3 - 1, k - 1)):
            monkeypatch.setattr(_kernels, "memory_budget", lambda b=budget: b)
            assert max_order() == want, budget


def test_load_group_refuses_orders_over_the_memory_budget(monkeypatch):
    # the associativity check of order 100 needs 24 B x 100^3, just this budget
    monkeypatch.setattr(_kernels, "memory_budget", lambda: 24 * 100 ** 3)
    assert load_group({"kind": "cyclic", "order": 100}).order == 100
    c10 = {"kind": "cyclic", "order": 10}
    assert load_group({"kind": "product", "factors": [c10, c10]}).order == 100
    c101 = [[(i + j) % 101 for j in range(101)] for i in range(101)]
    for spec in ({"kind": "cyclic", "order": 120},
                 {"kind": "product", "factors": [c10, {"kind": "cyclic", "order": 12}]},
                 {"kind": "perm", "generators": [[[1, 2]], [[1, 2, 3, 4, 5]]]},
                 {"kind": "cayley", "table": c101}):
        tracemalloc.start()
        try:
            with pytest.raises(GroupError, match="memory budget of 22.9 MiB"):
                load_group(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # refused before an order^2 table, let alone the order^3 check, exists
        assert peak < 2 ** 16, (spec["kind"], peak)


def test_product_identity_packing():
    G = load_group({"kind": "product", "factors": [{"kind": "cyclic", "order": 2},
                                                   {"kind": "cyclic", "order": 3}]})
    assert G.order == 6
    assert G.is_abelian
    assert int(G.table[0, 5]) == 5


def test_conjugate_by_identity_and_abelian():
    G = cyclic_group(6)
    for x in range(G.order):
        assert conjugate(G, x, 0) == x
        for y in range(G.order):
            assert conjugate(G, x, y) == x
            assert G.commutator(x, y) == 0


def test_s3_conjugation_moves_transpositions():
    # independent oracle: compose permutations by hand
    G = perm_group([[[1, 2]], [[1, 2, 3]]])
    elems = sorted({tuple(p) for p in _all_perms(3)})
    idx = {p: i for i, p in enumerate(elems)}

    def compose(p, q):  # p then q, matching table[a,b] = a*b with left-to-right action
        return tuple(q[p[i]] for i in range(3))

    transpositions = [p for p in elems if sorted(p) == [0, 1, 2] and _n_fixed(p) == 1]
    three_cycles = [p for p in elems if _n_fixed(p) == 0]
    comm, conj_table = _group_tables(G)  # the tables the complex is built from
    for t in transpositions:
        for c in three_cycles:
            conj = conjugate(G, idx[t], idx[c])
            assert conj_table[idx[t], idx[c]] == conj
            assert comm[idx[t], idx[c]] == G.commutator(idx[t], idx[c])
            expect = compose(compose(_inv_perm(c), t), c)
            assert conj == idx[expect]
            assert elems[conj] in transpositions


def _all_perms(n):
    return itertools.permutations(range(n))


def _n_fixed(p):
    return sum(1 for i, v in enumerate(p) if i == v)


def _inv_perm(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def test_s3_commutator_of_transpositions_is_three_cycle():
    G = perm_group([[[1, 2]], [[1, 2, 3]]])
    elems = sorted({tuple(p) for p in _all_perms(3)})
    transpositions = [i for i, p in enumerate(elems) if _n_fixed(p) == 1]
    a, b = transpositions[0], transpositions[1]
    comm = G.commutator(a, b)
    assert _n_fixed(elems[comm]) == 0  # a 3-cycle


@given(st.data())
def test_conjugation_round_trip(data):
    G = perm_group([[[1, 2]], [[1, 2, 3]]])
    x = data.draw(st.integers(0, G.order - 1))
    y = data.draw(st.integers(0, G.order - 1))
    assert conjugate(G, conjugate(G, x, y), int(G.inverse[y])) == x


@given(st.data())
def test_commutator_trivial_iff_commuting(data):
    G = perm_group([[[1, 2]], [[1, 2, 3]]])
    x = data.draw(st.integers(0, G.order - 1))
    y = data.draw(st.integers(0, G.order - 1))
    assert (G.commutator(x, y) == 0) == (G.table[x, y] == G.table[y, x])


def test_subgroups_of_order_two_group():
    G = cyclic_group(2)
    assert [len(s.elements) for s in enumerate_subgroups(G)] == [1, 2]


def test_subgroups_of_klein_four():
    G = product_group(cyclic_group(2), cyclic_group(2))
    subs = enumerate_subgroups(G)
    assert len(subs) == 5
    assert {frozenset(s.elements) for s in subs} == brute_force_subgroups(G)


def test_subgroups_of_s3():
    G = perm_group([[[1, 2]], [[1, 2, 3]]])
    subs = enumerate_subgroups(G)
    assert len(subs) == 6
    assert {frozenset(s.elements) for s in subs} == brute_force_subgroups(G)
    for s in subs:  # Lagrange
        assert G.order % len(s.elements) == 0
        assert isinstance(s.group, FiniteGroup)


def test_malformed_specs_name_the_field():
    with pytest.raises(GroupError, match="'order'"):
        load_group({"kind": "cyclic"})
    for order in ("3", 2.0, True):
        with pytest.raises(GroupError, match="'order' must be an integer"):
            load_group({"kind": "cyclic", "order": order})
    for kind, name in (("perm", "'generators'"), ("product", "'factors'"),
                       ("cayley", "'table'")):
        with pytest.raises(GroupError, match=name):
            load_group({"kind": kind})
    for gens in ([[["a", "b"]]], [[[1.0, 2]]], [[1, 2]], "(1 2)", [[[1, True]]]):
        with pytest.raises(GroupError, match="'generators' must be"):
            load_group({"kind": "perm", "generators": gens})
    for gens in ([[[]]], [[[1, 2], []]]):
        with pytest.raises(GroupError, match=r"bad cycle \[\]"):
            load_group({"kind": "perm", "generators": gens})
    for table in ([[0, 1], [1, 0.5]], [[0, 1], [1, 0.0]], [[0, True], [True, 0]],
                  [[0, 1], [1, "0"]], "01/10", [0, 1]):
        with pytest.raises(GroupError, match="'table' must be a list of rows of integers"):
            load_group({"kind": "cayley", "table": table})
    for table in ([], [[0, 1], [1]]):
        with pytest.raises(GroupError, match="nonempty square"):
            load_group({"kind": "cayley", "table": table})
    for factors in ([], {"kind": "cyclic", "order": 2}, 2):
        with pytest.raises(GroupError, match="'factors' must be"):
            load_group({"kind": "product", "factors": factors})


def test_subgroup_enumeration_cap():
    with pytest.raises(GroupError, match="capped"):
        enumerate_subgroups(cyclic_group(17))


def test_subgroup_closure():
    G = perm_group([[[1, 2]], [[1, 2, 3]]])
    assert ref.subgroup_closure(G, []) == frozenset({0})
    assert len(ref.subgroup_closure(G, range(G.order))) == 6


@pytest.mark.parametrize("name", CROSS_CHECK_SPECS)
def test_subgroups_match_the_closure_loop_reference(name):
    # same subgroups in the same order, with equal re-indexed tables: the
    # array enumeration and _restrict against the closure and restriction loops
    G = load_group(CROSS_CHECK_SPECS[name])
    subs, want = enumerate_subgroups(G), ref.enumerate_subgroups(G)
    assert [s.elements for s in subs] == [s.elements for s in want]
    for s, w in zip(subs, want):
        assert np.array_equal(s.group.table, w.group.table), s.elements
        assert np.array_equal(s.group.inverse, w.group.inverse), s.elements
        assert s.group.name == w.group.name


@pytest.mark.parametrize("name", ["D4", "Q8", "A4"])
def test_subgroups_match_brute_force(name):
    G = load_group(EXTRA_SPECS[name])
    assert {frozenset(s.elements) for s in enumerate_subgroups(G)} == brute_force_subgroups(G)


def test_subgroups_of_c2_4_are_pinned():
    # too many subsets for brute force: 1 trivial subgroup, 15 of order 2,
    # 35 of order 4, 15 of order 8 and the group itself
    subs = enumerate_subgroups(load_group(CROSS_CHECK_SPECS["C2^4"]))
    assert len(subs) == 67
    assert Counter(len(s.elements) for s in subs) == {1: 1, 2: 15, 4: 35, 8: 15, 16: 1}


def test_missing_inverse_is_named():
    # a unital, associative monoid table ({0, 1} under max) has no inverse of 1
    with pytest.raises(GroupError, match="element 1 has no two-sided inverse"):
        load_group({"kind": "cayley", "table": [[0, 1], [1, 1]]})
