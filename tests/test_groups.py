import itertools
import tracemalloc

import numpy as np
import pytest

from qchar.errors import (
    InvalidElementError,
    InvalidSubgroupError,
    NotAHomomorphismError,
    NotAnAutomorphismError,
    SizeLimitError,
)
from qchar.groups import (
    Automorphism,
    FiniteAbelianGroup,
    GroupHom,
    Subgroup,
    _add,
    _subgroup_elements,
    adjoint,
    all_subgroups,
    annihilator,
    element_order,
    generating_set,
    groups_up_to_order,
    is_corwin,
    multiplication_map,
    pairing,
    phase_matrix,
    primary_component,
    structural_predicates,
)
from qchar.scenarios import run_inspect


def test_coords_index_round_trip():
    g = FiniteAbelianGroup((2, 3, 4))
    for i in range(g.order):
        assert g.index(g.coords(i)) == i


def test_arithmetic_reduces_mod_orders():
    g = FiniteAbelianGroup((4, 6))
    assert g.add((3, 5), (2, 2)) == (1, 1)
    assert g.neg((1, 0)) == (3, 0)
    assert g.reduce_coords((-1, 7)) == (3, 1)


def test_order_rank_exponent():
    g = FiniteAbelianGroup((2, 4, 3))
    assert g.order == 24
    assert g.rank == 3
    assert g.exponent == 12


def test_invalid_orders_rejected():
    with pytest.raises(Exception):
        FiniteAbelianGroup((0, 3))
    with pytest.raises(SizeLimitError):
        FiniteAbelianGroup((5000,))


def test_element_validation():
    g = FiniteAbelianGroup((5,))
    with pytest.raises(InvalidElementError):
        g.element((1, 2))


def test_pairing_is_bilinear_character():
    g = FiniteAbelianGroup((3, 4))
    for x in [(1, 0), (2, 3), (0, 1)]:
        for y in [(1, 1), (2, 2)]:
            for z in [(0, 3), (1, 2)]:
                lhs = pairing(g, x, g.add(y, z))
                rhs = pairing(g, x, y) * pairing(g, x, z)
                assert abs(lhs - rhs) < 1e-12


def test_subgroup_generation_and_membership():
    g = FiniteAbelianGroup((12,))
    s = Subgroup.from_generators(g, [(4,)])
    assert s.order == 3
    assert s.contains((8,))
    assert not s.contains((2,))


def test_subgroup_must_be_closed():
    g = FiniteAbelianGroup((4,))
    with pytest.raises(InvalidSubgroupError):
        Subgroup(g, (0, 1))


def test_annihilator_involution_and_size():
    g = FiniteAbelianGroup((2, 4))
    for s in all_subgroups(g):
        a = annihilator(g, s)
        assert s.order * a.order == g.order
        back = annihilator(g, a)
        assert set(back.coords_list()) == set(s.coords_list())


def test_hom_from_matrix_and_kernel():
    g = FiniteAbelianGroup((4, 4))
    h = GroupHom.from_matrix(g, g, [[2, 0], [0, 1]])
    assert h((1, 1)) == (2, 1)
    assert h.kernel().order == 2
    assert not h.is_bijective


def test_matrix_must_respect_orders():
    a = FiniteAbelianGroup((2,))
    b = FiniteAbelianGroup((3,))
    # the only hom Z2 -> Z3 is zero; sending 1 to 1 is not additive
    with pytest.raises(Exception):
        GroupHom.from_matrix(a, b, [[1]])


def test_automorphism_inverse():
    g = FiniteAbelianGroup((5,))
    a = Automorphism.multiplication(g, 2)
    inv = a.inverse()
    for x in g.elements():
        assert inv(a(x)) == x


def test_non_bijective_rejected_as_automorphism():
    g = FiniteAbelianGroup((4,))
    with pytest.raises(NotAnAutomorphismError):
        Automorphism.multiplication(g, 2)


def test_adjoint_satisfies_pairing_identity():
    g = FiniteAbelianGroup((3, 9))
    h = GroupHom.from_matrix(g, g, [[2, 0], [3, 4]])
    hs = adjoint(h)
    for x in [(1, 2), (2, 7), (0, 4)]:
        for y in [(1, 1), (2, 8)]:
            assert abs(pairing(g, h(x), y) - pairing(g, x, hs(y))) < 1e-12


def test_adjoint_of_multiplication_is_multiplication():
    g = FiniteAbelianGroup((7,))
    h = multiplication_map(g, 3)
    hs = adjoint(h)
    for x in g.elements():
        assert hs(x) == h(x)


def test_corwin_detection():
    assert is_corwin(FiniteAbelianGroup((3, 5)))
    assert not is_corwin(FiniteAbelianGroup((2, 3)))
    g = FiniteAbelianGroup((12,))
    assert is_corwin(Subgroup.from_generators(g, [(4,)]))  # order 3
    assert not is_corwin(Subgroup.from_generators(g, [(6,)]))  # order 2


def test_structural_predicates():
    p = structural_predicates(FiniteAbelianGroup((2, 3)))
    assert p["has_order_two_elements"]
    assert not p["unique_division_by_2"]
    q = structural_predicates(FiniteAbelianGroup((9,)))
    assert not q["has_order_two_elements"]
    assert q["unique_division_by_2"]


def test_element_order():
    g = FiniteAbelianGroup((4, 6))
    assert element_order(g, (2, 3)) == 2
    assert element_order(g, (1, 1)) == 12
    assert element_order(g, (0, 0)) == 1


def test_primary_component():
    g = FiniteAbelianGroup((12,))
    p2 = primary_component(g, 2)
    p3 = primary_component(g, 3)
    assert p2.order == 4
    assert p3.order == 3


def test_generating_set_regenerates():
    g = FiniteAbelianGroup((2, 4))
    for s in all_subgroups(g):
        gens = [g.coords(i) for i in generating_set(s)]
        regen = Subgroup.from_generators(g, gens) if gens else Subgroup.trivial(g)
        assert set(regen.coords_list()) == set(s.coords_list())


def test_all_subgroups_counts():
    # cyclic: one subgroup per divisor
    assert len(all_subgroups(FiniteAbelianGroup((12,)))) == 6
    # Klein four group: trivial, three order-2, full
    assert len(all_subgroups(FiniteAbelianGroup((2, 2)))) == 5


def test_groups_up_to_order_catalogue():
    gs = groups_up_to_order(8)
    sigs = sorted(g.orders for g in gs)
    # one entry per isomorphism class, orders 2..8
    assert (2, 2, 2) in sigs
    assert (2, 4) in sigs
    assert (8,) in sigs
    assert len([s for s in sigs if int(np.prod(s)) == 4]) == 2


# -- index arithmetic against exhaustive references ------------------------------


def test_add_matches_coordinate_addition_on_all_pairs():
    for g in groups_up_to_order(32):
        idx = np.arange(g.order)
        ref = np.array([[g.index(g.add(g.coords(x), g.coords(y))) for y in idx] for x in idx])
        assert np.array_equal(_add(g, idx[:, None], idx[None, :]), ref), g.orders
        assert int(_add(g, 1, g.order - 1)) == g.index(g.add(g.coords(1), g.coords(g.order - 1)))


def _additive(source, target, table):
    """All-pairs reference: table[x + y] == table[x] + table[y] for every pair."""
    return all(_pair_additive(source, target, table, a, b)
               for a in range(source.order) for b in range(source.order))


def _pair_additive(source, target, table, a, b):
    lhs = table[source.index(source.add(source.coords(a), source.coords(b)))]
    return lhs == target.index(target.add(target.coords(table[a]), target.coords(table[b])))


@pytest.mark.parametrize("orders", [((4,), (4,)), ((2, 2), (2, 2)), ((4,), (2, 2)), ((3,), (9,))],
                         ids=str)
def test_hom_accepts_exactly_the_additive_tables(orders):
    source, target = FiniteAbelianGroup(orders[0]), FiniteAbelianGroup(orders[1])
    accepted = 0
    for table in itertools.product(range(target.order), repeat=source.order):
        table = np.asarray(table)
        expected = _additive(source, target, table)
        try:
            GroupHom(source, target, table)
        except NotAHomomorphismError as exc:
            assert not expected, table
            a, b = exc.witness
            assert not _pair_additive(source, target, table, a, b), (table, exc.witness)
        else:
            assert expected, table
            accepted += 1
    # Hom(Z_m, Z_n) has gcd(m, n) elements, and Hom is additive over products
    assert accepted == {((4,), (4,)): 4, ((2, 2), (2, 2)): 16,
                        ((4,), (2, 2)): 4, ((3,), (9,)): 3}[orders]


@pytest.mark.parametrize("orders", [(8,), (2, 4), (3, 3)], ids=str)
def test_subgroup_accepts_exactly_the_closed_subsets(orders):
    g = FiniteAbelianGroup(orders)
    found, closed_subsets = set(), set()
    for mask in range(1 << (g.order - 1)):
        subset = (0,) + tuple(i for i in range(1, g.order) if mask >> (i - 1) & 1)
        closed = all(g.index(g.add(g.coords(a), g.coords(b))) in subset
                     for a in subset for b in subset)
        if closed:
            closed_subsets.add(subset)
        try:
            Subgroup(g, subset)
        except InvalidSubgroupError:
            assert not closed, subset
        else:
            assert closed, subset
            found.add(subset)
    assert found == closed_subsets
    assert {s.elements for s in all_subgroups(g)} == closed_subsets
    assert set(_subgroup_elements(g)) == closed_subsets


# -- dense references for the closure and the annihilator ---------------------


def _dense_closed(g, elements):
    """K + K inside K, checked on the whole |K| x |K| table of sums."""
    arr = np.asarray(elements, dtype=np.int64)
    member = np.zeros(g.order, dtype=bool)
    member[arr] = True
    return bool(member[_add(g, arr[:, None], arr[None, :])].all())


def _dense_annihilator(g, elements):
    """Every y whose pairing phase is 0 on every given element (all of G for none)."""
    idx = np.asarray(elements, dtype=np.int64)
    if idx.size == 0:
        return tuple(range(g.order))
    phases = phase_matrix(g, idx, np.arange(g.order))
    return tuple(np.flatnonzero((phases == 0).all(axis=0)).tolist())


_ORACLE_GROUPS = [(8,), (2, 4), (3, 3), (2, 2, 2, 2), (4, 6), (27,)]


def _random_subsets(g, count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        size = int(rng.integers(0, g.order + 1))
        yield tuple(int(i) for i in rng.choice(g.order, size=size, replace=False))


@pytest.mark.parametrize("orders", _ORACLE_GROUPS, ids=str)
def test_closure_and_annihilator_from_generators_match_the_dense_ones(orders):
    g = FiniteAbelianGroup(orders)
    subgroups = [s.elements for s in all_subgroups(g)]
    for subset in subgroups + list(_random_subsets(g, 200, seed=g.order)):
        with_zero = tuple(sorted(set(subset) | {0}))
        try:
            Subgroup(g, with_zero)
        except InvalidSubgroupError as exc:
            assert str(exc) == "element set is not closed under addition"
            assert not _dense_closed(g, with_zero), with_zero
        else:
            assert _dense_closed(g, with_zero), with_zero
        assert annihilator(g, subset).elements == _dense_annihilator(g, subset), subset
    for elements in subgroups:
        sub = Subgroup(g, elements)
        assert annihilator(g, sub).elements == _dense_annihilator(g, elements)
        assert annihilator(g, annihilator(g, sub)) == sub


def test_inspect_counts_the_subgroups_of_z2_to_the_sixth():
    assert run_inspect([2] * 6)["details"]["subgroup_count"] == 2825


def test_full_group_closure_allocates_far_below_a_square_table():
    g = FiniteAbelianGroup((16, 16, 16))
    Subgroup.full(g)  # fills the O(|G|) coordinate caches
    tracemalloc.start()
    try:
        sub = Subgroup.full(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sub.order == g.order
    # the |K| x |K| table of sums of the full group takes 4096^2 indices
    assert peak < g.order * g.order // 4


def test_order_4096_multiplication_allocates_far_below_a_square_table():
    g = FiniteAbelianGroup((4096,))
    Automorphism.multiplication(g, 3)  # fills the O(|G|) coordinate caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        hom = Automorphism.multiplication(g, 3)
        del hom
        kept, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    # a |G| x |G| table takes at least |G|^2 bytes (16 MiB here)
    assert peak < g.order * g.order // 64
    assert kept < 1024
