"""Automorphism machinery: vertex maps, full groups, stabilizers, subgroups."""

import pytest

from btcayley.autgroup import (
    VertexMap,
    aut_group,
    generated_subgroup,
    is_automorphism,
    left_translation,
    orbit,
    perm_vertex_map,
    stabilizer_of_identity,
)
from btcayley.blocktrans import make_bt, tn_realizations
from btcayley.graphs import build_cayley, gamma, vertex_set_V
from btcayley.perms import identity, sym_group
from btcayley.toric import apply_dihedral, dihedral_elements


def test_vertex_map_algebra():
    g = gamma(4)
    ms = aut_group(g)
    a, b = ms[1], ms[2]
    ab = a.compose(b)
    for v in range(g.num_vertices):
        assert ab.apply(v) == a.apply(b.apply(v))
    assert a.compose(a.inverse()).is_identity()
    assert a.inverse().compose(a).is_identity()


def test_left_translations_are_cayley_automorphisms():
    g = build_cayley(4, tn_realizations(4))
    for h in sym_group(4)[:8]:
        m = left_translation(g, h)
        assert is_automorphism(g, m)
        assert m.apply_label(identity(4)) == h


# frozen: 2(n+1) graph symmetries, all induced by the toric/reversal action
@pytest.mark.parametrize("n,order", [(4, 10), (5, 12), (6, 14)])
def test_induced_graph_automorphism_group(n, order):
    g = gamma(n)
    auts = aut_group(g)
    assert len(auts) == order
    induced = set()
    for d in dihedral_elements(n):
        vm = perm_vertex_map(g, lambda p, d=d: apply_dihedral(d, p))
        assert is_automorphism(g, vm)
        induced.add(vm.images)
    assert induced == {m.images for m in auts}


def test_aut_group_refuses_oversized_graphs():
    g = build_cayley(5, tn_realizations(5))
    with pytest.raises(ValueError):
        aut_group(g, max_vertices=100)


# frozen: the point stabilizer has 2(n+1) elements, so the full group
# order is 2(n+1) n!
@pytest.mark.parametrize("n,stab,full", [(4, 10, 240), (5, 12, 1440)])
def test_identity_stabilizer_of_the_full_cayley_graph(n, stab, full):
    maps = stabilizer_of_identity(n)
    assert len(maps) == stab
    g = build_cayley(n, tn_realizations(n))
    r = g.index_of(identity(n))
    for m in maps:
        assert m.apply(r) == r
        assert is_automorphism(g, m)
    from math import factorial

    assert factorial(n) * len(maps) == full


def test_stabilizer_maps_are_the_induced_symmetries():
    n = 4
    g = build_cayley(n, tn_realizations(n))
    induced = set()
    for d in dihedral_elements(n):
        induced.add(perm_vertex_map(g, lambda p, d=d: apply_dihedral(d, p)).images)
    assert induced == {m.images for m in stabilizer_of_identity(n)}


# frozen: even degrees give the even half, odd degrees the whole group
@pytest.mark.parametrize("n,order", [(4, 12), (5, 120), (6, 360)])
def test_subgroup_generated_by_the_special_vertices(n, order):
    gens = [make_bt(c) for c in vertex_set_V(n)]
    sub = generated_subgroup(gens)
    assert len(sub) == order
    assert identity(n) in sub
    for p in gens:
        assert p in sub


def test_generated_subgroup_respects_the_limit():
    with pytest.raises(ValueError):
        generated_subgroup(tn_realizations(5), limit=10)


def test_orbit_of_the_dihedral_action():
    n = 5
    dih = dihedral_elements(n)
    seed = make_bt(vertex_set_V(n)[0])
    orb = orbit(dih, seed)
    assert seed in orb
    assert len(orb) == 2 * (n + 1)
    for d in dih:
        assert all(apply_dihedral(d, p) in orb for p in orb)


def test_vertex_map_rejects_non_bijections():
    g = gamma(4)
    with pytest.raises(ValueError):
        VertexMap(g, tuple([0] * g.num_vertices))
