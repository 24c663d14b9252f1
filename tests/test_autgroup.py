"""Automorphism machinery: vertex maps, full groups, stabilizers, subgroups."""

import pytest

import btcayley.graphs as graphs
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
from btcayley.budget import Budget, BudgetExceeded
from btcayley.graphs import Graph, build_cayley, gamma, vertex_set_V
from btcayley.perms import identity, sym_group
from btcayley.toric import apply_dihedral, clear_cache, dihedral_elements
from btcayley.verify import run_claim


def test_vertex_map_algebra():
    g = gamma(4)
    ms = aut_group(g)
    a, b = ms[1], ms[2]
    ab = a.compose(b)
    for v in range(g.num_vertices):
        assert ab.apply(v) == a.apply(b.apply(v))
    assert a.compose(a.inverse()).is_identity()
    assert a.inverse().compose(a).is_identity()


def _edge_loop_is_automorphism(g, m):
    """The per-edge check is_automorphism made before its per-vertex gathers."""
    imgs = m.images
    for u, v in g.edges():
        if imgs[v] not in g.neighbor_sets[imgs[u]]:
            return False
    return True


@pytest.mark.parametrize("n", [5, 6])
def test_is_automorphism_gives_the_verdicts_of_the_edge_loop(n):
    g = build_cayley(n, tn_realizations(n))
    maps = [
        perm_vertex_map(g, lambda p, d=d: apply_dihedral(d, p))
        for d in dihedral_elements(n)
    ]
    assert len(maps) == 2 * (n + 1)
    # Swapping the images of two non-adjacent vertices breaks adjacency.
    far = next(v for v in range(1, g.num_vertices) if not g.is_edge(0, v))
    for m in maps[:3]:
        imgs = list(m.images)
        imgs[0], imgs[far] = imgs[far], imgs[0]
        maps.append(VertexMap(g, tuple(imgs)))
    verdicts = [is_automorphism(g, m) for m in maps]
    assert verdicts == [_edge_loop_is_automorphism(g, m) for m in maps]
    assert verdicts == [True] * (2 * (n + 1)) + [False] * 3


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


def test_aut_group_of_gamma10_refines_at_few_nodes(monkeypatch):
    # One _refine call per search node.  The complete backtracking
    # search made 34 for gamma(10); the pruned generator search makes 6.
    calls = []
    refine = graphs._refine

    def counting(*args):
        calls.append(1)
        return refine(*args)

    monkeypatch.setattr(graphs, "_refine", counting)
    assert len(aut_group(gamma(10))) == 22
    assert len(calls) <= 34 // 4


class _CountedBudget:
    """A budget that runs out at its k-th read (never, for k = None)."""

    def __init__(self, k=None):
        self.k = k
        self.reads = 0

    def check(self):
        self.reads += 1
        if self.reads == self.k:
            raise BudgetExceeded(f"read {self.k}")


@pytest.mark.parametrize(
    "search",
    [lambda b: aut_group(gamma(6), budget=b), lambda b: stabilizer_of_identity(4, b)],
    ids=["aut_group", "stabilizer_of_identity"],
)
def test_searches_honour_a_budget_spent_at_any_read(search):
    with pytest.raises(BudgetExceeded):
        search(Budget(0))
    full = _CountedBudget()
    search(full)
    # Node reads, orbit levels and the listing's levels all count.
    assert full.reads > 10
    for k in range(1, full.reads + 1):
        with pytest.raises(BudgetExceeded):
            search(_CountedBudget(k))


def test_aut_group_refuses_oversized_graphs():
    # One vertex past the cap; an edgeless graph is refused before any search.
    g = Graph(sym_group(7)[:5001], [()] * 5001)
    with pytest.raises(ValueError, match="5001 vertices exceed the 5000 cap"):
        aut_group(g)


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


def test_generated_subgroup_honours_a_budget_spent_at_any_read():
    gens = [make_bt(c) for c in vertex_set_V(6)]
    with pytest.raises(BudgetExceeded):
        generated_subgroup(gens, budget=Budget(0))
    full = _CountedBudget()
    assert len(generated_subgroup(gens, budget=full)) == 360
    assert full.reads > 1  # one read per sift and per level of the listing
    for k in range(1, full.reads + 1):
        with pytest.raises(BudgetExceeded):
            generated_subgroup(gens, budget=_CountedBudget(k))


@pytest.mark.parametrize("key", ["lemma6.3", "lemma6.4"])
def test_subgroup_claims_report_a_budget_spent_at_any_read(key):
    clear_cache()
    full = _CountedBudget()
    assert run_claim(key, 6, full).status == "verified"
    # Besides run_claim's own read, the stabilizer chain reads it once per sift.
    assert full.reads > 3
    for k in range(1, full.reads + 1):
        clear_cache()
        report = run_claim(key, 6, _CountedBudget(k))
        assert report.status == "skipped-budget"
    clear_cache()


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
