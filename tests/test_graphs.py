"""Graphs on the generating set: structure, distinguished edges, distances."""

import hashlib
import random

import pytest

from btcayley import graphs
from btcayley.blocktrans import CutPoints, make_bt, tn_realizations, tn_size
from btcayley.graphs import (
    Graph,
    bfs_distance,
    build_cayley,
    degree_profile,
    dot_text,
    e_edges,
    edge_list_text,
    gamma,
    gamma_v,
    graph_json,
    graphs_isomorphic,
    hamilton_cycle_gamma_v,
    maximal_2_cliques,
    vertex_set_V,
)
from btcayley.maps import CayleyMap, mprime_n5_map, prop72_map
from btcayley.perms import (
    Permutation,
    _product_rows,
    identity,
    parse_permutation,
    reverse,
    sym_group,
)


def test_graph_rejects_malformed_adjacency():
    with pytest.raises(ValueError):
        Graph([identity(3)], [(0,)])  # self loop
    with pytest.raises(ValueError):
        Graph([identity(3), reverse(3)], [(1,), ()])  # asymmetric
    with pytest.raises(ValueError):
        Graph([identity(3), identity(3)], [(), ()])  # repeated label
    with pytest.raises(ValueError):
        Graph([identity(3), reverse(3)], [(1, 1), (0, 0)])  # repeated neighbor
    with pytest.raises(ValueError):
        Graph([identity(3), reverse(3)], [(1, 2), (0,)])  # neighbor out of range


def _same_graph(got, want):
    assert got.labels == want.labels
    assert got.neighbors == want.neighbors
    assert got.neighbor_sets == want.neighbor_sets
    assert [got.index_of(p) for p in want.labels] == list(range(want.num_vertices))


CONNECTION_SETS = {
    **{f"T_{n}": (n, lambda n=n: tn_realizations(n)) for n in range(2, 7)},
    "prop72_map(5)": (5, lambda: prop72_map(5).gens),
    "mprime_n5_map()": (5, lambda: mprime_n5_map().gens),
}


@pytest.mark.parametrize("name", sorted(CONNECTION_SETS))
def test_trusted_cayley_rows_equal_the_validated_graph(name):
    n, gens = CONNECTION_SETS[name]
    rows = _product_rows(n, [x.image for x in gens()])
    _same_graph(build_cayley(n, gens()), Graph(sym_group(n), rows))


@pytest.mark.parametrize("n", range(5, 9))
def test_trusted_induced_subgraph_equals_the_validated_graph(n):
    g = gamma_v(n)
    _same_graph(g, Graph(g.labels, g.neighbors))


def test_cayley_graph_is_regular_of_generator_degree():
    g = build_cayley(3, tn_realizations(3))
    assert g.num_vertices == 6
    assert set(degree_profile(g)) == {4}
    assert g.num_edges == 12
    r = g.index_of(identity(3))
    for q in tn_realizations(3):
        assert g.is_edge(r, g.index_of(q))


BAD_CONNECTION_SETS = {
    "empty": (4, lambda: [], "empty connection set|at least two generators"),
    "degree 8": (8, lambda: tn_realizations(8), "degree 8 too large"),
    "mixed degree": (
        4,
        lambda: list(tn_realizations(4)) + [parse_permutation("[2 1 3 4 5]")],
        "generator degree 5 != 4",
    ),
    "identity": (4, lambda: list(tn_realizations(4)) + [identity(4)], "identity"),
    "duplicate": (
        4,
        lambda: list(tn_realizations(4)) + [tn_realizations(4)[0]],
        "duplicate generators",
    ),
    "not inverse-closed": (
        3,
        lambda: [parse_permutation("[2 3 1]"), parse_permutation("[2 1 3]")],
        "not inverse-closed",
    ),
}


@pytest.mark.parametrize("build", [build_cayley, CayleyMap], ids=["build_cayley", "CayleyMap"])
@pytest.mark.parametrize("case", sorted(BAD_CONNECTION_SETS))
def test_cayley_constructors_reject_bad_connection_sets(build, case):
    n, gens, message = BAD_CONNECTION_SETS[case]
    with pytest.raises(ValueError, match=message):
        build(n, gens())


# frozen: the induced graph is 2(n-2)-regular from n = 4 on
@pytest.mark.parametrize(
    "n,degree,edges", [(4, 4, 20), (5, 6, 60), (6, 8, 140), (7, 10, 280)]
)
def test_induced_graph_degree_and_size(n, degree, edges):
    g = gamma(n)
    assert g.num_vertices == tn_size(n)
    assert set(degree_profile(g)) == {degree}
    assert g.num_edges == edges


def test_induced_graph_adjacency_comes_from_right_quotients():
    g = gamma(5)
    reals = set(tn_realizations(5))
    for u in range(g.num_vertices):
        for v in g.neighbors[u]:
            quotient = g.labels[u].inverse().compose(g.labels[v])
            assert quotient in reals


@pytest.mark.parametrize("n", (4, 5, 6, 7))
def test_distinguished_edges_are_maximal_2_cliques(n):
    g = gamma(n)
    found = maximal_2_cliques(g)
    assert len(found.edges) == n + 1
    assert sorted(found.em_index) == list(range(n + 1))


def test_distinguished_edges_disjoint_from_degree_five():
    for n in (5, 6):
        seen = set()
        for a, b in e_edges(n):
            assert a not in seen and b not in seen
            seen |= {a, b}
    # at degree four they overlap
    flat = [c for pair in e_edges(4) for c in pair]
    assert len(flat) != len(set(flat))


@pytest.mark.parametrize("n", (5, 6, 7, 8))
def test_special_subgraph_is_cubic_on_2n_plus_2_vertices(n):
    V = vertex_set_V(n)
    assert len(V) == 2 * (n + 1)
    gv = gamma_v(n)
    assert gv.num_vertices == 2 * (n + 1)
    assert set(degree_profile(gv)) == {3}


@pytest.mark.parametrize("n", (5, 6, 7, 8))
def test_hamilton_cycle_is_valid(n):
    cycle = hamilton_cycle_gamma_v(n)
    gv = gamma_v(n)
    ranks = [gv.index_of(make_bt(c)) for c in cycle]
    assert sorted(ranks) == list(range(gv.num_vertices))
    for a, b in zip(ranks, ranks[1:] + ranks[:1]):
        assert gv.is_edge(a, b)


def test_hamilton_cycle_needs_degree_five():
    with pytest.raises(ValueError):
        hamilton_cycle_gamma_v(4)


def test_distance_zero_and_one():
    assert bfs_distance(identity(4), identity(4)) == (0, [])
    d, path = bfs_distance(identity(5), parse_permutation("[2 3 4 5 1]"))
    assert d == 1
    assert path == [CutPoints(0, 1, 5, 5)]


def test_distance_to_the_reversal_at_degree_four():
    # frozen by exhaustive search: three moves, never two
    d, path = bfs_distance(identity(4), reverse(4))
    assert d == 3
    cur = identity(4)
    for c in path:
        cur = cur.compose(make_bt(c))
    assert cur == reverse(4)


def test_distance_is_symmetric_and_left_invariant():
    w = parse_permutation("[3 1 4 2]")
    d1, _ = bfs_distance(identity(4), w)
    d2, _ = bfs_distance(w, identity(4))
    assert d1 == d2
    shift = make_bt(CutPoints(1, 2, 4, 4))
    d3, _ = bfs_distance(shift, shift.compose(w))
    assert d3 == d1


def test_geodesics_have_claimed_length():
    for text in ("[2 1 4 3]", "[4 1 2 3]", "[1 4 3 2]"):
        target = parse_permutation(text)
        d, path = bfs_distance(identity(4), target)
        assert len(path) == d
        cur = identity(4)
        for c in path:
            cur = cur.compose(make_bt(c))
        assert cur == target


# SHA-256 of the geodesics below, one line of cut points per pair.
GEODESICS_SHA256 = "9a12ff5e5ce23ffb625864615a9f4dfc0eadef1be84057e5c787dfdf47ff3e10"


def test_geodesics_are_pinned():
    """Six seeded (source, target) pairs per degree n = 3..9: bfs_distance
    returns the same geodesic, step for step, as the digest records."""
    rng = random.Random(2002)
    lines = []
    for n in range(3, 10):
        for _ in range(6):
            source, target = (Permutation(tuple(rng.sample(range(1, n + 1), n))) for _ in "st")
            d, path = bfs_distance(source, target)
            assert len(path) == d
            lines.append(" ".join(map(str, path)))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == GEODESICS_SHA256


def test_isomorphism_found_for_a_relabelled_copy():
    g = gamma(5)
    perm = list(reversed(range(g.num_vertices)))
    relabeled = Graph(
        [g.labels[perm[v]] for v in range(g.num_vertices)],
        [
            sorted(perm.index(u) for u in g.neighbors[perm[v]])
            for v in range(g.num_vertices)
        ],
    )
    bij = graphs_isomorphic(g, relabeled)
    assert bij is not None
    for u in range(g.num_vertices):
        for v in g.neighbors[u]:
            assert bij[v] in relabeled.neighbors[bij[u]]


def test_each_graph_counts_its_closed_walks_once(monkeypatch):
    counted = []
    count = graphs.closed_walk_counts

    def counting(neighbors, kmax=6):
        counted.append(neighbors)
        return count(neighbors, kmax)

    monkeypatch.setattr(graphs, "closed_walk_counts", counting)
    g = build_cayley(4, tn_realizations(4))
    copies = [Graph(g.labels, g.neighbors) for _ in range(3)]
    for h in copies:
        assert graphs_isomorphic(g, h) is not None
    assert len(counted) == 1 + len(copies)
    assert g.closed_walks() == count(g.neighbors)


def test_isomorphism_rejected_fast_on_different_invariants():
    assert graphs_isomorphic(gamma(4), gamma(5)) is None
    g = build_cayley(3, tn_realizations(3))
    assert graphs_isomorphic(g, gamma(4)) is None


def test_export_forms_are_deterministic_and_consistent():
    g = gamma(4)
    assert edge_list_text(g) == edge_list_text(gamma(4))
    lines = edge_list_text(g).strip().split("\n")
    assert len(lines) == g.num_edges
    dj = graph_json(g)
    assert dj["vertex_count"] == g.num_vertices
    assert dj["edge_count"] == g.num_edges
    assert len(dj["edges"]) == g.num_edges
    dot = dot_text(g, "x")
    assert dot.startswith("graph x {")
    assert dot.count(" -- ") == g.num_edges
