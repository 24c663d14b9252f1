"""Independent oracles: networkx's VF2 matcher against the refinement search.

networkx is a test-only dependency; the package itself imports nothing
outside the standard library.
"""

import random

import pytest

from btcayley.autgroup import aut_group
from btcayley.graphs import Graph, gamma, graphs_isomorphic

nx = pytest.importorskip("networkx")
GraphMatcher = nx.algorithms.isomorphism.GraphMatcher


def as_nx(g: Graph):
    G = nx.Graph()
    G.add_nodes_from(range(g.num_vertices))
    G.add_edges_from(g.edges())
    return G


def relabelled(g: Graph, seed: int) -> Graph:
    """g with its vertices shuffled: old vertex v becomes new vertex perm[v]."""
    perm = list(range(g.num_vertices))
    random.Random(seed).shuffle(perm)
    inv = [0] * len(perm)
    for v, w in enumerate(perm):
        inv[w] = v
    return Graph(
        [g.labels[inv[w]] for w in range(len(perm))],
        [[perm[u] for u in g.neighbors[inv[w]]] for w in range(len(perm))],
    )


def edge_switched(g: Graph, seed: int) -> Graph:
    """g after one degree-preserving switch: edges a-b, c-d become a-c, b-d."""
    rng = random.Random(seed)
    edges = list(g.edges())
    while True:
        (a, b), (c, d) = rng.sample(edges, 2)
        if len({a, b, c, d}) == 4 and not g.is_edge(a, c) and not g.is_edge(b, d):
            break
    nbrs = [set(ns) for ns in g.neighbors]
    for u, v in ((a, b), (c, d)):
        nbrs[u].discard(v)
        nbrs[v].discard(u)
    for u, v in ((a, c), (b, d)):
        nbrs[u].add(v)
        nbrs[v].add(u)
    return Graph(g.labels, nbrs)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_aut_group_of_gamma_equals_the_vf2_automorphisms(n):
    g = gamma(n)
    vf2 = {
        tuple(m[v] for v in range(g.num_vertices))
        for m in GraphMatcher(as_nx(g), as_nx(g)).isomorphisms_iter()
    }
    assert {m.images for m in aut_group(g)} == vf2
    assert len(vf2) == 2 * (n + 1)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_graphs_isomorphic_agrees_with_networkx_on_relabellings(seed):
    g1 = gamma(5)
    g2 = relabelled(g1, seed)
    assert nx.is_isomorphic(as_nx(g1), as_nx(g2))
    mapping = graphs_isomorphic(g1, g2)
    assert mapping is not None
    assert sorted(mapping) == list(range(g1.num_vertices))
    for u, v in g1.edges():
        assert g2.is_edge(mapping[u], mapping[v])


def test_graphs_isomorphic_agrees_with_networkx_on_a_non_isomorphic_pair():
    g1 = gamma(5)
    g2 = relabelled(edge_switched(g1, 7), 8)
    assert sorted(map(len, g1.neighbors)) == sorted(map(len, g2.neighbors))
    assert not nx.is_isomorphic(as_nx(g1), as_nx(g2))
    assert graphs_isomorphic(g1, g2) is None
