"""Automorphisms of the block transposition Cayley graphs.

Vertex maps are stored as image tuples over a graph's vertex ranks.  The
full automorphism group of a small graph is listed from generators: a
partition-refinement search pruned by the automorphisms it has already
found (graphs.automorphism_generators, whose docstring holds the proof
that they generate the whole group) yields them, and the stabilizer chain
of those generators (perms.StabilizerChain) lists the group they
generate, each element once.  Every generated group of the package is
sized and listed by that one chain.  The search starts from raw vertex
signatures, which the one refinement engine of graphs ranks in its first
round.  The stabilizer of the identity vertex in the full Cayley graph is
found the same way after pinning that vertex and coloring by distance
layers, which is exactly the constraint an identity-fixing automorphism
must respect.
is_automorphism checks edges with the same C-level check as the search's
leaves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from .blocktrans import tn_realizations
from .budget import NO_BUDGET
from .graphs import (
    Graph,
    _neighbor_gathers,
    _preserves_edges,
    automorphism_generators,
    build_cayley,
    identity_distances,
    maximal_2_cliques,
)
from .perms import (
    Permutation,
    StabilizerChain,
    _inverse_map,
    _wrap,
    closure,
    compose_maps,
    identity,
    lift,
)


@dataclass(frozen=True)
class VertexMap:
    """A bijection of a graph's vertex ranks."""

    graph: Graph = field(compare=False)
    images: tuple[int, ...] = ()

    def __post_init__(self):
        if sorted(self.images) != list(range(self.graph.num_vertices)):
            raise ValueError("images are not a bijection of the vertex ranks")

    def apply(self, v: int) -> int:
        return self.images[v]

    def apply_label(self, p: Permutation) -> Permutation:
        return self.graph.labels[self.images[self.graph.index_of(p)]]

    def compose(self, other: "VertexMap") -> "VertexMap":
        if other.graph is not self.graph:
            raise ValueError("vertex maps live on different graphs")
        return VertexMap(self.graph, compose_maps(self.images, other.images))

    def inverse(self) -> "VertexMap":
        return VertexMap(self.graph, _inverse_map(self.images))

    def is_identity(self) -> bool:
        return all(v == w for v, w in enumerate(self.images))


def left_translation(g: Graph, h: Permutation) -> VertexMap:
    """The map pi -> h o pi on a Cayley graph's vertices."""
    return VertexMap(
        g, tuple(g.index_of(h.compose(p)) for p in g.labels)
    )


def perm_vertex_map(g: Graph, fn) -> VertexMap:
    """Vertex map induced by a permutation-level map (must preserve labels)."""
    return VertexMap(g, tuple(g.index_of(fn(p)) for p in g.labels))


def is_automorphism(g: Graph, m: VertexMap) -> bool:
    """Whether m maps every neighbour of each vertex u to a neighbour of m(u).

    The same check as the leaves of the search (graphs._preserves_edges):
    every edge is checked from both ends.
    """
    return _preserves_edges(_neighbor_gathers(g.neighbors), g.neighbor_sets, m.images)


def _automorphisms(nbrs, sigs, budget) -> list[tuple[int, ...]]:
    """Image tuples of the automorphisms keeping the vertex signatures, sorted.

    The stabilizer chain of the generators automorphism_generators finds
    lists the group they generate; it reads the budget once per sift and
    once per level of the listing.
    """
    gens = automorphism_generators(nbrs, sigs, budget)
    return sorted(StabilizerChain(len(nbrs), gens, budget).elements(0))


MAX_AUT_VERTICES = 5000


def aut_group(g: Graph, budget=NO_BUDGET) -> list[VertexMap]:
    """Every automorphism of g, sorted by image tuple.

    Initial colors combine degree with incidence to maximal 2-cliques; the
    pruned generator search and the listing of the group its generators
    generate do the rest.
    Graphs beyond MAX_AUT_VERTICES are refused — use stabilizer_of_identity
    for the big Cayley graphs.
    """
    nv = g.num_vertices
    if nv > MAX_AUT_VERTICES:
        raise ValueError(
            f"{nv} vertices exceed the {MAX_AUT_VERTICES} cap; "
            "use stabilizer_of_identity for large Cayley graphs"
        )
    two_cliques = [0] * nv
    cliques = maximal_2_cliques(g)
    for u, v in cliques.edges:
        two_cliques[u] += 1
        two_cliques[v] += 1
    sigs = [(g.degree(v), two_cliques[v]) for v in range(nv)]
    return [VertexMap(g, imgs) for imgs in _automorphisms(g.neighbors, sigs, budget)]


def stabilizer_of_identity(n: int, budget=NO_BUDGET) -> list[VertexMap]:
    """All automorphisms of the Cayley graph over T_n fixing the identity.

    Pins the identity vertex and colors everything by its distance layer.
    The automorphisms keeping those colors are exactly the identity-fixing
    ones; the pruned generator search finds generators of them, and their
    stabilizer chain lists the group they generate, sorted by image tuple.
    """
    if n > 5:
        raise ValueError(f"degree {n} beyond the exhaustive-search range (max 5)")
    g = build_cayley(n, tn_realizations(n))
    iota = g.index_of(identity(n))
    # The vertices are sym_group(n) in rank order, as the distances are.
    layer = identity_distances(n, budget)
    sigs = [(0 if v == iota else 1, layer[v]) for v in range(g.num_vertices)]
    maps = [VertexMap(g, imgs) for imgs in _automorphisms(g.neighbors, sigs, budget)]
    for m in maps:
        if m.images[iota] != iota:
            raise RuntimeError("search returned a map moving the pinned vertex")
    return maps


def generated_subgroup(
    generators, limit: int = 3_628_800, budget=NO_BUDGET
) -> frozenset[Permutation]:
    """The subgroup the generators generate, listed by their stabilizer chain.

    The chain of the lifts [0 p] has its order compared with limit (10! by
    default) before any element is formed: a larger group is a hard error,
    not a truncation.  The chain reads the budget once per sift and once
    per level of the listing, which forms each element once as its lift
    from point 1 on: its one-line image.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("no generators")
    n = gens[0].n
    if any(p.n != n for p in gens):
        raise ValueError("generators of mixed degree")
    chain = StabilizerChain(n + 1, map(lift, gens), budget)
    if chain.order() > limit:
        raise ValueError(f"group exceeds the cap of {limit} elements")
    return frozenset(map(_wrap, chain.elements(1)))


def orbit_images(dihedral_gens, seed: tuple[int, ...]) -> set[tuple[int, ...]]:
    """Orbit of an image tuple under dihedral elements of its degree."""
    from .toric import dihedral_image

    return closure([seed], [partial(dihedral_image, d) for d in dihedral_gens])


def orbit(dihedral_gens, seed: Permutation) -> frozenset[Permutation]:
    """Orbit of a permutation under a list of dihedral elements."""
    gens = list(dihedral_gens)
    for d in gens:
        if d.n != seed.n:
            raise ValueError(f"degree mismatch: {d.n} vs {seed.n}")
    return frozenset(map(_wrap, orbit_images(gens, seed.image)))
