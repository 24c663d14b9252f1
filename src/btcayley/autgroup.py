"""Automorphisms of the block transposition Cayley graphs.

Vertex maps are stored as image tuples over a graph's vertex ranks.  The
full automorphism group of a small graph comes from partition refinement
with complete backtracking; the stabilizer of the identity vertex in the
full Cayley graph is found the same way after pinning that vertex and
coloring by distance layers, which is exactly the constraint an
identity-fixing automorphism must respect.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial

from .blocktrans import tn_realizations
from .budget import NO_BUDGET
from .graphs import (
    Graph,
    _iso_search,
    _shared_colors,
    build_cayley,
    maximal_2_cliques,
)
from .perms import Permutation, _right_multiplier, _wrap, closure, identity


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
        return VertexMap(self.graph, tuple(self.images[v] for v in other.images))

    def inverse(self) -> "VertexMap":
        inv = [0] * len(self.images)
        for v, w in enumerate(self.images):
            inv[w] = v
        return VertexMap(self.graph, tuple(inv))

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
    imgs = m.images
    for u, v in g.edges():
        if imgs[v] not in g.neighbor_sets[imgs[u]]:
            return False
    return True


def aut_group(
    g: Graph, budget=NO_BUDGET, max_vertices: int = 5000
) -> list[VertexMap]:
    """Every automorphism of g, sorted by image tuple.

    Initial colors combine degree with incidence to maximal 2-cliques;
    refinement and backtracking do the rest.  Graphs beyond max_vertices
    are refused — use stabilizer_of_identity for the big Cayley graphs.
    """
    nv = g.num_vertices
    if nv > max_vertices:
        raise ValueError(
            f"{nv} vertices exceed the {max_vertices} cap; "
            "use stabilizer_of_identity for large Cayley graphs"
        )
    two_cliques = [0] * nv
    cliques = maximal_2_cliques(g)
    for u, v in cliques.edges:
        two_cliques[u] += 1
        two_cliques[v] += 1
    sigs = [(g.degree(v), two_cliques[v]) for v in range(nv)]
    c1, c2 = _shared_colors(sigs, sigs)
    found = _iso_search(g.neighbors, g.neighbors, c1, c2, True, budget)
    return sorted(
        (VertexMap(g, imgs) for imgs in found), key=lambda m: m.images
    )


def bfs_layers(g: Graph, root: int) -> list[int]:
    """Distance from root per vertex (-1 for unreachable)."""
    dist = [-1] * g.num_vertices
    dist[root] = 0
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for u in g.neighbors[v]:
            if dist[u] < 0:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def stabilizer_of_identity(n: int, budget=NO_BUDGET) -> list[VertexMap]:
    """All automorphisms of the Cayley graph over T_n fixing the identity.

    Pins the identity vertex and colors everything by its distance layer;
    the complete refinement search then enumerates exactly the
    identity-fixing automorphisms.
    """
    if n > 5:
        raise ValueError(f"degree {n} beyond the exhaustive-search range (max 5)")
    g = build_cayley(n, tn_realizations(n))
    iota = g.index_of(identity(n))
    layers = bfs_layers(g, iota)
    sigs = [(0 if v == iota else 1, layers[v]) for v in range(g.num_vertices)]
    c1, c2 = _shared_colors(sigs, sigs)
    found = _iso_search(g.neighbors, g.neighbors, c1, c2, True, budget)
    maps = sorted((VertexMap(g, imgs) for imgs in found), key=lambda m: m.images)
    for m in maps:
        if m.images[iota] != iota:
            raise RuntimeError("search returned a map moving the pinned vertex")
    return maps


def generated_subgroup(generators, limit: int = 3_628_800) -> frozenset[Permutation]:
    """Closure of the generators under composition (breadth-first).

    Materializes the subgroup, so the size cap (10! by default) is a hard
    error, not a truncation.
    """
    gens = [p for p in generators]
    if not gens:
        raise ValueError("no generators")
    n = gens[0].n
    if any(p.n != n for p in gens):
        raise ValueError("generators of mixed degree")
    ident = tuple(range(1, n + 1))
    steps = [_right_multiplier(p.image) for p in gens]
    return frozenset(map(_wrap, closure([ident], steps, limit)))


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
