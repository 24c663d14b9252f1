"""Cayley graphs of the symmetric group and the block transposition graph.

Vertices are permutations; pi and rho are adjacent when pi^-1 o rho lies in
the connection set.  The block transposition graph Gamma is the subgraph of
the Cayley graph over T_n induced on the vertex set T_n itself.  Vertex
indexing always uses the lexicographic rank of the one-line form, so all
exports are stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import mul

from .blocktrans import (
    CutPoints,
    IDENTITY,
    enumerate_tn,
    make_bt,
    recognize,
    tn_realizations,
)
from .budget import NO_BUDGET
from .perms import Permutation, _product_rows, compose_images, sym_group


class Graph:
    """A finite simple graph with permutation-labelled vertices."""

    def __init__(self, labels, neighbors):
        self.labels = tuple(labels)
        self.neighbors = tuple(tuple(sorted(ns)) for ns in neighbors)
        if len(self.labels) != len(self.neighbors):
            raise ValueError("labels and adjacency differ in length")
        self._index = {}
        for i, p in enumerate(self.labels):
            if p in self._index:
                raise ValueError(f"repeated vertex label {p}")
            self._index[p] = i
        self.neighbor_sets = tuple(map(frozenset, self.neighbors))
        nv = len(self.labels)
        sets = self.neighbor_sets
        for v, ns in enumerate(self.neighbors):
            if len(sets[v]) != len(ns):
                raise ValueError(f"repeated neighbor of vertex {v}")
            for u in ns:
                if not 0 <= u < nv or u == v:
                    raise ValueError(f"bad neighbor {u} of vertex {v}")
                if v not in sets[u]:
                    raise ValueError(f"asymmetric edge {v}-{u}")

    @property
    def num_vertices(self) -> int:
        return len(self.labels)

    @property
    def num_edges(self) -> int:
        return sum(len(ns) for ns in self.neighbors) // 2

    def index_of(self, p: Permutation) -> int:
        try:
            return self._index[p]
        except KeyError:
            raise ValueError(f"{p} is not a vertex") from None

    def degree(self, v: int) -> int:
        return len(self.neighbors[v])

    def is_edge(self, u: int, v: int) -> bool:
        return v in self.neighbor_sets[u]

    def edges(self):
        for u, ns in enumerate(self.neighbors):
            for v in ns:
                if u < v:
                    yield u, v


def build_cayley(n: int, generators) -> Graph:
    """Cayley graph of the symmetric group of degree n over a connection set.

    The connection set must be inverse-closed, identity-free, and
    duplicate-free.  Degrees above 7 are refused: materializing the full
    group is a dead end there, use the on-the-fly searches instead.
    """
    gens = tuple(generators)
    if not gens:
        raise ValueError("empty connection set")
    if n > 7:
        raise ValueError(f"degree {n} too large to materialize; use bfs_distance")
    for x in gens:
        if x.n != n:
            raise ValueError(f"generator degree {x.n} != {n}")
        if x.is_identity():
            raise ValueError("identity in the connection set")
    if len(set(gens)) != len(gens):
        raise ValueError("duplicate generators")
    gen_imgs = [x.image for x in gens]
    if {tuple(x.inverse().image) for x in gens} != set(gen_imgs):
        raise ValueError("connection set is not inverse-closed")

    return Graph(sym_group(n), _product_rows(n, gen_imgs))


@lru_cache(maxsize=16)
def gamma(n: int) -> Graph:
    """The block transposition graph: induced on T_n, edges pi ~ pi o s(i,j,k)."""
    labels = sorted(tn_realizations(n), key=lambda p: p.image)
    member = {p.image for p in labels}
    inverses = [p.inverse().image for p in labels]
    neighbors = []
    for u, inv_u in enumerate(inverses):
        row = []
        for v, q in enumerate(labels):
            if u == v:
                continue
            prod = compose_images(inv_u, q.image)
            if prod in member:
                row.append(v)
        neighbors.append(row)
    return Graph(labels, neighbors)


def induced_subgraph(g: Graph, vertices) -> Graph:
    """Subgraph induced on the given labels, re-ranked lexicographically."""
    labels = sorted(set(vertices), key=lambda p: p.image)
    old = [g.index_of(p) for p in labels]
    keep = {o: i for i, o in enumerate(old)}
    neighbors = [
        [keep[u] for u in g.neighbors[o] if u in keep] for o in old
    ]
    return Graph(labels, neighbors)


def degree_profile(g: Graph) -> tuple[int, ...]:
    return tuple(sorted(len(ns) for ns in g.neighbors))


# ---------------------------------------------------------------------------
# Maximal 2-cliques and the special vertex set V.


@dataclass(frozen=True)
class EdgeSet2Cliques:
    """Edges whose endpoints share no neighbor, tagged with e_m indices."""

    edges: tuple[tuple[int, int], ...]
    em_index: tuple[int | None, ...]


def e_edges(n: int) -> list[tuple[CutPoints, CutPoints]]:
    """The distinguished edges e_0, ..., e_n of the block transposition graph.

    e_l = {s(l,l+1,l+3), s(l,l+2,l+3)} for 0 <= l <= n-3, then
    e_{n-2} = {s(0,n-2,n-1), s(0,n-2,n)},
    e_{n-1} = {s(1,n-1,n), s(0,1,n-1)},
    e_n     = {s(0,2,n), s(1,2,n)}.
    """
    if n < 4:
        raise ValueError(f"degree {n} below 4")
    out = [
        (CutPoints(l, l + 1, l + 3, n), CutPoints(l, l + 2, l + 3, n))
        for l in range(n - 2)
    ]
    out.append((CutPoints(0, n - 2, n - 1, n), CutPoints(0, n - 2, n, n)))
    out.append((CutPoints(1, n - 1, n, n), CutPoints(0, 1, n - 1, n)))
    out.append((CutPoints(0, 2, n, n), CutPoints(1, 2, n, n)))
    return out


def vertex_set_V(n: int) -> tuple[CutPoints, ...]:
    """Endpoints of the e_m, deduplicated; 2(n+1) of them for n >= 5."""
    seen = []
    for a, b in e_edges(n):
        for c in (a, b):
            if c not in seen:
                seen.append(c)
    return tuple(seen)


@lru_cache(maxsize=16)
def gamma_v(n: int) -> Graph:
    """Subgraph of the block transposition graph induced on V."""
    return induced_subgraph(gamma(n), [make_bt(c) for c in vertex_set_V(n)])


def maximal_2_cliques(g: Graph) -> EdgeSet2Cliques:
    """All edges with empty common neighborhood, in sorted vertex order."""
    edges = [
        (u, v)
        for u, v in g.edges()
        if not (g.neighbor_sets[u] & g.neighbor_sets[v])
    ]
    tag_of = {}
    degree = g.labels[0].n if g.labels else 0
    if degree >= 4:
        for m, (a, b) in enumerate(e_edges(degree)):
            tag_of[frozenset((make_bt(a), make_bt(b)))] = m
    tags = [
        tag_of.get(frozenset((g.labels[u], g.labels[v]))) for u, v in edges
    ]
    return EdgeSet2Cliques(tuple(edges), tuple(tags))


def hamilton_cycle_gamma_v(n: int) -> list[CutPoints]:
    """A Hamilton cycle of the subgraph induced on V, as cut-point triples.

    Walks the e_l ladder for l = 0..n-4 and closes through the remaining
    ten vertices.  Every consecutive pair is checked against the graph; a
    violation means the construction itself broke and raises RuntimeError.
    """
    if n < 5:
        raise ValueError(f"degree {n} below 5")
    cycle = []
    for l in range(n - 3):
        cycle.append(CutPoints(l, l + 2, l + 3, n))
        cycle.append(CutPoints(l, l + 1, l + 3, n))
    cycle += [
        CutPoints(n - 3, n - 1, n, n),
        CutPoints(n - 3, n - 2, n, n),
        CutPoints(0, n - 2, n, n),
        CutPoints(0, n - 2, n - 1, n),
        CutPoints(0, 1, n - 1, n),
        CutPoints(1, n - 1, n, n),
        CutPoints(1, 2, n, n),
        CutPoints(0, 2, n, n),
    ]
    g = gamma_v(n)
    ranks = [g.index_of(make_bt(c)) for c in cycle]
    if len(set(ranks)) != g.num_vertices:
        raise RuntimeError("cycle misses vertices of V")
    for a, b in zip(ranks, ranks[1:] + ranks[:1]):
        if not g.is_edge(a, b):
            raise RuntimeError(f"cycle step {a}-{b} is not an edge")
    return cycle


# ---------------------------------------------------------------------------
# Distances.


_BUDGET_STRIDE = 64


def bfs_distance(
    source: Permutation, target: Permutation, budget=NO_BUDGET
) -> tuple[int, list[CutPoints]]:
    """Distance in the Cayley graph over T_n, with one geodesic as cut points.

    Bidirectional search generating neighbors on the fly (the full group is
    never materialized), so degrees up to 10 stay feasible.

    The budget is read before a frontier level once at least
    _BUDGET_STRIDE frontier nodes have been expanded since the last read,
    and raises BudgetExceeded when spent.  The stride bounds the work done
    between two reads (about 12 ms at n=10 on a 2-vCPU Xeon); a search
    smaller than one stride, such as any search at n <= 4 (n! = 24 nodes),
    finishes under every budget.
    """
    if source.n != target.n:
        raise ValueError(f"degree mismatch: {source.n} vs {target.n}")
    n = source.n
    if source == target:
        return 0, []
    cuts = enumerate_tn(n)
    slices = [(c.i, c.j, c.k) for c in cuts]

    def expand(t):
        return [t[:i] + t[j:k] + t[i:j] + t[k:] for i, j, k in slices]

    src, tgt = source.image, target.image
    parent_f = {src: None}
    parent_b = {tgt: None}
    frontier_f, frontier_b = [src], [tgt]
    meet = None
    unchecked = 0
    while meet is None:
        if not frontier_f or not frontier_b:
            raise RuntimeError("search space exhausted without meeting")
        # Grow the smaller side one full level.
        if len(frontier_f) <= len(frontier_b):
            frontier, parent, other = frontier_f, parent_f, parent_b
            forward = True
        else:
            frontier, parent, other = frontier_b, parent_b, parent_f
            forward = False
        unchecked += len(frontier)
        if unchecked >= _BUDGET_STRIDE:
            budget.check()
            unchecked = 0
        nxt = []
        for t in frontier:
            for u in expand(t):
                if u not in parent:
                    parent[u] = t
                    nxt.append(u)
                    if u in other:
                        meet = u
                        break
            if meet is not None:
                break
        if forward:
            frontier_f = nxt
        else:
            frontier_b = nxt

    chain = [meet]
    t = parent_f[meet]
    while t is not None:
        chain.insert(0, t)
        t = parent_f[t]
    t = parent_b[meet]
    while t is not None:
        chain.append(t)
        t = parent_b[t]

    steps = []
    for a, b in zip(chain, chain[1:]):
        pa = Permutation(a)
        prod = pa.inverse().compose(Permutation(b))
        c = recognize(prod)
        if not isinstance(c, CutPoints):
            raise RuntimeError(f"non-generator step {a} -> {b}")
        steps.append(c)
    return len(steps), steps


# ---------------------------------------------------------------------------
# Exact isomorphism testing: partition refinement plus backtracking.


def closed_walk_counts(neighbors, kmax: int = 6) -> list[tuple[int, ...]]:
    """Per-vertex counts of closed walks of lengths 2..kmax (exact integers).

    The count for length a + b at v is diag(A^(a+b))[v] = <A^a e_v, A^b e_v>,
    since the adjacency matrix A is symmetric, so dense rows of A^1 up to
    A^ceil(kmax/2) suffice.  Row v of A^k is the column sum of the A^(k-1)
    rows of v's neighbours.
    """
    nv = len(neighbors)
    rows = []
    for ns in neighbors:
        row = [0] * nv
        for u in ns:
            row[u] = 1
        rows.append(tuple(row))
    powers = [rows]
    for _ in range((kmax + 1) // 2 - 1):
        rows = [
            tuple(map(sum, zip(*[rows[u] for u in ns]))) if ns else (0,) * nv
            for ns in neighbors
        ]
        powers.append(rows)
    return [
        tuple(
            sum(map(mul, powers[(k + 1) // 2 - 1][v], powers[k // 2 - 1][v]))
            for k in range(2, kmax + 1)
        )
        for v in range(nv)
    ]


def _shared_colors(sigs1, sigs2):
    ids = {s: i for i, s in enumerate(sorted(set(sigs1) | set(sigs2)))}
    return [ids[s] for s in sigs1], [ids[s] for s in sigs2]


def _refine_pair(nbrs1, nbrs2, c1, c2):
    """Jointly refine colors by neighbor multisets; None when incompatible."""
    from collections import Counter

    while True:
        if Counter(c1) != Counter(c2):
            return None
        width = len(set(c1) | set(c2))
        s1 = [(c1[v], tuple(sorted(c1[u] for u in nbrs1[v]))) for v in range(len(c1))]
        s2 = [(c2[v], tuple(sorted(c2[u] for u in nbrs2[v]))) for v in range(len(c2))]
        c1, c2 = _shared_colors(s1, s2)
        if len(set(c1) | set(c2)) == width:
            return (c1, c2) if Counter(c1) == Counter(c2) else None


def _iso_search(nbrs1, nbrs2, c1, c2, find_all, budget):
    """All (or one) color-preserving isomorphisms between two graphs."""
    nv = len(nbrs1)
    sets2 = [frozenset(ns) for ns in nbrs2]
    results = []

    def leaf(c1, c2):
        pos2 = {}
        for v, c in enumerate(c2):
            pos2[c] = v
        mapping = [pos2[c] for c in c1]
        for v in range(nv):
            img = mapping[v]
            for u in nbrs1[v]:
                if mapping[u] not in sets2[img]:
                    return
        results.append(tuple(mapping))

    def rec(c1, c2):
        budget.check()
        refined = _refine_pair(nbrs1, nbrs2, c1, c2)
        if refined is None:
            return
        c1, c2 = refined
        cells1 = {}
        for v, c in enumerate(c1):
            cells1.setdefault(c, []).append(v)
        split = sorted(c for c, vs in cells1.items() if len(vs) > 1)
        if not split:
            leaf(c1, c2)
            return
        target = split[0]
        u = cells1[target][0]
        fresh = len(c1) + len(c2)
        for v in range(nv):
            if c2[v] != target:
                continue
            d1 = list(c1)
            d2 = list(c2)
            d1[u] = fresh
            d2[v] = fresh
            rec(d1, d2)
            if results and not find_all:
                return

    rec(list(c1), list(c2))
    return results


def graphs_isomorphic(g1: Graph, g2: Graph, budget=NO_BUDGET):
    """A vertex bijection g1 -> g2 preserving adjacency, or None.

    Exact: integer walk-count invariants reject fast, then refinement with
    backtracking decides.  No heuristic answers.
    """
    if g1.num_vertices != g2.num_vertices or g1.num_edges != g2.num_edges:
        return None
    w1 = closed_walk_counts(g1.neighbors)
    w2 = closed_walk_counts(g2.neighbors)
    if sorted(w1) != sorted(w2):
        return None
    s1 = [(len(g1.neighbors[v]),) + w1[v] for v in range(g1.num_vertices)]
    s2 = [(len(g2.neighbors[v]),) + w2[v] for v in range(g2.num_vertices)]
    c1, c2 = _shared_colors(s1, s2)
    found = _iso_search(g1.neighbors, g2.neighbors, c1, c2, False, budget)
    return list(found[0]) if found else None


# ---------------------------------------------------------------------------
# Exports.


def edge_list_text(g: Graph) -> str:
    return "".join(f"{u} {v}\n" for u, v in g.edges())


def dot_text(g: Graph, name: str = "g") -> str:
    lines = [f"graph {name} {{"]
    for i, p in enumerate(g.labels):
        lines.append(f'  {i} [label="{p}"];')
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_json(g: Graph) -> dict:
    return {
        "vertex_count": g.num_vertices,
        "edge_count": g.num_edges,
        "vertices": [str(p) for p in g.labels],
        "edges": [[u, v] for u, v in g.edges()],
    }
