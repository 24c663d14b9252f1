"""Cayley graphs of the symmetric group and the block transposition graph.

Vertices are permutations; pi and rho are adjacent when pi^-1 o rho lies in
the connection set.  The block transposition graph Gamma is the subgraph of
the Cayley graph over T_n induced on the vertex set T_n itself.  Vertex
indexing always uses the lexicographic rank of the one-line form, so all
exports are stable.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import itemgetter

from .blocktrans import (
    CutPoints,
    enumerate_tn,
    make_bt,
    tn_realizations,
)
from .budget import NO_BUDGET
from .perms import (
    Permutation,
    _product_rows,
    _right_multiplier,
    closure,
    layers,
    sym_group,
    sym_index,
)


class Graph:
    """A finite simple graph with permutation-labelled vertices.

    Graph(labels, neighbors) is the constructor for adjacency from
    outside: it checks that the labels are distinct and that every
    neighbour entry is in range, no loop, no repeat and symmetric.
    Graph._trusted skips those checks for rows that are a simple graph by
    construction; each caller proves that in its docstring.
    """

    def __init__(self, labels, neighbors):
        self._fill(labels, neighbors)
        if len(self.labels) != len(self.neighbors):
            raise ValueError("labels and adjacency differ in length")
        if len(self._index) != len(self.labels):
            p = next(p for p, k in Counter(self.labels).items() if k > 1)
            raise ValueError(f"repeated vertex label {p}")
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

    @classmethod
    def _trusted(cls, labels, rows) -> "Graph":
        """A Graph over rows that are a simple graph by construction: no check."""
        g = cls.__new__(cls)
        g._fill(labels, rows)
        return g

    def _fill(self, labels, rows):
        self.labels = tuple(labels)
        self.neighbors = tuple(map(tuple, map(sorted, rows)))
        self._walks = None

    @cached_property
    def _index(self) -> dict:
        """Vertex number of each label, built on the first lookup."""
        return dict(zip(self.labels, range(len(self.labels))))

    @cached_property
    def neighbor_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(map(frozenset, self.neighbors))

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

    def closed_walks(self) -> list[tuple[int, ...]]:
        """closed_walk_counts of this graph, computed on first use and kept."""
        if self._walks is None:
            self._walks = closed_walk_counts(self.neighbors)
        return self._walks

    def edges(self):
        for u, ns in enumerate(self.neighbors):
            for v in ns:
                if u < v:
                    yield u, v


def connection_set_images(n: int, generators) -> list[tuple[int, ...]]:
    """Image tuples of a connection set of the symmetric group of degree n.

    The set must be non-empty, inverse-closed, identity-free, and
    duplicate-free, with every generator of degree n.  Degrees above 7 are
    refused: materializing the full group is a dead end there, use the
    on-the-fly searches instead.
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
    imgs = [x.image for x in gens]
    if len(set(imgs)) != len(imgs):
        raise ValueError("duplicate generators")
    if {x.inverse().image for x in gens} != set(imgs):
        raise ValueError("connection set is not inverse-closed")
    return imgs


def build_cayley(n: int, generators) -> Graph:
    """Cayley graph of Sym_n over a connection set (see connection_set_images).

    The row of p holds rank(p o x) for x in the connection set X, and
    connection_set_images has checked X, so the rows need no re-check:
      - no loop: p o x = p only for x the identity, and X is identity-free;
      - no repeat: p o x = p o y only for x = y, and X is duplicate-free;
      - symmetric: q = p o x gives p = q o x^-1, and X is inverse-closed;
      - in range: sym_index ranks every element of Sym_n, and the labels
        sym_group(n) are distinct.
    """
    images = connection_set_images(n, generators)
    return Graph._trusted(sym_group(n), _product_rows(n, images))


@lru_cache(maxsize=16)
def gamma(n: int) -> Graph:
    """The block transposition graph: induced on T_n, edges pi ~ pi o s(i,j,k).

    The neighbours of u are the products u o s, s in T_n, that lie in T_n.
    One itemgetter per s forms u o s at C level, and a rank dict both tests
    membership and gives the neighbour's rank.
    """
    labels = sorted(tn_realizations(n), key=lambda p: p.image)
    images = [p.image for p in labels]
    rank = {a: i for i, a in enumerate(images)}.get
    columns = [map(rank, map(_right_multiplier(s), images)) for s in images]
    neighbors = [[v for v in row if v is not None] for row in zip(*columns)]
    return Graph(labels, neighbors)


def induced_subgraph(g: Graph, vertices) -> Graph:
    """Subgraph induced on the given labels, re-ranked lexicographically.

    The rows are g's rows restricted to the kept vertices and renumbered
    by a bijection of them, and the labels are distinct vertices of g
    (index_of refuses any other).  Restriction keeps a simple graph
    simple, so the already-validated g needs no re-check here.
    """
    labels = sorted(set(vertices), key=lambda p: p.image)
    old = [g.index_of(p) for p in labels]
    keep = {o: i for i, o in enumerate(old)}
    neighbors = [
        [keep[u] for u in g.neighbors[o] if u in keep] for o in old
    ]
    return Graph._trusted(labels, neighbors)


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
    ten vertices.  The claim prop5.15 checks the cycle against gamma_v: each
    vertex once, and each consecutive pair an edge.
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
    return cycle


# ---------------------------------------------------------------------------
# Distances.


def identity_distances(n: int, budget=NO_BUDGET) -> list[int | None]:
    """Distance in the Cayley graph over T_n from the identity to each rank
    of sym_index(n): level d of the layers (perms.layers) under right
    multiplication by T_n, read with the budget once per level.  A rank no
    level reaches keeps None."""
    index = sym_index(n)
    dist = [None] * len(index)
    steps = [_right_multiplier(t.image) for t in tn_realizations(n)]
    for d, level in enumerate(layers([tuple(range(1, n + 1))], steps, budget)):
        for a in level:
            dist[index[a]] = d
    return dist


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

    # Each link b of the chain is one slice of a, as the search made it (T_n
    # is closed under inverses, so this holds on the target side too), and
    # the slices and cuts share one order.
    steps = [cuts[expand(a).index(b)] for a, b in zip(chain, chain[1:])]
    return len(steps), steps


# ---------------------------------------------------------------------------
# Exact isomorphism testing: partition refinement plus backtracking.


def closed_walk_counts(neighbors, kmax: int = 6) -> list[tuple[int, ...]]:
    """Per-vertex counts of closed walks of lengths 2..kmax (exact integers).

    Row v of A^k is packed into one Python int, entry u in the field of
    width bits at offset u * width, so row v of A^k is the plain sum of
    the A^(k-1) rows of v's neighbours, and diag(A^k)[v] is field v of
    row v.  The fields never carry into each other: an entry of A^k counts
    walks of length k, so it is at most dmax^k < 2^(k * bit_length(dmax)),
    which for k <= kmax fits in width = kmax * bit_length(dmax) + 1 bits,
    and every partial sum of a row is bounded entrywise by the row itself.
    """
    nv = len(neighbors)
    if kmax < 2:
        return [()] * nv
    dmax = max(map(len, neighbors), default=0)
    width = kmax * max(dmax, 1).bit_length() + 1
    mask = (1 << width) - 1
    shifts = range(0, nv * width, width)
    rows = [1 << s for s in shifts]  # A^0
    diagonals = []
    for k in range(1, kmax + 1):
        rows = [sum(map(rows.__getitem__, ns)) for ns in neighbors]
        if k >= 2:
            diagonals.append([(row >> s) & mask for row, s in zip(rows, shifts)])
    return list(zip(*diagonals))


def _neighbor_gathers(nbrs):
    """Per vertex, a C-level gather of its neighbours' entries as a tuple."""
    gathers = []
    for ns in nbrs:
        if len(ns) > 1:
            gathers.append(itemgetter(*ns))
        elif ns:  # itemgetter of one index returns the entry, not a tuple
            gathers.append(lambda c, u=ns[0]: (c[u],))
        else:
            gathers.append(lambda c: ())
    return gathers


def _union_gathers(nbrs1, nbrs2):
    """The _neighbor_gathers of the disjoint union, graph 2 after graph 1."""
    half = len(nbrs1)
    shifted = [[u + half for u in ns] for ns in nbrs2]
    return _neighbor_gathers(list(nbrs1) + shifted)


def _preserves_edges(gathers, sets, imgs):
    """Whether imgs maps every neighbour of each u to a neighbour of imgs[u].

    gathers are a graph's _neighbor_gathers (only the first len(imgs) are
    read), sets the neighbour sets of the image graph.  Each vertex is
    checked at C level, so every edge is checked from both ends.
    """
    return all(sets[w].issuperset(g(imgs)) for w, g in zip(imgs, gathers))


def _refine(gets, colors, half=0):
    """Split colour classes by neighbour colour multisets until none splits.

    gets are the graph's _neighbor_gathers; colours are any sortable values,
    renumbered each round in sorted (colour, neighbour colours) order.  To
    match two graphs, refine their disjoint union (_union_gathers) with
    half = graph 1's vertex count: None when the halves' colour counts
    differ.  The last round only renames whole classes, so counts stay equal.
    """
    while True:
        if half and Counter(colors[:half]) != Counter(colors[half:]):
            return None
        width = len(set(colors))
        sigs = [(c, tuple(sorted(g(colors)))) for c, g in zip(colors, gets)]
        ids = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colors = [ids[s] for s in sigs]
        if len(ids) == width:
            return colors


def _first_isomorphism(gets, sets2, colors, budget):
    """One colour-preserving isomorphism between two graphs, or None.

    Works on the disjoint union of the two graphs: gets are its
    _union_gathers, colors its colouring (graph 1 first), and sets2 holds
    graph 2's neighbour sets.  Complete backtracking: refine, then in the
    smallest split colour of graph 1 map its first vertex u to each vertex
    of that colour in graph 2, in ascending order, and stop at the first
    leaf whose mapping preserves every edge.  It finds a mapping whenever
    one exists.  The budget is read at every node.
    """
    half = len(sets2)

    def rec(c):
        budget.check()
        c = _refine(gets, c, half)
        if c is None:
            return None
        target, u = _target(c[:half])
        if u is None:
            pos2 = {col: v for v, col in enumerate(c[half:])}
            mapping = [pos2[col] for col in c[:half]]
            return tuple(mapping) if _preserves_edges(gets, sets2, mapping) else None
        fresh = len(c)
        for v in range(half, len(c)):
            if c[v] != target:
                continue
            d = list(c)
            d[u] = fresh
            d[v] = fresh
            found = rec(d)
            if found is not None:
                return found
        return None

    return rec(list(colors))


def _target(colors):
    """The smallest colour held by more than one vertex, and its first vertex.

    (None, None) when the colouring is discrete.
    """
    first = {}
    split = set()
    for v, c in enumerate(colors):
        if c in first:
            split.add(c)
        else:
            first[c] = v
    if not split:
        return None, None
    target = min(split)
    return target, first[target]


def automorphism_generators(nbrs, colors, budget=NO_BUDGET) -> list[tuple[int, ...]]:
    """Generators of the group of colour-preserving automorphisms of a graph.

    A search of the kind nauty makes (McKay & Piperno, "Practical graph
    isomorphism, II", JSC 2014), pruned by the automorphisms already found.
    At each node along the first path, refine the colouring, take the
    smallest split colour T and its first vertex u, and:
      - recurse with u individualised (u -> u) for generators of the
        stabilizer of u;
      - for each other v in T, in ascending order, skip v if it lies in
        the orbit of u under the generators found so far; otherwise ask
        _first_isomorphism, on two copies of the graph, for one map with
        u -> v, and keep it.
    The budget is read at every node and every orbit level.

    Completeness.  Write A(c) for the automorphisms that keep the colouring
    c (a(x) has the colour of x).  Refinement is invariant under
    automorphisms, so A(c) = A(refined c).  By induction on the number of
    colours, the generators returned at a node generate A(c):
      - a discrete colouring leaves A(c) = {identity}, and none is returned;
      - the u -> u subtree returns, by induction, generators of A(c with u
        individualised), which is the stabilizer A(c)_u;
      - A(c) keeps colours, so the orbit of u under A(c) lies in T.  For
        each v in T not yet in the orbit of u under the generators, the
        complete backtracking below u -> v finds a map whenever A(c) holds
        one taking u to v.  So the generated group H reaches every point
        of u's orbit under A(c);
      - H lies in A(c) and contains A(c)_u, so by orbit-stabilizer
        |H| = |u^H| |H_u| >= |u^A(c)| |A(c)_u| = |A(c)|, and H = A(c).
    Every generator is a leaf whose edges were checked; every other
    element of the group is a product of checked automorphisms.
    """
    sets = [frozenset(ns) for ns in nbrs]
    get = _neighbor_gathers(nbrs)
    both = _union_gathers(nbrs, nbrs)
    gens = []

    def rec(c):
        budget.check()
        c = _refine(get, c)
        target, u = _target(c)
        if u is None:
            return
        fresh = len(c)  # refined colours lie below len(c)
        pinned = list(c)
        pinned[u] = fresh
        rec(pinned)
        orbit = _orbit(u, gens, budget)
        for v in range(u + 1, len(c)):
            if c[v] != target or v in orbit:
                continue
            moved = list(c)
            moved[v] = fresh
            found = _first_isomorphism(both, sets, pinned + moved, budget)
            if found is not None:
                gens.append(found)
                orbit = _orbit(u, gens, budget)

    rec(list(colors))
    return gens


def _orbit(point, gens, budget):
    return closure([point], [m.__getitem__ for m in gens], budget=budget)


def graphs_isomorphic(g1: Graph, g2: Graph, budget=NO_BUDGET):
    """A vertex bijection g1 -> g2 preserving adjacency, or None.

    Exact: integer walk-count invariants reject fast, then refinement with
    backtracking decides, starting from the degree and walk counts of each
    vertex.  No heuristic answers.  Each graph keeps its walk counts, so
    matching one graph against many counts it once.
    """
    if g1.num_vertices != g2.num_vertices or g1.num_edges != g2.num_edges:
        return None
    w1 = g1.closed_walks()
    w2 = g2.closed_walks()
    if sorted(w1) != sorted(w2):
        return None
    s1 = [(len(g1.neighbors[v]),) + w1[v] for v in range(g1.num_vertices)]
    s2 = [(len(g2.neighbors[v]),) + w2[v] for v in range(g2.num_vertices)]
    gets = _union_gathers(g1.neighbors, g2.neighbors)
    found = _first_isomorphism(gets, g2.neighbor_sets, s1 + s2, budget)
    return None if found is None else list(found)


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
