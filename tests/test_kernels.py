"""Table-driven group kernels against the per-entry loops they replaced.

Each oracle below is the earlier implementation, kept here only as the
reference: the arithmetic toric and inverse-toric kernels, the
per-element kernels behind the packed twins that build the toric,
inverse-toric, inversion and reversal tables, compose_lh_barf on every
pair (the normal form that the closure proof of prop4.4 derives), the
breadth-first closure over left products that lemma6.4
ran before it traced rank columns, product rows
hashed through sym_index before they were composed from rank columns,
the per-element sweep of the toric and inverse-toric conjugation routes
before they became column passes over the lift columns, the dihedral vertex
maps induced one vertex at a time before they were read from the shared
rank tables, bar_f_r ranked element by element before its witness ranked
the column twin, the per-element power-function loops of skew-toric,
prop7.2 and thm7.3 before each became one column comparison,
the row-by-row skew-morphism decision (toric_oracles.oracle_check_skew)
and the regular Cayley map (toric_oracles.oracle_map_witness) that
bar_f_witness read its witness off before it derived it from the B tables
and their rotation form, face tracing by rotating each
orbit to its least dart and sorting, the breadth-first closure and
its levels, the breadth-first listing of a generated group before it was
listed by cosets (now those of a stabilizer chain), closed-walk counts from dense powers of A before they were
packed into one int per row, colour refinement through per-vertex
gathers, and the complete backtracking search that listed every
automorphism leaf by leaf before the search for generators pruned by the
automorphisms already found.
"""

import hashlib
from collections import Counter, deque
from functools import partial
from itertools import permutations, repeat
from math import factorial, gcd
from operator import mul
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from btcayley import perms, toric, verify
from btcayley.autgroup import (
    _automorphisms,
    aut_group,
    generated_subgroup,
    orbit_images,
    perm_vertex_map,
    stabilizer_of_identity,
)
from btcayley.blocktrans import make_bt, tn_realizations
from btcayley.budget import NO_BUDGET, BudgetExceeded, ClaimFailure
from btcayley.graphs import (
    Graph,
    _neighbor_gathers,
    _refine,
    _union_gathers,
    automorphism_generators,
    build_cayley,
    closed_walk_counts,
    gamma,
    identity_distances,
    vertex_set_V,
)
from btcayley.maps import (
    CayleyMap,
    face_lines,
    is_regular,
    map_report,
    mprime_n5_map,
    octahedron_map,
    prop72_map,
)
from btcayley.perms import (
    Permutation,
    StabilizerChain,
    _lift_columns,
    _product_rows,
    _rank_columns,
    _right_multiplier,
    closure,
    identity,
    invert_images,
    layers,
    lift,
    sym_group,
    sym_index,
)
from btcayley.toric import (
    apply_dihedral,
    bar_f,
    bar_f_image,
    bar_f_images,
    bar_f_witness,
    compose_lh_barf,
    dihedral_elements,
    dihedral_image,
    reverse_image,
    reverse_images,
    toric_image,
    toric_images,
)
from toric_oracles import (
    additivity_fault,
    b_tables,
    bar_f_conj,
    oracle_check_skew,
    oracle_compose,
    oracle_invert,
    oracle_map_witness,
    product_rule_fault,
    toric_f_conj,
)


# ---------------------------------------------------------------------------
# Oracles.


def _oracle_toric_image(a, r):
    m = len(a) + 1
    r %= m
    ext = (0,) + a
    pr = ext[r]
    return tuple([(v - pr) % m for v in ext[r + 1 :] + ext[:r]])


def _oracle_bar_f_image(a, r):
    m = len(a) + 1
    r %= m
    ext = (0,) + a
    s = ext.index(r)
    return tuple([(v - r) % m for v in ext[s + 1 :] + ext[:s]])


def _oracle_product_rows(n, images):
    """One itemgetter per generator, each product hashed through sym_index."""
    index = sym_index(n)
    rank = index.__getitem__
    return zip(*[map(rank, map(_right_multiplier(x), index)) for x in images])


def _oracle_dense_closed_walks(neighbors, kmax=6):
    """diag(A^(a+b)) = <A^a e_v, A^b e_v> from dense rows of A^1..A^ceil(kmax/2)."""
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


def _oracle_faces(m):
    """Orbits of R o T on (tail, generator) pairs, each rotated to its least dart, sorted.

    R advances the generator along the order of m.gens, and T sends
    (p, x) to (p o x, x^-1); the faces come back as dart numbers
    rank(tail) * k + slot(generator).
    """
    rank = {p: i for i, p in enumerate(m.elements)}
    slot = {x: i for i, x in enumerate(m.gens)}
    k = len(m.gens)

    def rotation(d):
        return d[0], m.gens[(slot[d[1]] + 1) % k]

    def reverse(d):
        return d[0].compose(d[1]), d[1].inverse()

    seen = set()
    out = []
    for p in m.elements:
        for x in m.gens:
            d = (p, x)
            orbit = []
            while d not in seen:
                seen.add(d)
                orbit.append(rank[d[0]] * k + slot[d[1]])
                d = rotation(reverse(d))
            if orbit:
                pivot = orbit.index(min(orbit))
                out.append(orbit[pivot:] + orbit[:pivot])
    return sorted(out)


def _oracle_closed_walks(neighbors, kmax):
    nv = len(neighbors)
    out = []
    for v in range(nv):
        vec = [0] * nv
        vec[v] = 1
        row = []
        for step in range(kmax):
            nxt = [0] * nv
            for u, cnt in enumerate(vec):
                if cnt:
                    for w in neighbors[u]:
                        nxt[w] += cnt
            vec = nxt
            if step >= 1:
                row.append(vec[v])
        out.append(tuple(row))
    return out


def _shared_colors(sigs1, sigs2):
    ids = {s: i for i, s in enumerate(sorted(set(sigs1) | set(sigs2)))}
    return [ids[s] for s in sigs1], [ids[s] for s in sigs2]


def _oracle_refine_pair(nbrs1, nbrs2, c1, c2):
    while True:
        if Counter(c1) != Counter(c2):
            return None
        width = len(set(c1) | set(c2))
        s1 = [(c1[v], tuple(sorted(c1[u] for u in nbrs1[v]))) for v in range(len(c1))]
        s2 = [(c2[v], tuple(sorted(c2[u] for u in nbrs2[v]))) for v in range(len(c2))]
        c1, c2 = _shared_colors(s1, s2)
        if len(set(c1) | set(c2)) == width:
            return (c1, c2) if Counter(c1) == Counter(c2) else None


def _oracle_all_automorphisms(nbrs, colors):
    """Every colour-preserving automorphism, one edge-checked leaf each.

    The complete backtracking search without pruning: in the smallest split
    colour, map its first vertex to every vertex of that colour in turn.
    """
    nv = len(nbrs)
    sets = [frozenset(ns) for ns in nbrs]
    results = []

    def leaf(c1, c2):
        pos2 = {c: v for v, c in enumerate(c2)}
        mapping = [pos2[c] for c in c1]
        for v in range(nv):
            for u in nbrs[v]:
                if mapping[u] not in sets[mapping[v]]:
                    return
        results.append(tuple(mapping))

    def rec(c1, c2):
        refined = _oracle_refine_pair(nbrs, nbrs, c1, c2)
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

    rec(list(colors), list(colors))
    return sorted(results)


def _oracle_gamma_neighbors(labels):
    """Neighbours in gamma by the pairwise loop: v ~ u when u^-1 o v is in T_n."""
    member = {p.image for p in labels}
    return [
        tuple(
            v
            for v, q in enumerate(labels)
            if v != u and oracle_compose(oracle_invert(p.image), q.image) in member
        )
        for u, p in enumerate(labels)
    ]


def _oracle_orbit(gens, seed):
    seen = {seed}
    frontier = [seed]
    while frontier:
        nxt = []
        for a in frontier:
            for d in gens:
                b = dihedral_image(d, a)
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return seen


def _oracle_bfs_layers(g, root):
    """Distance from root per vertex (-1 for unreachable), by a queue."""
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


def _oracle_subgroup(gen_imgs):
    ident = tuple(range(1, len(gen_imgs[0]) + 1))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for t in frontier:
            for gimg in gen_imgs:
                prod = oracle_compose(t, gimg)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return seen


def _oracle_first_route_fault(grp, tables, images, route_of):
    """First (r, p), shift-major, where a conjugation route misses table r.

    route_of(p) does the work that depends on p alone once and returns the
    route r -> Permutation; the answer is the pair a sweep over r outside
    and p inside would meet first, or None when the route agrees everywhere.
    """
    fault = None
    for i, p in enumerate(grp):
        route = route_of(p)
        for r in range(len(tables) if fault is None else fault[0]):
            if route(r).image != images[tables[r][i]]:
                fault = (r, p)
                break
    return fault


# ---------------------------------------------------------------------------
# Toric and inverse-toric kernels.


@pytest.mark.parametrize("n", range(9))
def test_kernels_read_the_same_differences_as_the_arithmetic_forms(n):
    # Every element up to n = 6, then about 720 evenly spaced ones.
    m = n + 1
    elements = list(permutations(range(1, n + 1)))
    for a in elements[:: max(1, len(elements) // 720)]:
        for r in range(-m, 2 * m + 1):
            assert toric_image(a, r) == _oracle_toric_image(a, r), (a, r)
            assert bar_f_image(a, r) == _oracle_bar_f_image(a, r), (a, r)


def _packed(images):
    """Image tuples as the columns of a packed twin: column t-1 holds every entry t."""
    return tuple(map(bytes, zip(*images)))


# kind: (packed twin, per-element kernel, whether both take a shift r)
TWINS = {
    "toric": (toric_images, toric_image, True),
    "bar": (bar_f_images, bar_f_image, True),
    "invert": (invert_images, oracle_invert, False),
    "reverse": (reverse_images, reverse_image, False),
}


@pytest.mark.parametrize("kind", sorted(TWINS))
@pytest.mark.parametrize("n", range(1, 9))
def test_column_twins_equal_their_kernels_on_all_of_sym_n(n, kind):
    twin, kernel, shifted = TWINS[kind]
    images = list(sym_index(n))
    if not shifted:
        assert twin(n) == _packed(map(kernel, images))
        return
    # Every shift, and one past each end, below degree 8; at 8 every shift once.
    shifts = range(-1, n + 3) if n < 8 else range(n + 1)
    for r in shifts:
        assert twin(n, r) == _packed(map(kernel, images, repeat(r))), r


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from(sorted(TWINS)),
    st.integers(min_value=-9, max_value=17),
    st.lists(st.integers(min_value=0, max_value=factorial(8) - 1), min_size=1, max_size=200),
)
def test_column_twins_equal_their_kernels_at_degree_8(kind, r, ranks):
    twin, kernel, shifted = TWINS[kind]
    images = list(sym_index(8))
    got = list(zip(*(twin(8, r) if shifted else twin(8))))
    assert len(got) == len(images)
    for i in ranks:
        assert got[i] == (kernel(images[i], r) if shifted else kernel(images[i])), (i, r)


@pytest.mark.parametrize("n", [3, 4])
def test_compose_lh_barf_is_the_table_normal_form_at_every_pair(n):
    # The normal form L_d o bar_f_e of the closure proof of prop4.4, with
    # d = T(h, r)[rank k] and e = (u + (k^-1)_r) mod m read from tables,
    # at every pair and every u.
    m = n + 1
    idx = sym_index(n)
    grp = sym_group(n)
    bar = [tuple(map(idx.__getitem__, map(bar_f_image, idx, repeat(r)))) for r in range(m)]
    for h, row in zip(grp, _product_rows(n, list(idx))):
        for r in range(m):
            t = [row[b] for b in bar[r]]
            for k in grp:
                s = ((0,) + oracle_invert(k.image))[r]
                for u in range(m):
                    assert compose_lh_barf(h, r, k, u) == (grp[t[idx[k.image]]], (u + s) % m)


def _oracle_left_component(gens):
    """The identity component of Cay(Sym_n, gens) by left products q o p."""
    ident = tuple(range(1, len(gens[0]) + 1))
    seen = {ident}
    frontier = [ident]
    while frontier:
        reached = {oracle_compose(q, a) for a in frontier for q in gens}
        frontier = reached - seen
        seen |= frontier
    return seen


@pytest.mark.parametrize("n", range(4, 8))
def test_rank_column_closure_is_the_left_product_component(n):
    gens = [make_bt(c).image for c in vertex_set_V(n)]
    images = list(sym_index(n))
    steps = [column.__getitem__ for column in _rank_columns(n, gens)]
    reached = {images[i] for i in closure([0], steps)}
    assert reached == _oracle_left_component(gens)


ROUTES = {"toric": (toric_image, toric_f_conj), "bar": (bar_f_image, bar_f_conj)}


def _kernel_images(n, kernel):
    """The images of all of Sym_n under kernel at every shift r = 0..n, in rank order."""
    return [list(map(kernel, sym_index(n), repeat(r))) for r in range(n + 1)]


def _column_route_fault(n, kind, shifted_images):
    """The (r, p) the claim's column pass fails at, shift by shift, or None."""
    images = list(sym_index(n))
    points = _lift_columns(n)
    m = n + 1
    for r, twin_images in enumerate(shifted_images):
        # [0 f_r(p)] = alpha^(m-p_r) o [0 p] o alpha^r and
        # [0 bar_f_r(p)] = alpha^(m-r) o [0 p] o alpha^((p^-1)_r).
        if kind == "toric":
            shifts = [(-((0,) + a)[r] % m, r) for a in images]
        else:
            shifts = [(-r % m, ((0,) + oracle_invert(a))[r]) for a in images]
        left, right = map(bytes, zip(*shifts))
        columns = toric._rotation_route(points, left, right)
        try:
            toric._check_route(columns, _packed(twin_images), images, r=r)
        except ClaimFailure as exc:
            assert str(exc) == "defining forms disagree"
            return exc.counterexample
    return None


def _oracle_route_fault(n, kind, shifted_images):
    idx = sym_index(n)
    tables = [tuple(map(idx.__getitem__, row)) for row in shifted_images]
    fault = _oracle_first_route_fault(
        sym_group(n), tables, list(idx), lambda p: partial(ROUTES[kind][1], p)
    )
    return None if fault is None else {"p": str(fault[1]), "r": str(fault[0])}


@pytest.mark.parametrize("kind", sorted(ROUTES))
@pytest.mark.parametrize("n", range(3, 7))
def test_column_routes_agree_with_the_kernels_on_all_of_sym_n(n, kind):
    shifted_images = _kernel_images(n, ROUTES[kind][0])
    assert _oracle_route_fault(n, kind, shifted_images) is None
    assert _column_route_fault(n, kind, shifted_images) is None


@st.composite
def _route_faults(draw):
    """A kernel wrong at one to three (p, r), each by two swapped entries of its image."""
    n = draw(st.integers(min_value=3, max_value=6))
    kind = draw(st.sampled_from(sorted(ROUTES)))
    fault = st.tuples(
        st.integers(min_value=0, max_value=factorial(n) - 1),
        st.integers(min_value=0, max_value=n),
        st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True),
    )
    faults = draw(st.lists(fault, min_size=1, max_size=3, unique_by=lambda f: f[:2]))
    return n, kind, faults


@settings(max_examples=80, deadline=None)
@given(_route_faults())
def test_column_routes_report_kernel_faults_as_the_sweep_does(case):
    n, kind, faults = case
    kernel = ROUTES[kind][0]
    grp = sym_group(n)
    swaps = {(grp[i].image, r): xy for i, r, xy in faults}

    def faulty(a, s):
        b = list(kernel(a, s))
        if (a, s) in swaps:
            x, y = swaps[a, s]
            b[x], b[y] = b[y], b[x]
        return tuple(b)

    shifted_images = _kernel_images(n, faulty)
    i, r = min(((i, r) for i, r, _ in faults), key=lambda f: (f[1], f[0]))
    want = {"p": str(grp[i]), "r": str(r)}
    assert _oracle_route_fault(n, kind, shifted_images) == want
    assert _column_route_fault(n, kind, shifted_images) == want


# ---------------------------------------------------------------------------
# Product rows and the products behind gamma.


@pytest.mark.parametrize("n", range(1, 7))
def test_product_rows_are_the_ranks_of_the_products(n):
    idx = sym_index(n)
    images = list(idx)
    gens = images[:: max(1, len(images) // 30)]
    want = [tuple(idx[oracle_compose(p, x)] for x in gens) for p in images]
    assert list(_product_rows(n, gens)) == want


# The prop4.4 oracle of test_verify.py multiplies by every element of Sym_n,
# the identity included.
@pytest.mark.parametrize(
    "n, group", [(n, "T_n") for n in range(2, 8)] + [(n, "Sym_n") for n in range(1, 5)]
)
def test_composed_columns_match_the_hashed_rows(n, group):
    if group == "T_n":
        images = [p.image for p in tn_realizations(n)]
    else:
        images = list(sym_index(n))
    assert list(_product_rows(n, images)) == list(_oracle_product_rows(n, images))


@st.composite
def _inverse_closed_sets(draw):
    """A degree and an inverse-closed, identity-free, duplicate-free set of images."""
    n = draw(st.integers(min_value=1, max_value=6))
    drawn = draw(st.lists(st.permutations(range(1, n + 1)), max_size=8))
    images = []
    for a in map(tuple, drawn):
        for b in (a, oracle_invert(a)):
            if b != tuple(range(1, n + 1)) and b not in images:
                images.append(b)
    return n, images


@settings(max_examples=80, deadline=None)
@given(_inverse_closed_sets())
def test_composed_columns_match_the_hashed_rows_on_random_sets(case):
    n, images = case
    assert list(_product_rows(n, images)) == list(_oracle_product_rows(n, images))


@pytest.mark.parametrize("n", range(2, 9))
def test_gamma_products_give_the_pairwise_neighbours(n):
    g = gamma(n)
    assert list(g.labels) == sorted(tn_realizations(n), key=lambda p: p.image)
    assert list(g.neighbors) == _oracle_gamma_neighbors(g.labels)


# ---------------------------------------------------------------------------
# Faces.


def _reordered_octahedron():
    gens = octahedron_map().gens
    return CayleyMap(3, (gens[1], gens[0], gens[2], gens[3]))


FACE_MAPS = {
    **{f"prop72_map({n})": (lambda n=n: prop72_map(n)) for n in range(3, 8)},
    "mprime_n5_map()": mprime_n5_map,
    "reordered octahedron": _reordered_octahedron,
}


@pytest.mark.parametrize("name", sorted(FACE_MAPS))
def test_faces_from_the_successor_list_match_the_sorted_orbits(name):
    m = FACE_MAPS[name]()
    assert m.faces() == _oracle_faces(m)


# SHA-256 of face_lines when it read each dart's tail back through sym_index.
FACE_LINE_DIGESTS = {
    "prop72_map(3)": "b1cddd01f0831bea7aa0ee9aab930483c42fa11cec31441165bfee2739263af7",
    "prop72_map(4)": "dae9b3744aacd3b6511d31d45efaac29d4af4bb0106db2a7d71e19e89f8d3c48",
    "prop72_map(5)": "c578d248e93b3e161fd1fa2d0b54fca5d53c73466796e2d51d37e73bb5c4196a",
    "prop72_map(6)": "0978fba838098610c46ab6a06351442104e989625963e3a5899dc610bf77cb41",
    "prop72_map(7)": "cdbdfb8b830cc94e34bced7f862c1cecb5e678a4a4afd8d14b087156905de837",
    "mprime_n5_map()": "cfbbfdff61cf9d0893068e7ba6890fb6d214a3b5d50951a9e1b4c0b9dcfa09f4",
}


@pytest.mark.parametrize("name", sorted(FACE_LINE_DIGESTS))
def test_face_lines_from_dart_numbers_keep_their_bytes(name):
    m = FACE_MAPS[name]()
    text = face_lines(m)
    assert hashlib.sha256(text.encode()).hexdigest() == FACE_LINE_DIGESTS[name]
    faces = m.faces()
    tails = [[m.elements[d // m.valency] for d in f] for f in faces]
    walks = [" ".join(str(sym_index(m.n)[p.image]) for p in walk) for walk in tails]
    assert text == "\n".join(walks) + "\n"
    assert m.euler_characteristic() == len(m.elements) - m.dart_count // 2 + len(faces)


@pytest.mark.parametrize("name", ["prop72_map(3)", "prop72_map(5)", "mprime_n5_map()"])
def test_map_report_counts_the_traced_faces(name):
    m = FACE_MAPS[name]()
    faces = m.faces()
    report = map_report(m)
    assert report["face_count"] == len(faces)
    sizes = Counter(map(len, faces))
    assert report["face_size_histogram"] == {str(k): v for k, v in sorted(sizes.items())}
    assert report["euler_characteristic"] == m.euler_characteristic()


# ---------------------------------------------------------------------------
# Which maps bar_f_r are skew morphisms: bar_f_witness, derived from the B
# tables, against the row-by-row oracle and the Cayley-map witness it replaced.


@pytest.mark.parametrize("n", range(1, 7))
def test_bar_f_witness_ranks_the_per_element_images(n):
    elements = sym_group(n)
    idx = sym_index(n)
    for r in range(n + 1):
        psi = tuple(idx[bar_f(p, r).image] for p in elements)
        w = bar_f_witness(n, r)
        got = None if w is None else (w.psi, w.order, w.pi_power)
        assert got == oracle_check_skew(elements, psi), r
        if w is not None:
            assert w.elements is elements, r


@pytest.fixture
def plant_bar_f_images(monkeypatch):
    """plant(n, r, change) makes toric.bar_f_images give change(images) at (n, r),
    or at (n, s) for each s in r when r is a range.  Every reader of the B
    tables takes that one twin.

    toric.clear_cache runs on the way in and on the way out, so no planted
    table, fault or witness outlives the test.
    """
    true = toric.bar_f_images

    def plant(n, r, change):
        shifts = r if isinstance(r, range) else (r,)

        def planted(m, s):
            columns = true(m, s)
            if m != n or s not in shifts:
                return columns
            return tuple(map(bytes, zip(*change(list(zip(*columns))))))

        monkeypatch.setattr(toric, "bar_f_images", planted)
        toric.clear_cache()

    yield plant
    toric.clear_cache()


def _swap_last_two(images):
    images[-2], images[-1] = images[-1], images[-2]
    return images


def test_a_warm_witness_is_derived_again_once_the_inversion_twin_is_planted(monkeypatch):
    # The witness cache is keyed on the twins, as the fault of the B tables
    # is: an inversion twin planted after a warm call gives the rotation
    # form of the B twin a wrong right shift, and the next call must see it.
    true = perms.invert_images

    def planted(n):
        columns = true(n)
        return tuple(map(bytes, zip(*_swap_last_two(list(zip(*columns)))))) if n == 5 else columns

    assert bar_f_witness(5, 1).order == 6
    monkeypatch.setattr(perms, "invert_images", planted)
    try:
        with pytest.raises(ClaimFailure, match="defining forms disagree") as exc:
            bar_f_witness(5, 1)
        assert exc.value.counterexample == {"p": str(sym_group(5)[-2]), "r": "1"}
    finally:
        toric.clear_cache()


def test_two_swapped_ranks_at_a_coprime_shift_fail_skew_toric(plant_bar_f_images):
    # B[5] leaves its rotation form first at the rank of the second-last
    # element, and is no longer B[1] o B[4] there.
    plant_bar_f_images(5, 5, _swap_last_two)
    with pytest.raises(ClaimFailure, match="defining forms disagree") as exc:
        bar_f_witness(5, 5)
    assert exc.value.counterexample == {"p": str(sym_group(5)[-2]), "r": "5"}
    report = verify.run_claim("skew-toric", 5)
    assert report.status == "failed"
    assert report.details["error"] == "defining forms disagree"
    assert report.counterexample == {"p": str(sym_group(5)[-2]), "r": "5"}
    fault = additivity_fault(5, b_tables(5))
    assert fault == ("inverse-toric shifts do not add", {"p": sym_group(5)[-2], "r": 5})


def test_a_wrong_table_no_route_decides_raises(plant_bar_f_images):
    # A wrong B[1] leaves its rotation form, so no witness is derived.
    plant_bar_f_images(5, 1, _swap_last_two)
    with pytest.raises(ClaimFailure, match="defining forms disagree") as exc:
        bar_f_witness(5, 1)
    assert exc.value.counterexample == {"p": str(sym_group(5)[-2]), "r": "1"}


def test_an_identity_table_at_a_shift_sharing_a_factor_is_no_counterexample(plant_bar_f_images):
    # The identity is a skew morphism, whatever the other tables hold; but
    # B[2] = id is not the rotation form of bar_f_2, so skew-toric fails at
    # r = 2.
    identity_table = tuple(range(factorial(5)))
    plant_bar_f_images(5, 2, lambda images: list(sym_index(5)))
    w = bar_f_witness(5, 2)
    assert (w.psi, w.order, w.pi_power) == (identity_table, 1, (0,) * len(identity_table))
    report = verify.run_claim("skew-toric", 5)
    assert report.status == "failed"
    assert report.details["error"] == "defining forms disagree"
    assert report.counterexample["r"] == "2"


def test_relabelled_tables_keep_additivity_and_break_the_product_rule(plant_bar_f_images):
    # Conjugate every B table at n = 5 by the rank involution i -> n! - i,
    # which fixes the identity: the tables still add, but the product rule
    # fails (the oracles), and the route check refuses the planted twin.
    images = list(sym_index(5))
    relabel = {a: images[-i] if i else a for i, a in enumerate(images)}
    plant_bar_f_images(5, range(6), lambda old: [relabel[old[images.index(relabel[a])]] for a in images])
    with pytest.raises(ClaimFailure, match="defining forms disagree") as exc:
        bar_f_witness(5, 1)
    assert exc.value.counterexample == {"p": "[1 2 3 5 4]", "r": "1"}
    report = verify.run_claim("skew-toric", 5)
    assert report.status == "failed"
    assert report.details["error"] == "defining forms disagree"
    assert report.counterexample == {"p": "[1 2 3 5 4]", "r": "1"}
    bar = b_tables(5)
    assert additivity_fault(5, bar) is None
    message, context = product_rule_fault(5, bar)
    assert message == "product rule violated"
    named = {k: str(v) for k, v in context.items()}
    assert named == {"rho": "[1 2 3 5 4]", "pi": "[2 1 3 4 5]", "r": "1"}
    rho, pi, r = (1, 2, 3, 5, 4), (2, 1, 3, 4, 5), 1

    def bar(a, s):
        return tuple(column[images.index(a)] for column in toric.bar_f_images(5, s))

    s = ((0,) + oracle_invert(rho))[r]
    assert bar(oracle_compose(rho, pi), r) != oracle_compose(bar(rho, r), bar(pi, s))


@pytest.mark.parametrize(
    "shifts, change, fault",
    [
        # The image of [1 3 2 5 4], of rank 7, is no permutation.
        (range(3, 4), lambda old: old[:7] + [(1,) * 5] + old[8:], {"p": "[1 3 2 5 4]", "r": "3"}),
        # B[r] sends everything to iota for r >= 1: B[s] = B[1] o B[s-1] for
        # s = 1..n and the product rule hold, but B[1] o B[n] is no identity,
        # and B[1], no bijection, has no order to list its powers by.  Its
        # rotation form fails at the first element that bar_f_1 moves.
        (range(1, 6), lambda old: [old[0]] * len(old), {"p": "[1 2 3 5 4]", "r": "1"}),
    ],
)
def test_tables_that_are_no_bijections_fail_skew_toric(plant_bar_f_images, shifts, change, fault):
    plant_bar_f_images(5, shifts, change)
    with pytest.raises(ClaimFailure) as exc:
        bar_f_witness(5, 1)
    assert exc.value.counterexample == fault
    report = verify.run_claim("skew-toric", 5)
    assert report.status == "failed"
    assert report.counterexample == fault


@pytest.mark.parametrize("n", range(3, 8))
def test_bar_f_witness_is_the_witness_of_the_cayley_map(n):
    # At r prime to n+1 the orbit of s(0,1,n) spans a regular Cayley map whose
    # witness is bar_f_witness; at every other r > 0 there is neither.
    for r in range(1, n + 1):
        w, oracle = bar_f_witness(n, r), oracle_map_witness(n, r)
        assert (oracle is not None) == (gcd(r, n + 1) == 1), r
        if oracle is None:
            assert w is None, r
        else:
            assert (w.psi, w.order, w.pi_power) == (oracle.psi, oracle.order, oracle.pi_power), r
            assert w.elements is oracle.elements, r


@pytest.mark.parametrize("n, orders", [(7, [8, 0, 8, 0, 8, 0, 8]), (8, [9, 9, 0, 9, 9, 0, 9, 9])])
def test_skew_toric_verifies_past_its_cap(n, orders):
    # No Cayley map is built, so the degree cap of CayleyMap does not stop it.
    claim = verify.REGISTRY["skew-toric"]
    assert claim.max_n < n
    details = claim.runner(n, NO_BUDGET)
    want = {"0": 1} | {str(r): o for r, o in enumerate(orders, start=1) if o}
    assert details == {"orders": want, "coprime_count": len(want) - 1}


class _Expiring:
    """A budget whose k-th check() raises BudgetExceeded; it counts its reads."""

    def __init__(self, k):
        self.k, self.reads = k, 0

    def check(self):
        self.reads += 1
        if self.reads >= self.k:
            raise BudgetExceeded(f"expired at read {self.k}")


@pytest.mark.parametrize("k", [1, 5, 9])
def test_skew_toric_builds_no_b_table_past_an_expired_budget(monkeypatch, k):
    # The budget is read before each of the n+1 B tables is built.
    built = []
    true = toric.bar_f_images
    monkeypatch.setattr(toric, "bar_f_images", lambda n, r: built.append(r) or true(n, r))
    toric.clear_cache()
    with pytest.raises(BudgetExceeded):
        verify.REGISTRY["skew-toric"].runner(8, _Expiring(k))
    assert built == list(range(k - 1))
    toric.clear_cache()


@pytest.mark.parametrize("r", [0, 3, 5])
def test_a_route_check_the_budget_stops_keeps_no_fault(r):
    # At 5 the budget is read once per B table, six reads, then once per
    # shift r = 0..5 of the route check: it expires at shift r.
    toric.clear_cache()
    budget = _Expiring(7 + r)
    with pytest.raises(BudgetExceeded):
        toric.bar_tables(5, budget)
    assert budget.reads == 7 + r
    assert toric._held == set()
    assert toric.bar_tables(5, NO_BUDGET) == b_tables(5)
    assert toric._held == {(5, toric.bar_f_images, perms.invert_images)}
    toric.clear_cache()


@pytest.mark.parametrize(
    "form, twin, reads", [("toric_form", "toric_images", 3), ("reverse_form", "reverse_images", 1)]
)
def test_a_form_check_reads_the_budget_on_every_call_and_keeps_nothing_it_stopped(
    form, twin, reads
):
    # The toric check reads the budget once per call, then once per shift:
    # it expires at shift 1.  The reversal check reads it once per call.
    # A held check still reads it.
    check = getattr(toric, form)
    toric.clear_cache()
    with pytest.raises(BudgetExceeded):
        check(5, _Expiring(reads))
    assert toric._held == set()
    check(5, NO_BUDGET)
    assert toric._held == {(5, getattr(toric, twin))}
    with pytest.raises(BudgetExceeded):
        check(5, _Expiring(1))
    toric.clear_cache()


def test_skew_toric_keeps_nothing_half_built_when_its_budget_expires():
    runner = verify.REGISTRY["skew-toric"].runner
    toric.clear_cache()
    full = _Expiring(float("inf"))
    want = runner(5, full)
    for k in range(1, full.reads + 1):
        toric.clear_cache()
        with pytest.raises(BudgetExceeded):
            runner(5, _Expiring(k))
        assert runner(5, NO_BUDGET) == want, k
    toric.clear_cache()


# ---------------------------------------------------------------------------
# The dihedral tables and the power function.


@pytest.mark.parametrize("n", [4, 5])
def test_dihedral_tables_are_the_induced_vertex_maps(n):
    cay = build_cayley(n, tn_realizations(n))
    induced = [
        perm_vertex_map(cay, partial(apply_dihedral, d)).images for d in dihedral_elements(n)
    ]
    assert verify._dihedral_tables(n, NO_BUDGET) == induced


def _oracle_power_fault(w, r, mirrored=False):
    """The per-element loop skew-toric and prop7.2 (r = 1) and thm7.3 (r = 5,
    mirrored) ran: the first p whose power is not (p^-1)_r, or n+1 minus it."""
    for p in w.elements:
        want = lift(p.inverse())[r]
        if w.pi_power_of(p) != (p.n + 1 - want if mirrored else want):
            return p
    return None


# claim: (degrees it runs at, shift, mirrored, the witness it reads)
POWER_CLAIMS = {
    "skew-toric": (range(3, 6), 1, False, lambda n: bar_f_witness(n, 1)),
    "prop7.2": (range(3, 7), 1, False, lambda n: is_regular(prop72_map(n))),
    "thm7.3": ((5,), 5, True, lambda n: is_regular(mprime_n5_map())),
}


def _oracle_powers(n, r, elements):
    """r'(p^-1)_r mod n+1 at each p, row by row, with r r' = 1 mod n+1."""
    m = n + 1
    return [pow(r, -1, m) * p.inverse()(r) % m for p in elements]


@pytest.mark.parametrize("n", range(1, 7))
def test_inverse_column_is_the_entry_of_each_inverse(n):
    # The power rule passes exactly the powers r'(p^-1)_r, at every shift r
    # prime to n+1, and names the one element where they are changed.
    grp = sym_group(n)
    for r in range(1, n + 1):
        if gcd(r, n + 1) != 1:
            continue
        powers = _oracle_powers(n, r, grp)
        verify._power_rule(SimpleNamespace(pi_power=tuple(powers)), n, NO_BUDGET, r, "fault")
        powers[-1] = (powers[-1] + 1) % (n + 1)
        with pytest.raises(verify.ClaimFailure, match="fault") as exc:
            witness = SimpleNamespace(pi_power=tuple(powers))
            verify._power_rule(witness, n, NO_BUDGET, r, "fault", r=r)
        assert exc.value.counterexample == {"p": str(grp[-1]), "r": str(r)}


def test_the_power_rule_holds_on_every_skew_morphism_witness():
    witnesses = [(n, r, bar_f_witness(n, r)) for n in range(3, 8) for r in range(1, n + 1)]
    witnesses.append((5, 5, is_regular(mprime_n5_map())))
    checked = 0
    for n, r, w in witnesses:
        if w is None:
            continue
        assert [w.pi_power_of(p) for p in w.elements] == _oracle_powers(n, r, w.elements), (n, r)
        verify._power_rule(w, n, NO_BUDGET, r, "fault")
        checked += 1
    # The shifts prime to n+1 for n = 3..7, and M'.
    assert checked == 2 + 4 + 2 + 6 + 4 + 1


@pytest.mark.parametrize("n", range(3, 6))
def test_a_tampered_power_at_the_last_shift_fails_skew_toric(monkeypatch, n):
    true = bar_f_witness(n, n)
    powers = list(true.pi_power)
    i = len(powers) // 2
    powers[i] = (powers[i] + 1) % true.order
    tampered = true.replace(pi_power=tuple(powers))
    monkeypatch.setattr(
        verify, "bar_f_witness", lambda m, s: tampered if (m, s) == (n, n) else bar_f_witness(m, s)
    )
    report = verify.run_claim("skew-toric", n)
    assert report.status == "failed"
    assert report.details["error"] == "power function is not r' times entry r of the inverse"
    assert report.counterexample == {"p": str(true.elements[i]), "r": str(n)}


@pytest.mark.parametrize("key", sorted(POWER_CLAIMS))
def test_power_function_columns_pass_where_the_loops_pass(key):
    degrees, r, mirrored, witness = POWER_CLAIMS[key]
    for n in degrees:
        toric.clear_cache()
        assert _oracle_power_fault(witness(n), r, mirrored) is None, n
        assert verify.run_claim(key, n).status == "verified", n


@pytest.mark.parametrize("key", sorted(POWER_CLAIMS))
def test_power_function_columns_report_the_first_fault_of_the_loops(monkeypatch, key):
    degrees, r, mirrored, witness = POWER_CLAIMS[key]
    n = degrees[-1]
    true = witness(n)
    # Two ranks off the connection sets, whose powers the claims read on their own.
    gens = {x.image for x in prop72_map(n).gens + mprime_n5_map().gens}
    ranks = [i for i, p in enumerate(true.elements) if p.image not in gens]
    powers = list(true.pi_power)
    for i in (ranks[-2], ranks[3]):
        powers[i] = (powers[i] + 1) % true.order
    tampered = true.replace(pi_power=tuple(powers))
    if key == "skew-toric":
        monkeypatch.setattr(
            verify, "bar_f_witness", lambda n, s: tampered if s == 1 else bar_f_witness(n, s)
        )
    else:
        monkeypatch.setattr(verify, "is_regular", lambda m, budget=NO_BUDGET: tampered)
    toric.clear_cache()
    report = verify.run_claim(key, n)
    assert report.status == "failed"
    assert report.details["error"].startswith("power function is not the ")
    assert report.counterexample == {"p": str(_oracle_power_fault(tampered, r, mirrored))}
    assert report.counterexample["p"] == str(true.elements[ranks[3]])


# ---------------------------------------------------------------------------
# Closed walks.


@st.composite
def _graphs(draw, max_vertices=12):
    nv = draw(st.integers(min_value=0, max_value=max_vertices))
    pairs = [(u, v) for u in range(nv) for v in range(u + 1, nv)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    neighbors = [[] for _ in range(nv)]
    for u, v in edges:
        neighbors[u].append(v)
        neighbors[v].append(u)
    return [tuple(sorted(ns)) for ns in neighbors]


@settings(max_examples=60, deadline=None)
@given(_graphs(), st.integers(min_value=1, max_value=7))
def test_closed_walk_counts_match_the_per_vertex_walk(neighbors, kmax):
    assert closed_walk_counts(neighbors, kmax) == _oracle_closed_walks(neighbors, kmax)


@settings(max_examples=100, deadline=None)
@given(_graphs(max_vertices=20), st.integers(min_value=1, max_value=8))
def test_packed_walk_counts_match_the_dense_powers(neighbors, kmax):
    assert closed_walk_counts(neighbors, kmax) == _oracle_dense_closed_walks(neighbors, kmax)


def _complete(nv):
    return [tuple(u for u in range(nv) if u != v) for v in range(nv)]


# K_16 has degree 15 = 2^4 - 1, the largest entry a field of 4 bits per
# step holds; K_17 has degree 16, the first that needs 5.
WALK_EDGE_CASES = {
    "empty": [],
    "one vertex": [()],
    "edgeless": [()] * 5,
    "K2": _complete(2),
    "K16": _complete(16),
    "K17": _complete(17),
}


@pytest.mark.parametrize("name", sorted(WALK_EDGE_CASES))
@pytest.mark.parametrize("kmax", [1, 2, 6, 9])
def test_packed_walk_counts_on_edge_cases(name, kmax):
    neighbors = WALK_EDGE_CASES[name]
    got = closed_walk_counts(neighbors, kmax)
    assert got == _oracle_dense_closed_walks(neighbors, kmax)
    nv = len(neighbors)
    if nv > 1 and name.startswith("K"):
        # Closed k-walks at a vertex of K_m: ((m-1)^k + (m-1)(-1)^k) / m.
        want = tuple(((nv - 1) ** k + (nv - 1) * (-1) ** k) // nv for k in range(2, kmax + 1))
        assert got == [want] * nv


@st.composite
def _coloured_pairs(draw, max_vertices=12):
    """A coloured graph and a relabelled copy, with one edge toggled half the time."""
    nbrs1 = draw(_graphs(max_vertices))
    nv = len(nbrs1)
    c1 = draw(st.lists(st.integers(0, 2), min_size=nv, max_size=nv))
    perm = draw(st.permutations(range(nv)))
    sets2 = [set() for _ in range(nv)]
    c2 = [0] * nv
    for v in range(nv):
        sets2[perm[v]] = {perm[u] for u in nbrs1[v]}
        c2[perm[v]] = c1[v]
    if nv >= 2 and draw(st.booleans()):
        a, b = draw(st.permutations(range(nv)))[:2]
        sets2[a] ^= {b}
        sets2[b] ^= {a}
    return nbrs1, [tuple(sorted(ns)) for ns in sets2], c1, c2


@settings(max_examples=200, deadline=None)
@given(_coloured_pairs())
def test_refinement_through_gathers_matches_the_per_vertex_loop(pair):
    # Isolated vertices and leaves take the special cases of the gathers.
    nbrs1, nbrs2, c1, c2 = pair
    got = _refine(_union_gathers(nbrs1, nbrs2), c1 + c2, len(c1))
    want = _oracle_refine_pair(nbrs1, nbrs2, c1, c2)
    assert got == (None if want is None else want[0] + want[1])


@settings(max_examples=100, deadline=None)
@given(_coloured_pairs())
def test_one_sided_refinement_is_each_half_of_the_union_of_two_copies(pair):
    # The first path of the automorphism search refines one side only.
    nbrs, _, c, _ = pair
    one = _refine(_neighbor_gathers(nbrs), c)
    both = _refine(_union_gathers(nbrs, nbrs), c + c, len(c))
    assert both == one + one


# ---------------------------------------------------------------------------
# Automorphism groups from pruned generators.


def _graph(edges, nv):
    """A Graph on nv vertices with Permutation labels (aut_group reads them)."""
    nbrs = [[] for _ in range(nv)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return Graph(sym_group(4)[:nv], nbrs)


def _cycle(nv):
    return [(v, (v + 1) % nv) for v in range(nv)]


# Graphs whose stabilizer chains have several non-trivial levels, with
# their automorphism group orders.
SYMMETRIC_GRAPHS = {
    "K33": (_graph([(u, v) for u in range(3) for v in range(3, 6)], 6), 72),
    "Petersen": (
        _graph(
            _cycle(5)
            + [(v, v + 5) for v in range(5)]
            + [(5 + v, 5 + (v + 2) % 5) for v in range(5)],
            10,
        ),
        120,
    ),
    "Q3": (
        _graph([(u, u ^ b) for u in range(8) for b in (1, 2, 4) if u < u ^ b], 8),
        48,
    ),
    "C8": (_graph(_cycle(8), 8), 16),
    "2K3": (_graph([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)], 6), 72),
    "empty5": (_graph([], 5), 120),
    "K14": (_graph([(0, v) for v in range(1, 5)], 5), 24),
}


@pytest.mark.parametrize("name", sorted(SYMMETRIC_GRAPHS))
def test_aut_group_of_symmetric_graphs_matches_the_unpruned_search(name):
    g, order = SYMMETRIC_GRAPHS[name]
    got = [m.images for m in aut_group(g)]
    assert len(got) == order
    assert got == _oracle_all_automorphisms(g.neighbors, [0] * g.num_vertices)


@pytest.mark.parametrize("n", range(4, 9))
def test_aut_group_of_gamma_matches_the_unpruned_search(n):
    g = gamma(n)
    got = [m.images for m in aut_group(g)]
    assert got == _oracle_all_automorphisms(g.neighbors, [0] * g.num_vertices)


@pytest.mark.parametrize("n", range(3, 6))
def test_identity_stabilizer_matches_the_unpruned_search(n):
    g = build_cayley(n, tn_realizations(n))
    iota = g.index_of(identity(n))
    layer = _oracle_bfs_layers(g, iota)
    colors = [(v != iota, layer[v]) for v in range(g.num_vertices)]
    want = _oracle_all_automorphisms(g.neighbors, colors)
    assert [m.images for m in stabilizer_of_identity(n)] == want


@settings(max_examples=150, deadline=None)
@given(_coloured_pairs(max_vertices=7))
def test_pruned_search_lists_every_coloured_automorphism(pair):
    # Up to 7! = 5040 leaves for the unpruned oracle on an empty graph.
    nbrs, _, colors, _ = pair
    want = _oracle_all_automorphisms(nbrs, colors)
    assert _automorphisms(nbrs, colors, NO_BUDGET) == want


# ---------------------------------------------------------------------------
# Closure.


@pytest.mark.parametrize("n", range(2, 7))
def test_closure_matches_the_orbit_loop(n):
    dih = dihedral_elements(n)
    for seed in list(permutations(range(1, n + 1)))[:: max(1, factorial(n) // 20)]:
        assert orbit_images(dih, seed) == _oracle_orbit(dih, seed)
        assert orbit_images(dih[1:2], seed) == _oracle_orbit(dih[1:2], seed)


@pytest.mark.parametrize("n", range(4, 8))
def test_closure_matches_the_subgroup_loop(n):
    gens = [make_bt(c) for c in vertex_set_V(n)]
    want = _oracle_subgroup([p.image for p in gens])
    assert {p.image for p in generated_subgroup(gens)} == want


def _check_coset_listing(degree, gens, start, want):
    """The stabilizer chain's listing from point start on, one right coset
    of each level's stabilizer at a time, against the breadth-first set."""
    chain = StabilizerChain(degree, gens)
    got = chain.elements(start)
    assert got[0] == tuple(range(start, degree))
    assert len(got) == len(set(got))  # each element formed once
    assert set(got) == want
    assert chain.order() == len(want)


def _check_subgroup_listing(gens):
    """The listing of one-line images, and generated_subgroup at and just under |G|."""
    want = _oracle_subgroup(gens)
    # The chain of the lifts [0 g] lists the one-line images from point 1 on.
    _check_coset_listing(len(gens[0]) + 1, [(0,) + g for g in gens], 1, want)
    perms = [Permutation(g) for g in gens]
    assert {p.image for p in generated_subgroup(perms, limit=len(want))} == want
    with pytest.raises(ValueError):
        generated_subgroup(perms, limit=len(want) - 1)


@st.composite
def _generator_lists(draw):
    """Generator images in Sym_n, n = 1..6, with the identity, repeats and
    members of the group so far among them."""
    n = draw(st.integers(min_value=1, max_value=6))
    ident = tuple(range(1, n + 1))
    perm = st.permutations(ident).map(tuple)
    gens = draw(st.lists(perm, min_size=1, max_size=4))
    if draw(st.booleans()):
        gens.insert(draw(st.integers(0, len(gens))), ident)
    if draw(st.booleans()):
        gens.append(draw(st.sampled_from(gens)))  # a repeat
    if draw(st.booleans()):
        a, b = draw(st.sampled_from(gens)), draw(st.sampled_from(gens))
        gens.append(oracle_compose(a, b))  # already in the group so far
    return ident, gens


@settings(max_examples=200, deadline=None)
@given(_generator_lists())
def test_coset_listing_matches_the_breadth_first_subgroup(case):
    _, gens = case
    _check_subgroup_listing(gens)


@pytest.mark.parametrize(
    "gens",
    [[(1,)], [(1, 2)], [(2, 1)], [(2, 3, 1)], [(2, 1, 3), (2, 1, 3)], [(1, 2, 3), (2, 3, 1), (3, 1, 2)]],
    ids=["n1", "identity", "swap", "3-cycle", "repeat", "identity-then-powers"],
)
def test_coset_listing_of_small_generator_lists(gens):
    # At n = 1 the chain has no level, and the listing is the identity alone.
    _check_subgroup_listing(gens)


def _shifted_oracle(nv, gens):
    """The breadth-first group of 0-based maps, through their 1-based images."""
    ident = tuple(range(1, nv + 1))  # keeps the list non-empty
    one_based = [ident] + [tuple(v + 1 for v in g) for g in gens]
    return {tuple(v - 1 for v in x) for x in _oracle_subgroup(one_based)}


@settings(max_examples=150, deadline=None)
@given(_coloured_pairs(max_vertices=7))
def test_coset_listing_of_vertex_maps_matches_the_breadth_first_group(pair):
    nbrs, _, colors, _ = pair
    assume(nbrs)  # the empty graph has no identity tuple to compose
    gens = automorphism_generators(nbrs, colors, NO_BUDGET)
    nv = len(nbrs)
    _check_coset_listing(nv, gens, 0, _shifted_oracle(nv, gens))


def test_coset_listing_on_one_vertex():
    assert StabilizerChain(1, [(0,)]).elements() == [(0,)]
    assert _automorphisms([()], [0], NO_BUDGET) == [(0,)]


def test_layers_are_the_distance_layers_of_a_queue_bfs():
    for n in range(2, 6):
        gens = tn_realizations(n)
        g = build_cayley(n, gens)
        want = _oracle_bfs_layers(g, g.index_of(identity(n)))
        steps = [_right_multiplier(t.image) for t in gens]
        seen = set()
        got = [-1] * g.num_vertices
        for d, level in enumerate(layers([identity(n).image], steps, seen=seen)):
            for a in level:
                assert got[sym_index(n)[a]] == -1  # levels are disjoint
                got[sym_index(n)[a]] = d
        assert got == want
        assert min(want) == 0  # the group is connected over T_n
        assert seen == set(sym_index(n))


def test_identity_distances_are_the_layers_of_a_queue_bfs():
    for n in range(2, 6):
        g = build_cayley(n, tn_realizations(n))
        assert identity_distances(n) == _oracle_bfs_layers(g, g.index_of(identity(n)))
