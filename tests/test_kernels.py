"""Table-driven group kernels against the per-entry loops they replaced.

Each oracle below is the earlier implementation, kept here only as the
reference: product rows, the plain-changes walk behind check_skew, the
breadth-first closure and its levels, and closed-walk counts from powers
of A.
"""

import random
from collections import deque
from itertools import permutations
from math import factorial
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btcayley.autgroup import generated_subgroup, orbit_images
from btcayley.blocktrans import make_bt, tn_realizations
from btcayley.graphs import build_cayley, closed_walk_counts, vertex_set_V
from btcayley.perms import (
    _product_rows,
    _right_multiplier,
    closure,
    compose_images,
    identity,
    invert_image,
    layers,
    plain_changes,
    sym_group,
    sym_index,
)
from btcayley.toric import (
    bar_f_image,
    check_skew,
    dihedral_elements,
    dihedral_image,
    reverse_image,
    toric_image,
)


# ---------------------------------------------------------------------------
# Oracles.


def _oracle_check_skew(elements, psi):
    """(psi, order, pi_power) by full left-multiplication rows, or None."""
    g = len(elements)
    images = [p.image for p in elements]
    idx = {img: i for i, img in enumerate(images)}
    ident_i = idx[tuple(range(1, elements[0].n + 1))]
    if psi[ident_i] != ident_i:
        return None
    if g == 1:
        return psi, 1, (0,)
    powers = [tuple(range(g))]
    cur = psi
    while cur != powers[0]:
        powers.append(cur)
        cur = tuple(psi[x] for x in cur)
    best_probe, best_len = 0, 0
    seen = [False] * g
    for start in range(g):
        length, x = 0, start
        while not seen[x]:
            seen[x] = True
            x = psi[x]
            length += 1
        if length > best_len:
            best_probe, best_len = start, length
    getters = [itemgetter(*(v - 1 for v in y)) for y in images]
    pi_power = []
    for ix in range(g):
        row_x = [idx[get(images[ix])] for get in getters]
        mult_px = [idx[get(images[psi[ix]])] for get in getters]
        lhs = [psi[z] for z in row_x]
        candidates = [
            e for e in range(len(powers)) if lhs[best_probe] == mult_px[powers[e][best_probe]]
        ]
        valid = [
            e for e in candidates if all(lhs[iy] == mult_px[powers[e][iy]] for iy in range(g))
        ]
        if len(valid) != 1:
            return None
        pi_power.append(valid[0])
    return psi, len(powers), tuple(pi_power)


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
                prod = compose_images(t, gimg)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return seen


# ---------------------------------------------------------------------------
# Product rows and the plain-changes walk.


@pytest.mark.parametrize("n", range(1, 7))
def test_product_rows_are_the_ranks_of_the_products(n):
    idx = sym_index(n)
    images = list(idx)
    gens = images[:: max(1, len(images) // 30)]
    want = [tuple(idx[compose_images(p, x)] for x in gens) for p in images]
    assert list(_product_rows(n, gens)) == want


@pytest.mark.parametrize("n", range(1, 8))
def test_plain_changes_visit_every_element_once_by_adjacent_swaps(n):
    cur = list(range(1, n + 1))
    seen = {tuple(cur)}
    swaps = list(plain_changes(n))
    assert len(swaps) == factorial(n) - 1
    for i in swaps:
        assert 0 <= i < n - 1
        cur[i], cur[i + 1] = cur[i + 1], cur[i]
        seen.add(tuple(cur))
    assert len(seen) == factorial(n)


# ---------------------------------------------------------------------------
# check_skew.


def _rank_map(n, kernel):
    idx = sym_index(n)
    return tuple(idx[kernel(a)] for a in idx)


def _random_involution(n, seed):
    # Swaps disjoint pairs of non-identity ranks; rank 0 (the identity) stays.
    rng = random.Random(seed)
    g = factorial(n)
    points = rng.sample(range(1, g), 2 * rng.randint(0, (g - 1) // 2))
    psi = list(range(g))
    for a, b in zip(points[::2], points[1::2]):
        psi[a], psi[b] = b, a
    return tuple(psi)


def _maps(n):
    maps = {f"bar_f_{r}": _rank_map(n, lambda a, r=r: bar_f_image(a, r)) for r in range(n + 1)}
    maps["reverse_g"] = _rank_map(n, reverse_image)
    maps["inversion"] = _rank_map(n, invert_image)
    maps["toric_f_1"] = _rank_map(n, lambda a: toric_image(a, 1))
    for seed in range(3):
        maps[f"involution_{seed}"] = _random_involution(n, 100 * n + seed)
    return maps


@pytest.mark.parametrize("n", range(2, 7))
def test_check_skew_matches_the_row_by_row_oracle(n):
    elements = sym_group(n)
    for name, psi in _maps(n).items():
        w = check_skew(elements, psi)
        got = None if w is None else (w.psi, w.order, w.pi_power)
        assert got == _oracle_check_skew(elements, psi), name


def test_check_skew_needs_the_whole_group_in_rank_order():
    elements = sym_group(3)
    with pytest.raises(ValueError):
        check_skew(elements[:4], range(4))
    with pytest.raises(ValueError):
        check_skew(elements[::-1], range(6))
    with pytest.raises(ValueError):
        check_skew(elements, (0, 1, 2, 3, 4, 4))


# ---------------------------------------------------------------------------
# Closed walks.


@st.composite
def _graphs(draw):
    nv = draw(st.integers(min_value=0, max_value=12))
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


def test_closure_honours_the_limit():
    step = lambda k: (k + 1) % 10  # noqa: E731
    assert closure([0], [step], limit=10) == set(range(10))
    with pytest.raises(ValueError):
        closure([0], [step], limit=9)
    with pytest.raises(ValueError):
        generated_subgroup(tn_realizations(4), limit=23)
    assert len(generated_subgroup(tn_realizations(4), limit=24)) == 24


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
