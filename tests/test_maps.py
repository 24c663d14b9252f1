"""Rotation systems on Cayley graphs: faces, regularity, balance."""

from collections import deque
from math import factorial

import pytest

from btcayley import verify

from btcayley.maps import (
    MPRIME_N5_ORDER,
    CayleyMap,
    aut_order,
    build_map,
    face_lines,
    is_regular,
    map_report,
    mprime_n5_map,
    octahedron_map,
    prop72_map,
    t_balance,
)
from btcayley.blocktrans import CutPoints, make_bt
from btcayley.perms import identity, parse_permutation, sym_group, sym_index
from btcayley.toric import bar_f, bar_f_images, clear_cache, reverse_image
from toric_oracles import oracle_check_skew


def _ranked(n, images):
    """Ranks of images of the elements of sym_group(n), in rank order."""
    return tuple(map(sym_index(n).__getitem__, images))


def _adjacent_transpositions_map(n):
    return CayleyMap(n, [make_bt(CutPoints(i, i + 1, i + 2, n)) for i in range(n - 1)])


@pytest.mark.parametrize(
    "literals",
    [
        ["[2 1 3 4]", "[1 2 4 3]"],  # (1 2), (3 4): a Klein four-group
        ["[2 3 1 4]", "[3 1 2 4]"],  # (1 2 3) and its inverse: all even
        # (1 2 3), (2 3 4) and their inverses: the whole of Alt_4, so the
        # chain reaches its even bound n!/2 and stops there.
        ["[2 3 1 4]", "[3 1 2 4]", "[1 3 4 2]", "[1 4 2 3]"],
    ],
    ids=["klein", "three-cycle", "alt4"],
)
def test_a_connection_set_that_misses_part_of_the_group_is_refused(literals):
    with pytest.raises(ValueError, match="connection set does not generate the group"):
        CayleyMap(4, [parse_permutation(t) for t in literals])


def test_faces_partition_the_darts():
    m = prop72_map(4)
    seen = set()
    for f in m.faces():
        for d in f:
            assert d not in seen
            seen.add(d)
    assert seen == set(range(m.dart_count))


def test_octahedron_report_frozen():
    assert map_report(octahedron_map()) == {
        "n": 3,
        "generator_count": 4,
        "dart_count": 24,
        "face_count": 8,
        "face_size_histogram": {"3": 8},
        "euler_characteristic": 2,
        "regular": True,
        "t_balanced": None,
        "skew_order": 4,
        "aut_order": 24,
    }


def test_octahedron_is_the_smallest_general_construction():
    assert octahedron_map().gens == prop72_map(3).gens


@pytest.mark.parametrize("n", (3, 4, 5, 6))
def test_general_construction_shape(n):
    m = prop72_map(n)
    assert m.valency == n + 1
    assert m.dart_count == (n + 1) * factorial(n)
    faces = m.faces()
    assert all(len(f) == n for f in faces)
    assert len(faces) == m.dart_count // n


@pytest.mark.parametrize("n", (3, 4, 5))
def test_general_construction_is_regular_but_not_balanced(n):
    m = prop72_map(n)
    w = is_regular(m)
    assert w is not None
    assert w.order == n + 1
    assert t_balance(w, m.gens) is None
    assert aut_order(m, w) == factorial(n + 1)


def test_euler_characteristic_from_counts():
    m = prop72_map(4)
    V, E, F = 24, m.dart_count // 2, len(m.faces())
    assert map_report(m)["euler_characteristic"] == V - E + F == -6


def test_reordering_the_rotation_breaks_regularity():
    gens = octahedron_map().gens
    reordered = CayleyMap(3, (gens[1], gens[0], gens[2], gens[3]))
    assert is_regular(reordered) is None
    assert sorted(set(len(f) for f in reordered.faces())) == [3, 9]


def test_second_critical_map_frozen():
    m = mprime_n5_map()
    assert m.valency == 6
    assert m.dart_count == 720
    faces = m.faces()
    assert len(faces) == 120
    assert all(len(f) == 6 for f in faces)
    w = is_regular(m)
    assert w is not None
    assert w.order == 6
    assert t_balance(w, m.gens) is None
    assert aut_order(m, w) == 720


def test_mprime_generators_distinct_and_inverse_closed():
    gens = [parse_permutation(s) for s in MPRIME_N5_ORDER]
    assert len(set(gens)) == 6
    assert {p.inverse() for p in gens} == set(gens)


def test_build_map_dispatch():
    assert build_map("octahedron").gens == octahedron_map().gens
    assert build_map("prop72", 4).gens == prop72_map(4).gens
    assert build_map("mprime_n5").gens == mprime_n5_map().gens
    with pytest.raises(ValueError):
        build_map("prop72")
    with pytest.raises(ValueError):
        build_map("nonsense")


def test_face_lines_are_deterministic_and_cover_all_faces():
    m = octahedron_map()
    text = face_lines(m)
    assert text == face_lines(octahedron_map())
    assert len(text.strip().split("\n")) == len(m.faces())


def test_rotation_and_reversal_are_dart_involutions():
    m = prop72_map(4)
    k = m.valency
    rank = {p: i for i, p in enumerate(m.elements)}
    for v in (identity(4), m.gens[0]):
        for g, q in enumerate(m.gens):
            d = rank[v] * k + g
            e = m._reverse[d]
            assert divmod(e, k) == (rank[v.compose(q)], m.gens.index(q.inverse()))
            assert m._reverse[e] == d
            assert m._rotate[d] == rank[v] * k + (g + 1) % k
            seen = d
            for _ in range(k):
                seen = m._rotate[seen]
            assert seen == d


def test_two_adjacent_transpositions_at_degree_three_are_regular_and_balanced():
    m = _adjacent_transpositions_map(3)
    successor = list(zip(m.gens, m.gens[1:] + m.gens[:1]))
    assert not any(all(bar_f(x, r) == y for x, y in successor) for r in range(4))
    w = is_regular(m)
    assert w is not None
    assert w.order == 2
    assert t_balance(w, m.gens) == 1
    assert w.psi == _ranked(3, (reverse_image(p.image) for p in sym_group(3)))


@pytest.mark.parametrize("n", (4, 5))
def test_adjacent_transpositions_above_degree_three_are_not_regular(n):
    assert is_regular(_adjacent_transpositions_map(n)) is None


@pytest.mark.parametrize("n", (3, 4, 5, 6))
def test_reversed_staircase_rotates_by_the_last_inverse_toric_map(n):
    w = is_regular(CayleyMap(n, prop72_map(n).gens[::-1]))
    assert w is not None
    assert w.psi == _ranked(n, zip(*bar_f_images(n, n)))


@pytest.mark.parametrize("n", (3, 4, 5, 6))
def test_staircase_rotates_by_the_first_inverse_toric_map(n):
    w = is_regular(prop72_map(n))
    assert w is not None
    assert w.psi == _ranked(n, zip(*bar_f_images(n, 1)))


# ---------------------------------------------------------------------------
# The witness read off the dart automorphism, against the row-by-row oracle.


def _oracle_witness(m):
    """Regularity decided on vertices by group products, its psi then run through oracle_check_skew.

    The automorphism that sends dart (iota, x_0) to (iota, x_1) carries
    (v, x_g) to (psi(v), x_h) with h = g + sigma(v).  It commutes with the
    reversal, so it carries the head v x_g to psi(v) x_h, and the reversed
    dart at slot(x_g^-1) there to slot(x_h^-1): that fixes sigma at v x_g.
    A breadth-first pass over the vertices assigns psi and sigma; a
    conflict, or a psi that is no bijection, means there is no such
    automorphism, and the answer is None.  Otherwise the answer is
    oracle_check_skew's (psi, order, pi_power) for psi, with sigma beside it.
    """
    k = m.valency
    slot = {x: g for g, x in enumerate(m.gens)}
    back = [slot[x.inverse()] for x in m.gens]
    ident = identity(m.n)
    psi, sigma = {ident: ident}, {ident: 1}
    queue = deque([ident])
    while queue:
        v = queue.popleft()
        for g, x in enumerate(m.gens):
            h = (g + sigma[v]) % k
            u, image, shift = v.compose(x), psi[v].compose(m.gens[h]), (back[h] - back[g]) % k
            if u not in psi:
                psi[u], sigma[u] = image, shift
                queue.append(u)
            elif (psi[u], sigma[u]) != (image, shift):
                return None
    if len(set(psi.values())) != len(psi):
        return None
    idx = sym_index(m.n)
    oracle = oracle_check_skew(m.elements, tuple(idx[psi[p].image] for p in m.elements))
    return oracle, tuple(sigma[p] for p in m.elements)


REGULAR_MAPS = {
    **{f"prop72_{n}": (prop72_map, n) for n in range(3, 7)},
    **{f"reversed_staircase_{n}": (lambda n: CayleyMap(n, prop72_map(n).gens[::-1]), n) for n in range(3, 7)},
    "mprime_n5": (lambda n: mprime_n5_map(), 5),
    "octahedron": (lambda n: octahedron_map(), 3),
    "adjacent_3": (_adjacent_transpositions_map, 3),
}

IRREGULAR_MAPS = {
    "reordered_octahedron": lambda: CayleyMap(3, [octahedron_map().gens[g] for g in (1, 0, 2, 3)]),
    "adjacent_4": lambda: _adjacent_transpositions_map(4),
    "adjacent_5": lambda: _adjacent_transpositions_map(5),
}


@pytest.mark.parametrize("name", sorted(REGULAR_MAPS))
def test_witness_read_off_the_dart_automorphism_is_check_skews(name):
    build, n = REGULAR_MAPS[name]
    m = build(n)
    w = is_regular(m)
    oracle, sigma = _oracle_witness(m)
    assert oracle is not None
    assert (w.psi, w.order, w.pi_power) == oracle
    assert w.elements is m.elements
    assert w.pi_power == sigma
    assert w.order == m.valency


@pytest.mark.parametrize("name", sorted(IRREGULAR_MAPS))
def test_irregular_maps_have_no_witness_on_either_route(name):
    m = IRREGULAR_MAPS[name]()
    assert is_regular(m) is None
    assert _oracle_witness(m) is None


def _planted_reverse(monkeypatch):
    """Swap the reversed darts of two darts of every map, keeping T an involution."""
    true = CayleyMap._reverse.func

    def planted(self):
        t = list(true(self))
        a, b = self.valency, self.dart_count - 1
        ta, tb = t[a], t[b]
        assert len({a, b, ta, tb}) == 4
        t[a], t[b], t[ta], t[tb] = tb, ta, b, a
        return tuple(t)

    monkeypatch.setattr(CayleyMap, "_reverse", property(planted))


@pytest.mark.parametrize("n", (3, 4, 5, 6))
def test_a_planted_wrong_reversal_entry_keeps_prop72_from_verified(monkeypatch, n):
    _planted_reverse(monkeypatch)
    assert is_regular(prop72_map(n)) is None
    clear_cache()
    report = verify.run_claim("prop7.2", n)
    assert report.status == "failed"
    clear_cache()
