"""Acceptance gate: thirteen criteria, one verdict line each.

Each test computes its criterion from the module operations, appends a
single PASS/FAIL line to the terminal summary, then asserts.  A criterion
whose stated value does not hold in the objects themselves is asserted as
stated and left to fail; the verdict line carries the observed value.
"""

import time
from itertools import combinations
from math import factorial

from conftest import ACCEPTANCE_LINES

from btcayley.autgroup import (
    aut_group,
    generated_subgroup,
    is_automorphism,
    orbit,
    perm_vertex_map,
    stabilizer_of_identity,
)
from btcayley.blocktrans import (
    CutPoints,
    enumerate_tn,
    make_bt,
    partition_counts,
    tn_realizations,
    tn_size,
)
from btcayley.graphs import (
    build_cayley,
    degree_profile,
    gamma,
    gamma_v,
    graphs_isomorphic,
    hamilton_cycle_gamma_v,
    maximal_2_cliques,
    vertex_set_V,
)
from btcayley.maps import (
    aut_order,
    is_regular,
    map_report,
    mprime_n5_map,
    octahedron_map,
    prop72_map,
    t_balance,
)
from btcayley.perms import compose_maps, sym_group
from btcayley.toric import (
    apply_dihedral,
    bar_f,
    bar_f_witness,
    bt_image_closed_form,
    compose_lh_barf,
    dihedral_elements,
    euler_phi,
    phi_iso,
    reverse_g,
    reverse_g_conj,
    toric_class_stats,
    toric_f,
)
from btcayley.verify import run_claim
from toric_oracles import skew_identity_bar_f, toric_f_conj


def _finish(idx, budget_s, t0, ok, summary, detail=""):
    elapsed = time.perf_counter() - t0
    in_time = elapsed < budget_s
    status = "PASS" if (ok and in_time) else "FAIL"
    line = f"C{idx:02d} {status}: {summary} ({elapsed:.2f}s / {budget_s:g}s)"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, detail or summary
    assert in_time, f"criterion C{idx} took {elapsed:.2f}s, budget {budget_s}s"


def test_c01_census_size_and_partition():
    t0 = time.perf_counter()
    ok = True
    for n in range(3, 9):
        cuts = enumerate_tn(n)
        ok &= len(cuts) == tn_size(n) == n * (n + 1) * (n - 1) // 6
        ok &= partition_counts(n) == {
            "B": n - 1,
            "L": (n - 1) * (n - 2) // 2,
            "F": (n - 1) * (n - 2) // 2,
            "S": (n - 1) * (n - 2) * (n - 3) // 6,
        }
        ok &= len({make_bt(c) for c in cuts}) == tn_size(n)
    _finish(1, 1, t0, ok, "census size and four-class partition, degrees 3..8")


def test_c02_induced_graph_regularity():
    t0 = time.perf_counter()
    ok_general = all(
        set(degree_profile(gamma(n))) == {2 * (n - 2)} for n in (5, 6, 7)
    )
    profile4 = sorted(set(degree_profile(gamma(4))))
    ok_four = profile4 == [3]
    ok = ok_general and ok_four
    note = "" if ok_four else f"; observed degree {profile4} at n=4, stated 3"
    _finish(
        2,
        1,
        t0,
        ok,
        "graph regularity: 2(n-2) at n=5,6,7 and the stated value 3 at n=4" + note,
        detail=f"degree profile at n=4 is {profile4}, the stated 3-regularity does not hold",
    )


def test_c03_maximal_2_cliques_disjoint():
    t0 = time.perf_counter()
    ok = True
    for n in (5, 6, 7):
        found = maximal_2_cliques(gamma(n))
        ok &= len(found.edges) == n + 1
        ok &= sorted(found.em_index) == list(range(n + 1))
        touched = [v for e in found.edges for v in e]
        ok &= len(touched) == len(set(touched))
    _finish(3, 5, t0, ok, "exactly n+1 pairwise disjoint maximal 2-cliques, n=5,6,7")


def test_c04_special_subgraph_structure():
    t0 = time.perf_counter()
    ok = True
    for n in (5, 6, 7, 8):
        V = vertex_set_V(n)
        reals = {make_bt(c) for c in V}
        ok &= len(reals) == 2 * (n + 1)
        gv = gamma_v(n)
        ok &= gv.num_vertices == 2 * (n + 1)
        ok &= set(degree_profile(gv)) == {3}
        dih = dihedral_elements(n)
        ok &= len(dih) == 2 * (n + 1)
        ok &= orbit(dih, make_bt(V[0])) == frozenset(reals)
        for d in dih:
            if d.r == 0 and d.refl == 0:
                continue
            ok &= not any(apply_dihedral(d, p) == p for p in reals)
        cycle = hamilton_cycle_gamma_v(n)
        ranks = [gv.index_of(make_bt(c)) for c in cycle]
        ok &= sorted(ranks) == list(range(gv.num_vertices))
        ok &= all(
            gv.is_edge(a, b) for a, b in zip(ranks, ranks[1:] + ranks[:1])
        )
    _finish(
        4, 5, t0, ok, "2(n+1) special vertices, cubic subgraph, regular action, Hamilton cycle, n=5..8"
    )


def test_c05_graph_automorphism_groups():
    t0 = time.perf_counter()
    ok = True
    for n in (4, 5, 6):
        g = gamma(n)
        auts = aut_group(g)
        ok &= len(auts) == 2 * (n + 1)
        induced = set()
        for d in dihedral_elements(n):
            vm = perm_vertex_map(g, lambda p, d=d: apply_dihedral(d, p))
            ok &= is_automorphism(g, vm)
            induced.add(vm.images)
        ok &= induced == {m.images for m in auts}
    _finish(
        5, 60, t0, ok, "graph symmetry group has order 2(n+1) and is the induced action, n=4,5,6"
    )


def test_c06_cayley_stabilizer():
    t0 = time.perf_counter()
    ok = True
    for n, full in ((4, 240), (5, 1440)):
        maps = stabilizer_of_identity(n)
        ok &= len(maps) == 2 * (n + 1)
        ok &= factorial(n) * len(maps) == full
    _finish(
        6, 120, t0, ok, "identity stabilizer has exactly 2(n+1) maps; full orders 240 and 1440"
    )


def test_c07_exhaustive_pointwise_identities():
    t0 = time.perf_counter()
    ok = True
    n, m = 4, 5
    grp = sym_group(n)
    for p in grp:
        for r in range(m):
            ok &= toric_f(p, r) == toric_f_conj(p, r)
            ok &= reverse_g(toric_f(reverse_g(p), r)) == toric_f(p, (m - r) % m)
        ok &= reverse_g(p) == reverse_g_conj(p)
        ok &= reverse_g(reverse_g(p)) == p
    for rho in grp:
        for pi in grp:
            ok &= reverse_g(rho.compose(pi)) == reverse_g(rho).compose(reverse_g(pi))
            for r in range(m):
                lhs, rhs, _ = skew_identity_bar_f(rho, pi, r)
                ok &= lhs == rhs
    for deg in (3, 4):
        elems = [(h, r) for h in sym_group(deg) for r in range(deg + 1)]
        images = {phi_iso(h, r) for h, r in elems}
        ok &= len(images) == factorial(deg + 1)
        for h, r in elems:
            a = phi_iso(h, r)
            for k, u in elems:
                d, e = compose_lh_barf(h, r, k, u)
                ok &= compose_maps(a, phi_iso(k, u)) == phi_iso(d, e)
    _finish(
        7, 10, t0, ok, "pointwise identity suite at n=4 and the extended isomorphism at n=3,4"
    )


def test_c08_generating_set_invariance_with_closed_forms():
    t0 = time.perf_counter()
    ok = True
    for n in range(4, 9):
        reals = set(tn_realizations(n))
        for r in range(n + 1):
            ok &= {toric_f(p, r) for p in reals} == reals
            ok &= {bar_f(p, r) for p in reals} == reals
        ok &= {reverse_g(p) for p in reals} == reals
        for c in enumerate_tn(n):
            ok &= make_bt(bt_image_closed_form(c, "f")) == toric_f(make_bt(c), 1)
            ok &= make_bt(bt_image_closed_form(c, "bar_f")) == bar_f(make_bt(c), 1)
            ok &= make_bt(bt_image_closed_form(c, "g")) == reverse_g(make_bt(c))
        ok &= run_claim("eqa14oct", n).status == "verified"
    _finish(
        8, 5, t0, ok, "set invariance under all three map families with closed forms, n=4..8"
    )


def test_c09_octahedron():
    t0 = time.perf_counter()
    report = map_report(octahedron_map())
    ok = report == {
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
    _finish(9, 1, t0, ok, "four-generator rotation system is the regular octahedron")


def test_c10_general_rotation_system():
    t0 = time.perf_counter()
    ok = True
    for n in range(3, 7):
        mp = prop72_map(n)
        ok &= mp.valency == n + 1
        faces = mp.faces()
        ok &= all(len(f) == n for f in faces)
        w = is_regular(mp)
        ok &= w is not None
        base = bar_f_witness(n, 1)
        ok &= base is not None and w.psi == base.psi
        ok &= t_balance(w, mp.gens) is None
        ok &= w.pi_power_of(make_bt(CutPoints(0, 1, n, n))) == n
        ok &= w.pi_power_of(make_bt(CutPoints(1, 2, 3, n))) == 1
        ok &= aut_order(mp, w) == factorial(n + 1)
    _finish(
        10, 60, t0, ok, "general rotation system: regular, unbalanced, full symmetry count, n=3..6"
    )


def test_c11_second_critical_map_and_nonisomorphic_graphs():
    t0 = time.perf_counter()
    mp = mprime_n5_map()
    w = is_regular(mp)
    base = bar_f_witness(5, 5)
    ok = w is not None and base is not None and w.psi == base.psi
    g1 = build_cayley(5, prop72_map(5).gens)
    g2 = build_cayley(5, mp.gens)
    for g in (g1, g2):
        ok &= g.num_vertices == 120
        ok &= set(degree_profile(g)) == {6}
    ok &= graphs_isomorphic(g1, g2) is None
    _finish(
        11, 300, t0, ok, "second regular system via the mirrored witness; the two graphs differ"
    )


def test_c12_generated_subgroups():
    t0 = time.perf_counter()
    ok = True
    for n, order in ((5, 120), (7, 5040), (4, 12), (6, 360)):
        gens = [make_bt(c) for c in vertex_set_V(n)]
        sub = generated_subgroup(gens)
        ok &= len(sub) == order
        if order == factorial(n) // 2:
            parities = {
                sum(
                    1
                    for a, b in combinations(range(n), 2)
                    if p.image[a] > p.image[b]
                )
                % 2
                for p in gens
            }
            ok &= parities == {0}
    _finish(
        12, 30, t0, ok, "special vertices generate the whole group (odd n) or its even half (even n)"
    )


def test_c13_singleton_toric_classes():
    t0 = time.perf_counter()
    ok = True
    for n in range(3, 8):
        _, singletons, _ = toric_class_stats(n)
        ok &= singletons == euler_phi(n + 1)
    _finish(13, 10, t0, ok, "singleton class count equals the totient of n+1, n=3..7")


def test_registry_reproduces_every_criterion_instance():
    """The command-line registry covers the same ground: sweep it."""
    statuses = {}
    for n in (4, 5):
        for key in (
            "lemma2.1",
            "prop5.8",
            "lemma5.12",
            "thm1",
            "thm2",
            "toric-singletons",
        ):
            r = run_claim(key, n)
            statuses[(key, r.n)] = r.status
    # the one stated value that does not hold in the objects
    assert statuses[("prop5.8", 4)] == "failed"
    others = {k: v for k, v in statuses.items() if k != ("prop5.8", 4)}
    assert set(others.values()) == {"verified"}
