"""Toric maps, the reversal, skew-morphism witnesses, class statistics, and
the point kernels and dihedral relations at degrees 9..14."""

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btcayley import toric
from btcayley.blocktrans import CutPoints, enumerate_tn, make_bt, recognize, tn_realizations
from btcayley.perms import alpha_power, compose_maps, lift, sym_group
from btcayley.perms import Permutation
from btcayley.toric import (
    DihedralElement,
    apply_dihedral,
    bar_f,
    bar_f_image,
    bar_f_witness,
    bt_image_closed_form,
    compose_lh_barf,
    dihedral_compose,
    dihedral_elements,
    dihedral_image,
    euler_phi,
    phi_iso,
    reverse_g,
    reverse_g_conj,
    reverse_image,
    toric_class,
    toric_class_stats,
    toric_f,
    toric_image,
)
from toric_oracles import (
    apply_lh_barf,
    bar_f_conj,
    dihedral_identity,
    dihedral_inverse,
    oracle_compose,
    oracle_toric_class_stats,
    skew_identity_bar_f,
    toric_f_conj,
)


def _toric_pointwise(a, r):
    # (f_r(p))_t = p_{r+t} - p_r, indices and values mod n+1, p_0 = 0
    n, m = len(a), len(a) + 1
    ext = (0,) + a
    return tuple((ext[(r + t) % m] - ext[r % m]) % m for t in range(1, n + 1))


def _inverse_pointwise(a):
    return tuple(a.index(t) + 1 for t in range(1, len(a) + 1))


@pytest.mark.parametrize("n", range(1, 7))
def test_toric_defining_routes_agree(n):
    m = n + 1
    for p in sym_group(n):
        a = p.image
        for r in range(n + 1):
            assert toric_f(p, r) == toric_f_conj(p, r)
            assert bar_f(p, r) == bar_f_conj(p, r)
        assert reverse_g(p) == reverse_g_conj(p)
        # The kernels against the pointwise formulas; each result must also
        # pass the validating constructor.
        want = tuple(m - a[n - t] for t in range(1, n + 1))
        assert Permutation(reverse_image(a)).image == want
        for r in range(-1, m + 1):
            want = _toric_pointwise(a, r)
            assert Permutation(toric_image(a, r)).image == want
            # bar_f_r(p) = (f_r(p^-1))^-1
            want = _inverse_pointwise(_toric_pointwise(_inverse_pointwise(a), r))
            assert Permutation(bar_f_image(a, r)).image == want


def test_toric_shift_zero_is_identity_map():
    for p in sym_group(4):
        assert toric_f(p, 0) == p
        assert bar_f(p, 0) == p


@pytest.mark.parametrize("n", (3, 4))
def test_toric_shifts_add(n):
    m = n + 1
    for p in sym_group(n):
        for r in range(m):
            for s in range(m):
                assert toric_f(toric_f(p, r), s) == toric_f(p, (r + s) % m)


def test_reversal_is_a_multiplicative_involution():
    for rho in sym_group(3):
        assert reverse_g(reverse_g(rho)) == rho
        for pi in sym_group(3):
            assert reverse_g(rho.compose(pi)) == reverse_g(rho).compose(reverse_g(pi))


@pytest.mark.parametrize("n", (3, 4))
def test_reversal_conjugates_toric_to_mirror(n):
    m = n + 1
    for p in sym_group(n):
        for r in range(m):
            assert reverse_g(toric_f(reverse_g(p), r)) == toric_f(p, (m - r) % m)
            assert reverse_g(bar_f(reverse_g(p), r)) == bar_f(p, (m - r) % m)


def test_inverse_toric_via_inverses():
    for p in sym_group(4):
        for r in range(5):
            assert bar_f(p, r) == toric_f(p.inverse(), r).inverse()


@pytest.mark.parametrize("n", range(2, 8))
def test_closed_forms_on_cut_points(n):
    for c in enumerate_tn(n):
        assert make_bt(bt_image_closed_form(c, "f")) == toric_f(make_bt(c), 1)
        assert make_bt(bt_image_closed_form(c, "bar_f")) == bar_f(make_bt(c), 1)
        assert make_bt(bt_image_closed_form(c, "g")) == reverse_g(make_bt(c))


def test_closed_form_rejects_unknown_map():
    with pytest.raises(ValueError):
        bt_image_closed_form(CutPoints(0, 1, 2, 4), "h")


@pytest.mark.parametrize("n", range(2, 7))
def test_generating_set_invariance(n):
    reals = set(tn_realizations(n))
    for r in range(n + 1):
        assert {toric_f(p, r) for p in reals} == reals
        assert {bar_f(p, r) for p in reals} == reals
    assert {reverse_g(p) for p in reals} == reals


def test_skew_identity_over_a_full_group():
    for rho in sym_group(3):
        for pi in sym_group(3):
            for r in range(4):
                lhs, rhs, s = skew_identity_bar_f(rho, pi, r)
                assert lhs == rhs
                assert 0 <= s <= 3


# frozen: witnesses exist exactly at shift 0 and shifts prime to n+1
@pytest.mark.parametrize(
    "n,good", [(3, (0, 1, 3)), (4, (0, 1, 2, 3, 4)), (5, (0, 1, 5))]
)
def test_witness_exists_iff_shift_invertible(n, good):
    for r in range(n + 1):
        w = bar_f_witness(n, r)
        if r in good:
            assert w is not None
            assert w.order == (1 if r == 0 else n + 1)
        else:
            assert w is None


def test_witness_power_function_reads_first_entry_of_inverse():
    w = bar_f_witness(4, 1)
    for p in sym_group(4):
        assert w.pi_power_of(p) == lift(p.inverse())[1]
        assert w.apply(p) == bar_f(p, 1)


@pytest.mark.parametrize(
    "n,classes,singletons,histogram",
    [
        (3, 3, 2, {1: 2, 4: 1}),
        (4, 8, 4, {1: 4, 5: 4}),
        (5, 24, 2, {1: 2, 2: 2, 3: 2, 6: 18}),
        (6, 108, 6, {1: 6, 7: 102}),
        (7, 640, 4, {1: 4, 2: 2, 4: 10, 8: 624}),
    ],
)
def test_class_statistics(n, classes, singletons, histogram):
    got = toric_class_stats(n)
    assert got == (classes, singletons, histogram)
    assert singletons == euler_phi(n + 1)


@pytest.mark.parametrize("n", range(1, 9))
def test_class_statistics_on_the_twins_match_one_orbit_per_class(n):
    assert toric_class_stats(n) == oracle_toric_class_stats(n)


def test_classes_partition_the_group():
    n = 4
    seen = set()
    for p in sym_group(n):
        cls = toric_class(p)
        assert p in cls
        if p in seen:
            continue
        assert not (cls & seen)
        seen |= cls
    assert len(seen) == 24


def test_euler_phi_small_table():
    want = {1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 6: 2, 7: 6, 8: 4, 9: 6, 10: 4, 11: 10, 12: 4}
    assert {m: euler_phi(m) for m in want} == want


def test_dihedral_normal_forms_compose_consistently():
    n = 4
    elems = dihedral_elements(n)
    assert len(elems) == 2 * (n + 1)
    assert len(set(map(str, elems))) == len(elems)
    grp = sym_group(n)
    for a in elems:
        assert dihedral_compose(a, dihedral_inverse(a)) == dihedral_identity(n)
        for b in elems:
            ab = dihedral_compose(a, b)
            for p in grp[:6]:
                assert apply_dihedral(ab, p) == apply_dihedral(a, apply_dihedral(b, p))


def test_dihedral_relation_reflection_inverts_rotation():
    n = 4
    t = DihedralElement(1, 0, n)
    g = DihedralElement(0, 1, n)
    gtg = dihedral_compose(g, dihedral_compose(t, g))
    assert gtg == DihedralElement(n, 0, n)


@pytest.mark.parametrize("n", [3, 4])
def test_the_rotation_form_proofs_follow_the_convention_of_compose_maps(n):
    # The proofs in toric.bar_tables read compose_maps(a, b) as a o b with
    # b applied first, lift as a homomorphism, [0 rho o pi] = [0 rho] o
    # [0 pi], and the rotation form as alpha^-r o [0 p] o alpha^s with s
    # the position of r in [0 p].
    for rho in sym_group(n):
        for pi in sym_group(n):
            assert rho.compose(pi).image == oracle_compose(rho.image, pi.image)
            assert lift(rho.compose(pi)) == compose_maps(lift(rho), lift(pi))
        for r in range(n + 1):
            s = lift(rho).index(r)
            form = compose_maps(compose_maps(alpha_power(n, -r), lift(rho)), alpha_power(n, s))
            assert form == lift(bar_f(rho, r))


def test_translation_and_shift_compose_by_the_product_rule():
    n = 3
    grp = sym_group(n)
    for h in grp:
        for r in range(n + 1):
            for k in grp[:8]:
                for u in range(n + 1):
                    d, e = compose_lh_barf(h, r, k, u)
                    for p in grp:
                        lhs = apply_lh_barf(h, r, apply_lh_barf(k, u, p))
                        assert lhs == apply_lh_barf(d, e, p)


def test_extended_images_form_a_homomorphism_onto_the_larger_group():
    n = 3
    grp = sym_group(n)
    images = set()
    for h in grp:
        for r in range(n + 1):
            a = phi_iso(h, r)
            images.add(a)
            for k in grp[:6]:
                for u in range(n + 1):
                    d, e = compose_lh_barf(h, r, k, u)
                    assert compose_maps(a, phi_iso(k, u)) == phi_iso(d, e)
    assert len(images) == 24


def test_witness_satisfies_the_skew_law():
    # psi(rho pi) = psi(rho) psi^{pi(rho)}(pi) over the whole group
    w = bar_f_witness(4, 1)
    for rho in sym_group(4):
        k = w.pi_power_of(rho)
        for pi in sym_group(4):
            img = pi
            for _ in range(k):
                img = w.apply(img)
            assert w.apply(rho.compose(pi)) == w.apply(rho).compose(img)


def test_toric_reads_nothing_of_maps_but_the_witness_type():
    # bar_f_witness derives its witness from the B tables, with no Cayley map.
    tree = ast.parse(Path(toric.__file__).read_text())
    from_maps = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module and node.module.endswith("maps")
        for alias in node.names
    ]
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert from_maps == ["SkewMorphismWitness"]
    assert not {"btcayley.maps", "maps"} & imported
    assert not hasattr(toric, "_counterexample")



# ---------------------------------------------------------------------------
# Degrees 9..14, above every claim's range: the point kernels on cut points
# and image tuples, with no table of Sym_n.

LARGE_DEGREES = st.integers(min_value=9, max_value=14)


@st.composite
def _large_cut_points(draw):
    n = draw(LARGE_DEGREES)
    i, j, k = sorted(draw(st.lists(st.integers(0, n), min_size=3, max_size=3, unique=True)))
    return CutPoints(i, j, k, n)


@st.composite
def _large_images(draw):
    n = draw(LARGE_DEGREES)
    return tuple(draw(st.permutations(range(1, n + 1))))


@settings(max_examples=200, deadline=None)
@given(_large_cut_points())
def test_recognize_inverts_construction_at_large_degrees(c):
    assert recognize(make_bt(c)) == c


@settings(max_examples=200, deadline=None)
@given(_large_cut_points())
def test_closed_forms_of_lemma31_lemma41_and_eq11_at_large_degrees(c):
    a = make_bt(c).image
    assert make_bt(bt_image_closed_form(c, "f")).image == toric_image(a, 1)
    assert make_bt(bt_image_closed_form(c, "bar_f")).image == bar_f_image(a, 1)
    assert make_bt(bt_image_closed_form(c, "g")).image == reverse_image(a)


@settings(max_examples=100, deadline=None)
@given(_large_images(), st.integers(0, 14), st.integers(0, 14), st.integers(0, 1))
def test_dihedral_relations_on_image_tuples_at_large_degrees(a, r, u, refl):
    n = len(a)
    m = n + 1
    r, u = r % m, u % m
    rotation = DihedralElement(1, 0, n)
    g = DihedralElement(0, 1, n)
    identity_element = DihedralElement(0, 0, n)

    # bar_f^(n+1) = id, on normal forms and on the tuple
    power, image = identity_element, a
    for _ in range(m):
        power = dihedral_compose(rotation, power)
        image = dihedral_image(rotation, image)
    assert power == identity_element
    assert image == a

    # g^2 = id
    assert dihedral_compose(g, g) == identity_element
    assert dihedral_image(g, dihedral_image(g, a)) == a

    # g o bar_f_r o g = bar_f_(n+1-r)
    bar_f_r = DihedralElement(r, 0, n)
    mirrored = DihedralElement((m - r) % m, 0, n)
    assert dihedral_compose(g, dihedral_compose(bar_f_r, g)) == mirrored
    assert dihedral_image(g, dihedral_image(bar_f_r, dihedral_image(g, a))) == dihedral_image(
        mirrored, a
    )

    # The normal form composes as the maps do.
    other = DihedralElement(u, refl, n)
    assert dihedral_image(dihedral_compose(bar_f_r, other), a) == dihedral_image(
        bar_f_r, dihedral_image(other, a)
    )
