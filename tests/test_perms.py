"""Permutations in one-line notation and 0-based maps, the extended forms among them."""

from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from btcayley.perms import (
    Permutation,
    alpha,
    alpha_power,
    compose_images,
    compose_maps,
    cycles,
    identity,
    invert_image,
    lift,
    parse_permutation,
    restrict,
    reverse,
    sym_group,
    sym_index,
)


def test_call_reads_one_line_entries():
    p = Permutation((2, 3, 1))
    assert (p(1), p(2), p(3)) == (2, 3, 1)


def test_compose_applies_right_factor_first():
    p = Permutation((2, 3, 1))
    q = Permutation((1, 3, 2))
    pq = p.compose(q)
    for t in (1, 2, 3):
        assert pq(t) == p(q(t))
    assert p * q == pq


def test_inverse_cancels_on_both_sides():
    for p in sym_group(4):
        inv = p.inverse()
        assert p.compose(inv) == identity(4)
        assert inv.compose(p) == identity(4)


@pytest.mark.parametrize("n", range(1, 7))
def test_kernels_match_pointwise_formulas(n):
    grp = sym_group(n)
    for i, p in enumerate(grp):
        a = p.image
        for b in (a, grp[(i + 1) % len(grp)].image, grp[-1 - i].image):
            # (a o b)(t) = a(b(t))
            want = tuple(a[b[t - 1] - 1] for t in range(1, n + 1))
            assert Permutation(compose_images(a, b)).image == want
            # The same product on 0-based maps: the images shifted to
            # 0..n-1, and the lifts [0 a] and [0 b].
            a0, b0 = (tuple(v - 1 for v in c) for c in (a, b))
            assert compose_maps(a0, b0) == tuple(v - 1 for v in want)
            assert compose_maps((0,) + a, (0,) + b) == (0,) + want
        # inv(a(t)) = t
        inv = Permutation(invert_image(a)).image
        assert all(inv[a[t - 1] - 1] == t for t in range(1, n + 1))


def test_rejects_non_permutations():
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))
    with pytest.raises(ValueError):
        Permutation(())
    with pytest.raises(ValueError):
        Permutation((0, 1, 2))


def test_call_outside_domain_raises():
    p = identity(3)
    with pytest.raises(ValueError):
        p(0)
    with pytest.raises(ValueError):
        p(4)


def test_degree_mismatch_raises():
    with pytest.raises(ValueError):
        identity(3).compose(identity(4))


def test_identity_and_reverse_forms():
    assert identity(4).image == (1, 2, 3, 4)
    assert reverse(4).image == (4, 3, 2, 1)
    assert reverse(4).compose(reverse(4)) == identity(4)
    assert str(identity(3)) == "[1 2 3]"


def test_lift_fixes_zero_and_restrict_inverts():
    for p in sym_group(3):
        e = lift(p)
        assert e[0] == 0
        assert all(e[t] == p(t) for t in range(1, 4))
        assert restrict(e) == p


def test_restrict_validates_the_tuple_it_is_given():
    for bad in ((1, 0, 2), (0, 1, 1)):
        with pytest.raises(ValueError):
            restrict(bad)


def test_alpha_cycles_the_extended_points():
    n = 4
    a = alpha(n)
    assert [a[t] for t in range(n + 1)] == [1, 2, 3, 4, 0]
    acc = tuple(range(n + 1))
    for r in range(n + 2):
        assert alpha_power(n, r) == acc
        acc = compose_maps(a, acc)
    # exponents reduce mod n+1
    assert alpha_power(n, n + 1) == alpha_power(n, 0)
    assert alpha_power(n, -1) == alpha_power(n, n)


def test_sym_group_enumerates_once_in_fixed_order():
    grp = sym_group(4)
    assert len(grp) == 24
    assert len(set(grp)) == 24
    assert grp[0] == identity(4)
    assert grp == sym_group(4)
    idx = sym_index(4)
    assert all(idx[p.image] == i for i, p in enumerate(grp))


def test_parse_roundtrip():
    for text in ("[2 1 3]", "[1 2 3 4 5]", "[5 4 3 2 1]"):
        assert str(parse_permutation(text)) == text


def test_parse_brackets_optional():
    assert parse_permutation(" [ 2 1 3 ] ") == Permutation((2, 1, 3))
    assert parse_permutation("2 1 3") == Permutation((2, 1, 3))


def test_parse_rejects_garbage():
    for bad in ("nope", "[]", "[1 1 2]", "[0 1 2]", "[1 2", "[a b]"):
        with pytest.raises(ValueError):
            parse_permutation(bad)


@pytest.mark.parametrize("n", range(1, 7))
def test_parity_is_the_parity_of_the_inversion_count(n):
    for p in sym_group(n):
        inversions = sum(1 for a, b in combinations(p.image, 2) if a > b)
        assert p.is_even() == (inversions % 2 == 0), p


@given(st.integers(0, 12).flatmap(lambda k: st.permutations(range(k))))
def test_cycles_partition_the_points_from_their_least_points(succ):
    found = cycles(succ)
    assert sorted(x for cycle in found for x in cycle) == list(range(len(succ)))
    assert all(cycle[0] == min(cycle) for cycle in found)
    assert [cycle[0] for cycle in found] == sorted(cycle[0] for cycle in found)
    for cycle in found:
        assert [succ[x] for x in cycle] == cycle[1:] + cycle[:1]
