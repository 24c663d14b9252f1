"""Permutations in one-line notation and 0-based maps, the extended forms among them,
and the stabilizer chain of a generated group."""

import random
from functools import partial
from itertools import combinations, permutations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btcayley.autgroup import generated_subgroup
from btcayley.blocktrans import make_bt, tn_realizations
from btcayley.budget import BudgetExceeded
from btcayley.graphs import vertex_set_V
from btcayley.perms import (
    Permutation,
    StabilizerChain,
    adjacent_transpositions,
    alpha_power,
    closure,
    compose_maps,
    cycles,
    identity,
    lift,
    parse_permutation,
    restrict,
    reverse,
    sym_group,
    sym_index,
)
from toric_oracles import oracle_compose, oracle_invert


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


def _check_against_the_row_oracles(p, q):
    """compose, inverse, is_even and restrict o lift of p, q against the
    row-by-row definitions of toric_oracles and the inversion count."""
    a, b = p.image, q.image
    assert p.compose(q).image == oracle_compose(a, b)
    assert compose_maps(lift(p), lift(q)) == lift(p.compose(q))
    # The same product on 0-based maps: the images shifted to 0..n-1.
    a0, b0 = (tuple(v - 1 for v in c) for c in (a, b))
    assert compose_maps(a0, b0) == tuple(v - 1 for v in oracle_compose(a, b))
    assert p.inverse().image == oracle_invert(a)
    inversions = sum(1 for x, y in combinations(a, 2) if x > y)
    assert p.is_even() == (inversions % 2 == 0)
    assert restrict(lift(p)) == p


@pytest.mark.parametrize("n", range(1, 7))
def test_kernels_match_pointwise_formulas(n):
    grp = sym_group(n)
    for i, p in enumerate(grp):
        for q in (p, grp[(i + 1) % len(grp)], grp[-1 - i]):
            _check_against_the_row_oracles(p, q)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(7, 14).flatmap(
        lambda n: st.tuples(st.permutations(range(1, n + 1)), st.permutations(range(1, n + 1)))
    )
)
def test_operations_match_the_row_oracles_at_degrees_7_to_14(pair):
    _check_against_the_row_oracles(*(Permutation(tuple(a)) for a in pair))


def test_rejects_non_permutations():
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))
    with pytest.raises(ValueError):
        Permutation(())
    with pytest.raises(ValueError):
        Permutation((0, 1, 2))


@pytest.mark.parametrize(
    "image",
    [[2, 1], [1], (2.0, 1.0), (1.0,), (True,), (2, True), (1, 2.0)],
    ids=["list", "list-1", "floats", "float-1", "bool", "bool-entry", "float-entry"],
)
def test_rejects_images_that_are_not_tuples_of_ints(image):
    # Accepted, each would break later: a list is not hashable, a float
    # entry cannot index the lift, and a bool prints as True.
    with pytest.raises(ValueError, match="not a permutation") as info:
        Permutation(image)
    assert repr(image) in str(info.value)
    with pytest.raises(ValueError):
        restrict([0, *image] if isinstance(image, list) else (0, *image))


def test_restrict_rejects_a_zero_that_is_not_the_int_0():
    for bad in ((0.0, 1, 2), (False, 2, 1), [0, 2, 1], ()):
        with pytest.raises(ValueError, match="not an extended permutation"):
            restrict(bad)
    assert restrict((0, 2, 1)) == Permutation((2, 1))


def test_parse_gives_tuples_of_ints_and_rejects_other_numbers():
    for bad in ("[2.0 1.0]", "[True]", "[1.0]", "[2 1.5]"):
        with pytest.raises(ValueError):
            parse_permutation(bad)
    p = parse_permutation("[2 1]")
    assert type(p.image) is tuple and {type(v) for v in p.image} == {int}
    assert hash(p) == hash(Permutation((2, 1)))
    assert p.inverse() == p


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
    a = alpha_power(n, 1)
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


@pytest.mark.parametrize("n", range(1, 8))
def test_adjacent_transpositions_are_the_elements_with_one_inversion(n):
    # In the order of the position of their descent.
    def descents(image):
        return [t for t in range(n - 1) if image[t] > image[t + 1]]

    one = [p.image for p in sym_group(n) if p.image != tuple(range(1, n + 1))]
    one = [a for a in one if sum(x > y for x, y in combinations(a, 2)) == 1]
    assert adjacent_transpositions(n) == sorted(one, key=descents)


@given(st.integers(0, 12).flatmap(lambda k: st.permutations(range(k))))
def test_cycles_partition_the_points_from_their_least_points(succ):
    found = cycles(succ)
    assert sorted(x for cycle in found for x in cycle) == list(range(len(succ)))
    assert all(cycle[0] == min(cycle) for cycle in found)
    assert [cycle[0] for cycle in found] == sorted(cycle[0] for cycle in found)
    for cycle in found:
        assert [succ[x] for x in cycle] == cycle[1:] + cycle[:1]


# ---------------------------------------------------------------------------
# The stabilizer chain.


def _zero_based(images):
    return [tuple(v - 1 for v in a) for a in images]


def _one_based(maps):
    return [tuple(v + 1 for v in g) for g in maps]


def _adjacent(n, skip=None):
    """The adjacent transpositions (t t+1) of range(n), without the one at skip."""
    ident = tuple(range(n))
    return [ident[:t] + (t + 1, t) + ident[t + 2 :] for t in range(n - 1) if t != skip]


def _cycle_and_swap(n):
    """(0 1 ... n-1) and (0 1): they generate Sym_n, but no generator fixes 0."""
    return [tuple((x + 1) % n for x in range(n)), (1, 0) + tuple(range(2, n))]


def _dihedral(n):
    """The rotation and the reflection x -> -x of the n-gon: a group of order 2n."""
    return [tuple((x + 1) % n for x in range(n)), tuple((-x) % n for x in range(n))]


def _bridged(n):
    """(0 1), (2 3), then (1 2): the orbit of 0 grows through the last one
    to a point that only an earlier one moves on.  Sym_4 on the first four
    points."""
    adjacent = _adjacent(n)
    return [adjacent[0], adjacent[2], adjacent[1]]


def _generating_sets(n):
    """Named generating sets of degree n: V_n, T_n, the adjacent
    transpositions, and proper subgroups (a Young subgroup, a dihedral
    group, and the Sym_4 of _bridged, proper from n = 5)."""
    sets = {
        "T_n": _zero_based(p.image for p in tn_realizations(n)),
        "adjacent": _adjacent(n),
        "young": _adjacent(n, skip=n // 2 - 1),
        "dihedral": _dihedral(n),
        "cycle_and_swap": _cycle_and_swap(n),
    }
    if n >= 4:
        sets["bridged"] = _bridged(n)
    if n >= 4:
        sets["V_n"] = _zero_based(make_bt(c).image for c in vertex_set_V(n))
    return sets


@pytest.mark.parametrize("n", range(3, 13))
def test_chain_order_matches_sympy(n):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    for name, gens in _generating_sets(n).items():
        want = combinatorics.PermutationGroup([combinatorics.Permutation(list(g)) for g in gens])
        assert StabilizerChain(n, gens).order() == want.order(), name


def test_chain_orders_of_the_proper_subgroups():
    for n in range(3, 13):
        sets = _generating_sets(n)
        assert StabilizerChain(n, sets["dihedral"]).order() == 2 * n
        half = n // 2
        assert StabilizerChain(n, sets["young"]).order() == factorial(half) * factorial(n - half)
        if n >= 4:
            assert StabilizerChain(n, sets["bridged"]).order() == 24


def _breadth_first(n, gens):
    """The group of 0-based maps the generators generate: perms.closure of
    the identity under the right multipliers."""
    return closure([tuple(range(n))], [partial(compose_maps, b=g) for g in gens])


@pytest.mark.parametrize("n", range(1, 9))
def test_chain_order_is_the_size_of_the_breadth_first_group(n):
    sets = _generating_sets(n) if n >= 3 else {"adjacent": _adjacent(n)}
    for name, gens in sets.items():
        assert StabilizerChain(n, gens).order() == len(_breadth_first(n, gens)), name


@st.composite
def _random_generators(draw):
    """One to four maps of degree n = 1..7 that fix the same n-k points:
    maps of range(k) extended by fixed points, relabelled by one
    permutation sigma of range(n) so that the fixed points fall anywhere."""
    n = draw(st.integers(1, 7))
    k = draw(st.integers(1, n))
    sigma = draw(st.permutations(range(n)))
    inner = draw(st.lists(st.permutations(range(k)), min_size=1, max_size=4))
    gens = []
    for g in inner:
        h = [0] * n
        for x in range(n):
            h[sigma[x]] = sigma[g[x]] if x < k else sigma[x]
        gens.append(tuple(h))
    return gens


@settings(max_examples=60, deadline=None)
@given(_random_generators())
def test_chain_of_random_generators_is_the_breadth_first_group(gens):
    n = len(gens[0])
    listed = _breadth_first(n, gens)
    chain = StabilizerChain(n, gens)
    assert chain.order() == len(listed)
    everything = list(permutations(range(n)))
    if n == 7:  # a seeded sample of Sym_7, and members
        everything = random.Random(len(listed)).sample(everything, 300) + sorted(listed)[:50]
    for g in everything:
        assert (chain.sift(g)[0] == chain.identity) == (g in listed)


@settings(max_examples=60, deadline=None)
@given(_random_generators())
def test_chain_lists_each_member_once_from_the_identity(gens):
    n = len(gens[0])
    want = _breadth_first(n, gens)
    # The maps from point 0 on, and from the chain of their lifts on
    # {0, ..., n}, the one-line images from point 1 on.
    lifts = [(0,) + a for a in _one_based(gens)]
    for chain, start in ((StabilizerChain(n, gens), 0), (StabilizerChain(n + 1, lifts), 1)):
        assert chain.order() == len(want)
        listed = chain.elements(start)
        assert listed[0] == tuple(range(start, n + start))
        assert len(listed) == len(set(listed)) == len(want)
        assert {tuple(v - start for v in a) for a in listed} == want
    images = [Permutation(a) for a in _one_based(gens)]
    assert len(generated_subgroup(images, limit=len(want))) == len(want)
    with pytest.raises(ValueError, match="cap"):
        generated_subgroup(images, limit=len(want) - 1)


@pytest.mark.parametrize("n", range(3, 7))
def test_sift_accepts_the_members_and_rejects_the_rest(n):
    for name, gens in _generating_sets(n).items():
        chain = StabilizerChain(n, gens)
        listed = _breadth_first(n, gens)
        for g in permutations(range(n)):
            residue, level = chain.sift(g)
            assert (residue == chain.identity) == (g in listed), (name, g)
            if residue == chain.identity:
                assert level == len(chain.base)


def test_chain_of_the_trivial_group():
    for n in range(0, 5):
        chain = StabilizerChain(n, [tuple(range(n))])
        assert chain.order() == 1
        assert chain.base == []
        assert chain.sift(tuple(range(n))) == (chain.identity, 0)
    assert StabilizerChain(3, []).order() == 1


@pytest.mark.parametrize("n", range(4, 9))
def test_chain_levels_fix_the_earlier_base_points_and_close_their_orbits(n):
    for name, gens in _generating_sets(n).items():
        _check_levels(StabilizerChain(n, gens))


def _check_levels(chain):
    for level, gens in enumerate(chain.strong):
        for s in gens:
            assert all(s[b] == b for b in chain.base[:level])
        orbit = chain.orbits[level]
        assert orbit[0] == chain.base[level]
        assert len(set(orbit)) == len(orbit)
        assert {s[y] for y in orbit for s in gens} <= set(orbit)


class _CountedBudget:
    """A budget that runs out at its k-th read (never, for k = None)."""

    def __init__(self, k=None):
        self.k = k
        self.reads = 0

    def check(self):
        self.reads += 1
        if self.reads == self.k:
            raise BudgetExceeded(f"read {self.k}")


@pytest.mark.parametrize("name", ["V_n", "cycle_and_swap", "young"])
def test_chain_reads_the_budget_once_per_sift_and_stops_at_any_read(name):
    gens = _generating_sets(7)[name]
    sifts = []
    full = _CountedBudget()

    class Counting(StabilizerChain):
        def sift(self, g, start=0):
            sifts.append(start)
            return super().sift(g, start)

    chain = Counting(7, gens, full)
    assert chain.order() == StabilizerChain(7, gens).order()
    assert full.reads == len(sifts) > 0
    for k in range(1, full.reads + 1):
        with pytest.raises(BudgetExceeded):
            StabilizerChain(7, gens, _CountedBudget(k))
    # The listing reads it once per level, and generated_subgroup stops at
    # any read of the chain or of the listing.
    assert len(chain.elements()) == chain.order()
    assert full.reads == len(sifts) + len(chain.base)
    images = [Permutation(a) for a in _one_based(gens)]
    for k in range(1, full.reads + 1):
        with pytest.raises(BudgetExceeded):
            generated_subgroup(images, budget=_CountedBudget(k))


def _sift_starts(degree, gens):
    """The order of the chain of gens, and the level every sift started at."""
    starts = []

    class Counting(StabilizerChain):
        def sift(self, g, start=0):
            starts.append(start)
            return super().sift(g, start)

    return Counting(degree, gens).order(), starts


@pytest.mark.parametrize("n", range(4, 17))
def test_v_n_reaches_the_order_bound_before_any_schreier_generator(n):
    # V_n generates Sym_n or Alt_n, and the orbits of its own residues
    # already multiply to that order, so the chain is certified complete
    # without forming a Schreier generator.  The lifts [0 v] on n+1 points
    # never move 0, so their bound is n! (or n!/2) as well.
    gens = [make_bt(c) for c in vertex_set_V(n)]
    for degree, form in ((n, _zero_based(p.image for p in gens)), (n + 1, map(lift, gens))):
        order, starts = _sift_starts(degree, form)
        assert order == factorial(n) // (2 if n % 2 == 0 else 1)
        assert set(starts) == {0}


def test_the_bound_counts_only_the_moved_points():
    # (1 2 3) and (1 2) in degree 6 generate Sym({1, 2, 3}): the bound is
    # 3! = 6, not 6!, so the chain stops at order 6 with no Schreier
    # generator sifted.
    gens = [(0, 2, 3, 1, 4, 5), (0, 2, 1, 3, 4, 5)]
    order, starts = _sift_starts(6, gens)
    assert order == 6
    assert set(starts) == {0}
    assert sorted(StabilizerChain(6, gens).elements(1)) == sorted(
        (a[0], a[1], a[2], 4, 5) for a in permutations((1, 2, 3))
    )


def test_a_chain_whose_bound_misses_a_moved_point_gets_orders_wrong():
    # The negative control of the bound: (|M|-1)! in place of |M|! stops
    # the chain before its group is complete.
    from chain_mutants import ShortBoundChain

    adjacent = _adjacent(4)
    assert StabilizerChain(4, adjacent).order() == 24
    assert ShortBoundChain(4, adjacent).order() == 6
    for n in range(4, 9):
        gens = [lift(make_bt(c)) for c in vertex_set_V(n)]
        assert ShortBoundChain(n + 1, gens).order() < StabilizerChain(n + 1, gens).order()


def test_generated_subgroup_at_degrees_1_and_2():
    one, swap = identity(1), Permutation((2, 1))
    assert generated_subgroup([one]) == {one}
    assert generated_subgroup([one], limit=1) == {one}
    with pytest.raises(ValueError, match="cap"):
        generated_subgroup([one], limit=0)
    assert generated_subgroup([identity(2)]) == {identity(2)}
    assert generated_subgroup([swap], limit=2) == {identity(2), swap}
    with pytest.raises(ValueError, match="cap"):
        generated_subgroup([swap], limit=1)


@pytest.mark.parametrize("n", range(4, 10))
def test_a_chain_that_drops_a_schreier_generator_gets_the_order_wrong(n):
    # The negative control of the sift: where the order bound is reached
    # only through Schreier generators, leaving one class of them unsifted
    # gives a smaller order.
    from chain_mutants import DroppingChain

    gens = _cycle_and_swap(n)
    assert StabilizerChain(n, gens).order() == factorial(n)
    assert DroppingChain(n, gens).order() < factorial(n)
