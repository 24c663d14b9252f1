"""Registry of checkable claims with uniform reporting.

Every structural fact the package knows how to test is registered here
under a short stable key.  A claim is checked by running its runner at
some degree n; the outcome is wrapped in a VerificationReport whose
status is one of "verified", "failed", or "skipped-budget".  Failed
reports always carry a concrete counterexample.

Keys are opaque command-line identifiers.  Each claim declares the
degree range it supports; run_claim clamps a requested degree into that
range (fixed-degree claims ignore the request entirely), so sweeping the
whole registry at any n exercises every key.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from itertools import permutations, repeat
from math import factorial, gcd
from operator import getitem, itemgetter
from typing import Callable

from .autgroup import (
    aut_group,
    generated_subgroup,
    is_automorphism,
    orbit,
    orbit_images,
    perm_vertex_map,
    stabilizer_of_identity,
)
from .blocktrans import (
    IDENTITY,
    TN_CLASSES,
    CutPoints,
    beta,
    bt_inverse,
    bt_power,
    bt_piecewise,
    classify,
    enumerate_tn,
    make_bt,
    partition_counts,
    recognize,
    tn_realizations,
    tn_size,
)
from .budget import NO_BUDGET, BudgetExceeded
from .graphs import (
    bfs_distance,
    build_cayley,
    degree_profile,
    e_edges,
    gamma,
    gamma_v,
    graphs_isomorphic,
    hamilton_cycle_gamma_v,
    maximal_2_cliques,
    vertex_set_V,
)
from .maps import Dart, aut_order, is_regular, mprime_n5_map, octahedron_map, prop72_map, t_balance
from .perms import (
    Permutation,
    _right_multiplier,
    _wrap,
    closure,
    compose_images,
    compose_maps,
    identity,
    invert_image,
    layers,
    lift,
    reverse,
    sym_group,
    sym_index,
)
from .toric import (
    _bar_conj,
    _toric_conj,
    apply_dihedral,
    apply_lh_barf,
    bar_f,
    bar_f_image,
    bar_f_witness,
    bt_image_closed_form,
    compose_lh_barf,
    dihedral_compose,
    dihedral_elements,
    euler_phi,
    phi_iso,
    reverse_g,
    reverse_g_conj,
    reverse_image,
    toric_class_stats,
    toric_f,
    toric_image,
)

DEFAULT_N = 5


class ClaimFailure(Exception):
    """A claim check found the claim to be false."""

    def __init__(self, message: str, counterexample: dict | None = None):
        super().__init__(message)
        self.counterexample = counterexample or {}


@dataclass(frozen=True)
class VerificationReport:
    claim: str
    n: int
    status: str
    details: dict
    counterexample: dict | None
    wall_time_ms: float

    def as_json(self) -> dict:
        return {
            "claim": self.claim,
            "n": self.n,
            "status": self.status,
            "details": self.details,
            "counterexample": self.counterexample,
            "wall_time_ms": self.wall_time_ms,
        }


@dataclass(frozen=True)
class Claim:
    key: str
    summary: str
    min_n: int
    max_n: int
    runner: Callable = field(compare=False)
    fixed_n: int | None = None

    def resolve_n(self, n: int | None) -> int:
        if self.fixed_n is not None:
            return self.fixed_n
        if n is None:
            n = DEFAULT_N
        return min(max(n, self.min_n), self.max_n)


REGISTRY: dict[str, Claim] = {}

_cache: dict[tuple[str, int], VerificationReport] = {}


def _claim(key: str, summary: str, min_n: int, max_n: int, fixed_n: int | None = None):
    def register(fn):
        REGISTRY[key] = Claim(key, summary, min_n, max_n, fn, fixed_n)
        return fn

    return register


def claim_keys() -> tuple[str, ...]:
    return tuple(sorted(REGISTRY))


def get_claim(key: str) -> Claim:
    try:
        return REGISTRY[key]
    except KeyError:
        known = ", ".join(claim_keys())
        raise ValueError(f"unknown claim {key!r}; known claims: {known}") from None


def clear_cache():
    _cache.clear()


def run_claim(key: str, n: int | None = None, budget=NO_BUDGET) -> VerificationReport:
    claim = get_claim(key)
    use_n = claim.resolve_n(n)
    cached = _cache.get((key, use_n))
    if cached is not None:
        return cached
    start = time.perf_counter()
    counterexample = None
    try:
        details = claim.runner(use_n, budget)
        status = "verified"
    except ClaimFailure as exc:
        details = {"error": str(exc)}
        counterexample = exc.counterexample or {"reason": str(exc)}
        status = "failed"
    except BudgetExceeded as exc:
        details = {"error": str(exc)}
        status = "skipped-budget"
    wall = round((time.perf_counter() - start) * 1000.0, 3)
    report = VerificationReport(key, use_n, status, details, counterexample, wall)
    if status == "verified":
        _cache[(key, use_n)] = report
    return report


def run_all(n: int | None = None, budget=NO_BUDGET) -> list[VerificationReport]:
    return [run_claim(key, n, budget) for key in claim_keys()]


def _fail(message: str, **context):
    raise ClaimFailure(message, {k: str(v) for k, v in context.items()})


def _need(cond: bool, message: str, **context):
    if not cond:
        _fail(message, **context)


def _cut(i: int, j: int, k: int, n: int) -> CutPoints:
    return CutPoints(i, j, k, n)


def _bt(i: int, j: int, k: int, n: int) -> Permutation:
    return make_bt(_cut(i, j, k, n))


def _rank_table(idx, images, budget, kernel, r=None) -> tuple[int, ...]:
    """Rank of kernel(a) or kernel(a, r) for every image a, in image order.

    A kernel result that is no permutation of the degree fails the claim,
    naming the element it came from and the shift.
    """
    budget.check()
    out = list(map(kernel, images) if r is None else map(kernel, images, repeat(r)))
    try:
        return tuple(map(idx.__getitem__, out))
    except (KeyError, TypeError):
        i = next(i for i, b in enumerate(out) if not isinstance(b, tuple) or b not in idx)
        context = {} if r is None else {"r": r}
        _fail("kernel image is not a permutation", p=_wrap(images[i]), **context)


def _agree(lhs, rhs, images, message: str, key: str = "p", **context):
    """Fail at the first rank where two tables differ, naming that element as key."""
    if lhs != rhs:
        i = next(i for i, (u, v) in enumerate(zip(lhs, rhs)) if u != v)
        _fail(message, **{key: _wrap(images[i])}, **context)


def _first_route_fault(grp, tables, images, route_of, budget):
    """First (r, p), shift-major, where a conjugation route misses table r.

    route_of(p) does the work that depends on p alone once and returns the
    route r -> Permutation; the answer is the pair a sweep over r outside
    and p inside would meet first, or None when the route agrees everywhere.
    """
    fault = None
    for i, p in enumerate(grp):
        budget.check()
        route = route_of(p)
        for r in range(len(tables) if fault is None else fault[0]):
            if route(r).image != images[tables[r][i]]:
                fault = (r, p)
                break
    return fault


def _induced_dihedral_images(g, n: int) -> dict[tuple[int, ...], str]:
    """Vertex maps induced on g by the 2(n+1) toric/reverse symmetries."""
    out = {}
    for d in dihedral_elements(n):
        vm = perm_vertex_map(g, lambda p, d=d: apply_dihedral(d, p))
        out[vm.images] = str(d)
    return out


def _barf_iter(p: Permutation, e: int) -> Permutation:
    for _ in range(e):
        p = bar_f(p, 1)
    return p


# ---------------------------------------------------------------------------
# Block transposition census.


@_claim("lemma2.1", "census of the block transpositions and their four classes", 2, 8)
def _run_lemma21(n, budget):
    cuts = enumerate_tn(n)
    _need(len(cuts) == tn_size(n), "enumeration size mismatch", n=n, got=len(cuts))
    _need(
        tn_size(n) == n * (n + 1) * (n - 1) // 6,
        "size formula mismatch",
        n=n,
        size=tn_size(n),
    )
    counts = partition_counts(n)
    expected = {
        "B": n - 1,
        "L": (n - 1) * (n - 2) // 2,
        "F": (n - 1) * (n - 2) // 2,
        "S": (n - 1) * (n - 2) * (n - 3) // 6,
    }
    _need(counts == expected, "partition sizes mismatch", got=counts, want=expected)
    _need(sum(counts.values()) == len(cuts), "partition does not cover", counts=counts)

    seen = set()
    ident = identity(n)
    for c in cuts:
        p = make_bt(c)
        budget.check()
        _need(p == bt_piecewise(c), "the two construction routes disagree", cuts=c)
        _need(p != ident, "identity found among block transpositions", cuts=c)
        _need(p not in seen, "repeated realization", cuts=c)
        seen.add(p)
        _need(make_bt(bt_inverse(c)) == p.inverse(), "inverse cut points wrong", cuts=c)
        _need(recognize(p) == c, "recognition does not invert construction", cuts=c)
    _need(recognize(ident) is IDENTITY, "identity not flagged")
    if n >= 3:
        w = reverse(n)
        _need(recognize(w) is None, "order-reversing involution misrecognized", n=n)

    b = beta(n)
    _need(b == _bt(0, 1, n, n), "beta is not the basic left-border rotation", n=n)
    for c in cuts:
        base = _bt(c.i, c.i + 1, c.k, n)
        acc = base
        for e in range(2, c.k - c.i):
            acc = acc.compose(base)
            pw = bt_power(c.i, c.k, e, n)
            _need(pw == _cut(c.i, c.i + e, c.k, n), "power cut points wrong", i=c.i, k=c.k, e=e)
            _need(make_bt(pw) == acc, "power realization wrong", i=c.i, k=c.k, e=e)
    return {"size": len(cuts), "partition": counts}


# ---------------------------------------------------------------------------
# Toric and reversal maps, pointwise identities.


@_claim("eq9", "toric maps: conjugation form, additivity, inverse rule", 3, 7)
def _run_eq9(n, budget):
    """Exhaustive over Sym_n: every p, every shift r and every pair (r, s).

    The identities are checked on rank tables: T[r][i] is the rank of
    f_r of the element of rank i.  sym_index is a bijection from Sym_n onto
    range(n!), so a composed table equals another exactly when the two
    composed maps agree at every element, and each comparison still covers
    every element.  The conjugation route toric_f_conj composes the lift
    [0 p] with rotations as 0-based tuples and never calls the kernel it
    is checked against.
    """
    m = n + 1
    grp = sym_group(n)
    idx = sym_index(n)
    images = list(idx)
    tor = [_rank_table(idx, images, budget, toric_image, r) for r in range(m)]
    inv = _rank_table(idx, images, budget, invert_image)
    _agree(tor[0], tuple(range(len(images))), images, "zeroth toric map moved a point")
    fault = _first_route_fault(
        grp, tor, images, lambda p: partial(_toric_conj, lift(p)), budget
    )
    # points[r][i] is p_r for the element p of rank i, in its lift [0 p].
    points = list(zip(*[(0,) + a for a in images]))
    for r, t in enumerate(tor):
        budget.check()
        if fault is not None and fault[0] == r:
            _fail("defining forms disagree", p=fault[1], r=r)
        # (f_r(p))^-1 = f_{p_r}(p^-1): the shift p_r varies with p.
        mirrored = tuple(map(getitem, map(tor.__getitem__, points[r]), inv))
        _agree(
            compose_maps(inv, t),
            mirrored,
            images,
            "inverse of a toric image is not the mirrored toric image",
            r=r,
        )
        for s in range(m):
            _agree(
                compose_maps(tor[s], t),
                tor[(r + s) % m],
                images,
                "toric shifts do not add",
                r=r,
                s=s,
            )
    return {"elements": len(images), "shifts": m}


@_claim("eq12", "reversal map: conjugation form, involution, multiplicativity", 3, 6)
def _run_eq12(n, budget):
    """Exhaustive: both forms and the involution on every p in Sym_n, and
    multiplicativity on every pair (rho, pi) in Sym_n x Sym_n, on ranks.

    R[i] is the rank of g of the element of rank i, and col_pi[i] the rank
    of (element i) o pi.  g(rho o pi) = g(rho) o g(pi) for every rho reads
    R o col_pi == col_g(pi) o R; sym_index is a bijection, so that table
    comparison covers every rho, and one runs for every pi.  pi and g(pi)
    share their two columns, so each g-orbit of columns is built once.
    """
    grp = sym_group(n)
    for p in grp:
        _need(reverse_g(p) == reverse_g_conj(p), "defining forms disagree", p=p)
    idx = sym_index(n)
    images = list(idx)
    rev = _rank_table(idx, images, budget, reverse_image)
    ident = tuple(range(len(images)))
    _agree(compose_maps(rev, rev), ident, images, "reversal is not an involution")
    lifts = [(0,) + a for a in images]

    def column(j):
        budget.check()
        return tuple(map(idx.__getitem__, map(itemgetter(*images[j]), lifts)))

    for j, k in enumerate(rev):
        if k < j:
            continue  # g is an involution: column j was checked with column k
        col_j = column(j)
        col_k = col_j if k == j else column(k)
        for pi, (col, col_g) in {j: (col_j, col_k), k: (col_k, col_j)}.items():
            _agree(
                compose_maps(rev, col),
                compose_maps(col_g, rev),
                images,
                "reversal is not multiplicative",
                key="rho",
                pi=_wrap(images[pi]),
            )
    return {"elements": len(images), "pairs": len(images) ** 2}


@_claim("gfg", "reversal conjugates each toric map to its mirror", 3, 7)
def _run_gfg(n, budget):
    """Exhaustive over every p in Sym_n and every shift r: R o T[r] o R is
    compared with T[-r] as rank tables, which agree exactly when the maps
    agree at every element because sym_index is a bijection."""
    m = n + 1
    idx = sym_index(n)
    images = list(idx)
    tor = [_rank_table(idx, images, budget, toric_image, r) for r in range(m)]
    rev = _rank_table(idx, images, budget, reverse_image)
    for r, t in enumerate(tor):
        _agree(
            compose_maps(rev, compose_maps(t, rev)),
            tor[-r],
            images,
            "conjugated toric map is not the mirror shift",
            r=r,
        )
    return {"elements": len(images), "shifts": m}


@_claim("eq13", "inverse-toric maps: defining route and iteration", 3, 7)
def _run_eq13(n, budget):
    """Exhaustive over every p in Sym_n and every shift r.

    Three routes meet: the rotation form bar_f_conj (on 0-based tuples,
    compared element by element), the definition (f_r(p^-1))^-1 as the rank
    table inv o T[r] o inv, and r-fold iteration of bar_f_1 as B[1] o B[r-1]
    by induction on r from B[0] = id.  sym_index is a bijection, so each
    table comparison covers every element.
    """
    m = n + 1
    grp = sym_group(n)
    idx = sym_index(n)
    images = list(idx)
    bar = [_rank_table(idx, images, budget, bar_f_image, r) for r in range(m)]
    tor = [_rank_table(idx, images, budget, toric_image, r) for r in range(m)]
    inv = _rank_table(idx, images, budget, invert_image)
    fault = _first_route_fault(
        grp, bar, images, lambda p: partial(_bar_conj, lift(p), lift(p.inverse())), budget
    )
    for r, b in enumerate(bar):
        budget.check()
        if fault is not None and fault[0] == r:
            _fail("defining forms disagree", p=fault[1], r=r)
        _agree(
            compose_maps(inv, compose_maps(tor[r], inv)),
            b,
            images,
            "inverse-toric route broke",
            r=r,
        )
        _agree(
            compose_maps(bar[1], bar[r - 1]) if r else tuple(range(len(images))),
            b,
            images,
            "iteration disagrees with direct shift",
            r=r,
        )
    return {"elements": len(images), "shifts": m}


@_claim("eq16", "reversal conjugates each inverse-toric map to its mirror", 3, 7)
def _run_eq16(n, budget):
    """Exhaustive over every p in Sym_n and every shift r: R o B[r] o R is
    compared with B[-r] as rank tables, which agree exactly when the maps
    agree at every element because sym_index is a bijection."""
    m = n + 1
    idx = sym_index(n)
    images = list(idx)
    bar = [_rank_table(idx, images, budget, bar_f_image, r) for r in range(m)]
    rev = _rank_table(idx, images, budget, reverse_image)
    for r, b in enumerate(bar):
        _agree(
            compose_maps(rev, compose_maps(b, rev)),
            bar[-r],
            images,
            "conjugated inverse-toric map is not the mirror shift",
            r=r,
        )
    return {"elements": len(images), "shifts": m}


@_claim("lemma4.3", "product rule for inverse-toric images", 3, 5)
def _run_lemma43(n, budget):
    """Exhaustive: bar_f_r(rho o pi) = bar_f_r(rho) o bar_f_s(pi) with
    s = (rho^-1)_r, for every pair (rho, pi) in Sym_n x Sym_n and every r.

    On ranks, with P the full product table and B[r] the bar_f_r table, the
    row of rho reads B[r] o P[rho] == P[B[r][rho]] o B[s] over all pi at
    once.  sym_index is a bijection, so each row comparison covers every pi,
    and one runs for every rho and r.
    """
    m = n + 1
    idx = sym_index(n)
    images = list(idx)
    bar = [_rank_table(idx, images, budget, bar_f_image, r) for r in range(m)]
    getters = [itemgetter(*b) for b in images]
    product = []
    for a in images:
        budget.check()
        lift_a = (0,) + a
        product.append(tuple(map(idx.__getitem__, [g(lift_a) for g in getters])))
    for i, rho in enumerate(images):
        budget.check()
        exponent = (0,) + invert_image(rho)
        for r, b in enumerate(bar):
            _agree(
                compose_maps(b, product[i]),
                compose_maps(product[b[i]], bar[exponent[r]]),
                images,
                "product rule violated",
                key="pi",
                rho=_wrap(rho),
                r=r,
            )
    return {"pairs": len(images) ** 2, "shifts": m}


# ---------------------------------------------------------------------------
# Closed forms on cut points.


def _run_closed_form(tag: str, image_of, n, budget):
    """The image of every s(i,j,k) under one map against its closed form."""
    for c in enumerate_tn(n):
        budget.check()
        img = bt_image_closed_form(c, tag)
        _need(
            make_bt(img) == image_of(make_bt(c)),
            "closed form disagrees with the map",
            cuts=c,
            image=img,
        )
    return {"checked": tn_size(n)}


# (key, summary, closed-form tag, map) for each closed form over T_n.
_CLOSED_FORMS = (
    ("lemma3.1", "toric image of a block transposition, closed form", "f", partial(toric_f, r=1)),
    ("eq11", "reversal image of a block transposition, closed form", "g", reverse_g),
    ("lemma4.1", "inverse-toric image of a block transposition, closed form", "bar_f", partial(bar_f, r=1)),
)
for _key, _summary, _tag, _map in _CLOSED_FORMS:
    _claim(_key, _summary, 2, 8)(partial(_run_closed_form, _tag, _map))


@_claim("eqa14oct", "iterated inverse-toric images of the left-border elements", 4, 8)
def _run_eqa14oct(n, budget):
    cases = 0

    def check(c, e, want):
        nonlocal cases
        _need(
            _barf_iter(make_bt(c), e) == make_bt(want),
            "iterated image disagrees",
            cuts=c,
            power=e,
            want=want,
        )
        cases += 1

    for c in enumerate_tn(n):
        budget.check()
        if c.i != 0:
            continue
        j, k = c.j, c.k
        if j >= 3:
            check(c, 2, _cut(j - 2, k - 2, n - 1, n))
        elif j == 1 and k >= 4:
            check(c, 3, _cut(k - 3, n - 2, n - 1, n))
        elif (j, k) == (1, 2):
            check(c, 4, _cut(n - 3, n - 2, n - 1, n))
        elif (j, k) == (1, 3):
            check(c, 5, _cut(n - 4, n - 3, n - 1, n))
        elif j == 2 and k >= 5:
            check(c, 4, _cut(k - 4, n - 3, n - 1, n))
        elif (j, k) == (2, 3):
            check(c, 5, _cut(n - 4, n - 2, n - 1, n))
        elif (j, k) == (2, 4):
            # The seventh family needs n >= 5 for its image to be a valid cut.
            if n >= 5:
                check(c, 6, _cut(n - 5, n - 3, n - 1, n))
        else:
            raise ClaimFailure("left-border element not covered", {"cuts": str(c)})
    return {"cases": cases}


# ---------------------------------------------------------------------------
# Invariance of the generating set.


def _run_invariance(shifted, fixed, n, budget):
    """A named map at every shift r, and optionally a named fixed map, send
    the set of block transpositions onto itself."""
    name, fn = shifted
    reals = set(tn_realizations(n))
    for r in range(n + 1):
        budget.check()
        _need({fn(p, r) for p in reals} == reals, f"{name} does not preserve the set", r=r)
    if fixed is not None:
        name, fn = fixed
        _need({fn(p) for p in reals} == reals, f"{name} does not preserve the set")
    return {"size": len(reals), "shifts": n + 1}


# (key, summary, shifted map, fixed map) for each invariance of T_n.
_INVARIANCES = (
    (
        "cor3.2",
        "toric maps and reversal permute the block transpositions",
        ("toric map", toric_f),
        ("reversal", reverse_g),
    ),
    (
        "cor4.2",
        "inverse-toric maps permute the block transpositions",
        ("inverse-toric map", bar_f),
        None,
    ),
)
for _key, _summary, _shifted, _fixed in _INVARIANCES:
    _claim(_key, _summary, 2, 8)(partial(_run_invariance, _shifted, _fixed))


# ---------------------------------------------------------------------------
# The translation/inverse-toric product group and its extended image.


@_claim("prop4.4", "translations with inverse-toric maps form a group of order (n+1)!", 3, 4)
def _run_prop44(n, budget):
    m = n + 1
    grp = sym_group(n)
    idx = sym_index(n)
    elems = [(h, r) for h in grp for r in range(m)]
    table = {}
    for h, r in elems:
        budget.check()
        table[(h.image, r)] = tuple(idx[apply_lh_barf(h, r, p).image] for p in grp)
    values = set(table.values())
    _need(len(values) == factorial(m), "maps are not pairwise distinct", count=len(values))

    for h, r in elems:
        budget.check()
        ta = table[(h.image, r)]
        pa = phi_iso(h, r)
        for k, u in elems:
            d, e = compose_lh_barf(h, r, k, u)
            tb = table[(k.image, u)]
            _need(
                compose_maps(ta, tb) == table[(d.image, e)],
                "product rule disagrees with pointwise composition",
                h=h,
                r=r,
                k=k,
                u=u,
            )
            _need(
                compose_maps(pa, phi_iso(k, u)) == phi_iso(d, e),
                "extended images do not multiply",
                h=h,
                r=r,
                k=k,
                u=u,
            )
    images = {phi_iso(h, r) for h, r in elems}
    _need(
        images == set(permutations(range(m))),
        "extended images miss part of the target group",
        count=len(images),
    )

    # Right translation by the order-reversing involution: central, outside,
    # and together with the group it doubles the order.
    w = reverse(n)
    tmap = tuple(idx[p.compose(w).image] for p in grp)
    _need(tmap not in values, "the doubling involution lies inside the group")
    _need(
        compose_maps(tmap, tmap) == tuple(range(len(grp))),
        "the doubling map is not an involution",
    )
    for v in values:
        _need(
            compose_maps(tmap, v) == compose_maps(v, tmap),
            "the doubling involution does not centralize the group",
        )
    doubled = values | {compose_maps(tmap, v) for v in values}
    _need(len(doubled) == 2 * factorial(m), "doubled set has wrong size", count=len(doubled))
    return {"group_order": factorial(m), "doubled_order": 2 * factorial(m)}


@_claim("skew-toric", "which inverse-toric maps are skew-morphisms of the group", 3, 5)
def _run_skew_toric(n, budget):
    m = n + 1
    orders = {}
    for r in range(m):
        budget.check()
        w = bar_f_witness(n, r)
        expect = r == 0 or gcd(r, m) == 1
        _need(
            (w is not None) == expect,
            "skew-morphism pattern disagrees with the coprimality rule",
            r=r,
            modulus=m,
        )
        if w is not None:
            want_order = 1 if r == 0 else m
            _need(w.order == want_order, "witness order wrong", r=r, order=w.order)
            orders[str(r)] = w.order
    w1 = bar_f_witness(n, 1)
    for p in sym_group(n):
        _need(
            w1.pi_power_of(p) == lift(p.inverse())[1],
            "power function is not the first entry of the inverse",
            p=p,
        )
    return {"orders": orders, "coprime_count": 1 + euler_phi(m) - 1}


@_claim("toric-singletons", "toric classes: singleton count and size divisors", 3, 7)
def _run_toric_singletons(n, budget):
    budget.check()
    classes, singletons, histogram = toric_class_stats(n)
    m = n + 1
    _need(singletons == euler_phi(m), "singleton count mismatch", got=singletons, want=euler_phi(m))
    for size, count in histogram.items():
        _need(m % size == 0, "class size does not divide the modulus", size=size, count=count)
    total = sum(size * count for size, count in histogram.items())
    _need(total == factorial(n), "classes do not partition the group", covered=total)
    return {
        "classes": classes,
        "singletons": singletons,
        "histogram": {str(k): v for k, v in sorted(histogram.items())},
    }


# ---------------------------------------------------------------------------
# Structure of the graph on the block transpositions.


@_claim("cor5.1", "reversal fixes the border classes and swaps the mixed ones", 4, 8)
def _run_cor51(n, budget):
    swap = {"B": "B", "S": "S", "L": "F", "F": "L"}
    by_class = {cls: set() for cls in TN_CLASSES}
    images = {cls: set() for cls in TN_CLASSES}
    for c in enumerate_tn(n):
        budget.check()
        img = recognize(reverse_g(make_bt(c)))
        _need(img is not None and img is not IDENTITY, "image left the set", cuts=c)
        _need(
            classify(img) == swap[classify(c)],
            "class image wrong",
            cuts=c,
            image=img,
        )
        by_class[classify(c)].add(c)
        images[swap[classify(c)]].add(img)
    for cls in TN_CLASSES:
        _need(images[cls] == by_class[cls], "class image set mismatch", cls=cls)
    return {"classes": {cls: len(by_class[cls]) for cls in TN_CLASSES}}


@_claim("lemma5.2", "no edges join the two extreme classes", 4, 8)
def _run_lemma52(n, budget):
    g = gamma(n)
    b_ranks = [g.index_of(make_bt(c)) for c in enumerate_tn(n) if classify(c) == "B"]
    s_ranks = [g.index_of(make_bt(c)) for c in enumerate_tn(n) if classify(c) == "S"]
    for u in b_ranks:
        budget.check()
        for v in s_ranks:
            _need(
                not g.is_edge(u, v),
                "forbidden edge found",
                u=g.labels[u],
                v=g.labels[v],
            )
    return {"border": len(b_ranks), "interior": len(s_ranks)}


@_claim("lemma5.3", "five two-parameter families exhaust the edges", 4, 8)
def _run_lemma53(n, budget):
    g = gamma(n)
    pairs = set()

    def edge_with(a: CutPoints, b: CutPoints, q: CutPoints):
        # a == b o q certifies adjacency of a and b.
        _need(
            make_bt(a) == make_bt(b).compose(make_bt(q)),
            "product certificate broke",
            a=a,
            b=b,
            q=q,
        )
        ra, rb = g.index_of(make_bt(a)), g.index_of(make_bt(b))
        _need(g.is_edge(ra, rb), "certified pair is not an edge", a=a, b=b)
        pairs.add(frozenset((ra, rb)))

    for c in enumerate_tn(n):
        budget.check()
        i, j, k = c.i, c.j, c.k
        for k2 in range(j + 1, k):
            edge_with(c, _cut(i, j, k2, n), _cut(k2 - j + i, k2, k, n))
        for k2 in range(k + 1, n + 1):
            edge_with(c, _cut(j, k, k2, n), _cut(i, k2 - k + j, k2, n))
        for i2 in range(i):
            edge_with(c, _cut(i2, j, k, n), _cut(i2, k - j + i2, k - j + i, n))
        for j2 in range(j + 1, k):
            edge_with(c, _cut(i, j2, k, n), _cut(i, k - j2 + j, k, n))
    edges = {frozenset(e) for e in g.edges()}
    _need(pairs == edges, "family pairs differ from the edge set", families=len(pairs), edges=len(edges))
    return {"edges": len(edges)}


@_claim("lemma5.4", "four ways to split a right-anchored element", 4, 8)
def _run_lemma54(n, budget):
    checked = 0
    for j in range(1, n):
        budget.check()
        for i in range(1, j):
            a = _bt(i, j, n, n)
            _need(
                a == _bt(0, j, n, n).compose(_bt(0, n - j, n - j + i, n)),
                "first splitting broke",
                i=i,
                j=j,
            )
            _need(
                a == _bt(0, i, j, n).compose(_bt(0, j - i, n, n)),
                "second splitting broke",
                i=i,
                j=j,
            )
            _need(
                _bt(0, j, n, n) == a.compose(_bt(0, i, n - j + i, n)),
                "third splitting broke",
                i=i,
                j=j,
            )
            checked += 3
        for i in range(1, n - j):
            _need(
                _bt(0, j, n, n) == _bt(0, j, j + i, n).compose(_bt(i, j + i, n, n)),
                "fourth splitting broke",
                i=i,
                j=j,
            )
            checked += 1
    return {"identities": checked}


@_claim("lemma5.5", "the border factor in a splitting is forced", 4, 8)
def _run_lemma55(n, budget):
    tested = 0
    for j in range(2, n):
        budget.check()
        for i in range(1, j):
            target = _bt(i, j, n, n)
            for jb in range(1, n):
                left = _bt(0, jb, n, n).inverse().compose(target)
                r = recognize(left)
                if r is not None and r is not IDENTITY:
                    _need(jb == j, "left border parameter not forced", i=i, j=j, found=jb)
                right = target.compose(_bt(0, jb, n, n).inverse())
                r2 = recognize(right)
                if r2 is not None and r2 is not IDENTITY:
                    _need(jb == j - i, "right border parameter not forced", i=i, j=j, found=jb)
                tested += 1
    return {"candidates": tested}


@_claim("prop5.6", "bipartite degrees between classes and the mixed matching", 4, 8)
def _run_prop56(n, budget):
    g = gamma(n)
    classes = {c: classify(c) for c in enumerate_tn(n)}
    rank = {c: g.index_of(make_bt(c)) for c in classes}
    by = {cls: [c for c, cl in classes.items() if cl == cls] for cls in TN_CLASSES}

    for c in by["L"] + by["F"]:
        budget.check()
        nbrs = sum(1 for b in by["B"] if g.is_edge(rank[c], rank[b]))
        _need(nbrs == 1, "mixed vertex with wrong border degree", cuts=c, degree=nbrs)
    for b in by["B"]:
        nbrs = sum(1 for c in by["L"] + by["F"] if g.is_edge(rank[b], rank[c]))
        _need(nbrs == n - 2, "border vertex with wrong mixed degree", cuts=b, degree=nbrs)

    # Between the two mixed classes the edges form a perfect matching whose
    # pairs are given by a closed form.
    for c in by["F"]:
        budget.check()
        partners = [l for l in by["L"] if g.is_edge(rank[c], rank[l])]
        want = _cut(0, c.i, c.j, n)
        _need(partners == [want], "matching partner wrong", cuts=c, partners=partners)
        quotient = recognize(make_bt(want).inverse().compose(make_bt(c)))
        _need(
            quotient == _cut(0, c.j - c.i, n, n),
            "matching certificate wrong",
            cuts=c,
            quotient=quotient,
        )
    for c in by["L"]:
        partners = [f for f in by["F"] if g.is_edge(rank[c], rank[f])]
        _need(len(partners) == 1, "matching is not one to one", cuts=c, partners=partners)
    return {"matching": len(by["F"]), "border_degree": n - 2}


@_claim("cor5.7", "the border class is the unique clique of its size", 4, 8)
def _run_cor57(n, budget):
    g = gamma(n)
    b_ranks = [g.index_of(make_bt(c)) for c in enumerate_tn(n) if classify(c) == "B"]
    _need(len(b_ranks) == n - 1, "border class size wrong", size=len(b_ranks))
    for u in b_ranks:
        budget.check()
        for v in b_ranks:
            if u < v:
                _need(g.is_edge(u, v), "border class is not a clique", u=g.labels[u], v=g.labels[v])
                common = g.neighbor_sets[u] & g.neighbor_sets[v]
                _need(
                    common <= set(b_ranks),
                    "border edge has a common neighbor outside",
                    u=g.labels[u],
                    v=g.labels[v],
                )
    outside = [v for v in range(g.num_vertices) if v not in set(b_ranks)]
    for v in outside:
        _need(
            not all(g.is_edge(v, u) for u in b_ranks),
            "border clique extends",
            vertex=g.labels[v],
        )
    return {"clique_size": n - 1}


@_claim("prop5.8", "degree of the graph on the block transpositions", 4, 8)
def _run_prop58(n, budget):
    budget.check()
    g = gamma(n)
    profile = degree_profile(g)
    want = 3 if n == 4 else 2 * (n - 2)
    for v, deg in enumerate(profile):
        if deg != want:
            # Report the true profile; for n = 4 the stated value 3 does not
            # match the graph, which is 2(n-2)-regular there as well.
            bad = next(u for u in range(g.num_vertices) if g.degree(u) != want)
            raise ClaimFailure(
                f"expected {want}-regular, found degree {g.degree(bad)}",
                {
                    "vertex": str(g.labels[bad]),
                    "degree": str(g.degree(bad)),
                    "profile": str(sorted(set(profile))),
                },
            )
    return {"regular": want, "vertices": g.num_vertices}


@_claim("prop5.9", "n+1 disjoint edges that are maximal 2-cliques", 5, 8)
def _run_prop59(n, budget):
    g = gamma(n)
    ee = e_edges(n)
    _need(len(ee) == n + 1, "edge count wrong", count=len(ee))
    seen = set()
    for m, (a, b) in enumerate(ee):
        budget.check()
        _need(a not in seen and b not in seen, "edges are not disjoint", index=m)
        seen |= {a, b}
        ra, rb = g.index_of(make_bt(a)), g.index_of(make_bt(b))
        _need(g.is_edge(ra, rb), "distinguished pair is not an edge", index=m)
        _need(
            not (g.neighbor_sets[ra] & g.neighbor_sets[rb]),
            "distinguished edge has a common neighbor",
            index=m,
        )
    for m in range(n - 2):
        a, b = ee[m]
        _need(make_bt(a).inverse() == make_bt(b), "ladder endpoints are not mutual inverses", index=m)
    # The basic inverse-toric map cycles the edges.
    fs = [frozenset(p) for p in ee]
    for m, (a, b) in enumerate(ee):
        img = frozenset(
            (recognize(bar_f(make_bt(a), 1)), recognize(bar_f(make_bt(b), 1)))
        )
        want = fs[m - 1] if m >= 1 else fs[n]
        _need(img == want, "edge cycle broken", index=m, image=sorted(map(str, img)))
    return {"edges": n + 1, "vertices": len(seen)}


@_claim("lemma5.10", "the dihedral symmetries act regularly on the special vertices", 5, 8)
def _run_lemma510(n, budget):
    V = vertex_set_V(n)
    reals = {make_bt(c) for c in V}
    _need(len(reals) == 2 * (n + 1), "special vertex count wrong", count=len(reals))
    dih = dihedral_elements(n)
    _need(len(dih) == 2 * (n + 1), "symmetry count wrong", count=len(dih))
    for d in dih:
        budget.check()
        _need(
            {apply_dihedral(d, p) for p in reals} == reals,
            "symmetry does not preserve the special vertices",
            symmetry=d,
        )
    seed = make_bt(_cut(0, 2, n, n))
    orb = orbit(dih, seed)
    _need(orb == frozenset(reals), "special vertices are not a single orbit", orbit_size=len(orb))
    for d in dih:
        if d.r == 0 and d.refl == 0:
            continue
        fixed = [p for p in reals if apply_dihedral(d, p) == p]
        _need(not fixed, "non-identity symmetry fixes a special vertex", symmetry=d)
    gv = gamma_v(n)
    for d in dih:
        vm = perm_vertex_map(gv, lambda p, d=d: apply_dihedral(d, p))
        _need(is_automorphism(gv, vm), "induced map is not an automorphism", symmetry=d)

    # Action of the reversal on the distinguished edges.
    ee = e_edges(n)
    fs = [frozenset(p) for p in ee]
    for m, (a, b) in enumerate(ee):
        ia, ib = recognize(reverse_g(make_bt(a))), recognize(reverse_g(make_bt(b)))
        img = frozenset((ia, ib))
        if m <= n - 3:
            want = fs[n - 3 - m]
        elif m == n - 2:
            want = fs[n]
        elif m == n - 1:
            want = fs[n - 1]
            _need(ia == b and ib == a, "reversal does not swap the fixed edge", index=m)
        else:
            want = fs[n - 2]
        _need(img == want, "reversal edge action wrong", index=m, image=sorted(map(str, img)))
    return {"orbit": len(orb), "symmetries": len(dih)}


@_claim("cor5.11", "orbit sizes of the dihedral symmetries divide 2(n+1)", 5, 8)
def _run_cor511(n, budget):
    """Exhaustive: the orbits of all of Sym_n, traced on image tuples."""
    dih = dihedral_elements(n)
    target = 2 * (n + 1)
    seed = make_bt(_cut(0, 2, n, n))
    long_orbit = orbit(dih, seed)
    _need(len(long_orbit) == target, "special orbit is not long", size=len(long_orbit))
    sizes = {}
    seen = set()
    for p in sym_group(n):
        if p.image in seen:
            continue
        budget.check()
        orb = orbit_images(dih, p.image)
        seen |= orb
        _need(target % len(orb) == 0, "orbit size does not divide", p=p, size=len(orb))
        sizes[len(orb)] = sizes.get(len(orb), 0) + 1
    return {"orbit_sizes": {str(k): v for k, v in sorted(sizes.items())}}


@_claim("lemma5.12", "the distinguished edges are the only maximal 2-cliques", 4, 8)
def _run_lemma512(n, budget):
    budget.check()
    g = gamma(n)
    found = maximal_2_cliques(g)
    _need(len(found.edges) == n + 1, "count of maximal 2-cliques wrong", count=len(found.edges))
    _need(None not in found.em_index, "an untagged maximal 2-clique appeared")
    _need(
        sorted(found.em_index) == list(range(n + 1)),
        "tags do not cover the distinguished edges",
        tags=found.em_index,
    )
    return {"count": n + 1, "disjoint": n >= 5}


@_claim("prop5.13", "the subgraph on the special vertices is cubic", 5, 8)
def _run_prop513(n, budget):
    budget.check()
    gv = gamma_v(n)
    _need(gv.num_vertices == 2 * (n + 1), "vertex count wrong", count=gv.num_vertices)
    profile = sorted(set(degree_profile(gv)))
    _need(profile == [3], "subgraph is not cubic", profile=profile)
    return {"vertices": gv.num_vertices, "edges": gv.num_edges}


@_claim("prop5.15", "explicit Hamilton cycle through the special vertices", 5, 8)
def _run_prop515(n, budget):
    budget.check()
    cycle = hamilton_cycle_gamma_v(n)
    gv = gamma_v(n)
    _need(len(cycle) == gv.num_vertices, "cycle length wrong", length=len(cycle))
    ranks = [gv.index_of(make_bt(c)) for c in cycle]
    _need(len(set(ranks)) == len(ranks), "cycle repeats a vertex")
    for a, b in zip(ranks, ranks[1:] + ranks[:1]):
        _need(gv.is_edge(a, b), "cycle step is not an edge", a=gv.labels[a], b=gv.labels[b])
    return {"length": len(cycle)}


# ---------------------------------------------------------------------------
# Automorphism groups.


@_claim("thm1", "automorphisms of the graph on the block transpositions", 4, 6)
def _run_thm1(n, budget):
    g = gamma(n)
    induced = _induced_dihedral_images(g, n)
    _need(len(induced) == 2 * (n + 1), "induced symmetries are not faithful", count=len(induced))
    auts = aut_group(g, budget=budget)
    got = {m.images for m in auts}
    extra = got - set(induced)
    missing = set(induced) - got
    _need(
        not extra and not missing,
        "automorphism group is not the induced dihedral group",
        extra=len(extra),
        missing=len(missing),
    )
    return {"order": len(auts)}


@_claim("thm2", "stabilizer of the identity in the full Cayley graph", 4, 5)
def _run_thm2(n, budget):
    stab = stabilizer_of_identity(n, budget=budget)
    _need(len(stab) == 2 * (n + 1), "stabilizer order wrong", order=len(stab))
    cay = build_cayley(n, tn_realizations(n))
    induced = _induced_dihedral_images(cay, n)
    _need(
        {m.images for m in stab} == set(induced),
        "stabilizer differs from the induced symmetries",
        stabilizer=len(stab),
        induced=len(induced),
    )
    full_order = factorial(n) * len(stab)
    return {"stabilizer": len(stab), "full_group_order": full_order}


@_claim("toric-reverse-aut", "dihedral symmetries are automorphisms fixing the identity", 4, 6)
def _run_toric_reverse_aut(n, budget):
    """Each of the 2(n+1) dihedral maps is an automorphism fixing the
    identity, the maps are distinct, and the normal-form product agrees
    with composition for every pair (a, b) at every p in Sym_n.

    The product law is checked on the rank tables perm_vertex_map builds:
    table[d][v] is the rank of d(p) for the vertex p of rank v.  The
    vertices of the Cayley graph are all of Sym_n and ranking is a
    bijection, so table[ab] = table[a] o table[b] holds exactly when
    ab(p) = a(b(p)) for every p in Sym_n.
    """
    cay = build_cayley(n, tn_realizations(n))
    _need(cay.num_vertices == factorial(n), "vertex set is not the whole group")
    ident_rank = cay.index_of(identity(n))
    tables = {}
    dih = dihedral_elements(n)
    for d in dih:
        budget.check()
        vm = perm_vertex_map(cay, lambda p, d=d: apply_dihedral(d, p))
        _need(is_automorphism(cay, vm), "induced map is not an automorphism", symmetry=d)
        _need(vm.apply(ident_rank) == ident_rank, "identity vertex moved", symmetry=d)
        tables[d] = vm.images
    images = set(tables.values())
    _need(len(images) == 2 * (n + 1), "induced maps are not distinct", count=len(images))
    for a in dih:
        budget.check()
        ta = tables[a]
        for b in dih:
            tb = tables[b]
            tab = tables[dihedral_compose(a, b)]
            if tab != compose_maps(ta, tb):
                v = next(v for v, x in enumerate(tb) if tab[v] != ta[x])
                _fail(
                    "normal-form product disagrees with composition",
                    a=a,
                    b=b,
                    p=cay.labels[v],
                )
    return {"maps": len(images)}


# ---------------------------------------------------------------------------
# Generated subgroups and components.


@_claim("lemma6.3", "the special vertices generate the whole or even half", 4, 8)
def _run_lemma63(n, budget):
    budget.check()
    gens = [make_bt(c) for c in vertex_set_V(n)]
    sub = generated_subgroup(gens)
    if n % 2 == 0:
        _need(
            all(p.is_even() for p in gens),
            "an odd generator appeared at even degree",
        )
        _need(len(sub) == factorial(n) // 2, "subgroup is not the even half", order=len(sub))
    else:
        _need(
            any(not p.is_even() for p in gens),
            "no odd generator at odd degree",
        )
        _need(len(sub) == factorial(n), "subgroup is not the whole group", order=len(sub))
    return {"order": len(sub), "index": factorial(n) // len(sub)}


@_claim("lemma6.4", "components of the Cayley graph over the special vertices", 4, 8)
def _run_lemma64(n, budget):
    gens = [make_bt(c) for c in vertex_set_V(n)]
    gen_set = set(gens)
    _need(all(p.inverse() in gen_set for p in gens), "connection set is not symmetric")
    sub = generated_subgroup(gens)

    # Component of the identity, traced by left multiplication q o p: a
    # second route beside generated_subgroup's right products.
    steps = [partial(compose_images, q.image) for q in gens]
    seen = closure([identity(n).image], steps, budget=budget)
    _need(seen == {p.image for p in sub}, "identity component differs from the generated subgroup")
    components = factorial(n) // len(sub)
    _need(components == (1 if n % 2 else 2), "component count wrong", count=components)
    return {"components": components, "component_size": len(sub)}


# ---------------------------------------------------------------------------
# Distances.


@_claim("bfs", "meet-in-the-middle distances match a full search", 3, 5)
def _run_bfs(n, budget):
    """Every target's meet-in-the-middle distance against its breadth-first
    layer from the identity, checked in rank order."""
    gens = tn_realizations(n)
    source = identity(n)
    index = sym_index(n)
    dist = [None] * len(index)
    steps = [_right_multiplier(q.image) for q in gens]
    for d, level in enumerate(layers([source.image], steps, budget)):
        for a in level:
            dist[index[a]] = d
    reached = len(dist) - dist.count(None)
    _need(reached == factorial(n), "search did not reach the whole group", reached=reached)
    for target, want in zip(sym_group(n), dist):
        budget.check()
        d, path = bfs_distance(source, target)
        _need(d == want, "distance mismatch", target=target, got=d, want=want)
        _need(len(path) == d, "geodesic length mismatch", target=target)
        cur = source
        for c in path:
            cur = cur.compose(make_bt(c))
        _need(cur == target, "geodesic does not reach the target", target=target)
    # Left invariance on a few shifted pairs.
    w = reverse(n)
    for shift in gens[:3]:
        d1, _ = bfs_distance(shift, shift.compose(w))
        d2, _ = bfs_distance(source, w)
        _need(d1 == d2, "distance is not left invariant", shift=shift)
    return {"targets": reached, "diameter": max(dist)}


# ---------------------------------------------------------------------------
# Rotation systems.


@_claim("example7.1", "the four-generator rotation system is the octahedron", 2, 8, fixed_n=3)
def _run_example71(n, budget):
    budget.check()
    m = octahedron_map()
    _need(m.dart_count == 24, "dart count wrong", count=m.dart_count)
    faces = m.faces()
    _need(len(faces) == 8, "face count wrong", count=len(faces))
    _need(all(f.size == 3 for f in faces), "faces are not triangles")
    _need(m.euler_characteristic() == 2, "not spherical", chi=m.euler_characteristic())
    w = is_regular(m, budget=budget)
    _need(w is not None, "no regularity witness")
    _need(aut_order(m, w) == 24, "symmetry count wrong", order=aut_order(m, w))
    other = prop72_map(3)
    _need(m.gens == other.gens, "differs from the general construction at its smallest size")
    g = build_cayley(3, m.gens)
    _need(g.num_vertices == 6 and sorted(set(degree_profile(g))) == [4], "skeleton wrong")
    for v in range(g.num_vertices):
        non = g.num_vertices - 1 - g.degree(v)
        _need(non == 1, "skeleton is not the octahedron", vertex=g.labels[v])
    return {"darts": 24, "faces": 8, "aut_order": 24}


@_claim("prop7.2", "the (n+1)-generator rotation system is regular, not balanced", 3, 6)
def _run_prop72(n, budget):
    m = prop72_map(n)
    _need(m.valency == n + 1, "valency wrong", valency=m.valency)
    _need(m.dart_count == (n + 1) * factorial(n), "dart count wrong", count=m.dart_count)
    faces = m.faces()
    _need(all(f.size == n for f in faces), "face sizes wrong")
    _need(len(faces) == m.dart_count // n, "face count wrong", count=len(faces))

    w = is_regular(m, budget=budget)
    _need(w is not None, "no regularity witness")
    base = bar_f_witness(n, 1)
    _need(base is not None and w.psi == base.psi, "witness is not the basic inverse-toric map")
    _need(t_balance(w, m.gens) is None, "map is balanced after all")
    first = _bt(0, 1, n, n)
    _need(w.pi_power_of(first) == n, "power at the long generator wrong", got=w.pi_power_of(first))
    small = _bt(1, 2, 3, n)
    _need(w.pi_power_of(small) == 1, "power at the short generator wrong", got=w.pi_power_of(small))
    for p in w.elements:
        budget.check()
        _need(
            w.pi_power_of(p) == lift(p.inverse())[1],
            "power function is not the first entry of the inverse",
            p=p,
        )
    _need(aut_order(m, w) == factorial(n + 1), "symmetry count wrong", order=aut_order(m, w))

    # The face at the identity along the long generator walks the cyclic
    # relation through all the short generators.
    gens_seq = [_cut(0, 1, n, n)] + [_cut(l, l + 1, l + 2, n) for l in range(n - 2, -1, -1)]
    d = Dart(identity(n), m.gens[0])
    tail = identity(n)
    for c in gens_seq:
        _need(d.tail == tail and d.gen == make_bt(c), "face walk differs", expected=c)
        tail = tail.compose(make_bt(c))
        d = m.rotation(m.reverse(d))
    _need(tail == identity(n), "face relation does not close")
    _need(d == Dart(identity(n), m.gens[0]), "face walk does not return")
    return {
        "valency": n + 1,
        "faces": len(faces),
        "aut_order": factorial(n + 1),
        "witness_order": w.order,
    }


@_claim("thm7.3", "a second regular unbalanced system at the critical valency", 2, 8, fixed_n=5)
def _run_thm73(n, budget):
    m = mprime_n5_map()
    _need(m.valency == 6, "valency wrong", valency=m.valency)
    _need(m.dart_count == 720, "dart count wrong", count=m.dart_count)
    w = is_regular(m, budget=budget)
    _need(w is not None, "no regularity witness")
    base = bar_f_witness(5, 5)
    _need(base is not None and w.psi == base.psi, "witness is not the mirrored inverse-toric map")
    _need(w.order == 6, "witness order wrong", order=w.order)
    _need(t_balance(w, m.gens) is None, "map is balanced after all")
    for p in w.elements:
        budget.check()
        _need(
            w.pi_power_of(p) == 6 - lift(p.inverse())[5],
            "power function is not the mirrored last entry",
            p=p,
        )
    _need(aut_order(m, w) == 720, "symmetry count wrong", order=aut_order(m, w))
    other = prop72_map(5)
    wo = is_regular(other, budget=budget)
    _need(wo is not None and aut_order(other, wo) == 720, "companion symmetry count wrong")
    return {"valency": 6, "aut_order": 720, "witness_order": 6}


@_claim("remark7", "the two critical connection sets give different graphs", 2, 8, fixed_n=5)
def _run_remark7(n, budget):
    g1 = build_cayley(5, prop72_map(5).gens)
    g2 = build_cayley(5, mprime_n5_map().gens)
    for g in (g1, g2):
        _need(g.num_vertices == 120, "vertex count wrong", count=g.num_vertices)
        _need(sorted(set(degree_profile(g))) == [6], "graph is not 6-regular")
    bijection = graphs_isomorphic(g1, g2, budget=budget)
    if bijection is not None:
        raise ClaimFailure(
            "an isomorphism exists after all",
            {"bijection": str(bijection[:12]) + "..."},
        )
    return {"vertices": 120, "degree": 6, "isomorphic": False}
