"""Toric and reverse maps on the symmetric group, and skew-morphisms.

The toric map f_r shifts the extended one-line form cyclically:

    (f_r(p))_t = p_{r+t} - p_r   (indices and values mod n+1, p_0 = 0),

equivalently [0 f_r(p)] = alpha^{n+1-p_r} o [0 p] o alpha^r where alpha is
the rotation x -> x+1 of {0,...,n}.  The reverse map g conjugates by the
order-reversing involution w: (g(p))_t = n+1 - p_{n+1-t}.  The variant
bar_f_r(p) = (f_r(p^-1))^-1 together with g generates a dihedral group of
order 2(n+1) acting on the symmetric group; every element fixes the
identity permutation and maps block transpositions to block transpositions.

A skew morphism of the group is a permutation psi of its elements with
psi(1) = 1 and, at each x, an exponent e = pi(x) with
psi(x y) = psi(x) psi^e(y) for all y.  bar_f_witness decides which bar_f_r
are skew morphisms from the rank tables of the bar_f_s alone: once the
tables add and hold the product rule, bar_f_r is one exactly when bar_f_1
is one of its powers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from operator import getitem

from .blocktrans import CutPoints
from .budget import NO_BUDGET
from .maps import SkewMorphismWitness
from .perms import (
    Permutation,
    _column,
    _lanes,
    _lift_columns,
    _marks,
    _rank_columns,
    _restrict,
    _wrap,
    adjacent_transpositions,
    alpha_power,
    compose_maps,
    lift,
    reverse,
    sym_group,
    sym_index,
)
from . import perms


@lru_cache(maxsize=32)
def _differences(m: int) -> tuple[tuple[int, ...], ...]:
    """Row c maps v to (v - c) % m, for v and c in range(m)."""
    return tuple(tuple((v - c) % m for v in range(m)) for c in range(m))


@lru_cache(maxsize=32)
def _complements(m: int) -> bytes:
    """Translate table v -> m - v for v in range(m); other bytes go to 0."""
    return bytes(range(m, 0, -1)) + bytes(256 - m)


def toric_image(a: tuple[int, ...], r: int) -> tuple[int, ...]:
    """Kernel of toric_f on an image tuple: rotate [0 a] by r, subtract a_r."""
    m = len(a) + 1
    r %= m
    ext = (0,) + a
    minus = _differences(m)[ext[r]]
    return tuple([minus[v] for v in ext[r + 1 :] + ext[:r]])


def reverse_image(a: tuple[int, ...]) -> tuple[int, ...]:
    """Kernel of reverse_g on an image tuple: t -> n+1 - a_{n+1-t}."""
    m = len(a) + 1
    return tuple([m - v for v in reversed(a)])


def bar_f_image(a: tuple[int, ...], r: int) -> tuple[int, ...]:
    """Kernel of bar_f on an image tuple.

    With [0 a] the lift and s the position of r in it, bar_f_r(a) is [0 a]
    rotated by s minus r: the pointwise reading of the rotation form
    [0 bar_f_r(a)] = alpha^{n+1-r} o [0 a] o alpha^s.
    """
    m = len(a) + 1
    r %= m
    ext = (0,) + a
    s = ext.index(r)
    minus = _differences(m)[r]
    return tuple([minus[v] for v in ext[s + 1 :] + ext[:s]])


def toric_images(n: int, r: int) -> tuple[bytes, ...]:
    """Packed twin of toric_image over Sym_n: column t-1 holds entry t of f_r of every image.

    The images come in sym_index order.  Entry t of f_r(a) is
    ([0 a]((t + r) % m) - a_r) mod m.  One translate turns lift column r
    into the lanes m - a_r, which are added to lift column (t + r) % m as
    one integer (perms._lanes): every lane sum stays below 2m <= 256, so no
    carry crosses lanes, and one translate takes each lane mod m.  No
    kernel is called per element.
    """
    points = _lift_columns(n)
    m = n + 1
    r %= m
    size = len(points[0])
    back = _lanes(points[r].translate(_complements(m)))
    mod = bytes(v % m for v in range(2 * m)) + bytes(256 - 2 * m)
    return tuple(
        _column(_lanes(points[(t + r) % m]) + back, size).translate(mod)
        for t in range(1, m)
    )


def bar_f_images(n: int, r: int) -> tuple[bytes, ...]:
    """Packed twin of bar_f_image over Sym_n: column t-1 holds entry t of bar_f_r of every image.

    The images come in sym_index order.  Entry t of bar_f_r(a) is
    ([0 a]((s + t) % m) - r) mod m, with s the position of r in [0 a].
    Subtracting r from a whole lift column is one translate.  The elements
    with one s are those whose lift column s holds r, and a translate of
    that column through perms._marks(r) masks their lanes (perms._lanes).
    So column t is the OR over s of mask s AND subtracted column
    (s + t) % m, whole columns at a time, and no kernel is called per
    element.
    """
    points = _lift_columns(n)
    m = n + 1
    r %= m
    size = len(points[0])
    minus = bytes(_differences(m)[r]) + bytes(256 - m)
    shifted = [_lanes(col.translate(minus)) for col in points]
    masks = [_lanes(col.translate(_marks(r))) for col in points]
    columns = []
    for t in range(1, m):
        lanes = 0
        for s, mask in enumerate(masks):
            if mask:
                lanes |= mask & shifted[(s + t) % m]
        columns.append(_column(lanes, size))
    return tuple(columns)


def reverse_images(n: int) -> tuple[bytes, ...]:
    """Packed twin of reverse_image over Sym_n: column t-1 holds entry t of g of every image.

    The images come in sym_index order.  Entry t of g(a) is m - a_{m-t},
    so column t is lift column m - t translated by v -> m - v.
    """
    points = _lift_columns(n)
    m = n + 1
    return tuple(points[m - t].translate(_complements(m)) for t in range(1, m))


def toric_f(p: Permutation, r: int) -> Permutation:
    """Toric shift of p by r, computed pointwise."""
    return _wrap(toric_image(p.image, r))


def reverse_g(p: Permutation) -> Permutation:
    """Reverse map, computed pointwise: (g(p))_t = n+1 - p_{n+1-t}."""
    return _wrap(reverse_image(p.image))


def reverse_g_conj(p: Permutation) -> Permutation:
    """Reverse map, computed by conjugating the lift with [0 w]."""
    lw = lift(reverse(p.n))
    return _restrict(compose_maps(compose_maps(lw, lift(p)), lw))


def bar_f(p: Permutation, r: int) -> Permutation:
    """Inverse-conjugated toric shift: bar_f_r(p) = (f_r(p^-1))^-1, pointwise."""
    return _wrap(bar_f_image(p.image, r))


def bt_image_closed_form(c: CutPoints, which: str) -> CutPoints:
    """Cut points of the image of s(i,j,k) under f, bar_f, or g.

    f:     (i-1, j-1, k-1) if i > 0, else (k-j-1, n-j, n)
    bar_f: (i-1, j-1, k-1) if i > 0, else (j-1, k-1, n)
    g:     (n-k, n-j, n-i)
    """
    i, j, k, n = c.i, c.j, c.k, c.n
    if which == "f":
        return CutPoints(i - 1, j - 1, k - 1, n) if i > 0 else CutPoints(k - j - 1, n - j, n, n)
    if which == "bar_f":
        return CutPoints(i - 1, j - 1, k - 1, n) if i > 0 else CutPoints(j - 1, k - 1, n, n)
    if which == "g":
        return CutPoints(n - k, n - j, n - i, n)
    raise ValueError(f"unknown map {which!r}; expected 'f', 'bar_f', or 'g'")


def toric_class(p: Permutation) -> frozenset[Permutation]:
    """Orbit of p under all toric shifts f_0, ..., f_n."""
    return frozenset(toric_f(p, r) for r in range(p.n + 1))


def toric_class_stats(n: int, budget=NO_BUDGET) -> tuple[int, int, dict[int, int]]:
    """(classes, singleton classes, size histogram) of the toric classes of Sym_n.

    The f_r form a cyclic group of order m = n+1 acting on Sym_n (f_0 = id
    and f_s o f_r = f_(r+s), eq9).  So the shifts that fix p are the
    multiples of the least such r > 0, and the class of p has r elements
    (orbit-stabilizer).  For r = 1..m in turn, the lanes of the elements
    that f_r fixes are marked: the OR over t of the _lanes of column t of
    toric_images(n, r) XOR lift column t is 0 exactly there, and a
    translate through perms._marks(0) masks them.  An element first marked
    at r lies in a class of r elements, and r of them make one class; at
    r = m the twin is f_0, which marks every element left.  The budget is
    read once per shift, and no kernel is called per element.
    """
    points = _lift_columns(n)
    size = len(points[0])
    histogram: dict[int, int] = {}
    seen = 0
    for r in range(1, n + 2):
        budget.check()
        moved = 0
        for image, point in zip(toric_images(n, r), points[1:]):
            moved |= _lanes(image) ^ _lanes(point)
        fixed = _lanes(_column(moved, size).translate(_marks(0)))
        if first := fixed & ~seen:
            histogram[r] = first.bit_count() // 8 // r
            seen |= fixed
    return sum(histogram.values()), histogram.get(1, 0), histogram


def euler_phi(m: int) -> int:
    from math import gcd

    return sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)


# ---------------------------------------------------------------------------
# The dihedral group generated by bar_f and g.


@dataclass(frozen=True)
class DihedralElement:
    """Normal form bar_f_r o g^refl of an element of the group <bar_f, g>.

    The group has order 2(n+1) with relations bar_f^(n+1) = id, g^2 = id,
    and g o bar_f_r o g = bar_f_{n+1-r}.
    """

    r: int
    refl: int
    n: int

    def __post_init__(self):
        if not 0 <= self.r <= self.n:
            raise ValueError(f"rotation exponent {self.r} outside 0..{self.n}")
        if self.refl not in (0, 1):
            raise ValueError(f"reflection bit must be 0 or 1, got {self.refl}")

    def __str__(self) -> str:
        return f"t^{self.r}*g" if self.refl else f"t^{self.r}"


def dihedral_elements(n: int) -> list[DihedralElement]:
    """All 2(n+1) elements, rotations first."""
    return [DihedralElement(r, s, n) for s in (0, 1) for r in range(n + 1)]


def dihedral_compose(a: DihedralElement, b: DihedralElement) -> DihedralElement:
    """Normal form of a o b (apply b first)."""
    if a.n != b.n:
        raise ValueError(f"degree mismatch: {a.n} vs {b.n}")
    m = a.n + 1
    if a.refl == 0:
        return DihedralElement((a.r + b.r) % m, b.refl, a.n)
    # g absorbs the rotation on its right: g o bar_f_r = bar_f_{-r} o g
    return DihedralElement((a.r - b.r) % m, 1 - b.refl, a.n)


def dihedral_image(d: DihedralElement, a: tuple[int, ...]) -> tuple[int, ...]:
    """Kernel of apply_dihedral on an image tuple of degree d.n."""
    return bar_f_image(reverse_image(a) if d.refl else a, d.r)


def apply_dihedral(d: DihedralElement, p: Permutation) -> Permutation:
    """Apply the map bar_f_r o g^refl to p (g first when refl is set)."""
    if d.n != p.n:
        raise ValueError(f"degree mismatch: {d.n} vs {p.n}")
    return _wrap(dihedral_image(d, p.image))


# ---------------------------------------------------------------------------
# The product rule mixing left translations with bar_f, and its image in the
# extended symmetric group.


def compose_lh_barf(
    h: Permutation, r: int, k: Permutation, u: int
) -> tuple[Permutation, int]:
    """Normal form of (L_h o bar_f_r) o (L_k o bar_f_u).

    Equals L_d o bar_f_e with d = h o bar_f_r(k) and e = u + (k^-1)_r,
    where (k^-1)_r is the position of r in the lift [0 k].
    """
    if h.n != k.n:
        raise ValueError(f"degree mismatch: {h.n} vs {k.n}")
    m = h.n + 1
    e = (u + lift(k).index(r % m)) % m
    return _wrap(compose_maps(lift(h), bar_f_image(k.image, r))), e


def phi_iso(h: Permutation, r: int) -> tuple[int, ...]:
    """Image [0 h] o alpha^{n+1-r} of L_h o bar_f_r in the extended group.

    This assignment is an isomorphism onto the symmetric group of the
    extended point set {0, ..., n}.
    """
    n = h.n
    m = n + 1
    return compose_maps(lift(h), alpha_power(n, m - r % m))


# ---------------------------------------------------------------------------
# The one provider of the rank tables of the twins and of the faults of the
# B tables, a fault being a (message, context) pair on which a claim fails;
# and which maps bar_f_r are skew morphisms, from the B tables alone.

_tables: dict[tuple, tuple[int, ...]] = {}  # keyed on (n, twin, r)
_faults: dict[tuple, tuple[str, dict] | None] = {}  # keyed on (check, n, twin, inversion twin)


def rank_table(n: int, budget, twin, r=None):
    """(table, None), table[i] the rank of the image of the element of rank
    i, or (None, fault) when an image is no permutation ("kernel image is
    not a permutation", naming the lowest-rank such element as p, and r).

    twin is a packed twin, called as twin(n) (invert_images,
    reverse_images) or twin(n, r) (toric_images, bar_f_images); zip reads
    its columns back as one image per element, ranked through sym_index.
    The tables are kept, keyed on the twin object, until clear_cache()
    runs; a table holds n! ranks, about 0.3 MB at n = 8.  The budget is
    read on every call, before any build, and a failed table is not kept.
    """
    budget.check()
    key = (n, twin, r)
    if (table := _tables.get(key)) is not None:
        return table, None
    idx = sym_index(n)
    table = tuple(map(idx.get, zip(*(twin(n) if r is None else twin(n, r)))))
    if None in table:
        context = {"p": _wrap(list(idx)[table.index(None)])} | ({} if r is None else {"r": r})
        return None, ("kernel image is not a permutation", context)
    _tables[key] = table
    return table, None


def _miss(lhs: tuple[int, ...], rhs: tuple[int, ...]) -> int | None:
    """The first index at which two tables (or byte columns) differ, or None."""
    if lhs != rhs:
        return next(i for i, (u, v) in enumerate(zip(lhs, rhs)) if u != v)
    return None


def product_rule_fault(n: int, bar, budget=NO_BUDGET) -> tuple[str, dict] | None:
    """The first fault ("product rule violated", naming rho, t as pi, and r)
    of bar_f_r(rho o pi) = bar_f_r(rho) o bar_f_s(pi), or None when it holds
    for every pair (rho, pi) of Sym_n and every r, with s = s(rho, r) the
    position of r in [0 rho].  bar[r] is the rank table B[r]; the rule is
    checked on the adjacent transpositions t, sweeping r, then t, then rho
    by rank.

    For each r and t one comparison covers every rho: entry rho of B[r] o
    col_t is the rank of bar_f_r(rho o t), and entry B[r][rho] of the column
    of y = bar_f_s(t) the rank of bar_f_r(rho) o y.  s is entry r of
    [0 rho^-1] (column r-1 of perms.invert_images, 0 at r = 0); the y are read
    off B[s], and perms._rank_columns memoises their columns.  This covers
    every pi, by induction on its length as a word in the t:
    - Length 0: at rho = iota, s = r, the check reads bar_f_r(t) =
      bar_f_r(iota) o bar_f_r(t), so bar_f_r(iota) = iota.
    - pi = pi' o t: with s = s(rho, r) and s' = s(rho o pi', r) = s(pi', s),
      a cocycle that holds as [0 rho o pi'] = [0 rho] o [0 pi'],
          bar_f_r(rho o pi) = bar_f_r(rho o pi') o bar_f_s'(t)         (at rho o pi')
                            = bar_f_r(rho) o bar_f_s(pi') o bar_f_s'(t)  (induction)
                            = bar_f_r(rho) o bar_f_s(pi)               (at pi', shift s).
    """
    idx = sym_index(n)
    images = list(idx)
    adjacent = adjacent_transpositions(n)
    ys = [images[b[idx[t]]] for b in bar for t in adjacent]
    columns = _rank_columns(n, adjacent + ys)
    spots = (bytes(len(images)),) + perms.invert_images(n)  # spots[r][i]: s(rho, r), rho of rank i
    for r, b in enumerate(bar):
        budget.check()
        for j, t in enumerate(adjacent):
            barred = columns[n - 1 + j :: n - 1]  # the column of bar_f_s(t), for each s
            lhs = compose_maps(b, columns[j])
            rank = _miss(lhs, tuple(map(getitem, map(barred.__getitem__, spots[r]), b)))
            if rank is not None:
                return "product rule violated", {"rho": _wrap(images[rank]), "pi": _wrap(t), "r": r}
    return None


def additivity_fault(n: int, bar, budget=NO_BUDGET) -> tuple[str, dict] | None:
    """The first fault ("inverse-toric shifts do not add", naming p, and s as
    r) of B[0] = id and B[s] = B[1] o B[s-1] for s = 1..n+1, read mod n+1,
    or None.  So B[s] = B[1]^s, and the wrap-around step makes each a
    bijection (tables with B[r] = iota for every r >= 1 pass the others)."""
    m = n + 1
    images = list(sym_index(n))
    for s in range(m + 1):
        budget.check()
        want = compose_maps(bar[1], bar[s - 1]) if s else tuple(range(len(images)))
        if (rank := _miss(bar[s % m], want)) is not None:
            return "inverse-toric shifts do not add", {"p": _wrap(images[rank]), "r": s % m}
    return None


def bar_tables(n: int, budget, *checks: str):
    """(B, fault): the rank tables B[r] of bar_f_images(n, r), r = 0..n, and
    the first fault of a table (B is then None), or else of each check
    named, in the order given: "additivity" (additivity_fault) or "product
    rule" (product_rule_fault).

    bar_f_images is read when this runs, so every reader of the B tables
    takes the twin of that one name.  Each check runs once per degree and
    twin, and per perms.invert_images, which the product rule reads; its
    fault, or None, is kept until clear_cache() runs, and a check the
    budget interrupted keeps nothing.
    """
    twin = bar_f_images
    bar = []
    for r in range(n + 1):
        table, fault = rank_table(n, budget, twin, r)
        if fault:
            return None, fault
        bar.append(table)
    for check in checks:
        key = (check, n, twin, perms.invert_images)
        if key not in _faults:
            run = {"additivity": additivity_fault, "product rule": product_rule_fault}[check]
            _faults[key] = run(n, bar, budget)
        if _faults[key]:
            return bar, _faults[key]
    return bar, None


def clear_cache():
    """Forget the rank tables, the faults of the B tables and the witnesses."""
    _tables.clear()
    _faults.clear()
    bar_f_witness.cache_clear()


@lru_cache(maxsize=32)
def bar_f_witness(n: int, r: int) -> SkewMorphismWitness | None:
    """Skew-morphism witness for bar_f_r on degree n, or None when it is none.

    psi = B[r], read off bar_tables with the faults of the tables.  No step
    reads gcd(r, n+1), the rule that skew-toric checks.
      - psi = id: the identity is a skew morphism of order 1 and power 0.
      - Otherwise a fault of the tables raises RuntimeError.  So B[s] =
        B[1]^s, and psi, a power of B[1], is a bijection with r != 0.
      - B[1] = psi^e: then B[s] = psi^(e s), and the product rule reads
        psi(rho pi) = psi(rho) psi^(e s)(pi), s = (rho^-1)_r.  So psi is a
        skew morphism whose power function is e (p^-1)_r mod its order,
        unique since distinct powers of psi differ as maps.
      - Otherwise None: take rho with rho_1 = r, so s = 1.  A skew law
        psi(rho pi) = psi(rho) psi^e(pi) at rho would force bar_f_1 = psi^e.
    """
    r %= n + 1
    psi, _ = rank_table(n, NO_BUDGET, bar_f_images, r)
    bar, fault = bar_tables(n, NO_BUDGET, "additivity", "product rule")
    powers = [tuple(range(factorial(n)))]
    if psi == powers[0]:
        return SkewMorphismWitness(sym_group(n), psi, 1, (0,) * len(psi))
    if fault:
        named = ", ".join(f"{k}={v}" for k, v in fault[1].items())
        raise RuntimeError(f"the bar_f tables at n={n} fail: {fault[0]} at {named}")
    while (power := compose_maps(psi, powers[-1])) != powers[0]:
        powers.append(power)
    if bar[1] not in powers:
        return None
    e, order = powers.index(bar[1]), len(powers)
    pi_power = tuple(e * s % order for s in perms.invert_images(n)[r - 1])
    return SkewMorphismWitness(sym_group(n), psi, order, pi_power)
