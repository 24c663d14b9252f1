"""Toric and reverse maps on the symmetric group, and skew-morphisms.

The toric map f_r shifts the extended one-line form cyclically:

    (f_r(p))_t = p_{r+t} - p_r   (indices and values mod n+1, p_0 = 0),

equivalently [0 f_r(p)] = alpha^{n+1-p_r} o [0 p] o alpha^r where alpha is
the rotation x -> x+1 of {0,...,n}.  The reverse map g conjugates by the
order-reversing involution w: (g(p))_t = n+1 - p_{n+1-t}.  The variant
bar_f_r(p) = (f_r(p^-1))^-1 together with g generates a dihedral group of
order 2(n+1) acting on the symmetric group; every element fixes the
identity permutation and maps block transpositions to block transpositions.

check_skew decides whether a permutation of the elements of the symmetric
group is a skew-morphism: psi(1) = 1 and for all x, y there is a single exponent
e = pi(x) with psi(x y) = psi(x) psi^e(y).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, repeat
from operator import itemgetter

from .blocktrans import CutPoints
from .budget import NO_BUDGET
from .perms import (
    Permutation,
    _column,
    _lanes,
    _lift_columns,
    _marks,
    _restrict,
    _wrap,
    adjacent_transpositions,
    alpha_power,
    compose_images,
    compose_maps,
    cycles,
    lift,
    plain_changes,
    reverse,
    sym_group,
    sym_index,
)


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
    """(classes, singleton classes, size histogram); reads the budget once per class."""
    seen: set[tuple[int, ...]] = set()
    classes = singletons = 0
    histogram: dict[int, int] = {}
    for p in sym_group(n):
        img = p.image
        if img in seen:
            continue
        budget.check()
        orbit = {toric_image(img, r) for r in range(n + 1)}
        seen |= orbit
        classes += 1
        size = len(orbit)
        histogram[size] = histogram.get(size, 0) + 1
        if size == 1:
            singletons += 1
    return classes, singletons, histogram


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
    return _wrap(compose_images(h.image, bar_f_image(k.image, r))), e


def phi_iso(h: Permutation, r: int) -> tuple[int, ...]:
    """Image [0 h] o alpha^{n+1-r} of L_h o bar_f_r in the extended group.

    This assignment is an isomorphism onto the symmetric group of the
    extended point set {0, ..., n}.
    """
    n = h.n
    m = n + 1
    return compose_maps(lift(h), alpha_power(n, m - r % m))


# ---------------------------------------------------------------------------
# Skew-morphism checking over an explicit element table.


@dataclass(frozen=True)
class SkewMorphismWitness:
    """A verified skew-morphism over an element table.

    psi maps element indices to element indices, order is its order as a
    permutation of the table, and pi_power[i] is the exponent attached to
    elements[i] in psi(x y) = psi(x) psi^pi(x)(y).
    """

    elements: tuple[Permutation, ...]
    psi: tuple[int, ...]
    order: int
    pi_power: tuple[int, ...]

    def index_of(self, p: Permutation) -> int:
        return sym_index(self.elements[0].n)[p.image]

    def apply(self, p: Permutation) -> Permutation:
        return self.elements[self.psi[self.index_of(p)]]

    def pi_power_of(self, p: Permutation) -> int:
        return self.pi_power[self.index_of(p)]


def check_skew(n: int, psi) -> SkewMorphismWitness | None:
    """Decide whether psi (a rank map over Sym_n) is a skew-morphism.

    psi[i] is the rank of the image of the element of rank i in sym_group(n),
    whose lexicographic order puts the identity at rank 0.  A psi that is no
    bijection of the ranks raises ValueError.  Returns a witness carrying
    the power function, or None.

    The walk.  x runs through Sym_n along plain changes (perms.plain_changes):
    each step is x -> x o s with s an adjacent transposition.  Two
    left-multiplication rows are kept, row[z][y] = rank(z o y) for z = x and
    z = psi(x).  x passes with exponent e when psi(row[x][y]) equals
    row[psi(x)][psi^e(y)] for every y, and then pi(x) = e.  A step applies
    one table composition to each row, with L_t[y] = rank(t o y):

        row[x o s]      = row[x] o L_s,
        row[psi(x o s)] = row[psi(x)] o L_{psi^e(s)},   e = pi(x).

    The first is associativity.  The second holds because
    psi(x o s) = psi(x) o psi^e(s) is the y = s entry of the check that x
    has just passed.  The walk starts at x = iota with both rows the
    identity (psi(iota) = iota is checked first), so by induction every row
    is exact, and an element that fails its check ends the walk before its
    rows are used.  The guard row[psi(x)][iota] == psi[x] re-reads this at
    every step.  L tables are built lazily, one per distinct psi^e(s): at
    most (n-1)(order+1) of them.  The n! x n! product table is never held.

    A tie between two distinct exponents cannot happen (distinct powers of
    psi differ as maps); it is guarded as an internal error all the same.
    """
    elements = sym_group(n)
    psi = tuple(psi)
    g = len(elements)
    if sorted(psi) != list(range(g)):
        raise ValueError("psi is not a bijection of the element table")
    if psi[0] != 0:
        return None
    if g == 1:
        return SkewMorphismWitness(elements, psi, 1, (0,))

    # Powers of psi; the loop closes exactly at the order.  power_of[e]
    # composes a rank row with psi^e at C level.
    powers = [tuple(range(g))]
    cur = psi
    while cur != powers[0]:
        powers.append(cur)
        cur = itemgetter(*cur)(psi)
    order = len(powers)
    power_of = [itemgetter(*pw) for pw in powers]

    # Probe point on a longest cycle of psi, to cut the exponent candidates:
    # the least point of the first longest cycle.
    best_probe = max(cycles(psi), key=len)[0]

    index = sym_index(n)
    rank = index.__getitem__
    left: dict[int, itemgetter] = {}

    def times_left(t: int) -> itemgetter:
        # Composes a rank row with L_t: the ranks of t o y, y in rank order.
        get = left.get(t)
        if get is None:
            ext = (0,) + elements[t].image
            images = map(tuple, map(map, repeat(ext.__getitem__), index))
            get = left[t] = itemgetter(*map(rank, images))
        return get

    adjacent = list(map(rank, adjacent_transpositions(n)))
    pi_power = [0] * g
    row_x = row_px = powers[0]
    for i in chain(plain_changes(n), [None]):
        ix = row_x[0]
        if row_px[0] != psi[ix]:
            raise RuntimeError(f"row of psi(x) lost track at {elements[ix]}")
        lhs = itemgetter(*row_x)(psi)
        probe = lhs[best_probe]
        valid = [
            e
            for e in range(order)
            if row_px[powers[e][best_probe]] == probe and power_of[e](row_px) == lhs
        ]
        if not valid:
            return None
        if len(valid) > 1:
            raise RuntimeError(f"ambiguous exponent for element {elements[ix]}")
        e = pi_power[ix] = valid[0]
        if i is not None:
            s = adjacent[i]
            row_x = times_left(s)(row_x)
            row_px = times_left(powers[e][s])(row_px)

    return SkewMorphismWitness(elements, psi, order, tuple(pi_power))


@lru_cache(maxsize=32)
def bar_f_witness(n: int, r: int) -> SkewMorphismWitness | None:
    """Skew-morphism witness for bar_f_r on degree n, when it is one.

    psi ranks the images of the packed twin bar_f_images through sym_index.
    """
    return check_skew(n, tuple(map(sym_index(n).__getitem__, zip(*bar_f_images(n, r)))))
