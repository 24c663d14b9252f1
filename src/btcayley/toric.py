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
are skew morphisms: a witness read off a regular Cayley map (maps.is_regular)
when one is, and a checked counterexample when one is not.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .blocktrans import CutPoints, make_bt
from .budget import NO_BUDGET
from .maps import CayleyMap, SkewMorphismWitness, is_regular
from .perms import (
    Permutation,
    _column,
    _lanes,
    _lift_columns,
    _marks,
    _restrict,
    _wrap,
    alpha_power,
    compose_maps,
    lift,
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
# Which maps bar_f_r are skew morphisms.


def _counterexample(n: int, r: int, psi) -> tuple[tuple[int, ...], ...] | None:
    """At x = rho, one y per exponent e on which the skew law of psi fails, or None.

    psi is a rank map over Sym_n (psi[i] is the rank of the image of the
    element of rank i in sym_group(n)), and 1 <= r <= n.  rho is the least
    element with rho_1 = r.  A skew morphism psi has, at every x, an
    exponent e in range(order of psi) with psi(x y) = psi(x) psi^e(y) for
    every y; any other exponent acts as its residue, since psi^e depends
    only on e mod the order.  The answer holds, for each e in turn, the
    image tuple of the first y in rank order with
    psi(rho y) != psi(rho) psi^e(y), both sides read off psi and the group
    product.  So no exponent works at rho, and psi is no skew morphism.
    None means that some e passed every y.
    """
    index = sym_index(n)
    rank = index.__getitem__
    images = list(index)
    # rho and psi(rho) as lifts [0 a]: compose_maps(a, y) is the image of a o y.
    rho = (0, r) + tuple(v for v in range(1, n + 1) if v != r)
    head = (0,) + images[psi[rank(rho[1:])]]
    powers = [tuple(range(len(psi)))]
    while (cur := tuple(map(psi.__getitem__, powers[-1]))) != powers[0]:
        powers.append(cur)
    found = []
    for power in powers:
        misses = (
            y
            for i, y in enumerate(images)
            if psi[rank(compose_maps(rho, y))] != rank(compose_maps(head, images[power[i]]))
        )
        y = next(misses, None)
        if y is None:
            return None
        found.append(y)
    return tuple(found)


@lru_cache(maxsize=32)
def bar_f_witness(n: int, r: int) -> SkewMorphismWitness | None:
    """Skew-morphism witness for bar_f_r on degree n, or None when it is none.

    psi ranks the images of the packed twin bar_f_images through sym_index.
    No step reads gcd(r, n+1), the rule that skew-toric checks.
      - psi is the identity table: the identity is a skew morphism of
        order 1 whose power function is 0.
      - The positive route.  X is the orbit of x_0 = s(0,1,n) under
        bar_f_r, in orbit order.  When X is inverse-closed, is_regular
        decides the Cayley map over X, whose rotation sends each x to
        bar_f_r(x).  Its witness is a skew morphism with its power function
        and order (see the proof in is_regular).  When that witness's psi
        is psi, it is the answer: the power function of a skew morphism is
        unique, since distinct powers of psi differ as maps.
      - The negative route.  _counterexample finds, at x = rho, a failing
        y for every exponent, so the answer is None.
      - If neither route decides, RuntimeError.

    Why one route always decides, for n <= 7.  At n <= 2 every bar_f_r
    is the identity map, so a psi that is not the identity table has
    n >= 3, and bar_f_r = bar_f_1^r.  By the closed form (bt_image_closed_form), bar_f_1
    moves x_0 through x_1 = s(0,n-1,n) = x_0^-1 and
    x_j = s(n-j, n-j+1, n-j+2) for 2 <= j <= n back to x_0: a cycle of
    n+1 distinct elements.  So X = {x_(jd)}, with d = gcd(r, n+1).
      - d = 1: X is the staircase of prop72_map, inverse-closed, and it
        generates Sym_n.  The product rule bar_f_r(rho pi) =
        bar_f_r(rho) bar_f_s(pi), s = (rho^-1)_r, with bar_f_s =
        bar_f_r^(s r') for r r' = 1 mod n+1, makes bar_f_r a skew morphism
        that agrees with the rotation on X.  Then the map is regular
        (Jajcay and Siran), and its witness, the vertex map of the one
        automorphism sending dart (iota, x_0) to (iota, x_1), is bar_f_r.
        Its power function is the power rule: at p it is r'(p^-1)_r mod
        n+1, which the claims of verify check on every witness.
      - d > 1: X misses x_1 = x_0^-1, so the positive route does not run.
        rho_1 = r puts r at position 1 of [0 rho], so the product rule
        reads bar_f_r(rho y) = bar_f_r(rho) bar_f_1(y).  At y = x_0,
        bar_f_1(x_0) = x_1, while psi^e(x_0) = x_(re mod n+1) is not x_1,
        since d divides re and n+1 but not 1.  So every exponent fails at
        some y.
    At n >= 8 the positive route stops at the degree cap of CayleyMap.
    """
    psi = tuple(map(sym_index(n).__getitem__, zip(*bar_f_images(n, r))))
    if psi == tuple(range(len(psi))):
        return SkewMorphismWitness(sym_group(n), psi, 1, (0,) * len(psi))
    orbit = [make_bt(CutPoints(0, 1, n, n))]
    while (x := bar_f(orbit[-1], r)) != orbit[0]:
        orbit.append(x)
    if {x.inverse() for x in orbit} == set(orbit):
        w = is_regular(CayleyMap(n, orbit))
        if w is not None and w.psi == psi:
            return w
    if _counterexample(n, r % (n + 1), psi) is not None:
        return None
    raise RuntimeError(f"neither route decides whether bar_f_{r} is a skew morphism at n={n}")
