"""Toric and reverse maps on the symmetric group, and skew-morphisms.

The toric map f_r shifts the extended one-line form cyclically:

    (f_r(p))_t = p_{r+t} - p_r   (indices and values mod n+1, p_0 = 0),

equivalently [0 f_r(p)] = alpha^{n+1-p_r} o [0 p] o alpha^r where alpha is
the rotation x -> x+1 of {0,...,n}.  The reverse map g conjugates by the
order-reversing involution w: (g(p))_t = n+1 - p_{n+1-t}.  The variant
bar_f_r(p) = (f_r(p^-1))^-1 together with g generates a dihedral group of
order 2(n+1) acting on the symmetric group; every element fixes the
identity permutation and maps block transpositions to block transpositions.
toric_form, bar_tables and reverse_form check the packed twins of f, bar_f
and g against their conjugation forms on all of Sym_n, once per degree.

A skew morphism of the group is a permutation psi of its elements with
psi(1) = 1 and, at each x, an exponent e = pi(x) with
psi(x y) = psi(x) psi^e(y) for all y.  bar_f_witness decides which bar_f_r
are skew morphisms from the rank tables of the bar_f_s alone: once their
twin holds its rotation form (bar_tables), the tables add and hold the
product rule, and bar_f_r is one exactly when bar_f_1 is one of its powers.
"""

from __future__ import annotations

from functools import lru_cache, partial, wraps
from itertools import zip_longest
from math import factorial

from .blocktrans import CutPoints
from .budget import NO_BUDGET, ClaimFailure
from .maps import SkewMorphismWitness
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
from .record import Record
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


class DihedralElement(Record):
    """Normal form bar_f_r o g^refl of an element of the group <bar_f, g>.

    The group has order 2(n+1) with relations bar_f^(n+1) = id, g^2 = id,
    and g o bar_f_r o g = bar_f_{n+1-r}.
    """

    __slots__ = ("r", "refl", "n")

    def __init__(self, r: int, refl: int, n: int):
        self._fill(r, refl, n)
        self.__post_init__()

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
# The one provider of the rank tables of the twins and of the checks of the
# toric, B and reversal twins against their conjugation forms, each raising
# ClaimFailure at its first counterexample; and which maps bar_f_r are skew
# morphisms, from the B tables alone.

_tables: dict[tuple, tuple[int, ...]] = {}  # keyed on (n, twin, r)
_held: set[tuple] = set()  # (n, twin, ...) of each twin whose conjugation form held


def rank_table(n: int, budget, twin, r=None) -> tuple[int, ...]:
    """table[i], the rank of the image of the element of rank i.

    twin is a packed twin, called as twin(n) (reverse_images) or twin(n, r)
    (bar_f_images); zip reads its columns back as one image per element,
    ranked through sym_index.  The tables are kept, keyed on the twin
    object, until clear_cache() runs; a table holds n! ranks, about 0.3 MB
    at n = 8.  The budget is read on every call, before any build, and a
    failed table (_ranks) is not kept.
    """
    budget.check()
    key = (n, twin, r)
    if (table := _tables.get(key)) is None:
        table = _ranks(twin(n) if r is None else twin(n, r), key)
    return table


def _ranks(columns, key) -> tuple[int, ...]:
    """The rank table of a packed twin's columns, kept in _tables under key
    (n, twin, r); ClaimFailure ("kernel image is not a permutation", naming
    the lowest-rank such element as p, and r) when an image is none."""
    n, _, r = key
    idx = sym_index(n)
    table = tuple(map(idx.get, zip(*columns)))
    if None in table:
        context = {"p": _wrap(list(idx)[table.index(None)])} | ({} if r is None else {"r": r})
        raise ClaimFailure("kernel image is not a permutation", **context)
    _tables[key] = table
    return table


def _miss(lhs, rhs) -> int | None:
    """The first index at which two tables (or byte columns) differ, or None;
    where one is a prefix of the other, the length of the shorter."""
    if lhs != rhs:
        pairs = enumerate(zip(lhs, rhs))
        return next((i for i, (u, v) in pairs if u != v), min(len(lhs), len(rhs)))
    return None


def _rotation_route(points, left, right):
    """Columns of the routes alpha^c o [0 p] o alpha^s, by rank, as bytes.

    points are the perms._lift_columns of degree n, so points[x][i] is
    entry x of [0 p] for the p of rank i, and c = left[i] and s = right[i]
    are the two shifts of that p, in range(m).  Entry x of [0 p] o alpha^s
    is [0 p]((x + s) % m): a mask of the elements with one s (perms._marks
    of right) keeps their lanes of lift column (x + s) % m (perms._lanes),
    and the OR over s joins them.  The left factor alpha^c acts on a whole
    column as one translate, and a mask of the elements with one c keeps
    their lanes of it.  The rotations come from alpha_power, so a route
    shares no arithmetic with the twin it is checked against.
    """
    m = len(points)
    size = len(left)
    lanes = [_lanes(col) for col in points]
    rights = [(s, mask) for s in range(m) if (mask := _lanes(right.translate(_marks(s))))]
    lefts = [
        (bytes(alpha_power(m - 1, c)) + bytes(256 - m), mask)
        for c in range(m)
        if (mask := _lanes(left.translate(_marks(c))))
    ]
    for x in range(m):
        column = 0
        for s, mask in rights:
            column |= mask & lanes[(x + s) % m]
        column = _column(column, size)
        routed = 0
        for rotation, mask in lefts:
            routed |= mask & _lanes(column.translate(rotation))
        yield _column(routed, size)


def _check_route(columns, twin, images, **context) -> None:
    """Raise ClaimFailure ("defining forms disagree", naming p and the
    context) at the first element, by rank, whose routed map is not its
    twin image.

    columns yields column x = 0..n of the routed maps of every element, as
    bytes (see _rotation_route), and twin holds the packed twin's columns:
    entry t of every image is twin[t - 1].  Column 0 of a lift is all
    zeros, so a routed map that does not fix 0 misses there.  Columns are
    compared as bytes, and only a column that differs is read entry by
    entry, for its first fault; a twin with a column too many or too few
    misses at the first element.  context (the shift r) names the fault
    beyond p.
    """
    size = len(images)
    first = size
    for col, want in zip_longest(columns, (bytes(size),) + tuple(twin), fillvalue=b""):
        if (i := _miss(col, want)) is not None:
            first = min(first, i)
    if first < size:
        raise ClaimFailure("defining forms disagree", p=_wrap(images[first]), **context)


def _check_shift_form(n: int, shifted, shifts, budget) -> None:
    """Raise at the first fault of a shift twin against the form
    [0 T_r(p)] = alpha^c o [0 p] o alpha^s, sweeping r = 0..n, then p by
    rank (_rotation_route, _check_route).

    shifted(r) gives the twin's columns at r, and shifts[r] the bytes
    columns (c, s) of the two shifts of every element, by rank.  The
    budget is read once per shift, before its build.
    """
    images = list(sym_index(n))
    points = _lift_columns(n)
    for r, (left, right) in enumerate(shifts):
        budget.check()
        _check_route(_rotation_route(points, left, right), shifted(r), images, r=r)


def toric_form(n: int, budget) -> None:
    """Check toric_images against the form [0 f_r(p)] = alpha^(m-p_r) o
    [0 p] o alpha^r, m = n+1, for every p and r (_check_shift_form): its
    left shift is read off lift column r.  This one check is all the toric
    identities read: eq9, eq13 and gfg (verify) derive them from it.

    The twin is read when this runs, and that it held is kept per degree
    and twin object until clear_cache() runs; a check that failed or that
    the budget stopped keeps nothing.  The budget is read on every call,
    then once per shift of a check.
    """
    budget.check()
    twin = toric_images
    key = (n, twin)
    if key in _held:
        return
    points = _lift_columns(n)
    size = len(points[0])
    negate = bytes(-v % (n + 1) for v in range(n + 1)) + bytes(255 - n)
    shifts = [(points[r].translate(negate), bytes((r,)) * size) for r in range(n + 1)]
    _check_shift_form(n, partial(twin, n), shifts, budget)
    _held.add(key)


def reverse_form(n: int, budget) -> None:
    """Check reverse_images against the form [0 g(p)] = W o [0 p] o W for
    every p, W = [0 w] = lift(reverse(n)), the reflection k -> -k mod n+1:
    entry x of the route is W([0 p](W(x))), so its column x is lift column
    W(x) translated through W (_check_route, naming p).  eq12, gfg and eq16
    (verify) derive their identities from it.

    Kept as toric_form keeps its check; the budget is read on every call.
    """
    budget.check()
    twin = reverse_images
    key = (n, twin)
    if key in _held:
        return
    points = _lift_columns(n)
    w = lift(reverse(n))
    flip = bytes(w) + bytes(256 - len(w))
    _check_route((points[x].translate(flip) for x in w), twin(n), list(sym_index(n)))
    _held.add(key)


def reverse_table(n: int, budget) -> tuple[int, ...]:
    """The rank table R of reverse_images, once the twin holds its form
    (reverse_form): so g is a bijection, and R has no image that is no
    permutation.  The budget is read on every call."""
    reverse_form(n, budget)
    return rank_table(n, budget, reverse_images)


def bar_tables(n: int, budget) -> list[tuple[int, ...]]:
    """The rank tables B[r] of bar_f_images(n, r), r = 0..n, once the twin
    holds its rotation form [0 bar_f_r(p)] = alpha^(m-r) o [0 p] o
    alpha^s, s = (p^-1)_r, m = n+1; else ClaimFailure at the first table
    that is no rank table (see _ranks), or else at the first fault of that
    form (_check_shift_form).

    That one check is all Section 4 reads: the product rule
    bar_f_r(rho o pi) = bar_f_r(rho) o bar_f_s(pi), s = (rho^-1)_r, and
    additivity, B[0] = id and B[s] = B[1]^s with B[1]^(n+1) = id, so that
    every B[r] is a bijection, each follow from the form in three lines,
    proved in the runners of the claims lemma4.3 and prop4.4 (verify).

    The left shift m-r is one for every p, and s is read for every p at
    once from column r-1 of perms.invert_images (0 at r = 0).  The route's
    column 0 holds [0 p](s) - r: so where the check passes, s is the
    position of r in [0 p] whatever the inversion twin gives.

    bar_f_images is read when this runs, so every reader of the B tables
    takes the twin of that one name.  The check runs on the columns the
    tables are ranked from, so each shift is built once, and once per
    degree, twin and perms.invert_images, which it reads: that it held is
    kept until clear_cache() runs, and a check that failed or that the
    budget interrupted keeps nothing.  The budget is read once per shift,
    before any build.
    """
    twin = bar_f_images
    key = (n, twin, perms.invert_images)
    if key in _held:
        return [rank_table(n, budget, twin, r) for r in range(n + 1)]
    shifted, bar = [], []
    for r in range(n + 1):
        budget.check()
        shifted.append(columns := twin(n, r))
        bar.append(_ranks(columns, (n, twin, r)))
    size = len(bar[0])
    spots = (bytes(size),) + perms.invert_images(n)  # spots[r][i]: (p^-1)_r, p of rank i
    shifts = [(bytes((-r % (n + 1),)) * size, spot) for r, spot in enumerate(spots)]
    _check_shift_form(n, shifted.__getitem__, shifts, budget)
    _held.add(key)
    return bar


def clear_cache():
    """Forget the rank tables, the conjugation forms that held and the witnesses."""
    _tables.clear()
    _held.clear()
    bar_f_witness.cache_clear()


def _cached_per_twin(derive):
    """derive(n, r), cached per (n, r mod n+1, bar_f_images,
    perms.invert_images), the twins _held is keyed on: they are read on each
    call, so one planted after a warm call gets a fresh derivation.  Like
    functools.lru_cache (32 entries), the wrapper has cache_info and
    cache_clear, and __wrapped__ is derive, uncached."""
    cached = lru_cache(maxsize=32)(lambda n, r, twin, inversion: derive(n, r))

    @wraps(derive)
    def witness(n: int, r: int):
        return cached(n, r % (n + 1), bar_f_images, perms.invert_images)

    witness.cache_info, witness.cache_clear = cached.cache_info, cached.cache_clear
    return witness


@_cached_per_twin
def bar_f_witness(n: int, r: int) -> SkewMorphismWitness | None:
    """Skew-morphism witness for bar_f_r on degree n, or None when it is none.

    psi = B[r], read off bar_tables once psi is no identity, so a table
    that bar_tables refuses raises its ClaimFailure.  No step reads
    gcd(r, n+1), the rule that skew-toric checks.
      - psi = id: the identity is a skew morphism of order 1 and power 0.
      - Otherwise the twin holds its rotation form, so B[s] = B[1]^s
        (additivity, see bar_tables), and psi, a power of B[1], is a
        bijection with r != 0.
      - B[1] = psi^e: then B[s] = psi^(e s), and the product rule (see
        bar_tables) reads psi(rho pi) = psi(rho) psi^(e s)(pi), s =
        (rho^-1)_r.  So psi is a skew morphism whose power function is
        e (p^-1)_r mod its order, unique since distinct powers of psi
        differ as maps.
      - Otherwise None: take rho with rho_1 = r, so s = 1.  A skew law
        psi(rho pi) = psi(rho) psi^e(pi) at rho would force bar_f_1 = psi^e.
    """
    r %= n + 1
    psi = rank_table(n, NO_BUDGET, bar_f_images, r)
    powers = [tuple(range(factorial(n)))]
    if psi == powers[0]:
        return SkewMorphismWitness(sym_group(n), psi, 1, (0,) * len(psi))
    bar = bar_tables(n, NO_BUDGET)
    while (power := compose_maps(psi, powers[-1])) != powers[0]:
        powers.append(power)
    if bar[1] not in powers:
        return None
    e, order = powers.index(bar[1]), len(powers)
    pi_power = tuple(e * s % order for s in perms.invert_images(n)[r - 1])
    return SkewMorphismWitness(sym_group(n), psi, order, pi_power)
