"""Permutations, and the one algebra of 0-based maps.

A permutation of degree n is a bijection of [n] = {1, ..., n}, written
[p_1 p_2 ... p_n] where p(t) = p_t.  Permutation, the boundary type of the
package, stores the image tuple indexed from 0 and reads it 1-based.

Inside, every bijection of {0, ..., m-1} is a 0-based tuple e, with e[x]
the image of x: the lift [0 p] of p and the rotations alpha^r of
[n]^0 = {0, 1, ..., n}, the rank tables over sym_group(n), the vertex maps
of a graph.  compose_maps, _inverse_map, _is_even and StabilizerChain are
their one algebra, and a one-line image a enters it as its lift [0 a]:
compose_maps(lift(a), b) is the image of a o b (entry t is a(b_t)), entry
r of _inverse_map(lift(a)) is the position of r in [0 a], so its entries
from 1 on are the image of a^-1, and [0 a] has the parity of a (0 adds a
point and a cycle).  lift and restrict move between p and [0 p].

Validation happens once, at the API boundary: Permutation(...),
parse_permutation and restrict check that they are given a tuple of ints
that is a bijection.  The kernels (compose_maps and _inverse_map here; the
toric, inverse-toric and reversal kernels in toric) map permutations to a
permutation by construction, so their results are wrapped without a second
check by the internal constructor _wrap.  Hot loops call the kernels
directly and wrap a tuple only when they hand it back to a caller.  Over all
of Sym_n at once, each kernel has a packed twin that works on whole byte
columns (see _lift_columns).
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from operator import itemgetter, ne

from .budget import NO_BUDGET
from .record import Record, _set


def cycles(succ) -> list[list[int]]:
    """The cycles of a bijection of range(len(succ)), with succ[x] the image of x.

    Each cycle starts at its least point and follows succ from there; the
    cycles come in the order of their least points.
    """
    visited = bytearray(len(succ))
    out = []
    for start in range(len(succ)):
        if visited[start]:
            continue
        cycle = []
        x = start
        while not visited[x]:
            visited[x] = 1
            cycle.append(x)
            x = succ[x]
        out.append(cycle)
    return out


def _is_even(succ) -> bool:
    """Parity of a bijection of range(len(succ)): even iff the number of
    points minus the number of cycles is even."""
    return (len(succ) - len(cycles(succ))) % 2 == 0


def compose_maps(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """0-based map a o b (apply b first): entry x is a[b[x]]."""
    if len(b) == 1:
        return (a[b[0]],)
    return itemgetter(*b)(a)


def _inverse_map(a: tuple[int, ...]) -> tuple[int, ...]:
    """Inverse of a 0-based map: entry a[x] is x."""
    inv = [0] * len(a)
    for x, y in enumerate(a):
        inv[y] = x
    return tuple(inv)


class Permutation(Record):
    """A bijection of {1, ..., n} in one-line notation.

    >>> p = Permutation((2, 3, 1))
    >>> p(1), p(2), p(3)
    (2, 3, 1)
    >>> str(p.compose(p))
    '[3 1 2]'
    """

    __slots__ = ("image",)

    def __init__(self, image: tuple[int, ...]):
        _set(self, "image", image)
        self.__post_init__()

    def __post_init__(self):
        a, n = self.image, len(self.image)
        ints = type(a) is tuple and 0 < n == [*map(type, a)].count(int)  # no bool or float
        if not ints or sorted(a) != [*range(1, n + 1)]:
            raise ValueError(f"not a permutation of 1..{n}: {a!r}")

    @property
    def n(self) -> int:
        return len(self.image)

    def __call__(self, t: int) -> int:
        if not 1 <= t <= self.n:
            raise ValueError(f"point {t} outside 1..{self.n}")
        return self.image[t - 1]

    def compose(self, other: "Permutation") -> "Permutation":
        """Left-to-right application order: (self.compose(other))(t) = self(other(t))."""
        if not isinstance(other, Permutation):
            raise TypeError(f"cannot compose Permutation with {type(other).__name__}")
        if other.n != self.n:
            raise ValueError(f"degree mismatch: {self.n} vs {other.n}")
        return _wrap(compose_maps(lift(self), other.image))

    __mul__ = compose

    def inverse(self) -> "Permutation":
        return _wrap(_inverse_map(lift(self))[1:])

    def is_identity(self) -> bool:
        return all(v == t for t, v in enumerate(self.image, start=1))

    def is_even(self) -> bool:
        return _is_even(lift(self))

    def __str__(self) -> str:
        return "[" + " ".join(str(v) for v in self.image) + "]"

    # Record's equality and hash, written out for the one field: sets and
    # dicts of whole groups hash every element.
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.image == other.image
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.image,))


_new = object.__new__


def _wrap(image: tuple[int, ...]) -> Permutation:
    """Permutation around an image tuple that is one by construction (no check)."""
    p = _new(Permutation)
    _set(p, "image", image)
    return p


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def reverse(n: int) -> Permutation:
    """The order-reversing involution w = [n n-1 ... 1]."""
    return Permutation(tuple(range(n, 0, -1)))


def lift(p: Permutation) -> tuple[int, ...]:
    """The extension [0 p] of p fixing 0."""
    return (0,) + p.image


def restrict(e: tuple[int, ...]) -> Permutation:
    """Restrict a bijection e of {0, ..., n} fixing 0 back to {1, ..., n}.

    e can be anything, so all of it is validated: entry 0 as the int 0.
    """
    if not isinstance(e, tuple) or not e or type(e[0]) is not int:
        raise ValueError(f"not an extended permutation: {e!r}")
    return Permutation(_restrict(e).image)


def _restrict(e: tuple[int, ...]) -> Permutation:
    """restrict for a bijection by construction: only the fixed 0 is checked."""
    if e[0] != 0:
        raise ValueError(f"extended permutation does not fix 0: {e}")
    return _wrap(e[1:])


def alpha_power(n: int, r: int) -> tuple[int, ...]:
    """The rotation x -> x + r (mod n+1) of the extended point set.

    Any integer exponent is accepted and reduced mod n+1.
    """
    if n < 1:
        raise ValueError(f"degree {n} below 1")
    return _rotation(n, r % (n + 1))


@lru_cache(maxsize=256)
def _rotation(n: int, r: int) -> tuple[int, ...]:
    """alpha^r for 0 <= r <= n; the tuple is immutable, so one is shared."""
    return tuple(range(r, n + 1)) + tuple(range(r))


@lru_cache(maxsize=8)
def sym_group(n: int) -> tuple[Permutation, ...]:
    """All n! permutations of degree n in lexicographic one-line order."""
    if not 1 <= n <= 8:
        raise ValueError(f"degree {n} outside the materialization range 1..8")
    return tuple(map(_wrap, itertools.permutations(range(1, n + 1))))


@lru_cache(maxsize=8)
def sym_index(n: int) -> dict[tuple[int, ...], int]:
    """Lexicographic rank of each one-line image tuple of degree n."""
    return {p.image: i for i, p in enumerate(sym_group(n))}


def adjacent_transpositions(n: int) -> list[tuple[int, ...]]:
    """Image tuples of the adjacent transpositions s_t = (t+1 t+2), t = 0..n-2."""
    ident = tuple(range(1, n + 1))
    return [ident[:t] + (t + 2, t + 1) + ident[t + 2 :] for t in range(n - 1)]


def _right_multiplier(b: tuple[int, ...]):
    """C-level a -> a o b on one-line images: entry t is a[b_t - 1] (a itself at degree 1)."""
    return itemgetter(*(v - 1 for v in b)) if len(b) > 1 else tuple


def _rank_columns(n: int, images) -> list:
    """Rank column of every generator image x: col_x[rank p] = rank(p o x).

    The n-1 columns of the adjacent transpositions s_t = (t+1 t+2) are
    looked up once through sym_index; every other column is composed from
    them by one itemgetter gather, so no product is hashed.  (x has a
    descent only for n >= 2, where a column has n! >= 2 entries, so the
    gather returns a tuple.)  Take the first descent t of
    x (x[t] > x[t+1], 0-based) and y = x o s_t, which is x with the
    entries at t and t+1 swapped.  Then:
      - rank(p o x) = rank((p o y) o s_t) = col_s_t[col_y[rank p]], since
        s_t is an involution, so col_x is col_y read through col_s_t;
      - the swap removes the inversion at (t, t+1) and leaves every other
        pair as it was, so y has one inversion fewer than x, and the
        recursion ends at the identity, whose column is range(n!).
    Columns are memoised on the image tuple, so generators whose descent
    chains meet share the columns from there down.
    """
    index = sym_index(n)
    columns = {tuple(range(1, n + 1)): range(len(index))}
    adjacent = [
        tuple(map(index.__getitem__, map(_right_multiplier(s), index)))
        for s in adjacent_transpositions(n)
    ]

    def column(x):
        col = columns.get(x)
        if col is None:
            t = next(t for t in range(n - 1) if x[t] > x[t + 1])
            y = x[:t] + (x[t + 1], x[t]) + x[t + 2 :]
            col = columns[x] = itemgetter(*column(y))(adjacent[t])
        return col

    return list(map(column, images))


def _product_rows(n: int, images):
    """Ranks of p o x for every generator image x, one row per p of sym_group(n).

    The rows come in rank order as tuples of the _rank_columns of the
    images.
    """
    return zip(*_rank_columns(n, images))


@lru_cache(maxsize=2)
def _lift_columns(n: int) -> tuple[bytes, ...]:
    """Column x holds entry x of the lift [0 a] of every image a, in sym_index order.

    The entries are at most n <= 8, so each column is a bytes object, and
    whole columns are operated on at once: bytes.translate maps every entry
    through one 256-byte table, and _lanes reads a column as one integer
    whose bytes are its entries, so one integer addition, AND or OR acts on
    every entry (lane) of a column together.  The packed twins of the
    kernels (invert_images here; toric_images, bar_f_images and
    reverse_images in toric) are built this way, with no call per element.
    """
    index = sym_index(n)
    return (bytes(len(index)),) + tuple(map(bytes, zip(*index)))


def _lanes(column: bytes) -> int:
    """A bytes column as one integer whose byte i (little-endian) is entry i.

    An addition of two such integers adds lane by lane as long as no lane
    sum reaches 256: then no carry crosses into the next lane.  AND and OR
    never cross lanes.  _column reads the lanes back.
    """
    return int.from_bytes(column, "little")


def _column(lanes: int, size: int) -> bytes:
    """The bytes column of size entries whose _lanes are lanes."""
    return lanes.to_bytes(size, "little")


@lru_cache(maxsize=None)
def _marks(v: int) -> bytes:
    """Translate table v -> 0xFF, every other byte -> 0: a mask of the lanes that hold v."""
    return bytes(v) + b"\xff" + bytes(255 - v)


def invert_images(n: int) -> tuple[bytes, ...]:
    """Packed twin of Permutation.inverse over Sym_n: column v-1 holds entry v of every inverse.

    The images come in sym_index order.  Entry v of a^-1, as of
    _inverse_map(lift(a)), is the position t with a_t = v, so one translate
    of lift column t writes t where the entry is v and 0 elsewhere.  Exactly
    one t matches in each lane, so the OR over t of these columns, as
    _lanes, is column v of the inverses.
    """
    points = _lift_columns(n)
    size = len(points[0])
    columns = []
    for v in range(1, n + 1):
        lanes = 0
        for t in range(1, n + 1):
            lanes |= _lanes(points[t].translate(bytes(v) + bytes((t,)) + bytes(255 - v)))
        columns.append(_column(lanes, size))
    return tuple(columns)


def layers(seed, steps, budget=NO_BUDGET, seen: set | None = None):
    """Breadth-first levels from the seed items under the step maps.

    Yields the seed items as a set, then each next level: the whole
    frontier is mapped through every step at C level, and what has not
    been seen is kept.  The budget is read once before each level is
    expanded.  Every item reached goes into seen (a new set by default),
    so a caller that needs the reached set passes its own and holds it
    once.
    """
    if seen is None:
        seen = set()
    frontier = set(seed)
    seen |= frontier
    while frontier:
        yield frontier
        budget.check()
        reached = set()
        for step in steps:
            reached.update(map(step, frontier))
        frontier = reached - seen
        seen |= frontier


def closure(seed, steps, budget=NO_BUDGET) -> set:
    """Everything reachable from the seed items under the step maps (via layers)."""
    seen: set = set()
    for _ in layers(seed, steps, budget, seen):
        pass
    return seen


class StabilizerChain:
    """Base and strong generators of the group of 0-based maps the generators generate.

    Deterministic Schreier-Sims (Sims 1970; Seress, Permutation Group
    Algorithms, CUP 2003, ch. 4), on tuples composed with compose_maps.
    Level i has a base point b_i and strong generators S_i, which fix
    b_0..b_(i-1); orbits[i] lists the orbit of b_i under <S_i>, and the
    transversal holds, for each point y of it, a word u_y of S_i with
    u_y(b_i) = y, and its inverse.  sift(g) strips g level by level,
    g -> u_y^-1 o g with y = g(b_i), until g moves a b_i outside the
    orbit or every level is passed.

    The chain is complete when, at every level, each Schreier generator
    u_(s y)^-1 o s o u_y (y in the orbit, s in S_i), which fixes b_i,
    sifts to the identity from level i+1.  By Schreier's lemma these
    generate the stabilizer of b_i in <S_i>, so <S_(i+1)> is that
    stabilizer, and by induction from the last level up, |<S_0>| is the
    product of the orbit lengths (orbit-stabilizer at each level) and g
    lies in <S_0> exactly when it sifts to the identity.

    Building it:
      - Each generator is sifted, and one that does not sift to the
        identity leaves its residue h at the levels it passed and the one
        it stopped at: h joins S_0..S_j, with a new level, based at the
        first point h moves, when j is past the last.  Members are
        skipped, so <S_0> is the group of the generators.
      - Then the levels are completed from the last one up.  A Schreier
        generator of level i with a residue h at level j is a member of
        <S_i> that fixes b_0..b_(j-1); h joins S_(i+1)..S_j, and levels j
        down to i+1 are completed again before level i goes on.  What
        level i has tried stays tried: each tried Schreier generator now
        lies in <S_(i+1)>.
      - Each orbit point keeps the count of the generators tried at it,
        so every Schreier generator is formed once; one whose u_(s y) is
        s o u_y (an edge of the orbit's tree) is the identity and is
        skipped unsifted.

    At every stage the products u_0 o u_1 o ... of one word per level are
    members of <S_0>, and distinct: such a product sends b_0 to the point
    of u_0, and with u_0 stripped, b_1 to the point of u_1, and so on.  So
    the product of the orbit lengths is a lower bound of |<S_0>|.  The
    bound is an upper bound: with M the points some generator moves, the
    group fixes every point outside M, so it lies in Sym(M), and in Alt(M)
    when every generator is even (a map fixing the points outside M has
    the same cycles on M, so it is even on M too).  Once the product
    reaches |M|!, or |M|!/2, the products are the whole group and the
    chain is complete: no further generator or Schreier generator is
    sifted, and the chain never stops early.  So lifts [0 p] on n+1
    points have the bound n!, as p on n points do.  The budget is read
    once per sift.
    """

    def __init__(self, degree: int, gens, budget=NO_BUDGET):
        self.degree = degree
        self.identity = tuple(range(degree))
        self.base: list[int] = []
        self.strong: list[list[tuple[int, ...]]] = []
        self.orbits: list[list[int]] = []
        # Per level: the words u_y (the transversal) and their inverses,
        # indexed by the point y (None off the orbit), and the count of
        # generators tried at each orbit point, in orbit order.
        self.transversals: list[list] = []
        self._inverses: list[list] = []
        self._tried: list[list[int]] = []
        self._budget = budget
        gens = [tuple(g) for g in gens]
        ident = self.identity
        moved = set().union(*(itertools.compress(ident, map(ne, g, ident)) for g in gens))
        self._bound = self._order_bound(len(moved), all(map(_is_even, gens)))
        self._full = self._bound == 1
        for g in gens:
            if self._full:
                break
            budget.check()
            h, j = self.sift(g)
            if h != self.identity:
                self._add(h, 0, j)
        for level in range(len(self.base) - 1, -1, -1):
            self._complete(level)

    @staticmethod
    def _order_bound(moved: int, even: bool) -> int:
        """|Sym(M)|, or |Alt(M)| when every generator is even, for |M| = moved."""
        return math.factorial(moved) // (2 if even and moved > 1 else 1)

    def order(self) -> int:
        """|<gens>|: the product of the orbit lengths."""
        size = 1
        for orbit in self.orbits:
            size *= len(orbit)
        return size

    def elements(self, start: int = 0) -> list[tuple[int, ...]]:
        """Every member g of the group, each once, the identity first, as g[start:].

        start is 0, or 1 on lifts [0 p], which never move 0 (so a level
        has two moved points from 1 on): then it lists the images p.

        The chain is complete or full at its bound, so every member g is
        u_0 o u_1 o ... o u_k for exactly one word u_i of each level's
        transversal: the products are distinct (see the class docstring)
        and their count is the order.  Inversion is a bijection of the
        group, so the products u_k^-1 o ... o u_0^-1 = (u_0 o ... o u_k)^-1
        are again every member once.  They are formed from the last level
        up: the list L holds u_k^-1 o ... o u_(i+1)^-1 for every choice of
        words below level i, and L o u_y^-1 for each orbit point y of level
        i, one C-level gather over L per point, gives the list for level i.
        No seen-set is needed, and the identity, the word of the base point,
        which comes first in its orbit, comes first.  Entry x of a o u_y^-1
        is a[u_y^-1[x]], so the last gather, at level 0, reads u_y^-1 from
        point start on and forms only those entries.  The budget is read
        once per level.
        """
        listing = [self.identity]
        for level in range(len(self.orbits) - 1, -1, -1):
            self._budget.check()
            block, listing, cut = listing, [], start if level == 0 else 0
            for y in self.orbits[level]:
                listing += map(itemgetter(*self._inverses[level][y][cut:]), block)
        return listing if self.orbits else [self.identity[start:]]

    def sift(self, g: tuple[int, ...], start: int = 0) -> tuple[tuple[int, ...], int]:
        """The residue of g stripped from level start on, and the level it stopped at."""
        base, inverses = self.base, self._inverses
        for level in range(start, len(base)):
            u = inverses[level][g[base[level]]]
            if u is None:
                return g, level
            g = compose_maps(u, g)
        return g, len(base)

    def _extend(self, h, top: int, last: int):
        """Add h to S_top..S_last and complete levels last down to top."""
        self._add(h, top, last)
        for level in range(last, top - 1, -1):
            self._complete(level)

    def _add(self, h, top: int, last: int):
        """Add h to S_top..S_last, with a new last level if last is past the end."""
        if last == len(self.base):
            moved = next(x for x, y in enumerate(h) if x != y)
            words = [None] * self.degree
            inverses = [None] * self.degree
            words[moved] = inverses[moved] = self.identity
            self.base.append(moved)
            self.strong.append([])
            self.orbits.append([moved])
            self.transversals.append(words)
            self._inverses.append(inverses)
            self._tried.append([0])
        h_inv = _inverse_map(h)
        for level in range(top, last + 1):
            self.strong[level].append(h)
            self._grow(level, h, h_inv)

    def _grow(self, level: int, h, h_inv):
        """Close orbits[level] under S_level, to which h was just added.

        The old points were closed under the old generators, so only h is
        applied to them; each new point gets every generator.  The word of
        a new point s(y) is s o u_y, an edge of the orbit's tree.
        """
        orbit, words, inverses = self.orbits[level], self.transversals[level], self._inverses[level]
        tried = self._tried[level]
        old = len(orbit)
        pairs = [(h, h_inv)]
        for i, y in enumerate(orbit):  # new points are appended as it runs
            if i == old:
                pairs = [(s, _inverse_map(s)) for s in self.strong[level]]
            for s, s_inv in pairs:
                z = s[y]
                if words[z] is None:
                    words[z] = compose_maps(s, words[y])
                    inverses[z] = compose_maps(inverses[y], s_inv)
                    orbit.append(z)
                    tried.append(0)
        self._full = self.order() >= self._bound

    def _complete(self, level: int):
        """Sift each Schreier generator of level not yet tried, from level+1.

        Neither the generators nor the orbit of this level change while it
        is completed: a residue joins the deeper levels only.
        """
        b = self.base[level]
        orbit, words, inverses = self.orbits[level], self.transversals[level], self._inverses[level]
        strong, tried = self.strong[level], self._tried[level]
        check, sift, ident = self._budget.check, self.sift, self.identity
        for i, y in enumerate(orbit):
            first = tried[i]
            tried[i] = len(strong)
            u = words[y]
            for s in strong[first:]:
                if self._full:
                    return
                x = compose_maps(s, u)
                z = x[b]
                if x == words[z]:
                    continue
                check()
                h, j = sift(compose_maps(inverses[z], x), level + 1)
                if h != ident:
                    self._extend(h, level + 1, j)


def parse_permutation(text: str) -> Permutation:
    """Parse a one-line literal like "[2 3 1]" (brackets optional)."""
    s = text.strip()
    if s.startswith("[") and s.endswith("]"):
        s = s[1:-1]
    parts = s.split()
    if not parts:
        raise ValueError(f"empty permutation literal: {text!r}")
    try:
        values = tuple(int(x) for x in parts)
    except ValueError:
        raise ValueError(f"bad permutation literal: {text!r}") from None
    return Permutation(values)
