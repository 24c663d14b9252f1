"""Permutations in one-line notation.

A permutation of degree n is a bijection of [n] = {1, ..., n}, written
[p_1 p_2 ... p_n] where p(t) = p_t.  An extended permutation acts on
[n]^0 = {0, 1, ..., n} and is written the same way with the image of 0
first.  The two kinds are distinct types: the lift of p is the extended
permutation [0 p] fixing 0, and restricting [0 p] back to [n] returns p.

Images are stored in tuples indexed from 0; all public semantics use the
1-based positions (0-based for the extended point set).

Validation happens once, at the API boundary.  The public constructors
Permutation(...) and ExtendedPermutation(...) and parse_permutation check
that an image tuple is a bijection, because that tuple comes from outside.
The algebra runs on kernels over plain image tuples (compose_images and
invert_image here; the toric, inverse-toric and reversal kernels in toric):
each kernel maps permutations to a permutation by construction, so its
result is wrapped without a second check by the internal constructors
_wrap and _wrap_ext.  Hot loops call the kernels directly and wrap a tuple
only when they hand it back to a caller.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

from .budget import NO_BUDGET


def compose_images(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Image tuple of a o b (apply b first) for two images of one degree."""
    if len(b) == 1:
        return a
    return itemgetter(*b)((0,) + a)


def invert_image(a: tuple[int, ...]) -> tuple[int, ...]:
    """Image tuple of the inverse permutation."""
    inv = [0] * len(a)
    for t, v in enumerate(a, start=1):
        inv[v - 1] = t
    return tuple(inv)


@dataclass(frozen=True)
class Permutation:
    """A bijection of {1, ..., n} in one-line notation.

    >>> p = Permutation((2, 3, 1))
    >>> p(1), p(2), p(3)
    (2, 3, 1)
    >>> str(p.compose(p))
    '[3 1 2]'
    """

    image: tuple[int, ...]

    def __post_init__(self):
        n = len(self.image)
        if n == 0 or sorted(self.image) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.image!r}")

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
        return _wrap(compose_images(self.image, other.image))

    __mul__ = compose

    def inverse(self) -> "Permutation":
        return _wrap(invert_image(self.image))

    def is_identity(self) -> bool:
        return all(v == t for t, v in enumerate(self.image, start=1))

    def is_even(self) -> bool:
        """Parity: even iff n minus the number of cycles is even."""
        seen = [False] * self.n
        cycles = 0
        for t in range(1, self.n + 1):
            if not seen[t - 1]:
                cycles += 1
                while not seen[t - 1]:
                    seen[t - 1] = True
                    t = self.image[t - 1]
        return (self.n - cycles) % 2 == 0

    def __str__(self) -> str:
        return "[" + " ".join(str(v) for v in self.image) + "]"


@dataclass(frozen=True)
class ExtendedPermutation:
    """A bijection of {0, 1, ..., n} in one-line notation (image of 0 first)."""

    image: tuple[int, ...]

    def __post_init__(self):
        m = len(self.image)
        if m < 2 or sorted(self.image) != list(range(m)):
            raise ValueError(f"not a permutation of 0..{m - 1}: {self.image!r}")

    @property
    def n(self) -> int:
        return len(self.image) - 1

    def __call__(self, x: int) -> int:
        if not 0 <= x <= self.n:
            raise ValueError(f"point {x} outside 0..{self.n}")
        return self.image[x]

    def compose(self, other: "ExtendedPermutation") -> "ExtendedPermutation":
        if not isinstance(other, ExtendedPermutation):
            raise TypeError(f"cannot compose ExtendedPermutation with {type(other).__name__}")
        if other.n != self.n:
            raise ValueError(f"degree mismatch: {self.n} vs {other.n}")
        return _wrap_ext(itemgetter(*other.image)(self.image))

    __mul__ = compose

    def inverse(self) -> "ExtendedPermutation":
        inv = [0] * (self.n + 1)
        for x, v in enumerate(self.image):
            inv[v] = x
        return _wrap_ext(tuple(inv))

    def is_identity(self) -> bool:
        return all(v == x for x, v in enumerate(self.image))

    def __str__(self) -> str:
        return "[" + " ".join(str(v) for v in self.image) + "]"


_new = object.__new__
_set = object.__setattr__


def _wrap(image: tuple[int, ...]) -> Permutation:
    """Permutation around an image tuple that is one by construction (no check)."""
    p = _new(Permutation)
    _set(p, "image", image)
    return p


def _wrap_ext(image: tuple[int, ...]) -> ExtendedPermutation:
    """ExtendedPermutation around an image tuple that is one by construction."""
    e = _new(ExtendedPermutation)
    _set(e, "image", image)
    return e


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def reverse(n: int) -> Permutation:
    """The order-reversing involution w = [n n-1 ... 1]."""
    return Permutation(tuple(range(n, 0, -1)))


def lift(p: Permutation) -> ExtendedPermutation:
    """The extension [0 p] of p fixing 0."""
    return _wrap_ext((0,) + p.image)


def restrict(e: ExtendedPermutation) -> Permutation:
    """Restrict an extended permutation fixing 0 back to {1, ..., n}."""
    if e.image[0] != 0:
        raise ValueError(f"extended permutation does not fix 0: {e}")
    return _wrap(e.image[1:])


def alpha_power(n: int, r: int) -> ExtendedPermutation:
    """The rotation x -> x + r (mod n+1) of the extended point set.

    Any integer exponent is accepted and reduced mod n+1.
    """
    if n < 1:
        raise ValueError(f"degree {n} below 1")
    return _rotation(n, r % (n + 1))


@lru_cache(maxsize=256)
def _rotation(n: int, r: int) -> ExtendedPermutation:
    """alpha^r for 0 <= r <= n; the result is immutable, so one is shared."""
    m = n + 1
    return _wrap_ext(tuple(range(r, m)) + tuple(range(r)))


def alpha(n: int) -> ExtendedPermutation:
    """The basic rotation [1 2 ... n 0]."""
    return alpha_power(n, 1)


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


def _right_multiplier(b: tuple[int, ...]):
    """C-level callable a -> image tuple of a o b, for images of b's degree."""
    return itemgetter(*(v - 1 for v in b)) if len(b) > 1 else tuple


def _product_rows(n: int, images):
    """Ranks of p o x for every generator image x, one row per p of sym_group(n).

    The rows come lazily and in rank order, and are built at C level: one
    itemgetter per generator picks the image of p o x out of p's image, and
    sym_index turns it into a rank.  Only the current row is held.
    """
    index = sym_index(n)
    rank = index.__getitem__
    return zip(*[map(rank, map(_right_multiplier(x), index)) for x in images])


def plain_changes(n: int):
    """Johnson-Trotter "plain changes" walk of Sym_n from the identity.

    Yields n! - 1 positions i; swapping the entries at i and i+1 (0-based)
    of the current one-line image, i.e. composing on the right with the
    adjacent transposition (i+1 i+2), visits every permutation once.  The
    largest entry sweeps across the others, and between two sweeps the
    others take one step of the walk of degree n-1.
    """
    if n < 2:
        return
    down, up = range(n - 2, -1, -1), range(n - 1)
    left = True
    for i in itertools.chain(plain_changes(n - 1), [None]):
        yield from down if left else up
        if i is None:
            return
        # The largest entry sits first after a left sweep, last after a right one.
        yield i + 1 if left else i
        left = not left


def closure(seed, steps, limit: int | None = None, budget=NO_BUDGET) -> set:
    """Everything reachable from the seed items under the step maps.

    Breadth first: each level maps the whole frontier through every step
    at C level and keeps what has not been seen.  The budget is read once
    per level; more than limit items raise ValueError (a hard cap, not a
    truncation).
    """
    seen = set(seed)
    frontier = seen
    while frontier:
        budget.check()
        reached = set()
        for step in steps:
            reached.update(map(step, frontier))
        frontier = reached - seen
        seen |= frontier
        if limit is not None and len(seen) > limit:
            raise ValueError(f"closure exceeds the cap of {limit} elements")
    return seen


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
