"""Block transpositions on the symmetric group.

A block transposition s(i,j,k) with cut points 0 <= i < j < k <= n swaps
the adjacent blocks [i+1 .. j] and [j+1 .. k] of the one-line form, fixing
everything else.  T_n denotes the set of all of them; it is inverse-closed,
never contains the identity, and has size (n+1)n(n-1)/6.

T_n splits into four classes by which cut points touch the ends:

    B  i = 0 and k = n   (the nontrivial powers of beta = s(0,1,n))
    L  i = 0 and k < n
    F  i > 0 and k = n
    S  i > 0 and k < n
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .perms import Permutation, _wrap

# Distinguished recognize() answer for the identity permutation, which has
# no cut-point representation.
IDENTITY = "identity"

TN_CLASSES = ("B", "L", "F", "S")


@dataclass(frozen=True)
class CutPoints:
    """Cut points (i, j, k) of a block transposition of degree n."""

    i: int
    j: int
    k: int
    n: int

    def __post_init__(self):
        if not 0 <= self.i < self.j < self.k <= self.n:
            raise ValueError(
                f"cut points must satisfy 0 <= i < j < k <= n, got "
                f"(i={self.i}, j={self.j}, k={self.k}, n={self.n})"
            )

    def __str__(self) -> str:
        return f"s({self.i},{self.j},{self.k})"


def make_bt(c: CutPoints) -> Permutation:
    """One-line form by block concatenation: [1..i  j+1..k  i+1..j  k+1..n].

    Valid cut points make the blocks hold 1..n once each, so no check runs."""
    i, j, k, n = c.i, c.j, c.k, c.n
    img = (
        tuple(range(1, i + 1))
        + tuple(range(j + 1, k + 1))
        + tuple(range(i + 1, j + 1))
        + tuple(range(k + 1, n + 1))
    )
    return _wrap(img)


def bt_piecewise(c: CutPoints) -> Permutation:
    """One-line form by the interval formula; agrees with make_bt everywhere.

    t         for t <= i or t > k
    t + j - i for i < t <= k - j + i
    t + j - k for k - j + i < t <= k

    The pieces are onto the blocks of make_bt, so no check runs.
    """
    i, j, k, n = c.i, c.j, c.k, c.n
    vals = []
    for t in range(1, n + 1):
        if t <= i or t > k:
            vals.append(t)
        elif t <= k - j + i:
            vals.append(t + j - i)
        else:
            vals.append(t + j - k)
    return _wrap(tuple(vals))


def bt_inverse(c: CutPoints) -> CutPoints:
    """Cut points of the inverse: s(i,j,k)^-1 = s(i, k-j+i, k)."""
    return CutPoints(c.i, c.k - c.j + c.i, c.k, c.n)


def bt_power(i: int, k: int, e: int, n: int) -> CutPoints:
    """Cut points of s(i,i+1,k)^e = s(i,i+e,k) for 1 <= e <= k-i-1."""
    if not 0 <= i < k <= n:
        raise ValueError(f"need 0 <= i < k <= n, got (i={i}, k={k}, n={n})")
    if not 1 <= e <= k - i - 1:
        raise ValueError(f"exponent {e} outside 1..{k - i - 1}")
    return CutPoints(i, i + e, k, n)


def beta(n: int) -> Permutation:
    """The n-cycle s(0,1,n) = [2 3 ... n 1]."""
    return make_bt(CutPoints(0, 1, n, n))


def tn_size(n: int) -> int:
    return n * (n + 1) * (n - 1) // 6


@lru_cache(maxsize=16)
def enumerate_tn(n: int) -> tuple[CutPoints, ...]:
    """All cut-point triples of degree n in lexicographic (i, j, k) order."""
    if n < 2:
        raise ValueError(f"degree {n} below 2")
    return tuple(
        CutPoints(i, j, k, n)
        for i in range(n - 1)
        for j in range(i + 1, n)
        for k in range(j + 1, n + 1)
    )


@lru_cache(maxsize=16)
def tn_realizations(n: int) -> tuple[Permutation, ...]:
    """One-line realizations of T_n, aligned with enumerate_tn(n)."""
    return tuple(make_bt(c) for c in enumerate_tn(n))


def classify(c: CutPoints) -> str:
    """Partition class of the cut points: one of B, L, F, S."""
    if c.i == 0:
        return "B" if c.k == c.n else "L"
    return "F" if c.k == c.n else "S"


def partition_counts(n: int) -> dict[str, int]:
    counts = {cls: 0 for cls in TN_CLASSES}
    for c in enumerate_tn(n):
        counts[classify(c)] += 1
    return counts


def recognize(p: Permutation):
    """Cut points of p if it is a block transposition.

    Returns a CutPoints, the IDENTITY marker for the identity permutation,
    or None when p is no block transposition at all.
    """
    n = p.n
    img = p.image
    i = 0
    while i < n and img[i] == i + 1:
        i += 1
    if i == n:
        return IDENTITY
    # A block transposition starts its displaced part with j+1 at position
    # i+1 and carries j at position k.
    j = img[i] - 1
    if j <= i:
        return None
    k = img.index(j) + 1
    if not j < k <= n:
        return None
    c = CutPoints(i, j, k, n)
    return c if make_bt(c) == p else None
