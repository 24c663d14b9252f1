"""Cayley maps: rotation systems over a cyclically ordered connection set.

A Cayley map carries darts (pi, pi o x) for every group element pi and
generator x.  The rotation R advances the generator along the cyclic order
p; dart reversal T swaps the endpoints.  Faces are the orbits of R o T.
The map is regular exactly when some skew-morphism psi of the group agrees
with p on the connection set; then its automorphism group is generated by
the left translations together with psi and has order |G| * order(psi).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import product
from operator import itemgetter
from typing import NamedTuple

from .blocktrans import CutPoints, make_bt
from .budget import NO_BUDGET
from .graphs import connection_set_images
from .perms import (
    Permutation,
    _product_rows,
    closure,
    cycles,
    identity,
    parse_permutation,
    sym_group,
    sym_index,
)
from .toric import SkewMorphismWitness, bar_f, bar_f_witness, check_skew


class Dart(NamedTuple):
    """A directed edge (tail, tail o gen), stored by its generator."""

    tail: Permutation
    gen: Permutation

    @property
    def head(self) -> Permutation:
        return self.tail.compose(self.gen)


@dataclass(frozen=True)
class Face:
    """A face: the cyclic dart sequence of one rotation-reversal orbit."""

    darts: tuple[Dart, ...]

    @property
    def size(self) -> int:
        return len(self.darts)

    def vertex_walk(self) -> tuple[Permutation, ...]:
        return tuple(d.tail for d in self.darts)


class CayleyMap:
    """CM(Sym_n, X, p): X held in the cyclic order defining p."""

    def __init__(self, n: int, generators):
        gens = tuple(generators)
        if len(gens) < 2:
            raise ValueError("need at least two generators")
        imgs = connection_set_images(n, gens)

        self.n = n
        self.gens = gens
        self.elements = sym_group(n)
        self._eidx = sym_index(n)
        self._gidx = {x.image: gi for gi, x in enumerate(gens)}
        self._ginv = tuple(self._gidx[x.inverse().image] for x in gens)

        # vertex-by-generator product table, by ranks
        self._vmul = tuple(_product_rows(n, imgs))

        # The connection set must generate the whole group.
        steps = [col.__getitem__ for col in zip(*self._vmul)]
        if len(closure([self._eidx[identity(n).image]], steps)) != len(self.elements):
            raise ValueError("connection set does not generate the group")

    @property
    def valency(self) -> int:
        return len(self.gens)

    @property
    def dart_count(self) -> int:
        return len(self.elements) * len(self.gens)

    def p_next(self, x: Permutation) -> Permutation:
        """Cyclic successor of a generator in the rotation order."""
        gi = self._gidx.get(x.image)
        if gi is None:
            raise ValueError(f"{x} is not in the connection set")
        return self.gens[(gi + 1) % len(self.gens)]

    def rotation(self, d: Dart) -> Dart:
        return Dart(d.tail, self.p_next(d.gen))

    def reverse(self, d: Dart) -> Dart:
        return Dart(d.head, d.gen.inverse())

    def _face_orbits(self) -> list[list[int]]:
        """The faces as dart numbers, each from its least dart, in that order.

        Dart (vi, gi) is number vi * m + gi, so number order is (tail, gen)
        rank order and the tail's rank is the number // m.  R o T reverses
        the dart, then rotates: (vi, gi) goes to (vmul[vi][gi],
        ginv[gi] + 1 mod m), kept as one flat successor list.  The orbits
        are the cycles of that list (perms.cycles), so each face starts at
        its least dart and the faces come sorted by their first darts.
        """
        m = len(self.gens)
        turn = [(self._ginv[gi] + 1) % m for gi in range(m)]
        return cycles([w * m + turn[gi] for row in self._vmul for gi, w in enumerate(row)])

    def faces(self) -> list[Face]:
        """All faces, each starting at its least (tail, gen) rank, in that order.

        The orbits come from _face_orbits.  Every dart lies on one face, so
        each Dart is built once, in number order, straight from its
        (tail, gen) pair, and each face picks its darts with one gather.  No
        generator is the identity, so R o T moves every dart and an orbit
        has at least two darts: the gather returns a tuple.
        """
        darts = list(map(partial(tuple.__new__, Dart), product(self.elements, self.gens)))
        return [Face(itemgetter(*orbit)(darts)) for orbit in self._face_orbits()]

    def euler_characteristic(self) -> int:
        v = len(self.elements)
        e = self.dart_count // 2
        return v - e + len(self._face_orbits())


def is_regular(m: CayleyMap, budget=NO_BUDGET) -> SkewMorphismWitness | None:
    """Skew-morphism witness for regularity, or None when the map is not regular.

    Tries the toric candidates bar_f_r first.  Otherwise propagates the
    single map automorphism that would send the dart (iota, x0) to
    (iota, p(x0)); it exists if and only if the map is regular, because the
    left translations alone are transitive on the vertices.
    """
    n = m.n
    for r in range(n + 1):
        if all(bar_f(x, r) == m.p_next(x) for x in m.gens):
            w = bar_f_witness(n, r)
            if w is not None:
                return w
    vmap = _propagate_dart_automorphism(m, budget)
    if vmap is None:
        return None
    if any(m.elements[vmap[m._eidx[x.image]]] != m.p_next(x) for x in m.gens):
        return None
    w = check_skew(m.elements, tuple(vmap))
    if w is None:
        raise RuntimeError("dart automorphism exists but is no skew-morphism")
    return w


def _propagate_dart_automorphism(m: CayleyMap, budget):
    """Vertex map of the automorphism sending (iota, gens[0]) to (iota, gens[1]).

    Images propagate along R and T over the single <R, T> orbit (the graph
    is connected); any conflict proves the automorphism does not exist.
    """
    k = len(m.gens)
    nv = len(m.elements)
    total = nv * k
    iota = m._eidx[identity(m.n).image]
    img = [-1] * total
    d0 = iota * k + 0
    img[d0] = iota * k + 1
    queue = [d0]
    seen = 1
    while queue:
        budget.check()
        d = queue.pop()
        e = img[d]
        vi, gi = divmod(d, k)
        wi, hi = divmod(e, k)
        # rotation: advance both generator slots
        dn = vi * k + (gi + 1) % k
        en = wi * k + (hi + 1) % k
        if img[dn] < 0:
            img[dn] = en
            queue.append(dn)
            seen += 1
        elif img[dn] != en:
            return None
        # reversal: cross both edges
        dn = m._vmul[vi][gi] * k + m._ginv[gi]
        en = m._vmul[wi][hi] * k + m._ginv[hi]
        if img[dn] < 0:
            img[dn] = en
            queue.append(dn)
            seen += 1
        elif img[dn] != en:
            return None
    if seen != total or len(set(img)) != total:
        return None
    # consistency as a vertex map
    vmap = [-1] * nv
    for d in range(total):
        vi = d // k
        wi = img[d] // k
        if vmap[vi] < 0:
            vmap[vi] = wi
        elif vmap[vi] != wi:
            return None
    if sorted(vmap) != list(range(nv)):
        return None
    return vmap


def t_balance(witness: SkewMorphismWitness, generators) -> int | None:
    """The constant power-function value on the connection set, if any."""
    values = {witness.pi_power_of(x) for x in generators}
    if len(values) == 1:
        return values.pop()
    return None


def aut_order(m: CayleyMap, witness: SkewMorphismWitness | None) -> int | None:
    """|Aut| = |G| * order(psi) for a regular map, None otherwise."""
    if witness is None:
        return None
    return len(m.elements) * witness.order


# ---------------------------------------------------------------------------
# The maps under study.


def octahedron_map() -> CayleyMap:
    """Degree 3 over all four block transpositions; the embedded octahedron."""
    order = [
        CutPoints(0, 1, 3, 3),
        CutPoints(0, 2, 3, 3),
        CutPoints(1, 2, 3, 3),
        CutPoints(0, 1, 2, 3),
    ]
    return CayleyMap(3, [make_bt(c) for c in order])


def prop72_map(n: int) -> CayleyMap:
    """The regular map of valency n+1 over the staircase connection set.

    X = {s(0,1,n), s(0,n-1,n)} plus all s(i,i+1,i+2), with the rotation
    going down the staircase; at n = 3 this is precisely the octahedron.
    """
    if n < 3:
        raise ValueError(f"degree {n} below 3")
    order = [CutPoints(0, 1, n, n), CutPoints(0, n - 1, n, n)]
    order += [CutPoints(i, i + 1, i + 2, n) for i in range(n - 2, -1, -1)]
    return CayleyMap(n, [make_bt(c) for c in order])


MPRIME_N5_ORDER = (
    "[5 4 2 3 1]",
    "[5 3 4 2 1]",
    "[4 5 3 2 1]",
    "[4 3 2 1 5]",
    "[1 5 4 3 2]",
    "[5 4 3 1 2]",
)


def mprime_n5_map() -> CayleyMap:
    """A second regular map on degree 5 whose underlying graph is new."""
    return CayleyMap(5, [parse_permutation(s) for s in MPRIME_N5_ORDER])


def build_map(which: str, n: int | None = None) -> CayleyMap:
    """Dispatcher for the named maps: octahedron, prop72, mprime_n5."""
    if which == "octahedron":
        return octahedron_map()
    if which == "prop72":
        if n is None:
            raise ValueError("prop72 needs a degree")
        return prop72_map(n)
    if which == "mprime_n5":
        return mprime_n5_map()
    raise ValueError(f"unknown map {which!r}")


def map_report(m: CayleyMap, budget=NO_BUDGET) -> dict:
    faces = m._face_orbits()
    histogram: dict[int, int] = {}
    for f in faces:
        histogram[len(f)] = histogram.get(len(f), 0) + 1
    witness = is_regular(m, budget)
    report = {
        "n": m.n,
        "generator_count": m.valency,
        "dart_count": m.dart_count,
        "face_count": len(faces),
        "face_size_histogram": {str(k): v for k, v in sorted(histogram.items())},
        "euler_characteristic": len(m.elements) - m.dart_count // 2 + len(faces),
        "regular": witness is not None,
        "t_balanced": t_balance(witness, m.gens) if witness else None,
        "skew_order": witness.order if witness else None,
        "aut_order": aut_order(m, witness),
    }
    return report


def face_lines(m: CayleyMap) -> str:
    """One face per line: the cyclic vertex-rank walk.

    The tail of dart number d has rank d // valency, so the ranks come
    straight from the dart numbers.
    """
    k = m.valency
    lines = [" ".join(str(d // k) for d in f) for f in m._face_orbits()]
    return "\n".join(lines) + "\n"
