"""Cayley maps: rotation systems over a cyclically ordered connection set.

A Cayley map carries darts (pi, pi o x) for every group element pi and
generator x.  The rotation R advances the generator along the cyclic order
p; dart reversal T swaps the endpoints.  Faces are the orbits of R o T.
The map is regular exactly when some skew-morphism psi of the group agrees
with p on the connection set; then its automorphism group is generated by
the left translations together with psi and has order |G| * order(psi).
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, cycle
from operator import add

from .blocktrans import CutPoints, make_bt
from .budget import NO_BUDGET
from .graphs import connection_set_images
from .perms import (
    Permutation,
    StabilizerChain,
    _rank_columns,
    compose_maps,
    cycles,
    lift,
    parse_permutation,
    sym_group,
    sym_index,
)
from .record import Record


class SkewMorphismWitness(Record):
    """A skew morphism of Sym_n, from one of two producers: is_regular reads
    one off a regular Cayley map, and toric.bar_f_witness derives the one of
    each bar_f_r (the identity, of order 1, at r = 0) from the B tables.

    psi maps element ranks to element ranks over elements = sym_group(n),
    order is its order as a permutation of the ranks, and pi_power[i] is
    the exponent attached to elements[i] in psi(x y) = psi(x) psi^pi(x)(y).
    """

    __slots__ = ("elements", "psi", "order", "pi_power")

    def __init__(
        self,
        elements: tuple[Permutation, ...],
        psi: tuple[int, ...],
        order: int,
        pi_power: tuple[int, ...],
    ):
        self._fill(elements, psi, order, pi_power)

    def index_of(self, p: Permutation) -> int:
        return sym_index(self.elements[0].n)[p.image]

    def apply(self, p: Permutation) -> Permutation:
        return self.elements[self.psi[self.index_of(p)]]

    def pi_power_of(self, p: Permutation) -> int:
        return self.pi_power[self.index_of(p)]


class CayleyMap:
    """CM(Sym_n, X, p): X held in the cyclic order defining p.

    Dart (v, x_g), from the group element of rank v along generator
    gens[g], is the number v * k + g, with k the valency.  So number order
    is (tail, generator) rank order, the tail's rank is d // k and the
    generator's slot is d % k.  Rank 0 is the identity (sym_group lists
    Sym_n in lexicographic order), so dart 0 is (iota, gens[0]).
    """

    def __init__(self, n: int, generators):
        gens = tuple(generators)
        if len(gens) < 2:
            raise ValueError("need at least two generators")
        imgs = connection_set_images(n, gens)

        self.n = n
        self.gens = gens
        self.elements = sym_group(n)

        # The connection set must generate the whole group.
        chain = StabilizerChain(n + 1, map(lift, gens))
        if chain.order() != len(self.elements):
            raise ValueError("connection set does not generate the group")

        # col[g][v] = rank(v o x_g): the vertex-by-generator products, by ranks
        self._columns = _rank_columns(n, imgs)

    @property
    def valency(self) -> int:
        return len(self.gens)

    @property
    def dart_count(self) -> int:
        return len(self.elements) * len(self.gens)

    @cached_property
    def _rotate(self) -> tuple[int, ...]:
        """The rotation R as a dart table: (v, g) -> (v, g+1 mod k)."""
        k = len(self.gens)
        return tuple(map(add, range(self.dart_count), cycle([1] * (k - 1) + [1 - k])))

    @cached_property
    def _reverse(self) -> tuple[int, ...]:
        """The reversal T as a dart table: (v, g) -> (rank(v o x_g), slot(x_g^-1)).

        One list per generator holds the reversed darts of that slot in
        tail order; zip interleaves them into dart number order.
        """
        k = len(self.gens)
        slot = {x: g for g, x in enumerate(self.gens)}
        inverse = [slot[x.inverse()] for x in self.gens]
        slots = [[w * k + t for w in col] for col, t in zip(self._columns, inverse)]
        return tuple(chain.from_iterable(zip(*slots)))

    def faces(self) -> list[list[int]]:
        """The faces as dart numbers: the cycles of R o T (reverse, then rotate).

        Each face starts at its least dart, and the faces come sorted by
        their first darts (perms.cycles).
        """
        return cycles(compose_maps(self._rotate, self._reverse))

    def euler_characteristic(self) -> int:
        v = len(self.elements)
        e = self.dart_count // 2
        return v - e + len(self.faces())


def is_regular(m: CayleyMap, budget=NO_BUDGET) -> SkewMorphismWitness | None:
    """Skew-morphism witness for regularity, or None when the map is not regular.

    The map is regular exactly when some map automorphism phi sends the
    dart (iota, x_0) to (iota, x_1), because the left translations alone
    are transitive on the vertices.  _propagate_dart_automorphism builds
    that phi as a dart table img, or proves it absent.  The witness is read
    off img, with no second pass over the group.  Write
    img[v * k] = psi(v) * k + sigma(v): psi is the vertex map, and sigma(v)
    the slot shift at v.
      - phi commutes with R, so phi(v, x_g) = (psi(v), x_{g + sigma(v)})
        at every slot g of v: the shift is constant at each vertex, and
        psi(iota) = iota, sigma(iota) = 1, since phi sends dart 0 to dart 1.
      - By induction phi^j(0) = phi^(j-1)(R(0)) = R(phi^(j-1)(0)) = R^j(0),
        dart j at iota for j < k, and R^k(0) = 0.  An automorphism that
        fixes one dart is the identity (propagation fixes every dart), so
        phi has order k.  Its vertex map psi^j fixes every vertex only when
        phi^j fixes every dart (a dart is its tail and its head, and the
        graph is simple), so psi has order k too.
      - Fix v and let theta = L_psi(v)^-1 o phi o L_v, with L the left
        translations, which are map automorphisms.  theta sends dart 0 to
        dart sigma(v) at iota, as phi^sigma(v) does, so theta = phi^sigma(v).
        Read on vertices: psi(v h) = psi(v) psi^sigma(v)(h) for every h.
        So psi is a skew morphism whose power function is sigma, with
        values in range(k) = range(order).  That power function is the
        only one, because distinct powers of psi differ as maps.
      - At v = iota and h = x_g, phi carries the head x_g of dart g to the
        head of dart g + 1, so psi(x_g) = x_{g+1}: psi = p on X, as the
        theorem of Jajcay and Siran asks of a regular Cayley map.
    """
    img = _propagate_dart_automorphism(m, budget)
    if img is None:
        return None
    k = len(m.gens)
    at_vertex = img[::k]
    psi = tuple(e // k for e in at_vertex)
    pi_power = tuple(e % k for e in at_vertex)
    return SkewMorphismWitness(m.elements, psi, k, pi_power)


def _propagate_dart_automorphism(m: CayleyMap, budget):
    """Dart table of the automorphism sending dart 0 = (iota, gens[0]) to dart 1.

    Images propagate along R and T over the single <R, T> orbit (the graph
    is connected): an automorphism commutes with both, so img[step[d]] is
    step[img[d]].  Any conflict proves the automorphism does not exist, and
    the function returns None.

    Once every dart has an image and img is a bijection, img is the
    automorphism: each dart is popped once and both steps are checked at
    it, so img commutes with R and T.  R keeps a dart's tail and is
    transitive on the k darts at a vertex, so img sends the k darts at v
    onto the k darts at one vertex, and the vertex map is a bijection
    because img is one.
    """
    total = m.dart_count
    steps = (m._rotate, m._reverse)
    img = [-1] * total
    img[0] = 1
    queue = [0]
    seen = 1
    while queue:
        budget.check()
        d = queue.pop()
        e = img[d]
        for step in steps:
            dn = step[d]
            en = step[e]
            if img[dn] < 0:
                img[dn] = en
                queue.append(dn)
                seen += 1
            elif img[dn] != en:
                return None
    if seen != total or len(set(img)) != total:
        return None
    return img


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
    faces = m.faces()
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
    lines = [" ".join(str(d // k) for d in f) for f in m.faces()]
    return "\n".join(lines) + "\n"
