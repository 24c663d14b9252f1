"""Second routes to the permutation algebra, the toric maps and the dihedral
group, kept as test oracles.

Nothing in the package calls these: the row-by-row definitions of the
product and the inverse of one-line images, the conjugation forms of the
toric and inverse-toric maps, the identity and inverse of the dihedral
normal form, the pointwise action of L_h o bar_f_r, both sides of the skew
identity of bar_f_r, a skew-morphism decision by full left-multiplication
rows, the skew-morphism witness of bar_f_r read off a regular Cayley map,
and the toric class census by one orbit per class.
The tests check the package's kernels, tables and witnesses against them.
"""

from operator import itemgetter

from btcayley.blocktrans import CutPoints, make_bt
from btcayley.maps import CayleyMap, SkewMorphismWitness, is_regular
from btcayley.perms import Permutation, _restrict, alpha_power, compose_maps, lift, sym_group
from btcayley.toric import DihedralElement, bar_f, toric_image


def oracle_compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The one-line image of a o b (apply b first): entry t is a(b(t))."""
    return tuple(a[b[t - 1] - 1] for t in range(1, len(b) + 1))


def oracle_invert(a: tuple[int, ...]) -> tuple[int, ...]:
    """The one-line image of a^-1: inv(a(t)) = t."""
    inv = [0] * len(a)
    for t in range(1, len(a) + 1):
        inv[a[t - 1] - 1] = t
    return tuple(inv)


def toric_f_conj(p: Permutation, r: int) -> Permutation:
    """Toric shift of p by r, computed by conjugating the lift with rotations."""
    lp = lift(p)
    left = alpha_power(p.n, -lp[r % (p.n + 1)])
    return _restrict(compose_maps(compose_maps(left, lp), alpha_power(p.n, r)))


def bar_f_conj(p: Permutation, r: int) -> Permutation:
    """bar_f_r via rotations: [0 rho] = alpha^{n+1-r} o [0 p] o alpha^{(p^-1)_r}."""
    n = p.n
    right = alpha_power(n, lift(p.inverse())[r % (n + 1)])
    return _restrict(compose_maps(compose_maps(alpha_power(n, -r), lift(p)), right))


def dihedral_identity(n: int) -> DihedralElement:
    return DihedralElement(0, 0, n)


def dihedral_inverse(a: DihedralElement) -> DihedralElement:
    if a.refl:
        return a
    return DihedralElement((-a.r) % (a.n + 1), 0, a.n)


def apply_lh_barf(h: Permutation, r: int, p: Permutation) -> Permutation:
    """(L_h o bar_f_r)(p) = h o bar_f_r(p)."""
    return h.compose(bar_f(p, r))


def skew_identity_bar_f(
    rho: Permutation, pi: Permutation, r: int
) -> tuple[Permutation, Permutation, int]:
    """Both sides of bar_f_r(rho o pi) = bar_f_r(rho) o bar_f_s(pi), s = (rho^-1)_r."""
    if rho.n != pi.n:
        raise ValueError(f"degree mismatch: {rho.n} vs {pi.n}")
    m = rho.n + 1
    s = lift(rho.inverse())[r % m]
    lhs = bar_f(rho.compose(pi), r)
    rhs = bar_f(rho, r).compose(bar_f(pi, s))
    return lhs, rhs, s


def oracle_check_skew(elements, psi):
    """(psi, order, pi_power) by full left-multiplication rows, or None.

    elements is sym_group(n) and psi a rank map over it.  Each x must have
    exactly one exponent e in range(order of psi) with
    psi(x y) = psi(x) psi^e(y) for every y, found by comparing whole rows.
    """
    g = len(elements)
    images = [p.image for p in elements]
    idx = {img: i for i, img in enumerate(images)}
    ident_i = idx[tuple(range(1, elements[0].n + 1))]
    if psi[ident_i] != ident_i:
        return None
    if g == 1:
        return psi, 1, (0,)
    powers = [tuple(range(g))]
    cur = psi
    while cur != powers[0]:
        powers.append(cur)
        cur = tuple(psi[x] for x in cur)
    best_probe, best_len = 0, 0
    seen = [False] * g
    for start in range(g):
        length, x = 0, start
        while not seen[x]:
            seen[x] = True
            x = psi[x]
            length += 1
        if length > best_len:
            best_probe, best_len = start, length
    getters = [itemgetter(*(v - 1 for v in y)) for y in images]
    pi_power = []
    for ix in range(g):
        row_x = [idx[get(images[ix])] for get in getters]
        mult_px = [idx[get(images[psi[ix]])] for get in getters]
        lhs = [psi[z] for z in row_x]
        candidates = [
            e for e in range(len(powers)) if lhs[best_probe] == mult_px[powers[e][best_probe]]
        ]
        valid = [
            e for e in candidates if all(lhs[iy] == mult_px[powers[e][iy]] for iy in range(g))
        ]
        if len(valid) != 1:
            return None
        pi_power.append(valid[0])
    return psi, len(powers), tuple(pi_power)


def oracle_map_witness(n: int, r: int) -> SkewMorphismWitness | None:
    """The witness of the Cayley map whose rotation is bar_f_r, or None.

    X is the orbit of x_0 = s(0,1,n) under bar_f_r, in orbit order.  When X
    is inverse-closed, is_regular decides CM(Sym_n, X), whose rotation
    sends each x to bar_f_r(x), and reads its skew-morphism witness off the
    dart table; a regular map's witness restricts to the rotation on X
    (Jajcay and Siran).  bar_f_1 moves x_0 through the n+1 distinct
    elements x_1 = x_0^-1 and x_j = s(n-j, n-j+1, n-j+2), so X is
    inverse-closed exactly when r is prime to n+1.  CayleyMap caps n at 7.
    """
    orbit = [make_bt(CutPoints(0, 1, n, n))]
    while (x := bar_f(orbit[-1], r)) != orbit[0]:
        orbit.append(x)
    if {x.inverse() for x in orbit} != set(orbit):
        return None
    return is_regular(CayleyMap(n, orbit))


def oracle_toric_class_stats(n: int) -> tuple[int, int, dict[int, int]]:
    """(classes, singleton classes, size histogram) of the toric classes of
    Sym_n, by the orbit of each class's least element under every f_r."""
    seen: set[tuple[int, ...]] = set()
    histogram: dict[int, int] = {}
    for p in sym_group(n):
        if p.image in seen:
            continue
        orbit = {toric_image(p.image, r) for r in range(n + 1)}
        seen |= orbit
        histogram[len(orbit)] = histogram.get(len(orbit), 0) + 1
    return sum(histogram.values()), histogram.get(1, 0), histogram
