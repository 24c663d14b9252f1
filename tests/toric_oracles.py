"""Second routes to the permutation algebra, the toric maps and the dihedral
group, kept as test oracles.

Nothing in the package calls these: the row-by-row definitions of the
product and the inverse of one-line images, the conjugation forms of the
toric and inverse-toric maps, the identity and inverse of the dihedral
normal form, the pointwise action of L_h o bar_f_r, both sides of the skew
identity of bar_f_r, the sweeps of the product rule and of additivity on
the B tables that toric.bar_tables derives from the rotation form (and
those tables read without its check), the Section 3 sweeps that the
claims eq9, eq12, eq13, gfg and eq16 derive from the conjugation forms of
toric.toric_form, toric.reverse_form and toric.bar_tables (additivity and
the inverse rule of the toric tables, involution and multiplicativity of
the reversal table, the definition route, and both mirror rules, on
tables ranked with no form check), a skew-morphism decision by full
left-multiplication rows, the skew-morphism witness of bar_f_r read off a
regular Cayley map, and the toric class census by one orbit per class.
The tests check the package's kernels, tables and witnesses against them.
"""

from operator import getitem, itemgetter

from btcayley import perms, toric
from btcayley.budget import NO_BUDGET
from btcayley.blocktrans import CutPoints, make_bt
from btcayley.maps import CayleyMap, SkewMorphismWitness, is_regular
from btcayley.perms import (
    Permutation,
    _lift_columns,
    _rank_columns,
    _restrict,
    _wrap,
    adjacent_transpositions,
    alpha_power,
    compose_maps,
    lift,
    sym_group,
    sym_index,
)
from btcayley.toric import DihedralElement, _miss, bar_f, toric_image


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


def b_tables(n: int) -> list[tuple[int, ...]]:
    """The rank tables B[0..n] of toric.bar_f_images, taken when this runs,
    without the rotation-form check of toric.bar_tables, which refuses a
    wrong twin."""
    return [toric.rank_table(n, NO_BUDGET, toric.bar_f_images, r) for r in range(n + 1)]


def product_rule_fault(n: int, bar) -> tuple[str, dict] | None:
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
        for j, t in enumerate(adjacent):
            barred = columns[n - 1 + j :: n - 1]  # the column of bar_f_s(t), for each s
            lhs = compose_maps(b, columns[j])
            rank = _miss(lhs, tuple(map(getitem, map(barred.__getitem__, spots[r]), b)))
            if rank is not None:
                return "product rule violated", {"rho": _wrap(images[rank]), "pi": _wrap(t), "r": r}
    return None


def _first(images, lhs, rhs, message, **context):
    """(message, p and context) at the first rank where two tables differ, or None."""
    rank = _miss(lhs, rhs)
    return None if rank is None else (message, {"p": _wrap(images[rank])} | context)


def additivity_fault(
    n: int, bar, message: str = "inverse-toric shifts do not add"
) -> tuple[str, dict] | None:
    """The first fault (message, naming p, and s as r) of B[0] = id and
    B[s] = B[1] o B[s-1] for s = 1..n+1, read mod n+1, or None.  So B[s] =
    B[1]^s, and the wrap-around step makes each a bijection (tables with
    B[r] = iota for every r >= 1 pass the others).  bar is the B tables,
    where this is additivity and the iteration of eq13, or the toric tables
    of toric_tables, where it is the additivity of eq9 (message "toric
    shifts do not add")."""
    m = n + 1
    images = list(sym_index(n))
    for s in range(m + 1):
        want = compose_maps(bar[1], bar[s - 1]) if s else tuple(range(len(images)))
        if fault := _first(images, bar[s % m], want, message, r=s % m):
            return fault
    return None


def ranked(n: int, columns) -> tuple[int, ...]:
    """The rank table of a packed twin's columns, with no check of any form."""
    return tuple(map(sym_index(n).__getitem__, zip(*columns)))


def toric_tables(n: int) -> list[tuple[int, ...]]:
    """The rank tables T[0..n] of toric.toric_images, taken when this runs."""
    return [ranked(n, toric.toric_images(n, r)) for r in range(n + 1)]


def inverse_rule_fault(n: int, tor, inv) -> tuple[str, dict] | None:
    """The first fault, sweeping r, then p by rank, of (f_r(p))^-1 =
    f_(p_r)(p^-1), tor the toric tables and inv the rank table of
    perms.invert_images; the shift p_r varies with p, and is read off lift
    column r."""
    images = list(sym_index(n))
    points = _lift_columns(n)
    for r, t in enumerate(tor):
        mirrored = tuple(map(getitem, map(tor.__getitem__, points[r]), inv))
        message = "inverse of a toric image is not the mirrored toric image"
        if fault := _first(images, compose_maps(inv, t), mirrored, message, r=r):
            return fault
    return None


def involution_fault(n: int, rev) -> tuple[str, dict] | None:
    """The first p, by rank, with g(g(p)) != p, rev the reversal table."""
    images = list(sym_index(n))
    ident = tuple(range(len(rev)))
    return _first(images, compose_maps(rev, rev), ident, "reversal is not an involution")


def multiplicativity_fault(n: int, rev) -> tuple[str, dict] | None:
    """The first fault ("reversal is not multiplicative", naming rho, and an
    adjacent transposition s as pi) of g(rho o pi) = g(rho) o g(pi), or
    None when it holds for every pair (rho, pi) of Sym_n; rev is the
    reversal table, and the sweep runs over s, then rho by rank.

    col_b[i] is the rank of (element i) o b.  For each of the n-1 adjacent
    transpositions s, R o col_s == col_g(s) o R is g(rho o s) = g(rho) o
    g(s) for every rho at once, since sym_index is a bijection.  That
    covers every pair, by induction on the length of pi as a word in the s:
    - Length 0: with rho = iota the check reads g(s) = g(iota) o g(s), so
      g(iota) = iota, and g(rho o iota) = g(rho) o g(iota) for every rho.
    - Length k > 0: pi = pi' o s with s adjacent and pi' of length k-1, and
      for every rho
          g(rho o pi) = g(rho o pi') o g(s)        (the check at rho o pi')
                      = g(rho) o g(pi') o g(s)     (induction)
                      = g(rho) o g(pi' o s)        (the check at pi').
    The columns of the s and g(s) come from perms._rank_columns.
    """
    idx = sym_index(n)
    images = list(idx)
    adjacent = adjacent_transpositions(n)
    mirrors = [images[rev[idx[s]]] for s in adjacent]
    columns = _rank_columns(n, adjacent + mirrors)
    for s, col_s, col_gs in zip(adjacent, columns, columns[n - 1 :]):
        rank = _miss(compose_maps(rev, col_s), compose_maps(col_gs, rev))
        if rank is not None:
            return "reversal is not multiplicative", {"rho": _wrap(images[rank]), "pi": _wrap(s)}
    return None


def definition_route_fault(n: int, bar, tor, inv) -> tuple[str, dict] | None:
    """The first fault, sweeping r, then p by rank, of bar_f_r(p) =
    (f_r(p^-1))^-1, read as the table inv o T[r] o inv against B[r]."""
    images = list(sym_index(n))
    for r, (b, t) in enumerate(zip(bar, tor)):
        route = compose_maps(inv, compose_maps(t, inv))
        if fault := _first(images, route, b, "inverse-toric route broke", r=r):
            return fault
    return None


def mirror_fault(n: int, tables, rev, kind: str) -> tuple[str, dict] | None:
    """The first fault, sweeping r, then p by rank, of the mirror rule
    g o T_r o g = T_(-r), tables the T[r] of the toric or B twin (kind
    "toric" or "inverse-toric") and rev the reversal table."""
    images = list(sym_index(n))
    message = f"conjugated {kind} map is not the mirror shift"
    for r, t in enumerate(tables):
        mirrored = compose_maps(rev, compose_maps(t, rev))
        if fault := _first(images, mirrored, tables[-r], message, r=r):
            return fault
    return None


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
