"""Second routes to the toric maps and the dihedral group, kept as test oracles.

Nothing in the package calls these: the conjugation forms of the toric and
inverse-toric maps, the identity and inverse of the dihedral normal form,
the pointwise action of L_h o bar_f_r and both sides of the skew identity
of bar_f_r.  The tests check the package's kernels and tables against them.
"""

from btcayley.perms import Permutation, _restrict, alpha_power, compose_maps, lift
from btcayley.toric import DihedralElement, bar_f


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
