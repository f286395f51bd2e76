"""Independent second routes for the package's fast paths.

Each function here computes what a shipped function computes, by a
different and much slower formula.  The tests compare the two; nothing in
the package imports this module.

- `closure_seq_minplus`: staircase closure by min-plus powers, against the
  lower-hull `closure_seq`.
- `closure_by_powers`: integral closure by the power test, against the
  Newton-polyhedron `newton_closure`.
- `newton_closure_by_degrees`: integral closure by a walk up the degrees
  through the monomials outside it, against the column walk of
  `newton_closure`.
- `hilbert_function_incl_excl`: the Hilbert function by
  inclusion-exclusion over the generators, against the sliced
  `MonomialIdeal.hilbert_function`.
- `colength_by_box`: the colength by testing every monomial below the
  pure powers, against the sliced `MonomialIdeal.colength`.
- `max_convex_cover_fractions`: the simplex over `Fraction` entries,
  against the fraction-free integer tableau of `lp.max_convex_cover`.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb

from gideal import MonomialIdeal, Staircase, minplus_product, newton_closure
from gideal.ideals import _minimal, mono_deg, mono_lcm, monomials_of_degree
from gideal.newton import NewtonMembership


def closure_seq_minplus(a: Staircase) -> Staircase:
    """Integral closure: a'_j = min over k of ceil of (a^(k))_(kj) / k.

    Builds the d min-plus powers of a, so it costs O(d^4).
    """
    d = a.d
    if d == 0:
        return a
    powers = [None, a]
    for _ in range(2, d + 1):
        powers.append(minplus_product(powers[-1], a))
    out = []
    for j in range(d + 1):
        out.append(min(-(-powers[k][k * j] // k) for k in range(1, d + 1)))
    return Staircase(tuple(out))


def closure_by_powers(I: MonomialIdeal, k_max: int | None = None) -> MonomialIdeal:
    """Integral closure by the power test: v is integral over I when
    x^(k*v) lies in I^k for some k.

    Exponential in everything; for small inputs only.  The default bound
    k <= n * max generator degree covers the denominators of vertex
    witnesses at this scale.
    """
    if I.is_zero() or I.is_unit():
        return newton_closure(I)
    n = I.n
    if k_max is None:
        k_max = n * I.max_degree
    powers = [None, I]
    for k in range(2, k_max + 1):
        powers.append(powers[-1] * I)

    def integral(v: tuple[int, ...]) -> bool:
        return any(
            powers[k].contains_monomial(tuple(k * e for e in v))
            for k in range(1, k_max + 1)
        )

    found: list[tuple[int, ...]] = []
    for degree in range(I.order, I.max_degree + n):
        for vt in monomials_of_degree(n, degree):
            if any(all(f[i] <= vt[i] for i in range(n)) for f in found):
                continue
            if integral(vt):
                found.append(vt)
    return MonomialIdeal.of(n, found)


def newton_closure_by_degrees(I: MonomialIdeal) -> MonomialIdeal:
    """Integral closure by a walk up the degrees from the order of I.

    Keeps only the monomials outside the closure.  A minimal generator of
    degree d has all of its degree-(d-1) divisors outside, so the degree-d
    candidates are the one-step multiples of the previous outside set whose
    every such divisor is outside too.  Each candidate is tested for
    membership in I and then in the Newton polyhedron, up to degree D + n
    for the largest generator degree D.
    """
    if I.is_zero() or I.is_unit():
        return I
    n = I.n
    member = NewtonMembership(I)
    lo, hi = I.order, I.max_degree + n - 1
    found: list[tuple[int, ...]] = []
    cands = monomials_of_degree(n, lo)
    for degree in range(lo, hi + 2):
        outside = []
        for v in cands:
            if not (I.contains_monomial(v) or member.contains(v)):
                outside.append(v)
            elif degree > hi:
                raise RuntimeError("integral closure generated above the degree bound")
            else:
                found.append(v)
        # a multiple v of the outside set counts once per divisor v - e_i
        # outside, and has one such divisor per nonzero exponent
        hits = Counter(u[:i] + (u[i] + 1,) + u[i + 1 :] for u in outside for i in range(n))
        cands = sorted(v for v, k in hits.items() if k == n - v.count(0))
        if not cands:
            break
    return MonomialIdeal(n, _minimal(found))


def hilbert_function_incl_excl(I: MonomialIdeal, t: int) -> int:
    """Inclusion-exclusion count of degree-t monomials outside I.

    Exponential in the number of generators, so limited to 20 of them.
    """
    if t < 0:
        raise ValueError("negative degree")
    n, gens = I.n, I.gens
    total = comb(t + n - 1, n - 1)
    inside = 0
    m = len(gens)
    if m > 20:
        raise ValueError("inclusion-exclusion oracle is limited to 20 generators")
    for mask in range(1, 1 << m):
        lcm = (0,) * n
        bits = 0
        mm = mask
        while mm:
            lcm = mono_lcm(lcm, gens[(mm & -mm).bit_length() - 1])
            bits += 1
            mm &= mm - 1
        r = t - mono_deg(lcm)
        if r >= 0:
            inside += (-1) ** (bits + 1) * comb(r + n - 1, n - 1)
    return total - inside


def colength_by_box(I: MonomialIdeal) -> int:
    """Colength of a finite-colength ideal: the monomials of the box below
    the pure powers that no generator divides.

    Visits every point of the box, so for small pure powers only.
    """
    tops = [min(g[i] for g in I.gens if sum(g) == g[i]) for i in range(I.n)]
    return sum(
        1
        for v in product(*(range(a) for a in tops))
        if not any(all(e <= f for e, f in zip(g, v)) for g in I.gens)
    )


def max_convex_cover_fractions(
    columns: list[tuple[int, ...]], rhs: tuple[int, ...]
) -> tuple[Fraction, tuple[Fraction, ...]]:
    """(optimum, dual) of max sum(lam) s.t. sum_j lam_j * col_j <= rhs,
    lam >= 0, by Bland's rule on a tableau of `Fraction` entries."""
    m = len(columns)
    n = len(rhs)
    if m == 0:
        raise ValueError("need at least one column")
    if any(sum(c) == 0 for c in columns):
        raise ValueError("zero column makes the program unbounded")
    width = m + n + 1
    tab = []
    for i in range(n):
        row = [Fraction(columns[j][i]) for j in range(m)]
        row += [Fraction(1 if k == i else 0) for k in range(n)]
        row.append(Fraction(rhs[i]))
        tab.append(row)
    tab.append([Fraction(-1)] * m + [Fraction(0)] * (n + 1))
    basis = list(range(m, m + n))

    while True:
        entering = next((j for j in range(m + n) if tab[n][j] < 0), -1)
        if entering < 0:
            break
        leaving = -1
        best = None
        for i in range(n):
            a = tab[i][entering]
            if a > 0:
                ratio = tab[i][width - 1] / a
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leaving]
                ):
                    best = ratio
                    leaving = i
        if leaving < 0:
            raise ArithmeticError("unbounded program")
        piv = tab[leaving][entering]
        prow = tab[leaving] = [v / piv for v in tab[leaving]]
        for i in range(n + 1):
            f = tab[i][entering]
            if i != leaving and f:
                tab[i] = [v - f * p for v, p in zip(tab[i], prow)]
        basis[leaving] = entering

    return tab[n][width - 1], tuple(tab[n][m:m + n])
