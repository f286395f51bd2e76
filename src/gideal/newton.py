"""Integral closure of monomial ideals via exact Newton-polyhedron tests.

A monomial x^v lies in the integral closure of I exactly when v is
componentwise above a convex combination of the exponent vectors of I.
Membership is decided by an exact integer simplex, and each solve leaves
certificates that later queries reuse.  A negative answer caches its dual
as an integer separating hyperplane.  Every solve caches its optimal
basis: its reduced costs do not depend on the point, so the basis stays
optimal for every later point in its cone (where it stays feasible),
and there the cached dual decides membership with no solve.  The simplex
runs only for points that no cached hyperplane rejects and no cached
basis covers.
"""

from __future__ import annotations

from collections import Counter
from math import gcd
from operator import mul

from .ideals import MonomialIdeal, _minimal, mono_deg, monomials_of_degree
from .lp import max_convex_cover


class NewtonMembership:
    """Membership oracle for conv(gens(I)) + the non-negative orthant."""

    def __init__(self, ideal: MonomialIdeal):
        if ideal.is_zero():
            raise ValueError("the zero ideal has no Newton polyhedron")
        self.ideal = ideal
        self._unit = ideal.is_unit()
        self.columns = [tuple(g) for g in ideal.gens]
        # integer separators (w, c): w.v < c implies v is outside
        self._seps: list[tuple[tuple[int, ...], int]] = []
        # optimal bases (R, w, c) of earlier solves: for v with R.v >= 0 the
        # basis is still optimal, so v is inside exactly when w.v >= c
        self._bases: list[tuple[tuple[tuple[int, ...], ...], tuple[int, ...], int]] = []

    def contains(self, v: tuple[int, ...]) -> bool:
        if self._unit:
            return True
        # a separator never rejects a point of the polyhedron, so the cheap
        # cached test goes first
        if any(sum(map(mul, w, v)) < c for w, c in self._seps):
            return False
        if self.ideal.contains_monomial(v):
            return True
        if mono_deg(v) < self.ideal.order:
            return False
        for R, w, c in self._bases:
            if all(sum(map(mul, r, v)) >= 0 for r in R):
                return sum(map(mul, w, v)) >= c
        opt, dual, R = max_convex_cover(self.columns, tuple(v))
        den = 1
        for y in dual:
            den = den * y.denominator // gcd(den, y.denominator)
        w = tuple(int(y * den) for y in dual)
        self._bases.append((R, w, den))
        if opt >= 1:
            return True
        self._seps.append((w, den))
        return False


def newton_closure(I: MonomialIdeal) -> MonomialIdeal:
    """The integral closure of a nonzero monomial ideal.

    The search walks up the degrees from the order of I and keeps only the
    monomials outside the closure.  A minimal generator of degree d has all
    of its degree-(d-1) divisors outside, so the degree-d candidates are the
    one-step multiples of the previous outside set whose every such divisor
    is outside too; each is tested for membership, and the walk stops once
    no candidate is left.  It also stops past degree D + n - 1, where D is
    the largest generator degree: a lattice point of the Newton polyhedron
    with total slack n or more over its witness combination can be
    decremented in some coordinate, so every minimal lattice generator lies
    below that bound.  The bound is re-asserted one degree higher at runtime.
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
            if not member.contains(v):
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
    result = MonomialIdeal(n, _minimal(found))
    if not result.contains_ideal(I):
        raise RuntimeError("integral closure lost the ideal it started from")
    return result


def is_integrally_closed(I: MonomialIdeal) -> bool:
    return newton_closure(I) == I

