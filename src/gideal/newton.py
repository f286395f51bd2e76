"""Integral closure of monomial ideals via exact Newton-polyhedron tests.

A monomial x^v lies in the integral closure of I exactly when v is
componentwise above a convex combination of the exponent vectors of I.
Membership is decided by an exact integer simplex.  Each solve caches its
optimal basis with its dual (w, c), scaled to integers.  The dual is
feasible for every point, so w.v < c puts v outside.  The reduced costs do
not depend on the point, so the basis stays optimal for every point in its
cone (where it stays feasible), and there w.v >= c puts v inside.  The
simplex runs only for points that no cached dual rejects and no cached
basis covers.

The closure is found column by column along the last exponent.  The
closure is an ideal, so the height of a column (its least member) never
increases as the other exponents grow.  Each column starts at the least
of the heights of its neighbours one step lower, the generator of I in
the column and a degree cap, a point that is a member or lies past the
cap.  The walk queries downward from there and stops at the first point
outside, so no query is a point of I and membership needs no
divisibility scan.  Minimal generators have degree at most D + n - 1 for
the largest generator degree D, which caps the heights and makes the
walk finite.  Heights are kept for only two values of the first
exponent, so memory grows with the number of generators found, not with
the number of columns walked.
"""

from __future__ import annotations

from math import gcd
from operator import mul

from .ideals import MonomialIdeal, mono_deg
from .lp import max_convex_cover


class NewtonMembership:
    """Membership oracle for conv(gens(I)) + the non-negative orthant, with
    one cached list of optimal bases whose duals both reject and decide."""

    def __init__(self, ideal: MonomialIdeal):
        if ideal.is_zero():
            raise ValueError("the zero ideal has no Newton polyhedron")
        self.ideal = ideal
        self._unit = ideal.is_unit()
        self.columns = list(ideal.gens)
        # optimal bases (R, w, c) of earlier solves: w.v < c puts v outside,
        # and where R.v >= 0 the basis stays optimal and w.v >= c decides
        self._bases: list[tuple[tuple[tuple[int, ...], ...], tuple[int, ...], int]] = []

    def contains(self, v: tuple[int, ...]) -> bool:
        if self._unit:
            return True
        # a dual never rejects a point of the polyhedron, so the cheap test
        # goes first, newest first: the walk queries near the last solve
        if any(sum(map(mul, w, v)) < c for _, w, c in reversed(self._bases)):
            return False
        if mono_deg(v) < self.ideal.order:
            return False
        # no dual rejects v, so a basis that stays optimal at v puts it inside
        for R, _, _ in self._bases:
            if all(sum(map(mul, r, v)) >= 0 for r in R):
                return True
        opt, dual, R = max_convex_cover(self.columns, tuple(v))
        den = 1
        for y in dual:
            den = den * y.denominator // gcd(den, y.denominator)
        self._bases.append((R, tuple(int(y * den) for y in dual), den))
        return opt >= 1


def newton_closure(I: MonomialIdeal) -> MonomialIdeal:
    """The integral closure of a nonzero monomial ideal.

    The walk runs over columns: a prefix p = v[:-1] names the column of
    points (p, z), and its height h(p) is the least z with (p, z) in the
    closure.  The closure is an ideal, so h(p) <= h(p - e_i): heights never
    increase along p.  A column starts at a point known to be a member, the
    least of h(p - e_i) over i with p_i > 0 and of the last exponent of the
    generator of I with prefix p (minimal generators have distinct
    prefixes), and queries downward until the first point outside.  No
    queried point (p, z) lies in I: z is below the generator with prefix
    p, and a generator (q, w) with q < p has q <= p - e_i for some i, so
    z < h(p - e_i) <= w.  (p, h(p)) is a minimal generator exactly when
    h(p) < h(p - e_i) for every i with p_i > 0.

    Every minimal generator has degree at most D + n - 1, where D is the
    largest generator degree: a lattice point of the Newton polyhedron with
    total slack n or more over its witness combination can be decremented
    in some coordinate.  So no point above degree D + n is queried: the
    walk counts them as members, which caps every height at D + n + 1 - |p|
    and makes the prefixes of positive height a finite down-set.  Those are
    walked in lex order, and a coordinate's loop ends at its first column
    of height 0.  So the result contains I by construction: a generator
    (p, w) of I has h(p) <= w when its column is walked, since the column
    starts at or below w, and lies above a walked column of height 0
    otherwise.  A minimal generator of degree D + n raises, re-asserting
    the bound at runtime.  Heights are kept for two values of the first
    exponent, the current and the previous one, since every p - e_i has
    one of those.
    """
    if I.is_zero() or I.is_unit():
        return I
    n, m = I.n, I.n - 1
    contains = NewtonMembership(I).contains
    top = I.max_degree + n
    own = {g[:-1]: g[-1] for g in I.gens}
    found: list[tuple[int, ...]] = []
    prev: dict[tuple[int, ...], int] = {}
    cur: dict[tuple[int, ...], int] = {}
    p = [0] * m
    while True:
        prefix = tuple(p)
        key = prefix[1:]
        # the least height of a column p - e_i; top + 1 stands for none
        below = prev.get(key, 0) if p and p[0] else top + 1
        for i in range(1, m):
            if p[i]:
                below = min(below, cur.get(key[: i - 1] + (p[i] - 1,) + key[i:], 0))
        deg = sum(p)
        z = min(below, own.get(prefix, below), top + 1 - deg)
        while z and contains(prefix + (z - 1,)):
            z -= 1
        cur[key] = z
        if z < below and deg + z <= top:
            if deg + z == top:
                raise RuntimeError("integral closure generated above the degree bound")
            found.append(prefix + (z,))
        # next prefix in lex order: the last coordinate while the height is
        # positive, else end the loop of the last nonzero coordinate
        k = m - 1 if z else max((i for i in range(m) if p[i]), default=-1) - 1
        if k < 0:
            break
        p[k + 1 :] = [0] * (m - k - 1)
        p[k] += 1
        if k == 0:
            prev, cur = cur, {}
    # each minimal generator is found once; put them in canonical order
    found.sort(key=lambda v: (sum(v), v))
    return MonomialIdeal(n, tuple(found))


def is_integrally_closed(I: MonomialIdeal) -> bool:
    return newton_closure(I) == I

