"""Integral closure of monomial ideals from the facets of the Newton polyhedron.

A monomial x^v lies in the integral closure of I exactly when v lies in
the Newton polyhedron NP(I), the convex hull of the exponent vectors of
I plus the non-negative orthant.  Its facets other than the coordinate
hyperplanes are the inequalities w.v >= c, with c > 0, that are extreme
rays (w, c) of the cone {w >= 0, w.g >= c for every generator g}.
`_facets` finds those rays by the double description method in exact
integers (Motzkin et al. 1953; Fukuda and Prodon 1996), so membership is
one dot product per facet and no linear program is solved.

The closure is found column by column along the last exponent.  The
height of a column, its least member, is read off the facets in closed
form.  The closure is an ideal, so heights never increase as the other
exponents grow, and a column is a minimal generator's exactly when its
height is below those of its neighbours one step lower.  Minimal
generators have degree at most D + n - 1 for the largest generator
degree D, which caps the heights and makes the walk finite.  Heights are
kept for only two values of the first exponent, so memory grows with
the number of generators found, not with the number of columns walked.
"""

from __future__ import annotations

from math import gcd
from operator import mul

from .ideals import MonomialIdeal


def _facets(gens, n: int) -> list[tuple[tuple[int, ...], int]]:
    """The facets (w, c) of NP(gens) with c > 0, each as the primitive
    integer vector with w.v >= c on NP and equality on the facet.

    Double description on the cone of (w, c) in n + 1 dimensions.  The
    first cone is cut by the n rows w_i >= 0 and the first generator; it
    is simplicial, with rays (e_i, g_i) and (0, -1).  Each further
    generator g cuts by w.g - c >= 0: rays on its non-negative side stay,
    and each adjacent pair of rays on opposite sides is joined into one
    ray on the cut.  Two rays are adjacent exactly when no third ray is
    tight at every constraint tight at both, which is read off bitmasks of
    tight constraints (bit i for w_i >= 0, bit n + j for generator j).
    The cone is pointed, so its extreme rays generate it; those with
    c <= 0 are (e_i, 0) and (0, -1), which state only v >= 0.
    """
    first = gens[0]
    full = (1 << (n + 1)) - 1
    rays = [
        ((0,) * i + (1,) + (0,) * (n - 1 - i) + (first[i],), full ^ (1 << i))
        for i in range(n)
    ]
    rays.append(((0,) * n + (-1,), full >> 1))
    for j, g in enumerate(gens[1:], n + 1):
        bit = 1 << j
        cut = [sum(map(mul, r, g)) - r[n] for r, _ in rays]
        kept = [(r, z | bit if s == 0 else z) for (r, z), s in zip(rays, cut) if s >= 0]
        masks = [z for _, z in rays]
        neg = [(k, q, zq, s) for k, ((q, zq), s) in enumerate(zip(rays, cut)) if s < 0]
        for i, ((p, zp), sp) in enumerate(zip(rays, cut)):
            if sp <= 0:
                continue
            for k, q, zq, sq in neg:
                common = zp & zq
                if common.bit_count() < n - 1 or any(
                    z & common == common for h, z in enumerate(masks) if h != i and h != k
                ):
                    continue
                ray = [sp * b - sq * a for a, b in zip(p, q)]
                d = gcd(*ray)
                kept.append((tuple(x // d for x in ray), common | bit))
        rays = kept
    return [(r[:n], r[n]) for r, _ in rays if r[n] > 0]


def newton_closure(I: MonomialIdeal) -> MonomialIdeal:
    """The integral closure of a nonzero monomial ideal.

    The walk runs over columns: a prefix p = v[:-1] names the column of
    points (p, z), and its height h(p) is the least z with (p, z) in the
    closure.  A facet (w, c), split as w = (w', w_n), holds at (p, z)
    exactly when w_n * z >= c - w'.p.  So when w_n > 0 it asks
    z >= ceil((c - w'.p) / w_n), and h(p) is the largest of those bounds,
    or 0.  A facet with w_n = 0 asks w'.p >= c whatever z is, and when it
    fails the column holds no point of the closure; such facets occur
    only when I is not m-primary.  The closure is an ideal, so
    h(p) <= h(p - e_i): heights never increase along p, and (p, h(p)) is a
    minimal generator exactly when h(p) < h(p - e_i) for every i with
    p_i > 0.

    Every minimal generator has degree at most D + n - 1, where D is the
    largest generator degree: a lattice point of the Newton polyhedron with
    total slack n or more over its witness combination can be decremented
    in some coordinate.  So every height is capped at D + n + 1 - |p|, an
    empty column included, which makes the prefixes of positive height a
    finite down-set.  Those are walked in lex order, and a coordinate's
    loop ends at its first column of height 0.  The result contains I: a
    generator (p, w) of I lies in the Newton polyhedron and below the cap,
    so h(p) <= w when its column is walked, and it lies above a walked
    column of height 0 otherwise.  A minimal generator of degree D + n
    raises, re-asserting the bound at runtime.  Heights are kept for two
    values of the first exponent, the current and the previous one, since
    every p - e_i has one of those.
    """
    if I.is_zero() or I.is_unit():
        return I
    n, m = I.n, I.n - 1
    top = I.max_degree + n
    # a facet with w_n > 0 bounds every height from below; one with
    # w_n = 0 leaves the columns it cuts off at the cap
    walls, floors = [], []
    for w, c in _facets(I.gens, n):
        if w[-1]:
            floors.append((w[:-1], w[-1], c - 1))
        else:
            walls.append((w[:-1], c))
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
        z = top + 1 - deg
        if not walls or all(sum(map(mul, w, p)) >= c for w, c in walls):
            h = 0
            for w, wn, c in floors:
                # ceil((c - w'.p) / w_n), from c - 1 stored in floors
                t = (c - sum(map(mul, w, p))) // wn + 1
                if t > h:
                    h = t
            z = min(z, h)
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
