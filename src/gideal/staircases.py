"""Staircase calculus for ideals of the shape sum_i P^(d-i) * l^(a_i).

A staircase is a strictly increasing integer sequence starting at 0.  The
product of two such ideals convolves their staircases in min-plus
arithmetic, integral closure is the ceiling of the lower convex hull of the
staircase points, and the closed staircases factor uniquely into a power of
the maximal ideal and simple pieces J(d, t) with d < t coprime, read off the
edges of that same hull.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import index, lt


@dataclass(frozen=True)
class Staircase:
    steps: tuple[int, ...]

    def __post_init__(self):
        a = self.steps
        if type(a) is not tuple:
            # the package passes tuples; other sequences are stored as one
            a = tuple(a)
            object.__setattr__(self, "steps", a)
        if not a or index(a[0]) != 0:
            raise ValueError("staircase must start at 0")
        if not all(map(lt, a, map(index, a[1:]))):
            raise ValueError("staircase must be strictly increasing")

    @classmethod
    def m_power(cls, c: int) -> "Staircase":
        """The staircase of M^c: unit steps 0, 1, ..., c."""
        return cls(tuple(range(c + 1)))

    @property
    def d(self) -> int:
        return len(self.steps) - 1

    @property
    def top(self) -> int:
        return self.steps[-1]

    def __getitem__(self, i: int) -> int:
        return self.steps[i]

    def __mul__(self, other: "Staircase") -> "Staircase":
        return minplus_product(self, other)

    def __pow__(self, k: int) -> "Staircase":
        return minplus_power(self, k)


def minplus_product(a: Staircase, b: Staircase) -> Staircase:
    """c_j = min over r + s = j of a_r + b_s."""
    da, db = a.d, b.d
    out = []
    for j in range(da + db + 1):
        out.append(
            min(a[r] + b[j - r] for r in range(max(0, j - db), min(da, j) + 1))
        )
    return Staircase(tuple(out))


def minplus_power(a: Staircase, k: int) -> Staircase:
    if k < 1:
        raise ValueError("power must be positive")
    out = a
    for _ in range(k - 1):
        out = minplus_product(out, a)
    return out


def _lower_hull(points: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Lower convex hull of points with strictly increasing x (exact)."""
    hull: list[tuple[int, int]] = []
    for p in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def _hull_ceiling(hull: list[tuple[int, int]]) -> tuple[int, ...]:
    """Ceilings of the piecewise-linear hull at x = 0, 1, ..., last x; the
    first vertex must sit at x = 0."""
    out = [hull[0][1]]
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        dx, dy = x2 - x1, y2 - y1
        # y1 + ceil(dy * j / dx), in integers
        out.extend(y1 - (-dy * j // dx) for j in range(1, dx + 1))
    return tuple(out)


def closure_seq(a: Staircase) -> Staircase:
    """Integral closure: the degreewise ceiling of the lower convex hull of
    the points (i, a_i), in O(d)."""
    return Staircase(_hull_ceiling(_lower_hull(list(enumerate(a.steps)))))


def jdt_seq(d: int, t: int) -> Staircase:
    """The staircase of the closure of P^d + M^t: a_i = ceil(i*t/d)."""
    if not 1 <= d <= t:
        raise ValueError("need 1 <= d <= t")
    return Staircase(tuple(-(-i * t // d) for i in range(d + 1)))


def recognize_simple(a: Staircase) -> tuple[int, int] | None:
    """Return (d, t) when a is the simple staircase J(d, t), else None."""
    d = a.d
    if d < 1:
        return None
    t = a.top
    if t <= d or gcd(d, t) != 1:
        return None
    if a == jdt_seq(d, t):
        return (d, t)
    return None


@dataclass(frozen=True)
class SimpleFactorization:
    """m_power copies of the unit staircase times simple factors.

    factors holds (d, t, multiplicity) with d < t coprime, sorted.
    """

    m_power: int
    factors: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if self.m_power < 0:
            raise ValueError("negative maximal-ideal power")
        for d, t, mult in self.factors:
            if not (1 <= d < t and gcd(d, t) == 1 and mult >= 1):
                raise ValueError(f"invalid simple factor ({d}, {t}, {mult})")

    def reconstruct(self) -> Staircase:
        out = Staircase.m_power(self.m_power)
        for d, t, mult in self.factors:
            piece = jdt_seq(d, t)
            for _ in range(mult):
                out = minplus_product(out, piece)
        return out


def factor_simple(a: Staircase) -> SimpleFactorization:
    """Unique factorization of a closed staircase into simple pieces.

    Each maximal edge of the lower hull with primitive direction (p, q)
    repeated g times contributes g to the maximal-ideal power when p == q
    and otherwise the simple factor (p, q) with multiplicity g.  The input
    is closed exactly when it is the degreewise ceiling of that hull, and
    then the pieces multiply back to it (`SimpleFactorization.reconstruct`):
    a product of closed staircases is closed (Zariski), and its hull
    joins the hull edges of the factors in order of slope.
    """
    hull = _lower_hull(list(enumerate(a.steps)))
    if _hull_ceiling(hull) != a.steps:
        raise ValueError("staircase is not integrally closed")
    m_power = 0
    factors: dict[tuple[int, int], int] = {}
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        dx, dy = x2 - x1, y2 - y1
        g = gcd(dx, dy)
        p, q = dx // g, dy // g
        if p == q == 1:
            m_power += g
        else:
            factors[(p, q)] = factors.get((p, q), 0) + g
    return SimpleFactorization(
        m_power, tuple((d, t, factors[(d, t)]) for d, t in sorted(factors))
    )
