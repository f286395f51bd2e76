"""Exact combinatorics of monomial ideals of K[x_1,...,x_n].

A monomial is an exponent tuple of length n.  A MonomialIdeal stores the
unique divisibility-minimal generating set, sorted by degree and then
lexicographically, so structural equality coincides with ideal equality.
The zero ideal has no generators; the unit ideal is generated by 1, the
all-zero tuple.  Exponents are Python ints, so sums, products, powers and
lcms are exact at any size; every minimalization goes through `_minimal`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from operator import add, index

Monomial = tuple[int, ...]

# Bound on the exponents a caller may pass in; it rejects absurd input early.
# Results computed from valid input may exceed it: the arithmetic is exact.
EXPONENT_LIMIT = 1 << 31


class AmbientMismatch(ValueError):
    """Operands live in polynomial rings with different variable counts."""


def mono_deg(m: Monomial) -> int:
    return sum(m)


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _check_monomial(n: int, m) -> Monomial:
    t = tuple(map(index, m))
    if len(t) != n:
        raise AmbientMismatch(f"monomial {m!r} does not have {n} exponents")
    if any(e < 0 for e in t):
        raise ValueError(f"negative exponent in monomial {m!r}")
    if any(e >= EXPONENT_LIMIT for e in t):
        raise OverflowError(f"exponent out of range in monomial {m!r}")
    return t


@lru_cache(maxsize=None)
def monomials_of_degree(n: int, d: int) -> tuple[Monomial, ...]:
    """All exponent vectors of total degree d in n variables, lex sorted."""
    if n < 1 or d < 0:
        raise ValueError("need n >= 1 and d >= 0")
    if n == 1:
        return ((d,),)
    out = []
    for e in range(d + 1):
        for rest in monomials_of_degree(n - 1, d - e):
            out.append((e,) + rest)
    return tuple(sorted(out))


def _minimal(gens) -> tuple[Monomial, ...]:
    """Divisibility-minimal monomials of gens, sorted by (degree, lex).

    The sweep runs in lex order, where a divisor comes before its multiples,
    so a monomial is kept unless an already kept one divides it.  Every kept
    monomial has a first exponent no larger than the current one.  The kept
    ones are grouped by their middle exponents m[1:-2]; inside a group the
    last two exponents form a staircase (first rising, second falling) whose
    only possible divisor of (x, y) is the last step with first exponent <= x.
    A candidate looks up its own group and tests that step inline.  Only
    for n >= 4 are there other groups; then each one whose middle exponents
    divide the candidate's is tested the same way.  At n = 4 the keys are
    kept sorted, so those are the keys below the candidate's and no other
    group is visited.  The sweep keeps the monomials in lex order, so a
    stable sort by degree gives (degree, lex).
    """
    ms = sorted(set(gens))
    if not ms or len(ms[0]) < 2:
        return tuple(ms[:1])
    groups: dict[Monomial, tuple[list[int], list[int]]] = {}
    # at n = 4, the keys of `groups` in sorted order
    keys: list[Monomial] | None = [] if len(ms[0]) == 4 else None
    kept = []
    for m in ms:
        mid, x, y = m[1:-2], m[-2], m[-1]
        own = groups.get(mid)
        if own is not None:
            xs, neg_ys = own
            i = bisect_right(xs, x)
            if i and -neg_ys[i - 1] <= y:
                continue
        if len(groups) > (own is not None) and _under_other_group(
            groups, keys, mid, x, y
        ):
            continue
        kept.append(m)
        if own is None:
            own = groups[mid] = ([], [])
            if keys is not None:
                insort(keys, mid)
        xs, neg_ys = own
        # drop the steps that (x, y) dominates, then insert it
        lo = bisect_right(xs, x - 1)
        hi = bisect_right(neg_ys, -y, lo)
        xs[lo:hi] = [x]
        neg_ys[lo:hi] = [-y]
    kept.sort(key=sum)
    return tuple(kept)


def _under_other_group(
    groups: dict[Monomial, tuple[list[int], list[int]]],
    keys: list[Monomial] | None,
    mid: Monomial,
    x: int,
    y: int,
) -> bool:
    """Whether a kept monomial outside the group `mid` divides (mid, x, y).

    Only a group whose key divides `mid` can hold one.  With one middle
    exponent, given the sorted `keys`, those are the keys below `mid`;
    otherwise each group's key is tested.
    """
    if keys is not None:
        under = keys[: bisect_left(keys, mid)]
    else:
        under = [k for k in groups if k != mid and mono_divides(k, mid)]
    for key in under:
        xs, neg_ys = groups[key]
        i = bisect_right(xs, x)
        if i and -neg_ys[i - 1] <= y:
            return True
    return False


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal given by its minimal generators (canonical order)."""

    n: int
    gens: tuple[Monomial, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("ambient ring needs at least one variable")

    @classmethod
    def of(cls, n: int, gens) -> "MonomialIdeal":
        """Build an ideal from any generating set; minimalizes and sorts."""
        return cls(n, _minimal(_check_monomial(n, m) for m in gens))

    @classmethod
    def zero(cls, n: int) -> "MonomialIdeal":
        return cls(n, ())

    @classmethod
    def unit(cls, n: int) -> "MonomialIdeal":
        return cls(n, ((0,) * n,))

    @classmethod
    def maximal(cls, n: int) -> "MonomialIdeal":
        """The irrelevant ideal M = (x_1, ..., x_n)."""
        return cls.max_power(n, 1)

    @classmethod
    def max_power(cls, n: int, d: int) -> "MonomialIdeal":
        """M^d, minimally generated by all monomials of degree d."""
        if d < 0:
            raise ValueError("negative power")
        return cls(n, monomials_of_degree(n, d))

    # -- basic shape ---------------------------------------------------

    @property
    def mu(self) -> int:
        """Number of minimal generators."""
        return len(self.gens)

    @property
    def order(self) -> int | None:
        """Least degree of a generator; None for the zero ideal."""
        if not self.gens:
            return None
        return mono_deg(self.gens[0])

    @property
    def max_degree(self) -> int | None:
        if not self.gens:
            return None
        return mono_deg(self.gens[-1])

    def is_zero(self) -> bool:
        return not self.gens

    def is_unit(self) -> bool:
        return bool(self.gens) and mono_deg(self.gens[0]) == 0

    def is_proper(self) -> bool:
        return not self.is_unit()

    def contains_monomial(self, m) -> bool:
        v = _check_monomial(self.n, m)
        return any(mono_divides(g, v) for g in self.gens)

    def contains_ideal(self, other: "MonomialIdeal") -> bool:
        self._match(other)
        return all(any(mono_divides(g, h) for g in self.gens) for h in other.gens)

    def __le__(self, other: "MonomialIdeal") -> bool:
        return other.contains_ideal(self)

    def _match(self, other: "MonomialIdeal"):
        if not isinstance(other, MonomialIdeal):
            raise TypeError(f"expected a MonomialIdeal, got {other!r}")
        if self.n != other.n:
            raise AmbientMismatch(f"ambient sizes differ: {self.n} vs {other.n}")

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._match(other)
        return MonomialIdeal(self.n, _minimal(self.gens + other.gens))

    def __mul__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._match(other)
        prods = [tuple(map(add, a, b)) for a in self.gens for b in other.gens]
        return MonomialIdeal(self.n, _minimal(prods))

    def __and__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """Intersection: generated by pairwise lcms."""
        self._match(other)
        lcms = [tuple(map(max, a, b)) for a in self.gens for b in other.gens]
        return MonomialIdeal(self.n, _minimal(lcms))

    def __pow__(self, k: int) -> "MonomialIdeal":
        if k < 0:
            raise ValueError("negative ideal power")
        result = MonomialIdeal.unit(self.n)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    # -- saturation ------------------------------------------------------

    def saturate_var(self, i: int) -> "MonomialIdeal":
        """The colon ideal I : x_i^infinity (x_i-exponents zeroed out)."""
        if not 0 <= i < self.n:
            raise ValueError(f"variable index {i} out of range")
        zeroed = [g[:i] + (0,) + g[i + 1 :] for g in self.gens]
        return MonomialIdeal(self.n, _minimal(zeroed))

    def saturate(self) -> "MonomialIdeal":
        """I : M^infinity, the intersection of all I : x_i^infinity."""
        out = self.saturate_var(0)
        for i in range(1, self.n):
            out = out & self.saturate_var(i)
        return out

    # -- counting --------------------------------------------------------

    def colength(self) -> int | None:
        """Number of monomials outside the ideal; None when infinite.

        The colength is finite exactly when every variable has a pure power
        among the generators.  A minimal generating set holds at most one
        pure power per variable, so that is one pass: exactly n generators
        have n - 1 zero exponents.  Then the series K(z) / (1 - z)^n of
        `_numerator` is a polynomial P(z), and the colength is P(1).  As
        K = P * (1 - z)^n, the n-th derivative gives
        P(1) = (-1)^n * sum_k K_k * C(k, n).
        """
        if self.is_zero():
            return None
        if self.is_unit():
            return 0
        if [g.count(0) for g in self.gens].count(self.n - 1) != self.n:
            return None
        n = self.n
        return (-1) ** n * sum(c * comb(k, n) for k, c in _numerator(self.gens, n))

    def hilbert_function(self, t: int) -> int:
        """Number of degree-t monomials not in the ideal.

        The series sum_t HF(t) z^t is K(z) / (1 - z)^n for the polynomial K
        of `_numerator`, and 1 / (1 - z)^n has coefficients C(t+n-1, n-1).
        """
        if t < 0:
            raise ValueError("negative degree")
        n = self.n
        return sum(
            c * comb(t - k + n - 1, n - 1)
            for k, c in _numerator(self.gens, n)
            if k <= t
        )

    # -- primes ----------------------------------------------------------

    def minimal_primes(self) -> tuple[frozenset[int], ...]:
        """Minimal primes, as minimal transversals of generator supports."""
        if self.is_zero() or self.is_unit():
            raise ValueError("minimal primes need a nonzero proper ideal")
        supports = [frozenset(i for i, e in enumerate(g) if e) for g in self.gens]
        found: set[frozenset[int]] = set()

        def extend(chosen: frozenset, rest: list[frozenset]):
            rest = [s for s in rest if not (s & chosen)]
            if not rest:
                found.add(chosen)
                return
            for v in sorted(rest[0]):
                extend(chosen | {v}, rest[1:])

        extend(frozenset(), supports)
        minimal = [s for s in found if not any(t < s for t in found)]
        return tuple(sorted(minimal, key=lambda s: (len(s), sorted(s))))

    def dimension(self) -> int:
        """Krull dimension of the quotient ring."""
        return self.n - min(len(s) for s in self.minimal_primes())


@dataclass(frozen=True, order=True)
class CoordinatePrime:
    """The monomial prime generated by all variables except one."""

    omitted: int

    def ideal(self, n: int) -> MonomialIdeal:
        return self.power(n, 1)

    def power(self, n: int, a: int) -> MonomialIdeal:
        if not 0 <= self.omitted < n:
            raise ValueError(f"omitted index {self.omitted} out of range")
        if a < 0:
            raise ValueError("negative power")
        if a == 0:
            return MonomialIdeal.unit(n)
        gens = []
        for m in monomials_of_degree(n - 1, a):
            gens.append(m[: self.omitted] + (0,) + m[self.omitted :])
        return MonomialIdeal(n, tuple(sorted(gens)))


# -- staircase counting (one sweep over the first exponent) ---------------


@lru_cache(maxsize=None)
def _numerator(gens: tuple[Monomial, ...], n: int) -> tuple[tuple[int, int], ...]:
    """(t, coefficient) pairs of K(z) = (1 - z)^n * sum_t HF(t) z^t, for
    minimal gens.

    In one or two variables the generators in lex order resolve the ideal
    with the lcms of neighbours as syzygies, so
    K = 1 - sum z^deg(g) + sum z^deg(lcm).  From three on, x_0^e * m lies
    outside exactly when m lies outside the slice at e, so a slice holding
    on [lo, hi) adds its own series times (z^lo - z^hi) / (1 - z).
    """
    out: Counter[int] = Counter()
    if n <= 2:
        s = sorted(gens)
        out[0] += 1
        for a in s:
            out[sum(a)] -= 1
        for a, b in zip(s, s[1:]):
            out[b[0] + a[1]] += 1
    else:
        # the slice at e is generated by the tails of the generators with
        # first exponent <= e: the previous slice plus the tails at e
        levels: dict[int, list[Monomial]] = {0: []}
        for g in gens:
            levels.setdefault(g[0], []).append(g[1:])
        cuts = sorted(levels)
        sl = ()
        for lo, hi in zip(cuts, cuts[1:] + [None]):
            sl = _minimal(sl + tuple(levels[lo]))
            for t, c in _numerator(sl, n - 1):
                out[t + lo] += c
                if hi is not None:
                    out[t + hi] -= c
    return tuple(sorted((t, c) for t, c in out.items() if c))


# -- localization and regularity ------------------------------------------


def localize_power(Q: MonomialIdeal, prime: CoordinatePrime) -> int | None:
    """Power a with Q R_P ∩ R = P^a, or None when not a prime power.

    The localization of a monomial ideal at a coordinate prime P, contracted
    back to R, is its saturation at the omitted variable (`_prime_power`).
    """
    if Q.n < 2:
        raise ValueError("localization needs at least two variables")
    if Q.is_zero() or Q.is_unit():
        raise ValueError("localization needs a nonzero proper ideal")
    w = prime.omitted
    if not 0 <= w < Q.n:
        raise ValueError(f"omitted index {w} out of range")
    return _prime_power(Q.saturate_var(w))


def _prime_power(loc: MonomialIdeal) -> int | None:
    """a when loc, generated in the variables of a coordinate prime P, is
    P^a: all C(a+n-2, n-2) monomials of degree a; else None."""
    a = loc.order
    if loc.max_degree == a and loc.mu == comb(a + loc.n - 2, loc.n - 2):
        return a
    return None


def reg_dim1_saturated(Q: MonomialIdeal) -> tuple[int, int]:
    """(regularity of Q, multiplicity of R/Q) for saturated Q of dimension 1.

    The Hilbert function of R/Q is non-decreasing and eventually constant;
    the regularity of Q is the first degree where it has stabilised and the
    stable value is the multiplicity.
    """
    if Q.saturate() != Q:
        raise ValueError("ideal is not saturated")
    if Q.dimension() != 1:
        raise ValueError("quotient does not have dimension 1")
    return _reg_dim1(Q)


def _reg_dim1(Q: MonomialIdeal) -> tuple[int, int]:
    """`reg_dim1_saturated` of a Q known to be saturated of dimension 1.

    R/Q is then Cohen-Macaulay, so P = K / (1 - z)^(n-1) for K of
    `_numerator` is its h-vector, with HF(t) = P_0 + ... + P_t and no
    internal zeros (Macaulay).  So HF first stops growing at deg P + 1 =
    deg K - n + 2, at P(1) = (-1)^(n-1) * sum_k K_k * C(k, n-1).
    """
    n = Q.n
    K = _numerator(Q.gens, n)
    return K[-1][0] - n + 2, (-1) ** (n - 1) * sum(c * comb(k, n - 1) for k, c in K)
