"""Hilbert function of the power filtration and its h-polynomial.

HF(k) = colength(I^(k+1)) - colength(I^k) for an ideal of finite colength.
The generating series sums to h(z)/(1-z)^n with h a polynomial; h is found
by n-th finite differences of HF, declared stable after a window of n+2
consecutive zeros.  The term budget caps how far the filtration is pushed.
In two variables h must also sum to e(I), twice the area below the Newton
polygon, so the stop is exact; from three on the window alone stops, which
is unproven: a true h can have a longer run of internal zeros.

The colengths of the powers of a member of G come from its Goto form F,
with no ideal power built: the form of I^k is F^k (`gform_product`), and an
ideal of order d with form F has colength
C(d+n-1, n) + sum over primes w and j of C(alpha_(w,j)+n-2, n-1), where the
alpha_w are the prime powers of the staircase at w (`staircase_alphas`).
The class test in front of that route is the length identity of
`_family_in_C`: exact, and read off one colength and one Hilbert function
value per family member, so an ideal outside C costs next to nothing there.
Every other ideal builds its powers.

The series of a power M^c of the maximal ideal needs no ideal arithmetic
and no stop rule: colength(M^m) = C(m+n-1, n) is a polynomial in m for every
m >= 0, so HF is a polynomial in k of degree n-1 for every k >= 0, h has
degree below n, and h_0..h_(n-1) are exact from HF(0..n-1).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from math import comb

from .classes import (
    _family_in_C,
    _form_of_family,
    factor_C,
    gform_product,
    staircase_alphas,
)
from .ideals import MonomialIdeal
from .staircases import _lower_hull

DEFAULT_TERM_BUDGET = 16


class BudgetError(RuntimeError):
    """The h-polynomial did not stabilize within the term budget."""


@dataclass(frozen=True)
class HilbertSeries:
    """Numerator h of the power-filtration series h(z)/(1-z)^n."""

    n: int
    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def e(self) -> int:
        """Multiplicity: the value h(1)."""
        return sum(self.coeffs)

    def __str__(self) -> str:
        return format_h(self.coeffs)


def format_h(coeffs) -> str:
    """Render h-coefficients as a polynomial in z, e.g. `4 + z - 2*z^2`."""
    out = ""
    for j, c in enumerate(coeffs):
        if c == 0:
            continue
        z = "z" if j == 1 else f"z^{j}"
        term = str(abs(c)) if j == 0 else z if abs(c) == 1 else f"{abs(c)}*{z}"
        if out:
            out += f" {'-' if c < 0 else '+'} {term}"
        else:
            out = f"-{term}" if c < 0 else term
    return out or "0"


def _require_filterable(I: MonomialIdeal) -> None:
    if I.is_zero() or I.is_unit():
        raise ValueError("power filtration needs a nonzero proper ideal")
    if I.colength() is None:
        raise ValueError("ideal does not have finite colength")


def _power_colengths(I: MonomialIdeal):
    """colength(I^k) for k = 1, 2, ...: from the powers of the Goto form of
    a member of G, else from the powers of I, each built when asked for."""
    fam, _ = _family_in_C(I)
    form = None if fam is None else _form_of_family(I, fam)[0]
    if form is None:
        power = I
        while True:
            yield power.colength()
            power = power * I
    n = I.n
    power = form
    while True:
        yield comb(power.order + n - 1, n) + sum(
            comb(a + n - 2, n - 1)
            for _, stair in power.components
            for a in staircase_alphas(stair)
        )
        power = gform_product(power, form)


def _hull_multiplicity(I: MonomialIdeal) -> int:
    """e(I) for I of finite colength in two variables: twice the area below
    its Newton polygon, sum |det(p, q)| over consecutive hull vertices."""
    hull = _lower_hull(sorted(I.gens))
    return sum(abs(p[0] * q[1] - p[1] * q[0]) for p, q in zip(hull, hull[1:]))


def _h_coefficient(n: int, hf: list[int], j: int) -> int:
    """h_j = sum_i (-1)^i C(n,i) HF(j-i) of the series h(z)/(1-z)^n."""
    return sum((-1) ** i * comb(n, i) * hf[j - i] for i in range(min(j, n) + 1))


def _h_of_colengths(n: int, colengths, budget: int, e: int | None) -> HilbertSeries:
    """h-coefficients from the colengths of the first filtration terms.

    h_j is read off HF(0..j); the sequence is accepted once n+2
    consecutive values vanish after a nonzero one and, unless e is None,
    the values sum to the multiplicity e.  At most budget + 1
    colengths are drawn, and the budget is checked before each draw.
    """
    hf: list[int] = []
    coeffs: list[int] = []
    prev = zeros = 0
    for j, cur in zip(range(budget + 1), colengths):
        hf.append(cur - prev)
        prev = cur
        coeffs.append(_h_coefficient(n, hf, j))
        zeros = zeros + 1 if coeffs[-1] == 0 else 0
        if zeros >= n + 2 and any(coeffs) and (e is None or sum(coeffs) == e):
            while coeffs[-1] == 0:
                coeffs.pop()
            return HilbertSeries(n, tuple(coeffs))
    raise BudgetError(
        f"h-polynomial did not stabilize within {budget} filtration "
        "terms; raise the term budget"
    )


def hf_filtration(I: MonomialIdeal, count: int) -> list[int]:
    """First `count` values of k -> colength(I^(k+1)) - colength(I^k)."""
    _require_filterable(I)
    if count < 0:
        raise ValueError("negative count")
    colengths = list(islice(_power_colengths(I), count))
    return [cur - prev for prev, cur in zip([0] + colengths, colengths)]


def h_polynomial(
    I: MonomialIdeal, budget: int = DEFAULT_TERM_BUDGET
) -> HilbertSeries:
    """h-coefficients of the power filtration of I, budget-bounded; the stop
    is exact in two variables only (see the module docstring)."""
    _require_filterable(I)
    e = _hull_multiplicity(I) if I.n == 2 else None
    return _h_of_colengths(I.n, _power_colengths(I), budget, e)


def _series_of_max_power(n: int, c: int) -> HilbertSeries:
    """h of M^c from colength(M^(ck)) = C(ck+n-1, n); no power is built, and
    h_j is read for j < n only."""
    if c == 0:
        raise ValueError("zero-th power of the maximal ideal is not proper")
    hf = [comb(c * k + c + n - 1, n) - comb(c * k + n - 1, n) for k in range(n)]
    h = [_h_coefficient(n, hf, j) for j in range(n)]
    while h[-1] == 0:
        h.pop()
    return HilbertSeries(n, tuple(h))


def hs_via_factorization(
    I: MonomialIdeal, budget: int = DEFAULT_TERM_BUDGET
) -> HilbertSeries:
    """h of a member of C from its factorization:
    h(I) = sum h(L_j) + h(M^d) - sum h(M^(d_j))."""
    fac = factor_C(I)
    n, d = I.n, I.order
    acc: list[int] = []

    def add(coeffs, sign):
        while len(acc) < len(coeffs):
            acc.append(0)
        for k, c in enumerate(coeffs):
            acc[k] += sign * c

    add(_series_of_max_power(n, d).coeffs, 1)
    for L in fac.factors:
        add(h_polynomial(L, budget).coeffs, 1)
        add(_series_of_max_power(n, L.order).coeffs, -1)
    while acc and acc[-1] == 0:
        acc.pop()
    return HilbertSeries(n, tuple(acc))


def multiplicity_e(I: MonomialIdeal, budget: int = DEFAULT_TERM_BUDGET) -> int:
    """Multiplicity h(1) of the power filtration.  On a member of C it
    equals the factored e = sum e(L_j) + d^n - sum d_j^n of
    `hs_via_factorization`; the tests compare the two."""
    return h_polynomial(I, budget).e


def h_degree_check(I: MonomialIdeal, budget: int = DEFAULT_TERM_BUDGET) -> bool:
    """Whether deg h <= n - 1, as expected on integrally closed Goto-form
    ideals."""
    return h_polynomial(I, budget).degree <= I.n - 1
