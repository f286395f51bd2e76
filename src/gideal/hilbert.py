"""Hilbert function of the power filtration and its h-polynomial.

HF(k) = colength(I^(k+1)) - colength(I^k) for an ideal of finite colength.
The generating series sums to h(z)/(1-z)^n with h a polynomial; h is found
by n-th finite differences of HF, declared stable after a window of n+2
consecutive zeros.  The term budget caps how far the filtration is pushed.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .classes import factor_C, is_in_C
from .ideals import MonomialIdeal

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
    """Render h-coefficients as a polynomial in z, e.g. `4 + z + 2*z^2`."""
    parts = []
    for j, c in enumerate(coeffs):
        if c == 0:
            continue
        if j == 0:
            parts.append(str(c))
        else:
            z = "z" if j == 1 else f"z^{j}"
            parts.append(z if c == 1 else f"{c}*{z}")
    return " + ".join(parts) if parts else "0"


def _require_filterable(I: MonomialIdeal) -> None:
    if I.is_zero() or I.is_unit():
        raise ValueError("power filtration needs a nonzero proper ideal")
    if I.colength() is None:
        raise ValueError("ideal does not have finite colength")


def hf_filtration(I: MonomialIdeal, count: int) -> list[int]:
    """First `count` values of k -> colength(I^(k+1)) - colength(I^k)."""
    _require_filterable(I)
    if count < 0:
        raise ValueError("negative count")
    out = []
    power = MonomialIdeal.unit(I.n)
    prev = 0
    for _ in range(count):
        power = power * I
        cur = power.colength()
        out.append(cur - prev)
        prev = cur
    return out


def h_polynomial(
    I: MonomialIdeal, budget: int = DEFAULT_TERM_BUDGET
) -> HilbertSeries:
    """h-coefficients via n-th differences of HF, budget-bounded.

    h_j = sum_i (-1)^i C(n,i) HF(j-i); the sequence is accepted once n+2
    consecutive values vanish after a nonzero one.
    """
    _require_filterable(I)
    n = I.n
    hf: list[int] = []
    power = MonomialIdeal.unit(n)
    prev = 0
    coeffs: list[int] = []
    zeros = 0
    j = 0
    while True:
        if j > budget:
            raise BudgetError(
                f"h-polynomial did not stabilize within {budget} filtration "
                "terms; raise the term budget"
            )
        power = power * I
        cur = power.colength()
        hf.append(cur - prev)
        prev = cur
        hj = sum(
            (-1) ** i * comb(n, i) * hf[j - i] for i in range(min(j, n) + 1)
        )
        coeffs.append(hj)
        zeros = zeros + 1 if hj == 0 else 0
        if zeros >= n + 2 and any(coeffs):
            break
        j += 1
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return HilbertSeries(n, tuple(coeffs))


def _series_of_max_power(n: int, c: int, budget: int) -> HilbertSeries:
    if c == 0:
        raise ValueError("zero-th power of the maximal ideal is not proper")
    h = h_polynomial(MonomialIdeal.max_power(n, c), budget)
    if h.e != c**n:
        raise RuntimeError(f"multiplicity self-test failed for M^{c}")
    return h


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

    add(_series_of_max_power(n, d, budget).coeffs, 1)
    for L in fac.factors:
        add(h_polynomial(L, budget).coeffs, 1)
        add(_series_of_max_power(n, L.order, budget).coeffs, -1)
    while acc and acc[-1] == 0:
        acc.pop()
    return HilbertSeries(n, tuple(acc))


def multiplicity_e(I: MonomialIdeal, budget: int = DEFAULT_TERM_BUDGET) -> int:
    """Multiplicity h(1), cross-checked against the factored formula
    e = sum e(L_j) + d^n - sum d_j^n whenever I lies in C."""
    e = h_polynomial(I, budget).e
    if is_in_C(I):
        fac = factor_C(I)
        d = I.order
        alt = d**I.n
        for L in fac.factors:
            alt += h_polynomial(L, budget).e - L.order**I.n
        if alt != e:
            raise RuntimeError(
                f"multiplicity mismatch: direct {e}, factored {alt}"
            )
    return e


def h_degree_check(I: MonomialIdeal, budget: int = DEFAULT_TERM_BUDGET) -> bool:
    """Whether deg h <= n - 1, as expected on integrally closed Goto-form
    ideals."""
    return h_polynomial(I, budget).degree <= I.n - 1
