"""Power-filtration Hilbert functions, h-polynomials, and the factored
assembly formulas."""

import random
from math import comb

import pytest

from gideal import (
    BudgetError,
    HilbertSeries,
    MonomialIdeal,
    factor_C,
    h_degree_check,
    h_polynomial,
    hf_filtration,
    hs_via_factorization,
    multiplicity_e,
    q_family,
    reg_dim1_saturated,
)
from gideal.hilbert import _series_of_max_power
from samplers import random_class_c, random_gstar


def I3(*gens):
    return MonomialIdeal.of(3, gens)


THREE_PRIMES = I3(
    (3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 0), (0, 1, 1), (1, 0, 1)
)


def colength_by_counting(I: MonomialIdeal) -> int:
    """Independent colength: enumerate monomials outside the ideal degree
    by degree using divisibility checks only."""
    from gideal.ideals import monomials_of_degree

    total, t = 0, 0
    while True:
        step = sum(
            1 for m in monomials_of_degree(I.n, t) if not I.contains_monomial(m)
        )
        if step == 0:
            return total
        total += step
        t += 1


class TestFiltration:
    def test_three_prime_values(self):
        assert hf_filtration(THREE_PRIMES, 3) == [7, 25, 54]

    def test_three_prime_values_by_counting(self):
        vals = []
        prev = 0
        power = MonomialIdeal.unit(3)
        for _ in range(3):
            power = power * THREE_PRIMES
            cur = colength_by_counting(power)
            vals.append(cur - prev)
            prev = cur
        assert vals == [7, 25, 54]

    def test_max_ideal_filtration(self):
        M = MonomialIdeal.maximal(2)
        assert hf_filtration(M, 4) == [1, 2, 3, 4]

    def test_requires_finite_colength(self):
        with pytest.raises(ValueError):
            hf_filtration(I3((1, 0, 0)), 2)

    def test_requires_proper(self):
        with pytest.raises(ValueError):
            hf_filtration(MonomialIdeal.unit(3), 2)


class TestHPolynomial:
    def test_three_primes(self):
        h = h_polynomial(THREE_PRIMES)
        assert h.coeffs == (7, 4)
        assert h.e == 11
        assert h.degree == 1
        assert str(h) == "7 + 4*z"

    def test_maximal_ideal(self):
        h = h_polynomial(MonomialIdeal.maximal(2))
        assert h.coeffs == (1,)
        assert h.e == 1

    def test_max_power_multiplicity(self):
        for n in (2, 3):
            for c in (1, 2, 3):
                h = h_polynomial(MonomialIdeal.max_power(n, c))
                assert h.e == c**n
                assert h.coeffs[0] == comb(c + n - 1, n)

    def test_budget_error(self):
        with pytest.raises(BudgetError):
            h_polynomial(THREE_PRIMES, budget=3)

    @pytest.mark.parametrize("budget", [0, 1, 2, 3])
    def test_budget_bounds_powers_built(self, budget, monkeypatch):
        calls = []
        mul = MonomialIdeal.__mul__

        def counting(a, b):
            calls.append(b)
            return mul(a, b)

        monkeypatch.setattr(MonomialIdeal, "__mul__", counting)
        with pytest.raises(BudgetError):
            h_polynomial(THREE_PRIMES, budget=budget)
        # powers I, I^2, ..., I^(budget+1): I itself needs no product
        assert len(calls) <= budget

    def test_h0_is_colength(self):
        rng = random.Random(71)
        for _ in range(6):
            I = random_class_c(rng)
            assert h_polynomial(I).coeffs[0] == I.colength()


class TestMaxPowerSeries:
    @pytest.mark.parametrize("c", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_closed_form_matches_filtration(self, n, c):
        assert _series_of_max_power(n, c) == h_polynomial(
            MonomialIdeal.max_power(n, c)
        )


class TestFactoredAssembly:
    def test_three_primes(self):
        assert hs_via_factorization(THREE_PRIMES) == HilbertSeries(3, (7, 4))

    def test_max_power(self):
        assert hs_via_factorization(MonomialIdeal.max_power(3, 2)) == h_polynomial(
            MonomialIdeal.max_power(3, 2)
        )

    def test_agreement_random(self):
        rng = random.Random(73)
        for _ in range(6):
            I = random_class_c(rng)
            assert hs_via_factorization(I) == h_polynomial(I)

    def test_multiplicity_with_cross_check(self):
        e = multiplicity_e(THREE_PRIMES)
        assert e == hs_via_factorization(THREE_PRIMES).e == 11

    def test_multiplicity_matches_factored_formula(self):
        # multiplicity_e reads h(1) off the power filtration alone
        rng = random.Random(83)
        for _ in range(40):
            I = random_class_c(rng)
            assert multiplicity_e(I) == hs_via_factorization(I).e, I

    def test_multiplicity_builds_no_family(self, monkeypatch):
        calls = []

        def counting(I):
            calls.append(I)
            return q_family(I)

        monkeypatch.setattr("gideal.classes.q_family", counting)
        assert multiplicity_e(THREE_PRIMES) == 11
        # the power filtration alone: the factored formula is a test oracle
        assert calls == []

    def test_length_identity(self):
        # colength(I) - colength(M^d) splits over the factors
        fac = factor_C(THREE_PRIMES)
        d = THREE_PRIMES.order
        lhs = THREE_PRIMES.colength() - MonomialIdeal.max_power(3, d).colength()
        rhs = sum(
            L.colength() - MonomialIdeal.max_power(3, L.order).colength()
            for L in fac.factors
        )
        assert lhs == rhs == 3

    def test_length_equals_family_multiplicities(self):
        fam = q_family(THREE_PRIMES)
        total = sum(reg_dim1_saturated(Q)[1] for Q in fam.members)
        d = THREE_PRIMES.order
        assert (
            THREE_PRIMES.colength() - MonomialIdeal.max_power(3, d).colength()
            == total
        )


class TestDegreeBound:
    def test_three_primes(self):
        assert h_degree_check(THREE_PRIMES)

    def test_random_closed_forms(self):
        rng = random.Random(79)
        for _ in range(5):
            I, _ = random_gstar(rng)
            assert h_degree_check(I)
