"""Power-filtration Hilbert functions, h-polynomials, and the factored
assembly formulas."""

import random
from itertools import islice
from math import comb

import pytest

import gideal.classes
import gideal.hilbert
from gideal import (
    BudgetError,
    HilbertSeries,
    MonomialIdeal,
    factor_C,
    gform_closure,
    h_degree_check,
    h_polynomial,
    hf_filtration,
    hs_via_factorization,
    is_in_C,
    is_in_G,
    multiplicity_e,
    newton_closure,
    q_family,
    reg_dim1_saturated,
)
from gideal.hilbert import _hull_multiplicity, _series_of_max_power, format_h
from counting import count_calls
from oracles import (
    colength_by_box,
    h_polynomial_by_filtration,
    power_colengths_by_products,
)
from samplers import random_class_c, random_form, random_gstar


def I3(*gens):
    return MonomialIdeal.of(3, gens)


THREE_PRIMES = I3(
    (3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 0), (0, 1, 1), (1, 0, 1)
)
# not contracted, so outside C and G: its h-polynomial needs the powers
CUBES_AND_XYZ = I3((3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1))


class TestFiltration:
    def test_three_prime_values(self):
        assert hf_filtration(THREE_PRIMES, 3) == [7, 25, 54]

    def test_three_prime_values_by_counting(self):
        vals = []
        prev = 0
        power = MonomialIdeal.unit(3)
        for _ in range(3):
            power = power * THREE_PRIMES
            cur = colength_by_box(power)
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

    @pytest.mark.parametrize("budget", [0, 1, 2, 3])
    def test_budget_bounds_powers_built_outside_G(self, budget, monkeypatch):
        assert not is_in_C(CUBES_AND_XYZ)
        calls = count_calls(monkeypatch, MonomialIdeal, "__mul__")
        with pytest.raises(BudgetError):
            h_polynomial(CUBES_AND_XYZ, budget=budget)
        # powers I, I^2, ..., I^(budget+1): I itself needs no product
        assert len(calls) == budget

    def test_class_test_reads_no_hilbert_function_outside_C(self, monkeypatch):
        # the family of a parameter ideal is empty, so the length identity
        # compares two colengths; the degreewise test would count the
        # monomials of degree 2000
        calls = count_calls(monkeypatch, MonomialIdeal, "hilbert_function")
        I = I3((2000, 0, 0), (0, 2000, 0), (0, 0, 2000))
        assert h_polynomial(I) == HilbertSeries(3, (2000**3,))
        assert calls == []

    def test_h0_is_colength(self):
        rng = random.Random(71)
        for _ in range(6):
            I = random_class_c(rng)
            assert h_polynomial(I).coeffs[0] == I.colength()


class TestMaxPowerSeries:
    @pytest.mark.parametrize("c", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_closed_form_matches_filtration(self, n, c):
        M = MonomialIdeal.max_power(n, c)
        assert _series_of_max_power(n, c) == h_polynomial_by_filtration(M)
        assert h_polynomial(M) == _series_of_max_power(n, c)
        assert _series_of_max_power(n, c).e == c**n


def I2(*gens):
    return MonomialIdeal.of(2, gens)


class TestExactStopInTwoVariables:
    """In two variables h is accepted only when it sums to the multiplicity
    of the Newton polygon; the window of zeros alone stops early when h has
    a long run of internal zeros."""

    # the window closes after z^5; the true h goes on 0, 0, 0, 0, z^10
    I11 = I2((11, 0), (2, 9), (0, 11))

    def test_long_internal_zero_runs(self):
        h = h_polynomial(self.I11)
        assert (h.e, h.degree, h.coeffs[-1]) == (121, 10, 1)
        assert multiplicity_e(I2((12, 0), (5, 7), (0, 12))) == 144

    def test_refuses_inside_the_budget(self):
        # h_10 is the eleventh term, and four zeros must follow it
        with pytest.raises(BudgetError):
            h_polynomial(self.I11, budget=13)
        assert h_polynomial(self.I11, budget=14).e == 121

    def test_hull_multiplicity_is_the_closure_multiplicity(self):
        # e = Δ² colength(closure(I^k)) at k = 1..3: the closures of the
        # powers of an ideal in two variables are the powers of its
        # closure, whose colengths follow the Hilbert polynomial from k = 0
        rng = random.Random(211)
        ideals = set()
        while len(ideals) < 120:
            a, d = rng.randint(1, 16), rng.randint(1, 16)
            inner = [
                (rng.randrange(a), rng.randrange(d)) for _ in range(rng.randint(0, 3))
            ]
            I = I2((a, 0), (0, d), *inner)
            if I.is_proper():
                ideals.add(I)
        for I in ideals:
            c1, c2, c3 = (newton_closure(I**k).colength() for k in (1, 2, 3))
            assert _hull_multiplicity(I) == c3 - 2 * c2 + c1, I


class TestWindowStopInThreeVariables:
    """From three variables the window of zeros alone stops h, and it can
    stop too early: for (x^3, y^5, z^4, xy^2z, x^2y^4) it gives
    h = 41 + 11z + 4z^2 + z^3 + z^4, so e = 58, where the true e is 59."""

    I = I3((3, 0, 0), (0, 5, 0), (0, 0, 4), (1, 2, 1), (2, 4, 0))

    def test_closure_colengths_give_59(self):
        # colength(closure(I^k)) is a polynomial of degree 3 in k from k = 0
        # on, with leading coefficient e/3!, so e is its third difference
        E = [newton_closure(self.I**k).colength() for k in range(4)]
        assert E == [0, 24, 129, 374]
        assert E[3] - 3 * E[2] + 3 * E[1] - E[0] == 59

    @pytest.mark.xfail(strict=True, reason="the window of zeros stops h early")
    def test_multiplicity_is_59(self):
        assert multiplicity_e(self.I) == 59


class TestFormat:
    def test_negative_coefficient_is_a_subtraction(self):
        assert format_h((8, 4, 3, -1)) == "8 + 4*z + 3*z^2 - z^3"
        assert format_h((-2, 0, -3)) == "-2 - 3*z^2"
        assert format_h((0, -1, 1)) == "-z + z^2"
        assert format_h(()) == "0"


def outcome(fn, *args):
    try:
        return fn(*args)
    except BudgetError as err:
        return "BudgetError", str(err)


def members_of_G() -> list[MonomialIdeal]:
    """THREE_PRIMES, powers of the maximal ideal, G* ideals and Goto forms
    with staircases that need not be closed, in two to four variables."""
    rng = random.Random(607)
    out = [THREE_PRIMES]
    out += [MonomialIdeal.max_power(n, c) for n in (2, 3, 4) for c in (1, 2, 3)]
    out += [random_gstar(rng)[0] for _ in range(30)]
    for n, count, max_order in ((2, 50, 4), (3, 50, 3), (4, 20, 2)):
        out += [random_form(rng, n, max_order)[0] for _ in range(count)]
    return out


class TestFormRoute:
    """h and the filtration of members of G come from the powers of their
    Goto form; the oracle builds the ideal powers."""

    @staticmethod
    def assert_matches_oracle(I):
        for budget in (3, 16):
            assert outcome(h_polynomial, I, budget) == outcome(
                h_polynomial_by_filtration, I, budget
            ), (I, budget)
        colengths = list(islice(power_colengths_by_products(I), 6))
        assert hf_filtration(I, 6) == [
            cur - prev for prev, cur in zip([0] + colengths, colengths)
        ], I

    def test_matches_filtration_on_members_of_G(self):
        members = members_of_G()
        assert len(members) >= 150
        forms = [is_in_G(I) for I in members]
        assert None not in forms
        assert sum(gform_closure(form) != form for form in forms) >= 10
        for I in members:
            self.assert_matches_oracle(I)

    def test_matches_filtration_on_criterion_6_samples(self):
        rng = random.Random(601)
        in_G = 0
        for _ in range(20):
            I = random_class_c(rng)
            in_G += is_in_G(I) is not None
            self.assert_matches_oracle(I)
        assert 0 < in_G < 20


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

    def test_multiplicity_builds_the_family_once_and_no_product(self, monkeypatch):
        families = count_calls(monkeypatch, gideal.hilbert, "_family_in_C")
        built = count_calls(monkeypatch, gideal.classes, "q_family")
        products = count_calls(monkeypatch, MonomialIdeal, "__mul__")
        assert multiplicity_e(THREE_PRIMES) == 11
        # one class test, then the powers of the Goto form: no ideal power
        assert (len(families), len(built), products) == (1, 1, [])

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
