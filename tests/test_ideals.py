"""Core monomial ideal arithmetic, counting, and prime structure."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from gideal import AmbientMismatch, CoordinatePrime, MonomialIdeal, ideals
from gideal.ideals import (
    _minimal,
    localize_power,
    mono_divides,
    monomials_of_degree,
    reg_dim1_saturated,
)

from oracles import colength_by_box, component_by_listing, hilbert_function_incl_excl
from samplers import (
    random_class_c,
    random_finite_ideal,
    random_gstar,
    random_small_ideal,
)


def I3(*gens):
    return MonomialIdeal.of(3, gens)


class TestConstruction:
    def test_minimal_generators_drop_multiples(self):
        I = MonomialIdeal.of(2, [(2, 0), (3, 0), (2, 1), (0, 1)])
        assert I.gens == ((0, 1), (2, 0))

    def test_duplicates_collapse(self):
        I = MonomialIdeal.of(2, [(1, 1), (1, 1)])
        assert I.gens == ((1, 1),)

    def test_sorted_by_degree_then_lex(self):
        I = MonomialIdeal.of(3, [(3, 0, 0), (1, 1, 0), (0, 0, 3), (0, 1, 1)])
        assert I.gens == ((0, 1, 1), (1, 1, 0), (0, 0, 3), (3, 0, 0))

    def test_zero_and_unit(self):
        Z = MonomialIdeal.zero(2)
        U = MonomialIdeal.unit(2)
        assert Z.is_zero() and not Z.is_unit()
        assert U.is_unit() and not U.is_proper()
        assert U.gens == ((0, 0),)
        assert MonomialIdeal.of(2, [(0, 0), (1, 0)]) == U

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            MonomialIdeal.of(2, [(1, -1)])

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            MonomialIdeal.of(2, [(1, 1, 1)])

    def test_fractional_exponent_rejected(self):
        with pytest.raises(TypeError):
            MonomialIdeal.of(2, [(1.5, 1)])

    def test_fractional_query_rejected(self):
        I = MonomialIdeal.of(2, [(1, 1)])
        with pytest.raises(TypeError):
            I.contains_monomial((1.9, 1))

    def test_string_monomial_rejected(self):
        with pytest.raises(TypeError):
            MonomialIdeal.of(2, ["31", (1, 1)])

    def test_empty_ring_rejected(self):
        with pytest.raises(ValueError, match="at least one variable"):
            MonomialIdeal.of(0, [()])

    def test_huge_exponent_rejected(self):
        with pytest.raises(OverflowError):
            MonomialIdeal.of(2, [(1 << 40, 0)])

    def test_powers_stay_exact_past_the_input_limit(self):
        I = MonomialIdeal.of(2, [(2**31 - 1, 1)])
        J = I ** 2**33
        assert J.gens == ((2**33 * (2**31 - 1), 2**33),)
        assert J <= I

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatch):
            MonomialIdeal.maximal(2) + MonomialIdeal.maximal(3)

    def test_maximal_and_powers(self):
        M = MonomialIdeal.maximal(2)
        assert M.gens == ((0, 1), (1, 0))
        assert MonomialIdeal.max_power(2, 3) == M**3
        assert M**0 == MonomialIdeal.unit(2)


def pairwise_minimal(gens):
    """Reference minimalization: test every pair for divisibility."""
    unique = set(gens)
    kept = [m for m in unique
            if not any(d != m and mono_divides(d, m) for d in unique)]
    return tuple(sorted(kept, key=lambda m: (sum(m), m)))


class TestMinimal:
    def test_empty_input(self):
        assert _minimal([]) == ()

    def test_matches_pairwise_filter(self):
        rng = random.Random(29)
        for n in range(1, 6):
            for _ in range(60):
                top = rng.randint(1, 6)
                pool = [tuple(rng.randint(0, top) for _ in range(n))
                        for _ in range(rng.randint(1, 40))]
                gens = pool + rng.choices(pool, k=rng.randint(0, 10))
                rng.shuffle(gens)
                assert _minimal(gens) == pairwise_minimal(gens)

    def test_four_variables_visit_only_dividing_groups(self, monkeypatch):
        # with one middle exponent e the groups that can hold a divisor are
        # the keys below e, a prefix of the sorted keys: no key is tested
        def refuse(a, b):
            raise AssertionError("divisibility test of a group key at n = 4")

        rng = random.Random(43)
        pairs = [(random_finite_ideal(rng, 4), random_small_ideal(rng, 4))
                 for _ in range(20)]
        M2, M3 = MonomialIdeal.max_power(4, 2), MonomialIdeal.max_power(4, 3)
        monkeypatch.setattr(ideals, "mono_divides", refuse)
        assert (M2 * M3).gens == monomials_of_degree(4, 5)
        for I, J in pairs:
            assert not (I * J).is_zero()
            assert not (I & J).is_zero()

    def test_three_variables_skip_the_cross_group_scan(self, monkeypatch):
        # below four variables every monomial has the same (empty) middle
        # exponents, so a candidate is tested against its own staircase only
        def refuse(a, b):
            raise AssertionError("cross-group divisibility scan below n = 4")

        rng = random.Random(37)
        pairs = [(random_finite_ideal(rng, 3), random_small_ideal(rng, 3))
                 for _ in range(30)]
        ideals._numerator.cache_clear()
        monkeypatch.setattr(ideals, "mono_divides", refuse)
        for I, J in pairs:
            assert not (I * J).is_zero()
            assert not (I & J).is_zero()
            assert (I * I).colength() > 0


class TestArithmetic:
    def test_product_of_variables(self):
        assert I3((1, 0, 0)) * I3((0, 1, 0)) == I3((1, 1, 0))

    def test_square_of_two_variables(self):
        M = MonomialIdeal.of(2, [(1, 0), (0, 1)])
        assert (M * M).gens == ((0, 2), (1, 1), (2, 0))

    def test_intersection_is_pairwise_lcm(self):
        left = I3((1, 0, 0), (0, 1, 0))
        right = I3((0, 1, 0), (0, 0, 1))
        assert (left & right) == I3((0, 1, 0), (1, 0, 1))

    def test_sum_with_unit_is_unit(self):
        assert I3((1, 0, 0)) + MonomialIdeal.unit(3) == MonomialIdeal.unit(3)

    def test_product_with_zero(self):
        assert I3((1, 0, 0)) * MonomialIdeal.zero(3) == MonomialIdeal.zero(3)

    def test_containment(self):
        I = I3((2, 0, 0), (0, 1, 0))
        assert I <= I3((1, 0, 0), (0, 1, 0))
        assert not I3((1, 0, 0)) <= I
        assert I.contains_monomial((2, 3, 1))
        assert not I.contains_monomial((1, 0, 2))

    def test_component_of_max_power(self):
        M2 = MonomialIdeal.max_power(3, 2)
        assert component_by_listing(M2, 3) == MonomialIdeal.max_power(3, 3)

    def test_component_keeps_only_divisible(self):
        I = I3((2, 0, 0), (0, 1, 1))
        C2 = component_by_listing(I, 2)
        assert C2.gens == ((0, 1, 1), (2, 0, 0))
        assert component_by_listing(I, 3).mu == 6

    def test_product_and_intersection_match_pairwise_filter(self):
        rng = random.Random(31)
        for n in range(1, 6):
            for k in range(40):
                I = (random_finite_ideal if k % 2 else random_small_ideal)(rng, n)
                J = (random_finite_ideal if k % 3 else random_small_ideal)(rng, n)
                pairs = [(g, h) for g in I.gens for h in J.gens]
                prods = [tuple(a + b for a, b in zip(g, h)) for g, h in pairs]
                lcms = [tuple(max(a, b) for a, b in zip(g, h)) for g, h in pairs]
                assert (I * J).gens == pairwise_minimal(prods)
                assert (I & J).gens == pairwise_minimal(lcms)


class TestSaturation:
    def test_saturate_var_zeroes_exponents(self):
        I = I3((2, 0, 1), (0, 1, 2))
        assert I.saturate_var(2) == I3((2, 0, 0), (0, 1, 0))

    def test_saturation_of_finite_colength_is_unit(self):
        I = I3((2, 0, 0), (0, 2, 0), (0, 0, 2))
        assert I.saturate() == MonomialIdeal.unit(3)

    def test_mixed_ideal_already_saturated(self):
        I = I3((1, 1, 0), (2, 0, 0))
        assert I.saturate() == I

    def test_saturation_monotone_and_idempotent(self):
        rng = random.Random(7)
        for _ in range(25):
            I = random_small_ideal(rng, 3)
            S = I.saturate()
            assert I <= S
            assert S.saturate() == S


class TestCounting:
    def test_monomials_of_degree_count(self):
        from math import comb

        for n in (1, 2, 3, 4):
            for d in range(5):
                assert len(monomials_of_degree(n, d)) == comb(d + n - 1, n - 1)

    def test_colength_of_max_power(self):
        from math import comb

        for d in range(1, 5):
            assert MonomialIdeal.max_power(3, d).colength() == comb(d + 2, 3)

    def test_colength_infinite_is_none(self):
        assert I3((1, 0, 0), (0, 1, 0)).colength() is None

    def test_colength_small(self):
        assert MonomialIdeal.of(2, [(2, 0), (0, 2)]).colength() == 4

    def test_hilbert_function_against_inclusion_exclusion(self):
        rng = random.Random(11)
        for n in (2, 3, 4):
            for _ in range(20):
                I = random_small_ideal(rng, n)
                for t in range(7):
                    assert I.hilbert_function(t) == hilbert_function_incl_excl(I, t)

    def test_colength_against_inclusion_exclusion(self):
        rng = random.Random(13)
        for n in (2, 3, 4):
            for _ in range(12):
                I = random_finite_ideal(rng, n)
                total = 0
                t = 0
                while True:
                    step = hilbert_function_incl_excl(I, t)
                    if step == 0:
                        break
                    total += step
                    t += 1
                assert I.colength() == total

    def test_colength_minimalizes_each_generator_once_per_level(self, monkeypatch):
        # in two variables the colength and the Hilbert function are read
        # off the generators and the lcms of neighbouring ones, so neither
        # minimalizes anything; a sweep over the slices of M^d that rebuilt
        # each slice from all generators would take d(d+1)/2
        sizes = []

        def counting(gens):
            gens = list(gens)
            sizes.append(len(gens))
            return _minimal(gens)

        ideals._numerator.cache_clear()
        monkeypatch.setattr(ideals, "_minimal", counting)
        M60 = MonomialIdeal.max_power(2, 60)
        assert M60.colength() == 1830
        assert M60.hilbert_function(59) == 60
        assert sum(sizes) <= 2 * 60

    def test_colength_minimalizes_three_variable_slices_once_per_level(
        self, monkeypatch
    ):
        # the slices of M^d in three variables are the powers of the maximal
        # ideal of two, each read off its numerator; growing each slice
        # from the previous one minimalizes fewer than 2(d+1)^2 monomials,
        # where rebuilding each from all tails takes about d^3/3
        sizes = []

        def counting(gens):
            gens = list(gens)
            sizes.append(len(gens))
            return _minimal(gens)

        ideals._numerator.cache_clear()
        monkeypatch.setattr(ideals, "_minimal", counting)
        assert MonomialIdeal.max_power(3, 30).colength() == 4960
        assert sum(sizes) <= 2 * 31**2

    def test_colength_against_box_count(self):
        rng = random.Random(41)
        cases = []
        # two variables, where the staircase area replaces the sweep, weigh most
        for n, count in ((1, 10), (2, 40), (3, 15), (4, 8)):
            for _ in range(count):
                I = random_finite_ideal(rng, n)
                cases += [I, I * I, I * I * I]
        cases += [random_gstar(rng)[0] for _ in range(20)]
        cases += [random_class_c(rng) for _ in range(20)]
        for I in cases:
            assert I.colength() == colength_by_box(I)

    def test_hilbert_function_of_unit_and_zero(self):
        from math import comb

        assert MonomialIdeal.unit(3).hilbert_function(4) == 0
        assert MonomialIdeal.zero(3).hilbert_function(4) == comb(6, 2)


class TestPrimes:
    def test_minimal_primes_of_pairwise_products(self):
        I = I3((1, 1, 0), (0, 1, 1), (1, 0, 1))
        covers = I.minimal_primes()
        assert sorted(sorted(c) for c in covers) == [[0, 1], [0, 2], [1, 2]]
        assert I.dimension() == 1

    def test_minimal_primes_of_two_pure_powers(self):
        I = I3((2, 0, 0), (0, 3, 0))
        assert I.minimal_primes() == (frozenset({0, 1}),)
        assert I.dimension() == 1

    def test_dimension_of_finite_colength_is_zero(self):
        assert I3((1, 0, 0), (0, 1, 0), (0, 0, 1)).dimension() == 0

    def test_dimension_of_principal(self):
        assert I3((2, 1, 0)).dimension() == 2

    def test_minimal_primes_reject_trivial(self):
        with pytest.raises(ValueError):
            MonomialIdeal.unit(2).minimal_primes()
        with pytest.raises(ValueError):
            MonomialIdeal.zero(2).minimal_primes()

    def test_coordinate_prime_ideal_and_power(self):
        P = CoordinatePrime(1)
        assert P.ideal(3) == I3((1, 0, 0), (0, 0, 1))
        assert P.power(3, 2) == I3((2, 0, 0), (1, 0, 1), (0, 0, 2))


class TestLocalization:
    def test_power_detected(self):
        Q = I3((1, 1, 0), (0, 1, 1), (1, 0, 1))
        assert localize_power(Q, CoordinatePrime(0)) == 1
        P2 = CoordinatePrime(2).power(3, 2)
        assert localize_power(P2, CoordinatePrime(2)) == 2

    def test_dropped_prime_gives_zero(self):
        Q = CoordinatePrime(0).ideal(3)
        assert localize_power(Q, CoordinatePrime(1)) == 0

    def test_non_power_gives_none(self):
        from samplers import embed_pairs

        Q = MonomialIdeal.of(3, embed_pairs(2, [(2, 0), (0, 1)]))
        assert localize_power(Q, CoordinatePrime(2)) is None

    def test_regularity_of_prime_is_one(self):
        Q = CoordinatePrime(2).ideal(3)
        assert reg_dim1_saturated(Q) == (1, 1)

    def test_regularity_of_pairwise_products(self):
        Q = I3((1, 1, 0), (0, 1, 1), (1, 0, 1))
        assert reg_dim1_saturated(Q) == (2, 3)

    def test_regularity_of_planar_squares(self):
        from samplers import embed_pairs

        Q = MonomialIdeal.of(3, embed_pairs(2, [(2, 0), (0, 2)]))
        assert reg_dim1_saturated(Q) == (3, 4)

    def test_regularity_rejects_bad_input(self):
        with pytest.raises(ValueError):
            reg_dim1_saturated(I3((1, 0, 0), (0, 1, 0), (0, 0, 1)))


small_exps = st.tuples(*(st.integers(0, 4) for _ in range(3))).filter(
    lambda t: sum(t) > 0
)
gen_lists = st.lists(small_exps, min_size=1, max_size=5)


class TestAlgebraLaws:
    @settings(max_examples=60, derandomize=True)
    @given(gen_lists, gen_lists)
    def test_product_inside_intersection(self, a, b):
        I, J = MonomialIdeal.of(3, a), MonomialIdeal.of(3, b)
        assert I * J <= (I & J)

    @settings(max_examples=60, derandomize=True)
    @given(gen_lists, gen_lists)
    def test_sum_is_least_upper_bound(self, a, b):
        I, J = MonomialIdeal.of(3, a), MonomialIdeal.of(3, b)
        S = I + J
        assert I <= S and J <= S
        assert S <= MonomialIdeal.of(3, list(a) + list(b))

    @settings(max_examples=40, derandomize=True)
    @given(gen_lists)
    def test_minimalization_idempotent(self, a):
        I = MonomialIdeal.of(3, a)
        assert MonomialIdeal.of(3, I.gens) == I

    @settings(max_examples=40, derandomize=True)
    @given(gen_lists)
    def test_square_consistent_with_product(self, a):
        I = MonomialIdeal.of(3, a)
        assert I**2 == I * I
        assert I**3 == I * I * I

    @settings(max_examples=40, derandomize=True)
    @given(gen_lists, st.integers(0, 6))
    def test_hilbert_function_counts_complement(self, a, t):
        from math import comb

        I = MonomialIdeal.of(3, a)
        inside = sum(1 for m in monomials_of_degree(3, t) if I.contains_monomial(m))
        assert I.hilbert_function(t) == comb(t + 2, 2) - inside
