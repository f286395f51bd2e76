"""The family correspondence, contractedness, factorization, and the
staircase-form layer, exercised on worked values and random samples."""

import random

import pytest

import gideal.classes
import gideal.newton
from gideal import (
    CoordinatePrime,
    FamilyError,
    GForm,
    MonomialIdeal,
    QFamily,
    Staircase,
    alphas_to_staircase,
    closure_in_class,
    equiv,
    factor_C,
    gform_closure,
    gform_product,
    gform_simple_factorization,
    gform_to_monomial,
    goto_form,
    ideal_of_family,
    is_contracted,
    is_in_C,
    is_in_D,
    is_in_G,
    is_integrally_closed,
    jdt_seq,
    mu_class_check,
    newton_closure,
    q_family,
)

from counting import count_calls
from oracles import component_by_listing, is_contracted_by_listing
from samplers import embed_pairs, random_class_c, random_gstar


def I3(*gens):
    return MonomialIdeal.of(3, gens)


THREE_PRIMES = I3(
    (3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 0), (0, 1, 1), (1, 0, 1)
)
PAIRWISE = I3((1, 1, 0), (0, 1, 1), (1, 0, 1))


class TestQFamily:
    def test_members_of_three_prime_ideal(self):
        fam = q_family(THREE_PRIMES)
        assert fam.members == (PAIRWISE,)
        assert fam.q(1) == MonomialIdeal.unit(3)

    def test_max_power_has_empty_family(self):
        fam = q_family(MonomialIdeal.max_power(3, 2))
        assert fam.s == 0

    def test_rejects_infinite_colength(self):
        with pytest.raises(ValueError):
            q_family(I3((1, 0, 0)))

    def test_rejects_wrong_dimension_member(self):
        I = I3((1, 0, 0)) + MonomialIdeal.max_power(3, 2)
        with pytest.raises(FamilyError) as exc:
            q_family(I)
        assert exc.value.j == 0

    def test_family_validation(self):
        with pytest.raises(FamilyError):
            QFamily.of(3, [MonomialIdeal.max_power(3, 2)])

    def test_reconstruction_of_three_prime_ideal(self):
        fam = q_family(THREE_PRIMES)
        assert ideal_of_family(fam, 0) == THREE_PRIMES

    def test_empty_family_reconstructs_max_powers(self):
        fam = QFamily(3, ())
        assert ideal_of_family(fam, 2) == MonomialIdeal.max_power(3, 2)

    def test_correspondence_roundtrip_random(self):
        from gideal import reg_dim1_saturated

        rng = random.Random(101)
        for _ in range(15):
            I = random_class_c(rng)
            fam = q_family(I)
            d0 = reg_dim1_saturated(fam.members[0])[0] if fam.s else 0
            assert ideal_of_family(fam, I.order - d0) == I


class TestContracted:
    def test_counterexample_pair(self):
        base = I3((2, 0, 0), (1, 2, 0), (0, 2, 2))
        assert is_contracted(base)
        assert not is_contracted(base * base)

    def test_closed_ideals_are_contracted(self):
        rng = random.Random(23)
        from samplers import random_finite_ideal

        for _ in range(10):
            I = newton_closure(random_finite_ideal(rng, 3))
            assert is_contracted(I)

    def test_rejects_trivial(self):
        with pytest.raises(ValueError):
            is_contracted(MonomialIdeal.unit(3))

    def test_saturation_generated_above_the_top_degree(self):
        # not m-primary: sat(I) gains x0*x1*x2*x3^3, of degree 6, above the top
        # degree 5 of I, and I differs from it first in degree 6, so a sweep
        # that stops at the top degree of I would call I contracted
        I = MonomialIdeal.of(
            4, [(2, 1, 1, 0), (0, 0, 5, 0), (0, 2, 0, 3), (1, 0, 0, 4)]
        )
        sat = I.saturate()
        assert (I.max_degree, sat.max_degree) == (5, 6)
        assert (1, 1, 1, 3) in sat.gens
        for t in range(I.order, 6):
            Q_t = component_by_listing(I, t).saturate()
            assert Q_t.hilbert_function(t) == I.hilbert_function(t)
        assert (sat.hilbert_function(6), I.hilbert_function(6)) == (61, 62)
        assert not is_contracted(I)
        assert not is_contracted_by_listing(I)


class TestMembershipC:
    def test_three_prime_ideal(self):
        assert is_in_C(THREE_PRIMES)
        assert is_in_D(THREE_PRIMES)

    def test_unit_ideal(self):
        for n in (1, 2, 3):
            assert is_in_C(MonomialIdeal.unit(n))

    def test_max_powers(self):
        for d in (1, 2, 3):
            assert is_in_C(MonomialIdeal.max_power(3, d))
            assert is_in_D(MonomialIdeal.max_power(3, d))

    def test_infinite_colength_reason(self):
        mem = is_in_C(I3((1, 0, 0)))
        assert not mem and "colength" in mem.reason

    def test_order_below_regularity(self):
        I = I3((2, 0, 0), (0, 1, 1)) + MonomialIdeal.max_power(3, 3)
        mem = is_in_C(I)
        assert not mem
        assert "below the characteristic regularity" in mem.reason

    def test_roundtrip_failure_reason(self):
        I = I3((3, 0, 0), (0, 3, 0), (0, 0, 3))
        mem = is_in_C(I)
        assert not mem and "reconstruction" in mem.reason

    def test_random_members(self):
        rng = random.Random(31)
        for _ in range(15):
            I = random_class_c(rng)
            assert is_in_C(I)
            assert mu_class_check(I)

    def test_mu_class_check_three_primes(self):
        assert mu_class_check(THREE_PRIMES)
        assert THREE_PRIMES.mu == 6


class TestEquiv:
    def test_shift_by_maximal_ideal(self):
        M = MonomialIdeal.maximal(3)
        assert equiv(THREE_PRIMES, THREE_PRIMES * M)
        assert equiv(THREE_PRIMES * M, THREE_PRIMES)

    def test_same_order_means_equal(self):
        assert not equiv(THREE_PRIMES, MonomialIdeal.max_power(3, 2))

    def test_requires_class_membership(self):
        with pytest.raises(ValueError):
            equiv(I3((1, 0, 0)), THREE_PRIMES)


class TestFactorC:
    def test_three_prime_factorization(self):
        fac = factor_C(THREE_PRIMES)
        assert fac.balance == (1, 0)
        assert fac.factors == (
            I3((2, 0, 0), (0, 1, 0), (0, 0, 1)),
            I3((1, 0, 0), (0, 2, 0), (0, 0, 1)),
            I3((1, 0, 0), (0, 1, 0), (0, 0, 2)),
        )

    def test_max_power_has_no_factors(self):
        fac = factor_C(MonomialIdeal.max_power(3, 2))
        assert fac.factors == ()
        assert fac.balance == (0, 2)

    def test_rejects_non_members(self):
        with pytest.raises(ValueError):
            factor_C(I3((1, 0, 0)))

    def test_random_factorizations(self):
        rng = random.Random(43)
        M = MonomialIdeal.maximal(3)
        for _ in range(12):
            I = random_class_c(rng)
            fac = factor_C(I)
            left = I
            for _ in range(fac.balance[0]):
                left = left * M
            right = MonomialIdeal.max_power(3, fac.balance[1])
            for f in fac.factors:
                right = right * f
            assert left == right
            for f in fac.factors:
                assert is_in_C(f)
                assert len(q_family(f).members[0].minimal_primes()) == 1
            assert equiv(I, right) or fac.balance[0] == 0

    @pytest.mark.parametrize("fn", [factor_C, goto_form])
    def test_builds_the_family_once(self, fn, monkeypatch):
        calls = []

        def counting(I):
            calls.append(I)
            return q_family(I)

        monkeypatch.setattr("gideal.classes.q_family", counting)
        fn(THREE_PRIMES)
        assert calls == [THREE_PRIMES]


class TestClosureInClass:
    def test_returns_closure(self):
        assert closure_in_class(THREE_PRIMES) == THREE_PRIMES

    def test_random_closures_land_in_D(self):
        rng = random.Random(47)
        M = MonomialIdeal.maximal(3)
        for _ in range(10):
            I = random_class_c(rng)
            closed = closure_in_class(I)
            assert is_in_D(closed)
            assert I <= closed
            # closing commutes with multiplying by the maximal ideal
            assert newton_closure(M * I) == M * closed

    def test_computes_one_closure(self, monkeypatch):
        calls = count_calls(monkeypatch, gideal.classes, "newton_closure")
        count_calls(monkeypatch, gideal.newton, "newton_closure", calls)
        rng = random.Random(53)
        for k in range(1, 6):
            closure_in_class(random_class_c(rng))
            assert len(calls) == k


class TestAlphaConversion:
    def test_worked_column(self):
        # the unit first step makes this the order-6 representative of the
        # canonical order-5 staircase; both carry the same power column
        a = Staircase((0, 1, 3, 4, 7, 9, 10))
        canonical = Staircase((0, 2, 3, 6, 8, 9))
        from gideal import staircase_alphas

        assert staircase_alphas(a) == (5, 3, 3, 2)
        assert staircase_alphas(canonical) == (5, 3, 3, 2)
        assert alphas_to_staircase((5, 3, 3, 2)) == canonical

    def test_single_step(self):
        from gideal import staircase_alphas

        assert staircase_alphas(Staircase((0, 2))) == (1,)
        assert alphas_to_staircase((1,)) == Staircase((0, 2))

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            alphas_to_staircase((1, 2))

    def test_rejects_negative(self):
        for col in ((2, -1), (0, -1), (-1,)):
            with pytest.raises(ValueError, match="non-negative"):
                alphas_to_staircase(col)

    def test_roundtrip_canonical(self):
        from itertools import combinations

        from gideal import staircase_alphas

        for d in range(1, 5):
            for steps in combinations(range(2, 11), d):
                if steps[0] < 2:
                    continue
                a = Staircase((0,) + steps)
                if any(a[i + 1] - a[i] < 1 for i in range(d)):
                    continue
                col = staircase_alphas(a)
                if a.d >= 1 and a[1] >= 2:
                    assert alphas_to_staircase(col) == a


class TestGotoForms:
    def test_three_prime_form(self):
        form, reason = goto_form(THREE_PRIMES)
        assert reason == ""
        assert form == GForm.of(
            2,
            {
                0: Staircase((0, 2)),
                1: Staircase((0, 2)),
                2: Staircase((0, 2)),
            },
        )

    def test_max_power_form(self):
        form, _ = goto_form(MonomialIdeal.max_power(3, 2))
        assert form == GForm.m_power(2)

    def test_not_in_form_class(self):
        Q = MonomialIdeal.of(3, embed_pairs(2, [(2, 0), (0, 1)]))
        fam = QFamily.of(3, [Q])
        I = ideal_of_family(fam, 0)
        assert is_in_C(I)
        form, reason = goto_form(I)
        assert form is None
        assert "not a prime power" in reason

    def test_is_in_G_wrapper(self):
        assert is_in_G(THREE_PRIMES) is not None

    def test_canonicalization_strips_unit_prefix(self):
        assert GForm.of(2, {0: Staircase((0, 1, 3))}) == GForm.of(
            2, {0: Staircase((0, 2))}
        )
        assert GForm.of(2, {0: Staircase((0, 1, 2))}) == GForm.m_power(2)

    def test_constructor_is_canonical(self):
        a, b = Staircase((0, 1, 3)), Staircase((0, 3))
        assert GForm(2, ((0, a),)) == GForm.of(2, {0: a})
        assert GForm(2, ((0, a),)).components == ((0, Staircase((0, 2))),)
        # labels sorted, a unit staircase dropped
        form = GForm(2, (("p", b), (1, a), (0, Staircase((0, 1)))))
        assert form == GForm.of(2, {1: a, "p": b})
        assert form.labels == (1, "p")
        assert hash(form) == hash(GForm.of(2, [(1, a), ("p", b)]))
        with pytest.raises(ValueError, match="negative order"):
            GForm(-1, ())

    def test_realization_roundtrip_random(self):
        rng = random.Random(53)
        for _ in range(12):
            I, form = random_gstar(rng)
            back, reason = goto_form(I)
            assert back == form, reason

    def test_realization_with_labels(self):
        form = GForm.of(1, {"p": Staircase((0, 2))})
        I = gform_to_monomial(form, 3)
        assert I == CoordinatePrime(0).ideal(3) + MonomialIdeal.max_power(3, 2)

    def test_too_many_primes_rejected(self):
        form = GForm.of(1, {i: Staircase((0, 2)) for i in range(4)})
        with pytest.raises(ValueError):
            gform_to_monomial(form, 3)

    def test_repeated_labels_rejected(self):
        stair = Staircase((0, 2))
        # the constructor rejects them, so no such form reaches realization
        for label in (0, "p"):
            with pytest.raises(ValueError, match="duplicate prime label"):
                GForm(1, ((label, stair), (label, stair)))

    def test_duplicate_labels_in_pairs_rejected(self):
        pairs = [(0, Staircase((0, 2))), (0, Staircase((0, 3)))]
        with pytest.raises(ValueError, match="duplicate prime label 0"):
            GForm.of(1, pairs)

    def test_order_below_regularity_rejected(self):
        form = GForm(0, ((0, Staircase((0, 2))),))
        with pytest.raises(ValueError):
            gform_to_monomial(form, 3)


class TestGFormAlgebra:
    def test_product_merges_labels(self):
        a = GForm.of(1, {0: Staircase((0, 2))})
        b = GForm.of(1, {1: Staircase((0, 3))})
        ab = gform_product(a, b)
        assert ab.order == 2
        assert dict(ab.components) == {0: Staircase((0, 2)), 1: Staircase((0, 3))}

    def test_product_multiplies_shared_staircases(self):
        a = GForm.of(1, {0: Staircase((0, 2))})
        assert gform_product(a, a) == GForm.of(2, {0: Staircase((0, 2, 4))})

    def test_product_realizes_as_ideal_product(self):
        rng = random.Random(59)
        for _ in range(8):
            A, fa = random_gstar(rng)
            B, fb = random_gstar(rng)
            assert gform_to_monomial(gform_product(fa, fb), 3) == A * B

    def test_closure_componentwise(self):
        g = GForm.of(2, {0: Staircase((0, 5, 6))})
        assert gform_closure(g) == GForm.of(2, {0: Staircase((0, 3, 6))})

    def test_closure_realizes_as_ideal_closure(self):
        rng = random.Random(61)
        for _ in range(8):
            _, form = random_gstar(rng)
            bumped = GForm.of(
                form.order,
                {lab: Staircase(tuple(x + i for i, x in enumerate(st.steps)))
                 for lab, st in form.components},
            )
            try:
                I = gform_to_monomial(bumped, 3)
            except ValueError:
                continue
            assert gform_to_monomial(gform_closure(bumped), 3) == newton_closure(I)


class TestGFormSimpleFactorization:
    def test_three_prime_form(self):
        form, _ = goto_form(THREE_PRIMES)
        sf = gform_simple_factorization(form)
        assert sf.m_power == 0
        assert sf.balance == 1
        assert sf.factors == ((0, 1, 2, 1), (1, 1, 2, 1), (2, 1, 2, 1))

    def test_pure_m_power(self):
        sf = gform_simple_factorization(GForm.m_power(3))
        assert sf.m_power == 3 and sf.balance == 0 and sf.factors == ()

    def test_requires_closed(self):
        with pytest.raises(ValueError):
            gform_simple_factorization(GForm.of(2, {0: Staircase((0, 5, 6))}))

    def test_rebuilds_no_form(self, monkeypatch):
        import gideal.staircases

        calls = []
        original = gideal.staircases.minplus_product

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(gideal.staircases, "minplus_product", counting)
        monkeypatch.setattr("gideal.classes.minplus_product", counting)
        J = jdt_seq
        form = GForm.of(9, {0: J(1, 2) * J(1, 2) * J(2, 5), 1: J(1, 3) * J(3, 4)})
        calls.clear()
        gform_simple_factorization(form)
        # the pieces are read off the hulls; nothing multiplies them back
        assert len(calls) == 0

    def test_random_roundtrip(self):
        rng = random.Random(67)
        for _ in range(10):
            _, form = random_gstar(rng)
            sf = gform_simple_factorization(form)
            recon = GForm.m_power(sf.m_power)
            for label, d, t, mult in sf.factors:
                for _ in range(mult):
                    recon = gform_product(recon, GForm.of(d, {label: jdt_seq(d, t)}))
            assert recon == gform_product(form, GForm.m_power(sf.balance))
