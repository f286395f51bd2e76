"""Acceptance gate: one test per criterion, one printed line per result.

Every criterion is exact; randomized suites run on fixed seeds.  Run
with `pytest tests/test_acceptance.py -s` to see the PASS lines live;
FAIL lines surface in the captured output of the failing test either
way.
"""

import itertools
import random
from collections import Counter
from functools import lru_cache
from math import gcd

from gideal.classes import (
    closure_in_class,
    factor_C,
    goto_form,
    is_in_C,
    is_in_D,
    q_family,
)
from gideal.hilbert import h_degree_check, h_polynomial, hs_via_factorization
from gideal.ideals import MonomialIdeal, reg_dim1_saturated
from gideal.newton import is_integrally_closed, newton_closure
from gideal.staircases import (
    Staircase,
    closure_seq,
    factor_simple,
    jdt_seq,
    minplus_product,
)
from gideal.textio import parse_document
from gideal.verify import run_examples

from oracles import closure_seq_minplus
from samplers import random_class_c, random_gstar, random_monomial

THREE_PRIMES_TEXT = "ring 3 vars x,y,z; ideal I = x^3,y^3,z^3,x*y,y*z,x*z;"


def _report(num: int, desc: str, body) -> None:
    try:
        body()
    except BaseException:
        print(f"[FAIL] criterion {num}: {desc}", flush=True)
        raise
    print(f"[PASS] criterion {num}: {desc}", flush=True)


def test_criterion_1_six_generator_pipeline():
    def body():
        I = parse_document(THREE_PRIMES_TEXT).ideal("I")
        fam = q_family(I)
        pairwise = MonomialIdeal.of(3, [(1, 1, 0), (0, 1, 1), (1, 0, 1)])
        assert fam.members == (pairwise,)
        assert fam.q(0) == pairwise
        assert fam.q(1).is_unit() and fam.q(5).is_unit()
        M = MonomialIdeal.maximal(3)
        P0 = MonomialIdeal.of(3, [(2, 0, 0), (0, 1, 0), (0, 0, 1)])
        P1 = MonomialIdeal.of(3, [(1, 0, 0), (0, 2, 0), (0, 0, 1)])
        P2 = MonomialIdeal.of(3, [(1, 0, 0), (0, 1, 0), (0, 0, 2)])
        assert M * I == P0 * P1 * P2
        direct = h_polynomial(I)
        assembled = hs_via_factorization(I)
        assert direct.coeffs == (7, 4) and direct.e == 11
        assert assembled.coeffs == (7, 4) and assembled.e == 11

    _report(1, "six-generator ideal end-to-end (family, product, h, e)", body)


def test_criterion_2_counterexample_suite():
    def body():
        results = {r.name: r for r in run_examples()}
        for name in (
            "pair-of-squares-contracted",
            "mixed-cubes-not-contracted",
            "contracted-but-square-is-not",
            "closed-full-mu-outside-class",
            "product-of-closed-not-closed",
            "square-of-closed-not-closed",
        ):
            res = results[name]
            assert res.passed, f"{name}: {res.detail}"

    _report(2, "six boundary examples reproduced exactly", body)


def test_criterion_3_closure_oracle_equivalence():
    def body():
        count = 0
        for d in range(1, 6):
            for tail in itertools.combinations(range(1, 13), d):
                a = Staircase((0,) + tail)
                assert closure_seq(a) == closure_seq_minplus(a), a
                count += 1
        assert count == 1585

    _report(3, "hull closure matches min-plus oracle on 1585 staircases", body)


def test_criterion_4_simple_factorization_roundtrip():
    def body():
        pairs = [
            (d, t) for t in range(2, 9) for d in range(1, t) if gcd(d, t) == 1
        ]
        assert len(pairs) == 21
        count = 0
        for size in (1, 2, 3):
            for combo in itertools.combinations_with_replacement(pairs, size):
                for c in range(4):
                    stair = Staircase.m_power(c)
                    for d, t in combo:
                        stair = minplus_product(stair, jdt_seq(d, t))
                    fac = factor_simple(stair)
                    got = Counter()
                    for d, t, mult in fac.factors:
                        got[(d, t)] += mult
                    assert got == Counter(combo), combo
                    assert fac.m_power == c, combo
                    count += 1
        assert count == (21 + 231 + 1771) * 4

    _report(4, "simple factorization recovers every built multiset", body)


@lru_cache(maxsize=1)
def _gstar_samples() -> tuple[MonomialIdeal, ...]:
    rng = random.Random(501)
    return tuple(random_gstar(rng)[0] for _ in range(20))


def test_criterion_5_normality_of_powers():
    def body():
        for I in _gstar_samples():
            assert is_integrally_closed(I)
            for k in (2, 3, 4):
                assert is_integrally_closed(I**k), (I.gens, k)

    _report(5, "powers 2..4 of 20 staircase-form ideals stay closed", body)


def test_criterion_6_hilbert_consistency():
    def body():
        rng = random.Random(601)
        for _ in range(20):
            I = random_class_c(rng)
            assert hs_via_factorization(I) == h_polynomial(I), I.gens
            d = I.order
            base = MonomialIdeal.max_power(3, d).colength()
            fam = q_family(I)
            total = base + sum(
                reg_dim1_saturated(Q)[1] for Q in fam.members
            )
            assert I.colength() == total, I.gens
            fac = factor_C(I)
            inner = sum(
                L.colength() - MonomialIdeal.max_power(3, L.order).colength()
                for L in fac.factors
            )
            assert I.colength() - base == inner, I.gens

    _report(6, "factored Hilbert data and length identities agree", body)


def test_criterion_7_h_degree_bound():
    def body():
        checked = 0
        for I in _gstar_samples():
            assert h_degree_check(I), I.gens
            checked += 1
        builtins = [
            parse_document(THREE_PRIMES_TEXT).ideal("I"),
            MonomialIdeal.maximal(3),
            MonomialIdeal.max_power(3, 2),
            MonomialIdeal.max_power(3, 3),
            # single-prime members: J_P(1,2), J_P(1,3), and M^2 * J_P(1,2)
            MonomialIdeal.of(3, [(2, 0, 0), (0, 1, 0), (0, 0, 1)]),
            MonomialIdeal.of(3, [(3, 0, 0), (0, 1, 0), (0, 0, 1)]),
            MonomialIdeal.max_power(3, 2)
            * MonomialIdeal.of(3, [(2, 0, 0), (0, 1, 0), (0, 0, 1)]),
        ]
        for I in builtins:
            assert is_in_C(I), I.gens
            form, reason = goto_form(I)
            assert form is not None, (I.gens, reason)
            assert is_integrally_closed(I), I.gens
            assert h_degree_check(I), I.gens
            checked += 1
        assert checked >= 27

    _report(7, "h-polynomial degree stays below the dimension", body)


def test_criterion_8_property_suite():
    def body():
        rng = random.Random(801)
        M = MonomialIdeal.maximal(3)
        for _ in range(20):
            I = random_class_c(rng)
            assert newton_closure(M * I) == M * newton_closure(I), I.gens
        for _ in range(20):
            I = random_class_c(rng)
            fac = factor_C(I)
            assert bool(is_in_D(I)) == all(
                is_in_D(L) for L in fac.factors
            ), I.gens
        for _ in range(20):
            I = closure_in_class(random_class_c(rng, omegas=[0]))
            ws = rng.sample([1, 2], rng.randint(1, 2))
            J = closure_in_class(random_class_c(rng, omegas=ws))
            assert is_in_D(I) and is_in_D(J)
            assert is_in_D(I * J), (I.gens, J.gens)
        for _ in range(20):
            I = random_class_c(rng)
            J = random_class_c(rng)
            assert is_in_C(I * J), (I.gens, J.gens)
        for _ in range(20):
            I = random_class_c(rng)
            J = I
            for _ in range(rng.randint(1, 3)):
                extra = random_monomial(rng, 3, I.order + 1)
                J = J + MonomialIdeal.of(3, [extra])
            assert I.mu >= J.mu, (I.gens, J.gens)

    _report(8, "five theorem-level properties over 20 instances each", body)
