"""Built-in regression suite of worked examples.

Each check is a small, self-contained scenario with exactly known answers:
contractedness witnesses and counterexamples, the class-C roundtrip and
factorization pipeline on the three-prime ideal, and the two closure
counterexamples (a product and a square of integrally closed ideals that
are not integrally closed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from .classes import factor_C, is_contracted, is_in_C, is_in_D, mu_class_check, q_family
from .hilbert import DEFAULT_TERM_BUDGET, h_polynomial, hs_via_factorization
from .ideals import MonomialIdeal
from .newton import is_integrally_closed
from .textio import parse_document


@dataclass(frozen=True)
class ExampleResult:
    name: str
    passed: bool
    detail: str = ""
    error: Exception | None = field(default=None, compare=False, repr=False)


def _ensure(cond: bool, message: str) -> None:
    if not cond:
        raise AssertionError(message)


def _check_pair_of_squares() -> None:
    I = MonomialIdeal.of(3, [(2, 0, 0), (0, 2, 0)])
    _ensure(is_contracted(I), "two pure squares should be contracted")


def _check_mixed_cubes() -> None:
    I = MonomialIdeal.of(3, [(3, 0, 0), (0, 3, 0), (2, 0, 1)])
    I = I + MonomialIdeal.max_power(3, 4)
    _ensure(not is_contracted(I), "cubes-plus-fourth-powers should not be contracted")


def _check_contracted_square_escapes() -> None:
    I = MonomialIdeal.of(3, [(2, 0, 0), (1, 2, 0), (0, 2, 2)])
    _ensure(is_contracted(I), "the base ideal should be contracted")
    _ensure(not is_contracted(I * I), "its square should not be contracted")


def _check_closed_full_mu_outside_class() -> None:
    I = MonomialIdeal.of(3, [(2, 0, 0), (0, 1, 1)]) + MonomialIdeal.max_power(3, 3)
    _ensure(is_integrally_closed(I), "should be integrally closed")
    _ensure(is_contracted(I), "should be contracted")
    _ensure(I.mu == 6, f"expected 6 minimal generators, found {I.mu}")
    _ensure(mu_class_check(I), "generator count should match the square of the maximal ideal")
    _ensure(not is_in_C(I), "should fail the family roundtrip")


def _check_three_primes_pipeline(budget: int) -> None:
    doc = parse_document("ring 3 vars x,y,z; ideal I = x^3,y^3,z^3,x*y,y*z,x*z;")
    I = doc.ideal("I")
    fam = q_family(I)
    Q0 = MonomialIdeal.of(3, [(1, 1, 0), (0, 1, 1), (1, 0, 1)])
    _ensure(
        fam.members == (Q0,),
        f"expected the single member (x*y, y*z, x*z), found {fam.members}",
    )
    fac = factor_C(I)
    expected = (
        MonomialIdeal.of(3, [(2, 0, 0), (0, 1, 0), (0, 0, 1)]),
        MonomialIdeal.of(3, [(1, 0, 0), (0, 2, 0), (0, 0, 1)]),
        MonomialIdeal.of(3, [(1, 0, 0), (0, 1, 0), (0, 0, 2)]),
    )
    _ensure(fac.factors == expected, f"unexpected factors {fac.factors}")
    _ensure(fac.balance == (1, 0), f"unexpected balance {fac.balance}")
    M = MonomialIdeal.maximal(3)
    prod = expected[0] * expected[1] * expected[2]
    _ensure(M * I == prod, "M*I should equal the product of the three factors")
    h = h_polynomial(I, budget)
    _ensure(h.coeffs == (7, 4), f"expected h = 7 + 4*z, found {h}")
    _ensure(h.e == 11, f"expected multiplicity 11, found {h.e}")
    _ensure(hs_via_factorization(I, budget) == h, "factored h-polynomial should agree")


def _check_product_of_closed_escapes() -> None:
    P3 = MonomialIdeal.of(3, [(1, 0, 0), (0, 1, 0)]) ** 3
    M4 = MonomialIdeal.max_power(3, 4)
    A = P3 + MonomialIdeal.of(3, [(2, 0, 1)]) + M4
    B = P3 + MonomialIdeal.of(3, [(0, 2, 1)]) + M4
    for name, X in (("first", A), ("second", B)):
        mem = is_in_D(X)
        _ensure(bool(mem), f"{name} ideal should be in D: {mem.reason}")
    _ensure(
        not is_integrally_closed(A * B),
        "the product should not be integrally closed",
    )


def _check_square_of_closed_escapes() -> None:
    core = MonomialIdeal.of(
        4,
        [
            (2, 0, 0, 0),
            (0, 3, 0, 0),
            (0, 0, 7, 0),
            (1, 2, 0, 0),
            (1, 1, 2, 0),
            (1, 0, 4, 0),
            (0, 1, 5, 0),
            (0, 2, 3, 0),
        ],
    )
    J = (core & MonomialIdeal.max_power(4, 7)) + MonomialIdeal.max_power(4, 8)
    mem = is_in_D(J)
    _ensure(bool(mem), f"the ideal should be in D: {mem.reason}")
    _ensure(
        not is_integrally_closed(J * J),
        "the square should not be integrally closed",
    )


def _checks(budget: int):
    """(name, no-argument check) pairs; the pipeline check reads the budget."""
    return (
        ("pair-of-squares-contracted", _check_pair_of_squares),
        ("mixed-cubes-not-contracted", _check_mixed_cubes),
        ("contracted-but-square-is-not", _check_contracted_square_escapes),
        ("closed-full-mu-outside-class", _check_closed_full_mu_outside_class),
        ("three-primes-pipeline", partial(_check_three_primes_pipeline, budget)),
        ("product-of-closed-not-closed", _check_product_of_closed_escapes),
        ("square-of-closed-not-closed", _check_square_of_closed_escapes),
    )


def example_names() -> tuple[str, ...]:
    return tuple(name for name, _ in _checks(DEFAULT_TERM_BUDGET))


def run_examples(budget: int = DEFAULT_TERM_BUDGET) -> list[ExampleResult]:
    """Run every built-in example; failures carry the failing condition."""
    results = []
    for name, check in _checks(budget):
        try:
            check()
        except Exception as err:  # noqa: BLE001 - report, do not crash
            results.append(ExampleResult(name, False, str(err), err))
        else:
            results.append(ExampleResult(name, True))
    return results
