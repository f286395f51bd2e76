"""The class layer against its listing oracles, and guards that it lists no
component ideal and checks each family fact once.

`q_family`, `is_contracted`, `_family_in_C`, `ideal_of_family`,
`_local_families` and `factor_C` are compared with the routes in `tests/oracles.py` built on the
listed component ideals of `component_by_listing`, which is compared with
the lcm route there; `goto_form` and `localize_power` with the
meet-checking, projecting and listing routes there, and
`reg_dim1_saturated` with the degree-by-degree probe.
"""

import random
from functools import reduce
from operator import and_

import pytest

from gideal import (
    CoordinatePrime,
    FamilyError,
    MonomialIdeal,
    QFamily,
    factor_C,
    gform_to_monomial,
    goto_form,
    hs_via_factorization,
    ideal_of_family,
    is_contracted,
    is_in_C,
    localize_power,
    q_family,
    reg_dim1_saturated,
)
from gideal.classes import _family_in_C, _local_families
from gideal.cli import _classify_ideal

from counting import count_calls
from oracles import (
    component_by_lcm,
    component_by_listing,
    factor_C_by_compositions,
    family_in_C_by_listing,
    form_of_family_by_meet,
    ideal_of_family_by_listing,
    is_contracted_by_listing,
    local_families,
    localize_power_by_listing,
    localize_power_by_projection,
    q_family_by_listing,
    recovered_by_compositions,
    reg_dim1_by_probing,
)
from samplers import (
    random_class_c,
    random_finite_ideal,
    random_form,
    random_gstar,
    random_small_ideal,
)

THREE_PRIMES = MonomialIdeal.of(
    3, [(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 0), (0, 1, 1), (1, 0, 1)]
)


def ladder(D: int) -> MonomialIdeal:
    """x^D, y^D, z^D, xy, yz, xz."""
    return MonomialIdeal.of(
        3, [(D, 0, 0), (0, D, 0), (0, 0, D), (1, 1, 0), (0, 1, 1), (1, 0, 1)]
    )


def finite_samples(seed: int, per_kind: int) -> list[MonomialIdeal]:
    """Seeded finite-colength ideals: G*, class C and arbitrary ones with
    n = 2-4, each kind followed by products of consecutive samples."""
    rng = random.Random(seed)
    kinds = [
        lambda: random_gstar(rng)[0],
        lambda: random_class_c(rng),
        lambda: random_finite_ideal(rng, 2),
        lambda: random_finite_ideal(rng, 3),
        lambda: random_finite_ideal(rng, 4, max_deg=3),
    ]
    out = []
    for make in kinds:
        ideals = [make() for _ in range(per_kind)]
        out += ideals
        out += [a * b for a, b in zip(ideals[::2], ideals[1::2])]
    return out


def random_member(rng: random.Random, n: int) -> MonomialIdeal:
    """A saturated one-dimensional ideal: the meet of ideals primary to
    distinct coordinate primes, each of finite colength in the variables
    of its prime."""
    Q = MonomialIdeal.unit(n)
    for w in rng.sample(range(n), rng.randint(1, n)):
        local = random_finite_ideal(rng, n - 1, max_deg=3)
        Q = Q & MonomialIdeal.of(n, [g[:w] + (0,) + g[w:] for g in local.gens])
    return Q


def distinct_members(seed: int, per_n: int) -> list[MonomialIdeal]:
    """The distinct family members of the finite samples and of the ideals
    rebuilt from one-member families of `random_member`, n = 2-4."""
    rng = random.Random(seed)
    ideals = list(FINITE)
    for n in (2, 3, 4):
        for _ in range(per_n):
            fam = QFamily(n, (random_member(rng, n),))
            ideals.append(ideal_of_family(fam, rng.randint(0, 2)))
    members = {}
    for I in ideals:
        try:
            members.update(dict.fromkeys(q_family(I).members))
        except FamilyError:
            continue
    return list(members)


FINITE = finite_samples(71, 120)
FINITE_C = [(I, fam) for I in FINITE if (fam := _family_in_C(I)[0]) is not None]
MEMBERS = distinct_members(29, 60)
SMALL = [
    random_small_ideal(random.Random(1000 * n + k), n)
    for n in range(2, 6)
    for k in range(200)
]


def family_or_error(fn, I):
    try:
        return "members", fn(I).members
    except FamilyError as err:
        return "FamilyError", err.j, str(err)


def test_sample_counts():
    assert (len(FINITE), len(SMALL)) == (900, 800)
    assert len(MEMBERS) >= 250
    assert {Q.n for Q in MEMBERS} == {2, 3, 4}


@pytest.mark.parametrize("group", ["finite", "small"])
def test_contracted_and_component_match_listing(group):
    answers = set()
    for I in FINITE if group == "finite" else SMALL:
        answer = is_contracted(I)
        assert answer == is_contracted_by_listing(I), I
        answers.add(answer)
        for j in range(I.max_degree + 2):
            assert component_by_listing(I, j) == component_by_lcm(I, j), (I, j)
    assert answers == {True, False}


def test_component_of_zero_and_unit_ideals():
    for n in (1, 2, 4):
        for I in (MonomialIdeal.zero(n), MonomialIdeal.unit(n)):
            for j in range(4):
                assert component_by_listing(I, j) == component_by_lcm(I, j)


def test_member_components_match_listing():
    # the class layer saturates the generators of degree <= t, which is the
    # saturation of the listed degree-t component
    for Q in MEMBERS:
        for t in range(Q.order, Q.max_degree + 2):
            listed = component_by_listing(Q, t)
            assert listed == component_by_lcm(Q, t), (Q, t)
            low = [g for g in Q.gens if sum(g) <= t]
            assert listed.saturate() == MonomialIdeal(Q.n, tuple(low)).saturate()


def test_family_layer_matches_listing():
    seen_errors = seen_in_C = seen_out_of_C = 0
    for I in FINITE:
        fam = family_or_error(q_family, I)
        assert fam == family_or_error(q_family_by_listing, I)
        seen_errors += fam[0] == "FamilyError"
        got = _family_in_C(I)
        assert got == family_in_C_by_listing(I)
        if got[0] is None:
            seen_out_of_C += 1
            continue
        seen_in_C += 1
        assert factor_C(I) == factor_C_by_compositions(I)
    # every branch is exercised
    assert min(seen_errors, seen_in_C, seen_out_of_C) > 0


def test_reconstruction_matches_listing_on_well_formed_families():
    # members of C and the well-formed families of ideals outside it
    checked = 0
    for I in FINITE:
        try:
            fam = q_family(I)
        except FamilyError:
            continue
        for k in range(3):
            assert ideal_of_family(fam, k) == ideal_of_family_by_listing(fam, k)
        checked += 1
    assert checked >= 600


class TestNoComponentListed:
    @pytest.fixture(autouse=True)
    def forbid_component(self, monkeypatch):
        # the package has no component method; one that came back would
        # be replaced here, so any call into it fails
        def forbidden(self, j):
            raise AssertionError("the class layer listed a component ideal")

        assert not hasattr(MonomialIdeal, "component")
        monkeypatch.setattr(MonomialIdeal, "component", forbidden, raising=False)

    def ideals(self):
        rng = random.Random(5)
        out = [THREE_PRIMES]
        for _ in range(4):
            out.append(random_gstar(rng)[0])
            out.append(random_class_c(rng))
        return out

    def test_class_layer(self):
        for I in self.ideals():
            is_contracted(I)
            assert is_in_C(I)
            goto_form(I)
            factor_C(I)
            hs_via_factorization(I)
            _classify_ideal(I, (), None)

    def test_ladder(self):
        I = ladder(30)
        assert is_contracted(I)
        assert _classify_ideal(I, (), None)["in_G"]
        assert len(factor_C(I).factors) == 3


def test_family_saturates_once_per_generator_degree(monkeypatch):
    calls = count_calls(monkeypatch, MonomialIdeal, "saturate")
    fam = q_family(ladder(100))
    assert fam.s == 98
    # generator degrees 2 and 100: the family ends at the second saturation
    assert len(calls) <= 2


def test_member_is_the_meet_of_its_localizations():
    # factor_C splits each member into its local members without meeting
    # them again: they meet in the member, and so does the saturated sum of
    # the local products over the compositions of j
    checked = 0
    for I, fam in FINITE_C:
        if not fam.s:
            continue
        lfs = local_families(fam)
        for j in range(fam.s):
            meet = reduce(and_, (lf.q(j) for lf in lfs))
            assert meet == fam.q(j), (I, j)
            assert recovered_by_compositions(lfs, j) == meet, (I, j)
        checked += 1
    assert checked >= 300


def test_goto_form_matches_meet_oracle():
    reasons = set()
    for I, fam in FINITE_C:
        got = goto_form(I)
        assert got == form_of_family_by_meet(I, fam), I
        reasons.add(got[1] != "")
    assert reasons == {True, False}


def test_goto_form_realizes_as_the_ideal():
    # goto_form does not realize the form it returns; here every member of
    # G among the samples is rebuilt from its form
    realized = 0
    for I, _ in FINITE_C:
        form, _ = goto_form(I)
        if form is not None:
            assert gform_to_monomial(form, I.n) == I, I
            realized += 1
    assert realized >= 300


@pytest.mark.parametrize("group", ["members", "small"])
def test_localize_power_matches_projection(group):
    # an m-primary ideal localizes to the unit ideal, so the finite samples
    # enter through their family members
    if group == "members":
        ideals = [Q for _, fam in FINITE_C for Q in fam.members]
    else:
        ideals = SMALL
    answers = set()
    for I in ideals:
        for w in range(I.n):
            P = CoordinatePrime(w)
            answer = localize_power(I, P)
            assert answer == localize_power_by_projection(I, P), (I, w)
            answers.add(answer is None)
    assert answers == {True, False}


def test_localize_power_matches_listing_on_members():
    answers = set()
    for Q in MEMBERS:
        for w in range(Q.n):
            P = CoordinatePrime(w)
            answer = localize_power(Q, P)
            assert answer == localize_power_by_listing(Q, P), (Q, w)
            answers.add(answer is None)
    assert answers == {True, False}


def test_reg_dim1_matches_probing_on_members():
    for Q in MEMBERS:
        assert reg_dim1_saturated(Q) == reg_dim1_by_probing(Q), Q


def test_factor_checks_members_without_products(monkeypatch):
    calls = count_calls(monkeypatch, MonomialIdeal, "__mul__")
    assert len(factor_C(ladder(100)).factors) == 3
    # I * M^s and M^r times the three factors: the balance identity only
    assert len(calls) <= 4


def test_C_test_saturates_once_per_family_fact(monkeypatch):
    calls = count_calls(monkeypatch, MonomialIdeal, "saturate")
    assert is_in_C(ladder(100))
    # two family members; the regularity of a member is not checked again
    assert len(calls) <= 2


def test_classify_reuses_the_contractedness_of_C(monkeypatch):
    import gideal.classes
    import gideal.cli

    counted = [
        count_calls(monkeypatch, module, "is_contracted")
        for module in (gideal.classes, gideal.cli)
    ]
    assert _classify_ideal(THREE_PRIMES, (), None)["contracted"] is True
    assert counted == [[], []]


def test_factor_saturates_no_local_member(monkeypatch):
    calls = count_calls(monkeypatch, MonomialIdeal, "saturate")
    assert len(factor_C(ladder(100)).factors) == 3
    # two family members; the regularities of the family and of the three
    # local families, whose members are saturated by construction, check none
    assert len(calls) <= 2


def test_goto_form_saturates_no_realized_member(monkeypatch):
    calls = count_calls(monkeypatch, MonomialIdeal, "saturate")
    assert goto_form(ladder(100))[0] is not None
    # two family members; the regularity of the family checks none
    assert len(calls) <= 2


def test_family_checks_each_distinct_member_once(monkeypatch):
    import gideal.classes

    calls = count_calls(monkeypatch, gideal.classes, "_check_member")
    assert q_family(ladder(100)).s == 98
    # one distinct member, (xy, yz, xz), from degree 2 to 99
    assert len(calls) == 1


def test_local_families_match_minimal_primes():
    # the primes are read off the pure powers of the first member and each
    # run of equal members is saturated once; the oracle finds the primes as
    # minimal transversals and saturates every member
    rng = random.Random(53)
    ideals = [random_class_c(rng) for _ in range(60)]
    ideals += [random_gstar(rng)[0] for _ in range(60)]
    ideals += [random_form(rng, 4)[0] for _ in range(60)]
    ideals += [ladder(30), THREE_PRIMES, MonomialIdeal.max_power(3, 2)]
    shapes = set()
    for I in ideals:
        fam = q_family(I)
        local = _local_families(fam)
        if not fam.s:
            assert local == {}, I
            shapes.add("all-unit")
            continue
        covers = fam.members[0].minimal_primes()
        assert list(local) == sorted(min(set(range(I.n)) - c) for c in covers), I
        assert list(local.values()) == local_families(fam), I
        shapes.add(len(local))
        if any(len(set(lf.members)) < lf.s for lf in local.values()):
            shapes.add("repeated")
        if any(lf.s < fam.s for lf in local.values()):
            shapes.add("shorter")
    assert {"all-unit", 1, 2, 3, "repeated", "shorter"} <= shapes


def test_goto_form_saturates_each_distinct_member_once(monkeypatch):
    calls = count_calls(monkeypatch, MonomialIdeal, "saturate_var")
    assert goto_form(ladder(10**4))[0] is not None
    # two saturations of three variables build the family, whose one
    # distinct member is then localized at its three minimal primes
    assert len(calls) <= 12


def test_goto_form_names_the_first_failing_member():
    # member 0 fails at the prime omitting y and member 1 at the prime
    # omitting x: the reason names member 0
    Q0 = MonomialIdeal.of(3, [(0, 2, 0), (0, 1, 1), (0, 0, 2)]) & MonomialIdeal.of(
        3, [(2, 0, 0), (0, 0, 1)]
    )
    Q1 = MonomialIdeal.of(3, [(0, 2, 0), (0, 0, 1)]) & MonomialIdeal.of(
        3, [(1, 0, 0), (0, 0, 1)]
    )
    I = ideal_of_family(QFamily.of(3, [Q0, Q1]), 0)
    reason = (
        "localization of member 0 at the prime omitting variable 1 is not a "
        "prime power"
    )
    assert goto_form(I) == (None, reason)
    assert form_of_family_by_meet(I, _family_in_C(I)[0]) == (None, reason)
