"""Contractedness, the saturated-family correspondence, and the classes
C, D, G and G* of finite-colength monomial ideals.

C is the class of ideals reconstructed exactly from their family of
saturated component ideals; D adds integral closedness; G asks every family
member to be an intersection of powers of the minimal primes of the first
one, and G* is the integrally closed part of G.  Members of C factor,
uniquely up to a power of the maximal ideal, into ideals supported on one
coordinate prime each.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from math import comb

from .ideals import CoordinatePrime, MonomialIdeal, _prime_power, _reg_dim1
from .newton import is_integrally_closed, newton_closure
from .staircases import (
    Staircase,
    closure_seq,
    factor_simple,
    minplus_product,
)


@dataclass(frozen=True)
class Membership:
    """Boolean with the reason for a negative answer."""

    ok: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


class FamilyError(ValueError):
    def __init__(self, j: int, message: str):
        super().__init__(message)
        self.j = j


@dataclass(frozen=True)
class QFamily:
    """Increasing family of saturated dimension-1 ideals, unit from s on.

    `of` validates; the package builds families valid by construction."""

    n: int
    members: tuple[MonomialIdeal, ...]

    @property
    def s(self) -> int:
        return len(self.members)

    def q(self, j: int) -> MonomialIdeal:
        if j < 0:
            raise ValueError("negative family index")
        if j < self.s:
            return self.members[j]
        return MonomialIdeal.unit(self.n)

    @cached_property
    def d0(self) -> int:
        """Regularity of the first member; 0 for the all-unit family.  The
        member is saturated of dimension 1, so it is not checked again."""
        return _reg_dim1(self.members[0])[0] if self.s else 0

    @classmethod
    def of(cls, n: int, members) -> "QFamily":
        members = tuple(members)
        for j, m in enumerate(members):
            if m.is_unit() or m.is_zero():
                raise FamilyError(j, f"member {j} is not a proper nonzero ideal")
            if m.saturate() != m:
                raise FamilyError(j, f"member {j} is not saturated")
            _check_member(j, m)
            if j and not members[j - 1] <= m:
                raise FamilyError(j, f"member {j} does not contain member {j - 1}")
        return cls(n, members)


def _check_member(j: int, m: MonomialIdeal) -> None:
    """Member j must be one-dimensional."""
    if m.dimension() != 1:
        raise FamilyError(j, f"member {j} has dimension {m.dimension()} (expected 1)")


def _saturations(I: MonomialIdeal):
    """Yield (t, Q_t) for t from the order of I on, without end.

    Q_t saturates the degree-t component (gens of degree <= t) ∩ M^t, so it
    is the saturation of those gens and changes only at generator degrees.
    """
    degs = [sum(g) for g in I.gens]
    t, k = I.order, 0
    while True:
        top = bisect_right(degs, t)
        if top > k:
            k = top
            Q = MonomialIdeal(I.n, I.gens[:k]).saturate()
        yield t, Q
        t += 1


def q_family(I: MonomialIdeal) -> QFamily:
    """Saturations of the component ideals of I from its order upward.

    Stops at the first unit saturation; for finite-colength input this
    always happens.  Fails when some member is not one-dimensional.  The
    members saturate growing generator prefixes, so they increase.
    """
    if I.colength() is None:
        raise ValueError("ideal does not have finite colength")
    members = []
    for _, Q in _saturations(I):
        if Q.is_unit():
            return QFamily(I.n, tuple(members))
        if not members or Q is not members[-1]:
            _check_member(len(members), Q)
        members.append(Q)


def ideal_of_family(fam: QFamily, k: int) -> MonomialIdeal:
    """The ideal whose degree-(d0+k+j) piece is that of the j-th member.

    d0 is the regularity of the first member (0 for the all-unit family,
    which yields M^k).  With e = d0 + k this is M^(e+s) + sum of Q_j ∩ M^(e+j),
    since the family increases; a repeated member adds nothing.
    """
    if k < 0:
        raise ValueError("negative offset")
    e = fam.d0 + k
    out = MonomialIdeal.max_power(fam.n, e + fam.s)
    for j, Q in enumerate(fam.members):
        if not j or Q != fam.members[j - 1]:
            out = out + (Q & MonomialIdeal.max_power(fam.n, e + j))
    return out


# -- contracted ideals ------------------------------------------------------


def is_contracted(I: MonomialIdeal) -> bool:
    """Degreewise saturation test for contractedness."""
    if I.is_zero() or I.is_unit():
        raise ValueError("contractedness needs a nonzero proper ideal")
    return _agrees_with_saturations(I, _saturations(I))


def _agrees_with_saturations(I: MonomialIdeal, pairs) -> bool:
    """Whether I is contracted, given the pairs (t, Q_t) from its order on.

    In each degree t, I must have as many monomials as Q_t ⊇ I_t, the
    saturation of its degree-t component.  Past the top generator degrees
    of I and of sat(I), which for a non-m-primary I can be the larger,
    agreement persists, so the sweep stops there.
    """
    for t, Q in pairs:
        if Q.hilbert_function(t) != I.hilbert_function(t):
            return False
        if t >= max(I.max_degree, Q.max_degree):
            return True


# -- class membership -------------------------------------------------------


def _family_in_C(I: MonomialIdeal) -> tuple[QFamily | None, str]:
    """(family of I, "") when its family reconstructs I, which given the family
    holds exactly when I is contracted; else (None, reason).

    The test is the length identity
    colength(I) = C(d+n-1, n) + sum over j < s of HF_{R/Q_j}(d+j)
    for I of order d.  In each degree t >= d the member Q_(t-d) contains
    I_t, so HF_{R/I}(t) bounds HF_{R/Q_(t-d)}(t) from above, and the sums
    agree exactly when every degree does: the degreewise test of
    `is_contracted`, read off one colength and s Hilbert function values.
    """
    colength = I.colength()
    if colength is None:
        return None, "colength is infinite"
    try:
        fam = q_family(I)
    except FamilyError as err:
        return None, str(err)
    d, n = I.order, I.n
    if d < fam.d0:
        return None, f"order {d} is below the characteristic regularity {fam.d0}"
    outside = comb(d + n - 1, n) + sum(
        Q.hilbert_function(d + j) for j, Q in enumerate(fam.members)
    )
    if colength != outside:
        return None, "family reconstruction differs from the ideal"
    return fam, ""


def is_in_C(I: MonomialIdeal) -> Membership:
    """Roundtrip test: I belongs to C when its family reconstructs it."""
    fam, reason = _family_in_C(I)
    return Membership(fam is not None, reason)


def is_in_D(I: MonomialIdeal) -> Membership:
    mem = is_in_C(I)
    if not mem:
        return mem
    if not is_integrally_closed(I):
        return Membership(False, "not integrally closed")
    return Membership(True)


def mu_class_check(I: MonomialIdeal) -> bool:
    """Whether I has as many minimal generators as M^order."""
    if I.colength() is None:
        raise ValueError("ideal does not have finite colength")
    d = I.order
    return I.mu == comb(d + I.n - 1, I.n - 1)


def equiv(I: MonomialIdeal, J: MonomialIdeal) -> bool:
    """Equality up to a factor M^r, for members of C."""
    for X in (I, J):
        mem = is_in_C(X)
        if not mem:
            raise ValueError(f"equivalence is defined on C only: {mem.reason}")
    if I.order == J.order:
        return I == J
    hi, lo = (I, J) if I.order > J.order else (J, I)
    r = hi.order - lo.order
    return hi == lo * MonomialIdeal.max_power(I.n, r)


# -- factorization in C -----------------------------------------------------


@dataclass(frozen=True)
class CFactorization:
    """Factors supported on one coordinate prime each, with the exact
    balance identity I * M^s == product(factors) * M^r."""

    factors: tuple[MonomialIdeal, ...]
    balance: tuple[int, int]


def _local_families(fam: QFamily) -> dict[int, QFamily]:
    """The family localized at each minimal prime P_w of its first member, by
    omitted variable w.  A saturated one-dimensional member lies in P_w when
    no generator is a pure power of x_w, and localizes there to the
    saturated `saturate_var(w)`; a local family ends before its first unit
    member and is valid, and a run of equal members is saturated once."""
    out = {}
    for w in range(fam.n):
        members = []
        for Q, run in groupby(fam.members):
            if any(g[w] == sum(g) for g in Q.gens):
                break
            members += [Q.saturate_var(w)] * len(list(run))
        if members:
            out[w] = QFamily(fam.n, tuple(members))
    return out


def factor_C(I: MonomialIdeal) -> CFactorization:
    """Split a member of C along the minimal primes of its first member.

    Each factor is the ideal of one local family of `_local_families`; the
    balance exponents make the product identity exact, and it is checked.
    A saturated one-dimensional monomial ideal is the intersection of its
    localizations at its minimal primes, so the local members meet in the
    member they came from; the tests compare the two.
    """
    fam, reason = _family_in_C(I)
    if fam is None:
        raise ValueError(f"not in C: {reason}")
    d, n = I.order, I.n
    factors = [ideal_of_family(lf, 0) for lf in _local_families(fam).values()]
    total = sum(f.order for f in factors)
    s, r = max(0, total - d), max(0, d - total)
    left = I * MonomialIdeal.max_power(n, s)
    right = MonomialIdeal.max_power(n, r)
    for f in factors:
        right = right * f
    if left != right:
        raise RuntimeError("factorization balance identity failed")
    return CFactorization(tuple(factors), (s, r))


def closure_in_class(I: MonomialIdeal) -> MonomialIdeal:
    """Integral closure of a member of C.  It lies in D, and closing commutes
    with multiplying by the maximal ideal; the tests check both."""
    mem = is_in_C(I)
    if not mem:
        raise ValueError(f"not in C: {mem.reason}")
    return newton_closure(I)


# -- Goto forms -------------------------------------------------------------


def _label_key(label):
    return (0, label, "") if isinstance(label, int) else (1, 0, str(label))


def _strip_unit_prefix(a: Staircase) -> Staircase | None:
    """Canonical form: a staircase starting with unit steps encodes the
    same family columns as its shifted tail, so the prefix is dropped.
    Returns None for the trivial staircase."""
    p = 0
    while p < a.d and a[p + 1] == p + 1:
        p += 1
    if p == a.d:
        return None
    rest = tuple(a[p + i] - p for i in range(len(a.steps) - p))
    return Staircase(rest)


@dataclass(frozen=True)
class GForm:
    """Order plus one staircase per (opaque) prime label.

    Abstract: labels only need to be distinct.  Realization in a concrete
    ring assigns labels injectively to coordinate primes and is where
    validity (order at least the regularity of the first member) is
    checked.
    """

    order: int
    components: tuple[tuple[object, Staircase], ...]

    def __post_init__(self):
        """Canonical components: unit prefixes dropped, sorted by label."""
        if self.order < 0:
            raise ValueError("negative order")
        items = []
        seen = set()
        for label, stair in self.components:
            if label in seen:
                raise ValueError(f"duplicate prime label {label!r}")
            seen.add(label)
            canonical = _strip_unit_prefix(stair)
            if canonical is not None:
                items.append((label, canonical))
        items.sort(key=lambda it: _label_key(it[0]))
        object.__setattr__(self, "components", tuple(items))

    @classmethod
    def of(cls, order: int, mapping) -> "GForm":
        """The form of a label -> staircase mapping or list of pairs."""
        pairs = mapping.items() if isinstance(mapping, dict) else mapping
        return cls(order, tuple(pairs))

    @classmethod
    def m_power(cls, k: int) -> "GForm":
        return cls.of(k, {})

    @property
    def mapping(self) -> dict:
        return dict(self.components)

    @property
    def labels(self) -> tuple:
        return tuple(label for label, _ in self.components)


def staircase_alphas(a: Staircase) -> tuple[int, ...]:
    """Per-degree prime powers of the staircase ideal's family.

    alpha_j = d - max{i : a_i - i <= j}; entries are returned until they
    reach 0 and are 0 from there on.
    """
    d = a.d
    # b never decreases, so the max is the last index a bisection finds
    b = [a[i] - i for i in range(d + 1)]
    return tuple(d + 1 - bisect_right(b, j) for j in range(b[d]))


def alphas_to_staircase(alphas) -> Staircase:
    """Inverse of staircase_alphas: a_i = i + min{j : alpha_j <= d - i}."""
    col = list(alphas)
    if any(a < 0 for a in col):
        raise ValueError("prime powers must be non-negative")
    while col and col[-1] == 0:
        col.pop()
    if not col:
        return Staircase((0,))
    if any(y > x for x, y in zip(col, col[1:])):
        raise ValueError("prime powers must be weakly decreasing")
    d = col[0]
    col.append(0)
    steps = []
    for i in range(d + 1):
        j = next(j for j, a in enumerate(col) if a <= d - i)
        steps.append(i + j)
    return Staircase(tuple(steps))


def goto_form(I: MonomialIdeal) -> tuple[GForm | None, str]:
    """The GForm of a member of C, or (None, reason).

    Every family member must be the intersection of powers of the minimal
    primes of the first member.  A member is the intersection of its
    localizations at those primes, so it suffices that each localization
    is a prime power.
    """
    fam, reason = _family_in_C(I)
    if fam is None:
        raise ValueError(f"not in C: {reason}")
    return _form_of_family(I, fam)


def _form_of_family(I: MonomialIdeal, fam: QFamily) -> tuple[GForm | None, str]:
    """`goto_form` of I, given its family from `_family_in_C`.

    The prime powers are read off `_local_families` (0 past the end of a
    local family); a failure names the first failing member, then the
    smallest omitted variable.  The family rebuilds I, and the form
    records the prime powers whose meets are its members, so
    `gform_to_monomial` realizes the form as I; the tests compare the two.
    """
    columns = {
        w: [_prime_power(Q) for Q in lf.members]
        for w, lf in _local_families(fam).items()
    }
    failed = [(col.index(None), w) for w, col in columns.items() if None in col]
    if failed:
        j, w = min(failed)
        return None, (f"localization of member {j} at the prime omitting "
                      f"variable {w} is not a prime power")
    mapping = {w: alphas_to_staircase(col) for w, col in columns.items()}
    return GForm.of(I.order, mapping), ""


def is_in_G(I: MonomialIdeal) -> GForm | None:
    return goto_form(I)[0]


def gform_to_monomial(form: GForm, n: int) -> MonomialIdeal:
    """Realize a GForm in n variables.

    Integer labels in range name the omitted variable of their coordinate
    prime; otherwise each label omits the variable of its sorted position.
    """
    labels = form.labels
    if len(labels) > n:
        raise ValueError(f"{len(labels)} primes cannot be realized in {n} variables")
    if all(isinstance(l, int) and 0 <= l < n for l in labels):
        omitted = labels
    else:
        omitted = range(len(labels))
    columns = [staircase_alphas(stair) for _, stair in form.components]
    s = max((len(c) for c in columns), default=0)
    members = []
    for j in range(s):
        Q = MonomialIdeal.unit(n)
        for w, col in zip(omitted, columns):
            a = col[j] if j < len(col) else 0
            if a:
                Q = Q & CoordinatePrime(w).power(n, a)
        members.append(Q)
    # meets of prime powers with weakly decreasing exponents: a valid family
    fam = QFamily(n, tuple(members))
    if form.order < fam.d0:
        raise ValueError(
            f"order {form.order} is below the regularity {fam.d0} of the first member"
        )
    return ideal_of_family(fam, form.order - fam.d0)


def gform_product(a: GForm, b: GForm) -> GForm:
    """Orders add; staircases at shared labels multiply in min-plus."""
    mapping = a.mapping
    for label, stair in b.components:
        if label in mapping:
            mapping[label] = minplus_product(mapping[label], stair)
        else:
            mapping[label] = stair
    return GForm.of(a.order + b.order, mapping)


def gform_closure(form: GForm) -> GForm:
    """Componentwise staircase closure; the order is unchanged."""
    return GForm.of(
        form.order, {label: closure_seq(stair) for label, stair in form.components}
    )


@dataclass(frozen=True)
class GSimpleFactorization:
    """Per-prime simple factors (label, d, t, multiplicity) together with
    the net maximal-ideal exponents: G * M^balance == M^m_power * product."""

    factors: tuple[tuple[object, int, int, int], ...]
    m_power: int
    balance: int


def gform_simple_factorization(form: GForm) -> GSimpleFactorization:
    """Unique simple factorization of an integrally closed GForm.

    Each staircase is the min-plus product of its pieces from
    `factor_simple`, whose lengths add up to its own, so the orders balance
    by the choice of m_power and balance."""
    factors = []
    net = form.order
    for label, stair in form.components:
        sf = factor_simple(stair)
        net += sf.m_power - stair.d
        factors += [(label, d, t, mult) for d, t, mult in sf.factors]
    m_power, balance = max(0, net), max(0, -net)
    factors.sort(key=lambda f: (_label_key(f[0]), f[1], f[2]))
    return GSimpleFactorization(tuple(factors), m_power, balance)
