"""Independent second routes for the package's fast paths.

Each function here computes what a shipped function computes, by a
different and much slower formula.  The tests compare the two; nothing in
the package imports this module.

- `closure_seq_minplus`: staircase closure by min-plus powers, against the
  lower-hull `closure_seq`.
- `closure_by_powers`: integral closure by the power test, against the
  Newton-polyhedron `newton_closure`.
- `newton_closure_by_degrees`: integral closure by a walk up the degrees
  through the monomials outside it, against the column walk of
  `newton_closure`.  It shares the facets of `newton._facets`, so it
  checks the walk and not the facets.
- `hilbert_function_incl_excl`: the Hilbert function by
  inclusion-exclusion over the generators, against the sliced
  `MonomialIdeal.hilbert_function`.
- `colength_by_box`: the colength by testing every monomial below the
  pure powers, against the sliced `MonomialIdeal.colength`.
- `max_convex_cover_fractions`: membership in the Newton polyhedron by
  the simplex over `Fraction` entries (a point is inside exactly when the
  optimum reaches 1), against the facets of `newton._facets`.
- `component_by_listing` and `component_by_lcm`: the degree-j component
  ideal as every degree-j multiple of every generator, and as the
  generators of degree at most j intersected with M^j.  The package lists
  no component: its class layer saturates the generators of degree at
  most j, which the second route shows to be the same ideal.
- `q_family_by_listing`, `ideal_of_family_by_listing`,
  `is_contracted_by_listing`, `family_in_C_by_listing` and
  `factor_C_by_compositions`: the class layer built on the component
  ideals of `component_by_listing`, with the families checked by the
  validating `QFamily.of` and member j recovered as the saturated sum of
  the local products over every composition of j
  (`recovered_by_compositions`), against the saturations by generator
  degree, the contractedness test of C and the intersection of the local
  members in `gideal.classes`.  `local_families` finds the minimal primes
  as minimal transversals of the generator supports and saturates every
  member, against `_local_families`, which reads the primes off the pure
  powers and saturates each run of equal members once.
- `localize_power_by_projection`, `localize_power_by_listing` and
  `form_of_family_by_meet`: the localization read in n - 1 variables, the
  localization compared with the listed prime power of its order, and
  Goto forms that also check each member against the meet of its prime
  powers, against the generator count of `localize_power` and the
  meet-free `goto_form`.
- `reg_dim1_by_probing`: the regularity and multiplicity of a saturated
  one-dimensional ideal by probing its Hilbert function degree by degree
  until it stops growing, against `reg_dim1_saturated`, which reads both
  off the numerator of its Hilbert series.
- `power_colengths_by_products` and `h_polynomial_by_filtration`: the
  colengths of I, I^2, ... from the ideal powers themselves, and the
  h-polynomial read off them, against `hf_filtration` and `h_polynomial`,
  which take the colengths of the powers of a member of G from the powers
  of its Goto form.
- `tokenize_by_scanning`: the tokens of a text document by a scan of one
  character at a time with the `str` predicates `isdecimal`, `isalpha`,
  `isalnum` and `isspace`, against the one regular expression of
  `textio._tokenize`.

The package computes each answer once.  Where a shipped function already
inverts another, the tests use it as the second route: `factor_simple`
against `SimpleFactorization.reconstruct`, `goto_form` against
`gform_to_monomial`, `newton_closure` against `contains_ideal`,
`factor_C` against the meet of its local members, and `multiplicity_e`
against `hs_via_factorization`.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import count, product
from math import comb
from operator import add, mul

from gideal import (
    CFactorization,
    CoordinatePrime,
    GForm,
    MonomialIdeal,
    QFamily,
    Staircase,
    alphas_to_staircase,
    gform_to_monomial,
    minplus_product,
    newton_closure,
)
from gideal.classes import FamilyError
from gideal.hilbert import DEFAULT_TERM_BUDGET, HilbertSeries, _h_of_colengths
from gideal.ideals import _minimal, mono_deg, mono_lcm, monomials_of_degree
from gideal.newton import _facets
from gideal.textio import ParseError, Token


def closure_seq_minplus(a: Staircase) -> Staircase:
    """Integral closure: a'_j = min over k of ceil of (a^(k))_(kj) / k.

    Builds the d min-plus powers of a, so it costs O(d^4).
    """
    d = a.d
    if d == 0:
        return a
    powers = [None, a]
    for _ in range(2, d + 1):
        powers.append(minplus_product(powers[-1], a))
    out = []
    for j in range(d + 1):
        out.append(min(-(-powers[k][k * j] // k) for k in range(1, d + 1)))
    return Staircase(tuple(out))


def closure_by_powers(I: MonomialIdeal, k_max: int | None = None) -> MonomialIdeal:
    """Integral closure by the power test: v is integral over I when
    x^(k*v) lies in I^k for some k.

    Exponential in everything; for small inputs only.  The default bound
    k <= n * max generator degree covers the denominators of vertex
    witnesses at this scale.
    """
    if I.is_zero() or I.is_unit():
        return newton_closure(I)
    n = I.n
    if k_max is None:
        k_max = n * I.max_degree
    powers = [None, I]
    for k in range(2, k_max + 1):
        powers.append(powers[-1] * I)

    def integral(v: tuple[int, ...]) -> bool:
        return any(
            powers[k].contains_monomial(tuple(k * e for e in v))
            for k in range(1, k_max + 1)
        )

    found: list[tuple[int, ...]] = []
    for degree in range(I.order, I.max_degree + n):
        for vt in monomials_of_degree(n, degree):
            if any(all(f[i] <= vt[i] for i in range(n)) for f in found):
                continue
            if integral(vt):
                found.append(vt)
    return MonomialIdeal.of(n, found)


def newton_closure_by_degrees(I: MonomialIdeal) -> MonomialIdeal:
    """Integral closure by a walk up the degrees from the order of I.

    Keeps only the monomials outside the closure.  A minimal generator of
    degree d has all of its degree-(d-1) divisors outside, so the degree-d
    candidates are the one-step multiples of the previous outside set whose
    every such divisor is outside too.  Each candidate is tested against
    every facet of the Newton polyhedron, up to degree D + n for the
    largest generator degree D.

    The facets come from `newton._facets`, the kernel `newton_closure`
    reads its heights from, so this checks the column walk and not the
    facets.  The facets are checked against `max_convex_cover_fractions`
    on every point of a box (`test_facets_match_fraction_simplex_on_a_box`
    in `test_newton.py`) and, through the whole closure, against
    `closure_by_powers`.  Membership by the `Fraction` simplex here would
    share no kernel, but on the ideals of `test_matches_degree_walk` it
    took 51.5 s against 0.16 s (Python 3.11, 2 CPUs).
    """
    if I.is_zero() or I.is_unit():
        return I
    n = I.n
    facets = _facets(I.gens, n)
    lo, hi = I.order, I.max_degree + n - 1
    found: list[tuple[int, ...]] = []
    cands = monomials_of_degree(n, lo)
    for degree in range(lo, hi + 2):
        outside = []
        for v in cands:
            if any(sum(map(mul, w, v)) < c for w, c in facets):
                outside.append(v)
            elif degree > hi:
                raise RuntimeError("integral closure generated above the degree bound")
            else:
                found.append(v)
        # a multiple v of the outside set counts once per divisor v - e_i
        # outside, and has one such divisor per nonzero exponent
        hits = Counter(u[:i] + (u[i] + 1,) + u[i + 1 :] for u in outside for i in range(n))
        cands = sorted(v for v, k in hits.items() if k == n - v.count(0))
        if not cands:
            break
    return MonomialIdeal(n, _minimal(found))


def hilbert_function_incl_excl(I: MonomialIdeal, t: int) -> int:
    """Inclusion-exclusion count of degree-t monomials outside I.

    Exponential in the number of generators, so limited to 20 of them.
    """
    if t < 0:
        raise ValueError("negative degree")
    n, gens = I.n, I.gens
    total = comb(t + n - 1, n - 1)
    inside = 0
    m = len(gens)
    if m > 20:
        raise ValueError("inclusion-exclusion oracle is limited to 20 generators")
    for mask in range(1, 1 << m):
        lcm = (0,) * n
        bits = 0
        mm = mask
        while mm:
            lcm = mono_lcm(lcm, gens[(mm & -mm).bit_length() - 1])
            bits += 1
            mm &= mm - 1
        r = t - mono_deg(lcm)
        if r >= 0:
            inside += (-1) ** (bits + 1) * comb(r + n - 1, n - 1)
    return total - inside


def colength_by_box(I: MonomialIdeal) -> int:
    """Colength of a finite-colength ideal: the monomials of the box below
    the pure powers that no generator divides.

    Visits every point of the box, so for small pure powers only.
    """
    tops = [min(g[i] for g in I.gens if sum(g) == g[i]) for i in range(I.n)]
    return sum(
        1
        for v in product(*(range(a) for a in tops))
        if not any(all(e <= f for e, f in zip(g, v)) for g in I.gens)
    )


def max_convex_cover_fractions(
    columns: list[tuple[int, ...]], rhs: tuple[int, ...]
) -> tuple[Fraction, tuple[Fraction, ...]]:
    """(optimum, dual) of max sum(lam) s.t. sum_j lam_j * col_j <= rhs,
    lam >= 0, by Bland's rule on a tableau of `Fraction` entries."""
    m = len(columns)
    n = len(rhs)
    if m == 0:
        raise ValueError("need at least one column")
    if any(sum(c) == 0 for c in columns):
        raise ValueError("zero column makes the program unbounded")
    width = m + n + 1
    tab = []
    for i in range(n):
        row = [Fraction(columns[j][i]) for j in range(m)]
        row += [Fraction(1 if k == i else 0) for k in range(n)]
        row.append(Fraction(rhs[i]))
        tab.append(row)
    tab.append([Fraction(-1)] * m + [Fraction(0)] * (n + 1))
    basis = list(range(m, m + n))

    while True:
        entering = next((j for j in range(m + n) if tab[n][j] < 0), -1)
        if entering < 0:
            break
        leaving = -1
        best = None
        for i in range(n):
            a = tab[i][entering]
            if a > 0:
                ratio = tab[i][width - 1] / a
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leaving]
                ):
                    best = ratio
                    leaving = i
        if leaving < 0:
            raise ArithmeticError("unbounded program")
        piv = tab[leaving][entering]
        prow = tab[leaving] = [v / piv for v in tab[leaving]]
        for i in range(n + 1):
            f = tab[i][entering]
            if i != leaving and f:
                tab[i] = [v - f * p for v, p in zip(tab[i], prow)]
        basis[leaving] = entering

    return tab[n][width - 1], tuple(tab[n][m:m + n])


def component_by_listing(I: MonomialIdeal, j: int) -> MonomialIdeal:
    """The ideal generated by all degree-j monomials of the ideal: the
    degree-j multiples of its generators, minimal as they share a degree."""
    if j < 0:
        raise ValueError("negative degree")
    multiples = {
        tuple(map(add, g, m))
        for g in I.gens
        if mono_deg(g) <= j
        for m in monomials_of_degree(I.n, j - mono_deg(g))
    }
    return MonomialIdeal(I.n, tuple(sorted(multiples)))


def component_by_lcm(I: MonomialIdeal, j: int) -> MonomialIdeal:
    """The degree-j component ideal: the generators of degree at most j,
    intersected with M^j through their pairwise lcms."""
    if j < 0:
        raise ValueError("negative degree")
    low = MonomialIdeal(I.n, tuple(g for g in I.gens if mono_deg(g) <= j))
    return low & MonomialIdeal.max_power(I.n, j)


def q_family_by_listing(I: MonomialIdeal) -> QFamily:
    """Saturations of the listed component ideals, from the order of I up to
    the first unit, checked member by member by `QFamily.of`."""
    if I.colength() is None:
        raise ValueError("ideal does not have finite colength")
    d = I.order
    members = []
    for j in count():
        Q = component_by_listing(I, d + j).saturate()
        if Q.is_unit():
            return QFamily.of(I.n, members)
        members.append(Q)


def ideal_of_family_by_listing(fam: QFamily, k: int) -> MonomialIdeal:
    """Sum of the listed degree-(d0+k+j) components of the members, j <= s."""
    if k < 0:
        raise ValueError("negative offset")
    out = MonomialIdeal.zero(fam.n)
    for j in range(fam.s + 1):
        out = out + component_by_listing(fam.q(j), fam.d0 + k + j)
    return out


def is_contracted_by_listing(I: MonomialIdeal) -> bool:
    """Contractedness from listed components: the saturation T of the
    component at each generator degree must agree with I up to the next
    generator degree, and T ∩ M^top must equal the top component."""
    if I.is_zero() or I.is_unit():
        raise ValueError("contractedness needs a nonzero proper ideal")
    degs = sorted({sum(g) for g in I.gens})
    for k, dk in enumerate(degs):
        comp = component_by_listing(I, dk)
        T = comp.saturate()
        if k + 1 < len(degs):
            for j in range(dk, degs[k + 1]):
                if T.hilbert_function(j) != I.hilbert_function(j):
                    return False
        elif (T & MonomialIdeal.max_power(I.n, dk)) != comp:
            return False
    return True


def family_in_C_by_listing(I: MonomialIdeal) -> tuple[QFamily | None, str]:
    """`_family_in_C` by rebuilding I from its listed family."""
    if I.colength() is None:
        return None, "colength is infinite"
    try:
        fam = q_family_by_listing(I)
    except FamilyError as err:
        return None, str(err)
    d = I.order
    if d < fam.d0:
        return None, f"order {d} is below the characteristic regularity {fam.d0}"
    if ideal_of_family_by_listing(fam, d - fam.d0) != I:
        return None, "family reconstruction differs from the ideal"
    return fam, ""


def local_families(fam: QFamily) -> list[QFamily]:
    """The family localized at each minimal prime of its first member, in
    the order of the variables they omit: the minimal transversals of the
    generator supports, each of n - 1 variables."""
    covers = fam.members[0].minimal_primes()
    out = []
    for omega in sorted(min(set(range(fam.n)) - cover) for cover in covers):
        members = []
        for m in fam.members:
            loc = m.saturate_var(omega)
            if loc.is_unit():
                break
            members.append(loc)
        out.append(QFamily.of(fam.n, members))
    return out


def recovered_by_compositions(local_fams: list[QFamily], j: int) -> MonomialIdeal:
    """Saturation of the sum, over every composition j_1 + ... + j_k = j,
    of the products of the local members j_1, ..., j_k.

    The compositions come from filtering all index tuples, so this costs
    O(j^k) products for k local families.
    """
    n = local_fams[0].n
    acc = MonomialIdeal.zero(n)
    for split in product(range(j + 1), repeat=len(local_fams)):
        if sum(split) != j:
            continue
        term = MonomialIdeal.unit(n)
        for lf, jk in zip(local_fams, split):
            term = term * lf.q(jk)
        acc = acc + term
    return acc.saturate()


def factor_C_by_compositions(I: MonomialIdeal) -> CFactorization:
    """`factor_C` on listed families, recovering member j by
    `recovered_by_compositions`."""
    fam, reason = family_in_C_by_listing(I)
    if fam is None:
        raise ValueError(f"not in C: {reason}")
    d, n = I.order, I.n
    if fam.s == 0:
        return CFactorization((), (0, d))
    local_fams = local_families(fam)
    factors = [ideal_of_family_by_listing(lf, 0) for lf in local_fams]
    total = sum(f.order for f in factors)
    s, r = max(0, total - d), max(0, d - total)
    right = MonomialIdeal.max_power(n, r)
    for f in factors:
        right = right * f
    if I * MonomialIdeal.max_power(n, s) != right:
        raise RuntimeError("factorization balance identity failed")
    for j in range(fam.s):
        if recovered_by_compositions(local_fams, j) != fam.q(j):
            raise RuntimeError(f"localized families do not recover member {j}")
    return CFactorization(tuple(factors), (s, r))


def localize_power_by_projection(
    Q: MonomialIdeal, prime: CoordinatePrime
) -> int | None:
    """`localize_power` read in the n - 1 variables other than the omitted
    one: the projected generators must be all monomials of one degree."""
    w = prime.omitted
    proj = MonomialIdeal.of(Q.n - 1, [g[:w] + g[w + 1 :] for g in Q.gens])
    if proj.is_unit():
        return 0
    if proj.gens == monomials_of_degree(Q.n - 1, proj.order):
        return proj.order
    return None


def localize_power_by_listing(Q: MonomialIdeal, prime: CoordinatePrime) -> int | None:
    """`localize_power` by comparing the saturation at the omitted variable
    with the listed power of the prime of the same order."""
    loc = Q.saturate_var(prime.omitted)
    if loc == prime.power(Q.n, loc.order):
        return loc.order
    return None


def reg_dim1_by_probing(Q: MonomialIdeal) -> tuple[int, int]:
    """`reg_dim1_saturated` of a saturated one-dimensional Q: the first
    degree t where HF(t) = HF(t - 1), and that value."""
    prev = 0
    for t in count():
        cur = Q.hilbert_function(t)
        if cur == prev:
            return t, cur
        prev = cur


def form_of_family_by_meet(I: MonomialIdeal, fam: QFamily) -> tuple[GForm | None, str]:
    """`_form_of_family` that also intersects the prime powers of every
    member and compares the meet with the member."""
    n = I.n
    if fam.s == 0:
        return GForm.of(I.order, {}), ""
    covers = fam.members[0].minimal_primes()
    omegas = sorted(min(set(range(n)) - cover) for cover in covers)
    columns = {omega: [] for omega in omegas}
    for j in range(fam.s):
        Q = fam.q(j)
        meet = MonomialIdeal.unit(n)
        for omega in omegas:
            a = localize_power_by_projection(Q, CoordinatePrime(omega))
            if a is None:
                return (
                    None,
                    f"localization of member {j} at the prime omitting variable "
                    f"{omega} is not a prime power",
                )
            columns[omega].append(a)
            meet = meet & CoordinatePrime(omega).power(n, a)
        if meet != Q:
            return None, f"member {j} is not an intersection of minimal-prime powers"
    mapping = {}
    for omega in omegas:
        col = columns[omega]
        if any(y > x for x, y in zip(col, col[1:])):
            raise RuntimeError("prime powers failed to decrease along the family")
        mapping[omega] = alphas_to_staircase(col)
    form = GForm.of(I.order, mapping)
    if gform_to_monomial(form, n) != I:
        raise RuntimeError("Goto form failed to reconstruct the ideal")
    return form, ""


def power_colengths_by_products(I: MonomialIdeal):
    """colength(I^k) for k = 1, 2, ..., each power the product of the last
    one with I."""
    power = I
    while True:
        yield power.colength()
        power = power * I


def h_polynomial_by_filtration(
    I: MonomialIdeal, budget: int = DEFAULT_TERM_BUDGET
) -> HilbertSeries:
    """`h_polynomial` from the colengths of the ideal powers, stopped by the
    window of zeros alone: it agrees wherever that window is exact."""
    if I.is_zero() or I.is_unit() or I.colength() is None:
        raise ValueError("power filtration needs a proper finite-colength ideal")
    return _h_of_colengths(I.n, power_colengths_by_products(I), budget, None)


_PUNCT = set(",;=^*")


def tokenize_by_scanning(text: str) -> list[Token]:
    """`textio._tokenize` by hand: a decimal run is an integer, a letter or
    "_" followed by letters, digits and "_" is a name, and "\\n" alone
    starts a new line."""
    out = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line, col = line + 1, 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in _PUNCT:
            out.append(Token("punct", ch, line, col))
            col += 1
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            out.append(Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(line, col, f"unexpected character {ch!r}")
    out.append(Token("end", "", line, col))
    return out
