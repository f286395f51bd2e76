"""Random instance builders shared by the property and acceptance tests.

Class-C members are produced through the family correspondence: pick an
increasing chain of saturated dimension-1 ideals (intersections of
per-prime planar pieces), then reconstruct.  Staircase-form ideals are
produced from per-prime closed staircases realized at a valid order.
Everything is driven by an explicit random.Random for reproducibility.
"""

from __future__ import annotations

import random

from gideal import (
    CoordinatePrime,
    GForm,
    MonomialIdeal,
    QFamily,
    Staircase,
    closure_seq,
    gform_to_monomial,
    ideal_of_family,
    staircase_alphas,
)


def embed_pairs(omega: int, pairs) -> list[tuple[int, int, int]]:
    """Lift exponent pairs on the two variables of the prime omitting
    omega into 3-variable exponent tuples."""
    support = [i for i in range(3) if i != omega]
    out = []
    for a, b in pairs:
        exps = [0, 0, 0]
        exps[support[0]] = a
        exps[support[1]] = b
        out.append(tuple(exps))
    return out


def random_plane_ideal(rng: random.Random, omega: int) -> MonomialIdeal:
    """Finite-colength ideal on the two variables of a coordinate prime,
    extended to 3 variables: saturated of dimension 1 by construction."""
    a = rng.randint(1, 2)
    b = rng.randint(1, 2)
    pairs = {(a, 0), (0, b)}
    if a == 2 and b == 2 and rng.random() < 0.5:
        pairs.add((1, 1))
    return MonomialIdeal.of(3, embed_pairs(omega, pairs))


def grow_plane_ideal(rng: random.Random, omega: int,
                     current: MonomialIdeal) -> MonomialIdeal:
    extra = rng.choice([(1, 0), (0, 1), (1, 1)])
    return current + MonomialIdeal.of(3, embed_pairs(omega, [extra]))


def random_class_c(rng: random.Random, max_order: int = 3,
                   omegas=None) -> MonomialIdeal:
    """Member of C in 3 variables with order <= max_order, built from a
    random family and a random offset.  `omegas` restricts the minimal
    primes of the characteristic ideal."""
    while True:
        ws = list(omegas) if omegas is not None else rng.sample(
            range(3), rng.randint(1, 3)
        )
        s = rng.randint(1, 2)
        chains = []
        for w in ws:
            depth = rng.randint(1, s)
            chain = [random_plane_ideal(rng, w)]
            for _ in range(depth - 1):
                chain.append(grow_plane_ideal(rng, w, chain[-1]))
            chains.append(chain)
        members = []
        for j in range(max(len(c) for c in chains)):
            parts = [c[j] for c in chains if len(c) > j]
            Q = parts[0]
            for p in parts[1:]:
                Q = Q & p
            members.append(Q)
        fam = QFamily.of(3, members)
        d0 = fam.d0
        if d0 > max_order:
            continue
        k = rng.randint(0, max_order - d0)
        return ideal_of_family(fam, k)


def random_closed_staircase(rng: random.Random) -> Staircase:
    if rng.random() < 0.6:
        return Staircase((0, rng.randint(2, 4)))
    a1 = rng.randint(2, 3)
    a2 = rng.randint(a1 + 1, a1 + 3)
    return closure_seq(Staircase((0, a1, a2)))


def random_gstar(rng: random.Random, max_order: int = 3):
    """Realizable integrally closed staircase-form ideal in 3 variables
    with order <= max_order; returns (ideal, form)."""
    while True:
        ws = rng.sample(range(3), rng.randint(1, 3))
        mapping = {w: random_closed_staircase(rng) for w in ws}
        Q0 = MonomialIdeal.unit(3)
        for w, stair in mapping.items():
            Q0 = Q0 & CoordinatePrime(w).power(3, stair.d)
        d0 = QFamily(3, (Q0,)).d0
        if d0 > max_order:
            continue
        order = rng.randint(d0, max_order)
        form = GForm.of(order, mapping)
        return gform_to_monomial(form, 3), form


def random_staircase(rng: random.Random, max_d: int = 3,
                     max_gap: int = 3) -> Staircase:
    """Staircase of length 1..max_d with steps 1..max_gap: closed or not."""
    steps = [0]
    for _ in range(rng.randint(1, max_d)):
        steps.append(steps[-1] + rng.randint(1, max_gap))
    return Staircase(tuple(steps))


def random_form(rng: random.Random, n: int, max_order: int = 3):
    """Realizable Goto form in n variables whose staircases need not be
    closed, at an order from its first member's regularity to max_order;
    returns (ideal, form)."""
    while True:
        ws = rng.sample(range(n), rng.randint(1, n))
        mapping = {w: random_staircase(rng) for w in ws}
        Q0 = MonomialIdeal.unit(n)
        for w, stair in GForm.of(0, mapping).components:
            Q0 = Q0 & CoordinatePrime(w).power(n, staircase_alphas(stair)[0])
        d0 = QFamily(n, (Q0,)).d0 if not Q0.is_unit() else 0
        if d0 > max_order:
            continue
        form = GForm.of(rng.randint(max(d0, 1), max_order), mapping)
        return gform_to_monomial(form, n), form


def random_monomial(rng: random.Random, n: int, max_deg: int):
    while True:
        exps = tuple(rng.randint(0, max_deg) for _ in range(n))
        if 0 < sum(exps) <= max_deg:
            return exps


def random_small_ideal(rng: random.Random, n: int, max_deg: int = 4,
                       max_gens: int = 5) -> MonomialIdeal:
    """Arbitrary nonzero proper monomial ideal (no finiteness promise)."""
    gens = [random_monomial(rng, n, max_deg)
            for _ in range(rng.randint(1, max_gens))]
    return MonomialIdeal.of(n, gens)


def random_finite_ideal(rng: random.Random, n: int,
                        max_deg: int = 4) -> MonomialIdeal:
    """Finite-colength monomial ideal: pure powers plus a few extras."""
    gens = [tuple(rng.randint(1, max_deg) if j == i else 0 for j in range(n))
            for i in range(n)]
    for _ in range(rng.randint(0, 3)):
        gens.append(random_monomial(rng, n, max_deg))
    return MonomialIdeal.of(n, gens)
