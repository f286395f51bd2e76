"""One SHA-256 over the answers of gideal's public functions on fixed
seeded inputs.

Run from the repository root:

    PYTHONPATH=src:tests python3 tests/answer_records.py [--rounds N] [--show]

Each round draws one ideal of every kind below from its own seeded
generator, so the first N rounds are a prefix of any longer run.  Every
function answers with the repr of its result, or with the type and
message of the exception it raised; the digest hashes one line per
answer.  Two trees that print the same digest give the same answers on
these inputs, and one tree that prints the same digest under two values
of PYTHONHASHSEED has no answer that depends on hash order.  `--show`
prints the lines, so two trees can be compared line by line.
"""

from __future__ import annotations

import argparse
import hashlib
import random

from gideal import (
    CoordinatePrime,
    MonomialIdeal,
    closure_in_class,
    factor_C,
    goto_form,
    h_polynomial,
    hf_filtration,
    hs_via_factorization,
    is_contracted,
    is_in_C,
    is_in_D,
    is_in_G,
    localize_power,
    mu_class_check,
    multiplicity_e,
    newton_closure,
    q_family,
    reg_dim1_saturated,
)
from samplers import random_class_c, random_finite_ideal, random_form, random_gstar

DEFAULT_ROUNDS = 100

# (kind, seed, draw); each kind draws from its own generator
KINDS = (
    ("max_power", 0, lambda rng: MonomialIdeal.max_power(rng.randint(1, 4), rng.randint(1, 3))),
    ("finite1", 1, lambda rng: random_finite_ideal(rng, 1)),
    ("finite2", 2, lambda rng: random_finite_ideal(rng, 2)),
    ("finite3", 3, lambda rng: random_finite_ideal(rng, 3)),
    ("finite4", 4, lambda rng: random_finite_ideal(rng, 4, max_deg=3)),
    ("gstar", 5, lambda rng: random_gstar(rng)[0]),
    ("class_c", 6, random_class_c),
    ("form2", 7, lambda rng: random_form(rng, 2)[0]),
    ("form3", 8, lambda rng: random_form(rng, 3)[0]),
    ("form4", 9, lambda rng: random_form(rng, 4, max_order=2)[0]),
)

IDEAL_FUNCTIONS = (
    ("colength", MonomialIdeal.colength),
    ("hilbert_function", lambda I: [I.hilbert_function(t) for t in range(7)]),
    ("h_polynomial", h_polynomial),
    ("hf_filtration", lambda I: hf_filtration(I, 5)),
    ("multiplicity_e", multiplicity_e),
    ("hs_via_factorization", hs_via_factorization),
    ("is_contracted", is_contracted),
    ("is_in_C", is_in_C),
    ("is_in_D", is_in_D),
    ("is_in_G", is_in_G),
    ("mu_class_check", mu_class_check),
    ("goto_form", goto_form),
    ("factor_C", factor_C),
    ("closure_in_class", closure_in_class),
    ("newton_closure", newton_closure),
)


def answer(fn, *args) -> str:
    try:
        return repr(fn(*args))
    except Exception as err:  # an exception is an answer too
        return f"raise {type(err).__name__}: {err}"


def inputs(rounds: int):
    """(kind, ideal) pairs, round by round."""
    rngs = [random.Random(seed) for _, seed, _ in KINDS]
    for _ in range(rounds):
        for (kind, _, draw), rng in zip(KINDS, rngs):
            yield kind, draw(rng)


def records(rounds: int):
    for kind, I in inputs(rounds):
        head = f"{kind} {I.n} {I.gens}"
        for name, fn in IDEAL_FUNCTIONS:
            yield f"{head} {name} {answer(fn, I)}"
        try:
            members = dict.fromkeys(q_family(I).members)
        except Exception:  # recorded above, through the class tests
            continue
        for Q in members:
            yield f"{head} member {Q.gens} reg_dim1_saturated {answer(reg_dim1_saturated, Q)}"
            for w in range(I.n):
                got = answer(localize_power, Q, CoordinatePrime(w))
                yield f"{head} member {Q.gens} localize_power {w} {got}"


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=DEFAULT_ROUNDS)
    parser.add_argument("--show", action="store_true", help="print every record")
    args = parser.parse_args(argv)
    digest = hashlib.sha256()
    count = 0
    for line in records(args.rounds):
        if args.show:
            print(line)
        digest.update(line.encode() + b"\n")
        count += 1
    print(f"{count} records sha256={digest.hexdigest()}")


if __name__ == "__main__":
    main()
