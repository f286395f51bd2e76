"""Seeded inputs, operations and answer checks of the four workloads.

Every workload is a list of `Op`s built from one `random.Random(seed)`
before the first timed op.  An op runs one public call (or one CLI
process) and keeps its answer; the answer is checked after the timed
loop, so checking never sits between two timed ops.  Answers are checked
by construction or against small references kept here, never against the
package's own second routes (those move to the tests over time).

A run stops on a time limit, so its figures depend on the sizes of the
inputs it reached.  Sizes therefore follow a golden-ratio sequence that
is the same for every seed (every prefix covers the size range evenly),
and the seed decides the inputs of each size: which ideals, which
staircase pieces, small offsets of the family exponents.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import gcd
from typing import Callable

import gideal
from gideal import (
    MonomialIdeal,
    Staircase,
    factor_C,
    format_document,
    gform_simple_factorization,
    goto_form,
    h_polynomial,
    hs_via_factorization,
    is_contracted,
    is_in_C,
    is_integrally_closed,
    newton_closure,
    parse_document,
)
from gideal.textio import IdealDocument
from gideal.verify import example_names
from samplers import random_class_c, random_gstar

GOLDEN = (5 ** 0.5 - 1) / 2


@dataclass
class Op:
    kind: str
    key: str  # canonical text of the input; the input digest hashes these
    run: Callable[[], object]
    check: Callable[[object], bool]


def golden_ranks(n: int) -> list[int]:
    """0..n-1 in the order of the golden-ratio sequence i*phi mod 1, so
    every prefix covers the range evenly."""
    used, out, i = [False] * n, [], 0
    while len(out) < n:
        pos = int((i * GOLDEN % 1.0) * n)
        i += 1
        while used[pos]:
            pos = (pos + 1) % n
        used[pos] = True
        out.append(pos)
    return out


def golden_order(items, key):
    """`items` reordered so that every prefix samples the ranks of `key`
    evenly, in the same rank order for every seed."""
    ranked = sorted(items, key=key)
    return [ranked[r] for r in golden_ranks(len(ranked))]


def size_key(ideal: MonomialIdeal):
    """A stand-in for the cost of the calls on an ideal; it calls nothing
    that could warm a cache of the package."""
    return (ideal.order, ideal.mu, sum(map(sum, ideal.gens)))


def call(name: str, *args):
    """An op body that looks `name` up on the package when it runs, so a
    traced run goes through the traced binding."""
    return lambda: getattr(gideal, name)(*args)


def _fresh(sample, seen: set):
    """Draw from `sample` until the ideal is new to this run."""
    while True:
        drawn = sample()
        ideal = drawn[0] if isinstance(drawn, tuple) else drawn
        if ideal not in seen:
            seen.add(ideal)
            return drawn


# -- closure -------------------------------------------------------------------

SCALING_TOP = 200
FAMILY_RANGE = range(56, 65)  # exponents of the members after the first
CLOSURE_CYCLES = 50


def family_ideal(a: int, b: int, c: int) -> MonomialIdeal:
    return MonomialIdeal.of(3, [(a, 0, 0), (0, b, 0), (0, 0, c), (1, 1, 1)])


def family_closure_reference(a: int, b: int, c: int) -> set:
    """Minimal lattice points of the Newton polyhedron of x^a,y^b,z^c,xyz.

    For 1/a + 1/b + 1/c < 1 its lower facets are the three triangles
    through (1,1,1) and two of the pure powers, so the polyhedron is
        b x + a y + (ab-a-b) z >= ab,
        c x + (ac-a-c) y + a z >= ac,
        (bc-b-c) x + c y + b z >= bc,   v >= 0.
    Above each (x, y) the least admissible z is `zmin`, which never
    increases with x or y; a point is minimal when stepping back in x or
    in y raises `zmin`.
    """
    if b * c + a * c + a * b >= a * b * c:
        raise ValueError("the facet description needs 1/a + 1/b + 1/c < 1")

    def ceil_div(num, den):
        return -(-num // den)

    def zmin(x, y):
        return max(0,
                   ceil_div(a * b - b * x - a * y, a * b - a - b),
                   ceil_div(a * c - c * x - (a * c - a - c) * y, a),
                   ceil_div(b * c - (b * c - b - c) * x - c * y, b))

    out = set()
    for x in range(a + 1):
        for y in range(b + 1):
            z = zmin(x, y)
            if (x == 0 or zmin(x - 1, y) > z) and (y == 0 or zmin(x, y - 1) > z):
                out.add((x, y, z))
    return out


def _family_op(a: int, b: int, c: int) -> Op:
    ideal = family_ideal(a, b, c)
    return Op("newton_closure.family", f"{a},{b},{c}", call("newton_closure", ideal),
              lambda r: r.n == 3 and set(r.gens) == family_closure_reference(a, b, c))


def build_closure(rng) -> list[Op]:
    """x^200,y^200,z^200,xyz first (candidate enumeration and memory),
    then cycles of four members x^a,y^b,z^c,xyz of the family with
    exponents from FAMILY_RANGE and the squares, cubes and fourth powers
    of a fresh G* ideal, which stay integrally closed (normality of
    powers; simplex bound).

    The family members cost about the same and are most of the ops, so
    the median and the 90th percentile fall among them rather than on an
    edge between two kinds of op, where they would jump with the seed."""
    ops = [_family_op(SCALING_TOP, SCALING_TOP, SCALING_TOP)]
    seen: set = set()
    drawn = [_fresh(partial(random_gstar, rng), seen)[0] for _ in range(CLOSURE_CYCLES)]
    triples = [(a, b, c) for a in FAMILY_RANGE for b in FAMILY_RANGE for c in FAMILY_RANGE]
    members = iter(rng.sample(triples, 4 * CLOSURE_CYCLES))
    for ideal in golden_order(drawn, size_key):
        for k in (2, 3, 4):
            ops.append(_family_op(*next(members)))
            power = ideal ** k
            ops.append(Op(f"is_integrally_closed.gstar_pow{k}", repr(power.gens),
                          call("is_integrally_closed", power),
                          lambda r: r is True))
        ops.append(_family_op(*next(members)))
    return ops


# -- staircase -----------------------------------------------------------------


def minplus(a, b):
    return tuple(min(a[r] + b[j - r]
                     for r in range(max(0, j - len(b) + 1), min(len(a), j + 1)))
                 for j in range(len(a) + len(b) - 1))


def simple_staircase(d: int, t: int):
    return tuple(-(-i * t // d) for i in range(d + 1))


def random_pieces(rng, d: int):
    """A power c of the maximal ideal and simple pieces (d_i, t_i),
    d_i < t_i coprime, with c + sum d_i == d."""
    c = rng.randint(0, d // 4)
    pieces, left = [], d - c
    while left:
        pd = rng.randint(1, min(left, 6))
        t = rng.choice([t for t in range(pd + 1, pd + 8) if gcd(pd, t) == 1])
        pieces.append((pd, t))
        left -= pd
    return c, pieces


def built_staircase(c: int, pieces):
    out = tuple(range(c + 1))
    for pd, t in pieces:
        out = minplus(out, simple_staircase(pd, t))
    return out


def hull_vertices(c: int, pieces) -> set:
    """x-positions of the lower-hull vertices of the built staircase: the
    edges of the product are the pieces' edges sorted by slope."""
    slopes = Counter({Fraction(1): c} if c else {})
    for pd, t in pieces:
        slopes[Fraction(t, pd)] += pd
    xs, x = {0}, 0
    for slope in sorted(slopes):
        x += slopes[slope]
        xs.add(x)
    return xs


def raise_interior(rng, steps, vertices):
    """Lift points off the hull without touching its vertices; the closure
    of the result is `steps` again.  None when no point can move."""
    out = list(steps)
    for i in range(len(out) - 2, 0, -1):
        if i not in vertices and out[i] + 1 < out[i + 1] and rng.random() < 0.5:
            out[i] = rng.randint(out[i] + 1, out[i + 1] - 1)
    return tuple(out) if out != list(steps) else None


def _factor_op(c: int, pieces, steps) -> Op:
    mult = Counter(pieces)
    expected = (c, tuple((pd, t, mult[(pd, t)]) for pd, t in sorted(mult)))
    return Op("factor_simple.built", repr(steps),
              call("factor_simple", Staircase(steps)),
              lambda r: (r.m_power, r.factors) == expected)


def _closure_op(raised, steps) -> Op:
    return Op("closure_seq.raised", repr(raised),
              call("closure_seq", Staircase(raised)),
              lambda r: r.steps == steps)


def build_staircase(rng) -> list[Op]:
    """Alternating `factor_simple` on M^c * prod J(d_i, t_i) and
    `closure_seq` on such a staircase with interior points lifted."""
    ops = []
    for i in range(2000):
        d = 5 + int((i * GOLDEN % 1.0) * 36)
        while True:
            c, pieces = random_pieces(rng, d)
            steps = built_staircase(c, pieces)
            if i % 2 == 0:
                ops.append(_factor_op(c, pieces, steps))
                break
            raised = raise_interior(rng, steps, hull_vertices(c, pieces))
            if raised is not None:
                ops.append(_closure_op(raised, steps))
                break
    return ops


# -- hilbert -------------------------------------------------------------------


def _form_staircases_match(form, sf) -> bool:
    """The simple factors rebuild the form's staircases (after dropping
    unit prefixes) and its order: form * M^balance == M^m_power * pieces."""
    if min(sf.m_power, sf.balance) != 0:
        return False
    rebuilt: dict = {}
    order = sf.m_power
    for label, pd, t, mult in sf.factors:
        if not (1 <= pd < t and gcd(pd, t) == 1 and mult >= 1):
            return False
        order += pd * mult
        acc = rebuilt.get(label, (0,))
        for _ in range(mult):
            acc = minplus(acc, simple_staircase(pd, t))
        rebuilt[label] = acc

    def strip(steps):
        p = 0
        while p < len(steps) - 1 and steps[p + 1] == p + 1:
            p += 1
        return tuple(s - p for s in steps[p:])

    wanted = {label: stair.steps for label, stair in form.components}
    got = {label: strip(steps) for label, steps in rebuilt.items()}
    return got == wanted and order == form.order + sf.balance


def _balance_holds(ideal: MonomialIdeal, fac) -> bool:
    """I * M^s == M^r * prod(factors), each factor with one minimal prime."""
    s, r = fac.balance
    if min(s, r) != 0:
        return False
    right = MonomialIdeal.max_power(3, r)
    for f in fac.factors:
        if len(f.minimal_primes()) != 1:
            return False
        right = right * f
    return ideal * MonomialIdeal.max_power(3, s) == right


def build_hilbert(rng, pairs: int = 60) -> list[Op]:
    """Per pair: a G* ideal of order <= 4 through h, its Goto form, the
    simple factorization of that form and the class test; then a class-C
    ideal of order <= 4 through the factored series, the factorization
    and the multiplicity."""
    ops = []
    seen: set = set()
    gstars = [_fresh(partial(random_gstar, rng, 4), seen) for _ in range(pairs)]
    gstars = golden_order(gstars, lambda pair: size_key(pair[0]))
    class_cs = [_fresh(partial(random_class_c, rng, 4), seen) for _ in range(pairs)]
    class_cs = golden_order(class_cs, size_key)
    for (g, form), c in zip(gstars, class_cs):
        key = repr(g.gens)
        ops.append(Op("h_polynomial.gstar", key, call("h_polynomial", g),
                      lambda r, g=g: r == hs_via_factorization(g)))
        ops.append(Op("goto_form.gstar", key, call("goto_form", g),
                      lambda r, form=form: r == (form, "")))
        ops.append(Op("gform_simple_factorization.gstar", key,
                      call("gform_simple_factorization", form),
                      partial(_form_staircases_match, form)))
        ops.append(Op("is_in_C.gstar", key, call("is_in_C", g),
                      lambda r: bool(r)))
        key = repr(c.gens)
        factored: dict = {}

        def check_series(r, c=c, factored=factored):
            factored["e"] = r.e
            return r.n == 3 and r.e > 0

        def check_e(r, c=c, factored=factored):
            e = factored.get("e")
            if e is None:
                e = hs_via_factorization(c).e
            return r == e

        ops.append(Op("hs_via_factorization.class_c", key,
                      call("hs_via_factorization", c), check_series))
        ops.append(Op("factor_C.class_c", key, call("factor_C", c),
                      partial(_balance_holds, c)))
        ops.append(Op("multiplicity_e.class_c", key, call("multiplicity_e", c),
                      check_e))
    return ops


# -- cli -----------------------------------------------------------------------

SIX_GENERATOR = "ring 3 vars x,y,z; ideal I = x^3,y^3,z^3,x*y,y*z,x*z;\n"
CLOSE_20 = "ring 3 vars x,y,z; ideal I = x^20,y^20,z^20,x*y*z;\n"
IDEAL_COMMANDS = ("classify", "factor", "close", "simple-factor", "hilbert")
CLI_ROTATIONS = 20
GSTAR_COMMANDS = ("classify", "simple-factor", "factor")
CLASS_C_COMMANDS = ("classify", "factor", "close")


def parse_monomial(text: str, names) -> tuple:
    exps = [0] * len(names)
    if text != "1":
        for factor in text.split("*"):
            name, _, power = factor.partition("^")
            exps[names.index(name)] += int(power or 1)
    return tuple(exps)


def library_answer(command: str, ideal: MonomialIdeal | None, names):
    """The in-process answer a CLI report must agree with; for
    `verify-examples` that is every built-in example passing."""
    if command == "verify-examples":
        return [(name, True) for name in example_names()]
    if command == "classify":
        in_c = bool(is_in_C(ideal))
        return (is_contracted(ideal), in_c,
                in_c and is_integrally_closed(ideal),
                in_c and goto_form(ideal)[0] is not None)
    if command == "factor":
        fac = factor_C(ideal)
        return ([set(f.gens) for f in fac.factors], list(fac.balance))
    if command == "close":
        closed = newton_closure(ideal)
        return (set(closed.gens), closed == ideal)
    if command == "simple-factor":
        sf = gform_simple_factorization(goto_form(ideal)[0])
        factors = [([nm for i, nm in enumerate(names) if i != label], d, t, m)
                   for label, d, t, m in sf.factors]
        return (sf.m_power, sf.balance, factors)
    h = h_polynomial(ideal)
    return (list(h.coeffs), h.e, ideal.colength())


def report_answer(command: str, report: dict, names):
    """The same shape as `library_answer`, read from a JSON report."""
    if report["command"] != command:
        raise ValueError("report for another command")
    if command == "verify-examples":
        return [(r["name"], r["passed"]) for r in report["results"]]
    (rep,) = report["ideals"].values()
    if command == "classify":
        return tuple(rep[k] for k in ("contracted", "in_C", "in_D", "in_G"))
    if command == "factor":
        return ([{parse_monomial(g, names) for g in f} for f in rep["factors"]],
                rep["balance"])
    if command == "close":
        return ({parse_monomial(g, names) for g in rep["generators"]},
                rep["already_closed"])
    if command == "simple-factor":
        factors = [(f["prime"], f["d"], f["t"], f["mult"]) for f in rep["factors"]]
        return (rep["m_power"], rep["balance"], factors)
    return (rep["h"], rep["e"], rep["colength"])


@dataclass
class CliContext:
    root: str  # checkout root
    workdir: str  # documents are written here
    traced: bool  # start children through the tracing launcher
    # runs one argv to completion: (returncode, stdout, stderr); the
    # children inherit the worker's environment, src/ first on the path
    spawn: Callable[[list], tuple]


def _cli_op(ctx: CliContext, command: str, text: str | None, tag: str) -> Op:
    names, ideal = ("x", "y", "z"), None
    argv = [sys.executable]
    if ctx.traced:
        argv.append(os.path.join(ctx.root, "bench", "launcher.py"))
    else:
        argv += ["-m", "gideal"]
    argv += [command, "--json"]
    if text is not None:
        doc = parse_document(text)
        names, ((_, ideal),) = doc.names, doc.ideals
        path = os.path.join(ctx.workdir, f"{tag}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        argv.append(path)
    expected = library_answer(command, ideal, names)

    def check(out):
        code, stdout, _ = out
        return code == 0 and report_answer(command, json.loads(stdout), names) == expected

    return Op(f"cli.{command}", f"{command} {text!r}",
              partial(ctx.spawn, argv), check)


def _document(ideal: MonomialIdeal) -> str:
    return format_document(IdealDocument(("x", "y", "z"), (("I", ideal),)))


def build_cli(rng, ctx: CliContext) -> list[Op]:
    """A rotation of 25 CLI processes, repeated: the six-generator example
    under every ideal command, `close` on x^20,y^20,z^20,xyz,
    `verify-examples`, and nine seeded G* and nine seeded class-C
    documents.  Each op is a fresh process, so repeating the rotation
    shares no cache between ops."""
    ops = [_cli_op(ctx, cmd, SIX_GENERATOR, f"six-{cmd}") for cmd in IDEAL_COMMANDS]
    ops.append(_cli_op(ctx, "close", CLOSE_20, "close-20"))
    ops.append(_cli_op(ctx, "verify-examples", None, "verify"))
    seen: set = set()
    for i in range(9):
        g, _ = _fresh(partial(random_gstar, rng), seen)
        ops.append(_cli_op(ctx, GSTAR_COMMANDS[i % 3], _document(g), f"gstar-{i}"))
        c = _fresh(partial(random_class_c, rng), seen)
        ops.append(_cli_op(ctx, CLASS_C_COMMANDS[i % 3], _document(c), f"class-c-{i}"))
    return ops * CLI_ROTATIONS


# Ops in the traced run: a fixed prefix, so every count repeats exactly.
TRACE_OPS = {"cli": 25, "closure": 41, "staircase": 80, "hilbert": 42}


def build(workload: str, rng, cli_ctx: CliContext | None = None) -> list[Op]:
    if workload == "cli":
        return build_cli(rng, cli_ctx)
    return {"closure": build_closure, "staircase": build_staircase,
            "hilbert": build_hilbert}[workload](rng)


def check_package_origin(root: str) -> None:
    """Refuse to measure an installed gideal instead of the checkout's."""
    expected = os.path.realpath(os.path.join(root, "src", "gideal"))
    actual = os.path.realpath(os.path.dirname(gideal.__file__))
    if actual != expected:
        raise SystemExit(f"gideal imported from {actual}, expected {expected}")
