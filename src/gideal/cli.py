"""Command-line interface: classify, factor, close, simple-factor,
hilbert, verify-examples.

Each command but verify-examples reads one ideal document: `_COMMANDS`
maps it to a handler (ideal, variable names, term budget) -> report and to
the renderer of that report as text.  One JSON-serializable report per
run; the human rendering is a thin view of the same data.  Exit codes: 0
success, 1 mathematical failure, 2 usage or parse error.  For hilbert and
verify-examples, GIDEAL_BUDGET (overridden by --terms) bounds the power
filtration.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .classes import (
    _family_in_C,
    _form_of_family,
    factor_C,
    gform_simple_factorization,
    goto_form,
    is_contracted,
)
from .hilbert import DEFAULT_TERM_BUDGET, BudgetError, format_h, h_polynomial
from .ideals import MonomialIdeal
from .newton import is_integrally_closed, newton_closure
from .textio import IdealDocument, ParseError, format_monomial, parse_document
from .verify import run_examples

_MATH_ERRORS = (ValueError, RuntimeError, ArithmeticError, AssertionError)


def _message(err: Exception) -> str:
    """The error's message; a budget error names what raises the budget."""
    if isinstance(err, BudgetError):
        return f"{err} with --terms or GIDEAL_BUDGET"
    return str(err)


def _gens(I: MonomialIdeal, names) -> list[str]:
    return [format_monomial(g, names) for g in I.gens]


def _classify_ideal(I: MonomialIdeal, names, budget) -> dict:
    reasons = {}
    fam, c_reason = _family_in_C(I)
    # a proper member of C passed the contractedness test in `_family_in_C`
    contracted = (fam is not None and not I.is_unit()) or is_contracted(I)
    if not contracted:
        reasons["contracted"] = "fails the degreewise saturation test"
    if fam is not None:
        in_d = is_integrally_closed(I)
        if not in_d:
            reasons["in_D"] = "not integrally closed"
        form, g_reason = _form_of_family(I, fam)
        in_g = form is not None
        if not in_g:
            reasons["in_G"] = g_reason
    else:
        reasons["in_C"] = c_reason
        in_d = in_g = False
        reasons["in_D"] = reasons["in_G"] = f"not in C: {c_reason}"
    return {
        "contracted": contracted,
        "in_C": fam is not None,
        "in_D": in_d,
        "in_G": in_g,
        "reasons": reasons,
    }


def _factor_ideal(I: MonomialIdeal, names, budget) -> dict:
    fac = factor_C(I)
    return {
        "factors": [_gens(f, names) for f in fac.factors],
        "balance": list(fac.balance),
    }


def _close_ideal(I: MonomialIdeal, names, budget) -> dict:
    closed = newton_closure(I)
    return {
        "generators": _gens(closed, names),
        "already_closed": closed == I,
    }


def _simple_factor_ideal(I: MonomialIdeal, names, budget) -> dict:
    form, reason = goto_form(I)
    if form is None:
        raise ValueError(f"not in G: {reason}")
    sf = gform_simple_factorization(form)
    factors = []
    for label, d, t, mult in sf.factors:
        prime = [nm for i, nm in enumerate(names) if i != label]
        factors.append({"prime": prime, "d": d, "t": t, "mult": mult})
    return {
        "m_power": sf.m_power,
        "balance": sf.balance,
        "factors": factors,
    }


def _hilbert_ideal(I: MonomialIdeal, names, budget: int) -> dict:
    h = h_polynomial(I, budget)
    return {
        "h": list(h.coeffs),
        "e": h.e,
        "colength": I.colength(),
    }


def _render_classify(name: str, rep: dict) -> list[str]:
    flags = " ".join(
        f"{k}={str(rep[k]).lower()}"
        for k in ("contracted", "in_C", "in_D", "in_G")
    )
    lines = [f"{name}: {flags}"]
    for key in sorted(rep["reasons"]):
        lines.append(f"  {key}: {rep['reasons'][key]}")
    return lines


def _render_factor(name: str, rep: dict) -> list[str]:
    s, r = rep["balance"]
    lines = [f"{name}: {len(rep['factors'])} factors, balance s={s} r={r}"]
    for k, gens in enumerate(rep["factors"]):
        lines.append(f"  factor {k + 1}: ({', '.join(gens)})")
    return lines


def _render_close(name: str, rep: dict) -> list[str]:
    tag = " (already closed)" if rep["already_closed"] else ""
    return [f"{name}: closure = ({', '.join(rep['generators'])}){tag}"]


def _render_simple_factor(name: str, rep: dict) -> list[str]:
    lines = [f"{name}: m_power={rep['m_power']} balance={rep['balance']}"]
    for f in rep["factors"]:
        prime = ",".join(f["prime"])
        lines.append(f"  J(d={f['d']},t={f['t']})^{f['mult']} at ({prime})")
    return lines


def _render_hilbert(name: str, rep: dict) -> list[str]:
    h = format_h(rep["h"])
    return [f"{name}: h = {h}, e = {rep['e']}, colength = {rep['colength']}"]


_COMMANDS = {
    "classify": (_classify_ideal, _render_classify),
    "factor": (_factor_ideal, _render_factor),
    "close": (_close_ideal, _render_close),
    "simple-factor": (_simple_factor_ideal, _render_simple_factor),
    "hilbert": (_hilbert_ideal, _render_hilbert),
}


def _resolve_budget(terms: int | None) -> int:
    if terms is not None:
        if terms < 1:
            raise ValueError("--terms must be a positive integer")
        return terms
    env = os.environ.get("GIDEAL_BUDGET")
    if env is None:
        return DEFAULT_TERM_BUDGET
    try:
        value = int(env)
    except ValueError:
        raise ValueError(f"GIDEAL_BUDGET must be an integer, got {env!r}") from None
    if value < 1:
        raise ValueError("GIDEAL_BUDGET must be a positive integer")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gideal",
        description="Classify, factor and close monomial ideals of finite colength.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in (*_COMMANDS, "verify-examples"):
        p = sub.add_parser(cmd)
        if cmd in ("hilbert", "verify-examples"):
            p.add_argument("--terms", type=int, default=None,
                           help="power-filtration term budget")
        p.add_argument("--json", action="store_true", dest="as_json",
                       help="emit the JSON report instead of text")
        if cmd in _COMMANDS:
            p.add_argument("file", help="ideal document to read")
    return parser


def _emit(report: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print("\n".join(lines))


def _run_on_document(command: str, doc: IdealDocument, budget: int | None,
                     as_json: bool) -> int:
    handler, renderer = _COMMANDS[command]
    per_ideal = {}
    lines = []
    for name, ideal in doc.ideals:
        try:
            rep = handler(ideal, doc.names, budget)
        except _MATH_ERRORS as err:
            print(f"gideal {command}: {name}: {_message(err)}", file=sys.stderr)
            return 1
        per_ideal[name] = rep
        lines.extend(renderer(name, rep))
    report = {
        "command": command,
        "ring": {"n": doc.n, "vars": list(doc.names)},
        "ideals": per_ideal,
    }
    _emit(report, as_json, lines)
    return 0


def _run_examples(budget: int, as_json: bool) -> int:
    results = run_examples(budget)
    details = [r.detail if r.error is None else _message(r.error) for r in results]
    report = {
        "command": "verify-examples",
        "results": [
            {"name": r.name, "passed": r.passed, "detail": detail}
            for r, detail in zip(results, details)
        ],
    }
    lines = []
    for r, detail in zip(results, details):
        mark = "PASS" if r.passed else "FAIL"
        suffix = f": {detail}" if detail else ""
        lines.append(f"{mark} {r.name}{suffix}")
    passed = sum(r.passed for r in results)
    lines.append(f"{passed}/{len(results)} examples passed")
    _emit(report, as_json, lines)
    return 0 if passed == len(results) else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    budget = None
    if "terms" in args:
        try:
            budget = _resolve_budget(args.terms)
        except ValueError as err:
            print(f"gideal: {err}", file=sys.stderr)
            return 2
    if args.command == "verify-examples":
        return _run_examples(budget, args.as_json)
    try:
        with open(args.file, encoding="utf-8") as fh:
            doc = parse_document(fh.read())
    except (OSError, UnicodeDecodeError) as err:
        print(f"gideal: cannot read {args.file}: {err}", file=sys.stderr)
        return 2
    except ParseError as err:
        print(f"gideal: {args.file}: {err}", file=sys.stderr)
        return 2
    return _run_on_document(args.command, doc, budget, args.as_json)


if __name__ == "__main__":
    raise SystemExit(main())
