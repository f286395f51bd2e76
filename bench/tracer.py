"""Spans around the calls into gideal's public functions.

`Tracer.install()` replaces each listed function or method at every
binding inside the `gideal` package (the defining module, the package
namespace and every module that imported the name), so a call from one
layer into another becomes a child span of the caller.  Spans stay in
memory; `Tracer.summary()` turns them into per-layer numbers when the run
ends.  A layer is a module of the package; its self time is the time of
its spans minus the time of their child spans.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# (module, attribute, class or None); the span is named "<layer>.<Class.>attr".
TARGETS = (
    ("cli", "main", None),
    ("textio", "parse_document", None),
    ("ideals", "of", "MonomialIdeal"),
    ("ideals", "__add__", "MonomialIdeal"),
    ("ideals", "__mul__", "MonomialIdeal"),
    ("ideals", "__and__", "MonomialIdeal"),
    ("ideals", "__pow__", "MonomialIdeal"),
    ("ideals", "component", "MonomialIdeal"),
    ("ideals", "saturate", "MonomialIdeal"),
    ("ideals", "colength", "MonomialIdeal"),
    ("ideals", "hilbert_function", "MonomialIdeal"),
    ("ideals", "minimal_primes", "MonomialIdeal"),
    ("newton", "newton_closure", None),
    ("newton", "contains", "NewtonMembership"),
    ("newton", "separate_batch", "NewtonMembership"),
    ("lp", "max_convex_cover", None),
    ("staircases", "minplus_product", None),
    ("staircases", "closure_seq", None),
    ("staircases", "factor_simple", None),
    ("classes", "q_family", None),
    ("classes", "is_in_C", None),
    ("classes", "is_contracted", None),
    ("classes", "factor_C", None),
    ("classes", "goto_form", None),
    ("classes", "gform_to_monomial", None),
    ("classes", "gform_simple_factorization", None),
    ("classes", "ideal_of_family", None),
    ("hilbert", "h_polynomial", None),
    ("hilbert", "hs_via_factorization", None),
    ("hilbert", "multiplicity_e", None),
    ("verify", "run_examples", None),
)

TRACE_MARK = "BENCH-TRACE "  # prefix of a traced CLI child's last stderr line

LAYERS = ("cli", "textio", "ideals", "newton", "lp", "staircases", "classes",
          "hilbert", "verify")

# (metric stem, module, cached function, metrics reported for it)
CACHES = (
    ("ideals.cache.project_slice", "ideals", "_project_slice", ("hit_ratio", "size")),
    ("ideals.cache.outside_total", "ideals", "_outside_total", ("hit_ratio", "size")),
    ("ideals.cache.monomials_of_degree", "ideals", "monomials_of_degree", ("size",)),
    ("newton.cache.newton_closure", "newton", "newton_closure", ("hit_ratio",)),
)

_METHOD_NAMES = {"__add__": "add", "__mul__": "mul", "__and__": "and",
                 "__pow__": "pow"}


def span_name(module: str, attr: str, cls: str | None) -> str:
    if cls is None:
        return f"{module}.{attr}"
    if module == "ideals":
        return f"ideals.MonomialIdeal.{_METHOD_NAMES.get(attr, attr)}"
    return f"{module}.{attr}"


SPAN_NAMES = tuple(span_name(*t) for t in TARGETS)


def _mul_counts(args, result):
    a, b = args[0], args[1]
    return {"ideals.mul.formed": len(a.gens) * len(b.gens),
            "ideals.mul.kept": len(result.gens)}


def _separate_counts(args, result):
    return {"newton.separate_batch.rows": len(args[1]),
            "newton.separate_batch.rejected": int(result.sum())}


def _cover_counts(args, result):
    return {"lp.max_convex_cover.members": int(result[0] >= 1)}


_COUNTERS = {
    "ideals.MonomialIdeal.mul": _mul_counts,
    "newton.separate_batch": _separate_counts,
    "lp.max_convex_cover": _cover_counts,
}


class Tracer:
    """Records spans while `active`; one instance per process."""

    def __init__(self):
        self.active = False
        self.op = -1
        self.stack: list[list] = []  # [name, child time]
        self.spans: list[tuple] = []  # (op, name, parent, duration, self)
        self.counters: dict[str, int] = {}
        self._cache_start: dict[str, tuple[int, int]] = {}

    # -- installation ---------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        hook = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                tracer.spans.append(
                    (tracer.op, name, parent, duration, duration - frame[1]))
            if hook is not None:
                for key, value in hook(args, result).items():
                    tracer.counters[key] = tracer.counters.get(key, 0) + value
            return result

        return traced

    def install(self) -> None:
        """Wrap every target at every binding in the loaded gideal modules.

        A target the package no longer has is skipped, so its metrics read
        0 instead of stopping the run."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "gideal" or n.startswith("gideal."))]
        for module_name, attr, cls_name in TARGETS:
            home = sys.modules.get(f"gideal.{module_name}")
            if home is None:  # gideal.cli is loaded only by CLI processes
                continue
            name = span_name(module_name, attr, cls_name)
            if cls_name is not None:
                cls = getattr(home, cls_name, None)
                raw = vars(cls).get(attr) if cls is not None else None
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self._wrap(name, raw.__func__)))
                elif raw is not None:
                    setattr(cls, attr, self._wrap(name, raw))
                continue
            original = getattr(home, attr, None)
            if original is None:
                continue
            wrapped = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    # -- recording --------------------------------------------------------

    def _cache_functions(self):
        """The cached functions of CACHES that the package still has."""
        for stem, module, attr, _ in CACHES:
            fn = getattr(sys.modules[f"gideal.{module}"], attr, None)
            while fn is not None and not hasattr(fn, "cache_info"):
                fn = getattr(fn, "__wrapped__", None)  # a traced binding
            if fn is not None:
                yield stem, fn

    def start(self) -> None:
        """Begin recording; cache hit ratios count lookups from here on."""
        for stem, fn in self._cache_functions():
            info = fn.cache_info()
            self._cache_start[stem] = (info.hits, info.misses)
        self.active = True

    def stop(self) -> None:
        self.active = False

    def cache_numbers(self) -> dict[str, dict[str, int]]:
        out = {}
        for stem, fn in self._cache_functions():
            info = fn.cache_info()
            hits0, misses0 = self._cache_start.get(stem, (0, 0))
            out[stem] = {"hits": info.hits - hits0,
                         "misses": info.misses - misses0,
                         "size": info.currsize}
        return out

    def summary(self) -> dict:
        """Per-name calls and self time, per-op top-level time, counters."""
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        top: dict[int, float] = {}
        per_op_self: dict[int, float] = {}
        filtration = 0
        for op, name, parent, duration, own in self.spans:
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
            per_op_self[op] = per_op_self.get(op, 0.0) + own
            if parent is None:
                top[op] = top.get(op, 0.0) + duration
            elif parent == "hilbert.h_polynomial" and name == "ideals.MonomialIdeal.mul":
                filtration += 1
        for op, total in top.items():
            if abs(per_op_self[op] - total) > 1e-6 * max(1.0, total):
                raise RuntimeError(f"span self times of op {op} do not add up")
        counters = dict(self.counters)
        counters["hilbert.filtration_terms"] = filtration
        return {"calls": calls, "self_s": self_s, "top_s": top,
                "counters": counters, "caches": self.cache_numbers()}


def merge_summaries(parts: list[dict]) -> dict:
    """Sum several summaries (one per CLI child); cache sizes take the max."""
    out = {"calls": {}, "self_s": {}, "counters": {}, "caches": {}}
    for part in parts:
        for key in ("calls", "self_s", "counters"):
            for name, value in part[key].items():
                out[key][name] = out[key].get(name, 0) + value
        for stem, info in part["caches"].items():
            acc = out["caches"].setdefault(stem, {"hits": 0, "misses": 0, "size": 0})
            acc["hits"] += info["hits"]
            acc["misses"] += info["misses"]
            acc["size"] = max(acc["size"], info["size"])
    return out
