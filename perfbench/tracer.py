"""Per-layer timing of one envshift CLI run, installed from outside the program.

    python3 perfbench/tracer.py TRACE.json ENVSHIFT-ARGS...

runs ``envshift.cli.main(ENVSHIFT-ARGS)`` with every public function of the
envshift modules wrapped in a timing span, then writes the aggregated spans
and the exit-time cache sizes to TRACE.json.  The program itself is not
modified: each wrapper is also rebound in every envshift module that imported
the function by name (``from .pbw import multiply``), so no call bypasses it.

Spans are aggregated in memory per name: ``calls``, inclusive seconds ``s``
(outermost activation only, so recursion is not double counted) and
``self_s`` (duration minus the time covered by child spans).  The self times
of all spans sum to the root span, ``cli.main``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

MODULES = (
    "algebra", "params", "pbw", "shifts", "elements", "chains",
    "classical", "linalg", "independence", "cli",
)

# Per-term helpers called inside the innermost loops: a span around each call
# would cost more than the work it measures and distort every parent's time.
SKIP = frozenset({
    "params.coeff_is_zero", "params.coeff_to_str",
    "algebra.zero_matrix",
    "linalg.mat_mul", "linalg.mat_add", "linalg.mat_sub", "linalg.mat_scale",
    "linalg.identity", "linalg.is_zero_matrix", "linalg.mat_commutator", "linalg.trace",
})

# Arithmetic dunders of the coefficient class; a reflected operator is charged
# to the same span as the plain one.
METHODS = {
    ("params", "ParamPolynomial"): {"__mul__": "mul", "__rmul__": "mul",
                                    "__add__": "add", "__radd__": "add"},
}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict = {}    # name -> [calls, inclusive s, self s]
        self.counts: dict = {}   # name -> exact count
        self._stack: list = []   # child seconds of each open span
        self._depth: dict = {}   # name -> open activations

    def count(self, name: str, n: int):
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name: str, fn, on_call=None):
        """fn timed as span `name`; on_call(tracer, args, result) adds counts."""
        agg = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, depth_of, clock = self._stack, self._depth, self.clock

        @functools.wraps(fn)
        def span(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            depth = depth_of.get(name, 0)
            depth_of[name] = depth + 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                depth_of[name] = depth
                if stack:
                    stack[-1][0] += dur
                agg[0] += 1
                agg[2] += dur - child[0]
                if not depth:
                    agg[1] += dur
            if on_call is not None:
                on_call(self, args, out)
            return out

        return span

    def report(self) -> dict:
        return {
            "spans": {k: {"calls": v[0], "s": v[1], "self_s": v[2]}
                      for k, v in sorted(self.stats.items())},
            "counts": dict(sorted(self.counts.items())),
        }


def _terms(poly) -> int:
    return len(poly.terms)


# Exact counts taken at the layer boundaries.
ON_CALL = {
    "pbw.multiply": lambda t, a, out: t.count("pbw.product_terms", _terms(out)),
    "chains.chain_generators": lambda t, a, out: t.count("chains.generators", len(out.generators)),
    "chains.commutativity_failures": lambda t, a, out: t.count(
        "chains.pairs_checked", len(a[0].generators) * (len(a[0].generators) - 1) // 2),
    "classical.power_trace": lambda t, a, out: t.count("classical.poly_terms", _terms(out)),
    "classical.shift_pair_trace": lambda t, a, out: t.count("classical.poly_terms", _terms(out)),
    "classical.shift_expand": lambda t, a, out: t.count(
        "classical.poly_terms", sum(_terms(c) for c in out)),
    "classical.charpoly_shift_invariants": lambda t, a, out: t.count(
        "classical.poly_terms", _terms(out)),
    "classical.top_symbol": lambda t, a, out: t.count("classical.poly_terms", _terms(out)),
}


def envshift_modules() -> dict:
    return {name: importlib.import_module(f"envshift.{name}") for name in MODULES}


def install(tracer: Tracer) -> dict:
    """Wrap the public functions and rebind them everywhere; returns {original: wrapper}."""
    mods = envshift_modules()
    swaps: dict = {}
    for short, mod in mods.items():
        for attr, fn in list(vars(mod).items()):
            name = f"{short}.{attr}"
            if (attr.startswith("_") or name in SKIP or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__):
                continue
            swaps[fn] = tracer.wrap(name, fn, ON_CALL.get(name))
    for (short, cls_name), methods in METHODS.items():
        cls = getattr(mods[short], cls_name)
        wrapped: dict = {}
        for attr, label in methods.items():
            fn = vars(cls)[attr]
            if fn not in wrapped:
                wrapped[fn] = tracer.wrap(f"{short}.{cls_name}.{label}", fn)
            setattr(cls, attr, wrapped[fn])
    package = importlib.import_module("envshift")
    for mod in (package, *mods.values()):
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in swaps:
                setattr(mod, attr, swaps[value])
    return swaps


def cache_sizes() -> dict:
    """Entry counts of the process-global rewrite caches, read at exit."""
    mods = envshift_modules()
    tables = mods["pbw"]._TABLES.values()
    return {
        "pbw.mul_cache_entries": sum(len(t._mul) for t in tables),
        "pbw.bracket_entries": sum(len(t._bracket) for t in tables),
        "elements.mpe_cache_entries": len(mods["elements"]._MPE_CACHE),
        "elements.flip_cache_entries": len(mods["elements"]._FLIP_CACHE),
    }


def main(argv) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    cli = importlib.import_module("envshift.cli")
    try:
        return cli.main(cli_args)
    finally:
        data = tracer.report()
        data["counts"].update(cache_sizes())
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
