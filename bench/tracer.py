"""Outside-in tracer for the benchmark's traced run.

Nothing under src/ knows about it. `install()` replaces, in every loaded
cremona module, each public function of the traced modules by a wrapper that
records a span, so a name bound with `from .ratmap import compose` is wrapped
where it is looked up as well as where it is defined. It also wraps
`RatMap.__eq__`, counts `Scalar` arithmetic on the class, and wraps the sympy
calls that cremona.poly makes: a sympy span is recorded only when the
innermost open span is a cremona.poly function, so sympy's calls to itself
and calls from elsewhere stay inside their caller's self time.

Spans are kept in memory as (id, parent id, name, start, end) and written
out by `dump()` when the run ends. A span's self time is its duration minus
the time covered by its child spans.
"""

from __future__ import annotations

import collections
import functools
import gzip
import inspect
import json
import math
import sys
import time
import types

TRACED_MODULES = (
    "scalars", "unipoly", "poly", "linalg", "ratmap", "dynamics", "polyaut",
    "weyl", "catalog",
)
SCALAR_OPS = ("__add__", "__radd__", "__mul__", "__rmul__", "inverse")

# Per-layer metric -> (span name, what to report). "self" is self seconds
# per operation, "calls" is calls per operation.
SPAN_METRICS = {
    "poly.kernel.mul": ("poly.kernel.mul", ("calls", "self")),
    "poly.kernel.exquo": ("poly.kernel.exquo", ("calls", "self")),
    "poly.kernel.gcd": ("poly.kernel.gcd", ("calls", "self")),
    "poly.convert": ("poly.convert", ("calls", "self")),
    "poly.compose_reduce": ("poly.compose_reduce", ("calls", "self")),
    "poly.substitute": ("poly.substitute", ("calls", "self")),
    "poly.factor_linear_cubic": ("poly.factor_linear_cubic", ("self",)),
    "ratmap.parse": ("ratmap.parse_ratmap", ("self",)),
    "ratmap.inverse": ("ratmap.inverse", ("calls", "self")),
    "ratmap.eq": ("ratmap.eq", ("calls", "self")),
    "dynamics.degree_sequence": ("dynamics.degree_sequence", ("self",)),
    "linalg.nullspace": ("linalg.nullspace", ("calls", "self")),
    "linalg.charpoly_int": ("linalg.charpoly_int", ("calls", "self")),
    "linalg.mat_mul": ("linalg.mat_mul", ("calls", "self")),
    "weyl.group_order_bfs": ("weyl.group_order_bfs", ("self",)),
    "weyl.salem_classify": ("weyl.salem_classify", ("self",)),
    "polyaut.jung_decompose": ("polyaut.jung_decompose", ("calls", "self")),
    "catalog.verify_entry": ("catalog.verify_entry", ("self",)),
}
KERNEL_SPANS = ("poly.kernel.mul", "poly.kernel.exquo", "poly.kernel.gcd")
LOG10_2 = math.log10(2)


def metric_units():
    """Name -> unit of every per-layer metric `report()` returns."""
    units = {}
    for metric, (_span, kinds) in SPAN_METRICS.items():
        for kind in kinds:
            if kind == "calls":
                units[f"{metric}.calls"] = "calls/op"
            else:
                units[f"{metric}.self_s"] = "s/op"
    units.update({
        "poly.kernel.share": "ratio",
        "poly.common_factor.useful_ratio": "ratio",
        "poly.digits_max": "digits",
        "scalars.ops": "ops/op",
        "ratmap.inverse.found_ratio": "ratio",
        "weyl.bfs.products": "count/op",
        "weyl.bfs.useful_ratio": "ratio",
        "trace.overhead_ratio": "ratio",
    })
    return units


def _digits(components):
    """Decimal digits of the largest numerator or denominator."""
    bits = 0
    for p in components:
        for v in p.terms.values():
            for f in (v.a, v.b):
                bits = max(bits, f.numerator.bit_length(), f.denominator.bit_length())
    return int(bits * LOG10_2) + 1


class Tracer:
    def __init__(self):
        self.active = False  # spans are recorded only while an operation runs
        self.spans = []
        self.scalar_ops = 0
        self.counts = collections.Counter()
        self.digits_max = 0
        self._stack = []  # open spans: (span id, is a cremona.poly function)
        self._next_id = 0

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn, is_poly, gate=None, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if not tracer.active or (gate is not None and not gate(stack)):
                return fn(*args, **kwargs)
            sid = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            stack.append((sid, is_poly))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, name, start, end))
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _counter(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args):
            if tracer.active:
                tracer.scalar_ops += 1
            return fn(*args)

        return wrapper

    # -- result hooks -----------------------------------------------------------

    def _on_compose_reduce(self, result):
        comps, common = result
        if common is not None and common.degree > 0:
            self.counts["compose.useful"] += 1
        self.digits_max = max(self.digits_max, _digits(comps))

    def _on_inverse(self, result):
        from cremona.errors import NOT_FOUND

        if result is not NOT_FOUND:
            self.counts["inverse.found"] += 1

    def _on_group_order(self, result):
        if isinstance(result, int):
            self.counts["bfs.order"] += result

    # -- installation -------------------------------------------------------------

    def install(self):
        import cremona
        import sympy
        from sympy.polys.domains import AlgebraicField
        from sympy.polys.domains.domain import Domain

        hooks = {
            "poly.compose_reduce": self._on_compose_reduce,
            "ratmap.inverse": self._on_inverse,
            "weyl.group_order_bfs": self._on_group_order,
        }
        wrapped = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"cremona.{short}"]
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    name = f"{short}.{attr}"
                    wrapped[obj] = self._span(name, obj, short == "poly",
                                              on_result=hooks.get(name))
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "cremona" or n.startswith("cremona.")]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    setattr(ns, attr, wrapped[obj])

        Scalar = cremona.scalars.Scalar
        for attr in SCALAR_OPS:
            setattr(Scalar, attr, self._counter(getattr(Scalar, attr)))
        RatMap = cremona.ratmap.RatMap
        RatMap.__eq__ = self._span("ratmap.eq", RatMap.__eq__, False)

        def called_from_poly(stack):
            return bool(stack) and stack[-1][1]

        sympy_layers = [
            (sympy.Poly, "__mul__", "poly.kernel.mul"),
            (sympy.Poly, "mul_ground", "poly.kernel.mul"),
            (sympy.Poly, "exquo", "poly.kernel.exquo"),
            (sympy.Poly, "gcd", "poly.kernel.gcd"),
            (sympy.Poly, "from_dict", "poly.convert"),
            (sympy.Poly, "as_dict", "poly.convert"),
            (sympy, "expand", "poly.convert"),
            (type(sympy.QQ), "from_sympy", "poly.convert"),
            (AlgebraicField, "from_sympy", "poly.convert"),
            (Domain, "convert", "poly.convert"),
        ]
        for owner, attr, name in sympy_layers:
            static = inspect.getattr_static(owner, attr)
            if isinstance(static, classmethod):
                fn = self._span(name, static.__func__, False, gate=called_from_poly)
                setattr(owner, attr, classmethod(fn))
            else:
                setattr(owner, attr,
                        self._span(name, getattr(owner, attr), False,
                                   gate=called_from_poly))

    # -- results --------------------------------------------------------------------

    def report(self, ops, op_seconds):
        """Per-layer metrics for `ops` traced operations that took
        `op_seconds` in total."""
        child = collections.defaultdict(float)
        names = {}
        for sid, parent, name, start, end in self.spans:
            child[parent] += end - start
            names[sid] = name
        calls = collections.Counter()
        self_s = collections.defaultdict(float)
        bfs_products = 0
        for sid, parent, name, start, end in self.spans:
            calls[name] += 1
            self_s[name] += end - start - child[sid]
            if name == "linalg.mat_mul" and names.get(parent) == "weyl.group_order_bfs":
                bfs_products += 1

        out = {}
        for metric, (span, kinds) in SPAN_METRICS.items():
            if "calls" in kinds:
                out[f"{metric}.calls"] = calls[span] / ops
            if "self" in kinds:
                out[f"{metric}.self_s"] = self_s[span] / ops
        kernel = sum(self_s[s] for s in KERNEL_SPANS)
        out["poly.kernel.share"] = kernel / op_seconds
        composes = calls["poly.compose_reduce"]
        out["poly.common_factor.useful_ratio"] = (
            self.counts["compose.useful"] / composes if composes else 0.0)
        out["poly.digits_max"] = self.digits_max
        out["scalars.ops"] = self.scalar_ops / ops
        inverses = calls["ratmap.inverse"]
        out["ratmap.inverse.found_ratio"] = (
            self.counts["inverse.found"] / inverses if inverses else 0.0)
        out["weyl.bfs.products"] = bfs_products / ops
        out["weyl.bfs.useful_ratio"] = (
            self.counts["bfs.order"] / bfs_products if bfs_products else 0.0)
        return out

    def dump(self, path):
        """Write the spans, one JSON array per line, gzip-compressed."""
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
