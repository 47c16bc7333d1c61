"""Layer profile taken from outside the package.

``Tracer.install`` wraps the public functions of each layer module.  A
function is patched in every package module that binds it, and every class
attribute that aliases a wrapped method (``__radd__ = __add__``) is patched
with it.  ``Tracer.uninstall`` puts every original object back.  Nothing
under ``src/`` is edited.

For each wrapped function the tracer keeps a call count and a self time: the
function's wall time minus the time of the wrapped functions it called.
Spans (name, start, end, parent) are kept only at the ``cli.main``,
``run_suite`` and law-checker boundaries; the scalar and lincomb functions
run millions of times per sweep and are kept only as aggregates.
"""

from __future__ import annotations

import sys
import time

from workloads import first_int

PACKAGE = "epsbialg"

LAYERS = {
    "cli": ("main",),
    "parser": ("parse_expression", "parse_tensor", "emit"),
    "verify": ("run_suite",),
    "prelie": (
        "prelie_product", "commutator_bracket", "check_prelie_identity", "check_jacobi",
        "check_left_representation", "matrix_bracket_closed_form", "matrix_bracket_table",
    ),
    "core": (
        "AlgebraInstance.__init__", "AlgebraInstance.coproduct",
        "AlgebraInstance.basis_coproduct", "AlgebraInstance._expand_leg", "d_map",
        "antipode", "check_cocycle", "check_coassoc", "check_antipode_axiom",
        "check_antipode_properties",
    ),
    "lincomb": (
        "Element.__mul__", "Element.__add__", "Element.scale", "Element.from_key",
        "tensor", "act_left", "act_right", "TensorElement.__add__",
    ),
    "scalars": (
        "LambdaPoly.__init__", "LambdaPoly.__add__", "LambdaPoly.__mul__",
        "LambdaPoly.coerce", "LambdaPoly.const",
    ),
    "matrices": ("newtonian_coproduct",),
    "words": ("weighted_word_coproduct", "univar_coproduct"),
}

# The suites of ``verify --suite all`` at the time the benchmark was defined;
# a fixed list keeps the metric names stable.
SUITES = (
    "coassoc", "cocycle", "antipode", "prelie", "jacobi", "representation",
    "bracket-closed-form", "paper-examples",
)

_RETURNS_TENSOR = {
    "lincomb.tensor", "lincomb.act_left", "lincomb.act_right", "lincomb.TensorElement.__add__",
    "core.AlgebraInstance.coproduct", "core.AlgebraInstance._expand_leg",
}


class Tracer:
    """Call counts, self times, spans and layer counters of one traced pass."""

    def __init__(self):
        self.stats = {}  # name -> [calls, self seconds]
        self.suites = {suite: [0.0, 0] for suite in SUITES}  # suite -> [seconds, checks]
        self.spans = []  # [name, start, end, parent index or -1]
        self.missing = []  # targets the package no longer defines
        self.mul_pairs = 0
        self.peak_terms = 0
        self._seen = {}  # AlgebraInstance -> set of keys passed to basis_coproduct
        self._patches = []  # (owner, attribute, original object)
        self._stack = [0.0]  # child time of each open wrapped call
        self._open_spans = [-1]

    # -- installing ---------------------------------------------------------

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for layer, names in LAYERS.items():
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for qualname in names:
                name = f"{layer}.{qualname}"
                self.stats[name] = [0, 0.0]
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    owner = getattr(module, cls_name, None)
                    raw = vars(owner).get(attr) if owner is not None else None
                    if raw is None:
                        self.missing.append(name)
                        continue
                    descriptor = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
                    fn = raw.__func__ if descriptor else raw
                    wrapper = self._wrap(name, fn)
                    self._replace([owner], raw, descriptor(wrapper) if descriptor else wrapper)
                else:
                    raw = getattr(module, qualname, None)
                    if raw is None:
                        self.missing.append(name)
                        continue
                    self._replace(modules, raw, self._wrap(name, raw))

    def _replace(self, owners, original, replacement):
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    self._patches.append((owner, attr, original))
                    setattr(owner, attr, replacement)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)

    def restored(self):
        """Whether every patched attribute holds its original object again."""
        return all(vars(owner).get(attr) is original for owner, attr, original in self._patches)

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name, fn):
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter
        short = name.split(".")[-1]
        if name == "verify.run_suite":
            return self._wrap_hooked(name, fn, self._span_enter, self._suite_leave)
        if name == "cli.main" or short.startswith("check_"):
            return self._wrap_hooked(name, fn, self._span_enter, self._span_leave)
        if name == "lincomb.Element.__mul__":
            return self._wrap_hooked(name, fn, None, self._mul_leave)
        if name == "core.AlgebraInstance.basis_coproduct":
            return self._wrap_hooked(name, fn, None, self._memo_leave)
        if name in _RETURNS_TENSOR:
            return self._wrap_hooked(name, fn, None, self._peak_leave)

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stat[1] += elapsed - stack.pop()
                stat[0] += 1
                stack[-1] += elapsed

        return wrapper

    def _wrap_hooked(self, name, fn, enter, leave):
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            token = enter(name) if enter else None
            stack.append(0.0)
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                elapsed = t1 - t0
                stat[1] += elapsed - stack.pop()
                stat[0] += 1
                stack[-1] += elapsed
                leave(token, args, result, elapsed, t1)

        return wrapper

    def _span_enter(self, name):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._open_spans[-1]])
        self._open_spans.append(index)
        return index

    def _span_leave(self, index, args, result, elapsed, t1):
        self.spans[index][2] = t1
        self._open_spans.pop()

    def _suite_leave(self, index, args, result, elapsed, t1):
        self._span_leave(index, args, result, elapsed, t1)
        totals = self.suites.get(args[0])
        if totals is not None:
            totals[0] += elapsed
            if result is not None and result.status != "skip":
                totals[1] += first_int(result.detail) or 0

    def _mul_leave(self, token, args, result, elapsed, t1):
        other = args[1]
        terms = getattr(other, "terms", None)
        if terms is not None:
            self.mul_pairs += len(args[0].terms) * len(terms)

    def _peak_leave(self, token, args, result, elapsed, t1):
        terms = getattr(result, "terms", None)
        if terms is not None and len(terms) > self.peak_terms:
            self.peak_terms = len(terms)

    def _memo_leave(self, token, args, result, elapsed, t1):
        self._seen.setdefault(args[0], set()).add(args[1])
        self._peak_leave(token, args, result, elapsed, t1)

    # -- results ------------------------------------------------------------

    def metrics(self):
        """{metric name: (value, unit)} over every target, zero where never called."""
        out = {}
        for name, (calls, self_s) in self.stats.items():
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (self_s, "s")
        for suite, (seconds, checks) in self.suites.items():
            out[f"verify.{suite}.s"] = (seconds, "s")
            out[f"verify.{suite}.checks"] = (checks, "count")
        lookups = self.stats["core.AlgebraInstance.basis_coproduct"][0]
        distinct = sum(len(keys) for keys in self._seen.values())
        out["core.basis_coproduct.hit_ratio"] = (1 - distinct / lookups if lookups else 0.0, "ratio")
        out["lincomb.mul.pairs"] = (self.mul_pairs, "count")
        out["lincomb.peak_terms"] = (self.peak_terms, "count")
        return out
