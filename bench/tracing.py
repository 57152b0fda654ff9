"""Per-layer tracing from outside the library.

`Tracer.install()` replaces the public functions and methods of each layer
with wrappers, in every `clusteralg` module namespace that binds them (for
example `lp_exact_div` is bound in `laurent`, `mutation` and `principal`),
and `uninstall()` puts the originals back. A wrapper records one span (name,
start, end, parent) per call and the counts its layer metrics need, taken
from the call arguments and the return value. Spans stay in memory, in
compact arrays, until the traced run ends; then self times are computed from
them: a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from time import perf_counter

import clusteralg.bipartite
import clusteralg.exchange_graph
import clusteralg.laurent
import clusteralg.mutation
import clusteralg.principal
import clusteralg.semifield
from clusteralg.laurent import LaurentPolynomial, NonExactDivision


# -- counters: read the arguments and the result at the layer boundary ----


def _count_exact_div(t, args, kwargs, result):
    p, q = args[0], args[1]
    t.add("laurent.exact_div.term_ops", len(result.terms) * len(q.terms))
    t.peak("laurent.exact_div.max_dividend_terms", len(p.terms))
    t.peak("laurent.max_terms", len(result.terms))


def _count_mul(t, args, kwargs, result):
    a, b = args[0], args[1]
    t.add("laurent.mul.term_pairs", len(a.terms) * (len(b.terms) if isinstance(b, LaurentPolynomial) else 1))
    t.peak("laurent.max_terms", len(result.terms))


def _count_divides(t, args, kwargs, result):
    if result:
        t.add("laurent.divides.hits", 1)


def _count_text(t, args, kwargs, result):
    t.add("laurent.canonical_text.bytes", len(result))


def _count_substitute(t, args, kwargs, result):
    t.peak("laurent.max_terms", len(result.terms))


def _count_canonical_form(t, args, kwargs, result):
    t.add("exchange_graph.canonical_form.key_bytes", len(result))
    t.keys.add(result)


def _state_hit(t, args, kwargs):
    pattern, path = args[0], args[1]
    if tuple(path) in pattern._states:
        t.add("principal.state.hits", 1)


def _count_trop_eval(t, args, kwargs, result):
    t.add("semifield.trop_eval.terms", len(args[0].terms))


# (metric prefix, module, class or None, attribute, records a span, before, after)
TARGETS = (
    ("laurent.exact_div", clusteralg.laurent, None, "lp_exact_div", True, None, _count_exact_div),
    ("laurent.mul", clusteralg.laurent, "LaurentPolynomial", "__mul__", True, None, _count_mul),
    ("laurent.divides", clusteralg.laurent, None, "lp_divides", False, None, _count_divides),
    ("laurent.rational_simplify", clusteralg.laurent, "RationalExpression", "simplify", True, None, None),
    ("laurent.canonical_text", clusteralg.laurent, None, "lp_canonical_text", True, None, _count_text),
    ("laurent.substitute", clusteralg.laurent, None, "lp_substitute_monomial", True, None, _count_substitute),
    ("mutation.mutate_matrix", clusteralg.mutation, None, "mutate_matrix", True, None, None),
    ("mutation.mutate_seed", clusteralg.mutation, None, "mutate_seed_geometric", True, None, None),
    ("exchange_graph.canonical_form", clusteralg.exchange_graph, None, "seed_canonical_form", True, None, _count_canonical_form),
    ("principal.state", clusteralg.principal, "PrincipalPattern", "state", True, _state_hit, None),
    ("principal.g_transition", clusteralg.principal, None, "g_transition", True, None, None),
    ("principal.patterns", clusteralg.principal, "PrincipalPattern", "__init__", False, None, None),
    ("semifield.trop_eval", clusteralg.semifield, None, "trop_eval_positive_poly", True, None, _count_trop_eval),
    ("bipartite.orbit_vector", clusteralg.bipartite, None, "orbit_vector", True, None, None),
    ("bipartite.seed_key", clusteralg.bipartite, "Belt", "seed_key", True, None, None),
    ("bipartite.y_universal", clusteralg.bipartite, "Belt", "y_universal", True, None, None),
)

SPAN_NAMES = tuple(name for name, _, _, _, span, _, _ in TARGETS if span)

# Every per-layer metric, in the order they are reported.
LAYER_METRICS = (
    ("laurent.exact_div.calls", "count"),
    ("laurent.exact_div.self_s", "s"),
    ("laurent.exact_div.term_ops", "count"),
    ("laurent.exact_div.max_dividend_terms", "count"),
    ("laurent.exact_div.nonexact", "count"),
    ("laurent.mul.calls", "count"),
    ("laurent.mul.self_s", "s"),
    ("laurent.mul.term_pairs", "count"),
    ("laurent.max_terms", "count"),
    ("laurent.divides.calls", "count"),
    ("laurent.divides.hit_ratio", "ratio"),
    ("laurent.rational_simplify.calls", "count"),
    ("laurent.rational_simplify.self_s", "s"),
    ("laurent.canonical_text.calls", "count"),
    ("laurent.canonical_text.self_s", "s"),
    ("laurent.canonical_text.bytes", "bytes"),
    ("laurent.substitute.calls", "count"),
    ("laurent.substitute.self_s", "s"),
    ("mutation.mutate_matrix.calls", "count"),
    ("mutation.mutate_matrix.self_s", "s"),
    ("mutation.mutate_seed.calls", "count"),
    ("mutation.mutate_seed.self_s", "s"),
    ("exchange_graph.canonical_form.calls", "count"),
    ("exchange_graph.canonical_form.self_s", "s"),
    ("exchange_graph.canonical_form.key_bytes", "bytes"),
    ("exchange_graph.canonical_form.new_ratio", "ratio"),
    ("principal.state.calls", "count"),
    ("principal.state.hit_ratio", "ratio"),
    ("principal.state.self_s", "s"),
    ("principal.g_transition.calls", "count"),
    ("principal.g_transition.self_s", "s"),
    ("principal.patterns", "count"),
    ("principal.memo_entries", "count"),
    ("semifield.trop_eval.calls", "count"),
    ("semifield.trop_eval.self_s", "s"),
    ("semifield.trop_eval.terms", "count"),
    ("bipartite.orbit_vector.calls", "count"),
    ("bipartite.orbit_vector.self_s", "s"),
    ("bipartite.seed_key.calls", "count"),
    ("bipartite.seed_key.self_s", "s"),
    ("bipartite.y_universal.calls", "count"),
    ("bipartite.y_universal.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
)


class Tracer:
    """Spans and counts of one traced run; install() and uninstall() patch
    and restore the library."""

    def __init__(self):
        self.span_id = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.span_name = array("B")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.counts = {}
        self.keys = set()
        self._patched = []

    # -- recording --------------------------------------------------------
    def add(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    def peak(self, key, value):
        if value > self.counts.get(key, 0):
            self.counts[key] = value

    def _wrap(self, prefix, fn, span, before, after):
        calls_key = prefix if prefix == "principal.patterns" else prefix + ".calls"
        sid = self.span_id.get(prefix)
        tracer = self
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.add(calls_key, 1)
            if before is not None:
                before(tracer, args, kwargs)
            if span:
                i = len(tracer.start)
                tracer.span_name.append(sid)
                tracer.parent.append(stack[-1] if stack else -1)
                tracer.end.append(0.0)
                stack.append(i)
                tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except NonExactDivision:
                if prefix == "laurent.exact_div":
                    tracer.add("laurent.exact_div.nonexact", 1)
                raise
            finally:
                if span:
                    tracer.end[i] = perf_counter()
                    stack.pop()
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every target wherever a clusteralg namespace binds it."""
        modules = [m for name, m in sys.modules.items() if name.startswith("clusteralg.")]
        for prefix, module, cls, attr, span, before, after in TARGETS:
            if cls is None:
                original = getattr(module, attr)
                owners = modules
            else:
                owner = getattr(module, cls)
                original = owner.__dict__[attr]
                owners = [owner]
            wrapper = self._wrap(prefix, original, span, before, after)
            for owner in owners:
                for name, value in list(vars(owner).items()):
                    if value is original:
                        self._patched.append((owner, name, original))
                        setattr(owner, name, wrapper)

    def uninstall(self):
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    # -- results ----------------------------------------------------------
    def self_times(self):
        """Self time per span name: duration minus the child spans' durations."""
        n = len(self.start)
        own = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        totals = dict.fromkeys(SPAN_NAMES, 0.0)
        for i in range(n):
            totals[SPAN_NAMES[self.span_name[i]]] += own[i]
        return totals

    def metrics(self, traced_wall_s):
        """Every layer metric as {name: {"value", "unit"}}; self times plus
        trace.unattributed_s add up to traced_wall_s. trace.overhead_s needs
        the untraced run and is left at 0 here."""
        c = self.counts
        out = {key: c.get(key, 0) for key, unit in LAYER_METRICS if unit in ("count", "bytes")}
        selfs = self.self_times()
        for name, seconds in selfs.items():
            out[name + ".self_s"] = seconds
        out["trace.unattributed_s"] = traced_wall_s - sum(selfs.values())

        def ratio(num, calls_key):
            return num / c[calls_key] if c.get(calls_key) else 0.0

        out["laurent.divides.hit_ratio"] = ratio(c.get("laurent.divides.hits", 0), "laurent.divides.calls")
        out["principal.state.hit_ratio"] = ratio(c.get("principal.state.hits", 0), "principal.state.calls")
        out["exchange_graph.canonical_form.new_ratio"] = ratio(
            len(self.keys), "exchange_graph.canonical_form.calls"
        )
        # Each pattern starts with one memo entry and each state() miss adds one.
        out["principal.memo_entries"] = (
            out["principal.patterns"] + out["principal.state.calls"] - c.get("principal.state.hits", 0)
        )
        out["trace.overhead_s"] = 0.0
        return {name: {"value": out[name], "unit": unit} for name, unit in LAYER_METRICS}

    def write_spans(self, path):
        """Write the spans, gzipped, as tab-separated lines: name, start, end,
        parent (the parent's row index, counting from 0 after the header
        line; -1 for none)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\n")
            for i in range(len(self.start)):
                fh.write("%s\t%.9f\t%.9f\t%d\n" % (
                    SPAN_NAMES[self.span_name[i]], self.start[i], self.end[i], self.parent[i]))
