"""Per-layer tracing from outside the library.

``Tracer.install`` replaces each traced function with a wrapper in every
``veronese`` module namespace that binds it (several modules import the
functions by name), and ``restore`` puts the originals back.  While an
operation is active, each wrapped call records one span (name, start,
end, parent span, operation) in memory; outside operations, for example
in the harness's own checks, the wrappers only forward the call.
"""

from __future__ import annotations

import gzip
import sys
from collections import Counter
from functools import wraps
from time import perf_counter

# (module, function) pairs that get a span.  Besides the functions the
# per-layer metrics name, this holds every library entry point the CLI
# calls, so that cli.main's self time is only parsing, dispatch and output.
SPANNED = (
    ("exact", "sign_det"),
    ("exact", "is_power_of_linear_form"),
    ("geometry", "facet_test_lambda"),
    ("geometry", "facet_test_determinant"),
    ("geometry", "enumerate_facets_geometric"),
    ("geometry", "decompose_chart"),
    ("geometry", "chart_from_decomposition"),
    ("geometry", "vertices_geometric"),
    ("facets", "enumerate_facets_line"),
    ("facets", "s123_decompose"),
    ("circular", "enumerate_facets_circular"),
    ("circular", "facet_count"),
    ("circular", "induce_composition"),
    ("circular", "realize"),
    ("circular", "vertex_set"),
    ("canonical", "certificate"),
    ("canonical", "complex_invariant"),
    ("canonical", "distinct_types"),
    ("canonical", "table_report"),
    ("classify", "classify_composition"),
    ("cli", "main"),
    ("cli", "build_parser"),
)

# Called far too often for a span each; only counted.
COUNTED = (("geometry", "q_eval"),)

# Span outcomes summed per function, for the ratio metrics.
OUTCOMES = {
    "geometry.facet_test_lambda": bool,
    "geometry.facet_test_determinant": bool,
    "canonical.distinct_types": len,
}

PER_LAYER = (
    ("exact.sign_det.calls", "count"),
    ("exact.sign_det.self_s", "s"),
    ("geometry.q_eval.calls", "count"),
    ("geometry.facet_test_lambda.calls", "count"),
    ("geometry.facet_test_lambda.self_s", "s"),
    ("geometry.facet_test_determinant.calls", "count"),
    ("geometry.facet_test_determinant.self_s", "s"),
    ("geometry.enumerate_facets_geometric.self_s", "s"),
    ("geometry.facet_ratio", "ratio"),
    ("facets.enumerate_facets_line.self_s", "s"),
    ("facets.s123_decompose.calls", "count"),
    ("facets.s123_decompose.self_s", "s"),
    ("circular.enumerate_facets_circular.calls", "count"),
    ("circular.enumerate_facets_circular.self_s", "s"),
    ("circular.facet_count.calls", "count"),
    ("circular.facet_count.self_s", "s"),
    ("canonical.certificate.calls", "count"),
    ("canonical.certificate.self_s", "s"),
    ("canonical.certificate.max_ms", "ms"),
    ("canonical.distinct_types.self_s", "s"),
    ("canonical.complex_invariant.self_s", "s"),
    ("canonical.new_type_ratio", "ratio"),
    ("classify.classify_composition.self_s", "s"),
    ("classify.certificate_calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.build_parser.calls", "count"),
    ("cli.build_parser.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


class Tracer:
    def __init__(self):
        self.spans = []      # (name, start, end, parent index or -1, op id)
        self.counts = Counter()
        self.outcomes = Counter()
        self.op = None       # id of the active operation, None outside
        self._stack = []
        self._saved = []     # (namespace dict, attribute, original)

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "veronese" or name.startswith("veronese.")]
        for targets, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for module, func in targets:
                original = getattr(sys.modules[f"veronese.{module}"], func)
                wrapper = make(f"{module}.{func}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._saved.append((vars(m), attr, original))
                            setattr(m, attr, wrapper)

    def restore(self):
        for namespace, attr, original in reversed(self._saved):
            namespace[attr] = original
        self._saved.clear()

    def _spanned(self, name, fn):
        spans, stack, outcome = self.spans, self._stack, OUTCOMES.get(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if outcome is not None:
                self.outcomes[name] += outcome(result)
            return result
        return traced

    def _counted(self, name, fn):
        counts = self.counts

        @wraps(fn)
        def counted(*args, **kwargs):
            if self.op is not None:
                counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def write(self, path):
        """Spans as gzipped TSV: name, start, end, parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{op}\n")

    def layer_metrics(self, repetitions, overhead_ratio):
        """Per-layer metrics, per repetition of the traced block.  Self
        time is a span's duration minus the time its child spans cover;
        calls nest, so children never overlap one another."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        calls, self_s, max_s = Counter(), Counter(), Counter()
        max_s["canonical.certificate"] = 0.0
        classify_certs = 0
        for i, (name, start, end, parent, _) in enumerate(spans):
            calls[name] += 1
            self_s[name] += end - start - covered[i]
            max_s[name] = max(max_s[name], end - start)
            if (name == "canonical.certificate" and parent >= 0
                    and spans[parent][0].startswith("classify.")):
                classify_certs += 1
        calls.update(self.counts)

        def ratio(num, den):
            return num / den if den else 0.0

        tests = ("geometry.facet_test_lambda", "geometry.facet_test_determinant")
        cert_in_types = sum(
            1 for name, _, _, parent, _ in spans
            if name == "canonical.certificate" and parent >= 0
            and spans[parent][0] == "canonical.distinct_types")
        derived = {
            "geometry.facet_ratio": ratio(sum(self.outcomes[t] for t in tests),
                                          sum(calls[t] for t in tests)),
            "canonical.certificate.max_ms": max_s["canonical.certificate"] * 1000,
            "canonical.new_type_ratio": ratio(self.outcomes["canonical.distinct_types"],
                                              cert_in_types),
            "classify.certificate_calls": classify_certs / repetitions,
            "trace.overhead_ratio": overhead_ratio,
        }
        out = {}
        for metric, unit in PER_LAYER:
            if metric in derived:
                value = derived[metric]
            elif metric.endswith(".calls"):
                value = calls[metric[:-len(".calls")]] / repetitions
            else:
                value = self_s[metric[:-len(".self_s")]] / repetitions
            out[metric] = {"value": value, "unit": unit}
        return out
