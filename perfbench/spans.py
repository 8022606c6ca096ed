"""Span tracing of slicescope's public functions, installed from outside.

A traced run replaces each function named in ``TARGETS`` by a wrapper
that records one span per call: name, start, end and the index of the
enclosing span.  A function is replaced at every site that holds it, so
``verifier`` and ``realizations``, which import ``kernel`` and
``bracket`` by name, are traced too.  Methods are replaced on their
class.  A layer's self time is its span time minus the time of its
child spans; counters that need the call's arguments or result (entry
counts, multiply-adds, entry sizes) are computed after the call, inside
a ``trace.observe`` child span, so their cost never lands in a layer's
self time.
"""

from __future__ import annotations

import time
from collections import defaultdict


def _kernel_observe(tr, args, result):
    a = args[0]
    tr.counts["exactlinalg.kernel.entries_in"] += a.rows * a.cols
    tr.counts["exactlinalg.kernel.nonzero_in"] += sum(1 for row in a.data for x in row if x)
    bits = max((max(abs(x.numerator).bit_length(), x.denominator.bit_length())
                for v in result.basis for x in v), default=0)
    tr.maxima["exactlinalg.kernel.max_bits_out"] = max(
        tr.maxima["exactlinalg.kernel.max_bits_out"], bits)


def _matmul_observe(tr, args, result):
    a, b = args
    tr.counts["exactlinalg.matmul.madds"] += a.rows * a.cols * b.cols


def _block_observe(tr, args, result):
    tr.distinct["realizations.invariant_form_on_block"].add(args[0])


# (module, attribute, span name, observer).  An attribute "Class.method"
# is replaced on the class; a plain attribute at every module binding it.
TARGETS = [
    ("exactlinalg", "kernel", "exactlinalg.kernel", _kernel_observe),
    ("exactlinalg", "RatMatrix.__matmul__", "exactlinalg.matmul", _matmul_observe),
    ("exactlinalg", "bracket", "exactlinalg.bracket", None),
    ("exactlinalg", "trace_form", "exactlinalg.trace_form", None),
    ("exactlinalg", "Subspace.__init__", "exactlinalg.subspace_build", None),
    ("exactlinalg", "Subspace.span", "exactlinalg.subspace_build", None),
    ("exactlinalg", "Subspace.member", "exactlinalg.subspace_query", None),
    ("exactlinalg", "Subspace.contains", "exactlinalg.subspace_query", None),
    ("exactlinalg", "Subspace.intersection_dim", "exactlinalg.subspace_query", None),
    ("exactlinalg", "Subspace.coords", "exactlinalg.subspace_query", None),
    ("exactlinalg", "RatMatrix.rank", "exactlinalg.rank", None),
    ("exactlinalg", "rank_of_vectors", "exactlinalg.rank", None),
    ("realizations", "build_case", "realizations.build_case", None),
    ("realizations", "build_algebra", "realizations.build_algebra", None),
    ("realizations", "invariant_form_on_block", "realizations.invariant_form_on_block",
     _block_observe),
    ("realizations", "MatrixRealization.zf_subspace", "realizations.zf_subspace", None),
    ("verifier", "coisotropy_check", "verifier.coisotropy_check", None),
    ("verifier", "slice_point", "verifier.slice_point", None),
    ("verifier", "omega_gram", "verifier.omega_gram", None),
    ("verifier", "orbit_tangent", "verifier.orbit_tangent", None),
    ("verifier", "stabilizer_dim", "verifier.stabilizer_dim", None),
    ("classifier", "classify", "classifier.classify", None),
    ("classifier", "enumerate_and_classify", "classifier.enumerate_and_classify", None),
    ("classifier", "sweep_inequality_proof", "classifier.sweep_inequality_proof", None),
    ("classifier", "necessary_bound", "classifier.necessary_bound", None),
    ("liealg", "orbit_datum", "liealg.orbit_datum", None),
    ("partitions", "valid_jordan_types", "partitions.valid_jordan_types", None),
    ("superdual", "s_dual", "superdual.s_dual", None),
    ("cli", "main", "cli.main", None),
]

# Spans reported with calls and self time; the rest of the per-layer
# metrics are derived in ``Tracer.metrics``.
_TIMED = [
    "exactlinalg.kernel", "exactlinalg.matmul", "exactlinalg.bracket",
    "exactlinalg.trace_form", "exactlinalg.subspace_build",
    "exactlinalg.subspace_query", "exactlinalg.rank",
    "realizations.build_case", "realizations.build_algebra",
    "realizations.invariant_form_on_block", "realizations.zf_subspace",
    "verifier.coisotropy_check", "verifier.omega_gram",
    "verifier.orbit_tangent", "verifier.stabilizer_dim",
    "classifier.classify", "liealg.orbit_datum",
    "partitions.valid_jordan_types", "superdual.s_dual", "cli.main",
]


class Tracer:
    """Records spans in memory while installed on a set of modules."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._stack: list[tuple[str, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self.distinct: dict[str, set] = defaultdict(set)
        self.sites: dict[str, list[str]] = defaultdict(list)
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == name:
                # Same span calling itself (Subspace.span -> __init__): one span.
                return fn(*args, **kwargs)
            parent = stack[-1][1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append((name, index))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if observe is not None:
                t0 = clock()
                observe(self, args, result)
                spans.append(("trace.observe", t0, clock(), parent))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, modules: dict) -> None:
        """Replace every target in ``modules`` (short name -> module)."""
        for owner, attr, name, observe in TARGETS:
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(modules[owner], cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(name, raw.__func__, observe))
                else:
                    new = self.wrap(name, raw, observe)
                self._set(cls, meth, raw, new)
                self.sites[name].append(f"{owner}.{attr}")
                continue
            original = getattr(modules[owner], attr)
            new = self.wrap(name, original, observe)
            for mod_name, mod in modules.items():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, original, new)
                        self.sites[name].append(f"{mod_name}.{key}")

    def _set(self, holder, key, old, new) -> None:
        self._undo.append((holder, key, old))
        setattr(holder, key, new)

    def uninstall(self) -> None:
        for holder, key, old in reversed(self._undo):
            setattr(holder, key, old)
        self._undo.clear()

    def totals(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and self seconds per span name, from the recorded spans."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
        return calls, self_s

    def metrics(self, bytes_out: int, pass_wall_s: float) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as name -> (value, unit)."""
        calls, self_s = self.totals()
        out: dict[str, tuple[float, str]] = {}
        for name in _TIMED:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_s[name], "s")
        entries = self.counts["exactlinalg.kernel.entries_in"]
        out["exactlinalg.kernel.entries_in"] = (entries, "count")
        out["exactlinalg.kernel.nonzero_share_in"] = (
            self.counts["exactlinalg.kernel.nonzero_in"] / entries if entries else 0.0, "share")
        out["exactlinalg.kernel.max_bits_out"] = (
            self.maxima["exactlinalg.kernel.max_bits_out"], "bits")
        out["exactlinalg.matmul.madds"] = (self.counts["exactlinalg.matmul.madds"], "count")
        blocks = len(self.distinct["realizations.invariant_form_on_block"])
        out["realizations.invariant_form_on_block.calls_per_distinct_m"] = (
            calls["realizations.invariant_form_on_block"] / blocks if blocks else 0.0, "ratio")
        checks = calls["verifier.coisotropy_check"]
        out["realizations.zf_subspace.calls_per_check"] = (
            calls["realizations.zf_subspace"] / checks if checks else 0.0, "ratio")
        out["verifier.attempts_per_check"] = (
            calls["verifier.slice_point"] / checks if checks else 0.0, "ratio")
        for name in ("classifier.enumerate_and_classify", "classifier.sweep_inequality_proof"):
            out[f"{name}.self_s"] = (self_s[name], "s")
        out["classifier.necessary_bound.calls"] = (calls["classifier.necessary_bound"], "count")
        out["cli.bytes_out"] = (bytes_out, "bytes")
        out["trace.pass.wall_s"] = (pass_wall_s, "s")
        out["trace.span.count"] = (len(self.spans), "count")
        return out
