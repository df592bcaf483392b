"""Span tracer that wraps the package's public functions from outside.

Used only in traced runs.  Each wrapped call records one span (id, parent,
name, start, end, request id) in memory; spans are written out when the run
ends.  A span's self time is its duration minus the time covered by its
child spans.  The tracer's own bookkeeping (taking timestamps, counting terms)
is subtracted from every enclosing span, so self times describe the package
and the difference between a traced and an untraced run is the overhead.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.request_id = None
        self._stack: list[list[int]] = []  # [span id, child ns, bookkeeping ns at start]
        self._next_id = 0
        self._bookkeeping_ns = 0

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a traced version; ``count(args, result)``
        may add to ``self.counts`` after each successful call."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            entered = perf_counter_ns()
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else None
            frame = [span_id, 0, tracer._bookkeeping_ns]
            tracer._stack.append(frame)
            start = perf_counter_ns()
            ok = False
            try:
                result = original(*args, **kwargs)
                ok = True
            finally:
                end = perf_counter_ns()
                tracer._stack.pop()
                inner = end - start - (tracer._bookkeeping_ns - frame[2])
                if tracer._stack:
                    tracer._stack[-1][1] += inner
                tracer.calls[name] += 1
                tracer.self_ns[name] += inner - frame[1]
                tracer.spans.append((span_id, parent, name, start, end, tracer.request_id))
                if ok and count is not None:
                    count(tracer.counts, args, result)
                tracer._bookkeeping_ns += (start - entered) + (perf_counter_ns() - end)
            return result

        setattr(owner, attr, traced)

    def summary(self) -> dict:
        return {"calls": dict(self.calls),
                "self_s": {k: v / 1e9 for k, v in self.self_ns.items()},
                "counts": dict(self.counts)}



def write_spans(path, spans) -> None:
    """One JSON object per line; a span from a CLI child also names its process."""
    keys = ("id", "parent", "name", "start_ns", "end_ns", "request", "process")
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _count_mul(counts: Counter, args, result) -> None:
    left, right = args
    if isinstance(right, type(left)):
        counts["opalgebra.mul.pairs"] += len(left.terms()) * len(right.terms())
        counts["opalgebra.mul.atoms_out"] += sum(1 for _ in result.flatten())


def _count_closure(counts: Counter, args, report) -> None:
    counts["opalgebra.closure.commutators_tested"] += report.commutators_tested
    counts["opalgebra.closure.dimension"] += report.dimension


def _count_chars(key: str, from_result: bool):
    def count(counts: Counter, args, result) -> None:
        counts[key] += len(result if from_result else args[0])
    return count


# (module, owner path, function, counter).  Wrapping the module attribute
# catches calls made through the module, including the package's own calls
# between modules and from ``cli``.
TRACED = (
    ("opalgebra", "OperatorExpr", "__mul__", _count_mul),
    ("opalgebra", None, "commutator", None),
    ("opalgebra", None, "closure_check", _count_closure),
    ("opdsl", None, "parse", _count_chars("opdsl.parse.chars", False)),
    ("opdsl", None, "render", _count_chars("opdsl.render.chars", True)),
    ("generators", None, "closure_report", None),
    ("generators", None, "sp4_bilinears", None),
    ("generators", None, "su11_reports", None),
    ("generators", None, "weyl_reports", None),
    ("generators", None, "casimir_reports", None),
    ("generators", None, "reconstruction_reports", None),
    ("factorizations", None, "factorization_residuals", None),
    ("factorizations", None, "f_to_b", None),
    ("factorizations", None, "f_to_c", None),
    ("factorizations", None, "b_to_c", None),
    ("coulomb", None, "gauss_laguerre", None),
    ("coulomb", None, "action_report", None),
    ("coulomb", "QuantumState", "scaled_profile", None),
    ("coulomb", None, "normalization_residual", None),
    ("coulomb", None, "casimir_residual", None),
    ("coulomb", None, "schrodinger_residual", None),
)

SPAN_NAMES = tuple(".".join(p for p in (mod, owner, fn) if p) for mod, owner, fn, _ in TRACED)


def install(tracer: Tracer) -> None:
    import importlib

    for (module_name, owner_name, fn, count), name in zip(TRACED, SPAN_NAMES):
        module = importlib.import_module(f"ladder_forge.{module_name}")
        owner = getattr(module, owner_name) if owner_name else module
        tracer.wrap(owner, fn, name, count)


def cache_stats():
    """(hits, misses, size) of the normal-ordering cache, or None if absent."""
    from ladder_forge import opalgebra

    info = getattr(getattr(opalgebra, "_mono_cross", None), "cache_info", None)
    if info is None:
        return None
    stats = info()
    return stats.hits, stats.misses, stats.currsize
