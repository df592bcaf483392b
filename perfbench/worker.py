"""In-process benchmark worker: one client issuing requests in a closed loop.

Started by ``run.py``.  It imports the package, runs the workload's untimed
warm-up deck, prints ``READY`` with the warm-up's wall time, measured and on
the host-speed probe's reference scale, and waits for ``GO`` or ``STOP`` on
stdin.
After ``GO`` it runs the seeded request stream and prints one JSON line with
latencies, verdict counts and peak memory (plus per-layer figures when
traced).
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import sys
import time

import speed
import tracer as tracing
import workloads
from ladder_forge import coulomb, factorizations, generators, opalgebra, opdsl


def _family(tag: str, params: tuple):
    return {"B": factorizations.TypeB, "C": factorizations.TypeC,
            "F": factorizations.TypeF}[tag](*params)


def _reports(reports) -> tuple:
    return tuple((rep.name, rep.lhs == rep.rhs and rep.residual.is_zero) for rep in reports)


def _map_result(result) -> tuple:
    return (result.target.family, tuple(sorted(vars(result.target).items())),
            tuple(sorted(result.quantum_map.items())), result.scale_s, result.epsilon)


def execute(req: workloads.Request):
    """Issue one request to the package; return its raw verdict."""
    kind, args = req.kind, req.args
    if kind == "closure":
        return generators.closure_report(args[0])
    if kind == "report-set":
        return {"su11": generators.su11_reports, "weyl": generators.weyl_reports,
                "casimir": generators.casimir_reports}[args[0]]()
    if kind == "reconstruction":
        return generators.reconstruction_reports(*args)
    if kind == "factorization":
        tag, params, m = args
        return factorizations.factorization_residuals(_family(tag, params), m)
    if kind == "f_to_b":
        return factorizations.f_to_b(*args)
    if kind == "f_to_c":
        return factorizations.f_to_c(*args)
    if kind == "b_to_c":
        params, lbar, mbar, eps = args
        return factorizations.b_to_c(factorizations.TypeB(*params), lbar, mbar, eps)
    if kind == "commutator":
        a, b = opdsl.parse(args[0]), opdsl.parse(args[1])
        ab, ba = opalgebra.commutator(a, b), opalgebra.commutator(b, a)
        round_trips = tuple(opdsl.parse(opdsl.render(x)) for x in (a, b, ab))
        return (a, b, ab), round_trips, ab + ba
    family, labels, charge = args[:3]
    state = coulomb.make_state(family, labels, charge)
    if kind == "action":
        return coulomb.action_report(state, args[3])
    if kind == "normalization":
        return coulomb.normalization_residual(state)
    if kind == "casimir":
        return coulomb.casimir_residual(state)
    if kind == "schrodinger":
        return coulomb.schrodinger_residual(state)
    if kind == "detuned":
        return coulomb.schrodinger_residual(state, lambda_shift=args[3])
    raise ValueError(f"unknown request kind {kind!r}")


def observe(req: workloads.Request, out):
    """The answer a request produced, in the form of ``req.expect``."""
    kind = req.kind
    if kind == "closure":
        return out.dimension, out.closed
    if kind in ("report-set", "reconstruction"):
        return _reports(out)
    if kind == "factorization":
        return out[0].is_zero, out[1].is_zero
    if kind in ("f_to_b", "f_to_c", "b_to_c"):
        return _map_result(out)
    if kind == "commutator":
        values, round_trips, antisym = out
        return tuple(x == y for x, y in zip(values, round_trips)) + (antisym.is_zero,)
    if kind == "action":
        closed = req.args[4]
        if closed == 0:
            return out.annihilation and out.measured <= workloads.TOL_ANNIHILATION
        return (not out.annihilation
                and abs(out.measured - closed) <= workloads.TOL_COEFFICIENT
                and out.profile_residual <= workloads.TOL_PROFILE)
    if kind == "normalization":
        return out <= workloads.TOL_NORMALIZATION
    if kind in ("casimir", "schrodinger"):
        return out <= workloads.TOL_PROFILE
    return out >= workloads.DETUNED_FLOOR  # detuned negative control


def warm_up(workload: str, seed: int) -> tuple[int, float]:
    """Run the untimed warm-up deck.  Return its wall time and the same on
    the reference scale: probes run every ``speed.PROBE_EVERY_NS`` between
    requests, and each stretch between two probes is normalised by them."""
    start = mark = time.perf_counter_ns()
    last = speed.probe()
    normalised = 0.0
    for req in next(workloads.stream(workload, seed, warmup=True)):
        try:
            execute(req)
        except RecursionError:  # a known defect; the timed run counts it
            pass
        if time.perf_counter_ns() - mark >= speed.PROBE_EVERY_NS:
            now = speed.probe()
            normalised += speed.normalise(time.perf_counter_ns() - mark, [last, now])
            mark, last = time.perf_counter_ns(), now
    now = speed.probe()
    end = time.perf_counter_ns()
    return end - start, normalised + speed.normalise(end - mark, [last, now])


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--decks", type=int, required=True, help="decks to run")
    parser.add_argument("--trace", metavar="SPANS_PATH")
    parser.add_argument("--negative-control", action="store_true")
    args = parser.parse_args()

    print("READY", *warm_up(args.workload, args.seed), flush=True)
    if sys.stdin.readline().strip() != "GO":
        return 0

    def closed_loop(issue):
        return workloads.closed_loop(args.workload, args.seed, issue, observe, args.decks,
                                     args.negative_control)

    if not args.trace:
        result = closed_loop(execute)
    else:
        trace = tracing.Tracer()
        tracing.install(trace)
        before = tracing.cache_stats()
        request_ids = itertools.count()

        def traced(req):
            trace.request_id = next(request_ids)
            return execute(req)

        result = closed_loop(traced)
        after = tracing.cache_stats()
        result["trace"] = trace.summary()
        if after is not None:
            result["trace"]["cache"] = [after[0] - before[0], after[1] - before[1], after[2]]
        tracing.write_spans(args.trace, trace.spans)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
