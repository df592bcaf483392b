"""ladder-forge benchmark: seeded workloads, checked answers, metrics by name.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: paper-identities, dsl-stream, coulomb-checks (in process, one
worker) and cli-fresh (one fresh ``ladder-forge`` process per request).  All
are closed loops with one client; at most two processes are alive at a time,
this one and the worker or CLI child it waits for, all pinned to one CPU.  A
run is ``--seconds`` times a per-workload rate of decks, so a seed always
gives the same work.  Every time is normalised by host-speed probes run
around it (``speed.py``): a fixed ``Fraction`` computation, and for a fresh
process also a fresh interpreter that does nothing.  So a busy shared host
does not read as a slower program.

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1`` it
runs a fixed number of decks three times (untraced, traced, untraced) and
prints the per-layer metrics and the tracing overhead.  Spans go to ``.bench_out/``.  The
last line of stdout is one JSON object; lines before it are a readable header.
``--negative-control`` feeds one wrong expected answer, so the run must report
a failure.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import speed
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"

SETUPS = 3  # in-process set-ups per run; setup_s is their median
IMPORT_SPAWNS = 5  # bare-import processes per run for cli-fresh set-up and cli.import_s
TRACED_DECKS = {"paper-identities": 4, "dsl-stream": 2, "coulomb-checks": 60, "cli-fresh": 1}
# Decks per second of --seconds.  A run is a fixed amount of work, so that
# the same seed gives the same requests and failures; these rates make it
# last about --seconds on the baseline machine.
DECKS_PER_S = {"paper-identities": 1.2, "dsl-stream": 1.5, "coulomb-checks": 90.0,
               "cli-fresh": 0.2}
RUN_LIMIT_S = 170.0

CLI_LAUNCH = ("import sys; from ladder_forge.cli import entry; "
              "sys.argv[0] = 'ladder-forge'; entry()")
CLI_KINDS = ("verify-algebra-su11", "verify-algebra-weyl", "verify-algebra-sp4", "casimir",
             "parse", "commutator", "transform", "coulomb-verify", "coulomb-residual")
COUNT_KEYS = ("opalgebra.mul.pairs", "opalgebra.mul.atoms_out",
              "opalgebra.closure.commutators_tested", "opalgebra.closure.dimension",
              "opdsl.parse.chars", "opdsl.render.chars")


class BenchError(RuntimeError):
    pass


class Budget:
    """Wall-clock limit for the whole run, shared by every child process."""

    def __init__(self):
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def left(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"run exceeded {RUN_LIMIT_S:.0f} s")
        return left


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class Worker:
    """One in-process worker; set-up is timed from spawn until it is READY."""

    def __init__(self, argv: list[str], budget: Budget):
        spawns = [spawn_probe()]
        start = time.perf_counter_ns()
        self.proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, env=child_env(), cwd=ROOT)
        self.watchdog = threading.Timer(budget.left(), self.proc.kill)
        self.watchdog.start()
        ready = self.proc.stdout.readline().split()
        took = time.perf_counter_ns() - start
        if ready[:1] != ["READY"]:
            self.finish(go=False)
            raise BenchError("worker did not start")
        # Starting and importing goes on the spawn scale; the worker put its
        # warm-up on the probe scale itself.
        warm_ns, warm_normalised = int(ready[1]), float(ready[2])
        spawns.append(spawn_probe())
        self.setup_s = (speed.normalise(took - warm_ns, spawns, speed.SPAWN_REFERENCE_NS)
                        + warm_normalised) / 1e9

    def finish(self, go: bool) -> dict | None:
        try:
            self.proc.stdin.write("GO\n" if go else "STOP\n")
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        out = self.proc.stdout.read()
        code = self.proc.wait()
        self.watchdog.cancel()
        if code != 0:
            raise BenchError(f"worker exited with status {code}")
        return json.loads(out.strip().splitlines()[-1]) if go else None


def run_decks(args) -> int:
    return max(1, round(args.seconds * DECKS_PER_S[args.workload]))


def in_process(args, budget: Budget, decks: int, count: int = SETUPS,
               spans: Path | None = None) -> tuple[dict, list]:
    """Set up ``count`` workers, one after another, and run the stream on the
    last."""
    argv = ["--workload", args.workload, "--seed", str(args.seed), "--decks", str(decks)]
    if spans is not None:
        argv += ["--trace", str(spans)]
    if args.negative_control:
        argv.append("--negative-control")
    setups = []
    for index in range(count):
        worker = Worker(argv, budget)
        setups.append(worker.setup_s)
        result = worker.finish(go=index == count - 1)
    return result, setups


def timed_process(cmd: list[str], budget: Budget,
                  during: list[int] | None = None) -> tuple[float, subprocess.CompletedProcess]:
    """Run ``cmd`` to its end; return its wall time and outcome.  With
    ``during`` given, append a host-speed probe to it every
    ``speed.SAMPLE_S`` while waiting."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=child_env(), cwd=ROOT)
    try:
        while True:
            try:
                out, err = proc.communicate(
                    timeout=budget.left() if during is None else speed.SAMPLE_S)
                break
            except subprocess.TimeoutExpired:
                during.append(speed.probe())
                budget.left()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    elapsed = time.perf_counter() - start
    return elapsed, subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def spawn_probe() -> int:
    return speed.spawn_probe(child_env())


def import_times(budget: Budget, count: int) -> tuple[list[float], list[float]]:
    """Wall times of fresh processes that import the package and exit:
    (measured, on the fresh-process reference scale)."""
    measured, normalised = [], []
    before = spawn_probe()
    for _ in range(count):
        elapsed, proc = timed_process([sys.executable, "-c", "import ladder_forge"], budget)
        after = spawn_probe()
        normalised.append(speed.normalise(elapsed, [before, after], speed.SPAWN_REFERENCE_NS))
        before = after
        if proc.returncode != 0:
            raise BenchError(f"import ladder_forge failed: {proc.stderr.strip()}")
        measured.append(elapsed)
    return measured, normalised


def observe_cli(req: workloads.Request, proc: subprocess.CompletedProcess):
    """(exit status, report pass flag, the row the known answer is about)."""
    try:
        report = json.loads(proc.stdout)
        rows = {row["name"]: row["actual"] for row in report["rows"]}
        kind = req.kind
        if kind.startswith("verify-algebra"):
            detail = rows[f"{req.args[3]} closure dimension"]
        elif kind == "casimir":
            detail = tuple(row["actual"] for row in report["rows"])
        elif kind == "parse":
            detail = rows["normal-form"]
        elif kind == "commutator":
            detail = rows["commutator"]
        elif kind == "transform":
            detail = rows["scale_s"]
        elif kind == "coulomb-residual":
            detail = float(rows["detuned control"]) >= workloads.DETUNED_FLOOR
        else:
            detail = None
        return proc.returncode, report["pass"], detail
    except (ValueError, KeyError, TypeError):
        return proc.returncode, None, None


def cli_loop(args, budget: Budget, decks: int, start_s: float,
             traced: list | None = None) -> dict:
    """Closed loop of fresh CLI processes, one at a time.

    ``start_s`` is the normalised time of a fresh import of the package; that
    much of each process is normalised as start-up (``speed.normalise_process``).
    With ``traced`` set, each child runs under the tracer and its summary and
    spans are appended to that list.
    """
    process_s = defaultdict(list)
    during: list[int] = []  # probes taken while the latest child ran

    def execute(req):
        during.clear()
        if traced is None:
            cmd = [sys.executable, "-c", CLI_LAUNCH, *req.args]
        else:
            out = OUT_DIR / "cli-child.json"
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(out), str(len(traced)), *req.args]
        elapsed, proc = timed_process(cmd, budget, during)
        if traced is not None:
            traced.append(json.loads(out.read_text()))
            out.unlink()
        process_s[req.kind].append(elapsed)
        return proc

    def probe():
        return speed.probe(), spawn_probe()

    def normalise(measured, before, after):
        # A child takes more than speed.PROBE_EVERY_NS, so each is probed
        # after, and ``during`` is still its own.
        return speed.normalise_process(measured, [before[0], *during, after[0]],
                                       [before[1], after[1]], start_s * 1e9)

    result = workloads.closed_loop("cli-fresh", args.seed, execute, observe_cli, decks,
                                   args.negative_control, probe, normalise)
    result["process_s"] = process_s
    return result


def end_to_end(result: dict, setups: list[float], peak_rss_mb: float) -> dict:
    """Every time is on the probe's reference scale (see ``speed.py``): each
    request's latency is normalised by the host-speed probes around it, so
    a slow spell on a shared host does not read as a slower program."""
    latencies, scaled = result["latencies_ns"], result["scaled_ns"]
    q = statistics.quantiles(scaled, n=10)
    # Throughput of the median deck: a deck holds a fixed mix of requests,
    # and the median keeps a few long requests that straddle a change of
    # host speed from setting the figure.
    size = len(scaled) // result["decks"]
    deck_s = statistics.median(sum(scaled[i:i + size]) / 1e9 for i in range(0, len(scaled), size))
    raw = statistics.quantiles(latencies, n=10)
    print(f"# host: measured over normalised latency, median "
          f"{statistics.median(r / s for r, s in zip(latencies, scaled)):.3f}; "
          f"measured p50 {raw[4] / 1e6:.6g} ms, "
          f"p90 {raw[8] / 1e6:.6g} ms; {result['decks']} decks in {result['wall_s']:.2f} s")
    return {
        "latency_ms.p50": (q[4] / 1e6, "ms"),
        "latency_ms.p90": (q[8] / 1e6, "ms"),
        "verdicts_per_s": (size / deck_s, "1/s"),
        "passed_share": ((len(latencies) - result["failed"]) / len(latencies), "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
        "setup_s": (statistics.median(setups), "s"),
    }


def per_layer(summary: dict, cache, past_degree: int, imports: list[float],
              process_s: dict, overhead_pct: float) -> dict:
    metrics = {}
    for name in tracing.SPAN_NAMES:
        metrics[f"{name}.calls"] = (summary["calls"].get(name, 0), "count")
        metrics[f"{name}.self_s"] = (summary["self_s"].get(name, 0.0), "s")
    for key in COUNT_KEYS:
        metrics[key] = (summary["counts"].get(key, 0), "count")
    if cache is None:  # absent once the normal-ordering cache is replaced
        print("# opalgebra.mono_cross: cache statistics absent")
    else:
        hits, misses, size = cache
        metrics["opalgebra.mono_cross.hits"] = (hits, "count")
        metrics["opalgebra.mono_cross.misses"] = (misses, "count")
        metrics["opalgebra.mono_cross.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0,
                                                     "ratio")
        metrics["opalgebra.mono_cross.size"] = (size, "count")
    metrics["coulomb.states.past_exact_degree"] = (past_degree, "count")
    metrics["cli.import_s"] = (statistics.median(imports), "s")
    for kind in CLI_KINDS:
        times = process_s.get(kind)
        metrics[f"cli.process_s.{kind}"] = (statistics.median(times) if times else 0.0, "s")
    metrics["trace.overhead_pct"] = (overhead_pct, "%")
    return metrics


def merge_children(children: list[dict]) -> tuple[dict, list | None]:
    summary = {"calls": defaultdict(int), "self_s": defaultdict(float), "counts": defaultdict(int)}
    cache = [0, 0, 0] if all(child["cache"] is not None for child in children) else None
    for child in children:
        for part in summary:
            for key, value in child["summary"][part].items():
                summary[part][key] += value
        if cache is not None:
            hits, misses, size = child["cache"]
            cache = [cache[0] + hits, cache[1] + misses, max(cache[2], size)]
    return summary, cache


def untraced_run(args, budget: Budget) -> tuple[dict, dict]:
    if args.workload == "cli-fresh":
        # A CLI user's set-up is a fresh interpreter importing the package.
        _, setups = import_times(budget, IMPORT_SPAWNS)
        result = cli_loop(args, budget, run_decks(args), statistics.median(setups))
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    else:
        result, setups = in_process(args, budget, run_decks(args))
        rss = result["peak_rss_mb"]
    print(f"# setup_s runs: {', '.join(f'{s:.4f}' for s in setups)}")
    return result, end_to_end(result, setups, rss)


def traced_run(args, budget: Budget) -> tuple[dict, dict]:
    OUT_DIR.mkdir(exist_ok=True)
    decks = TRACED_DECKS[args.workload]
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    if args.workload == "cli-fresh":
        imports, starts = import_times(budget, IMPORT_SPAWNS)
        start_s = statistics.median(starts)
        first = cli_loop(args, budget, decks, start_s)
        children: list[dict] = []
        traced = cli_loop(args, budget, decks, start_s, traced=children)
        last = cli_loop(args, budget, decks, start_s)
        result = workloads.fold_untraced(traced, first, last)
        summary, cache = merge_children(children)
        tracing.write_spans(spans_path, [tuple(span) + (index,) for index, child in enumerate(children)
                                 for span in child["spans"]])
        process_s = {kind: first["process_s"][kind] + last["process_s"][kind]
                     for kind in first["process_s"]}
    else:
        # Each pass in a fresh worker, so all three start from the same state.
        first, _ = in_process(args, budget, decks, count=1)
        traced, _ = in_process(args, budget, decks, count=1, spans=spans_path)
        last, _ = in_process(args, budget, decks, count=1)
        result = workloads.fold_untraced(traced, first, last)
        summary, cache = result["trace"], result["trace"].get("cache")
        imports, _ = import_times(budget, 3)
        process_s = {}
    plain_s = result["untraced_elapsed_s"]
    overhead = 100.0 * (result["elapsed_s"] - plain_s) / plain_s
    print(f"# traced {decks} decks: untraced {plain_s:.4f} s (mean of the passes before and "
          f"after), traced {result['elapsed_s']:.4f} s, overhead {overhead:.2f} %; "
          f"spans in {spans_path.name}")
    return result, per_layer(summary, cache, result["past_degree"], imports, process_s, overhead)


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown CPU"


def header(args) -> None:
    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"# machine: {cpu_model()}, {platform.machine()}, {platform.platform()}")
    print(f"# nproc: {len(os.sched_getaffinity(0))}; load: one client, at most two processes alive")
    print(f"# python {platform.python_version()}, numpy {importlib.metadata.version('numpy')}")
    print(f"# git: {git_sha()}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--negative-control", action="store_true")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "ladder_forge" / "__init__.py").is_file():
        print(f"perfbench: no package source at {ROOT / 'src' / 'ladder_forge'}; "
              "run from the root of a ladder-forge checkout", file=sys.stderr)
        return 2

    speed.pin()
    header(args)
    budget = Budget()
    try:
        result, metrics = (traced_run if args.trace else untraced_run)(args, budget)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted, failed = len(result["latencies_ns"]), result["failed"]
    beyond_p90 = attempted - int(0.9 * attempted)
    print(f"# requests: {attempted} ({beyond_p90} beyond p90), failed {failed} "
          f"(failed_share {failed / attempted:.6f}), of which {failed - result['unexpected']} "
          f"on states past the quadrature's exact degree")
    for name, (value, unit) in metrics.items():
        print(f"#   {name} = {value} {unit}")
    print(json.dumps({
        "correct": result["unexpected"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
