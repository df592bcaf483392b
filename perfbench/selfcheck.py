"""Checks on the benchmark harness itself.  Run from the repository root:

    python3 perfbench/selfcheck.py

1. Each workload's request stream is the same for the same seed and differs
   between seeds.
2. Negative control: on every workload, a short run fed one deliberately
   wrong expected answer reports a nonzero failed share and ``correct: false``.
3. In a directory holding only ``BENCHMARK.json`` and ``perfbench/``,
   ``run.py`` exits non-zero without printing a result.

Exits 0 when every check holds.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def decks(workload: str, seed: int, count: int = 3) -> str:
    return repr(list(itertools.islice(workloads.stream(workload, seed), count)))


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def main() -> int:
    problems = []
    for workload in workloads.WORKLOADS:
        if decks(workload, 7) != decks(workload, 7):
            problems.append(f"{workload}: seed 7 gave two different streams")
        if decks(workload, 7) == decks(workload, 8):
            problems.append(f"{workload}: seeds 7 and 8 gave the same stream")

    for workload in workloads.WORKLOADS:
        proc = run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
                   "--negative-control")
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            problems.append(f"{workload}: negative control printed no result: {proc.stderr[-500:]}")
            continue
        share = result["failed"] / result["attempted"]
        print(f"negative control {workload}: failed_share {share:.6f}, correct {result['correct']}")
        if share == 0 or result["correct"]:
            problems.append(f"{workload}: negative control was not detected")

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(bare, "--workload", "paper-identities", "--seed", "1", "--seconds", "1")
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        problems.append("run.py succeeded without the package source")
    print(f"without the package source: exit {proc.returncode}, {proc.stderr.strip()}")

    for problem in problems:
        print("FAIL:", problem)
    print("selfcheck:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
