"""Host-speed probe used to put every timing on one scale.

The benchmark runs on a few cores of a shared host.  Other tenants slow it
down in spells, from under a second to minutes, by up to about 1.8 times,
and CPU time moves with wall time, so neither clock alone can tell a slower
program from a busier host.  So every timed span is bracketed by a fixed
probe, run on the same CPU: a small product of two operator-like
polynomials with rational coefficients, the same kind of work (tuple-keyed
dicts of ``Fraction``) the package does.  A span's time is then put on the
reference scale:

    normalised = measured * REFERENCE_NS / (mean of the probes around it)

The probe runs after a request once ``PROBE_EVERY_NS`` have passed since
the last probe; every request between two probes takes their mean.  The two
CPUs of the baseline machine slow down independently of each other, so the
benchmark pins itself and every process it starts to one CPU (``pin``).

A fresh process spends most of its time starting the interpreter and
importing modules (exec, page faults, unmarshalling), and in a slow spell
that work slows by less than the ``Fraction`` probe does: normalising a
short ``ladder-forge`` process by it over-corrected, so that its figure read
faster the busier the host was.  So fresh processes are put on a second
scale, ``SPAWN_REFERENCE_NS``, by ``spawn_probe``: a fresh interpreter that
does nothing, started before and after each one.  A process's first part,
as long as a fresh import of the package takes, is put on that scale, and
the rest on the ``Fraction`` probe's (``normalise_process``).  While it
waits for a process, the benchmark also runs the ``Fraction`` probe every
``SAMPLE_S``, so a long process is normalised by the speed over its whole
run, not only at its ends.

``REFERENCE_NS`` and ``SPAWN_REFERENCE_NS`` are about what the probes take
on the baseline machine in a quiet spell, so there the figures read close to
plain milliseconds and seconds.  The probes are part of the benchmark and do
not touch the package, so a change to the package moves the normalised
figures just as it moves the raw ones.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter_ns

REFERENCE_NS = 700_000
SPAWN_REFERENCE_NS = 55_000_000
SAMPLE_S = 0.1
# Host speed changes over tenths of a second and more.  Probing after every
# short request would leave the probe's objects in the caches the next request
# uses, and slow it: on ``coulomb-checks`` the median request read 15% slower.
PROBE_EVERY_NS = 20_000_000

_TERMS = {((i,), (j,)): Fraction(i + 1, j + 2) for i in range(5) for j in range(3)}


def _product() -> dict:
    out: dict = {}
    for (a1, b1), c1 in _TERMS.items():
        for (a2, b2), c2 in _TERMS.items():
            key = (a1 + a2, b1 + b2)
            out[key] = out.get(key, 0) + c1 * c2
    return out


def probe() -> int:
    """Nanoseconds the fixed probe takes now: the faster of two passes."""
    best = None
    for _ in range(2):
        start = perf_counter_ns()
        _product()
        took = perf_counter_ns() - start
        best = took if best is None or took < best else best
    return best


def spawn_probe(env: dict) -> int:
    """Nanoseconds a fresh interpreter that does nothing takes now, started
    with ``env``."""
    start = perf_counter_ns()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
    return perf_counter_ns() - start


def normalise(measured: float, probes: list[int], reference: int = REFERENCE_NS) -> float:
    """``measured`` on the reference scale, given the probes around it."""
    return measured * reference / statistics.mean(probes)


def normalise_span(measured: float, before: int, after: int) -> float:
    return normalise(measured, [before, after])


def normalise_process(measured: float, probes: list[int], spawns: list[int],
                      start_ns: float) -> float:
    """A fresh process's wall time on the reference scale.

    ``probes`` and ``spawns`` were taken around and during it, and
    ``start_ns`` is what starting the interpreter and importing the package
    takes on the spawn scale.  That much of the process is put on the spawn
    scale, and the rest, the command's own work, on the probe scale."""
    start_now = min(measured, start_ns * statistics.mean(spawns) / SPAWN_REFERENCE_NS)
    return (normalise(start_now, spawns, SPAWN_REFERENCE_NS)
            + normalise(measured - start_now, probes))


def pin() -> None:
    """Keep this process, and every process it starts, on one CPU, where the
    system allows it."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError:
        pass
