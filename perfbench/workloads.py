"""Seeded request decks and known answers for the benchmark workloads.

Every workload is a closed loop with one client.  Its request stream is a
sequence of decks.  A deck holds a fixed multiset of request kinds, so the
mix, and with it the latency quantiles, does not drift with the seed; the
seed draws every numeric input and the order within each deck.

Expected answers come from closed forms stated in the paper, never from the
code under test.  This module imports nothing from ``ladder_forge``: the
orchestrator uses it to drive ``cli-fresh`` without loading the library.
"""

from __future__ import annotations

import itertools
import math
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import speed

WORKLOADS = ("paper-identities", "dsl-stream", "coulomb-checks", "cli-fresh")

# The library integrates with 40-point Gauss-Laguerre quadrature, exact up to
# polynomial degree 2*40-1.  A normalization integrand has degree twice the
# principal label, so states with 2n > 79 are past the exact degree.
EXACT_DEGREE = 2 * 40 - 1

# Tolerances pinned by the repository's acceptance tests.
TOL_COEFFICIENT = 1e-10
TOL_PROFILE = 1e-8
TOL_NORMALIZATION = 1e-12
TOL_ANNIHILATION = 1e-10
DETUNED_FLOOR = 1e-2
DETUNE_SHIFT = 0.1

CLOSURE_DIMENSION = {"su11": 3, "weyl": 5, "sp4": 10}
REPORT_NAMES = {
    "su11": ("[T0,T+] == T+", "[T0,T-] == -T-", "[T+,T-] == -2*T0"),
    "weyl": ("[A-,A+] == 1", "[B-,B+] == 1", "[A+,B+] == 0",
             "[A+,B-] == 0", "[A-,B+] == 0", "[A-,B-] == 0"),
    "casimir": ("casimir-normal-form", "[C,T0] == 0", "[C,T+] == 0", "[C,T-] == 0"),
    "reconstruction": ("T+ from tilde ladder", "T- from tilde ladder",
                       "A+ from check1 ladder", "A- from check1 ladder",
                       "B+ from check2 ladder", "B- from check2 ladder"),
}

# Stands in for the expected answer of one request in the negative control.
WRONG_ANSWER = ("deliberately wrong expected answer",)


@dataclass
class Request:
    """One request: what to run, its arguments and the known answer.

    ``past_degree`` marks a Coulomb state whose normalization integrand is
    past the quadrature's exact degree, where the library is known to fail
    today; such failures are counted but do not mark the run incorrect.
    """

    kind: str
    args: tuple
    expect: object
    past_degree: bool = False


def stream(workload: str, seed: int, warmup: bool = False) -> Iterator[list[Request]]:
    """Endless sequence of decks; the same seed always gives the same decks.

    The warm-up stream is the same for every seed, so set-up time does not
    vary with the seed's inputs."""
    deck = {"paper-identities": paper_deck, "dsl-stream": dsl_deck,
            "coulomb-checks": coulomb_deck, "cli-fresh": cli_deck}[workload]
    rng = random.Random(f"{workload}:warmup" if warmup else f"{workload}:{seed}:timed")
    while True:
        yield deck(rng)


def closed_loop(workload: str, seed: int, execute, observe, decks: int,
                negative_control: bool = False, probe=speed.probe,
                normalise=speed.normalise_span) -> dict:
    """Issue the first ``decks`` decks of the seeded stream one request at a
    time and check every answer.

    A run is a fixed amount of work, so the same seed always gives the same
    requests, the same number of them and the same failures.  Latency covers
    ``execute`` (request to verdict).  The host-speed ``probe`` runs once
    before the first request, then after a request whenever
    ``speed.PROBE_EVERY_NS`` have passed since the last probe, and after the
    last request.  So every request lies between two probes, and
    ``normalise(latency, before, after)`` puts its latency on the reference
    scale.  ``observe`` then turns the
    verdict into an answer compared with the known one, outside the timed
    span.  Every failure is counted.  Only failures outside the two known
    defects are ``unexpected`` and make the run incorrect: states past the
    quadrature's exact degree (``Request.past_degree``), and the DSL
    evaluator exceeding Python's recursion limit on sums of about a thousand
    terms.  With ``negative_control`` the first request is given a wrong
    expected answer, so the run must report a failure.
    """
    latencies: list[int] = []
    started = time.perf_counter()
    before = probe()
    probed_ns = time.perf_counter_ns()
    scaled: list[float] = []  # latencies on the reference scale
    waiting: list[int] = []  # latencies since the last probe
    failed = unexpected = past_degree = 0
    for deck in itertools.islice(stream(workload, seed), decks):
        for req in deck:
            control = negative_control and not latencies
            if control:
                req.expect = WRONG_ANSWER
            error = None
            t0 = time.perf_counter_ns()
            try:
                out = execute(req)
            except Exception as exc:  # a raising request is a failed request
                error = exc
            t1 = time.perf_counter_ns()
            latencies.append(t1 - t0)
            waiting.append(t1 - t0)
            if t1 - probed_ns >= speed.PROBE_EVERY_NS:
                after = probe()
                probed_ns = time.perf_counter_ns()
                scaled += [normalise(lat, before, after) for lat in waiting]
                waiting.clear()
                before = after
            past_degree += req.past_degree
            if error is not None or observe(req, out) != req.expect:
                failed += 1
                known = req.past_degree or isinstance(error, RecursionError)
                if control or not known:
                    unexpected += 1
                    why = repr(error) if error is not None else "answer differs from the known one"
                    print(f"perfbench: {req.kind} {req.args}: {why}", file=sys.stderr)
    if waiting:
        after = probe()
        scaled += [normalise(lat, before, after) for lat in waiting]
    return {"latencies_ns": latencies, "scaled_ns": scaled, "decks": decks, "failed": failed,
            "unexpected": unexpected, "past_degree": past_degree,
            "wall_s": time.perf_counter() - started, "elapsed_s": sum(scaled) / 1e9}


def fold_untraced(traced: dict, first: dict, last: dict) -> dict:
    """Fold the untraced passes run before and after a traced pass over the
    same decks into it.  Their mean time is the traced pass's baseline for
    the tracing overhead; every request of all three passes stays counted and
    checked."""
    traced["untraced_elapsed_s"] = (first["elapsed_s"] + last["elapsed_s"]) / 2
    for plain in (first, last):
        for key in ("failed", "unexpected", "latencies_ns"):
            traced[key] += plain[key]
    return traced


def _ratio(rng: random.Random, lo: int, hi: int, nonzero: bool = False) -> Fraction:
    while True:
        value = Fraction(rng.randint(lo, hi), rng.choice((1, 2, 3, 4, 5, 7)))
        if value or not nonzero:
            return value


def _pos(rng: random.Random, hi: int = 9) -> Fraction:
    return Fraction(rng.randint(1, hi), rng.choice((1, 2, 3, 4, 5, 7)))


# -- paper-identities ------------------------------------------------------


def _family(rng: random.Random, tag: str) -> tuple:
    if tag == "B":
        return ("B", (_pos(rng), _ratio(rng, -6, 6), _pos(rng)), _ratio(rng, -6, 6))
    if tag == "C":
        return ("C", (-_pos(rng), _ratio(rng, -6, 6)), _ratio(rng, -6, 6))
    return ("F", (-_pos(rng),), _ratio(rng, -6, 6, nonzero=True))


def _map_answer(family: str, fields: dict, qmap: dict, scale: Fraction, eps) -> tuple:
    return (family, tuple(sorted(fields.items())), tuple(sorted(qmap.items())), scale, eps)


def _f_to_b(rng: random.Random) -> Request:
    q, l, a = -_pos(rng), rng.randint(0, 12), _pos(rng)
    m = rng.randint(0, l)
    s = -q / (l + 1)  # sqrt(-lambda) for the Coulomb-like level l
    half = Fraction(1, 2)
    expect = _map_answer("B", {"a": a, "c": 0, "d": a * s},
                         {"mbar+cbar": l + half, "lbar+cbar": m + half}, s, None)
    return Request("f_to_b", (q, l, m, a), expect)


def _f_to_c(rng: random.Random) -> Request:
    q, l, eps = -_pos(rng), rng.randint(0, 12), rng.choice((1, -1))
    m = rng.randint(0, l)
    half = Fraction(1, 2)
    expect = _map_answer("C", {"b": q / (l + 1), "c": 0},
                         {"mhat+chat": eps * (2 * m + 1) - half,
                          "lhat+chat": l + eps * (m + half)}, -q / (l + 1), eps)
    return Request("f_to_c", (q, l, m, eps), expect)


def _b_to_c(rng: random.Random) -> Request:
    a, c, d = _pos(rng), _ratio(rng, -6, 6), _pos(rng)
    lbar, mbar, eps = _ratio(rng, -6, 6), _ratio(rng, -6, 6), rng.choice((1, -1))
    s = d / a
    half = Fraction(1, 2)
    expect = _map_answer("C", {"b": -s, "c": 0},
                         {"mhat+chat": 2 * eps * (lbar + c) - half,
                          "lhat+chat": mbar + c + eps * (lbar + c) - half}, s, eps)
    return Request("b_to_c", ((a, c, d), lbar, mbar, eps), expect)


def _all_true(names) -> tuple:
    return tuple((name, True) for name in names)


def paper_deck(rng: random.Random) -> list[Request]:
    """15 requests in three cost bands of five: the family maps (two of them
    twice), about 2 ms (su11 report set and closure, one factorization check
    per family), and the rest (Casimir set, a reconstruction, weyl report set
    and closure, sp4 closure).  The median then falls mid-band."""
    deck = [_f_to_b(rng), _f_to_c(rng), _b_to_c(rng), _f_to_b(rng), _f_to_c(rng)]
    deck += [Request("report-set", ("su11",), _all_true(REPORT_NAMES["su11"])),
             Request("closure", ("su11",), (CLOSURE_DIMENSION["su11"], True))]
    deck += [Request("factorization", _family(rng, tag), (True, True)) for tag in "BCF"]
    deck += [Request("report-set", (which,), _all_true(REPORT_NAMES[which]))
             for which in ("casimir", "weyl")]
    deck.append(Request("reconstruction", (_ratio(rng, 0, 20), _ratio(rng, -10, 10)),
                        _all_true(REPORT_NAMES["reconstruction"])))
    deck += [Request("closure", (which,), (CLOSURE_DIMENSION[which], True))
             for which in ("weyl", "sp4")]
    rng.shuffle(deck)
    return deck


# -- dsl-stream ------------------------------------------------------------

# Exponent of the binomial factor for each request of a deck, 0 for none.
# Fixed per deck so the cost mix is stable.  Up to k = 6 the pair is a
# function and a derivative on one axis, which do not commute, so the power
# needs normal ordering and grows like k**2 terms.  Above that both atoms are
# functions: the power has k + 1 terms with large binomial coefficients, and
# commuting it past the other operand's derivatives stays cheap.
DSL_EXPONENTS = (0, 0, 0, 2, 2, 3, 3, 4, 4, 4, 5, 5, 6, 6, 8, 12, 16, 20, 24, 24)
_NONCOMMUTING_UP_TO = 6

_NONCOMMUTING = (
    ("r", "d/dr"), ("sqrt(r)", "d/dr"), ("exp(i*eta)", "d/deta"),
    ("exp(-i*alpha)", "d/dalpha"), ("u*exp(i*beta)", "d/dbeta"),
)
_FUNCTIONS = (
    ("r", "exp(i*eta)"), ("sqrt(r)", "s"), ("exp(-i*alpha)", "u"),
    ("r^-1", "exp(2*i*beta)"), ("s^-1", "sqrt(r)^3"),
)


def _coeff_text(rng: random.Random) -> str:
    value = _pos(rng, 9)
    text = "" if value == 1 else str(value)
    if rng.random() < 0.3:
        text = f"{text}*i" if text else "i"
    return text


def _factor(rng: random.Random) -> str:
    roll = rng.randrange(6)
    if roll == 0:
        return rng.choice(("s", "s^2", "s^-1", "u"))
    if roll == 1:
        return rng.choice(("r", "r^2", "r^-1", "sqrt(r)", "sqrt(r)^3"))
    if roll == 2:
        axis = rng.choice(("eta", "alpha", "beta"))
        k = rng.choice((1, -1, 2, -2, 3))
        return f"exp({'' if k == 1 else '-' if k == -1 else f'{k}*'}i*{axis})"
    axis = rng.choice(("r", "eta", "alpha", "beta"))
    return f"d/d{axis}" + ("^2" if rng.random() < 0.1 else "")


def _binomial(rng: random.Random, k: int, pair: int) -> str:
    pairs = _NONCOMMUTING if k <= _NONCOMMUTING_UP_TO else _FUNCTIONS
    left, right = pairs[pair % len(pairs)]
    return f"({_pos(rng, 7)}*{left} + {_pos(rng, 7)}*{right})^{k}"


def operator_text(rng: random.Random, n_terms: int, exponent: int = 0, pair: int = 0) -> str:
    """A sum of ``n_terms`` terms of 1-3 factors; with exponent > 0 one term
    carries a binomial power built on atom pair ``pair``."""
    terms = []
    binomial_at = rng.randrange(n_terms) if exponent else -1
    for index in range(n_terms):
        if index == binomial_at:
            factors = [_factor(rng) for _ in range(index % 2)]
            factors.insert(rng.randrange(len(factors) + 1), _binomial(rng, exponent, pair))
        else:
            factors = [_factor(rng) for _ in range(1 + index % 3)]
        coeff = _coeff_text(rng)
        body = "*".join(([coeff] if coeff else []) + factors)
        sign = rng.choice(("+", "-"))
        terms.append((sign, body))
    text = ("-" if terms[0][0] == "-" else "") + terms[0][1]
    return text + "".join(f" {sign} {body}" for sign, body in terms[1:])


# Terms in each operand, slot by slot.  The seed draws every factor,
# coefficient, sign and position; the shape of a deck is fixed, so that its
# cost, and with it the latency quantiles, varies little between seeds.
_DSL_TERMS = tuple(zip((1, 2, 3, 4, 5, 6) * 4, (6, 5, 4, 3, 2, 1) * 4))


def dsl_deck(rng: random.Random) -> list[Request]:
    """20 requests: parse an operator text carrying the slot's binomial power
    and a plain one, take their commutator both ways, and round-trip every
    result through render and parse."""
    deck = [Request("commutator", (operator_text(rng, terms_a, k, slot),
                                   operator_text(rng, terms_b)), (True,) * 4)
            for slot, (k, (terms_a, terms_b)) in enumerate(zip(DSL_EXPONENTS, _DSL_TERMS))]
    rng.shuffle(deck)
    return deck


# -- coulomb-checks --------------------------------------------------------


def principal(family: str, labels: tuple[int, int]) -> Fraction:
    if family == "su11":
        return Fraction(labels[0])
    return Fraction(labels[0] + labels[1] + 1, 2)


def closed_form_coefficient(family: str, labels: tuple[int, int], operator: str) -> float:
    """Paper's ladder coefficient: sign * sqrt(radicand), 0 for annihilation."""
    d = 1 if operator.endswith("+") else -1
    if family == "su11":
        t, m = labels
        return -math.sqrt((t + d) * (t - d * m) * (t + d * m + d) / t)
    mu, nu = labels
    n2 = mu + nu + 1
    if operator[0] == "A":
        return math.sqrt((n2 + d) * (mu + (1 + d) // 2) / n2)
    return -math.sqrt((n2 + d) * (nu + (1 + d) // 2) / n2)


def _charge(rng: random.Random) -> Fraction:
    return rng.choice((Fraction(1), Fraction(2), Fraction(3, 2), Fraction(5, 3)))


def _su11(rng: random.Random, past: bool) -> tuple:
    # Past the exact degree, m <= t - 10: there the normalization check fails
    # for every t and charge, so each deck holds the same number of known
    # failures whatever the seed.  Nearer m = t the Laguerre factor has low
    # degree and the check passes by luck on some states.
    if past:
        t = rng.randint(40, 60)
        return ("su11", (t, rng.randrange(t - 9)), _charge(rng))
    t = rng.randint(1, 39)
    return ("su11", (t, rng.randrange(t)), _charge(rng))


def _weyl(rng: random.Random, gap_parity: int) -> tuple:
    # nu > mu only: the nu == mu edge has no settled verdict yet.  With
    # mu + nu + 1 <= 78 every Weyl state is within the exact degree; the
    # past-degree states are the su11 ones, a fixed number per deck.
    mu = rng.randint(0, 19)
    gap = rng.randrange(1, 40, 2) if gap_parity else rng.randrange(2, 40, 2)
    return ("weyl", (mu, mu + gap), _charge(rng))


def _state_request(kind: str, state: tuple, extra: tuple = ()) -> Request:
    family, labels, _ = state
    past = 2 * principal(family, labels) > EXACT_DEGREE
    return Request(kind, state + extra, True, past)


def coulomb_deck(rng: random.Random) -> list[Request]:
    """31 requests; a third of the su11 states have t >= 40, the rest below,
    and Weyl states alternate odd and even gaps nu - mu."""

    def states():
        return [_su11(rng, False), _su11(rng, False), _su11(rng, True),
                _weyl(rng, 1), _weyl(rng, 0)]

    deck = []
    for kind in ("normalization", "casimir", "schrodinger"):
        deck += [_state_request(kind, st) for st in states()]
    deck += [_state_request("detuned", _su11(rng, past), (DETUNE_SHIFT,))
             for past in (False, True)]
    for op in ("T+", "T-"):
        for past in (False, False, True):
            st = _su11(rng, past)
            deck.append(_state_request("action", st, (op, closed_form_coefficient(st[0], st[1], op))))
    for op in ("A+", "A-", "B+", "B-"):
        for parity in (1, 0):
            st = _weyl(rng, parity)
            deck.append(_state_request("action", st, (op, closed_form_coefficient(st[0], st[1], op))))
    rng.shuffle(deck)
    return deck


# -- cli-fresh -------------------------------------------------------------


def _cli(argv: list[str], expect: tuple, name: str | None = None) -> Request:
    return Request(name or argv[0], tuple(["--format", "json"] + argv), expect)


def _cli_parse(rng: random.Random) -> Request:
    c = _pos(rng, 9)
    if rng.random() < 0.25:
        c = Fraction(1)  # the README example, d/dr*r -> 1 + r*d/dr
    text = "d/dr*r" if c == 1 else f"{c}*d/dr*r"
    render = "1 + r*d/dr" if c == 1 else f"{c} + {c}*r*d/dr"
    return _cli(["parse", text], (0, True, render))


def _cli_commutator(rng: random.Random) -> Request:
    roll = rng.randrange(3)
    if roll == 0:
        k = rng.randint(1, 6)  # k = 1 is the README example [d/dr, r] = 1
        right = "r" if k == 1 else f"r^{k}"
        render = "1" if k == 1 else f"{k}*r" if k == 2 else f"{k}*r^{k - 1}"
        return _cli(["commutator", "d/dr", right], (0, True, render))
    axis = rng.choice(("eta", "alpha", "beta"))
    k = rng.choice((2, 3, 4, -2, -3))
    phase = f"exp({k}*i*{axis})"
    return _cli(["commutator", f"d/d{axis}", phase], (0, True, f"{k}*i*{phase}"))


def _cli_transform(rng: random.Random) -> Request:
    route = rng.choice(("f2b", "f2c", "b2c"))
    q, l = -_pos(rng), rng.randint(0, 8)
    m = rng.randint(0, l)
    argv = ["transform", route, f"--q={q}", "--l", str(l), "--m", str(m)]
    if route != "f2b":
        argv += ["--eps", rng.choice(("1", "-1"))]
    # every route lands on s = -q/(l+1), the Coulomb-like sqrt(-lambda)
    return _cli(argv, (0, True, str(-q / (l + 1))))


def cli_deck(rng: random.Random) -> list[Request]:
    """12 fresh processes: sp4 twice (so the 90th percentile falls inside the
    cold sp4 band, not on its edge), the su11 and weyl checks, the Casimir, a
    parse, two commutators, two transforms and two small Coulomb runs."""
    deck = [_cli(["verify-algebra", which], (0, True, str(dim)), f"verify-algebra-{which}")
            for which, dim in CLOSURE_DIMENSION.items()]
    deck.append(deck[-1])
    deck.append(_cli(["casimir"], (0, True, ("0",) * 4)))
    deck += [_cli_parse(rng), _cli_commutator(rng), _cli_commutator(rng)]
    deck += [_cli_transform(rng), _cli_transform(rng)]
    mu_max = rng.randint(1, 3)
    deck.append(_cli(["coulomb-verify", "--Z", str(_charge(rng)),
                      "--t-max", str(rng.randint(2, 6)), "--mu-max", str(mu_max),
                      "--nu-max", str(mu_max + rng.randint(1, 4))], (0, True, None)))
    n = rng.randint(1, 12)
    deck.append(_cli(["coulomb-residual", "--Z", str(_charge(rng)), "--n", str(n),
                      "--L", str(rng.randrange(n))], (0, True, True)))
    rng.shuffle(deck)
    return deck
