"""Golden behaviour: values and error messages of whole input grids are pinned.

``golden_behaviour.json`` holds, for each category, its seed (null for an
exhaustive grid), its record count and a sha256 over each block of 200
records.  A record is one line: the call, its input, and the value's repr or
the error's type and message.

* ``steps``: ``action_radicand``, ``shifted_state`` and ``charge_shift`` for
  T+-, A+-, B+- and an unknown operator, on every su11 state with t < 16 and
  every weyl state with mu <= nu < 16, at Z in {1, 3/2, 2**62, 2**-62}.
* ``dsl``: seeded ``_gen.random_operator`` renders, each parsed as written and
  after one to three character edits (deletions, insertions, swaps); a record
  is the render of the parsed value, or the error's type, message and position.
* ``families``: ``rkl``, ``ladder``, ``factorization_residuals`` and
  ``eigenvalue`` of types B, C and F on seeded ``_gen.random_family`` inputs,
  plus the label edges (type F at m = 0 and 1, every family at 0).
* ``reconstruction``: every ``reconstruction_reports`` row (name, lhs, rhs and
  residual renders, passed), every ``transformed_ladders`` pair (and the
  unknown kind ``hat``) and every ``f_to_b``, ``f_to_c`` and ``b_to_c`` result
  on the grid of half-integer labels -1 <= l, m <= 3, at a seeded coupling and
  seeded type B parameters per point.
* ``rewrites``: the rho-form (``coulomb._rho_form``) of the six ladders, T0,
  the Casimir, the identity and the ten sp4 bilinears, its refusals of an
  atom of nonzero gamma-degree, a non-real coefficient and mixed windings;
  ``substitute_s`` (on each operator and on its u-free part) and
  ``swap_alpha_beta`` of seeded ``_gen.random_operator`` values; and the
  dimension, verdict and commutator count of each ``closure_report``.
* ``products``: ``a*b``, ``commutator(a, b)`` and ``a**k`` (-1 <= k <= 3) of
  seeded ``_gen.random_operator`` pairs, every other pair drawn ``wide``
  (windings and derivative orders up to 3), pairs of u-carrying terms among
  them; and every commutator the su11, weyl and sp4 closures form, in the
  order they form them.

Operators are recorded by their ``render``.

On a mismatch the test names the category and the first block that differs,
and prints that block's current records.  ``python tests/regen_golden_behaviour.py``
rewrites the file; a change that rewrites it lists each category that changed,
and why, in CHANGES.md.
"""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

import random

from ladder_forge import coulomb as cl
from ladder_forge import factorizations as fz
from ladder_forge import generators as gen
from ladder_forge import opalgebra as oa
from ladder_forge import opdsl

from _gen import random_family, random_operator

GOLDEN_PATH = Path(__file__).with_name("golden_behaviour.json")
BLOCK = 200


def _outcome(call, *args) -> str:
    try:
        return repr(call(*args))
    except Exception as exc:  # the error is the record
        return f"{type(exc).__name__}: {exc}"


def step_records() -> list[str]:
    calls = (cl.action_radicand, cl.shifted_state, cl.charge_shift)
    charges = (Fraction(1), Fraction(3, 2), Fraction(2**62), Fraction(1, 2**62))
    out = []
    for Z in charges:
        states = [cl.state_tm(t, m, Z) for t in range(1, 16) for m in range(t)]
        states += [cl.state_munu(mu, nu, Z) for nu in range(16) for mu in range(nu + 1)]
        for state in states:
            for op in ("T+", "T-", "A+", "A-", "B+", "B-", "C+"):
                out += [f"{call.__name__} {state.family}{state.labels} Z={Z} {op}: {_outcome(call, state, op)}"
                        for call in calls]
    return out


def _show(value) -> str:
    """``value`` with every operator in it rendered; any other value by its repr."""
    if isinstance(value, opdsl.OperatorExpr):
        return opdsl.render(value)
    if isinstance(value, tuple):
        return "(" + ", ".join(map(_show, value)) + ")"
    return repr(value)


def _shown(call, *args) -> str:
    try:
        return _show(call(*args))
    except Exception as exc:  # the error is the record
        return f"{type(exc).__name__}: {exc}"


DSL_SEED = 27001
# a deletion, an insertion or a swap of two characters; an insertion may be a power
_INSERTS = (*"rsuid/()^-+*0123456789 ", "^2", "^-1", "^12/5")


def _edited(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        if not text:
            break
        k = rng.randrange(len(text))
        edit = rng.choice(("delete", "insert", "swap"))
        if edit == "delete":
            text = text[:k] + text[k + 1:]
        elif edit == "insert":
            text = text[:k] + rng.choice(_INSERTS) + text[k:]
        else:
            j = rng.randrange(len(text))
            chars = list(text)
            chars[j], chars[k] = chars[k], chars[j]
            text = "".join(chars)
    return text


def _parsed(text: str) -> str:
    try:
        return opdsl.render(opdsl.parse(text))
    except ValueError as exc:  # the error is the record
        return f"{type(exc).__name__}: {exc} (position {getattr(exc, 'position', None)})"


def dsl_records() -> list[str]:
    rng = random.Random(DSL_SEED)
    out = []
    for _ in range(1500):
        text = opdsl.render(random_operator(rng))
        out.append(f"parse {text!r}: {_parsed(text)}")
        for _ in range(3):
            edited = _edited(rng, text)
            out.append(f"parse {edited!r}: {_parsed(edited)}")
    return out


FAMILY_SEED = 27002


def family_records() -> list[str]:
    rng = random.Random(FAMILY_SEED)
    inputs = [(fz.TypeF(-1), 0), (fz.TypeF(-1), 1), (fz.TypeC(-1, 0), 0), (fz.TypeB(1, 0, 1), 0)]
    inputs += [random_family(rng, tag) for tag in "BCF" for _ in range(400)]
    calls = (fz.rkl, fz.ladder, fz.factorization_residuals, fz.eigenvalue)
    return [f"{call.__name__} {params!r} {m}: {_shown(call, params, m)}" for params, m in inputs for call in calls]


RECONSTRUCTION_SEED = 27003


def reconstruction_records() -> list[str]:
    rng = random.Random(RECONSTRUCTION_SEED)
    labels = [Fraction(k, 2) for k in range(-2, 7)]
    out = []
    for l in labels:
        for m in labels:
            for rep in gen.reconstruction_reports(l, m):
                out.append(f"reconstruction ({l}, {m}) {rep.name}: {_show(rep.lhs)} == {_show(rep.rhs)}, "
                           f"residual {_show(rep.residual)}, passed {rep.passed}")
            for kind in ("tilde", "check1", "check2", "hat"):
                out.append(f"transformed_ladders {kind} ({l}, {m}): {_shown(gen.transformed_ladders, kind, l, m)}")
            q = -Fraction(rng.randint(1, 30), rng.randint(1, 7))
            params, _ = random_family(rng, "B")
            out.append(f"f_to_b q={q} ({l}, {m}): {_shown(fz.f_to_b, q, l, m)}")
            for eps in (1, -1):
                out.append(f"f_to_c q={q} ({l}, {m}) eps={eps}: {_shown(fz.f_to_c, q, l, m, eps)}")
                out.append(f"b_to_c {params!r} ({l}, {m}) eps={eps}: {_shown(fz.b_to_c, params, l, m, eps)}")
    return out


REWRITES_SEED = 28001
# s has gamma-degree 1, d/deta a non-real coefficient, 1 + exp(i*eta) mixed
# windings; s + s^2 pins which atom the degree refusal names
_REFUSED_FORMS = ("s", "d/deta", "1 + exp(i*eta)", "s + s^2")


def rewrite_records() -> list[str]:
    rng = random.Random(REWRITES_SEED)
    ops = {name: gen.LADDERS[name].operator() for name in gen.LADDERS}
    ops |= {"T0": gen.build_T()["T0"], "casimir": gen.casimir()[0], "identity": oa.identity()}
    ops |= gen.sp4_bilinears()
    out = [f"_rho_form {name}: {_outcome(cl._rho_form, op)}" for name, op in ops.items()]
    out += [f"_rho_form {text!r}: {_outcome(cl._rho_form, opdsl.parse(text))}" for text in _REFUSED_FORMS]
    for _ in range(400):
        op = random_operator(rng)
        u_free = oa.OperatorExpr({key: pair for key, pair in op.terms() if not key[2]})
        value = Fraction(rng.randint(-2, 9), rng.randint(1, 7))
        out.append(f"swap_alpha_beta {_show(op)}: {_shown(oa.swap_alpha_beta, op)}")
        for x in (op, u_free):
            out.append(f"substitute_s {_show(x)} at {value}: {_shown(x.substitute_s, value)}")
    for which in ("su11", "weyl", "sp4"):
        rep = gen.closure_report(which)
        out.append(f"closure_report {which}: dimension {rep.dimension}, closed {rep.closed}, "
                   f"commutators_tested {rep.commutators_tested}")
    return out


PRODUCTS_SEED = 29001


def _closure_commutators(which: str) -> list[str]:
    """The render of each commutator ``closure_report(which)`` forms, in order."""
    commutator, out = oa.commutator, []

    def recorded(a, b):
        value = commutator(a, b)
        out.append(f"closure {which} [{_show(a)}, {_show(b)}]: {_show(value)}")
        return value

    oa.commutator = recorded
    try:
        gen.closure_report(which)
    finally:
        oa.commutator = commutator
    return out


def product_records() -> list[str]:
    rng = random.Random(PRODUCTS_SEED)
    out = []
    for index in range(200):
        wide = index % 2 == 1
        a, b = random_operator(rng, 2, wide=wide), random_operator(rng, 2, wide=wide)
        if index % 3 == 2:  # both sides carry u in every term
            a, b = a * oa.u_sym(), oa.u_sym() * b
        out.append(f"{_show(a)} * {_show(b)}: {_shown(lambda: a * b)}")
        out.append(f"commutator({_show(a)}, {_show(b)}): {_shown(oa.commutator, a, b)}")
        out += [f"({_show(a)})^{k}: {_shown(lambda: a**k)}" for k in range(-1, 4)]
    for which in ("su11", "weyl", "sp4"):
        out += _closure_commutators(which)
    return out


CATEGORIES = {
    "steps": (None, step_records),
    "dsl": (DSL_SEED, dsl_records),
    "families": (FAMILY_SEED, family_records),
    "reconstruction": (RECONSTRUCTION_SEED, reconstruction_records),
    "rewrites": (REWRITES_SEED, rewrite_records),
    "products": (PRODUCTS_SEED, product_records),
}


def _blocks(records: list[str]) -> list[list[str]]:
    return [records[i:i + BLOCK] for i in range(0, len(records), BLOCK)]


def _digest(block: list[str]) -> str:
    return hashlib.sha256("\n".join(block).encode()).hexdigest()


def summary(seed, records: list[str]) -> dict:
    """The golden entry of one category: its seed, record count and block digests."""
    return {"seed": seed, "records": len(records), "sha256": [_digest(b) for b in _blocks(records)]}


@pytest.mark.parametrize("name", sorted(CATEGORIES))
def test_behaviour_matches_golden(name):
    golden = json.loads(GOLDEN_PATH.read_text())[name]
    seed, make = CATEGORIES[name]
    records = make()
    assert golden["seed"] == seed, f"{name}: seed {seed} is not the golden seed {golden['seed']}"
    for index, block in enumerate(_blocks(records)):
        want = golden["sha256"][index] if index < len(golden["sha256"]) else None
        if _digest(block) != want:
            print("\n".join(block))
            pytest.fail(f"{name} block {index} (records {index * BLOCK} to {index * BLOCK + len(block) - 1}) "
                        f"differs from {GOLDEN_PATH.name}; its current records are printed above")
    assert len(records) == golden["records"], f"{name}: {len(records)} records, golden has {golden['records']}"
