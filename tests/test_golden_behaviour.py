"""Golden behaviour: values and error messages of whole input grids are pinned.

``golden_behaviour.json`` holds, for each category, its seed (null for an
exhaustive grid), its record count and a sha256 over each block of 200
records.  A record is one line: the call, its input, and the value's repr or
the error's type and message.

* ``steps``: ``action_radicand``, ``shifted_state`` and ``charge_shift`` for
  T+-, A+-, B+- and an unknown operator, on every su11 state with t < 16 and
  every weyl state with mu <= nu < 16, at Z in {1, 3/2, 2**62, 2**-62}.

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

from ladder_forge import coulomb as cl

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


CATEGORIES = {"steps": (None, step_records)}


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
