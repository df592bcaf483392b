"""Rewrite ``golden_behaviour.json`` from the current tree.

Run from the repository root: ``PYTHONPATH=src python tests/regen_golden_behaviour.py``.
A change that rewrites the file lists in CHANGES.md each category that changed, and why.
"""

import json

from test_golden_behaviour import CATEGORIES, GOLDEN_PATH, summary

if __name__ == "__main__":
    golden = {name: summary(seed, make()) for name, (seed, make) in CATEGORIES.items()}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"{GOLDEN_PATH}: " + ", ".join(f"{name} {entry['records']} records" for name, entry in golden.items()))
