"""``python -m ladder_forge``: the same command line as ``ladder-forge``."""

from .cli import entry

entry()
