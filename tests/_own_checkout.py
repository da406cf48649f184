"""Makes a drift script import ``tensoropt`` from the checkout it sits in.

A script under ``tests/`` imports this module first, before anything that
imports ``tensoropt``: it puts the checkout's ``src`` first on ``sys.path``,
whatever ``PYTHONPATH`` says, and exits 2 if the package came from anywhere
else, so a two-checkout diff never compares one checkout with itself.
"""

import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

import tensoropt  # noqa: E402

if not os.path.abspath(tensoropt.__file__).startswith(SRC + os.sep):
    print(f"tensoropt was imported from {tensoropt.__file__}, not from {SRC}", file=sys.stderr)
    raise SystemExit(2)
