"""Yardsticks: fixed computations that measure how fast the host runs right now.

Every timed operation is followed by one yardstick, so each operation is
bracketed by two.  An operation's time is reported at the yardstick's nominal
speed, raw * nominal / (slower bracketing yardstick), which cancels drift of
the host's speed while leaving the program's own cost in place.  The yardsticks live here, in the benchmark, so no change to the
program can alter them.

* ``inproc`` builds tuples, dicts and Fractions, as the exact layers do.  It
  runs with the garbage collector off, so that a program change that grows
  the heap cannot slow the yardstick and hide its own cost.
* ``child`` spawns an interpreter that imports the dependencies the CLI
  imports, as every CLI invocation does, and then runs ``CHILD_REPS``
  in-process yardsticks.  It reports its whole time and, measured inside the
  child, the part spent computing; the rest is the start-up part.  A CLI
  operation is scaled by a blend of the two parts (see ``wl_cli``), because
  the host's speed changes differently for start-up and for computation.

The nominal times live in ``nominal.json``; ``python3 k3bench/run.py
--calibrate`` measures them again and rewrites that file.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
NOMINAL_PATH = os.path.join(HERE, "nominal.json")
CHILD_REPS = 20
CHILD_CODE = ("import argparse, dataclasses, fractions, json, numpy, mpmath, sys; "
              f"sys.path.insert(0, {HERE!r}); import yardstick; "
              f"print(sum(yardstick.inproc() for _ in range({CHILD_REPS})))")


def _inproc_work() -> Fraction:
    table = {}
    total = Fraction(0)
    for i in range(600):
        key = (i % 17, i % 5, i)
        table[key] = Fraction(i % 7 + 1, i % 11 + 1)
        total += table[key]
    return total


def inproc() -> float:
    """Seconds taken by one in-process yardstick."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _inproc_work()
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def child(env: dict) -> tuple[float, float]:
    """(seconds from spawn to exit, seconds of it spent computing) of one child yardstick."""
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", CHILD_CODE], env=env, check=True,
                         capture_output=True, text=True).stdout
    return time.perf_counter() - start, float(out)


def load_nominal() -> dict:
    with open(NOMINAL_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def calibrate(env: dict, inproc_samples: int = 2000, child_samples: int = 60) -> dict:
    """Median raw time of each yardstick on this host, in seconds."""
    children = [child(env) for _ in range(child_samples)]
    nominal = {
        "inproc_s": statistics.median(inproc() for _ in range(inproc_samples)),
        "child_start_s": statistics.median(total - comp for total, comp in children),
        "child_compute_s": statistics.median(comp for _, comp in children),
    }
    with open(NOMINAL_PATH, "w", encoding="utf-8") as fh:
        json.dump(nominal, fh, indent=2)
        fh.write("\n")
    return nominal
