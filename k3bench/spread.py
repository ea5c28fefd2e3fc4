"""Run-to-run spread of every end-to-end metric, raw and yardstick-scaled.

    python3 k3bench/spread.py --workloads algebra analytic cli --seeds 1-10 --seconds 12

runs the benchmark once per seed and workload, in sequence, and prints for
each metric its median and its interquartile range as a share of the median
(the quartiles of ``statistics.quantiles(values, n=4)``).  The README's tables
of spreads come from this script.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
LINE = re.compile(r"^# (\w+): scaled ([0-9.e+-]+)\s+raw ([0-9.e+-]+)$")


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _spread(values: list[float]) -> tuple[float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=["algebra", "analytic", "cli"])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", default="12")
    args = parser.parse_args()
    for name in args.workloads:
        scaled: dict[str, list[float]] = {}
        raw: dict[str, list[float]] = {}
        shares = set()
        for seed in _seeds(args.seeds):
            out = subprocess.run([sys.executable, RUN, "--workload", name, "--seed", str(seed),
                                  "--seconds", args.seconds, "--trace", "0"],
                                 check=True, capture_output=True, text=True).stdout
            lines = out.strip().splitlines()
            result = json.loads(lines[-1])
            if not result["correct"]:
                raise SystemExit(f"{name} seed {seed}: incorrect output\n{out}")
            shares.add((result["failed"], result["attempted"]))
            for key, metric in result["metrics"].items():
                scaled.setdefault(key, []).append(metric["value"])
            for line in lines:
                m = LINE.match(line)
                if m:
                    raw.setdefault(m.group(1), []).append(float(m.group(3)))
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        print(f"\n{name}: failed/attempted {sorted(shares)}")
        print("| metric | scaled median | scaled IQR | raw median | raw IQR |")
        print("|---|---|---|---|---|")
        for key, values in scaled.items():
            med, iqr = _spread(values)
            raw_cells = "| - | - |"
            if key in raw:
                rmed, riqr = _spread(raw[key])
                raw_cells = f"| {rmed:.4g} | {100 * riqr:.1f}% |"
            print(f"| {key} | {med:.4g} | {100 * iqr:.1f}% {raw_cells}")
        print(flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
