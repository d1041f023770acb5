"""Compare two benchmark records under the bounds in ``BENCHMARK.json``.

``python3 benchmarks/perf/compare.py A.json B.json`` prints, for every
workload and end-to-end metric, whether record B is ``within`` the
metric's bound of record A, ``regressed`` beyond it, or ``unresolved``:
the spread between a record's own passes is wider than the bound, so the
two cannot be told apart (unless every pass of B reads better than every
pass of A). Counts, which the seed fixes, must be identical when both
records ran the same seed and bench configuration. Exits 1 if anything
regressed.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import List

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def spread(values: List[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def verdict(metric: dict, before: dict, after: dict) -> str:
    name, bound = metric["name"], metric["bound"]
    lower = metric["better"] == "lower"
    a, b = before["end_to_end"][name], after["end_to_end"][name]
    worse_by = (b - a) / a if lower else (a - b) / a
    a_runs, b_runs = before["samples"][name], after["samples"][name]
    if max(spread(a_runs), spread(b_runs)) > bound:
        clear = max(b_runs) < min(a_runs) if lower else min(b_runs) > max(a_runs)
        return "within" if clear else "unresolved"
    return "regressed" if worse_by > bound else "within"


def compare(before: dict, after: dict, declared: dict) -> int:
    same_inputs = (
        before["seed"] == after["seed"]
        and before["config_digest"] == after["config_digest"]
    )
    regressed = 0
    print(f"{'workload':13s} {'metric':16s} {'A':>14s} {'B':>14s} {'change':>8s}  verdict")
    for name, a in before["workloads"].items():
        b = after["workloads"].get(name)
        if b is None:
            print(f"{name:13s} missing from B: regressed")
            regressed += 1
            continue
        for metric in declared["end_to_end"]:
            outcome = verdict(metric, a, b)
            regressed += outcome == "regressed"
            x, y = a["end_to_end"][metric["name"]], b["end_to_end"][metric["name"]]
            print(
                f"{name:13s} {metric['name']:16s} {x:14.4f} {y:14.4f} "
                f"{(y - x) / x:+8.1%}  {outcome}"
            )
        if same_inputs:
            exact = a["counts"] == b["counts"] and a["digest"] == b["digest"]
            regressed += not exact
            print(f"{name:13s} {'counts+digest':16s} {'':14s} {'':14s} {'':8s}  "
                  f"{'identical' if exact else 'regressed'}")
        if b["fail_share"] > a["fail_share"]:
            regressed += 1
            print(f"{name:13s} fail_share rose to {b['fail_share']}: regressed")
    return 1 if regressed else 0


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    declared = load(os.path.join(REPO, "BENCHMARK.json"))
    return compare(load(argv[0]), load(argv[1]), declared)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
