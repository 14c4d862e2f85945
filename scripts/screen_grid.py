#!/usr/bin/env python3
"""Sweep the realizability screen over a grid of code parameters.

Prints one row per (length, distance) pair with the verdict for the
requested doubly-evenness, the matched witness if any, and the rule
that ended the trace. A row whose witness is over the verification
budget reads "refused", and the sweep goes on. Lengths and distances
run over even values only; odd ones are trivially infeasible.
"""

from __future__ import annotations

import argparse

import polycodes as pc


def sweep(max_length: int, max_distance: int, doubly_even: bool, hide_infeasible: bool) -> None:
    print(f"{'l':>4} {'d':>4} {'verdict':16} {'witness':10} last rule")
    for l in range(2, max_length + 1, 2):
        for d in range(2, min(max_distance, l) + 1, 2):
            try:
                v = pc.realizability_screen(l, d, doubly_even)
            except pc.BudgetExceeded:  # verifying the witness is over budget
                print(f"{l:>4} {d:>4} {'refused':16} {'-':10} witness")
                continue
            if hide_infeasible and v.status == "Infeasible":
                continue
            witness = v.witness.text() if v.witness else "-"
            print(f"{l:>4} {d:>4} {v.status:16} {witness:10} {v.trace[-1].rule}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-length", type=int, default=48)
    parser.add_argument("--max-distance", type=int, default=12)
    parser.add_argument(
        "--doubly-even", action="store_true", help="screen for doubly-even codes"
    )
    parser.add_argument(
        "--hide-infeasible", action="store_true", help="print only open or witnessed rows"
    )
    args = parser.parse_args()
    sweep(args.max_length, args.max_distance, args.doubly_even, args.hide_infeasible)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
