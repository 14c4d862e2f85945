#!/usr/bin/env python3
"""Soak the verify suites on seeded random recipes.

Each draw starts from a small simplex, cube, polygon, prism or
dualcyclic57 and applies at most two products and two vertex cuts, in a
random order; draws over 400 vertices are drawn again. The colorability,
selfdual, duality, morse and conjecture suites run on every draw. The
run ends with how many draws were even, even of odd dimension n >= 5,
unrealized (no coordinates, so the Morse suite skips them), and refused
by each budget. At the first TheoremViolation or failed check it prints
the recipe and exits with 3. One seed always draws the same recipes:

    PYTHONPATH=src python3 scripts/soak.py --draws 3000 --seed 1
"""

from __future__ import annotations

import argparse
import random
from collections import Counter

import polycodes as pc

SUITES = ("colorability", "selfdual", "duality", "morse", "conjecture")
MAX_VERTICES = 400
# Per kind, the (recipe, dimension, vertex count) of each size; a kind is drawn first, then a size.
KINDS = (
    [(f"simplex {n}", n, n + 1) for n in (2, 3, 4)],
    [(f"cube {n}", n, 2**n) for n in (2, 3, 4)],
    [(f"polygon {m}", 2, m) for m in range(3, 9)],
    [(f"prism {m}", 3, 2 * m) for m in range(3, 7)],
    [("dualcyclic57", 5, 12)],
)
# Each budget's count line, by the unit its refusal names.
REFUSALS = {
    "vertex-facet incidences": "refused by the input-size budget",
    "faces of codimension": "refused by the face-walk budget",
    "vertex-mask bits": "refused by the stored-face budget",
    "codewords": "refused by the codeword-walk budget",
}
OTHER = "refused by another budget"


def draw(rng: random.Random) -> str:
    """One recipe of at most MAX_VERTICES vertices."""
    while True:
        text, dim, size = rng.choice(rng.choice(KINDS))
        steps = ["product"] * rng.randint(0, 2) + ["vcut"] * rng.randint(0, 2)
        rng.shuffle(steps)
        for step in steps:
            if step == "product":
                other, d, s = rng.choice(rng.choice(KINDS))
                text, dim, size = f"product ({text}) ({other})", dim + d, size * s
            else:
                text, size = f"vcut ({text}) {rng.randrange(size)}", size + dim - 1
        if size <= MAX_VERTICES:
            return text


def soak(draws: int, seed: int) -> int:
    rng = random.Random(seed)
    tally, rows = Counter(), 0
    for _ in range(draws):
        text = draw(rng)
        try:
            P = pc.parse_recipe(text).build()
            tally["even"] += pc.is_even(P)
            tally["even with odd n >= 5"] += pc.is_even(P) and P.dim % 2 == 1 and P.dim >= 5
            tally["unrealized"] += P.coords is None
            refused = set()
            for suite in SUITES:
                try:
                    results = pc.run_suite(suite, [(text, P)])
                except pc.BudgetExceeded as exc:
                    refused.add(next((line for unit, line in REFUSALS.items() if unit in str(exc)), OTHER))
                    continue
                rows += len(results)
                failed = next((r for r in results if not r.passed), None)
                if failed:
                    raise pc.TheoremViolation(f"{failed.suite} :: {failed.check}: {failed.detail}")
            tally.update(refused)
        except pc.TheoremViolation as exc:
            print(f"theorem check failed on {text!r}: {exc}")
            return 3
    print(f"seed {seed}: {draws} draws, {rows} check rows, no violation")
    for key in ("even", "even with odd n >= 5", "unrealized", *REFUSALS.values(), OTHER):
        print(f"{key}: {tally[key]}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--draws", type=int, required=True, help="how many recipes to draw")
    parser.add_argument("--seed", type=int, required=True, help="seed of the draws")
    args = parser.parse_args(argv)
    return soak(args.draws, args.seed)


if __name__ == "__main__":
    raise SystemExit(main())
