#!/usr/bin/env python3
"""Survey the built-in corpus: sizes, parity, and middle-code parameters.

For every corpus member this prints the dimension, vertex and facet
counts, the h-vector, and whether the member is even. For even members
of odd dimension the middle face code is computed along with its
minimum distance and doubly-evenness (each within its enumeration
budget, else left out) and self-duality.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass

import polycodes as pc


@dataclass(frozen=True)
class SurveyConfig:
    only_even: bool
    with_distances: bool


def middle_code_row(P: pc.SimplePolytope) -> str:
    if not pc.is_even(P) or P.dim % 2 == 0:
        return "-"
    k = (P.dim - 1) // 2
    code = pc.face_code(P, k).code
    trace = pc.is_self_dual(code)
    try:
        d = str(pc.min_distance(code))
    except pc.BudgetExceeded:
        d = "?"
    # The weight enumerator walks every codeword; its budget is separate.
    try:
        de = pc.weight_enumerator(code).doubly_even
    except pc.BudgetExceeded:
        de = None
    tags = []
    if trace.self_dual:
        tags.append("self-dual")
    if de:
        tags.append("doubly-even")
    suffix = f" ({', '.join(tags)})" if tags else ""
    return f"[{code.length},{code.dim},{d}]{suffix}"


def survey(config: SurveyConfig) -> None:
    header = f"{'member':38} {'dim':>3} {'V':>4} {'F':>3} {'even':>4}  h-vector"
    if config.with_distances:
        header += "  middle code"
    print(header)
    for entry in pc.corpus():
        P = entry.build()
        even = pc.is_even(P)
        if config.only_even and not even:
            continue
        h = ",".join(map(str, pc.fh_vectors(P).h))
        line = (
            f"{entry.label:38} {P.dim:>3} {P.num_vertices:>4} "
            f"{P.num_facets:>3} {'yes' if even else 'no':>4}  ({h})"
        )
        if config.with_distances:
            line += f"  {middle_code_row(P)}"
        print(line)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--only-even", action="store_true", help="skip non-even members")
    parser.add_argument(
        "--no-distances",
        action="store_true",
        help="skip the middle-code column and its enumeration",
    )
    args = parser.parse_args()
    survey(SurveyConfig(only_even=args.only_even, with_distances=not args.no_distances))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
