#!/usr/bin/env python3
"""Survey the built-in corpus: sizes, parity, and middle-code parameters.

For every corpus member this prints the dimension, vertex and facet
counts, the h-vector, and whether the member is even. For even members
of odd dimension the middle face code is computed along with its
minimum distance (within its enumeration budget, else "?"),
self-duality, and doubly-evenness, which `doubly_even_report` reads
from face sizes and from the code's basis without walking codewords.
"""

from __future__ import annotations

import argparse

import polycodes as pc


def middle_code_row(P: pc.SimplePolytope) -> str:
    if not pc.is_even(P) or P.dim % 2 == 0:
        return "-"
    k = (P.dim - 1) // 2
    code = pc.face_code(P, k).code
    self_dual = pc.is_self_dual(code)
    try:
        d = str(pc.min_distance(code))
    except pc.BudgetExceeded:
        d = "?"
    tags = []
    if self_dual:
        tags.append("self-dual")
    if pc.doubly_even_report(P):
        tags.append("doubly-even")
    suffix = f" ({', '.join(tags)})" if tags else ""
    return f"[{code.length},{code.dim},{d}]{suffix}"


def survey(only_even: bool, with_distances: bool) -> None:
    header = f"{'member':38} {'dim':>3} {'V':>4} {'F':>3} {'even':>4}  h-vector"
    if with_distances:
        header += "  middle code"
    print(header)
    for entry in pc.corpus():
        P = entry.build()
        even = pc.is_even(P)
        if only_even and not even:
            continue
        h = ",".join(map(str, pc.fh_vectors(P).h))
        line = (
            f"{entry.label:38} {P.dim:>3} {P.num_vertices:>4} "
            f"{P.num_facets:>3} {'yes' if even else 'no':>4}  ({h})"
        )
        if with_distances:
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
    survey(args.only_even, not args.no_distances)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
