"""Command-line front end.

Exit codes: 0 success, 1 invalid input or usage, 2 enumeration budget
exceeded, 3 internal theorem-check failure. All output is deterministic
for fixed inputs and seeds.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

from .constructors import parse_recipe
from .errors import (
    BudgetExceeded,
    Inapplicable,
    InvalidInput,
    TheoremViolation,
    Undefined,
    _clip,
)
from .facecodes import code_matrix, colorability_report, face_code, self_duality_report
from .gf2 import format_matrix, is_self_dual, min_distance
from .morse import _histogram, extract_basis, generic_height, vertex_indices
from .polytope import (
    SimplePolytope,
    fh_vectors,
    is_even,
    polytope_from_json,
    polytope_to_json,
)
from .screen import realizability_screen
from .verify import SUITES, corpus_subjects, run_suite

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; this artifact
    # reserves 2 for budget overruns, so remap to InvalidInput. The message
    # echoes bad values whole, so it is clipped as a whole.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise InvalidInput(f"usage error: {_clip(message, 240)}")


def _load_polytope(source: str) -> SimplePolytope:
    """Accept a JSON file path, '-' for stdin, or a constructor recipe."""
    if source == "-":
        return polytope_from_json(sys.stdin.read())
    path = Path(source)
    try:
        is_file = path.exists()
    except OSError:  # e.g. a recipe longer than a file name may be
        is_file = False
    if is_file:
        return polytope_from_json(path.read_text())
    try:
        return parse_recipe(source).build()
    except InvalidInput as exc:
        # The reason clips the tokens it echoes; the source is clipped here.
        source = _clip(source)
        raise InvalidInput(f"{source!r} is neither an existing file nor a recipe ({exc})") from exc


def _emit(args: argparse.Namespace, payload: dict[str, Any], text: list[str]) -> None:
    if args.json:
        print(json.dumps({"schema": 1, **payload}, indent=2))
    else:
        for line in text:
            print(line)


def _cmd_gen(args: argparse.Namespace) -> int:
    P = parse_recipe(args.recipe).build()
    blob = polytope_to_json(P)
    if args.output:
        Path(args.output).write_text(blob)
    else:
        sys.stdout.write(blob)
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    P = _load_polytope(args.polytope)
    fh = fh_vectors(P)
    payload = {
        "name": P.name,
        "dimension": P.dim,
        "facets": P.num_facets,
        "vertices": P.num_vertices,
        "f_vector": list(fh.f),
        "h_vector": list(fh.h),
        "even": is_even(P),
        "realized": P.coords is not None,
    }
    text = [
        f"name: {P.name if P.name else '(unnamed)'}",
        f"dimension: {P.dim}",
        f"facets: {P.num_facets}",
        f"vertices: {P.num_vertices}",
        f"f-vector (by codimension): {' '.join(map(str, fh.f))}",
        f"h-vector: {' '.join(map(str, fh.h))}",
        f"even: {'yes' if payload['even'] else 'no'}",
        f"realized: {'yes' if payload['realized'] else 'no'}",
    ]
    _emit(args, payload, text)
    return 0


def _cmd_code(args: argparse.Namespace) -> int:
    P = _load_polytope(args.polytope)
    fc = face_code(P, args.k)
    if args.matrix:
        rows = format_matrix(code_matrix(P, args.k), len(fc.faces)).splitlines()
        _emit(args, {"codimension": args.k, "rows": rows}, rows)
        return 0
    self_dual = is_self_dual(fc.code)
    payload = {
        "codimension": args.k,
        "faces": len(fc.faces),
        "length": fc.code.length,
        "dimension": fc.code.dim,
        "self_dual": self_dual,
    }
    text = [
        f"codimension: {args.k}",
        f"faces: {len(fc.faces)}",
        f"length: {fc.code.length}",
        f"dimension: {fc.code.dim}",
        f"self-dual: {'yes' if self_dual else 'no'}",
    ]
    _emit(args, payload, text)
    return 0


def _cmd_mindist(args: argparse.Namespace) -> int:
    P = _load_polytope(args.polytope)
    d = min_distance(face_code(P, args.k).code)
    _emit(
        args,
        {"codimension": args.k, "min_distance": d},
        [f"minimum distance: {d}"],
    )
    return 0


def _cmd_color(args: argparse.Namespace) -> int:
    P = _load_polytope(args.polytope)
    report = colorability_report(P)
    coloring = report.coloring
    if report.degenerate_dimension:
        note = f"dimension {P.dim} below 3, direct search only"
    else:
        note = "six criteria agree"
    payload = {
        "colorable": report.colorable,
        "colors": list(coloring.colors) if coloring else None,
        "note": note,
    }
    text = [f"colorable: {'yes' if report.colorable else 'no'}", f"note: {note}"]
    if coloring:
        text.append("colors: " + " ".join(map(str, coloring.colors)))
    _emit(args, payload, text)
    return 0


def _cmd_selfdual(args: argparse.Namespace) -> int:
    P = _load_polytope(args.polytope)
    report = self_duality_report(P, args.k)
    payload = {
        "codimension": report.codim,
        "self_dual": report.self_dual,
        "half_dimension": report.half_dimension,
        "face_parity_ok": report.face_parity_ok,
        "parity_by_codim": [list(row) for row in report.parity_by_codim],
    }
    text = [
        f"codimension: {report.codim}",
        f"self-dual: {'yes' if report.self_dual else 'no'}",
        f"half dimension: {'yes' if report.half_dimension else 'no'}",
        f"even faces in the window: {'yes' if report.face_parity_ok else 'no'}",
    ]
    _emit(args, payload, text)
    return 0


def _cmd_screen(args: argparse.Namespace) -> int:
    verdict = realizability_screen(args.length, args.mindist, args.doubly_even)
    payload = {
        "status": verdict.status,
        "witness": verdict.witness.text() if verdict.witness else None,
        "trace": [
            {"rule": r.rule, "statement": r.statement, "instantiation": r.instantiation}
            for r in verdict.trace
        ],
    }
    text = [f"status: {verdict.status}"]
    if verdict.witness:
        text.append(f"witness: {verdict.witness.text()}")
    for r in verdict.trace:
        text.append(f"[{r.rule}] {r.statement}; {r.instantiation}")
    _emit(args, payload, text)
    return 0


def _cmd_morse(args: argparse.Namespace) -> int:
    P = _load_polytope(args.polytope)
    phi = generic_height(P, args.seed)
    indices = vertex_indices(P, phi)
    histogram = _histogram(P, indices)
    basis = extract_basis(P, phi, args.k)
    payload = {
        "seed": args.seed,
        "objective": [str(x) for x in phi.objective],
        "indices": list(indices),
        "histogram": list(histogram),
        "basis": [
            {"vertex": v, "defining_facets": list(f.defining_facets)}
            for v, f in basis
        ],
    }
    text = [
        f"seed: {args.seed}",
        "objective: " + " ".join(str(x) for x in phi.objective),
        "indices: " + " ".join(map(str, indices)),
        "histogram: " + " ".join(map(str, histogram)),
        f"basis faces at codimension {args.k}:",
    ]
    for v, f in basis:
        facets = " ".join(map(str, f.defining_facets)) if f.defining_facets else "(none)"
        text.append(f"  vertex {v}: facets {facets}")
    _emit(args, payload, text)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.corpus:
        subjects = corpus_subjects()
    elif args.polytope:
        P = _load_polytope(args.polytope)
        subjects = [(P.name or "input", P)]
    else:
        raise InvalidInput("verify needs a polytope or --corpus")
    results = run_suite(args.suite, subjects)
    failed = [r for r in results if not r.passed]
    payload = {
        "suite": args.suite,
        "checks": [
            {
                "suite": r.suite,
                "subject": r.subject,
                "check": r.check,
                "passed": r.passed,
                "detail": r.detail,
            }
            for r in results
        ],
        "failed": len(failed),
    }
    text = [
        f"[{'PASS' if r.passed else 'FAIL'}] {r.suite} :: {r.subject} :: {r.check}: {r.detail}"
        for r in results
    ]
    text.append(f"{len(results)} checks, {len(failed)} failed")
    _emit(args, payload, text)
    return 3 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="polycodes", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        return p

    p = add("gen", _cmd_gen, help="build a polytope from a recipe and print its JSON")
    p.add_argument("recipe")
    p.add_argument("-o", "--output", help="write to a file instead of stdout")

    p = add("info", _cmd_info, help="dimensions, counts, f- and h-vectors")
    p.add_argument("polytope", nargs="?", default="-")

    p = add("code", _cmd_code, help="face code summary or full code matrix")
    p.add_argument("polytope", nargs="?", default="-")
    p.add_argument("-k", type=int, required=True, help="codimension")
    p.add_argument("--matrix", action="store_true", help="print the vertex-by-face matrix")

    p = add("mindist", _cmd_mindist, help="exact minimum distance of a face code")
    p.add_argument("polytope", nargs="?", default="-")
    p.add_argument("-k", type=int, required=True)

    p = add("color", _cmd_color, help="search for a proper facet coloring")
    p.add_argument("polytope", nargs="?", default="-")

    p = add("selfdual", _cmd_selfdual, help="self-duality report for one codimension")
    p.add_argument("polytope", nargs="?", default="-")
    p.add_argument("-k", type=int, required=True)

    p = add("screen", _cmd_screen, help="feasibility screen for code parameters")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--mindist", type=int, required=True)
    p.add_argument("--doubly-even", dest="doubly_even", action="store_true")

    p = add("morse", _cmd_morse, help="height-function indices and basis faces")
    p.add_argument("polytope", nargs="?", default="-")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-k", type=int, required=True)

    p = add("verify", _cmd_verify, help="run a verification suite")
    p.add_argument("polytope", nargs="?", default=None)
    p.add_argument("--corpus", action="store_true", help="run over the built-in corpus")
    p.add_argument("--suite", choices=SUITES, default="all")

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TheoremViolation as exc:
        print(f"theorem check failed: {exc}", file=sys.stderr)
        return 3
    except (InvalidInput, Undefined, Inapplicable, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
