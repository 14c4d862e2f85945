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
from typing import Any, Iterable

from .constructors import parse_recipe
from .errors import (
    BudgetExceeded,
    Inapplicable,
    InvalidInput,
    TheoremViolation,
    Undefined,
    _clip,
)
from .facecodes import _colorability_note, code_matrix, colorability_report, face_code, self_duality_report
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


def _show(value: Any) -> str:
    """A field value as text: a bool as yes/no, a list or tuple space-joined."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, (list, tuple)):
        return " ".join(map(str, value))
    return str(value)


def _report(args: argparse.Namespace, fields: list[tuple[str | None, str | None, Any]], more: Iterable[str] = ()) -> None:
    """Print the (JSON key, text label, value) ``fields`` as one schema-1 object, or as ``label: value`` lines and ``more``.

    A field without a key is text only; one without a label is JSON only.
    """
    if args.json:
        print(json.dumps({"schema": 1, **{key: value for key, _, value in fields if key}}, indent=2))
        return
    for line in [*(f"{label}: {_show(value)}" for _, label, value in fields if label), *more]:
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
    _report(args, [
        ("name", None, P.name),
        (None, "name", P.name or "(unnamed)"),
        ("dimension", "dimension", P.dim),
        ("facets", "facets", P.num_facets),
        ("vertices", "vertices", P.num_vertices),
        ("f_vector", "f-vector (by codimension)", fh.f),
        ("h_vector", "h-vector", fh.h),
        ("even", "even", is_even(P)),
        ("realized", "realized", P.coords is not None),
    ])
    return 0


def _cmd_code(args: argparse.Namespace) -> int:
    P = _load_polytope(args.polytope)
    fc = face_code(P, args.k)
    if args.matrix:
        rows = format_matrix(code_matrix(P, args.k), len(fc.faces)).splitlines()
        _report(args, [("codimension", None, args.k), ("rows", None, rows)], rows)
    else:
        _report(args, [
            ("codimension", "codimension", args.k),
            ("faces", "faces", len(fc.faces)),
            ("length", "length", fc.code.length),
            ("dimension", "dimension", fc.code.dim),
            ("self_dual", "self-dual", is_self_dual(fc.code)),
        ])
    return 0


def _cmd_mindist(args: argparse.Namespace) -> int:
    P = _load_polytope(args.polytope)
    d = min_distance(face_code(P, args.k).code)
    _report(args, [("codimension", None, args.k), ("min_distance", "minimum distance", d)])
    return 0


def _cmd_color(args: argparse.Namespace) -> int:
    P = _load_polytope(args.polytope)
    colors = colorability_report(P)
    # JSON puts the colors before the note; text puts them last, and only when found.
    _report(args, [
        ("colorable", "colorable", colors is not None),
        ("colors", None, colors),
        ("note", "note", _colorability_note(P)),
        *([(None, "colors", colors)] if colors else []),
    ])
    return 0


def _cmd_selfdual(args: argparse.Namespace) -> int:
    P = _load_polytope(args.polytope)
    report = self_duality_report(P, args.k)
    _report(args, [
        ("codimension", "codimension", args.k),
        ("self_dual", "self-dual", report.self_dual),
        ("half_dimension", "half dimension", report.half_dimension),
        ("face_parity_ok", "even faces in the window", report.face_parity_ok),
        ("parity_by_codim", None, report.parity_by_codim),
    ])
    return 0


def _cmd_screen(args: argparse.Namespace) -> int:
    verdict = realizability_screen(args.length, args.mindist, args.doubly_even)
    witness = verdict.witness.text() if verdict.witness else None
    _report(
        args,
        [
            ("status", "status", verdict.status),
            ("witness", "witness" if witness else None, witness),
            ("trace", None, [
                {"rule": r.rule, "statement": r.statement, "instantiation": r.instantiation}
                for r in verdict.trace
            ]),
        ],
        [f"[{r.rule}] {r.statement}; {r.instantiation}" for r in verdict.trace],
    )
    return 0


def _cmd_morse(args: argparse.Namespace) -> int:
    P = _load_polytope(args.polytope)
    phi = generic_height(P, args.seed)
    indices = vertex_indices(P, phi)
    histogram = _histogram(P, indices)  # its h-vector check runs before extract_basis's checks
    basis = extract_basis(P, phi, args.k)
    _report(
        args,
        [
            ("seed", "seed", args.seed),
            ("objective", "objective", [str(x) for x in phi.objective]),
            ("indices", "indices", indices),
            ("histogram", "histogram", histogram),
            ("basis", None, [{"vertex": v, "defining_facets": f.defining_facets} for v, f in basis]),
        ],
        [
            f"basis faces at codimension {args.k}:",
            *(f"  vertex {v}: facets {_show(f.defining_facets) or '(none)'}" for v, f in basis),
        ],
    )
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
    failed = sum(not r.passed for r in results)
    _report(
        args,
        [
            ("suite", None, args.suite),
            ("checks", None, [
                {"suite": r.suite, "subject": r.subject, "check": r.check, "passed": r.passed, "detail": r.detail}
                for r in results
            ]),
            ("failed", None, failed),
        ],
        [
            *(f"[{'PASS' if r.passed else 'FAIL'}] {r.suite} :: {r.subject} :: {r.check}: {r.detail}" for r in results),
            f"{len(results)} checks, {failed} failed",
        ],
    )
    return 3 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="polycodes", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    polytope = argparse.ArgumentParser(add_help=False)
    polytope.add_argument("polytope", nargs="?", default="-")

    def add(name: str, func, **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        return p

    p = add("gen", _cmd_gen, help="build a polytope from a recipe and print its JSON")
    p.add_argument("recipe")
    p.add_argument("-o", "--output", help="write to a file instead of stdout")

    add("info", _cmd_info, parents=[polytope], help="dimensions, counts, f- and h-vectors")

    p = add("code", _cmd_code, parents=[polytope], help="face code summary or full code matrix")
    p.add_argument("-k", type=int, required=True, help="codimension")
    p.add_argument("--matrix", action="store_true", help="print the vertex-by-face matrix")

    p = add("mindist", _cmd_mindist, parents=[polytope], help="exact minimum distance of a face code")
    p.add_argument("-k", type=int, required=True)

    add("color", _cmd_color, parents=[polytope], help="search for a proper facet coloring")

    p = add("selfdual", _cmd_selfdual, parents=[polytope], help="self-duality report for one codimension")
    p.add_argument("-k", type=int, required=True)

    p = add("screen", _cmd_screen, help="feasibility screen for code parameters")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--mindist", type=int, required=True)
    p.add_argument("--doubly-even", dest="doubly_even", action="store_true")

    p = add("morse", _cmd_morse, parents=[polytope], help="height-function indices and basis faces")
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
