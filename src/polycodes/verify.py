"""Verification suites over the built-in corpus (or a single polytope).

Each suite walks its subjects and records CheckResult rows. Theorem
cross-checks raise TheoremViolation out of the underlying modules and
are deliberately not caught here; a False row records an expectation
that failed without tripping an internal assertion.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from ._record import Record
from .corpus import corpus
from .errors import InvalidInput
from .facecodes import (
    _colorability_note,
    circ_closure_check,
    colorability_report,
    dimension_law_check,
    doubly_even_report,
    duality_complement_check,
    face_code,
    min_distance_bound_check,
    self_duality_report,
)
from .gf2 import is_self_dual
from .morse import extract_basis, generic_height, index_histogram
from .polytope import SimplePolytope, fh_vectors, is_even
from .screen import mallows_sloane, realizability_screen

__all__ = ["CheckResult", "SUITES", "corpus_subjects", "run_suite"]

_MORSE_SEEDS = range(5)

_SCREEN_CASES = (
    (24, 8, True, "Infeasible"),
    (48, 12, True, "Infeasible"),
    (72, 16, True, "Infeasible"),
    (8, 4, True, "FeasibleWitness"),
    (16, 4, True, "FeasibleWitness"),
)


class CheckResult(Record):
    suite: str
    subject: str
    check: str
    passed: bool
    detail: str


def corpus_subjects() -> list[tuple[str, SimplePolytope]]:
    return [(entry.label, entry.build()) for entry in corpus()]


# Each suite yields (subject, check, passed, detail) rows; run_suite adds
# the suite name.
_Row = tuple[str, str, bool, str]


def _suite_colorability(subjects) -> Iterator[_Row]:
    for label, P in subjects:
        colorable = colorability_report(P) is not None
        yield label, "criteria-agreement", True, f"{_colorability_note(P)}: colorable={colorable}"


def _suite_selfdual(subjects) -> Iterator[_Row]:
    for label, P in subjects:
        h = fh_vectors(P).h
        shortfall = [k for k in range(P.dim + 1) if face_code(P, k).code.dim < sum(h[: k + 1])]
        yield (
            label,
            "dimension-lower-bound",
            not shortfall,
            "dim of each code at least the partial h-sum"
            if not shortfall
            else f"bound fails at codimensions {shortfall}",
        )
        self_dual_ks = [k for k in range(P.dim + 1) if self_duality_report(P, k).self_dual]
        yield (
            label,
            "route-agreement",
            True,
            f"direct and structural routes agree for all k; self-dual at {self_dual_ks}",
        )
        if P.dim == 4:
            yield (
                label,
                "no-self-dual-dimension-4",
                not self_dual_ks,
                f"self-dual codimensions: {self_dual_ks}",
            )
        if is_even(P):
            yield (
                label,
                "dimension-law",
                True,
                f"dims {dimension_law_check(P)} match partial h-sums; self-dual at {tuple(self_dual_ks)}",
            )
            if P.dim % 2 == 1:
                bound, exact = min_distance_bound_check(P)
                yield (
                    label,
                    "distance-bound",
                    True,
                    f"minimum distance {exact} within the face bound {bound}",
                )
                yield (
                    label,
                    "doubly-even-criterion",
                    True,
                    f"doubly even: {doubly_even_report(P)}, by face sizes and by weights",
                )


def _suite_duality(subjects) -> Iterator[_Row]:
    for label, P in subjects:
        if not is_even(P):
            continue
        ok = duality_complement_check(P)
        yield (
            label,
            "complement-pairing",
            ok,
            "dual of each code is the complementary-codimension code"
            if ok
            else "pairing failed",
        )
        bad = [k for k in range(1, P.dim + 1) if not circ_closure_check(P, k)]
        yield (
            label,
            "product-closure",
            not bad,
            "facet-indicator products span each code"
            if not bad
            else f"closure fails at codimensions {bad}",
        )


def _suite_morse(subjects) -> Iterator[_Row]:
    for label, P in subjects:
        if P.coords is None:
            yield label, "skipped", True, "no coordinates"
            continue
        for seed in _MORSE_SEEDS:
            phi = generic_height(P, seed)
            index_histogram(P, phi)
            for k in range(P.dim + 1):
                extract_basis(P, phi, k)
        yield (
            label,
            "histogram-and-independence",
            True,
            f"{len(_MORSE_SEEDS)} seeds: histogram is the h-vector, selections independent",
        )


def _suite_screen(subjects) -> Iterator[_Row]:
    for l, d, de, expected in _SCREEN_CASES:
        verdict = realizability_screen(l, d, de)
        witness = f" ({verdict.witness.text()})" if verdict.witness else ""
        yield (
            f"({l}, {d}, {'doubly even' if de else 'not doubly even'})",
            "pinned-verdict",
            verdict.status == expected,
            f"expected {expected}, got {verdict.status}{witness}",
        )
    for l, expected_bound in ((8, 4), (16, 4), (24, 8)):
        bound = mallows_sloane(l)
        yield (
            f"length {l}",
            "extremal-bound",
            bound == expected_bound,
            f"expected {expected_bound}, got {bound}",
        )


def _suite_conjecture(subjects) -> Iterator[_Row]:
    # Self-dual face codes are conjectured to force odd dimension,
    # middle codimension, and evenness. Observations are reported,
    # never asserted: a counterexample still passes.
    observed = False
    for label, P in subjects:
        for k in range(P.dim + 1):
            if not is_self_dual(face_code(P, k).code):
                continue
            consistent = P.dim % 2 == 1 and k == (P.dim - 1) // 2 and is_even(P)
            detail = (
                f"self-dual at k={k}: dimension {P.dim}, even={is_even(P)}; "
                + ("consistent" if consistent else "COUNTEREXAMPLE OBSERVED")
            )
            observed = True
            yield label, "self-dual-shape", True, detail
    if not observed:
        yield "corpus", "self-dual-shape", True, "no self-dual codes"


_SUITE_RUNNERS = {
    "colorability": _suite_colorability,
    "selfdual": _suite_selfdual,
    "duality": _suite_duality,
    "morse": _suite_morse,
    "screen": _suite_screen,
    "conjecture": _suite_conjecture,
}

SUITES = (*_SUITE_RUNNERS, "all")


def run_suite(
    suite: str, subjects: Sequence[tuple[str, SimplePolytope]]
) -> list[CheckResult]:
    if suite not in SUITES:
        raise InvalidInput(f"unknown suite {suite!r}, choose from {', '.join(SUITES)}")
    names = list(_SUITE_RUNNERS) if suite == "all" else [suite]
    return [CheckResult(name, *row) for name in names for row in _SUITE_RUNNERS[name](subjects)]
