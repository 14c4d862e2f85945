"""Feasibility screen: can a self-dual [l, l/2, d] code be a polytope face code?

The screen prunes candidate polytope dimensions with counting rules,
then tries to match a stock construction as a witness. Witness codes
are always recomputed and verified; a mismatch is a TheoremViolation,
never a silent downgrade. "Unknown" is an honest outcome: the rules
here are necessary conditions, not a decision procedure.
"""

from __future__ import annotations

from ._record import Record
from .constructors import Recipe
from .errors import Inapplicable, InvalidInput, TheoremViolation, _clip, _digits, _over_budget
from .facecodes import face_code
from .gf2 import _popcount, is_self_dual, min_distance

__all__ = [
    "ScreenRule",
    "ScreenVerdict",
    "mallows_sloane",
    "realizability_screen",
]


class ScreenRule(Record):
    """One fired rule: an id, the statement relied on, and the numbers."""

    rule: str
    statement: str
    instantiation: str


class ScreenVerdict(Record):
    """Screen outcome: Infeasible with a rule trace, a verified witness, or Unknown."""

    status: str
    trace: tuple[ScreenRule, ...]
    witness: Recipe | None

    def __post_init__(self) -> None:
        if self.status not in ("Infeasible", "FeasibleWitness", "Unknown"):
            raise InvalidInput(f"unknown screen status {self.status!r}")
        if self.status == "Infeasible" and not self.trace:
            raise InvalidInput("an infeasibility verdict needs a nonempty trace")
        if (self.status == "FeasibleWitness") != (self.witness is not None):
            raise InvalidInput("exactly the feasible verdicts carry a witness")


def mallows_sloane(l: int) -> int:
    """Extremal distance bound 4*floor(l/24) + 4 on doubly-even self-dual codes of length l.

    Doubly-even self-dual codes exist only for lengths divisible by 8,
    so other lengths are rejected as Inapplicable.
    """
    if not isinstance(l, int) or l <= 0:
        raise InvalidInput(f"length must be a positive integer, got {_clip(repr(l))}")
    if l % 8 != 0:
        raise Inapplicable(f"the extremal bound needs length divisible by 8, got {_clip(l)}")
    return 4 * (l // 24) + 4


# Verifying a witness tests each pair of its l/2 basis rows for orthogonality once.
_MAX_WITNESS_PAIRS = 1 << 18


def _verify_witness(recipe: Recipe, l: int, d: int, doubly_even: bool) -> ScreenRule:
    pairs = (l // 2) * (l // 2 + 1) // 2
    if pairs > _MAX_WITNESS_PAIRS:
        work = f"verifying the witness {_clip(recipe.text())} needs"
        raise _over_budget(work, pairs, "basis row pairs tested for orthogonality", _MAX_WITNESS_PAIRS)
    P = recipe.build()
    code = face_code(P, (P.dim - 1) // 2).code
    problems = []
    if code.length != l:
        problems.append(f"length {code.length} != {l}")
    if 2 * code.dim != code.length:
        problems.append(f"dimension {code.dim} is not half the length")
    if not is_self_dual(code):
        problems.append("code is not self-dual")
    exact = min_distance(code)
    if exact != d:
        problems.append(f"minimum distance {exact} != {d}")
    # A self-dual code is doubly even exactly when every basis row weight
    # is divisible by 4; self-duality is checked above.
    de = all(_popcount(r) % 4 == 0 for r in code.rows)
    if de != doubly_even:
        problems.append(f"doubly even is {de}, requested {doubly_even}")
    if problems:
        raise TheoremViolation(
            f"witness {recipe.text()} failed verification: " + "; ".join(problems)
        )
    return ScreenRule(
        rule="witness",
        statement="the construction's face code at its self-dual codimension was recomputed and matches the request",
        instantiation=f"{recipe.text()} gives a [{l}, {l // 2}, {d}] self-dual code, doubly even: {doubly_even}",
    )


def realizability_screen(l: int, d: int, doubly_even: bool) -> ScreenVerdict:
    """Screen the parameters (length l, minimum distance d, doubly-evenness).

    A witness with more than 2^18 basis row pairs to verify raises
    BudgetExceeded before it is built.
    """
    if not isinstance(l, int) or not isinstance(d, int):
        raise InvalidInput("length and minimum distance must be integers")
    if l < 2 or d < 2:
        raise InvalidInput(f"need length >= 2 and distance >= 2, got ({_clip(l)}, {_clip(d)})")
    trace: list[ScreenRule] = []
    if l % 2 == 1 or d % 2 == 1:
        trace.append(
            ScreenRule(
                rule="parity",
                statement="a self-dual code has even length and all its weights, the minimum distance included, are even",
                instantiation=f"length {_digits(l)} and minimum distance {_digits(d)} must both be even",
            )
        )
        return ScreenVerdict(status="Infeasible", trace=tuple(trace), witness=None)

    candidates = [n for n in range(1, l.bit_length() + 1, 2) if 2**n <= l]
    trace.append(
        ScreenRule(
            rule="candidate-dimensions",
            statement="self-duality forces odd polytope dimension n, and an even n-polytope has at least 2^n vertices",
            instantiation=f"odd n with 2^n <= {_digits(l)}: {candidates if candidates else 'none'}",
        )
    )

    survivors: list[int] = []
    for n in candidates:
        if n == 1:
            if (l, d) == (2, 2):
                survivors.append(n)
            else:
                trace.append(
                    ScreenRule(
                        rule="segment-only",
                        statement="the only even 1-polytope is the segment, whose face code is the length-2 repetition code",
                        instantiation=f"n=1 needs (length, distance) = (2, 2), got ({_digits(l)}, {_digits(d)})",
                    )
                )
            continue
        if n == 3:
            if d == 4:
                survivors.append(n)
            else:
                trace.append(
                    ScreenRule(
                        rule="distance-four",
                        statement="the self-dual face code of an even 3-polytope has minimum distance exactly 4",
                        instantiation=f"n=3 needs distance 4, got {_digits(d)}",
                    )
                )
            continue
        k = (n - 1) // 2
        if d * 2**k > l:
            trace.append(
                ScreenRule(
                    rule="face-growth",
                    statement="the vertex count is at least 2^k times the vertex count of any codimension-k face, and each face indicator is a nonzero codeword; d * 2^k grows with n, so every larger n fails too",
                    instantiation=f"n>={n}: {_digits(d)} * 2^{k} = {_digits(d * 2 ** k)} > {_digits(l)}",
                )
            )
            break
        if n == 5 and not _dimension_five_survives(l, d, doubly_even, trace):
            continue
        survivors.append(n)

    if not survivors:
        trace.append(
            ScreenRule(
                rule="exhausted",
                statement="no candidate dimension survives the pruning rules",
                instantiation=f"(length, distance, doubly even) = ({_digits(l)}, {_digits(d)}, {doubly_even})",
            )
        )
        return ScreenVerdict(status="Infeasible", trace=tuple(trace), witness=None)

    witness = _match_witness(l, d, doubly_even, survivors)
    if witness is not None:
        trace.append(_verify_witness(witness, l, d, doubly_even))
        return ScreenVerdict(status="FeasibleWitness", trace=tuple(trace), witness=witness)
    trace.append(
        ScreenRule(
            rule="open",
            statement="the pruning rules leave candidate dimensions but no stock construction matches",
            instantiation=f"surviving dimensions: {survivors}",
        )
    )
    return ScreenVerdict(status="Unknown", trace=tuple(trace), witness=None)


def _admissible(lo: int, hi: int, doubly_even: bool) -> range:
    """The sizes in [lo, hi] divisible by 4 (doubly even) or 2, as a range: l may be huge."""
    step = 4 if doubly_even else 2
    return range(lo + (-lo) % step, hi + 1, step)


def _dimension_five_survives(
    l: int, d: int, doubly_even: bool, trace: list[ScreenRule]
) -> bool:
    # Codimension-2 faces are even 3-polytopes; their sizes are even
    # (divisible by 4 in the doubly-even case), at least d because the
    # indicators are codewords, and at most l/4 by the doubling bound.
    ridge_sizes = _admissible(d, l // 4, doubly_even)
    if not ridge_sizes:
        trace.append(
            ScreenRule(
                rule="ridge-sizes",
                statement="each codimension-2 face of an even 5-polytope has admissible vertex count between the minimum distance and a quarter of the total",
                instantiation=f"n=5: no admissible size in [{_digits(d)}, {_digits(l // 4)}]",
            )
        )
        return False
    if len(ridge_sizes[:2]) > 1:  # len() of a huge range overflows
        return True
    s = ridge_sizes[0]
    kept = []
    for s4 in _admissible(2 * s, l // 2, doubly_even):
        forced = []
        if s4 == 2 * s:
            forced.append(f"{_digits(s4)} = 2 * {_digits(s)}")
        if 2 * s4 == l:
            forced.append(f"2 * {_digits(s4)} = {_digits(l)}")
        if forced and d > 8:
            # Equality in the doubling bound forces a product with a
            # segment factor; iterating pins a 3-cube face, whose own
            # code caps the minimum distance at 8.
            trace.append(
                ScreenRule(
                    rule="rigid-facet",
                    statement="equality in the facet-size doubling bound forces a cube factor, so the code contains a 3-cube face code of distance at most 8",
                    instantiation=f"n=5: facet size {_digits(s4)} ({', '.join(forced)}) caps the distance at 8 < {_digits(d)}",
                )
            )
            continue
        kept.append(s4)
    if not kept:
        trace.append(
            ScreenRule(
                rule="facet-sizes",
                statement="every facet of an even 5-polytope needs an admissible vertex count at least twice its smallest codimension-2 face",
                instantiation=f"n=5: every facet size in [{_digits(2 * s)}, {_digits(l // 2)}] is excluded",
            )
        )
        return False
    return True


def _match_witness(
    l: int, d: int, doubly_even: bool, survivors: list[int]
) -> Recipe | None:
    n = l.bit_length() - 1
    if 2**n == l and n % 2 == 1 and n >= 3 and n in survivors:
        k = (n - 1) // 2
        if d == 2 ** (k + 1) and doubly_even:
            return Recipe("cube", (n,))
    if (l, d) == (2, 2) and not doubly_even and 1 in survivors:
        return Recipe("segment", ())
    if (
        3 in survivors
        and d == 4
        and l % 4 == 0
        and l >= 8
        and doubly_even == (l % 8 == 0)
    ):
        return Recipe("prism", (l // 2,))
    return None
