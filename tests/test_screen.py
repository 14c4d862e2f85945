"""Realizability screen verdicts, rule traces, and the extremal bound."""

from __future__ import annotations

import pytest

import polycodes as pc
from polycodes import gf2
from polycodes.screen import _admissible, _verify_witness


def rule_ids(verdict: pc.ScreenVerdict) -> list[str]:
    return [r.rule for r in verdict.trace]


# ------------------------------------------------------------ pinned cases


def test_length24_distance8_infeasible():
    v = pc.realizability_screen(24, 8, True)
    assert v.status == "Infeasible" and v.witness is None
    assert rule_ids(v) == [
        "candidate-dimensions",
        "segment-only",
        "distance-four",
        "exhausted",
    ]


def test_length48_distance12_infeasible():
    v = pc.realizability_screen(48, 12, True)
    assert v.status == "Infeasible"
    assert rule_ids(v) == [
        "candidate-dimensions",
        "segment-only",
        "distance-four",
        "rigid-facet",
        "facet-sizes",
        "exhausted",
    ]


def test_length72_distance16_infeasible():
    v = pc.realizability_screen(72, 16, True)
    assert v.status == "Infeasible"
    # Both admissible facet sizes (32 and 36) hit the rigidity argument.
    assert rule_ids(v) == [
        "candidate-dimensions",
        "segment-only",
        "distance-four",
        "rigid-facet",
        "rigid-facet",
        "facet-sizes",
        "exhausted",
    ]


def test_length8_witnessed_by_the_cube():
    v = pc.realizability_screen(8, 4, True)
    assert v.status == "FeasibleWitness"
    assert v.witness is not None and v.witness.text() == "cube 3"
    assert rule_ids(v)[-1] == "witness"


def test_length16_witnessed_by_the_octagonal_prism():
    v = pc.realizability_screen(16, 4, True)
    assert v.status == "FeasibleWitness"
    assert v.witness is not None and v.witness.text() == "prism 8"


def test_length2_witnessed_by_the_segment():
    v = pc.realizability_screen(2, 2, False)
    assert v.status == "FeasibleWitness"
    assert v.witness is not None and v.witness.text() == "segment"


def test_length12_witnessed_by_the_hexagonal_prism():
    v = pc.realizability_screen(12, 4, False)
    assert v.status == "FeasibleWitness"
    assert v.witness is not None and v.witness.text() == "prism 6"


def test_length16_not_doubly_even_is_open():
    # Octagonal prism codes of length 16 are doubly even, so nothing in
    # stock matches, but no rule excludes the parameters either.
    v = pc.realizability_screen(16, 4, False)
    assert v.status == "Unknown" and v.witness is None
    assert rule_ids(v)[-1] == "open"


# ------------------------------------------------------------ parity / input


@pytest.mark.parametrize("l,d", [(7, 4), (10, 3), (9, 3)])
def test_odd_parameters_are_infeasible(l, d):
    v = pc.realizability_screen(l, d, False)
    assert v.status == "Infeasible"
    assert rule_ids(v) == ["parity"]


def test_screen_rejects_bad_input():
    with pytest.raises(pc.InvalidInput):
        pc.realizability_screen(0, 4, False)
    with pytest.raises(pc.InvalidInput):
        pc.realizability_screen(8, 1, False)
    with pytest.raises(pc.InvalidInput):
        pc.realizability_screen("8", 4, False)
    with pytest.raises(pc.InvalidInput):
        pc.realizability_screen(8, 4.0, False)


def test_admissible_sizes_match_the_filtered_interval():
    for lo in range(30):
        for hi in range(-2, 40):
            for doubly_even in (False, True):
                step = 4 if doubly_even else 2
                expected = [s for s in range(lo, hi + 1) if s % step == 0]
                assert list(_admissible(lo, hi, doubly_even)) == expected


@pytest.mark.parametrize("l", [10**30, 10**300])
def test_screen_answers_huge_lengths_without_listing_sizes(l):
    # Dimension 5 survives with about l/8 admissible ridge sizes, which are
    # a range: a list of them could not be built.
    v = pc.realizability_screen(l, 4, False)
    assert v.status == "Unknown"
    assert rule_ids(v) == ["candidate-dimensions", "segment-only", "open"]
    assert v.trace[-1].instantiation.startswith("surviving dimensions: [3, 5, 7, ")


def test_face_growth_shows_products_past_the_str_limit_as_powers_of_two():
    d = 3 * 10**4299  # 4,300 digits, the most str() converts; 4 * d has one more
    v = pc.realizability_screen(2**20, d, False)
    growth = [r.instantiation for r in v.trace if r.rule == "face-growth"]
    assert v.status == "Infeasible" and rule_ids(v)[-1] == "exhausted"
    assert growth == [f"n>=5: {d} * 2^2 = about 2^{(4 * d).bit_length() - 1} > {2**20}"]


@pytest.mark.parametrize(
    "l, d, status",
    [(2**20, 10**4300, "Infeasible"), (10**4300, 4, "Unknown")],
    ids=["huge-distance", "huge-length"],
)
def test_screen_renders_every_integer_past_the_str_limit(l, d, status):
    # 10^4300 has one digit more than str() converts.
    v = pc.realizability_screen(l, d, False)
    assert v.status == status
    assert "about 2^14284" in v.trace[1].instantiation  # segment-only echoes l and d


def test_witness_verification_tests_orthogonality_once(monkeypatch):
    passes = []
    pairwise = gf2._pairwise_orthogonal
    monkeypatch.setattr(gf2, "_pairwise_orthogonal", lambda rows: passes.append(1) or pairwise(rows))
    v = pc.realizability_screen(32, 8, True)
    assert v.witness == pc.parse_recipe("cube 5")
    assert len(passes) == 1


# -------------------------------------------------------- verdict invariants


def test_verdict_constructor_guards():
    with pytest.raises(pc.InvalidInput):
        pc.ScreenVerdict(status="Maybe", trace=(), witness=None)
    with pytest.raises(pc.InvalidInput):
        pc.ScreenVerdict(status="Infeasible", trace=(), witness=None)
    with pytest.raises(pc.InvalidInput):
        pc.ScreenVerdict(status="FeasibleWitness", trace=(), witness=None)
    with pytest.raises(pc.InvalidInput):
        pc.ScreenVerdict(
            status="Unknown", trace=(), witness=pc.parse_recipe("cube 3")
        )


KNOWN_RULES = {
    "parity",
    "candidate-dimensions",
    "segment-only",
    "distance-four",
    "face-growth",
    "ridge-sizes",
    "rigid-facet",
    "facet-sizes",
    "exhausted",
    "witness",
    "open",
}


def test_screen_grid_invariants():
    for l in range(2, 26, 2):
        for d in (2, 4, 6, 8):
            for de in (False, True):
                v = pc.realizability_screen(l, d, de)
                assert set(rule_ids(v)) <= KNOWN_RULES
                if v.status == "FeasibleWitness":
                    assert rule_ids(v)[-1] == "witness"
                if v.status == "Infeasible":
                    assert v.trace
                for rule in v.trace:
                    assert rule.statement and rule.instantiation


def test_witness_claims_are_recomputed_not_trusted():
    # Deliberately wrong parameters for a correct construction must
    # raise instead of passing through.
    with pytest.raises(pc.TheoremViolation):
        _verify_witness(pc.parse_recipe("cube 3"), 8, 6, True)
    with pytest.raises(pc.TheoremViolation):
        _verify_witness(pc.parse_recipe("prism 6"), 12, 4, True)
    with pytest.raises(pc.TheoremViolation):
        _verify_witness(pc.parse_recipe("simplex 3"), 4, 2, False)


def test_witness_verification_budget_is_checked_before_building(monkeypatch):
    # Building stands in for everything after the guard, so no large
    # polytope is ever built here.
    class Built(Exception):
        pass

    def build(recipe):
        raise Built(recipe.text())

    monkeypatch.setattr(pc.Recipe, "build", build)
    # 722 * 723 / 2 = 261,003 row pairs: within 2^18, so the witness is built.
    with pytest.raises(Built, match="^prism 722$"):
        pc.realizability_screen(1444, 4, False)
    # 724 * 725 / 2 = 262,450 row pairs: refused.
    with pytest.raises(
        pc.BudgetExceeded,
        match=r"^verifying the witness prism 724 needs 262450 basis row pairs "
        r"tested for orthogonality, over the budget of 2\^18 = 262144$",
    ):
        pc.realizability_screen(1448, 4, True)


# ------------------------------------------------------------ extremal bound


def is_extremal(code: pc.LinearCode) -> bool:
    """Whether the code meets the extremal bound at its own length."""
    return pc.min_distance(code) == pc.mallows_sloane(code.length)


def test_extremal_bound_values():
    assert pc.mallows_sloane(8) == 4
    assert pc.mallows_sloane(16) == 4
    assert pc.mallows_sloane(24) == 8
    assert pc.mallows_sloane(32) == 8
    assert pc.mallows_sloane(48) == 12
    assert pc.mallows_sloane(72) == 16


def test_cube3_code_is_extremal():
    assert pc.mallows_sloane(8) == 4
    assert is_extremal(pc.face_code(pc.cube(3), 1).code)


def test_prism8_code_is_extremal():
    assert is_extremal(pc.face_code(pc.prism(8), 1).code)


def test_extremal_bound_guards():
    with pytest.raises(pc.Inapplicable):
        pc.mallows_sloane(12)
    with pytest.raises(pc.InvalidInput):
        pc.mallows_sloane(0)
    with pytest.raises(pc.InvalidInput):
        pc.mallows_sloane(-8)
    with pytest.raises(pc.InvalidInput, match=r"^length must be a positive integer, got -9{76}\.\.\.$"):
        pc.mallows_sloane(-int("9" * 4000))
    # The bound is read at the code's own length: prism 12's [24, 12, 4]
    # code falls short of 8, and prism 6's length 12 has no bound.
    assert not is_extremal(pc.face_code(pc.prism(12), 1).code)
    with pytest.raises(pc.Inapplicable):
        is_extremal(pc.face_code(pc.prism(6), 1).code)
