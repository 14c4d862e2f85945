"""Face codes: spans, colorability criteria, duality, and distance checks."""

from __future__ import annotations

import gc
import math
import weakref

import pytest
from hypothesis import assume, given, settings

import polycodes as pc
from polycodes import facecodes

from helpers import (
    BitVector,
    all_codewords,
    basis,
    check_incidence,
    closure_by_multisets,
    colorability_criteria,
    coloring_by_backtracking,
    contains,
    even_recipe_texts,
    faces_by_global_intersection,
    faces_by_grouping,
    recipe_texts,
    reduce,
    reed_muller,
    reed_muller_check,
    vertex_set,
)

PRISM6_MATRIX = (
    "10000110",
    "10000101",
    "11000010",
    "11000001",
    "01100010",
    "01100001",
    "00110010",
    "00110001",
    "00011010",
    "00011001",
    "00001110",
    "00001101",
)


# --------------------------------------------------------------- face codes


def test_codim_zero_code_is_span_of_ones():
    for P in (pc.cube(3), pc.simplex(4), pc.prism(5)):
        fc = pc.face_code(P, 0)
        assert fc.code.dim == 1
        assert contains(fc.code, BitVector.ones(P.num_vertices))


def test_cube3_facet_code():
    fc = pc.face_code(pc.cube(3), 1)
    assert (fc.code.length, fc.code.dim) == (8, 4)
    assert pc.min_distance(fc.code) == 4
    assert len(fc.faces) == 6


def test_top_codim_code_is_full_space():
    # Codimension n faces are single vertices, spanning everything.
    for P in (pc.cube(3), pc.simplex(3)):
        fc = pc.face_code(P, P.dim)
        assert fc.code.dim == P.num_vertices


def test_edge_code_of_even_polytope_is_even_weight_space():
    # Codimension n-1 faces are edges; for even P the span has dim |V| - 1
    # and consists of the even-weight vectors.
    P = pc.cube(3)
    fc = pc.face_code(P, 2)
    assert fc.code.dim == P.num_vertices - 1
    assert all(w.weight % 2 == 0 for w in basis(fc.code))


def test_face_code_rejects_bad_codim():
    with pytest.raises(pc.InvalidInput):
        pc.face_code(pc.cube(3), 4)
    with pytest.raises(pc.InvalidInput):
        pc.face_code(pc.cube(3), -1)


def test_face_code_does_not_keep_the_polytope_alive():
    P = pc.cube(4)
    pc.face_code(P, 1)
    ref = weakref.ref(P)
    del P
    gc.collect()
    assert ref() is None


def test_faces_match_global_intersection_oracle():
    # Defining-facet enumeration must agree with the brute-force route
    # that intersects every k-subset of facets.
    for text in ("cube 3", "prism 5", "simplex 4"):
        P = pc.parse_recipe(text).build()
        for k in range(1, P.dim + 1):
            ours = {f.defining_facets: vertex_set(f) for f in pc.faces_of_codim(P, k)}
            assert ours == faces_by_global_intersection(P, k)


# -------------------------------------------------------------- code matrix


def test_prism6_code_matrix_golden():
    rows = pc.code_matrix(pc.prism(6), 1)
    assert pc.format_matrix(rows, 8) == "".join(line + "\n" for line in PRISM6_MATRIX)


def test_cube3_top_codim_matrix_is_identity():
    rows = pc.code_matrix(pc.cube(3), 3)
    assert rows == [1 << v for v in range(8)]


def test_square_facet_matrix_is_circulant():
    rows = pc.code_matrix(pc.polygon(4), 1)
    # Vertex i lies on edges i-1 and i.
    assert pc.format_matrix(rows, 4).split() == ["1001", "1100", "0110", "0011"]


def test_code_matrix_columns_span_the_face_code():
    P = pc.prism(6)
    cols = [
        BitVector.from_support(P.num_vertices, vertex_set(f))
        for f in pc.faces_of_codim(P, 1)
    ]
    assert reduce(cols, length=P.num_vertices) == pc.face_code(P, 1).code


# -------------------------------------------------------------- colorability


def test_cube_colorability_all_criteria_true():
    P = pc.cube(3)
    colors = pc.colorability_report(P)
    assert P.dim >= 3
    assert set(colorability_criteria(P).values()) == {True}
    assert colors == (0, 0, 1, 1, 2, 2)


def test_simplex_colorability_all_criteria_false():
    P = pc.simplex(3)
    assert pc.colorability_report(P) is None and P.dim >= 3
    assert set(colorability_criteria(P).values()) == {False}


def test_simplex_facet_code_dimension_breaks_the_formula():
    # The 4 facet indicators of the 3-simplex are independent, so the
    # code dimension is 4, not num_facets - dim + 1 = 2.
    assert pc.face_code(pc.simplex(3), 1).code.dim == 4


def test_prism6_coloring_and_dimension_formula():
    P = pc.prism(6)
    assert pc.colorability_report(P) == (0, 1, 0, 1, 0, 1, 2, 2)
    assert pc.face_code(P, 1).code.dim == P.num_facets - P.dim + 1 == 6


def test_product_colorability():
    P = pc.parse_recipe("product (polygon 6) (cube 2)").build()
    assert pc.colorability_report(P) == (0, 1, 0, 1, 0, 1, 2, 2, 3, 3)


def test_odd_prism_not_colorable():
    P = pc.prism(5)
    assert pc.colorability_report(P) is None and P.dim >= 3
    assert set(colorability_criteria(P).values()) == {False}


def test_colorability_criteria_that_disagree_raise(monkeypatch):
    monkeypatch.setattr(facecodes, "is_even", lambda P: not pc.is_even(P))
    with pytest.raises(pc.TheoremViolation, match="colorability criteria disagree"):
        pc.colorability_report(pc.cube(3))


# Duals of neighborly cyclic polytopes: every two facets meet, so no
# coloring with d colors exists, and every criterion must say so.
DUAL_CYCLIC = [(4, 7), (4, 8), (4, 10), (5, 8), (5, 9), (6, 9), (6, 10), (7, 10), (8, 12)]


@pytest.mark.parametrize("d, m", DUAL_CYCLIC)
def test_dual_cyclic_polytopes_through_every_check(d, m):
    P = pc.dual_cyclic(d, m)
    assert check_incidence(P.dim, P.facets) == []
    assert pc.colorability_report(P) is None and P.dim >= 3
    assert set(colorability_criteria(P).values()) == {False}
    h = pc.fh_vectors(P).h
    assert h == h[::-1]
    for k in range(d + 1):
        assert not pc.self_duality_report(P, k).self_dual
        assert pc.face_code(P, k).code.dim >= sum(h[: k + 1])


@pytest.mark.parametrize("d, m", [(5, 7), *DUAL_CYCLIC])
def test_dual_cyclic_h_vectors_meet_the_upper_bound_theorem(d, m):
    # The cyclic polytope is neighborly, so its polar C*(d, m) meets the
    # Upper Bound Theorem with equality: h_i = C(m - d - 1 + i, i) for
    # i <= d/2 (McMullen 1970; Ziegler, Lectures on Polytopes, 8.4).
    h = pc.fh_vectors(pc.dual_cyclic(d, m)).h
    assert h[: d // 2 + 1] == tuple(math.comb(m - d - 1 + i, i) for i in range(d // 2 + 1))


def test_dual_cyclic_4_7_code_dimensions_break_the_inclusion_chain():
    P = pc.dual_cyclic(4, 7)
    assert [pc.face_code(P, k).code.dim for k in range(5)] == [1, 6, 14, 13, 14]
    assert pc.fh_vectors(P).h == (1, 3, 6, 3, 1)


def test_polygon_colorability_is_degenerate():
    assert pc.colorability_report(pc.polygon(5)) is None
    # Why the criteria are not compared below dimension 3: they disagree here.
    assert set(colorability_criteria(pc.polygon(5)).values()) == {False, True}
    assert pc.colorability_report(pc.polygon(6)) is not None


def assert_colors_are_numbered_by_first_appearance(P: pc.SimplePolytope) -> None:
    # A proper coloring uses exactly the colors 0..dim-1, first seen in that order.
    colors = pc.colorability_report(P)
    assert colors is None or list(dict.fromkeys(colors)) == list(range(P.dim))


def test_colorability_report_numbers_colors_by_first_appearance_on_corpus():
    # Vertex 0 of the relabelled cube lies in facets 0, 2 and 3, so the colors
    # it fixes, read in facet order, first appear as 0, 2, 1.
    f = pc.cube(3).facets
    relabelled = pc.validate(3, [f[i] for i in (0, 5, 2, 4, 1, 3)])
    for P in [relabelled, *(entry.build() for entry in pc.corpus())]:
        assert_colors_are_numbered_by_first_appearance(P)


@settings(max_examples=25, deadline=None)
@given(text=recipe_texts)
def test_colorability_report_numbers_colors_by_first_appearance_on_random_recipes(text):
    assert_colors_are_numbered_by_first_appearance(pc.parse_recipe(text).build())


@pytest.mark.parametrize("entry", pc.corpus(), ids=lambda e: e.label)
def test_find_coloring_matches_backtracking_on_corpus(entry):
    P = entry.build()
    assert pc.find_coloring(P) == coloring_by_backtracking(P)


@settings(max_examples=50, deadline=None)
@given(text=recipe_texts)
def test_find_coloring_matches_backtracking_on_random_recipes(text):
    P = pc.parse_recipe(text).build()
    assert pc.find_coloring(P) == coloring_by_backtracking(P)


def test_find_coloring_on_a_thousand_facet_prism():
    # Beyond the interpreter's recursion limit for a search with one
    # frame per facet.
    P = pc.prism(1000)
    found = pc.find_coloring(P)
    assert found is not None and pc.coloring_is_proper(P, found)
    assert list(dict.fromkeys(found)) == list(range(P.dim))
    assert pc.find_coloring(pc.prism(1001)) is None


def test_coloring_is_proper_validates_length():
    with pytest.raises(pc.InvalidInput):
        pc.coloring_is_proper(pc.cube(3), (0, 1))


def test_improper_coloring_detected():
    # Two adjacent facets sharing a color must fail.
    assert not pc.coloring_is_proper(pc.cube(3), (0, 0, 0, 1, 2, 2))


# ------------------------------------------------------------- dimension law


def test_cube3_dimension_law():
    P = pc.cube(3)
    h = pc.fh_vectors(P).h
    assert pc.dimension_law_check(P) == (1, 4, 7, 8)
    assert [sum(h[: k + 1]) for k in range(4)] == [1, 4, 7, 8]
    assert [pc.self_duality_report(P, k).self_dual for k in range(4)] == [False, True, False, False]


def test_cube5_dimension_law():
    P = pc.cube(5)
    assert pc.dimension_law_check(P) == (1, 6, 16, 26, 31, 32)
    assert [k for k in range(6) if pc.self_duality_report(P, k).self_dual] == [2]


def test_even_dimension_has_no_self_dual_codim():
    P = pc.cube(4)
    pc.dimension_law_check(P)
    assert not any(pc.self_duality_report(P, k).self_dual for k in range(5))


def test_dimension_law_inapplicable_for_non_even():
    with pytest.raises(pc.Inapplicable):
        pc.dimension_law_check(pc.simplex(3))


def test_partial_h_sums_are_binomial_for_cubes():
    # The half sum of binomials over an odd row is a power of two, which
    # is why the middle cube code has half dimension.
    for k in (1, 2):
        n = 2 * k + 1
        assert pc.dimension_law_check(pc.cube(n))[k] == sum(math.comb(n, i) for i in range(k + 1)) == 2 ** (n - 1)


# -------------------------------------------------------------- self-duality


def test_cube3_middle_code_self_dual():
    r = pc.self_duality_report(pc.cube(3), 1)
    assert r.self_dual and r.half_dimension and r.face_parity_ok
    assert r.parity_by_codim == ((1, True), (2, True))
    assert pc.is_self_dual(pc.face_code(pc.cube(3), 1).code) is True


def test_cube3_other_codims_not_self_dual():
    assert not pc.self_duality_report(pc.cube(3), 0).self_dual
    r2 = pc.self_duality_report(pc.cube(3), 2)
    assert not r2.self_dual
    # 2k = 4 exceeds n = 3: the window reaches the vertices, parity fails.
    assert not r2.face_parity_ok


def test_simplex5_never_self_dual():
    for k in range(6):
        assert not pc.self_duality_report(pc.simplex(5), k).self_dual


def test_prism_self_duality_depends_on_parity():
    assert pc.self_duality_report(pc.prism(6), 1).self_dual
    assert not pc.self_duality_report(pc.prism(5), 1).self_dual


def test_self_duality_report_rejects_bad_codim():
    with pytest.raises(pc.InvalidInput):
        pc.self_duality_report(pc.cube(3), 5)


def assert_parity_window_matches_grouping(P: pc.SimplePolytope) -> None:
    for k in range(P.dim + 1):
        expected = tuple(
            (c, all(f.num_vertices % 2 == 0 for f in faces_by_grouping(P, c)))
            for c in range(k, min(2 * k, P.dim) + 1)
        )
        assert pc.self_duality_report(P, k).parity_by_codim == expected, k


def test_parity_window_matches_grouping_on_corpus():
    for entry in pc.corpus():
        assert_parity_window_matches_grouping(entry.build())


@settings(max_examples=25, deadline=None)
@given(text=recipe_texts)
def test_parity_window_matches_grouping_on_random_recipes(text):
    assert_parity_window_matches_grouping(pc.parse_recipe(text).build())


@settings(max_examples=25, deadline=None)
@given(text=recipe_texts)
def test_self_duality_routes_agree_on_random_recipes(text):
    # The report raises TheoremViolation on route disagreement, so
    # surviving the calls is the property.
    P = pc.parse_recipe(text).build()
    for k in range(P.dim + 1):
        pc.self_duality_report(P, k)


def test_self_duality_report_asserts_where_self_duality_occurs(monkeypatch):
    # prism 5 is odd, so its middle code is not self-dual; claimed even, it must be.
    monkeypatch.setattr(facecodes, "is_even", lambda P: True)
    with pytest.raises(pc.TheoremViolation, match="self-dual=False at codimension 1 of a 3-polytope"):
        pc.self_duality_report(pc.prism(5), 1)
    # cube 3's middle code is self-dual; claimed odd, with n <= 2k + 2, it must not be.
    monkeypatch.setattr(facecodes, "is_even", lambda P: False)
    with pytest.raises(pc.TheoremViolation, match="self-dual=True at codimension 1 of a 3-polytope"):
        pc.self_duality_report(pc.cube(3), 1)


def assert_self_dual_exactly_where_proved(P: pc.SimplePolytope) -> None:
    # Proved for every even P, and for every P with n <= 2k + 2: self-dual
    # exactly at n = 2k + 1 on an even P.
    n, even = P.dim, pc.is_even(P)
    for k in range(n + 1):
        if n <= 2 * k + 2 or even:
            assert pc.self_duality_report(P, k).self_dual == (n == 2 * k + 1 and even), k


def test_self_dual_exactly_where_proved_on_corpus():
    for entry in pc.corpus():
        assert_self_dual_exactly_where_proved(entry.build())


@settings(max_examples=25, deadline=None)
@given(text=recipe_texts)
def test_self_dual_exactly_where_proved_on_random_recipes(text):
    assert_self_dual_exactly_where_proved(pc.parse_recipe(text).build())


# ------------------------------------------------------------------ duality


def test_duality_complement_examples():
    P = pc.cube(3)
    assert pc.dual_code(pc.face_code(P, 0).code) == pc.face_code(P, 2).code
    assert pc.dual_code(pc.face_code(P, 1).code) == pc.face_code(P, 1).code
    Q = pc.cube(5)
    assert pc.dual_code(pc.face_code(Q, 1).code) == pc.face_code(Q, 3).code


def test_duality_complement_check_on_even_members():
    for text in ("cube 3", "cube 4", "prism 6", "polygon 8"):
        assert pc.duality_complement_check(pc.parse_recipe(text).build())


def test_duality_complement_inapplicable_for_non_even():
    with pytest.raises(pc.Inapplicable):
        pc.duality_complement_check(pc.simplex(4))


# ------------------------------------------------------------ circ closure


def test_circ_closure_examples():
    assert pc.circ_closure_check(pc.cube(3), 2)
    assert pc.circ_closure_check(pc.cube(3), 1)
    assert pc.circ_closure_check(pc.prism(6), 3)


def test_circ_closure_matches_multiset_oracle_on_corpus():
    checked = 0
    for entry in pc.corpus():
        P = entry.build()
        if not pc.is_even(P):
            continue
        for k in range(1, P.dim + 1):
            assert pc.circ_closure_check(P, k) == closure_by_multisets(P, k), (entry.label, k)
            checked += 1
    assert checked > 0


@settings(max_examples=30, deadline=None)
@given(text=even_recipe_texts)
def test_circ_closure_matches_multiset_oracle_on_random_recipes(text):
    P = pc.parse_recipe(text).build()
    assume(pc.is_even(P))
    for k in range(1, P.dim + 1):
        # The oracle builds C(m + k - 1, k) products; keep it to a few thousand.
        if math.comb(P.num_facets + k - 1, k) <= 5000:
            assert pc.circ_closure_check(P, k) == closure_by_multisets(P, k), (text, k)


def test_circ_closure_on_a_large_prism():
    # 600 vertices and 302 facets: the k = 3 multisets number about 4.6
    # million, the nonzero subset products 1,802.
    P = pc.prism(300)
    assert all(pc.circ_closure_check(P, k) for k in range(1, 4))


def test_circ_closure_guards():
    with pytest.raises(pc.Inapplicable):
        pc.circ_closure_check(pc.simplex(3), 1)
    with pytest.raises(pc.InvalidInput):
        pc.circ_closure_check(pc.cube(3), 0)
    with pytest.raises(pc.InvalidInput):
        pc.circ_closure_check(pc.cube(3), 4)
    with pytest.raises(pc.InvalidInput, match=r"^codimension 9{77}\.\.\. out of range 1\.\.3$"):
        pc.circ_closure_check(pc.cube(3), int("9" * 4000))


# --------------------------------------------------------------- distances


def test_min_distance_bound_examples():
    assert pc.min_distance_bound_check(pc.cube(3)) == (4, 4)
    assert pc.min_distance_bound_check(pc.prism(6)) == (4, 4)
    assert pc.min_distance_bound_check(pc.cube(5)) == (8, 8)


def test_min_distance_bound_inapplicable():
    with pytest.raises(pc.Inapplicable):
        pc.min_distance_bound_check(pc.cube(4))
    with pytest.raises(pc.Inapplicable):
        pc.min_distance_bound_check(pc.simplex(3))


def test_three_polytope_distance_is_exactly_four():
    for text in ("cube 3", "prism 6", "prism 8", "vcut (vcut (cube 3) 0) 0"):
        P = pc.parse_recipe(text).build()
        if not pc.is_even(P):
            continue
        bound, exact = pc.min_distance_bound_check(P)
        assert exact == 4 <= bound


# -------------------------------------------------------------- doubly even


def test_doubly_even_examples():
    def face_sizes_divisible_by_4(P: pc.SimplePolytope) -> bool:
        return all(f.num_vertices % 4 == 0 for f in pc.faces_of_codim(P, (P.dim - 1) // 2))

    assert pc.doubly_even_report(pc.cube(3)) and face_sizes_divisible_by_4(pc.cube(3))
    assert not pc.doubly_even_report(pc.prism(6)) and not face_sizes_divisible_by_4(pc.prism(6))
    assert pc.doubly_even_report(pc.prism(8))


def test_doubly_even_weights_route_agrees_by_enumeration():
    code = pc.face_code(pc.cube(3), 1).code
    assert all(bin(w).count("1") % 4 == 0 for w in all_codewords(code))


def test_doubly_even_report_raises_when_the_routes_disagree(monkeypatch):
    monkeypatch.setattr(facecodes, "_doubly_even", lambda rows: False)
    with pytest.raises(pc.TheoremViolation, match="doubly-even routes disagree"):
        pc.doubly_even_report(pc.cube(3))


def test_doubly_even_inapplicable():
    with pytest.raises(pc.Inapplicable):
        pc.doubly_even_report(pc.cube(4))
    with pytest.raises(pc.Inapplicable):
        pc.doubly_even_report(pc.simplex(5))


# ------------------------------------------------------------- Reed-Muller


def test_reed_muller_check_small_orders():
    assert reed_muller_check(1)
    assert reed_muller_check(2)


def test_reed_muller_check_budget_and_input():
    with pytest.raises(pc.BudgetExceeded):
        reed_muller_check(3)
    with pytest.raises(pc.InvalidInput):
        reed_muller_check(0)


def test_cube3_code_equals_first_order_reed_muller_exactly():
    fc = pc.face_code(pc.cube(3), 1)
    rm = reed_muller(1, 3)
    assert fc.code == rm
    assert all_codewords(fc.code) == all_codewords(rm)
