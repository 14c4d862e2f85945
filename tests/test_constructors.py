"""Family constructors, the cut operation, and recipe parsing."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings

import polycodes as pc
from polycodes import constructors

from helpers import (
    DUAL_CYCLIC_57_VERTEX_FACETS,
    check_incidence,
    h_from_f_by_polynomial,
    incidence_isomorphic,
    recipe_texts,
)


# ---------------------------------------------------------------- families


def test_simplex_counts():
    for n in (1, 2, 3, 4, 5):
        P = pc.simplex(n)
        assert P.dim == n
        assert P.num_vertices == n + 1
        assert len(P.facets) == n + 1
        # facet i avoids exactly vertex i
        for i, f in enumerate(P.facets):
            assert f == frozenset(range(n + 1)) - {i}


def test_simplex_h_vector_all_ones():
    fh = pc.fh_vectors(pc.simplex(5))
    assert fh.h == (1, 1, 1, 1, 1, 1)


def test_simplex_rejects_dimension_zero():
    with pytest.raises(pc.InvalidInput):
        pc.simplex(0)


def test_polygon_counts_and_cyclic_edges():
    P = pc.polygon(7)
    assert P.dim == 2
    assert P.num_vertices == 7
    assert P.facets[3] == frozenset({3, 4})
    assert P.facets[6] == frozenset({6, 0})


def test_triangle_is_the_two_simplex():
    assert incidence_isomorphic(pc.polygon(3), pc.simplex(2))


def test_polygon_rejects_too_few_vertices():
    with pytest.raises(pc.InvalidInput):
        pc.polygon(2)


def test_polygon_even_iff_even_vertex_count():
    assert pc.is_even(pc.polygon(6))
    assert not pc.is_even(pc.polygon(5))


def test_cube_counts():
    P = pc.cube(3)
    assert (P.dim, P.num_vertices, len(P.facets)) == (3, 8, 6)
    Q = pc.cube(1)
    assert incidence_isomorphic(Q, pc.segment())


def test_cube_labeling_contract():
    # Vertex v sits on facet 2i or 2i+1 according to bit n-1-i of v.
    P = pc.cube(4)
    for v in range(16):
        for i in range(4):
            bit = (v >> (4 - 1 - i)) & 1
            assert (v in P.facets[2 * i + 1]) == bool(bit)
            assert (v in P.facets[2 * i]) == (not bit)


def test_cube_coords_are_binary_digits():
    P = pc.cube(3)
    assert P.coords is not None
    assert P.coords[5] == (1, 0, 1)
    assert P.coords[0] == (0, 0, 0)


def test_cube_h_vector_is_binomial_row():
    fh = pc.fh_vectors(pc.cube(5))
    assert fh.h == tuple(math.comb(5, i) for i in range(6))


def test_cube_even_simplex_not():
    assert pc.is_even(pc.cube(4))
    for n in (2, 3, 4):
        assert not pc.is_even(pc.simplex(n))


def test_segment_shape():
    P = pc.segment()
    assert (P.dim, P.num_vertices, len(P.facets)) == (1, 2, 2)
    assert P.facets == (frozenset({0}), frozenset({1}))
    assert P.coords == ((0,), (1,))


# ----------------------------------------------------------------- product


def test_square_two_ways():
    assert incidence_isomorphic(
        pc.product(pc.segment(), pc.segment()), pc.polygon(4)
    )


def test_prism_over_square_is_the_cube():
    assert incidence_isomorphic(
        pc.product(pc.polygon(4), pc.segment()), pc.cube(3)
    )


def test_product_counts():
    P = pc.product(pc.polygon(8), pc.segment())
    assert (P.dim, P.num_vertices, len(P.facets)) == (3, 16, 10)


def test_product_vertex_indexing():
    # index(v, w) = v * |V(Q)| + w, P facets first.
    P = pc.product(pc.polygon(3), pc.segment())
    # P facet 0 is edge {0,1} of the triangle, crossed with both endpoints.
    assert P.facets[0] == frozenset({0, 1, 2, 3})
    # Q facet 0 is endpoint 0, giving the even indices.
    assert P.facets[3] == frozenset({0, 2, 4})


def test_product_concatenates_coords():
    P = pc.product(pc.segment(), pc.segment())
    assert P.coords == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_product_h_polynomial_multiplies():
    # h-polynomials are multiplicative under products.
    for A, B in [
        (pc.polygon(5), pc.segment()),
        (pc.cube(2), pc.simplex(2)),
        (pc.polygon(6), pc.cube(2)),
    ]:
        ha = pc.fh_vectors(A).h
        hb = pc.fh_vectors(B).h
        hp = pc.fh_vectors(pc.product(A, B)).h
        conv = [0] * (len(ha) + len(hb) - 1)
        for i, x in enumerate(ha):
            for j, y in enumerate(hb):
                conv[i + j] += x * y
        assert hp == tuple(conv)


def test_prism_is_polygon_times_segment():
    assert incidence_isomorphic(
        pc.prism(6), pc.product(pc.polygon(6), pc.segment())
    )


def test_prism_canonical_facet_order():
    P = pc.prism(6)
    for i in range(6):
        j = (i + 1) % 6
        assert P.facets[i] == frozenset({2 * i, 2 * i + 1, 2 * j, 2 * j + 1})
    assert P.facets[6] == frozenset(range(0, 12, 2))
    assert P.facets[7] == frozenset(range(1, 12, 2))


# ---------------------------------------------------------------- vertex_cut


def test_vertex_cut_counts():
    P = pc.vertex_cut(pc.simplex(3), 0)
    assert (P.dim, P.num_vertices, len(P.facets)) == (3, 6, 5)


def test_vertex_cut_growth_invariant():
    # Cutting one vertex of a simple n-polytope adds n-1 vertices and 1 facet.
    for text in ("simplex 3", "cube 3", "prism 5", "simplex 4"):
        P = pc.parse_recipe(text).build()
        Q = pc.vertex_cut(P, 0)
        assert Q.num_vertices == P.num_vertices + P.dim - 1
        assert len(Q.facets) == len(P.facets) + 1


def test_vertex_cut_every_vertex_of_cube_is_valid():
    P = pc.cube(3)
    for v in range(P.num_vertices):
        Q = pc.vertex_cut(P, v)
        assert check_incidence(Q.dim, Q.facets) == []
        assert Q.num_vertices == 10


def test_vertex_cut_new_facet_is_a_simplex():
    # The cut facet has exactly n vertices, one per edge at the cut vertex.
    for n in (2, 3, 4):
        P = pc.vertex_cut(pc.simplex(n), 0)
        assert len(P.facets[-1]) == n


def test_stacked_cuts_compose():
    P = pc.simplex(3)
    for _ in range(3):
        P = pc.vertex_cut(P, 0)
    assert P.num_vertices == 4 + 3 * 2
    assert len(P.facets) == 4 + 3
    assert check_incidence(P.dim, P.facets) == []


def test_vertex_cut_keeps_exact_coords():
    P = pc.vertex_cut(pc.cube(2), 0)
    assert P.coords is not None
    assert len(P.coords) == P.num_vertices


def test_vertex_cut_rejects_low_dimension():
    with pytest.raises(pc.InvalidInput):
        pc.vertex_cut(pc.segment(), 0)


def test_vertex_cut_rejects_bad_vertex():
    with pytest.raises(pc.InvalidInput):
        pc.vertex_cut(pc.cube(2), 4)
    with pytest.raises(pc.InvalidInput):
        pc.vertex_cut(pc.cube(2), -1)


# ------------------------------------------------------------- dual cyclic


def test_dual_cyclic_counts():
    P = pc.dual_cyclic(5, 7)
    assert (P.dim, P.num_vertices, len(P.facets)) == (5, 12, 7)
    assert check_incidence(P.dim, P.facets) == []


def test_dual_cyclic_facet_sizes():
    # Facet sizes of the dual of C^5(7) alternate between 9 and 8.
    sizes = sorted(len(f) for f in pc.dual_cyclic(5, 7).facets)
    assert sizes == [8, 8, 8, 9, 9, 9, 9]


def test_dual_cyclic_h_vector():
    fh = pc.fh_vectors(pc.dual_cyclic(5, 7))
    assert fh.h == (1, 2, 3, 3, 2, 1)
    assert sum(fh.h) == 12


def test_dual_cyclic_not_realized():
    assert pc.dual_cyclic(5, 7).coords is None


def test_dual_cyclic_57_has_the_vertices_of_the_hand_table():
    # Gale's evenness condition lists the same vertices in another order.
    P = pc.dual_cyclic(5, 7)
    assert sorted(map(sorted, P.vertex_facets)) == sorted(map(list, DUAL_CYCLIC_57_VERTEX_FACETS))
    assert pc.parse_recipe("dualcyclic57").build().facets == P.facets


def test_dual_cyclic_vertices_in_combinations_order():
    # C*(d, d + 1) is the d-simplex and C*(2, m) the m-gon.
    assert [sorted(fs) for fs in pc.dual_cyclic(3, 4).vertex_facets] == [
        [0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]
    ]
    assert incidence_isomorphic(pc.dual_cyclic(2, 7), pc.polygon(7))
    assert incidence_isomorphic(pc.dual_cyclic(4, 5), pc.simplex(4))


@pytest.mark.parametrize("d, m", [(1, 4), (2, 2), (5, 5), (6, 4)])
def test_dual_cyclic_rejects_bad_arguments(d, m):
    with pytest.raises(pc.InvalidInput):
        pc.dual_cyclic(d, m)


# ------------------------------------------------------------ size limit


def _fail_to_build(*args, **kwargs):
    raise AssertionError("a constructor ran")


@pytest.fixture
def constructors_that_fail(monkeypatch):
    for op, (kinds, _, shape) in list(constructors._OPS.items()):
        monkeypatch.setitem(constructors._OPS, op, (kinds, _fail_to_build, shape))


@pytest.mark.parametrize(
    "text, refusal",
    [
        ("cube 15", "cube 15 needs 491520 vertex-facet"),  # 15 x 2^15
        ("cube 30", "cube 30 needs 32212254720 vertex-facet"),
        ("cube 100000", "cube 100000 needs over 2^80 vertex-facet"),  # 2^64 vertices at least
        ("polygon 100000000", "polygon 100000000 needs 200000000 vertex-facet"),
        ("polygon 131073", "polygon 131073 needs 262146 vertex-facet"),
        ("prism 43691", "prism 43691 needs 262146 vertex-facet"),  # 3 x 2 x 43691
        ("simplex 512", "simplex 512 needs 262656 vertex-facet"),  # 512 x 513
        ("product (cube 7) (cube 8)", "needs 491520 vertex-facet"),
        ("vcut (cube 15) 0", "cube 15 needs 491520 vertex-facet"),
        ("vcut (polygon 131072) 0", "needs 262146 vertex-facet"),  # 2 x (131072 - 1 + 2)
        ("product (segment) (dualcyclic 8 40)", "dualcyclic 8 40 tries C(40, 8) subsets"),
        ("dualcyclic 2 725", "dualcyclic 2 725 tries C(725, 2) subsets"),  # 262450
        ("dualcyclic 60 120", "dualcyclic 60 120 tries C(120, 60) subsets"),
        ("dualcyclic 512 513", "dualcyclic 512 513 needs 262656 vertex-facet"),  # a simplex
        # C*(4, 40) has 40/38 x C(38, 2) = 740 vertices: 10 x 740 x 64.
        ("product (dualcyclic 4 40) (cube 6)", "needs 473600 vertex-facet"),
    ],
)
def test_recipes_over_the_size_limit_are_refused_before_building(
    text, refusal, constructors_that_fail
):
    with pytest.raises(pc.BudgetExceeded) as info:
        pc.parse_recipe(text).build()
    assert refusal in str(info.value)
    assert str(info.value).endswith("over the budget of 2^18 = 262144")


@pytest.mark.parametrize(
    "text",
    [
        "cube 14",
        "polygon 131072",
        "vcut (cube 14) 0",
        "product (cube 7) (cube 7)",
        "dualcyclic 2 724",
        "dualcyclic 8 20",
        "product (dualcyclic 4 40) (cube 5)",
        "simplex 511",
        "dualcyclic 511 512",
    ],
)
def test_recipes_at_the_size_limit_reach_the_constructors(text, constructors_that_fail):
    with pytest.raises(AssertionError, match="a constructor ran"):
        pc.parse_recipe(text).build()


def test_dual_cyclic_applies_the_size_limit_itself(monkeypatch):
    monkeypatch.setattr(constructors, "validate", _fail_to_build)
    with pytest.raises(pc.BudgetExceeded, match=r"dualcyclic 9 30 tries C\(30, 9\) subsets"):
        pc.dual_cyclic(9, 30)
    with pytest.raises(pc.BudgetExceeded, match="dualcyclic 512 513 needs 262656 vertex-facet"):
        pc.dual_cyclic(512, 513)


@settings(max_examples=40, deadline=None)
@given(text=recipe_texts)
def test_recipe_size_is_worked_out_from_the_tree(text):
    P = pc.parse_recipe(text).build()
    assert pc.parse_recipe(text)._shape() == (P.dim, P.num_vertices)


def test_dual_cyclic_vertex_count_is_the_facet_count_of_the_cyclic_polytope():
    for m in range(3, 13):
        for d in range(2, m):
            assert constructors._dual_cyclic_shape(d, m) == (d, pc.dual_cyclic(d, m).num_vertices)


def test_deep_recipes_are_invalid_input():
    deep = "segment"
    for _ in range(1200):
        deep = f"product ({deep}) (segment)"
    with pytest.raises(pc.InvalidInput, match="nested too deeply"):
        pc.parse_recipe(deep)
    # Refused as it is parsed, like any recipe past the nesting limit; sizing
    # and building it would each take two stack frames per level.
    chain = "cube 3"
    for _ in range(600):
        chain = f"vcut ({chain}) 0"
    with pytest.raises(pc.InvalidInput, match="nested too deeply"):
        pc.parse_recipe(chain)
    # A tree built through the API is not parsed; its build refuses it.
    tree = pc.parse_recipe("cube 3")
    for _ in range(600):
        tree = pc.Recipe("vcut", (tree, 0))
    with pytest.raises(pc.InvalidInput, match="nested too deeply"):
        tree.build()


def test_recipe_depth_has_one_documented_limit():
    def chain(depth: int) -> str:
        text = "segment"
        for _ in range(depth):
            text = f"product ({text}) (segment)"
        return text

    assert constructors._MAX_DEPTH == 200
    recipe = pc.parse_recipe(chain(constructors._MAX_DEPTH))
    # Sizing walks the whole tree at the limit without running out of stack.
    with pytest.raises(pc.BudgetExceeded, match="vertex-facet incidences"):
        recipe.build()
    with pytest.raises(pc.InvalidInput, match="^recipe nested too deeply$"):
        pc.parse_recipe(chain(constructors._MAX_DEPTH + 1))


# Long tokens in each place a message echoes one.
_JUNK = [
    "x" * 1000,
    "cube " + "y" * 1000,
    "cube 3 " + "z" * 1000,
    "product " + "w" * 1000,
    "vcut (cube 3) " + "9" * 1000,
    "polygon -" + "9" * 1000,
    "cube -" + "9" * 1000,
    "dualcyclic " + "9" * 1000 + " 3",
    "dualcyclic 3 " + "9" * 1000,
    "dualcyclic " + "8" * 1000 + " " + "9" * 1000,
]


@pytest.mark.parametrize("text", _JUNK, ids=lambda t: t[:12])
def test_recipe_messages_clip_what_they_echo(text):
    with pytest.raises((pc.InvalidInput, pc.BudgetExceeded)) as info:
        pc.parse_recipe(text).build()
    assert len(str(info.value)) <= 400  # at most four echoed tokens of 80 characters


def test_recipe_messages_clip_the_shape_of_api_trees():
    with pytest.raises(pc.InvalidInput) as info:
        pc.Recipe("q" * 1000).build()
    assert str(info.value) == f"unknown recipe op '{'q' * 76}..."
    with pytest.raises(pc.InvalidInput) as info:
        pc.Recipe("cube", ("9" * 1000,)).build()
    assert len(str(info.value)) <= 200


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty recipe"),
        ("cube", "recipe op 'cube' is missing arguments"),
        ("cube x", "expected an integer after 'cube', got 'x'"),
        ("hypercube 3", "unknown recipe op 'hypercube'"),
        ("vcut cube 3", "expected '(' for a sub-recipe of 'vcut', got 'cube'"),
        ("cube 3 4 5", "trailing tokens in recipe: '4 5'"),
        ("polygon 2", "polygon needs at least 3 vertices, got 2"),
        ("vcut (cube 3) 8", "vertex 8 out of range 0..7"),
        ("dualcyclic 5 5", "dualcyclic needs 2 <= D < M, got D = 5, M = 5"),
    ],
)
def test_short_recipes_keep_their_messages_whole(text, message):
    with pytest.raises(pc.InvalidInput) as info:
        pc.parse_recipe(text).build()
    assert str(info.value) == message


# ------------------------------------------------------------------ recipes


def test_recipe_text_round_trips():
    for text in (
        "segment",
        "cube 3",
        "prism 8",
        "product (polygon 6) (cube 2)",
        "vcut (vcut (simplex 3) 0) 0",
        "dualcyclic57",
        "dualcyclic 4 7",
    ):
        r = pc.parse_recipe(text)
        assert r.text() == text
        assert str(r) == text
        built = r.build()
        assert check_incidence(built.dim, built.facets) == []


def test_recipe_build_names_the_polytope_by_its_text():
    for text in (
        "segment",
        "dualcyclic57",
        "dualcyclic 4 7",
        "simplex 3",
        "polygon 5",
        "cube 3",
        "prism 8",
        "product (polygon 6) (cube 2)",
        "vcut (product (segment) (prism 3)) 2",
    ):
        assert pc.parse_recipe(text).build().name == text


@pytest.mark.parametrize(
    "recipe",
    [
        pc.Recipe("bogus"),
        pc.Recipe("cube", ()),
        pc.Recipe("cube", (3, 4)),
        pc.Recipe("product", (3, 4)),
        pc.Recipe("vcut", (pc.Recipe("cube", (3,)), pc.Recipe("cube", (3,)))),
        pc.Recipe("dualcyclic", (4,)),
        pc.Recipe("dualcyclic", (7, 4)),
    ],
    ids=str,
)
def test_recipe_build_rejects_malformed_trees(recipe):
    with pytest.raises(pc.InvalidInput):
        recipe.build()


def test_recipe_build_matches_direct_calls():
    assert incidence_isomorphic(
        pc.parse_recipe("product (polygon 4) (segment)").build(), pc.cube(3)
    )


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "dodecahedron",
        "cube",
        "cube x",
        "cube 3 4",
        "product (cube 2)",
        "product (cube 2) cube 2",
        "vcut (cube 2) (cube 2)",
        "product ((cube 2) (cube 2)",
        "dualcyclic 4",
        "dualcyclic 4 x",
    ],
)
def test_recipe_parse_errors(bad):
    with pytest.raises(pc.InvalidInput):
        pc.parse_recipe(bad)


@settings(max_examples=40, deadline=None)
@given(text=recipe_texts)
def test_random_recipes_build_valid_simple_polytopes(text):
    P = pc.parse_recipe(text).build()
    assert check_incidence(P.dim, P.facets) == []
    for fs in P.vertex_facets:
        assert len(fs) == P.dim
