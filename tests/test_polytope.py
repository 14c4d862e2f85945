"""Incidence validation, face enumeration, and fh arithmetic."""

from __future__ import annotations

import itertools
import json
import random
import re
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polycodes as pc
from polycodes import polytope

from helpers import (
    BitVector,
    check_incidence,
    count_levels_walked,
    edges,
    f_vector_by_grouping,
    face_indicator,
    faces_by_global_intersection,
    faces_by_grouping,
    h_from_f_by_polynomial,
    heawood_torus_facets,
    incidence_isomorphic,
    neighbors_by_pair_scan,
    outward_neighbor_map,
    recipe_texts,
    skeleton_connected,
    vertex_set,
)

TETRAHEDRON_FACETS = [{1, 2, 3}, {0, 2, 3}, {0, 1, 3}, {0, 1, 2}]


def test_validate_accepts_tetrahedron():
    P = pc.validate(3, TETRAHEDRON_FACETS)
    assert P.dim == 3 and P.num_vertices == 4 and P.num_facets == 4


def test_validate_rejects_vertex_with_missing_facet():
    cube = pc.cube(3)
    broken = [set(f) for f in cube.facets]
    broken[0].discard(0)
    with pytest.raises(pc.InvalidPolytope) as err:
        pc.validate(3, broken)
    assert any("vertex 0" in reason for reason in err.value.reasons)


def test_validate_accepts_six_prism():
    P = pc.prism(6)
    again = pc.validate(P.dim, [set(f) for f in P.facets])
    assert again.dim == 3 and again.num_facets == 8 and again.num_vertices == 12


def test_validate_rejects_disconnected_union():
    two_triangles = [{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}]
    with pytest.raises(pc.InvalidPolytope) as err:
        pc.validate(2, two_triangles)
    assert any("connect" in reason for reason in err.value.reasons)


def test_validate_rejects_duplicate_vertex_facet_sets():
    doubled = [{0, 1, 4, 5}, {1, 2, 4, 5}, {2, 3, 4, 5}, {3, 0, 4, 5}]
    with pytest.raises(pc.InvalidPolytope):
        pc.validate(3, doubled)


def test_validate_collects_multiple_reasons():
    with pytest.raises(pc.InvalidPolytope) as err:
        pc.validate(3, [{0, 1}, {1, 2}, {2, 0}])
    assert len(err.value.reasons) >= 2


def test_check_incidence_reports_without_raising():
    reasons = check_incidence(2, [{0, 1}, {1, 2}])
    assert reasons
    assert check_incidence(2, [{0, 1}, {1, 2}, {2, 0}]) == []


def _edge_rule_message(v, facets, others):
    return f"vertex {v} shares facets {facets} with {others} other vertices, expected exactly 1"


# Violation lists pinned exactly: text, order and count.
PINNED_VIOLATIONS = [
    (
        3,
        [set(f) - ({0} if i == 0 else set()) for i, f in enumerate(pc.cube(3).facets)],
        ["every vertex must lie in exactly 3 facets; vertex 0 lies in 2 (1 offender(s))"],
    ),
    (
        3,
        [{0, 1, 4, 5}, {1, 2, 4, 5}, {2, 3, 4, 5}, {3, 0, 4, 5}],
        [
            "every vertex must lie in exactly 3 facets; vertex 0 lies in 2 (6 offender(s))",
            "vertices 4 and 5 lie in the same facet set",
        ],
    ),
    (
        2,
        [{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}],
        ["1-skeleton is disconnected (3 of 6 reachable)"],
    ),
    (
        2,
        [{0, 1, 2}, {0, 3}, {1, 3}, {2, 4}, {4}],
        [
            _edge_rule_message(0, [0], 2),
            _edge_rule_message(1, [0], 2),
            _edge_rule_message(2, [0], 2),
            _edge_rule_message(4, [4], 0),
        ],
    ),
    (
        2,
        [{0, 1, 2}, {3, 4, 5}, {6, 7, 8}] + [{v} for v in range(9)],
        [
            _edge_rule_message(0, [3], 0),
            _edge_rule_message(0, [0], 2),
            _edge_rule_message(1, [4], 0),
            _edge_rule_message(1, [0], 2),
            _edge_rule_message(2, [5], 0),
            "(13 further edge violations suppressed)",
        ],
    ),
    (
        2,
        [{0, 1}, {1, 3}, {3, 0}],
        ["vertex indices must cover 0..3; missing [2]"],
    ),
    (
        2,
        [{0, 1}, {1, 12}, {12, 0}],
        ["vertex indices must cover 0..12; missing [2, 3, 4, 5, 6] and 5 more"],
    ),
]


@pytest.mark.parametrize("dim, facets, expected", PINNED_VIOLATIONS)
def test_check_incidence_pins_violation_lists(dim, facets, expected):
    assert check_incidence(dim, facets) == expected
    with pytest.raises(pc.InvalidPolytope) as err:
        pc.validate(dim, facets)
    assert list(err.value.reasons) == expected


def test_validate_refuses_inputs_over_the_size_limit():
    # The size is dimension x vertex count, known before any per-vertex list
    # is built, so a huge dimension over two vertices is refused at once.
    with pytest.raises(pc.BudgetExceeded) as info:
        pc.validate(10**6, [[0], [1]])
    assert str(info.value) == (
        "the polytope needs 2000000 vertex-facet incidences, over the budget of 2^18 = 262144"
    )
    with pytest.raises(pc.BudgetExceeded, match=r"needs over 2\^100 vertex-facet incidences"):
        pc.validate(10**30, [[0], [1]])
    # At the limit the other checks run as before.
    assert check_incidence(2**17, [[0], [1]]) == [
        "a 131072-polytope needs at least 131073 facets, got 2",
        "every vertex must lie in exactly 131072 facets; vertex 0 lies in 1 (2 offender(s))",
    ]


def test_recipes_and_validate_share_one_size_limit():
    from polycodes import constructors

    assert constructors._MAX_INCIDENCES is polytope._MAX_INCIDENCES == 1 << 18


def test_unhashable_vertex_indices_are_invalid():
    assert check_incidence(2, [[0, 1], [1, 2], [2, [0]]]) == [
        "vertex indices must be nonnegative integers, got [0]"
    ]


def test_missing_vertex_indices_are_counted_not_listed():
    reasons = check_incidence(2, [{0, 1}, {1, 200_000}, {200_000, 0}])
    assert reasons == [
        "vertex indices must cover 0..200000; missing [2, 3, 4, 5, 6] and 199993 more"
    ]


def test_faces_of_codim_counts_on_cube():
    P = pc.cube(3)
    facets = pc.faces_of_codim(P, 1)
    assert len(facets) == 6
    assert all(f.num_vertices == 4 for f in facets)
    assert len(pc.faces_of_codim(P, 2)) == 12
    vertices = pc.faces_of_codim(P, 3)
    assert sorted(min(vertex_set(f)) for f in vertices) == list(range(8))


def test_faces_of_codim_on_six_prism():
    sizes = sorted(f.num_vertices for f in pc.faces_of_codim(pc.prism(6), 1))
    assert sizes == [4, 4, 4, 4, 4, 4, 6, 6]


def test_codim_one_faces_are_the_input_facets():
    for P in (pc.cube(3), pc.prism(6), pc.simplex(4)):
        assert [vertex_set(f) for f in pc.faces_of_codim(P, 1)] == list(P.facets)


@pytest.mark.parametrize(
    "recipe", ["simplex 3", "cube 3", "prism 6", "product (simplex 2) (cube 2)", "dualcyclic57"]
)
def test_faces_match_global_intersection_oracle(recipe):
    P = pc.parse_recipe(recipe).build()
    for k in range(P.dim + 1):
        oracle = faces_by_global_intersection(P, k)
        computed = {f.defining_facets: vertex_set(f) for f in pc.faces_of_codim(P, k)}
        assert computed == oracle


def assert_walk_matches_grouping(text: str) -> None:
    """The face walk against the old grouping on every k, from the top on
    fresh instances and, on one instance, resuming from the faces stored
    one codimension up."""
    P = pc.parse_recipe(text).build()
    expected = [faces_by_grouping(P, k) for k in range(P.dim + 1)]
    for k in reversed(range(P.dim + 1)):
        assert pc.faces_of_codim(pc.parse_recipe(text).build(), k) == expected[k]
    for k, grouped in enumerate(expected):
        walked = pc.faces_of_codim(P, k)
        assert [f.defining_facets for f in walked] == [f.defining_facets for f in grouped]
        assert [vertex_set(f) for f in walked] == [vertex_set(f) for f in grouped]
        assert walked == grouped
    assert pc.fh_vectors(P).f == f_vector_by_grouping(P)
    if P.dim >= 3:
        assert pc.is_even(P) == all(f.num_vertices % 2 == 0 for f in expected[P.dim - 2])


def test_face_walk_matches_grouping_on_corpus():
    for entry in pc.corpus():
        assert_walk_matches_grouping(entry.label)


@pytest.mark.parametrize("text", ["cube 9", "vcut (vcut (cube 5) 0) 3"])
def test_face_walk_matches_grouping_on_larger_inputs(text):
    assert_walk_matches_grouping(text)


@settings(deadline=None, max_examples=25)
@given(recipe_texts)
def test_face_walk_matches_grouping_on_random_recipes(text):
    assert_walk_matches_grouping(text)


def assert_requests_commute(text: str, seed: int) -> None:
    """Faces, f-vector, evenness and parity windows asked in a seeded order
    on one instance, against the grouping: each request for faces walks
    from the top, and the others read the walk's summary, walking from the
    top only when the stored summary stops short."""
    P = pc.parse_recipe(text).build()
    n = P.dim
    expected = [faces_by_grouping(P, k) for k in range(n + 1)]
    even = [all(f.num_vertices % 2 == 0 for f in faces) for faces in expected]
    requests = [("faces", k) for k in range(n + 1)] + [("window", k) for k in range(n + 1)]
    requests += [("fh", n), ("even", n)]
    random.Random(seed).shuffle(requests)
    for kind, k in requests:
        if kind == "faces":
            assert pc.faces_of_codim(P, k) == expected[k]
        elif kind == "window":
            window = tuple((c, even[c]) for c in range(k, min(2 * k, n) + 1))
            assert pc.self_duality_report(P, k).parity_by_codim == window
        elif kind == "fh":
            assert pc.fh_vectors(P).f == tuple(map(len, expected))
        else:
            assert pc.is_even(P) == (n == 1 or even[n - 2])


def test_requests_commute_on_corpus():
    for entry in pc.corpus():
        for seed in range(3):
            assert_requests_commute(entry.label, seed)


@settings(deadline=None, max_examples=25)
@given(recipe_texts, st.integers(0, 2**32))
def test_requests_commute_on_random_recipes(text, seed):
    assert_requests_commute(text, seed)


def test_is_even_walks_only_to_the_two_faces(monkeypatch):
    levels = count_levels_walked(monkeypatch)
    assert pc.is_even(pc.cube(6))
    assert levels == [4]


def test_the_walk_holds_a_path_not_a_level():
    # fh_vectors walks all 3^9 faces of the 9-cube; a walk that held two
    # whole levels peaked at 2.2 MB of allocations, the depth-first walk at 23 KB.
    P = pc.cube(9)
    tracemalloc.start()
    try:
        pc.fh_vectors(P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


def test_a_walk_that_skips_faces_fails_the_skeleton_check():
    # Facet 0 of the 3-cube no longer lists facet 2 above it, so the walk
    # skips their edge; the skeleton still has all 12.
    P = pc.cube(3)
    above = list(polytope._facets_above(P))
    above[0] &= ~(1 << 2)
    P._derived["facets_above"] = tuple(above)
    with pytest.raises(pc.TheoremViolation, match=r"^the face walk found 11 edges, the 1-skeleton has 12$"):
        pc.fh_vectors(P)


def walk_estimate(P: pc.SimplePolytope, k: int) -> int:
    """The face count the walk to codimension k is bounded by, read from its refusal."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polytope, "_MAX_WALK_FACES", 0)
        with pytest.raises(pc.BudgetExceeded) as info:
            pc.faces_of_codim(P, k)
    return int(re.search(r"estimated (\d+) faces", str(info.value)).group(1))


def assert_walk_bound(P: pc.SimplePolytope, exact: bool) -> None:
    f = pc.fh_vectors(P).f
    for k in range(P.dim + 1):
        estimate, faces = walk_estimate(P, k), sum(f[: k + 1])
        assert estimate == faces if exact else estimate >= faces, k


def test_walk_bound_is_exact_on_cubes_prisms_and_polygon_products():
    for text in ("cube 7", "prism 9", "product (polygon 5) (polygon 7)", "product (polygon 6) (cube 3)"):
        assert_walk_bound(pc.parse_recipe(text).build(), exact=True)


def test_walk_bound_never_undercounts_on_corpus():
    for entry in pc.corpus():
        assert_walk_bound(entry.build(), exact=False)
    # Cut vertices break the count's exactness, not its bound: 999 against 853 faces.
    assert walk_estimate(pc.parse_recipe("vcut (vcut (cube 6) 0) 9").build(), 6) == 999


@settings(deadline=None, max_examples=50)
@given(recipe_texts)
def test_walk_bound_never_undercounts_on_random_recipes(text):
    assert_walk_bound(pc.parse_recipe(text).build(), exact=False)


def test_faces_of_codim_rejects_bad_codim():
    with pytest.raises(pc.InvalidInput):
        pc.faces_of_codim(pc.cube(3), 4)


def test_faces_over_the_store_budget_are_refused_and_not_stored(monkeypatch):
    # The 4-cube has 24 codimension-2 faces of 16 vertices: 384 mask bits.
    monkeypatch.setattr(polytope, "_MAX_MASK_BITS", 1 << 9)
    assert len(pc.faces_of_codim(pc.cube(4), 2)) == 24
    monkeypatch.setattr(polytope, "_MAX_MASK_BITS", 1 << 8)
    P = pc.cube(4)
    with pytest.raises(pc.BudgetExceeded, match=r"^storing the codimension-2 faces needs over 2\^8 "):
        pc.faces_of_codim(P, 2)
    assert ("faces", 2) not in P._derived
    # Walks that store no faces pay nothing: the summary reaches the vertices.
    assert pc.fh_vectors(P).f == (1, 8, 24, 32, 16)
    assert len(pc.faces_of_codim(P, 1)) == 8  # 128 mask bits


def test_face_indicator_of_whole_polytope_and_vertex():
    P = pc.cube(3)
    whole = pc.faces_of_codim(P, 0)[0]
    assert face_indicator(P, whole) == BitVector.ones(8)
    first_vertex = pc.faces_of_codim(P, 3)[0]
    assert face_indicator(P, first_vertex).weight == 1


def test_indicator_products_match_set_intersections():
    P = pc.cube(3)
    for i, j in itertools.combinations(range(P.num_facets), 2):
        u = BitVector.from_support(8, P.facets[i])
        v = BitVector.from_support(8, P.facets[j])
        assert set((u & v).support) == set(P.facets[i] & P.facets[j])


def test_asymmetric_h_vector_raises_on_the_heawood_torus_map():
    # The dual of the 7-vertex torus triangulation passes every local
    # check, but no simple polytope has its f-vector (1, 7, 21, 14).
    P = pc.validate(3, heawood_torus_facets())
    assert (P.num_vertices, P.num_facets) == (14, 7)
    with pytest.raises(pc.InvalidPolytope, match=r"h-vector \(1, 4, 10, -1\) is not symmetric"):
        pc.fh_vectors(P)


def test_fh_vectors_on_pinned_examples():
    assert pc.fh_vectors(pc.cube(3)) == pc.FHVectors(f=(1, 6, 12, 8), h=(1, 3, 3, 1))
    assert pc.fh_vectors(pc.simplex(3)) == pc.FHVectors(f=(1, 4, 6, 4), h=(1, 1, 1, 1))
    assert pc.fh_vectors(pc.dual_cyclic(5, 7)).h == (1, 2, 3, 3, 2, 1)


@pytest.mark.parametrize("entry", pc.corpus(), ids=lambda e: e.label)
def test_fh_vectors_match_polynomial_oracle(entry):
    P = entry.build()
    fh = pc.fh_vectors(P)
    assert fh.h == h_from_f_by_polynomial(fh.f)
    assert fh.h == tuple(reversed(fh.h))
    assert fh.h[0] == 1
    if P.dim >= 1:
        assert fh.h[1] == P.num_facets - P.dim
    assert sum(fh.h) == P.num_vertices
    assert fh.f[-1] == P.num_vertices


def test_edges_on_small_examples():
    cube_edges = edges(pc.cube(3))
    assert len(cube_edges) == 12
    degree = [0] * 8
    for u, w in cube_edges:
        degree[u] += 1
        degree[w] += 1
    assert degree == [3] * 8
    penta = edges(pc.polygon(5))
    assert len(penta) == 5
    assert len(edges(pc.prism(6))) == 18


def test_edges_equal_codim_n_minus_1_faces():
    for P in (pc.cube(3), pc.prism(6), pc.simplex(4)):
        face_sets = {vertex_set(f) for f in pc.faces_of_codim(P, P.dim - 1)}
        assert {frozenset(e) for e in edges(P)} == face_sets


@pytest.mark.parametrize("entry", pc.corpus(), ids=lambda e: e.label)
def test_neighbors_and_edges_match_pair_scan_oracle(entry):
    P = entry.build()
    oracle = neighbors_by_pair_scan(P)
    assert pc.vertex_neighbors(P) == oracle
    assert edges(P) == tuple((u, w) for u in range(P.num_vertices) for w in oracle[u] if u < w)


def assert_edge_facets_are_the_set_differences(P: pc.SimplePolytope) -> None:
    # The oracle: the edge v-w leaves the one facet of v that w is not on.
    left = polytope._edge_facets(P)
    vf = P.vertex_facets
    for v, (neighbors, facets) in enumerate(zip(pc.vertex_neighbors(P), left)):
        assert len(neighbors) == len(facets) == P.dim
        for w, facet in zip(neighbors, facets):
            assert {facet} == vf[v] - vf[w]
    # A copy that carries no derived data recomputes the same map.
    assert polytope._edge_facets(P._replace(name="copy")) == left


@pytest.mark.parametrize("entry", pc.corpus(), ids=lambda e: e.label)
def test_edge_facets_are_the_set_differences_on_corpus(entry):
    assert_edge_facets_are_the_set_differences(entry.build())


@settings(deadline=None, max_examples=25)
@given(recipe_texts)
def test_edge_facets_are_the_set_differences_on_random_recipes(text):
    assert_edge_facets_are_the_set_differences(pc.parse_recipe(text).build())


@settings(deadline=None, max_examples=25)
@given(recipe_texts)
def test_neighbors_match_pair_scan_oracle_on_random_recipes(text):
    P = pc.parse_recipe(text).build()
    oracle = neighbors_by_pair_scan(P)
    assert pc.vertex_neighbors(P) == oracle
    # A copy that carries no derived data recomputes the same neighbors.
    assert pc.vertex_neighbors(P._replace(name="copy")) == oracle


def test_derived_data_is_not_part_of_equality_or_hash():
    P, Q = pc.cube(3), pc.cube(3)
    pc.face_code(P, 1)
    pc.fh_vectors(P)
    assert P == Q and hash(P) == hash(Q) and repr(P) == repr(Q)


def test_outward_map_square_facet_of_hexagonal_prism():
    out = outward_neighbor_map(pc.prism(6), 2)
    assert out.as_dict() == {4: 2, 5: 3, 6: 8, 7: 9}
    assert out.injective


def test_outward_map_on_cube_hits_opposite_facet():
    P = pc.cube(3)
    for facet in range(6):
        out = outward_neighbor_map(P, facet)
        assert out.injective and out.image_is_complement
        opposite = facet + 1 if facet % 2 == 0 else facet - 1
        assert set(out.as_dict().values()) == set(P.facets[opposite])


def test_outward_map_on_simplex_is_not_injective():
    out = outward_neighbor_map(pc.simplex(3), 0)
    assert not out.injective
    assert len(set(out.as_dict().values())) == 1


@pytest.mark.parametrize("entry", pc.corpus(), ids=lambda e: e.label)
def test_outward_map_injective_on_even_members(entry):
    P = entry.build()
    if not pc.is_even(P):
        return
    for facet in range(P.num_facets):
        out = outward_neighbor_map(P, facet)
        assert out.injective
        assert P.num_vertices >= 2 * len(P.facets[facet])


def test_is_even_on_examples():
    assert pc.is_even(pc.cube(4))
    assert not pc.is_even(pc.simplex(3))
    assert not pc.is_even(pc.dual_cyclic(5, 7))
    assert pc.is_even(pc.polygon(6))
    assert not pc.is_even(pc.polygon(7))
    assert pc.is_even(pc.segment())


def test_even_members_have_at_least_2_to_n_vertices():
    for entry in pc.corpus():
        P = entry.build()
        if not pc.is_even(P):
            continue
        assert P.num_vertices >= 2**P.dim
        if P.num_vertices == 2**P.dim:
            assert incidence_isomorphic(P, pc.cube(P.dim))


def test_balinski_connectivity_for_dim_3_members():
    for label in ("cube 3", "prism 6", "vcut (simplex 3) 0"):
        P = pc.parse_recipe(label).build()
        for pair in itertools.combinations(range(P.num_vertices), 2):
            assert skeleton_connected(P, frozenset(pair))


def test_incidence_isomorphic_positive_and_negative():
    assert incidence_isomorphic(pc.prism(4), pc.cube(3))
    assert incidence_isomorphic(pc.polygon(3), pc.simplex(2))
    assert not incidence_isomorphic(pc.prism(6), pc.cube(3))
    assert not incidence_isomorphic(pc.simplex(3), pc.cube(3))


def test_json_roundtrip_with_coordinates():
    P = pc.cube(3)
    blob = pc.polytope_to_json(P)
    Q = pc.polytope_from_json(blob)
    assert Q == P
    data = json.loads(blob)
    assert data["dim"] == 3
    assert len(data["facets"]) == 6
    assert len(data["coords"]) == 8
    assert all(isinstance(x, str) for row in data["coords"] for x in row)


def test_json_roundtrip_without_coordinates():
    P = pc.dual_cyclic(5, 7)
    assert pc.polytope_from_json(pc.polytope_to_json(P)) == P


def test_json_accepts_fraction_strings():
    blob = json.dumps(
        {
            "dim": 1,
            "facets": [[0], [1]],
            "coords": [["-1/3"], ["2/5"]],
        }
    )
    P = pc.polytope_from_json(blob)
    assert P.coords == ((Fraction(-1, 3),), (Fraction(2, 5),))


def test_json_rejects_malformed_inputs():
    with pytest.raises(pc.InvalidInput):
        pc.polytope_from_json("{nope")
    with pytest.raises(pc.InvalidInput):
        pc.polytope_from_json(json.dumps({"dim": 2}))
    with pytest.raises(pc.InvalidPolytope):
        pc.polytope_from_json(json.dumps({"dim": 2, "facets": [[0, 1], [1, 2]]}))
    with pytest.raises(pc.InvalidInput):
        pc.polytope_from_json(
            json.dumps({"dim": 1, "facets": [[0], [1]], "coords": [["x"], ["1"]]})
        )


@pytest.mark.parametrize(
    "document",
    [
        {"dim": True, "facets": [[0], [1]]},
        {"dim": 1, "facets": [[0], [1]], "coords": [[True], [False]]},
    ],
)
def test_json_rejects_booleans_as_numbers(document):
    with pytest.raises(pc.InvalidPolytope):
        pc.polytope_from_json(json.dumps(document))


def test_validate_reads_every_rational_coordinate_form():
    P = pc.validate(1, [[0], [1]], coords=[["-1/3"], [2]])
    assert P.coords == ((Fraction(-1, 3),), (Fraction(2),))
    with pytest.raises(pc.InvalidPolytope) as err:
        pc.validate(1, [[0], [1]], coords=[[True], [0.5], ["1/0"]])
    assert err.value.reasons == ["coords has 3 points for 2 vertices"]
    with pytest.raises(pc.InvalidPolytope) as err:
        pc.validate(1, [[0], [1]], coords=[[0.5], ["1/0"]])
    assert err.value.reasons == [
        "coords[0] entry 0.5 is not rational",
        "coords[1] entry '1/0' is not rational",
    ]
    # A decimal exponent is held to the int-string digit limit, as digits are.
    limit = sys.int_info.default_max_str_digits
    P = pc.validate(1, [[0], [1]], coords=[[f"1e{limit}"], [f"1E-{limit}"]])
    assert P.coords == ((Fraction(10**limit),), (Fraction(1, 10**limit),))
    with pytest.raises(pc.InvalidPolytope) as err:
        pc.validate(1, [[0], [1]], coords=[[f"1e{limit + 1}"], [f"-2.5e-{limit + 1}"]])
    assert err.value.reasons == [
        f"coords[0] entry '1e{limit + 1}' is not rational",
        f"coords[1] entry '-2.5e-{limit + 1}' is not rational",
    ]


def test_json_nested_past_the_recursion_limit_is_invalid_input():
    with pytest.raises(pc.InvalidInput, match="not valid JSON"):
        pc.polytope_from_json("[" * (sys.getrecursionlimit() + 1))


@pytest.mark.parametrize("bad", [True, 1.0, "x"], ids=repr)
def test_json_coordinates_repeating_a_string_still_reject_lookalikes(bad):
    # "1" and 1 are read before each lookalike; a bool, a float or a bad
    # string must not pass as either, and each bad entry is reported.
    square = [[0, 1], [1, 2], [2, 3], [3, 0]]
    coords = [["1", 1], ["1", bad], [bad, "1"], ["0", "1"]]
    with pytest.raises(pc.InvalidPolytope) as err:
        pc.polytope_from_json(json.dumps({"dim": 2, "facets": square, "coords": coords}))
    assert err.value.reasons == [
        f"coords[1] entry {bad!r} is not rational",
        f"coords[2] entry {bad!r} is not rational",
    ]
    good = pc.polytope_from_json(json.dumps({"dim": 2, "facets": square, "coords": [["1", "1"]] * 4}))
    assert good.coords == ((Fraction(1), Fraction(1)),) * 4


@settings(deadline=None, max_examples=25)
@given(recipe_texts)
def test_json_roundtrip_over_random_recipes(text):
    P = pc.parse_recipe(text).build()
    assert pc.polytope_from_json(pc.polytope_to_json(P)) == P
