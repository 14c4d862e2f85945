"""Vector colorings: characteristic checks, components, involution counts."""

from __future__ import annotations

import sys

import pytest

import polycodes as pc

from smallcover import (
    VectorColoring,
    admits_regular_m_involution,
    component_count,
    lift_coloring,
    validate_characteristic,
    vector_coloring_from_json,
    vector_coloring_to_json,
)


def standard_cube_coloring(n: int) -> VectorColoring:
    # Opposite facet pairs share the basis vector of their axis.
    return VectorColoring(r=n, colors=tuple(1 << (i // 2) for i in range(2 * n)))


# ------------------------------------------------------------- validation


def test_vector_coloring_rejects_zero_and_overflow():
    with pytest.raises(pc.InvalidInput):
        VectorColoring(r=2, colors=(1, 0, 2))
    with pytest.raises(pc.InvalidInput):
        VectorColoring(r=2, colors=(1, 4))
    with pytest.raises(pc.InvalidInput):
        VectorColoring(r=0, colors=())


def test_characteristic_examples():
    assert validate_characteristic(pc.cube(3), standard_cube_coloring(3))
    # e1, e2, e3, e1+e2+e3 works on the 3-simplex: any three are independent.
    lam = VectorColoring(r=3, colors=(1, 2, 4, 7))
    assert validate_characteristic(pc.simplex(3), lam)


def test_equal_colors_at_a_shared_vertex_fail():
    lam = VectorColoring(r=3, colors=(1, 2, 4, 1))
    assert not validate_characteristic(pc.simplex(3), lam)


def test_characteristic_guards():
    with pytest.raises(pc.InvalidInput):
        # Rank must match the dimension.
        validate_characteristic(
            pc.cube(3), VectorColoring(r=2, colors=(1, 1, 2, 2, 3, 3))
        )
    with pytest.raises(pc.InvalidInput):
        # Facet count must match.
        validate_characteristic(pc.cube(3), VectorColoring(r=3, colors=(1, 2)))


# -------------------------------------------------------------- components


def test_component_count_full_rank_is_connected():
    assert component_count(pc.cube(3), standard_cube_coloring(3)) == 1


def test_component_count_degenerate_coloring():
    # All facets colored e1 inside rank 3 leaves two free directions.
    mu = VectorColoring(r=3, colors=(1,) * 6)
    assert component_count(pc.cube(3), mu) == 4


def test_component_count_checks_facet_count():
    with pytest.raises(pc.InvalidInput):
        component_count(pc.cube(3), VectorColoring(r=3, colors=(1, 2)))


# ------------------------------------------------------------- involutions


def test_cube3_standard_coloring_admits_involution():
    r = admits_regular_m_involution(pc.cube(3), standard_cube_coloring(3))
    assert r.admits
    assert r.fixed_points == 8
    assert r.betti == (1, 3, 3, 1)


def test_lifted_proper_coloring_admits_involution():
    found = pc.find_coloring(pc.prism(6))
    assert found is not None
    r = admits_regular_m_involution(pc.prism(6), lift_coloring(found))
    assert r.admits
    assert r.fixed_points == 12
    assert r.betti == (1, 5, 5, 1)


def test_simplex_characteristic_coloring_has_no_involution():
    # Characteristic, but the image has 4 vectors, not a basis of 3.
    lam = VectorColoring(r=3, colors=(1, 2, 4, 7))
    r = admits_regular_m_involution(pc.simplex(3), lam)
    assert not r.admits
    assert r.fixed_points is None and r.betti is None


def test_involution_requires_characteristic_input():
    with pytest.raises(pc.InvalidInput):
        admits_regular_m_involution(
            pc.simplex(3), VectorColoring(r=3, colors=(1, 2, 4, 1))
        )


def test_lift_over_colorable_corpus():
    for text in ("cube 3", "cube 4", "prism 6", "prism 8"):
        P = pc.parse_recipe(text).build()
        found = pc.find_coloring(P)
        assert found is not None
        lam = lift_coloring(found)
        assert lam.r == P.dim
        assert validate_characteristic(P, lam)
        # Basis image: a proper dim-coloring uses every color.
        assert admits_regular_m_involution(P, lam).admits


def test_betti_numbers_match_h_vector_by_independent_route():
    P = pc.cube(4)
    r = admits_regular_m_involution(P, standard_cube_coloring(4))
    assert r.betti == pc.fh_vectors(P).h == (1, 4, 6, 4, 1)


# -------------------------------------------------------------------- JSON


def test_vector_coloring_json_round_trip():
    lam = VectorColoring(r=3, colors=(1, 2, 4, 7))
    text = vector_coloring_to_json(lam)
    assert vector_coloring_from_json(text) == lam


def test_vector_coloring_json_bit_convention():
    text = vector_coloring_to_json(VectorColoring(r=3, colors=(1, 6)))
    # Character j is coordinate j: 1 -> "100", 6 -> "011".
    assert '"100"' in text and '"011"' in text


def test_vector_coloring_json_rejects_malformed():
    with pytest.raises(pc.InvalidInput):
        vector_coloring_from_json("not json")
    with pytest.raises(pc.InvalidInput):
        vector_coloring_from_json("[" * (sys.getrecursionlimit() + 1))
    with pytest.raises(pc.InvalidInput):
        vector_coloring_from_json('{"r": 3}')
    with pytest.raises(pc.InvalidInput):
        vector_coloring_from_json('{"r": 3, "colors": ["10"]}')
    with pytest.raises(pc.InvalidInput):
        vector_coloring_from_json('{"r": 3, "colors": ["000"]}')
    with pytest.raises(pc.InvalidInput):
        vector_coloring_from_json('{"r": "3", "colors": []}')
    with pytest.raises(pc.InvalidInput):
        vector_coloring_from_json('{"r": 3, "colors": 5}')
    with pytest.raises(pc.InvalidInput):
        vector_coloring_from_json('{"r": true, "colors": ["1"]}')
