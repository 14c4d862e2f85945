"""Height functions, vertex indices, and basis extraction."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

import polycodes as pc

from helpers import (
    extract_basis_by_lookup,
    face_indicator,
    generic_height_by_fractions,
    height_from_objective,
    reduce,
    vertex_indices_by_fractions,
    vertex_set,
)


def assert_matches_the_fraction_route(P: pc.SimplePolytope, seed: int) -> None:
    """The integer draw, the ranked indices and every k's cut-out faces equal
    the Fraction-compared references."""
    phi = pc.generic_height(P, seed)
    assert phi == generic_height_by_fractions(P, seed)
    assert pc.vertex_indices(P, phi) == vertex_indices_by_fractions(P, phi)
    for k in range(P.dim + 1):
        assert pc.extract_basis(P, phi, k) == extract_basis_by_lookup(P, phi, k)


def test_cube3_binary_objective():
    # Heights 4a+2b+c enumerate 0..7 in vertex order, so the index of a
    # vertex is the number of ones among its coordinates.
    phi = height_from_objective(pc.cube(3), (4, 2, 1))
    assert phi.values == tuple(Fraction(v) for v in range(8))
    assert pc.vertex_indices(pc.cube(3), phi) == tuple(
        bin(v).count("1") for v in range(8)
    )
    assert pc.index_histogram(pc.cube(3), phi) == (1, 3, 3, 1)


def test_simplex_histogram_is_all_ones():
    P = pc.simplex(3)
    phi = height_from_objective(P, (1, 2, 4))
    assert pc.index_histogram(P, phi) == (1, 1, 1, 1)


def test_prism6_histogram():
    P = pc.prism(6)
    phi = pc.generic_height(P, seed=0)
    assert pc.index_histogram(P, phi) == (1, 5, 5, 1)


def test_height_values_are_exact_fractions():
    P = pc.polygon(5)
    phi = height_from_objective(P, (Fraction(1, 3), Fraction(1, 7)))
    assert all(isinstance(v, Fraction) for v in phi.values)
    assert len(set(phi.values)) == 5


def test_objective_length_must_match_dimension():
    with pytest.raises(pc.InvalidInput):
        height_from_objective(pc.cube(3), (1, 2))


def test_unrealized_polytope_has_no_height():
    P = pc.dual_cyclic(5, 7)
    with pytest.raises(pc.Unrealized):
        height_from_objective(P, (1, 2, 3, 4, 5))
    with pytest.raises(pc.Unrealized):
        pc.generic_height(P, seed=0)


def test_degenerate_objective_fails_genericity():
    # The all-zero objective collapses every height to 0.
    with pytest.raises(pc.InvalidInput):
        height_from_objective(pc.cube(3), (0, 0, 0))
    # Equal values apart in vertex order meet once the values are sorted.
    with pytest.raises(pc.InvalidInput, match="vertices 0 and 2 have the same height"):
        pc.HeightFunction((Fraction(1),), (Fraction(0), Fraction(1), Fraction(0)))


def test_rank_sorts_the_values():
    product = pc.parse_recipe("product (polygon 5) (polygon 7)").build()
    cases = [
        (pc.polygon(5), (Fraction(1, 3), Fraction(1, 7))),
        (pc.polygon(5), (Fraction(-2, 3), Fraction(5, 7))),
        (pc.cube(3), (-4, -2, -1)),
        (product, (Fraction(-1, 2), 3, Fraction(7, 5), -2)),
    ]
    heights = [height_from_objective(P, obj) for P, obj in cases]
    heights += [pc.generic_height(product, seed) for seed in range(5)]
    for phi in heights:
        assert sorted(phi.rank) == list(range(len(phi.values)))
        by_rank = sorted(range(len(phi.values)), key=phi.rank.__getitem__)
        assert [phi.values[v] for v in by_rank] == sorted(phi.values)


def test_constant_coordinate_realization_fails_genericity():
    P = pc.validate(
        2,
        [[0, 1], [1, 2], [2, 3], [3, 0]],
        coords=[(0, 0), (0, 1), (1, 1), (1, 0)],
    )
    # Heights along the first axis collide on the vertical edges.
    with pytest.raises(pc.InvalidInput):
        height_from_objective(P, (1, 0))
    # The constructed objective must get past such collisions on its own.
    phi = pc.generic_height(P, seed=0)
    assert pc.index_histogram(P, phi) == (1, 2, 1)


def test_perturbed_objective_keeps_the_order_of_the_draw():
    # Every cube draw ties; the perturbation may only split the draw's ties.
    for text in ("cube 5", "product (polygon 5) (polygon 7)", "vcut (cube 6) 0"):
        P = pc.parse_recipe(text).build()
        for seed in range(5):
            rng = random.Random(seed)
            draw = tuple(rng.randint(-16, 16) for _ in range(P.dim))
            heights = [sum(c * o for c, o in zip(point, draw)) for point in P.coords]
            phi = pc.generic_height(P, seed)
            by_rank = sorted(range(P.num_vertices), key=phi.rank.__getitem__)
            assert [heights[v] for v in by_rank] == sorted(heights)


def test_generic_height_is_deterministic_per_seed():
    P = pc.cube(3)
    assert pc.generic_height(P, seed=7) == pc.generic_height(P, seed=7)


def test_histogram_is_seed_independent():
    for text in ("cube 3", "prism 5", "simplex 4", "vcut (cube 3) 0"):
        P = pc.parse_recipe(text).build()
        h = pc.fh_vectors(P).h
        for seed in range(20):
            phi = pc.generic_height(P, seed=seed)
            assert pc.index_histogram(P, phi) == h


def test_integer_draws_match_the_fraction_route_on_the_corpus():
    for entry in pc.corpus():
        P = entry.build()
        if P.coords is None:
            continue
        for seed in range(5):
            assert_matches_the_fraction_route(P, seed)


def test_integer_draws_match_the_fraction_route_after_retries():
    # At seed 3 the 8-cube's first draw ties, so the perturbed objective is kept.
    assert_matches_the_fraction_route(pc.cube(8), 3)


def test_integer_draws_match_the_fraction_route_on_mixed_denominators():
    # Polygon points have denominators 1 + i^2, so the points of a product
    # are scaled by different common denominators.
    P = pc.parse_recipe("product (polygon 5) (polygon 7)").build()
    assert len({math.lcm(*(c.denominator for c in point)) for point in P.coords}) > 1
    for seed in range(5):
        assert_matches_the_fraction_route(P, seed)


# ------------------------------------------------------------ basis extract


def test_cube3_extracted_facets_span_the_code():
    P = pc.cube(3)
    phi = height_from_objective(P, (4, 2, 1))
    picked = pc.extract_basis(P, phi, 1)
    assert len(picked) == 4
    span = reduce(
        [face_indicator(P, f) for _, f in picked], length=P.num_vertices
    )
    assert span == pc.face_code(P, 1).code


def test_simplex_extraction_is_independent_but_not_spanning():
    P = pc.simplex(3)
    phi = height_from_objective(P, (1, 2, 4))
    picked = pc.extract_basis(P, phi, 1)
    assert len(picked) == 2
    span = reduce(
        [face_indicator(P, f) for _, f in picked], length=P.num_vertices
    )
    assert span.dim == 2 < pc.face_code(P, 1).code.dim == 4


def test_codim_zero_extraction_picks_the_bottom_vertex():
    P = pc.cube(3)
    phi = height_from_objective(P, (4, 2, 1))
    picked = pc.extract_basis(P, phi, 0)
    assert len(picked) == 1
    v, face = picked[0]
    assert v == 0
    assert vertex_set(face) == frozenset(range(8))


def test_top_codim_extraction_selects_every_vertex():
    P = pc.cube(3)
    phi = height_from_objective(P, (4, 2, 1))
    picked = pc.extract_basis(P, phi, 3)
    assert [v for v, _ in picked] == list(range(8))
    assert all(vertex_set(f) == {v} for v, f in picked)


def test_extraction_counts_match_partial_h_sums():
    for text in ("cube 3", "prism 6", "simplex 4"):
        P = pc.parse_recipe(text).build()
        h = pc.fh_vectors(P).h
        phi = pc.generic_height(P, seed=3)
        for k in range(P.dim + 1):
            picked = pc.extract_basis(P, phi, k)
            assert len(picked) == sum(h[: k + 1])


def test_selected_vertex_is_lowest_of_its_face():
    P = pc.prism(6)
    phi = pc.generic_height(P, seed=11)
    for k in range(P.dim + 1):
        for v, face in pc.extract_basis(P, phi, k):
            assert min(vertex_set(face), key=lambda u: phi.values[u]) == v


def test_extract_basis_rejects_bad_codim():
    P = pc.cube(3)
    phi = pc.generic_height(P, seed=0)
    with pytest.raises(pc.InvalidInput):
        pc.extract_basis(P, phi, 4)


def test_height_function_length_checked():
    P = pc.cube(3)
    other = height_from_objective(pc.cube(2), (1, 2))
    for call in (pc.vertex_indices, pc.index_histogram, lambda P, phi: pc.extract_basis(P, phi, 1)):
        with pytest.raises(pc.InvalidInput):
            call(P, other)
