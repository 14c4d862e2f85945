"""Generic linear height functions on realized polytopes.

A height function orients the 1-skeleton; the count of down-edges at a
vertex is its index. Index histograms reproduce the h-vector, and the
lowest-vertex faces picked here give independent face-code vectors.
All arithmetic is exact: a generic objective is constructed, not searched
for, and heights are computed on integers, each point scaled once by the
common denominator of its own coordinates. The kept heights are
``Fraction`` values, sorted once; everything else compares the vertex ranks.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from math import lcm
from operator import mul

from ._record import Record
from .errors import InvalidInput, TheoremViolation, Unrealized, _clip
from .facecodes import face_code
from .gf2 import _ones, _span
from .polytope import (
    Face,
    SimplePolytope,
    _edge_facets,
    _facet_masks,
    fh_vectors,
    is_even,
    vertex_neighbors,
)

__all__ = [
    "HeightFunction",
    "extract_basis",
    "generic_height",
    "index_histogram",
    "vertex_indices",
]


class HeightFunction(Record):
    """Linear objective and its distinct vertex values; ``rank[v]`` is v's place in height order."""

    objective: tuple[Fraction, ...]
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        order = sorted(range(len(self.values)), key=self.values.__getitem__)
        for u, w in zip(order, order[1:]):  # u < w, as the sort is stable
            if self.values[u] == self.values[w]:
                raise InvalidInput(
                    f"vertices {u} and {w} have the same height: their points coincide or the objective is not generic"
                )
        rank = [0] * len(order)
        for r, v in enumerate(order):
            rank[v] = r
        object.__setattr__(self, "rank", tuple(rank))


def _integral(point: tuple[Fraction, ...]) -> tuple[tuple[int, ...], int]:
    """The point times the common denominator of its coordinates, and that denominator."""
    den = lcm(*(c.denominator for c in point))
    return tuple(c.numerator * (den // c.denominator) for c in point), den


def generic_height(P: SimplePolytope, seed: int) -> HeightFunction:
    """A linear objective whose heights separate every two distinct vertex points.

    The seeded draw o in [-16, 16]^n is kept when it separates the vertices.
    Otherwise let M bound the integer-scaled coordinates and D the points'
    denominators, so each nonzero coordinate gap and o.(p - q) is at least
    1/D^2. By Cauchy's root bound, e = (1, t, ..., t^(n-1)) with t = 2MD^2 + 1
    separates all distinct points, and N*o + e with N = 2MD^2 * sum(e) + 1
    keeps o's order where o has one. Coinciding points still tie, which
    HeightFunction rejects as InvalidInput.
    """
    if P.coords is None:
        raise Unrealized("the polytope carries no coordinates")
    points = P.derived("integral_points", lambda: tuple(map(_integral, P.coords)))
    rng = random.Random(seed)
    objective = tuple(rng.randint(-16, 16) for _ in range(P.dim))
    values = [Fraction(sum(map(mul, q, objective)), den) for q, den in points]
    if len(set(values)) < len(values):
        gap = 2 * max(abs(c) for q, _ in points for c in q) * max(den for _, den in points) ** 2
        e = [(gap + 1) ** i for i in range(P.dim)]
        objective = tuple((gap * sum(e) + 1) * o + x for o, x in zip(objective, e))
        values = [Fraction(sum(map(mul, q, objective)), den) for q, den in points]
    return HeightFunction(objective=tuple(map(Fraction, objective)), values=tuple(values))


def _check_height(P: SimplePolytope, phi: HeightFunction) -> None:
    if len(phi.values) != P.num_vertices:
        raise InvalidInput(
            f"height has {len(phi.values)} values for {P.num_vertices} vertices"
        )


def vertex_indices(P: SimplePolytope, phi: HeightFunction) -> tuple[int, ...]:
    """Index of each vertex: how many of its neighbors sit below it."""
    _check_height(P, phi)
    rank = phi.rank
    return tuple(
        sum(1 for w in neighbors if rank[w] < rank[v])
        for v, neighbors in enumerate(vertex_neighbors(P))
    )


def index_histogram(P: SimplePolytope, phi: HeightFunction) -> tuple[int, ...]:
    """Histogram of vertex indices; must reproduce the h-vector."""
    return _histogram(P, vertex_indices(P, phi))


def _histogram(P: SimplePolytope, indices: tuple[int, ...]) -> tuple[int, ...]:
    """How many of ``indices`` are 0, 1, ..., n, checked against the h-vector."""
    histogram = tuple(map(indices.count, range(P.dim + 1)))
    h = fh_vectors(P).h
    if histogram != h:
        raise TheoremViolation(f"index histogram {histogram} differs from h-vector {h}")
    return histogram


def extract_basis(
    P: SimplePolytope, phi: HeightFunction, k: int
) -> list[tuple[int, Face]]:
    """Pick one codimension-k face per vertex of index at most k.

    Each selected vertex v contributes the face spanned by the
    lexicographically smallest (n-k)-subset of its upward edges, cut out of
    the masks of the facets of v that none of those edges leaves. The
    indicators are asserted independent; on even polytopes they must also
    span the codimension-k code. The selected vertex is always the unique
    lowest vertex of its face, which is what forces independence.
    """
    if not 0 <= k <= P.dim:
        raise InvalidInput(f"codimension {_clip(k)} out of range 0..{P.dim}")
    _check_height(P, phi)
    rank, n, vf, masks, left = phi.rank, P.dim, P.vertex_facets, _facet_masks(P), _edge_facets(P)
    selected: list[tuple[int, Face]] = []
    for v, neighbors in enumerate(vertex_neighbors(P)):
        up = [f for w, f in zip(neighbors, left[v]) if rank[w] > rank[v]]  # the facets they leave
        if n - len(up) > k:
            continue
        defining = tuple(sorted(vf[v].difference(up[: n - k])))
        mask = reduce(int.__and__, map(masks.__getitem__, defining), (1 << P.num_vertices) - 1)
        if min(_ones(mask), key=rank.__getitem__) != v:
            raise TheoremViolation(f"vertex {v} is not the lowest vertex of its selected face")
        selected.append((v, Face(k, defining, mask)))
    span = _span(P.num_vertices, [f.vertex_mask for _, f in selected])
    if span.dim != len(selected):
        raise TheoremViolation("selected face indicators are linearly dependent")
    expected = sum(fh_vectors(P).h[: k + 1])
    if len(selected) != expected:
        raise TheoremViolation(f"selected {len(selected)} faces, expected {expected}")
    if is_even(P) and span != face_code(P, k).code:
        raise TheoremViolation(
            "selected faces fail to span the face code of an even polytope"
        )
    return selected
