"""Vector colorings of facets: characteristic data, components, involutions.

A vector coloring assigns each facet a nonzero vector of an
r-dimensional binary vector space, encoded as an integer bitset. The
checks here compute the numeric consequences only; no manifold is ever
materialized. The library once exported these names; only the tests
use them.
"""

from __future__ import annotations

import json
from typing import Iterable

import polycodes as pc
from polycodes._record import Record
from polycodes.gf2 import _eliminate

from helpers import BitVector


class VectorColoring(Record):
    """colors[i] is the nonzero vector on facet i, packed with bit j = coordinate j."""

    r: int
    colors: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.r < 1:
            raise pc.InvalidInput(f"ambient rank must be positive, got {self.r}")
        for i, c in enumerate(self.colors):
            if not 0 < c < 2**self.r:
                raise pc.InvalidInput(
                    f"facet {i} has color {c}, outside the nonzero {self.r}-bit range"
                )


def _rank(r: int, colors: Iterable[int]) -> int:
    return len(_eliminate(colors, (1 << r) - 1)[0])


def _check_facet_count(P: pc.SimplePolytope, mu: VectorColoring) -> None:
    if len(mu.colors) != P.num_facets:
        raise pc.InvalidInput(
            f"coloring has {len(mu.colors)} colors for {P.num_facets} facets"
        )


def validate_characteristic(P: pc.SimplePolytope, lam: VectorColoring) -> bool:
    """True iff at every vertex the dim incident facet colors are independent."""
    _check_facet_count(P, lam)
    if lam.r != P.dim:
        raise pc.InvalidInput(f"ambient rank {lam.r} must equal the dimension {P.dim}")
    return all(
        _rank(lam.r, (lam.colors[i] for i in fs)) == P.dim for fs in P.vertex_facets
    )


def component_count(P: pc.SimplePolytope, mu: VectorColoring) -> int:
    """Number of components of the glued space: 2^(r - rank of the color span)."""
    _check_facet_count(P, mu)
    return 2 ** (mu.r - _rank(mu.r, mu.colors))


class InvolutionReport(Record):
    admits: bool
    fixed_points: int | None
    betti: tuple[int, ...] | None


def admits_regular_m_involution(P: pc.SimplePolytope, lam: VectorColoring) -> InvolutionReport:
    """Whether some group element acts with only isolated fixed points.

    This happens exactly when the coloring's image is n distinct vectors
    forming a basis. In that case the fixed points number |V| and the
    mod-2 Betti numbers are the h-vector.
    """
    if not validate_characteristic(P, lam):
        raise pc.InvalidInput("the coloring is not characteristic for this polytope")
    image = set(lam.colors)
    admits = len(image) == P.dim and _rank(lam.r, image) == P.dim
    if not admits:
        return InvolutionReport(admits=False, fixed_points=None, betti=None)
    if P.dim >= 3 and pc.colorability_report(P) is None:
        raise pc.TheoremViolation(
            "a basis-image characteristic coloring exists on a non-colorable polytope"
        )
    return InvolutionReport(
        admits=True, fixed_points=P.num_vertices, betti=pc.fh_vectors(P).h
    )


def lift_coloring(coloring: pc.Coloring) -> VectorColoring:
    """Send color i to the i-th standard basis vector."""
    return VectorColoring(
        r=coloring.num_colors, colors=tuple(1 << c for c in coloring.colors)
    )


def vector_coloring_to_json(mu: VectorColoring) -> str:
    """Serialize with colors as bit strings, character j = coordinate j."""
    payload = {"r": mu.r, "colors": [BitVector(mu.r, c).to01() for c in mu.colors]}
    return json.dumps(payload, indent=2) + "\n"


def vector_coloring_from_json(source: str) -> VectorColoring:
    try:
        data = json.loads(source)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise pc.InvalidInput(f"bad coloring JSON: {exc}") from exc
    if not isinstance(data, dict) or "r" not in data or "colors" not in data:
        raise pc.InvalidInput("coloring JSON needs the keys 'r' and 'colors'")
    r, texts = data["r"], data["colors"]
    if not isinstance(r, int) or isinstance(r, bool):
        raise pc.InvalidInput("'r' must be an integer")
    if not isinstance(texts, list):
        raise pc.InvalidInput("'colors' must be a list of bit strings")
    colors = []
    for i, text in enumerate(texts):
        if not isinstance(text, str) or len(text) != r or set(text) - {"0", "1"}:
            raise pc.InvalidInput(f"color {i} is not a length-{r} bit string")
        colors.append(BitVector.from01(text).bits)
    return VectorColoring(r=r, colors=tuple(colors))
