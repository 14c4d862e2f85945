"""Constructors for the standard simple polytopes and a small recipe language.

Every constructor returns a validated SimplePolytope. Realizations are
exact rational coordinates; the combinatorics never depends on them.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record
from .errors import InvalidInput
from .polytope import SimplePolytope, validate, vertex_neighbors

__all__ = [
    "Recipe",
    "cube",
    "dual_cyclic_5_7",
    "parse_recipe",
    "polygon",
    "prism",
    "product",
    "segment",
    "simplex",
    "vertex_cut",
]


def _rename(P: SimplePolytope, name: str) -> SimplePolytope:
    # The copy differs only in its name, so everything derived so far still holds.
    Q = P._replace(name=name)
    Q._derived.update(P._derived)
    return Q


def simplex(n: int) -> SimplePolytope:
    """n-simplex; facet i is the complement of vertex i.

    Realized as the convex hull of the origin and the standard basis.
    """
    if n < 1:
        raise InvalidInput(f"simplex dimension must be >= 1, got {n}")
    facets = [[v for v in range(n + 1) if v != i] for i in range(n + 1)]
    coords = [tuple(Fraction(0) for _ in range(n))]
    for j in range(n):
        coords.append(tuple(Fraction(1 if i == j else 0) for i in range(n)))
    return validate(n, facets, coords=coords, name=f"simplex {n}")


def polygon(m: int) -> SimplePolytope:
    """m-gon; facet i is the edge {i, i+1 mod m}.

    Realized with exact rational points on the unit circle, in convex
    position and in the combinatorial cyclic order: vertex i is the
    point with half-angle tangent i.
    """
    if m < 3:
        raise InvalidInput(f"polygon needs at least 3 vertices, got {m}")
    facets = [[i, (i + 1) % m] for i in range(m)]
    coords = []
    for i in range(m):
        t = Fraction(i)
        den = 1 + t * t
        coords.append(((1 - t * t) / den, 2 * t / den))
    return validate(2, facets, coords=coords, name=f"polygon {m}")


def cube(n: int) -> SimplePolytope:
    """n-cube with vertices the binary strings of length n in counting order.

    Vertex v has coordinate i equal to the binary digit of weight
    2^(n-1-i) of v. Facet 2i is {coordinate i = 0}, facet 2i+1 is
    {coordinate i = 1}. This labeling is the contract that aligns the
    face codes of cube(2k+1) with the Reed-Muller codes.
    """
    if n < 1:
        raise InvalidInput(f"cube dimension must be >= 1, got {n}")
    nv = 1 << n
    facets = []
    for i in range(n):
        facets.append([v for v in range(nv) if not (v >> (n - 1 - i)) & 1])
        facets.append([v for v in range(nv) if (v >> (n - 1 - i)) & 1])
    coords = [tuple(Fraction((v >> (n - 1 - i)) & 1) for i in range(n)) for v in range(nv)]
    return validate(n, facets, coords=coords, name=f"cube {n}")


def segment() -> SimplePolytope:
    """The 1-cube: two vertices, facet i = {i}."""
    return _rename(cube(1), "segment")


def product(P: SimplePolytope, Q: SimplePolytope) -> SimplePolytope:
    """Cartesian product; vertex (v, w) gets index v * |V(Q)| + w.

    Facets are F x V(Q) for facets F of P, in P's order, followed by
    V(P) x G for facets G of Q. Coordinates concatenate when both
    factors carry them.
    """
    nq = Q.num_vertices
    index = lambda v, w: v * nq + w
    facets = [
        [index(v, w) for v in sorted(f) for w in range(nq)] for f in P.facets
    ] + [
        [index(v, w) for v in range(P.num_vertices) for w in sorted(g)] for g in Q.facets
    ]
    coords = None
    if P.coords is not None and Q.coords is not None:
        coords = [
            P.coords[v] + Q.coords[w] for v in range(P.num_vertices) for w in range(nq)
        ]
    name = None
    if P.name and Q.name:
        name = f"product ({P.name}) ({Q.name})"
    return validate(P.dim + Q.dim, facets, coords=coords, name=name)


def prism(m: int) -> SimplePolytope:
    """Prism over the m-gon: product(polygon(m), segment)."""
    return _rename(product(polygon(m), segment()), f"prism {m}")


def vertex_cut(P: SimplePolytope, v: int) -> SimplePolytope:
    """Cut vertex v by a hyperplane through the points 1/3 along its edges.

    Vertex v disappears (higher indices shift down by one) and n new
    vertices are appended, one per facet of v in ascending facet order:
    the new vertex for facet f lies on the edge of v avoiding f, so it
    joins every facet of v except f plus the new facet, which is
    appended last. The 1/3 cut always separates v strictly from the
    other vertices, so the realization stays exact.
    """
    if P.dim < 2:
        raise InvalidInput("cutting a vertex needs dimension at least 2")
    if not 0 <= v < P.num_vertices:
        raise InvalidInput(f"vertex {v} out of range 0..{P.num_vertices - 1}")
    n = P.dim
    vfacets = sorted(P.vertex_facets[v])
    # The edge of v avoiding facet f ends at the one neighbor not on f.
    neighbor_along = [
        next(w for w in vertex_neighbors(P)[v] if dropped not in P.vertex_facets[w])
        for dropped in vfacets
    ]

    relabel = lambda x: x - 1 if x > v else x
    new_index = {dropped: P.num_vertices - 1 + j for j, dropped in enumerate(vfacets)}
    facets = []
    for t, fac in enumerate(P.facets):
        new_fac = [relabel(x) for x in fac if x != v]
        if t in new_index:
            new_fac.extend(new_index[dropped] for dropped in vfacets if dropped != t)
        facets.append(new_fac)
    facets.append([new_index[dropped] for dropped in vfacets])

    coords = None
    if P.coords is not None:
        old = list(P.coords)
        kept = [old[x] for x in range(P.num_vertices) if x != v]
        cut_points = []
        for j, dropped in enumerate(vfacets):
            u = old[neighbor_along[j]]
            base = old[v]
            cut_points.append(tuple(a + (b - a) / 3 for a, b in zip(base, u)))
        coords = kept + cut_points
    return validate(n, facets, coords=coords, name=None)


# Vertex-facet incidence of the simple 5-polytope with 7 facets dual to
# the cyclic polytope C^5(7): each row lists the 5 facets through one of
# the 12 vertices. No exact rational realization ships with it.
_DUAL_CYCLIC_57_VERTEX_FACETS = (
    (0, 1, 2, 3, 4),
    (0, 1, 2, 3, 6),
    (0, 1, 2, 5, 6),
    (0, 1, 4, 5, 6),
    (0, 3, 4, 5, 6),
    (2, 3, 4, 5, 6),
    (0, 2, 3, 4, 5),
    (1, 2, 3, 4, 6),
    (0, 1, 3, 4, 6),
    (0, 2, 3, 5, 6),
    (0, 1, 2, 4, 5),
    (1, 2, 4, 5, 6),
)


def dual_cyclic_5_7() -> SimplePolytope:
    """Dual of the cyclic 5-polytope with 7 facets: 12 vertices, 7 facets."""
    facets = [
        [v for v, fs in enumerate(_DUAL_CYCLIC_57_VERTEX_FACETS) if t in fs] for t in range(7)
    ]
    return validate(5, facets, name="dualcyclic57")


class Recipe(Record):
    """Expression tree over the constructors, with a parsable text form."""

    op: str
    args: tuple = ()

    def text(self) -> str:
        parts = [self.op]
        for a in self.args:
            parts.append(f"({a.text()})" if isinstance(a, Recipe) else str(a))
        return " ".join(parts)

    def __str__(self) -> str:
        return self.text()

    def build(self) -> SimplePolytope:
        """The polytope, named by this recipe's text."""
        if self.op not in _OPS:
            raise InvalidInput(f"unknown recipe op {self.op!r}")
        kinds, make = _OPS[self.op]
        if len(self.args) != len(kinds) or not all(map(isinstance, self.args, kinds)):
            wanted = ", ".join(kind.__name__ for kind in kinds)
            raise InvalidInput(f"recipe op {self.op!r} takes ({wanted}), got {self.args!r}")
        P = make(*(a.build() if isinstance(a, Recipe) else a for a in self.args))
        return P if P.name == self.text() else _rename(P, self.text())


# Per recipe op: the kinds of its arguments and its constructor.
_OPS = {
    "segment": ((), segment),
    "dualcyclic57": ((), dual_cyclic_5_7),
    "simplex": ((int,), simplex),
    "polygon": ((int,), polygon),
    "cube": ((int,), cube),
    "prism": ((int,), prism),
    "product": ((Recipe, Recipe), product),
    "vcut": ((Recipe, int), vertex_cut),
}


def _tokenize(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _parse_expr(tokens: list[str], pos: int) -> tuple[Recipe, int]:
    if pos >= len(tokens):
        raise InvalidInput("unexpected end of recipe")
    op = tokens[pos]
    if op not in _OPS:
        raise InvalidInput(f"unknown recipe op {op!r}")
    pos += 1
    args: list = []
    for kind in _OPS[op][0]:
        if pos >= len(tokens):
            raise InvalidInput(f"recipe op {op!r} is missing arguments")
        tok = tokens[pos]
        if kind is int:
            try:
                args.append(int(tok))
            except ValueError:
                raise InvalidInput(f"expected an integer after {op!r}, got {tok!r}") from None
            pos += 1
        else:
            if tok != "(":
                raise InvalidInput(f"expected '(' for a sub-recipe of {op!r}, got {tok!r}")
            sub, pos = _parse_expr(tokens, pos + 1)
            if pos >= len(tokens) or tokens[pos] != ")":
                raise InvalidInput(f"missing ')' after sub-recipe of {op!r}")
            args.append(sub)
            pos += 1
    return Recipe(op, tuple(args)), pos


def parse_recipe(text: str) -> Recipe:
    """Parse strings like 'cube 3', 'prism 8', 'product (polygon 6) (cube 2)'."""
    tokens = _tokenize(text)
    if not tokens:
        raise InvalidInput("empty recipe")
    recipe, pos = _parse_expr(tokens, 0)
    if pos != len(tokens):
        raise InvalidInput(f"trailing tokens in recipe: {' '.join(tokens[pos:])!r}")
    return recipe
