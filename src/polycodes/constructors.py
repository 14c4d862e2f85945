"""Constructors for the standard simple polytopes and a small recipe language.

Every constructor returns a validated SimplePolytope. Realizations are
exact rational coordinates; the combinatorics never depends on them. The
duals of cyclic polytopes (recipe ``dualcyclic D M``, and ``dualcyclic57``
for D = 5, M = 7) come from Gale's evenness condition and carry none.

A recipe is sized from its tree before anything is built: a node over 2^18
vertex-facet incidences (dimension x vertices; cube 14 has 229,376, and
``validate`` holds every input to the same budget) raises BudgetExceeded, and
so does ``dualcyclic D M`` when it would try over 2^18 subsets. A recipe
nests at most 200 sub-recipes deep (``_MAX_DEPTH``); a deeper one is
refused as it is parsed. Messages echo at most 80 characters of a token.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, pairwise
from math import comb

from ._record import Record
from .errors import InvalidInput, _clip, _over_budget
from .polytope import _MAX_INCIDENCES, SimplePolytope, _edge_facets, validate, vertex_neighbors

__all__ = [
    "Recipe",
    "cube",
    "dual_cyclic",
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
        raise InvalidInput(f"simplex dimension must be >= 1, got {_clip(n)}")
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
        raise InvalidInput(f"polygon needs at least 3 vertices, got {_clip(m)}")
    facets = [[i, (i + 1) % m] for i in range(m)]
    coords = [(Fraction(1 - i * i, 1 + i * i), Fraction(2 * i, 1 + i * i)) for i in range(m)]
    return validate(2, facets, coords=coords, name=f"polygon {m}")


def cube(n: int) -> SimplePolytope:
    """n-cube with vertices the binary strings of length n in counting order.

    Vertex v has coordinate i equal to the binary digit of weight
    2^(n-1-i) of v. Facet 2i is {coordinate i = 0}, facet 2i+1 is
    {coordinate i = 1}. This labeling is the contract that aligns the
    face codes of cube(2k+1) with the Reed-Muller codes.
    """
    if n < 1:
        raise InvalidInput(f"cube dimension must be >= 1, got {_clip(n)}")
    nv = 1 << n
    facets = []
    for i in range(n):
        facets.append([v for v in range(nv) if not (v >> (n - 1 - i)) & 1])
        facets.append([v for v in range(nv) if (v >> (n - 1 - i)) & 1])
    bits = (Fraction(0), Fraction(1))
    coords = [tuple(bits[(v >> (n - 1 - i)) & 1] for i in range(n)) for v in range(nv)]
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
    the new vertex for facet f lies on the edge of v that leaves f (read
    from the skeleton), so it joins every facet of v except f plus the
    new facet, which is appended last. The 1/3 cut always separates v
    strictly from the other vertices, so the realization stays exact.
    """
    if P.dim < 2:
        raise InvalidInput("cutting a vertex needs dimension at least 2")
    if not 0 <= v < P.num_vertices:
        raise InvalidInput(f"vertex {_clip(v)} out of range 0..{P.num_vertices - 1}")
    n = P.dim
    vfacets = sorted(P.vertex_facets[v])

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
        end = dict(zip(_edge_facets(P)[v], vertex_neighbors(P)[v]))  # by the facet left
        base = P.coords[v]
        cut = [tuple(a + (b - a) / 3 for a, b in zip(base, P.coords[end[f]])) for f in vfacets]
        coords = [p for x, p in enumerate(P.coords) if x != v] + cut
    return validate(n, facets, coords=coords, name=None)


# How deep sub-recipes nest: far past any recipe in use, and short of the
# depth where sizing and building a tree would exhaust Python's stack.
_MAX_DEPTH = 200


def _dual_cyclic_shape(d: int, m: int) -> tuple[int, int]:
    # Checks the arguments and the C(m, d) subsets Gale's condition tries,
    # then gives the dimension and vertex count of C*(d, m).
    if not 2 <= d < m:
        raise InvalidInput(f"dualcyclic needs 2 <= D < M, got D = {_clip(d)}, M = {_clip(m)}")
    # C(m, j) rises with j up to m / 2 and C(38, 19) is over the budget, so capping
    # j at 19 keeps the verdict exact but not the count: the refusal shows C(M, D).
    if comb(m, min(d, m - d, 19)) > _MAX_INCIDENCES:
        d, m = _clip(d), _clip(m)
        raise _over_budget(f"dualcyclic {d} {m} tries", f"C({m}, {d})", "subsets", _MAX_INCIDENCES)
    # The vertices are the facets of C^d(m), counted in closed form.
    k = d // 2
    return d, 2 * comb(m - k - 1, k) if d % 2 else m * comb(m - k, k) // (m - k)


def dual_cyclic(d: int, m: int) -> SimplePolytope:
    """Dual of the cyclic polytope C^d(m): a simple d-polytope with m facets, no coordinates.

    Its vertices are the facets of C^d(m), the d-subsets of 0..m-1 that pass
    Gale's evenness condition (between any two indices left out, an even
    number are kept), in ``itertools.combinations`` order. Facet t holds the
    vertices whose subset contains t. Over 2^18 subsets to try or 2^18
    vertex-facet incidences it raises BudgetExceeded before building.
    """
    Recipe("dualcyclic", (d, m))._shape()  # the recipe's checks of arguments and size
    # A gap's parity is that of the kept indices below it; all gaps must agree.
    vertices = [
        s
        for s in combinations(range(m), d)
        if len({j % 2 for j, (a, b) in enumerate(pairwise((-1, *s, m))) if b - a > 1}) < 2
    ]
    facets = [[v for v, s in enumerate(vertices) if t in s] for t in range(m)]
    return validate(d, facets, name=f"dualcyclic {d} {m}")


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
        """The polytope, named by this recipe's text, once every node is within the size budget."""
        try:
            self._shape()
            return self._build()
        except RecursionError:
            raise InvalidInput("recipe nested too deeply") from None

    def _shape(self) -> tuple[int, int]:
        # Dimension and vertex count, each node checked against the budget.
        if self.op not in _OPS:
            raise InvalidInput(f"unknown recipe op {_clip(repr(self.op))}")
        kinds, _, shape = _OPS[self.op]
        if len(self.args) != len(kinds) or not all(map(isinstance, self.args, kinds)):
            wanted = ", ".join(kind.__name__ for kind in kinds)
            got = _clip(repr(self.args))
            raise InvalidInput(f"recipe op {self.op!r} takes ({wanted}), got {got}")
        dim, num_vertices = shape(*(a._shape() if isinstance(a, Recipe) else a for a in self.args))
        if dim * num_vertices > _MAX_INCIDENCES:
            work = f"{_clip(self.text())} needs"
            raise _over_budget(work, dim * num_vertices, "vertex-facet incidences", _MAX_INCIDENCES)
        return dim, num_vertices

    def _build(self) -> SimplePolytope:
        make = _OPS[self.op][1]
        P = make(*(a._build() if isinstance(a, Recipe) else a for a in self.args))
        return P if P.name == self.text() else _rename(P, self.text())


# Per recipe op: the kinds of its arguments, its constructor, and the
# dimension and vertex count it builds from its arguments' own.
_OPS = {
    "segment": ((), segment, lambda: (1, 2)),
    "dualcyclic": ((int, int), dual_cyclic, _dual_cyclic_shape),
    "dualcyclic57": ((), lambda: dual_cyclic(5, 7), lambda: (5, 12)),
    "simplex": ((int,), simplex, lambda n: (n, n + 1)),
    "polygon": ((int,), polygon, lambda m: (2, m)),
    # Past 2^64 vertices any cube is over the budget; capped, 2^n is small and a lower bound.
    "cube": ((int,), cube, lambda n: (n, 1 << max(0, min(n, 64)))),
    "prism": ((int,), prism, lambda m: (3, 2 * m)),
    "product": ((Recipe, Recipe), product, lambda p, q: (p[0] + q[0], p[1] * q[1])),
    "vcut": ((Recipe, int), vertex_cut, lambda p, v: (p[0], p[1] - 1 + p[0])),
}


def _tokenize(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _parse_expr(tokens: list[str], pos: int, depth: int = 0) -> tuple[Recipe, int]:
    if depth > _MAX_DEPTH:
        raise InvalidInput("recipe nested too deeply")
    if pos >= len(tokens):
        raise InvalidInput("unexpected end of recipe")
    op = tokens[pos]
    if op not in _OPS:
        raise InvalidInput(f"unknown recipe op {_clip(repr(op))}")
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
                got = _clip(repr(tok))
                raise InvalidInput(f"expected an integer after {op!r}, got {got}") from None
            pos += 1
        else:
            if tok != "(":
                got = _clip(repr(tok))
                raise InvalidInput(f"expected '(' for a sub-recipe of {op!r}, got {got}")
            sub, pos = _parse_expr(tokens, pos + 1, depth + 1)
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
        raise InvalidInput(f"trailing tokens in recipe: {_clip(repr(' '.join(tokens[pos:])))}")
    return recipe
