"""Binary codes spanned by face indicators, and the structure checks they satisfy.

The code of codimension k collects the indicator vectors of all
codimension-k faces inside GF(2)^num_vertices. The checks in this
module each compute one statement two independent ways and raise
TheoremViolation when the routes disagree.
"""

from __future__ import annotations

from ._record import Record
from .errors import Inapplicable, InvalidInput, TheoremViolation, _clip
from .gf2 import (
    LinearCode,
    _doubly_even,
    _ones,
    _span,
    dual_code,
    is_self_dual,
    min_distance,
)
from .polytope import (
    Face,
    SimplePolytope,
    _edge_facets,
    _face_summary,
    faces_of_codim,
    fh_vectors,
    is_even,
    vertex_neighbors,
)

__all__ = [
    "FaceCode",
    "SelfDualReport",
    "circ_closure_check",
    "code_matrix",
    "colorability_report",
    "coloring_is_proper",
    "dimension_law_check",
    "doubly_even_report",
    "duality_complement_check",
    "face_code",
    "find_coloring",
    "min_distance_bound_check",
    "self_duality_report",
]


class FaceCode(Record):
    """Code of one codimension, with its faces in generator order."""

    faces: tuple[Face, ...]
    code: LinearCode


def face_code(P: SimplePolytope, k: int) -> FaceCode:
    """Span of the codimension-k face indicators; generator i belongs to faces[i]."""

    def build() -> FaceCode:
        faces = faces_of_codim(P, k)
        code = _span(P.num_vertices, [f.vertex_mask for f in faces])
        return FaceCode(faces=faces, code=code)

    return P.derived(("face_code", k), build)


def code_matrix(P: SimplePolytope, k: int) -> list[int]:
    """Incidence matrix rows by vertex as ints; bit j of a row is the j-th codimension-k face."""
    faces = faces_of_codim(P, k)
    rows = [0] * P.num_vertices
    for j, f in enumerate(faces):
        for v in _ones(f.vertex_mask):
            rows[v] |= 1 << j
    return rows


def coloring_is_proper(P: SimplePolytope, colors: tuple[int, ...]) -> bool:
    """Every vertex must see dim distinct facet colors; colors[i] is the color of facet i."""
    if len(colors) != P.num_facets:
        raise InvalidInput("coloring length does not match the facet count")
    return all(len({colors[i] for i in fs}) == P.dim for fs in P.vertex_facets)


def find_coloring(P: SimplePolytope) -> tuple[int, ...] | None:
    """The facet colors of the proper coloring with dim colors, or None when there is none.

    No search is needed. A vertex sees dim distinct colors and the ends of
    an edge v-w share dim - 1 facets, so the facet w gains takes the color
    of the facet v drops; the skeleton stores both, as the facet the edge
    leaves at either end. Fixing the colors at vertex 0 thus forces every
    color along one walk of the connected skeleton, and a conflict on the
    way rules out every proper coloring. The walk stops once every facet
    has a color, so the result is kept only when ``coloring_is_proper``
    accepts it. That decides correctly: a proper coloring, permuted to
    agree at vertex 0, agrees with every forced color, so it is the forced
    coloring.

    A proper coloring is therefore unique up to a permutation of colors.
    Numbering colors 0..dim-1 by first appearance in facet order returns
    the lexicographically first one.
    """
    nbrs, left = vertex_neighbors(P), _edge_facets(P)
    colors = [-1] * P.num_facets
    for c, i in enumerate(sorted(P.vertex_facets[0])):
        colors[i] = c
    uncolored = P.num_facets - P.dim
    seen, todo = {0}, [0]
    while todo and uncolored:
        v = todo.pop()
        for w, a in zip(nbrs[v], left[v]):
            b = left[w][nbrs[w].index(v)]
            if colors[b] < 0:
                colors[b] = colors[a]
                uncolored -= 1
            elif colors[b] != colors[a]:
                return None
            if w not in seen:
                seen.add(w)
                todo.append(w)
    first = {c: i for i, c in enumerate(dict.fromkeys(colors))}
    found = tuple(first[c] for c in colors)
    return found if coloring_is_proper(P, found) else None


def _perfect_cover_partition(P: SimplePolytope, colors: tuple[int, ...] | None) -> bool:
    # Each color class must partition the vertex set, i.e. be a perfect
    # facet cover: disjoint facets whose indicators sum to the all-ones vector.
    if colors is None:
        return False
    for c in range(P.dim):
        members = [P.facets[i] for i in range(P.num_facets) if colors[i] == c]
        total = sum(len(f) for f in members)
        union: set[int] = set().union(*members) if members else set()
        if total != P.num_vertices or len(union) != P.num_vertices:
            return False
    return True


def colorability_report(P: SimplePolytope) -> tuple[int, ...] | None:
    """``find_coloring``'s facet colors, or None, once the six equivalent colorability criteria agree.

    Below dimension 3 the equivalences break down (odd polygons satisfy
    the dimension formula without being 2-colorable), so only the direct
    coloring runs. Incidence data with an asymmetric h-vector is no
    polytope and raises InvalidPolytope before the criteria are compared.
    """
    colors = find_coloring(P)
    if P.dim < 3:
        return colors
    n = P.dim
    codes = [face_code(P, k).code for k in range(n + 1)]
    fh_vectors(P)  # no new walk: the codes above completed the summary it reads
    nested = [codes[k].is_subspace_of(codes[k + 1]) for k in range(n)]
    criteria = {
        "coloring_found": colors is not None,
        "perfect_cover_partition": _perfect_cover_partition(P, colors),
        "inclusion_chain": all(nested),
        "penultimate_inclusion": nested[n - 2],
        "first_code_dimension": codes[1].dim == P.num_facets - n + 1,
        "even_two_faces": is_even(P),
    }
    if len(set(criteria.values())) != 1:
        raise TheoremViolation(f"colorability criteria disagree: {criteria}")
    return colors


def _colorability_note(P: SimplePolytope) -> str:
    """How ``colorability_report`` decides: below dimension 3 by the direct search alone."""
    return f"dimension {P.dim} below 3, direct search only" if P.dim < 3 else "six criteria agree"


def dimension_law_check(P: SimplePolytope) -> tuple[int, ...]:
    """For even P: the dimension of each face code, by codimension 0..n.

    Each must equal the partial h-sum h_0 + ... + h_k.
    """
    if not is_even(P):
        raise Inapplicable("dimension law requires an even polytope")
    h = fh_vectors(P).h
    dims = tuple(face_code(P, k).code.dim for k in range(P.dim + 1))
    for k, dim in enumerate(dims):
        partial = sum(h[: k + 1])
        if dim != partial:
            raise TheoremViolation(f"dim of codimension-{k} code is {dim}, expected {partial}")
    return dims


class SelfDualReport(Record):
    self_dual: bool
    half_dimension: bool
    face_parity_ok: bool
    parity_by_codim: tuple[tuple[int, bool], ...]


def self_duality_report(P: SimplePolytope, k: int) -> SelfDualReport:
    """Test self-duality of the codimension-k code two ways.

    Route one is the direct comparison with the dual; route two demands
    half dimension plus even vertex counts on every face of codimension
    k through 2k (faces beyond codimension n do not exist; when 2k > n
    the window reaches the vertices, each of odd count 1). The two
    routes must agree. A self-dual verdict in dimension >= 3 must also
    come with the all-ones vector in the code.

    For even P, and for every P with n <= 2k + 2, the code must be
    self-dual exactly when n = 2k + 1 and P is even: there the window
    reaches codimension n - 2, so self-duality forces P even, and then
    the dimension law, half dimension and h-symmetry force n = 2k + 1.
    """
    n = P.dim
    fc = face_code(P, k)
    self_dual = is_self_dual(fc.code)
    half = 2 * fc.code.dim == fc.code.length
    summary = _face_summary(P, min(2 * k, n))
    parity_rows = [(c, ok) for c, (_, ok) in enumerate(summary) if c >= k]
    parity_ok = all(ok for _, ok in parity_rows)
    if (half and parity_ok) != self_dual:
        raise TheoremViolation(
            f"self-duality routes disagree at codimension {k}: "
            f"half={half} parity={parity_ok} direct={self_dual}"
        )
    if self_dual and n >= 3:
        ones = _span(P.num_vertices, [(1 << P.num_vertices) - 1])
        if not ones.is_subspace_of(fc.code):
            raise TheoremViolation("self-dual face code without the all-ones vector")
    # In this order, is_even walks deeper than the window only for a self-dual code.
    if self_dual != (n == 2 * k + 1 and is_even(P)) and (n <= 2 * k + 2 or is_even(P)):
        raise TheoremViolation(
            f"self-dual={self_dual} at codimension {k} of a {n}-polytope with even={is_even(P)}"
        )
    return SelfDualReport(
        self_dual=self_dual,
        half_dimension=half,
        face_parity_ok=parity_ok,
        parity_by_codim=tuple(parity_rows),
    )


def duality_complement_check(P: SimplePolytope) -> bool:
    """For even P: the dual of each code is the code of complementary codimension."""
    if not is_even(P):
        raise Inapplicable("duality complement requires an even polytope")
    n = P.dim
    return all(
        dual_code(face_code(P, k).code) == face_code(P, n - 1 - k).code
        for k in range(n)
    )


def circ_closure_check(P: SimplePolytope, k: int) -> bool:
    """Products of k facet indicators must span the codimension-k code.

    Componentwise products distribute over sums, so the products of
    k-multisets of facet indicators span every k-fold product of code
    elements. Since F AND F = F, a multiset's product is that of its
    support, a set of 1..k facets, and a zero product adds nothing. The
    nonzero products of j facets are the codimension-j faces, so the
    products are the f_1 + ... + f_k face masks of codimensions 1..k.
    """
    if not is_even(P):
        raise Inapplicable("product closure requires an even polytope")
    if not 1 <= k <= P.dim:
        raise InvalidInput(f"codimension {_clip(k)} out of range 1..{P.dim}")
    products = [f.vertex_mask for j in range(1, k + 1) for f in faces_of_codim(P, j)]
    return _span(P.num_vertices, products) == face_code(P, k).code


def min_distance_bound_check(P: SimplePolytope) -> tuple[int, int]:
    """Face-size bound versus exact minimum distance at the self-dual codimension.

    For even P of odd dimension n, the minimum distance of the
    codimension-(n-1)/2 code is at most the smallest vertex count among
    faces of that codimension, and in dimension 3 it is exactly 4.
    Returns (bound, exact).
    """
    if not is_even(P) or P.dim % 2 == 0:
        raise Inapplicable("the distance bound applies to even polytopes of odd dimension")
    k = (P.dim - 1) // 2
    bound = min(f.num_vertices for f in faces_of_codim(P, k))
    exact = min_distance(face_code(P, k).code)
    if exact > bound:
        raise TheoremViolation(f"minimum distance {exact} exceeds the face bound {bound}")
    if P.dim == 3 and exact != 4:
        raise TheoremViolation(f"3-polytope code has distance {exact}, expected 4")
    return bound, exact


def doubly_even_report(P: SimplePolytope) -> bool:
    """Doubly-evenness of the self-dual-codimension code (n-1)/2, checked two ways.

    For even P with dim = 2k+1 the code of codimension k is doubly even
    exactly when every codimension-k face has vertex count divisible by
    4. That route must agree with the weights of the code's basis: every
    basis weight divisible by 4 and the basis pairwise orthogonal, which
    decides doubly-evenness without walking a codeword.
    """
    if not is_even(P) or P.dim % 2 == 0:
        raise Inapplicable("the doubly-even criterion applies to even polytopes of odd dimension")
    k = (P.dim - 1) // 2
    by_faces = all(f.num_vertices % 4 == 0 for f in faces_of_codim(P, k))
    by_weights = _doubly_even(face_code(P, k).code.rows)
    if by_faces != by_weights:
        raise TheoremViolation(
            f"doubly-even routes disagree: faces={by_faces} weights={by_weights}"
        )
    return by_weights
