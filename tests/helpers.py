"""Shared oracles and hypothesis strategies.

Oracles here deliberately avoid the library's own algorithms: spans are
enumerated by subset XOR, eliminations probe every pivot row, h-vectors
come from literal polynomial multiplication, faces from global subset
intersections and from grouping vertices by the subsets of their facet
sets, heights from Fraction sums, Morse indices and selections from
Fraction comparisons with each face looked up among all faces of its
codimension, edge neighbors from a scan of all
vertex pairs, facet colorings from a backtracking search over facets, the
colorability criteria from the public API and the facet sets,
incidence isomorphism from a search over facet bijections and the
facet-product closure from every k-multiset of facets. Frozen golden
values in the test files were produced by these oracles.

The small readers at the end (violation lists, edges, skeleton
connectivity, the matrix text parser, the Reed-Muller comparison) have
no caller in the library and live here with their tests.

So do the vector fixtures, which the library once exported: the
validated ``BitVector`` with its inner product, spans of BitVectors
(``reduce``, ``basis``, ``contains``), the Reed-Muller codes, face
indicators and vertex sets, and heights from a fixed objective.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from hypothesis import strategies as st

import polycodes as pc
from polycodes._record import Record
from polycodes.gf2 import _span


class BitVector(Record):
    """Vector in GF(2)^length; coordinate i is bit i of ``bits``."""

    length: int
    bits: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.length, int) or self.length < 1:
            raise pc.InvalidInput(f"vector length must be a positive integer, got {self.length!r}")
        if not isinstance(self.bits, int) or self.bits < 0:
            raise pc.InvalidInput(f"bit pattern must be a nonnegative integer, got {self.bits!r}")
        object.__setattr__(self, "bits", self.bits & ((1 << self.length) - 1))

    @classmethod
    def ones(cls, length: int) -> "BitVector":
        return cls(length, (1 << length) - 1)

    @classmethod
    def from01(cls, text: str) -> "BitVector":
        """Parse a '0'/'1' string; character i is coordinate i."""
        if not text or set(text) - {"0", "1"}:
            raise pc.InvalidInput(f"expected a nonempty string of 0s and 1s, got {text!r}")
        return cls(len(text), sum(1 << i for i, ch in enumerate(text) if ch == "1"))

    @classmethod
    def from_support(cls, length: int, support: Iterable[int]) -> "BitVector":
        bits = 0
        for i in support:
            if not 0 <= i < length:
                raise pc.InvalidInput(f"coordinate {i} out of range for length {length}")
            bits |= 1 << i
        return cls(length, bits)

    @property
    def weight(self) -> int:
        return bin(self.bits).count("1")

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.length) if (self.bits >> i) & 1)

    @property
    def is_zero(self) -> bool:
        return self.bits == 0

    def to01(self) -> str:
        return "".join("1" if (self.bits >> i) & 1 else "0" for i in range(self.length))

    def _check_same_length(self, other: "BitVector") -> None:
        if self.length != other.length:
            raise pc.InvalidInput(f"length mismatch: {self.length} vs {other.length}")

    def __add__(self, other: "BitVector") -> "BitVector":
        if not isinstance(other, BitVector):
            return NotImplemented
        self._check_same_length(other)
        return BitVector(self.length, self.bits ^ other.bits)

    def __and__(self, other: "BitVector") -> "BitVector":
        """Componentwise product, the idempotent AND of supports."""
        if not isinstance(other, BitVector):
            return NotImplemented
        self._check_same_length(other)
        return BitVector(self.length, self.bits & other.bits)

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(i)
        return (self.bits >> i) & 1

    def __len__(self) -> int:
        return self.length

    def __iter__(self) -> Iterator[int]:
        return ((self.bits >> i) & 1 for i in range(self.length))

    def __str__(self) -> str:
        return self.to01()


def inner(u: BitVector, v: BitVector) -> int:
    """Standard bilinear form, the parity of the common support."""
    u._check_same_length(v)
    return bin(u.bits & v.bits).count("1") & 1


def reduce(generators: Iterable[BitVector], *, length: int | None = None) -> pc.LinearCode:
    """Gaussian elimination to the canonical reduced echelon basis.

    ``length`` is only required when ``generators`` is empty.
    """
    gens = tuple(generators)
    if length is None:
        if not gens:
            raise pc.InvalidInput("length is required for an empty generator set")
        length = gens[0].length
    for g in gens:
        if g.length != length:
            raise pc.InvalidInput(f"generator of length {g.length} in a code of length {length}")
    return _span(length, (g.bits for g in gens))


def basis(code: pc.LinearCode) -> tuple[BitVector, ...]:
    """The code's reduced echelon rows as BitVectors."""
    return tuple(BitVector(code.length, r) for r in code.rows)


def contains(code: pc.LinearCode, v: BitVector) -> bool:
    if v.length != code.length:
        raise pc.InvalidInput(f"length mismatch: {v.length} vs {code.length}")
    return reduce([v]).is_subspace_of(code)


def reed_muller(k: int, m: int) -> pc.LinearCode:
    """Reed-Muller code RM(k, m) over the 2^m points in counting order.

    Point j gives variable i the binary digit of weight 2^(m-1-i) of j,
    the same convention that labels cube(m) vertices. Generators are the
    evaluation vectors of all monomials of degree at most k, ordered by
    degree and then by variable tuple.
    """
    if m < 1:
        raise pc.InvalidInput(f"need at least one variable, got m={m}")
    if not 0 <= k <= m:
        raise pc.InvalidInput(f"order k={k} out of range for m={m}")
    npoints = 1 << m
    var_masks = [sum(1 << j for j in range(npoints) if (j >> (m - 1 - i)) & 1) for i in range(m)]
    gens = []
    for degree in range(k + 1):
        for monomial in itertools.combinations(range(m), degree):
            bits = (1 << npoints) - 1
            for i in monomial:
                bits &= var_masks[i]
            gens.append(bits)
    return _span(npoints, gens)


def face_indicator(P: pc.SimplePolytope, face: pc.Face) -> BitVector:
    """Indicator vector of the face's vertex set in GF(2)^num_vertices."""
    return BitVector(P.num_vertices, face.vertex_mask)


def vertex_set(face: pc.Face) -> frozenset[int]:
    """The face's vertices, the set bits of its mask."""
    return frozenset(i for i in range(face.vertex_mask.bit_length()) if (face.vertex_mask >> i) & 1)


def height_from_objective(
    P: pc.SimplePolytope, objective: tuple[Fraction | int, ...]
) -> pc.HeightFunction:
    """The heights of P's vertices under a fixed linear objective."""
    if P.coords is None:
        raise pc.Unrealized("the polytope carries no coordinates")
    obj = tuple(Fraction(x) for x in objective)
    if len(obj) != P.dim:
        raise pc.InvalidInput(f"objective has {len(obj)} entries for dimension {P.dim}")
    values = tuple(
        sum((c * o for c, o in zip(point, obj)), Fraction(0)) for point in P.coords
    )
    return pc.HeightFunction(objective=obj, values=values)


def xor_span(bits: list[int]) -> set[int]:
    span = {0}
    for v in bits:
        span |= {s ^ v for s in span}
    return span


def eliminate_by_full_scan(rows: Iterable[int], mask: int) -> tuple[dict[int, int], list[int]]:
    """Gaussian elimination that pivots only on the columns set in ``mask``.

    Returns the pivot rows keyed by pivot column (the lowest masked bit),
    every pivot cleared from the other pivot rows, and the nonzero rows
    left over, which vanish on ``mask``. Under a full mask nothing is left
    over and the pivot rows are the reduced echelon basis.

    Each incoming row probes every pivot row, and each new pivot is
    cleared from every pivot row: O(rows x rank) steps whatever the
    sparsity. This was the library's elimination before it reduced rows
    by the pivots they hit.
    """
    pivot_rows: dict[int, int] = {}
    vanishing: list[int] = []
    for r in rows:
        for p, row in pivot_rows.items():
            if (r >> p) & 1:
                r ^= row
        on_mask = r & mask
        if on_mask:
            p = (on_mask & -on_mask).bit_length() - 1
            for q, row in pivot_rows.items():
                if (row >> p) & 1:
                    pivot_rows[q] = row ^ r
            pivot_rows[p] = r
        elif r:
            vanishing.append(r)
    return pivot_rows, vanishing


def dual_by_bit_test(code: pc.LinearCode) -> pc.LinearCode:
    """Orthogonal complement from null rows built by an n x k bit test:
    non-pivot column j gives e_j plus the pivot of every basis row with
    bit j."""
    n = code.length
    pivots = [(row & -row).bit_length() - 1 for row in code.rows]
    null_rows = []
    for j in range(n):
        if j in pivots:
            continue
        bits = 1 << j
        for p, row in zip(pivots, code.rows):
            if (row >> j) & 1:
                bits |= 1 << p
        null_rows.append(bits)
    pivot_rows, _ = eliminate_by_full_scan(null_rows, (1 << n) - 1)
    return pc.LinearCode(n, tuple(pivot_rows[p] for p in sorted(pivot_rows)))


def all_codewords(code: pc.LinearCode) -> set[int]:
    return xor_span(list(code.rows))


def brute_min_distance(code: pc.LinearCode) -> int:
    return min(bin(w).count("1") for w in all_codewords(code) if w)


def brute_weight_counts(code: pc.LinearCode) -> dict[int, int]:
    counts: dict[int, int] = {}
    for w in all_codewords(code):
        wt = bin(w).count("1")
        counts[wt] = counts.get(wt, 0) + 1
    return dict(sorted(counts.items()))


def faces_by_global_intersection(
    P: pc.SimplePolytope, k: int
) -> dict[tuple[int, ...], frozenset[int]]:
    """All codimension-k faces as {defining facet tuple: vertex set}.

    A subset counts as a face exactly when its intersection is nonempty
    and no other facet contains that intersection.
    """
    faces = {}
    for subset in itertools.combinations(range(P.num_facets), k):
        vs = set(range(P.num_vertices))
        for i in subset:
            vs &= P.facets[i]
        if not vs:
            continue
        containing = frozenset(
            i for i in range(P.num_facets) if vs <= P.facets[i]
        )
        if containing == frozenset(subset):
            faces[subset] = frozenset(vs)
    return faces


def faces_by_grouping(P: pc.SimplePolytope, k: int) -> tuple[pc.Face, ...]:
    """All codimension-k faces, sorted by defining facets, from grouping the
    vertices by the k-subsets of their facet sets: the group of a k-subset
    is the intersection of those k facets. This was the library's face
    enumeration before the face walk."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for v, fs in enumerate(P.vertex_facets):
        for subset in itertools.combinations(sorted(fs), k):
            groups.setdefault(subset, []).append(v)
    return tuple(
        pc.Face(defining, sum(1 << v for v in vs)) for defining, vs in sorted(groups.items())
    )


def count_levels_walked(monkeypatch) -> list[int]:
    """A list that gets, per call of the face walk, the levels it walks from
    the top: the deepest codimension among the nodes it visits, when the
    shallowest is P itself. The walk takes one popcount per node, and a
    node's codimension is the number of facets that contain its vertices;
    a walk that starts below P appends the pair (shallowest, deepest). A
    walk is recorded once it is run to the end, as every caller runs it."""
    from polycodes import polytope

    levels: list[int | tuple[int, int]] = []
    walk, popcount = polytope._walk, polytope._popcount
    visiting: list[list[int]] = []  # the node masks of the walk running now

    def observed_popcount(x: int) -> int:
        if visiting:
            visiting[-1].append(x)
        return popcount(x)

    def observed_walk(P: pc.SimplePolytope, k: int):
        nodes: list[int] = []
        inner = walk(P, k)
        while True:
            visiting.append(nodes)
            try:
                item = next(inner)
            except StopIteration:
                break
            finally:
                visiting.pop()
            yield item
        masks = polytope._facet_masks(P)
        codims = [sum(node & m == node for m in masks) for node in nodes]
        top, bottom = min(codims), max(codims)
        levels.append(bottom if top == 0 else (top, bottom))

    monkeypatch.setattr(polytope, "_popcount", observed_popcount)
    monkeypatch.setattr(polytope, "_walk", observed_walk)
    return levels


def f_vector_by_grouping(P: pc.SimplePolytope) -> tuple[int, ...]:
    """f_k as the number of distinct k-subsets of the vertices' facet sets."""
    return tuple(len(faces_by_grouping(P, k)) for k in range(P.dim + 1))


def generic_height_by_fractions(P: pc.SimplePolytope, seed: int) -> pc.HeightFunction:
    """generic_height's rule on Fraction heights: the seeded draw o in
    [-16, 16]^n when its heights are distinct, else N*o + e with
    t = 2MD^2 + 1, e = (1, t, ..., t^(n-1)) and N = 2MD^2 * sum(e) + 1.
    D is the largest common denominator of one point's coordinates and M the
    largest |coordinate| times its point's common denominator."""
    rng = random.Random(seed)
    objective = tuple(rng.randint(-16, 16) for _ in range(P.dim))
    heights = [sum(c * o for c, o in zip(point, objective)) for point in P.coords]
    if len(set(heights)) < len(heights):
        dens = [math.lcm(*(c.denominator for c in point)) for point in P.coords]
        m = max(abs(c) * den for point, den in zip(P.coords, dens) for c in point)
        gap = 2 * int(m) * max(dens) ** 2
        e = [(gap + 1) ** i for i in range(P.dim)]
        objective = tuple((gap * sum(e) + 1) * o + x for o, x in zip(objective, e))
    return height_from_objective(P, objective)


def vertex_indices_by_fractions(P: pc.SimplePolytope, phi: pc.HeightFunction) -> tuple[int, ...]:
    """How many neighbors of each vertex sit below it, comparing Fraction heights.
    This was the library's route before heights were ranked once."""
    neighbors = pc.vertex_neighbors(P)
    return tuple(
        sum(1 for w in neighbors[v] if phi.values[w] < phi.values[v])
        for v in range(P.num_vertices)
    )


def extract_basis_by_lookup(
    P: pc.SimplePolytope, phi: pc.HeightFunction, k: int
) -> list[tuple[int, pc.Face]]:
    """extract_basis's selection with Fraction comparisons, each picked face
    looked up by its defining facets among all faces of codimension k, and
    none of the theorem checks. This was the library's route before faces
    were cut out of the facet masks."""
    indices = vertex_indices_by_fractions(P, phi)
    faces_by_def = {f.defining_facets: f for f in pc.faces_of_codim(P, k)}
    neighbors = pc.vertex_neighbors(P)
    selected = []
    for v in range(P.num_vertices):
        if indices[v] > k:
            continue
        up = sorted(w for w in neighbors[v] if phi.values[w] > phi.values[v])
        fv = P.vertex_facets[v]
        dropped = set()
        for w in up[: P.dim - k]:
            (facet,) = fv - P.vertex_facets[w]
            dropped.add(facet)
        selected.append((v, faces_by_def[tuple(sorted(fv - dropped))]))
    return selected


def heawood_torus_facets() -> list[list[int]]:
    """Facets of the dual of the 7-vertex torus triangulation (the Heawood map).

    Facets are indexed by Z7 and the 14 vertices are the triangles
    {i, i+1, i+3} and {i, i+2, i+3} mod 7, each lying on its three facets.
    The incidence passes the local simplicity checks, but its h-vector is
    not symmetric.
    """
    triangles = [
        {i % 7, (i + a) % 7, (i + 3) % 7} for a in (1, 2) for i in range(7)
    ]
    return [[v for v, t in enumerate(triangles) if f in t] for f in range(7)]


# Vertex-facet incidence of the simple 5-polytope with 7 facets dual to the
# cyclic polytope C^5(7), copied by hand: each row lists the 5 facets through
# one of the 12 vertices. The library once built dualcyclic57 from this table
# in this vertex order; Gale's evenness condition now builds it.
DUAL_CYCLIC_57_VERTEX_FACETS = (
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


def neighbors_by_pair_scan(P: pc.SimplePolytope) -> tuple[tuple[int, ...], ...]:
    """Adjacency lists from all vertex pairs sharing exactly dim - 1 facets."""
    nbrs: list[list[int]] = [[] for _ in range(P.num_vertices)]
    for u, w in itertools.combinations(range(P.num_vertices), 2):
        if len(P.vertex_facets[u] & P.vertex_facets[w]) == P.dim - 1:
            nbrs[u].append(w)
            nbrs[w].append(u)
    return tuple(tuple(x) for x in nbrs)


def coloring_by_backtracking(P: pc.SimplePolytope) -> tuple[int, ...] | None:
    """Facet colors of the lexicographically first proper dim-coloring, by backtracking over facets.

    Facets are adjacent when their vertex sets meet. The search takes the
    facets in breadth-first order over that adjacency, so each facet after
    the first of its component meets an earlier one. It tries the colors
    already used, ascending, and then one new color: renaming colors maps
    proper colorings to proper colorings, so a new color stands for all
    of them. The coloring found gets its colors renamed in order of first
    appearance by facet index. That is the lexicographically first proper
    coloring, because a proper dim-coloring of a simple polytope is unique
    up to renaming: the dim facets at a vertex take all dim colors, the
    two ends of an edge share all but one facet, and the graph of the
    polytope is connected.
    """
    n, m = P.dim, P.num_facets
    adjacent: list[list[int]] = [[] for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            if P.facets[i] & P.facets[j]:
                adjacent[i].append(j)
                adjacent[j].append(i)
    order: list[int] = []
    placed: set[int] = set()
    for start in range(m):
        if start in placed:
            continue
        placed.add(start)
        order.append(start)
        head = len(order) - 1
        while head < len(order):
            for j in adjacent[order[head]]:
                if j not in placed:
                    placed.add(j)
                    order.append(j)
            head += 1
    colors = [-1] * m

    def extend(t: int, used: int) -> bool:
        if t == m:
            return True
        i = order[t]
        taken = {colors[j] for j in adjacent[i]}
        for c in range(min(used + 1, n)):
            if c in taken:
                continue
            colors[i] = c
            if extend(t + 1, max(used, c + 1)):
                return True
        colors[i] = -1
        return False

    if not extend(0, 0):
        return None
    first_seen = {c: rank for rank, c in enumerate(dict.fromkeys(colors))}
    return tuple(first_seen[c] for c in colors)


def colorability_criteria(P: pc.SimplePolytope) -> dict[str, bool]:
    """The six colorability criteria, each evaluated through the public API.

    For a simple polytope of dimension >= 3 they are equivalent; below
    that they need not agree (an odd polygon meets the dimension formula).
    A colour class is a perfect cover when its facets' vertex sets are
    disjoint and cover every vertex, read from the facet sets directly.
    """
    n = P.dim
    colors = pc.find_coloring(P)
    codes = [pc.face_code(P, k).code for k in range(n + 1)]

    def perfect_cover(c: int) -> bool:
        members = [f for f, color in zip(P.facets, colors) if color == c]
        covered = [v for f in members for v in f]
        return sorted(covered) == list(range(P.num_vertices))

    return {
        "coloring_found": colors is not None,
        "perfect_cover_partition": colors is not None
        and all(perfect_cover(c) for c in range(n)),
        "inclusion_chain": all(codes[k].is_subspace_of(codes[k + 1]) for k in range(n)),
        "penultimate_inclusion": n >= 2 and codes[n - 2].is_subspace_of(codes[n - 1]),
        "first_code_dimension": codes[1].dim == P.num_facets - n + 1,
        "even_two_faces": pc.is_even(P),
    }


@dataclass(frozen=True)
class OutwardMap:
    """Per-facet map sending each vertex of the facet to its unique neighbor outside."""

    facet: int
    pairs: tuple[tuple[int, int], ...]
    injective: bool
    image_is_complement: bool

    def as_dict(self) -> dict[int, int]:
        return dict(self.pairs)


def outward_neighbor_map(P: pc.SimplePolytope, facet_index: int) -> OutwardMap:
    """For facet F, map each v in F to its unique edge neighbor not in F."""
    if not 0 <= facet_index < P.num_facets:
        raise pc.InvalidInput(f"facet index {facet_index} out of range")
    fac = P.facets[facet_index]
    nbrs = pc.vertex_neighbors(P)
    pairs = []
    for v in sorted(fac):
        outside = [w for w in nbrs[v] if facet_index not in P.vertex_facets[w]]
        if len(outside) != 1:
            raise pc.TheoremViolation(
                f"vertex {v} of facet {facet_index} has {len(outside)} outward neighbors"
            )
        pairs.append((v, outside[0]))
    image = {w for _, w in pairs}
    complement = set(range(P.num_vertices)) - fac
    return OutwardMap(
        facet=facet_index,
        pairs=tuple(pairs),
        injective=len(image) == len(pairs),
        image_is_complement=image == complement,
    )


def closure_by_multisets(P: pc.SimplePolytope, k: int) -> bool:
    """Whether the products over all k-multisets of facet indicators span
    the codimension-k code, one BitVector product per multiset."""
    indicators = [BitVector.from_support(P.num_vertices, f) for f in P.facets]
    products = []
    for combo in itertools.combinations_with_replacement(range(P.num_facets), k):
        bits = indicators[combo[0]]
        for i in combo[1:]:
            bits = bits & indicators[i]
        products.append(bits)
    return reduce(products, length=P.num_vertices) == pc.face_code(P, k).code


def _facet_profile(facets: Sequence[frozenset[int]], i: int) -> tuple:
    sizes = sorted(len(facets[i] & facets[j]) for j in range(len(facets)) if j != i)
    return (len(facets[i]), tuple(sizes))


def incidence_isomorphic(P: pc.SimplePolytope, Q: pc.SimplePolytope) -> bool:
    """Whether some facet bijection carries the incidence of P onto Q."""
    if (P.dim, P.num_facets, P.num_vertices) != (Q.dim, Q.num_facets, Q.num_vertices):
        return False
    m = P.num_facets
    p_prof = [_facet_profile(P.facets, i) for i in range(m)]
    q_prof = [_facet_profile(Q.facets, i) for i in range(m)]
    if sorted(p_prof) != sorted(q_prof):
        return False
    q_vertex_by_facets = {fs: v for v, fs in enumerate(Q.vertex_facets)}
    assignment: list[int] = []
    used = [False] * m

    def vertex_map_exists() -> bool:
        seen = set()
        for fs in P.vertex_facets:
            image = frozenset(assignment[i] for i in fs)
            w = q_vertex_by_facets.get(image)
            if w is None or w in seen:
                return False
            seen.add(w)
        return True

    def extend(i: int) -> bool:
        if i == m:
            return vertex_map_exists()
        for j in range(m):
            if used[j] or p_prof[i] != q_prof[j]:
                continue
            if any(
                len(P.facets[i] & P.facets[a]) != len(Q.facets[j] & Q.facets[assignment[a]])
                for a in range(i)
            ):
                continue
            assignment.append(j)
            used[j] = True
            if extend(i + 1):
                return True
            assignment.pop()
            used[j] = False
        return False

    return extend(0)


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def h_from_f_by_polynomial(f: tuple[int, ...]) -> tuple[int, ...]:
    """Expand sum_i f[i] * (t-1)^(n-i) and read off descending coefficients."""
    n = len(f) - 1
    total = [0] * (n + 1)
    for i, fi in enumerate(f):
        p = [1]
        for _ in range(n - i):
            p = _poly_mul(p, [-1, 1])
        for j, c in enumerate(p):
            total[j] += fi * c
    return tuple(total[n - i] for i in range(n + 1))


def random_self_dual_code(rng: random.Random, length: int) -> pc.LinearCode:
    """Seeded self-dual code: start from coordinate pairs, mix by neighbor steps.

    Replacing a code C with span((C intersect v-perp) + v) for an
    even-weight v outside C preserves self-duality.
    """
    assert length % 2 == 0 and length >= 2
    gens = [BitVector.from_support(length, (2 * i, 2 * i + 1)) for i in range(length // 2)]
    code = reduce(gens, length=length)
    for _ in range(8):
        v = BitVector(length, rng.getrandbits(length))
        if v.weight % 2 == 1:
            v = v + BitVector.from_support(length, (rng.randrange(length),))
        if v.is_zero or contains(code, v):
            continue
        rows = basis(code)
        pairing = [inner(b, v) for b in rows]
        pivot = pairing.index(1)
        mixed = [b if hit == 0 else b + rows[pivot] for b, hit in zip(rows, pairing)]
        mixed[pivot] = v
        code = reduce(mixed, length=length)
        assert 2 * code.dim == length
    return code


@st.composite
def bitvectors(draw, max_length: int = 24) -> BitVector:
    length = draw(st.integers(1, max_length))
    return BitVector(length, draw(st.integers(0, 2**length - 1)))


@st.composite
def bitvector_pairs(draw, max_length: int = 24) -> tuple[BitVector, BitVector]:
    length = draw(st.integers(1, max_length))
    bits = st.integers(0, 2**length - 1)
    return BitVector(length, draw(bits)), BitVector(length, draw(bits))


@st.composite
def linear_codes(
    draw, max_length: int = 16, max_generators: int = 6, length: int | None = None
) -> pc.LinearCode:
    if length is None:
        length = draw(st.integers(1, max_length))
    raw = draw(
        st.lists(st.integers(0, 2**length - 1), min_size=0, max_size=max_generators)
    )
    return reduce([BitVector(length, g) for g in raw], length=length)


_RECIPE_LEAVES = st.sampled_from(
    [
        "segment",
        "simplex 2",
        "simplex 3",
        "polygon 4",
        "polygon 5",
        "cube 2",
        "cube 3",
        "prism 3",
    ]
)


def _products(leaves: st.SearchStrategy[str]) -> st.SearchStrategy[str]:
    return st.builds(lambda a, b: f"product ({a}) ({b})", leaves, leaves)


recipe_texts = st.recursive(
    _RECIPE_LEAVES,
    lambda inner: _products(inner)
    | st.builds(
        # Cutting needs dimension at least 2; the segment is the only 1-dim leaf.
        lambda a: f"vcut ({a}) 0",
        inner.filter(lambda t: t != "segment"),
    ),
    max_leaves=3,
)

# Even polytopes. A product is even exactly when both factors are, and
# cutting a vertex in dimension 3 or more makes triangles, so every even
# draw of recipe_texts is a product of even leaves and of even polygons
# made by cuts. The hexagon cut from the pentagon stands for the latter.
even_recipe_texts = st.recursive(
    st.sampled_from(["segment", "polygon 4", "cube 2", "cube 3", "vcut (polygon 5) 0"]),
    _products,
    max_leaves=3,
)


def check_incidence(
    dim: int, facets: Iterable[Iterable[int]], coords: Sequence[Sequence[object]] | None = None
) -> list[str]:
    """The violated local simplicity checks, as validate reports them (empty when valid)."""
    try:
        pc.validate(dim, facets, coords=coords)
    except pc.InvalidPolytope as exc:
        return exc.reasons
    return []


def edges(P: pc.SimplePolytope) -> tuple[tuple[int, int], ...]:
    """Vertex pairs sharing exactly dim - 1 facets, sorted."""
    nbrs = pc.vertex_neighbors(P)
    return tuple((u, w) for u in range(P.num_vertices) for w in nbrs[u] if u < w)


def skeleton_connected(P: pc.SimplePolytope, removed: frozenset[int] = frozenset()) -> bool:
    """Whether the 1-skeleton minus ``removed`` is connected (and nonempty)."""
    alive = [v for v in range(P.num_vertices) if v not in removed]
    if not alive:
        return False
    nbrs = pc.vertex_neighbors(P)
    reached = {alive[0]}
    todo = [alive[0]]
    while todo:
        for w in nbrs[todo.pop()]:
            if w not in removed and w not in reached:
                reached.add(w)
                todo.append(w)
    return len(reached) == len(alive)


def parse_matrix(text: str) -> list[BitVector]:
    """Parse the '0'/'1' line format produced by format_matrix."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise pc.InvalidInput("empty matrix")
    rows = [BitVector.from01(line.strip()) for line in lines]
    if len({r.length for r in rows}) != 1:
        raise pc.InvalidInput("matrix rows have unequal lengths")
    return rows


def reed_muller_check(k: int) -> bool:
    """Whether the codimension-k code of cube(2k+1) equals RM(k, 2k+1)."""
    if k < 1:
        raise pc.InvalidInput(f"order must be >= 1, got {k}")
    if 2 * k + 1 > 5:
        raise pc.BudgetExceeded(f"cube dimension {2 * k + 1} over the comparison budget 5")
    return pc.face_code(pc.cube(2 * k + 1), k).code == reed_muller(k, 2 * k + 1)
