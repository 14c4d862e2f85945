"""Simple polytopes presented by vertex-facet incidence.

A polytope of dimension n is stored as the tuple of its facets, each a
frozenset of vertex indices. Validation covers the local combinatorics
of simplicity (n facets and n edge neighbors per vertex, connected
skeleton). Global polytopality of abstract incidence data is not
decided here; inputs passing the local checks are processed as given.
Every input is held to 2^18 vertex-facet incidences (dimension x vertices),
one face walk to 2^22 faces, bounded before it starts, and the faces of
one codimension to 2^28 stored mask bits (faces x vertices).

Vertex sets are int masks (bit v is vertex v), as in the face codes.
Validation builds the facet masks once, reads the edge rule from them
and keeps them for the face walk. The edge rule also names the facet
each edge leaves; validation keeps it beside the neighbor lists, and
other modules read it through ``_edge_facets``. The walk goes depth
first, ANDing each face with the facets of higher index than its
defining ones, so each codimension comes out sorted by defining
facets. It holds one path of the lattice and the siblings pending
along it, at most n * m candidate masks, and never a whole level. It
always starts at the polytope and records, per codimension, the face
count and whether every face is even; the f-vector, evenness and the
self-duality parity window read that summary only as deep as they need.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import accumulate, chain, islice
from math import comb
from operator import and_, or_
from typing import Any, Callable, Hashable, Iterable, Iterator, Sequence

from ._record import Record
from .errors import InvalidInput, InvalidPolytope, TheoremViolation, _clip, _over_budget
from .gf2 import _bitmask, _popcount

__all__ = [
    "FHVectors",
    "Face",
    "SimplePolytope",
    "faces_of_codim",
    "fh_vectors",
    "is_even",
    "polytope_from_json",
    "polytope_to_json",
    "validate",
    "vertex_neighbors",
]

class SimplePolytope(Record):
    """Validated vertex-facet incidence of a simple n-polytope.

    Derived data (neighbors, faces, f- and h-vectors, face codes) is
    computed once per instance and kept in a store that takes no part
    in equality, hashing or the repr, and dies with the instance.
    """

    dim: int
    facets: tuple[frozenset[int], ...]
    vertex_facets: tuple[frozenset[int], ...]
    coords: tuple[tuple[Fraction, ...], ...] | None = None
    name: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "_derived", {})

    @property
    def num_facets(self) -> int:
        return len(self.facets)

    @property
    def num_vertices(self) -> int:
        return len(self.vertex_facets)

    def derived(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        """The value stored under ``key``, computed by ``compute()`` on first use."""
        if key not in self._derived:
            self._derived[key] = compute()
        return self._derived[key]


class Face(Record):
    """Face cut out by its defining facets, as many as its codimension.

    Its vertices are the set bits of ``vertex_mask`` (bit v is vertex v).
    """

    defining_facets: tuple[int, ...]
    vertex_mask: int

    @property
    def num_vertices(self) -> int:
        return _popcount(self.vertex_mask)


class FHVectors(Record):
    """Face counts by codimension (f[0] = 1 for the whole polytope) and the h-vector."""

    f: tuple[int, ...]
    h: tuple[int, ...]


# The size budget on every input: dimension x vertex count, the vertex-facet
# incidences a simple polytope has (cube 14 has 229,376).
_MAX_INCIDENCES = 1 << 18
# The budget on stored faces: the bits of their vertex masks, summed (cube 12
# at codimension 6 stores about 2^27.44, polygon 23169 at codimension 2 just under 2^28).
_MAX_MASK_BITS = 1 << 28
# The budget on one face walk: the faces it visits, bounded from the up-degrees
# before it starts (cube 13 has 1,594,323 faces, cube 14 4,782,969).
_MAX_WALK_FACES = 1 << 22


def _normalize_facets(facets: Iterable[Iterable[int]]) -> tuple[frozenset[int], ...]:
    out = []
    for fac in facets:
        try:
            fs = frozenset(fac)
        except TypeError:  # an unhashable entry, which the loop below refuses
            fs = fac
        for v in fs:
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                got = _clip(repr(v))
                raise InvalidPolytope([f"vertex indices must be nonnegative integers, got {got}"])
        out.append(fs)
    return tuple(out)


def _rational(x: object) -> Fraction:
    """x as a Fraction; only a Fraction, an int that is not a bool, or a rational string is one.

    A string's decimal exponent is held to Python's int-string digit limit, as its digits are.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)) and not isinstance(x, bool):
        try:
            exponent = int(x.lower().partition("e")[2] or 0) if isinstance(x, str) else 0
            if abs(exponent) > sys.int_info.default_max_str_digits:  # Fraction builds 10**exponent
                raise ValueError
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise InvalidInput(f"entry {_clip(repr(x))} is not rational")


def _normalize_coords(
    coords: Sequence[Sequence[object]], dim: int, num_vertices: int
) -> tuple[tuple[tuple[Fraction, ...], ...], list[str]]:
    """The points as Fractions, and the violations that keep them from being coordinates."""
    if len(coords) != num_vertices:
        return (), [f"coords has {len(coords)} points for {num_vertices} vertices"]
    points, violations = [], []
    parsed: dict[str, Fraction] = {}  # by string only: keyed by value, True == 1 would pass

    def rational(x: object) -> Fraction:
        if type(x) is not str:
            return _rational(x)
        return parsed[x] if x in parsed else parsed.setdefault(x, _rational(x))

    for i, point in enumerate(coords):
        if len(point) != dim:
            violations.append(f"coords[{i}] has {len(point)} entries, expected {dim}")
            continue
        try:
            points.append(tuple(map(rational, point)))
        except InvalidInput as exc:
            violations.append(f"coords[{i}] {exc}")
    return tuple(points), violations


def _skeleton(
    vertex_facets: Sequence[frozenset[int]], masks: Sequence[int]
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...], list[tuple[int, list[int], int]]]:
    """Neighbors, the facet each edge leaves, and the edge rule's breaks as (vertex, facets, others).

    The edge rule: the vertex masks of the facets of v but one, ANDed,
    minus v, leave exactly one vertex w, and the edge v-w leaves the facet
    left out. The AND without facet j is that of the masks before j and
    after it. Neighbors come sorted, each beside its facet; breaks come by
    vertex, then by dropped facet ascending.
    """
    everything = (1 << len(vertex_facets)) - 1
    ids = list(range(len(vertex_facets)))  # entries share these ints: far less memory than new ones
    neighbors, left, broken = [], [], []
    for v, fs in enumerate(vertex_facets):
        ordered = sorted(fs)
        around = [masks[i] for i in ordered]
        after = [*accumulate(reversed(around), and_, initial=everything)][-2::-1]
        ends, bit = {}, 1 << v
        for f, head, tail in zip(ordered, accumulate(around, and_, initial=everything), after):
            others = (head & tail) ^ bit
            if others and not others & (others - 1):
                ends[ids[others.bit_length() - 1]] = f
            else:
                broken.append((v, [i for i in ordered if i != f], _popcount(others)))
        neighbors.append(tuple(sorted(ends)))
        left.append(tuple(map(ends.__getitem__, neighbors[-1])))
    return tuple(neighbors), tuple(left), broken


def validate(
    dim: int,
    facets: Iterable[Iterable[int]],
    coords: Sequence[Sequence[object]] | None = None,
    name: str | None = None,
) -> SimplePolytope:
    """Build a SimplePolytope, raising InvalidPolytope with every violated check.

    The checks run in stages, and a stage with violations ends the pass.
    Once the vertex count is known, an input over 2^18 vertex-facet
    incidences (dimension x vertices) raises BudgetExceeded before the
    per-vertex lists are built. The facet masks, the edge neighbors and
    the facet each edge leaves are kept on the polytope.
    """
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise InvalidPolytope([f"dimension must be a positive integer, got {_clip(repr(dim))}"])
    fsets = _normalize_facets(facets)
    violations: list[str] = []
    m = len(fsets)
    if m < dim + 1:
        violations.append(f"a {dim}-polytope needs at least {dim + 1} facets, got {m}")
    if not all(fsets):
        raise InvalidPolytope([*violations, "facets must be nonempty"])
    if not fsets:
        raise InvalidPolytope(violations)

    present = sorted(set().union(*fsets))
    num_vertices = present[-1] + 1
    num_missing = num_vertices - len(present)
    if num_missing:
        # Read from the gaps between present indices: nothing is allocated
        # in proportion to the largest index.
        gaps = (range(lo + 1, hi) for lo, hi in zip([-1, *present], present))
        shown = list(islice(chain.from_iterable(gaps), 5))
        more = f" and {_clip(num_missing - 5)} more" if num_missing > 5 else ""
        missing = f"vertex indices must cover 0..{_clip(num_vertices - 1)}; missing {shown}{more}"
        raise InvalidPolytope([*violations, missing])
    if dim * num_vertices > _MAX_INCIDENCES:
        raise _over_budget("the polytope needs", dim * num_vertices, "vertex-facet incidences", _MAX_INCIDENCES)

    incident: list[list[int]] = [[] for _ in range(num_vertices)]
    for i, f in enumerate(fsets):
        for v in f:
            incident[v].append(i)
    vertex_facets = tuple(frozenset(fs) for fs in incident)
    bad_counts = [v for v in range(num_vertices) if len(vertex_facets[v]) != dim]
    if bad_counts:
        v = bad_counts[0]
        violations.append(
            f"every vertex must lie in exactly {dim} facets; "
            f"vertex {v} lies in {len(vertex_facets[v])} ({len(bad_counts)} offender(s))"
        )
    seen: dict[frozenset[int], int] = {}
    for v, fs in enumerate(vertex_facets):
        if fs in seen:
            violations.append(f"vertices {seen[fs]} and {v} lie in the same facet set")
            break
        seen[fs] = v
    if violations:
        raise InvalidPolytope(violations)

    masks = tuple(map(_bitmask, fsets))
    neighbors, left, broken = _skeleton(vertex_facets, masks)
    for v, rest, others in broken[:5]:
        violations.append(
            f"vertex {v} shares facets {rest} with {others} other vertices, expected exactly 1"
        )
    if len(broken) > 5:
        violations.append(f"({len(broken) - 5} further edge violations suppressed)")
    if violations:
        raise InvalidPolytope(violations)

    reached, todo = {0}, [0]
    while todo:
        for w in neighbors[todo.pop()]:
            if w not in reached:
                reached.add(w)
                todo.append(w)
    if len(reached) != num_vertices:
        violations.append(
            f"1-skeleton is disconnected ({len(reached)} of {num_vertices} reachable)"
        )
    if coords is not None:
        coords, bad_coords = _normalize_coords(coords, dim, num_vertices)
        violations.extend(bad_coords)
    if violations:
        raise InvalidPolytope(violations)
    P = SimplePolytope(dim=dim, facets=fsets, vertex_facets=vertex_facets, coords=coords, name=name)
    P._derived.update(facet_masks=masks, neighbors=neighbors, edge_facets=left)
    return P


def _facet_masks(P: SimplePolytope) -> tuple[int, ...]:
    """The vertex mask of each facet."""
    return P.derived("facet_masks", lambda: tuple(map(_bitmask, P.facets)))


def vertex_neighbors(P: SimplePolytope) -> tuple[tuple[int, ...], ...]:
    """Adjacency lists of the 1-skeleton, each sorted ascending."""
    return P.derived("neighbors", lambda: _skeleton(P.vertex_facets, _facet_masks(P))[0])


def _edge_facets(P: SimplePolytope) -> tuple[tuple[int, ...], ...]:
    """Per vertex v, aligned with ``vertex_neighbors(P)[v]``: the facet of v each edge leaves."""
    return P.derived("edge_facets", lambda: _skeleton(P.vertex_facets, _facet_masks(P))[1])


def _facets_above(P: SimplePolytope) -> tuple[int, ...]:
    """Per facet i, the mask of the facets j > i it meets."""

    def build() -> tuple[int, ...]:
        around = [_bitmask(fs) for fs in P.vertex_facets]
        meets = (reduce(or_, map(around.__getitem__, f)) for f in P.facets)
        return tuple(bits >> (i + 1) << (i + 1) for i, bits in enumerate(meets))

    return P.derived("facets_above", build)


def _walk(P: SimplePolytope, k: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield (defining facets, vertex mask) of each codimension-k face, depth first.

    The walk starts at P. A child ANDs its parent's mask with one of the
    parent's candidate facets and is kept when nonzero; its candidates
    are the facets above its own facet that meet it (``_facets_above``).
    Children are pushed from the highest facet down, so they pop in
    ascending order and the faces come out sorted by defining facets. A
    node is (mask, candidates, depth, facet); slot d - 1 of one k-slot
    list holds the path's facet at depth d. The walk counts every node
    and its parity, and stores the summary rows 0..k when they go
    further than the stored ones.

    Before the root is pushed, the nodes are bounded by counting each
    face at its lowest vertex v: a face of dimension s >= n - k there
    contains the s neighbors of v along the edges that leave none of its
    defining facets, all of higher index, so it is one of the C(up(v), s)
    choices among v's up(v) higher neighbors. Over 2^22 the walk is
    refused. The count of vertices per up-degree is kept on P.
    """
    ups = P.derived("up_degrees", lambda: Counter(
        sum(w > v for w in ws) for v, ws in enumerate(vertex_neighbors(P))))
    bound = sum(c * comb(u, s) for u, c in ups.items() for s in range(P.dim - k, u + 1))
    if bound > _MAX_WALK_FACES:
        work = "the face walk needs an estimated"
        raise _over_budget(work, bound, f"faces of codimension 0..{k}", _MAX_WALK_FACES)
    masks, above = _facet_masks(P), _facets_above(P)
    counts, odd = [0] * (k + 1), [0] * (k + 1)  # odd[j] & 1: some face has odd size
    path = [0] * k
    stack = [((1 << P.num_vertices) - 1, (1 << P.num_facets) - 1, 0, -1)]
    pop, push, popcount = stack.pop, stack.append, _popcount
    while stack:
        mask, candidates, depth, j = pop()
        if depth:
            path[depth - 1] = j
        counts[depth] += 1
        odd[depth] |= popcount(mask)
        if depth == k:
            yield tuple(path), mask
            continue
        while candidates:
            j = candidates.bit_length() - 1
            candidates ^= 1 << j
            sub = mask & masks[j]
            if sub:
                push((sub, above[j], depth + 1, j))
    if len(P._derived.get("summary", ())) <= k:
        P._derived["summary"] = tuple((counts[j], not odd[j] & 1) for j in range(k + 1))


def faces_of_codim(P: SimplePolytope, k: int) -> tuple[Face, ...]:
    """All codimension-k faces, ordered by their defining facet tuples.

    In a simple polytope every codimension-k face is cut out by exactly
    k facets, and the face of k facets is their intersection whenever it
    is nonempty, so the face walk lists them. Only the codimension asked
    for is stored. Codimension 0 is the polytope itself with no defining
    facets, codimension n has one face per vertex. Once the bits of the
    stored vertex masks pass 2^28, the walk stops and BudgetExceeded is
    raised.
    """
    if not 0 <= k <= P.dim:
        raise InvalidInput(f"codimension {_clip(k)} out of range 0..{P.dim}")

    def store() -> tuple[Face, ...]:
        faces, bits = [], 0
        for defining, mask in _walk(P, k):
            bits += mask.bit_length()
            if bits > _MAX_MASK_BITS:  # the faces not yet walked are uncounted
                work = f"storing the codimension-{k} faces needs"
                raise _over_budget(work, bits, "vertex-mask bits", _MAX_MASK_BITS, exact=False)
            faces.append(Face(defining, mask))
        return tuple(faces)

    return P.derived(("faces", k), store)


def _face_summary(P: SimplePolytope, depth: int) -> tuple[tuple[int, bool], ...]:
    """Per codimension 0..depth, the face count and whether every face has an even vertex count.

    Read from the summary the face walk records; a walk runs only when
    the summary stops short of ``depth``.
    """
    if len(P._derived.get("summary", ())) <= depth:
        for _ in _walk(P, depth):
            pass
    return P._derived["summary"][: depth + 1]


def fh_vectors(P: SimplePolytope) -> FHVectors:
    """Face counts by codimension and the h-vector.

    f is read from the face-walk summary. h is recovered from
    sum_i f_i (t-1)^(n-i) = sum_i h_i t^(n-i) with exact integer
    arithmetic. The h-vector of every simple polytope is symmetric
    (Dehn-Sommerville), so incidence data with an asymmetric one is no
    polytope and raises InvalidPolytope. First the walk's edge count
    f_{n-1} is checked against the 1-skeleton's; a walk fault raises
    TheoremViolation.
    """

    def build() -> FHVectors:
        n = P.dim
        f = tuple(count for count, _ in _face_summary(P, n))
        edges = sum(map(len, vertex_neighbors(P))) // 2
        if f[n - 1] != edges:
            raise TheoremViolation(f"the face walk found {f[n - 1]} edges, the 1-skeleton has {edges}")
        h = tuple(
            sum(f[j] * comb(n - j, n - i) * (-1) ** (i - j) for j in range(i + 1))
            for i in range(n + 1)
        )
        if h != h[::-1]:
            raise InvalidPolytope([
                f"h-vector {_clip(h)} is not symmetric; "
                "the incidence data cannot come from a simple polytope"
            ])
        return FHVectors(f=f, h=h)

    return P.derived("fh", build)


def is_even(P: SimplePolytope) -> bool:
    """Whether every 2-face has an even vertex count.

    Read from the face-walk summary at codimension n - 2. In dimension 2
    that level is the polygon itself, so this is evenness of the vertex
    count; in dimension 1 it holds by convention.
    """
    return P.dim == 1 or _face_summary(P, P.dim - 2)[-1][1]


def polytope_to_json(P: SimplePolytope) -> str:
    out: dict = {"dim": P.dim, "facets": [sorted(f) for f in P.facets]}
    if P.coords is not None:
        out["coords"] = [[str(x) for x in point] for point in P.coords]
    if P.name is not None:
        out["name"] = P.name
    return json.dumps(out, indent=2) + "\n"


def polytope_from_json(source: str) -> SimplePolytope:
    """Parse the polytope JSON format (dim, facets, optional coords and name).

    Coordinates are rational strings or integers; ``validate`` reads them.
    """
    try:
        data = json.loads(source)
    except (ValueError, RecursionError) as exc:  # ValueError: bad syntax or an over-long int
        raise InvalidInput(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidInput("polytope JSON must be an object")
    if "dim" not in data or "facets" not in data:
        raise InvalidInput("polytope JSON needs 'dim' and 'facets'")
    dim = data["dim"]
    facets = data["facets"]
    if not isinstance(facets, list) or not all(isinstance(f, list) for f in facets):
        raise InvalidInput("'facets' must be a list of lists of vertex indices")
    coords = data.get("coords")
    if coords is not None and (
        not isinstance(coords, list) or not all(isinstance(p, list) for p in coords)
    ):
        raise InvalidInput("'coords' must be a list of coordinate lists")
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise InvalidInput("'name' must be a string")
    return validate(dim, facets, coords=coords, name=name)
