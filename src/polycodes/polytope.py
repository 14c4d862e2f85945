"""Simple polytopes presented by vertex-facet incidence.

A polytope of dimension n is stored as the tuple of its facets, each a
frozenset of vertex indices. Validation covers the local combinatorics
of simplicity (n facets and n edge neighbors per vertex, connected
skeleton). Global polytopality of abstract incidence data is not
decided here; inputs passing the local checks are processed as given.

Faces carry their vertex sets as int masks (bit v is vertex v), the
representation the face codes use. They come from one walk of the face
lattice: the faces of codimension k are the nonzero ANDs of each face of
codimension k - 1 with the facets of higher index than its defining
ones, so every level comes out sorted by defining facets.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain, combinations, islice
from math import comb
from operator import or_
from typing import Any, Callable, Hashable, Iterable, Iterator, Mapping, Sequence

from .errors import InvalidInput, InvalidPolytope, TheoremViolation
from .gf2 import BitVector, _bitmask, _ones, _popcount

__all__ = [
    "FHVectors",
    "Face",
    "SimplePolytope",
    "face_indicator",
    "faces_of_codim",
    "fh_vectors",
    "is_even",
    "polytope_from_json",
    "polytope_to_json",
    "validate",
    "vertex_neighbors",
]

@dataclass(frozen=True)
class SimplePolytope:
    """Validated vertex-facet incidence of a simple n-polytope.

    Derived data (neighbors, faces, f- and h-vectors, face codes) is
    computed once per instance and kept in a store that takes no part
    in equality, hashing or the repr, and dies with the instance.
    """

    dim: int
    facets: tuple[frozenset[int], ...]
    num_vertices: int
    vertex_facets: tuple[frozenset[int], ...]
    coords: tuple[tuple[Fraction, ...], ...] | None = None
    name: str | None = None
    _derived: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def num_facets(self) -> int:
        return len(self.facets)

    def vertices(self) -> range:
        return range(self.num_vertices)

    def derived(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        """The value stored under ``key``, computed by ``compute()`` on first use."""
        if key not in self._derived:
            self._derived[key] = compute()
        return self._derived[key]


@dataclass(frozen=True)
class Face:
    """Face of codimension ``codim``, identified by its defining facets.

    Its vertices are the set bits of ``vertex_mask`` (bit v is vertex v).
    ``vertex_set`` is the same set as a frozenset, built on first use for
    callers at the API edge.
    """

    codim: int
    defining_facets: tuple[int, ...]
    vertex_mask: int

    @cached_property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(_ones(self.vertex_mask))

    @property
    def num_vertices(self) -> int:
        return _popcount(self.vertex_mask)


@dataclass(frozen=True)
class FHVectors:
    """Face counts by codimension (f[0] = 1 for the whole polytope) and the h-vector."""

    f: tuple[int, ...]
    h: tuple[int, ...]


def _normalize_facets(facets: Iterable[Iterable[int]]) -> tuple[frozenset[int], ...]:
    out = []
    for fac in facets:
        fs = frozenset(fac)
        for v in fs:
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise InvalidInput(f"vertex indices must be nonnegative integers, got {v!r}")
        out.append(fs)
    return tuple(out)


def _normalize_coords(
    coords: Sequence[Sequence[object]], dim: int, num_vertices: int
) -> tuple[tuple[Fraction, ...], ...] | list[str]:
    violations = []
    if len(coords) != num_vertices:
        return [f"coords has {len(coords)} points for {num_vertices} vertices"]
    points = []
    for i, point in enumerate(coords):
        if len(point) != dim:
            violations.append(f"coords[{i}] has {len(point)} entries, expected {dim}")
            continue
        row = []
        for x in point:
            if isinstance(x, Fraction):
                row.append(x)
            elif isinstance(x, int) and not isinstance(x, bool):
                row.append(Fraction(x))
            else:
                violations.append(f"coords[{i}] entry {x!r} is not rational")
                break
        else:
            points.append(tuple(row))
    if violations:
        return violations
    return tuple(points)


def _group_by_subsets(
    vertex_facets: Sequence[frozenset[int]], k: int
) -> dict[tuple[int, ...], list[int]]:
    """Vertices grouped by the k-subsets of their facet sets, each group ascending.

    The group of a k-subset is the intersection of those k facets.
    """
    groups: dict[tuple[int, ...], list[int]] = {}
    for v, fs in enumerate(vertex_facets):
        for subset in combinations(sorted(fs), k):
            groups.setdefault(subset, []).append(v)
    return groups


def _skeleton(
    vertex_facets: Sequence[frozenset[int]], dim: int
) -> tuple[tuple[tuple[int, ...], ...], list[tuple[int, list[int], int]]]:
    """Edge neighbors, and every (vertex, facets, other count) that breaks the edge rule.

    The edge rule: each (dim-1)-subset of a vertex's facets is shared
    with exactly one other vertex, so every group of the (dim-1)-subset
    grouping is one edge. Breaks come in vertex order, then by dropped
    facet ascending.
    """
    groups = _group_by_subsets(vertex_facets, dim - 1)
    neighbors: list[list[int]] = [[] for _ in vertex_facets]
    broken = []
    for v, fs in enumerate(vertex_facets):
        ordered = sorted(fs)
        for j in range(len(ordered)):
            rest = ordered[:j] + ordered[j + 1 :]
            group = groups[tuple(rest)]
            if len(group) == 2:
                neighbors[v].append(group[1] if group[0] == v else group[0])
            else:
                broken.append((v, rest, len(group) - 1))
    return tuple(tuple(sorted(x)) for x in neighbors), broken


def _reachable(neighbors: Sequence[Sequence[int]], start: int) -> set[int]:
    reached = {start}
    todo = [start]
    while todo:
        v = todo.pop()
        for w in neighbors[v]:
            if w not in reached:
                reached.add(w)
                todo.append(w)
    return reached


def _incidence(
    dim: int,
    facets: Iterable[Iterable[int]],
    coords: Sequence[Sequence[object]] | None,
    name: str | None,
) -> tuple[list[str], SimplePolytope | None]:
    """The one validation pass: the violated checks, or the polytope when there are none."""
    if not isinstance(dim, int) or dim < 1:
        return [f"dimension must be a positive integer, got {dim!r}"], None
    try:
        fsets = _normalize_facets(facets)
    except InvalidInput as exc:
        return [str(exc)], None
    violations: list[str] = []
    m = len(fsets)
    if m < dim + 1:
        violations.append(f"a {dim}-polytope needs at least {dim + 1} facets, got {m}")
    if any(not f for f in fsets):
        violations.append("facets must be nonempty")
        return violations, None
    if not fsets:
        return violations or ["no facets given"], None

    present = sorted(set().union(*fsets))
    num_vertices = present[-1] + 1
    num_missing = num_vertices - len(present)
    if num_missing:
        # Read from the gaps between present indices: nothing is allocated
        # in proportion to the largest index.
        gaps = (range(lo + 1, hi) for lo, hi in zip([-1, *present], present))
        shown = list(islice(chain.from_iterable(gaps), 5))
        more = f" and {num_missing - 5} more" if num_missing > 5 else ""
        violations.append(
            f"vertex indices must cover 0..{num_vertices - 1}; missing {shown}{more}"
        )
        return violations, None

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
        return violations, None

    neighbors, broken = _skeleton(vertex_facets, dim)
    for v, rest, others in broken[:5]:
        violations.append(
            f"vertex {v} shares facets {rest} with {others} other vertices, expected exactly 1"
        )
    if len(broken) > 5:
        violations.append(f"({len(broken) - 5} further edge violations suppressed)")
    if violations:
        return violations, None

    reached = len(_reachable(neighbors, 0))
    if reached != num_vertices:
        violations.append(f"1-skeleton is disconnected ({reached} of {num_vertices} reachable)")
    norm_coords = None
    if coords is not None:
        normalized = _normalize_coords(coords, dim, num_vertices)
        if isinstance(normalized, list):
            violations.extend(normalized)
        else:
            norm_coords = normalized
    if violations:
        return violations, None
    P = SimplePolytope(
        dim=dim,
        facets=fsets,
        num_vertices=num_vertices,
        vertex_facets=vertex_facets,
        coords=norm_coords,
        name=name,
    )
    P.derived("neighbors", lambda: neighbors)
    return [], P


def validate(
    dim: int,
    facets: Iterable[Iterable[int]],
    coords: Sequence[Sequence[object]] | None = None,
    name: str | None = None,
) -> SimplePolytope:
    """Build a SimplePolytope, raising InvalidPolytope with every violated check."""
    violations, P = _incidence(dim, facets, coords, name)
    if violations:
        raise InvalidPolytope(violations)
    return P


def vertex_neighbors(P: SimplePolytope) -> tuple[tuple[int, ...], ...]:
    """Adjacency lists of the 1-skeleton, each sorted ascending."""
    return P.derived("neighbors", lambda: _skeleton(P.vertex_facets, P.dim)[0])


def _facet_lattice(P: SimplePolytope) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per facet i, its vertex mask and the mask of the facets j > i it meets."""

    def build() -> tuple[tuple[int, ...], tuple[int, ...]]:
        around = [_bitmask(fs) for fs in P.vertex_facets]
        above = [reduce(or_, map(around.__getitem__, f)) for f in P.facets]
        return (
            tuple(_bitmask(f) for f in P.facets),
            tuple(bits >> (i + 1) << (i + 1) for i, bits in enumerate(above)),
        )

    return P.derived("facet_lattice", build)


_Level = list[tuple[tuple[int, ...], int, int]]


def _descend(level: _Level, masks: Sequence[int], above: Sequence[int]) -> _Level:
    """The next codimension: each face ANDed with each of its candidate facets.

    Nonzero results are kept. A child's candidates are its parent's that
    come after it and meet its new facet. Children of parents taken in
    order come out sorted by defining facets.
    """
    out = []
    for defining, mask, candidates in level:
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            j = low.bit_length() - 1
            sub = mask & masks[j]
            if sub:
                out.append((defining + (j,), sub, candidates & above[j]))
    return out


def _walk(P: SimplePolytope, k: int) -> Iterator[_Level]:
    """Levels k, k + 1, ..., n of the face walk, each computed from the one before.

    A level holds (defining facets, vertex mask, candidate facets) per
    face; the candidates are the facets of higher index that meet every
    defining facet. The walk starts from the deepest level up to k that
    is stored on P, or from the polytope itself at codimension 0.
    """
    masks, above = _facet_lattice(P)
    start = max((j for j in range(1, k + 1) if ("level", j) in P._derived), default=0)
    top = [((), (1 << P.num_vertices) - 1, (1 << P.num_facets) - 1)]
    level = P._derived[("level", start)] if start else top
    for j in range(start, P.dim + 1):
        if j >= k:
            yield level
        if j < P.dim:
            level = _descend(level, masks, above)


def faces_of_codim(P: SimplePolytope, k: int) -> tuple[Face, ...]:
    """All codimension-k faces, ordered by their defining facet tuples.

    In a simple polytope every codimension-k face is cut out by exactly
    k facets, and the face of k facets is their intersection whenever it
    is nonempty, so level k of the face walk lists them. Only the level
    asked for is stored. Codimension 0 is the polytope itself with no
    defining facets, codimension n has one face per vertex.
    """
    if not 0 <= k <= P.dim:
        raise InvalidInput(f"codimension {k} out of range 0..{P.dim}")
    level = P.derived(("level", k), lambda: next(_walk(P, k)))
    return P.derived(
        ("faces", k), lambda: tuple(Face(k, defining, mask) for defining, mask, _ in level)
    )


def face_indicator(P: SimplePolytope, face: Face) -> BitVector:
    """Indicator vector of the face's vertex set in GF(2)^num_vertices."""
    return BitVector(P.num_vertices, face.vertex_mask)


def fh_vectors(P: SimplePolytope) -> FHVectors:
    """Face counts by codimension and the h-vector.

    f_k is the length of level k of the face walk, streamed so that at
    most two levels are held at a time. h is recovered from
    sum_i f_i (t-1)^(n-i) = sum_i h_i t^(n-i) with exact integer
    arithmetic; its symmetry is asserted.
    """

    def build() -> FHVectors:
        n = P.dim
        f = tuple(len(level) for level in _walk(P, 0))
        h = tuple(
            sum(f[j] * comb(n - j, n - i) * (-1) ** (i - j) for j in range(i + 1))
            for i in range(n + 1)
        )
        if h != h[::-1]:
            raise TheoremViolation(
                f"h-vector {h} is not symmetric; "
                "the incidence data cannot come from a simple polytope"
            )
        return FHVectors(f=f, h=h)

    return P.derived("fh", build)


def is_even(P: SimplePolytope) -> bool:
    """Whether every 2-face has an even vertex count.

    In dimension 2 this is evenness of the vertex count itself and in
    dimension 1 it holds by convention.
    """
    if P.dim == 1:
        return True
    if P.dim == 2:
        return P.num_vertices % 2 == 0
    return P.derived(
        "even",
        lambda: not any(_popcount(mask) & 1 for _, mask, _ in next(_walk(P, P.dim - 2))),
    )


def polytope_to_json(P: SimplePolytope) -> str:
    out: dict = {"dim": P.dim, "facets": [sorted(f) for f in P.facets]}
    if P.coords is not None:
        out["coords"] = [[str(x) for x in point] for point in P.coords]
    if P.name is not None:
        out["name"] = P.name
    return json.dumps(out, indent=2) + "\n"


def polytope_from_json(source: str | Mapping) -> SimplePolytope:
    """Parse the polytope JSON format (dim, facets, optional coords and name)."""
    if isinstance(source, str):
        try:
            data = json.loads(source)
        except json.JSONDecodeError as exc:
            raise InvalidInput(f"not valid JSON: {exc}") from exc
    else:
        data = source
    if not isinstance(data, Mapping):
        raise InvalidInput("polytope JSON must be an object")
    if "dim" not in data or "facets" not in data:
        raise InvalidInput("polytope JSON needs 'dim' and 'facets'")
    dim = data["dim"]
    facets = data["facets"]
    if not isinstance(facets, list) or not all(isinstance(f, list) for f in facets):
        raise InvalidInput("'facets' must be a list of lists of vertex indices")
    coords = None
    if data.get("coords") is not None:
        raw = data["coords"]
        if not isinstance(raw, list) or not all(isinstance(p, list) for p in raw):
            raise InvalidInput("'coords' must be a list of coordinate lists")
        coords = []
        for point in raw:
            row = []
            for x in point:
                try:
                    row.append(Fraction(x) if isinstance(x, (str, int)) else None)
                except (ValueError, ZeroDivisionError) as exc:
                    raise InvalidInput(f"bad rational {x!r}: {exc}") from exc
                if row[-1] is None:
                    raise InvalidInput(f"coordinate {x!r} is not a rational string")
            coords.append(row)
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise InvalidInput("'name' must be a string")
    return validate(dim, facets, coords=coords, name=name)
