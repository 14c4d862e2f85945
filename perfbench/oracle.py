"""Expected answers for every benchmark job, computed without polycodes.

Every polytope the benchmark generates is a product of segments and
polygons (a cube is a power of the segment, a prism is a polygon times
a segment), except the vertex cut of the 5-cube. For such products the
answers have closed forms:

* faces multiply: a face of P x Q is a face of P times a face of Q, the
  codimensions add and the vertex counts multiply;
* h-polynomials multiply: h(segment) = 1 + t, h(m-gon) = 1 + (m-2)t + t^2;
* a product is even (every 2-face has an even vertex count) exactly when
  every polygon factor has an even number of vertices, and in dimension
  at least 3 a simple polytope is facet-colorable exactly when it is even;
* for an even polytope the code of codimension k has dimension
  h_0 + ... + h_k, and it is self-dual exactly when the dimension n is
  odd and k = (n-1)/2;
* the codimension-k code of the n-cube is the Reed-Muller code RM(k, n),
  of minimum distance 2^(n-k).

A check returns a list of problems; an empty list means the program's
answer is right.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, prod

# Screen verdicts pinned by the program's own `verify --suite screen`
# and by the extremal-bound rows of the same suite.
PINNED_SCREEN = {
    (24, 8, True): "Infeasible",
    (48, 12, True): "Infeasible",
    (72, 16, True): "Infeasible",
    (8, 4, True): "FeasibleWitness",
    (16, 4, True): "FeasibleWitness",
}
PINNED_EXTREMAL = {8: 4, 16: 4, 24: 8}


@dataclass(frozen=True)
class Shape:
    """A polytope as the program receives it, plus what the oracle needs.

    ``segments`` and ``polygons`` list the product factors. ``cut`` marks
    the one non-product family, a vertex cut of the cube.
    """

    recipe: str
    segments: int = 0
    polygons: tuple[int, ...] = ()
    cut: bool = False

    @property
    def dim(self) -> int:
        return self.segments + 2 * len(self.polygons)

    @property
    def vertices(self) -> int:
        return 2**self.segments * prod(self.polygons)

    def _factors(self) -> list[dict[int, tuple[int, int]]]:
        # Per factor: codimension -> (number of faces, vertices per face).
        seg = {0: (1, 2), 1: (2, 1)}
        return [seg] * self.segments + [{0: (1, m), 1: (m, 2), 2: (m, 1)} for m in self.polygons]

    def _convolve(self, odd_only: bool) -> tuple[int, ...]:
        counts = [1]
        for factor in self._factors():
            out = [0] * (len(counts) + max(factor))
            for c, n in enumerate(counts):
                for fc, (faces, size) in factor.items():
                    if odd_only and size % 2 == 0:
                        continue
                    out[c + fc] += n * faces
            counts = out
        return tuple(counts)

    @property
    def f(self) -> tuple[int, ...]:
        """Face counts by codimension, the polytope itself first."""
        return self._convolve(odd_only=False)

    @property
    def odd_faces(self) -> tuple[int, ...]:
        """Number of faces with an odd vertex count, by codimension."""
        return self._convolve(odd_only=True)

    @property
    def h(self) -> tuple[int, ...]:
        poly = [1]
        for factor in [(1, 1)] * self.segments + [(1, m - 2, 1) for m in self.polygons]:
            out = [0] * (len(poly) + len(factor) - 1)
            for i, a in enumerate(poly):
                for j, b in enumerate(factor):
                    out[i + j] += a * b
            poly = out
        return tuple(poly)

    @property
    def even(self) -> bool:
        return all(m % 2 == 0 for m in self.polygons)

    @property
    def colorable(self) -> bool:
        return self.even

    def code_dim(self, k: int) -> int:
        if not self.even:
            raise ValueError(f"no closed-form code dimension for {self.recipe}")
        return sum(self.h[: k + 1])

    def self_dual(self, k: int) -> bool:
        return self.even and self.dim % 2 == 1 and k == (self.dim - 1) // 2

    def min_distance(self, k: int) -> int:
        if self.cut:
            # Two codimension-2 faces inside the new simplex facet differ in
            # two vertices, and every face of codimension 2 has an even
            # vertex count, so no codeword has weight 1.
            return 2
        squares = self.polygons.count(4)
        others = [m for m in self.polygons if m != 4]
        if not others:
            # A square is the 2-cube, so this is a cube and its code is RM(k, n).
            return 2 ** (self.segments + 2 * squares - k)
        if k == 1 and self.segments == 0 and len(self.polygons) == 1:
            return 2  # two adjacent edges of a polygon differ in two vertices
        if k == 1 and self.segments == 1 and len(self.polygons) == 1:
            return 4 if self.polygons[0] % 2 == 0 else 2
        raise ValueError(f"no closed-form minimum distance for {self.recipe} at k={k}")


def cube(n: int) -> Shape:
    return Shape(f"cube {n}", segments=n)


def prism(m: int) -> Shape:
    return Shape(f"prism {m}", segments=1, polygons=(m,))


def polygon(m: int) -> Shape:
    return Shape(f"polygon {m}", polygons=(m,))


def polygon_product(a: int, b: int) -> Shape:
    return Shape(f"product (polygon {a}) (polygon {b})", polygons=(a, b))


def square_times_cube(n: int) -> Shape:
    return Shape(f"product (polygon 4) (cube {n})", segments=n, polygons=(4,))


def cut_cube(n: int, v: int) -> Shape:
    return Shape(f"vcut (cube {n}) {v}", segments=n, cut=True)


# ---------------------------------------------------------------------------
# CLI reports


def check_info(shape: Shape, out: dict) -> list[str]:
    want = {
        "name": shape.recipe,
        "dimension": shape.dim,
        "facets": shape.f[1],
        "vertices": shape.vertices,
        "f_vector": list(shape.f),
        "h_vector": list(shape.h),
        "even": shape.even,
        "realized": True,
    }
    return [f"{key}: got {out.get(key)!r}, want {val!r}" for key, val in want.items() if out.get(key) != val]


def check_code(shape: Shape, k: int, out: dict) -> list[str]:
    want = {
        "codimension": k,
        "faces": shape.f[k],
        "length": shape.vertices,
        "dimension": shape.code_dim(k),
        "self_dual": shape.self_dual(k),
    }
    return [f"{key}: got {out.get(key)!r}, want {val!r}" for key, val in want.items() if out.get(key) != val]


def check_selfdual(shape: Shape, k: int, out: dict) -> list[str]:
    n = shape.dim
    rows = [[c, shape.odd_faces[c] == 0] for c in range(k, min(2 * k, n) + 1)]
    parity = all(ok for _, ok in rows) and 2 * k <= n
    half = shape.vertices % 2 == 0 and 2 * shape.code_dim(k) == shape.vertices
    want = {
        "codimension": k,
        "self_dual": shape.self_dual(k),
        "half_dimension": half,
        "face_parity_ok": parity,
        "parity_by_codim": rows,
    }
    problems = [f"{key}: got {out.get(key)!r}, want {val!r}" for key, val in want.items() if out.get(key) != val]
    if (half and parity) != shape.self_dual(k):
        problems.append("oracle inconsistency: half dimension and parity disagree with the dimension law")
    return problems


def check_morse(shape: Shape, k: int, seed: int, out: dict) -> list[str]:
    problems = []
    indices = out.get("indices") or []
    basis = out.get("basis") or []
    if out.get("seed") != seed:
        problems.append(f"seed: got {out.get('seed')!r}, want {seed}")
    if len(out.get("objective") or []) != shape.dim:
        problems.append("objective has the wrong length")
    if len(indices) != shape.vertices:
        problems.append(f"{len(indices)} indices for {shape.vertices} vertices")
    if out.get("histogram") != list(shape.h):
        problems.append(f"histogram {out.get('histogram')} is not the h-vector {list(shape.h)}")
    if len(basis) != sum(shape.h[: k + 1]):
        problems.append(f"{len(basis)} basis faces, want {sum(shape.h[: k + 1])}")
    low = [v for v, i in enumerate(indices) if i <= k]
    if [b.get("vertex") for b in basis] != low:
        problems.append("basis vertices are not the vertices of index at most k")
    if any(len(b.get("defining_facets", ())) != k for b in basis):
        problems.append(f"a basis face is not cut out by {k} facets")
    return problems


def check_color(shape: Shape, out: dict) -> list[str]:
    want = shape.colorable
    problems = []
    if out.get("colorable") != want:
        problems.append(f"colorable: got {out.get('colorable')!r}, want {want!r}")
    colors = out.get("colors")
    if want:
        if not colors or len(colors) != shape.f[1] or len(set(colors)) > shape.dim:
            problems.append("no proper coloring with dim colors returned")
    elif colors is not None:
        problems.append("a coloring was returned for a non-colorable polytope")
    return problems


def check_mindist(shape: Shape, k: int, out: dict) -> list[str]:
    want = shape.min_distance(k)
    got = out.get("min_distance")
    return [] if got == want else [f"min_distance: got {got!r}, want {want}"]


# ---------------------------------------------------------------------------
# verify --corpus


def _gale_dual_cyclic(d: int, n: int) -> list[frozenset[int]]:
    # Facets of the cyclic polytope C(d, n) by Gale's evenness condition;
    # they are the vertices of its dual, a simple polytope with n facets.
    out = []
    for s in combinations(range(n), d):
        gaps = [i for i in range(n) if i not in s]
        if all(sum(1 for x in s if a < x < b) % 2 == 0 for a, b in zip(gaps, gaps[1:])):
            out.append(frozenset(s))
    return out


def _dual_cyclic_even() -> bool:
    vertices = _gale_dual_cyclic(5, 7)
    # 2-faces of the 5-dimensional dual are the nonempty intersections of
    # three facets: the vertices whose facet sets contain a 3-subset.
    sizes = [sum(1 for v in vertices if set(t) <= v) for t in combinations(range(7), 3)]
    return all(s % 2 == 0 for s in sizes if s)


@dataclass(frozen=True)
class CorpusMember:
    label: str
    dim: int
    even: bool
    realized: bool

    @property
    def colorable(self) -> bool:
        # In dimension 2 a polygon is 2-colorable iff it has an even vertex
        # count, which is also its evenness; from dimension 3 on,
        # colorability of a simple polytope is evenness.
        return self.even


def corpus_members() -> list[CorpusMember]:
    """The program's built-in corpus, with properties derived by hand.

    Simplices and vertex cuts have triangular 2-faces, so they are odd;
    a product is even when both factors are.
    """
    out = [CorpusMember(f"simplex {n}", n, False, True) for n in (3, 4, 5)]
    out += [CorpusMember(f"cube {n}", n, True, True) for n in (2, 3, 4, 5)]
    out += [CorpusMember(f"polygon {m}", 2, m % 2 == 0, True) for m in range(3, 9)]
    out += [CorpusMember(f"prism {m}", 3, m % 2 == 0, True) for m in range(3, 9)]
    out += [
        CorpusMember("product (polygon 6) (cube 2)", 4, True, True),
        CorpusMember("product (simplex 2) (cube 2)", 4, False, True),
    ]
    for base in ("simplex 3", "cube 3"):
        label = base
        for _ in range(3):
            label = f"vcut ({label}) 0"
            out.append(CorpusMember(label, 3, False, True))
    out.append(CorpusMember("dualcyclic57", 5, _dual_cyclic_even(), False))
    return out


def expected_rows(suite: str, members: list[CorpusMember]) -> dict[str, int]:
    """Number of result rows each suite reports over the corpus."""
    if suite == "all":
        rows: dict[str, int] = {}
        for name in ("colorability", "selfdual", "duality", "morse", "screen", "conjecture"):
            rows.update(expected_rows(name, members))
        return rows
    if suite in ("colorability", "morse"):
        return {suite: len(members)}
    if suite == "selfdual":
        total = 0
        for m in members:
            total += 2 + (m.dim == 4)
            if m.even:
                total += 1 + 2 * (m.dim % 2 == 1)
        return {suite: total}
    if suite == "duality":
        return {suite: 2 * sum(m.even for m in members)}
    if suite == "screen":
        return {suite: len(PINNED_SCREEN) + len(PINNED_EXTREMAL)}
    if suite == "conjecture":
        # Self-dual face codes of an even polytope sit at the middle
        # codimension of an odd dimension; dimension 1 is not in the corpus.
        return {suite: sum(m.even and m.dim % 2 == 1 for m in members) or 1}
    raise ValueError(f"unknown suite {suite}")


def check_verify(suite: str, out: dict) -> list[str]:
    members = corpus_members()
    by_label = {m.label: m for m in members}
    checks = out.get("checks") or []
    problems = []
    if out.get("suite") != suite or out.get("failed") != 0:
        problems.append(f"suite {out.get('suite')!r} reported {out.get('failed')!r} failures")
    counts: dict[str, int] = {}
    for row in checks:
        counts[row.get("suite")] = counts.get(row.get("suite"), 0) + 1
        if not row.get("passed"):
            problems.append(f"failed row {row}")
        detail, subject = row.get("detail", ""), row.get("subject")
        if row.get("suite") == "colorability":
            want = by_label[subject].colorable if subject in by_label else None
            if not detail.endswith(f"colorable={want}"):
                problems.append(f"{subject}: {detail!r}, want colorable={want}")
        if row.get("suite") == "morse":
            want = "histogram-and-independence" if by_label.get(subject, members[0]).realized else "skipped"
            if subject not in by_label or row.get("check") != want:
                problems.append(f"morse row {subject}: {row.get('check')!r}, want {want}")
        if row.get("suite") == "conjecture" and "COUNTEREXAMPLE" in detail:
            problems.append(f"conjecture row {subject}: {detail}")
    want_counts = expected_rows(suite, members)
    if counts != want_counts:
        problems.append(f"row counts {counts}, want {want_counts}")
    screen_details = " | ".join(r.get("detail", "") for r in checks if r.get("suite") == "screen")
    if suite in ("screen", "all"):
        for want in list(PINNED_SCREEN.values()) + list(PINNED_EXTREMAL.values()):
            if f"got {want}" not in screen_details:
                problems.append(f"screen rows never report {want}")
    return problems


# ---------------------------------------------------------------------------
# API session: realizability screen and weight distributions


def check_screen_sweep(results: dict[tuple[int, int, bool], tuple[str, str | None]]) -> list[str]:
    problems = []
    for (l, d, de), (status, witness) in results.items():
        pinned = PINNED_SCREEN.get((l, d, de))
        if pinned and status != pinned:
            problems.append(f"({l}, {d}, {de}): {status}, pinned {pinned}")
        known = _known_witnesses(l, d, de)
        if known and status == "Infeasible":
            problems.append(f"({l}, {d}, {de}) is realized by {known[0]} but screened Infeasible")
        if status == "FeasibleWitness" and witness not in known:
            problems.append(f"({l}, {d}, {de}): witness {witness!r} does not give this code")
        if status not in ("Infeasible", "FeasibleWitness", "Unknown"):
            problems.append(f"({l}, {d}, {de}): unknown status {status!r}")
    return problems


def _known_witnesses(l: int, d: int, de: bool) -> list[str]:
    """Constructions whose middle face code is a self-dual [l, l/2, d] code."""
    out = []
    if (l, d, de) == (2, 2, False):
        out.append("segment")
    # prism m: [2m, m, 4], doubly even iff 4 divides m (faces of size m and 4).
    if d == 4 and l % 4 == 0 and l >= 8 and de == (l % 8 == 0):
        out.append(f"prism {l // 2}")
    # cube n, n odd: RM((n-1)/2, n) is self-dual, doubly even, distance 2^((n+1)/2).
    n = l.bit_length() - 1
    if 2**n == l and n % 2 == 1 and n >= 3 and d == 2 ** ((n + 1) // 2) and de:
        out.append(f"cube {n}")
    return out


def _krawtchouk(n: int, j: int, i: int) -> int:
    return sum((-1) ** s * comb(i, s) * comb(n - i, j - s) for s in range(j + 1))


# Number of minimum-weight codewords of RM(r, m) (MacWilliams-Sloane ch. 13).
def _rm_min_weight_count(r: int, m: int) -> int:
    num = den = 1
    for i in range(m - r):
        num *= 2 ** (m - i) - 1
        den *= 2 ** (m - r - i) - 1
    return 2**r * num // den


def check_weights(shape: Shape, k: int, out: dict) -> list[str]:
    """Integer checks on a weight distribution returned by the API."""
    counts = {int(w): c for w, c in out["counts"].items()}
    n = shape.vertices
    problems = []
    if shape.even:
        dim = shape.code_dim(k)
    else:
        # Odd prism: the m + 2 facets satisfy only the relation that every
        # vertex lies in two squares, so the code has dimension m + 1.
        dim = shape.polygons[0] + 1
    if sum(counts.values()) != 2**dim:
        problems.append(f"counts sum to {sum(counts.values())}, want 2^{dim}")
    if counts.get(0) != 1:
        problems.append("the zero word is not counted once")
    d = min(w for w in counts if w)
    if d != shape.min_distance(k):
        problems.append(f"smallest nonzero weight {d}, want {shape.min_distance(k)}")
    if any(counts.get(n - w) != c for w, c in counts.items()):
        problems.append("distribution is not symmetric although the all-ones word is a codeword")
    de = all(w % 4 == 0 for w in counts)
    want_de = shape.even and (not shape.polygons or all(m % 4 == 0 for m in shape.polygons))
    if out.get("doubly_even") != de or de != want_de:
        problems.append(f"doubly_even {out.get('doubly_even')!r}, weights say {de}, want {want_de}")
    if not shape.polygons:
        want = _rm_min_weight_count(k, shape.segments)
        if counts.get(d) != want:
            problems.append(f"{counts.get(d)} words of weight {d}, RM({k}, {shape.segments}) has {want}")
    if shape.self_dual(k):
        # MacWilliams identity with C equal to its dual: for every j,
        # sum_i A_i K_j(i) = |C| A_j, in exact integers.
        for j in range(n + 1):
            lhs = sum(c * _krawtchouk(n, j, i) for i, c in counts.items())
            if lhs != 2**dim * counts.get(j, 0):
                problems.append(f"MacWilliams identity fails at weight {j}")
                break
    return problems
