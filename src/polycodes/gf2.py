"""Exact linear algebra over GF(2).

Vectors are fixed-length bit strings packed into Python integers
(coordinate i is bit i, so words fill from the little end and the tail
beyond ``length`` is kept zero). Codes are row spaces held as int rows
in reduced echelon form, which makes equality of subspaces a tuple
comparison. Int rows are the one vector representation, at the edge
too: ``format_matrix`` renders them as text.
"""

from __future__ import annotations

from math import comb
from typing import Iterable, Iterator, Sequence

from ._record import Record
from .errors import InvalidInput, TheoremViolation, Undefined, _over_budget

__all__ = [
    "ENUMERATION_CAP",
    "LinearCode",
    "WeightEnumerator",
    "dual_code",
    "format_matrix",
    "is_self_dual",
    "min_distance",
    "weight_enumerator",
]

# Codeword enumeration visits at most 2^ENUMERATION_CAP codewords, so the
# exhaustive weight enumerator stops at this dimension.
ENUMERATION_CAP = 28

try:
    _popcount = int.bit_count
except AttributeError:  # Python < 3.11
    def _popcount(x: int) -> int:
        return bin(x).count("1")


def _bitmask(indices: Iterable[int]) -> int:
    """Int indicator of a set of distinct indices; bit v stands for vertex v."""
    return sum(1 << i for i in indices)


def _ones(bits: int) -> Iterator[int]:
    """Indices of the set bits of ``bits``, ascending."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


class LinearCode(Record):
    """Subspace of GF(2)^length, kept as its canonical basis.

    ``rows`` is the reduced echelon basis as ints: sorted by pivot (the
    lowest set bit), every pivot cleared from the other rows. Equal
    subspaces therefore have equal rows, and ``==`` compares them.
    """

    length: int
    rows: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.rows)

    def is_subspace_of(self, other: "LinearCode") -> bool:
        # In reduced echelon form the coefficient of a row in a codeword is
        # the codeword's bit at that row's pivot, so v lies in ``other``
        # exactly when it equals the sum of the rows whose pivots it hits.
        if self.rows and self.length != other.length:
            raise InvalidInput(f"length mismatch: {self.length} vs {other.length}")
        by_pivot = {r & -r: r for r in other.rows}
        pivots = sum(by_pivot)
        for v in self.rows:
            hit, acc = v & pivots, 0
            while hit:
                low = hit & -hit
                acc ^= by_pivot[low]
                hit ^= low
            if acc != v:
                return False
        return True


def _span(length: int, rows: Iterable[int]) -> LinearCode:
    """The code spanned by int rows, none with a bit at or beyond ``length``."""
    pivot_rows, _ = _eliminate(rows, (1 << length) - 1)
    return LinearCode(length, tuple(pivot_rows[p] for p in sorted(pivot_rows)))


def _eliminate(rows: Iterable[int], mask: int) -> tuple[dict[int, int], list[int]]:
    """Gaussian elimination that pivots only on the columns set in ``mask``.

    Returns the pivot rows keyed by pivot column (the lowest masked bit),
    in ascending order with every pivot cleared from the other pivot rows,
    and the nonzero rows left over, which vanish on ``mask``. Under a full
    mask nothing is left over and the pivot rows are the reduced echelon
    basis.

    The forward pass reduces each incoming row by the pivot rows it hits,
    lowest pivot first. A pivot row has no masked bit below its pivot, so
    each XOR sets bits only above the pivot it clears, and the next hit is
    the lowest bit of ``row & pivots``; a new pivot row clears nothing.
    Back-substitution then runs once, highest pivot first, clearing each
    row by the already reduced rows of the pivots it hits. Both passes cost
    one XOR per pivot hit, not one probe per pivot row, so sparse rows such
    as face indicators cost far less than rows times rank. How much the
    rows fill in depends on their order, so they are consumed last first.
    Taken first first, the echelon basis and the dual null rows of prism
    550 at k = 1, both in ascending pivot order, took 30-40 times longer,
    and the codimension-2 faces of polygon 36 x polygon 36 three times
    longer; last first was at most a third slower on any input tried.
    """
    by_pivot: dict[int, int] = {}  # pivot bit -> row
    pivots = 0
    vanishing: list[int] = []
    for r in reversed(list(rows)):
        hit = r & pivots
        while hit:
            r ^= by_pivot[hit & -hit]
            hit = r & pivots
        on_mask = r & mask
        if on_mask:
            low = on_mask & -on_mask
            by_pivot[low] = r
            pivots |= low
        elif r:
            vanishing.append(r)
    ascending = sorted(by_pivot)
    for low in reversed(ascending):
        r = by_pivot[low]
        hit = (r & pivots) ^ low
        while hit:
            q = hit & -hit
            r ^= by_pivot[q]
            hit ^= q
        by_pivot[low] = r
    return {low.bit_length() - 1: by_pivot[low] for low in ascending}, vanishing


def dual_code(code: LinearCode) -> LinearCode:
    """Orthogonal complement, read off the echelon basis of ``code``.

    Each non-pivot column j gives the null row e_j plus the pivots of the
    basis rows with a bit at j; those rows are collected by walking each
    basis row's support once.
    """
    n = code.length
    pivot_cols = {(row & -row).bit_length() - 1 for row in code.rows}
    null_rows = {j: 1 << j for j in range(n) if j not in pivot_cols}
    for row in code.rows:
        pivot = row & -row
        rest = row ^ pivot
        while rest:
            low = rest & -rest
            null_rows[low.bit_length() - 1] |= pivot
            rest ^= low
    dual = _span(n, null_rows.values())
    if dual.dim + code.dim != n:
        raise TheoremViolation("rank plus nullity must equal the length")
    return dual


def _pairwise_orthogonal(rows: Sequence[int]) -> bool:
    # <u, v> is the parity of |u AND v|; the diagonal pairs are included.
    return not any(_popcount(a & b) & 1 for i, a in enumerate(rows) for b in rows[i:])


def is_self_dual(code: LinearCode) -> bool:
    """Whether C equals its dual, checked two ways at half dimension.

    The direct route compares C with its dual. At dim == length/2 the
    code is self-dual exactly when its basis is pairwise orthogonal, and
    the two answers must agree; disagreement raises TheoremViolation.
    Off half dimension the code cannot be self-dual and only the direct
    route runs.
    """
    direct = code == dual_code(code)
    if 2 * code.dim == code.length:
        orthogonal = _pairwise_orthogonal(code.rows)
        if direct != orthogonal:
            raise TheoremViolation(
                "self-duality criteria disagree at half dimension: "
                f"direct={direct} orthogonal={orthogonal}"
            )
    return direct


def _nonzero_weights(code: LinearCode) -> Iterator[int]:
    # Gray-code walk: step i flips the row indexed by the lowest set bit of i,
    # visiting every nonzero codeword exactly once.
    rows = code.rows
    acc = 0
    pc = _popcount
    for i in range(1, 1 << len(rows)):
        acc ^= rows[(i & -i).bit_length() - 1]
        yield pc(acc)


def _information_sets(code: LinearCode) -> Iterator[tuple[int, list[int]]]:
    # Generator matrices over disjoint information sets, as (rank r, rows):
    # the r rows systematic on the set first, then the k - r rows that
    # vanish on it. The reduced echelon basis is the first, systematic on
    # its pivots; each later one pivots on the columns no earlier one used.
    # Ranks never increase, since each set of free columns lies inside the
    # previous one. Stops once the code vanishes on what is left.
    rows = list(code.rows)
    pivots = [r & -r for r in rows]
    free = (1 << code.length) - 1
    while pivots:
        yield len(pivots), rows
        for p in pivots:
            free ^= p
        pivot_rows, vanishing = _eliminate(rows, free)
        rows = [*pivot_rows.values(), *vanishing]
        pivots = [1 << p for p in pivot_rows]


def _schedule(k: int, ranks: Sequence[int]) -> Iterator[tuple[int, range, int]]:
    # Brouwer-Zimmermann steps (matrix j, message weights to enumerate in it,
    # lower bound once done). Once every message of weight <= w has been
    # enumerated in matrix j, an unseen codeword has message weight >= w + 1,
    # so at least w + 1 - (k - r_j) of it lies on the r_j pivot columns of j;
    # the sets are disjoint, so these shares add up. Matrix j counts from
    # w = k - r_j on, and then needs every lighter message too, which it was
    # skipped for while it added nothing.
    gains = [0] * len(ranks)
    bound = 0
    for w in range(1, k + 1):
        for j, r in enumerate(ranks):
            if r + w < k:
                break
            levels = range(w, w + 1) if gains[j] else range(1, w + 1)
            gain = w + 1 - (k - r)
            bound += gain - gains[j]
            gains[j] = gain
            yield j, levels, bound


def _lightest_sum(rows: list[int], i: int) -> int:
    # Smallest weight of a sum of exactly i distinct rows, 1 <= i <= len(rows).
    # Each sum splits into i - h leading rows, chosen by recursion, and
    # h = max(1, i // 2) trailing rows, read from a table of every h-row sum
    # grouped by first row; the sums whose first row is t or later start at
    # starts[t]. The innermost loop is then one mapped pass over a slice.
    pc = _popcount
    n = len(rows)
    h = max(1, i // 2)
    sums, starts = rows, list(range(n + 1))
    for _ in range(h - 1):
        prev, prev_starts = sums, starts
        sums, starts = [], []
        for t, row in enumerate(rows):
            starts.append(len(sums))
            sums += map(row.__xor__, prev[prev_starts[t + 1]:])
        starts.append(len(sums))

    def lightest(start: int, depth: int, acc: int) -> int:
        if depth == 0:
            return min(map(pc, map(acc.__xor__, sums[starts[start]:])))
        return min(
            lightest(t + 1, depth - 1, acc ^ rows[t]) for t in range(start, n - h - depth + 1)
        )

    return lightest(0, i - h, 0)


def min_distance(code: LinearCode) -> int:
    """Exact minimum distance by the Brouwer-Zimmermann algorithm.

    The code gets generator matrices over disjoint information sets,
    matrix j of rank r_j on its set. Messages of weight w = 1, 2, ... are
    enumerated in each matrix; once every weight up to w is done, a
    codeword not yet seen has weight at least
    sum_j max(0, w + 1 - (k - r_j)), and the search stops when that bound
    reaches the lightest codeword found.

    Before any enumeration, the number of codewords to visit is estimated
    by running that stopping rule against the lightest basis row, which
    the true answer can only undercut. When the estimate reaches 2^k - 1,
    the exhaustive Gray walk runs instead. Raises Undefined for the zero
    code and BudgetExceeded when the cheaper of the two visits more than
    2^ENUMERATION_CAP codewords.
    """
    k = code.dim
    if k == 0:
        raise Undefined("the zero code has no nonzero codeword")
    walk = (1 << k) - 1
    matrices = list(_information_sets(code))
    ranks = [r for r, _ in matrices]
    best = min(map(_popcount, code.rows))
    estimate = 0
    for _, levels, bound in _schedule(k, ranks):
        estimate += sum(comb(k, i) for i in levels)
        if bound >= best or estimate >= walk:
            break
    estimate = min(estimate, walk)
    if estimate > 1 << ENUMERATION_CAP:
        raise _over_budget("an estimated", estimate, "codewords to visit", 1 << ENUMERATION_CAP)
    if estimate == walk:
        return min(_nonzero_weights(code))
    for j, levels, bound in _schedule(k, ranks):
        rows = matrices[j][1]
        best = min(best, *(_lightest_sum(rows, i) for i in levels))
        if bound >= best:
            break
    return best


class WeightEnumerator(Record):
    counts: dict[int, int]
    doubly_even: bool


def _check_macwilliams(counts: dict[int, int], length: int, dim: int) -> None:
    # For a self-dual code the Krawtchouk transform of the weight counts,
    # sum_i A_i K_j(i) with K_j(i) = sum_s (-1)^s C(i, s) C(length - i, j - s),
    # is 2^dim times the dual's count, which is A_j again.
    for j in range(length + 1):
        transformed = sum(
            a * sum((-1) ** s * comb(i, s) * comb(length - i, j - s) for s in range(j + 1))
            for i, a in counts.items()
        )
        if transformed != counts.get(j, 0) << dim:
            raise TheoremViolation(
                f"MacWilliams transform gives {transformed} / 2^{dim} words of weight {j}, "
                f"enumerated {counts.get(j, 0)}"
            )


def _doubly_even(rows: Sequence[int]) -> bool:
    """Whether every codeword of the span of ``rows`` has weight divisible by 4.

    No codeword is walked: wt(u + v) = wt(u) + wt(v) - 2|u AND v|, so for
    u and v of weight divisible by 4, u + v is too exactly when u and v
    are orthogonal. Orthogonality is bilinear, so the span is doubly even
    exactly when every row weight is divisible by 4 and the rows are
    pairwise orthogonal.
    """
    return all(_popcount(r) % 4 == 0 for r in rows) and _pairwise_orthogonal(rows)


def weight_enumerator(code: LinearCode) -> WeightEnumerator:
    """Weight distribution by exhaustive enumeration.

    ``doubly_even`` is checked twice: every enumerated weight divisible
    by 4, and the basis route ``_doubly_even``. The two must agree. For a
    self-dual code the counts must also be invariant under the
    MacWilliams transform.
    """
    if code.dim > ENUMERATION_CAP:
        raise _over_budget("walking", 1 << code.dim, "codewords", 1 << ENUMERATION_CAP)
    counts: dict[int, int] = {0: 1}
    for w in _nonzero_weights(code):
        counts[w] = counts.get(w, 0) + 1
    enumerated = all(w % 4 == 0 for w in counts)
    by_basis = _doubly_even(code.rows)
    if enumerated != by_basis:
        raise TheoremViolation(
            f"doubly-even routes disagree: enumerated={enumerated} basis={by_basis}"
        )
    if is_self_dual(code):
        _check_macwilliams(counts, code.length, code.dim)
    return WeightEnumerator(counts=dict(sorted(counts.items())), doubly_even=enumerated)


def format_matrix(rows: Sequence[int], width: int) -> str:
    """Render int rows as '0'/'1' lines of ``width`` characters; character i is bit i."""
    return "".join(bin(r)[2:].zfill(width)[::-1] + "\n" for r in rows)
