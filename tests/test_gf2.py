"""Binary linear algebra kernels against brute-force oracles."""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polycodes as pc
from polycodes import gf2
from polycodes.gf2 import _check_macwilliams

from helpers import (
    BitVector,
    all_codewords,
    basis,
    bitvector_pairs,
    bitvectors,
    brute_min_distance,
    brute_weight_counts,
    contains,
    dual_by_bit_test,
    eliminate_by_full_scan,
    inner,
    linear_codes,
    parse_matrix,
    random_self_dual_code,
    reduce,
    reed_muller,
)

EXT_HAMMING_ROWS = ["11111111", "00001111", "00110011", "01010101"]


def ext_hamming() -> pc.LinearCode:
    return reduce([BitVector.from01(r) for r in EXT_HAMMING_ROWS])


def test_bitvector_construction_and_accessors():
    v = BitVector.from01("10110")
    assert len(v) == 5
    assert v.to01() == "10110"
    assert v.weight == 3
    assert v.support == (0, 2, 3)
    assert list(v) == [1, 0, 1, 1, 0]
    assert v[0] == 1 and v[1] == 0
    assert str(v) == "10110"


def test_bitvector_rejects_bad_shapes():
    with pytest.raises(pc.InvalidInput):
        BitVector(0, 0)
    with pytest.raises(pc.InvalidInput):
        BitVector(3, -1)
    with pytest.raises(pc.InvalidInput):
        BitVector.from01("10a")
    with pytest.raises(pc.InvalidInput):
        BitVector.from01("101") + BitVector.from01("1011")


def test_bitvector_tail_is_masked():
    assert BitVector(3, 0b11111).bits == 0b111


def test_xor_and_componentwise_product():
    u = BitVector.from01("1100")
    v = BitVector.from01("1010")
    assert (u + v).to01() == "0110"
    assert (u & v).to01() == "1000"
    ones = BitVector.ones(4)
    assert (u & ones) == u
    assert (u & u) == u


def test_inner_product_values():
    assert inner(BitVector.from01("1100"), BitVector.from01("1010")) == 1
    assert inner(BitVector.from01("1111"), BitVector.from01("0110")) == 0


@given(bitvectors())
def test_inner_with_self_is_weight_parity(v):
    assert inner(v, v) == v.weight % 2


@given(bitvector_pairs())
def test_inner_weight_identity_mod_4(pair):
    u, v = pair
    assert 2 * inner(u, v) % 4 == (u.weight + v.weight - (u + v).weight) % 4


def test_reduce_zero_space():
    assert reduce([BitVector.from01("0000")]).dim == 0


def test_reduce_dependent_generators():
    code = reduce([BitVector.from01(r) for r in ("1100", "0110", "1010")])
    assert code.dim == 2


def test_reduce_all_weight_four_words_of_ext_hamming():
    words = [
        BitVector(8, w) for w in all_codewords(ext_hamming()) if bin(w).count("1") == 4
    ]
    assert len(words) == 14
    assert reduce(words).dim == 4


def test_reduce_rejects_mixed_lengths():
    with pytest.raises(pc.InvalidInput):
        reduce([BitVector.from01("101"), BitVector.from01("1011")])


@given(linear_codes())
def test_reduce_basis_is_reduced_echelon(code):
    for i, row in enumerate(basis(code)):
        pivot = row.support[0]
        for j, other in enumerate(basis(code)):
            if i != j:
                assert other[pivot] == 0
    pivots = [row.support[0] for row in basis(code)]
    assert pivots == sorted(pivots)


@given(linear_codes())
def test_membership_matches_span_enumeration(code):
    words = all_codewords(code)
    assert all(contains(code, BitVector(code.length, w)) for w in words)
    outside = next(
        (w for w in range(2**code.length) if w not in words), None
    ) if code.length <= 12 else None
    if outside is not None:
        assert not contains(code, BitVector(code.length, outside))


@given(st.data())
def test_is_subspace_of_matches_span_enumeration(data):
    code = data.draw(linear_codes())
    other = data.draw(linear_codes(length=code.length))
    assert code.is_subspace_of(other) == (all_codewords(code) <= all_codewords(other))
    extra = data.draw(st.lists(st.integers(0, 2**code.length - 1), max_size=4))
    wider = reduce(
        [*basis(code), *(BitVector(code.length, e) for e in extra)], length=code.length
    )
    assert code.is_subspace_of(wider)
    assert wider.is_subspace_of(code) == (all_codewords(wider) <= all_codewords(code))


def test_is_subspace_of_rejects_mixed_lengths():
    with pytest.raises(pc.InvalidInput):
        reduce([BitVector.from01("110")]).is_subspace_of(
            reduce([BitVector.from01("1100")])
        )


@given(st.data())
def test_reduce_is_independent_of_generator_order(data):
    length = data.draw(st.integers(1, 16))
    gens = [
        BitVector(length, g)
        for g in data.draw(st.lists(st.integers(0, 2**length - 1), max_size=8))
    ]
    code = reduce(gens, length=length)
    shuffled = data.draw(st.permutations(gens))
    again = reduce(shuffled, length=length)
    assert again == code
    assert hash(again) == hash(code)
    assert basis(again) == basis(code)


# ----------------------------------------------- elimination against the scan


def random_rows(rng: random.Random, length: int) -> list[int]:
    """Sparse or dense rows of one length, with zero rows and sums of
    earlier rows mixed in."""
    density = rng.choice((0.01, 0.05, 0.2, 0.5))
    rows: list[int] = []
    for _ in range(rng.randint(0, length + 8)):
        kind = rng.random()
        if kind < 0.1:
            rows.append(0)
        elif kind < 0.3 and len(rows) >= 2:
            rows.append(rows[rng.randrange(len(rows))] ^ rows[rng.randrange(len(rows))])
        else:
            rows.append(sum(1 << i for i in range(length) if rng.random() < density))
    return rows


def check_against_full_scan(rows: list[int], mask: int, length: int) -> None:
    full = (1 << length) - 1
    pivot_rows, vanishing = gf2._eliminate(rows, mask)
    expected_rows, _ = eliminate_by_full_scan(rows, mask)
    if mask == full:
        assert pivot_rows == expected_rows and vanishing == []
        return
    assert sorted(pivot_rows) == sorted(expected_rows)
    pivots = sum(1 << p for p in pivot_rows)
    for p, row in pivot_rows.items():
        on_mask = row & mask
        assert on_mask & -on_mask == 1 << p
        assert row & pivots == 1 << p
    assert all(v and not v & mask for v in vanishing)
    span = eliminate_by_full_scan([*pivot_rows.values(), *vanishing], full)[0]
    assert span == eliminate_by_full_scan(rows, full)[0]


def test_eliminate_matches_full_scan_on_random_rows():
    rng = random.Random(2026101809)
    for length in [1, 2, 3, 300, *(rng.randint(1, 300) for _ in range(60))]:
        rows = random_rows(rng, length)
        full = (1 << length) - 1
        masks = [full, rng.getrandbits(length), full ^ (1 << rng.randrange(length))]
        masks.append(sum(1 << i for i in range(length) if rng.random() < 0.1))
        for mask in masks:
            check_against_full_scan(rows, mask, length)


def test_dual_code_matches_bit_test_on_corpus_face_codes():
    for entry in pc.corpus():
        P = entry.build()
        for k in range(P.dim + 1):
            code = pc.face_code(P, k).code
            assert pc.dual_code(code) == dual_by_bit_test(code), (entry.label, k)


@pytest.mark.parametrize("m", [550, 1000])
def test_eliminate_on_large_prism_faces_costs_the_pivots_hit(m):
    # The full scan probes every pivot row for every face: 45 to 75 times
    # the time of reducing by the pivots each face hits, on these inputs.
    # A factor of 10 leaves room for timing noise and still catches a
    # return to rows x rank.
    P = pc.prism(m)
    rows = [f.vertex_mask for f in pc.faces_of_codim(P, 2)]
    full = (1 << P.num_vertices) - 1

    def timed(eliminate):
        start = time.perf_counter()
        result = eliminate(rows, full)
        return time.perf_counter() - start, result

    scan_s, expected = timed(eliminate_by_full_scan)
    runs = [timed(gf2._eliminate) for _ in range(3)]
    assert all(result == expected for _, result in runs)
    fast_s = min(s for s, _ in runs)
    assert 10 * fast_s < scan_s, (fast_s, scan_s)


def test_dual_of_zero_space_is_full_space():
    zero = reduce([BitVector.from01("0000")])
    assert pc.dual_code(zero).dim == 4


def test_dual_of_all_ones_is_even_weight_space():
    for length in (2, 4, 6, 8):
        dual = pc.dual_code(reduce([BitVector.ones(length)]))
        assert dual.dim == length - 1
        assert all(bin(w).count("1") % 2 == 0 for w in all_codewords(dual))


@given(linear_codes())
def test_dual_is_dimension_complementary_involution(code):
    dual = pc.dual_code(code)
    assert code.dim + dual.dim == code.length
    assert pc.dual_code(dual) == code


def test_is_self_dual_examples():
    assert pc.is_self_dual(reduce([BitVector.from01("11")])) is True
    assert pc.is_self_dual(
        reduce([BitVector.from01("1100"), BitVector.from01("0011")])
    ) is True
    bad = reduce([BitVector.from01("1000"), BitVector.from01("0100")])
    assert pc.is_self_dual(bad) is False
    assert any(inner(x, y) for x in basis(bad) for y in basis(bad))


def test_self_duality_trace_on_ext_hamming():
    code = ext_hamming()
    assert pc.is_self_dual(code) is True
    assert 2 * code.dim == code.length
    assert not any(inner(x, y) for x in basis(code) for y in basis(code))
    assert all((x & y).weight % 2 == 0 for x in basis(code) for y in basis(code))


def test_self_duality_routes_that_disagree_raise(monkeypatch):
    monkeypatch.setattr(gf2, "_pairwise_orthogonal", lambda rows: False)
    with pytest.raises(pc.TheoremViolation, match="self-duality criteria disagree"):
        pc.is_self_dual(reed_muller(1, 3))


def test_pairwise_route_runs_only_at_half_dimension(monkeypatch):
    def refuse(rows):
        raise AssertionError("pairwise orthogonality tested off half dimension")

    monkeypatch.setattr(gf2, "_pairwise_orthogonal", refuse)
    assert pc.is_self_dual(pc.face_code(pc.cube(3), 0).code) is False


def test_min_distance_examples():
    assert pc.min_distance(reduce([BitVector.ones(6)])) == 6
    assert pc.min_distance(ext_hamming()) == 4
    assert pc.min_distance(reed_muller(2, 5)) == 8
    assert pc.min_distance(reed_muller(1, 7)) == 64
    assert pc.min_distance(reed_muller(1, 8)) == 128


def test_min_distance_error_paths():
    zero = reduce([BitVector.from01("000")])
    with pytest.raises(pc.Undefined):
        pc.min_distance(zero)
    with pytest.raises(pc.BudgetExceeded, match=r"estimated \d+ codewords .* 2\^28 = 268435456"):
        pc.min_distance(reed_muller(3, 7))
    # Dimension alone does not trigger a refusal.
    big = reduce(
        [BitVector.from_support(40, (i,)) for i in range(pc.ENUMERATION_CAP + 1)]
    )
    assert pc.min_distance(big) == 1


@settings(deadline=None)
@given(linear_codes(max_length=12))
def test_min_distance_matches_brute_force(code):
    if code.dim == 0:
        return
    assert pc.min_distance(code) == brute_min_distance(code)


@settings(deadline=None)
@given(linear_codes(max_length=12, max_generators=12))
def test_information_set_search_matches_brute_force_on_small_codes(code):
    # Up to dimension 12, where the estimate sends most codes to the search.
    if code.dim == 0:
        return
    assert pc.min_distance(code) == brute_min_distance(code)


# A [23,11,3] code whose information sets have ranks 11, 9 and 3. The
# second set adds to the distance bound from message weight 2 on, and a
# weight-3 codeword is a weight-1 message there, so the search has to go
# back to weight 1 in that set before it may stop.
RANK_DEFICIENT_ROWS = [
    "10000000000110100101100",
    "01000000000010011010010",
    "00100001000010111010010",
    "00010000000000111011101",
    "00001000000010001001101",
    "00000101000010111101101",
    "00000010000110111110001",
    "00000000100000001110001",
    "00000000010010110010000",
    "00000000001010100010011",
    "00000000000001111010001",
]


def sparse_codes(rng: random.Random, count: int) -> list[pc.LinearCode]:
    """Codes of length 16-24 and dimension about half of it, from sparse
    generators, so that later information sets are rank-deficient."""
    codes = []
    for _ in range(count):
        n = rng.randint(16, 24)
        gens = [
            BitVector.from_support(n, [i for i in range(n) if rng.random() < 0.3])
            for _ in range(rng.choice((n // 2 - 1, n // 2)))
        ]
        codes.append(reduce(gens, length=n))
    return codes


def test_min_distance_matches_walk_on_rank_deficient_codes():
    fixed = reduce([BitVector.from01(r) for r in RANK_DEFICIENT_ROWS])
    assert [rank for rank, _ in gf2._information_sets(fixed)] == [11, 9, 3]
    assert (fixed.length, fixed.dim, pc.min_distance(fixed)) == (23, 11, 3)
    for code in [fixed, *sparse_codes(random.Random(2026101802), 400)]:
        if code.dim == 0:
            continue
        counts = pc.weight_enumerator(code).counts
        assert pc.min_distance(code) == min(w for w in counts if w)


# Corpus codes too large to walk in test time (2^23 to 2^26 codewords,
# 3-23 s each), checked against closed forms instead. The codimension-3
# code of the 5-cube is RM(3,5). The codimension-3 and -4 faces of
# polygon 6 x square are its edges and its vertices, which span the
# even-weight code of a connected graph and the whole space.
LARGE_CORPUS_DISTANCES = {
    ("cube 5", 3): 4,
    ("product (polygon 6) (cube 2)", 3): 2,
    ("product (polygon 6) (cube 2)", 4): 1,
}


def test_min_distance_matches_walk_on_corpus_face_codes():
    large = {}
    for entry in pc.corpus():
        P = entry.build()
        for k in range(P.dim + 1):
            code = pc.face_code(P, k).code
            if not 0 < code.dim <= pc.ENUMERATION_CAP:
                continue
            if code.dim > 20:
                large[(entry.label, k)] = pc.min_distance(code)
                continue
            counts = pc.weight_enumerator(code).counts
            assert pc.min_distance(code) == min(w for w in counts if w), (entry.label, k)
    assert large == LARGE_CORPUS_DISTANCES


def brute_doubly_even(code: pc.LinearCode) -> bool:
    return all(w % 4 == 0 for w in brute_weight_counts(code))


def test_weight_enumerator_examples():
    we = pc.weight_enumerator(reduce([BitVector.ones(8)]))
    assert we.counts == {0: 1, 8: 1}
    assert we.doubly_even
    he = pc.weight_enumerator(ext_hamming())
    assert he.counts == {0: 1, 4: 14, 8: 1}
    assert he.doubly_even


@settings(deadline=None)
@given(linear_codes(max_length=12))
def test_weight_enumerator_matches_brute_force(code):
    we = pc.weight_enumerator(code)
    assert we.counts == brute_weight_counts(code)
    assert we.doubly_even == all(w % 4 == 0 for w in we.counts)
    assert gf2._doubly_even(code.rows) == brute_doubly_even(code)


def test_doubly_even_basis_test_needs_orthogonal_rows():
    # Both basis rows have weight 4, but they meet in 3 coordinates, so
    # their sum 11000000 has weight 2.
    code = reduce([BitVector.from01("10111000"), BitVector.from01("01111000")])
    assert [r.to01() for r in basis(code)] == ["10111000", "01111000"]
    assert not gf2._doubly_even(code.rows) and not brute_doubly_even(code)


def test_doubly_even_basis_test_matches_brute_force_on_corpus_face_codes():
    seen = set()
    for entry in pc.corpus():
        P = entry.build()
        for k in range(P.dim + 1):
            code = pc.face_code(P, k).code
            if code.dim > 20:
                continue
            de = gf2._doubly_even(code.rows)
            assert de == brute_doubly_even(code), (entry.label, k)
            seen.add(de)
    assert seen == {True, False}


def test_doubly_even_basis_test_on_random_self_dual_codes():
    rng = random.Random(2026101810)
    seen = set()
    for _ in range(200):
        code = random_self_dual_code(rng, rng.choice((2, 4, 6, 8, 10, 12, 14, 16)))
        de = gf2._doubly_even(code.rows)
        assert de == brute_doubly_even(code)
        seen.add(de)
    assert seen == {True, False}


def test_weight_enumerator_refuses_over_the_budget_before_walking(monkeypatch):
    monkeypatch.setattr(gf2, "_nonzero_weights", lambda code: pytest.fail("walked"))
    code = reduce([BitVector.from_support(29, (i,)) for i in range(29)])
    with pytest.raises(
        pc.BudgetExceeded,
        match=r"^walking 536870912 codewords, over the budget of 2\^28 = 268435456$",
    ):
        pc.weight_enumerator(code)


def test_weight_enumerator_refusal_stays_short_past_the_digit_limit():
    # 2^15000 has over the 4,300 digits str() converts; the refusal shows a power of two.
    code = pc.LinearCode(15000, tuple(1 << i for i in range(15000)))
    with pytest.raises(pc.BudgetExceeded, match=r"^walking over 2\^14999 codewords, over the budget"):
        pc.weight_enumerator(code)


def test_weight_enumerator_macwilliams_invariance(monkeypatch):
    assert pc.weight_enumerator(ext_hamming()).counts == {0: 1, 4: 14, 8: 1}
    rm25 = pc.weight_enumerator(reed_muller(2, 5))
    assert rm25.counts == {0: 1, 8: 620, 12: 13888, 16: 36518, 20: 13888, 24: 620, 32: 1}
    with pytest.raises(pc.TheoremViolation, match="MacWilliams"):
        _check_macwilliams({0: 1, 4: 13, 8: 2}, 8, 4)
    # A walk that miscounts but keeps every weight divisible by 4 passes
    # the doubly-even routes and is caught by the transform alone.
    monkeypatch.setattr(gf2, "_nonzero_weights", lambda code: iter([4] * 13 + [8] * 2))
    with pytest.raises(pc.TheoremViolation, match="MacWilliams"):
        pc.weight_enumerator(ext_hamming())


def test_self_dual_codes_have_even_weights_and_even_min_distance():
    rng = random.Random(20260816)
    for _ in range(50):
        code = random_self_dual_code(rng, rng.choice((2, 4, 6, 8, 10, 12)))
        assert pc.is_self_dual(code) is True
        assert all(w % 2 == 0 for w in pc.weight_enumerator(code).counts)
        assert pc.min_distance(code) % 2 == 0
        for x in basis(code):
            for y in basis(code):
                assert (x & y).weight % 2 == 0


def test_reed_muller_shapes_and_values():
    rm03 = reed_muller(0, 3)
    assert rm03.dim == 1 and contains(rm03, BitVector.ones(8))
    rm13 = reed_muller(1, 3)
    assert rm13.dim == 4
    assert pc.min_distance(rm13) == 4
    assert rm13 == ext_hamming()
    rm25 = reed_muller(2, 5)
    assert rm25.dim == 16 and rm25.length == 32


def test_reed_muller_rejects_bad_order():
    with pytest.raises(pc.InvalidInput):
        reed_muller(3, 2)
    with pytest.raises(pc.InvalidInput):
        reed_muller(-1, 2)


def test_matrix_format_roundtrip():
    text = pc.format_matrix([0b101, 0b010], 3)
    assert text == "101\n010\n"
    assert parse_matrix(text) == [BitVector.from01("101"), BitVector.from01("010")]
    with pytest.raises(pc.InvalidInput):
        parse_matrix("10\n1\n")
    with pytest.raises(pc.InvalidInput):
        parse_matrix("")


@given(st.integers(1, 20), st.data())
def test_format_parse_roundtrip_random(length, data):
    rows = [data.draw(st.integers(0, 2**length - 1)) for _ in range(data.draw(st.integers(1, 5)))]
    assert parse_matrix(pc.format_matrix(rows, length)) == [BitVector(length, r) for r in rows]
