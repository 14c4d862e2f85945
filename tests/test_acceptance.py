"""Acceptance gate: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the
[PASS]/[FAIL] line for every criterion. All comparisons are exact; the
only tolerance anywhere is the wall-clock limit in criterion 4.
"""

from __future__ import annotations

import random
import time

import polycodes as pc

from helpers import (
    BitVector,
    basis,
    colorability_criteria,
    face_indicator,
    inner,
    random_self_dual_code,
    reduce,
    reed_muller,
)
from smallcover import VectorColoring, admits_regular_m_involution, validate_characteristic


def run_criterion(num: int, description: str, body) -> None:
    try:
        body()
    except BaseException:
        print(f"[FAIL] criterion {num:02d}: {description}")
        raise
    print(f"[PASS] criterion {num:02d}: {description}")


def realized_corpus() -> list[tuple[str, pc.SimplePolytope]]:
    pairs = [(e.label, e.build()) for e in pc.corpus()]
    return [(label, P) for label, P in pairs if P.coords is not None]


def test_criterion_01():
    def body():
        code = pc.face_code(pc.cube(3), 1).code
        assert (code.length, code.dim) == (8, 4)
        assert pc.min_distance(code) == 4
        assert pc.is_self_dual(code) is True
        we = pc.weight_enumerator(code)
        assert we.counts == {0: 1, 4: 14, 8: 1}
        assert we.doubly_even
        assert code == reed_muller(1, 3)

    run_criterion(
        1,
        "cube(3) facet code is the [8,4,4] self-dual doubly-even code "
        "RM(1,3) with enumerator 1 + 14z^4 + z^8",
        body,
    )


def test_criterion_02():
    def body():
        code = pc.face_code(pc.prism(8), 1).code
        assert (code.length, code.dim, pc.min_distance(code)) == (16, 8, 4)
        assert pc.is_self_dual(code) is True
        assert pc.weight_enumerator(code).doubly_even
        assert pc.mallows_sloane(16) == pc.min_distance(code) == 4

    run_criterion(
        2,
        "prism(8) facet code is [16,8,4] self-dual doubly-even and "
        "extremal at length 16",
        body,
    )


def test_criterion_03():
    def body():
        code = pc.face_code(pc.prism(6), 1).code
        assert (code.length, code.dim, pc.min_distance(code)) == (12, 6, 4)
        assert pc.is_self_dual(code) is True
        assert not pc.weight_enumerator(code).doubly_even

    run_criterion(
        3,
        "prism(6) facet code is [12,6,4] self-dual and not doubly even",
        body,
    )


def test_criterion_04():
    def body():
        start = time.perf_counter()
        code = pc.face_code(pc.cube(5), 2).code
        assert (code.length, code.dim) == (32, 16)
        assert code == reed_muller(2, 5)
        assert pc.min_distance(code) == 8
        assert pc.is_self_dual(code) is True
        assert pc.weight_enumerator(code).doubly_even
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"enumeration took {elapsed:.2f}s, limit is 5s"

    run_criterion(
        4,
        "cube(5) middle code equals RM(2,5), a [32,16,8] self-dual "
        "doubly-even code, enumerated exhaustively in under 5 seconds",
        body,
    )


def test_criterion_05():
    def body():
        P = pc.dual_cyclic(5, 7)
        assert pc.fh_vectors(P).h == (1, 2, 3, 3, 2, 1)
        assert tuple(len(f) for f in P.facets) == (9, 8, 9, 8, 9, 8, 9)

    run_criterion(
        5,
        "the 5-polytope dual to the cyclic polytope with 7 facets has "
        "h = (1,2,3,3,2,1) and facet sizes 9,8,9,8,9,8,9 in order",
        body,
    )


def test_criterion_06():
    def body():
        for entry in pc.corpus():
            P = entry.build()
            if P.dim < 3:
                continue
            colorable = pc.colorability_report(P) is not None
            assert set(colorability_criteria(P).values()) == {colorable}

    run_criterion(
        6,
        "the six colorability criteria agree on every corpus polytope "
        "of dimension at least 3",
        body,
    )


def test_criterion_07():
    def body():
        for entry in pc.corpus():
            P = entry.build()
            if not pc.is_even(P):
                continue
            dims = pc.dimension_law_check(P)
            h = pc.fh_vectors(P).h
            for k, dim in enumerate(dims):
                assert dim == sum(h[: k + 1])
        # Non-even strictness: the lower bound is not attained.
        assert pc.face_code(pc.simplex(3), 1).code.dim == 4 > 2

    run_criterion(
        7,
        "face-code dimensions equal partial h-sums on every even corpus "
        "member, with strict excess on simplex(3) at codimension 1",
        body,
    )


def test_criterion_08():
    def body():
        for entry in pc.corpus():
            P = entry.build()
            if not pc.is_even(P):
                continue
            for k in range(P.dim):
                assert (
                    pc.dual_code(pc.face_code(P, k).code)
                    == pc.face_code(P, P.dim - 1 - k).code
                )

    run_criterion(
        8,
        "dualizing a face code complements its codimension on every "
        "even corpus member",
        body,
    )


def test_criterion_09():
    def body():
        for entry in pc.corpus():
            P = entry.build()
            for k in range(P.dim + 1):
                r = pc.self_duality_report(P, k)
                assert (r.half_dimension and r.face_parity_ok) == r.self_dual
                if P.dim == 4:
                    assert not r.self_dual

    run_criterion(
        9,
        "the half-dimension plus face-parity verdict matches the direct "
        "self-duality test everywhere, and no 4-dimensional member has "
        "a self-dual code",
        body,
    )


def test_criterion_10():
    def body():
        for label, P in realized_corpus():
            h = pc.fh_vectors(P).h
            for seed in range(20):
                phi = pc.generic_height(P, seed=seed)
                assert pc.index_histogram(P, phi) == h
                for k in range(P.dim + 1):
                    # Independence and, on even members, spanning are
                    # asserted inside the extraction.
                    picked = pc.extract_basis(P, phi, k)
                    assert len(picked) == sum(h[: k + 1])
        # Non-even members can fall short of the full code.
        P = pc.simplex(3)
        phi = pc.generic_height(P, seed=0)
        span = reduce(
            [face_indicator(P, f) for _, f in pc.extract_basis(P, phi, 1)],
            length=P.num_vertices,
        )
        assert span.dim == 2 < pc.face_code(P, 1).code.dim

    run_criterion(
        10,
        "20 seeded height functions per realized member reproduce the "
        "h-vector and extract independent faces, spanning the code "
        "exactly on even members",
        body,
    )


def test_criterion_11():
    def body():
        expected = {
            (24, 8): ("Infeasible", None),
            (48, 12): ("Infeasible", None),
            (72, 16): ("Infeasible", None),
            (8, 4): ("FeasibleWitness", "cube 3"),
            (16, 4): ("FeasibleWitness", "prism 8"),
        }
        for (l, d), (status, witness) in expected.items():
            v = pc.realizability_screen(l, d, True)
            assert v.status == status
            assert (v.witness.text() if v.witness else None) == witness
            if status == "FeasibleWitness":
                # The witness rule only enters the trace after the
                # construction is rebuilt and its code rechecked.
                assert v.trace[-1].rule == "witness"

    run_criterion(
        11,
        "the five pinned screens return Infeasible/Infeasible/Infeasible/"
        "cube(3)/prism(8), witnesses recomputed",
        body,
    )


def test_criterion_12():
    def body():
        lam = VectorColoring(r=3, colors=(1, 1, 2, 2, 4, 4))
        r = admits_regular_m_involution(pc.cube(3), lam)
        assert r.admits and r.fixed_points == 8 and r.betti == (1, 3, 3, 1)
        lam4 = VectorColoring(r=3, colors=(1, 2, 4, 7))
        assert validate_characteristic(pc.simplex(3), lam4)
        r4 = admits_regular_m_involution(pc.simplex(3), lam4)
        assert not r4.admits

    run_criterion(
        12,
        "the standard cube(3) coloring admits a regular involution with "
        "8 fixed points and Betti numbers (1,3,3,1); the simplex(3) "
        "characteristic data admits none",
        body,
    )


def test_criterion_13():
    def body():
        cases = 10_000
        rng = random.Random(20240813)
        for _ in range(cases):
            length = rng.randrange(1, 13)
            gens = [
                BitVector(length, rng.getrandbits(length))
                for _ in range(rng.randrange(1, 5))
            ]
            code = reduce(gens, length=length)
            assert pc.dual_code(pc.dual_code(code)) == code

        rng = random.Random(20240814)
        for _ in range(cases):
            code = random_self_dual_code(rng, length=rng.choice((8, 10, 12)))
            assert all(g.weight % 2 == 0 for g in basis(code))
            assert pc.min_distance(code) % 2 == 0

        rng = random.Random(20240815)
        for _ in range(cases):
            length = rng.randrange(1, 25)
            u = BitVector(length, rng.getrandbits(length))
            v = BitVector(length, rng.getrandbits(length))
            assert (u.weight + v.weight - (u + v).weight) % 4 == 2 * inner(u, v) % 4

        rng = random.Random(20240816)
        for _ in range(cases):
            length = rng.randrange(1, 25)
            u = BitVector(length, rng.getrandbits(length))
            assert (u & u) == u

    run_criterion(
        13,
        "seeded property sweeps (dual involution, self-dual parity, "
        "inner-product weight identity, product idempotence) pass 10^4 "
        "cases each",
        body,
    )
