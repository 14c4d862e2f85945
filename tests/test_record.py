"""Records behave as the frozen dataclasses they replaced.

Every Record subclass, in the package and in the test fixtures, is
compared with a twin made by ``dataclasses.make_dataclass(...,
frozen=True)`` from the same fields and defaults, on instances the
package and the fixtures build.
"""

from __future__ import annotations

import dataclasses
import itertools
from fractions import Fraction

import pytest

import polycodes as pc
from polycodes._record import Record

from helpers import BitVector
from smallcover import VectorColoring, admits_regular_m_involution, lift_coloring


def sample_records() -> list[Record]:
    P, Q = pc.cube(3), pc.prism(6)
    code = pc.face_code(P, 1).code
    verdicts = [pc.realizability_screen(*a) for a in [(8, 4, True), (8, 2, False), (10, 4, False)]]
    lam = lift_coloring(pc.find_coloring(P))
    return [
        P,
        Q,
        pc.validate(1, [[0], [1]]),
        *pc.faces_of_codim(P, 1)[:2],
        pc.fh_vectors(P),
        pc.fh_vectors(Q),
        BitVector(5, 9),
        BitVector(3),
        pc.face_code(P, 1),
        pc.face_code(Q, 2),
        code,
        pc.dual_code(pc.face_code(Q, 2).code),
        pc.weight_enumerator(code),
        pc.find_coloring(P),
        pc.find_coloring(Q),
        pc.colorability_report(P),
        pc.self_duality_report(P, 1),
        pc.self_duality_report(Q, 1),
        *verdicts,
        *verdicts[1].trace,
        *pc.run_suite("duality", [("cube 3", P)]),
        pc.parse_recipe("cube 3"),
        pc.parse_recipe("product (polygon 4) (cube 2)"),
        *pc.corpus()[:2],
        lam,
        VectorColoring(3, (1, 2, 4, 7, 7)),
        admits_regular_m_involution(P, lam),
        admits_regular_m_involution(Q, VectorColoring(3, (1, 2, 3, 1, 2, 3, 4, 4))),
        pc.generic_height(P, 0),
        pc.generic_height(Q, 1),
    ]


SAMPLES = sample_records()


def record_classes() -> list[type[Record]]:
    return sorted(Record.__subclasses__(), key=lambda cls: cls.__qualname__)


def twin(cls: type[Record]) -> type:
    """The frozen dataclass with cls's fields, defaults and ``__post_init__``."""
    spec = [
        (n, object, dataclasses.field(default=cls._defaults[n])) if n in cls._defaults else (n, object)
        for n in cls._fields
    ]
    namespace = {"__post_init__": cls.__post_init__}
    return dataclasses.make_dataclass(cls.__qualname__, spec, namespace=namespace, frozen=True)


def fields_of(record: Record) -> dict[str, object]:
    return {n: getattr(record, n) for n in record._fields}


def raises(exc: type[BaseException], make) -> bool:
    try:
        make()
    except exc:
        return True
    return False


def test_every_record_class_has_samples_and_two_or_more_fields():
    # attrgetter reads two or more fields as a tuple, which hash and repr need.
    classes = record_classes()
    assert {type(r) for r in SAMPLES} == set(classes)
    assert all(len(cls._fields) >= 2 for cls in classes)


@pytest.mark.parametrize("cls", record_classes(), ids=lambda cls: cls.__qualname__)
def test_record_behaves_as_its_frozen_dataclass_twin(cls):
    Twin = twin(cls)
    records = [r for r in SAMPLES if type(r) is cls]
    for r in records:
        values = fields_of(r)
        t = Twin(**values)
        assert repr(r) == repr(t)
        assert r == cls(**values) == cls(*values.values()) and t == Twin(*values.values())
        assert r != t and t != r
        hashable = not raises(TypeError, lambda: hash(t))
        assert hashable == (not raises(TypeError, lambda: hash(r)))
        if hashable:
            assert hash(r) == hash(t) == hash(cls(**values))

        first, *_ = values
        for make in (Twin, cls):
            assert raises(TypeError, make)
            assert raises(TypeError, lambda: make(*values.values(), None))
            assert raises(TypeError, lambda: make(**values, unknown=None))
            assert raises(TypeError, lambda: make(values[first], **values))
            rest = {n: v for n, v in values.items() if n != first}
            assert raises(TypeError, lambda: make(**rest))
        for obj in (r, t):
            with pytest.raises(AttributeError):
                setattr(obj, first, values[first])
            with pytest.raises(AttributeError):
                delattr(obj, first)
            with pytest.raises(AttributeError):
                obj.not_a_field = 1

        for other, name in itertools.product(records, values):
            change = {name: getattr(other, name)}
            try:
                changed = r._replace(**change)
            except pc.InvalidInput:
                continue  # the combination breaks the class's own validation
            assert repr(changed) == repr(dataclasses.replace(t, **change))
            assert changed == cls(**{**values, **change})
        assert raises(TypeError, lambda: r._replace(unknown=None))


def test_records_of_different_classes_or_tuples_are_unequal():
    a, b = pc.Coloring(3, (1, 2)), VectorColoring(3, (1, 2))
    assert a._values(a) == b._values(b) == (3, (1, 2))
    assert a != b and b != a and a != (3, (1, 2))


def test_replace_gives_a_polytope_a_fresh_derived_store():
    P = pc.cube(3)
    pc.fh_vectors(P)
    Q = P._replace(name="copy")
    assert Q._derived == {} and P._derived
    assert Q.name == "copy" and Q == P._replace(name="copy") and Q != P
    assert pc.fh_vectors(Q) == pc.fh_vectors(P)
    assert P._replace() == P


def test_height_rank_takes_no_part_in_equality_hash_or_repr():
    phi = pc.generic_height(pc.prism(6), 1)
    other = pc.HeightFunction(phi.objective, phi.values)
    object.__setattr__(other, "rank", phi.rank[::-1])
    assert "rank" not in pc.HeightFunction._fields
    assert other == phi and hash(other) == hash(phi) and repr(other) == repr(phi)
    assert "rank" not in repr(phi)
    flipped = phi._replace(values=tuple(-x for x in phi.values))
    assert flipped.rank == tuple(len(phi.values) - 1 - r for r in phi.rank)


@pytest.mark.parametrize(
    "make, error",
    [
        (lambda: BitVector(0), pc.InvalidInput),
        (lambda: BitVector(3, -1), pc.InvalidInput),
        (lambda: pc.ScreenVerdict("Maybe", (), None), pc.InvalidInput),
        (lambda: pc.ScreenVerdict("Infeasible", (), None), pc.InvalidInput),
        (lambda: pc.ScreenVerdict("Unknown", (), pc.parse_recipe("cube 3")), pc.InvalidInput),
        (lambda: VectorColoring(0, ()), pc.InvalidInput),
        (lambda: VectorColoring(2, (1, 4)), pc.InvalidInput),
        (lambda: BitVector(2, 1)._replace(length=0), pc.InvalidInput),
        (lambda: pc.HeightFunction((Fraction(1),), (Fraction(0), Fraction(0))), pc.InvalidInput),
    ],
)
def test_post_init_validators_still_raise(make, error):
    with pytest.raises(error):
        make()


def test_post_init_still_completes_a_record():
    assert BitVector(3, 0b11111).bits == 0b111
    assert BitVector(3, 0b1111)._replace(length=2).bits == 0b11
