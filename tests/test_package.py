"""The package namespace re-exports exactly the modules' public names; imports stay cheap."""

from __future__ import annotations

import ast
import importlib
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import polycodes as pc
from polycodes import polytope
from polycodes._record import Record

from helpers import reed_muller


def test_package_all_is_the_union_of_the_module_all_lists():
    # cli is the command-line front end and __main__ runs it; neither is API.
    names = [
        m.name
        for m in pkgutil.iter_modules(pc.__path__)
        if m.name != "cli" and not m.name.startswith("_")
    ]
    union = set()
    for name in names:
        union |= set(importlib.import_module(f"polycodes.{name}").__all__)
    assert set(pc.__all__) == union
    assert len(pc.__all__) == len(union)
    assert all(hasattr(pc, name) for name in pc.__all__)
    assert callable(pc.corpus)


def test_every_public_name_is_used_outside_the_tests():
    # No public name exists only for the tests: each one is read somewhere
    # in the library, the scripts or the benchmark, other than in its own
    # definition and its __all__ entry. The benchmark worker names the
    # functions it traces as strings, so exact string constants count.
    root = Path(pc.__file__).resolve().parents[2]
    paths = [Path(pc.__file__).parent, root / "scripts", root / "perfbench"]
    used = set()
    for path in sorted(p for folder in paths for p in folder.glob("*.py")):
        tree = ast.parse(path.read_text())
        listed = {
            id(n)
            for node in tree.body
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
            for n in ast.walk(node)
        }
        for top in tree.body:
            own = getattr(top, "name", None)
            for n in ast.walk(top):
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                    name = n.id
                elif isinstance(n, ast.Attribute):
                    name = n.attr
                elif isinstance(n, ast.Constant) and isinstance(n.value, str) and id(n) not in listed:
                    name = n.value
                else:
                    continue
                if name != own:
                    used.add(name)
    assert sorted(set(pc.__all__) - used) == []


def test_every_record_field_is_read_outside_the_tests():
    # No record field exists only for the tests: each field of each public
    # record is read as an attribute somewhere in the library, the scripts
    # or the benchmark. The match is by name alone, so a field that shares
    # its name with one read elsewhere escapes it: a ``trace`` field on any
    # report would pass, because the CLI reads ScreenVerdict.trace.
    root = Path(pc.__file__).resolve().parents[2]
    paths = [Path(pc.__file__).parent, root / "scripts", root / "perfbench"]
    read = {
        n.attr
        for path in sorted(p for folder in paths for p in folder.glob("*.py"))
        for n in ast.walk(ast.parse(path.read_text()))
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }
    records = [getattr(pc, name) for name in pc.__all__]
    records = [cls for cls in records if isinstance(cls, type) and issubclass(cls, Record)]
    assert records
    unread = [f"{cls.__name__}.{f}" for cls in records for f in cls._fields if f not in read]
    assert unread == []


def test_only_the_polytope_module_walks_the_face_lattice():
    # Face counts and parities have one owner: other modules read the
    # walk's results, never the walk itself.
    for path in sorted(Path(pc.__file__).parent.glob("*.py")):
        if path.name == "polytope.py":
            continue
        tree = ast.parse(path.read_text())
        nodes = list(ast.walk(tree))
        names = {a.name for n in nodes if isinstance(n, ast.ImportFrom) for a in n.names}
        names |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
        assert "_walk" not in names, path.name


def test_only_the_errors_module_builds_budget_refusals():
    # Every refusal states its count and its budget one way: through
    # errors._over_budget, the one caller of BudgetExceeded(...).
    for path in sorted(Path(pc.__file__).parent.glob("*.py")):
        calls = [
            n
            for n in ast.walk(ast.parse(path.read_text()))
            if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "BudgetExceeded"
        ]
        assert len(calls) == (path.name == "errors.py"), path.name
    assert not hasattr(polytope, "_size_refusal") and not hasattr(polytope, "_OVER_LIMIT")


def _faces_over_a_small_budget(monkeypatch):
    # 24 codimension-2 faces of the 4-cube, 16 vertices each: 384 mask bits.
    monkeypatch.setattr(polytope, "_MAX_MASK_BITS", 1 << 8)
    pc.faces_of_codim(pc.cube(4), 2)


def _walk_over_a_small_budget(monkeypatch):
    # The 4-cube has 3^4 = 81 faces, each counted at its lowest vertex.
    monkeypatch.setattr(polytope, "_MAX_WALK_FACES", 1 << 6)
    pc.fh_vectors(pc.cube(4))


_B18, _B28 = "2^18 = 262144", "2^28 = 268435456"


@pytest.mark.parametrize(
    "refuse, work, budget",
    [
        (lambda mp: pc.validate(10**6, [[0], [1]]), "the polytope needs 2000000 vertex-facet incidences", _B18),
        (
            lambda mp: pc.validate(10**30, [[0], [1]]),
            "the polytope needs over 2^100 vertex-facet incidences",
            _B18,
        ),
        (lambda mp: pc.parse_recipe("cube 15").build(), "cube 15 needs 491520 vertex-facet incidences", _B18),
        # The cube's shape caps its count at 2^64 vertices: a lower bound, shown as one.
        (
            lambda mp: pc.parse_recipe("cube 100000").build(),
            "cube 100000 needs over 2^80 vertex-facet incidences",
            _B18,
        ),
        # The subset count is computed capped at C(M, 19), so it is shown symbolically.
        (lambda mp: pc.dual_cyclic(60, 120), "dualcyclic 60 120 tries C(120, 60) subsets", _B18),
        (lambda mp: pc.min_distance(reed_muller(3, 7)), "an estimated 1408988384 codewords to visit", _B28),
        (
            lambda mp: pc.min_distance(pc.face_code(pc.cube(10), 5).code),
            "an estimated over 2^175 codewords to visit",
            _B28,
        ),
        (
            lambda mp: pc.weight_enumerator(pc.LinearCode(29, tuple(1 << i for i in range(29)))),
            "walking 536870912 codewords",
            _B28,
        ),
        (
            lambda mp: pc.weight_enumerator(pc.LinearCode(15000, tuple(1 << i for i in range(15000)))),
            "walking over 2^14999 codewords",  # 2^15000 is shown as a strict lower bound
            _B28,
        ),
        (
            lambda mp: pc.realizability_screen(8000, 4, True),
            "verifying the witness prism 4000 needs 8002000 basis row pairs tested for orthogonality",
            _B18,
        ),
        (
            lambda mp: pc.realizability_screen(2**40, 4, True),
            "verifying the witness prism 549755813888 needs over 2^77 basis row pairs tested for orthogonality",
            _B18,
        ),
        # The walk stops at the first face over the budget; the rest are uncounted.
        (_faces_over_a_small_budget, "storing the codimension-2 faces needs over 2^8 vertex-mask bits", "2^8 = 256"),
        (_walk_over_a_small_budget, "the face walk needs an estimated 81 faces of codimension 0..4", "2^6 = 64"),
    ],
)
def test_every_budget_refusal_states_its_count_and_its_budget(refuse, work, budget, monkeypatch):
    with pytest.raises(pc.BudgetExceeded) as info:
        refuse(monkeypatch)
    assert str(info.value) == f"{work}, over the budget of {budget}"
    # One count: exact up to 64 bits (at most 20 digits), else a power of two below it.
    counts = re.findall(r"(?:needs|estimated|walking|tries) (over 2\^\d+|\d+|C\(\d+, \d+\))", work)
    assert len(counts) == 1 and (counts[0].startswith(("over", "C(")) or len(counts[0]) <= 20)


def test_only_faces_of_codim_names_the_stored_faces():
    # Every walk starts at the polytope: no function but the one that
    # stores a level reads the stored faces, so a walk cannot resume from them.
    tree = ast.parse((Path(pc.__file__).parent / "polytope.py").read_text())
    named = {
        f.name
        for f in ast.walk(tree)
        if isinstance(f, ast.FunctionDef)
        for n in ast.walk(f)
        if isinstance(n, ast.Constant) and n.value == "faces"
    }
    assert named == {"faces_of_codim"}


def test_only_the_polytope_module_pairs_edges_with_facets():
    # The facet each edge leaves has one owner: the skeleton stores it and
    # other modules read it through _edge_facets. None names the skeleton,
    # builds the store, or takes set differences or intersections between
    # two entries of one table, as vertex_facets[v] - vertex_facets[w] did.
    def same_table(a: ast.AST, b: ast.AST) -> bool:
        return all(isinstance(x, ast.Subscript) for x in (a, b)) and ast.dump(a.value) == ast.dump(b.value)

    for path in sorted(Path(pc.__file__).parent.glob("*.py")):
        if path.name == "polytope.py":
            continue
        nodes = list(ast.walk(ast.parse(path.read_text())))
        names = {a.name for n in nodes if isinstance(n, ast.ImportFrom) for a in n.names}
        names |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
        names |= {n.id for n in nodes if isinstance(n, ast.Name)}
        assert "_skeleton" not in names, path.name
        assert "edge_facets" not in {n.value for n in nodes if isinstance(n, ast.Constant)}, path.name
        for n in nodes:
            if isinstance(n, ast.BinOp) and isinstance(n.op, (ast.Sub, ast.BitAnd)):
                assert not same_table(n.left, n.right), (path.name, n.lineno)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr in (
                "difference",
                "intersection",
                "symmetric_difference",
            ):
                inner = [x for arg in n.args for x in ast.walk(arg)]
                assert not any(same_table(n.func.value, x) for x in inner), (path.name, n.lineno)


def test_no_module_imports_dataclasses():
    # Records derive from _record.Record: dataclasses pulls in inspect, ast
    # and tokenize, and every CLI process would pay for that import.
    for path in sorted(Path(pc.__file__).parent.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text())))
        modules = {a.name for n in nodes if isinstance(n, ast.Import) for a in n.names}
        modules |= {n.module for n in nodes if isinstance(n, ast.ImportFrom)}
        assert "dataclasses" not in modules, path.name


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # A fresh interpreter without site, environment or bytecode writes, with src added.
    src = str(Path(pc.__file__).resolve().parent.parent)
    probe = (
        f"import sys; sys.path.insert(0, {src!r}); import polycodes.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", probe], capture_output=True, text=True, check=True
    )
    assert proc.stdout == "[]\n"
