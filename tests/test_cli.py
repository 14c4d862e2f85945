"""End-to-end command-line behavior, including exit codes and JSON shape."""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polycodes as pc
import polycodes.cli
from polycodes import errors, polytope
from polycodes.cli import main
from polycodes.verify import CheckResult

from helpers import count_levels_walked, heawood_torus_facets

CUBE3_MATRIX = (
    "101010",
    "101001",
    "100110",
    "100101",
    "011010",
    "011001",
    "010110",
    "010101",
)


SRC = Path(__file__).resolve().parent.parent / "src"

# The command line as a separate process, run from this checkout's source.
CLI = [sys.executable, "-m", "polycodes"]


def run(capsys, argv: list[str]) -> tuple[int, str]:
    rc = main(argv)
    return rc, capsys.readouterr().out


def cli_env() -> dict[str, str]:
    """The environment for a CLI child process: `src` first on PYTHONPATH."""
    env = dict(os.environ)
    paths = [str(SRC), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    return env


# ---------------------------------------------------------------------- gen


def test_gen_round_trips(capsys):
    rc, out = run(capsys, ["gen", "cube 2"])
    assert rc == 0
    P = pc.polytope_from_json(out)
    Q = pc.cube(2)
    assert (P.dim, P.facets, P.coords) == (Q.dim, Q.facets, Q.coords)


def test_gen_writes_files(tmp_path, capsys):
    target = tmp_path / "poly.json"
    rc, out = run(capsys, ["gen", "prism 6", "-o", str(target)])
    assert rc == 0 and out == ""
    assert pc.polytope_from_json(target.read_text()).num_vertices == 12


def test_gen_emits_no_report_wrapper(capsys):
    # gen output is the polytope document itself, never a schema envelope.
    rc, out = run(capsys, ["gen", "cube 2", "--json"])
    assert rc == 0
    assert "schema" not in json.loads(out)


def test_gen_is_deterministic():
    runs = [
        subprocess.run(
            [*CLI, "gen", "vcut (cube 3) 0"],
            capture_output=True,
            text=True,
            env=cli_env(),
        )
        for _ in range(2)
    ]
    assert runs[0].returncode == runs[1].returncode == 0
    assert runs[0].stdout == runs[1].stdout != ""


# --------------------------------------------------------------------- info


def test_info_text_golden(capsys):
    rc, out = run(capsys, ["info", "cube 3"])
    assert rc == 0
    assert out == (
        "name: cube 3\n"
        "dimension: 3\n"
        "facets: 6\n"
        "vertices: 8\n"
        "f-vector (by codimension): 1 6 12 8\n"
        "h-vector: 1 3 3 1\n"
        "even: yes\n"
        "realized: yes\n"
    )


def test_info_json(capsys):
    rc, out = run(capsys, ["info", "dualcyclic57", "--json"])
    assert rc == 0
    data = json.loads(out)
    assert data["schema"] == 1
    assert data["h_vector"] == [1, 2, 3, 3, 2, 1]
    assert data["even"] is False and data["realized"] is False


def test_info_reads_stdin(capsys, monkeypatch):
    blob = pc.polytope_to_json(pc.prism(6))
    monkeypatch.setattr(sys, "stdin", io.StringIO(blob))
    rc, out = run(capsys, ["info", "-"])
    assert rc == 0
    assert "vertices: 12" in out


def test_info_reads_files(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(pc.polytope_to_json(pc.polygon(6)))
    rc, out = run(capsys, ["info", str(path)])
    assert rc == 0
    assert "dimension: 2" in out


@pytest.mark.parametrize("text", ["cube 6", "prism 5", "dualcyclic57", "segment"])
def test_info_walks_the_face_lattice_once(text, capsys, monkeypatch):
    # f-vector and evenness come from one walk from the top to the vertices.
    levels = count_levels_walked(monkeypatch)
    rc, _ = run(capsys, ["info", text])
    assert rc == 0
    assert levels == [pc.parse_recipe(text).build().dim]


@pytest.mark.parametrize("k, twice_k", [(1, 2), (4, 8)])
def test_selfdual_walks_down_to_twice_the_codimension(k, twice_k, capsys, monkeypatch):
    # The code walks from the top to codimension k, the parity window from
    # the top to min(2k, n).
    levels = count_levels_walked(monkeypatch)
    rc, _ = run(capsys, ["selfdual", "cube 9", "-k", str(k)])
    assert rc == 0
    assert levels == [k, twice_k]


@pytest.mark.parametrize(
    "document",
    [
        {"dim": True, "facets": [[0], [1]]},
        {"dim": 1, "facets": [[0], [1]], "coords": [[True], [False]]},
    ],
)
def test_info_rejects_booleans_as_numbers(document, tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(document))
    assert main(["info", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


# --------------------------------------------------------------------- code


def test_code_summary_golden(capsys):
    rc, out = run(capsys, ["code", "cube 3", "-k", "1"])
    assert rc == 0
    assert out == (
        "codimension: 1\nfaces: 6\nlength: 8\ndimension: 4\nself-dual: yes\n"
    )


def test_code_matrix_golden(capsys):
    rc, out = run(capsys, ["code", "cube 3", "-k", "1", "--matrix"])
    assert rc == 0
    assert out == "".join(line + "\n" for line in CUBE3_MATRIX)


def test_code_matrix_json(capsys):
    rc, out = run(capsys, ["code", "cube 3", "-k", "1", "--matrix", "--json"])
    assert rc == 0
    data = json.loads(out)
    assert data["schema"] == 1
    assert data["rows"] == list(CUBE3_MATRIX)


def test_gen_pipes_into_code():
    gen = shlex.join([*CLI, "gen", "cube 3"])
    code = shlex.join([*CLI, "code", "-", "-k", "1", "--matrix"])
    proc = subprocess.run(
        f"{gen} | {code}", shell=True, capture_output=True, text=True, env=cli_env()
    )
    assert proc.returncode == 0
    assert proc.stdout == "".join(line + "\n" for line in CUBE3_MATRIX)


# ------------------------------------------------------------------ mindist


def test_mindist_text_and_json(capsys):
    rc, out = run(capsys, ["mindist", "prism 8", "-k", "1"])
    assert rc == 0 and out == "minimum distance: 4\n"
    rc, out = run(capsys, ["mindist", "cube 5", "-k", "2", "--json"])
    assert rc == 0
    assert json.loads(out) == {"schema": 1, "codimension": 2, "min_distance": 8}


def test_mindist_budget_exit_code(capsys):
    # RM(3,7) = [128,64,16] needs about 1.4e9 codewords, over the budget.
    rc = main(["mindist", "cube 7", "-k", "3"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: an estimated ")
    assert "codewords to visit, over the budget of 2^28 = 268435456" in err
    # Dimension 61, far above ENUMERATION_CAP, is answered exactly.
    rc, out = run(capsys, ["mindist", "polygon 62", "-k", "1"])
    assert rc == 0 and out == "minimum distance: 2\n"


def test_mindist_refusal_does_not_grow_with_the_estimate(capsys):
    # The estimate for RM(4, 10) has 53 digits; it is shown as a power of two below it.
    assert main(["mindist", "cube 10", "-k", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: an estimated over 2^") and captured.err.count("\n") == 1
    assert not re.search(r"\d{21}", captured.err)


def test_faces_over_the_store_budget_exit_2(capsys, monkeypatch):
    # The budget is patched small so that a small polytope meets it.
    monkeypatch.setattr(polytope, "_MAX_MASK_BITS", 1 << 8)
    assert main(["code", "cube 4", "-k", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: storing the codimension-2 faces needs over 2^8 vertex-mask bits, "
        "over the budget of 2^8 = 256\n"
    )
    assert main(["info", "cube 4"]) == 0  # the summary walk stores no faces


def test_the_store_budget_counts_the_bits_of_sparse_masks(capsys, monkeypatch):
    # Vertex i of a polygon is the mask 1 << i, of i + 1 bits: 40 vertices store
    # 40 * 41 / 2 = 820 bits, not 40 * 40, and 45 vertices store 1,035.
    monkeypatch.setattr(polytope, "_MAX_MASK_BITS", 1 << 10)
    assert run(capsys, ["code", "polygon 40", "-k", "2"])[0] == 0
    assert main(["code", "polygon 45", "-k", "2"]) == 2
    assert capsys.readouterr().err.startswith("error: storing the codimension-2 faces needs over 2^10 ")


# -------------------------------------------------------------------- color


def test_color_cube(capsys):
    rc, out = run(capsys, ["color", "cube 3"])
    assert rc == 0
    assert out == (
        "colorable: yes\nnote: six criteria agree\ncolors: 0 0 1 1 2 2\n"
    )


def test_color_degenerate_dimension(capsys):
    rc, out = run(capsys, ["color", "polygon 5"])
    assert rc == 0
    assert out == "colorable: no\nnote: dimension 2 below 3, direct search only\n"


@pytest.mark.parametrize(
    "recipe, answer", [("polygon 1000", "yes"), ("polygon 1001", "no")]
)
def test_color_answers_on_a_thousand_facets(recipe, answer):
    proc = subprocess.run(
        [*CLI, "color", recipe], capture_output=True, text=True, env=cli_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(f"colorable: {answer}\n")
    assert proc.stderr == ""


def test_color_json(capsys):
    rc, out = run(capsys, ["color", "simplex 3", "--json"])
    assert rc == 0
    data = json.loads(out)
    assert data["schema"] == 1
    assert data["colorable"] is False and data["colors"] is None


# ----------------------------------------------------------------- selfdual


def test_selfdual_text(capsys):
    rc, out = run(capsys, ["selfdual", "cube 3", "-k", "1"])
    assert rc == 0
    assert out == (
        "codimension: 1\n"
        "self-dual: yes\n"
        "half dimension: yes\n"
        "even faces in the window: yes\n"
    )


def test_selfdual_json(capsys):
    rc, out = run(capsys, ["selfdual", "prism 5", "-k", "1", "--json"])
    assert rc == 0
    data = json.loads(out)
    assert data["schema"] == 1
    assert data["self_dual"] is False
    assert data["parity_by_codim"] == [[1, False], [2, True]]


# ------------------------------------------------------------------- screen


def test_screen_witness_output(capsys):
    rc, out = run(
        capsys, ["screen", "--length", "8", "--mindist", "4", "--doubly-even"]
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "status: FeasibleWitness"
    assert lines[1] == "witness: cube 3"
    assert all(line.startswith("[") for line in lines[2:])


def test_screen_infeasible_json(capsys):
    rc, out = run(
        capsys,
        ["screen", "--length", "24", "--mindist", "8", "--doubly-even", "--json"],
    )
    assert rc == 0
    data = json.loads(out)
    assert data["schema"] == 1
    assert data["status"] == "Infeasible" and data["witness"] is None
    assert [r["rule"] for r in data["trace"]][-1] == "exhausted"


def test_screen_witness_past_the_enumeration_cap(capsys):
    # The witness's middle code has dimension 32 > ENUMERATION_CAP;
    # doubly-evenness is read from its basis, so nothing refuses.
    rc, out = run(
        capsys, ["screen", "--length", "64", "--mindist", "4", "--doubly-even"]
    )
    assert rc == 0
    assert out.splitlines()[:2] == ["status: FeasibleWitness", "witness: prism 32"]


def test_screen_refuses_a_witness_over_the_verification_budget(capsys):
    rc = main(["screen", "--length", "8000", "--mindist", "4", "--doubly-even"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: verifying the witness prism 4000 needs 8002000 basis row pairs "
        "tested for orthogonality, over the budget of 2^18 = 262144\n"
    )


def test_screen_output_stays_bounded_for_long_integers(capsys):
    # One face-growth line covers every n from the first that fails, so the
    # output does not grow with the number of candidate dimensions.
    rc, out = run(capsys, ["screen", "--length", str(10**4000), "--mindist", str(10**3999)])
    assert rc == 0
    assert out.startswith("status: Unknown\n")
    assert out.count("[face-growth]") == 1
    assert len(out.encode()) < 200_000


# -------------------------------------------------------------------- morse


def test_morse_output(capsys):
    rc, out = run(capsys, ["morse", "cube 3", "--seed", "0", "-k", "1"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "seed: 0"
    assert lines[1].startswith("objective: ")
    assert lines[3] == "histogram: 1 3 3 1"
    assert lines[4] == "basis faces at codimension 1:"
    assert len(lines) == 5 + 4


def test_morse_json(capsys):
    rc, out = run(capsys, ["morse", "prism 6", "--seed", "2", "-k", "1", "--json"])
    assert rc == 0
    data = json.loads(out)
    assert data["schema"] == 1
    assert data["histogram"] == [1, 5, 5, 1]
    assert len(data["basis"]) == 6


def test_morse_makes_one_index_pass(capsys, monkeypatch):
    # The histogram is read from the indices the job prints, not from a second pass.
    from polycodes import morse

    calls: list[int] = []
    indices = morse.vertex_indices

    def counted(P, phi):
        calls.append(1)
        return indices(P, phi)

    monkeypatch.setattr(morse, "vertex_indices", counted)
    monkeypatch.setattr(polycodes.cli, "vertex_indices", counted)
    rc, _ = run(capsys, ["morse", "cube 8", "-k", "4"])
    assert rc == 0
    assert len(calls) == 1


def test_morse_histogram_is_checked_against_the_h_vector(capsys, monkeypatch):
    from polycodes import morse

    monkeypatch.setattr(morse, "fh_vectors", lambda P: pc.FHVectors(f=(), h=(1, 2, 2, 1)))
    assert main(["morse", "cube 3", "--seed", "0", "-k", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "index histogram (1, 3, 3, 1) differs from h-vector (1, 2, 2, 1)" in captured.err


def test_morse_objectives_stay_short_on_a_large_polygon_prism(capsys):
    # The 550-gon's points have denominators up to 1 + 549^2; a quarter of
    # these seeds draw a tie and take the perturbed objective.
    for seed in range(40):
        rc, out = run(capsys, ["morse", "prism 550", "-k", "1", "--seed", str(seed)])
        assert rc == 0
        objective = out.splitlines()[1].split()[1:]
        assert max(len(x.lstrip("-")) for x in objective) < 100


def test_morse_names_two_vertices_at_one_point(tmp_path, capsys):
    path = tmp_path / "square.json"
    coords = [["0", "0"], ["1", "0"], ["1", "1"], ["1", "0"]]
    path.write_text(json.dumps({"dim": 2, "facets": [[0, 1], [1, 2], [2, 3], [3, 0]], "coords": coords}))
    assert main(["morse", str(path), "-k", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: vertices 1 and 3 have the same height: "
        "their points coincide or the objective is not generic\n"
    )


def test_morse_unrealized_exit_code(capsys):
    rc = main(["morse", "dualcyclic57", "--seed", "0", "-k", "2"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


# ------------------------------------------------------------------- verify


def test_verify_corpus_suite(capsys):
    rc, out = run(capsys, ["verify", "--corpus", "--suite", "colorability"])
    assert rc == 0
    lines = out.splitlines()
    assert all(line.startswith("[PASS]") for line in lines[:-1])
    assert lines[-1].endswith("checks, 0 failed")


def test_verify_single_subject(capsys):
    rc, out = run(capsys, ["verify", "cube 3", "--suite", "selfdual"])
    assert rc == 0
    assert "0 failed" in out


def test_verify_past_the_enumeration_cap(capsys):
    # The self-dual code of prism 100 has dimension 100 > ENUMERATION_CAP.
    rc, out = run(capsys, ["verify", "prism 100"])
    assert rc == 0
    assert out.splitlines()[-1].endswith("checks, 0 failed")


def test_verify_json(capsys):
    rc, out = run(capsys, ["verify", "cube 3", "--suite", "duality", "--json"])
    assert rc == 0
    data = json.loads(out)
    assert data["schema"] == 1 and data["failed"] == 0
    assert all(c["passed"] for c in data["checks"])


def test_verify_requires_a_subject(capsys):
    rc = main(["verify", "--suite", "all"])
    assert rc == 1


def test_verify_reports_failures_with_exit_3(capsys, monkeypatch):
    rows = [CheckResult("selfdual", "cube 3", "demo", False, "forced failure")]
    monkeypatch.setattr(polycodes.cli, "run_suite", lambda suite, subjects: rows)
    rc, out = run(capsys, ["verify", "cube 3", "--suite", "selfdual"])
    assert rc == 3
    assert "[FAIL]" in out and "1 failed" in out


# ------------------------------------------------------------------ reports

# Each reporting subcommand on a small input: the whole text report, and the
# fields of the --json report in order. NAMELESS is a polytope file with no name.
_PARITY = (
    "a self-dual code has even length and all its weights, the minimum distance included, are even",
    "length 30 and minimum distance 5 must both be even",
)
_DUALITY = (
    ("complement-pairing", "dual of each code is the complementary-codimension code"),
    ("product-closure", "facet-indicator products span each code"),
)
_LOWER_BOUND = ("dimension-lower-bound", "dim of each code at least the partial h-sum")
_ROUTES = "direct and structural routes agree for all k; self-dual at "


def _verify_report(subject, suite, rows):
    """A passing `verify SUBJECT --suite SUITE` run of (check, detail) rows."""
    return (
        ["verify", subject, "--suite", suite],
        "".join(f"[PASS] {suite} :: {subject} :: {c}: {d}\n" for c, d in rows)
        + f"{len(rows)} checks, 0 failed\n",
        {"suite": suite,
         "checks": [{"suite": suite, "subject": subject, "check": c, "passed": True, "detail": d}
                    for c, d in rows],
         "failed": 0},
    )


REPORTS = [
    (
        ["info", "NAMELESS"],
        "name: (unnamed)\ndimension: 2\nfacets: 4\nvertices: 4\n"
        "f-vector (by codimension): 1 4 4\nh-vector: 1 2 1\neven: yes\nrealized: yes\n",
        {"name": None, "dimension": 2, "facets": 4, "vertices": 4, "f_vector": [1, 4, 4],
         "h_vector": [1, 2, 1], "even": True, "realized": True},
    ),
    (
        ["code", "cube 2", "-k", "1"],
        "codimension: 1\nfaces: 4\nlength: 4\ndimension: 3\nself-dual: no\n",
        {"codimension": 1, "faces": 4, "length": 4, "dimension": 3, "self_dual": False},
    ),
    (
        ["code", "cube 2", "-k", "1", "--matrix"],
        "1010\n1001\n0110\n0101\n",
        {"codimension": 1, "rows": ["1010", "1001", "0110", "0101"]},
    ),
    (
        ["mindist", "cube 3", "-k", "1"],
        "minimum distance: 4\n",
        {"codimension": 1, "min_distance": 4},
    ),
    (
        ["color", "cube 3"],
        "colorable: yes\nnote: six criteria agree\ncolors: 0 0 1 1 2 2\n",
        {"colorable": True, "colors": [0, 0, 1, 1, 2, 2], "note": "six criteria agree"},
    ),
    (
        ["color", "simplex 3"],
        "colorable: no\nnote: six criteria agree\n",
        {"colorable": False, "colors": None, "note": "six criteria agree"},
    ),
    (
        ["color", "polygon 5"],
        "colorable: no\nnote: dimension 2 below 3, direct search only\n",
        {"colorable": False, "colors": None, "note": "dimension 2 below 3, direct search only"},
    ),
    (
        ["selfdual", "prism 5", "-k", "1"],
        "codimension: 1\nself-dual: no\nhalf dimension: no\neven faces in the window: no\n",
        {"codimension": 1, "self_dual": False, "half_dimension": False, "face_parity_ok": False,
         "parity_by_codim": [[1, False], [2, True]]},
    ),
    (
        ["screen", "--length", "30", "--mindist", "5"],
        "status: Infeasible\n[parity] {}; {}\n".format(*_PARITY),
        {"status": "Infeasible", "witness": None,
         "trace": [{"rule": "parity", "statement": _PARITY[0], "instantiation": _PARITY[1]}]},
    ),
    (
        ["morse", "cube 2", "-k", "1"],
        "seed: 0\nobjective: 8 10\nindices: 0 1 1 2\nhistogram: 1 2 1\n"
        "basis faces at codimension 1:\n"
        "  vertex 0: facets 0\n  vertex 1: facets 3\n  vertex 2: facets 1\n",
        {"seed": 0, "objective": ["8", "10"], "indices": [0, 1, 1, 2], "histogram": [1, 2, 1],
         "basis": [{"vertex": 0, "defining_facets": [0]}, {"vertex": 1, "defining_facets": [3]},
                   {"vertex": 2, "defining_facets": [1]}]},
    ),
    _verify_report("segment", "duality", _DUALITY),
    _verify_report("cube 3", "selfdual", [
        _LOWER_BOUND,
        ("route-agreement", _ROUTES + "[1]"),
        ("dimension-law", "dims (1, 4, 7, 8) match partial h-sums; self-dual at (1,)"),
        ("distance-bound", "minimum distance 4 within the face bound 4"),
        ("doubly-even-criterion", "doubly even: True, by face sizes and by weights"),
    ]),
    _verify_report("cube 4", "selfdual", [
        _LOWER_BOUND,
        ("route-agreement", _ROUTES + "[]"),
        ("no-self-dual-dimension-4", "self-dual codimensions: []"),
        ("dimension-law", "dims (1, 5, 11, 15, 16) match partial h-sums; self-dual at ()"),
    ]),
    _verify_report("polygon 5", "colorability", [
        ("criteria-agreement", "dimension 2 below 3, direct search only: colorable=False"),
    ]),
    _verify_report("prism 5", "colorability", [
        ("criteria-agreement", "six criteria agree: colorable=False"),
    ]),
]


@pytest.mark.parametrize("argv, text, payload", REPORTS, ids=[" ".join(r[0]) for r in REPORTS])
def test_reports_pin_text_and_json_field_order(argv, text, payload, tmp_path, capsys):
    document = json.loads(pc.polytope_to_json(pc.cube(2)))
    del document["name"]
    nameless = tmp_path / "nameless.json"
    nameless.write_text(json.dumps(document))
    argv = [str(nameless) if a == "NAMELESS" else a for a in argv]
    assert run(capsys, argv) == (0, text)
    # Compared as text, so the key order and the layout are pinned too.
    assert run(capsys, [*argv, "--json"]) == (0, json.dumps({"schema": 1, **payload}, indent=2) + "\n")


# --------------------------------------------------------------- exit codes


@pytest.mark.parametrize(
    "argv",
    [
        ["nope"],
        ["info", "not a recipe"],
        ["code", "cube 3"],
        ["code", "cube 3", "-k", "9"],
        ["gen", "cube"],
        ["screen", "--length", "8", "--mindist", "1"],
    ],
)
def test_invalid_usage_exits_1(argv, capsys):
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_unreadable_input_exits_1(tmp_path, capsys, monkeypatch):
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"name": "\xe9t\xe9"}')
    deep = tmp_path / "deep.json"
    deep.write_text("[" * (sys.getrecursionlimit() + 1))
    cases = [
        ["info", str(tmp_path)],  # a directory
        ["gen", "cube 3", "-o", str(tmp_path / "missing" / "x.json")],
        ["info", str(not_utf8)],
        ["info", "-"],
        ["info", str(deep)],
    ]
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\xff\xfe"), encoding="utf-8"))
    for argv in cases:
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_recipes_longer_than_a_file_name_build(capsys):
    # The existence probe for a 276-byte "path" fails with ENAMETOOLONG.
    chain = "cube 3"
    for _ in range(30):
        chain = f"vcut ({chain}) 0"
    assert len(chain) == 276
    rc, out = run(capsys, ["info", chain])
    assert rc == 0
    assert "vertices: 68" in out
    junk = "x" * 1000
    assert main(["info", junk]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: '{'x' * 77}...' is neither an existing file nor a recipe")
    assert len(err) <= 300


@pytest.mark.parametrize(
    "source",
    [
        "cube " + "y" * 1000,
        "vcut (cube 3) " + "9" * 1000,
        "polygon -" + "9" * 1000,
        "dualcyclic " + "8" * 1000 + " " + "9" * 1000,
        "product (" + "w" * 1000 + ") (segment)",
    ],
    ids=lambda source: source[:12],
)
def test_long_recipe_tokens_give_a_short_error_line(source, capsys):
    assert main(["info", source]) in (1, 2)
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err) <= 600


_NINES = "9" * 4000


@pytest.mark.parametrize(
    "argv, rc",
    [
        (["code", "cube 3", "-k", _NINES], 1),
        (["mindist", "cube 3", "-k", _NINES], 1),
        (["selfdual", "cube 3", "-k", _NINES], 1),
        (["morse", "cube 3", "-k", _NINES], 1),
        (["screen", "--length", "-" + _NINES, "--mindist", "2"], 1),
        (["screen", "--length", "8", "--mindist", "-" + _NINES], 1),
        # A prism witness for a length of 4,000 digits: its l^2/8 row pairs
        # are past the digits str() converts.
        (["screen", "--length", "4" + "0" * 3998 + "4", "--mindist", "4"], 2),
    ],
    ids=lambda a: " ".join(a)[:24] if isinstance(a, list) else str(a),
)
def test_long_integer_options_give_a_short_error_line(argv, rc, capsys):
    assert main(argv) == rc
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err) <= 300, err[:300]


def test_usage_errors_clip_the_values_they_echo(capsys):
    assert main(["code", "cube 3", "-k", "y" * 1000]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: usage error: argument -k: invalid int value: 'yyy")
    assert err.endswith("...\n") and len(err) == len("error: usage error: \n") + 240
    assert main(["verify", "--suite", "nope"]) == 1
    assert capsys.readouterr().err == (
        "error: usage error: argument --suite: invalid choice: 'nope' (choose from "
        "'colorability', 'selfdual', 'duality', 'morse', 'screen', 'conjecture', 'all')\n"
    )


@pytest.mark.parametrize(
    "document, rc, message",
    [
        # 3 vertices in dimension 100000: refused before the per-vertex lists are built.
        (
            {"dim": 100000, "facets": [[0, 1], [1, 2], [2, 0]]},
            2,
            "the polytope needs 300000 vertex-facet incidences, over the budget of 2^18 = 262144",
        ),
        ({"dim": 2, "facets": [[0, 1], [1, 2], [2, [0]]]}, 1, "got [0]"),
        ({"dim": 2, "facets": [[0, 1], [1, 2], [2, {"v": 0}]]}, 1, "got {'v': 0}"),
        ({"dim": 2, "facets": [[0, 1], [1, 2], [2, "x" * 1000]]}, 1, f"got '{'x' * 76}..."),
    ],
)
def test_json_documents_fail_with_one_short_line(document, rc, message, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(document)))
    assert main(["info", "-"]) == rc
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.endswith(f"{message}\n")


def test_json_integer_past_the_digit_limit_exits_1(capsys, monkeypatch):
    # json.loads refuses ints of over 4,300 digits with a plain ValueError.
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"dim": 2, "facets": [[' + "1" * 5000 + "]]}"))
    assert main(["info", "-"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: not valid JSON: Exceeds the limit") and len(err) < 300


def test_deep_recipe_exits_1_with_one_error_line(capsys):
    deep = "segment"
    for _ in range(1200):
        deep = f"product ({deep}) (segment)"
    assert main(["info", deep]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "recipe nested too deeply" in captured.err


@pytest.mark.parametrize(
    "argv, refusal",
    [
        (["info", "cube 30"], "cube 30 needs 32212254720 vertex-facet incidences"),
        (["gen", "polygon 100000000"], "polygon 100000000 needs 200000000 vertex-facet incidences"),
        (["code", "dualcyclic 12 40", "-k", "1"], "dualcyclic 12 40 tries C(40, 12) subsets"),
    ],
)
def test_recipes_over_the_size_limit_exit_2_at_once(argv, refusal):
    proc = subprocess.run(
        [*CLI, *argv], capture_output=True, text=True, env=cli_env(), timeout=10
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: {refusal}, over the budget of 2^18 = 262144\n"


def test_huge_coordinate_exponent_exits_1_at_once(tmp_path):
    # Fraction("1e99999999") would build 10**99999999 and not come back.
    path = tmp_path / "square.json"
    coords = [["1e99999999", "0"], ["1", "0"], ["1", "1"], ["0", "1"]]
    path.write_text(json.dumps({"dim": 2, "facets": [[0, 1], [1, 2], [2, 3], [3, 0]], "coords": coords}))
    proc = subprocess.run(
        [*CLI, "info", str(path)], capture_output=True, text=True, env=cli_env(), timeout=10
    )
    assert proc.returncode == 1
    assert proc.stderr == "error: coords[0] entry '1e99999999' is not rational\n"


@pytest.mark.parametrize("name", errors.__all__)
def test_each_error_class_maps_to_one_exit_code(name, capsys, monkeypatch):
    cls = getattr(errors, name)
    exc = cls(["forced"]) if cls is pc.InvalidPolytope else cls("forced")

    def boom(P):
        raise exc

    monkeypatch.setattr(polycodes.cli, "fh_vectors", boom)
    rc = main(["info", "cube 3"])
    expected = {"BudgetExceeded": (2, "error"), "TheoremViolation": (3, "theorem check failed")}
    code, prefix = expected.get(name, (1, "error"))
    assert (rc, capsys.readouterr()) == (code, ("", f"{prefix}: forced\n"))


@pytest.mark.parametrize(
    "argv",
    [["info"], ["color"], ["verify"], ["verify", "--suite", "colorability"]],
    ids=" ".join,
)
def test_asymmetric_h_vector_in_a_file_exits_1(tmp_path, capsys, argv):
    # The colorability criteria read the face codes; the h-vector is checked
    # before they are compared, so this input fault is not an internal one.
    path = tmp_path / "heawood.json"
    path.write_text(json.dumps({"dim": 3, "facets": heawood_torus_facets()}))
    assert main([*argv, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "h-vector (1, 4, 10, -1) is not symmetric" in captured.err


def test_console_script_is_wired():
    tomllib = pytest.importorskip("tomllib")
    with (SRC.parent / "pyproject.toml").open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["polycodes"]
    assert target == "polycodes.cli:main"
    module, attr = target.split(":")
    assert getattr(importlib.import_module(module), attr) is main
    proc = subprocess.run(
        [*CLI, "info", "segment"], capture_output=True, text=True, env=cli_env()
    )
    assert proc.returncode == 0
    assert "dimension: 1" in proc.stdout


# --------------------------------------------------------------------- fuzz

# Integers are small, so every drawn job finishes in milliseconds, or up
# to 4,000 digits, which every echo of them must clip.
_ints = st.one_of(st.integers(-2, 6), st.integers(-(10**4000), 10**4000)).map(str)
_recipe_tokens = st.one_of(
    _ints,
    st.sampled_from(
        ["(", ")", "cube", "prism", "polygon", "simplex", "segment", "product", "vcut"]
        + ["dualcyclic", "dualcyclic57", "-", "x" * 300, "9" * 400]
    ),
    st.text(max_size=6),
)
_recipes = st.one_of(
    st.lists(_recipe_tokens, max_size=8).map(" ".join),
    st.builds(
        "{} {}".format, st.sampled_from(["cube", "prism", "polygon", "simplex", "dualcyclic 3"]), _ints
    ),
    st.builds("vcut (prism {}) {}".format, _ints, _ints),
)
# Per subcommand: the options it requires, and those it also takes.
_OPTIONS = {
    "gen": ([], []),
    "info": ([], []),
    "code": (["-k"], ["--matrix"]),
    "mindist": (["-k"], []),
    "color": ([], []),
    "selfdual": (["-k"], []),
    "screen": (["--length", "--mindist"], ["--doubly-even"]),
    "morse": (["-k"], ["--seed"]),
    "verify": ([], ["--corpus", "--suite"]),
    "bogus": ([], []),
}
_ANY_OPTIONS = ["--json", "--nope", "-k", "--seed", "--length", "--mindist", "--suite"]


@st.composite
def _argvs(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    argv = [command, *draw(st.one_of(st.just([]), st.just(["-"]), _recipes.map(lambda t: [t])))]
    required, own = _OPTIONS[command]
    flags = required if draw(st.integers(0, 3)) else []  # mostly there
    fitting = st.sampled_from([*own, *required, "--json"])
    flags = flags + draw(st.lists(st.one_of(fitting, fitting, st.sampled_from(_ANY_OPTIONS)), max_size=3))
    for flag in flags:
        argv.append(flag)
        if flag == "--suite":
            argv.append(draw(st.sampled_from(["all", "colorability", "morse", "nope"])))
        elif flag in ("-k", "--seed", "--length", "--mindist"):
            argv.append(draw(_ints))
    return argv + ([] if draw(st.integers(0, 4)) else [draw(_recipe_tokens)])  # a stray token


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6) | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["dim", "facets", "coords", "name"]), inner, max_size=4),
    max_leaves=12,
)
_indices = st.lists(st.lists(st.integers(-1, 7), max_size=4), max_size=6)
_documents = st.one_of(
    st.text(max_size=40),
    _json_values.map(json.dumps),
    st.fixed_dictionaries({"dim": st.integers(-1, 4), "facets": _indices}).map(json.dumps),
)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(argv=_argvs(), stdin=_documents)
def test_main_survives_malformed_input(argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    finally:
        sys.stdin = saved
    assert rc in (0, 1, 2), err.getvalue()
    assert all(len(line) <= 600 for line in err.getvalue().splitlines())
