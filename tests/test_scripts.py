"""The scripts under scripts/, loaded from their paths."""

from __future__ import annotations

import importlib.util
import random
from pathlib import Path

import pytest

import polycodes as pc

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_corpus_survey_middle_code_budgets_are_separate():
    survey = load_script("corpus_survey")
    # Dimension 40: the distance is answered and doubly-evenness needs no
    # walk (40-gons and squares have sizes divisible by 4).
    assert survey.middle_code_row(pc.prism(40)) == "[80,40,4] (self-dual, doubly-even)"
    # RM(3, 7): the distance search refuses, doubly-evenness still answers.
    assert survey.middle_code_row(pc.cube(7)) == "[128,64,?] (self-dual, doubly-even)"
    assert survey.middle_code_row(pc.prism(8)) == "[16,8,4] (self-dual, doubly-even)"
    assert survey.middle_code_row(pc.cube(4)) == "-"


def test_screen_grid_reports_a_refused_row_and_goes_on(capsys):
    # (128, 16) matches the witness cube 7, whose distance search is over budget.
    load_script("screen_grid").sweep(136, 16, True, True)
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert ["128", "16", "refused", "-", "witness"] in rows
    assert rows[-1][:2] == ["136", "16"]


def test_soak_run_is_seeded_and_meets_both_hypotheses(capsys):
    soak = load_script("soak")
    runs = []
    for _ in range(2):
        assert soak.main(["--draws", "20", "--seed", "0"]) == 0
        runs.append(capsys.readouterr().out.splitlines())
    assert runs[0] == runs[1]
    counts = dict(line.split(": ") for line in runs[0][1:])
    assert runs[0][0].startswith("seed 0: 20 draws") and len(counts) == 8
    assert int(counts["unrealized"]) >= 1 and int(counts["even"]) >= 1


def _violation(suite, subjects):
    raise pc.TheoremViolation("planted")


def _failed_row(suite, subjects):
    return [pc.CheckResult(suite, "subject", "planted-check", False, "planted")]


@pytest.mark.parametrize(
    "run_suite, reason", [(_violation, "planted"), (_failed_row, "colorability :: planted-check: planted")]
)
def test_soak_run_stops_at_the_first_violation_with_its_recipe(run_suite, reason, capsys, monkeypatch):
    soak = load_script("soak")
    first = soak.draw(random.Random(0))
    monkeypatch.setattr(pc, "run_suite", run_suite)
    assert soak.main(["--draws", "5", "--seed", "0"]) == 3
    assert capsys.readouterr().out == f"theorem check failed on {first!r}: {reason}\n"
