"""The scripts under scripts/, loaded from their paths."""

from __future__ import annotations

import importlib.util
from pathlib import Path

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
