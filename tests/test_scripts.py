"""The scripts under scripts/, loaded from their paths."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import polycodes as pc

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(monkeypatch, name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # Dataclasses look their module up in sys.modules while being defined.
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_corpus_survey_middle_code_budgets_are_separate(monkeypatch):
    survey = load_script(monkeypatch, "corpus_survey")
    # Dimension 40: the distance is answered, the weight enumerator refuses.
    assert survey.middle_code_row(pc.prism(40)) == "[80,40,4] (self-dual)"
    assert survey.middle_code_row(pc.prism(8)) == "[16,8,4] (self-dual, doubly-even)"
    assert survey.middle_code_row(pc.cube(4)) == "-"
