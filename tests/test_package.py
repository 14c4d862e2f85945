"""The package namespace re-exports exactly the modules' public names."""

from __future__ import annotations

import importlib
import pkgutil

import polycodes as pc


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
