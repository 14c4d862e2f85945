"""Built-in test corpus: constructor recipes spanning the interesting cases.

The list mixes even and non-even members, odd and even dimensions,
colorable and non-colorable ones, realized and purely combinatorial
ones, so the verify suites exercise every branch.
"""

from __future__ import annotations

from functools import lru_cache

from ._record import Record
from .constructors import Recipe, parse_recipe
from .polytope import SimplePolytope

__all__ = ["CorpusEntry", "corpus"]

_RECIPES = (
    "simplex 3",
    "simplex 4",
    "simplex 5",
    "cube 2",
    "cube 3",
    "cube 4",
    "cube 5",
    "polygon 3",
    "polygon 4",
    "polygon 5",
    "polygon 6",
    "polygon 7",
    "polygon 8",
    "prism 3",
    "prism 4",
    "prism 5",
    "prism 6",
    "prism 7",
    "prism 8",
    "product (polygon 6) (cube 2)",
    "product (simplex 2) (cube 2)",
    "vcut (simplex 3) 0",
    "vcut (vcut (simplex 3) 0) 0",
    "vcut (vcut (vcut (simplex 3) 0) 0) 0",
    "vcut (cube 3) 0",
    "vcut (vcut (cube 3) 0) 0",
    "vcut (vcut (vcut (cube 3) 0) 0) 0",
    "dualcyclic57",
)


class CorpusEntry(Record):
    label: str
    recipe: Recipe

    def build(self) -> SimplePolytope:
        return self.recipe.build()


@lru_cache(maxsize=1)
def corpus() -> tuple[CorpusEntry, ...]:
    entries = []
    for text in _RECIPES:
        recipe = parse_recipe(text)
        entries.append(CorpusEntry(label=recipe.text(), recipe=recipe))
    return tuple(entries)
