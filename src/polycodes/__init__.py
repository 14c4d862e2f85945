"""Binary codes from the face structure of simple polytopes.

Vertex-facet incidences give binary codes spanned by face indicator
vectors; the package computes these codes, checks the structure results
that govern them (colorability criteria, dimension laws, duality and
self-duality, doubly-evenness), screens code parameters for polytope
realizability, and cross-checks everything it can two ways.

Each module's ``__all__`` is the one list of its public names; the
package re-exports them all.
"""

from . import constructors, errors, facecodes, gf2, morse, polytope, screen, verify
from . import corpus as _corpus
from .constructors import *  # noqa: F401,F403
from .corpus import *  # noqa: F401,F403  (binds corpus, the function, over the submodule)
from .errors import *  # noqa: F401,F403
from .facecodes import *  # noqa: F401,F403
from .gf2 import *  # noqa: F401,F403
from .morse import *  # noqa: F401,F403
from .polytope import *  # noqa: F401,F403
from .screen import *  # noqa: F401,F403
from .verify import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (constructors, _corpus, errors, facecodes, gf2, morse, polytope, screen, verify)
    for name in module.__all__
)
