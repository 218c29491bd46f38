"""polygraph: an executable toolkit for single-vertex k-graph semigroups.

Validation of permutation presentations, unique-factorization normal
forms, enumeration and isomorphism classification, periodicity
certificates with symmetry lattices, exact relation-level star-algebra
arithmetic, and finitely correlated atomic representations on finite
abelian groups.

The names imported here and those in the `_LAYER_OF` table are the
library's public API: the word kernel; the dilation step of the main
theorem (every irreducible atomic *-representation is the minimal
*-dilation of a group construction), where :func:`extend_to_group`
completes a :class:`PartialConstruction` to a full group construction;
and :func:`product_relation_tables`, the structure maps gamma and delta
of a 3-graph with an (a, b, -c) period.  A table name loads its layer on
first use (PEP 562), so `import polygraph` loads only the word kernel.
"""

import importlib

__version__ = "0.1.0"

from .kgraph import (  # noqa: F401
    CubicViolation,
    InvalidPermutation,
    NotAPrefix,
    Presentation,
    PresentationError,
    WordError,
    degree,
    extract_prefix,
    normal_form,
    validate_presentation,
    words_equal,
)

_LAYER_OF = {"PartialConstruction": "groupcons", "extend_to_group": "groupcons",
             "product_relation_tables": "periodicity"}


def __getattr__(name: str):
    if name not in _LAYER_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_LAYER_OF[name]}"), name)
