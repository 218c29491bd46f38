"""polygraph: an executable toolkit for single-vertex k-graph semigroups.

Validation of permutation presentations, unique-factorization normal
forms, enumeration and isomorphism classification, periodicity
certificates with symmetry lattices, exact relation-level star-algebra
arithmetic, and finitely correlated atomic representations on finite
abelian groups.

The names imported here are the library's public API: the word kernel;
the dilation step of the main theorem (every irreducible atomic
*-representation is the minimal *-dilation of a group construction),
where :func:`extend_to_group` completes a :class:`PartialConstruction` to
a full group construction; and :func:`product_relation_tables`, the
structure maps gamma and delta of a 3-graph with an (a, b, -c) period.
"""

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
from .groupcons import PartialConstruction, extend_to_group  # noqa: F401
from .periodicity import product_relation_tables  # noqa: F401
