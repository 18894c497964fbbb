"""Exact computer algebra for solvable polynomial algebras.

The package provides, over an exact coefficient field (rationals or a
prime field):

* verification that a finitely presented algebra admits a solvable-type
  presentation (via overlap analysis in the free algebra),
* left Groebner bases of submodules of free modules, with full
  transition-matrix tracking,
* syzygy modules, finite free resolutions and projective dimension,
* minimal graded free resolutions of graded modules,
* minimal filtered free resolutions of filtered modules, together with
  the associated graded and Rees constructions.

Everything is computed with exact arithmetic; no floating point is used
anywhere.
"""

from .coeff import FieldSpec
from .algebra import (
    DegreeFunction,
    MonomialOrder,
    Poly,
    SolvableAlgebra,
    build_algebra,
)

__all__ = [
    "FieldSpec",
    "DegreeFunction",
    "MonomialOrder",
    "Poly",
    "SolvableAlgebra",
    "build_algebra",
]

__version__ = "0.1.0"
