"""poissonkit: exact and numerical verification tools for Poisson geometry."""

from .exactalg import (
    ParseError,
    Poly,
    PolyMultiVec,
    Scalar,
    parse_poly,
    parse_scalar,
    print_poly,
    schouten,
    wedge,
)
from .poisson import PoissonChart

__all__ = [
    "ParseError",
    "Poly",
    "PolyMultiVec",
    "Scalar",
    "PoissonChart",
    "parse_poly",
    "parse_scalar",
    "print_poly",
    "schouten",
    "wedge",
]

__version__ = "0.1.0"
