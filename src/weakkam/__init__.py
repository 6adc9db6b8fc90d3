"""Numerical toolkit for discounted Hamilton-Jacobi equations on truncated
boxes: critical values, intrinsic distances, Aubry sets, Peierls barriers,
weak KAM solutions, occupation-measure linear programs, and the vanishing
discount limit, all checked against closed-form oracles at desk scale."""

__version__ = "0.1.0"

from . import errors
from .grids import build_grid, build_transition, build_velocity_set
from .models import (
    fenchel_transform,
    make_model,
    superlinearize,
    support_function,
    validate_assumptions,
)

__all__ = [
    "errors",
    "build_grid",
    "build_transition",
    "build_velocity_set",
    "fenchel_transform",
    "make_model",
    "superlinearize",
    "support_function",
    "validate_assumptions",
    "__version__",
]
