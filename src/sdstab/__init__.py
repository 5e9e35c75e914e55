"""Sampled-data stochastic control: sampling bounds, certificates, synthesis, simulation."""

__version__ = "0.1.0"

from . import bounds, design, lmi, models, numerics, sim  # noqa: F401
from .errors import (  # noqa: F401
    DegenerateEnsemble,
    DomainError,
    FormatError,
    InfeasibleError,
    NumericalFailure,
    ToolkitError,
    ValidationError,
)
