"""Moment-closure solvers for magnetic rotating shallow water flow."""

import logging

from .closure import BasisSet, ClosureTensors, build_tensors, eval_profile, project_profile
from .errors import ConfigError, DryStateError, HyperbolicityError, SolverError

__version__ = "0.1.0"

# a library leaves handlers to its application: without one, logging's
# last-resort handler would print the package's records to stderr
logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "BasisSet",
    "ClosureTensors",
    "ConfigError",
    "DryStateError",
    "HyperbolicityError",
    "SolverError",
    "build_tensors",
    "eval_profile",
    "project_profile",
    "__version__",
]
