"""Exception types shared by the solver modules."""


class SolverError(RuntimeError):
    """A numerical run cannot continue."""


class DryStateError(SolverError):
    """Water depth fell to or below the configured floor."""


class HyperbolicityError(SolverError):
    """Eigenvalues left the real axis beyond the configured tolerance.

    ``ratio`` is the worst max|Im| / max|Re|, ``location`` where it
    occurred: (interface index, "left" or "right") for wave speeds, and
    ``time`` the stage time of the right-hand side that raised it, when
    known.
    """

    def __init__(self, message: str, ratio: float | None = None,
                 location=None, time: float | None = None):
        super().__init__(message)
        self.ratio = ratio
        self.location = location
        self.time = time


class ConfigError(ValueError):
    """A run configuration failed validation."""
