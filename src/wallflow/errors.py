"""Exception types shared across the package."""


class WallflowError(Exception):
    """Base class for all package errors."""


class ValidationError(WallflowError):
    """A physical parameter or configuration value is out of its admissible range.

    The message always names the offending field.
    """


class ConfigError(WallflowError):
    """A run configuration file is malformed or internally inconsistent."""

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class SolverError(WallflowError):
    """A linear solve failed or did not meet its residual contract."""


class WallContact(WallflowError):
    """The moving wall reached the contact threshold min(R + eta) <= tol.

    Raised by snapshot construction; the time loop converts it into a
    run status carrying the first crossing time and location.
    """

    def __init__(self, min_radius, z_location):
        self.min_radius = float(min_radius)
        self.z_location = float(z_location)
        super().__init__(
            f"wall contact: min radius {self.min_radius:.3e} at z = {self.z_location:.6g}"
        )
