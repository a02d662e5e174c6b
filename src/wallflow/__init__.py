"""Channel flow with a moving viscoelastic wall.

A split-step solver for 2D incompressible flow in a channel whose top wall
is a thin elastic or viscoelastic structure, driven by inlet/outlet dynamic
pressure data, on a fixed reference domain through a vertical-stretch
domain map.  Each step alternates a wall elastodynamics half step with a
monolithic fluid/wall-velocity solve whose Robin-type coupling makes the
scheme unconditionally stable; an energy ledger records the per-step
identities the scheme satisfies and a verifier checks them after the fact.
"""

from .ale import AleSnapshot, build_snapshot, min_radius_of
from .config import load_config, validate_config
from .driver import (RunResult, TrajectoryRecord, poiseuille_profile_error,
                     run, self_convergence_study)
from .energy import EnergyLedger, load_ledger, verify_run
from .errors import (ConfigError, SolverError, ValidationError, WallContact,
                     WallflowError)
from .materials import ShellCoefficients, derive_coefficients

__version__ = "0.1.0"

__all__ = [
    "AleSnapshot", "ConfigError", "EnergyLedger", "RunResult",
    "ShellCoefficients", "SolverError", "TrajectoryRecord", "ValidationError",
    "WallContact", "WallflowError", "build_snapshot", "derive_coefficients",
    "load_config", "load_ledger", "min_radius_of", "poiseuille_profile_error",
    "run", "self_convergence_study", "validate_config", "verify_run",
]
