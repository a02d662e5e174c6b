"""Wall material parameters and the derived PDE coefficients.

Units are not enforced dimensionally; the documented reference convention is
CGS (lengths in cm, stresses in dyn/cm^2, densities in g/cm^3), the usual
choice in hemodynamics.  Any consistent unit system works.
"""

from dataclasses import dataclass

import numpy as np

from .ale import min_radius_of
from .errors import ValidationError

# relative residual under which a compatibility condition of initial data holds
COMPATIBILITY_TOL = 1e-10


@dataclass(frozen=True)
class ShellMaterial:
    """Physical parameters of the elastic or viscoelastic wall.

    ``viscous_modulus`` (stress * time) and ``viscous_poisson`` are the
    Kelvin-Voigt counterparts of the Young modulus and Poisson ratio; a
    purely elastic wall has ``viscous_modulus = 0``.
    """

    youngs_modulus: float       # E > 0
    poisson_ratio: float        # 0 <= sigma < 1
    thickness: float            # h > 0
    radius: float               # R > 0, reference tube radius
    length: float               # L > 0
    density: float              # rho_s > 0, volume density of the wall
    viscous_modulus: float = 0.0
    viscous_poisson: float = 0.0

    def validate(self):
        checks = [
            ("youngs_modulus", self.youngs_modulus > 0.0),
            ("poisson_ratio", 0.0 <= self.poisson_ratio < 1.0),
            ("thickness", self.thickness > 0.0),
            ("radius", self.radius > 0.0),
            ("length", self.length > 0.0),
            ("density", self.density > 0.0),
            ("viscous_modulus", self.viscous_modulus >= 0.0),
            # admissible range for viscous_poisson mirrors the elastic one;
            # this is a package convention, not a physical requirement
            ("viscous_poisson", 0.0 <= self.viscous_poisson < 1.0),
        ]
        for name, ok in checks:
            if not ok:
                raise ValidationError(
                    f"{name} = {getattr(self, name)!r} is outside its admissible range"
                )
        return self


@dataclass(frozen=True)
class ShellCoefficients:
    """Coefficients of the radial wall equation.

    Elastic part: C0 * eta - C1 * eta_zz + C2 * eta_zzzz.
    Viscous part: D0 * eta_t - D1 * eta_tzz + D2 * eta_tzzzz.
    ``rho_s_h`` is the surface inertia rho_s * h.
    """

    C0: float
    C1: float
    C2: float
    D0: float
    D1: float
    D2: float
    rho_s_h: float


def derive_coefficients(material: ShellMaterial) -> ShellCoefficients:
    """Map physical wall parameters to the PDE coefficients.

    Pure and deterministic; doubling E doubles C0, C1, C2 and leaves the
    D coefficients unchanged.
    """
    m = material.validate()
    h, r = m.thickness, m.radius
    elastic = m.youngs_modulus / (1.0 - m.poisson_ratio**2)
    c_v = m.viscous_modulus / (1.0 - m.viscous_poisson**2)
    d_v = m.viscous_modulus * m.viscous_poisson / (1.0 - m.viscous_poisson**2)
    bend = 1.0 + h**2 / (12.0 * r**2)
    return ShellCoefficients(
        C0=h * elastic / r**2 * bend,
        C1=(h**3 / 6.0) * elastic * m.poisson_ratio / r**2,
        C2=(h**3 / 12.0) * elastic,
        D0=h * c_v / r**2 * bend,
        D1=(h**3 / 6.0) * d_v / r**2,
        D2=(h**3 / 12.0) * c_v,
        rho_s_h=m.density * h,
    )


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    residual: float
    passed: bool


@dataclass(frozen=True)
class CompatibilityReport:
    checks: tuple
    ok: bool

    def failures(self):
        return [c for c in self.checks if not c.passed]


def validate_compatibility(shell_mesh, fluid_mesh, trace_op, eta0, v0, u0,
                           radius):
    """Check that discrete initial data are mutually compatible.

    ``eta0`` and ``v0`` are full Hermite DOF vectors (value, slope per node,
    boundary nodes included); ``u0`` is a full velocity DOF vector on the
    fluid mesh; ``trace_op`` is the run's trace map (top edge <- free wall
    DOFs).  Conditions checked, each reported with its residual:

    * clamped ends: value and slope of eta0 and v0 vanish at z = 0 and z = L;
    * interface trace: u0 on the top edge equals v0 * e_r at every edge node
      (and the axial component vanishes there);
    * essential boundary values of u0 (radial component on the bottom,
      inlet and outlet edges);
    * strict positivity of R + eta0 over nodes and quadrature points.

    Residuals are relative to the max-norm of the corresponding field, so
    exactly constructed data report zero; :data:`COMPATIBILITY_TOL` is tight
    because initial data are typically built exactly.
    """
    eta0 = np.asarray(eta0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    u0 = np.asarray(u0, dtype=float)

    checks = []

    def scale_of(field):
        m = float(np.max(np.abs(field))) if field.size else 0.0
        return m if m > 0.0 else 1.0

    def add(name, residual, scale):
        rel = residual / scale
        checks.append(ConditionCheck(name, rel, rel <= COMPATIBILITY_TOL))

    end = 2 * shell_mesh.n_nodes - 2
    for name, field in (("eta0", eta0), ("v0", v0)):
        for k, which in ((0, "value at z=0"), (1, "slope at z=0"),
                         (end, "value at z=L"), (end + 1, "slope at z=L")):
            add(f"{name} clamped {which}", abs(field[k]), scale_of(field))

    trace = trace_op @ shell_mesh.to_free(v0)
    nv = fluid_mesh.n_velocity_nodes
    top = fluid_mesh.top_nodes
    s_u = max(scale_of(u0), scale_of(v0))
    add("interface trace u0_r = v0", float(np.max(np.abs(u0[nv + top] - trace))), s_u)
    add("interface trace u0_z = 0", float(np.max(np.abs(u0[top]))), s_u)
    others = np.concatenate(
        [fluid_mesh.bottom_nodes, fluid_mesh.inlet_nodes, fluid_mesh.outlet_nodes]
    )
    add("u0_r = 0 on bottom/inlet/outlet", float(np.max(np.abs(u0[nv + others]))), s_u)

    min_r, _ = min_radius_of(shell_mesh, eta0, radius)
    checks.append(ConditionCheck("R + eta0 > 0 (min radius)", min_r, min_r > 0.0))

    report = CompatibilityReport(tuple(checks), all(c.passed for c in checks))
    return report
