"""Wall material parameters and the derived PDE coefficients.

Units are not enforced dimensionally; the documented reference convention is
CGS (lengths in cm, stresses in dyn/cm^2, densities in g/cm^3), the usual
choice in hemodynamics.  Any consistent unit system works.
"""

from dataclasses import dataclass

from .errors import ValidationError


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
