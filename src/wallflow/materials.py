"""Wall material parameters and the derived PDE coefficients.

Units are not enforced dimensionally; the documented reference convention is
CGS (lengths in cm, stresses in dyn/cm^2, densities in g/cm^3), the usual
choice in hemodynamics.  Any consistent unit system works.
"""

from dataclasses import dataclass


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
    D coefficients unchanged.  The fields are not checked: a validated
    config's material lies in the ranges the config table gives them.
    """
    m = material
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
