"""The wall equation's coefficients, derived from a configuration's wall.

Units are not enforced dimensionally; the documented reference convention is
CGS (lengths in cm, stresses in dyn/cm^2, densities in g/cm^3), the usual
choice in hemodynamics.  Any consistent unit system works.
"""

from dataclasses import dataclass


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


def derive_coefficients(cfg) -> ShellCoefficients:
    """Map the wall section of a validated config, on its tube's radius, to
    the PDE coefficients; ``viscous_modulus`` (stress * time) and
    ``viscous_poisson`` are the Kelvin-Voigt counterparts of the Young
    modulus and Poisson ratio.

    Pure and deterministic; doubling E doubles C0, C1, C2 and leaves the
    D coefficients unchanged.  The fields are not checked: a validated
    config's wall lies in the ranges the config table gives them.
    """
    wall = cfg["wall"]
    h, r = wall["thickness"], cfg["geometry"]["radius"]
    elastic = wall["youngs_modulus"] / (1.0 - wall["poisson_ratio"]**2)
    nu_v = wall["viscous_poisson"]
    c_v = wall["viscous_modulus"] / (1.0 - nu_v**2)
    d_v = wall["viscous_modulus"] * nu_v / (1.0 - nu_v**2)
    bend = 1.0 + h**2 / (12.0 * r**2)
    return ShellCoefficients(
        C0=h * elastic / r**2 * bend,
        C1=(h**3 / 6.0) * elastic * wall["poisson_ratio"] / r**2,
        C2=(h**3 / 12.0) * elastic,
        D0=h * c_v / r**2 * bend,
        D1=(h**3 / 6.0) * d_v / r**2,
        D2=(h**3 / 12.0) * c_v,
        rho_s_h=wall["density"] * h,
    )
