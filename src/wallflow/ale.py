"""Geometry of the moving domain on the fixed reference rectangle.

The moving channel (0, L) x (0, R + eta(t, z)) is pulled back to the
reference domain (0, L) x (0, 1) by the vertical-stretch map
(z, r) -> (z, (R + eta(z)) r).  Everything the fluid assembly needs from
the geometry is frozen per time step in an :class:`AleSnapshot`: the
Jacobian weight R + eta at the quadrature points, the weighted quadrature
weights and the two factors of the transformed derivatives below, once
:func:`build_snapshot` has checked the profile for contact.

Reference-domain derivatives (d_z, d_r) of any field transform to
moving-domain derivatives via

    d1 = d_z - r * eta_z / (R + eta) * d_r,     d2 = d_r / (R + eta),

the two rows of (grad A)^{-T} applied to the reference gradient; the fluid
kernels expand these products against tabulated shape-function tables.
"""

from dataclasses import dataclass

import numpy as np

from .errors import WallContact
from .fluid import shell_field_at_quad

# a run halts when min(R + eta) falls to this fraction of the radius R
CONTACT_THRESHOLD_FACTOR = 1e-6


@dataclass(frozen=True)
class AleSnapshot:
    """Wall geometry sampled at the fluid quadrature points, frozen per step."""

    radius: float
    jac_q: np.ndarray        # (n_cells, n_quad) Jacobian weight R + eta
    w: np.ndarray            # (n_cells, n_quad) quadrature weight * jac_q
    slope: np.ndarray        # (n_cells, n_quad) r * eta_z / (R + eta)
    w_over_jac: np.ndarray   # (n_cells, n_quad) w / (R + eta)


def min_radius_of(fluid_mesh, eta_free, radius):
    """min(R + eta) over the wall's nodes and quadrature points and the
    fluid quadrature points, with its location."""
    zs, sampler = fluid_mesh.contact_points
    vals = radius + sampler @ eta_free
    i = int(np.argmin(vals))
    return float(vals[i]), float(zs[i])


def build_snapshot(fluid_mesh, eta_free, radius):
    """Sample the wall profile on the fluid quadrature grid.

    Raises :class:`WallContact` when the minimum radius over the points of
    :func:`min_radius_of`, the fluid kernels' among them, does not exceed
    ``CONTACT_THRESHOLD_FACTOR * radius``.
    """
    min_r, min_z = min_radius_of(fluid_mesh, eta_free, radius)
    if min_r <= CONTACT_THRESHOLD_FACTOR * radius:
        raise WallContact(min_r, min_z)
    jac_q = radius + shell_field_at_quad(fluid_mesh, eta_free)
    deta_q = shell_field_at_quad(fluid_mesh, eta_free, deriv=1)
    w = fluid_mesh.quad_w_dv[None, :] * jac_q
    return AleSnapshot(radius=float(radius), jac_q=jac_q, w=w,
                       slope=fluid_mesh.quad_r * deta_q / jac_q,
                       w_over_jac=w / jac_q)


def map_to_physical(fluid_mesh, eta_free, radius, z, r):
    """Image of reference points under the domain map (z, (R + eta(z)) r)
    of the wall profile ``eta_free`` (free wall DOFs)."""
    z = np.asarray(z, dtype=float)
    r = np.asarray(r, dtype=float)
    return z, (radius + fluid_mesh.wall.evaluate(eta_free, z)) * r
