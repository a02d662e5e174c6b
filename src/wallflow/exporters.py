"""Field and ledger writers: CSV and legacy-VTK structured grids.

Formats are byte-stable given identical inputs: fixed float formatting,
newline endings, and field order.  Velocity-grid files carry both the
reference coordinates and the deformed coordinates (the image of the grid
under the domain map), so plots on the moving geometry need no extra
processing.

File layouts (documented here, stable across releases):

* ``velocity_NNNN.csv``: columns z, r_ref, r_phys, u_z, u_r, one row per
  velocity node, nodes in row-major order (r outer, z inner);
* ``pressure_NNNN.csv``: columns z, r_ref, r_phys, p on the pressure grid;
* ``wall_NNNN.csv``: columns z, eta, v, v_star at the wall nodes;
* ``fields_NNNN.vtk``: legacy VTK STRUCTURED_GRID on the deformed velocity
  grid with a velocity vector field and the pressure interpolated to the
  velocity nodes;
* ``ledger.csv``: see :mod:`wallflow.energy`.
"""

import os

import numpy as np

from .ale import map_to_physical
from .errors import WallflowError

_FMT = "%.17g"


def _fmt(x):
    return _FMT % float(x)


def write_fields_csv(record, fluid_mesh, shell_mesh, radius, directory):
    """One velocity/pressure/wall CSV triple per stored snapshot."""
    os.makedirs(directory, exist_ok=True)
    written = []
    zg_v, rg_v = np.meshgrid(fluid_mesh.velocity_z, fluid_mesh.velocity_r)
    zg_p, rg_p = np.meshgrid(fluid_mesh.pressure_z, fluid_mesh.pressure_r)
    for k in range(len(record)):
        eta = record.etas[k]
        u = record.us[k]
        p = record.ps[k]
        nv = fluid_mesh.n_velocity_nodes
        _, rp_v = map_to_physical(shell_mesh, eta, radius, zg_v.ravel(),
                                  rg_v.ravel())
        path = os.path.join(directory, f"velocity_{k:04d}.csv")
        with open(path, "w") as f:
            f.write("z,r_ref,r_phys,u_z,u_r\n")
            for i in range(nv):
                f.write(",".join([_fmt(zg_v.ravel()[i]), _fmt(rg_v.ravel()[i]),
                                  _fmt(rp_v[i]), _fmt(u[i]), _fmt(u[nv + i])])
                        + "\n")
        written.append(path)
        _, rp_p = map_to_physical(shell_mesh, eta, radius, zg_p.ravel(),
                                  rg_p.ravel())
        path = os.path.join(directory, f"pressure_{k:04d}.csv")
        with open(path, "w") as f:
            f.write("z,r_ref,r_phys,p\n")
            for i in range(fluid_mesh.n_pressure_nodes):
                f.write(",".join([_fmt(zg_p.ravel()[i]), _fmt(rg_p.ravel()[i]),
                                  _fmt(rp_p[i]), _fmt(p[i])]) + "\n")
        written.append(path)
        path = os.path.join(directory, f"wall_{k:04d}.csv")
        with open(path, "w") as f:
            f.write("z,eta,v,v_star\n")
            for i, z in enumerate(shell_mesh.nodes):
                f.write(",".join([_fmt(z), _fmt(record.etas[k][2 * i]),
                                  _fmt(record.vs[k][2 * i]),
                                  _fmt(record.v_stars[k][2 * i])]) + "\n")
        written.append(path)
    return written


def _pressure_at_velocity_nodes(fluid_mesh, p):
    """Evaluate the bilinear pressure at the velocity nodes (exact)."""
    grid = p.reshape(fluid_mesh.n_r + 1, fluid_mesh.n_z + 1)
    # refine each direction by midpoint averaging (linear interpolation)
    def refine(a, axis):
        mids = 0.5 * (np.take(a, np.arange(a.shape[axis] - 1), axis=axis)
                      + np.take(a, np.arange(1, a.shape[axis]), axis=axis))
        out_shape = list(a.shape)
        out_shape[axis] = 2 * a.shape[axis] - 1
        out = np.empty(out_shape)
        sl_even = [slice(None)] * a.ndim
        sl_even[axis] = slice(0, None, 2)
        sl_odd = [slice(None)] * a.ndim
        sl_odd[axis] = slice(1, None, 2)
        out[tuple(sl_even)] = a
        out[tuple(sl_odd)] = mids
        return out

    return refine(refine(grid, 0), 1).ravel()


def write_fields_vtk(record, fluid_mesh, shell_mesh, radius, directory):
    """Legacy-VTK structured grids on the deformed velocity grid."""
    os.makedirs(directory, exist_ok=True)
    written = []
    zg, rg = np.meshgrid(fluid_mesh.velocity_z, fluid_mesh.velocity_r)
    nz, nr = fluid_mesh.n_cols, fluid_mesh.n_rows
    nv = fluid_mesh.n_velocity_nodes
    for k in range(len(record)):
        _, rp = map_to_physical(shell_mesh, record.etas[k], radius,
                                zg.ravel(), rg.ravel())
        u = record.us[k]
        p_nodes = _pressure_at_velocity_nodes(fluid_mesh, record.ps[k])
        path = os.path.join(directory, f"fields_{k:04d}.vtk")
        with open(path, "w") as f:
            f.write("# vtk DataFile Version 3.0\n")
            f.write(f"wallflow fields t={_fmt(record.times[k])}\n")
            f.write("ASCII\nDATASET STRUCTURED_GRID\n")
            f.write(f"DIMENSIONS {nz} {nr} 1\n")
            f.write(f"POINTS {nv} double\n")
            for i in range(nv):
                f.write(f"{_fmt(zg.ravel()[i])} {_fmt(rp[i])} 0\n")
            f.write(f"POINT_DATA {nv}\n")
            f.write("VECTORS velocity double\n")
            for i in range(nv):
                f.write(f"{_fmt(u[i])} {_fmt(u[nv + i])} 0\n")
            f.write("SCALARS pressure double 1\nLOOKUP_TABLE default\n")
            for i in range(nv):
                f.write(f"{_fmt(p_nodes[i])}\n")
        written.append(path)
    return written


def write_outputs(result, setup, output_cfg):
    """Write the configured artifacts of a finished run; returns paths.
    A directory or file that cannot be written raises WallflowError."""
    directory = output_cfg["directory"]
    fields_mode = output_cfg["fields"]
    written = []
    try:
        os.makedirs(directory, exist_ok=True)
        if output_cfg["ledger"] == "csv":
            path = os.path.join(directory, "ledger.csv")
            result.ledger.to_csv(path)
            written.append(path)
        if fields_mode in ("csv", "both"):
            written += write_fields_csv(result.record, setup.fluid_mesh,
                                        setup.shell_mesh, setup.radius,
                                        directory)
        if fields_mode in ("vtk", "both"):
            written += write_fields_vtk(result.record, setup.fluid_mesh,
                                        setup.shell_mesh, setup.radius,
                                        directory)
    except OSError as exc:
        raise WallflowError(f"cannot write output to {directory}: "
                            f"{exc}") from exc
    return written
