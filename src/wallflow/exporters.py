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
_PAIR_FMT = "%.17g %.17g 0"     # a VTK point or vector in the (z, r) plane


def _reference_grid(z, r):
    """Flat coordinates of a grid's nodes, row-major (r outer, z inner)."""
    zg, rg = np.meshgrid(z, r)
    return zg.ravel(), rg.ravel()


def _write_table(f, cols, fmt=_FMT, header=""):
    """Rows of the numpy columns ``cols`` under an optional header line."""
    np.savetxt(f, np.column_stack(cols), fmt=fmt, delimiter=",",
               header=header, comments="")


def write_fields_csv(record, fluid_mesh, radius, directory):
    """One velocity/pressure/wall CSV triple per stored snapshot; the
    record's free wall DOFs are written as node values."""
    os.makedirs(directory, exist_ok=True)
    nv, wall = fluid_mesh.n_velocity_nodes, fluid_mesh.wall
    zv, rv = _reference_grid(fluid_mesh.velocity_z, fluid_mesh.velocity_r)
    zp, rp = _reference_grid(fluid_mesh.pressure_z, fluid_mesh.pressure_r)
    written = []
    for k in range(len(record)):
        eta, u = record.etas[k], record.us[k]
        tables = (
            ("velocity", "z,r_ref,r_phys,u_z,u_r",
             [zv, rv, map_to_physical(fluid_mesh, eta, radius, zv, rv)[1],
              u[:nv], u[nv:]]),
            ("pressure", "z,r_ref,r_phys,p",
             [zp, rp, map_to_physical(fluid_mesh, eta, radius, zp, rp)[1],
              record.ps[k]]),
            ("wall", "z,eta,v,v_star",
             [wall.nodes] + [wall.to_full(w)[0::2] for w in
                             (eta, record.vs[k], record.v_stars[k])]),
        )
        for name, header, cols in tables:
            path = os.path.join(directory, f"{name}_{k:04d}.csv")
            _write_table(path, cols, header=header)
            written.append(path)
    return written


def _pressure_at_velocity_nodes(fluid_mesh, p):
    """Evaluate the bilinear pressure at the velocity nodes (exact)."""
    def refine(a):
        # midpoints between consecutive rows: linear interpolation
        out = np.empty((2 * a.shape[0] - 1,) + a.shape[1:])
        out[0::2] = a
        out[1::2] = 0.5 * (a[:-1] + a[1:])
        return out

    grid = p.reshape(fluid_mesh.n_r + 1, fluid_mesh.n_z + 1)
    return refine(refine(grid).T).T.ravel()


def write_fields_vtk(record, fluid_mesh, radius, directory):
    """Legacy-VTK structured grids on the deformed velocity grid."""
    os.makedirs(directory, exist_ok=True)
    nv = fluid_mesh.n_velocity_nodes
    zv, rv = _reference_grid(fluid_mesh.velocity_z, fluid_mesh.velocity_r)
    written = []
    for k in range(len(record)):
        _, r_phys = map_to_physical(fluid_mesh, record.etas[k], radius, zv, rv)
        u = record.us[k]
        path = os.path.join(directory, f"fields_{k:04d}.vtk")
        with open(path, "w") as f:
            f.write("# vtk DataFile Version 3.0\n"
                    f"wallflow fields t={_FMT % record.times[k]}\n"
                    "ASCII\nDATASET STRUCTURED_GRID\n"
                    f"DIMENSIONS {fluid_mesh.n_cols} {fluid_mesh.n_rows} 1\n"
                    f"POINTS {nv} double\n")
            _write_table(f, [zv, r_phys], _PAIR_FMT)
            f.write(f"POINT_DATA {nv}\nVECTORS velocity double\n")
            _write_table(f, [u[:nv], u[nv:]], _PAIR_FMT)
            f.write("SCALARS pressure double 1\nLOOKUP_TABLE default\n")
            _write_table(f, [_pressure_at_velocity_nodes(fluid_mesh,
                                                         record.ps[k])])
        written.append(path)
    return written


def write_outputs(result):
    """Write a finished run's artifacts: its ledger, if it formed one, and
    the fields its config's ``output`` asks for; returns paths.  A
    directory or file that cannot be written raises WallflowError."""
    setup = result.setup
    output_cfg = setup.cfg["output"]
    directory = output_cfg["directory"]
    fields_mode = output_cfg["fields"]
    written = []
    try:
        os.makedirs(directory, exist_ok=True)
        if result.ledger is not None:
            path = os.path.join(directory, "ledger.csv")
            result.ledger.to_csv(path)
            written.append(path)
        if fields_mode in ("csv", "both"):
            written += write_fields_csv(result.record, setup.fluid_mesh,
                                        setup.radius, directory)
        if fields_mode in ("vtk", "both"):
            written += write_fields_vtk(result.record, setup.fluid_mesh,
                                        setup.radius, directory)
    except OSError as exc:
        raise WallflowError(f"cannot write output to {directory}: "
                            f"{exc}") from exc
    return written
