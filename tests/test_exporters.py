import os
import re

import numpy as np

from wallflow import driver, exporters
from wallflow.config import validate_config
from wallflow.energy import load_ledger, verify_run

from oracles import write_fields_csv_by_loop, write_fields_vtk_by_loop


def run_small(tmp_path, bump=None, **time):
    """A short zero run, or with ``bump``, a pair of amplitudes, a bumped,
    moving wall under a pressure pulse, so every exported field is
    non-zero."""
    raw = {
        "geometry": {"radius": 0.5, "length": 6.0},
        "fluid": {"density": 1.0, "viscosity": 0.035},
        "wall": {"youngs_modulus": 7.5e5, "poisson_ratio": 0.5,
                 "thickness": 0.1, "density": 1.1,
                 "viscous_modulus": 1000.0, "viscous_poisson": 0.5},
        "mesh": {"n_z": 8, "n_r": 4, "wall_elements": 8},
        "time": time or {"t_final": 0.001, "n_steps": 5},
        "waveform": {"inlet": {"kind": "constant", "value": 0.0},
                     "outlet": {"kind": "constant", "value": 0.0}},
        "output": {"directory": str(tmp_path / "out"), "cadence": 1,
                   "fields": "both", "ledger": "csv"},
    }
    if bump:
        raw["initial_data"] = {"kind": "bump", "eta_amplitude": bump[0],
                               "v_amplitude": bump[1]}
        raw["waveform"]["inlet"] = {"kind": "pulse", "amplitude": 2.0e4,
                                    "duration": 0.005}
    result = driver.run(validate_config(raw))
    return result, result.setup


def test_zero_run_export_shapes_and_values(tmp_path):
    result, setup = run_small(tmp_path)
    written = exporters.write_outputs(result)
    names = {os.path.basename(p) for p in written}
    assert "ledger.csv" in names and "ledger.jsonl" not in names
    assert "velocity_0000.csv" in names and "fields_0000.vtk" in names
    vel = np.genfromtxt(tmp_path / "out" / "velocity_0000.csv",
                        delimiter=",", names=True)
    fm = setup.fluid_mesh
    assert vel.shape[0] == fm.n_velocity_nodes
    assert np.all(vel["u_z"] == 0.0) and np.all(vel["u_r"] == 0.0)
    # flat wall: deformed ordinate is radius * reference ordinate
    assert np.allclose(vel["r_phys"], setup.radius * vel["r_ref"], atol=0)
    wall = np.genfromtxt(tmp_path / "out" / "wall_0000.csv",
                         delimiter=",", names=True)
    assert wall.shape[0] == setup.shell_mesh.n_nodes
    assert np.all(wall["eta"] == 0.0)


def test_vtk_structure(tmp_path):
    result, setup = run_small(tmp_path)
    exporters.write_fields_vtk(result.record, setup.fluid_mesh, setup.radius,
                               str(tmp_path / "vtk"))
    path = tmp_path / "vtk" / "fields_0000.vtk"
    text = path.read_text().splitlines()
    assert text[0].startswith("# vtk DataFile")
    fm = setup.fluid_mesh
    assert f"DIMENSIONS {fm.n_cols} {fm.n_rows} 1" in text
    assert f"POINTS {fm.n_velocity_nodes} double" in text
    assert "VECTORS velocity double" in text
    assert "SCALARS pressure double 1" in text


def test_deformed_grid_tracks_the_wall(tmp_path):
    result, setup = run_small(tmp_path)
    # forge a constant interior displacement and confirm the export maps it
    rec = result.record
    free = setup.shell_mesh.zero_free()
    free[0::2] = 0.25
    rec.etas[-1] = free
    exporters.write_fields_csv(rec, setup.fluid_mesh, setup.radius,
                               str(tmp_path / "csv"))
    k = len(rec) - 1
    vel = np.genfromtxt(tmp_path / "csv" / f"velocity_{k:04d}.csv",
                        delimiter=",", names=True)
    fm = setup.fluid_mesh
    top = vel["r_ref"] == 1.0
    interior = top & (vel["z"] > 0.2 * fm.length) & (vel["z"] < 0.8 * fm.length)
    # interior top edge sits at R + 0.25 where the profile is flat
    flat = np.isclose(vel["r_phys"][interior], setup.radius + 0.25, atol=1e-12)
    assert flat.any()


def test_exports_are_byte_stable(tmp_path):
    result, setup = run_small(tmp_path)
    d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
    exporters.write_fields_csv(result.record, setup.fluid_mesh,
                               setup.radius, d1)
    exporters.write_fields_csv(result.record, setup.fluid_mesh,
                               setup.radius, d2)
    for name in sorted(os.listdir(d1)):
        with open(os.path.join(d1, name), "rb") as fa, \
                open(os.path.join(d2, name), "rb") as fb:
            assert fa.read() == fb.read(), name


def test_ledger_round_trip_preserves_verdict(tmp_path):
    result, setup = run_small(tmp_path, t_final=0.001, n_steps=8)
    exporters.write_outputs(result)
    original = verify_run(result.ledger)
    rep = verify_run(load_ledger(tmp_path / "out" / "ledger.csv"))
    assert rep.ok == original.ok
    assert [c.value for c in rep.checks] == [c.value for c in original.checks]


def test_pressure_interpolation_to_velocity_nodes_is_exact(tmp_path):
    result, setup = run_small(tmp_path)
    fm = setup.fluid_mesh
    # a bilinear field is reproduced exactly at the velocity nodes
    zg, rg = np.meshgrid(fm.pressure_z, fm.pressure_r)
    p = (1.0 + 2.0 * zg + 3.0 * rg + 0.5 * zg * rg).ravel()
    interp = exporters._pressure_at_velocity_nodes(fm, p)
    zv, rv = np.meshgrid(fm.velocity_z, fm.velocity_r)
    exact = (1.0 + 2.0 * zv + 3.0 * rv + 0.5 * zv * rv).ravel()
    assert np.abs(interp - exact).max() <= 1e-12


def test_writers_match_the_loop_reference(tmp_path):
    result, setup = run_small(tmp_path, bump=(0.01, 1.0))
    rec = result.record
    assert all(np.abs(p).max() > 0.0 for p in rec.ps[1:])
    assert all(np.abs(eta).max() > 0.0 for eta in rec.etas)
    new = exporters.write_outputs(result)[1:]
    ref_dir = str(tmp_path / "ref")
    ref = (write_fields_csv_by_loop(rec, setup.fluid_mesh, setup.radius,
                                    ref_dir)
           + write_fields_vtk_by_loop(rec, setup.fluid_mesh, setup.radius,
                                      ref_dir))
    assert len(new) == len(ref) == 4 * len(rec)
    for a, b in zip(new, ref):
        assert os.path.basename(a) == os.path.basename(b)
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read(), os.path.basename(a)


def test_a_sunken_bump_writes_zero_not_minus_zero_at_the_clamped_ends(
        tmp_path):
    # the wall's clamped end DOFs are zero whatever the bump's sign, so the
    # t = 0 files carry no -0 at the wall's ends or on the inlet column
    result, _ = run_small(tmp_path, bump=(-0.01, -1.0))
    exporters.write_outputs(result)
    wall = (tmp_path / "out" / "wall_0000.csv").read_text().splitlines()
    assert wall[1] == "0,0,0,0" and wall[-1] == "6,0,0,0"
    velocity = (tmp_path / "out" / "velocity_0000.csv").read_text()
    inlet = [line.split(",") for line in velocity.splitlines()[1:]
             if line.startswith("0,")]
    assert len(inlet) == 9 and all("-0" not in row for row in inlet)


def test_a_falling_bump_writes_no_minus_zero_at_t0(tmp_path):
    # the radial velocity is zero on the symmetry row r = 0 whatever the
    # sign of v0, so no t = 0 file, CSV or VTK, holds a -0 cell
    result, _ = run_small(tmp_path, bump=(-0.01, -1.0))
    exporters.write_outputs(result)
    files = sorted((tmp_path / "out").glob("*_0000.*"))
    assert [f.name for f in files] == ["fields_0000.vtk", "pressure_0000.csv",
                                       "velocity_0000.csv", "wall_0000.csv"]
    for f in files:
        assert "-0" not in re.split(r"[,\s]+", f.read_text()), f.name
