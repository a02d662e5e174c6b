"""Acceptance suite: every shipped guarantee, checked at its stated
tolerance, one printed pass/fail line per criterion.

Desk scale is a 64x16 fluid mesh with a 64-element wall and 200 steps; the
temporal-convergence ladder runs the same physics on a coarser spatial mesh
(the observed order isolates the time discretization, which is
mesh-independent).  Run with ``pytest -s tests/test_acceptance.py`` to see
the criterion lines as they pass.
"""

import dataclasses
import json
import os

import numpy as np
import pytest

from wallflow import ale, driver, fluid, shell
from wallflow.config import load_config, validate_config
from wallflow.energy import verify_run

from oracles import (DenseFluidOracle, assemble_advection, assemble_divergence,
                     assemble_robin_mass, assemble_viscous, long_wave_speed,
                     two_component, womersley_velocity)

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")

TOL_STRUCT = 1e-10
TOL_FLUID = 1e-8
TOL_SLACK = 1e-10
TOL_TELESCOPED = 1e-8
TOL_ENTRYWISE = 1e-13
TOL_ORACLE = 1e-12
ORDER_RANGE = (0.8, 1.3)
GAP_ORDER_MIN = 0.45
POISEUILLE_TOL = 0.02
# closed forms of the physics, their bounds fixed before the checks were
# written; measured: Womersley errors of 2.43e-2 to 3.10e-3, orders
# 0.98-1.00, and the pulse peak at 438 cm/s against the long-wave 448 cm/s
WOMERSLEY_STEPS = (150, 300, 600, 1200)
WOMERSLEY_ORDER_RANGE = (0.9, 1.1)
WOMERSLEY_TOL = 4e-3            # relative L2 error at 1,200 steps
WAVE_SPEED_TOL = 0.05           # relative to long_wave_speed


def report(num, description, value, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description} "
          f"({value})")
    assert ok, f"criterion {num} failed: {description} ({value})"


def desk_overrides(**kw):
    base = {
        "geometry": {"radius": 0.5, "length": 6.0},
        "fluid": {"density": 1.0, "viscosity": 0.035},
        "wall": {"youngs_modulus": 7.5e5, "poisson_ratio": 0.5,
                 "thickness": 0.1, "density": 1.1,
                 "viscous_modulus": 1000.0, "viscous_poisson": 0.5},
        "mesh": {"n_z": 64, "n_r": 16, "wall_elements": 64},
        "time": {"t_final": 0.012, "n_steps": 200},
        "waveform": {"inlet": {"kind": "constant", "value": 0.0},
                     "outlet": {"kind": "constant", "value": 0.0}},
        "output": {"cadence": 50},
    }
    base.update(kw)
    return validate_config(base)


def pulse_cfg(ledger="csv"):
    """``configs/pulse.json`` stored at cadence 5, for the wave-speed fit;
    the cadence changes what is stored, not the trajectory or ledger."""
    cfg = load_config(os.path.join(CONFIG_DIR, "pulse.json"))
    return {**cfg, "output": {**cfg["output"], "cadence": 5,
                              "ledger": ledger}}


@pytest.fixture(scope="session")
def pulse_run():
    result = driver.run(pulse_cfg())
    assert result.status == driver.STATUS_COMPLETED
    return result


@pytest.fixture(scope="session")
def elastic_pulse_run():
    result = driver.run(load_config(os.path.join(CONFIG_DIR,
                                                 "pulse_elastic.json")))
    assert result.status == driver.STATUS_COMPLETED
    return result


@pytest.fixture(scope="session")
def zero_forcing_runs():
    init = {"kind": "bump", "eta_amplitude": 0.02, "v_amplitude": 2.0}
    visco = driver.run(desk_overrides(initial_data=init))
    elastic_wall = {"youngs_modulus": 7.5e5, "poisson_ratio": 0.5,
                    "thickness": 0.1, "density": 1.1,
                    "viscous_modulus": 0.0, "viscous_poisson": 0.0}
    elastic = driver.run(desk_overrides(initial_data=init, mode="elastic",
                                        wall=elastic_wall))
    assert visco.status == elastic.status == driver.STATUS_COMPLETED
    return visco, elastic


@pytest.fixture(scope="session")
def convergence_report():
    cfg = load_config(os.path.join(CONFIG_DIR, "convergence_pulse.json"))
    return driver.self_convergence_study(cfg, [25, 50, 100, 200], 1600)


def _max_relative(ledger, column):
    scale = ledger.energy_scale()
    return float(ledger.column(column).max() / scale)


def test_criterion_01_structure_energy_equality(pulse_run):
    worst = _max_relative(pulse_run.ledger, "wall_step_residual")
    report(1, "wall half-step energy equality residual <= 1e-10 "
              "at every step", f"max {worst:.3e}", worst <= TOL_STRUCT)


def test_criterion_02_fluid_energy_balance_and_slack(pulse_run):
    worst = _max_relative(pulse_run.ledger, "balance_residual")
    rep = verify_run(pulse_run.ledger)
    slack = [c for c in rep.checks if "slack" in c.name][0]
    ok = worst <= TOL_FLUID and slack.value >= -TOL_SLACK
    report(2, "fluid-step balance residual <= 1e-8 and inequality slack "
              ">= -1e-10", f"max residual {worst:.3e}, min slack "
              f"{slack.value:.3e} with C_impl {rep.c_impl:.3e}", ok)


def test_criterion_03_zero_forcing_monotonicity(zero_forcing_runs):
    details = []
    ok = True
    for label, run in zip(("viscoelastic", "elastic"), zero_forcing_runs):
        led = run.ledger
        scale = led.energy_scale()
        chain = np.empty(2 * len(led) + 1)
        chain[0] = led.header["e0"]
        chain[1::2] = led.column("e_half")
        chain[2::2] = led.column("e_full")
        violations = int(np.sum(np.diff(chain) > 1e-12 * scale))
        details.append(f"{label}: {violations} violations / {len(led)} steps")
        ok = ok and violations == 0 and len(led) == 200
    report(3, "energy nonincreasing under zero forcing, both wall models",
           "; ".join(details), ok)


def test_criterion_04_telescoped_identity(pulse_run):
    rep = verify_run(pulse_run.ledger)
    tele = [c for c in rep.checks if "telescoped" in c.name][0]
    report(4, "telescoped energy identity within 1e-8 relative",
           f"defect {tele.value:.3e}", tele.passed
           and tele.value <= TOL_TELESCOPED)


def test_criterion_05_advection_skew_symmetry(pulse_run):
    led = pulse_run.ledger
    rel = led.column("advection_skew") / np.maximum(
        led.column("advection_scale"), 1e-30)
    worst = float(rel.max())
    report(5, "every step's flow data skew-symmetric but for its two "
              "masses to 1e-13",
           f"max {worst:.3e}", worst <= TOL_ENTRYWISE)


def test_criterion_06_geometry_update_identity(pulse_run):
    led = pulse_run.ledger
    rel = led.column("mass_update_residual") / np.maximum(
        led.column("mass_update_scale"), 1e-30)
    worst = float(rel.max())
    report(6, "weight(old) + dt * v_half = weight(new) at every quadrature "
              "point to 1e-13 every step", f"max {worst:.3e}", worst <= TOL_ENTRYWISE)


def test_criterion_07_assembly_oracles():
    worst = 0.0
    for n_z, n_r, flat, seed in [(1, 1, True, 0), (2, 2, False, 1),
                                 (4, 1, False, 2)]:
        fm = fluid.FluidMesh(n_z, n_r, 1.0)
        sm = fm.wall
        rng = np.random.default_rng(seed)
        eta = (sm.zero_free() if flat or sm.n_free == 0
               else 0.05 * rng.standard_normal(sm.n_free))
        radius = 0.8
        snap = ale.build_snapshot(fm, eta, radius)
        oracle = DenseFluidOracle(n_z, n_r, 1.0)
        eta_full = sm.to_full(eta)
        u = rng.standard_normal(2 * fm.n_velocity_nodes)
        v_half = (sm.zero_free() if sm.n_free == 0
                  else rng.standard_normal(sm.n_free))
        v_half_q = fluid.shell_field_at_quad(fm, v_half)

        def rel(ours, ref):
            return np.abs(ours - ref).max() / max(np.abs(ref).max(), 1e-30)

        pairs = [
            (two_component(fluid.assemble_weighted_mass(fm, snap)).toarray(),
             oracle.mass(sm.nodes, eta_full, radius)),
            (assemble_viscous(fm, snap, 0.035).toarray(),
             oracle.viscous(sm.nodes, eta_full, radius, 0.035)),
            (two_component(assemble_advection(fm, snap, u, v_half_q,
                                              1.0)).toarray(),
             oracle.advection(sm.nodes, eta_full, radius, u,
                              sm.to_full(v_half), 1.0)),
            (two_component(assemble_robin_mass(fm, v_half_q)).toarray(),
             oracle.robin(sm.nodes, sm.to_full(v_half))),
            (assemble_divergence(fm, snap).toarray(),
             oracle.divergence(sm.nodes, eta_full, radius)),
        ]
        worst = max(worst, max(rel(a, b) for a, b in pairs))
        from oracles import shell_gram_dense
        from wallflow.materials import ShellCoefficients
        if sm.n_free:
            coeffs = ShellCoefficients(C0=2.0, C1=0.5, C2=1.5, D0=0.1,
                                       D1=0.2, D2=0.3, rho_s_h=0.11)
            worst = max(worst, rel(
                shell.assemble_grams(sm)[0].toarray(),
                shell_gram_dense(sm.nodes, 0)))
            worst = max(worst, rel(
                shell.combine_grams(shell.assemble_grams(sm), (
                    coeffs.C0, coeffs.C1, coeffs.C2)).toarray(),
                2.0 * shell_gram_dense(sm.nodes, 0)
                + 0.5 * shell_gram_dense(sm.nodes, 1)
                + 1.5 * shell_gram_dense(sm.nodes, 2)))
            worst = max(worst, rel(
                shell.combine_grams(shell.assemble_grams(sm), (
                    coeffs.D0, coeffs.D1, coeffs.D2)).toarray(),
                0.1 * shell_gram_dense(sm.nodes, 0)
                + 0.2 * shell_gram_dense(sm.nodes, 1)
                + 0.3 * shell_gram_dense(sm.nodes, 2)))
    report(7, "all assembled operators match dense oracles on 1- and "
              "4-cell meshes to 1e-12", f"max {worst:.3e}",
           worst <= TOL_ORACLE)


def test_criterion_08_poiseuille_regression():
    cfg = load_config(os.path.join(CONFIG_DIR, "poiseuille_rigid.json"))
    err, info = driver.poiseuille_profile_error(cfg)
    report(8, "rigid-wall steady profile within 2% of the parabolic "
              "solution on the 64x16 mesh",
           f"L2 relative error {err:.3e} after {info['steps']} steps",
           err <= POISEUILLE_TOL)


def test_criterion_09_temporal_self_convergence(convergence_report):
    rep = convergence_report
    lo, hi = ORDER_RANGE
    ok = all(lo <= rep.orders[f] <= hi for f in ("eta", "u"))
    report(9, "observed temporal order of eta(T) and u(T) in [0.8, 1.3]",
           f"eta {rep.orders['eta']:.3f}, u {rep.orders['u']:.3f}", ok)


def test_criterion_10_v_vstar_gap_decay(convergence_report):
    rep = convergence_report
    report(10, "wall-velocity predictor gap decays with order >= 0.45",
           f"fitted order {rep.gap_order:.3f}",
           rep.gap_order >= GAP_ORDER_MIN)


def test_elastic_wall_temporal_self_convergence():
    # the ladder of criteria 9 and 10 under the same gates with an elastic
    # wall, the other wall model the paper's existence proof covers
    with open(os.path.join(CONFIG_DIR, "convergence_pulse.json")) as f:
        raw = json.load(f)
    raw["mode"] = "elastic"
    raw["wall"].update(viscous_modulus=0.0, viscous_poisson=0.0)
    rep = driver.self_convergence_study(validate_config(raw),
                                        [25, 50, 100, 200], 1600)
    lo, hi = ORDER_RANGE
    orders = {f: rep.orders[f] for f in ("eta", "u", "v")}
    assert all(lo <= order <= hi for order in orders.values()), orders
    assert rep.gap_order >= GAP_ORDER_MIN, rep.gap_order


def test_criterion_11_wall_contact_halting(tmp_path, monkeypatch, capsys):
    from wallflow.cli import main
    monkeypatch.chdir(tmp_path)   # the scenario writes a relative out dir
    cfg_path = os.path.abspath(os.path.join(CONFIG_DIR,
                                            "contact_suction.json"))
    code = main(["run", cfg_path])
    out = capsys.readouterr().out
    result = driver.run(load_config(cfg_path))
    finite = all(np.all(np.isfinite(a))
                 for arrays in (result.record.us, result.record.ps,
                                result.record.etas)
                 for a in arrays)
    ok = (code == 2 and "wall contact at t" in out
          and result.contact is not None and finite)
    t, z = result.contact
    with capsys.disabled():
        report(11, "suction scenario exits with code 2 and a finite "
                   "partial trajectory",
               f"exit {code}, contact at t={t:.4g}, z={z:.4g}", ok)


def test_criterion_12_elastic_parity(elastic_pulse_run, zero_forcing_runs):
    led = elastic_pulse_run.ledger
    scale = led.energy_scale()
    rep = verify_run(led)
    slack = [c for c in rep.checks if "slack" in c.name][0]
    tele = [c for c in rep.checks if "telescoped" in c.name][0]
    checks = {
        "wall equality": float(led.column("wall_step_residual").max() / scale) <= TOL_STRUCT,
        "balance": float(led.column("balance_residual").max() / scale)
        <= TOL_FLUID,
        "slack": slack.value >= -TOL_SLACK,
        "telescoped": tele.value <= TOL_TELESCOPED,
        "skew": float((led.column("advection_skew")
                       / np.maximum(led.column("advection_scale"), 1e-30)
                       ).max()) <= TOL_ENTRYWISE,
        "geometry": float((led.column("mass_update_residual")
                           / np.maximum(led.column("mass_update_scale"),
                                        1e-30)).max()) <= TOL_ENTRYWISE,
        "fluid-only dissipation": bool(np.all(led.column("d_shell") == 0.0)),
        "monotone": verify_run(zero_forcing_runs[1].ledger).ok,
    }
    failed = [k for k, v in checks.items() if not v]
    report(12, "elastic wall passes criteria 1-6 with fluid-only "
               "dissipation ledger",
           "all sub-checks pass" if not failed else f"failed: {failed}",
           not failed)


@pytest.mark.parametrize("run", ["pulse_run", "elastic_pulse_run"])
def test_each_row_starts_from_the_energy_the_last_one_ended_on(run, request):
    # the same fields on the same wall profile: e_n of a row is e0 or the
    # previous row's e_full, bit for bit
    ledger = request.getfixturevalue(run).ledger
    assert len(ledger) == 200
    assert ledger.rows[0]["e_n"] == ledger.header["e0"]
    assert np.array_equal(ledger.column("e_n")[1:],
                          ledger.column("e_full")[:-1])


# -- closed forms: checks the energy identities cannot make, as a scheme
# with a wrong coefficient still balances exactly; each has a mutation of
# that coefficient that must fail it


def womersley_errors():
    """Relative L2 errors (``driver._column_l2_sq``) of the mid-channel
    profile of a rigid channel at t = 3 against planar Womersley flow, at
    each of :data:`WOMERSLEY_STEPS`: R 0.5, L 5, rho 1, mu 1, an 8x4 mesh,
    inlet pressure sin(4 pi t) (Womersley number 1.77) and outlet 0.  The
    start-up transient decays like exp(-pi^2 mu t / (4 rho R^2)), below
    1e-13 by t = 3."""
    errors = []
    for n_steps in WOMERSLEY_STEPS:
        cfg = validate_config({
            "geometry": {"radius": 0.5, "length": 5.0},
            "fluid": {"density": 1.0, "viscosity": 1.0},
            "wall": {"youngs_modulus": 7.5e5, "poisson_ratio": 0.5,
                     "thickness": 0.1, "density": 1.1},
            "mesh": {"n_z": 8, "n_r": 4, "wall_elements": 8},
            "time": {"t_final": 3.0, "n_steps": n_steps},
            "mode": "rigid",
            "waveform": {"inlet": {"kind": "sine", "amplitude": 1.0,
                                   "frequency": 2.0},
                         "outlet": {"kind": "constant", "value": 0.0}},
            "output": {"ledger": "none"}})
        res = driver.run(cfg)
        assert res.steps == n_steps
        fm, u = res.setup.fluid_mesh, res.record.us[-1]
        profile = u[:fm.n_velocity_nodes].reshape(fm.n_rows,
                                                  fm.n_cols)[:, fm.n_z]
        exact = womersley_velocity(0.5 * fm.velocity_r, res.record.times[-1],
                                   1.0, 4.0 * np.pi, 1.0, 1.0, 5.0, 0.5)
        errors.append(np.sqrt(driver._column_l2_sq(profile - exact, fm.hr)
                              / driver._column_l2_sq(exact, fm.hr)))
    return np.array(errors)


def womersley_passes(errors):
    """First order in time between each pair of rungs, and an error below
    :data:`WOMERSLEY_TOL` on the finest."""
    lo, hi = WOMERSLEY_ORDER_RANGE
    orders = np.log2(errors[:-1] / errors[1:])
    return bool(np.all((lo <= orders) & (orders <= hi))
                and errors[-1] < WOMERSLEY_TOL)


def peak_speed(result):
    """Slope of the least-squares line through the wall displacement's
    peak position against time, over the snapshots at t >= 6.3 ms, once
    the peak has run clear of the inlet, where the pulse that raised it
    ended at 5 ms.  The peak is taken on 6,001 points along the wall."""
    sm = result.setup.shell_mesh
    z = np.linspace(0.0, sm.length, 6001)
    sampler = sm.sampler(z)
    times = np.array(result.record.times)
    late = np.flatnonzero(times >= 6.3e-3)
    peaks = [z[np.argmax(sampler @ result.record.etas[i])] for i in late]
    return np.polyfit(times[late], peaks, 1)[0]


def wave_speed_passes(result):
    return abs(peak_speed(result) / long_wave_speed(result.setup.cfg)
               - 1.0) <= WAVE_SPEED_TOL


def test_the_rigid_step_converges_to_womersley_flow():
    errors = womersley_errors()
    assert womersley_passes(errors), errors


def test_the_womersley_check_fails_a_viscous_form_scaled_by_1_1(monkeypatch):
    # the error stops halving: it tends to the gap between the flows at
    # mu and 1.1 mu, 7.6e-2 at 1,200 steps
    original = fluid.assemble_viscous_blocks
    monkeypatch.setattr(
        fluid, "assemble_viscous_blocks",
        lambda mesh, snapshot, mu, out=None: original(mesh, snapshot,
                                                      1.1 * mu, out=out))
    errors = womersley_errors()
    assert not womersley_passes(errors), errors


def test_the_pressure_pulse_runs_at_the_long_wave_speed(pulse_run):
    assert wave_speed_passes(pulse_run), peak_speed(pulse_run)


def test_the_wave_speed_check_fails_a_halved_c0(monkeypatch):
    # the long-wave speed of the mutated wall is 317 cm/s, against the
    # 448 cm/s of the configured one; its peak runs at 359 cm/s
    original = driver.derive_coefficients
    monkeypatch.setattr(driver, "derive_coefficients",
                        lambda cfg: dataclasses.replace(
                            original(cfg), C0=0.5 * original(cfg).C0))
    result = driver.run(pulse_cfg(ledger="none"))
    assert result.status == driver.STATUS_COMPLETED
    assert not wave_speed_passes(result), peak_speed(result)
