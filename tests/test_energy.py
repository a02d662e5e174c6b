import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from wallflow import ale, coupling, driver, fluid, shell
from wallflow.config import validate_config
from wallflow.energy import (LEDGER_COLUMNS, EnergyLedger, EnergyMonitor,
                             discrete_trace_constant, load_ledger, verify_run)
from wallflow.sparsela import DirectFactor, ReusedFactorSolver

from oracles import (assemble_viscous, ledger_header, total_energy,
                     zero_shell_state)


def monitor_config(n_z=4, n_r=2, length=2.0, n_steps=1, **overrides):
    """A configuration with dt = 1e-3 and no pressure data unless
    ``overrides`` give them."""
    return validate_config({
        "geometry": {"radius": 0.5, "length": length},
        "fluid": {"density": 1.0, "viscosity": 0.05},
        "wall": {"youngs_modulus": 1.0e5, "poisson_ratio": 0.5,
                 "thickness": 0.1, "density": 1.1, "viscous_modulus": 100.0,
                 "viscous_poisson": 0.5},
        "mesh": {"n_z": n_z, "n_r": n_r, "wall_elements": n_z},
        "time": {"t_final": n_steps * 1e-3, "n_steps": n_steps},
        "waveform": {"inlet": {"kind": "constant", "value": 0.0},
                     "outlet": {"kind": "constant", "value": 0.0}},
        **overrides})


def build_monitor(n_z=4, n_r=2, length=2.0):
    cs = driver.RunSetup(monitor_config(n_z, n_r, length))
    return (cs.coeffs, cs.shell_mesh, cs.fluid_mesh, cs,
            EnergyMonitor(cs), cs.dt)


def one_step(coeffs, sm, fm, cs, dt, p_in=300.0, p_out=0.0,
             seed=0):
    """The arguments of the monitor's ``start`` and of its ``record_step``
    for one step from random wall data."""
    rng = np.random.default_rng(seed)
    eta = 0.01 * rng.standard_normal(sm.n_free)
    v = 0.01 * rng.standard_normal(sm.n_free)
    state = shell.ShellState(eta=eta, v=v, v_star=v.copy())
    u = np.zeros(2 * fm.n_velocity_nodes)
    vn = sm.evaluate(v, fm.velocity_z)
    u[fm.n_velocity_nodes:] = np.outer(fm.velocity_r, vn).ravel()
    half = shell.structure_step(cs, state)
    old = coupling.build_frame(cs, state.eta)
    new = coupling.build_frame(cs, half.eta)
    mass_u = fluid.componentwise(old.mass, u)
    res = coupling.fluid_step(cs, old, new, u, half, p_in, p_out,
                              ReusedFactorSolver(coupling.FLUID_TOL), mass_u)
    return (state, u, mass_u, old), (state, u, half, res, old, new, p_in,
                                     p_out)


def run_one_step(coeffs, sm, fm, cs, monitor, dt, **kwargs):
    first, args = one_step(coeffs, sm, fm, cs, dt, **kwargs)
    monitor.start(*first)
    return monitor.record_step(*args)


def test_zero_states_record_all_zeros():
    coeffs, sm, fm, cs, monitor, dt = build_monitor()
    state = zero_shell_state(sm)
    u = np.zeros(2 * fm.n_velocity_nodes)
    half = shell.structure_step(cs, state)
    frame = coupling.build_frame(cs, state.eta)
    mass_u = fluid.componentwise(frame.mass, u)
    res = coupling.fluid_step(cs, frame, frame, u, half, 0.0, 0.0,
                              ReusedFactorSolver(coupling.FLUID_TOL), mass_u)
    monitor.start(state, u, mass_u, frame)
    row = monitor.record_step(state, u, half, res, frame, frame, 0.0, 0.0)
    for key in ("e_n", "e_half", "e_full", "d_fluid", "d_shell", "jump_u",
                "jump_v_a2", "jump_v_a1", "pwork", "wall_step_residual",
                "balance_residual"):
        assert row[key] == 0.0


def test_recorded_identities_hold():
    coeffs, sm, fm, cs, monitor, dt = build_monitor()
    row = run_one_step(coeffs, sm, fm, cs, monitor, dt)
    scale = max(row["e_n"], row["e_half"], row["e_full"])
    assert row["wall_step_residual"] <= 1e-12 * scale
    assert row["balance_residual"] <= 1e-10 * scale
    assert row["jump_u"] >= 0.0 and row["d_fluid"] >= 0.0
    assert row["mass_update_residual"] <= 1e-13 * row["mass_update_scale"]
    assert row["advection_skew"] <= 1e-13 * row["advection_scale"]


def test_the_entrywise_columns_read_the_step_s_own_data():
    # a domain velocity that does not take the start weights to the end
    # ones fails the mass column alone; flow data whose symmetric part is
    # not the two masses fail the skew column alone
    coeffs, sm, fm, cs, monitor, dt = build_monitor()
    first, args = one_step(coeffs, sm, fm, cs, dt)
    monitor.start(*first)
    args = list(args)
    res = args[3]
    row = monitor.record_step(*args)
    for changed, failing in (
            ({"v_half_q": 0.5 * res.v_half_q}, "mass_update"),
            ({"flow": res.flow * (1.0 + 1e-9)}, "advection")):
        args[3] = dataclasses.replace(res, **changed)
        bad = monitor.record_step(*args)
        for column, scale in (("mass_update_residual", "mass_update_scale"),
                              ("advection_skew", "advection_scale")):
            if column.startswith(failing):
                assert bad[column] > 1e-10 * bad[scale]
            else:
                assert bad[column] == row[column]


class CountingMatrix(sp.csr_matrix):
    """A CSR matrix that counts its products with a vector or a stack of
    vectors; ``fluid.componentwise`` makes one per velocity component."""

    def __matmul__(self, other):
        if np.ndim(other) in (1, 2):
            self.products = getattr(self, "products", 0) + 1
        return super().__matmul__(other)


def test_ledger_row_evaluates_each_form_once():
    coeffs, sm, fm, cs, monitor, dt = build_monitor()
    first, args = one_step(coeffs, sm, fm, cs, dt)
    state, u, mass_u, old = first
    _, _, half, res, _, new, _, _ = args
    energies = (
        total_energy(cs, u, mass_u, state.v, state.eta),
        total_energy(cs, u, mass_u, half.v_star, half.eta),
        total_energy(cs, res.u_full, fluid.componentwise(new.mass, res.u_full),
                     res.v_new, half.eta))
    monitor.start(*first)
    counted, counted_new = CountingMatrix(old.mass), CountingMatrix(new.mass)
    cs.grams = tuple(CountingMatrix(g) for g in cs.grams)
    cs.shell_mass = CountingMatrix(cs.shell_mass)
    row = monitor.record_step(*args[:4],
                              dataclasses.replace(old, mass=counted),
                              dataclasses.replace(new, mass=counted_new),
                              *args[6:])
    # jump_u, one componentwise application: one product per component;
    # the kinetic energies at n and n + 1 read the handed products
    assert counted.products == 2
    assert getattr(counted_new, "products", 0) == 0
    # elastic energy at eta_half and the eta jump; the energy at eta_n is
    # the start's, handed on
    assert [g.products for g in cs.grams] == [2, 2, 2]
    # wall kinetic energy at v_half and v_new, and both velocity jumps
    assert cs.shell_mass.products == 4
    assert (row["e_n"], row["e_half"], row["e_full"]) == energies


def test_hand_computed_wall_energy_single_dof():
    # 2-element wall, velocity in the nodal value DOF only, no fluid:
    # assemble the energies from the two element matrices by hand
    coeffs, sm, fm, cs, monitor, dt = build_monitor(n_z=2)
    le = sm.length / 2.0
    me, k1e, k2e = shell.hermite_element_matrices(le)
    m00 = me[2, 2] + me[0, 0]
    g1_00 = k1e[2, 2] + k1e[0, 0]
    g2_00 = k2e[2, 2] + k2e[0, 0]
    assert m00 == pytest.approx(2 * 156.0 * le / 420.0, rel=1e-14)
    eta_val, v_val = 0.3, -0.2
    eta = np.array([eta_val, 0.0])
    v = np.array([v_val, 0.0])
    u = np.zeros(2 * fm.n_velocity_nodes)
    frame = coupling.build_frame(cs, eta)
    monitor.start(shell.ShellState(eta=eta, v=v, v_star=v), u,
                  fluid.componentwise(frame.mass, u), frame)
    e = monitor.ledger.header["e0"]
    expected = 0.5 * (coeffs.rho_s_h * v_val**2 * m00
                      + eta_val**2 * (coeffs.C0 * m00 + coeffs.C1 * g1_00
                                      + coeffs.C2 * g2_00))
    assert e == pytest.approx(expected, rel=1e-13)


def make_ledger(rows=3, inlet=300.0):
    """The ledger of a ``rows``-step run from a moving wall under a constant
    inlet pressure."""
    return driver.run(monitor_config(
        n_steps=rows,
        waveform={"inlet": {"kind": "constant", "value": inlet},
                  "outlet": {"kind": "constant", "value": 0.0}},
        initial_data={"kind": "bump", "eta_amplitude": 0.01,
                      "v_amplitude": 0.01})).ledger


def test_ledger_round_trip_csv_and_jsonl(tmp_path):
    led = make_ledger()
    path = tmp_path / "ledger.csv"
    led.to_csv(path)
    back = load_ledger(path)
    assert back.header == led.header
    assert len(back) == len(led)
    for a, b in zip(back.rows, led.rows):
        for col in LEDGER_COLUMNS:
            assert a[col] == b[col], col


def test_round_trip_preserves_verdict(tmp_path):
    led = make_ledger()
    path = tmp_path / "ledger.csv"
    led.to_csv(path)
    original = verify_run(led)
    reloaded = verify_run(load_ledger(path))
    assert original.ok == reloaded.ok
    for a, b in zip(original.checks, reloaded.checks):
        assert a.name == b.name and a.passed == b.passed and a.value == b.value


def failing_checks(ledger):
    return {c.name: c.detail for c in verify_run(ledger).checks
            if not c.passed}


@pytest.mark.parametrize("column", ["wall_step_residual",
                                    "balance_residual"])
def test_a_forged_residual_fails_the_stored_residual_check(tmp_path, column):
    # the residuals are recomputed from the terms of a loaded ledger bit for
    # bit, so one forged cell fails exactly the check that compares them
    path = tmp_path / "ledger.csv"
    make_ledger().to_csv(path)
    led = load_ledger(path)
    assert verify_run(led).ok
    led.rows[1][column] = 2.0 * led.rows[1][column] + 1.0
    assert failing_checks(led) == {
        "stored residuals match their terms": "first bad row 1"}


def splice(ledger):
    ledger.rows[2:] = make_ledger(inlet=0.0).rows[2:]


def shift_time_column(ledger):
    # each row's t at its step's start, not its end
    for row in ledger.rows:
        row["t"] -= ledger.header["dt"]


@pytest.mark.parametrize("edit, failing", [
    (lambda led: led.rows.pop(1),
     {"energy chain": "first bad row 1",
      "step and time columns": "first bad row 1"}),
    (splice, {"energy chain": "first bad row 2"}),
    (lambda led: led.header.update(e0=2.0 * led.header["e0"]),
     {"energy chain": "first bad row 0"}),
    (shift_time_column, {"step and time columns": "first bad row 0"}),
], ids=["dropped-row", "spliced-runs", "other-e0", "shifted-t"])
def test_verify_checks_the_energy_chain_and_the_step_columns(edit, failing):
    # of the exact checks, each edit fails those it breaks, naming its first
    # bad row; the energy identities it breaks are tested elsewhere
    exact = {"stored residuals match their terms", "energy chain",
             "step and time columns"}
    led = make_ledger()
    assert verify_run(led).ok
    edit(led)
    assert {name: detail for name, detail in failing_checks(led).items()
            if name in exact} == failing


def test_corrupted_energy_breaks_telescoped_check():
    led = make_ledger()
    assert verify_run(led).ok
    led.rows[-1]["e_full"] *= 1.5
    report = verify_run(led)
    tele = [c for c in report.checks if "telescoped" in c.name][0]
    assert not tele.passed


def test_verify_flags_monotonicity_violation():
    led = make_ledger()
    for row in led.rows:
        row["p_in"] = 0.0
        row["p_out"] = 0.0
    led.rows[1]["e_full"] = led.rows[1]["e_half"] * 10.0 + 1.0
    report = verify_run(led)
    mono = [c for c in report.checks if "monotonicity" in c.name][0]
    assert not mono.passed


def test_empty_ledger_verifies_trivially():
    led = EnergyLedger(ledger_header(rho_s_h=0.1, dt=1.0, e0=0.0))
    report = verify_run(led)
    assert report.ok


def test_trace_constant_bounds_the_flux_functional(monkeypatch):
    coeffs, sm, fm, cs, monitor, dt = build_monitor()
    snap = ale.build_snapshot(fm, sm.zero_free(), cs.radius)
    p = cs.prolongation
    k_red = p.T @ assemble_viscous(fm, snap, 0.05) @ p
    ell_in = p.T @ fluid.assemble_pressure_forcing(fm, 1.0, 0.0, 1.0)
    ell_out = p.T @ -fluid.assemble_pressure_forcing(fm, 0.0, 1.0, 1.0)
    factored = []
    original = DirectFactor.__init__

    def counting_init(self, *args, **kwargs):
        factored.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(DirectFactor, "__init__", counting_init)
    c = discrete_trace_constant(k_red, ell_in, ell_out, cs.radius)
    assert c > 0.0
    assert len(factored) == 1    # both right-hand sides share one factor
    # the defining inequality at random discrete fields
    rng = np.random.default_rng(9)
    for _ in range(5):
        x = rng.standard_normal(k_red.shape[0])
        work = cs.radius * (ell_in @ x)   # P_in = 1, P_out = 0
        spare = 0.5 * float(x @ (k_red @ x))
        assert work <= spare + c + 1e-9 * max(1.0, abs(work))
