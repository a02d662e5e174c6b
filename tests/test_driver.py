import dataclasses
import json
import os

import numpy as np
import pytest

from wallflow import (ale, coupling, driver, energy, exporters, fluid, shell,
                      sparsela)
from wallflow.cli import main
from wallflow.config import load_config, validate_config
from wallflow.energy import verify_run
from wallflow.errors import ConfigError, SolverError, ValidationError

from oracles import (assemble_advection, linear_interpolant, state_at,
                     transport_blocks)

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def small_raw(**overrides):
    raw = {
        "geometry": {"radius": 0.5, "length": 6.0},
        "fluid": {"density": 1.0, "viscosity": 0.035},
        "wall": {"youngs_modulus": 7.5e5, "poisson_ratio": 0.5,
                 "thickness": 0.1, "density": 1.1,
                 "viscous_modulus": 1000.0, "viscous_poisson": 0.5},
        "mesh": {"n_z": 8, "n_r": 4, "wall_elements": 8},
        "time": {"t_final": 0.002, "n_steps": 10},
        "waveform": {"inlet": {"kind": "pulse", "amplitude": 1.0e4,
                               "duration": 0.002},
                     "outlet": {"kind": "constant", "value": 0.0}},
        "output": {"cadence": 1},
    }
    for key, val in overrides.items():
        raw[key] = val
    return raw


def small_cfg(**overrides):
    return validate_config(small_raw(**overrides))


def test_the_wall_mesh_is_the_fluid_mesh_s_top_edge():
    # one Hermite element per cell column, its nodes the vertex columns bit
    # for bit, also at a length that hz * n_z misses by an ulp; a run's
    # wall mesh is that same object
    setup = driver.RunSetup(small_cfg())
    for fm in (fluid.FluidMesh(5, 2, 0.19016851592596093), setup.fluid_mesh):
        assert fm.wall.n_elements == fm.n_z
        assert np.array_equal(fm.wall.nodes, fm.velocity_z[::2])
    assert setup.shell_mesh is setup.fluid_mesh.wall


def test_zero_run_is_identically_zero():
    cfg = small_cfg(waveform={"inlet": {"kind": "constant", "value": 0.0},
                              "outlet": {"kind": "constant", "value": 0.0}})
    res = driver.run(cfg)
    assert res.status == driver.STATUS_COMPLETED
    assert res.exit_code == 0
    for u in res.record.us:
        assert np.all(u == 0.0)
    for eta in res.record.etas:
        assert np.all(eta == 0.0)
    assert all(row["e_full"] == 0.0 for row in res.ledger.rows)
    assert res.ledger.v_vstar_gap() == 0.0
    assert verify_run(res.ledger).ok


def smoke_with_inlet(value):
    """``configs/smoke_zero.json`` cut to 3 steps of its own ``dt``, with a
    constant inlet pressure ``value``."""
    with open(os.path.join(CONFIG_DIR, "smoke_zero.json")) as f:
        raw = json.load(f)
    dt = raw["time"]["t_final"] / raw["time"]["n_steps"]
    raw["time"] = {"t_final": 3 * dt, "n_steps": 3}
    raw["waveform"]["inlet"] = {"kind": "constant", "value": value}
    return validate_config(raw)


@pytest.mark.parametrize("value", [1e-160, 1e-300])
def test_a_tiny_inlet_pressure_drives_a_proportional_flow(value):
    # every right-hand side lies far below 1e-154, where np.linalg.norm
    # underflows: 1e-160 used to miss the solve contract at step 0, and
    # 1e-300 to solve to all-zero fields
    res = driver.run(smoke_with_inlet(value))
    assert res.exit_code == 0
    assert verify_run(res.ledger).ok
    ref = driver.run(smoke_with_inlet(1e-10))
    for ours, theirs in ((res.record.us[-1], ref.record.us[-1]),
                         (res.record.ps[-1], ref.record.ps[-1])):
        assert np.abs(ours).max() > 0.0
        # far from contact the flow is linear in the pressure data
        ours, theirs = ours / value, theirs / 1e-10
        assert (np.linalg.norm(ours - theirs)
                <= 1e-6 * np.linalg.norm(theirs))


def test_pulse_run_passes_verification_and_threads_state():
    cfg = small_cfg()
    res = driver.run(cfg)
    assert res.status == driver.STATUS_COMPLETED
    assert verify_run(res.ledger).ok
    dt = cfg["time"]["t_final"] / cfg["time"]["n_steps"]
    times = np.array(res.record.times)
    assert np.allclose(times / dt, np.round(times / dt), atol=1e-12)
    # displacement update: eta_{n+1} = eta_n + dt * v_half (cadence 1)
    for k in range(1, len(res.record.times)):
        lhs = res.record.etas[k]
        rhs = res.record.etas[k - 1] + dt * res.record.v_stars[k]
        assert np.abs(lhs - rhs).max() <= 1e-13 * max(np.abs(lhs).max(), 1e-30)


def test_replay_is_bitwise_reproducible():
    cfg = small_cfg()
    a = driver.run(cfg)
    b = driver.run(small_cfg())
    assert np.array_equal(a.record.us[-1], b.record.us[-1])
    assert np.array_equal(a.record.etas[-1], b.record.etas[-1])
    assert np.array_equal(a.record.ps[-1], b.record.ps[-1])
    for ra, rb in zip(a.ledger.rows, b.ledger.rows):
        assert ra == rb


def test_fully_clamped_wall_run_completes_and_verifies():
    # one wall element: all four wall DOFs are clamped, so the wall has no
    # free unknowns, the Gram matrices are empty and the wall half step
    # has nothing to solve
    cfg = small_cfg(mesh={"n_z": 1, "n_r": 1, "wall_elements": 1})
    res = driver.run(cfg)
    assert res.status == driver.STATUS_COMPLETED
    assert res.setup.shell_mass.shape == (0, 0)
    assert res.record.etas[-1].size == 0
    assert res.record.vs[-1].size == 0
    assert len(res.ledger) == cfg["time"]["n_steps"]
    assert verify_run(res.ledger).ok


def factored_in_steps(monkeypatch):
    """Wrap ``DirectFactor.__init__`` to record, for each LU formed, its
    unknowns and the wall half steps begun by then; returns that list and
    the list of half steps."""
    half_steps = count_calls(monkeypatch, shell, "structure_step")
    formed = []
    original = sparsela.DirectFactor.__init__

    def recording(self, a):
        formed.append((a.shape[0], len(half_steps)))
        original(self, a)

    monkeypatch.setattr(sparsela.DirectFactor, "__init__", recording)
    return formed, half_steps


def test_a_wall_at_rest_forms_no_lu(monkeypatch):
    # a constant system is factored by its first nonzero load: a rigid
    # wall's half step loads zeros at every step, so a rigid run forms the
    # fluid system's LU alone, in step 1; a moving wall from zero data
    # loads zeros in step 1 and forms its LU in step 2, after the trace
    # constant's (before step 1) and the fluid system's (in step 1)
    formed, half_steps = factored_in_steps(monkeypatch)
    rigid = driver.run(rigid_cfg(n_steps=5))
    n = rigid.setup.prolongation.shape[1]
    assert rigid.steps == 5
    assert formed == [(n + rigid.setup.fluid_mesh.n_pressure_nodes, 1)]
    formed.clear()
    half_steps.clear()
    res = driver.run(small_cfg())
    assert res.status == driver.STATUS_COMPLETED
    assert wall_moves(res) == [False] + [True] * 9
    setup = res.setup
    n = setup.prolongation.shape[1]
    assert formed == [(n, 0), (n + setup.fluid_mesh.n_pressure_nodes, 1),
                      (setup.shell_mesh.n_free, 2)]


@pytest.mark.parametrize("n_cells", [1, 4, 16])
def test_column_norm_is_exact_on_quadratics(n_cells):
    # 1 - r^2 is quadratic on every cell: its squared L2 norm on (0, 1)
    # is 1 - 2/3 + 1/5 = 8/15 at any resolution
    r = np.linspace(0.0, 1.0, 2 * n_cells + 1)
    norm_sq = driver._column_l2_sq(1.0 - r**2, 1.0 / n_cells)
    assert abs(norm_sq - 8.0 / 15.0) <= 1e-15


def test_zero_forcing_energy_never_increases():
    cfg = small_cfg(
        waveform={"inlet": {"kind": "constant", "value": 0.0},
                  "outlet": {"kind": "constant", "value": 0.0}},
        initial_data={"kind": "bump", "eta_amplitude": 0.02,
                      "v_amplitude": 2.0},
        time={"t_final": 0.004, "n_steps": 40},
    )
    res = driver.run(cfg)
    rep = verify_run(res.ledger)
    assert rep.ok
    mono = [c for c in rep.checks if "monotonicity" in c.name]
    assert mono and mono[0].passed


def test_fluid_step_geometry_is_the_start_of_step_wall(monkeypatch, tmp_path,
                                                      capsys):
    # step 0 runs on the snapshot of the initial eta, every later step on
    # the snapshot of the eta the previous step's wall half step produced,
    # and reads the end-of-step mass of the eta its own half step produced
    calls = []
    original = coupling.fluid_step

    def recording(setup, frame, end, u_prev, shell_half, *args):
        calls.append((frame.snapshot, end.mass, shell_half.eta.copy()))
        return original(setup, frame, end, u_prev, shell_half, *args)

    monkeypatch.setattr(coupling, "fluid_step", recording)
    res = driver.run(small_cfg(
        initial_data={"kind": "bump", "eta_amplitude": 0.02,
                      "v_amplitude": 2.0},
        time={"t_final": 0.001, "n_steps": 5}))
    assert res.status == driver.STATUS_COMPLETED and len(calls) == 5
    setup = res.setup
    sm, fm = setup.shell_mesh, setup.fluid_mesh
    sources = [setup.initial_data()[0]]
    sources += [eta for *_, eta in calls[:-1]]
    for (snap, mass_new, eta_half), eta in zip(calls, sources):
        probe = ale.build_snapshot(fm, eta, setup.radius)
        # the wall profile and its slope at the quadrature points fix these
        for name in ("jac_q", "slope", "w"):
            assert np.array_equal(getattr(snap, name), getattr(probe, name))
        ahead = ale.build_snapshot(fm, eta_half, setup.radius)
        assert not np.array_equal(snap.jac_q, ahead.jac_q)
        assert np.array_equal(mass_new.data, fluid.assemble_weighted_mass(
            fm, ahead).data)
    # the retired audit key is now an unknown key
    path = tmp_path / "audit.json"
    path.write_text(json.dumps(small_raw(debug_audit=True)))
    assert main(["run", str(path)]) == 1
    assert "debug_audit" in capsys.readouterr().err


def test_reuse_policy_matches_a_fresh_factor_every_step(monkeypatch):
    reuse = driver.run(small_cfg())
    assert reuse.solver.reused_solves > 0
    assert reuse.solver.factorizations < len(reuse.ledger)

    original = sparsela.ReusedFactorSolver.solve

    def forgetful(self, a, b):
        self._factor = None          # drop the held factor: refactor
        return original(self, a, b)

    monkeypatch.setattr(sparsela.ReusedFactorSolver, "solve", forgetful)
    fresh = driver.run(small_cfg())
    assert fresh.solver.factorizations == len(fresh.ledger) == 10
    assert fresh.solver.reused_solves == 0
    for res in (reuse, fresh):
        assert res.status == driver.STATUS_COMPLETED
        assert verify_run(res.ledger).ok
    for key in ("us", "vs", "etas", "ps"):
        end_reuse, end_fresh = (getattr(res.record, key)[-1]
                                for res in (reuse, fresh))
        scale = max(np.abs(end_fresh).max(), 1e-30)
        assert np.abs(end_reuse - end_fresh).max() <= 1e-8 * scale


def test_pulse_prefix_applies_the_lu_once_per_gmres_iteration(monkeypatch):
    # the first 20 steps of configs/pulse.json, at its dt: one fluid
    # factorization, and no LU application beyond the GMRES iterations of
    # the fluid, wall and trace-constant solves (none forms an update)
    cfg = load_config(os.path.join(CONFIG_DIR, "pulse.json"))
    cfg["time"]["t_final"] *= 20 / cfg["time"]["n_steps"]
    cfg["time"]["n_steps"] = 20
    iterations = []
    original = sparsela.krylov_solve

    def counted(a, b, factor, tol, callback=None, **kwargs):
        def each(estimate):
            iterations.append(estimate)
            if callback is not None:
                callback(estimate)
        return original(a, b, factor, tol, each, **kwargs)

    monkeypatch.setattr(sparsela, "krylov_solve", counted)
    applied = count_calls(monkeypatch, sparsela.DirectFactor, "apply")
    res = driver.run(cfg)
    assert res.status == driver.STATUS_COMPLETED and len(res.ledger) == 20
    assert res.solver.factorizations == 1
    assert res.solver.reused_solves == 19
    assert len(applied) == len(iterations) > 0


def test_a_miss_refactors_and_meets_the_contract():
    # an elastic wall under strong suction on a 3x3 mesh: at step 2 GMRES
    # misses with the step-1 factor, and GMRES with the fresh factor meets
    # FLUID_TOL from the same start
    res = driver.run(validate_config(small_raw(
        geometry={"radius": 2.0, "length": 4.18},
        fluid={"density": 0.95, "viscosity": 0.0107},
        wall={"youngs_modulus": 1e6, "poisson_ratio": 0.23,
              "thickness": 0.25, "density": 0.237},
        mesh={"n_z": 3, "n_r": 3, "wall_elements": 3},
        time={"t_final": 2.0, "n_steps": 2}, mode="elastic",
        waveform={"inlet": {"kind": "constant", "value": -3731.0},
                  "outlet": {"kind": "constant", "value": -1e4}},
        initial_data={"kind": "bump", "eta_amplitude": -0.445,
                      "v_amplitude": 7.94})))
    assert res.status == driver.STATUS_COMPLETED, res.failure
    assert res.solver.factorizations == 2 and len(res.ledger) == 2
    assert res.solver.worst_rel_residual <= coupling.FLUID_TOL
    assert verify_run(res.ledger).ok


@pytest.mark.xfail(strict=True, reason=(
    "known defect: FLUID_TOL bounds the solve residual by ||b||, and when "
    "the pressure dwarfs the velocity the pressure times the divergence "
    "rows of that residual moves the fluid-step balance past TOL_BALANCE"))
def test_balance_holds_when_the_pressure_dwarfs_the_velocity():
    # Hypothesis's shrunk example with both pulse amplitudes x10: a valid
    # config whose ledger fails the fluid-step balance and the telescoped
    # identity at 2.97e-8 (1e-8 gate).  The direction of the solve residual
    # decides which draws fail: the unscaled draw (5144/5143) failed at
    # 2.7e-8 before flexible GMRES and passes at 4.9e-9 now, while this one
    # passed at 3.1e-10.
    res = driver.run(validate_config(small_raw(
        geometry={"radius": 2.0, "length": 1.0},
        fluid={"density": 1.0, "viscosity": 1.0},
        wall={"youngs_modulus": 1000.0, "poisson_ratio": 0.0,
              "thickness": 0.25, "density": 0.08},
        mesh={"n_z": 3, "n_r": 1, "wall_elements": 3},
        time={"t_final": 3.0, "n_steps": 3}, mode="elastic",
        waveform={"inlet": {"kind": "pulse", "amplitude": 51440.0,
                            "duration": 6.0},
                  "outlet": {"kind": "pulse", "amplitude": 51430.0,
                             "duration": 6.0}})))
    assert res.status == driver.STATUS_COMPLETED
    assert verify_run(res.ledger).ok


# two pinned draws of the property strategy: draw 302, whose wall half-step
# equality holds (6.2e-13) only with the wall's own LU applied from zero
# (1.1e-10 through a projected start), and draw 2807, a known defect
DRAW_302 = (
    '{"geometry":{"radius":1.504569306503582,"length":6.001690725135016},'
    '"fluid":{"density":1.0,"viscosity":1.0},"wall":{"youngs_modulus":1000.0,'
    '"poisson_ratio":0.20523620936649295,"thickness":0.3443761141559962,'
    '"density":1.9},"mesh":{"n_z":3,"n_r":3,"wall_elements":3},'
    '"time":{"t_final":3.564343531625175e-05,"n_steps":4},"mode":"elastic",'
    '"waveform":{"inlet":{"kind":"constant","value":4958.583059754947},'
    '"outlet":{"kind":"constant","value":0.0}},"initial_data":{"kind":"bump",'
    '"eta_amplitude":-0.3841633443112245,"v_amplitude":-1.3173436761885409},'
    '"output":{"cadence":1}}')
DRAW_2807 = (
    '{"geometry":{"radius":0.6520380103479207,"length":1.1752138910995273},'
    '"fluid":{"density":0.5233481216266855,"viscosity":0.08337618158972022},'
    '"wall":{"youngs_modulus":3390671.1658987068,'
    '"poisson_ratio":0.37394311749579784,"thickness":0.17687737194879125,'
    '"density":1.1861350464375886,"viscous_modulus":5.380922937480785,'
    '"viscous_poisson":0.42320100166687036},"mesh":{"n_z":4,"n_r":2,'
    '"wall_elements":4},"time":{"t_final":3.709233247604339e-06,"n_steps":3},'
    '"mode":"viscoelastic","waveform":{"inlet":{"kind":"constant",'
    '"value":0.0},"outlet":{"kind":"pulse","amplitude":-2891.5207527491293,'
    '"duration":0.0024203041701097196}},"initial_data":{"kind":"bump",'
    '"eta_amplitude":5.3878611887404625e-257,'
    '"v_amplitude":1.7418867279344915e-307},"output":{"cadence":1}}')


@pytest.mark.parametrize("draw", [
    pytest.param(DRAW_302, id="draw-302"),
    pytest.param(DRAW_2807, id="draw-2807", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=(
            "known defect: the fluid solve's residual, bounded by ||b|| "
            "alone, moves the fluid-step balance and the telescoped "
            "identity of draw 2807 to 2.902e-6 and 3.048e-6, past 1e-8")))])
def test_a_property_draw_verifies(draw):
    res = driver.run(validate_config(json.loads(draw)))
    assert res.status == driver.STATUS_COMPLETED
    assert verify_run(res.ledger).ok


def test_verify_recomputes_the_residuals_a_ledger_stores():
    # zeroing draw 302's wall residual column, nonzero at rounding level,
    # does not pass: the verifier recomputes each residual from its terms,
    # and the stored column no longer matches them
    res = driver.run(validate_config(json.loads(DRAW_302)))
    for row in res.ledger.rows:
        row["wall_step_residual"] = 0.0
    report = verify_run(res.ledger)
    failing = [c.name for c in report.checks if not c.passed]
    assert not report.ok
    assert "stored residuals match their terms" in failing


def test_two_runs_in_one_process_write_identical_ledgers(tmp_path):
    paths = []
    for name in ("first", "second"):
        res = driver.run(small_cfg())
        paths.append(tmp_path / f"{name}.csv")
        res.ledger.to_csv(paths[-1])
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_contact_scenario_halts_with_location():
    cfg = load_config(os.path.join(CONFIG_DIR, "contact_suction.json"))
    res = driver.run(cfg)
    assert res.status == driver.STATUS_WALL_CONTACT
    assert res.exit_code == 2
    t, z = res.contact
    assert 0.0 < t <= cfg["time"]["t_final"]
    assert 0.0 <= z <= cfg["geometry"]["length"]
    for u in res.record.us:
        assert np.all(np.isfinite(u))
    assert len(res.ledger) < cfg["time"]["n_steps"]
    # the partial ledger still satisfies every identity
    assert verify_run(res.ledger).ok


def count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` to record each call; returns the call list."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


FRAME_KERNELS = ("assemble_weighted_mass", "assemble_viscous_blocks",
                 "assemble_divergence_blocks")


def wall_moves(res):
    """Whether each step of a run stored at cadence 1 moved its wall."""
    etas = res.record.etas
    return [not np.array_equal(a, b) for a, b in zip(etas, etas[1:])]


def test_each_step_builds_one_mass_and_one_contact_check(monkeypatch):
    # one frame, so one mass and one contact check, per wall profile: the
    # initial one and one per step that moves the wall, which the first
    # step from rest does not (its half step keeps eta = 0, so it ends on
    # the initial frame); a geometry share for each profile a step starts
    # from, so none for the last one, whose mass only the last ledger row
    # reads; the trace constant runs one viscous kernel more
    kernels = [count_calls(monkeypatch, fluid, k) for k in FRAME_KERNELS]
    radii = count_calls(monkeypatch, ale, "min_radius_of")
    res = driver.run(small_cfg())
    assert res.status == driver.STATUS_COMPLETED and len(res.ledger) == 10
    assert wall_moves(res) == [False] + [True] * 9
    assert [len(k) for k in kernels] == [9 + 1, 9 + 1, 9]
    assert len(radii) == 9 + 1


def test_a_frame_s_share_is_built_by_the_first_step_on_it(monkeypatch):
    # the geometry group is applied once per frame a fluid step starts
    # from: every step's of a coupled run but the second's, which starts on
    # the frame the first step from rest ended on, every completed step's
    # of a run that ends in contact (the profile in contact gets no step),
    # and once for all the steps of a rigid run, whose one frame every step
    # reuses
    shares = count_calls(monkeypatch, coupling, "geometry_operands")
    res = driver.run(small_cfg())
    assert wall_moves(res) == [False] + [True] * 9
    assert len(res.ledger) == 10 and len(shares) == 9
    shares.clear()
    res = driver.run(load_config(os.path.join(CONFIG_DIR,
                                              "contact_suction.json")))
    assert res.status == driver.STATUS_WALL_CONTACT
    assert 0 < len(res.ledger) == len(shares)
    shares.clear()
    res = driver.run(load_config(os.path.join(CONFIG_DIR,
                                              "poiseuille_rigid.json")))
    assert res.steps == 56 and len(shares) == 1


def test_one_gram_assembly_per_setup(monkeypatch):
    grams = count_calls(monkeypatch, shell, "assemble_grams")
    driver.RunSetup(small_cfg())
    assert len(grams) == 1


def test_rigid_harness_assembles_the_mass_once(monkeypatch):
    # a rigid wall's half step leaves it at zero, so a rigid run builds the
    # one wall profile's frame, whatever the step count; with a ledger the
    # trace constant runs one viscous kernel more
    frames = count_calls(monkeypatch, coupling, "build_frame")
    kernels = [count_calls(monkeypatch, fluid, k) for k in FRAME_KERNELS]
    for n_steps, ledger in ((2, "none"), (5, "none"), (5, "csv")):
        res = driver.run(rigid_cfg(n_steps=n_steps, ledger=ledger))
        assert res.status == driver.STATUS_COMPLETED and res.steps == n_steps
        assert len(frames) == 1
        assert [len(k) for k in kernels] == [1, 1 + (ledger == "csv"), 1]
        for calls in [frames] + kernels:
            calls.clear()


def test_a_run_tabulates_the_wall_shapes_once(monkeypatch):
    # the wall samplers are built on a run's first use and read by every
    # later step, so a moving wall costs no tabulation per step
    tables = count_calls(monkeypatch, shell, "_shape_table")
    counts = []
    for n_steps in (5, 10):
        cfg = small_cfg(time={"t_final": 2e-4 * n_steps, "n_steps": n_steps},
                        initial_data={"kind": "bump", "eta_amplitude": 0.01,
                                      "v_amplitude": 0.5})
        res = driver.run(cfg)
        assert res.status == driver.STATUS_COMPLETED and res.steps == n_steps
        assert all(wall_moves(res))
        counts.append(len(tables))
        tables.clear()
    assert counts[0] == counts[1] > 0


def test_fit_order_harness():
    dts = np.array([0.4, 0.2, 0.1, 0.05])
    errs = 3.0 * dts
    assert driver.fit_order(dts, errs) == pytest.approx(1.0, abs=1e-12)
    errs2 = 3.0 * dts**2
    assert driver.fit_order(dts, errs2) == pytest.approx(2.0, abs=1e-12)
    # the rung count and distinct dts are the study's to check, before any
    # run: test_a_study_rejects_bad_input_before_any_run
    with pytest.raises(ValidationError, match="zero error rung: the run's "
                       "fields do not change with dt"):
        driver.fit_order(dts, [1.0, 1.0, 0.0, 1.0])


def test_convergence_study_rejects_duplicate_reference(monkeypatch):
    setups = count_calls(monkeypatch, driver.RunSetup, "__init__")
    with pytest.raises(ConfigError, match=r"a reference finer than them all, "
                       r"got rungs \[10, 20\] and reference 20"):
        driver.self_convergence_study(small_cfg(), [10, 20], 20)
    assert setups == []


BAD_STUDIES = {     # case -> (rung steps, reference steps, message)
    "one-rung": ([10], 80, r"got rungs \[10\] and reference 80"),
    "repeated-rung": ([10, 10], 80, r"got rungs \[10, 10\] and reference"),
    "coarse-reference": ([20, 10], 15, r"got rungs \[10, 20\] and "
                         "reference 15"),
    "zero-reference": ([10, 20], 0, "time.n_steps must be a positive integer"),
    "zero-rung": ([0, 20], 80, "time.n_steps must be a positive integer"),
    "negative-rung": ([-5, 20], 80, "time.n_steps must be a positive integer"),
    "rigid-wall": ([10, 20], 80, "a rigid wall's eta and v are zero"),
}


@pytest.mark.parametrize("case", sorted(BAD_STUDIES))
def test_a_study_rejects_bad_input_before_any_run(monkeypatch, case):
    rungs, reference, says = BAD_STUDIES[case]
    cfg = rigid_cfg() if case == "rigid-wall" else small_cfg()
    setups = count_calls(monkeypatch, driver.RunSetup, "__init__")
    with pytest.raises(ConfigError, match=says):
        driver.self_convergence_study(cfg, rungs, reference)
    assert setups == []


ZERO = {"kind": "constant", "value": 0.0}
ZERO_DATA = {   # case -> (initial data, inlet waveform), the outlet ZERO
    "zero-constant": ({"kind": "zero"}, ZERO),
    "flat-bump": ({"kind": "bump", "eta_amplitude": 0.0}, ZERO),
    "silent-pulse": ({"kind": "zero"},
                     {"kind": "pulse", "amplitude": 0.0, "duration": 1e-3}),
    "silent-sine": ({"kind": "zero"},
                    {"kind": "sine", "amplitude": 0.0, "frequency": 50.0}),
    "still-sine": ({"kind": "zero"},
                   {"kind": "sine", "amplitude": 1e3, "frequency": 0.0}),
    "zero-csv": ({"kind": "zero"}, {"kind": "csv", "path": "zeros.csv"}),
}


@pytest.mark.parametrize("case", sorted(ZERO_DATA))
def test_a_study_rejects_zero_data_before_any_run(monkeypatch, tmp_path,
                                                  case):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "zeros.csv").write_text("t,p\n0.0,0.0\n0.5,-0.0\n1.0,0.0\n")
    initial, inlet = ZERO_DATA[case]
    cfg = small_cfg(initial_data=initial,
                    waveform={"inlet": inlet, "outlet": ZERO})
    setups = count_calls(monkeypatch, driver.RunSetup, "__init__")
    with pytest.raises(ConfigError, match="zero data stay zero at every dt"):
        driver.self_convergence_study(cfg, [10, 20], 80)
    assert setups == []


@pytest.mark.parametrize("spec", [
    {"kind": "bump", "eta_amplitude": 0.0, "v_amplitude": 1e-3},
    {"kind": "sine", "amplitude": 1e3, "frequency": 0.0, "phase": 0.5},
    {"kind": "pulse", "amplitude": 1e3, "duration": 1e-3},
    {"kind": "csv", "path": "wave.csv"},    # one nonzero sample
])
def test_nonzero_data_are_left_to_the_study(monkeypatch, tmp_path, spec):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "wave.csv").write_text("0.0,0.0\n0.5,1e-300\n1.0,0.0\n")
    assert not driver._is_zero(spec, 1.0)


def test_poiseuille_rejects_a_moving_wall_before_any_run(monkeypatch):
    # the shipped pulse on a 4x2 mesh in 5 steps
    with open(os.path.join(CONFIG_DIR, "pulse.json")) as f:
        raw = json.load(f)
    raw.update(mesh={"n_z": 4, "n_r": 2, "wall_elements": 4},
               time={"t_final": raw["time"]["t_final"], "n_steps": 5})
    setups = count_calls(monkeypatch, driver.RunSetup, "__init__")
    with pytest.raises(ConfigError, match="rigid-mode"):
        driver.poiseuille_profile_error(validate_config(raw))
    assert setups == []


def test_small_convergence_study_runs():
    cfg = small_cfg(time={"t_final": 0.002, "n_steps": 10})
    report = driver.self_convergence_study(cfg, [10, 20], 80)
    assert set(report.errors) == {"eta", "u", "v"}
    assert all(len(v) == 2 for v in report.errors.values())
    assert np.isfinite(report.gap_order)
    text = str(report)
    assert "order" in text


def test_convergence_study_builds_one_setup_per_run(monkeypatch):
    setups = count_calls(monkeypatch, driver.RunSetup, "__init__")
    driver.self_convergence_study(small_cfg(), [10, 20], 80)
    assert len(setups) == 3


def rigid_cfg(n_steps=200, inlet=1.0, ledger="none"):
    return validate_config({
        "geometry": {"radius": 0.5, "length": 5.0},
        "fluid": {"density": 1.0, "viscosity": 1.0},
        "wall": {"youngs_modulus": 7.5e5, "poisson_ratio": 0.5,
                 "thickness": 0.1, "density": 1.1},
        "mesh": {"n_z": 16, "n_r": 8, "wall_elements": 16},
        "time": {"t_final": 0.05 * n_steps, "n_steps": n_steps},
        "mode": "rigid",
        "waveform": {"inlet": {"kind": "constant", "value": inlet},
                     "outlet": {"kind": "constant", "value": 0.0}},
        "output": {"ledger": ledger},
    })


def test_each_run_builds_one_reduction(monkeypatch):
    reductions = count_calls(monkeypatch, coupling, "build_reduction")
    res = driver.run(small_cfg())
    assert res.status == driver.STATUS_COMPLETED and len(res.ledger) == 10
    assert len(reductions) == 1
    assert driver.run(rigid_cfg(n_steps=5)).steps == 5
    assert len(reductions) == 2


def step_on_the_end_of_step_geometry(monkeypatch):
    # the step's frame, and so its start mass, is the end-of-step profile's
    original = coupling.fluid_step

    def mutated(setup, frame, end, u_prev, shell_half, *args):
        return original(setup, coupling.build_frame(setup, shell_half.eta),
                        end, u_prev, shell_half, *args)

    monkeypatch.setattr(coupling, "fluid_step", mutated)


def flow_without_the_robin_term(monkeypatch):
    # the flow kernel reads the start mass twice: (rho_f/dt) M_old, with
    # no (rho_f/2) S(v_half)
    original = fluid.assemble_flow
    monkeypatch.setattr(
        fluid, "assemble_flow",
        lambda *args: original(*args[:6], args[6], args[6]))


def transport_not_antisymmetrized(monkeypatch):
    # the flow kernel adds each cell's whole transport block x, not its
    # skew part (x - x^T) / 2
    original = fluid.assemble_flow

    def mutated(mesh, snapshot, u_prev, v_half_q, rho_f, *args):
        x = transport_blocks(mesh, snapshot, u_prev, v_half_q, rho_f)
        skew = assemble_advection(mesh, snapshot, u_prev, v_half_q, rho_f)
        return (original(mesh, snapshot, u_prev, v_half_q, rho_f, *args)
                - skew.data + mesh.scalar_pattern.csr(x).data)

    monkeypatch.setattr(fluid, "assemble_flow", mutated)


def step_with_the_lagged_wall_velocity(monkeypatch):
    # the fluid step reads v_n, the wall velocity the half step started
    # from, where the scheme reads its result v_half
    wall_step, original = shell.structure_step, coupling.fluid_step
    start = {}

    def recording(setup, state):
        start["v"] = state.v
        return wall_step(setup, state)

    def mutated(setup, frame, mass_new, u_prev, shell_half, *args):
        return original(setup, frame, mass_new, u_prev,
                        dataclasses.replace(shell_half, v_star=start["v"]),
                        *args)

    monkeypatch.setattr(shell, "structure_step", recording)
    monkeypatch.setattr(coupling, "fluid_step", mutated)


def pressure_load_a_hundred_times_its_data(monkeypatch):
    # the step loads 100 times the pressures the ledger records, so its
    # pressure work outgrows what the mesh's trace constant allows; the
    # energy module's own forcing, which the constant is taken from, is not
    # the patched name
    original = fluid.assemble_pressure_forcing
    monkeypatch.setattr(fluid, "assemble_pressure_forcing",
                        lambda *args: 100.0 * original(*args))


def wall_step_with_the_elastic_term_at_eta_n(monkeypatch):
    # the wall half step takes its elastic term at the start displacement:
    # rho_s_h M eta_half = rho_s_h M (eta + dt v) - dt^2 A eta
    def mutated(setup, state):
        dt, mass = setup.dt, setup.rho_s_h * setup.shell_mass
        solve = sparsela.constant_solver(mass, shell.STRUCTURE_TOL)
        eta_half = solve(mass @ (state.eta + dt * state.v)
                         - dt * dt * (setup.shell_elastic @ state.eta))
        return shell.ShellState(eta=eta_half, v=state.v,
                                v_star=(eta_half - state.eta) / dt)

    monkeypatch.setattr(shell, "structure_step", mutated)


@pytest.mark.parametrize("mutate, failing", [
    (step_on_the_end_of_step_geometry,
     ["fluid-step energy balance", "telescoped energy identity",
      "transport skew-symmetry"]),
    (flow_without_the_robin_term,
     ["fluid-step energy balance", "telescoped energy identity",
      "transport skew-symmetry"]),
    (step_with_the_lagged_wall_velocity,
     ["fluid-step energy balance", "telescoped energy identity",
      "mass/geometry update identity"]),
    (transport_not_antisymmetrized,
     ["fluid-step energy balance", "telescoped energy identity",
      "transport skew-symmetry"]),
    (pressure_load_a_hundred_times_its_data,
     ["stability inequality slack", "uniform energy bound"]),
    (wall_step_with_the_elastic_term_at_eta_n,
     ["wall half-step energy equality", "telescoped energy identity"]),
], ids=["end-of-step-geometry", "no-robin-term", "lagged-wall-velocity",
        "transport-not-antisymmetrized", "pressure-load-100x",
        "explicit-wall-elasticity"])
def test_verifier_fails_a_mutated_step(monkeypatch, mutate, failing):
    # each wrong variant of the step still runs to completion, and the
    # ledger's verdict names exactly the identities it breaks.  The ledger
    # takes both masses and their weights from the driver, and the flow
    # data and the domain velocity from the step: a step whose flow data
    # are not its two masses plus a skew part fails the skew column, and
    # one that moves the domain at another velocity than the wall's
    # profiles the mass/geometry column
    mutate(monkeypatch)
    res = driver.run(small_cfg())
    assert res.status == driver.STATUS_COMPLETED and len(res.ledger) == 10
    report = verify_run(res.ledger)
    assert [c.name for c in report.checks if not c.passed] == failing


def test_rigid_steady_and_poiseuille_small():
    cfg = rigid_cfg()
    err, info = driver.poiseuille_profile_error(cfg)
    assert err <= 0.02
    assert info["increment"] <= 1e-9


def test_a_tiny_rigid_flow_marches_as_far_as_a_small_one():
    # the increment is taken on u and du scaled by the power of two of
    # max |u|, so no norm underflows: at inlet 1e-160 (the norm of u would
    # underflow) the march takes as many steps as at 1e-20 and ends on the
    # same profile relative to the inlet
    ends = []
    for inlet in (1e-20, 1e-160):
        res = driver.run(rigid_cfg(n_steps=400, inlet=inlet))
        assert 1 < res.steps < 400
        assert 0.0 < res.increment < driver.STEADY_TOL
        ends.append((res.steps, np.abs(res.record.us[-1]).max() / inlet))
    (steps_small, peak_small), (steps_tiny, peak_tiny) = ends
    assert steps_tiny == steps_small
    assert peak_tiny == pytest.approx(peak_small, rel=1e-12)


def count_mass_products(monkeypatch):
    """Every ``fluid.componentwise`` call, from the driver, the coupling
    and the energy module alike; returns the call list."""
    calls = count_calls(monkeypatch, fluid, "componentwise")
    monkeypatch.setattr(energy, "componentwise", fluid.componentwise)
    return calls


def test_a_ledger_row_carries_its_kinetic_energy_to_the_next(monkeypatch):
    # one product before the loop gives e0 and the first load; each step
    # returns its end-of-step product, which its row reads for e_full and
    # the next step and row for their load and e_n, so a step makes one
    # product and its row one more, for jump_u
    products = count_mass_products(monkeypatch)
    res = driver.run(small_cfg())
    assert res.status == driver.STATUS_COMPLETED and len(res.ledger) == 10
    assert len(products) == 1 + 2 * 10


def test_a_run_that_asks_for_no_ledger_forms_none(monkeypatch):
    # no rows, e0 or trace constant unless output.ledger is csv; the
    # trajectory is the same either way
    rows = count_calls(monkeypatch, energy.EnergyMonitor, "record_step")
    constants = count_calls(monkeypatch, energy, "discrete_trace_constant")
    with_ledger = driver.run(small_cfg())
    assert len(rows) == len(with_ledger.ledger) == 10 and len(constants) == 1
    rows.clear()
    constants.clear()
    res = driver.run(small_cfg(output={"cadence": 1, "ledger": "none"}))
    assert res.status == driver.STATUS_COMPLETED and res.steps == 10
    assert res.ledger is None and res.increment is None
    assert all(np.array_equal(a, b) for a, b in zip(res.record.us,
                                                     with_ledger.record.us))
    rigid = driver.run(rigid_cfg(n_steps=5))
    assert rigid.steps == 5 and rigid.ledger is None
    assert rows == [] and constants == []


def test_the_poiseuille_harness_forms_no_ledger(monkeypatch):
    # the harness reads the record only: a config that asks for a ledger
    # gets the same profile and no rows, e0 or trace constant
    rows = count_calls(monkeypatch, energy.EnergyMonitor, "record_step")
    starts = count_calls(monkeypatch, energy.EnergyMonitor, "start")
    constants = count_calls(monkeypatch, energy, "discrete_trace_constant")
    cfg = rigid_cfg(n_steps=5, ledger="csv")
    err, info = driver.poiseuille_profile_error(cfg)
    assert info["steps"] == 5 and cfg["output"]["ledger"] == "csv"
    assert rows == starts == constants == []
    assert (err, info) == driver.poiseuille_profile_error(
        rigid_cfg(n_steps=5, ledger="none"))


def test_a_rigid_run_hands_each_step_its_product(monkeypatch):
    # one product of the zero initial velocity, then one per step; with no
    # ledger there is no row to read one more
    products = count_mass_products(monkeypatch)
    res = driver.run(rigid_cfg())
    assert 1 < res.steps < 200 and len(products) == res.steps + 1


def test_the_handed_product_is_the_end_velocity_under_the_end_mass(
        monkeypatch):
    calls = []
    original = coupling.fluid_step

    def recording(setup, frame, end, *args):
        result = original(setup, frame, end, *args)
        calls.append((end.mass, result))
        return result

    monkeypatch.setattr(coupling, "fluid_step", recording)
    assert driver.run(small_cfg()).status == driver.STATUS_COMPLETED
    for mass, result in calls:
        assert np.array_equal(result.mass_u,
                              fluid.componentwise(mass, result.u_full))


def test_the_carried_load_is_the_product_the_step_would_form(monkeypatch):
    # a run that hands each step the previous step's product and one that
    # forms it afresh for each step write the same ledger, bit for bit
    cfg = small_cfg()
    ours = driver.run(cfg).ledger.rows
    original = coupling.fluid_step

    def fresh(setup, frame, mass_new, u_prev, *args):
        return original(setup, frame, mass_new, u_prev, *args[:-1],
                        fluid.componentwise(frame.mass, u_prev))

    monkeypatch.setattr(coupling, "fluid_step", fresh)
    assert driver.run(cfg).ledger.rows == ours


def test_the_record_holds_free_wall_dofs():
    res = driver.run(small_cfg(initial_data={
        "kind": "bump", "eta_amplitude": 0.02, "v_amplitude": 2.0}))
    rec, n_free = res.record, res.setup.shell_mesh.n_free
    assert len(rec) == 11 and n_free == 14
    for stored in (rec.etas, rec.vs, rec.v_stars):
        assert all(x.shape == (n_free,) for x in stored)
    assert all(eta.any() for eta in rec.etas)


def test_record_interpolants():
    cfg = small_cfg()
    res = driver.run(cfg)
    rec = res.record
    snap = state_at(rec, rec.times[2] + 1e-9)
    assert snap["t"] == rec.times[2]
    mid = 0.5 * (rec.times[1] + rec.times[2])
    lin = linear_interpolant(rec, mid)
    expect = 0.5 * (rec.etas[1] + rec.etas[2])
    assert np.allclose(lin["eta"], expect, rtol=0, atol=1e-15)


def test_a_contact_at_t0_records_and_writes_the_initial_state(tmp_path):
    # the initial bump brings the wall's middle to 1e-7 of the symmetry
    # line, inside the contact threshold 1e-6 R: the initial snapshot is in
    # contact, so no step runs, the ledger keeps its zero energy header and
    # the record holds the t = 0 state alone
    cfg = small_cfg(initial_data={"kind": "bump", "eta_amplitude": -0.4999999,
                                  "v_amplitude": 0.0},
                    output={"directory": str(tmp_path), "cadence": 1,
                            "fields": "csv", "ledger": "csv"})
    res = driver.run(cfg)
    assert res.status == driver.STATUS_WALL_CONTACT and res.exit_code == 2
    t, z = res.contact
    assert t == 0.0 and z == pytest.approx(3.0)
    assert len(res.ledger) == 0
    header = res.ledger.header
    assert (header["e0"], header["c_ref"], header["c_ref_computed"]) == (
        0.0, 0.0, False)
    eta0, v0, u0 = res.setup.initial_data()
    rec = res.record
    assert rec.times == [0.0]
    assert np.array_equal(rec.etas[0], eta0) and np.array_equal(rec.vs[0], v0)
    assert eta0.size == res.setup.shell_mesh.n_free
    assert np.array_equal(rec.us[0], u0) and not rec.ps[0].any()
    written = exporters.write_outputs(res)
    assert sorted(os.path.basename(p) for p in written) == [
        "ledger.csv", "pressure_0000.csv", "velocity_0000.csv",
        "wall_0000.csv"]
    assert verify_run(res.ledger).ok


def nan_fluid_solves_from(monkeypatch, first):
    """From its ``first``-th solve on (counting from 0), the fluid-step
    solver of a run returns NaN; returns the list of its solves."""
    solves = []

    class Poisoned(sparsela.ReusedFactorSolver):
        def solve(self, a, b):
            x = super().solve(a, b)
            solves.append(len(solves))
            return x if len(solves) <= first else np.full_like(x, np.nan)

    monkeypatch.setattr(driver, "ReusedFactorSolver", Poisoned)
    return solves


def test_a_non_finite_fluid_solve_is_a_solver_failure(monkeypatch):
    solves = nan_fluid_solves_from(monkeypatch, 2)
    res = driver.run(small_cfg())
    assert res.status == driver.STATUS_SOLVER_FAILURE and res.exit_code == 3
    assert res.failure == "non-finite solution fields" and len(solves) == 3
    # the two completed steps: their ledger rows verify and the record
    # ends with the state after them, all finite
    assert len(res.ledger) == 2 and verify_run(res.ledger).ok
    assert res.record.times[-1] == pytest.approx(2 * res.setup.dt, rel=1e-15)
    assert all(np.isfinite(u).all() for u in res.record.us)


def test_a_non_finite_rigid_solve_stops_the_rigid_march(monkeypatch):
    # the run ends after the two completed steps; the Poiseuille harness,
    # which needs the steady profile, raises the failure
    solves = nan_fluid_solves_from(monkeypatch, 2)
    res = driver.run(rigid_cfg(n_steps=5))
    assert res.status == driver.STATUS_SOLVER_FAILURE and res.steps == 2
    assert res.failure == "non-finite solution fields" and len(solves) == 3
    with pytest.raises(SolverError, match="non-finite solution fields"):
        driver.poiseuille_profile_error(rigid_cfg(n_steps=5))


def test_a_short_pulse_window_has_a_positive_norm_and_verifies():
    # property-replay draw 3807: one step of 2.1e-4 into a 6.8 s inlet
    # pulse, w t = 1.9e-4, where a closed form in sin(w t) cancels to a
    # negative squared norm and the uniform energy bound fails
    res = driver.run(validate_config({
        "geometry": {"radius": 0.1, "length": 1.3565969058700555},
        "fluid": {"density": 1.9652508294293307,
                  "viscosity": 0.033715999033230075},
        "wall": {"youngs_modulus": 12149.305870244849,
                 "poisson_ratio": 3.0934929454094903e-84,
                 "thickness": 0.012940597401200144,
                 "density": 1.6460373454955834},
        "mesh": {"n_z": 5, "n_r": 3, "wall_elements": 5},
        "time": {"t_final": 0.00020902281189956592, "n_steps": 1},
        "mode": "elastic",
        "waveform": {"inlet": {"kind": "pulse",
                               "amplitude": 2248.7581013486415,
                               "duration": 6.793069093479936},
                     "outlet": {"kind": "constant", "value": 0.0}},
        "initial_data": {"kind": "bump",
                         "eta_amplitude": 4.3534141166323563e-14,
                         "v_amplitude": 1.9178178055017317e-242},
        "output": {"cadence": 1}}))
    assert res.status == driver.STATUS_COMPLETED and len(res.ledger) == 1
    assert res.ledger.header["p_in_l2_sq"] == pytest.approx(
        1.845947171519477e-14, rel=1e-14, abs=0.0)
    assert verify_run(res.ledger).ok
