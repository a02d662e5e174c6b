"""The benchmark's tracer finds the program's functions by name.

``perfbench/tracing.install_wrappers`` skips a target it cannot find, so a
renamed step function would silently unhook the host-speed calibration of
a workload and read zero in its metrics.  These tests read the tracer's
target lists and check that the names still resolve; one wraps the fluid
kernels for a single step, and unwraps them, to check which the step calls.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from wallflow import coupling, shell
from wallflow.sparsela import ReusedFactorSolver

from oracles import run_setup

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolves(mod_name, path):
    """True when ``wallflow.<mod_name>`` has a callable at ``path``; a
    trailing ``*`` matches any function of that module with the prefix."""
    try:
        module = importlib.import_module(f"wallflow.{mod_name}")
    except ImportError:
        return False
    if path.endswith("*"):
        return any(name.startswith(path[:-1]) and callable(value)
                   for name, value in vars(module).items())
    owner = module
    for part in path.split("."):
        owner = getattr(owner, part, None)
    return callable(owner)


def test_step_targets_and_the_reduction_resolve():
    # a run of every mode, the rigid one too, opens each step with the
    # wall half step and the fluid step; the rigid step is retired
    tracing = load_tracing()
    targets = tracing.STEP_TARGETS + (("coupling", "reduce_coupled_system"),)
    assert [t for t in targets if not resolves(*t)] == [
        ("coupling", "rigid_fluid_step")]


def test_only_the_retired_factor_solve_target_is_missing():
    tracing = load_tracing()
    missing = [f"{m}.{p}" for m, p in tracing.TARGETS if not resolves(m, p)]
    # every solve is timed through krylov_solve; the direct solve is
    # retired, and so are the rigid step and loop, as driver.run is the
    # one time loop of every mode
    assert missing == ["sparsela.DirectFactor.solve", "sparsela.factor_solve",
                       "coupling.rigid_fluid_step", "driver.run_rigid_steady"]


def test_the_flow_kernel_is_timed_as_fluid_assembly():
    # the fluid step's one flow kernel is wrapped by the tracer's
    # ("fluid", "assemble_*") target, so fluid.assembly_ms covers it: a
    # traced coupled step on a frame whose share is built calls it, and of
    # the fluid kernels only it and the pressure load; the first step on
    # the frame also runs the geometry kernels that build the share
    tracing = load_tracing()
    target = ("fluid", "assemble_*")
    assert target in tracing.TARGETS
    called = []

    def wrap(name, original):
        def wrapper(*args, **kwargs):
            called.append(name)
            return original(*args, **kwargs)
        return wrapper

    cs = run_setup(4, 2, 2.0, 0.1, {}, 1e-3, "elastic")
    zero = cs.shell_mesh.zero_free()
    frame = coupling.build_frame(cs, zero)
    half = shell.ShellState(eta=zero, v=zero, v_star=zero)
    u = np.zeros(2 * cs.fluid_mesh.n_velocity_nodes)
    patches, _ = tracing.install_wrappers("wallflow", [target], wrap)
    per_step = []
    try:
        for _ in range(2):
            # u is zero, and so is its mass product
            coupling.fluid_step(cs, frame, frame, u, half, 1.0, 0.0,
                                ReusedFactorSolver(coupling.FLUID_TOL), u)
            per_step.append(called[:])
            called.clear()
    finally:
        tracing.uninstall_wrappers(patches)
    step = ["fluid.assemble_flow", "fluid.assemble_pressure_forcing"]
    assert per_step == [step + ["fluid.assemble_viscous_blocks",
                                "fluid.assemble_divergence_blocks"], step]
