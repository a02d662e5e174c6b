"""The benchmark's tracer finds the program's functions by name.

``perfbench/tracing.install_wrappers`` skips a target it cannot find, so a
renamed step function would silently unhook the host-speed calibration of
a workload and read zero in its metrics.  These tests read the tracer's
target lists (nothing is wrapped) and check that the names still resolve.
"""

import importlib
import importlib.util
from pathlib import Path

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
    tracing = load_tracing()
    targets = tracing.STEP_TARGETS + (("coupling", "reduce_coupled_system"),)
    assert [t for t in targets if not resolves(*t)] == []


def test_only_the_retired_factor_solve_target_is_missing():
    tracing = load_tracing()
    missing = [f"{m}.{p}" for m, p in tracing.TARGETS if not resolves(m, p)]
    # every solve is timed through krylov_solve; the direct solve is retired
    assert missing == ["sparsela.DirectFactor.solve", "sparsela.factor_solve"]
