"""wallflow benchmark: one workload, untraced or traced, as one command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout that holds ``src/wallflow`` and
``configs/``; the program is imported from that source tree.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` times whole units of the workload, one after another, until
``--seconds`` have passed, with a batch of set-ups before each unit and
after the last.  It reports the median set-up and the median unit, each
scaled to the reference host speed by the calibration kernel run alongside
(see ``calibrate.py``).  ``--trace 1`` runs one traced unit and reports its
per-layer metrics.  Every unit passes through the workload's correctness
gate; a unit that fails it counts in ``failed``.

``.bench_state/state.json`` keeps what one run leaves for the next, keyed by
the digest of ``src/``, ``configs/`` and ``perfbench/``, so a changed program
never meets the records of another.  Untraced runs append the wall times
of their units; a traced run subtracts their median from its own ``run_s``
to give the tracing overhead, and runs one untraced unit first when none is
recorded.
Traced runs record their exact counts (factorizations, assembly calls,
system size, LU fill, bytes written) per workload and forcing draw; a later
traced run of the same program and input that counts differently makes the
result incorrect.
"""

import os

THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "WALLFLOW_WORKERS")}
os.environ.update(THREAD_PINS)   # must precede the first numpy import

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE_FILE = ROOT / ".bench_state" / "state.json"
TMP_PARENT = ROOT / ".bench_tmp"
REFERENCE_FILE = HERE / "reference.json"

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "steps_per_s": "1/s",
                    "peak_rss_mb": "MB"}


def import_program():
    """Put the checkout's ``src`` first on the path and import wallflow from
    it; returns an error message, or None."""
    package = ROOT / "src" / "wallflow"
    if not (package / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        return f"no wallflow source tree under {ROOT} (src/wallflow and configs/)"
    sys.path.insert(0, str(ROOT / "src"))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import wallflow
    if Path(wallflow.__file__).resolve().parent != package.resolve():
        return f"imported wallflow from {wallflow.__file__}, not from {package}"
    return None


def source_digest():
    """SHA-256 of the program, its configs and the benchmark."""
    h = hashlib.sha256()
    for top in ("src", "configs", HERE.name):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".py", ".json"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def _load_state(state_file):
    return json.loads(state_file.read_text()) if state_file.exists() else {}


def _save_state(state_file, state):
    state_file.parent.mkdir(parents=True, exist_ok=True)
    tmp = state_file.with_suffix(".tmp")
    tmp.write_text(json.dumps(state, indent=1, sort_keys=True))
    tmp.replace(state_file)


def check_counts(state_file, key, counts):
    """Record ``counts`` under ``key``, or compare with the counts recorded
    before; returns the mismatches."""
    state = _load_state(state_file)
    seen = state.setdefault("counts", {}).get(key)
    if seen is None:
        state["counts"][key] = counts
        _save_state(state_file, state)
        return []
    return [f"{k}: {seen.get(k)} recorded, {v} now"
            for k, v in sorted(counts.items()) if seen.get(k) != v]


def untraced_run_s(state_file, key, new=()):
    """Append ``new`` to the untraced ``run_s`` values under ``key``;
    returns all of them."""
    state = _load_state(state_file)
    values = state.setdefault("untraced_run_s", {}).setdefault(key, [])
    if new:
        values.extend(new)
        _save_state(state_file, state)
    return values


def load_reference(workload, index, params):
    """Recorded final energy of pulse draw ``index``, or None."""
    if workload.kind != "pulse" or not REFERENCE_FILE.exists():
        return None
    entry = json.loads(REFERENCE_FILE.read_text()).get(workload.name, {}).get(
        str(index))
    if entry is None or entry["params"] != params:
        return None
    return entry["final_energy"]


def scaled_run_s(unit):
    """``unit.run_s`` at the reference host speed; a unit that raised before
    its calibration finished keeps its wall time."""
    calibration = unit.calibration
    if calibration is None or not calibration.samples:
        return unit.run_s
    return unit.run_s * calibration.scale(statistics.mean)


def untraced(runner, seconds, key):
    from calibrate import Calibration
    setup_calibration = Calibration()
    setup_samples = []
    units = []
    begin = time.perf_counter()
    while True:
        setup_samples += runner.setup_samples(setup_calibration)
        unit = runner.unit()
        units.append(unit)
        print(f"unit {len(units)}: run_s {unit.run_s:.4f} wall, "
              f"{scaled_run_s(unit):.4f} at reference speed, {unit.steps} steps, "
              f"gate {'PASS' if unit.ok else 'FAIL'}: {unit.detail}")
        if not unit.ok or time.perf_counter() - begin >= seconds:
            break
    setup_samples += runner.setup_samples(setup_calibration)
    setup_s = statistics.median(setup_samples)
    print(f"setup_s {setup_s:.5f} wall, median of {len(setup_samples)} set-ups; "
          f"host speed {setup_calibration.scale(statistics.median):.4f} of "
          f"reference during set-ups")
    if all(u.ok for u in units):
        untraced_run_s(STATE_FILE, key, [u.run_s for u in units])
    run_s = statistics.median(scaled_run_s(u) for u in units)
    metrics = {
        "setup_s": setup_s * setup_calibration.scale(statistics.median),
        "run_s": run_s,
        "steps_per_s": statistics.median(u.steps for u in units) / run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return units, {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in metrics.items()}, []


def traced(runner, run_key, count_key):
    from tracing import LAYER_UNITS, Tracer
    units = []
    if not untraced_run_s(STATE_FILE, run_key):
        units.append(runner.unit())
        if units[0].ok:
            untraced_run_s(STATE_FILE, run_key, [units[0].run_s])
    untraced_values = untraced_run_s(STATE_FILE, run_key) or [units[0].run_s]
    tracer = Tracer()
    unit = runner.unit(tracer)
    units.append(unit)
    for u in units:
        print(f"{'traced' if u is unit else 'untraced'} unit: run_s {u.run_s:.4f}, "
              f"{u.steps} steps, gate {'PASS' if u.ok else 'FAIL'}: {u.detail}")
    reference = statistics.median(untraced_values)
    print(f"untraced run_s median {reference:.4f} s over {len(untraced_values)} "
          f"recorded units")
    metrics = tracer.metrics()
    metrics["trace.run_s"] = unit.run_s
    metrics["trace.overhead_ms"] = 1000.0 * (unit.run_s - reference)
    print_layers(tracer, unit.run_s)
    problems = []
    if tracer.missing:
        print("not found in the program, reads zero: " + ", ".join(tracer.missing))
    if tracer.steps != unit.steps:
        print(f"note: the tracer saw {tracer.steps} steps, the run reports {unit.steps}")
    if unit.ok:
        counts = tracer.exact_counts()
        print("exact counts: " + json.dumps(counts, sort_keys=True))
        problems += check_counts(STATE_FILE, count_key, counts)
    for p in problems:
        print(f"COUNT MISMATCH {p}")
    return units, {k: {"value": v, "unit": LAYER_UNITS[k]}
                   for k, v in metrics.items()}, problems


def print_layers(tracer, run_s):
    total_ms = 1000.0 * run_s
    layers = tracer.layer_self_ms()
    steps = max(tracer.steps, 1)
    print(f"self time by layer, traced run_s {run_s:.4f} s, {tracer.steps} steps:")
    for layer, ms in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<10} {ms:12.3f} ms  {ms / steps:9.4f} ms/step  "
              f"{100.0 * ms / total_ms:6.2f} %")
    accounted = sum(layers.values()) + 1000.0 * tracer.instrumentation
    print(f"  {'tracing':<10} {1000.0 * tracer.instrumentation:12.3f} ms "
          f"(instrumentation, excluded from every layer)")
    print(f"  layers + uncovered + instrumentation = {accounted:.3f} ms "
          f"of {total_ms:.3f} ms")
    named = {k: v for k, v in layers.items() if k != "uncovered"}
    if named:
        print(f"  largest self time: {max(named, key=named.get)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problem = import_program()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    import numpy
    import scipy
    from workloads import WORKLOADS, Runner, draw, draw_index, write_config
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    params, index = draw(workload, args.seed), draw_index(args.seed)
    digest = source_digest()
    reference = load_reference(workload, index, params)
    print(f"workload {workload.name}, seed {args.seed} (draw {index}): "
          f"{json.dumps(params)}")
    print(f"nproc {os.cpu_count()}, Python {platform.python_version()}, NumPy "
          f"{numpy.__version__}, SciPy {scipy.__version__}, thread pins "
          f"{json.dumps(THREAD_PINS, sort_keys=True)}, source digest {digest[:16]}")

    TMP_PARENT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=TMP_PARENT)
    try:
        runner = Runner(workload, write_config(ROOT, workload, params, workdir),
                        reference)
        run_key = f"{digest}/{workload.name}"
        if args.trace:
            units, metrics, problems = traced(runner, run_key,
                                              f"{run_key}/{index}")
        else:
            units, metrics, problems = untraced(runner, args.seconds, run_key)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            TMP_PARENT.rmdir()
        except OSError:
            pass
    failed = sum(not u.ok for u in units)
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": len(units), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
