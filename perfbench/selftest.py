"""Self-test of the benchmark harness on tiny inputs; takes seconds.

    python3 perfbench/selftest.py

Checks, on configurations the size of ``configs/smoke_zero.json``: the
untraced unit, its host-speed calibration and its gate, for each workload
kind; the pulse gate failing
on a wrong reference energy; the traced unit, whose layer self times plus
the uncovered remainder must add up to the traced wall time; the exact
counts repeating across two traced units and a changed count being caught;
and that BENCHMARK.json names exactly the metrics the harness reports.
Exits 0 when every check passes.
"""

import json
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

import run

FAILURES = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def tiny_workloads(Workload):
    small_mesh = {"n_z": 8, "n_r": 4, "wall_elements": 8}
    return {
        "pulse": Workload(
            "tiny-pulse", "pulse", "smoke_zero.json",
            {"amplitude": (1500.0, 2500.0), "duration": (0.0015, 0.0020)},
            {"waveform": {"inlet": {"kind": "pulse"},
                          "outlet": {"kind": "constant", "value": 0.0}}}),
        "ladder": Workload(
            "tiny-ladder", "ladder", "convergence_pulse.json",
            {"amplitude": (16000.0, 24000.0), "duration": (0.0038, 0.0042)},
            {"mesh": small_mesh, "time": {"t_final": 0.004, "n_steps": 4}}),
        "rigid": Workload(
            "tiny-rigid", "rigid", "poiseuille_rigid.json",
            {"inlet": (0.8, 1.2)}, {"mesh": small_mesh}),
    }


def main():
    problem = run.import_program()
    if problem:
        print(f"selftest: {problem}", file=sys.stderr)
        return 2
    from calibrate import Calibration
    from tracing import LAYER_UNITS, Tracer
    from wallflow import energy
    from workloads import Runner, Workload, draw, write_config

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check({m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS,
          "BENCHMARK.json end_to_end matches the reported metrics")
    check({m["name"]: m["unit"] for m in bench["per_layer"]} == LAYER_UNITS,
          "BENCHMARK.json per_layer matches the reported metrics")

    run.TMP_PARENT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.TMP_PARENT))
    try:
        tiny = tiny_workloads(Workload)
        for kind, w in tiny.items():
            workdir = tmp / kind
            workdir.mkdir()
            runner = Runner(w, write_config(run.ROOT, w, draw(w, 3), str(workdir)))
            if kind == "pulse":
                first = runner.unit()
                check(not first.ok and "no reference" in first.detail,
                      "pulse gate fails without a reference energy")
                ledger = energy.load_ledger(workdir / "out" / "ledger.csv")
                runner.reference = float(ledger.rows[-1]["e_full"])
                pulse_runner = runner
            if kind == "rigid":
                rigid_runner = runner
            unit = runner.unit()
            if kind == "ladder":
                # dt this coarse is outside the asymptotic range: the
                # fitted orders fall below 0.8 and the gate must say so
                check(not unit.ok and unit.steps == 4 + 8 + 16 + 32 + 256
                      and "orders" in unit.detail,
                      f"untraced ladder unit runs and its gate rejects "
                      f"pre-asymptotic orders: {unit.detail}")
            else:
                check(unit.ok and unit.steps > 0 and unit.run_s > 0,
                      f"untraced {kind} unit passes its gate: {unit.detail}")
            cal = unit.calibration
            scale = cal.scale(statistics.mean)
            check(len(cal.samples) >= 2 and scale > 0,
                  f"untraced {kind} unit samples the host speed "
                  f"{len(cal.samples)} times (scale {scale:.3f})")
            setup_cal = Calibration()
            check(min(runner.setup_samples(setup_cal, min_samples=3,
                                           min_seconds=0.0)) > 0
                  and len(setup_cal.samples) == 3,
                  f"{kind} setup time is measured with the host speed")

        reference = pulse_runner.reference
        pulse_runner.reference = reference * (1.0 + 1e-6)
        check(not pulse_runner.unit().ok, "pulse gate fails on a wrong final energy")
        pulse_runner.reference = reference

        counts = []
        for _ in range(2):
            tracer = Tracer()
            unit = pulse_runner.unit(tracer)
            check(unit.ok and tracer.steps == unit.steps,
                  f"traced unit passes its gate and counts {unit.steps} steps")
            metrics = tracer.metrics()
            check(set(metrics) | {"trace.run_s", "trace.overhead_ms"} == set(LAYER_UNITS),
                  "traced unit reports every per-layer metric")
            covered = (sum(tracer.layer_self_ms().values())
                       + 1000.0 * tracer.instrumentation)
            check(abs(covered - 1000.0 * unit.run_s) <= 1e-6 * 1000.0 * unit.run_s,
                  f"layer self times account for the traced run "
                  f"({covered:.3f} of {1000.0 * unit.run_s:.3f} ms)")
            check(tracer.factors["other"] == 0 and min(
                tracer.factors[k] for k in ("fluid", "wall", "trace")) > 0,
                f"every factorization is classified: {tracer.factors}")
            counts.append(tracer.exact_counts())
        check(counts[0] == counts[1], "exact counts repeat across traced units")
        tracer = Tracer()
        unit = rigid_runner.unit(tracer)
        check(unit.ok and tracer.steps == unit.steps == tracer.factors["fluid"],
              f"traced rigid unit counts one step per fluid factorization "
              f"({tracer.steps} steps)")
        state = tmp / "counts.json"
        check(run.check_counts(state, "k", counts[0]) == [], "counts are recorded")
        check(run.check_counts(state, "k", counts[1]) == [], "equal counts pass")
        changed = dict(counts[1], steps=counts[1]["steps"] + 1)
        check(run.check_counts(state, "k", changed) != [], "a changed count is caught")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            run.TMP_PARENT.rmdir()
        except OSError:
            pass

    print("selftest " + ("PASS" if not FAILURES else f"FAIL ({len(FAILURES)})"))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
