"""Workloads of the benchmark: inputs drawn from the seed, one timed unit of
work per workload, and the correctness gate each unit must pass.

Every workload is a closed loop: one unit at a time, from one process.  The
seed draws only forcing data; the shipped mesh and step count fix the
amount of work.  The seed picks one of ``DRAWS`` forcing draws, so that a
reference final energy can be recorded for every pulse-fine input.
"""

import contextlib
import io
import json
import os
import random
import re
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field

from calibrate import Calibration
from wallflow import cli, config, driver, energy

DRAWS = 8

# Gate tolerances, as in tests/test_acceptance.py; never loosen them.
ORDER_RANGE = (0.8, 1.3)
GAP_ORDER_MIN = 0.45
POISEUILLE_TOL = 0.02
# final-energy match against the recorded reference: the acceptance
# module's fluid-step tolerance, relative
ENERGY_RTOL = 1e-8

# `wallflow converge` defaults: rungs n, 2n, 4n, 8n, reference 8 * 8n
LADDER_RUNGS = 4
LADDER_REFINEMENT = 8


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "pulse", "ladder" or "rigid"
    config: str               # shipped configuration, under configs/
    ranges: dict              # forcing parameter -> (low, high)
    overrides: dict = field(default_factory=dict)   # section -> keys to replace


WORKLOADS = {w.name: w for w in (
    Workload("pulse-fine", "pulse", "pulse.json",
             {"amplitude": (16000.0, 24000.0), "duration": (0.0045, 0.0055)}),
    Workload("converge-ladder", "ladder", "convergence_pulse.json",
             {"amplitude": (16000.0, 24000.0), "duration": (0.0038, 0.0042)}),
    Workload("poiseuille-rigid", "rigid", "poiseuille_rigid.json",
             {"inlet": (0.8, 1.2)}),
)}


def draw_index(seed):
    return seed % DRAWS


def draw(workload, seed):
    """Forcing parameters of ``workload`` for ``seed``."""
    rng = random.Random(f"{workload.name}/{draw_index(seed)}")
    return {k: rng.uniform(lo, hi) for k, (lo, hi) in sorted(workload.ranges.items())}


def write_config(root, workload, params, workdir):
    """Write the shipped config with the drawn forcing, and every output
    directed into ``workdir``; returns its path."""
    with open(os.path.join(root, "configs", workload.config)) as f:
        raw = json.load(f)
    for section, values in workload.overrides.items():
        raw.setdefault(section, {}).update(values)
    inlet = raw["waveform"]["inlet"]
    if workload.kind == "rigid":
        inlet["value"] = params["inlet"]
    else:
        inlet["amplitude"] = params["amplitude"]
        inlet["duration"] = params["duration"]
    raw["output"]["directory"] = os.path.join(workdir, "out")
    path = os.path.join(workdir, "config.json")
    with open(path, "w") as f:
        json.dump(raw, f, indent=1)
    return path


@dataclass
class Unit:
    """One timed unit of a workload and its gate verdict.  An untraced unit
    carries the host-speed ``calibration`` taken while it ran, and its
    ``run_s`` leaves out the time spent in the calibration kernel."""
    run_s: float
    steps: int
    ok: bool
    detail: str
    calibration: Calibration = None


class Runner:
    """Runs units of one workload on one generated config."""

    def __init__(self, workload, config_path, reference=None):
        self.workload = workload
        self.config_path = config_path
        self.reference = reference    # pulse: recorded final energy
        self.cfg = config.load_config(config_path)

    def setup_samples(self, calibration, min_samples=8, min_seconds=1.0,
                      max_samples=100):
        """Times of ``load_config`` plus ``RunSetup``, after one untimed
        warm-up call; ``calibration`` samples the host speed before each."""
        samples = []
        load, setup = config.load_config, driver.RunSetup
        setup(load(self.config_path))
        begin = time.perf_counter()
        while len(samples) < max_samples and (
                len(samples) < min_samples
                or time.perf_counter() - begin < min_seconds):
            calibration.sample()
            start = time.perf_counter()
            setup(load(self.config_path))
            samples.append(time.perf_counter() - start)
        return samples

    def entry(self):
        """The workload's public entry call; returns what its gate needs."""
        kind = self.workload.kind
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            if kind == "pulse":
                ledger = os.path.join(self.cfg["output"]["directory"], "ledger.csv")
                codes = (cli.main(["run", self.config_path]),
                         cli.main(["verify", ledger]))
                return {"codes": codes, "ledger": ledger, "log": out.getvalue()}
            if kind == "ladder":
                base = self.cfg["time"]["n_steps"]
                rungs = [base * 2**i for i in range(LADDER_RUNGS)]
                reference = rungs[-1] * LADDER_REFINEMENT
                report = driver.self_convergence_study(
                    self.cfg, rungs, reference)
                return {"report": report, "steps": sum(rungs) + reference}
            code = cli.main(["poiseuille", self.config_path,
                             "--tolerance", repr(POISEUILLE_TOL)])
            return {"codes": (code,), "log": out.getvalue()}

    def unit(self, tracer=None):
        """Time one entry call, untraced or under ``tracer``; then gate it."""
        # a unit must never read the outputs of the one before it
        shutil.rmtree(self.cfg["output"]["directory"], ignore_errors=True)
        start = time.perf_counter()
        calibration = None
        try:
            if tracer is None:
                calibration = Calibration()
                result, elapsed = calibration.timed(self.entry)
            else:
                result, elapsed = tracer.traced(self.entry)
            ok, steps, detail = getattr(self, f"_gate_{self.workload.kind}")(result)
        except Exception as exc:   # a crashing unit is a failed unit
            traceback.print_exc(file=sys.stderr)
            return Unit(time.perf_counter() - start, 0, False,
                        f"raised {type(exc).__name__}: {exc}")
        return Unit(elapsed, steps, ok, detail, calibration)

    def _gate_pulse(self, result):
        codes = result["codes"]
        if codes != (0, 0):
            return False, 0, f"exit codes run/verify {codes}: {result['log'][-500:]}"
        ledger = energy.load_ledger(result["ledger"])
        verdict = energy.verify_run(ledger)
        steps = len(ledger)
        if not verdict.ok:
            return False, steps, "verify_run verdict FAIL on the stored ledger"
        if steps != self.cfg["time"]["n_steps"]:
            return False, steps, f"ledger holds {steps} of {self.cfg['time']['n_steps']} steps"
        final = float(ledger.rows[-1]["e_full"])
        if self.reference is None:
            return False, steps, f"no reference final energy (got {final!r})"
        rel = abs(final - self.reference) / abs(self.reference)
        ok = rel <= ENERGY_RTOL
        return ok, steps, (f"verify PASS, final energy {final!r}, relative "
                           f"difference to reference {rel:.2e} "
                           f"({'<=' if ok else '>'} {ENERGY_RTOL:g})")

    def _gate_ladder(self, result):
        rep = result["report"]
        lo, hi = ORDER_RANGE
        orders = {k: rep.orders[k] for k in ("eta", "u", "v")}
        ok = (all(lo <= o <= hi for o in orders.values())
              and rep.gap_order >= GAP_ORDER_MIN)
        text = ", ".join(f"{k} {o:.4f}" for k, o in orders.items())
        return ok, result["steps"], (f"orders {text} (in [{lo}, {hi}]), "
                                     f"gap order {rep.gap_order:.4f} "
                                     f"(>= {GAP_ORDER_MIN})")

    def _gate_rigid(self, result):
        code, = result["codes"]
        found = re.search(r"steady after (\d+) steps", result["log"])
        steps = int(found.group(1)) if found else 0
        error = re.search(r"profile L2 relative error: (\S+)", result["log"])
        detail = f"exit {code}, {steps} steps, profile error " + (
            error.group(1) if error else "?") + f" (<= {POISEUILLE_TOL:.0%})"
        return code == 0 and steps > 0, steps, detail
