"""Span tracer for the benchmark's traced runs.

The tracer wraps public functions and methods of the ``wallflow`` modules
from outside the package, so the program itself is not edited.  A name that
another module imported with ``from .x import y`` is replaced in that module
too, because that is where its caller looks it up.  Each call is a span
named ``module.attribute``, opened inside the span of its caller; a closed
span is added to its name's totals in memory, which are read when the run
ends.

A span's self time is its duration minus the time its child spans cover.
Work the tracer does for its own counters (residual checks, reading the LU
fill) is timed separately and excluded from every span, so it shows only in
the tracing overhead.

:func:`install_wrappers` also serves the host-speed calibration of untraced
units (``calibrate.py``), which wraps only the calls that open a time step.
"""

import functools
import importlib
import os
import sys
import time
import types
import weakref

import numpy as np

# (module, attribute path) of every wrapped callable.  ``assemble_*`` expands
# to every assembly function the module defines.  A target missing from the
# program is skipped, so the benchmark keeps running when a later change
# removes or renames it; its metrics then read zero.
TARGETS = (
    ("sparsela", "DirectFactor.__init__"),
    ("sparsela", "DirectFactor.solve"),
    ("sparsela", "factor_solve"),
    ("sparsela", "krylov_solve"),
    ("fluid", "assemble_*"),
    ("coupling", "fluid_step"),
    ("coupling", "rigid_fluid_step"),
    ("coupling", "reduce_coupled_system"),
    ("shell", "structure_step"),
    ("ale", "build_snapshot"),
    ("ale", "min_radius_of"),
    ("energy", "EnergyMonitor.record_step"),
    ("energy", "discrete_trace_constant"),
    ("energy", "load_ledger"),
    ("energy", "verify_run"),
    ("driver", "RunSetup.__init__"),
    ("driver", "run"),
    ("driver", "run_rigid_steady"),
    ("driver", "poiseuille_profile_error"),
    ("driver", "self_convergence_study"),
    ("driver", "_run_final"),
    ("exporters", "write_outputs"),
    ("config", "load_config"),
)

FACTOR = "sparsela.DirectFactor.__init__"
SOLVES = ("sparsela.DirectFactor.solve", "sparsela.krylov_solve")
WALL_STEP = "shell.structure_step"
FLUID_STEPS = ("coupling.fluid_step", "coupling.rigid_fluid_step")
# the calls that open a time step, as (module, attribute path)
STEP_TARGETS = tuple(tuple(n.split(".", 1)) for n in (WALL_STEP,) + FLUID_STEPS)
RUN_LOOPS = ("driver.run", "driver.run_rigid_steady")
DRIVER_LOOPS = RUN_LOOPS + ("driver.poiseuille_profile_error",
                            "driver.self_convergence_study",
                            "driver._run_final")
ROOT = "workload"

# unit of every per-layer metric :meth:`Tracer.metrics` returns
LAYER_UNITS = {
    "sparsela.factor_ms": "ms",
    "sparsela.factor_calls.fluid": "count",
    "sparsela.factor_calls.wall": "count",
    "sparsela.factor_calls.trace": "count",
    "sparsela.solve_ms": "ms",
    "sparsela.solves_per_factor": "ratio",
    "sparsela.system_unknowns": "count",
    "sparsela.system_nnz": "count",
    "sparsela.lu_fill_nnz": "count",
    "sparsela.solve_rel_residual_max": "ratio",
    "fluid.assembly_ms": "ms",
    "fluid.assembly_calls": "calls/step",
    "fluid.mass_assembly_calls": "calls/step",
    "coupling.fluid_step_ms": "ms",
    "coupling.fluid_step_self_ms": "ms",
    "coupling.reduce_ms": "ms",
    "coupling.rigid_step_ms": "ms",
    "shell.structure_step_ms": "ms",
    "ale.build_snapshot_ms": "ms",
    "ale.min_radius_calls": "calls/step",
    "energy.record_step_ms": "ms",
    "energy.trace_constant_ms": "ms",
    "energy.load_ledger_ms": "ms",
    "energy.verify_ms": "ms",
    "driver.setup_calls": "count",
    "driver.setup_ms": "ms",
    "driver.loop_self_ms": "ms",
    "exporters.write_outputs_ms": "ms",
    "exporters.bytes_written": "bytes",
    "trace.steps": "count",
    "trace.run_s": "s",
    "trace.overhead_ms": "ms",
    "trace.uncovered_ms": "ms",
    "trace.instrumentation_ms": "ms",
}


def install_wrappers(package, targets, wrap):
    """Replace each (module, attribute path) of ``targets`` by
    ``wrap(name, original)``, also in every module of ``package`` that
    imported it by name; returns (patches, targets not found)."""
    patches, missing = [], []
    for mod_name, path in targets:
        try:
            mod = importlib.import_module(f"{package}.{mod_name}")
        except ImportError:
            missing.append(f"{mod_name}.{path}")
            continue
        paths = [path]
        if path.endswith("*"):
            paths = sorted(k for k, v in vars(mod).items()
                           if k.startswith(path[:-1]) and callable(v)
                           and getattr(v, "__module__", None) == mod.__name__)
        for p in paths:
            owner = mod
            *parents, attr = p.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                missing.append(f"{mod_name}.{p}")
                continue
            wrapper = wrap(f"{mod_name}.{p}", original)
            setattr(owner, attr, wrapper)
            patches.append((owner, attr, original, wrapper))
    prefix = package + "."
    modules = [m for k, m in list(sys.modules.items())
               if m is not None and (k == package or k.startswith(prefix))]
    for owner, attr, original, wrapper in list(patches):
        if not isinstance(owner, types.ModuleType):
            continue
        for m in modules:
            for k, v in list(vars(m).items()):
                if v is original:
                    setattr(m, k, wrapper)
                    patches.append((m, k, original, wrapper))
    return patches, missing


def uninstall_wrappers(patches):
    for owner, attr, original, _ in reversed(patches):
        setattr(owner, attr, original)
    patches.clear()


class _Stat:
    __slots__ = ("calls", "total", "self", "in_step")

    def __init__(self):
        self.calls = 0
        self.in_step = 0
        self.total = 0.0
        self.self = 0.0


class Tracer:
    """Collects spans while installed; see :meth:`traced` and :meth:`metrics`."""

    def __init__(self, package="wallflow"):
        self.package = package
        self.stats = {}
        self.stack = []            # open spans: [name, time covered by children]
        self.steps = 0
        self.in_step = False
        self.wall_pending = False  # a wall half step opened the current step
        self.factors = {"fluid": 0, "wall": 0, "trace": 0, "other": 0}
        self.fluid_system = None   # (unknowns, nnz, L+U nnz) of the first fluid factor
        self.residual_max = 0.0
        self.bytes_written = 0
        self.instrumentation = 0.0
        self.missing = []
        self._matrices = weakref.WeakKeyDictionary()
        self._patches = []

    # -- installing the wrappers ---------------------------------------------

    def install(self):
        self._patches, missing = install_wrappers(self.package, TARGETS, self._wrap)
        self.missing.extend(missing)

    def uninstall(self):
        uninstall_wrappers(self._patches)

    def traced(self, fn, *args, **kwargs):
        """Call ``fn`` under a root span with every wrapper installed;
        returns (result, traced wall time in seconds)."""
        self.install()
        try:
            self._begin(ROOT)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._end(ROOT, elapsed)
        finally:
            self.uninstall()
        return result, elapsed

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._begin(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._end(name, time.perf_counter() - start)
            tracer._inspect(name, args, result)
            return result

        return wrapper

    def _begin(self, name):
        if name == WALL_STEP:
            self._new_step()
            self.wall_pending = True
        elif name in FLUID_STEPS:
            if self.wall_pending:
                self.wall_pending = False
            else:
                self._new_step()
        elif name in RUN_LOOPS:
            self.in_step = self.wall_pending = False
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = _Stat()
        stat.calls += 1
        stat.in_step += self.in_step
        self.stack.append([name, 0.0])

    def _new_step(self):
        self.steps += 1
        self.in_step = True

    def _end(self, name, elapsed):
        _, covered = self.stack.pop()
        stat = self.stats[name]
        stat.total += elapsed
        stat.self += elapsed - covered
        if self.stack:
            self.stack[-1][1] += elapsed
        if name in RUN_LOOPS:
            self.in_step = self.wall_pending = False

    def _inspect(self, name, args, result):
        """Counters that need extra work; their cost is excluded from spans."""
        if name != FACTOR and name not in SOLVES and name != "exporters.write_outputs":
            return
        start = time.perf_counter()
        if name == FACTOR:
            self._count_factor(args[0], args[1])
        elif name == "exporters.write_outputs":
            self.bytes_written += sum(os.path.getsize(p) for p in result
                                      if os.path.isfile(p))
        else:
            a = self._matrices.get(args[0]) if name == SOLVES[0] else args[0]
            b = np.asarray(args[1], dtype=float)
            norm_b = float(np.linalg.norm(b))
            if a is not None and norm_b > 0.0:
                rel = float(np.linalg.norm(a @ result - b)) / norm_b
                self.residual_max = max(self.residual_max, rel)
        spent = time.perf_counter() - start
        self.instrumentation += spent
        self.stack[-1][1] += spent

    def _count_factor(self, factor, a):
        open_spans = {frame[0] for frame in self.stack}
        if WALL_STEP in open_spans:
            kind = "wall"
        elif "energy.discrete_trace_constant" in open_spans:
            kind = "trace"
        elif open_spans.intersection(FLUID_STEPS):
            kind = "fluid"
        else:
            kind = "other"
        self.factors[kind] += 1
        self._matrices[factor] = a
        if kind == "fluid" and self.fluid_system is None:
            lu = getattr(factor, "_lu", None)
            fill = lu.L.nnz + lu.U.nnz if lu is not None else 0
            self.fluid_system = (int(a.shape[0]), int(a.nnz), int(fill))

    # -- results -------------------------------------------------------------

    def _get(self, name):
        return self.stats.get(name) or _Stat()

    def _total_ms(self, *names):
        return 1000.0 * sum(self._get(n).total for n in names)

    def _calls(self, *names):
        return sum(self._get(n).calls for n in names)

    def _in_step(self, *names):
        return sum(self._get(n).in_step for n in names)

    def layer_self_ms(self):
        """Self time per module, in ms; the root span's self time is the part
        of the run no wrapped function covers."""
        out = {}
        for name, stat in self.stats.items():
            layer = "uncovered" if name == ROOT else name.split(".")[0]
            out[layer] = out.get(layer, 0.0) + 1000.0 * stat.self
        return out

    def exact_counts(self):
        """Counts that repeat exactly for one program and one input."""
        assembly = [n for n in self.stats if n.startswith("fluid.assemble_")]
        unknowns, nnz, fill = self.fluid_system or (0, 0, 0)
        counts = {f"factor_calls.{k}": v for k, v in self.factors.items()}
        counts.update({
            "steps": self.steps,
            "solve_calls": self._calls(*SOLVES),
            "assembly_calls": self._calls(*assembly),
            "mass_assembly_calls": self._calls("fluid.assemble_weighted_mass"),
            "min_radius_calls": self._calls("ale.min_radius_of"),
            "setup_calls": self._calls("driver.RunSetup.__init__"),
            "system_unknowns": unknowns,
            "system_nnz": nnz,
            "lu_fill_nnz": fill,
            "bytes_written": self.bytes_written,
        })
        return counts

    def metrics(self):
        """Per-layer metrics: times in ms over the whole traced call, counts
        per run or per step as :data:`LAYER_UNITS` says.  ``trace.run_s`` and
        ``trace.overhead_ms`` need the untraced run and are added by the
        caller."""
        steps = max(self.steps, 1)
        assembly = [n for n in self.stats if n.startswith("fluid.assemble_")]
        factor_calls = self._calls(FACTOR)
        unknowns, nnz, fill = self.fluid_system or (0, 0, 0)
        return {
            "sparsela.factor_ms": self._total_ms(FACTOR),
            "sparsela.factor_calls.fluid": self.factors["fluid"],
            "sparsela.factor_calls.wall": self.factors["wall"],
            "sparsela.factor_calls.trace": self.factors["trace"],
            "sparsela.solve_ms": self._total_ms(*SOLVES),
            "sparsela.solves_per_factor":
                self._calls(*SOLVES) / factor_calls if factor_calls else 0.0,
            "sparsela.system_unknowns": unknowns,
            "sparsela.system_nnz": nnz,
            "sparsela.lu_fill_nnz": fill,
            "sparsela.solve_rel_residual_max": self.residual_max,
            "fluid.assembly_ms": self._total_ms(*assembly),
            "fluid.assembly_calls": self._in_step(*assembly) / steps,
            "fluid.mass_assembly_calls":
                self._in_step("fluid.assemble_weighted_mass") / steps,
            "coupling.fluid_step_ms": self._total_ms("coupling.fluid_step"),
            "coupling.fluid_step_self_ms":
                1000.0 * self._get("coupling.fluid_step").self,
            "coupling.reduce_ms": self._total_ms("coupling.reduce_coupled_system"),
            "coupling.rigid_step_ms": self._total_ms("coupling.rigid_fluid_step"),
            "shell.structure_step_ms": self._total_ms(WALL_STEP),
            "ale.build_snapshot_ms": self._total_ms("ale.build_snapshot"),
            "ale.min_radius_calls": self._in_step("ale.min_radius_of") / steps,
            "energy.record_step_ms": self._total_ms("energy.EnergyMonitor.record_step"),
            "energy.trace_constant_ms":
                self._total_ms("energy.discrete_trace_constant"),
            "energy.load_ledger_ms": self._total_ms("energy.load_ledger"),
            "energy.verify_ms": self._total_ms("energy.verify_run"),
            "driver.setup_calls": self._calls("driver.RunSetup.__init__"),
            "driver.setup_ms": self._total_ms("driver.RunSetup.__init__"),
            "driver.loop_self_ms":
                1000.0 * sum(self._get(n).self for n in DRIVER_LOOPS),
            "exporters.write_outputs_ms": self._total_ms("exporters.write_outputs"),
            "exporters.bytes_written": self.bytes_written,
            "trace.steps": self.steps,
            "trace.uncovered_ms": 1000.0 * self._get(ROOT).self,
            "trace.instrumentation_ms": 1000.0 * self.instrumentation,
        }
