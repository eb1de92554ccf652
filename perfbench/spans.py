"""Timing spans around the public functions of each nakao module.

`Tracer.installed()` replaces every target function with a wrapper wherever
the package holds a reference to it: its own module, every module that
imported it by name (`nakao.lifespan.run`, `nakao.cli.write_csv`, ...) and the
package namespace.  Methods are replaced on their class.  Everything is
restored on exit, so the untraced run executes the unmodified code.

A span records name, start, end and parent.  Spans stay in memory; `layers()`
turns one operation's spans into the per-layer metrics.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import math
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# module -> public functions wrapped in the traced run
TARGETS = {
    "pde": ("run", "step", "laplacian", "functionals", "support_radius",
            "make_initial_data", "make_field", "balance_residuals"),
    "lifespan": ("sweep", "fit_powerlaw"),
    # region_scan is not called by any workload today; it is wrapped so that
    # grid building moved into it from cli.cmd_region is still attributed
    # to exponents
    "exponents": ("scan_arrays", "critical_values", "region_scan"),
    "output": ("write_csv", "write_json"),
    "cli": ("dispatch",),
    "slicing": ("lifespan_upper_bound", "iteration_bounds", "iterate",
                "thresholds"),
    "testfn": ("c2_constant", "holder_ratio", "psi_holder_norm",
               "PhiEvaluator.log_phi"),
}
MODULES = tuple(TARGETS)


# Hooks read counts at the layer boundary; they run after the span closed.

def _step_hook(tr, args, _result):
    field, params = args[0], args[1]
    nodes = field.x.size
    # nodes the solution can reach at the start of this step, |x| <= R + t + 2h,
    # on the uniform grid (symmetric about 0 for n = 1, from 0 otherwise)
    reach = params.R + (field.k - 1) * field.dt + 2.0 * field.h
    active = math.floor(reach / field.h) + 1
    if field.n == 1:
        active = 2 * active - 1
    tr.counts["pde.node_steps"] += nodes
    tr.counts["pde.active_node_steps"] += min(active, nodes)


def _run_hook(tr, args, result):
    excess = result.support_max_excess / args[2].h
    if tr.support_excess_h is None or excess > tr.support_excess_h:
        tr.support_excess_h = excess


def _sweep_hook(tr, args, result):
    tr.counts["lifespan.points"] += len(list(args[1]))
    tr.counts["lifespan.inconclusive"] += len(result.inconclusive)


def _scan_hook(tr, args, _result):
    tr.counts["exponents.cells"] += np.size(args[1])


def _csv_hook(tr, args, _result):
    tr.csv_paths.append(str(args[0]))


def _log_phi_hook(tr, args, _result):
    tr.counts["testfn.log_phi.radii"] += np.size(args[1])


HOOKS = {"pde.step": _step_hook, "pde.run": _run_hook,
         "lifespan.sweep": _sweep_hook, "exponents.scan_arrays": _scan_hook,
         "output.write_csv": _csv_hook, "testfn.log_phi": _log_phi_hook}


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index or -1, outermost of its name]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.support_excess_h: float | None = None  # max over pde.run calls
        self.csv_paths: list[str] = []
        self._stack: list[int] = []
        self._depth: Counter = Counter()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.support_excess_h = None
        self.csv_paths.clear()

    def wrap(self, name: str, fn):
        spans, stack, depth = self.spans, self._stack, self._depth
        hook = HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   depth[name] == 0]
            stack.append(len(spans))
            spans.append(rec)
            depth[name] += 1
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                depth[name] -= 1
                stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        package = [m for k, m in sys.modules.items()
                   if k == "nakao" or k.startswith("nakao.")]
        undo = []
        try:
            for mod_name, attrs in TARGETS.items():
                module = importlib.import_module(f"nakao.{mod_name}")
                for attr in attrs:
                    if "." in attr:
                        cls_name, meth = attr.split(".")
                        cls = getattr(module, cls_name)
                        orig = cls.__dict__[meth]
                        setattr(cls, meth, self.wrap(f"{mod_name}.{meth}", orig))
                        undo.append((cls, meth, orig))
                        continue
                    orig = getattr(module, attr)
                    wrapper = self.wrap(f"{mod_name}.{attr}", orig)
                    for holder in package:
                        for key, value in list(vars(holder).items()):
                            if value is orig:
                                setattr(holder, key, wrapper)
                                undo.append((holder, key, orig))
            yield self
        finally:
            for holder, key, orig in reversed(undo):
                setattr(holder, key, orig)

    def summary(self):
        """Per span name: calls, busy seconds (outermost spans only, so
        recursion is not counted twice) and self seconds (duration minus the
        direct children's durations)."""
        calls, busy, self_s = Counter(), defaultdict(float), defaultdict(float)
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        for i, (name, start, end, _parent, outer) in enumerate(self.spans):
            calls[name] += 1
            if outer:
                busy[name] += end - start
            self_s[name] += end - start - child[i]
        return calls, busy, self_s

    def layers(self, wall_s: float, csv_rows: int, csv_bytes: int) -> dict:
        """Per-layer metrics of one traced operation."""
        calls, busy, self_s = self.summary()
        c = self.counts
        step_busy = busy["pde.step"]
        out = {
            "pde.step.calls": calls["pde.step"],
            "pde.step.busy_s": step_busy,
            "pde.step.ns_per_node": _ratio(step_busy * 1e9, c["pde.node_steps"]),
            "pde.laplacian.busy_s": busy["pde.laplacian"],
            "pde.active_fraction": _ratio(c["pde.active_node_steps"],
                                          c["pde.node_steps"]),
            "pde.functionals.busy_s": busy["pde.functionals"],
            "pde.support_radius.busy_s": busy["pde.support_radius"],
            "pde.run.self_s": self_s["pde.run"],
            "pde.make_initial_data.busy_s": busy["pde.make_initial_data"],
            "pde.support_excess_h": self.support_excess_h or 0.0,
            "lifespan.sweep.self_s": self_s["lifespan.sweep"],
            "lifespan.points": c["lifespan.points"],
            "lifespan.inconclusive": c["lifespan.inconclusive"],
            "exponents.scan_arrays.busy_s": busy["exponents.scan_arrays"],
            "exponents.cells": c["exponents.cells"],
            "output.write_csv.busy_s": busy["output.write_csv"],
            "output.write_csv.rows": csv_rows,
            "output.write_csv.bytes": csv_bytes,
            "output.write_csv.ns_per_row": _ratio(
                busy["output.write_csv"] * 1e9, csv_rows),
            "output.write_json.busy_s": busy["output.write_json"],
            "cli.dispatch.busy_s": busy["cli.dispatch"],
            "slicing.lifespan_upper_bound.calls": calls["slicing.lifespan_upper_bound"],
            "slicing.lifespan_upper_bound.busy_s": busy["slicing.lifespan_upper_bound"],
            "slicing.iteration_bounds.calls": calls["slicing.iteration_bounds"],
            "slicing.iteration_bounds.busy_s": busy["slicing.iteration_bounds"],
            "slicing.iterate.calls": calls["slicing.iterate"],
            "testfn.c2_constant.busy_s": busy["testfn.c2_constant"],
            "testfn.psi_holder_norm.calls": calls["testfn.psi_holder_norm"],
            "testfn.log_phi.calls": calls["testfn.log_phi"],
            "testfn.log_phi.busy_s": busy["testfn.log_phi"],
            "testfn.log_phi.radii": c["testfn.log_phi.radii"],
        }
        # self time per module; with the benchmark's own time outside every
        # span (untraced_s) they add up to the traced wall time
        covered = 0.0
        for module in MODULES:
            s = sum(v for k, v in self_s.items() if k.startswith(module + "."))
            out[f"{module}.self_s"] = s
            covered += s
        out["traced_wall_s"] = wall_s
        out["untraced_s"] = wall_s - covered
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# name -> unit of every per-layer metric, in print order
UNITS = {
    "pde.step.calls": "count", "pde.step.busy_s": "s",
    "pde.step.ns_per_node": "ns", "pde.laplacian.busy_s": "s",
    "pde.active_fraction": "ratio", "pde.functionals.busy_s": "s",
    "pde.support_radius.busy_s": "s", "pde.run.self_s": "s",
    "pde.make_initial_data.busy_s": "s", "pde.support_excess_h": "h",
    "lifespan.sweep.self_s": "s", "lifespan.points": "count",
    "lifespan.inconclusive": "count", "exponents.scan_arrays.busy_s": "s",
    "exponents.cells": "count", "output.write_csv.busy_s": "s",
    "output.write_csv.rows": "count", "output.write_csv.bytes": "B",
    "output.write_csv.ns_per_row": "ns", "output.write_json.busy_s": "s",
    "cli.dispatch.busy_s": "s",
    "slicing.lifespan_upper_bound.calls": "count",
    "slicing.lifespan_upper_bound.busy_s": "s",
    "slicing.iteration_bounds.calls": "count",
    "slicing.iteration_bounds.busy_s": "s", "slicing.iterate.calls": "count",
    "testfn.c2_constant.busy_s": "s", "testfn.psi_holder_norm.calls": "count",
    "testfn.log_phi.calls": "count", "testfn.log_phi.busy_s": "s",
    "testfn.log_phi.radii": "count",
    **{f"{m}.self_s": "s" for m in MODULES},
    "traced_wall_s": "s", "untraced_s": "s", "trace_overhead_s": "s",
}
