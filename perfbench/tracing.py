"""Span tracing of lpadapt's public callables, installed from outside the package.

Each traced callable is replaced by a wrapper that records one span (name,
start, end, parent) per call.  Functions are rebound in every ``lpadapt.*``
module that holds a reference to them, so names imported by other modules
(``from .calibration import replicate_noise``) are caught as well; methods are
replaced on their class.  ``uninstall`` restores every original object, so an
untraced pass runs the unmodified program.

Computed counts are read from the objects a wrapped call returns (array
shapes and non-zero counts), not measured.  The hooks that read them run in
spans of their own, named ``trace.hook``, so their cost lands in the tracing
overhead and not in the self time of a layer.
"""

from __future__ import annotations

import csv
import functools
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

from lpadapt.calibration import SelectionEnsemble
from lpadapt.local_model import LadderDesign

HOOK_SPAN = "trace.hook"

# span name -> callables it covers, as (module, attribute) for functions and
# (class, method) for methods
SPANS = {
    "cli.main": [("lpadapt.cli", "main")],
    "cli.ingest_csv": [("lpadapt.cli", "ingest_csv")],
    "local_model.design": [(LadderDesign, "__init__")],
    "local_model.fit": [(LadderDesign, "fit")],
    "local_model.fit_stacked": [(LadderDesign, "fit_stacked")],
    "fll_selector.fit_curve": [("lpadapt.fll_selector", "fit_curve")],
    "fll_selector.select": [("lpadapt.fll_selector", "select_adaptive")],
    "fll_selector.estimate": [("lpadapt.fll_selector", "adaptive_estimate")],
    "calibration.noise": [("lpadapt.calibration", "replicate_noise")],
    "calibration.ensemble": [(SelectionEnsemble, "__init__")],
    "calibration.sweep": [(SelectionEnsemble, "k_hat"), (SelectionEnsemble, "gap_forms"), (SelectionEnsemble, "pc_moments")],
    "calibration.mc_calibrate": [("lpadapt.calibration", "mc_calibrate")],
    "calibration.validate_pc": [("lpadapt.calibration", "validate_pc")],
    "sim_harness.risk_experiment": [("lpadapt.sim_harness", "risk_experiment")],
    "oracle_diagnostics.report": [("lpadapt.oracle_diagnostics", "build_oracle_report")],
    "oracle_diagnostics.joint_covariance": [("lpadapt.oracle_diagnostics", "joint_covariance")],
    "verification.run_all": [("lpadapt.verification", "run_all")],
}

# computed counts, each read from the objects of one layer
COUNTS = (
    "local_model.design.entries",
    "local_model.design.active_ratio",
    "local_model.design.truncated",
    "fll_selector.early_stop_ratio",
    "calibration.noise.draws",
    "calibration.ensemble.bytes",
    "verification.checks_failed",
)


def _count_design(counts: Counter, args, result):
    ld = args[0]
    counts["design.entries"] += sum(len(w) for w in ld.weights_list)
    counts["design.active"] += sum(int(np.count_nonzero(w)) for w in ld.weights_list)
    counts["design.truncated"] += ld.truncated_at is not None


def _count_select(counts: Counter, args, result):
    counts["select.points"] += 1
    counts["select.early"] += result.k_hat < len(args[0])


def _count_noise(counts: Counter, args, result):
    counts["noise.draws"] += result.size


def _count_ensemble(counts: Counter, args, result):
    ens = args[0]
    observations = ens.mc * ens.ld.points.shape[0] * np.dtype(float).itemsize
    counts["ensemble.bytes"] += observations + ens.T_small.nbytes + ens.T_large.nbytes


def _count_checks(counts: Counter, args, result):
    counts["checks.failed"] += sum(not r.passed for r in result)


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(".bytes"):
        return "B"
    return "ratio" if metric.endswith("_ratio") else "count"


HOOKS = {
    "local_model.design": _count_design,
    "fll_selector.select": _count_select,
    "calibration.noise": _count_noise,
    "calibration.ensemble": _count_ensemble,
    "verification.run_all": _count_checks,
}


class Tracer:
    """In-memory span recorder for one traced pass at a time."""

    def __init__(self):
        self.names: list[str] = list(SPANS) + [HOOK_SPAN]
        self._restore: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self):
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.errors = 0
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        name_id = self.names.index(name)
        hook = HOOKS.get(name)
        hook_id = self.names.index(HOOK_SPAN)
        ids, starts, ends, parents, stack, counts = (
            self.name_id, self.start, self.end, self.parent, self._stack, self.counts
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors += 1
                raise
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hidx = len(starts)
                ids.append(hook_id)
                parents.append(stack[-1] if stack else -1)
                starts.append(perf_counter())
                ends.append(0.0)
                hook(counts, args, result)
                ends[hidx] = perf_counter()
            return result

        return wrapper

    def install(self):
        """Replace every traced callable; bound to this tracer's current buffers."""
        self.reset()
        modules = [m for n, m in list(sys.modules.items()) if m is not None and (n == "lpadapt" or n.startswith("lpadapt."))]
        for name, targets in SPANS.items():
            for owner, attr in targets:
                if isinstance(owner, str):
                    original = getattr(sys.modules[owner], attr)
                    wrapper = self._wrap(name, original)
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._restore.append((mod, key, original))
                                setattr(mod, key, wrapper)
                else:
                    original = owner.__dict__[attr]
                    self._restore.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(name, original))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Per-span call counts and self times, the computed counts, and the
        number of traced calls that raised."""
        n = len(self.start)
        start = np.frombuffer(self.start, dtype=float, count=n)
        end = np.frombuffer(self.end, dtype=float, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        name_id = np.frombuffer(self.name_id, dtype=np.int32, count=n)
        duration = end - start
        # self time: duration minus the time covered by direct children, which
        # on one thread are disjoint and lie inside their parent's interval
        child_time = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child_time, parent[has_parent], duration[has_parent])
        self_time = duration - child_time
        calls = np.bincount(name_id, minlength=len(self.names))
        busy = np.bincount(name_id, weights=self_time, minlength=len(self.names))

        out: dict[str, float] = {}
        for i, name in enumerate(self.names[:-1]):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(busy[i])
        c = self.counts
        out["local_model.design.entries"] = int(c["design.entries"])
        out["local_model.design.active_ratio"] = c["design.active"] / c["design.entries"] if c["design.entries"] else 0.0
        out["local_model.design.truncated"] = int(c["design.truncated"])
        out["fll_selector.early_stop_ratio"] = c["select.early"] / c["select.points"] if c["select.points"] else 0.0
        out["calibration.noise.draws"] = int(c["noise.draws"])
        out["calibration.ensemble.bytes"] = int(c["ensemble.bytes"])
        out["verification.checks_failed"] = int(c["checks.failed"])
        out["trace.span_errors"] = self.errors
        return out

    def write(self, path: str):
        """Write the spans of the last traced pass as CSV (times in seconds)."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "name", "start_s", "end_s", "parent"])
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.start)):
                writer.writerow([i, self.names[self.name_id[i]], f"{self.start[i] - t0:.9f}", f"{self.end[i] - t0:.9f}", self.parent[i]])
