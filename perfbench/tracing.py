"""Per-layer tracing from outside the package.

The modules bind each other's functions with ``from … import``, so a wrapper
has to replace every binding of a function, not just the defining one:
``turandet.cli.check_theorem1`` and ``turandet.families.check_theorem1`` are
separate names for one function. ``Tracer.install`` walks the package's
modules and swaps each binding of a traced function for a timing wrapper;
``uninstall`` puts the originals back.

Spans nest on a stack; a span's self time is its duration minus the time its
child spans cover. Per-call counts and times are aggregated in memory and read
with ``metrics()`` after each pass. Tracing never changes what a call returns,
except that families returned by ``build`` get counting coefficient callables.
"""
from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from collections import defaultdict

MODULES = ("turandet", "turandet.cli", "turandet.families", "turandet.recurrence",
           "turandet.criteria", "turandet.turan", "turandet.density", "turandet.arith")

# traced function -> span name
SPANS = {
    ("cli", "main"): "cli",
    ("families", "build"): "families.build",
    ("families", "classify"): "families.classify",
    ("recurrence", "coefficients"): "recurrence.coefficients",
    ("recurrence", "ratios_at_one"): "recurrence.ratios_at_one",
    ("recurrence", "normalize"): "recurrence.normalize",
    ("recurrence", "ratio_sandwich"): "recurrence.ratio_sandwich",
    ("recurrence", "orthonormal_offdiag"): "recurrence.orthonormal_offdiag",
    ("criteria", "check_theorem1"): "criteria.check_theorem1",
    ("criteria", "check_szw_normalized"): "criteria.check_szw_normalized",
    ("criteria", "check_lambda_route"): "criteria.check_lambda_route",
    ("criteria", "check_y_route"): "criteria.check_y_route",
    ("criteria", "check_corollary1"): "criteria.check_corollary1",
    ("criteria", "lambda_data"): "criteria.lambda_data",
    ("turan", "grid_scan"): "turan.grid_scan",
    ("turan", "scaled_scan"): "turan.scaled_scan",
    ("density", "estimate_density"): "density.estimate_density",
}
COEFF_SPAN = "families.coeff_eval"
NEAR_ZERO = 1e-10


class Tracer:
    """Span timings and layer counters for one process."""

    def __init__(self):
        self._stack: list[float] = []  # child time covered, per open span
        self._replaced: list[tuple] = []  # (module, attribute, original)
        self.reset()

    def reset(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` in a span; ``after(args, kwargs, result)`` runs inside it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result)
                return result
            finally:
                dt = time.perf_counter() - t0
                child = self._stack.pop()
                if self._stack:
                    self._stack[-1] += dt
                self.calls[name] += 1
                self.total[name] += dt
                self.self_time[name] += dt - child

        return traced

    # --- counters filled from return values ---

    def _after_build(self, args, kwargs, family) -> None:
        # CoefficientFamily is frozen; the counting callables replace the
        # originals in place so no second __post_init__ evaluation is counted.
        object.__setattr__(family, "alpha", self.span(COEFF_SPAN, family.alpha))
        object.__setattr__(family, "gamma", self.span(COEFF_SPAN, family.gamma))

    def _after_ratios(self, args, kwargs, seq) -> None:
        if args[0].exact and not seq.exact:
            self.counts["recurrence.ratios_at_one.fallbacks"] += 1

    def _after_scan(self, args, kwargs, report) -> None:
        cells = (report.n_range[1] + 2) * report.grid.points
        self.counts["turan.cells"] += cells
        self.counts["turan.table_mb"] = max(self.counts["turan.table_mb"], cells * 8 / 1e6)
        near = [e for e in report.per_n if abs(e.min_value) < NEAR_ZERO]
        self.counts["turan.near_zero_minima"] += len(near)
        self.counts["turan.confirm_abscissas"] += len({e.argmin_x for e in near})

    def _after_density(self, args, kwargs, est) -> None:
        self.counts["density.steps"] += est.N * len(est.xs)

    def _traced_memory(self, fn):
        """tracemalloc peak over one scan call (tracing only during the call)."""

        @functools.wraps(fn)
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / 1e6
                tracemalloc.stop()
                self.counts["turan.traced_peak_mb"] = max(
                    self.counts["turan.traced_peak_mb"], peak)

        return measured

    def install(self, memory: bool = False) -> None:
        """Replace every binding of each traced function in the package.

        memory=True installs only tracemalloc around the turan scans instead:
        tracemalloc slows every allocation, so it gets a pass of its own and
        never distorts the span times.
        """
        modules = [sys.modules[m] for m in MODULES]
        after = {"families.build": self._after_build,
                 "recurrence.ratios_at_one": self._after_ratios,
                 "turan.grid_scan": self._after_scan,
                 "turan.scaled_scan": self._after_scan,
                 "density.estimate_density": self._after_density}
        wrappers = {}
        for (mod, attr), name in SPANS.items():
            original = getattr(sys.modules[f"turandet.{mod}"], attr)
            if not memory:
                wrappers[id(original)] = (original, self.span(name, original, after.get(name)))
            elif name.startswith("turan."):
                wrappers[id(original)] = (original, self._traced_memory(original))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._replaced.append((module, attr, value))

    def uninstall(self) -> None:
        """Put every original binding back."""
        for module, attr, original in self._replaced:
            setattr(module, attr, original)
        self._replaced.clear()

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset."""
        t, s, c = self.total, self.self_time, self.calls
        out = {
            "cli.self_s": s["cli"],
            "families.build_s": t["families.build"],
            "families.coeff_evals": float(c[COEFF_SPAN]),
            "families.coeff_eval_s": t[COEFF_SPAN],
            "families.classify.self_s": s["families.classify"],
            "families.classify.calls": float(c["families.classify"]),
            "recurrence.coefficients.s": t["recurrence.coefficients"],
            "recurrence.coefficients.calls": float(c["recurrence.coefficients"]),
            "recurrence.ratios_at_one.s": t["recurrence.ratios_at_one"],
            "recurrence.ratios_at_one.calls": float(c["recurrence.ratios_at_one"]),
            "recurrence.ratios_at_one.fallbacks":
                self.counts["recurrence.ratios_at_one.fallbacks"],
            "recurrence.normalize.s": t["recurrence.normalize"],
            "recurrence.ratio_sandwich.self_s": s["recurrence.ratio_sandwich"],
            "recurrence.orthonormal_offdiag.s": t["recurrence.orthonormal_offdiag"],
        }
        for fn in ("check_theorem1", "check_szw_normalized", "check_lambda_route",
                   "check_y_route", "check_corollary1", "lambda_data"):
            out[f"criteria.{fn}.s"] = t[f"criteria.{fn}"]
            out[f"criteria.{fn}.calls"] = float(c[f"criteria.{fn}"])
        scan_self = s["turan.grid_scan"] + s["turan.scaled_scan"]
        cells = self.counts["turan.cells"]
        out.update({
            "turan.grid_scan.self_s": s["turan.grid_scan"],
            "turan.scaled_scan.self_s": s["turan.scaled_scan"],
            "turan.cells": cells,
            "turan.cells_per_s": cells / scan_self if scan_self else 0.0,
            "turan.table_mb": self.counts["turan.table_mb"],
            "turan.traced_peak_mb": self.counts["turan.traced_peak_mb"],
            "turan.near_zero_minima": self.counts["turan.near_zero_minima"],
            "turan.confirm_abscissas": self.counts["turan.confirm_abscissas"],
        })
        dens_self = s["density.estimate_density"]
        steps = self.counts["density.steps"]
        out.update({
            "density.estimate_density.self_s": dens_self,
            "density.steps": steps,
            "density.steps_per_s": steps / dens_self if dens_self else 0.0,
        })
        return out
