"""Span tracing of cbsim's layers from outside the package.

``Tracer.patch()`` replaces module-level functions of cbsim with timing
wrappers wherever the package holds a reference to them: the defining
module, every module that imported the function by name, and module-level
dicts such as the initializer table. The originals are restored on exit.
Spans nest on one stack (the simulator is single-threaded), so a span's
self time is its duration minus the time its child spans cover.
"""
from __future__ import annotations

import importlib
import sys
from contextlib import contextmanager
from time import perf_counter

#: Functions timed as spans, by cbsim module.
SPANS = {
    "network": ("build_topology", "draw_channels", "apply_noise"),
    "initializers": ("init_cm", "init_zf", "init_mslnr"),
    "metrics": ("rate_report", "weighted_sum_rate"),
    "solver": ("solve", "lambda_bisection", "update_beams", "_all_leakages",
               "interference_all", "stationarity_residuals", "gamma_direct",
               "gamma_sherman_morrison"),
    "refim": ("reference_map", "invert_rank_r"),
}
#: The harness entry point: the root span, reported as ``experiments``.
ROOT = ("experiments", "run_experiment")
#: Counted, not timed: one call is one evaluation of the dual function f(lambda).
COUNTED = ("solver", "_betas_power")


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.solve_ms: list[float] = []
        self.solver_traces: list = []
        self.absent: set[str] = set()
        self._stack: list[float] = []

    def _span(self, name: str, fn):
        self.calls.setdefault(name, 0)
        self.self_s.setdefault(name, 0.0)
        is_solve = name == "solver.solve"

        def wrapper(*args, **kwargs):
            self._stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = self._stack.pop()
                self.calls[name] += 1
                self.self_s[name] += elapsed - children
                if self._stack:
                    self._stack[-1] += elapsed
            if is_solve:
                self.solve_ms.append(elapsed * 1e3)
                self.solver_traces.append(result[1])
            return result
        return wrapper

    def _counter(self, name: str, fn):
        self.calls.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def patch(self):
        """Wrap every traced function for the duration of the block."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "cbsim" or n.startswith("cbsim.")]
        targets = [(mod, fn, f"{mod}.{fn}", self._span)
                   for mod, fns in SPANS.items() for fn in fns]
        targets.append((*ROOT, ROOT[0], self._span))
        targets.append((*COUNTED, ".".join(COUNTED), self._counter))
        undo = []
        try:
            for mod_name, fn_name, name, make in targets:
                original = getattr(importlib.import_module(f"cbsim.{mod_name}"),
                                   fn_name, None)
                if not callable(original):
                    self.absent.add(name)
                    continue
                wrapper = make(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            undo.append((vars(module), attr, original))
                        elif isinstance(value, dict) and attr != "__builtins__":
                            for key, item in value.items():
                                if item is original:
                                    value[key] = wrapper
                                    undo.append((value, key, original))
            yield self
        finally:
            for table, key, original in reversed(undo):
                table[key] = original
