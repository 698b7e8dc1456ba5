"""Spans around the public functions of each airfl layer, recorded from outside.

The tracer replaces a function under every name a loaded ``airfl`` module
binds it to, because modules import each other's functions with
``from ... import``: wrapping only ``linalg.structured_solve`` would miss the
calls ``pam`` makes through its own ``structured_solve`` name.  A function
that no longer exists is reported as absent.

Spans are kept in memory as integer columns (parent row, name, job, start
ns, end ns; a span's id is its row) and written to one ``.npz`` file at the
end.  A span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

import numpy as np

PACKAGE = "airfl"
LAYER_FUNCTIONS = {
    "channel": ("sample_channels", "sample_awgn"),
    "linalg": ("structured_solve", "phase_project"),
    "aircomp": ("monte_carlo_mse", "mse_bracket_terms"),
    "pam": (
        "run_pam",
        "baseline_optimize",
        "update_r",
        "update_t",
        "transmit_objective",
        "build_workspace",
        "inner_pam",
        "update_u",
        "penalized_objective",
        "objective_minmax",
    ),
    "flsim": ("run_experiment", "transmit_batch", "theorem1_bound"),
    "cli": ("main", "parse_config"),
}


def _mc_computed_bytes(chan, n_symbols, draws):
    """Bytes of the arrays ``monte_carlo_mse`` builds at the seed commit.

    Computed from array sizes, not measured: x_draws (float64, D x K x 2S),
    relay noise, forwarded and at-relay signals (complex128, D x N x S, three
    arrays), user noise, packed, symbols, observed and error (complex128,
    D x K x S, five arrays), the target (D x S) and the squared errors
    (float64, D x K).
    """
    k, n, s, d = chan.n_users, chan.n_antennas, int(n_symbols), int(draws)
    return d * (8 * k * 2 * s + 16 * 3 * n * s + 16 * 5 * k * s + 16 * s + 8 * k)


class Tracer:
    """Records spans and solver counts while installed; one per traced pass."""

    def __init__(self):
        self.names = []
        self.absent = []
        self.job = -1
        self._stack = []
        self._cols = {key: array("q") for key in ("parent", "name", "job", "start", "end")}
        self._patches = []
        self.counts = {
            "t_pairs": 0,
            "t_improved": 0,
            "outer_cycles": 0,
            "outer_improved": 0,
            "inner_rises": 0,
            "mc_bytes": 0,
        }

    def _modules(self):
        return [
            module
            for name, module in sys.modules.items()
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def install(self):
        modules = self._modules()
        for layer, functions in LAYER_FUNCTIONS.items():
            home = sys.modules.get(f"{PACKAGE}.{layer}")
            for fn_name in functions:
                label = f"{layer}.{fn_name}"
                original = getattr(home, fn_name, None) if home is not None else None
                if not callable(original):
                    self.absent.append(label)
                    continue
                wrapper = self._wrap(label, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, label, fn):
        name_idx = len(self.names)
        self.names.append(label)
        observe = {
            "pam.run_pam": self._observe_solution,
            "pam.baseline_optimize": self._observe_solution,
            "aircomp.monte_carlo_mse": self._mc_observer(fn),
        }.get(label)
        stack = self._stack
        parents, names, jobs, starts, ends = (self._cols[key] for key in self._cols)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            row = len(starts)
            parents.append(stack[-1] if stack else -1)
            names.append(name_idx)
            jobs.append(self.job)
            ends.append(0)
            stack.append(row)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[row] = clock()
                stack.pop()
            if observe is not None:
                observe(result, args, kwargs)
            return result

        return wrapper

    def _observe_solution(self, sol, args, kwargs):
        counts = self.counts
        for before, after in getattr(sol, "t_update_pairs", ()):
            counts["t_pairs"] += 1
            counts["t_improved"] += after < before
        outer = np.asarray(getattr(sol, "outer_objectives", ()), dtype=float)
        counts["outer_cycles"] += max(outer.size - 1, 0)
        counts["outer_improved"] += int(np.sum(np.diff(outer) < 0))
        for trajectory in getattr(sol, "inner_trajectories", ()):
            counts["inner_rises"] += int(np.sum(np.diff(np.asarray(trajectory)) > 0))

    def _mc_observer(self, fn):
        signature = inspect.signature(fn)

        def observe(result, args, kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            self.counts["mc_bytes"] += _mc_computed_bytes(bound["chan"], bound["n_symbols"], bound["draws"])

        return observe

    def columns(self):
        return {key: np.frombuffer(col, dtype=np.int64).copy() for key, col in self._cols.items()}

    def totals(self):
        """Per function name: (calls, inclusive seconds, self seconds)."""
        cols = self.columns()
        n = cols["start"].size
        out = {label: (0, 0.0, 0.0) for label in self.names}
        if n == 0:
            return out
        duration = (cols["end"] - cols["start"]).astype(float)
        has_parent = cols["parent"] >= 0
        child = np.bincount(cols["parent"][has_parent], weights=duration[has_parent], minlength=n)
        self_time = duration - child
        k = len(self.names)
        calls = np.bincount(cols["name"], minlength=k)
        inclusive = np.bincount(cols["name"], weights=duration, minlength=k)
        exclusive = np.bincount(cols["name"], weights=self_time, minlength=k)
        for i, label in enumerate(self.names):
            out[label] = (int(calls[i]), inclusive[i] * 1e-9, exclusive[i] * 1e-9)
        return out

    def write(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.columns())
