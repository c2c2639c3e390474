"""Span tracer for the benchmark's traced runs.

`Tracer.install` rebinds each traced stomod function to a timing wrapper at
every loaded module attribute that holds it, so calls made inside the
library (for example ``solve_mu_for_beta1`` -> ``first_harmonic_index`` ->
``solve_coefficients_matrix``) are recorded too.  Each call records one span
(name, parent, start, end) in flat in-memory arrays; `save` writes them when
a run ends and `summary` reduces them to per-name calls and self time, a
span's duration minus the time covered by its direct children.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from array import array
from collections import Counter
from time import perf_counter


def _rk4_steps(args, kwargs, result):
    icfg = kwargs["icfg"] if "icfg" in kwargs else args[2]
    return "oracle.rk4_steps", round(icfg.t_end / icfg.dt)


def _grid_points(args, kwargs, result):
    return "sweeps.grid_points", sum(len(rows) for _, rows in result.values())


def _csv_written(args, kwargs, result):
    return "cli.rows_written", len(args[2]), "cli.bytes_written", os.path.getsize(args[0])


# Traced functions: span name -> (defining module, attribute, counter hook).
# The span name's prefix is the layer.  A hook reads work counts off the
# call's arguments or result and returns them as (counter, value, ...).
TARGETS = {
    "config.load_config": ("stomod.config", "load_config", None),
    "model.derive_operating_point": ("stomod.model", "derive_operating_point", None),
    "fourier.solve_coefficients_matrix": ("stomod.fourier", "solve_coefficients_matrix", None),
    "fourier.solve_coefficients_recursive": ("stomod.fourier", "solve_coefficients_recursive", None),
    "fourier.truncation_error": ("stomod.fourier", "truncation_error", None),
    "spectrum.solve_mu_for_beta1": ("stomod.spectrum", "solve_mu_for_beta1", None),
    "spectrum.first_harmonic_index": ("stomod.spectrum", "first_harmonic_index", None),
    "spectrum.psd_analytic": ("stomod.spectrum", "psd_analytic", None),
    "spectrum.jv": ("stomod.spectrum", "jv", None),
    "spectrum.synthesize_time_trace": ("stomod.spectrum", "synthesize_time_trace", None),
    "spectrum.psd_fft": ("stomod.spectrum", "psd_fft", None),
    "spectrum.peak_frequency_deviation": ("stomod.spectrum", "peak_frequency_deviation", None),
    "spectrum.modulation_bandwidth": ("stomod.spectrum", "modulation_bandwidth", None),
    "oracle.integrate_reduced": ("stomod.oracle", "integrate_reduced", _rk4_steps),
    "oracle.project_harmonics": ("stomod.oracle", "project_harmonics", None),
    "sweeps.operating_point_table": ("stomod.sweeps", "operating_point_table", _grid_points),
    "sweeps.psd_map_table": ("stomod.sweeps", "psd_map_table", _grid_points),
    "sweeps.asymmetry_map_table": ("stomod.sweeps", "asymmetry_map_table", _grid_points),
    "sweeps.bandwidth_table": ("stomod.sweeps", "bandwidth_table", _grid_points),
    "sweeps.error_analysis_table": ("stomod.sweeps", "error_analysis_table", _grid_points),
    "cli.write_csv": ("stomod.cli", "write_csv", _csv_written),
}

# Modules searched for attributes that hold a traced function.
HOLDERS = (
    "stomod",
    "stomod.config",
    "stomod.model",
    "stomod.fourier",
    "stomod.spectrum",
    "stomod.oracle",
    "stomod.sweeps",
    "stomod.cli",
)

# The mu back-solve is reported apart from the rest of the spectrum layer.
BACKSOLVE = ("spectrum.solve_mu_for_beta1", "spectrum.first_harmonic_index")
LAYERS = ("import", "config", "model", "fourier", "backsolve", "spectrum", "oracle",
          "sweeps", "cli", "other")


def layer_of(name: str) -> str:
    """Layer a span name belongs to; bench-level spans count as "other"."""
    if name in BACKSOLVE:
        return "backsolve"
    layer = name.split(".", 1)[0]
    return layer if layer in LAYERS else "other"


class Tracer:
    """Flat span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self.on = False
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _begin(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _finish(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named `name` (a bench-level root span)."""
        i = self._begin(self._id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self._finish(i)

    def add(self, name: str, start: float, end: float) -> None:
        """Record a finished root span measured without a wrapper."""
        self.name_id.append(self._id(name))
        self.parent.append(-1)
        self.start.append(start)
        self.end.append(end)

    def _wrap(self, name: str, fn, hook):
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            i = self._begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._finish(i)
            if hook is not None:
                counts = hook(args, kwargs, result)
                for key, value in zip(counts[::2], counts[1::2]):
                    self.counters[key] += value
            return result

        return traced

    def install(self) -> None:
        """Rebind every traced function that is loaded, at every holder."""
        holders = [sys.modules[m] for m in HOLDERS if m in sys.modules]
        for name, (module, attr, hook) in TARGETS.items():
            if module not in sys.modules:
                continue
            original = getattr(importlib.import_module(module), attr)
            wrapper = self._wrap(name, original, hook)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patched.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()
        self.on = False

    def extend(self, other: "Tracer") -> None:
        """Append another tracer's spans (another process) as new roots."""
        offset = len(self.start)
        for nid, parent, start, end in zip(other.name_id, other.parent, other.start, other.end):
            self.name_id.append(self._id(other.names[nid]))
            self.parent.append(parent + offset if parent >= 0 else -1)
            self.start.append(start)
            self.end.append(end)
        self.counters.update(other.counters)

    def save(self, path) -> None:
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.asarray(self.name_id),
            parent=np.asarray(self.parent),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
            counter_names=np.array(list(self.counters), dtype=str),
            counter_values=np.array(list(self.counters.values()), dtype=float),
        )

    @classmethod
    def load(cls, path) -> "Tracer":
        import numpy as np

        tracer = cls()
        with np.load(path) as data:
            for name in data["names"]:
                tracer._id(str(name))
            tracer.name_id.extend(int(v) for v in data["name_id"])
            tracer.parent.extend(int(v) for v in data["parent"])
            tracer.start.extend(float(v) for v in data["start"])
            tracer.end.extend(float(v) for v in data["end"])
            for key, value in zip(data["counter_names"], data["counter_values"]):
                tracer.counters[str(key)] += float(value)
        return tracer

    def summary(self, since: int = 0, until: int | None = None) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self seconds), over spans since..until.

        The range must hold whole span trees: no span in it may have its
        parent outside it.
        """
        import numpy as np

        until = len(self.start) if until is None else until
        if until <= since:
            return {}
        dur = np.asarray(self.end)[since:until] - np.asarray(self.start)[since:until]
        parent = np.asarray(self.parent)[since:until] - since
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
        ids = np.asarray(self.name_id)[since:until]
        calls = np.bincount(ids, minlength=len(self.names))
        self_s = np.bincount(ids, weights=dur - child, minlength=len(self.names))
        return {n: (int(calls[i]), float(self_s[i]))
                for i, n in enumerate(self.names) if calls[i]}

    def child_calls(self, parent_name: str, child_name: str) -> int:
        """Number of `child_name` spans whose direct parent is `parent_name`."""
        import numpy as np

        if parent_name not in self._ids or child_name not in self._ids:
            return 0
        ids = np.asarray(self.name_id)
        parent = np.asarray(self.parent)
        mine = (ids == self._ids[child_name]) & (parent >= 0)
        return int(np.count_nonzero(ids[parent[mine]] == self._ids[parent_name]))
