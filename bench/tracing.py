"""Spans and counts around specdrive's layer boundaries.

The wrappers are installed from the benchmark's own files by replacing
module and class attributes, so the program itself is unchanged.  Spans
(name, start, end, parent) are kept in memory per operation and written out
when the benchmark ends.  A span's self time is its duration minus the
durations of its direct children; the self times of one operation's spans
add up to the duration of its root span.
"""

import time
from collections import Counter

import numpy as np

import specdrive.analysis as analysis
import specdrive.dynamics as dynamics
import specdrive.functionals as functionals
import specdrive.optimizers as optimizers
import specdrive.spectral as spectral
import specdrive.system as system

# Entry points through which the optimizers propagate.  _immediate_sweep is
# the Krotov sweep; it has no public name but is the only boundary there.
PROPAGATIONS = ("propagate_forward", "propagate_backward", "_immediate_sweep")


class Patches:
    """Replaced attributes, restored in reverse order by undo()."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, name, make):
        original = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def undo(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


class PropagationCounter:
    """Counts the propagations the optimizers start (untimed wrappers)."""

    def __init__(self):
        self.count = 0
        self.forward = 0
        self._patches = Patches()

    def install(self):
        for name in PROPAGATIONS:
            if hasattr(optimizers, name):
                self._patches.replace(optimizers, name, self._counting(name))

    def uninstall(self):
        self._patches.undo()

    def _counting(self, name):
        def make(fn):
            def wrapper(*args, **kwargs):
                self.count += 1
                if name == "propagate_forward":
                    self.forward += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def reset(self):
        self.count = self.forward = 0


# span name -> (layer metric its self time adds to, or None)
_SPANS = {
    "bench.op": None,
    "optimizers.optimize": "optimizers.self_time_s",
    "dynamics.forward": "dynamics.self_time_s",
    "dynamics.backward": "dynamics.self_time_s",
    "dynamics.solve": "dynamics.self_time_s",
    "dynamics.picard": "dynamics.picard.time_s",
    "dynamics.hg_source": "dynamics.hg_source.time_s",
    "system.h_apply": "system.h_apply.time_s",
    "functionals.evaluate": "functionals.evaluate.time_s",
    "functionals.el_field": "functionals.el_field.time_s",
    "functionals.gradient": "functionals.gradient.time_s",
    "spectral.transform": "spectral.transform.time_s",
    "analysis": "analysis.time_s",
}
_NAMES = list(_SPANS)
_INDEX = {name: i for i, name in enumerate(_NAMES)}

LAYER_METRICS = (
    ("system.h_apply.calls", "count"),
    ("system.h_apply.time_s", "s"),
    ("dynamics.picard.calls", "count"),
    ("dynamics.picard.time_s", "s"),
    ("dynamics.bisections", "count"),
    ("dynamics.forward.time_s", "s"),
    ("dynamics.backward.time_s", "s"),
    ("dynamics.self_time_s", "s"),
    ("dynamics.hg_source.time_s", "s"),
    ("functionals.evaluate.time_s", "s"),
    ("functionals.el_field.time_s", "s"),
    ("functionals.gradient.time_s", "s"),
    ("spectral.transform.time_s", "s"),
    ("optimizers.self_time_s", "s"),
    ("optimizers.iterations", "count"),
    ("optimizers.propagations", "count"),
    ("optimizers.ls_probes", "count"),
    ("analysis.time_s", "s"),
)


class Tracer:
    """Records spans of one operation at a time."""

    def __init__(self, counter):
        self.counter = counter
        self._patches = Patches()
        self._spans = []   # [name index, start, end, parent]
        self._stack = []
        self.bisections = 0
        self.ops = []      # per operation: spans array and layer totals

    def _span(self, name):
        code = _INDEX[name]

        def make(fn):
            def wrapper(*args, **kwargs):
                spans = self._spans
                parent = self._stack[-1] if self._stack else -1
                idx = len(spans)
                span = [code, 0.0, 0.0, parent]
                spans.append(span)
                self._stack.append(idx)
                span[1] = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    span[2] = time.perf_counter()
                    self._stack.pop()
            return wrapper
        return make

    def _picard(self, fn):
        timed = self._span("dynamics.picard")(fn)

        def wrapper(*args, **kwargs):
            out = timed(*args, **kwargs)
            if out is None:  # a stalled step: solve() bisects it next
                self.bisections += 1
            return out
        return wrapper

    def install(self):
        """Wrap the layer boundaries; the propagation counter goes first."""
        p = self._patches
        for name, span in (("propagate_forward", "dynamics.forward"),
                           ("propagate_backward", "dynamics.backward"),
                           ("evaluate", "functionals.evaluate"),
                           ("field_from_el_freq", "functionals.el_field"),
                           ("field_from_el_time", "functionals.el_field"),
                           ("gradient_freq", "functionals.gradient"),
                           ("gradient_time", "functionals.gradient"),
                           ("optimize", "optimizers.optimize")):
            p.replace(optimizers, name, self._span(span))
        p.replace(dynamics.StepSolver, "picard", self._picard)
        p.replace(dynamics.StepSolver, "solve", self._span("dynamics.solve"))
        p.replace(dynamics.HGSource, "step_values",
                  self._span("dynamics.hg_source"))
        for cls in (system.GridSystem, system.LevelSystem):
            p.replace(cls, "h_apply", self._span("system.h_apply"))
        for module in (spectral, functionals, dynamics, optimizers, analysis):
            for name in ("dct1", "idct1"):
                if hasattr(module, name):
                    p.replace(module, name, self._span("spectral.transform"))
        for name in ("hermitian_components", "component_spectra",
                     "j_max_per_component"):
            p.replace(analysis, name, self._span("analysis"))
        self.counter.install()

    def uninstall(self):
        self.counter.uninstall()
        self._patches.undo()

    def run(self, operation):
        """Run operation() traced under a root span and return its result."""
        self._spans, self._stack = [], []
        self.bisections = 0
        self.counter.reset()
        result = self._span("bench.op")(operation)()
        self.ops.append(self._summarise(result))
        return result

    def _summarise(self, result):
        spans = np.array(self._spans, dtype=float).reshape(-1, 4)
        code = spans[:, 0].astype(int)
        dur = spans[:, 2] - spans[:, 1]
        parent = spans[:, 3].astype(int)
        child = np.zeros(len(spans))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        totals = Counter()
        for i, name in enumerate(_NAMES):
            metric = _SPANS[name]
            if metric is not None:
                totals[metric] += float(self_time[code == i].sum())
        calls = np.bincount(code, minlength=len(_NAMES))
        trace = result[0]
        totals["system.h_apply.calls"] = int(calls[_INDEX["system.h_apply"]])
        totals["dynamics.picard.calls"] = int(calls[_INDEX["dynamics.picard"]])
        totals["dynamics.bisections"] = self.bisections
        totals["dynamics.forward.time_s"] = float(
            dur[code == _INDEX["dynamics.forward"]].sum())
        totals["dynamics.backward.time_s"] = float(
            dur[code == _INDEX["dynamics.backward"]].sum())
        totals["optimizers.iterations"] = len(trace.rows) - 1
        totals["optimizers.propagations"] = self.counter.count
        totals["optimizers.ls_probes"] = max(self.counter.forward - 1, 0)
        root = code == _INDEX["bench.op"]
        wall = float(dur[root].sum())
        return dict(spans=spans, totals=totals, wall=wall,
                    bench_self=float(self_time[root].sum()),
                    accounted=float(self_time.sum()) / wall)

    def layer_metrics(self):
        """Median over the traced operations of each per-operation figure."""
        out = {}
        for name, unit in LAYER_METRICS:
            values = [op["totals"][name] for op in self.ops]
            out[name] = {"value": float(np.median(values)), "unit": unit}
        return out

    def save(self, path):
        """Write every operation's spans (one array each) to an .npz file."""
        np.savez_compressed(
            path, names=np.array(_NAMES),
            **{f"op{i}": op["spans"] for i, op in enumerate(self.ops)})
