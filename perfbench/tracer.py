"""Spans around the public functions of every ``htvseg`` module, recorded
from outside the program.

``Tracer.install`` wraps each public function of each ``htvseg`` submodule,
and numpy's 2-D FFTs, and puts the wrapper into every namespace that holds
the original. That matters because modules import functions by name
(``restore`` calls ``apply_A`` and ``apply_adjoint``, ``cli`` calls
``edge_weight``): patching only the defining module would miss those calls.
``uninstall`` puts the originals back, so untraced invocations run the
program's own code.

A span is ``[invocation, label, parent, start, end, nbytes]``: the parent is
the index of the enclosing span (-1 for a root) and ``nbytes`` the bytes of
the array arguments and array result. Spans stay in memory until
``write_spans``.

``summarize`` turns one invocation's spans into the per-layer metrics in
``LAYER_METRICS``. A metric whose functions no longer exist (a later change
may fuse or remove them) is reported absent instead of failing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
import time
from collections import defaultdict

import numpy as np

FFT_NAMES = ("fft2", "ifft2", "rfft2", "irfft2")
FFT_LABELS = tuple(f"fft.{name}" for name in FFT_NAMES)
SAVE_LABELS = ("imageio.save_pgm", "imageio.save_raw_float", "imageio.save_labels")
# Spans under restore.run that belong to set-up, not to an iteration.
SETUP_LABELS = ("restore.g_denominator", "restore.init_state")
# A restore iteration is useful until the energy is within this relative
# distance of the final energy.
USEFUL_ENERGY_RTOL = 1e-3
MIB = float(1 << 20)

# What each wrapper keeps of a call, beyond its span.
CAPTURE = {
    "restore.run": lambda args, result: result[1],      # ConvergenceReport
    "cluster.kmeans_1d": lambda args, result: result,   # KMeansResult
    **{label: (lambda args, result: os.fspath(args[1])) for label in SAVE_LABELS},
}

# (name, unit, how, labels). How:
#   iter_ms     summed span time inside restore iterations, per iteration
#   iter_count  calls inside restore iterations, per iteration
#   ms / s      summed span time over the invocation
#   self_ms     summed self time over the invocation
LAYER_METRICS = [
    ("restore.solve_g.ms_per_it", "ms", "iter_ms", ("restore.solve_g",)),
    ("restore.shrink.ms_per_it", "ms", "iter_ms", ("restore.update_q", "restore.update_v")),
    ("restore.box_dual.ms_per_it", "ms", "iter_ms", ("restore.update_z", "restore.update_duals")),
    ("restore.energy.ms_per_it", "ms", "iter_ms", ("restore.objective",)),
    ("restore.setup_ms", "ms", "ms", ("restore.g_denominator",)),
    ("grid.grad2.per_it", "count", "iter_count", ("grid.grad2",)),
    ("grid.grad.per_it", "count", "iter_count", ("grid.grad",)),
    ("grid.div2.per_it", "count", "iter_count", ("grid.div2",)),
    ("grid.div.per_it", "count", "iter_count", ("grid.div",)),
    ("fft.per_it", "count", "iter_count", FFT_LABELS),
    ("fft.ms_per_it", "ms", "iter_ms", FFT_LABELS),
    ("degrade.apply.per_it", "count", "iter_count", ("degrade.apply", "degrade.apply_adjoint")),
    ("degrade.apply.ms_per_it", "ms", "iter_ms", ("degrade.apply", "degrade.apply_adjoint")),
    ("weight.edge_weight_ms", "ms", "ms", ("weight.edge_weight",)),
    ("cluster.kmeans_s", "s", "s", ("cluster.kmeans_1d",)),
    ("cluster.label_ms", "ms", "ms", ("cluster.stretch", "cluster.label", "cluster.piecewise_constant")),
    ("metrics.sa_ms", "ms", "ms", ("metrics.sa",)),
    ("imageio.write_ms", "ms", "ms", SAVE_LABELS),
    ("imageio.read_ms", "ms", "ms", ("imageio.load_image", "imageio.load_labels")),
    ("cli.self_ms", "ms", "self_ms", ("cli.main", "cli.run_pipeline")),
]
# Metrics derived from captured results or span structure, not a label sum.
DERIVED_UNITS = {
    "restore.iterations": "count",
    "restore.useful_iter_frac": "ratio",
    "restore.ms_per_it": "ms",
    "restore.self.ms_per_it": "ms",
    "restore.residual.ms_per_it": "ms",
    "grid.mb_per_it": "MiB",
    "cluster.useful_restart_frac": "ratio",
    "imageio.mb_written": "MiB",
}
UNITS = {**DERIVED_UNITS, **{name: unit for name, unit, _, _ in LAYER_METRICS}}


def _nbytes(items) -> int:
    return sum(a.nbytes for a in items if isinstance(a, np.ndarray))


def _public_functions(module):
    for name, obj in vars(module).items():
        if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                and not name.startswith("_")):
            yield name, obj


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.captured: dict[int, object] = {}   # span index -> kept value
        self.labels: set[str] = set()
        self.invocation = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, fn, label: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        keep = CAPTURE.get(label)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [self.invocation, label, stack[-1] if stack else -1,
                    clock(), 0.0, 0]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            span[5] = _nbytes(args) + _nbytes((result,))
            if keep is not None:
                self.captured[index] = keep(args, result)
            return result

        return wrapper

    def install(self) -> None:
        import htvseg

        modules = [importlib.import_module(f"htvseg.{info.name}")
                   for info in pkgutil.iter_modules(htvseg.__path__)]
        wrappers = {}   # id(original) -> (original, wrapper)
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for name, fn in _public_functions(module):
                wrappers[id(fn)] = (fn, self._wrap(fn, f"{short}.{name}"))
                self.labels.add(f"{short}.{name}")
        for name in FFT_NAMES:
            fn = getattr(np.fft, name, None)
            if fn is not None:
                wrappers[id(fn)] = (fn, self._wrap(fn, f"fft.{name}"))
                self.labels.add(f"fft.{name}")
        for namespace in (htvseg, *modules, np.fft):
            for name, value in list(vars(namespace).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((namespace, name, value))
                    setattr(namespace, name, hit[1])

    def uninstall(self) -> None:
        while self._patches:
            namespace, name, value = self._patches.pop()
            setattr(namespace, name, value)

    def invocation_spans(self, invocation: int) -> tuple[int, list[list]]:
        """(index of the first span, spans) of one invocation."""
        first = next((i for i, s in enumerate(self.spans) if s[0] == invocation),
                     len(self.spans))
        last = first
        while last < len(self.spans) and self.spans[last][0] == invocation:
            last += 1
        return first, self.spans[first:last]

    def summarize(self, invocation: int) -> tuple[dict[str, float], list[str]]:
        """Per-layer metrics of one invocation, and the names of the metrics
        that are absent because their functions no longer exist or no result
        was captured."""
        first, spans = self.invocation_spans(invocation)
        own = self.self_times(invocation)
        context = {}                        # span index -> None | "iter" | "setup"
        total = defaultdict(float)
        self_time = defaultdict(float)
        iter_time = defaultdict(float)
        iter_calls = defaultdict(int)
        kept = defaultdict(list)            # label -> values captured in order
        grid_bytes = 0
        run_index = None
        residual = 0.0
        for offset, (_, label, parent, start, end, nbytes) in enumerate(spans):
            index = first + offset
            ctx = context.get(parent)
            if label == "restore.run":
                ctx, run_index = "iter", index
            elif ctx == "iter" and label in SETUP_LABELS:
                ctx = "setup"
            context[index] = ctx
            total[label] += end - start
            self_time[label] += own[offset]
            if index in self.captured:
                kept[label].append(self.captured[index])
            if ctx == "iter":
                iter_time[label] += end - start
                iter_calls[label] += 1
            if ctx == "iter" and label.startswith("grid."):
                # Count the bytes of outermost grid calls only; nested
                # differences are part of their caller's computation.
                if not spans[parent - first][1].startswith("grid."):
                    grid_bytes += nbytes
                if parent == run_index:
                    residual += end - start

        metrics = {}
        report = kept["restore.run"][-1] if kept["restore.run"] else None
        iterations = getattr(report, "iterations", 0)
        if iterations:
            run_s = spans[run_index - first][4] - spans[run_index - first][3]
            metrics["restore.iterations"] = iterations
            metrics["restore.ms_per_it"] = 1e3 * run_s / iterations
            metrics["restore.self.ms_per_it"] = 1e3 * own[run_index - first] / iterations
            metrics["restore.residual.ms_per_it"] = 1e3 * residual / iterations
            metrics["grid.mb_per_it"] = grid_bytes / MIB / iterations
            energy = np.asarray(getattr(report, "objective", ()), dtype=float)
            if energy.size:
                near = np.abs(energy - energy[-1]) <= USEFUL_ENERGY_RTOL * abs(energy[-1])
                metrics["restore.useful_iter_frac"] = (int(np.argmax(near)) + 1) / energy.size
        kmeans = kept["cluster.kmeans_1d"]
        if kmeans and hasattr(kmeans[-1], "restart_wcss"):
            wcss = np.asarray(kmeans[-1].restart_wcss)
            metrics["cluster.useful_restart_frac"] = float(np.mean(wcss == kmeans[-1].wcss))
        written = [path for label in SAVE_LABELS for path in kept[label]]
        if written:
            metrics["imageio.mb_written"] = sum(os.path.getsize(p) for p in written) / MIB

        for name, _unit, how, labels in LAYER_METRICS:
            if not any(label in self.labels for label in labels):
                continue
            if how == "iter_ms" and iterations:
                metrics[name] = 1e3 * sum(iter_time[x] for x in labels) / iterations
            elif how == "iter_count" and iterations:
                metrics[name] = sum(iter_calls[x] for x in labels) / iterations
            elif how == "ms":
                metrics[name] = 1e3 * sum(total[x] for x in labels)
            elif how == "s":
                metrics[name] = sum(total[x] for x in labels)
            elif how == "self_ms":
                metrics[name] = 1e3 * sum(self_time[x] for x in labels)
        absent = [name for name in UNITS if name not in metrics]
        return metrics, absent

    def self_times(self, invocation: int) -> list[float]:
        """Self time of every span of one invocation: its duration minus the
        time its direct children cover."""
        first, spans = self.invocation_spans(invocation)
        own = [s[4] - s[3] for s in spans]
        for s in spans:
            if s[2] >= first:
                own[s[2] - first] -= s[4] - s[3]
        return own

    def write_spans(self, path) -> None:
        """One tab-separated line per span: invocation, index, parent,
        label, start, end (seconds, perf_counter clock), nbytes."""
        with open(path, "w") as fh:
            fh.write("invocation\tindex\tparent\tlabel\tstart\tend\tnbytes\n")
            for index, (inv, label, parent, start, end, nbytes) in enumerate(self.spans):
                fh.write(f"{inv}\t{index}\t{parent}\t{label}\t{start!r}\t{end!r}\t{nbytes}\n")
