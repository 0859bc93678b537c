"""Per-layer spans and counters, installed around the package from outside.

A span wraps one public function of a layer.  Its self time is its wall
time minus the wall time of the wrapped calls made inside it, so the
Legendre tables filled during a synthesis count for ``harmonics`` and not
for ``sphgrid``.  Counters record work at the same boundaries.

Several modules bind these functions by name at import time (``sphgrid``
imports ``norm_assoc_legendre``, ``frame`` and ``needlets`` import
``real_sh_matrix``, ``cli`` imports nearly every entry point), so a wrapper
is installed at every module attribute that holds the original, not only
in the defining module.
"""

import functools
import importlib
import sys
import time
from collections import defaultdict

PACKAGE = "mexneedlets"


def _transform_counts(counts, grid, L):
    counts["sphgrid.points"] += grid.n_points
    counts["sphgrid.rows"] += grid.n_rows
    # rows a ring FFT would keep on the direct longitude sum
    counts["sphgrid.short_rows"] += int((grid.counts <= 2 * L).sum())


def _synthesis_counts(counts, args, result):
    grid, coeffs = args[0], args[1]
    _transform_counts(counts, grid, int(round(len(coeffs) ** 0.5)) - 1)


def _adjoint_counts(counts, args, result):
    _transform_counts(counts, args[0], int(args[2]))


def _cell_counts(counts, args, result):
    counts["partition.cells"] += result.n_cells


# (module, attribute, metric, kind, counter).  kind "span" records self time
# under ``metric``; kind "count" only adds one to ``metric`` per call.
LAYERS = [
    ("sphgrid", "BandGrid.synthesis", "sphgrid.synthesis_s", "span", _synthesis_counts),
    ("sphgrid", "BandGrid.adjoint", "sphgrid.adjoint_s", "span", _adjoint_counts),
    ("harmonics", "norm_assoc_legendre", "harmonics.norm_assoc_legendre_s", "span", None),
    ("harmonics", "real_sh_matrix", "harmonics.real_sh_matrix_s", "span", None),
    ("partition", "build_partition", "partition.build_partition_s", "span", _cell_counts),
    ("frame", "quadratic_form", "frame.quadratic_form_s", "span", None),
    ("frame", "apply_summation", "frame.apply_summation_s", "span", None),
    ("daubechies", "daubechies_bounds", "daubechies.daubechies_bounds_s", "span", None),
    ("daubechies", "daubechies_sum", "daubechies.ladder_sums", "count", None),
    ("filters", "SpectralFilter.__call__", "filters.calls", "count", None),
    ("cubature", "cubature_rule", "cubature.cubature_rule_s", "span", None),
    ("needlets", "build_needlet_frame", "needlets.build_needlet_frame_s", "span", None),
    ("needlets", "tightness_ratio", "needlets.tightness_ratio_s", "span", None),
    ("needlets", "hybrid_tail_diagnostics", "needlets.hybrid_tail_diagnostics_s", "span", None),
    ("truncation", "spatial_index_set", "truncation.spatial_index_set_s", "span", None),
    ("truncation", "cap_energy_split", "truncation.cap_energy_split_s", "span", None),
    ("truncation", "window_margin", "truncation.window_margin_s", "span", None),
    ("kernels", "kernel_series", "kernels.kernel_series_s", "span", None),
]

# Metrics the counter functions above add to.
COUNT_METRICS = ["sphgrid.points", "sphgrid.rows", "sphgrid.short_rows", "partition.cells"]


def layer_metric_names():
    """Every per-layer metric the tracer produces."""
    return [layer[2] for layer in LAYERS] + COUNT_METRICS


class Tracer:
    """Accumulates self times and counts while its wrappers are installed."""

    def __init__(self):
        self.totals = defaultdict(float)
        self._open = []  # child wall time accumulated by each open span
        self._installed = []  # (owner, attribute, original) in install order

    def snapshot(self):
        return dict(self.totals)

    def _span(self, metric, fn, counter):
        totals, open_spans = self.totals, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            open_spans.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                totals[metric] += elapsed - open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
            if counter is not None:
                counter(totals, args, result)
            return result

        return wrapper

    def _counter(self, metric, fn):
        totals = self.totals

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            totals[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        if self._installed:
            raise RuntimeError("tracer already installed")
        for module_name, attribute, metric, kind, counter in LAYERS:
            module = importlib.import_module(PACKAGE + "." + module_name)
            if kind == "span":
                make = functools.partial(self._span, metric, counter=counter)
            else:
                make = functools.partial(self._counter, metric)
            if "." in attribute:
                class_name, method = attribute.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[method]
                self._replace(owner, method, original, make(original))
                continue
            original = getattr(module, attribute)
            wrapped = make(original)
            for name, loaded in list(sys.modules.items()):
                if loaded is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._replace(loaded, key, original, wrapped)

    def _replace(self, owner, attribute, original, wrapped):
        setattr(owner, attribute, wrapped)
        self._installed.append((owner, attribute, original))

    def uninstall(self):
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)
