"""The three benchmark workloads: set-up, one timed operation, and checks.

Every workload reports the same end-to-end names so that each metric has a
value on each workload:

  setup_s      median of several set-ups in the run
  primary_s    median time of the workload's headline operation
  secondary_s  median time of its second operation

What each name measures on each workload is listed in ``ROLES`` and in
README.md.  Checks rest on invariants, not on bit-exact output, so a
faster transform with different rounding still passes and a wrong one
fails.
"""

import contextlib
import csv
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

from mexneedlets import cli, daubechies, frame, needlets, partition
from mexneedlets.fields import HarmonicField
from mexneedlets.filters import parse_filter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CLI_REFERENCE = HERE / "cli_reference.json"

A_THIRD = 2.0 ** (1.0 / 3.0)
FOUR_PI = 4.0 * math.pi

# Tolerances of the per-operation checks.
SUMMATION_REL = 1e-10  # <S f, f> against quadratic_form(f)
TIGHTNESS_ABS = 1e-8  # |tightness - 1|, acceptance criterion 4
ELEMENT_REL = 1e-10  # ||phi_{j,i}||^2 against its addition-theorem value
ANALYSIS_REL = 1e-10  # needlet coefficient energy against sum_l (sum_j g^2) ||F_l||^2
DAUBECHIES_RATIO = 5e-5  # |B/A - 1| at a = 2^(1/3)
MEASURE_REL = 1e-10  # partition and cubature totals against 4 pi
PIN_REL = 1e-9  # CLI outputs against the reference; a ring FFT moves ~2e-14
# A random field's Rayleigh quotient lies inside the Daubechies bounds up to
# sampling error and scale-window truncation, both a few percent at most.
RAYLEIGH_SLACK = 1.25

# What each end-to-end name measures on each workload: (the name the
# measurement goes by in the workload's own terms, definition).
ROLES = {
    "mexframe": {"setup_s": ("setup_s", "FrameSpec.build plus the first (cold) quadratic_form"),
                 "primary_s": ("rayleigh_s", "warm quadratic_form"),
                 "secondary_s": ("summation_s", "apply_summation")},
    "needlet": {"setup_s": ("setup_s", "build_needlet_frame plus the first tightness_ratio"),
                "primary_s": ("tightness_s", "tightness_ratio at the coverage limit"),
                "secondary_s": ("analysis_s", "needlet_analyze of a field at the frame's "
                                              "full band")},
    "cli": {"setup_s": ("setup_s", "import of mexneedlets.cli in a fresh interpreter"),
            "primary_s": ("cli_s", "one pass of the command list"),
            "secondary_s": ("transform_s", "the commands of one pass that run ring "
                                           "transforms")},
}

# Timings reported beside the end-to-end metrics but not gated: pure-Python
# paths whose speed on a shared host drifts by more than a bound within an
# hour.  (workload, timing): definition.
REPORTED = {
    ("needlet", "element_s"): "needlet_frame_element at one seeded node per scale",
    ("cli", "scalar_s"): "the commands of one pass that run no ring transform",
}


class Outcome:
    """Attempted operations and the failed checks among them."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, problems):
        """Count one operation; it failed if any check reported a problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.extend(problems)


def _rel_err(x, ref):
    return abs(x - ref) / abs(ref) if ref != 0 else abs(x)


def _grid_work(grids_and_L):
    """Work counts computed from grid shapes, not measured."""
    cells = rows = short = mult_adds = largest = 0
    for grid, L in grids_and_L:
        cells += grid.n_points
        rows += grid.n_rows
        short += int((grid.counts <= 2 * L).sum())
        mult_adds += grid.n_points * L
        largest = max(largest, grid.n_points)
    return {"cells": cells, "rows": rows, "short_rows_n_le_2L": short,
            "ring_mult_adds_per_pass": mult_adds,
            "largest_value_vector_bytes": 8 * largest}


class Workload:
    """Shared shape: ``setup`` and ``operation`` record their checks in an Outcome."""

    def close(self):
        """Release what the workload holds outside the process."""


# -- mexframe ----------------------------------------------------------------


class Mexframe(Workload):
    """Rayleigh quotients and S f of the nearly tight Mexican frame."""

    why = ("middle fineness of criterion 5: the ring transform over rows of up to ~4k "
           "cells (>> 2L) does over 90% of the work")
    full = {"a": A_THIRD, "b": 0.5, "L": 32, "j_range": (-23, 5), "setups": 3}
    tiny = {"a": A_THIRD, "b": 1.0, "L": 8, "j_range": (-14, 4), "setups": 2}

    def __init__(self, seed, config):
        self.config = config
        self.n_setups = config["setups"]
        self.rng = np.random.default_rng(seed)
        self.filter = parse_filter("mexican:r=1")
        bounds = daubechies.daubechies_bounds(self.filter, config["a"])
        self.window = (bounds.A / RAYLEIGH_SLACK, bounds.B * RAYLEIGH_SLACK)
        self.spec = None

    def _field(self):
        return HarmonicField.random_mean_zero(self.config["L"], self.rng)

    def _check_form(self, value, field):
        rq = value / field.norm() ** 2
        if not (self.window[0] <= rq <= self.window[1]):
            return ["Rayleigh quotient %.17g outside [%.6g, %.6g]" % (rq, *self.window)]
        return []

    def setup(self, outcome):
        self.spec = None  # release the previous frame's grids first
        c = self.config
        field = self._field()
        start = time.perf_counter()
        spec = frame.FrameSpec.build(self.filter, c["a"], c["b"], c["L"], j_range=c["j_range"])
        value = frame.quadratic_form(spec, field)
        elapsed = time.perf_counter() - start
        self.spec = spec
        outcome.record(self._check_form(value, field))
        return elapsed

    def operation(self, outcome):
        field = self._field()
        start = time.perf_counter()
        value = frame.quadratic_form(self.spec, field)
        mid = time.perf_counter()
        summed = frame.apply_summation(self.spec, field)
        end = time.perf_counter()
        problems = self._check_form(value, field)
        inner = float(np.dot(summed.coeffs, field.coeffs))
        if not _rel_err(inner, value) <= SUMMATION_REL:
            problems.append("<S f, f> = %.17g but quadratic_form = %.17g" % (inner, value))
        if summed.coeffs[0] != 0.0:
            problems.append("(S f)[0] = %r, not 0" % summed.coeffs[0])
        outcome.record(problems)
        return {"primary_s": mid - start, "secondary_s": end - mid}

    def computed_work(self):
        L = self.config["L"]
        work = _grid_work((self.spec.partitions[j].grid, L) for j in self.spec.scales)
        work["scales"] = len(self.spec.scales)
        return {"frame L=%d b=%g j=%d..%d" % (L, self.config["b"], *self.config["j_range"]): work}


# -- needlet -----------------------------------------------------------------


class Needlet(Workload):
    """Tightness, analysis and frame elements of the cutoff-needlet frame."""

    why = ("the same transforms on short cubature rows (n = 2 l_cut + 1), plus the "
           "pointwise real_sh_matrix path of frame elements")
    full = {"j_range": (-6, 0), "setups": 15}
    tiny = {"j_range": (-3, 0), "setups": 2}

    def __init__(self, seed, config):
        self.config = config
        self.n_setups = config["setups"]
        self.rng = np.random.default_rng(seed)
        self.filter = parse_filter("normalized_cutoff")
        self.frame = None
        self.L = None
        self.band = None
        self.band_gain = None

    def _tightness(self, field):
        start = time.perf_counter()
        ratio = needlets.tightness_ratio(self.frame, field)
        elapsed = time.perf_counter() - start
        if not abs(ratio - 1.0) <= TIGHTNESS_ABS:
            return elapsed, ["tightness ratio %.17g is not 1 to %g" % (ratio, TIGHTNESS_ABS)]
        return elapsed, []

    def setup(self, outcome):
        self.frame = None
        start = time.perf_counter()
        self.frame = needlets.build_needlet_frame(self.filter, *self.config["j_range"])
        self.L = self.frame.coverage_limit()
        field = HarmonicField.random_mean_zero(self.L, self.rng)
        _, problems = self._tightness(field)
        elapsed = time.perf_counter() - start
        self.band = max(s.l_cut for s in self.frame.scales)
        # sum_j g_(j,l)^2 per degree: the needlet energy of a unit degree-l field
        gain = np.zeros(self.band + 1)
        for scale in self.frame.scales:
            gain[: scale.l_cut + 1] += scale.weights ** 2
        self.band_gain = gain
        outcome.record(problems)
        return elapsed

    def operation(self, outcome):
        """One fresh field: tightness, full-band analysis, one element per scale."""
        field = HarmonicField.random_mean_zero(self.L, self.rng)
        tight, problems = self._tightness(field)
        analysis, more = self._analysis()
        problems += more
        elements = 0.0
        for scale in self.frame.scales:
            i = int(self.rng.integers(scale.rule.n_nodes))
            start = time.perf_counter()
            element = needlets.needlet_frame_element(self.frame, scale.j, i)
            elements += time.perf_counter() - start
            # addition theorem: sum_q Y_lq(x)^2 = (2l+1)/(4 pi)
            ls = np.arange(scale.l_cut + 1)
            expected = scale.rule.weights[i] * float(
                np.sum(scale.weights ** 2 * (2 * ls + 1)) / FOUR_PI)
            got = element.norm() ** 2
            if not _rel_err(got, expected) <= ELEMENT_REL:
                problems.append("||phi_(%d,%d)||^2 = %.17g, expected %.17g"
                                % (scale.j, i, got, expected))
        outcome.record(problems)
        return {"primary_s": tight, "secondary_s": analysis, "element_s": elements}

    def _analysis(self):
        """needlet_analyze of a field at the frame's full band, checked by its energy.

        Each cubature rule is exact to degree 2 l_cut, so the coefficients'
        energy is sum_l (sum_j g_(j,l)^2) ||F_l||^2 for any band-limited F.
        """
        field = HarmonicField.random_mean_zero(self.band, self.rng)
        start = time.perf_counter()
        coefficients = needlets.needlet_analyze(self.frame, field)
        elapsed = time.perf_counter() - start
        got = math.fsum(float(np.dot(c, c)) for c in coefficients.values())
        degree = np.repeat(np.arange(self.band + 1), 2 * np.arange(self.band + 1) + 1)
        expected = float(np.dot(self.band_gain[degree], field.coeffs ** 2))
        if not _rel_err(got, expected) <= ANALYSIS_REL:
            return elapsed, ["needlet energy %.17g, expected %.17g" % (got, expected)]
        return elapsed, []

    def computed_work(self):
        work = _grid_work((s.rule.grid, min(s.l_cut, self.L)) for s in self.frame.scales)
        work["scales"] = len(self.frame.scales)
        work["coverage_limit_L"] = self.L
        work["max_cubature_degree"] = max(s.rule.degree for s in self.frame.scales)
        band = _grid_work((s.rule.grid, s.l_cut) for s in self.frame.scales)
        label = "needlet j=%d..%d" % self.config["j_range"]
        return {label + " tightness": work,
                label + " analysis L=%d" % self.band: band}


# -- cli ---------------------------------------------------------------------

# The README command list, plus the greedy witness.  (name, argv, scalar):
# ``scalar`` marks commands that run no ring transform.  The others' summed
# time is the cli workload's secondary_s; the scalar commands' summed time is
# reported as scalar_s.  "{out}" is the run's temporary directory.
CLI_COMMANDS = [
    ("daubechies_mexican", "daubechies --a 1.2599210498948732 --filter mexican:r=1", True),
    ("daubechies_cutoff", "daubechies --a 2.0 --filter normalized_cutoff", True),
    ("kernel-profile_mexican", "kernel-profile --t 0.1 --filter mexican:r=1 --method series "
     "--n 2001 --out {out}/mexican_t01.csv", True),
    ("kernel-profile_cutoff", "kernel-profile --t 0.1 --filter cutoff --method series "
     "--convention degree --n 2001 --out {out}/cutoff_t01.csv", True),
    ("partition_band", "partition --j 0 --a 1.2599 --b 0.5 --out {out}/cells.json", True),
    ("partition_cubature", "partition --cubature-degree 16 --out {out}/rule.csv", True),
    ("partition_greedy", "partition --greedy --t 0.7853981633974483", True),
    ("frame-verify_partition", "frame-verify --a 1.2599 --b 0.5 --l-max 16 --j-min -18 "
     "--j-max 4 --trials 20 --seed 1 --out {out}/bounds.json", False),
    ("frame-verify_needlet", "frame-verify --mode needlet --l-max 32 --trials 20", False),
    ("truncation", "truncation --j-min -24 --j-max 6 --M 22 --N 4 --out {out}/freq.json", False),
    ("spatial", "spatial --cap-radius 0.6 --c 0.5 --doublings 3 --out {out}/spatial.json", False),
    ("needlet-diag", "needlet-diag --N 4,8,12 --l-max 32 --out {out}/tails.json", True),
]
CLI_NAMES = [name for name, _, _ in CLI_COMMANDS]

# Frame configurations the command list builds (partition and band limit),
# for the computed work counts: (label, a, b, L, j_min, j_max).
CLI_FRAMES = [
    ("frame-verify", 1.2599, 0.5, 16, -18, 4),
    ("truncation", A_THIRD, 0.9, 2, -24, 6),
    ("spatial", A_THIRD, 0.4, 8, -13, 2),
]

# Cancellation noise (2.5e-8 against a 1e-8 bound); its fix must not fail a pin.
UNPINNED = ("leakage",)

_NUMBER = re.compile(r"(?<![\w.^])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")


def stdout_numbers(text):
    """Numbers printed on stdout, keyed by the text before them on the line."""
    out, seen = {}, defaultdict(int)
    for line in text.splitlines():
        pos = 0
        for match in _NUMBER.finditer(line):
            label = " ".join(line[pos:match.start()].split())
            key = "%s#%d" % (label, seen[label])
            seen[label] += 1
            out["stdout:" + key] = float(match.group())
            pos = match.end()
    return out


def _leaves(doc, path):
    if isinstance(doc, bool) or doc is None or isinstance(doc, str):
        return
    if isinstance(doc, (int, float)):
        yield path, float(doc)
    elif isinstance(doc, dict):
        for key in sorted(doc):
            yield from _leaves(doc[key], "%s.%s" % (path, key))
    elif isinstance(doc, list):
        for i, item in enumerate(doc):
            # long lists collapse into one summary per field
            yield from _leaves(item, "%s[%s]" % (path, i if len(doc) <= 8 else "*"))


def document_numbers(doc, prefix):
    """Numeric leaves of a JSON-like document; long lists become n, sum|x|, max|x|."""
    groups = defaultdict(list)
    for path, value in _leaves(doc, prefix):
        groups[path].append(value)
    out = {}
    for path, values in groups.items():
        if "[*]" not in path:
            out[path] = values[0]
            continue
        mags = [abs(v) for v in values]
        out[path + "|n"] = float(len(values))
        out[path + "|sum_abs"] = math.fsum(mags)
        out[path + "|max_abs"] = max(mags)
    return out


def file_numbers(path):
    name = os.path.basename(path)
    if path.endswith(".json"):
        with open(path) as fh:
            return document_numbers(json.load(fh), name)
    with open(path, newline="") as fh:
        rows = []
        for row in csv.DictReader(fh):
            rows.append({k: float(v) for k, v in row.items() if _is_number(v)})
    return document_numbers(rows, name)


def _is_number(text):
    try:
        float(text)
    except (TypeError, ValueError):
        return False
    return True


def cli_outputs(name, argv, out_dir):
    """Run one command in-process; return (exit code, seconds, numeric outputs)."""
    args = argv.format(out=out_dir).split()
    out_file = args[args.index("--out") + 1] if "--out" in args else None
    if out_file and os.path.exists(out_file):
        os.remove(out_file)  # a file left by the previous pass must not pass the pins
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            code = cli.main(args)
        except SystemExit as exc:  # argparse rejects a command line this way
            code = exc.code if isinstance(exc.code, int) else 1
        elapsed = time.perf_counter() - start
    numbers = stdout_numbers(stdout.getvalue())
    if code != 0:
        sys.stderr.write("%s exited %r: %s\n" % (name, code, stderr.getvalue().strip()))
    elif out_file:
        numbers.update(file_numbers(out_file))
    return code, elapsed, numbers


def _cli_checks(name, numbers):
    """Invariants of single commands that hold for any correct implementation."""
    problems = []

    def value(key):
        if key not in numbers:
            problems.append("%s: output %r missing" % (name, key))
            return math.nan
        return numbers[key]

    if name == "daubechies_mexican":
        ratio = value("stdout:B =#0") / value("stdout:A =#0")
        if not abs(ratio - 1.0) < DAUBECHIES_RATIO:
            problems.append("%s: B/A = %r" % (name, ratio))
    elif name == "daubechies_cutoff":
        for key in ("stdout:A =#0", "stdout:B =#0"):
            if not abs(value(key) - 1.0) <= 1e-10:
                problems.append("%s: %s is %r, not 1" % (name, key, numbers.get(key)))
    elif name == "frame-verify_needlet":
        ratio = value("stdout:ratio=#0")
        if not abs(ratio - 1.0) <= TIGHTNESS_ABS:
            problems.append("%s: ratio %r is not 1" % (name, ratio))
    elif name in ("partition_band", "partition_greedy"):
        total = value("stdout:sum-measure=#0")
        if not _rel_err(total, FOUR_PI) <= MEASURE_REL:
            problems.append("%s: sum-measure %r is not 4 pi" % (name, total))
    elif name == "partition_cubature":
        total = value("stdout:weight-sum=#0")
        if not _rel_err(total, FOUR_PI) <= MEASURE_REL:
            problems.append("%s: weight-sum %r is not 4 pi" % (name, total))
    return problems


def pin_problems(name, numbers, reference):
    """Outputs that differ from the reference by more than PIN_REL."""
    problems = []
    for key, ref in reference.get(name, {}).items():
        if any(word in key for word in UNPINNED):
            continue
        got = numbers.get(key)
        if got is None:
            problems.append("%s: pinned output %r missing" % (name, key))
        elif not abs(got - ref) <= PIN_REL * max(abs(ref), abs(got)):
            problems.append("%s: %s = %.17g, reference %.17g" % (name, key, got, ref))
    return problems


def import_seconds(src):
    """Time to import mexneedlets.cli in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import mexneedlets.cli; print(repr(time.perf_counter() - t))")
    done = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True,
                          text=True, timeout=120, check=False)
    if done.returncode != 0:
        return None, ["import of mexneedlets.cli exited %d: %s"
                      % (done.returncode, done.stderr.strip()[-300:])]
    return float(done.stdout.strip().splitlines()[-1]), []


class Cli(Workload):
    """One in-process pass of mexneedlets.cli.main over the command list."""

    why = ("what users run; the only workload that reaches the scalar-Python layers "
           "(daubechies, kernels, partition build) and the masked spatial path")
    full = {"commands": CLI_NAMES, "setups": 5}
    tiny = {"commands": ["daubechies_cutoff", "kernel-profile_mexican", "kernel-profile_cutoff",
                         "partition_band", "partition_cubature", "frame-verify_needlet",
                         "needlet-diag"], "setups": 1}

    def __init__(self, seed, config):
        self.config = config
        self.n_setups = config["setups"]
        self.src = ROOT / "src"
        with open(CLI_REFERENCE) as fh:
            self.reference = json.load(fh)
        # The seed does not change the inputs: every command keeps its README
        # arguments and its own --seed, so that every output stays pinned.
        self.commands = [c for c in CLI_COMMANDS if c[0] in config["commands"]]
        self.tmp_parent = ROOT / ".perfbench_tmp"
        self.out_dir = self.tmp_parent / str(os.getpid())
        self.out_dir.mkdir(parents=True, exist_ok=True)

    def close(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            self.tmp_parent.rmdir()

    def setup(self, outcome):
        elapsed, problems = import_seconds(self.src)
        outcome.record(problems)
        return elapsed

    def _invoke(self, outcome, name, argv):
        """Run and check one command; return its time, or None if it raised."""
        try:
            code, elapsed, numbers = cli_outputs(name, argv, self.out_dir)
        except Exception as exc:  # a crash counts as a failed invocation
            traceback.print_exc()
            outcome.record(["%s raised %s: %s" % (name, type(exc).__name__, exc)])
            return None
        problems = [] if code == 0 else ["%s exited %r" % (name, code)]
        problems += _cli_checks(name, numbers) + pin_problems(name, numbers, self.reference)
        outcome.record(problems)
        return elapsed

    def operation(self, outcome):
        """One pass of the list: its total, ring-transform and scalar times."""
        timings = {"primary_s": 0.0, "secondary_s": 0.0, "scalar_s": 0.0}
        for name, argv, scalar in self.commands:
            elapsed = self._invoke(outcome, name, argv)
            if elapsed is None:
                continue
            timings["cli.%s_s" % name] = elapsed
            timings["primary_s"] += elapsed
            timings["scalar_s" if scalar else "secondary_s"] += elapsed
        return timings

    def computed_work(self):
        work = {}
        for label, a, b, L, j_lo, j_hi in CLI_FRAMES:
            grids = [(partition.build_partition(j, a, b).grid, L) for j in range(j_lo, j_hi + 1)]
            work["%s frame L=%d b=%g j=%d..%d" % (label, L, b, j_lo, j_hi)] = _grid_work(grids)
        return work


WORKLOADS = {"mexframe": Mexframe, "needlet": Needlet, "cli": Cli}
