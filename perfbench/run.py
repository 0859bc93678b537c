"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload mexframe --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics and the tracing overhead
with ``--trace 1``.  The line before it is a report: provenance, every
timing's median, quartiles and sample count, the workload's own names for
its metrics, the ungated pure-Python timings, computed work counts and any
failed checks.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = {"setup_s": "s", "primary_s": "s", "secondary_s": "s", "peak_rss_mb": "MB"}
TIMED = ("setup_s", "primary_s", "secondary_s")


class BenchError(Exception):
    """The run cannot produce a result."""


def cap_threads():
    """Limit BLAS and OpenMP pools to the cores this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not (value.isdigit() and 1 <= int(value) <= nproc):
            os.environ[var] = str(nproc)
    return nproc


def import_benchmark():
    """Import the package from this checkout's src and the benchmark modules."""
    if not (SRC / "mexneedlets" / "__init__.py").is_file():
        raise BenchError("no package source at %s" % (SRC / "mexneedlets"))
    sys.path.insert(0, str(SRC))
    import mexneedlets
    if Path(mexneedlets.__file__).resolve().parent != (SRC / "mexneedlets").resolve():
        raise BenchError("mexneedlets imported from %s, not from this checkout"
                         % mexneedlets.__file__)
    import spans
    import workloads
    return spans, workloads


def per_layer_names(spans, workloads):
    return (spans.layer_metric_names()
            + ["cli.%s_s" % name for name in workloads.CLI_NAMES]
            + ["trace.overhead_%s" % name for name in TIMED])


@dataclass
class Run:
    setups: list
    samples: dict
    ops: int
    after_setup: dict = field(default_factory=dict)
    final: dict = field(default_factory=dict)


def measure(workload, outcome, seconds, tracer=None):
    """Set up ``n_setups`` times, then repeat the operation for ``seconds``."""
    setups = [workload.setup(outcome) for _ in range(workload.n_setups)]
    after_setup = tracer.snapshot() if tracer else {}
    samples = defaultdict(list)
    ops = 0
    start = time.perf_counter()
    while ops == 0 or time.perf_counter() - start < seconds:
        ops += 1
        try:
            timings = workload.operation(outcome)
        except Exception as exc:  # a raised exception is a failed operation
            traceback.print_exc()
            outcome.record(["operation raised %s: %s" % (type(exc).__name__, exc)])
            continue
        for name, value in timings.items():
            samples[name].append(value)
    return Run([s for s in setups if s is not None], dict(samples), ops, after_setup,
               tracer.snapshot() if tracer else {})


def end_to_end(run):
    values = {"setup_s": run.setups, "primary_s": run.samples.get("primary_s"),
              "secondary_s": run.samples.get("secondary_s")}
    missing = [name for name, samples in values.items() if not samples]
    if missing:
        raise BenchError("no successful sample of %s" % ", ".join(missing))
    return {name: statistics.median(samples) for name, samples in values.items()}


def summarize(values):
    """Median, quartiles, sample count, and the highest percentile among
    p90/p99/p99.9 that has at least ten samples beyond it."""
    out = {"median": statistics.median(values), "samples": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    ordered = sorted(values)
    for label, share in (("p99.9", 0.999), ("p99", 0.99), ("p90", 0.9)):
        if len(values) * (1.0 - share) >= 10:
            out[label] = ordered[min(len(ordered) - 1, int(share * len(ordered)))]
            break
    return out


def per_layer(run, spans, workloads, base, traced):
    """Each layer's self time or count per set-up plus per operation."""
    out = {}
    for name in spans.layer_metric_names():
        in_setup = run.after_setup.get(name, 0.0)
        in_ops = run.final.get(name, 0.0) - in_setup
        out[name] = in_setup / max(len(run.setups), 1) + in_ops / run.ops
    for name in workloads.CLI_NAMES:
        values = run.samples.get("cli.%s_s" % name, [])
        out["cli.%s_s" % name] = sum(values) / len(values) if values else 0.0
    for name in TIMED:
        out["trace.overhead_%s" % name] = traced[name] - base[name]
    return out


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=False)
    except OSError:
        return None
    return done.stdout.strip() or None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(seed, nproc):
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        blas = None
    return {"seed": seed, "git_commit": git_commit(), "source_sha256": source_digest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
            "nproc": nproc, "cpu": cpu_model()}


def run_workload(name, seed, seconds, trace, size="full"):
    """Run one workload; return (result, report) as printed by ``main``."""
    spans, workloads = import_benchmark()
    cls = workloads.WORKLOADS[name]
    config = getattr(cls, size)
    outcome = workloads.Outcome()

    def one_run(duration, tracer=None):
        workload = cls(seed, config)
        try:
            if tracer is None:
                # work counts are computed after the timed part
                return measure(workload, outcome, duration), workload.computed_work()
            tracer.install()
            try:
                return measure(workload, outcome, duration, tracer), None
            finally:
                tracer.uninstall()
        finally:
            workload.close()

    extra = {}
    if trace:
        # an untraced and a traced run of equal length; their difference
        # is the tracing overhead
        timed_run, work = one_run(seconds / 2.0)
        run, _ = one_run(seconds / 2.0, spans.Tracer())
        untraced = end_to_end(timed_run)
        values = per_layer(run, spans, workloads, untraced, end_to_end(run))
        units = {m: "s" if m.endswith("_s") else "count" for m in values}
        extra["traced_per_operation"] = {
            m: (run.final.get(m, 0.0) - run.after_setup.get(m, 0.0)) / run.ops
            for m in spans.layer_metric_names()}
    else:
        timed_run, work = one_run(seconds)
        untraced = end_to_end(timed_run)
        values = dict(untraced)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END
    timings = {"setup_s": timed_run.setups, **timed_run.samples}
    report = {
        "workload": name, "why": cls.why, "size": size, "seconds": seconds,
        "trace": trace, "operations": timed_run.ops,
        "error_rate": outcome.failed / max(outcome.attempted, 1),
        "named": {alias: {"metric": metric, "definition": definition,
                          "value": untraced[metric], "unit": "s"}
                  for metric, (alias, definition) in workloads.ROLES[name].items()},
        "reported": {timing: {"definition": definition, "unit": "s",
                              "value": statistics.median(timed_run.samples[timing])}
                     for (wl, timing), definition in workloads.REPORTED.items()
                     if wl == name and timed_run.samples.get(timing)},
        "timings": {k: summarize(v) for k, v in timings.items() if v},
        "computed_work": work,
        "failed_checks": outcome.messages,
        "provenance": provenance(seed, len(os.sched_getaffinity(0))),
        **extra,
    }
    result = {"correct": outcome.failed == 0, "attempted": outcome.attempted,
              "failed": outcome.failed,
              "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()}}
    return result, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["mexframe", "needlet", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    cap_threads()
    try:
        result, report = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, ImportError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    print(json.dumps({"report": report}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
