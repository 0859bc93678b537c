"""Command-line front end.

Subcommands: daubechies, kernel-profile, partition, frame-verify,
truncation, spatial, needlet-diag.  A key = value config file can supply
any long option; explicit flags win.  Exit codes: 0 success, 2 bad
parameters/usage, 3 verification failure.
"""

import argparse
import json
import math
import sys

import numpy as np

from .daubechies import daubechies_bounds
from .errors import MexNeedletError
from .fields import HarmonicField
from .filters import parse_filter
from .frame import FrameSpec, empirical_frame_bounds
from .kernels import kernel_profile, series_gaussian_max_diff
from .needlets import build_needlet_frame, hybrid_tail_diagnostics
from .partition import build_partition, greedy_ball_partition, partition_to_json
from .cubature import cubature_rule, cubature_to_csv
from .truncation import (GeodesicCap, fit_riemann_constant, frequency_bound,
                         measured_truncation_error, spatial_truncation_report,
                         spectral_tail_norm, window_margin)
# bound here so that the perfbench tracer and self-test find cli.apply_summation
from .frame import apply_summation  # noqa: F401

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFICATION = 3

_MAX_EXPORT_CELLS = 1_000_000


def _read_config(path):
    values = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError("config line without '=': %r" % line)
            key, val = (part.strip() for part in line.split("=", 1))
            values[key.replace("-", "_")] = val
    return values


def _merge_config(args, defaults):
    """Fill argparse None slots from config file, then documented defaults."""
    config = _read_config(args.config) if getattr(args, "config", None) else {}
    for key, fallback in defaults.items():
        if getattr(args, key, None) is not None:
            continue
        if key not in config:
            setattr(args, key, fallback)
        elif isinstance(fallback, bool):
            setattr(args, key, config[key].lower() in ("1", "true", "yes"))
        else:
            caster = args.option_types[key] or str
            try:
                setattr(args, key, caster(config[key]))
            except ValueError:
                raise ValueError("--%s: invalid %s value %r" % (
                    key.replace("_", "-"), caster.__name__, config[key])) from None
    for key in defaults:
        value = getattr(args, key)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError("--%s must be finite, got %r" % (key.replace("_", "-"), value))
    return args


def _dump_json(doc, path):
    text = json.dumps(doc, indent=1, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _build_spec(args):
    filt = parse_filter(args.filter)
    j_range = None
    if args.j_min is not None or args.j_max is not None:
        if args.j_min is None or args.j_max is None:
            raise ValueError("give both j-min and j-max or neither")
        j_range = (int(args.j_min), int(args.j_max))
    return FrameSpec.build(filt, args.a, args.b, int(args.l_max), j_range=j_range)


def cmd_daubechies(args):
    _merge_config(args, {"a": 2.0 ** (1.0 / 3.0), "filter": "mexican:r=1",
                         "grid_points": 256, "out": None})
    filt = parse_filter(args.filter)
    bounds = daubechies_bounds(filt, args.a, grid_points=int(args.grid_points))
    print("A = %.10g" % bounds.A)
    print("B = %.10g" % bounds.B)
    print("B/A = %.10g" % bounds.ratio)
    print("reference c/log-period = %.10g" % bounds.reference_level)
    if args.out:
        _dump_json(bounds.as_dict(), args.out)
    return EXIT_OK


def cmd_kernel_profile(args):
    _merge_config(args, {"t": 0.1, "filter": "mexican:r=1", "method": "auto",
                         "n": 1001, "convention": "laplacian", "tol": 1e-8,
                         "out": None})
    filt = parse_filter(args.filter)
    prof = kernel_profile(filt, args.t, int(args.n), method=args.method,
                          tol=args.tol, convention=args.convention)
    if args.out:
        prof.to_csv(args.out)
    print("filter=%s t=%g method=%s points=%d max|value|=%.6g"
          % (prof.filter_name, prof.t, prof.method, len(prof.thetas),
             float(np.max(np.abs(prof.values)))))
    if filt.is_mexican and filt.r == 1 and args.convention == "laplacian":
        print("max |series - gaussian| = %.6g" % series_gaussian_max_diff(args.t))
    return EXIT_OK


def cmd_partition(args):
    _merge_config(args, {"j": 0, "a": 2.0 ** (1.0 / 3.0), "b": 0.5,
                         "greedy": False, "t": math.pi / 4, "candidates": 2000,
                         "cubature_degree": None, "out": None})
    if args.cubature_degree is not None:
        rule = cubature_rule(int(args.cubature_degree))
        if args.out:
            cubature_to_csv(rule, args.out)
        print("cubature degree=%d nodes=%d weight-sum=%.12g"
              % (rule.degree, rule.n_nodes, float(np.sum(rule.weights))))
        return EXIT_OK
    if args.greedy:
        part = greedy_ball_partition(args.t, candidates=int(args.candidates))
    else:
        part = build_partition(int(args.j), args.a, args.b)
    print("cells=%d sum-measure=%.12g max-diameter=%.6g achieved-c0=%.6g"
          % (part.n_cells, part.sum_measure(), part.max_diameter_bound(),
             part.achieved_c0()))
    if args.out:
        if part.n_cells > _MAX_EXPORT_CELLS:
            raise ValueError("partition too large to export (%d cells)" % part.n_cells)
        partition_to_json(part, args.out)
    return EXIT_OK


def cmd_frame_verify(args):
    _merge_config(args, {"a": 2.0 ** (1.0 / 3.0), "b": 0.5, "filter": None,
                         "l_max": 16, "trials": 20, "seed": 0, "j_min": None,
                         "j_max": None, "mode": "partition", "out": None})
    if args.filter is None:
        args.filter = "normalized_cutoff" if args.mode == "needlet" else "mexican:r=1"
    if args.mode == "needlet":
        filt = parse_filter(args.filter)
        j_lo = args.j_min if args.j_min is not None else -int(math.ceil(math.log2(max(args.l_max, 2))))
        j_hi = args.j_max if args.j_max is not None else 0
        frame = build_needlet_frame(filt, int(j_lo), int(j_hi))
        fb = empirical_frame_bounds(frame, int(args.trials), seed=int(args.seed))
        doc = {"A_emp": fb.lower, "B_emp": fb.upper, "ratio": fb.ratio, "A_theory": 1.0,
               "B_theory": 1.0, "mode": "needlet"}
    else:
        spec = _build_spec(args)
        bounds = daubechies_bounds(spec.filter, spec.a)
        fb = empirical_frame_bounds(spec, int(args.trials), seed=int(args.seed))
        doc = {"A_emp": fb.lower, "B_emp": fb.upper, "ratio": fb.ratio,
               "A_theory": bounds.A, "B_theory": bounds.B, "mode": "partition",
               "j_min": spec.j_min, "j_max": spec.j_max, "L_max": spec.L_max,
               "trials": int(args.trials), "seed": int(args.seed)}
    print("A_emp=%.10g B_emp=%.10g ratio=%.10g" % (doc["A_emp"], doc["B_emp"], doc["ratio"]))
    if args.out:
        _dump_json(doc, args.out)
    if doc["A_emp"] <= 0.0:
        print("frame verification failed: lower bound is not positive", file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


def cmd_truncation(args):
    _merge_config(args, {"a": 2.0 ** (1.0 / 3.0), "b": 0.9, "filter": "mexican:r=1",
                         "l_max": 2, "j_min": -24, "j_max": 6, "M": 22, "N": 4,
                         "J": 1, "L": None, "seed": 0, "trials": 3, "calibrate": 2,
                         "out": None})
    spec = _build_spec(args)
    level = args.L if args.L is not None else float(spec.L_max * (spec.L_max + 1))
    rng = np.random.default_rng(int(args.seed))
    bounds = daubechies_bounds(spec.filter, spec.a)
    fields = [HarmonicField.random_mean_zero(spec.L_max, rng)
              for _ in range(int(args.trials) + int(args.calibrate))]
    calib, held_out = fields[: int(args.calibrate)], fields[int(args.calibrate):]
    c0_est = fit_riemann_constant(spec, calib, int(args.M), int(args.N), J=int(args.J),
                                  bounds=bounds) if calib else 0.0
    reports = []
    for f in held_out:
        rep = frequency_bound(spec, spec.filter.vanishing_order, int(args.J), level,
                              int(args.M), int(args.N), spectral_tail_norm(f, level),
                              f.norm(), bounds=bounds)
        rep.measured_error = measured_truncation_error(spec, f, int(args.M), int(args.N))
        reports.append(rep.as_dict())
    doc = {
        "reports": reports,
        "window_margin": window_margin(spec, int(args.M), int(args.N)),
        "C0_est": c0_est,
        "seed": int(args.seed),
        "L_max": spec.L_max,
        "j_range": [spec.j_min, spec.j_max],
        "b": spec.b,
    }
    print("measured errors:", " ".join("%.4g" % r["measured_error"] for r in reports))
    print("bound_without_C0b:", " ".join("%.4g" % r["bound_without_C0b"] for r in reports))
    print("fitted C0_est = %.6g (reported, not asserted)" % c0_est)
    if args.out:
        _dump_json(doc, args.out)
    return EXIT_OK


def cmd_spatial(args):
    _merge_config(args, {"a": 2.0 ** (1.0 / 3.0), "b": 0.4, "filter": "mexican:r=1",
                         "l_max": 8, "j_min": -13, "j_max": 2, "cap_radius": 0.6,
                         "c": 0.5, "i_decay": 3.0, "doublings": 3, "seed": 0,
                         "out": None})
    spec = _build_spec(args)
    cap = GeodesicCap(center=np.array([0.0, 0.0, 1.0]), radius=float(args.cap_radius))
    # cap-localized test field: heat-type bell at the cap center
    coeffs = np.zeros((spec.L_max + 1) ** 2)
    for l in range(1, spec.L_max + 1):
        coeffs[l * l + l] = math.exp(-l * (l + 1) * 0.02) * math.sqrt(2 * l + 1)
    field = HarmonicField(coeffs / np.linalg.norm(coeffs))
    fb = empirical_frame_bounds(spec, trials=20, seed=int(args.seed))
    sweep = []
    c = float(args.c)
    for _ in range(int(args.doublings) + 1):
        rep = spatial_truncation_report(spec, field, cap, c, float(args.i_decay),
                                        b_emp=fb.upper)
        rec = rep.as_dict()
        rec["c"] = c
        rec["dropped_norm_sq"] = rep.measured ** 2
        sweep.append(rec)
        c *= 2.0
    doc = {"B_emp": fb.upper, "cap_radius": float(args.cap_radius), "sweep": sweep,
           "seed": int(args.seed), "L_max": spec.L_max,
           "j_range": [spec.j_min, spec.j_max]}
    for rec in sweep:
        print("c=%-8g dropped-form=%.6g measured=%.6g structural=%.6g"
              % (rec["c"], rec["dropped_quadratic_form"], rec["measured"],
                 rec["structural_factor"]))
    if args.out:
        _dump_json(doc, args.out)
    return EXIT_OK


def cmd_needlet_diag(args):
    _merge_config(args, {"N": "4,8,12", "a": 2.0 ** (1.0 / 3.0), "l_max": 32,
                         "out": None})
    records = [hybrid_tail_diagnostics(float(nn), args.a, int(args.l_max))
               for nn in str(args.N).split(",")]
    for rec in records:
        print("N=%-4g eps3=%.6g eps4=%.6g eps3/(e^-N N)=%.4g eps4/(e^-N N^5)=%.4g"
              % (rec["N"], rec["eps3"], rec["eps4"], rec["eps3_ratio"], rec["eps4_ratio"]))
    if args.out:
        _dump_json({"records": records}, args.out)
    return EXIT_OK


def _add_common(sub):
    sub.add_argument("--config", help="key = value file supplying defaults")
    sub.add_argument("--out", help="output file path")


def build_parser():
    parser = argparse.ArgumentParser(prog="mexneedlets",
                                     description="Nearly tight wavelet frames on the sphere")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("daubechies", help="ladder-sum frame bound constants")
    p.add_argument("--a", type=float)
    p.add_argument("--filter")
    p.add_argument("--grid-points", dest="grid_points", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_daubechies)

    p = subs.add_parser("kernel-profile", help="kernel profile over theta, CSV export")
    p.add_argument("--t", type=float)
    p.add_argument("--filter")
    p.add_argument("--method", choices=["series", "gaussian", "auto"])
    p.add_argument("--n", type=int)
    p.add_argument("--convention", choices=["laplacian", "degree"])
    p.add_argument("--tol", type=float)
    _add_common(p)
    p.set_defaults(func=cmd_kernel_profile)

    p = subs.add_parser("partition", help="build a partition or cubature rule")
    p.add_argument("--j", type=int)
    p.add_argument("--a", type=float)
    p.add_argument("--b", type=float)
    p.add_argument("--greedy", action="store_const", const=True)
    p.add_argument("--t", type=float)
    p.add_argument("--candidates", type=int)
    p.add_argument("--cubature-degree", dest="cubature_degree", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_partition)

    p = subs.add_parser("frame-verify", help="empirical frame bounds")
    p.add_argument("--a", type=float)
    p.add_argument("--b", type=float)
    p.add_argument("--filter")
    p.add_argument("--l-max", dest="l_max", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--j-min", dest="j_min", type=int)
    p.add_argument("--j-max", dest="j_max", type=int)
    p.add_argument("--mode", choices=["partition", "needlet"])
    _add_common(p)
    p.set_defaults(func=cmd_frame_verify)

    p = subs.add_parser("truncation", help="frequency truncation report")
    for name, typ in (("a", float), ("b", float), ("l-max", int), ("j-min", int),
                      ("j-max", int), ("M", int), ("N", int), ("J", int), ("L", float),
                      ("seed", int), ("trials", int), ("calibrate", int)):
        p.add_argument("--" + name, dest=name.replace("-", "_"), type=typ)
    p.add_argument("--filter")
    _add_common(p)
    p.set_defaults(func=cmd_truncation)

    p = subs.add_parser("spatial", help="spatial truncation sweep")
    for name, typ in (("a", float), ("b", float), ("l-max", int), ("j-min", int),
                      ("j-max", int), ("cap-radius", float), ("c", float),
                      ("i-decay", float), ("doublings", int), ("seed", int)):
        p.add_argument("--" + name, dest=name.replace("-", "_"), type=typ)
    p.add_argument("--filter")
    _add_common(p)
    p.set_defaults(func=cmd_spatial)

    p = subs.add_parser("needlet-diag", help="hybrid tail diagnostics")
    p.add_argument("--N", dest="N")
    p.add_argument("--a", type=float)
    p.add_argument("--l-max", dest="l_max", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_needlet_diag)

    # config-file values are cast with the type each subcommand declares
    for sub in subs.choices.values():
        sub.set_defaults(option_types={action.dest: action.type for action in sub._actions})
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, MexNeedletError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
