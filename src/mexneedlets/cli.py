"""Command-line front end.

Subcommands: daubechies, kernel-profile, partition, frame-verify,
truncation, spatial, needlet-diag.  A key = value config file supplies
long options: its values are parsed as flags placed before the command
line's own, so they get the same checks and explicit flags win.  Exit
codes: 0 success, 2 bad parameters/usage, 3 verification failure.
"""

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from .daubechies import daubechies_bounds
from .errors import MexNeedletError
from .fields import HarmonicField
from .filters import parse_filter
from .frame import FrameSpec, empirical_frame_bounds
from .harmonics import n_coeffs, sh_index
from .kernels import DEFAULT_T_CROSS, kernel_profile, series_gaussian_max_diff
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
_A_THIRD = 2.0 ** (1.0 / 3.0)
_MEXICAN = "mexican:r=1"


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


def _config_argv(subparser, path):
    """The config file's values as flags of ``subparser``.

    Keys it has no option for are skipped, so one file can serve several subcommands.
    """
    options = {action.dest: action for action in subparser._actions if action.option_strings}
    argv = []
    for key, value in _read_config(path).items():
        action = options.get(key)
        if action is not None and action.nargs != 0:
            argv.append("%s=%s" % (action.option_strings[-1], value))
        elif action is not None and value.lower() in ("1", "true", "yes"):
            argv.append(action.option_strings[-1])  # a flag option, such as --greedy
    return argv


def _check_finite(args):
    for key, value in vars(args).items():
        for x in value if isinstance(value, list) else [value]:
            if isinstance(x, float) and not math.isfinite(x):
                raise ValueError("--%s must be finite, got %r" % (key.replace("_", "-"), x))


def _count(text):
    """Option type of the counts (trials, calibration fields, doublings, candidates)."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError("invalid non-negative integer value: %r" % text)
    return int(text)


def _float_list(text):
    """Option type of a comma-separated list of numbers."""
    try:
        return [float(item) for item in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError("invalid float list: %r" % text) from None


def _finite_or_null(x):
    """``x`` with every non-finite float as None, so that it dumps as strict JSON."""
    if isinstance(x, dict):
        return {key: _finite_or_null(value) for key, value in x.items()}
    if isinstance(x, (list, tuple)):
        return [_finite_or_null(value) for value in x]
    return None if isinstance(x, float) and not math.isfinite(x) else x


def _dump_json(doc, path):
    text = json.dumps(_finite_or_null(doc), indent=1, sort_keys=True, allow_nan=False)
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
        j_range = (args.j_min, args.j_max)
    return FrameSpec.build(filt, args.a, args.b, args.l_max, j_range=j_range)


def cmd_daubechies(args):
    filt = parse_filter(args.filter)
    bounds = daubechies_bounds(filt, args.a, grid_points=args.grid_points)
    print("A = %.10g" % bounds.A)
    print("B = %.10g" % bounds.B)
    print("B/A = %.10g" % bounds.ratio)
    print("reference c/log-period = %.10g" % bounds.reference_level)
    if args.out:
        _dump_json(dataclasses.asdict(bounds), args.out)
    return EXIT_OK


def cmd_kernel_profile(args):
    filt = parse_filter(args.filter)
    prof = kernel_profile(filt, args.t, args.n, method=args.method,
                          tol=args.tol, convention=args.convention)
    if args.out:
        prof.to_csv(args.out)
    print("filter=%s t=%g method=%s points=%d max|value|=%.6g"
          % (prof.filter_name, prof.t, prof.method, len(prof.thetas),
             float(np.max(np.abs(prof.values)))))
    # the small-t closed form is checked only where method="auto" would choose it
    if filt.is_mexican and filt.r == 1 and args.convention == "laplacian" \
            and args.t < DEFAULT_T_CROSS:
        print("max |series - gaussian| = %.6g" % series_gaussian_max_diff(args.t))
    return EXIT_OK


def cmd_partition(args):
    if args.cubature_degree is not None:
        rule = cubature_rule(args.cubature_degree)
        if args.out:
            cubature_to_csv(rule, args.out)
        print("cubature degree=%d nodes=%d weight-sum=%.12g"
              % (rule.degree, rule.n_nodes, float(np.sum(rule.weights))))
        return EXIT_OK
    if args.greedy:
        part = greedy_ball_partition(args.t, candidates=args.candidates)
    else:
        part = build_partition(args.j, args.a, args.b)
    print("cells=%d sum-measure=%.12g max-diameter=%.6g achieved-c0=%.6g"
          % (part.n_cells, part.sum_measure(), part.max_diameter_bound(),
             part.achieved_c0()))
    if args.out:
        if part.n_cells > _MAX_EXPORT_CELLS:
            raise ValueError("partition too large to export (%d cells)" % part.n_cells)
        partition_to_json(part, args.out)
    return EXIT_OK


def cmd_frame_verify(args):
    if args.filter is None:
        args.filter = "normalized_cutoff" if args.mode == "needlet" else _MEXICAN
    if args.mode == "needlet":
        if args.l_max < 1:
            raise ValueError("band limit must be at least 1")
        j_lo = args.j_min if args.j_min is not None else -int(math.ceil(math.log2(max(args.l_max, 2))))
        j_hi = args.j_max if args.j_max is not None else 0
        frame = build_needlet_frame(parse_filter(args.filter), j_lo, j_hi)
        doc = {"A_theory": 1.0, "B_theory": 1.0, "mode": "needlet"}
    else:
        frame = _build_spec(args)
        bounds = daubechies_bounds(frame.filter, frame.a)
        doc = {"A_theory": bounds.A, "B_theory": bounds.B, "mode": "partition",
               "j_min": frame.j_min, "j_max": frame.j_max, "L_max": frame.L_max,
               "trials": args.trials, "seed": args.seed}
    fb = empirical_frame_bounds(frame, args.trials, seed=args.seed)
    doc.update(A_emp=fb.lower, B_emp=fb.upper, ratio=fb.ratio)
    print("A_emp=%.10g B_emp=%.10g ratio=%.10g" % (fb.lower, fb.upper, fb.ratio))
    if args.out:
        _dump_json(doc, args.out)
    if fb.lower <= 0.0:
        print("frame verification failed: lower bound is not positive", file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


def cmd_truncation(args):
    spec = _build_spec(args)
    level = args.L if args.L is not None else float(spec.L_max * (spec.L_max + 1))
    rng = np.random.default_rng(args.seed)
    bounds = daubechies_bounds(spec.filter, spec.a)
    fields = [HarmonicField.random_mean_zero(spec.L_max, rng)
              for _ in range(args.trials + args.calibrate)]
    calib, held_out = fields[:args.calibrate], fields[args.calibrate:]
    c0_est = fit_riemann_constant(spec, calib, level, args.M, args.N, J=args.J,
                                  bounds=bounds) if calib else 0.0
    reports = []
    for f in held_out:
        rep = frequency_bound(spec, args.J, level, args.M, args.N,
                              spectral_tail_norm(f, level), f.norm(), bounds=bounds)
        rep.measured_error = measured_truncation_error(spec, f, args.M, args.N)
        reports.append(dataclasses.asdict(rep))
    doc = {
        "reports": reports,
        "window_margin": window_margin(spec, args.M, args.N),
        "C0_est": c0_est,
        "seed": args.seed,
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
    cap = GeodesicCap(center=np.array([0.0, 0.0, 1.0]), radius=args.cap_radius)
    # the sweep's values, checked before the frame and its trial bounds are built
    if not args.c > 0.0:
        raise ValueError("c must be positive, got %r" % (args.c,))
    if not args.i_decay > 1.0:
        raise ValueError("decay order I must be > 1, got %r" % (args.i_decay,))
    try:
        cs = [math.ldexp(args.c, i) for i in range(args.doublings + 1)]
    except OverflowError:
        raise ValueError("c * 2^doublings overflows a float at c = %r, doublings = %d"
                         % (args.c, args.doublings)) from None
    spec = _build_spec(args)
    # cap-localized test field: heat-type bell at the cap center
    coeffs = np.zeros(n_coeffs(spec.L_max))
    for l in range(1, spec.L_max + 1):
        coeffs[sh_index(l, 0)] = math.exp(-l * (l + 1) * 0.02) * math.sqrt(2 * l + 1)
    field = HarmonicField(coeffs / np.linalg.norm(coeffs))
    fb = empirical_frame_bounds(spec, trials=20, seed=args.seed)
    reports = spatial_truncation_report(spec, field, cap, cs, args.i_decay, b_emp=fb.upper)
    sweep = [dict(dataclasses.asdict(rep), c=c, dropped_norm_sq=rep.measured ** 2)
             for c, rep in zip(cs, reports)]
    doc = {"B_emp": fb.upper, "cap_radius": args.cap_radius, "sweep": sweep,
           "seed": args.seed, "L_max": spec.L_max,
           "j_range": [spec.j_min, spec.j_max]}
    for rec in sweep:
        print("c=%(c)-8g dropped-form=%(dropped_quadratic_form).6g measured=%(measured).6g "
              "structural=%(structural_factor).6g" % rec)
    if args.out:
        _dump_json(doc, args.out)
    return EXIT_OK


def cmd_needlet_diag(args):
    records = [hybrid_tail_diagnostics(nn, args.a, args.l_max) for nn in args.N]
    for rec in records:
        print("N=%-4g eps3=%.6g eps4=%.6g eps3/(e^-N N)=%.4g eps4/(e^-N N^5)=%.4g"
              % (rec["N"], rec["eps3"], rec["eps4"], rec["eps3_ratio"], rec["eps4_ratio"]))
    if args.out:
        _dump_json({"records": records}, args.out)
    return EXIT_OK


def _frame_options(b, l_max, j_min, j_max, filt=_MEXICAN):
    return dict(a=(float, _A_THIRD), b=(float, b), filter=(str, filt), l_max=(int, l_max),
                j_min=(int, j_min), j_max=(int, j_max))


def build_parser():
    parser = argparse.ArgumentParser(prog="mexneedlets", exit_on_error=False,
                                     description="Nearly tight wavelet frames on the sphere")
    subs = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, func, help, **options):
        """A subparser with --config, --out and an --NAME option per NAME=(type, default)."""
        sub = subs.add_parser(name, help=help, exit_on_error=False)
        sub.add_argument("--config", help="key = value file supplying defaults")
        sub.add_argument("--out", help="output file path")
        for key, (typ, default) in options.items():
            sub.add_argument("--" + key.replace("_", "-"), type=typ, default=default)
        sub.set_defaults(func=func, subparser=sub)
        return sub

    subcommand("daubechies", cmd_daubechies, "ladder-sum frame bound constants",
               a=(float, _A_THIRD), filter=(str, _MEXICAN), grid_points=(int, 256))
    p = subcommand("kernel-profile", cmd_kernel_profile, "kernel profile over theta, CSV export",
                   t=(float, 0.1), filter=(str, _MEXICAN), n=(int, 1001), tol=(float, 1e-8))
    p.add_argument("--method", choices=["series", "gaussian", "auto"], default="auto")
    p.add_argument("--convention", choices=["laplacian", "degree"], default="laplacian")
    p = subcommand("partition", cmd_partition, "build a partition or cubature rule",
                   j=(int, 0), a=(float, _A_THIRD), b=(float, 0.5), t=(float, math.pi / 4),
                   candidates=(_count, 2000), cubature_degree=(int, None))
    p.add_argument("--greedy", action="store_true")
    p = subcommand("frame-verify", cmd_frame_verify, "empirical frame bounds",
                   **_frame_options(0.9, 16, None, None, filt=None),
                   trials=(_count, 20), seed=(int, 0))
    p.add_argument("--mode", choices=["partition", "needlet"], default="partition")
    subcommand("truncation", cmd_truncation, "frequency truncation report",
               **_frame_options(0.9, 2, -24, 6), M=(int, 22), N=(int, 4), J=(int, 1),
               L=(float, None), seed=(int, 0), trials=(_count, 3), calibrate=(_count, 2))
    subcommand("spatial", cmd_spatial, "spatial truncation sweep",
               **_frame_options(0.4, 8, -13, 2), cap_radius=(float, 0.6), c=(float, 0.5),
               i_decay=(float, 3.0), doublings=(_count, 3), seed=(int, 0))
    subcommand("needlet-diag", cmd_needlet_diag, "hybrid tail diagnostics",
               N=(_float_list, "4,8,12"), a=(float, _A_THIRD), l_max=(int, 32))
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # config values go before the command line's own flags, which win
            args = parser.parse_args(argv[:1] + _config_argv(args.subparser, args.config)
                                     + argv[1:])
        _check_finite(args)
        with np.errstate(over="raise"):
            return args.func(args)
    except (argparse.ArgumentError, ValueError, MexNeedletError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except (OverflowError, FloatingPointError):
        print("error: a parameter value overflowed the float range", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
