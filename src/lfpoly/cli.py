"""Command-line front end.

Each subcommand reads an expression file, runs one experiment, prints a
short table, and writes a JSON and a CSV artifact into the output
directory.  Outputs are deterministic for a fixed config and seed, byte
for byte, regardless of the parallelism width.  Exit codes: 0 success,
1 numeric failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
import warnings

from . import analysis, expr as _expr, exprfile
from .errors import ExpressionFileError, LfpolyError

SCHEMA_VERSION = 1

log = logging.getLogger("lfpoly")


def _setup_logging():
    # LFD_LOG is the only environment variable the tool reads
    level = os.environ.get("LFD_LOG", "warning").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )


def _cplx(z):
    z = complex(z)
    return [z.real, z.imag]


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\r\n")
        w.writerow(header)
        w.writerows(rows)


def _print_table(pairs):
    width = max(len(k) for k, _ in pairs)
    for k, v in pairs:
        print(f"{k:<{width}}  {v}")


def _profile_doc(p):
    return {
        "degRk": p.deg_rk,
        "degDer": p.deg_der,
        "degCond": p.deg_cond,
        "J": sorted(p.J),
        "sumCJ": _cplx(p.sum_cJ),
        "assumptionSatisfied": p.assumption_satisfied,
        "nF": p.n_F,
        "etaNF": _cplx(p.eta_nF),
        "pF": p.p_F,
        "alpha1": p.alpha1,
        "alpha2": p.alpha2,
    }


def _strip_doc(strip):
    return {
        "E1": strip.E1,
        "E2": strip.E2,
        "E2certified": strip.E2certified,
        "E1method": strip.E1method,
    }


def _load_expression(args):
    return exprfile.load(args.file)


def cmd_analyze(args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        F = _load_expression(args)
        profile = _expr.degree_profile(F)
    notes = [str(w.message) for w in caught]
    doc = {
        "schema": SCHEMA_VERSION,
        "command": "analyze",
        "profile": _profile_doc(profile),
        "warnings": notes,
    }
    pd = doc["profile"]
    _print_table(sorted(pd.items()))
    for n in notes:
        print(f"WARNING: {n}")
    _write_json(os.path.join(args.out, "analyze.json"), doc)
    _write_csv(
        os.path.join(args.out, "analyze.csv"),
        list(pd.keys()),
        [[json.dumps(v) if isinstance(v, list) else v for v in pd.values()]],
    )
    return 0


def cmd_zeros(args):
    F = _load_expression(args)
    zs = analysis.zero_list(
        F, args.T1, args.T2, parallelism=args.parallelism, seed=args.seed
    )
    doc = {
        "schema": SCHEMA_VERSION,
        "command": "zeros",
        "T1": args.T1,
        "T2": args.T2,
        "zeros": [
            {
                "beta": z.beta,
                "gamma": z.gamma,
                "multiplicity": z.multiplicity,
                "residual": z.residual,
            }
            for z in zs
        ],
    }
    print(f"{len(zs)} zeros with {args.T1} < gamma < {args.T2}")
    _write_json(os.path.join(args.out, "zeros.json"), doc)
    _write_csv(
        os.path.join(args.out, "zeros.csv"),
        ["beta", "gamma", "multiplicity", "residual"],
        [[z.beta, z.gamma, z.multiplicity, z.residual] for z in zs],
    )
    if args.plot_data:
        _write_csv(
            os.path.join(args.out, "zeros_plot.csv"),
            ["x", "y"],
            [[z.beta, z.gamma] for z in zs],
        )
    return 0


def cmd_count(args):
    F = _load_expression(args)
    rep = analysis.verify_count(
        F, args.T, parallelism=args.parallelism, seed=args.seed
    )
    doc = {
        "schema": SCHEMA_VERSION,
        "command": "count",
        "T": rep.T,
        "empirical": rep.empirical,
        "predicted": rep.predicted,
        "slack": rep.slack,
        "assumptionSatisfied": rep.assumption_satisfied,
        "strip": _strip_doc(rep.strip),
        "bands": [
            {"tLo": b.t_lo, "tHi": b.t_hi, "count": b.count} for b in rep.bands
        ],
    }
    _print_table(
        [
            ("T", rep.T),
            ("empirical", rep.empirical),
            ("predicted", rep.predicted),
            ("slack (units of log T)", rep.slack),
        ]
    )
    _write_json(os.path.join(args.out, "count.json"), doc)
    _write_csv(
        os.path.join(args.out, "count.csv"),
        ["tLo", "tHi", "count"],
        [[b.t_lo, b.t_hi, b.count] for b in rep.bands],
    )
    if args.plot_data:
        acc = 0
        rows = []
        for b in rep.bands:
            acc += b.count
            rows.append([b.t_hi, acc])
        _write_csv(os.path.join(args.out, "count_plot.csv"), ["x", "y"], rows)
    return 0


def cmd_cluster(args):
    F = _load_expression(args)
    rep = analysis.clustering_counts(
        F, args.delta, args.T, T2=args.T2, parallelism=args.parallelism,
        seed=args.seed,
    )
    doc = {
        "schema": SCHEMA_VERSION,
        "command": "cluster",
        "delta": rep.delta,
        "T1": rep.T1,
        "T2": rep.T2,
        "nPlus": rep.n_plus,
        "nMinus": rep.n_minus,
        "total": rep.total,
        "fractionOutside": rep.fraction_outside,
    }
    _print_table(
        [
            ("delta", rep.delta),
            ("window", f"({rep.T1}, {rep.T2})"),
            ("nPlus", rep.n_plus),
            ("nMinus", rep.n_minus),
            ("total", rep.total),
            ("fractionOutside", rep.fraction_outside),
        ]
    )
    _write_json(os.path.join(args.out, "cluster.json"), doc)
    _write_csv(
        os.path.join(args.out, "cluster.csv"),
        ["delta", "T1", "T2", "nPlus", "nMinus", "total", "fractionOutside"],
        [[rep.delta, rep.T1, rep.T2, rep.n_plus, rep.n_minus, rep.total,
          rep.fraction_outside]],
    )
    return 0


def cmd_audit(args):
    F = _load_expression(args)
    profile = _expr.degree_profile(F)
    if args.n_start is None:
        n0 = analysis.admissible_start(F, args.epsilon, run=args.n_count,
                                       profile=profile)
    else:
        n0 = args.n_start
    reports = analysis.trivial_zero_audit(
        F, args.epsilon, range(n0, n0 + args.n_count), profile=profile
    )
    doc = {
        "schema": SCHEMA_VERSION,
        "command": "audit",
        "epsilon": args.epsilon,
        "nStart": n0,
        "disks": [
            {
                "n": r.n,
                "centers": [_cplx(c) for c in r.centers],
                "count": r.count,
                "expected": r.expected,
                "matches": r.matches,
            }
            for r in reports
        ],
        "allMatch": all(r.matches for r in reports),
    }
    for r in reports:
        print(f"n={r.n}: {r.count} zeros (expected {r.expected})"
              f"{'' if r.matches else '  MISMATCH'}")
    _write_json(os.path.join(args.out, "audit.json"), doc)
    _write_csv(
        os.path.join(args.out, "audit.csv"),
        ["n", "count", "expected", "matches"],
        [[r.n, r.count, r.expected, r.matches] for r in reports],
    )
    if args.plot_data:
        _write_csv(
            os.path.join(args.out, "audit_plot.csv"),
            ["x", "y"],
            [[r.n, r.count] for r in reports],
        )
    return 0 if doc["allMatch"] else 1


def cmd_fecheck(args):
    F = _load_expression(args)
    t_grid = [float(t) for t in args.t_grid.split(",")]
    rep = analysis.asymptotic_fe_check(F, args.sigma, t_grid)
    doc = {
        "schema": SCHEMA_VERSION,
        "command": "fecheck",
        "sigma": rep.sigma,
        "points": [
            {"t": p.t, "ratio": _cplx(p.ratio), "r": p.r} for p in rep.points
        ],
        "signMatches": rep.sign_matches,
        "decreasing": rep.decreasing,
        "decayExponent": rep.decay_exponent,
    }
    for p in rep.points:
        print(f"t={p.t:g}: r={p.r:.6g}")
    _print_table(
        [
            ("sign matches", rep.sign_matches),
            ("decreasing", rep.decreasing),
            ("decay exponent", rep.decay_exponent),
        ]
    )
    _write_json(os.path.join(args.out, "fecheck.json"), doc)
    _write_csv(
        os.path.join(args.out, "fecheck.csv"),
        ["t", "ratioRe", "ratioIm", "r"],
        [[p.t, p.ratio.real, p.ratio.imag, p.r] for p in rep.points],
    )
    if args.plot_data:
        _write_csv(
            os.path.join(args.out, "fecheck_plot.csv"),
            ["x", "y"],
            [[p.t, p.r] for p in rep.points],
        )
    return 0


def cmd_verify(args):
    F = _load_expression(args)
    rep = analysis.verify_count(
        F, args.T, parallelism=args.parallelism, seed=args.seed
    )
    ok = rep.slack <= args.slack
    doc = {
        "schema": SCHEMA_VERSION,
        "command": "verify",
        "T": rep.T,
        "empirical": rep.empirical,
        "predicted": rep.predicted,
        "slack": rep.slack,
        "threshold": args.slack,
        "pass": ok,
    }
    _print_table(
        [
            ("T", rep.T),
            ("empirical", rep.empirical),
            ("predicted", rep.predicted),
            ("slack", rep.slack),
            ("threshold", args.slack),
            ("verdict", "PASS" if ok else "FAIL"),
        ]
    )
    _write_json(os.path.join(args.out, "verify.json"), doc)
    _write_csv(
        os.path.join(args.out, "verify.csv"),
        ["T", "empirical", "predicted", "slack", "threshold", "pass"],
        [[rep.T, rep.empirical, rep.predicted, rep.slack, args.slack, ok]],
    )
    return 0 if ok else 1


def _build_parser():
    p = argparse.ArgumentParser(
        prog="lfpoly",
        description="Polynomials in derivatives of L-functions: degree "
        "calculus, zero location and counting, and verification reports.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("file", help="expression file (JSON)")
        sp.add_argument("-o", "--out", default=".", help="output directory")
        sp.add_argument("--seed", type=int, default=0,
                        help="seed for contour jitter")
        sp.add_argument("--parallelism", type=int, default=1,
                        help="band execution width")
        sp.add_argument("--plot-data", action="store_true",
                        help="emit (x, y) series files for plotting")
        sp.add_argument("--config", default=None,
                        help="JSON file with flag defaults")

    sp = sub.add_parser("analyze", help="degree profile and predicted slope")
    common(sp)
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("zeros", help="locate zeros in a height window")
    common(sp)
    sp.add_argument("--T1", type=float, default=0.0)
    sp.add_argument("--T2", type=float, default=None)
    sp.set_defaults(func=cmd_zeros, _required=["T2"])

    sp = sub.add_parser("count", help="empirical vs predicted zero count")
    common(sp)
    sp.add_argument("--T", type=float, default=None)
    sp.set_defaults(func=cmd_count, _required=["T"])

    sp = sub.add_parser("cluster", help="zeros off the half line by delta")
    common(sp)
    sp.add_argument("--delta", type=float, default=None)
    sp.add_argument("--T", type=float, default=None)
    sp.add_argument("--T2", type=float, default=None)
    sp.set_defaults(func=cmd_cluster, _required=["delta", "T"])

    sp = sub.add_parser("audit", help="trivial-zero disk audit")
    common(sp)
    sp.add_argument("--epsilon", type=float, default=0.25)
    sp.add_argument("--n-start", type=int, default=None,
                    help="first disk index (default: scan for it)")
    sp.add_argument("--n-count", type=int, default=5)
    sp.set_defaults(func=cmd_audit)

    sp = sub.add_parser("fecheck", help="asymptotic reflection-formula check")
    common(sp)
    sp.add_argument("--sigma", type=float, default=3.0)
    sp.add_argument("--t-grid", default="20,40,80,160")
    sp.set_defaults(func=cmd_fecheck)

    sp = sub.add_parser("verify", help="count check with pass/fail threshold")
    common(sp)
    sp.add_argument("--T", type=float, default=None)
    sp.add_argument("--slack", type=float, default=5.0)
    sp.set_defaults(func=cmd_verify, _required=["T"])

    return p


def _apply_config(args, parser):
    if getattr(args, "config", None) is None:
        return args
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        parser.error(f"cannot read config file {args.config}: {e}")
    if not isinstance(cfg, dict):
        parser.error("config file must hold a JSON object")
    # config supplies defaults only: explicit flags keep their parsed value,
    # which is detected by re-parsing with the config values as defaults
    for k, v in cfg.items():
        key = k.replace("-", "_")
        if hasattr(args, key) and getattr(args, key) in (None, parser.get_default(key)):
            setattr(args, key, v)
    return args


def _emit_error(exc):
    doc = {
        "schema": SCHEMA_VERSION,
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }
    if isinstance(exc, ExpressionFileError) and exc.line is not None:
        doc["error"]["line"] = exc.line
        doc["error"]["column"] = exc.column
    print(json.dumps(doc, indent=2))


def main(argv=None):
    _setup_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    args = _apply_config(args, parser)
    missing = [n for n in getattr(args, "_required", [])
               if getattr(args, n) is None]
    if missing:
        parser.error("missing required option(s): "
                     + ", ".join(f"--{n}" for n in missing))
    try:
        os.makedirs(args.out, exist_ok=True)
        return args.func(args)
    except (ExpressionFileError, ValueError) as e:
        _emit_error(e)
        return 2
    except LfpolyError as e:
        _emit_error(e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
