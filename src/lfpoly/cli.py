"""Command-line front end.

Each subcommand reads an expression file, runs one experiment, prints a
short table, and writes a JSON and a CSV artifact into the output
directory.  lfpoly runs on one thread, and outputs are deterministic for
a fixed config and seed, byte for byte.  Exit codes: 0 success,
1 numeric failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import logging
import os
import sys
import warnings

from . import analysis, expr as _expr, exprfile
from .errors import ExpressionFileError, LfpolyError

SCHEMA_VERSION = 1


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


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\r\n")
        w.writerow(header)
        w.writerows(rows)


def _table(pairs):
    width = max(len(k) for k, _ in pairs)
    return [f"{k:<{width}}  {v}" for k, v in pairs]


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


def _strip_doc(bounds):
    return {
        "E1": bounds.E1,
        "E2": bounds.E2,
        "E2certified": bounds.E2certified,
        "E1method": bounds.E1method,
    }


# Each command returns (exit code, printed lines, document body, CSV header,
# CSV rows, plot rows or None); _emit prints and writes them.


def cmd_analyze(args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        profile = _expr.degree_profile(exprfile.load(args.file))
    notes = [str(w.message) for w in caught]
    pd = _profile_doc(profile)
    lines = _table(sorted(pd.items())) + [f"WARNING: {n}" for n in notes]
    row = [json.dumps(v) if isinstance(v, list) else v for v in pd.values()]
    return 0, lines, {"profile": pd, "warnings": notes}, list(pd), [row], None


def cmd_zeros(args):
    zs = analysis.zero_list(exprfile.load(args.file), args.T1, args.T2,
                            seed=args.seed)
    header = ["beta", "gamma", "multiplicity", "residual"]
    rows = [[z.beta, z.gamma, z.multiplicity, z.residual] for z in zs]
    doc = {"T1": args.T1, "T2": args.T2,
           "zeros": [dict(zip(header, r)) for r in rows]}
    lines = [f"{len(zs)} zeros with {args.T1} < gamma < {args.T2}"]
    return 0, lines, doc, header, rows, [r[:2] for r in rows]


def cmd_count(args):
    F = exprfile.load(args.file)
    rep = analysis.verify_count(F, args.T, seed=args.seed)
    header = ["tLo", "tHi", "count"]
    rows = [[b.t_lo, b.t_hi, b.count] for b in rep.bands]
    doc = {
        "T": rep.T,
        "empirical": rep.empirical,
        "predicted": rep.predicted,
        "slack": rep.slack,
        "assumptionSatisfied": F.profile.assumption_satisfied,
        "strip": _strip_doc(F.strip),
        "bands": [dict(zip(header, r)) for r in rows],
    }
    lines = _table([
        ("T", rep.T),
        ("empirical", rep.empirical),
        ("predicted", rep.predicted),
        ("slack (units of log T)", rep.slack),
    ])
    running = itertools.accumulate(b.count for b in rep.bands)
    plot = [[b.t_hi, n] for b, n in zip(rep.bands, running)]
    return 0, lines, doc, header, rows, plot


def cmd_cluster(args):
    rep = analysis.clustering_counts(
        exprfile.load(args.file), args.delta, args.T, T2=args.T2, seed=args.seed,
    )
    doc = {
        "delta": rep.delta,
        "T1": rep.T1,
        "T2": rep.T2,
        "nPlus": rep.n_plus,
        "nMinus": rep.n_minus,
        "total": rep.total,
        "fractionOutside": rep.fraction_outside,
    }
    lines = _table([
        ("delta", rep.delta),
        ("window", f"({rep.T1}, {rep.T2})"),
        ("nPlus", rep.n_plus),
        ("nMinus", rep.n_minus),
        ("total", rep.total),
        ("fractionOutside", rep.fraction_outside),
    ])
    return 0, lines, doc, list(doc), [list(doc.values())], None


def cmd_audit(args):
    F = exprfile.load(args.file)
    if args.n_start is None:
        n0 = analysis.admissible_start(F, args.epsilon, run=args.n_count)
    else:
        n0 = args.n_start
    reports = analysis.trivial_zero_audit(F, args.epsilon,
                                          range(n0, n0 + args.n_count))
    ok = all(r.matches for r in reports)
    doc = {
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
        "allMatch": ok,
    }
    lines = [f"n={r.n}: {r.count} zeros (expected {r.expected})"
             f"{'' if r.matches else '  MISMATCH'}" for r in reports]
    rows = [[r.n, r.count, r.expected, r.matches] for r in reports]
    return (0 if ok else 1, lines, doc, ["n", "count", "expected", "matches"],
            rows, [r[:2] for r in rows])


def cmd_fecheck(args):
    t_grid = [float(t) for t in args.t_grid.split(",")]
    rep = analysis.asymptotic_fe_check(exprfile.load(args.file), args.sigma,
                                       t_grid)
    doc = {
        "sigma": rep.sigma,
        "points": [
            {"t": p.t, "ratio": _cplx(p.ratio), "r": p.r} for p in rep.points
        ],
        "signMatches": rep.sign_matches,
        "decreasing": rep.decreasing,
    }
    table = [("sign matches", rep.sign_matches), ("decreasing", rep.decreasing)]
    # a decay fit needs two heights
    if rep.decay_exponent is not None:
        doc["decayExponent"] = rep.decay_exponent
        table.append(("decay exponent", rep.decay_exponent))
    lines = [f"t={p.t:g}: r={p.r:.6g}" for p in rep.points] + _table(table)
    rows = [[p.t, p.ratio.real, p.ratio.imag, p.r] for p in rep.points]
    return (0, lines, doc, ["t", "ratioRe", "ratioIm", "r"], rows,
            [[p.t, p.r] for p in rep.points])


def cmd_verify(args):
    rep = analysis.verify_count(exprfile.load(args.file), args.T,
                                seed=args.seed)
    ok = rep.slack <= args.slack
    doc = {
        "T": rep.T,
        "empirical": rep.empirical,
        "predicted": rep.predicted,
        "slack": rep.slack,
        "threshold": args.slack,
        "pass": ok,
    }
    verdict = ("verdict", "PASS" if ok else "FAIL")
    lines = _table(list(doc.items())[:-1] + [verdict])
    return 0 if ok else 1, lines, doc, list(doc), [list(doc.values())], None


def _emit(args, code, lines, body, header, rows, plot):
    """Print the lines, then write <command>.json, <command>.csv and, under
    --plot-data, <command>_plot.csv; returns the exit code."""
    for line in lines:
        print(line)
    stem = os.path.join(args.out, args.command)
    with open(stem + ".json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump({"schema": SCHEMA_VERSION, "command": args.command, **body},
                  fh, indent=2)
        fh.write("\n")
    _write_csv(stem + ".csv", header, rows)
    if args.plot_data and plot is not None:
        _write_csv(stem + "_plot.csv", ["x", "y"], plot)
    return code


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
        sp.add_argument("--parallelism", type=int, default=1, choices=(1,),
                        help="lfpoly runs on one thread; only 1 is accepted")
        sp.add_argument("--plot-data", action="store_true",
                        help="also write <command>_plot.csv, an (x, y) "
                        "series (count, zeros, audit and fecheck)")
        sp.add_argument("--config", default=None,
                        help="JSON file of option values, keyed by long "
                        "option name; flags on the command line win")

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


def _parse(parser, argv):
    """Parse argv; a --config file's keys become long flags placed right
    after the command name, so argparse types them, a flag on the command
    line wins, and an unknown key or a bad value is a usage error.  true
    turns a switch on and false leaves it as it is; false for any other
    key is a bad value."""
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        parser.error(f"cannot read config file {args.config}: {e}")
    if not isinstance(cfg, dict):
        parser.error("config file must hold a JSON object")
    # a switch is an option whose parsed value is a bool
    flags = [f"--{k.replace('_', '-')}" + ("" if v is True else f"={v}")
             for k, v in cfg.items()
             if not (v is False and isinstance(
                 getattr(args, k.replace("-", "_"), None), bool))]
    return parser.parse_args(argv[:1] + flags + argv[1:])


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
    args = _parse(parser, sys.argv[1:] if argv is None else list(argv))
    missing = [n for n in getattr(args, "_required", [])
               if getattr(args, n) is None]
    if missing:
        parser.error("missing required option(s): "
                     + ", ".join(f"--{n}" for n in missing))
    try:
        os.makedirs(args.out, exist_ok=True)
        return _emit(args, *args.func(args))
    except (ExpressionFileError, OSError, ValueError) as e:
        _emit_error(e)
        return 2
    except LfpolyError as e:
        _emit_error(e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
