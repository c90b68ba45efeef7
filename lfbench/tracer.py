"""Per-layer tracing by wrapping lfpoly's public functions.

Each wrapped function aggregates calls, failures, inclusive time (outermost
call only, so recursion is not counted twice), self time (inclusive minus
the time of wrapped callees) and points.  Two work tallies, kernel points
(points passed to the Euler-Maclaurin kernel) and F points (points at which
the expression is evaluated), are attributed to every wrapped function
whose outermost call encloses them.  One span stack per thread; no
per-call spans are kept.
"""

import sys
import threading
import time

import numpy as np

perf = time.perf_counter

# (module, function, metric prefix, how many points a call carries)
_ONE = lambda args: 1
_ARG0 = lambda args: int(np.size(args[0]))
_ARG1 = lambda args: int(np.size(args[1]))
TRACED = [
    ("exprfile", "load", "exprfile.load", None),
    ("expr", "degree_profile", "expr.degree_profile", None),
    ("expr", "dirichlet_coefficients", "expr.dirichlet_coefficients", None),
    ("characters", "character_table", "characters.character_table", None),
    ("evaluate", "_hurwitz_batch", "evaluate.kernel", _ARG0),
    ("evaluate", "lfunc_derivatives", "evaluate.lfunc_derivatives", _ARG1),
    ("evaluate", "lfunc_derivatives_scaled", "evaluate.lfunc_derivatives_scaled", _ARG1),
    ("evaluate", "log_fe_factor", "evaluate.log_fe_factor", None),
    ("evaluate", "asymptotic_fe_main", "evaluate.asymptotic_fe_main", None),
    ("evaluate", "eval_F_batch", "evaluate.eval_F_batch", _ARG1),
    ("evaluate", "eval_F_scaled_batch", "evaluate.eval_F_scaled_batch", _ARG1),
    ("evaluate", "eval_F_with_prime", "evaluate.eval_F_with_prime", _ONE),
    ("evaluate", "eval_F", "evaluate.eval_F", _ONE),
    ("zeros", "zero_free_bounds", "zeros.zero_free_bounds", None),
    ("zeros", "winding_count", "zeros.winding_count", None),
    ("zeros", "locate_zeros", "zeros.locate_zeros", None),
    ("zeros", "count_nontrivial", "zeros.count_nontrivial", None),
    ("analysis", "verify_count", "analysis.verify_count", None),
    ("analysis", "zero_list", "analysis.zero_list", None),
    ("analysis", "trivial_zero_audit", "analysis.trivial_zero_audit", None),
    ("analysis", "admissible_start", "analysis.admissible_start", None),
]
_KERNEL = "evaluate.kernel"
_F_POINTS = ("evaluate.eval_F_batch", "evaluate.eval_F_scaled_batch",
             "evaluate.eval_F_with_prime")
RAW_FIELDS = ("calls", "failed", "s", "self_s", "points", "kernel_points",
              "F_points", "newton", "bisection_only")


class Tracer:
    def __init__(self):
        self.raw = {prefix: dict.fromkeys(RAW_FIELDS, 0)
                    for _, _, prefix, _ in TRACED}
        self._lock = threading.Lock()
        self._local = threading.local()

    def _state(self):
        st = self._local
        if not hasattr(st, "stack"):
            st.stack = []          # [child seconds] per open span
            st.depth = {}          # open spans per function
            st.tally = {"kernel": 0, "F": 0}
        return st

    def wrap(self, prefix, fn, points):
        raw = self.raw[prefix]
        counts_kernel = prefix == _KERNEL
        counts_F = prefix in _F_POINTS

        def traced(*args, **kw):
            st = self._state()
            outer = st.depth.get(prefix, 0) == 0
            st.depth[prefix] = st.depth.get(prefix, 0) + 1
            k0, f0 = st.tally["kernel"], st.tally["F"]
            n = points(args) if points else 0
            if counts_kernel:
                st.tally["kernel"] += n
            if counts_F and outer:
                st.tally["F"] += n
            st.stack.append(0.0)
            failed = 1
            result = None
            t0 = perf()
            try:
                result = fn(*args, **kw)
                failed = 0
                return result
            finally:
                dt = perf() - t0
                child = st.stack.pop()
                if st.stack:
                    st.stack[-1] += dt
                st.depth[prefix] -= 1
                with self._lock:
                    raw["calls"] += 1
                    raw["failed"] += failed
                    raw["self_s"] += dt - child
                    raw["points"] += n
                    if outer:
                        raw["s"] += dt
                        raw["kernel_points"] += st.tally["kernel"] - k0
                        raw["F_points"] += st.tally["F"] - f0
                        if prefix == "zeros.locate_zeros" and result:
                            for z in result:
                                key = "newton" if z.method == "newton" else "bisection_only"
                                raw[key] += 1

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every traced function and rebind each name that refers to
        it in any lfpoly module, including names imported with from-import."""
        swap = {}
        for mod, name, prefix, points in TRACED:
            m = sys.modules[f"lfpoly.{mod}"]
            fn = getattr(m, name)
            swap[id(fn)] = (fn, self.wrap(prefix, fn, points))
        for modname, m in list(sys.modules.items()):
            if modname != "lfpoly" and not modname.startswith("lfpoly."):
                continue
            for attr, val in list(vars(m).items()):
                hit = swap.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(m, attr, hit[1])


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(stats):
    """Per-operation layer metrics from the files that traced operations
    wrote; ratios are taken over the sums of all operations."""
    ops = len(stats)
    raw = {p: {f: sum(st["raw"][p][f] for st in stats) for f in RAW_FIELDS}
           for p in stats[0]["raw"]}
    g = lambda p, f: raw[p][f]
    per = lambda p, f: raw[p][f] / ops
    m = {"cli.import_s": sum(st["import_s"] for st in stats) / ops}
    for p in ("exprfile.load", "expr.degree_profile",
              "expr.dirichlet_coefficients", "characters.character_table"):
        m[f"{p}.s"] = per(p, "s")
    k = _KERNEL
    m[f"{k}.points"] = per(k, "points")
    m[f"{k}.self_s"] = per(k, "self_s")
    m[f"{k}.points_per_s"] = _ratio(g(k, "points"), g(k, "self_s"))
    for p in ("evaluate.lfunc_derivatives", "evaluate.lfunc_derivatives_scaled"):
        m[f"{p}.calls"] = per(p, "calls")
        m[f"{p}.points"] = per(p, "points")
        m[f"{p}.self_s"] = per(p, "self_s")
        m[f"{p}.kernel_points_per_point"] = _ratio(g(p, "kernel_points"), g(p, "points"))
    for p in ("evaluate.log_fe_factor", "evaluate.asymptotic_fe_main",
              "evaluate.eval_F_with_prime", "evaluate.eval_F"):
        m[f"{p}.calls"] = per(p, "calls")
        m[f"{p}.self_s"] = per(p, "self_s")
    for p in ("evaluate.eval_F_batch", "evaluate.eval_F_scaled_batch"):
        m[f"{p}.calls"] = per(p, "calls")
        m[f"{p}.points"] = per(p, "points")
        m[f"{p}.self_s"] = per(p, "self_s")
    m["zeros.zero_free_bounds.s"] = per("zeros.zero_free_bounds", "s")
    m["zeros.zero_free_bounds.F_points"] = per("zeros.zero_free_bounds", "F_points")
    w = "zeros.winding_count"
    m[f"{w}.calls"] = per(w, "calls")
    m[f"{w}.failed"] = per(w, "failed")
    m[f"{w}.self_s"] = per(w, "self_s")
    m[f"{w}.F_points_per_call"] = _ratio(g(w, "F_points"), g(w, "calls"))
    m["zeros.locate_zeros.calls"] = per("zeros.locate_zeros", "calls")
    m["zeros.locate_zeros.s"] = per("zeros.locate_zeros", "s")
    m["zeros.located.newton"] = per("zeros.locate_zeros", "newton")
    m["zeros.located.bisection_only"] = per("zeros.locate_zeros", "bisection_only")
    m["zeros.count_nontrivial.s"] = per("zeros.count_nontrivial", "s")
    for p in ("analysis.verify_count", "analysis.zero_list",
              "analysis.admissible_start"):
        m[f"{p}.s"] = per(p, "s")
    m["analysis.trivial_zero_audit.calls"] = per("analysis.trivial_zero_audit", "calls")
    m["analysis.trivial_zero_audit.s"] = per("analysis.trivial_zero_audit", "s")
    return m
