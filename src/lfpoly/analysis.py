"""Theorem-level verification: count reports, trivial-zero audits,
reflection-formula checks, clustering statistics, and Littlewood sums.
An audit's squares, one per distinct center -2n - mu, never overlap."""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import expr as _expr
from . import zeros as _zeros
from .errors import BOutOfRange, RegionViolation, ScanFailed
from .evaluate import asymptotic_fe_ratio

log = logging.getLogger(__name__)

_FE_TOL = 1e-8  # evaluation target of each side of the fecheck ratio
_FE_NOISE = 2 * _FE_TOL  # r up to the two sides' errors is rounding, not decay


@dataclass
class CountReport:
    T: float
    predicted: float
    empirical: int
    slack: float  # |empirical - predicted| / log T
    bands: list


def verify_count(F, T, seed=0) -> CountReport:
    """Empirical zero count over (0, T) against the predicted main term."""
    res = _zeros.count_nontrivial(F, 0, T, seed=seed)
    predicted = _expr.predicted_count(F, T)
    slack = abs(res.total - predicted) / math.log(T)
    return CountReport(
        T=T,
        predicted=predicted,
        empirical=res.total,
        slack=slack,
        bands=res.bands,
    )


def zero_list(F, T1, T2, seed=0):
    """Located zeros with T1 < gamma < T2, sorted by height.

    Bands are wound in blocks, as in count_nontrivial, and the zeros of
    all of them located in one call; seed jitters the band edges.
    """
    wound = list(_zeros._wound_bands(F, T1, T2, seed, moments=True))
    window = _zeros.Rectangle(F.strip.E1, F.strip.E2, T1, T2)
    return [z for z in _zeros.locate_zeros(F, window, wound) if T1 < z.gamma < T2]


@dataclass
class ClusterReport:
    delta: float
    T1: float
    T2: float
    n_plus: int
    n_minus: int
    total: int
    fraction_outside: float


def clustering_counts(F, delta, T, T2=None, zeros=None, seed=0) -> ClusterReport:
    """Zeros off the critical line by more than delta, heights in (T, T2).

    The canonical window is (T, 2T); pass T2 to override.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    t2 = 2 * T if T2 is None else T2
    if zeros is None:
        zeros = zero_list(F, T, t2, seed=seed)
    n_plus = sum(z.multiplicity for z in zeros if z.beta > 0.5 + delta)
    n_minus = sum(z.multiplicity for z in zeros if z.beta < 0.5 - delta)
    total = sum(z.multiplicity for z in zeros)
    frac = (n_plus + n_minus) / total if total else 0.0
    return ClusterReport(
        delta=delta, T1=T, T2=t2, n_plus=n_plus, n_minus=n_minus,
        total=total, fraction_outside=frac,
    )


@dataclass
class LittlewoodReport:
    b: float
    T: float
    sum: float  # 2 pi sum over T < gamma < 2T of (beta - b)
    main_term: float  # degRk (1/2 - b) T log T
    deviation: float  # |sum - main| / (T log log T)
    zero_count: int


def littlewood_sum(F, b, T, zeros=None, seed=0):
    """2 pi Sigma (beta - b) over T < gamma < 2T against its main term."""
    mu_cap = min(
        (-1 - complex(mu).real for d in F.lfuncs.values()
         for mu in d.spectral_params),
        default=-1.0,
    )
    # admissible range: b at or below both E1 and -1 - Re(mu)
    cap = min(F.strip.E1, mu_cap)
    if b > cap:
        raise BOutOfRange(f"b = {b} must not exceed min(E1, -1 - Re mu) = {cap}")
    if zeros is None:
        zeros = zero_list(F, T, 2 * T, seed=seed)
    total = 2 * math.pi * sum(z.multiplicity * (z.beta - b) for z in zeros)
    main = F.profile.deg_rk * (0.5 - b) * T * math.log(T)
    dev = abs(total - main) / (T * math.log(math.log(T)))
    return LittlewoodReport(
        b=b, T=T, sum=total, main_term=main, deviation=dev,
        zero_count=sum(z.multiplicity for z in zeros),
    )


@dataclass
class DiskReport:
    n: int
    centers: tuple
    count: int
    expected: int

    @property
    def matches(self):
        return self.count == self.expected


def _disk_squares(F, epsilon, n):
    """(centers, squares) of n: the distinct points -2n - mu_r, and the
    covering squares of side 2 epsilon around them, sorted.  mu_r is 0 or
    1, so distinct centers lie 1 apart and the squares never overlap."""
    centers = []
    for d in F.lfuncs.values():
        for mu in d.spectral_params:
            c = -2 * n - complex(mu)
            if all(abs(c - c0) > 1e-9 for c0 in centers):
                centers.append(c)
    squares = [
        _zeros.Rectangle(c.real - epsilon, c.real + epsilon,
                         c.imag - epsilon, c.imag + epsilon)
        for c in sorted(centers, key=lambda z: (z.real, z.imag))
    ]
    return centers, squares


def _window_width(F, epsilon, n):
    """The n in one audit window: as many as fit in _zeros._BLOCK_POINTS
    initial edge samples, counted edge by edge as for a block of bands, and
    at least one."""
    per_square = 4 * _zeros._edge_points(0.0, 2 * epsilon).size
    per_n = per_square * len(_disk_squares(F, epsilon, n)[1])
    return max(1, _zeros._BLOCK_POINTS // per_n)


def _audit_window(F, epsilon, ns):
    """A DiskReport, or the first winding error among its squares, per n in
    ns: the squares of every n wound in one _wind_each call, logged as one
    record.  An error that the call raises, rather than returns per square,
    sends the window back to one call per n, so that each n keeps its own
    result."""
    disks = [_disk_squares(F, epsilon, n) for n in ns]
    tally = Counter()
    try:
        wound = _zeros._wind_each(F, [q for _, sq in disks for q in sq],
                                  tally=tally)
    except Exception as exc:
        if len(ns) == 1:
            return [exc]
        return [r for n in ns for r in _audit_window(F, epsilon, [n])]
    log.debug(
        "disks %d <= n <= %d: %d squares, %d contour points, "
        "%d evaluation rounds, %d lines moved", ns[0], ns[-1], len(wound),
        tally["points"], tally["rounds"], tally["moved"],
    )
    out, i = [], 0
    for n, (centers, squares) in zip(ns, disks):
        ws = [w for w, _ in wound[i:i + len(squares)]]
        i += len(squares)
        err = next((w for w in ws if isinstance(w, Exception)), None)
        out.append(DiskReport(n=n, centers=tuple(centers), count=sum(ws),
                              expected=F.profile.deg_rk) if err is None else err)
    return out


def trivial_zero_audit(F, epsilon, n_range):
    """Zero counts in the disks around -2n - mu_r, one report per n >= 0.

    Winding runs over covering squares of side 2 epsilon, one per distinct
    center, which epsilon <= 1/2 keeps apart (_disk_squares).  The squares
    are wound window by window (_window_width), each window in one call,
    and the first winding error, in order of n, is raised.
    """
    if not 0 < epsilon <= 0.5:
        raise ValueError("epsilon must lie in (0, 0.5]")
    ns = list(n_range)
    if not ns or min(ns) < 0:
        raise ValueError("the disk indices n must be a non-empty range of n >= 0")
    width = _window_width(F, epsilon, ns[0])
    reports = []
    for i in range(0, len(ns), width):
        for r in _audit_window(F, epsilon, ns[i:i + width]):
            if isinstance(r, Exception):
                raise r
            reports.append(r)
    return reports


def admissible_start(F, epsilon, run=5, n_limit=1 << 17):
    """Smallest found n0 whose disk families at n0 .. n0+run-1 all match.

    The zeros of an expression migrate into the predicted disks only beyond
    some expression-dependent index (for second derivatives the distance to
    the disk center shrinks like 1/log|s|, so the index can reach 10^4).
    Geometric upsweep brackets the first matching n, a bisection refines
    it, and the run itself is verified by winding before returning.

    The run is verified by a walk: when a run holds mismatches, the next
    starts after the last of them.  The walk winds windows of consecutive
    n, the first of run n and each next one twice as wide, up to
    _window_width, and none past n_limit + run - 1.  It reads their
    results in the order of a walk that wound one run at a time, and
    raises a winding error only when it reads its n, so an error past the
    verified run is never raised.
    """
    if run < 1:
        raise ValueError("run must be at least 1")

    def match(n):
        return trivial_zero_audit(F, epsilon, [n])[0].matches

    n_lo, n_hi = 0, None
    n = 1
    while n <= n_limit:
        if match(n):
            n_hi = n
            break
        n_lo = n
        n *= 2
    if n_hi is None:
        raise ScanFailed(
            f"no admissible n up to {n_limit} for epsilon = {epsilon}"
        )
    while n_hi - n_lo > 1:
        mid = (n_lo + n_hi) // 2
        if match(mid):
            n_hi = mid
        else:
            n_lo = mid
    n0 = n_hi
    cap = _window_width(F, epsilon, n0)
    width = min(run, cap)
    memo = {}

    def read(n):
        nonlocal width
        if n not in memo:
            ns = list(range(n, min(n + width, n_limit + run)))
            memo.update(zip(ns, _audit_window(F, epsilon, ns)))
            width = min(2 * width, cap)
        if isinstance(memo[n], Exception):
            raise memo[n]
        return memo[n]

    while True:
        reports = [read(n) for n in range(n0, n0 + run)]
        bad = [r.n for r in reports if not r.matches]
        if not bad:
            return n0
        n0 = max(bad) + 1
        if n0 + run - 1 > n_limit:
            raise ScanFailed(
                f"no run of {run} admissible n up to {n_limit}"
            )


@dataclass
class FEPoint:
    t: float
    ratio: complex
    r: float  # |ratio - 1|


@dataclass
class FEReport:
    sigma: float
    points: list
    sign_matches: bool
    decay_exponent: float | None  # slope of log r on log log|s| where r > _FE_NOISE

    @property
    def decreasing(self):
        """r falls from height to height, or rises by at most _FE_NOISE."""
        rs = [p.r for p in self.points]
        return all(b <= a + _FE_NOISE for a, b in zip(rs, rs[1:]))


def asymptotic_fe_check(F, sigma, t_grid) -> FEReport:
    """Reflected value F(1-s, dual) against the leading-monomial main term.

    r(t) = |direct/main - 1| should decay like 1/log|s|; the leading sign
    must match the parity of the derivative-weighted degree.  The decay is
    fitted where r exceeds the sides' evaluation error (for zeta r is
    rounding), and is None below two such heights.
    """
    if sigma <= 1.5:
        raise ValueError("sigma must exceed 3/2")
    S = sigma + 1j * np.asarray(t_grid, dtype=float).reshape(-1)
    try:
        ratios = asymptotic_fe_ratio(F, S, _FE_TOL)
    except RegionViolation as e:  # a grid point is a bad option, not a failure
        raise ValueError(str(e)) from None
    pts = [FEPoint(t=float(t), ratio=complex(q), r=abs(complex(q) - 1))
           for t, q in zip(t_grid, ratios)]
    fit = [p for p in pts if p.r > _FE_NOISE]
    slope = None
    if len(fit) > 1:
        xs = [math.log(math.log(abs(complex(sigma, p.t)))) for p in fit]
        ys = [math.log(p.r) for p in fit]
        slope = float(np.polyfit(xs, ys, 1)[0])
    return FEReport(sigma=sigma, points=pts,
                    sign_matches=all(p.ratio.real > 0 for p in pts),
                    decay_exponent=slope)
