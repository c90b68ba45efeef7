"""Theorem-level verification: count reports, trivial-zero audits,
reflection-formula checks, clustering statistics, and Littlewood sums."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr as _expr
from . import zeros as _zeros
from .errors import BOutOfRange, RegionViolation, ScanFailed
from .evaluate import asymptotic_fe_main, eval_F


@dataclass
class CountReport:
    T: float
    predicted: float
    empirical: int
    slack: float  # |empirical - predicted| / log T
    bands: list
    assumption_satisfied: bool
    strip: _zeros.StripBounds


def verify_count(F, T, profile=None, strip=None, parallelism=1, seed=0) -> CountReport:
    """Empirical zero count over (0, T) against the predicted main term."""
    if profile is None:
        profile = _expr.degree_profile(F)
    res = _zeros.count_nontrivial(
        F, 0, T, strip=strip, profile=profile, parallelism=parallelism, seed=seed
    )
    predicted = _expr.predicted_count(F, T, profile)
    slack = abs(res.total - predicted) / math.log(T)
    return CountReport(
        T=T,
        predicted=predicted,
        empirical=res.total,
        slack=slack,
        bands=res.bands,
        assumption_satisfied=profile.assumption_satisfied,
        strip=res.strip,
    )


def zero_list(F, T1, T2, strip=None, profile=None, parallelism=1, seed=0):
    """Located zeros with T1 < gamma < T2, band by band, sorted by height.

    seed jitters the band edges, as in count_nontrivial.
    """
    if profile is None:
        profile = _expr.degree_profile(F)
    if strip is None:
        strip = _zeros.zero_free_bounds(F, profile)

    def run(rect):
        return _zeros.locate_zeros(F, rect)

    chunks = _zeros._map_bands(T1, T2, strip, run, parallelism, seed)
    out = [z for chunk in chunks for z in chunk if T1 < z.gamma < T2]
    out.sort(key=lambda z: (z.gamma, z.beta))
    return out


@dataclass
class ClusterReport:
    delta: float
    T1: float
    T2: float
    n_plus: int
    n_minus: int
    total: int
    fraction_outside: float


def clustering_counts(F, delta, T, T2=None, zeros=None, **kw) -> ClusterReport:
    """Zeros off the critical line by more than delta, heights in (T, T2).

    The canonical window is (T, 2T); pass T2 to override.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    t2 = 2 * T if T2 is None else T2
    if zeros is None:
        zeros = zero_list(F, T, t2, **kw)
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


def littlewood_sum(F, b, T, zeros=None, profile=None, strip=None, **kw):
    """2 pi Sigma (beta - b) over T < gamma < 2T against its main term."""
    if profile is None:
        profile = _expr.degree_profile(F)
    if strip is None:
        strip = _zeros.zero_free_bounds(F, profile)
    mu_cap = min(
        (-1 - complex(mu).real for d in F.lfuncs.values()
         for mu in d.spectral_params),
        default=-1.0,
    )
    # admissible range: b at or below both E1 and -1 - Re(mu)
    if b > min(strip.E1, mu_cap):
        raise BOutOfRange(
            f"b = {b} must not exceed min(E1, -1 - Re mu) = "
            f"{min(strip.E1, mu_cap)}"
        )
    if zeros is None:
        zeros = zero_list(F, T, 2 * T, strip=strip, profile=profile, **kw)
    total = 2 * math.pi * sum(z.multiplicity * (z.beta - b) for z in zeros)
    main = profile.deg_rk * (0.5 - b) * T * math.log(T)
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


def trivial_zero_audit(F, epsilon, n_range, profile=None):
    """Zero counts in the disks around -2n - mu_r, one report per n.

    Winding runs over covering squares of side 2 epsilon; squares whose
    centers nearly coincide are merged so shared zeros count once.
    """
    if not 0 < epsilon <= 0.5:
        raise ValueError("epsilon must lie in (0, 0.5]")
    if profile is None:
        profile = _expr.degree_profile(F)
    reports = []
    for n in n_range:
        centers = []
        for d in F.lfuncs.values():
            for mu in d.spectral_params:
                c = -2 * n - complex(mu)
                if all(abs(c - c0) > 1e-9 for c0 in centers):
                    centers.append(c)
        merged = _merge_centers(centers, 2 * epsilon)
        count = 0
        for c in merged:
            rect = _zeros.Rectangle(
                c.real - epsilon, c.real + epsilon,
                c.imag - epsilon, c.imag + epsilon,
            )
            w, _ = _zeros._winding_jittered(F, rect)
            count += w
        reports.append(
            DiskReport(n=n, centers=tuple(centers), count=count,
                       expected=profile.deg_rk)
        )
    return reports


def admissible_start(F, epsilon, run=5, n_limit=1 << 17, profile=None):
    """Smallest found n0 whose disk families at n0 .. n0+run-1 all match.

    The zeros of an expression migrate into the predicted disks only beyond
    some expression-dependent index (for second derivatives the distance to
    the disk center shrinks like 1/log|s|, so the index can reach 10^4).
    Geometric upsweep brackets the first matching n, a bisection refines
    it, and the run itself is verified by winding before returning.
    """
    if profile is None:
        profile = _expr.degree_profile(F)

    def match(n):
        return trivial_zero_audit(F, epsilon, [n], profile)[0].matches

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
    while True:
        reports = trivial_zero_audit(F, epsilon, range(n0, n0 + run), profile)
        bad = [r.n for r in reports if not r.matches]
        if not bad:
            return n0
        n0 = max(bad) + 1
        if n0 + run - 1 > n_limit:
            raise ScanFailed(
                f"no run of {run} admissible n up to {n_limit}"
            )


def _merge_centers(centers, min_sep):
    """Greedy merge of centers closer than min_sep (their squares overlap)."""
    merged = []
    for c in sorted(centers, key=lambda z: (z.real, z.imag)):
        for i, m in enumerate(merged):
            if abs(c - m) < min_sep:
                merged[i] = (m + c) / 2
                break
        else:
            merged.append(c)
    return merged


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
    decay_exponent: float  # fitted slope of log r against log log|s|

    @property
    def decreasing(self):
        rs = [p.r for p in self.points]
        return all(b <= a for a, b in zip(rs, rs[1:]))


def asymptotic_fe_check(F, sigma, t_grid, profile=None) -> FEReport:
    """Reflected value F(1-s, dual) against the leading-monomial main term.

    r(t) = |direct/main - 1| should decay like 1/log|s|; the leading sign
    must match the parity of the derivative-weighted degree.
    """
    if sigma <= 1.5:
        raise RegionViolation("need sigma > 3/2")
    if profile is None:
        profile = _expr.degree_profile(F)
    Fd = F.dual()
    pts = []
    signs_ok = True
    for t in t_grid:
        s = complex(sigma, t)
        main = asymptotic_fe_main(F, s, profile)
        direct = eval_F(Fd, 1 - s, rel_tol=1e-8)
        ratio = direct / main
        pts.append(FEPoint(t=float(t), ratio=ratio, r=abs(ratio - 1)))
        if ratio.real <= 0:
            signs_ok = False
    xs = np.array([math.log(math.log(abs(complex(sigma, p.t)))) for p in pts])
    ys = np.array([math.log(max(p.r, 1e-300)) for p in pts])
    slope = float(np.polyfit(xs, ys, 1)[0]) if len(pts) > 1 else float("nan")
    return FEReport(sigma=sigma, points=pts, sign_matches=signs_ok,
                    decay_exponent=slope)
