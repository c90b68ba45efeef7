"""Argument-principle zero machinery.

Winding numbers over rectangle boundaries by adaptive phase tracking,
recursive subdivision to isolate zeros, Newton polishing, zero-free strip
bounds E1/E2, and banded nontrivial-zero counting.
"""

from __future__ import annotations

import math
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .constants import MAX_HEIGHT
from .errors import (
    BoundaryTooClose,
    NonConvergence,
    PhaseUnresolved,
    RegionViolation,
)
from . import expr as _expr
from .evaluate import (
    asymptotic_fe_main,
    eval_F,
    eval_F_scaled_batch,
    eval_F_with_prime,
)

_MIN_BOUNDARY = 1e-10
_MIN_SEG = 1e-9
_SNAP = 0.1
_MAX_SAMPLES = 2**18


@dataclass(frozen=True)
class Rectangle:
    sigma_lo: float
    sigma_hi: float
    t_lo: float
    t_hi: float

    def __post_init__(self):
        if not (self.sigma_lo < self.sigma_hi and self.t_lo < self.t_hi):
            raise ValueError("degenerate rectangle")

    @property
    def corners(self):
        return (
            complex(self.sigma_lo, self.t_lo),
            complex(self.sigma_hi, self.t_lo),
            complex(self.sigma_hi, self.t_hi),
            complex(self.sigma_lo, self.t_hi),
        )

    @property
    def center(self):
        return complex(
            (self.sigma_lo + self.sigma_hi) / 2, (self.t_lo + self.t_hi) / 2
        )

    @property
    def diameter(self):
        return math.hypot(self.sigma_hi - self.sigma_lo, self.t_hi - self.t_lo)

    def contains(self, z, margin=0.0):
        return (
            self.sigma_lo - margin <= z.real <= self.sigma_hi + margin
            and self.t_lo - margin <= z.imag <= self.t_hi + margin
        )

    def shifted(self, dz):
        return Rectangle(
            self.sigma_lo + dz.real,
            self.sigma_hi + dz.real,
            self.t_lo + dz.imag,
            self.t_hi + dz.imag,
        )


@dataclass
class ZeroRecord:
    rho: complex
    multiplicity: int
    residual: float
    box: Rectangle
    method: str  # "newton" or "bisection-only"

    @property
    def beta(self):
        return self.rho.real

    @property
    def gamma(self):
        return self.rho.imag


@dataclass
class StripBounds:
    E1: float
    E2: float
    E2certified: bool
    E1method: str  # "scan" or "default"


def _boundary_points(loop, step0):
    pts = []
    for a, b in zip(loop, loop[1:]):
        n = max(2, int(abs(b - a) / step0) + 1)
        pts.extend(a + (b - a) * np.arange(n) / n)
    pts.append(loop[0])
    return np.array(pts, dtype=complex)


def _winding_eval(F, rel_tol):
    """Boundary evaluator: (phase carriers, log magnitudes) per point batch.

    F = u exp(g) with g real, so u carries the phase and the magnitude
    stays finite however far left the contour reaches.
    """
    def ev(pts):
        u, g = eval_F_scaled_batch(F, pts, rel_tol)
        with np.errstate(divide="ignore"):
            return u, np.log(np.abs(u)) + g
    return ev


def _track_winding(ev, pts, vals, lm, max_samples):
    """Refine a closed sample loop until phase steps are < pi/2; return turns."""
    guard = math.log(_MIN_BOUNDARY)
    while True:
        # guard against contour samples sitting on a zero, judged against
        # the local magnitude (the global range spans many orders)
        local = np.maximum(np.roll(lm, 1), np.roll(lm, -1))
        if np.any(lm < guard + local):
            raise BoundaryTooClose(
                "expression magnitude on the contour drops below the guard"
            )
        ph = np.angle(vals)
        d = np.diff(ph)
        d = (d + np.pi) % (2 * np.pi) - np.pi
        bad = np.abs(d) > np.pi / 2
        if not bad.any():
            total = float(d.sum())
            w = total / (2 * np.pi)
            if abs(w - round(w)) > _SNAP:
                raise PhaseUnresolved(
                    f"accumulated phase {w:.3f} turns is not within {_SNAP} "
                    "of an integer"
                )
            return int(round(w)), float(np.max(lm))
        if pts.size > max_samples:
            raise PhaseUnresolved(
                f"needed more than {max_samples} boundary samples"
            )
        idx = np.nonzero(bad)[0]
        # a phase jump that survives down to tiny segments means a zero
        # sits on (or hugs) the contour; bisection cannot resolve it
        if np.any(np.abs(pts[idx + 1] - pts[idx]) < _MIN_SEG):
            raise BoundaryTooClose(
                "phase jump unresolved at segment length below "
                f"{_MIN_SEG}; a zero lies on or next to the contour"
            )
        mid = (pts[idx] + pts[idx + 1]) / 2
        mv, mlm = ev(mid)
        pts = np.insert(pts, idx + 1, mid)
        vals = np.insert(vals, idx + 1, mv)
        lm = np.insert(lm, idx + 1, mlm)


def winding_count(F, rect: Rectangle, rel_tol=1e-6, step0=0.25,
                  max_samples=_MAX_SAMPLES):
    """Z - P of F inside rect by boundary phase accumulation.

    Counterclockwise boundary, adaptive sample insertion where consecutive
    phase increments exceed pi/2, integer snap within 0.1 turns.
    """
    loop = list(rect.corners) + [rect.corners[0]]
    pts = _boundary_points(loop, step0)
    ev = _winding_eval(F, rel_tol)
    vals, lm = ev(pts)
    return _track_winding(ev, pts, vals, lm, max_samples)[0]


def _winding_jittered(F, rect, rel_tol=1e-6, retries=5):
    """winding_count but the rectangle is nudged when the contour grazes a zero."""
    shifts = [0j, 0.01 + 0.01j, -0.01 + 0.01j, 0.01 - 0.01j,
              -0.01 - 0.01j, 0.007 + 0.013j]
    last = None
    for dz in shifts[: retries + 1]:
        try:
            r = rect.shifted(dz)
            return winding_count(F, r, rel_tol), r
        except BoundaryTooClose as e:
            last = e
    raise last


def winding_circle(F, center, radius, rel_tol=1e-6, M0=64):
    th = 2 * np.pi * np.arange(M0 + 1) / M0
    pts = center + radius * np.exp(1j * th)
    ev = _winding_eval(F, rel_tol)
    vals, lm = ev(pts)
    return _track_winding(ev, pts, vals, lm, _MAX_SAMPLES)[0]


def multiplicity(F, rho, nearest_other=None, rel_tol=1e-8):
    """Winding on a small circle around a located zero."""
    r = 1e-3
    if nearest_other is not None:
        r = min(r, abs(rho - nearest_other) / 2)
    return winding_circle(F, rho, r, rel_tol)


def _newton(F, z0, box, rel_tol=1e-10, iters=60):
    z = z0
    for _ in range(iters):
        f, fp = eval_F_with_prime(F, z, rel_tol)
        if fp == 0:
            return None
        step = f / fp
        z = z - step
        if not box.contains(z, margin=box.diameter):
            return None
        if abs(step) < 1e-13 * (1 + abs(z)):
            return z
    return None


def _quadrisect(rect, fx=0.5, fy=0.5):
    xm = rect.sigma_lo + fx * (rect.sigma_hi - rect.sigma_lo)
    ym = rect.t_lo + fy * (rect.t_hi - rect.t_lo)
    return [
        Rectangle(rect.sigma_lo, xm, rect.t_lo, ym),
        Rectangle(xm, rect.sigma_hi, rect.t_lo, ym),
        Rectangle(rect.sigma_lo, xm, ym, rect.t_hi),
        Rectangle(xm, rect.sigma_hi, ym, rect.t_hi),
    ]


def locate_zeros(F, rect: Rectangle, isolation_tol=1e-9, rel_tol=1e-6,
                 _p_F=None):
    """Zeros of F inside rect, recursively isolated and Newton-polished.

    Quadrisection until each box holds winding <= 1 or shrinks below
    isolation_tol; winding-1 boxes are polished by Newton with bisection
    fallback; clustered zeros surface as one record with multiplicity.
    """
    if _p_F is None:
        _p_F = _expr.pole_order(F) if rect.contains(1 + 0j, margin=0.1) else 0
    out = []
    w, rect = _winding_jittered(F, rect, rel_tol)
    if _p_F and rect.contains(1 + 0j):
        w += _p_F
    _locate_rec(F, rect, w, isolation_tol, rel_tol, _p_F, out, 0)
    out.sort(key=lambda z: (z.gamma, z.beta))
    # a multiple zero lying on a subdivision line can surface once per
    # adjacent box; records at the same point merge into one
    merged = []
    for rec in out:
        if merged and abs(rec.rho - merged[-1].rho) < 1e-8:
            prev = merged[-1]
            prev.multiplicity += rec.multiplicity
            prev.residual = max(prev.residual, rec.residual)
        else:
            merged.append(rec)
    return merged


def _locate_rec(F, rect, w, tol, rel_tol, p_F, out, depth):
    if w <= 0:
        return
    if w == 1:
        z = _newton(F, rect.center, rect)
        if z is not None and rect.contains(z, margin=1e-9):
            res = abs(eval_F(F, z, rel_tol=1e-10))
            out.append(ZeroRecord(z, 1, res, rect, "newton"))
            return
    if rect.diameter < tol:
        z = rect.center
        out.append(ZeroRecord(z, w, abs(eval_F(F, z)), rect, "bisection-only"))
        return
    if depth > 60:
        raise NonConvergence("subdivision depth exhausted", box=rect)
    remaining = w
    fracs = [(0.5, 0.5), (0.513, 0.487), (0.461, 0.533)]
    for i, fr in enumerate(fracs):
        try:
            subs = _quadrisect(rect, *fr)
            ws = []
            for sub in subs:
                sw = winding_count(F, sub, rel_tol)
                if p_F and sub.contains(1 + 0j):
                    sw += p_F
                ws.append(sw)
            break
        except BoundaryTooClose:
            if i == len(fracs) - 1:
                raise NonConvergence("no clean subdivision line", box=rect)
    for sub, sw in zip(subs, ws):
        if sw > 0:
            _locate_rec(F, sub, sw, tol, rel_tol, p_F, out, depth + 1)
        remaining -= sw
    if remaining != 0:
        raise NonConvergence(
            f"subdivision lost {remaining} of {w} zeros", box=rect
        )


# --- zero-free strip bounds ----------------------------------------------

_E2_FLOOR = 3.0
_TAIL_N = 1000


def zero_free_bounds(F, profile=None, eps=0.1) -> StripBounds:
    """E1/E2 such that all nontrivial zeros lie in E1 <= sigma <= E2.

    E2 comes from an explicit dominance bound on the Dirichlet tail (the
    first nonzero coefficient beats the rest for sigma >= E2), so it is
    certified.  E1 is a scan: descending integer lines on which the
    reflected main term dominates the full value with a factor-2 margin.
    """
    if profile is None:
        profile = _expr.degree_profile(F)
    series = _expr.dirichlet_coefficients(F, _TAIL_N)
    nF = profile.n_F
    absr = np.abs(series.eta)
    # fitted coefficient-growth bound |eta_n| <= C sqrt(n) for the tail
    ns = np.arange(1, _TAIL_N + 1)
    C = float(np.max(absr[1:] / np.sqrt(ns)))
    head = float(np.sum(absr[nF + 1 :] * ((nF + 1) / ns[nF:]) ** _E2_FLOOR))
    tail = C * (nF + 1) ** _E2_FLOOR * _TAIL_N ** (-1.5) / 1.5
    C3 = head + tail
    eta = abs(profile.eta_nF)
    if C3 <= 0:
        E2 = _E2_FLOOR
    else:
        E2 = max(_E2_FLOOR, (math.log(C3) - math.log(eta)) / math.log(1 + 1 / nF))
    mu_max = max(
        (abs(complex(mu)) for d in F.lfuncs.values() for mu in d.spectral_params),
        default=0.0,
    )
    default_E1 = -10 - mu_max
    E1 = None
    method = "scan"
    Fd = F.dual()
    tgrid = np.arange(2.0, 50.0 + 1e-9, 0.1)
    for sigma in range(-1, int(math.floor(default_E1)) - 1, -1):
        if _scan_line_dominates(F, Fd, profile, sigma, tgrid, eps):
            E1 = float(sigma)
            break
    if E1 is None:
        E1 = default_E1
        method = "default"
    return StripBounds(E1=E1, E2=float(E2), E2certified=True, E1method=method)


def _scan_line_dominates(F, Fd, profile, sigma, tgrid, eps):
    ok = 0
    total = 0
    for t in tgrid:
        s = complex(1 - sigma, t)
        try:
            main = asymptotic_fe_main(F, s, profile, eps)
        except RegionViolation:
            continue
        total += 1
        direct = eval_F(Fd, 1 - s, rel_tol=1e-6)
        if abs(direct - main) < abs(main) / 2:
            ok += 1
    return total > 0 and ok == total


# --- banded counting ------------------------------------------------------

@dataclass
class BandReport:
    t_lo: float
    t_hi: float
    count: int


@dataclass
class CountResult:
    total: int
    bands: list
    strip: StripBounds

    def __int__(self):
        return self.total


def _band_edges(T1, T2, seed):
    """Unit-band edges with seed-deterministic jitter away from zero heights."""
    lo = max(T1, 0.5)
    edges = [lo]
    while edges[-1] < T2:
        nxt = min(edges[-1] + 1.0, T2)
        if nxt < T2:
            rng = random.Random(f"{seed}:{len(edges)}")
            nxt = min(nxt + 0.02 + 0.06 * rng.random(), T2)
        edges.append(nxt)
    return edges


def count_nontrivial(F, T1, T2, strip=None, profile=None, rel_tol=1e-6,
                     parallelism=1, seed=0):
    """Number of zeros of F with E1 <= sigma <= E2 and T1' < t < T2.

    Unit-height winding bands with seeded edge jitter, summed in band
    order so the result is independent of scheduling.
    """
    if T2 > MAX_HEIGHT:
        raise ValueError(f"height {T2} exceeds the desk-scale cap {MAX_HEIGHT}")
    if not T2 > T1 >= 0:
        raise ValueError("need 0 <= T1 < T2")
    if profile is None:
        profile = _expr.degree_profile(F)
    if strip is None:
        strip = zero_free_bounds(F, profile)
    edges = _band_edges(T1, T2, seed)
    rects = [
        Rectangle(strip.E1, strip.E2, a, b) for a, b in zip(edges, edges[1:])
    ]

    def run_band(rect):
        w, used = _winding_jittered(F, rect, rel_tol)
        return BandReport(used.t_lo, used.t_hi, w)

    if parallelism > 1:
        with ThreadPoolExecutor(max_workers=parallelism) as ex:
            bands = list(ex.map(run_band, rects))
    else:
        bands = [run_band(r) for r in rects]
    total = sum(b.count for b in bands)
    return CountResult(total=total, bands=bands, strip=strip)
