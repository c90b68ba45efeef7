"""Argument-principle zero machinery.

Winding numbers over rectangle boundaries by adaptive phase tracking,
zeros by Newton from the contour's moments with recursive subdivision as
the fallback, zero-free strip bounds E1/E2, and banded nontrivial-zero
counting.
"""

from __future__ import annotations

import logging
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
)
from . import expr as _expr
from .evaluate import (
    asymptotic_fe_main,
    eval_F,
    eval_F_batch,
    eval_F_scaled_batch,
    eval_F_with_prime,
)

log = logging.getLogger(__name__)

_MIN_BOUNDARY = 1e-10
_MIN_SEG = 1e-9
_SNAP = 0.1
_MAX_SAMPLES = 2**18
_REL_TOL = 1e-6  # evaluation target on contours
_ISOLATION_TOL = 1e-9  # box diameter below which subdivision stops
_NEWTON_TOL = 1e-10  # evaluation target for Newton steps and residuals
_NEWTON_ITERS = 60
_SAME_ZERO = 1e-8  # zeros closer than this are one zero
# Newton starts are rounded to this fraction of their box's half-diameter,
# far below the moments' own error (about 1e-4)
_START_GRID = 2.0**24
_STEP0 = 0.25  # initial spacing of contour samples
# nudges tried in turn on a rectangle whose contour grazes a zero
_SHIFTS = (0j, 0.01 + 0.01j, -0.01 + 0.01j, 0.01 - 0.01j, -0.01 - 0.01j,
           0.007 + 0.013j)
# initial contour samples per block of bands wound in lockstep: 50 zeta
# bands of 45 samples each
_BLOCK_POINTS = 2250


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


def _edge_samples(length, step0):
    """Samples on one boundary edge of the given length, its end excluded."""
    return max(2, int(length / step0) + 1)


def _boundary_points(rect, step0):
    """Counterclockwise samples of rect's boundary about step0 apart,
    closed by a repeat of the first corner."""
    loop = list(rect.corners) + [rect.corners[0]]
    pts = []
    for a, b in zip(loop, loop[1:]):
        n = _edge_samples(abs(b - a), step0)
        pts.extend(a + (b - a) * np.arange(n) / n)
    pts.append(loop[0])
    return np.array(pts, dtype=complex)


def _winding_eval(F, tally=None):
    """Boundary evaluator: (phase carriers, log magnitudes) per point batch.

    F = u exp(g) with g real, so u carries the phase and the magnitude
    stays finite however far left the contour reaches.  A tally dict, if
    given, counts the points and the calls.
    """
    def ev(pts):
        if tally is not None:
            tally["points"] += pts.size
            tally["rounds"] += 1
        u, g = eval_F_scaled_batch(F, pts, _REL_TOL)
        with np.errstate(divide="ignore"):
            return u, np.log(np.abs(u)) + g
    return ev


def _phase_diffs(vals):
    """Phase change along each segment of a sample loop, in [-pi, pi)."""
    d = np.diff(np.angle(vals))
    return (d + np.pi) % (2 * np.pi) - np.pi


def _phase_step(pts, vals, lm):
    """One refinement round of a closed sample loop: (turns, None) once
    every phase step is below pi/2, else (None, indices of the segments to
    halve).  Raises BoundaryTooClose or PhaseUnresolved."""
    # guard against contour samples sitting on a zero, judged against
    # the local magnitude (the global range spans many orders)
    ring = np.concatenate((lm[-1:], lm, lm[:1]))
    local = np.maximum(ring[:-2], ring[2:])
    if np.any(lm < math.log(_MIN_BOUNDARY) + local):
        raise BoundaryTooClose(
            "expression magnitude on the contour drops below the guard"
        )
    d = _phase_diffs(vals)
    bad = np.abs(d) > np.pi / 2
    if not bad.any():
        w = float(d.sum()) / (2 * np.pi)
        if abs(w - round(w)) > _SNAP:
            raise PhaseUnresolved(
                f"accumulated phase {w:.3f} turns is not within {_SNAP} "
                "of an integer"
            )
        return int(round(w)), None
    if pts.size > _MAX_SAMPLES:
        raise PhaseUnresolved(
            f"needed more than {_MAX_SAMPLES} boundary samples"
        )
    idx = np.nonzero(bad)[0]
    # a phase jump that survives down to tiny segments means a zero
    # sits on (or hugs) the contour; bisection cannot resolve it
    if np.any(np.abs(pts[idx + 1] - pts[idx]) < _MIN_SEG):
        raise BoundaryTooClose(
            "phase jump unresolved at segment length below "
            f"{_MIN_SEG}; a zero lies on or next to the contour"
        )
    return None, idx


def _zero_moments(pts, vals, lm, w, c, h, p):
    """(n, s) for a refined loop of winding w that encloses a pole of
    order p at s = 1: its n = w + p zeros rho and their moments
    s_k = sum ((rho - c) / h)^k for k < 2n.

    s_k = (1/2 pi i) loop-integral of x^k dlog F, x = (z - c) / h, plus
    p x(1)^k for the pole; each segment adds x(midpoint)^k times its
    change of log F, Delta lm + i Delta arg.  lm carries g, so the sum
    holds on the scaled far-left path too.  Scaling by the box's centre c
    and half-diameter h keeps |x| <= 1.
    """
    n = w + p
    k = np.arange(max(2 * n, 0))
    dlog = (np.diff(lm) + 1j * _phase_diffs(vals)) / (2j * np.pi)
    x = ((pts[:-1] + pts[1:]) / 2 - c) / h
    s = (x[:, None] ** k * dlog[:, None]).sum(axis=0)
    return n, s + p * ((1 - c) / h) ** k


def _track_windings(ev, loops, frames=None):
    """Turns around each closed sample loop of the function ev evaluates,
    all loops in lockstep.

    Each loop is refined at its bad segments until its phase steps are
    below pi/2, with its own guards and sample budget; the samples of all
    loops, and then in each round the midpoints of all unfinished loops,
    go to ev in one call.  Returns one entry per loop: its winding number,
    or the BoundaryTooClose or PhaseUnresolved that ended it.  With
    frames, one (c, h, p) per loop, a finished loop's entry is instead the
    (n, s) of _zero_moments over its final samples, at no extra points.
    """
    def split(parts, arrays):
        cuts = np.cumsum([p.size for p in parts])[:-1]
        return zip(*(np.split(x, cuts) for x in arrays))

    out = [None] * len(loops)
    first = split(loops, ev(np.concatenate(loops)))
    # loop index -> (samples, phase carriers, log magnitudes)
    live = {i: (pts, *ev_pts) for i, (pts, ev_pts) in enumerate(zip(loops, first))}
    while live:
        halve = {}
        for i, (pts, vals, lm) in live.items():
            try:
                w, idx = _phase_step(pts, vals, lm)
            except (BoundaryTooClose, PhaseUnresolved) as e:
                out[i] = e
                continue
            if idx is not None:
                halve[i] = idx
            elif frames is None:
                out[i] = w
            else:
                out[i] = _zero_moments(pts, vals, lm, w, *frames[i])
        mids = [(live[i][0][idx] + live[i][0][idx + 1]) / 2 for i, idx in halve.items()]
        if mids:
            for (i, idx), mid, new in zip(halve.items(), mids,
                                          split(mids, ev(np.concatenate(mids)))):
                live[i] = tuple(np.insert(x, idx + 1, y)
                                for x, y in zip(live[i], (mid, *new)))
        live = {i: live[i] for i in halve}
    return out


def _windings(F, rects, step0=_STEP0, tally=None, moments=False):
    """_track_windings over the boundaries of rects, one entry per rect.

    With moments, each entry is the (n, s) of _zero_moments in the frame
    of its rect (centre, half-diameter), which counts zeros only: the pole
    of F at s = 1, when inside, is added back to the winding and to the
    moments alike.
    """
    loops = [_boundary_points(r, step0) for r in rects]
    frames = None
    if moments:
        inside = [r.contains(1 + 0j) for r in rects]
        p_F = _expr.pole_order(F) if any(inside) else 0
        frames = [(r.center, r.diameter / 2, p_F if pole else 0)
                  for r, pole in zip(rects, inside)]
    return _track_windings(_winding_eval(F, tally), loops, frames)


def _first_error(results):
    """results, unless an entry is an exception: then the first of those
    is raised."""
    for r in results:
        if isinstance(r, Exception):
            raise r
    return results


def winding_count(F, rect: Rectangle, step0=_STEP0):
    """Z - P of F inside rect by boundary phase accumulation.

    Counterclockwise boundary, adaptive sample insertion where consecutive
    phase increments exceed pi/2, integer snap within 0.1 turns.
    """
    return _first_error(_windings(F, [rect], step0))[0]


def _windings_jittered(F, rects, tally=None, moments=False):
    """(winding, rectangle used) per rectangle, the winding an _windings
    entry; a rectangle whose contour grazes a zero is nudged through
    _SHIFTS, and all rectangles still unresolved retry together.  An entry
    is the exception that ended its rectangle instead: PhaseUnresolved, or
    the last BoundaryTooClose when no shift helps."""
    out = [None] * len(rects)
    todo = list(range(len(rects)))
    for dz in _SHIFTS:
        used = [rects[i].shifted(dz) for i in todo]
        retry = []
        for i, r, w in zip(todo, used,
                           _windings(F, used, tally=tally, moments=moments)):
            out[i] = w if isinstance(w, Exception) else (w, r)
            if isinstance(w, BoundaryTooClose):
                retry.append(i)
        if not retry:
            break
        todo = retry
    return out


def _wind_block(F, rects, moments=False):
    """_windings_jittered over a block of bands, logged as one record."""
    tally = {"points": 0, "rounds": 0}
    out = _windings_jittered(F, rects, tally, moments)
    nudged = sum(1 for r, w in zip(rects, out)
                 if not isinstance(w, Exception) and w[1] != r)
    log.debug(
        "bands %.3f < t < %.3f: %d bands, %d contour points, "
        "%d evaluation rounds, %d nudged", rects[0].t_lo, rects[-1].t_hi, len(rects),
        tally["points"], tally["rounds"], nudged,
    )
    return out


def _newton(F, z0, box):
    """(zero, steps) of Newton's method from z0; the zero is None when z0
    or a step lies outside box by more than its diameter, or the steps run
    out."""
    if not box.contains(z0, margin=box.diameter):
        return None, 0
    z = z0
    for n in range(1, _NEWTON_ITERS + 1):
        f, fp = eval_F_with_prime(F, z, _NEWTON_TOL)
        if fp == 0:
            return None, n
        step = f / fp
        z = z - step
        if not box.contains(z, margin=box.diameter):
            return None, n
        if abs(step) < 1e-13 * (1 + abs(z)):
            return z, n
    return None, _NEWTON_ITERS


def _starts(rect, s):
    """Newton starts for the n = len(s) // 2 zeros whose moments in rect's
    frame are s: the eigenvalues of the Hankel pencil (H_1, H_0),
    H_j = [s_{i+l+j}] for i, l < n (s_1 / s_0 for one zero), mapped back
    to the plane.  None when H_0 is singular.

    Contour values differ in their last bits with the batch a band is
    wound in, so each eigenvalue is rounded to a multiple of
    1 / _START_GRID: the starts, and so the zeros, do not depend on how
    bands are grouped into blocks.
    """
    n = len(s) // 2
    if n == 1:
        # the 1 x 1 pencil by hand (s_0 is within _SNAP of 1): a first
        # LAPACK call costs about 1 MiB of resident memory, and most boxes
        # hold one zero
        lam = s[1:] / s[0]
    else:
        ij = np.add.outer(np.arange(n), np.arange(n))
        try:
            lam = np.linalg.eigvals(np.linalg.solve(s[ij], s[ij + 1]))
        except np.linalg.LinAlgError:
            return None
    lam = np.round(lam * _START_GRID) / _START_GRID
    return [rect.center + rect.diameter / 2 * complex(x) for x in lam]


def _polish(F, rect, starts):
    """One "newton" record per start, or None unless Newton takes the
    starts to that many distinct zeros, all inside rect."""
    if starts is None:
        return None
    found = []
    for z0 in starts:
        z, steps = _newton(F, z0, rect)
        if (z is None or not rect.contains(z, margin=1e-9)
                or any(abs(z - y) < _SAME_ZERO for _, y, _ in found)):
            return None
        found.append((z0, z, steps))
    out = []
    for z0, z, steps in found:
        res = abs(eval_F(F, z, rel_tol=_NEWTON_TOL))
        out.append(_record(z, 1, res, rect, "newton", z0, steps))
    return out


def _record(z, multiplicity, residual, rect, method, start, steps):
    """ZeroRecord, logged with how it was found."""
    log.debug("zero %r, multiplicity %d: %s from start %r, %d Newton steps, "
              "residual %.3g", z, multiplicity, method, start, steps, residual)
    return ZeroRecord(z, multiplicity, residual, rect, method)


def _quadrisect(rect, fx=0.5, fy=0.5):
    xm = rect.sigma_lo + fx * (rect.sigma_hi - rect.sigma_lo)
    ym = rect.t_lo + fy * (rect.t_hi - rect.t_lo)
    return [
        Rectangle(rect.sigma_lo, xm, rect.t_lo, ym),
        Rectangle(xm, rect.sigma_hi, rect.t_lo, ym),
        Rectangle(rect.sigma_lo, xm, ym, rect.t_hi),
        Rectangle(xm, rect.sigma_hi, ym, rect.t_hi),
    ]


def locate_zeros(F, rect: Rectangle, wound=None):
    """Zeros of F inside rect, isolated by the contour's moments and
    Newton-polished.

    The winding of a box brings its zero count n and the moments of its
    zeros (_zero_moments); Newton runs from each eigenvalue of their Hankel
    pencil (_starts).  A box that yields n distinct zeros inside it is
    done; any other is quadrisected, each sub-box with its own moments,
    until it shrinks below _ISOLATION_TOL, so clustered zeros surface as
    one record with multiplicity.  wound is rect's
    ((n, s), rectangle used) when already wound with moments, as
    _windings_jittered gives it.
    """
    if wound is None:
        wound = _first_error(_windings_jittered(F, [rect], moments=True))[0]
    (n, s), rect = wound
    out = []
    _locate_rec(F, rect, n, s, out, 0)
    out.sort(key=lambda z: (z.gamma, z.beta))
    # a multiple zero lying on a subdivision line can surface once per
    # adjacent box; records at the same point merge into one
    merged = []
    for rec in out:
        if merged and abs(rec.rho - merged[-1].rho) < _SAME_ZERO:
            prev = merged[-1]
            prev.multiplicity += rec.multiplicity
            prev.residual = max(prev.residual, rec.residual)
        else:
            merged.append(rec)
    return merged


def _locate_block(F, rects):
    """locate_zeros over a block of bands wound in lockstep: one zero list
    per band, and the first error in band order raised."""
    out = []
    for rect, wound in zip(rects, _wind_block(F, rects, moments=True)):
        if isinstance(wound, Exception):
            raise wound
        out.append(locate_zeros(F, rect, wound))
    return out


def _locate_rec(F, rect, n, s, out, depth):
    """Records of the n zeros in rect, whose moments are s, into out:
    Newton from the pencil's starts, else quadrisection."""
    if n <= 0:
        return
    found = _polish(F, rect, _starts(rect, s))
    if found is not None:
        out.extend(found)
        return
    if rect.diameter < _ISOLATION_TOL:
        z = rect.center
        out.append(_record(z, n, abs(eval_F(F, z)), rect, "bisection-only",
                           None, 0))
        return
    if depth > 60:
        raise NonConvergence("subdivision depth exhausted", box=rect)
    remaining = n
    fracs = [(0.5, 0.5), (0.513, 0.487), (0.461, 0.533)]
    for i, fr in enumerate(fracs):
        # the four sub-boxes wind in one call; the first failure in box
        # order decides, as if they were wound one after another
        subs = _quadrisect(rect, *fr)
        try:
            ws = _first_error(_windings(F, subs, moments=True))
            break
        except BoundaryTooClose:
            if i == len(fracs) - 1:
                raise NonConvergence("no clean subdivision line", box=rect)
    for sub, (sn, ss) in zip(subs, ws):
        if sn > 0:
            _locate_rec(F, sub, sn, ss, out, depth + 1)
        remaining -= sn
    if remaining != 0:
        raise NonConvergence(
            f"subdivision lost {remaining} of {n} zeros", box=rect
        )


# --- zero-free strip bounds ----------------------------------------------

_E2_FLOOR = 3.0
_TAIL_N = 1000
_SCAN_CHUNK = 16  # heights per evaluation of the E1 scan


def zero_free_bounds(F, profile=None) -> StripBounds:
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
        if _scan_line_dominates(F, Fd, profile, sigma, tgrid):
            E1 = float(sigma)
            break
    if E1 is None:
        E1 = default_E1
        method = "default"
    return StripBounds(E1=E1, E2=float(E2), E2certified=True, E1method=method)


def _scan_line_dominates(F, Fd, profile, sigma, tgrid):
    """True if the main term dominates at every valid height of the line.

    Heights go _SCAN_CHUNK at a time, one evaluation each, and the scan
    stops with the chunk that holds the first height where it does not.
    """
    checked = False
    for i in range(0, len(tgrid), _SCAN_CHUNK):
        s = (1 - sigma) + 1j * tgrid[i : i + _SCAN_CHUNK]
        main = asymptotic_fe_main(F, s, profile)
        ok = ~np.isnan(main)
        if not ok.any():
            continue
        direct, _ = eval_F_batch(Fd, 1 - s[ok], rel_tol=1e-6)
        if not np.all(np.abs(direct - main[ok]) < np.abs(main[ok]) / 2):
            return False
        checked = True
    return checked


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


def _map_bands(T1, T2, strip, fn, parallelism, seed):
    """fn applied to blocks of consecutive unit bands [E1, E2] x [a, b] of
    the window (T1, T2), on up to parallelism threads; one result per band,
    in band order.

    fn takes a list of bands and returns one result per band.  A block
    holds the bands whose initial contour samples fit in _BLOCK_POINTS, at
    least one, so the blocks and the results do not depend on parallelism
    or scheduling.  A band's sample count is that of _boundary_points.  A
    block is one kernel batch per refinement round: at _BLOCK_POINTS = 2250
    50 zeta bands of 45 samples share each call, and the kernel's row
    chunks keep its memory flat at that size.
    """
    if T2 > MAX_HEIGHT:
        raise ValueError(f"height {T2} exceeds the desk-scale cap {MAX_HEIGHT}")
    if not T2 > T1 >= 0:
        raise ValueError("need 0 <= T1 < T2")
    edges = _band_edges(T1, T2, seed)
    blocks, size = [], _BLOCK_POINTS
    for a, b in zip(edges, edges[1:]):
        r = Rectangle(strip.E1, strip.E2, a, b)
        n = 1 + 2 * (_edge_samples(r.sigma_hi - r.sigma_lo, _STEP0)
                     + _edge_samples(r.t_hi - r.t_lo, _STEP0))
        if size + n > _BLOCK_POINTS:
            blocks.append([])
            size = 0
        blocks[-1].append(r)
        size += n
    if parallelism > 1:
        with ThreadPoolExecutor(max_workers=parallelism) as ex:
            done = list(ex.map(fn, blocks))
    else:
        done = [fn(b) for b in blocks]
    return [x for block in done for x in block]


def count_nontrivial(F, T1, T2, strip=None, profile=None, parallelism=1,
                     seed=0):
    """Number of zeros of F with E1 <= sigma <= E2 and T1' < t < T2.

    Unit-height winding bands with seeded edge jitter, wound in lockstep
    blocks and summed in band order so the result is independent of
    scheduling.  When bands fail, the error of the first is raised.
    """
    if profile is None:
        profile = _expr.degree_profile(F)
    if strip is None:
        strip = zero_free_bounds(F, profile)

    def run_block(rects):
        return [BandReport(used.t_lo, used.t_hi, w)
                for w, used in _first_error(_wind_block(F, rects))]

    bands = _map_bands(T1, T2, strip, run_block, parallelism, seed)
    total = sum(b.count for b in bands)
    return CountResult(total=total, bands=bands, strip=strip)
