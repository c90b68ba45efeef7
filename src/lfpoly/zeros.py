"""Argument-principle zero machinery.

Windings of rectangles from the phase changes along their distinct edges,
each refined once however many rectangles share it (_wind), zeros in
rounds of boxes, each round one lockstep Newton from the contour's
moments over every open box, with quadrisection as the fallback,
zero-free strip bounds E1/E2, and banded nontrivial-zero counting.
Every F value comes from eval_F_scaled_batch as u e^g: contours take u
and g, Newton steps on d = F'/F, and residuals are |u| e^g.
"""

from __future__ import annotations

import logging
import math
import random
import time
from collections import Counter
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .constants import MAX_HEIGHT
from .errors import (
    BoundaryTooClose,
    NonConvergence,
    PhaseUnresolved,
)
from . import expr as _expr
from .evaluate import _reflection_region, asymptotic_fe_ratio, eval_F_scaled_batch

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
# positions tried in turn by a line whose edge grazes a zero, in units of
# the line's gap (_wind)
_OFFSETS = (0.0, 0.01, -0.01, 0.02, -0.02, 0.03)
# initial samples per block of bands, counted edge by edge: 100 zeta bands
# of 30 (a height's edge and the band's two sides; 26 distinct points)
_BLOCK_POINTS = 3000


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


def _edge_points(a, b, step0):
    """Initial samples of the edge from a to b, both ends included, at
    most step0 apart and at least three."""
    n = max(2, int(abs(b - a) / step0) + 1)
    pts = a + (b - a) * np.arange(n + 1) / n
    pts[-1] = b
    return pts


def _phase_diffs(vals):
    """Phase change along each segment of a sample path, in [-pi, pi)."""
    d = np.diff(np.angle(vals))
    return (d + np.pi) % (2 * np.pi) - np.pi


def _refine(ev, edges, step0):
    """Per straight edge (a, b): (delta arg, samples, phase carriers, log
    magnitudes), or the error that ended it.

    All edges are refined as one flat array of segments: the first round
    evaluates each distinct sample once (edges share their ends), and
    each round after halves every segment whose phase step exceeds pi/2,
    all midpoints in one call of ev.  BoundaryTooClose when |F| drops by more than _MIN_BOUNDARY
    across a segment (judged against the neighbour, as |F| spans many
    orders along an edge) or a bad segment is shorter than _MIN_SEG;
    PhaseUnresolved past _MAX_SAMPLES samples on the edge.
    """
    out = [None] * len(edges)
    if not edges:
        return out
    parts = [_edge_points(a, b, step0) for a, b in edges]
    eid = np.repeat(np.arange(len(edges)), [p.size for p in parts])
    z = np.concatenate(parts)
    distinct, back = np.unique(z, return_inverse=True)
    u, lm = (x[back] for x in ev(distinct))
    while eid.size:
        seg = eid[:-1]
        own = seg == eid[1:]  # the segment joins two samples of one edge
        d = _phase_diffs(u)
        bad = own & (np.abs(d) > np.pi / 2)

        def per_edge(mask, weights=None):
            return np.bincount(seg[mask], weights, minlength=len(edges))

        drop = np.abs(np.diff(lm)) > -math.log(_MIN_BOUNDARY)
        grazed = per_edge(own & drop) > 0
        jumps = per_edge(bad) > 0
        short = per_edge(bad & (np.abs(np.diff(z)) < _MIN_SEG)) > 0
        darg = per_edge(own, d[own])
        size = np.bincount(eid, minlength=len(edges))
        ends = grazed | ~jumps | (size > _MAX_SAMPLES) | short
        for e in np.flatnonzero(ends & (size > 0)):
            lo, hi = np.searchsorted(eid, (e, e + 1))
            if grazed[e]:
                out[e] = BoundaryTooClose(
                    "expression magnitude on the contour drops below the guard"
                )
            elif not jumps[e]:
                out[e] = (darg[e], z[lo:hi], u[lo:hi], lm[lo:hi])
            elif size[e] > _MAX_SAMPLES:
                out[e] = PhaseUnresolved(
                    f"needed more than {_MAX_SAMPLES} samples on one edge"
                )
            else:
                # a phase jump that survives down to tiny segments means a
                # zero sits on (or hugs) the edge; bisection cannot resolve it
                out[e] = BoundaryTooClose(
                    "phase jump unresolved at segment length below "
                    f"{_MIN_SEG}; a zero lies on or next to the contour"
                )
        idx = np.flatnonzero(bad & ~ends[seg])
        if idx.size:
            mid = (z[idx] + z[idx + 1]) / 2
            z, u, lm, eid = (np.insert(x, idx + 1, y) for x, y in
                             zip((z, u, lm, eid), (mid, *ev(mid), eid[idx])))
        keep = ~ends[eid]
        z, u, lm, eid = z[keep], u[keep], lm[keep], eid[keep]
    return out


def _sides(pos, cell):
    """The edges of cell (left, right, bottom, top), indices into pos, as
    (start, end, line, sign): left to right or upwards, so cells that share
    an edge name it alike, and sign orients it counterclockwise."""
    l, r, b, t = cell
    sw, se = complex(pos[l], pos[b]), complex(pos[r], pos[b])
    nw, ne = complex(pos[l], pos[t]), complex(pos[r], pos[t])
    return ((sw, se, b, 1), (se, ne, r, 1), (nw, ne, t, -1), (sw, nw, l, -1))


def _zero_moments(F, rect, edges, w):
    """(n, s) for rect, of winding w around it: its n = w + p zeros rho,
    p the order of a pole of F at s = 1 inside it, and their moments
    s_k = sum ((rho - c) / h)^k for k < 2n.

    s_k = (1/2 pi i) loop-integral of x^k dlog F, x = (z - c) / h, plus
    p x(1)^k for the pole; each segment of the final samples of the
    edges, (sign, _refine entry) counterclockwise, adds x(midpoint)^k
    times its change of log F, Delta lm + i Delta arg.  lm carries g, so
    the sum holds on the scaled far-left path too.  Scaling by rect's
    centre c and half-diameter h keeps |x| <= 1.
    """
    p = F.profile.p_F if rect.contains(1 + 0j) else 0
    c, h = rect.center, rect.diameter / 2
    n = w + p
    k = np.arange(max(2 * n, 0))
    x = np.concatenate([(z[:-1] + z[1:]) / 2 for _, (_, z, _, _) in edges])
    dlog = np.concatenate([sign * (np.diff(lm) + 1j * _phase_diffs(u))
                           for sign, (_, _, u, lm) in edges]) / (2j * np.pi)
    s = (((x - c) / h)[:, None] ** k * dlog[:, None]).sum(axis=0)
    return n, s + p * ((1 - c) / h) ** k


def _turns(F, rect, edges, moments):
    """Winding around rect from its edges, (sign, _refine entry)
    counterclockwise, or the first error among them; with moments the
    (n, s) of _zero_moments."""
    for _, e in edges:
        if isinstance(e, Exception):
            return e
    w = sum(sign * e[0] for sign, e in edges) / (2 * np.pi)
    if not (math.isfinite(w) and abs(w - round(w)) <= _SNAP):
        return PhaseUnresolved(
            f"accumulated phase {w:.3f} turns is not within {_SNAP} "
            "of an integer"
        )
    return _zero_moments(F, rect, edges, round(w)) if moments else round(w)


def _wind(F, at, cells, moves=(), moments=False, step0=_STEP0, done=None,
          tally=None):
    """(winding, rectangle used) for each cell (left, right, bottom, top)
    of indices into at, the positions of the lines the cells' sides lie on.

    Each distinct edge is refined once (_refine), and a cell's winding is
    the signed sum of its edges' phase changes, snapped to an integer; with
    moments, the (n, s) of _zero_moments.  The one retry rule: a line in
    moves whose edge grazes a zero (BoundaryTooClose) goes to its position
    plus the next of _OFFSETS times its gap, the least extent across it of
    the cells it bounds, and those cells are wound again.  Any other error,
    or the offsets running out, ends a cell: its winding is that error.
    done maps edges to _refine entries, is filled in, and may be passed in
    to reuse edges; tally counts points, rounds and moved lines.
    """
    done = {} if done is None else done
    tally = Counter() if tally is None else tally

    def ev(pts):
        # F = u exp(g) with g real: u carries the phase, and the log
        # magnitude stays finite however far left the contour reaches
        tally["points"] += pts.size
        tally["rounds"] += 1
        u, g = eval_F_scaled_batch(F, pts, _REL_TOL)
        with np.errstate(divide="ignore"):
            return u, np.log(np.abs(u)) + g

    gap = {}
    for l, r, b, t in cells:
        for line, size in ((l, at[r] - at[l]), (r, at[r] - at[l]),
                           (b, at[t] - at[b]), (t, at[t] - at[b])):
            gap[line] = min(gap.get(line, size), size)
    tries = dict.fromkeys(moves, 0)
    while True:
        pos = [x + _OFFSETS[tries.get(i, 0)] * gap.get(i, 0.0)
               for i, x in enumerate(at)]
        sides = [_sides(pos, cell) for cell in cells]
        new = list(dict.fromkeys(e[:2] for s in sides for e in s
                                 if e[:2] not in done))
        done.update(zip(new, _refine(ev, new, step0)))
        grazed = {line for s in sides for a, b, line, _ in s
                  if isinstance(done[a, b], BoundaryTooClose)
                  and line in tries and tries[line] + 1 < len(_OFFSETS)}
        if not grazed:
            break
        for line in grazed:
            tries[line] += 1
    tally["moved"] += sum(k > 0 for k in tries.values())
    out = []
    for cell, s in zip(cells, sides):
        rect = Rectangle(*(pos[i] for i in cell))
        edges = [(sign, done[a, b]) for a, b, _, sign in s]
        out.append((_turns(F, rect, edges, moments), rect))
    return out


def _wind_each(F, rects, moments=False, tally=None):
    """_wind over rects, each on four lines of its own that all may move."""
    at = [x for r in rects for x in (r.sigma_lo, r.sigma_hi, r.t_lo, r.t_hi)]
    cells = [range(i, i + 4) for i in range(0, len(at), 4)]
    return _wind(F, at, cells, range(len(at)), moments, tally=tally)


def _first_error(wound):
    """wound, (winding, rectangle) entries, unless a winding is an
    exception: then the first of those is raised."""
    for w, _ in wound:
        if isinstance(w, Exception):
            raise w
    return wound


def winding_count(F, rect: Rectangle, step0=_STEP0):
    """Z - P of F inside rect by boundary phase accumulation.

    Counterclockwise boundary, adaptive sample insertion where consecutive
    phase increments exceed pi/2, integer snap within 0.1 turns.  No side
    moves: a boundary that grazes a zero raises BoundaryTooClose.
    """
    at = (rect.sigma_lo, rect.sigma_hi, rect.t_lo, rect.t_hi)
    [(w, _)] = _first_error(_wind(F, at, [range(4)], step0=step0))
    return w


def _wind_block(F, strip, ys, done, moments):
    """_wind over the bands [E1, E2] x [ys[i], ys[i + 1]] of one block,
    logged as one record.  Band heights are the lines that may move,
    except ys[0] when done already holds its edge, wound by the block
    before."""
    tally = Counter()
    at = [strip.E1, strip.E2, *ys]
    cells = [(0, 1, j, j + 1) for j in range(2, len(at) - 1)]
    out = _wind(F, at, cells, range(2 + bool(done), len(at)), moments,
                done=done, tally=tally)
    log.debug(
        "bands %.3f < t < %.3f: %d bands, %d contour points, "
        "%d evaluation rounds, %d lines moved", out[0][1].t_lo,
        out[-1][1].t_hi, len(cells), tally["points"], tally["rounds"],
        tally["moved"],
    )
    return out


def _newton(F, starts):
    """(zero, steps) per (start, box) of starts: Newton's method in
    lockstep, one evaluation per round over the unfinished iterates, each
    stepping by 1/d with d = F'/F, in which e^g cancels, so it works where
    F overflows a double.  The zero is None when d is 0, when the start or
    a step lies outside its box by more than its diameter, or when the
    steps run out."""
    out = [(None, 0)] * len(starts)
    live = {i: z0 for i, (z0, box) in enumerate(starts)
            if box.contains(z0, margin=box.diameter)}
    for n in range(1, _NEWTON_ITERS + 1):
        if not live:
            break
        _, _, d = eval_F_scaled_batch(F, np.array(list(live.values())),
                                      _NEWTON_TOL, prime=True)
        stepped = {}
        for (i, z), di in zip(live.items(), d):
            out[i] = None, n
            box = starts[i][1]
            if di == 0:
                continue
            step = 1 / complex(di)
            z = z - step
            if not box.contains(z, margin=box.diameter):
                continue
            if abs(step) < 1e-13 * (1 + abs(z)):
                out[i] = z, n
            else:
                stepped[i] = z
        live = stepped
    return out


def _starts(rect, s):
    """Newton starts for the n = len(s) // 2 zeros whose moments in rect's
    frame are s: the eigenvalues of the Hankel pencil (H_1, H_0),
    H_j = [s_{i+l+j}] for i, l < n (s_1 / s_0 for one zero), mapped back
    to the plane.  None when H_0 is singular.

    Contour values differ in their last bits with the batch a band is
    wound in, so each eigenvalue is rounded to a multiple of
    1 / _START_GRID: the starts do not depend on how bands are grouped
    into blocks.  Newton's batch is every start of a round, so a zero may
    still move in its last bits with the window it is located in.
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


def _quadrisect(F, rect):
    """The four quarters of rect, wound with moments (_wind).  Its two cut
    lines, each shared by the quarters on either side, move when they
    graze a zero; rect's own sides stay."""
    at = [rect.sigma_lo, rect.sigma_lo + 0.5 * (rect.sigma_hi - rect.sigma_lo),
          rect.sigma_hi, rect.t_lo, rect.t_lo + 0.5 * (rect.t_hi - rect.t_lo),
          rect.t_hi]
    cells = [(0, 1, 3, 4), (1, 2, 3, 4), (0, 1, 4, 5), (1, 2, 4, 5)]
    return _wind(F, at, cells, (1, 4), moments=True)


def locate_zeros(F, rect: Rectangle, wound=None):
    """Zeros of F inside rect, isolated by the contour's moments and
    Newton-polished, in rounds of boxes.

    wound holds the ((n, s), rectangle used) of the boxes that tile rect,
    wound with moments as _wind gives them; when None, rect is wound here,
    its sides free to move, and the zeros are those inside the rectangle
    used.  A box's n zeros and their moments s (_zero_moments) give its
    Newton starts (_starts), and each round runs the starts of every open
    box in one lockstep Newton (_newton).  A box whose starts reach n
    distinct zeros inside it is done; any other is quadrisected, its
    quarters, each with its own moments, open in the next round, until it
    shrinks below _ISOLATION_TOL, so clustered zeros surface as one record
    with multiplicity.  The residuals |u| e^g (inf where that overflows a
    double) come from one evaluation at the end.
    """
    if wound is None:
        wound = _first_error(_wind_each(F, [rect], moments=True))
    boxes = [(n, s, box, 0) for (n, s), box in wound if n > 0]
    found = []  # (zero, multiplicity, box, method, start, Newton steps)
    while boxes:
        starts = [_starts(box, s) for _, s, box, _ in boxes]
        polished = iter(_newton(F, [(z0, box) for st, (_, _, box, _)
                                    in zip(starts, boxes) for z0 in st or ()]))
        quarters = []
        for st, (n, _, box, depth) in zip(starts, boxes):
            got = [(z0, *next(polished)) for z0 in st or ()]
            zs = [z for _, z, _ in got]
            if (st is not None
                    and all(z is not None and box.contains(z, margin=1e-9) for z in zs)
                    and all(abs(a - b) >= _SAME_ZERO for a, b in combinations(zs, 2))):
                found += [(z, 1, box, "newton", z0, steps) for z0, z, steps in got]
            elif box.diameter < _ISOLATION_TOL:
                found.append((box.center, n, box, "bisection-only", None, 0))
            elif depth > 60:
                raise NonConvergence("subdivision depth exhausted", box=box)
            else:
                try:
                    subs = _first_error(_quadrisect(F, box))
                except BoundaryTooClose:
                    raise NonConvergence("no clean subdivision line", box=box)
                lost = n - sum(sn for (sn, _), _ in subs)
                if lost != 0:
                    raise NonConvergence(
                        f"subdivision lost {lost} of {n} zeros", box=box
                    )
                quarters += [(sn, ss, sub, depth + 1)
                             for (sn, ss), sub in subs if sn > 0]
        boxes = quarters
    u, g = eval_F_scaled_batch(F, np.array([z for z, *_ in found]), _NEWTON_TOL)
    out = []
    for (z, m, box, method, start, steps), ui, gi in zip(found, u, g):
        with np.errstate(over="ignore"):
            residual = abs(complex(ui)) * float(np.exp(gi))
        log.debug("zero %r, multiplicity %d: %s from start %r, %d Newton steps, "
                  "residual %.3g", z, m, method, start, steps, residual)
        out.append(ZeroRecord(z, m, residual, box, method))
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


# --- zero-free strip bounds ----------------------------------------------

_E2_FLOOR = 3.0
_TAIL_N = 1000
_SCAN_CHUNK = 16  # heights per evaluation of the E1 scan


def zero_free_bounds(F) -> StripBounds:
    """E1/E2 such that all nontrivial zeros lie in E1 <= sigma <= E2.

    E2 comes from an explicit dominance bound on the Dirichlet tail (the
    first nonzero coefficient beats the rest for sigma >= E2), so it is
    certified.  E1 is a scan: descending integer lines on which the
    reflected main term dominates the full value with a factor-2 margin.
    """
    profile = F.profile
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
    tgrid = np.arange(2.0, 50.0 + 1e-9, 0.1)
    t0, tally = time.perf_counter(), Counter()
    for sigma in range(-1, int(math.floor(default_E1)) - 1, -1):
        if _scan_line_dominates(F, sigma, tgrid, tally):
            E1 = float(sigma)
            break
    if E1 is None:
        E1 = default_E1
        method = "default"
    log.info("strip bounds: E1 = %g (%s), E2 = %g; scan %d F points, %.3f s",
             E1, method, E2, tally["points"], time.perf_counter() - t0)
    return StripBounds(E1=E1, E2=float(E2), E2certified=True, E1method=method)


def _scan_line_dominates(F, sigma, tgrid, tally):
    """True if the main term dominates at every valid height of the line:
    F(1 - s, dual) is within half the main term of it.

    Heights go _SCAN_CHUNK at a time, one evaluation each, and the scan
    stops with the chunk that holds the first height where it does not;
    tally counts the points evaluated.
    """
    checked = False
    for i in range(0, len(tgrid), _SCAN_CHUNK):
        s = (1 - sigma) + 1j * tgrid[i : i + _SCAN_CHUNK]
        s = s[_reflection_region(F, s)]
        if not s.size:
            continue
        tally["points"] += s.size
        ratio = asymptotic_fe_ratio(F, s, 1e-6)
        if not np.all(np.abs(ratio - 1) < 0.5):
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


def _wound_bands(F, T1, T2, strip, seed, moments=False):
    """The (winding, rectangle used) of each unit band [E1, E2] x [a, b] of
    the window (T1, T2), as _wind gives it, with moments if asked; in order.

    Blocks of bands wind one after another (_wind_block), each from the
    height, and the wound edge, where the block before ended, so the bands
    tile the window however their heights move.  A block holds the bands
    whose initial samples fit in _BLOCK_POINTS, at least one: one kernel
    batch per refinement round, which the kernel sums as one grid of its
    distinct heights x abscissae (evaluate._grid_groups), so a batch costs
    about its distinct heights times the terms plus a fixed cost per call.
    A block winds once every band of the block before has been taken, and
    its first winding error is raised before any of its bands is yielded.
    """
    if T2 > MAX_HEIGHT:
        raise ValueError(f"height {T2} exceeds the desk-scale cap {MAX_HEIGHT}")
    if not T2 > T1 >= 0:
        raise ValueError("need 0 <= T1 < T2")
    heights = _band_edges(T1, T2, seed)
    across = _edge_points(strip.E1, strip.E2, _STEP0).size
    blocks, size = [], _BLOCK_POINTS
    for a, b in zip(heights, heights[1:]):
        n = across + 2 * _edge_points(a, b, _STEP0).size
        if size + n > _BLOCK_POINTS:
            blocks.append([a])
            size = 0
        blocks[-1].append(b)
        size += n
    done, top = {}, heights[0]
    for ys in blocks:
        wound = _first_error(_wind_block(F, strip, [top, *ys[1:]], done, moments))
        yield from wound
        top = wound[-1][1].t_hi
        key = (complex(strip.E1, top), complex(strip.E2, top))
        done = {key: done[key]}


def count_nontrivial(F, T1, T2, seed=0):
    """Number of zeros of F with E1 <= sigma <= E2 and T1' < t < T2.

    Unit-height winding bands with seeded edge jitter, each height's edge
    shared by the bands on either side, wound in blocks (_wound_bands) and
    summed in band order.  A height whose edge grazes a zero moves, and the
    bands report the heights used.  When bands fail, the error of the first
    is raised.
    """
    bands = [BandReport(r.t_lo, r.t_hi, w)
             for w, r in _wound_bands(F, T1, T2, F.strip, seed)]
    total = sum(b.count for b in bands)
    return CountResult(total=total, bands=bands)
