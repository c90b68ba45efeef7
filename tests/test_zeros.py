import logging
import math

import mpmath as mp
import numpy as np
import pytest

from lfpoly import analysis as A
from lfpoly import evaluate as ev
from lfpoly import zeros as Z
from lfpoly.errors import BoundaryTooClose, PhaseUnresolved

from conftest import zpoly

mp.mp.dps = 30

# first three zeros of zeta on the critical line, gamma to 10 places
GAMMAS = [14.1347251417, 21.0220396388, 25.0108575801]


def test_winding_first_zero(zeta_expr):
    rect = Z.Rectangle(0.2, 0.8, 14.0, 14.3)
    assert Z.winding_count(zeta_expr, rect) == 1


def test_winding_empty_rect(zeta_expr):
    rect = Z.Rectangle(0.1, 0.9, 15.0, 20.0)
    assert Z.winding_count(zeta_expr, rect) == 0


def test_winding_pole_is_minus_one(zeta_expr):
    rect = Z.Rectangle(0.7, 1.3, -0.3, 0.3)
    assert Z.winding_count(zeta_expr, rect) == -1


def test_winding_double_zero():
    F = zpoly((1.0, [(0, 2)]))
    rect = Z.Rectangle(0.2, 0.8, 14.0, 14.3)
    assert Z.winding_count(F, rect) == 2


def test_boundary_through_zero_raises(zeta_expr):
    g1 = float(mp.im(mp.zetazero(1)))
    rect = Z.Rectangle(0.5, 1.5, 14.0, g1)
    with pytest.raises(BoundaryTooClose):
        Z.winding_count(rect=rect, F=zeta_expr, step0=g1 - 14.0)
    # the retry recovers: the two sides through the zero move off it
    [(w, _)] = Z._wind_each(zeta_expr, [rect])
    assert w in (0, 1)


def test_nan_samples_end_their_cell(zeta_expr, monkeypatch):
    # an evaluator that gives NaN above t = 50 ends the cell there with a
    # numeric error and leaves the cell below it alone
    real = Z.eval_F_scaled_batch

    def nan_above_50(F, S, rel_tol):
        u, g = real(F, S, rel_tol)
        return np.where(S.imag > 50, np.nan, u), g

    monkeypatch.setattr(Z, "eval_F_scaled_batch", nan_above_50)
    (w1, _), (w2, _) = Z._wind_each(zeta_expr, [
        Z.Rectangle(0.2, 0.8, 13.5, 15.0), Z.Rectangle(0.2, 0.8, 60.0, 61.0),
    ])
    assert w1 == 1
    assert isinstance(w2, PhaseUnresolved)


@pytest.mark.parametrize("k", [1, 2])
def test_lockstep_matches_single_loops(k):
    # one engine call over several rectangles, none of whose sides may
    # move, gives each rectangle what its own winding gives, and the
    # rectangle through a zero fails alone; the coarse first samples make
    # several rectangles refine in the same rounds
    F = zpoly((1.0, [(0, k)]))
    g1 = float(mp.im(mp.zetazero(1)))
    cases = [
        (Z.Rectangle(0.2, 0.8, 14.0, 14.3), k),  # zero
        (Z.Rectangle(0.7, 1.3, -0.3, 0.3), -k),  # pole
        (Z.Rectangle(0.5, 1.5, 14.0, g1), BoundaryTooClose),
        (Z.Rectangle(0.1, 0.9, 15.0, 20.0), 0),  # empty
        (Z.Rectangle(-0.5, 1.5, 10.0, 30.0), 3 * k),  # three zeros
    ]
    at = [x for r, _ in cases for x in (r.sigma_lo, r.sigma_hi, r.t_lo, r.t_hi)]
    cells = [range(i, i + 4) for i in range(0, len(at), 4)]
    got = Z._wind(F, at, cells, step0=1.0)
    for (rect, want), (g, used) in zip(cases, got):
        assert used == rect
        if want is BoundaryTooClose:
            assert isinstance(g, BoundaryTooClose)
            with pytest.raises(BoundaryTooClose):
                Z.winding_count(F, rect, 1.0)
        else:
            assert g == want == Z.winding_count(F, rect, 1.0)


def test_band_blocks_logged(zeta_expr, caplog):
    # one DEBUG record per block of bands wound in lockstep; a block holds
    # about 100 zeta bands, so the window spans two
    with caplog.at_level(logging.DEBUG, logger="lfpoly.zeros"):
        res = Z.count_nontrivial(zeta_expr, 0, 200)
    recs = [r for r in caplog.records
            if r.name == "lfpoly.zeros" and r.msg.startswith("bands")]
    assert 1 < len(recs) < len(res.bands)
    assert sum(r.args[2] for r in recs) == len(res.bands)
    assert all(r.args[3] > 0 and r.args[4] >= 1 for r in recs)


def test_bands_tile_under_retry(zeta_expr, monkeypatch, caplog):
    # a band height whose edge grazes a zero moves for both bands it
    # bounds, also where two blocks meet: |F| drops by 1e-12 inside the
    # strip on one height inside a block and on one at a block boundary
    want = Z.count_nontrivial(zeta_expr, 0, 60)
    heights = [b.t_lo for b in want.bands]
    monkeypatch.setattr(Z, "_BLOCK_POINTS", 300)
    with caplog.at_level(logging.DEBUG, logger="lfpoly.zeros"):
        Z.count_nontrivial(zeta_expr, 0, 60)
    boundary = next(r for r in caplog.records if r.msg.startswith("bands")).args[1]
    grazed = [boundary, heights[heights.index(boundary) + 5]]
    real = Z.eval_F_scaled_batch
    E1, E2 = zeta_expr.strip.E1, zeta_expr.strip.E2

    def grazing(F, pts, rel_tol):
        u, g = real(F, pts, rel_tol)
        hit = np.isin(pts.imag, grazed) & (E1 < pts.real) & (pts.real < E2)
        return np.where(hit, 1e-12 * u, u), g

    monkeypatch.setattr(Z, "eval_F_scaled_batch", grazing)
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="lfpoly.zeros"):
        got = Z.count_nontrivial(zeta_expr, 0, 60)
    bands = got.bands
    assert all(x.t_hi == y.t_lo for x, y in zip(bands, bands[1:]))
    assert set(heights) - {b.t_lo for b in bands} == set(grazed)
    assert (got.total, len(bands)) == (want.total, len(want.bands))
    assert sum(r.args[5] for r in caplog.records if r.msg.startswith("bands")) == 2


def test_count_work_edges_once(zeta_expr, monkeypatch):
    # each band height's edge is evaluated once for the two bands it
    # bounds: counting zeta over (0, 200) at seed 0 took 8,661 F points
    # when each band was wound as its own closed loop, and takes 5,020
    calls = _count_calls(monkeypatch, "eval_F_scaled_batch")
    assert int(Z.count_nontrivial(zeta_expr, 0, 200, seed=0)) == 79
    assert sum(len(args[1]) for args in calls) <= 0.7 * 8661


def _record_groups(monkeypatch):
    """(shapes, newton), filled from now on: per main sum of the kernel,
    its points and the (abscissae, heights) of each of its groups
    (ev._grid_groups); newton holds those of Newton's batches, the calls
    of Z.eval_F_scaled_batch with prime."""
    shapes, newton = [], []
    real, real_ev = ev._grid_groups, Z.eval_F_scaled_batch

    def recorded(sig, t, terms):
        groups = list(real(sig, t, terms))
        shapes.append((sig.size, [(u.size, h.size) for u, h, *_ in groups]))
        return groups

    def flagged(*args, prime=False, **kw):
        first = len(shapes)
        out = real_ev(*args, prime=prime, **kw)
        if prime:
            newton.extend(shapes[first:])
        return out

    monkeypatch.setattr(ev, "_grid_groups", recorded)
    monkeypatch.setattr(Z, "eval_F_scaled_batch", flagged)
    return shapes, newton


# the kernel sums each batch as one grid of its distinct heights x
# abscissae: the band edges of a count, and the E1 scan and the band edges
# of a zero search, repeat their heights and abscissae enough that no
# batch splits.  A lockstep batch of k Newton points is a k x k grid; it
# is one group while its cells beyond the points cost at most _GRID_SLACK
# entries, and splits past that (test_locate_window_as_bands)
def test_contour_batches_one_grid(zeta_expr, zeta_prime, monkeypatch):
    shapes, newton = _record_groups(monkeypatch)
    Z.count_nontrivial(zeta_expr, 0, 200)
    counted = len(shapes)
    A.zero_list(zeta_prime, 14, 40)
    assert counted > 5 and max(n for n, _ in shapes[:counted]) > 1000
    assert len(shapes) - counted > 5 and max(n for n, _ in newton) > 1
    for n, groups in shapes:
        [(nsig, nt)] = groups
        assert nsig * nt <= ev._GRID * n


def test_locate_window_as_bands(zeta_prime, monkeypatch):
    # over 14 < gamma < 200 the first Newton round steps every zero of the
    # window at once, a grid that _grid_groups splits into runs.  Each zero
    # lies within its last bits of the zero that its band, located alone,
    # gives
    shapes, newton = _record_groups(monkeypatch)
    zs = A.zero_list(zeta_prime, 14, 200)
    assert any(len(groups) > 1 for _, groups in newton)
    alone = [z for w in Z._wound_bands(zeta_prime, 14, 200, zeta_prime.strip, 0,
                                       moments=True)
             for z in Z.locate_zeros(zeta_prime, w[1], [w]) if 14 < z.gamma < 200]
    assert len(zs) == len(alone) > 50
    for z, y in zip(zs, alone):
        assert abs(z.rho - y.rho) < 1e-13
        assert (z.multiplicity, z.method) == (y.multiplicity, y.method)


def test_band_blocks_size_invariant(zeta_expr, zeta_prime, monkeypatch):
    # blocks only group bands into kernel calls: the band list of a count
    # and the located zeros are the same at any block size
    out = []
    for size in (512, Z._BLOCK_POINTS):
        monkeypatch.setattr(Z, "_BLOCK_POINTS", size)
        bands = Z.count_nontrivial(zeta_expr, 0, 200).bands
        zs = A.zero_list(zeta_prime, 14, 60)
        out.append(([(b.t_lo, b.t_hi, b.count) for b in bands],
                    [(z.rho, z.multiplicity, z.method) for z in zs]))
    assert out[0] == out[1]
    assert len(out[0][0]) > 150 and len(out[0][1]) > 5


def test_locate_first_three_zeros(zeta_expr):
    rect = Z.Rectangle(0.0, 1.0, 10.0, 30.0)
    zs = Z.locate_zeros(zeta_expr, rect)
    assert len(zs) == 3
    for z, g in zip(zs, GAMMAS):
        assert abs(z.rho - complex(0.5, g)) < 1e-8
        assert z.multiplicity == 1


def test_locate_multiplicity_two():
    F = zpoly((1.0, [(0, 2)]))
    rect = Z.Rectangle(0.0, 1.0, 14.0, 15.0)
    zs = Z.locate_zeros(F, rect)
    assert len(zs) == 1
    assert zs[0].multiplicity == 2


def _count_calls(monkeypatch, name):
    """Calls of the zeros module's binding of name, counted from now on."""
    calls = []
    real = getattr(Z, name)

    def counted(*args, **kw):
        calls.append(args)
        return real(*args, **kw)

    monkeypatch.setattr(Z, name, counted)
    return calls


def test_newton_steps_per_zero(zeta_prime, monkeypatch):
    # Newton starts from the band's first moment, a few steps from each
    # zero; started from the band's centre it took about 16.5 steps.  Each
    # round steps every unfinished iterate of the window in one call with
    # prime, so the steps are the points of those calls, and the residuals
    # come from one order-0 call after the last round.  Every F evaluation
    # of the zero engine, steps and residuals too, comes through
    # Z.eval_F_scaled_batch; the strip and profile, built here first,
    # evaluate F their own ways
    zeta_prime.strip, zeta_prime.profile
    real, real_F = Z.eval_F_scaled_batch, ev._F_scaled
    calls, inside, outside = [], [], []

    def counted(*args, **kw):
        calls.append((kw.get("prime", False), args[2], len(args[1])))
        inside.append(args)
        try:
            return real(*args, **kw)
        finally:
            inside.pop()

    def checked(*args):
        if not inside:
            outside.append(args)
        return real_F(*args)

    monkeypatch.setattr(Z, "eval_F_scaled_batch", counted)
    monkeypatch.setattr(ev, "_F_scaled", checked)
    zs = A.zero_list(zeta_prime, 14, 80)
    assert len(zs) == 13 and all(z.method == "newton" for z in zs)
    assert outside == []
    steps = [n for prime, _, n in calls if prime]
    assert len(zs) <= sum(steps) <= 4 * len(zs)
    assert len(steps) <= 6
    residuals = [i for i, (prime, tol, _) in enumerate(calls)
                 if not prime and tol == Z._NEWTON_TOL]
    assert residuals == [len(calls) - 1]


def test_locate_far_left(zeta_prime):
    # a real zero of zeta' between two trivial zeros of zeta far left,
    # where |zeta'| overflows a double: Newton steps by F'/F, in which the
    # scale e^g cancels, so the box the contour winds to 1 yields its zero.
    # Reference (12 s of mpmath): mp.dps = 30; mp.findroot(lambda s:
    # mp.zeta(s, 1, 1) / mp.zeta(s), -273.749).  The residual may be inf.
    rect = Z.Rectangle(-274.25, -273.25, -0.25, 0.25)
    [z] = Z.locate_zeros(zeta_prime, rect)
    assert (z.method, z.multiplicity) == ("newton", 1)
    assert abs(z.rho - -273.749042281998940) < 1e-10


def test_locate_pencil_two_zeros(zeta_expr, monkeypatch):
    # one box, two zeros: the eigenvalues of the 2 x 2 Hankel pencil of
    # the box's moments start Newton at both, with no subdivision
    subdivided = _count_calls(monkeypatch, "_quadrisect")
    zs = Z.locate_zeros(zeta_expr, Z.Rectangle(-1.0, 2.0, 13.0, 22.0))
    assert [z.method for z in zs] == ["newton", "newton"]
    for z, k in zip(zs, (1, 2)):
        assert abs(z.rho - complex(mp.zetazero(k))) < 1e-12
        assert z.multiplicity == 1
    assert subdivided == []


def test_locate_pole_in_box(zeta_expr, zeta_prime, monkeypatch):
    # the pole at s = 1 is added back to the winding and the moments, so a
    # box around it and a trivial zero finds that zero alone
    subdivided = _count_calls(monkeypatch, "_quadrisect")
    rect = Z.Rectangle(-3.0, 3.0, -1.0, 1.0)
    for F, beta in ((zeta_expr, -2.0),
                    (zeta_prime, float(mp.findroot(lambda s: mp.zeta(s, 1, 1),
                                                   -2.7)))):
        [z] = Z.locate_zeros(F, rect)
        assert abs(z.rho - beta) < 1e-12 and z.multiplicity == 1
    assert subdivided == []


def test_locate_starts_outside_fall_back(zeta_expr, monkeypatch):
    # starts outside the box are no use: the box is quadrisected and the
    # sub-boxes' own moments give the same zeros
    rect = Z.Rectangle(-1.0, 2.0, 13.0, 22.0)
    want = Z.locate_zeros(zeta_expr, rect)
    real = Z._starts
    moved = []

    def outside(box, s):
        starts = real(box, s)
        if not moved:
            starts = [z + 3 * box.diameter for z in starts]
            moved.extend(starts)
        return starts

    monkeypatch.setattr(Z, "_starts", outside)
    subdivided = _count_calls(monkeypatch, "_quadrisect")
    got = Z.locate_zeros(zeta_expr, rect)
    assert len(moved) == 2 and not any(rect.contains(z) for z in moved)
    assert subdivided
    assert len(got) == len(want) == 2
    for g, w in zip(got, want):
        assert abs(g.rho - w.rho) < 1e-13
        assert (g.multiplicity, g.method) == (1, "newton")


def test_located_zeros_logged(zeta_expr, caplog):
    # one DEBUG record per located zero: where Newton started, its steps,
    # the residual and the method
    rect = Z.Rectangle(0.0, 1.0, 10.0, 30.0)
    with caplog.at_level(logging.DEBUG, logger="lfpoly.zeros"):
        zs = Z.locate_zeros(zeta_expr, rect)
    recs = [r for r in caplog.records
            if r.name == "lfpoly.zeros" and r.msg.startswith("zero ")]
    recs.sort(key=lambda r: r.args[0].imag)
    assert [r.args[0] for r in recs] == [z.rho for z in zs]
    for r, z in zip(recs, zs):
        rho, mult, method, start, steps, res = r.args
        assert (mult, method, res) == (1, "newton", z.residual)
        assert abs(start - rho) < 0.02 * rect.diameter and 1 <= steps <= 6


def test_count_zeta_100(zeta_expr):
    assert int(Z.count_nontrivial(zeta_expr, 0, 100)) == 29


def test_count_band_additivity(zeta_expr):
    a = int(Z.count_nontrivial(zeta_expr, 0, 40))
    b = int(Z.count_nontrivial(zeta_expr, 40, 70))
    c = int(Z.count_nontrivial(zeta_expr, 0, 70))
    assert a + b == c


def test_strip_bounds_invariants(zeta_expr, zeta_prime):
    for F in (zeta_expr, zeta_prime):
        sb = Z.zero_free_bounds(F)
        assert sb.E1 < 0 < sb.E2
        assert sb.E2 >= 3
        assert sb.E2certified


@pytest.mark.parametrize("k", [1, 2])
def test_e1_scan_stops_at_first_failure(k, monkeypatch):
    # the factor-2 dominance fails on every line from sigma = -1 to -10 for
    # zeta' and zeta''; each line is given up with the chunk of heights
    # that holds its first failing height, the first chunk on every line
    calls = []
    real = ev.asymptotic_fe_main

    def counted(*args, **kw):
        calls.append(len(args[1]))
        return real(*args, **kw)

    monkeypatch.setattr(ev, "asymptotic_fe_main", counted)
    sb = Z.zero_free_bounds(zpoly((1.0, [(k, 1)])))
    assert (sb.E1, sb.E1method) == (-10.0, "default")
    assert calls == [Z._SCAN_CHUNK] * 10


def test_e1_scan_zeta_checks_every_height(zeta_expr, monkeypatch):
    # for zeta the main term dominates at every height of sigma = -1, so
    # the scan evaluates the whole line, chunk by chunk, and stops there
    calls = []
    real = ev.asymptotic_fe_main

    def counted(*args, **kw):
        calls.append(len(args[1]))
        return real(*args, **kw)

    monkeypatch.setattr(ev, "asymptotic_fe_main", counted)
    sb = Z.zero_free_bounds(zeta_expr)
    assert (sb.E1, sb.E1method, sb.E2) == (-1.0, "scan", 3.0)
    assert sum(calls) == 481 and max(calls) == Z._SCAN_CHUNK


def test_e1_scan_sums_each_l_function_once(zeta_expr, zeta_prime, l_chi4,
                                            monkeypatch):
    # one reflected table per L-function and chunk gives both sides of the
    # dominance test, so the scan costs one kernel call per factor and
    # chunk: zeta's 481 heights in 31 chunks, zeta' and zeta' L(chi_4)
    # given up with the first chunk of 10 and 11 lines (twice the calls
    # when the dual was summed again at 1 - s).  F.profile is read before
    # the kernel is counted: its pole order at s = 1 makes kernel calls
    from conftest import ZETA, build

    dzeta_chi4 = build([(1.0, [(ZETA, 1, 1), (l_chi4, 0, 1)])], [ZETA, l_chi4])
    cases = [(F, F.profile, n_calls, n_points) for F, n_calls, n_points
             in ((zeta_expr, 31, 481), (zeta_prime, 10, 160), (dzeta_chi4, 22, 352))]
    calls = []
    real = ev._hurwitz_batch

    def counted(S, *args, **kw):
        calls.append(len(S))
        return real(S, *args, **kw)

    monkeypatch.setattr(ev, "_hurwitz_batch", counted)
    for F, _, n_calls, n_points in cases:
        calls.clear()
        Z.zero_free_bounds(F)
        assert (len(calls), sum(calls)) == (n_calls, n_points)


def test_strip_zeta_prime_left_edge(zeta_prime):
    sb = Z.zero_free_bounds(zeta_prime)
    assert sb.E1 <= -1


def test_no_zeros_right_of_e2(zeta_prime):
    sb = Z.zero_free_bounds(zeta_prime)
    rect = Z.Rectangle(sb.E2, sb.E2 + 5.0, 5.0, 40.0)
    assert Z.winding_count(zeta_prime, rect) == 0


def test_deep_winding_scaled_path(zeta_prime):
    # far-left disks around -2n need the scaled evaluation; the zeta'
    # zero has migrated inside by n = 150 (oracle-checked at shallow n)
    c = -300.0
    rect = Z.Rectangle(c - 0.25, c + 0.25, -0.25, 0.25)
    [(w, _)] = Z._wind_each(zeta_prime, [rect])
    assert w == 1


def test_conjugate_symmetry(zeta_expr):
    # zeros come in conjugate pairs, so counts below the axis mirror above
    rect_up = Z.Rectangle(0.1, 0.9, 14.0, 15.0)
    rect_dn = Z.Rectangle(0.1, 0.9, -15.0, -14.0)
    assert Z.winding_count(zeta_expr, rect_up) == Z.winding_count(
        zeta_expr, rect_dn
    )
