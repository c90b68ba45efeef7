import logging
import math

import pytest

from lfpoly import analysis as A
from lfpoly import expr as E
from lfpoly import zeros as Z
from lfpoly.errors import BOutOfRange, BoundaryTooClose, ScanFailed

from conftest import ZETA, build, zpoly


def test_verify_count_zeta_100(zeta_expr):
    rep = A.verify_count(zeta_expr, 100)
    assert rep.empirical == 29
    assert rep.slack < 1.0
    assert zeta_expr.profile.assumption_satisfied


def test_verify_count_matches_prediction_shape(zeta_expr):
    rep = A.verify_count(zeta_expr, 60)
    pred = E.predicted_count(zeta_expr, 60)
    assert rep.predicted == pytest.approx(pred)
    assert sum(b.count for b in rep.bands) == rep.empirical


def test_zero_list_heights_sorted(zeta_expr):
    zs = A.zero_list(zeta_expr, 10, 35)
    gammas = [z.gamma for z in zs]
    assert gammas == sorted(gammas)
    assert len(zs) == 5
    assert abs(gammas[0] - 14.134725) < 1e-5


def test_zero_list_seed_moves_boxes_not_zeros(zeta_expr):
    # the seed jitters the band edges: every isolating box moves, the
    # located zeros do not
    z0 = A.zero_list(zeta_expr, 14, 22, seed=0)
    z7 = A.zero_list(zeta_expr, 14, 22, seed=7)
    assert len(z0) == len(z7) == 2
    for a, b in zip(z0, z7):
        assert a.box != b.box
        assert a.multiplicity == b.multiplicity
        assert abs(a.rho - b.rho) < 1e-10


def test_clustering_zeta_on_line(zeta_expr):
    rep = A.clustering_counts(zeta_expr, 0.1, 14, T2=31)
    assert rep.total == 4
    assert rep.n_plus == rep.n_minus == 0
    assert rep.fraction_outside == 0.0


def test_clustering_empty_window(zeta_expr):
    rep = A.clustering_counts(zeta_expr, 0.25, 15, T2=20)
    assert rep.total == 0
    assert rep.fraction_outside == 0.0


def test_clustering_monotone_in_delta(zeta_prime):
    zs = A.zero_list(zeta_prime, 14, 60)
    fracs = [
        A.clustering_counts(zeta_prime, d, 14, T2=60, zeros=zs).fraction_outside
        for d in (0.1, 0.25, 0.5)
    ]
    assert fracs[0] >= fracs[1] >= fracs[2]


def test_littlewood_zeta(zeta_expr):
    rep = A.littlewood_sum(zeta_expr, -1.0, 20)
    assert rep.zero_count > 0
    assert rep.deviation < 5.0


def test_littlewood_strip_computed_once(monkeypatch):
    # the strip bounds the b check and the zeros' bands: derived once, and
    # kept on the expression with its profile
    F = zpoly((1.0, [(0, 1)]))
    calls = []
    real = Z.zero_free_bounds

    def counted(G):
        calls.append(G)
        return real(G)

    monkeypatch.setattr(Z, "zero_free_bounds", counted)
    A.littlewood_sum(F, -1.0, 20)
    assert calls == [F]
    assert F.profile is F.profile


def test_littlewood_affine_in_b(zeta_expr):
    # the sum is affine in -b with slope 2 pi N over the window
    zs = A.zero_list(zeta_expr, 20, 40)
    r1 = A.littlewood_sum(zeta_expr, -1.0, 20, zeros=zs)
    r2 = A.littlewood_sum(zeta_expr, -2.0, 20, zeros=zs)
    n = sum(z.multiplicity for z in zs)
    assert r2.sum - r1.sum == pytest.approx(2 * math.pi * n)


def test_littlewood_b_out_of_range(zeta_expr):
    with pytest.raises(BOutOfRange):
        A.littlewood_sum(zeta_expr, -0.5, 20)


def test_audit_zeta_trivial_zeros(zeta_expr):
    reports = A.trivial_zero_audit(zeta_expr, 0.25, range(3, 8))
    for rep in reports:
        assert rep.expected == 1
        assert rep.matches


def test_audit_multiplicity(zeta_expr):
    F = zpoly((1.0, [(0, 2)]))
    (rep,) = A.trivial_zero_audit(F, 0.25, [5])
    assert rep.expected == 2
    assert rep.matches


def test_audit_epsilon_invariant(zeta_expr):
    for eps in (0.15, 0.25, 0.35):
        (rep,) = A.trivial_zero_audit(zeta_expr, eps, [6])
        assert rep.count == 1


def test_audit_bad_epsilon(zeta_expr):
    with pytest.raises(ValueError):
        A.trivial_zero_audit(zeta_expr, 0.75, [5])


def test_admissible_start_zeta(zeta_expr):
    assert A.admissible_start(zeta_expr, 0.25) == 1


def test_admissible_start_zeta_prime(zeta_prime):
    n0 = A.admissible_start(zeta_prime, 0.25)
    assert 100 <= n0 <= 200
    reports = A.trivial_zero_audit(zeta_prime, 0.25, range(n0, n0 + 3))
    assert all(r.matches for r in reports)


def test_admissible_start_limit(zeta_prime):
    with pytest.raises(ScanFailed):
        A.admissible_start(zeta_prime, 0.25, n_limit=16)


def _per_n_start(F, epsilon, run=5):
    # the start scan as a walk of single-n audits, one run at a time
    def match(n):
        return A.trivial_zero_audit(F, epsilon, [n])[0].matches

    n_lo, n = 0, 1
    while not match(n):
        n_lo, n = n, 2 * n
    n_hi = n
    while n_hi - n_lo > 1:
        mid = (n_lo + n_hi) // 2
        n_lo, n_hi = (n_lo, mid) if match(mid) else (mid, n_hi)
    n0 = n_hi
    while True:
        bad = [n for n in range(n0, n0 + run) if not match(n)]
        if not bad:
            return n0
        n0 = max(bad) + 1


def _dzeta_chi4(l_chi4):
    return build([(1.0, [(ZETA, 1, 1), (l_chi4, 0, 1)])], [ZETA, l_chi4])


@pytest.mark.parametrize("which", ["dzeta", "dzeta_chi4"])
def test_admissible_start_matches_per_n_walk(zeta_prime, l_chi4, which):
    # zeta' verifies its first run; zeta' L(chi_4) walks from n = 2 to 137
    F = zeta_prime if which == "dzeta" else _dzeta_chi4(l_chi4)
    assert A.admissible_start(F, 0.25) == _per_n_start(F, 0.25)


@pytest.mark.parametrize("which, ns", [
    ("zeta", range(1, 12)),
    ("dzeta_chi4", range(130, 142)),
])
def test_audit_batch_matches_single_n(zeta_expr, l_chi4, which, ns):
    F = zeta_expr if which == "zeta" else _dzeta_chi4(l_chi4)
    batch = [r.count for r in A.trivial_zero_audit(F, 0.25, ns)]
    single = [A.trivial_zero_audit(F, 0.25, [n])[0].count for n in ns]
    assert batch == single


def _inject(monkeypatch, bad_n, raised):
    """Make the square centered at -2 bad_n fail to wind with
    BoundaryTooClose: returned for its cell, or, with raised, raised by
    every _wind_each call that holds it.  The error and the n of every
    square wound are returned."""
    err, wound = BoundaryTooClose("injected"), []
    wind_each = Z._wind_each

    def patched(F, rects, moments=False, tally=None):
        hit = [abs(r.center + 2 * bad_n) < 1e-9 for r in rects]
        wound.extend(int(-r.center.real // 2) for r in rects)
        if raised and any(hit):
            raise err
        out = wind_each(F, rects, moments, tally)
        return [(err if h else w, used) for h, (w, used) in zip(hit, out)]

    monkeypatch.setattr(Z, "_wind_each", patched)
    return err, wound


@pytest.mark.parametrize("raised", [False, True])
def test_admissible_start_lazy_errors(l_chi4, monkeypatch, raised):
    F = _dzeta_chi4(l_chi4)
    n0 = A.admissible_start(F, 0.25, run=5)
    # wound with the window of the final run, never read by the walk
    err, wound = _inject(monkeypatch, n0 + 8, raised)
    assert A.admissible_start(F, 0.25, run=5) == n0
    assert n0 + 8 in wound
    # inside the final run: the walk reads it and raises its error
    monkeypatch.undo()
    err, _ = _inject(monkeypatch, n0 + 2, raised)
    with pytest.raises(BoundaryTooClose) as info:
        A.admissible_start(F, 0.25, run=5)
    assert info.value is err


def test_audit_raises_first_error_in_n_order(zeta_expr, monkeypatch):
    # the window's call raises for n = 7; n = 5 returns its error first
    _inject(monkeypatch, 7, raised=True)
    first, _ = _inject(monkeypatch, 5, raised=False)
    with pytest.raises(BoundaryTooClose) as info:
        A.trivial_zero_audit(zeta_expr, 0.25, range(3, 9))
    assert info.value is first


def test_audit_logs_one_record_per_window(zeta_expr, caplog):
    with caplog.at_level(logging.DEBUG, logger="lfpoly.analysis"):
        A.trivial_zero_audit(zeta_expr, 0.25, range(3, 6))
    [rec] = caplog.records
    assert rec.getMessage().startswith("disks 3 <= n <= 5: 3 squares, ")


def test_fe_check_zeta(zeta_expr):
    rep = A.asymptotic_fe_check(zeta_expr, 3.0, [50.0])
    assert rep.points[0].r <= 0.2
    assert rep.sign_matches


def test_fe_check_far_right_stays_finite(zeta_prime):
    # both sides leave the double range past sigma ~ 250; kept as u exp(g)
    # until the ratio, r stays finite and falls as sigma grows (about 0.367,
    # 0.313 and 0.266 at t = 20)
    rs = [[p.r for p in A.asymptotic_fe_check(zeta_prime, sigma,
                                               [20.0, 80.0]).points]
          for sigma in (400.0, 1000.0, 3000.0)]
    assert all(math.isfinite(r) for row in rs for r in row)
    for at_t in zip(*rs):
        assert at_t[0] > at_t[1] > at_t[2]
    assert rs[0][0] == pytest.approx(0.367, abs=1e-3)


def test_fe_check_zeta_prime_decay(zeta_prime):
    rep = A.asymptotic_fe_check(zeta_prime, 3.0, [20.0, 40.0, 80.0, 160.0])
    assert rep.decreasing
    assert all(p.r <= 1.0 for p in rep.points)
    assert rep.sign_matches
