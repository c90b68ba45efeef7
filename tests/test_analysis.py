import math

import pytest

from lfpoly import analysis as A
from lfpoly import expr as E
from lfpoly.errors import BOutOfRange, ScanFailed

from conftest import zpoly


def test_verify_count_zeta_100(zeta_expr):
    rep = A.verify_count(zeta_expr, 100)
    assert rep.empirical == 29
    assert rep.slack < 1.0
    assert rep.assumption_satisfied


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


def test_fe_check_zeta(zeta_expr):
    rep = A.asymptotic_fe_check(zeta_expr, 3.0, [50.0])
    assert rep.points[0].r <= 0.2
    assert rep.sign_matches


def test_fe_check_zeta_prime_decay(zeta_prime):
    rep = A.asymptotic_fe_check(zeta_prime, 3.0, [20.0, 40.0, 80.0, 160.0])
    assert rep.decreasing
    assert all(p.r <= 1.0 for p in rep.points)
    assert rep.sign_matches
