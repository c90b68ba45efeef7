import math

import mpmath as mp
import numpy as np
import pytest

from lfpoly import expr as E
from lfpoly import zeros as Z
from lfpoly.errors import BoundaryTooClose

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
    # the jittered variant recovers
    w, _ = Z._winding_jittered(zeta_expr, rect)
    assert w in (0, 1)


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


def test_count_zeta_100(zeta_expr):
    assert int(Z.count_nontrivial(zeta_expr, 0, 100)) == 29


def test_count_band_additivity(zeta_expr):
    a = int(Z.count_nontrivial(zeta_expr, 0, 40))
    b = int(Z.count_nontrivial(zeta_expr, 40, 70))
    c = int(Z.count_nontrivial(zeta_expr, 0, 70))
    assert a + b == c


def test_count_parallel_identical(zeta_expr):
    r1 = Z.count_nontrivial(zeta_expr, 0, 60, parallelism=1)
    r8 = Z.count_nontrivial(zeta_expr, 0, 60, parallelism=8)
    assert r1.total == r8.total
    assert [(b.t_lo, b.t_hi, b.count) for b in r1.bands] == [
        (b.t_lo, b.t_hi, b.count) for b in r8.bands
    ]


def test_strip_bounds_invariants(zeta_expr, zeta_prime):
    for F in (zeta_expr, zeta_prime):
        sb = Z.zero_free_bounds(F)
        assert sb.E1 < 0 < sb.E2
        assert sb.E2 >= 3
        assert sb.E2certified


@pytest.mark.parametrize("k", [1, 2])
def test_e1_scan_stops_at_first_failure(k, monkeypatch):
    # the factor-2 dominance fails on every line from sigma = -1 to -10 for
    # zeta' and zeta''; each line is given up at its first failing height
    calls = []
    real = Z.eval_F

    def counted(*args, **kw):
        calls.append(args[1])
        return real(*args, **kw)

    monkeypatch.setattr(Z, "eval_F", counted)
    sb = Z.zero_free_bounds(zpoly((1.0, [(k, 1)])))
    assert (sb.E1, sb.E1method) == (-10.0, "default")
    assert len(calls) < 100


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
    w, _ = Z._winding_jittered(zeta_prime, rect)
    assert w == 1


def test_conjugate_symmetry(zeta_expr):
    # zeros come in conjugate pairs, so counts below the axis mirror above
    rect_up = Z.Rectangle(0.1, 0.9, 14.0, 15.0)
    rect_dn = Z.Rectangle(0.1, 0.9, -15.0, -14.0)
    assert Z.winding_count(zeta_expr, rect_up) == Z.winding_count(
        zeta_expr, rect_dn
    )
