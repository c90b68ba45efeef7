import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lfpoly import characters as chars
from lfpoly import evaluate as ev
from lfpoly.descriptors import dirichlet_descriptor, zeta_descriptor
from lfpoly.errors import (
    AccuracyUnreachable,
    PoleAt1,
    PoleTooClose,
    RegionViolation,
)

from conftest import ZETA, build, zpoly

mp.mp.dps = 40


# --- certified scalar APIs ------------------------------------------------

def test_zeta_2():
    assert abs(ev.zeta(2.0, err=1e-12) - math.pi**2 / 6) < 1e-12


def test_zeta_special_rationals():
    # certificates are conservative near the real axis; actual accuracy
    # is much better than the requested bound
    assert abs(ev.zeta(0.0, err=1e-10) + 0.5) < 1e-12
    assert abs(ev.zeta(-1.0, err=1e-10) + 1 / 12) < 1e-12
    assert abs(ev.zeta(-11.0, err=1e-10) - 691 / 32760) < 1e-11


def test_zeta_on_critical_line_oracle():
    for t in (14.0, 37.5, 81.25):
        s = 0.5 + 1j * t
        ref = complex(mp.zeta(mp.mpc(s)))
        assert abs(ev.zeta(s, err=1e-10) - ref) < 1e-10


def test_zeta_deep_reflection_oracle():
    for s in (-25.5 + 0.3j, -101.25 + 1j, -44.0 + 7.0j):
        ref = complex(mp.zeta(mp.mpc(s)))
        got = ev.zeta(s, err=abs(ref) * 1e-6)
        assert abs(got - ref) <= abs(ref) * 1e-6


def test_zeta_pole_guard():
    with pytest.raises(PoleAt1):
        ev.zeta(1.0 + 1e-12j)


def test_zeta_err_floor():
    with pytest.raises(AccuracyUnreachable):
        ev.zeta(2.0, err=1e-16)


def test_hurwitz_basic():
    assert abs(ev.hurwitz_zeta(2.0, 0.5, err=1e-12) - math.pi**2 / 2) < 1e-12
    for s, a in ((3.5 + 2j, 0.25), (0.5 + 30j, 2 / 3), (-2.5, 0.1)):
        ref = complex(mp.zeta(mp.mpc(s), a))
        assert abs(ev.hurwitz_zeta(s, a, err=1e-9) - ref) < 1e-9


def test_dirichlet_l_values(chi3, chi4):
    # L(1, chi_4) = pi/4 (Leibniz); L(2, chi_4) is Catalan's constant
    assert abs(ev.dirichlet_l(1.0, chi4, err=1e-12) - math.pi / 4) < 1e-12
    assert abs(ev.dirichlet_l(2.0, chi4, err=1e-12) - float(mp.catalan)) < 1e-12
    # L(2, chi_3) against the mpmath Hurwitz decomposition
    ref = complex((mp.zeta(2, mp.mpf(1) / 3) - mp.zeta(2, mp.mpf(2) / 3)) / 9)
    assert abs(ev.dirichlet_l(2.0, chi3, err=1e-12) - ref) < 1e-12


def test_dirichlet_l_entire_at_1_and_deep(chi4):
    ev.dirichlet_l(1.0, chi4, err=1e-10)  # no pole for non-principal chi
    s = -8.5 + 0.25j
    z = mp.mpc(s)
    ref = complex(
        mp.power(4, -z) * (mp.zeta(z, mp.mpf(1) / 4) - mp.zeta(z, mp.mpf(3) / 4))
    )
    got = ev.dirichlet_l(s, chi4, err=1e-8)
    assert abs(got - ref) < 1e-7 * max(1.0, abs(ref))


def test_principal_character_pole(chi3):
    from lfpoly import characters as chars

    principal = chars.character_table(3)[0]
    with pytest.raises(PoleAt1):
        ev.dirichlet_l(1.0, principal)


# --- derivative tables ----------------------------------------------------

def test_zeta_derivatives_oracle():
    S = np.array([2.0 + 0j, 0.5 + 14.0j, -3.25 + 2.0j])
    D = ev.lfunc_derivatives(ZETA, S, 3, rel_tol=1e-10)
    for i, s in enumerate(S):
        for l in range(4):
            ref = complex(mp.diff(mp.zeta, mp.mpc(s), l)) if l else complex(
                mp.zeta(mp.mpc(s))
            )
            assert abs(D[l, i] - ref) < 1e-8 * max(1.0, abs(ref)), (s, l)


def test_derivatives_near_pole_rejected():
    with pytest.raises(PoleTooClose):
        ev.lfunc_derivatives(ZETA, np.array([1.0 + 1e-8j]), 1)


# --- expression evaluation ------------------------------------------------

def test_eval_F_composite_oracle():
    F = zpoly((2.0, [(1, 1), (0, 1)]), (-1.0j, [(2, 1)]))
    for s in (2.0 + 3.0j, 0.5 + 21.0j, -1.5 + 0.5j):
        z = mp.mpc(s)
        ref = complex(
            2 * mp.diff(mp.zeta, z, 1) * mp.zeta(z) - 1j * mp.diff(mp.zeta, z, 2)
        )
        got = ev.eval_F(F, s, rel_tol=1e-10)
        assert abs(got - ref) < 1e-7 * max(1.0, abs(ref)), s


def test_eval_F_with_prime_consistency():
    F = zpoly((1.0, [(1, 2)]), (0.5, [(0, 1)]))
    s = 0.75 + 9.0j
    v, vp = ev.eval_F_with_prime(F, s)
    h = 1e-5
    num = (ev.eval_F(F, s + h) - ev.eval_F(F, s - h)) / (2 * h)
    assert abs(v - ev.eval_F(F, s)) < 1e-9 * max(1.0, abs(v))
    assert abs(vp - num) < 1e-4 * max(1.0, abs(vp))


# --- scaled path ----------------------------------------------------------

def _mp_derivatives(chi, s, lmax):
    """L^(l)(s, chi) for l = 0..lmax from mpmath's Hurwitz zeta derivatives
    (chi None is zeta): L = q^-s sum_a chi(a) zeta(s, a/q), by Leibniz."""
    z = mp.mpc(s)
    if chi is None:
        return [complex(mp.zeta(z, 1, l)) for l in range(lmax + 1)]
    q = chi.modulus
    hz = {
        a: [mp.zeta(z, mp.mpf(a) / q, j) for j in range(lmax + 1)]
        for a in range(1, q + 1)
        if chi(a) != 0
    }
    out = []
    for l in range(lmax + 1):
        tot = sum(
            chi(a) * sum(mp.binomial(l, j) * (-mp.log(q)) ** (l - j) * h[j]
                         for j in range(l + 1))
            for a, h in hz.items()
        )
        out.append(complex(mp.power(q, -z) * tot))
    return out


_ORACLE_CHARS = {
    "zeta": None,
    "chi3": chars.character_table(3)[1],
    "chi4": chars.character_table(4)[1],
}


# |t| >= 1 keeps the points away from s = 1 and from the real zeros far
# left, where no evaluator has small relative error; sigma is drawn on both
# sides of the reflection line -2 and down to -60, where |L| reaches 1e90
@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(sorted(_ORACLE_CHARS)),
    lmax=st.integers(0, 2),
    sigma=st.one_of(st.floats(-60.0, -50.0), st.floats(-50.0, -2.0),
                    st.floats(-2.0, 4.0)),
    t=st.floats(1.0, 40.0),
    flip=st.booleans(),
)
@example(name="zeta", lmax=2, sigma=-1.5, t=3.0, flip=False)
@example(name="chi3", lmax=1, sigma=-2.5, t=7.0, flip=True)
@example(name="chi4", lmax=2, sigma=-49.5, t=12.0, flip=False)
@example(name="zeta", lmax=1, sigma=-55.0, t=1.0, flip=True)
def test_derivatives_mpmath_oracle(name, lmax, sigma, t, flip):
    chi = _ORACLE_CHARS[name]
    desc = ZETA if chi is None else dirichlet_descriptor(chi)
    s = complex(sigma, -t if flip else t)
    D = ev.lfunc_derivatives(desc, np.array([s]), lmax)
    with mp.workdps(30):
        refs = _mp_derivatives(chi, s, lmax)
    for l, ref in enumerate(refs):
        assert abs(D[l, 0] - ref) <= 1e-8 * abs(ref), (s, l)


def test_scaled_deep_oracle():
    mp.mp.dps = 200
    zd = zeta_descriptor()
    S = np.array([-400.25 + 0.1j, -739.6 + 0.0j])
    D, G = ev.lfunc_derivatives_scaled(zd, S, 1)
    for i, s in enumerate(S):
        for l in (0, 1):
            ref = mp.diff(mp.zeta, mp.mpc(s), l) if l else mp.zeta(mp.mpc(s))
            log_ref = float(mp.log(abs(ref)))
            log_got = math.log(abs(D[l, i])) + G[i]
            assert abs(log_got - log_ref) < 1e-9
            dph = (np.angle(D[l, i]) - float(mp.arg(ref))) % (2 * math.pi)
            assert min(dph, 2 * math.pi - dph) < 1e-9
    mp.mp.dps = 40


# --- functional-equation pieces -------------------------------------------

def test_b_factor_power_example():
    # at s = 9 the rank-1 zeta factor gives ((1/2) log 22.5)^l
    g = 0.5 * math.log(22.5)
    for l in (0, 1, 2):
        got = ev.b_factor(9.0 + 0j, l, ZETA)
        assert abs(got - g**l) < 1e-12


def test_reflection_identity_zeta():
    for s in (4.0 + 0j, 3.0 + 17.0j, 2.5 + 60.0j):
        lhs = complex(mp.zeta(1 - mp.mpc(s)))
        rhs = cmath.exp(ev.log_fe_factor(ZETA, s)) * ev.zeta(s, err=1e-10)
        assert abs(rhs - lhs) < 1e-9 * max(1.0, abs(lhs))


def test_reflection_identity_dirichlet(l_chi4, chi4):
    # completed-L reflection: L(1-s, conj chi) = Phi(s) L(s, chi)
    for s in (3.0 + 5.0j, 2.0 + 25.0j):
        w = 1 - mp.mpc(s)
        lhs = complex(
            mp.power(4, -w) * (mp.zeta(w, mp.mpf(1) / 4) - mp.zeta(w, mp.mpf(3) / 4))
        )
        rhs = cmath.exp(ev.log_fe_factor(l_chi4, s)) * ev.dirichlet_l(
            s, chi4, err=1e-11
        )
        assert abs(rhs - lhs) < 1e-8 * max(1.0, abs(lhs))


def test_fe_special_values():
    # factor route reproduces zeta(-3) = 1/120 and zeta(-1) = -1/12
    v4 = cmath.exp(ev.log_fe_factor(ZETA, 4.0)) * ev.zeta(4.0, err=1e-10)
    v2 = cmath.exp(ev.log_fe_factor(ZETA, 2.0)) * ev.zeta(2.0, err=1e-10)
    assert abs(v4 - 1 / 120) < 1e-9
    assert abs(v2 + 1 / 12) < 1e-9


def test_asymptotic_fe_region_guard():
    F = zpoly((1.0, [(1, 1)]))
    from lfpoly import expr as E

    profile = E.degree_profile(F)
    with pytest.raises(RegionViolation):
        ev.asymptotic_fe_main(F, 1.2 + 0j, profile)
