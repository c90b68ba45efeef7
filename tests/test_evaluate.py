import cmath
import math
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from lfpoly import characters as chars
from lfpoly import evaluate as ev
from lfpoly import zeros as Z
from lfpoly.constants import BERNOULLI, _bernoulli_numbers
from lfpoly.descriptors import dirichlet_descriptor, zeta_descriptor
from lfpoly.errors import (
    AccuracyUnreachable,
    PoleAt1,
    PoleTooClose,
    RegionViolation,
)

from conftest import ZETA, build, zpoly

mp.mp.dps = 40


def test_bernoulli_numbers_exact():
    # the tangent-number formula against the defining recurrence
    # sum_(k <= m) C(m + 1, k) B_k = 0, exactly, for every length
    bs = [Fraction(1)]
    for m in range(1, 61):
        bs.append(-sum(math.comb(m + 1, k) * bs[k] for k in range(m)) / (m + 1))
    assert BERNOULLI == bs
    for n in range(61):
        assert _bernoulli_numbers(n) == bs[: n + 1]


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


def test_non_finite_values_fail(chi4):
    # (1/4)^-600 overflows a double, so zeta(600, 1/4) sums to NaN: its NaN
    # bound meets no target, and a table holding a NaN or an infinite
    # bound fails the gate; with warnings turned into errors the overflow
    # still ends in AccuracyUnreachable, not in numpy's RuntimeWarning.
    # L(s, chi) sums n^-s, every term at most 1 there: L(513, chi_4) and
    # L(600, chi_5) are finite, within their own bounds of mpmath
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AccuracyUnreachable):
            ev.hurwitz_zeta(600.0, 0.25)
        for chi, s in ((chi4, 513.0), (_CHI5, 600.0)):
            C, G, trunc, rnd = ev._lfunc_taylor(dirichlet_descriptor(chi),
                                                np.array([s]), 0)
            v, b = C[0] * np.exp(G), (trunc[0] + rnd[0]) * np.exp(G)
            ref = mp.dirichlet(s, [chi(k) for k in range(chi.modulus)])
            assert np.isfinite(v[0]) and abs(mp.mpc(v[0]) - ref) <= b[0], chi
            assert ev.dirichlet_l(s, chi) == v[0]
    S = np.array([2.0 + 0j])
    for C, rnd in ((np.nan, 0.0), (1.0, np.inf), (1.0, np.nan)):
        with pytest.raises(AccuracyUnreachable):
            ev._gate(np.array([[C]], dtype=complex), np.zeros((1, 1)),
                     np.array([[rnd]]), S, 1e-9)


def test_principal_character_pole(chi3):
    from lfpoly import characters as chars

    principal = chars.character_table(3)[0]
    with pytest.raises(PoleAt1):
        ev.dirichlet_l(1.0, principal)


@pytest.mark.parametrize("s", [-5 + 20j, -30 + 5j])
def test_dirichlet_l_mod_1_reflects_as_zeta(s):
    # the character mod 1 is zeta's, reflected left of the strip as zeta
    # is; summed directly there, its bound missed 1e-10 |zeta(s)|
    ref = mp.zeta(mp.mpc(s))
    err = 1e-10 * float(abs(ref))
    got = ev.dirichlet_l(s, chars.character(1, 0), err=err)
    assert abs(mp.mpc(got) - ref) < err
    assert got == ev.zeta(s, err=err)


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


# the accuracy gate judges each entry by its own magnitude: with the sum cut
# short, a point next to a zero carries a truncation bound above rel_tol
# times its own value but below rel_tol times that of a companion next to
# the pole; it fails alone and inside the batch, and the companion passes
def test_accuracy_gate_per_entry(monkeypatch):
    monkeypatch.setattr(ev, "_em_size", lambda *args: (30, 3))
    near_zero = complex(0.5, 14.134725141734693) + 1e-6
    S = np.array([near_zero, 1.05 + 0j])
    C, trunc, rnd = ev._hurwitz_batch(S, 1.0, 0)
    own = (trunc[0, 0] - rnd[0, 0]) / abs(C[0, 0])
    shared = (trunc[0, 0] - rnd[0, 0]) / abs(C[0, 1])
    assert shared < own / 1e4
    rel_tol = math.sqrt(own * shared)
    assert trunc[0, 1] <= rel_tol * abs(C[0, 1]) + rnd[0, 1]
    ev.lfunc_derivatives_scaled(ZETA, S[1:], 0, rel_tol)
    for pts in (S[:1], S):
        with pytest.raises(AccuracyUnreachable, match=r"at s = \(0\.5"):
            ev.lfunc_derivatives_scaled(ZETA, pts, 0, rel_tol)


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


# eval_F_batch and eval_F fold the scaled evaluator's u e^g, bit for bit,
# on both sides of sigma = -2
def test_eval_F_folds_scaled_batch():
    F = zpoly((2.0, [(1, 1), (0, 1)]), (-1.0j, [(2, 1)]))
    S = np.array([2.0 + 3.0j, 0.5 + 21.0j, -1.5 + 0.5j, -30.0 + 5.0j])
    u, g = ev.eval_F_scaled_batch(F, S, 1e-10)
    assert g[-1] > 0
    assert np.array_equal(ev.eval_F_batch(F, S, 1e-10), u * np.exp(g))
    for s in S:
        u, g = ev.eval_F_scaled_batch(F, [s], 1e-10)
        assert ev.eval_F(F, s, rel_tol=1e-10) == complex(u[0] * np.exp(g[0])), s


def _mp_l_chi4(z):
    return mp.power(4, -z) * (mp.zeta(z, mp.mpf(1) / 4) - mp.zeta(z, mp.mpf(3) / 4))


# F and F' from one series product against mpmath's diff, and the scaled
# evaluator's u e^g and d = F'/F: a sum of monomials, two different
# L-functions in one monomial, and a squared factor far left, where the
# tables carry g != 0
def test_eval_F_with_prime_consistency(l_chi4):
    dz = lambda z, k=1: mp.zeta(z, 1, k)
    cases = [
        (zpoly((1.0, [(1, 2)]), (0.5, [(0, 1)])),
         lambda z: dz(z) ** 2 + 0.5 * mp.zeta(z), 0.75 + 9.0j),
        (build([(1.0, [(ZETA, 1, 1), (l_chi4, 0, 1)])], [ZETA, l_chi4]),
         lambda z: dz(z) * _mp_l_chi4(z), 0.5 + 30.0j),
        (zpoly((1.0, [(1, 2), (0, 1)]), (1.0, [(2, 1)])),
         lambda z: dz(z) ** 2 * mp.zeta(z) + dz(z, 2), -30.0 + 5.0j),
    ]
    for F, f, s in cases:
        v, vp = ev.eval_F_with_prime(F, s)
        z = mp.mpc(s)
        fz, fpz = f(z), mp.diff(f, z)
        u, g, d = ev.eval_F_scaled_batch(F, np.array([s]), prime=True)
        for got, ref in ((v, fz), (vp, fpz), (u[0] * math.exp(g[0]), fz),
                         (d[0], fpz / fz)):
            ref = complex(ref)
            assert abs(got - ref) < 1e-8 * abs(ref), (s, got, ref)
        assert abs(v - ev.eval_F(F, s)) < 1e-9 * abs(v), s


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
_CHI5 = chars.character_table(5)[1]


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


# far from the strip L(s, chi) leaves the double range, and only u exp(G)
# holds it: the Dirichlet polynomial's terms are at most 1 far right, and
# far left the reflection carries it.  Row 0 against mpmath in mpmath
# arithmetic, within the table's own bound in the same scale, down to and
# at the trivial zeros, where the value is all rounding of the reflection
_FAR_CHARS = [chi for q in (3, 4, 5) for chi in chars.character_table(q).primitive()]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(chi=st.sampled_from(_FAR_CHARS), sigma=st.floats(-2000.0, 600.0),
       t=st.floats(-50.0, 50.0))
@example(chi=_ORACLE_CHARS["chi4"], sigma=513.0, t=0.0)
@example(chi=_ORACLE_CHARS["chi4"], sigma=-600.3, t=0.1)
@example(chi=_ORACLE_CHARS["chi4"], sigma=-2001.0, t=0.0)
@example(chi=_CHI5, sigma=600.0, t=-50.0)
@example(chi=chars.character_table(5)[2], sigma=-4.0, t=0.0)
def test_dirichlet_far_range_oracle(chi, sigma, t):
    s = complex(sigma, t)
    # mpmath.dirichlet divides by zero at s = 0, loses every digit next to
    # it and does not cancel the Hurwitz poles at s = 1; the oracle tests
    # above cover both points
    assume(abs(s) > 1e-3 and abs(s - 1) > 1e-3)
    C, G, trunc, rnd = ev._lfunc_taylor(dirichlet_descriptor(chi), np.array([s]), 0)
    assert np.isfinite(C[0, 0]) and np.isfinite(G[0])
    with mp.workdps(20):
        ref = mp.dirichlet(mp.mpc(s), [chi(k) for k in range(chi.modulus)])
        scale = mp.exp(G[0])
        assert abs(mp.mpc(C[0, 0]) * scale - ref) <= (trunc[0, 0] + rnd[0, 0]) * scale


class _ExactReal:
    """A real character with its values rounded to the exact 0, 1 or -1."""

    def __init__(self, chi):
        self.chi = chi
        self.modulus = chi.modulus

    def __call__(self, a):
        return round(self.chi(a).real)


@pytest.mark.parametrize("q", [3, 4])
def test_entire_at_1_oracle(q):
    # non-principal L is entire at s = 1: its table there comes from the
    # pole-subtracted tail series.  mpmath's Hurwitz poles cancel in the
    # character sum, so the reference is taken 1e-30 right of 1, with exact
    # character values and enough digits to absorb l! / (s - 1)^(l+1)
    chi = chars.character_table(q)[1]
    D = ev.lfunc_derivatives(dirichlet_descriptor(chi), np.array([1.0 + 0j]), 3)
    with mp.workdps(160):
        refs = _mp_derivatives(_ExactReal(chi), 1 + mp.mpf("1e-30"), 3)
    for l, ref in enumerate(refs):
        assert abs(D[l, 0] - ref) <= 1e-10 * max(1.0, abs(ref)), l


def test_zeta_table_at_1_stieltjes():
    # zeta(1 + e) - 1/e = sum_k (-1)^k gamma_k e^k / k! through gamma_9,
    # within the table's own truncation and rounding bounds
    C, trunc, rnd = ev._hurwitz_batch(np.array([1.0 + 0j]), 1.0, 9, subtract_pole=True)
    for k in range(10):
        ref = complex((-1) ** k * mp.stieltjes(k) / mp.factorial(k))
        assert abs(C[k, 0] - ref) <= trunc[k, 0] + rnd[k, 0], k


def test_pole_order_reads_table_at_1(l_chi4):
    from lfpoly import expr as E

    F = build([(1.0, [(ZETA, 1, 1), (l_chi4, 0, 1)])], [ZETA, l_chi4])
    assert E.pole_order(F) == 2


# the bound of every Taylor coefficient must cover its true error, on both
# sides of the reflection line and up to the heights the zero engine uses
@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(sorted(_ORACLE_CHARS)),
    sigma=st.one_of(st.floats(-60.0, -2.0), st.floats(-2.0, 4.0)),
    t=st.floats(1.0, 300.0),
    flip=st.booleans(),
)
@example(name="chi4", sigma=-59.5, t=299.0, flip=False)
@example(name="zeta", sigma=-2.01, t=300.0, flip=True)
@example(name="chi3", sigma=-1.99, t=250.0, flip=False)
@example(name="zeta", sigma=3.9, t=1.0, flip=False)
# real s = 0, -1, -2: the Bernoulli Horner factor s + k is exactly 0 at k = -s
@example(name="zeta", sigma=0.0, t=0.0, flip=False)
@example(name="zeta", sigma=-1.0, t=0.0, flip=False)
@example(name="zeta", sigma=-2.0, t=0.0, flip=False)
@example(name="chi3", sigma=0.0, t=0.0, flip=False)
@example(name="chi3", sigma=-1.0, t=0.0, flip=False)
@example(name="chi3", sigma=-2.0, t=0.0, flip=False)
@example(name="chi4", sigma=0.0, t=0.0, flip=False)
@example(name="chi4", sigma=-1.0, t=0.0, flip=False)
@example(name="chi4", sigma=-2.0, t=0.0, flip=False)
def test_taylor_bounds_honest(name, sigma, t, flip):
    chi = _ORACLE_CHARS[name]
    desc = ZETA if chi is None else dirichlet_descriptor(chi)
    s = complex(sigma, -t if flip else t)
    C, G, trunc, rnd = ev._lfunc_taylor(desc, np.array([s]), 3)
    with mp.workdps(25):
        refs = _mp_derivatives(chi, s, 3)
        for l, ref in enumerate(refs):
            # the reference in the table's own scale exp(G) / l!
            want = complex(mp.mpc(ref) * mp.exp(-G[0]) / math.factorial(l))
            assert abs(C[l, 0] - want) <= trunc[l, 0] + rnd[l, 0], (s, l)


# the Euler-Maclaurin size comes from the error target: N never exceeds the
# fixed rule max(20, ceil(1.2 t)), nb never needs past B_60, and every
# truncation bound lies below its rounding bound, over batches of two
# points reaching far right of the strip and up to t = 2000
@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    sigma=st.one_of(st.floats(-2.0, 4.0), st.floats(3.0, 300.0)),
    t=st.floats(0.0, 2000.0),
    dsigma=st.floats(0.0, 3.0),
    tfrac=st.floats(0.0, 1.0),
    a=st.sampled_from([1.0, 0.25, 0.75, 1 / 3, 2 / 3, _ORACLE_CHARS["chi4"],
                       _CHI5]),
    lmax=st.integers(0, 3),
)
def test_em_size_from_target(sigma, t, dsigma, tfrac, a, lmax):
    S = np.array([complex(sigma, t), complex(sigma + dsigma, -t * tfrac)])
    assume(np.abs(S - 1).min() > 1e-3)
    N, nb = ev._em_size(sigma, float(np.abs(S).max()), t, a, lmax, S.size)
    assert N <= max(20, math.ceil(1.2 * t)) and nb <= 29
    _, trunc, rnd = ev._hurwitz_batch(S, a, lmax)
    assert (trunc <= rnd).all()


# the bounds stay honest above the heights of test_taylor_bounds_honest,
# for zeta, Hurwitz zeta and L(s, chi) with chi mod 4 and mod 5
@pytest.mark.parametrize("s, a", [
    (0.5 + 1999.5j, 1.0), (-1.5 + 702.0j, 0.25), (3.5 - 1250.0j, 2 / 3),
    (40.0 + 333.0j, 0.75), (-1.5 + 702.0j, _ORACLE_CHARS["chi4"]),
    (3.5 - 620.0j, _CHI5),
])
def test_em_bounds_high(s, a):
    C, trunc, rnd = ev._hurwitz_batch(np.array([s]), a, 3)
    with mp.workdps(30):
        if isinstance(a, float):
            refs = [mp.zeta(mp.mpc(s), mp.mpf(a), derivative=l) for l in range(4)]
        else:
            refs = _mp_derivatives(a, s, 3)
        for l, ref in enumerate(refs):
            want = complex(mp.mpc(ref) / math.factorial(l))
            assert abs(C[l, 0] - want) <= trunc[l, 0] + rnd[l, 0], l


# real winding batches: the distinct first samples of the edges of adjacent
# zeta bands near t = 1900 share their abscissae and, edge by edge, their
# heights, and the main sum takes each batch as one grid of its distinct
# heights x abscissae.  Three bands make a small grid, and every entry must
# match a one-point call; ninety bands make one whose sieved tables span
# several blocks of heights, and the entries at the lowest and highest
# height of every abscissa, the grid's edges, must.  A few entries of each
# are checked against mpmath
@pytest.mark.parametrize("lmax", [0, 2])
def test_em_contour_batch(lmax):
    for nbands in (3, 90):
        at = [-1.0, 3.0, *Z._band_edges(1899.5, 1900.5 + 1.1 * nbands, 0)]
        cells = [(0, 1, j, j + 1) for j in range(2, nbands + 2)]
        edges = dict.fromkeys(e[:2] for c in cells for e in Z._sides(at, c))
        S = np.unique(np.concatenate([Z._edge_points(a, b)
                                      for a, b in edges]))
        assert np.unique(S.imag).size < S.size / 2
        N, _ = ev._em_size(S.real.min(), np.abs(S).max(), np.abs(S.imag).max(),
                           1.0, lmax, S.size)
        [(usig, ut, rows, js, jt)] = ev._grid_groups(S.real, S.imag, N)
        assert usig.size * ut.size <= ev._GRID * S.size
        C, trunc, rnd = ev._hurwitz_batch(S, 1.0, lmax)
        if nbands == 3:
            check = range(S.size)
        else:
            assert ut.size * N >= ev._SIEVE and ut.size > 2 * max(1, ev._BLOCK // N)
            check = {i for x in S.real for i in np.flatnonzero(S.real == x)[[0, -1]]}
        for i in check:
            C1, trunc1, rnd1 = ev._hurwitz_batch(S[i : i + 1], 1.0, lmax)
            tol = trunc[:, i] + rnd[:, i] + trunc1[:, 0] + rnd1[:, 0]
            assert (np.abs(C[:, i] - C1[:, 0]) <= tol).all(), S[i]
        with mp.workdps(30):
            for i in np.linspace(0, S.size - 1, 4).astype(int):
                for l in range(lmax + 1):
                    ref = mp.zeta(mp.mpc(S[i]), 1, derivative=l) / math.factorial(l)
                    assert abs(C[l, i] - complex(ref)) <= trunc[l, i] + rnd[l, i], (S[i], l)


# a batch with no abscissa or height repeated splits into runs of _GRID
# abscissae, each grid within _GRID times its points; the entries on both
# sides of every run boundary match one-point calls, and four match mpmath
@pytest.mark.parametrize("lmax", [0, 3])
@pytest.mark.parametrize("name", ["zeta", "chi4"])
def test_em_scattered_batch(name, lmax, monkeypatch):
    rng = np.random.default_rng(25)
    S = rng.uniform(-1.9, 3, 400) + 1j * rng.uniform(-60, 200, 400)
    chi = _ORACLE_CHARS[name]
    a = 1.0 if chi is None else chi
    real, groups = ev._grid_groups, []

    def recorded(*args):
        groups.extend(real(*args))
        return groups

    monkeypatch.setattr(ev, "_grid_groups", recorded)
    C, trunc, rnd = ev._hurwitz_batch(S, a, lmax)
    monkeypatch.undo()
    seen = np.concatenate([rows for _, _, rows, _, _ in groups])
    assert len(groups) == 400 // ev._GRID and np.array_equal(np.sort(seen), np.arange(400))
    for usig, ut, rows, js, jt in groups:
        assert usig.size * ut.size <= ev._GRID * rows.size
        assert np.array_equal(usig[js] + 1j * ut[jt], S[rows])
    for i in {int(rows[k]) for _, _, rows, _, _ in groups for k in (0, -1)}:
        C1, trunc1, rnd1 = ev._hurwitz_batch(S[i : i + 1], a, lmax)
        tol = trunc[:, i] + rnd[:, i] + trunc1[:, 0] + rnd1[:, 0]
        assert (np.abs(C[:, i] - C1[:, 0]) <= tol).all(), S[i]
    with mp.workdps(30):
        for i in np.argsort(S.imag)[[0, 133, 266, 399]]:
            refs = _mp_derivatives(chi, S[i], lmax)
            for l, ref in enumerate(refs):
                want = ref / math.factorial(l)
                assert abs(C[l, i] - want) <= trunc[l, i] + rnd[l, i], (S[i], l)


# the sieve of the main sum's terms n = q k + c prime to q: level by level,
# every n is its least prime factor, in level 0, times a cofactor built at
# the level before, and level 0 is n = 1 and the primes among the terms;
# N past a power of two takes the next plan, N below it a prefix of one
@pytest.mark.parametrize("q", [1, 3, 4, 5, 8, 12])
def test_sieve_plan(q):
    _, cls, _ = ev._classes(chars.character(q, 0))
    for N in (4, 37, 64, 65, 300):
        terms = (q * np.arange(N)[:, None] + np.array(cls)).ravel()
        plan = ev._sieve_plan(q, cls, 1 << (N - 1).bit_length())
        order, steps, nd = ev._sieve_rows(plan, terms[-1])
        assert np.array_equal(np.sort(order), np.arange(terms.size))
        n = terms[order]
        primes = [m for m in terms if m > 1 and all(m % d for d in range(2, math.isqrt(m) + 1))]
        assert list(n[:nd]) == [1] + primes
        built = nd
        for lo, hi, ip, im in steps:
            assert lo == built and hi > lo
            assert np.array_equal(n[lo:hi], n[ip] * n[im])
            assert (ip < nd).all() and (n[ip] > 1).all() and (im < lo).all()
            built = hi
        assert built == terms.size


# sieved tables at height: one batch of 4 abscissae x 64 distinct heights
# in [1000, 10^4] for zeta, chi_4 and a complex character mod 5.  Every
# entry matches the same batch with direct tables within both bounds, whose
# rounding bound lies 2 _EPS per product level below the sieved one's; the
# lowest height (and at lmax 0 for zeta the highest) matches mpmath
@pytest.mark.parametrize("name, lmax", [("zeta", 0), ("zeta", 3), ("chi4", 2), ("chi5", 1)])
def test_sieved_batch_oracle(name, lmax, monkeypatch):
    chi = _CHI5 if name == "chi5" else _ORACLE_CHARS[name]
    a = chars.character(1, 0) if chi is None else chi
    rng = np.random.default_rng(27)
    S = (rng.uniform(-1, 3, 4)[:, None] + 1j * rng.uniform(1000, 1e4, 64)).ravel()
    C, trunc, rnd = ev._hurwitz_batch(S, a, lmax)
    q, cls, _ = ev._classes(a)
    N, _ = ev._em_size(S.real.min(), np.abs(S).max(), np.abs(S.imag).max(), a, lmax, S.size)
    top = q * (N - 1) + cls[-1]
    levels = len(ev._sieve_rows(ev._sieve_plan(q, cls, 1 << (N - 1).bit_length()), top)[1])
    assert 64 * N * len(cls) >= ev._SIEVE and levels >= 7
    monkeypatch.setattr(ev, "_SIEVE", math.inf)
    C1, trunc1, rnd1 = ev._hurwitz_batch(S, a, lmax)
    assert np.array_equal(trunc, trunc1)
    assert (np.abs(C - C1) <= rnd + rnd1).all()
    # direct: _EPS (4 + j + |s| log M) per unit of mass, with max M = top + q
    per_term = 4 + np.arange(lmax + 1)[:, None] + np.abs(S) * math.log(top + q)
    assert (rnd - rnd1 >= levels * rnd1 / per_term).all()
    with mp.workdps(30):
        for i in np.argsort(S.imag)[[0, -1] if name == "zeta" and lmax == 0 else [0]]:
            for l, ref in enumerate(_mp_derivatives(chi, S[i], lmax)):
                want = ref / math.factorial(l)
                assert abs(C[l, i] - want) <= trunc[l, i] + rnd[l, i], (S[i], l)


# --- functional-equation pieces -------------------------------------------

def test_b_factor_power_example():
    # at s = 9 the rank-1 zeta factor gives ((1/2) log 22.5)^l
    g = 0.5 * math.log(22.5)
    for l in (0, 1, 2):
        got = ev.b_factor(np.array([9.0 + 0j]), l, ZETA)
        assert abs(got[0] - g**l) < 1e-12


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
    with pytest.raises(RegionViolation):
        ev.asymptotic_fe_main(F, 1.2 + 0j)
    # one point outside is enough: 3 = 2 * 2 - 1 is a shifted spectral point
    with pytest.raises(RegionViolation):
        ev.asymptotic_fe_main(F, np.array([3.0 + 20j, 3.0 + 0.05j]))


@pytest.mark.parametrize("sigma", [3.0, 50.0, 150.0])
def test_asymptotic_fe_main_scaled_oracle(zeta_prime, l_chi4, sigma):
    # for zeta' the main term is -b(s) zeta(1 - s), b(s) = (log(s / 2) +
    # log((1 + s) / 2)) / 2, and for zeta' L(chi_4) it is -b(s) zeta(1 - s)
    # L(1 - s, chi_4); u exp(g) against mpmath in log magnitude and phase,
    # where the plain value leaves the double range at sigma = 150
    zeta_chi4 = build([(1.0, [(ZETA, 1, 1), (l_chi4, 0, 1)])], [ZETA, l_chi4])
    S = sigma + 1j * np.array([20.0, 80.0])
    for F, other in ((zeta_prime, lambda w: 1), (zeta_chi4, _mp_l_chi4)):
        _, (u, g) = ev.asymptotic_fe_main(F, S)
        for s, ui, gi in zip(S, u, g):
            z = mp.mpc(s)
            b = (mp.log(z / 2) + mp.log((1 + z) / 2)) / 2
            ref = -b * mp.zeta(1 - z) * other(1 - z)
            assert abs(math.log(abs(ui)) + gi - float(mp.log(abs(ref)))) < 1e-10
            dphase = cmath.phase(ui) - float(mp.arg(ref))
            assert abs((dphase + math.pi) % (2 * math.pi) - math.pi) < 1e-10


# log Gamma and digamma against mpmath: within the stated Stirling bound
# plus a rounding term of a few ulps of the pieces summed, on the branch
# fixed by log Gamma(z + 1) = log Gamma(z) + log z, and only for Re z > 0
_B22 = abs(float(BERNOULLI[22]))


def _gamma_rounding(z):
    """(log Gamma, digamma) rounding terms: 4 ulps of every piece summed at
    w = z + m and of every shift term."""
    m = max(0, math.ceil(ev._GAMMA_SHIFT - z.real))
    w = z + m
    eps = 4 * 2.0**-52
    lg = eps * (abs(w * cmath.log(w)) + abs(w) + 1
                + sum(abs(cmath.log(z + k)) for k in range(m)))
    dg = eps * (abs(cmath.log(w)) + 1 + sum(1 / abs(z + k) for k in range(m)))
    return w, lg, dg


def _stirling_bounds(w):
    """The docstring bounds of _loggamma and _digamma at w."""
    sec2 = 2 / (1 + math.cos(math.atan2(w.imag, w.real)))
    return (_B22 / (22 * 21 * abs(w) ** 21) * sec2**11,
            _B22 / (11 * abs(w) ** 22) * sec2**11.5)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    x=st.one_of(st.floats(0.05, 8.0, exclude_min=True), st.floats(8.0, 200.0)),
    y=st.one_of(st.floats(-5.0, 5.0), st.floats(-5000.0, 5000.0)),
)
@example(x=0.05 + 1e-12, y=0.0)
@example(x=0.5, y=0.0)
@example(x=7.99, y=-4999.0)
@example(x=200.0, y=5000.0)
def test_loggamma_digamma_oracle(x, y):
    z = complex(x, y)
    w, rl, rd = _gamma_rounding(z)
    bl, bd = _stirling_bounds(w)
    # the docstring maxima over Re w >= 8
    assert bl <= 1.5e-18 and bd <= 7.7e-18
    with mp.workdps(30):
        lg = complex(mp.loggamma(mp.mpc(z)))
        dg = complex(mp.digamma(mp.mpc(z)))
    assert abs(ev._loggamma(z, 2)[0] - lg) <= 1.5e-18 + rl, z
    assert abs(ev._loggamma(z, 2)[1] - dg) <= 7.7e-18 + rd, z
    step = ev._loggamma(z + 1, 2)[0] - ev._loggamma(z, 2)[0] - cmath.log(z)
    assert abs(step) <= 2 * (_gamma_rounding(z + 1)[1] + rl), z


# shifted only to Re w >= 4 the Stirling remainder (3e-12 on the real axis)
# stands above the rounding, so the bound itself and every Bernoulli term
# in it are checked
@settings(max_examples=60, deadline=None, derandomize=True)
@given(x=st.floats(0.05, 6.0, exclude_min=True), y=st.floats(-4.0, 4.0))
@example(x=0.5, y=0.0)
@example(x=3.9, y=0.0)
@example(x=0.7, y=0.3)
def test_stirling_bound_low_shift(x, y):
    z = complex(x, y)
    with pytest.MonkeyPatch.context() as mpatch, mp.workdps(30):
        mpatch.setattr(ev, "_GAMMA_SHIFT", 4)
        w, rl, rd = _gamma_rounding(z)
        bl, bd = _stirling_bounds(w)
        assert abs(ev._loggamma(z, 2)[0] - complex(mp.loggamma(mp.mpc(z)))) <= bl + rl, z
        assert abs(ev._loggamma(z, 2)[1] - complex(mp.digamma(mp.mpc(z)))) <= bd + rd, z


# orders j >= 2 of log Gamma(z + h) are (-1)^j zeta(j, z) / j: within the
# docstring's Cauchy bound plus (j + 1) ulps of every piece summed (the
# j-th power of each shift term rounds j times)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    x=st.one_of(st.floats(0.05, 8.0, exclude_min=True), st.floats(8.0, 200.0)),
    y=st.one_of(st.floats(-5.0, 5.0), st.floats(-5000.0, 5000.0)),
)
@example(x=0.05 + 1e-12, y=0.0)
@example(x=0.5, y=0.0)
@example(x=7.99, y=-4999.0)
@example(x=200.0, y=5000.0)
def test_loggamma_higher_orders_oracle(x, y):
    z = complex(x, y)
    m = max(0, math.ceil(ev._GAMMA_SHIFT - z.real))
    w = z + m
    got = ev._loggamma(z, 6)
    with mp.workdps(30):
        for j in range(2, 6):
            ref = complex((-1) ** j * mp.zeta(j, mp.mpc(z)) / j)
            pieces = sum(abs(z + k) ** -j for k in range(m)) / j + abs(w) ** (1 - j)
            assert abs(got[j] - ref) <= 2.4e-17 + 4 * (j + 1) * 2.0**-52 * pieces, (z, j)


@pytest.mark.parametrize("z", [0.0, -0.5 + 3j, -1e-300 - 100j, complex("nan")])
def test_loggamma_digamma_domain(z):
    for f in (lambda z: ev._loggamma(z, 2)[0], lambda z: ev._loggamma(z, 2)[1]):
        with pytest.raises(ValueError):
            f(np.array([1.0, z]))
