import math
import random

import numpy as np
import pytest

from lfpoly import expr as E
from lfpoly.errors import AccuracyUnreachable, AssumptionViolated, ZeroExpression

from conftest import ZETA, build, zpoly

TWO_PI = 2 * math.pi


# --- canonicalization -----------------------------------------------------

def test_merge_coefficients():
    F = zpoly((2.0, [(0, 1)]), (3.0, [(0, 1)]))
    assert len(F.monomials) == 1
    assert F.monomials[0].coeff == 5.0


def test_merge_exponents():
    raw = [E.Monomial.make(1.0, [(ZETA.id, 0, 1), (ZETA.id, 0, 1)])]
    F = E.PolyExpression(raw, {ZETA.id: ZETA})
    assert F.monomials[0].factors == ((ZETA.id, 0, 2),)


def test_zero_expression_raises():
    with pytest.raises(ZeroExpression):
        zpoly((1.0, [(0, 1)]), (-1.0, [(0, 1)]))


def test_canonicalize_idempotent():
    F = zpoly((1.0, [(1, 1), (0, 2)]), (2.0, [(2, 1)]))
    G = E.canonicalize(F)
    assert G.monomials == F.monomials


def test_ordering_deterministic():
    F1 = zpoly((1.0, [(2, 1)]), (3.0, [(1, 1)]))
    F2 = zpoly((3.0, [(1, 1)]), (1.0, [(2, 1)]))
    assert F1.monomials == F2.monomials


# --- coefficient series ---------------------------------------------------

def _brute_coefficients(F, N):
    """Independent naive Dirichlet convolution, O(N^2) per factor."""
    divisors = [[] for _ in range(N + 1)]
    for d in range(1, N + 1):
        for n in range(d, N + 1, d):
            divisors[n].append(d)
    total = np.zeros(N + 1, dtype=complex)
    for m in F.monomials:
        acc = np.zeros(N + 1, dtype=complex)
        acc[1] = 1.0
        for fid, l, dexp in m.factors:
            desc = F.lfuncs[fid]
            g = np.zeros(N + 1, dtype=complex)
            for n in range(1, N + 1):
                g[n] = desc.coefficient(n) * (-math.log(n)) ** l
            for _ in range(dexp):
                nxt = np.zeros(N + 1, dtype=complex)
                for n in range(1, N + 1):
                    nxt[n] = sum(acc[d] * g[n // d] for d in divisors[n])
                acc = nxt
        total += m.coeff * acc
    return total


def test_coefficients_zeta_prime():
    cs = E.dirichlet_coefficients(zpoly((1.0, [(1, 1)])), 50)
    for n in range(1, 51):
        assert abs(cs.eta[n] - (-math.log(n))) < 1e-13


def test_coefficients_product_vs_brute(l_chi3):
    F = build(
        [(2.0, [(ZETA, 1, 1), (l_chi3, 0, 1)]), (1.0 + 1.0j, [(ZETA, 0, 2)])],
        [ZETA, l_chi3],
    )
    cs = E.dirichlet_coefficients(F, 120)
    ref = _brute_coefficients(F, 120)
    scale = np.abs(ref).max()
    assert np.abs(cs.eta - ref).max() < 1e-12 * scale


def test_coefficients_random_small(l_chi3, l_chi4):
    rng = random.Random(7)
    descs = [ZETA, l_chi3, l_chi4]
    for _ in range(10):
        monos = []
        for _ in range(rng.randint(1, 3)):
            facs = []
            for _ in range(rng.randint(1, 2)):
                facs.append(
                    (rng.choice(descs), rng.randint(0, 2), rng.randint(1, 2))
                )
            monos.append((complex(rng.uniform(-2, 2), rng.uniform(-2, 2)), facs))
        try:
            F = build(monos, descs)
        except ZeroExpression:
            continue
        cs = E.dirichlet_coefficients(F, 80)
        ref = _brute_coefficients(F, 80)
        scale = max(np.abs(ref).max(), 1e-30)
        assert np.abs(cs.eta - ref).max() < 1e-12 * scale


def test_first_nonzero_skips_exact_cancellation():
    # lead coefficient cancels exactly: (zeta - 1) has eta_1 = 0, eta_2 = 1
    F = zpoly((1.0, [(0, 1)]), (-1.0, []))
    n, eta = E.first_nonzero_index(F)
    assert n == 2
    assert abs(eta - 1.0) < 1e-14


@pytest.mark.parametrize("terms, n_F, eta", [
    ([(1.0, [(1, 1)])], 2, -math.log(2)),
    ([(1.0, [(0, 1)]), (-1.0, [])], 2, 1.0),
    # eta_n = 0 for n < 6 (mass > 0 at n = 2, 3, 4, 5); eta_6 = (log 2 -
    # log 3)^2 vanishes on the grid's diagonal, so only an off-diagonal
    # point shows it is nonzero
    ([(1.0, [(2, 1), (0, 1)]), (-1.0, [(2, 1)]), (-1.0, [(1, 2)])], 6,
     math.log(1.5) ** 2),
    # exact zero at n = 6 over the whole 3 x 3 grid, then eta_8 = -(log 2)^2
    ([(1.0, [(1, 2)]), (-1.0, [(1, 2), (0, 1)])], 8, -math.log(2) ** 2),
])
def test_first_nonzero_exact_test_decides(monkeypatch, terms, n_F, eta):
    # the numeric test calls every eta_n zero; the exact one must decide
    monkeypatch.setattr(E, "_ETA_ZERO_REL_TOL", 1e9)
    n, got = E.first_nonzero_index(zpoly(*terms))
    assert n == n_F
    assert abs(got - eta) < 1e-14


def test_eta_growth_is_subpolynomial():
    # |eta_n| <= C tau_3(n) (log n)^2 for zeta'^2 zeta; after dividing out
    # the divisor and log factors the fitted exponent must be tiny
    N = 200
    F = zpoly((1.0, [(1, 2), (0, 1)]))
    cs = E.dirichlet_coefficients(F, N)
    ones = np.zeros(N + 1)
    ones[1:] = 1.0
    tau3 = np.zeros(N + 1)
    for a in range(1, N + 1):
        for b in range(1, N // a + 1):
            tau3[a * b :: a * b] += 1
    ns = np.arange(2, N + 1)
    envelope = tau3[2:] * np.log(ns) ** 2
    vals = np.maximum.accumulate(np.abs(cs.eta[2 : N + 1]) / envelope)
    # skip the initial zeros of the ratio before fitting the envelope growth
    keep = ns >= 20
    slope = np.polyfit(np.log(ns[keep]), np.log(vals[keep]), 1)[0]
    assert slope < 0.5


# --- degree calculus ------------------------------------------------------

def test_profile_zeta():
    p = E.degree_profile(zpoly((1.0, [(0, 1)])))
    assert (p.deg_rk, p.deg_der, p.deg_cond) == (1, 0, 0.0)
    assert p.n_F == 1 and p.p_F == 1
    assert abs(p.alpha1 - 1 / TWO_PI) < 1e-12
    assert abs(p.alpha2 - (-math.log(TWO_PI * math.e) / TWO_PI)) < 1e-12


@pytest.mark.parametrize("k", [1, 2, 3])
def test_profile_zeta_derivatives(k):
    p = E.degree_profile(zpoly((1.0, [(k, 1)])))
    assert (p.deg_rk, p.deg_der, p.deg_cond) == (1, k, 0.0)
    assert p.n_F == 2
    assert abs(p.eta_nF - (-math.log(2)) ** k) < 1e-12
    assert abs(p.alpha1 - 1 / TWO_PI) < 1e-12
    expect_a2 = -(math.log(TWO_PI * math.e) + math.log(2)) / TWO_PI
    assert abs(p.alpha2 - expect_a2) < 1e-12


def test_profile_combination():
    # the second-derivative monomial alone dominates (2, not 1, derivatives)
    F = zpoly((1.0, [(2, 1)]), (3.0, [(1, 1)]))
    p = E.degree_profile(F)
    assert p.deg_rk == 1 and p.deg_der == 2
    assert len(p.J) == 1
    assert abs(p.sum_cJ - 1.0) < 1e-14
    assert p.assumption_satisfied


def test_profile_product_chi3(l_chi3):
    F = build([(1.0, [(ZETA, 1, 1), (l_chi3, 0, 1)])], [ZETA, l_chi3])
    p = E.degree_profile(F)
    assert p.deg_rk == 2 and p.deg_der == 1
    assert abs(p.deg_cond - math.log(3)) < 1e-14
    assert p.n_F == 2
    assert abs(p.alpha1 - 2 / TWO_PI) < 1e-12
    expect_a2 = (math.log(3) - 2 * math.log(TWO_PI * math.e) - math.log(2)) / TWO_PI
    assert abs(p.alpha2 - expect_a2) < 1e-12


def test_profile_constant_monomial_admitted():
    # a-point form F - a: the constant term has all degrees zero
    F = zpoly((1.0, [(1, 1)]), (-0.5, []))
    p = E.degree_profile(F)
    assert p.deg_rk == 1 and p.deg_der == 1


def test_profile_scalar_invariance():
    F1 = zpoly((1.0, [(2, 1)]), (3.0, [(1, 1)]))
    F2 = zpoly((2.5j, [(2, 1)]), (7.5j, [(1, 1)]))
    p1, p2 = E.degree_profile(F1), E.degree_profile(F2)
    assert (p1.deg_rk, p1.deg_der, p1.deg_cond) == (p2.deg_rk, p2.deg_der, p2.deg_cond)
    assert p1.J == p2.J and p1.n_F == p2.n_F
    assert abs(p2.sum_cJ - 2.5j * p1.sum_cJ) < 1e-12


def test_assumption_violated_warns():
    F = zpoly((1.0, [(1, 1), (0, 1)]), (-1.0, [(2, 1)]), (1.0, [(0, 1)]))
    # both leading monomials have (rank, der) degree (2, ...)? build a direct
    # cancellation instead: c_J sums to zero over two equal-degree monomials
    G = zpoly((1.0, [(1, 2)]), (-1.0, [(2, 1), (0, 1)]), (1.0, [(0, 1)]))
    with pytest.warns(AssumptionViolated):
        p = E.degree_profile(G)
    assert not p.assumption_satisfied


def test_alpha2_shift_with_n_F():
    # zeta' has eta_1 = -log 1 = 0, so n_F moves from 1 to 2 while the rank
    # and conductor degrees stay; alpha2 moves by exactly -log(2)/(2 pi)
    pF = E.degree_profile(zpoly((1.0, [(0, 1)])))
    pG = E.degree_profile(zpoly((1.0, [(1, 1)])))
    assert (pF.n_F, pG.n_F) == (1, 2)
    assert (pF.deg_rk, pF.deg_cond) == (pG.deg_rk, pG.deg_cond)
    assert abs((pG.alpha2 - pF.alpha2) - (-math.log(2) / TWO_PI)) < 1e-12


def test_predicted_count_values():
    F = zpoly((1.0, [(0, 1)]))
    p = E.degree_profile(F)
    T = 120.0
    expect = p.alpha1 * T * math.log(T) + p.alpha2 * T
    assert abs(E.predicted_count(F, T) - expect) < 1e-9


# --- pole order -----------------------------------------------------------

def test_pole_orders_basic(l_chi3):
    assert E.pole_order(zpoly((1.0, [(0, 1)]))) == 1
    assert E.pole_order(zpoly((1.0, [(1, 1)]))) == 2
    assert E.pole_order(zpoly((1.0, [(2, 1)]))) == 3
    assert E.pole_order(zpoly((1.0, [(0, 2)]))) == 2
    assert E.pole_order(build([(1.0, [(l_chi3, 0, 1)])], [l_chi3])) == 0


def test_pole_order_cancellation():
    # zeta^2 and zeta' both open with (s-1)^{-2}; the sum drops to order 1
    F = zpoly((1.0, [(0, 2)]), (1.0, [(1, 1)]))
    assert E.pole_order(F) == 1


def test_pole_order_mixed_factor(l_chi3):
    F = build([(1.0, [(ZETA, 0, 1), (l_chi3, 0, 1)])], [ZETA, l_chi3])
    assert E.pole_order(F) == 1


def test_pole_probe_passes_programming_errors(monkeypatch):
    # the numeric cross-check gives way only to the package's own errors;
    # a fault in the evaluator is raised, not taken as "no probe"
    def broken(*args):
        raise TypeError("broken evaluator")

    monkeypatch.setattr(E, "eval_F", broken)
    with pytest.raises(TypeError, match="broken evaluator"):
        E.pole_order(zpoly((1.0, [(0, 1)])))


def test_pole_order_gates_table_at_1():
    # zeta^P needs zeta's table at s = 1 through order P - 2; an order the
    # kernel cannot certify raises instead of being used
    assert E.pole_order(zpoly((1.0, [(0, 20)]))) == 20
    with pytest.raises(AccuracyUnreachable):
        E.pole_order(zpoly((1.0, [(0, 40)])))
