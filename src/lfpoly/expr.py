"""Polynomials in derivatives of L-functions: the exact combinatorial layer.

An expression F(s) = sum_j c_j prod_u prod_l L^(l)(s, pi_u)^{d_{u,l,j}} is a
list of monomials over a registry of L-function descriptors.  This module
owns canonicalization, the three weighted degrees and the leading index set,
Dirichlet-series convolution of the coefficients, the pole order at s = 1,
and the predicted zero-count asymptotics.  An expression is not changed
once built, so its invariants are computed on first use and kept on it:
F.profile = degree_profile(F) and F.strip = zeros.zero_free_bounds(F), the
strip of its nontrivial zeros.  Those two functions compute afresh.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import characters as chars
from .constants import LOG_2PI_E, TWO_PI
from .errors import AssumptionViolated, LfpolyError, NumericallyAmbiguous, ZeroExpression
from .evaluate import _gate, _hurwitz_batch, _sum_monomials, eval_F_scaled_batch

_ZERO_COEFF_TOL = 1e-14
_SUMCJ_REL_TOL = 1e-12
_ETA_ZERO_REL_TOL = 1e-12
_MAX_NF = 2048  # search limit for the first nonzero Dirichlet coefficient


@dataclass(frozen=True)
class Monomial:
    """c * prod (L_{id})^(l-th derivative) ^ d.  Factors sorted, merged."""

    coeff: complex
    factors: tuple  # of (lfunc_id: str, deriv: int, exp: int)

    @staticmethod
    def make(coeff, factors):
        merged = {}
        for fid, l, d in factors:
            if l < 0 or d <= 0:
                raise ValueError("derivative order must be >= 0, exponent >= 1")
            merged[(fid, l)] = merged.get((fid, l), 0) + d
        facs = tuple(sorted((fid, l, d) for (fid, l), d in merged.items()))
        return Monomial(complex(coeff), facs)

    @property
    def key(self):
        return self.factors

    def degrees(self, lfuncs):
        """(rank-, derivative-, conductor-weighted) degree of this monomial."""
        rk = der = 0
        cond = 0.0
        for fid, l, d in self.factors:
            desc = lfuncs[fid]
            rk += desc.rank * d
            der += l * d
            cond += desc.log_conductor * d
        return rk, der, cond


class PolyExpression:
    """Canonical expression: monomials plus the descriptor registry they use."""

    def __init__(self, monomials, lfuncs):
        self.lfuncs = dict(lfuncs)
        mono = list(monomials)
        if not mono:
            raise ZeroExpression("expression has no monomials")
        self.monomials = tuple(_canonical_monomials(mono))
        for m in self.monomials:
            for fid, _, _ in m.factors:
                if fid not in self.lfuncs:
                    raise KeyError(f"monomial references unknown L-function {fid!r}")

    def __repr__(self):
        return f"PolyExpression({len(self.monomials)} monomials, {sorted(self.lfuncs)})"

    @functools.cached_property
    def profile(self):
        return degree_profile(self)

    @functools.cached_property
    def strip(self):
        # zeros imports this module, so the import waits until first use
        from . import zeros
        return zeros.zero_free_bounds(self)

    def referenced_ids(self):
        return sorted({fid for m in self.monomials for fid, _, _ in m.factors})


def _canonical_monomials(monomials):
    by_key = {}
    for m in monomials:
        m = Monomial.make(m.coeff, m.factors)
        if m.key in by_key:
            by_key[m.key] = by_key[m.key] + m.coeff
        else:
            by_key[m.key] = m.coeff
    scale = max((abs(c) for c in by_key.values()), default=0.0)
    out = [
        Monomial(c, k)
        for k, c in by_key.items()
        if abs(c) > _ZERO_COEFF_TOL * max(scale, 1.0)
    ]
    if not out:
        raise ZeroExpression("all monomials cancelled")
    out.sort(key=lambda m: m.key)
    return out


def canonicalize(raw: PolyExpression) -> PolyExpression:
    """Merge duplicate factors and monomials; deterministic ordering.

    Idempotent; raises ZeroExpression on total cancellation.
    """
    return PolyExpression(raw.monomials, raw.lfuncs)


@dataclass(frozen=True)
class CoefficientSeries:
    """eta_1..eta_N of the Dirichlet series of F, with rounding masses."""

    N: int
    eta: np.ndarray  # index 0 unused; eta[n] for 1 <= n <= N
    abs_mass: np.ndarray  # sum of |summands| feeding each eta[n]

    def is_zero(self, n):
        return abs(self.eta[n]) <= _ETA_ZERO_REL_TOL * self.abs_mass[n]


def _dirichlet_convolve(a, g, N):
    out = np.zeros(N + 1, dtype=a.dtype)
    for k in range(1, N + 1):
        if g[k] == 0:
            continue
        lim = N // k
        out[k :: k][: lim] += g[k] * a[1 : lim + 1]
    return out


def _factor_series(desc, l, N):
    """Coefficients of L^(l): lambda(n) * (-log n)^l for n = 1..N."""
    lam = np.zeros(N + 1, dtype=complex)
    for n in range(1, N + 1):
        lam[n] = desc.coefficient(n)
    if l:
        lg = np.zeros(N + 1)
        lg[1:] = np.log(np.arange(1, N + 1))
        lam *= (-lg) ** l
    return lam


def dirichlet_coefficients(F: PolyExpression, N: int) -> CoefficientSeries:
    """Multi-fold Dirichlet convolution of the factor series, exact up to rounding."""
    if N < 1:
        raise ValueError("N must be positive")
    eta = np.zeros(N + 1, dtype=complex)
    mass = np.zeros(N + 1)
    for m in F.monomials:
        arr = np.zeros(N + 1, dtype=complex)
        aarr = np.zeros(N + 1)
        arr[1] = 1.0
        aarr[1] = 1.0
        for fid, l, d in m.factors:
            g = _factor_series(F.lfuncs[fid], l, N)
            for _ in range(d):
                arr = _dirichlet_convolve(arr, g, N)
                aarr = _dirichlet_convolve(aarr, np.abs(g), N)
        eta += m.coeff * arr
        mass += abs(m.coeff) * aarr
    return CoefficientSeries(N=N, eta=eta, abs_mass=mass)


# --- exact cancellation test on an integer grid ---------------------------

def _gaussian_rational(c):
    re = Fraction(c.real).limit_denominator(10**6)
    im = Fraction(c.imag).limit_denominator(10**6)
    tol = 1e-12 * max(1.0, abs(c))
    if abs(float(re) - c.real) <= tol and abs(float(im) - c.imag) <= tol:
        return (re, im)
    return None


def _exact_eta_supported(F):
    if any(F.lfuncs[fid].kind != "zeta" for m in F.monomials for fid, _, _ in m.factors):
        return None
    cs = [_gaussian_rational(m.coeff) for m in F.monomials]
    if any(c is None for c in cs):
        return None
    return cs


def _eta_vanishes(F, coeff_fracs, n):
    """Whether eta_n of a zeta-only F is exactly zero.

    eta_n = sum_j c_j sum_{a_1 ... a_r = n} prod_i (-log a_i)^(l_i) is a
    polynomial in the symbols log p, p | n, of degree at most D, the largest
    sum of l * d over one monomial.  It is zero iff it vanishes on the grid
    {0..D}^omega(n).  There every log a is an integer, so eta_n is an exact
    Dirichlet convolution over the divisors of n.
    """
    fac = chars._factorize(n)
    D = max(sum(l * d for _, l, d in m.factors) for m in F.monomials)
    for x in itertools.product(range(D + 1), repeat=len(fac)):
        logs = [(1, 0)]  # (divisor of n, its log at x)
        for (p, k), xp in zip(fac, x):
            logs = [(a * p**e, la + e * xp) for a, la in logs for e in range(k + 1)]
        re = im = 0
        for m, (cr, ci) in zip(F.monomials, coeff_fracs):
            acc = {1: 1}  # ordered factorizations, one factor at a time
            for l in [fl for _, fl, d in m.factors for _ in range(d)]:
                nxt = {}
                for a, c in acc.items():
                    for b, lb in logs:
                        if n % (a * b) == 0:
                            nxt[a * b] = nxt.get(a * b, 0) + c * (-lb) ** l
                acc = nxt
            re += cr * acc.get(n, 0)
            im += ci * acc.get(n, 0)
        if re or im:
            return False
    return True


@dataclass
class DegreeProfile:
    deg_rk: int
    deg_der: int
    deg_cond: float
    J: frozenset
    sum_cJ: complex
    assumption_satisfied: bool
    n_F: int
    eta_nF: complex
    p_F: int
    alpha1: float
    alpha2: float


def first_nonzero_index(F: PolyExpression):
    """(n_F, eta_{n_F}): first nonzero Dirichlet coefficient of F."""
    exact_cs = _exact_eta_supported(F)
    N = 64
    while True:
        series = dirichlet_coefficients(F, N)
        for n in range(1, N + 1):
            if not series.is_zero(n):
                return n, complex(series.eta[n])
            if series.abs_mass[n] > 0 and exact_cs is not None:
                # numeric zero with nonzero mass: confirm exact cancellation
                if not _eta_vanishes(F, exact_cs, n):
                    # exact test says nonzero: numerically degenerate entry
                    return n, complex(series.eta[n])
        if N >= _MAX_NF:
            raise ZeroExpression(
                f"no nonzero Dirichlet coefficient found up to n = {_MAX_NF}"
            )
        N *= 2


def degree_profile(F: PolyExpression) -> DegreeProfile:
    """Weighted degrees, leading index set J, and predicted-count constants.

    Degrees are maximized lexicographically rank -> derivative -> conductor.
    Raises the AssumptionViolated warning (profile still returned) when the
    leading coefficient sum vanishes numerically.
    """
    degs = [m.degrees(F.lfuncs) for m in F.monomials]
    deg_rk = max(d[0] for d in degs)
    deg_der = max(d[1] for d in degs if d[0] == deg_rk)
    deg_cond = max(d[2] for d in degs if d[0] == deg_rk and d[1] == deg_der)
    J = frozenset(
        j
        for j, d in enumerate(degs)
        if d[0] == deg_rk and d[1] == deg_der and abs(d[2] - deg_cond) <= 1e-12
    )
    sum_cJ = sum(F.monomials[j].coeff for j in J)
    mass = sum(abs(F.monomials[j].coeff) for j in J)
    ok = abs(sum_cJ) > _SUMCJ_REL_TOL * mass
    n_F, eta_nF = first_nonzero_index(F)
    p_F = pole_order(F)
    alpha1 = deg_rk / TWO_PI
    alpha2 = (deg_cond - deg_rk * LOG_2PI_E - math.log(n_F)) / TWO_PI
    if not ok:
        warnings.warn(
            "sum of leading coefficients over J vanishes; the zero-count "
            "asymptotics are not guaranteed for this expression",
            AssumptionViolated,
        )
    return DegreeProfile(
        deg_rk=deg_rk,
        deg_der=deg_der,
        deg_cond=deg_cond,
        J=J,
        sum_cJ=sum_cJ,
        assumption_satisfied=ok,
        n_F=n_F,
        eta_nF=eta_nF,
        p_F=p_F,
        alpha1=alpha1,
        alpha2=alpha2,
    )


def predicted_count(F: PolyExpression, T: float) -> float:
    """Main term alpha1 * T log T + alpha2 * T of the zero-count asymptotic."""
    if T <= 2:
        raise ValueError("prediction valid for T > 2")
    p = F.profile
    return p.alpha1 * T * math.log(T) + p.alpha2 * T


# --- pole order at s = 1 --------------------------------------------------

def _at_1(desc, l, n):
    """Taylor rows 0 .. n - 1 in w, of shape (n, 1), of w^(l + 1) L^(l)(1 +
    w) if L has its pole at s = 1, else of L^(l)(1 + w).  The pole's part
    is (-1)^l l! w^(-l - 1); the rest is the kernel's table at s = 1
    (zeta's with its pole subtracted), differentiated l times and gated
    like every derivative table."""
    lead = [(-1) ** l * math.factorial(l)] + [0] * l if desc.pole_order else []
    k = n - len(lead)
    if k > 0:
        S = np.array([1.0 + 0j])
        C, trunc, rnd = _hurwitz_batch(S, desc.character, l + k - 1, True)
        _gate(C, trunc, rnd, S, 1e-9)
        lead += [C[l + j, 0] * math.perm(l + j, l) for j in range(k)]
    return np.array(lead[:n])[:, None]


def pole_order(F: PolyExpression) -> int:
    """Exact order of the pole of F at s = 1 (0 if entire there).

    With P the largest pole weight sum (l + 1) d over the zeta factors of
    one monomial, w^P F(1 + w) is entire.  Its Taylor coefficients of
    orders 0 .. P - 1 are truncated series products of the factors' tables
    at s = 1 (_at_1), with their absolute masses alongside, one monomial
    per _sum_monomials call; a monomial of weight p enters shifted by
    P - p.  Cancellations across monomials are resolved against those
    masses and cross-checked by a numeric probe at radii 1e-2 and 1e-3.
    """
    weights = [
        sum((l + 1) * d for fid, l, d in m.factors if F.lfuncs[fid].pole_order == 1)
        for m in F.monomials
    ]
    P = max(weights)
    if P == 0:
        return 0
    c = np.zeros(P, dtype=complex)
    a = np.zeros(P)
    for m, p in zip(F.monomials, weights):
        if p == 0:
            continue  # entire at s = 1: nothing below order P
        u, _, au = _sum_monomials(
            [m], lambda fid, l: (_at_1(F.lfuncs[fid], l, p), 0), p, 1)
        c[P - p :] += u[:, 0]
        a[P - p :] += au[:, 0]
    scale = a.max()
    for k, ci, ai in zip(range(-P, 0), c, a):
        if abs(ci) > 1e-10 * max(ai, scale * 1e-6):
            probe = _numeric_pole_probe(F)
            if probe is not None and probe != -k:
                raise NumericallyAmbiguous(
                    f"Laurent arithmetic gives pole order {-k} but the "
                    f"numeric probe suggests {probe}",
                    symbolic_bound=P,
                )
            return -k
        if abs(ci) > 1e-14 * max(ai, 1.0):
            raise NumericallyAmbiguous(
                f"leading Laurent coefficient at w^{k} is below the decision "
                f"threshold ({abs(ci):.2e} vs mass {ai:.2e})",
                symbolic_bound=P,
            )
    return 0


def _numeric_pole_probe(F):
    """The pole order that |F| = |u| e^g at s = 1.01 and 1.001, from one
    scaled batch, suggests; None on an LfpolyError or where F vanishes."""
    try:
        u, g = eval_F_scaled_batch(F, [1.01, 1.001], 1e-9)
    except LfpolyError:
        return None
    if not np.all(u):
        return None
    est = (math.log(abs(u[1])) + g[1] - math.log(abs(u[0])) - g[0]) / math.log(10.0)
    return max(0, round(est))
