"""Polynomials in derivatives of L-functions: the exact combinatorial layer.

An expression F(s) = sum_j c_j prod_u prod_l L^(l)(s, pi_u)^{d_{u,l,j}} is a
list of monomials over a registry of L-function descriptors.  This module
owns canonicalization, the three weighted degrees and the leading index set,
Dirichlet-series convolution of the coefficients, the pole order at s = 1,
and the predicted zero-count asymptotics.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .constants import LOG_2PI_E, STIELTJES, TWO_PI
from .descriptors import contragredient
from .errors import AssumptionViolated, NumericallyAmbiguous, ZeroExpression

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

    @property
    def max_deriv(self):
        return max((l for m in self.monomials for _, l, _ in m.factors), default=0)

    def referenced_ids(self):
        return sorted({fid for m in self.monomials for fid, _, _ in m.factors})

    def dual(self) -> "PolyExpression":
        """F(s, contragredient vector): same coefficients, dual descriptors."""
        mapping = {}
        duals = {}
        for fid, desc in self.lfuncs.items():
            dd = contragredient(desc)
            mapping[fid] = dd.id
            duals[dd.id] = dd
        mono = [
            Monomial.make(m.coeff, [(mapping[f], l, d) for f, l, d in m.factors])
            for m in self.monomials
        ]
        return PolyExpression(mono, duals)


def _canonical_monomials(monomials):
    by_key = {}
    order = {}
    for m in monomials:
        m = Monomial.make(m.coeff, m.factors)
        if m.key in by_key:
            by_key[m.key] = by_key[m.key] + m.coeff
        else:
            by_key[m.key] = m.coeff
            order[m.key] = len(order)
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


# --- exact cancellation test over log-of-prime monomials ------------------

def _prime_factor_vec(n):
    vec = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            vec[d] = vec.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        vec[n] = vec.get(n, 0) + 1
    return vec


def _poly_mul(p1, p2):
    out = {}
    for k1, c1 in p1.items():
        for k2, c2 in p2.items():
            mono = {}
            for p, e in k1:
                mono[p] = mono.get(p, 0) + e
            for p, e in k2:
                mono[p] = mono.get(p, 0) + e
            key = tuple(sorted(mono.items()))
            a, b = out.get(key, (Fraction(0), Fraction(0)))
            out[key] = (a + c1[0] * c2[0] - c1[1] * c2[1], b + c1[0] * c2[1] + c1[1] * c2[0])
    return {k: v for k, v in out.items() if v != (0, 0)}


def _poly_add(p1, p2):
    out = dict(p1)
    for k, (re, im) in p2.items():
        a, b = out.get(k, (Fraction(0), Fraction(0)))
        a, b = a + re, b + im
        if a == 0 and b == 0:
            out.pop(k, None)
        else:
            out[k] = (a, b)
    return out


def _neg_log_power(n, l):
    """(-log n)^l expanded as a polynomial in {log p}, exact."""
    if l == 0:
        return {(): (Fraction(1), Fraction(0))}
    lin = {((p, 1),): (Fraction(-e), Fraction(0)) for p, e in _prime_factor_vec(n).items()}
    if not lin:
        return {}  # n == 1, log 1 = 0
    out = {(): (Fraction(1), Fraction(0))}
    for _ in range(l):
        out = _poly_mul(out, lin)
    return out


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


def _exact_eta(F, coeff_fracs, n):
    """eta_n as an exact polynomial in log-prime symbols (zeta-only F)."""
    total = {}
    for m, cf in zip(F.monomials, coeff_fracs):
        series = []
        for fid, l, d in m.factors:
            series.extend([l] * d)
        # convolve over ordered factorizations of n into len(series) parts
        acc = {1: {(): (Fraction(1), Fraction(0))}}
        for l in series:
            nxt = {}
            for part, poly in acc.items():
                q = n // part
                for a in range(1, q + 1):
                    if (part * a) and n % (part * a) == 0:
                        term = _neg_log_power(a, l)
                        if not term and l > 0:
                            continue
                        contrib = _poly_mul(poly, term) if l > 0 else poly
                        key = part * a
                        nxt[key] = _poly_add(nxt.get(key, {}), contrib)
            acc = nxt
        poly_n = acc.get(n, {})
        cpoly = {(): cf}
        total = _poly_add(total, _poly_mul(cpoly, poly_n))
    return total


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
                if _exact_eta(F, exact_cs, n):
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


def predicted_count(F: PolyExpression, T: float, profile: DegreeProfile = None) -> float:
    """Main term alpha1 * T log T + alpha2 * T of the zero-count asymptotic."""
    if T <= 2:
        raise ValueError("prediction valid for T > 2")
    p = profile if profile is not None else degree_profile(F)
    return p.alpha1 * T * math.log(T) + p.alpha2 * T


# --- pole order at s = 1 --------------------------------------------------

_LAURENT_KEEP = 10


class _Laurent:
    """Truncated Laurent series in w = s - 1, with abs-mass tracking."""

    __slots__ = ("lo", "c", "a")

    def __init__(self, lo, c, a):
        self.lo = lo
        self.c = list(c)
        self.a = list(a)

    @staticmethod
    def const(v):
        return _Laurent(0, [complex(v)], [abs(v)])

    def mul(self, other):
        n = _LAURENT_KEEP
        lo = self.lo + other.lo
        c = [0j] * n
        a = [0.0] * n
        for i, (ci, ai) in enumerate(zip(self.c[:n], self.a[:n])):
            for j, (cj, aj) in enumerate(zip(other.c[: n - i], other.a[: n - i])):
                c[i + j] += ci * cj
                a[i + j] += ai * aj
        return _Laurent(lo, c, a)

    def add(self, other):
        lo = min(self.lo, other.lo)
        n = max(self.lo + len(self.c), other.lo + len(other.c)) - lo
        c = [0j] * n
        a = [0.0] * n
        for src in (self, other):
            off = src.lo - lo
            for i, (ci, ai) in enumerate(zip(src.c, src.a)):
                c[off + i] += ci
                a[off + i] += ai
        return _Laurent(lo, c, a)

    def scaled(self, v):
        return _Laurent(self.lo, [v * ci for ci in self.c], [abs(v) * ai for ai in self.a])


def _zeta_deriv_laurent(l):
    """Laurent expansion of zeta^(l) at s = 1 through gamma_6."""
    lo = -(l + 1)
    n = _LAURENT_KEEP
    c = [0j] * n
    a = [0.0] * n
    lead = (-1) ** l * math.factorial(l)
    c[0] = complex(lead)
    a[0] = abs(lead)
    for k in range(l, len(STIELTJES)):
        coef = (-1) ** k * STIELTJES[k] / math.factorial(k - l)
        idx = (k - l) - lo
        if idx < n:
            c[idx] += coef
            a[idx] += abs(coef)
    return _Laurent(lo, c, a)


def _analytic_taylor(F, desc, l, order):
    """Taylor coefficients at s = 1 of L^(l) for a pole-free descriptor."""
    from .evaluate import lfunc_derivatives  # local import: avoid cycle

    dv = lfunc_derivatives(desc, np.array([1.0 + 0j]), l + order, rel_tol=1e-9)
    c = [dv[l + j, 0] / math.factorial(j) for j in range(order)]
    return _Laurent(0, c, [abs(x) for x in c])


def pole_order(F: PolyExpression) -> int:
    """Exact order of the pole of F at s = 1 (0 if entire there).

    Computed from truncated Laurent arithmetic over the zeta expansion;
    cancellations across monomials are resolved by the stored Stieltjes
    constants and cross-checked by a numeric probe at radii 1e-2 and 1e-3.
    """
    symbolic_bound = 0
    for m in F.monomials:
        b = sum(
            (l + 1) * d
            for fid, l, d in m.factors
            if F.lfuncs[fid].pole_order == 1
        )
        symbolic_bound = max(symbolic_bound, b)
    if symbolic_bound == 0:
        return 0

    total = None
    for m in F.monomials:
        term = _Laurent.const(1.0)
        for fid, l, d in m.factors:
            desc = F.lfuncs[fid]
            if desc.pole_order == 1:
                fac = _zeta_deriv_laurent(l)
            else:
                fac = _analytic_taylor(F, desc, l, min(_LAURENT_KEEP, symbolic_bound + 2))
            for _ in range(d):
                term = term.mul(fac)
        term = term.scaled(m.coeff)
        total = term if total is None else total.add(term)

    scale = max(total.a) if total.a else 0.0
    for i, (ci, ai) in enumerate(zip(total.c, total.a)):
        k = total.lo + i
        if k >= 0:
            break
        if abs(ci) > 1e-10 * max(ai, scale * 1e-6):
            order = -k
            probe = _numeric_pole_probe(F)
            if probe is not None and probe != order:
                raise NumericallyAmbiguous(
                    f"Laurent arithmetic gives pole order {order} but the "
                    f"numeric probe suggests {probe}",
                    symbolic_bound=symbolic_bound,
                )
            return order
        if abs(ci) > 1e-14 * max(ai, 1.0):
            raise NumericallyAmbiguous(
                f"leading Laurent coefficient at w^{k} is below the decision "
                f"threshold ({abs(ci):.2e} vs mass {ai:.2e})",
                symbolic_bound=symbolic_bound,
            )
    return 0


def _numeric_pole_probe(F):
    from .evaluate import eval_F  # local import: avoid cycle

    try:
        v1 = abs(eval_F(F, 1 + 1e-2 + 0j, 1e-9))
        v2 = abs(eval_F(F, 1 + 1e-3 + 0j, 1e-9))
    except Exception:
        return None
    if v1 == 0 or v2 == 0:
        return None
    est = (math.log(v2) - math.log(v1)) / math.log(10.0)
    return max(0, round(est))
