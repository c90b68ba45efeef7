"""Numerical evaluation of L-functions, their derivatives, and expressions.

Every value is carried as a pair (u, g) meaning u * exp(g), with u of
moderate size and g real, and is folded to a plain complex number only by
the public functions that return one.  Right of sigma = -2 the value comes
from Euler-Maclaurin summation for the Hurwitz zeta function, vectorized
over point arrays (Dirichlet L-functions reduce to Hurwitz values at
rational shifts), and g = 0.  Left of it the dual is summed at 1 - s and
carried over by the reflection factor, whose logarithm goes into g: the
factor alone leaves the double range far left (|zeta(-740)| ~ 10^1500).
Derivatives of any order come from a Cauchy integral over a small circle,
with ring values rescaled to the largest log-magnitude on their ring.
Expression values combine the per-factor scaled tables.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.special import loggamma

from .constants import BERNOULLI, MIN_TARGET_ERR
from .descriptors import (
    LFunctionDescriptor,
    contragredient,
    dirichlet_descriptor,
    zeta_descriptor,
)
from .errors import (
    AccuracyUnreachable,
    PoleAt1,
    PoleTooClose,
    RegionViolation,
)

_BFLOAT = [float(b) for b in BERNOULLI]
_EPS = 1e-15
_POLE_GUARD = 1e-8
# left of this line the Euler-Maclaurin rounding mass drowns the value at
# desk heights, so evaluation goes through the reflection formula instead
_DEEP_SIGMA = -2.0


def _expm1_over_x(x):
    """(exp(x) - 1) / x for complex arrays, stable at the origin."""
    small = np.abs(x) < 1e-4
    xs = np.where(small, 0.0, x)
    with np.errstate(invalid="ignore"):
        direct = (np.exp(xs) - 1) / np.where(small, 1.0, xs)
    series = 1 + x / 2 + x**2 / 6 + x**3 / 24
    return np.where(small, series, direct)


def _hurwitz_batch(S, a=1.0, nb=None, subtract_pole=False):
    """Euler-Maclaurin zeta(s, a) over an array of points.

    Returns (values, bounds) where bounds[i] estimates the absolute error
    at S[i] from truncation plus accumulated rounding.  With subtract_pole
    the value returned is zeta(s, a) - 1/(s - 1), analytic at s = 1; the
    character sums that are entire at 1 are built from this variant.
    """
    S = np.atleast_1d(np.asarray(S, dtype=complex))
    if not 0 < a <= 1:
        raise ValueError("shift a must lie in (0, 1]")
    if not subtract_pole and np.any(np.abs(S - 1) < _POLE_GUARD):
        raise PoleAt1("zeta(s, a) requested too close to s = 1")
    tmax = float(np.max(np.abs(S.imag)))
    smin = float(np.min(S.real))
    N = max(20, int(math.ceil(1.2 * tmax)))
    if nb is None:
        nb = min(29, max(10, int(math.ceil((3 - smin) / 2)) + 1))
    out = np.zeros_like(S)
    ks = np.arange(N) + a
    logs = np.log(ks)
    for i0 in range(0, N, 64):
        blk = logs[i0 : i0 + 64]
        out += np.exp(-np.multiply.outer(S, blk)).sum(axis=1)
    Na = N + a
    lNa = math.log(Na)
    if subtract_pole:
        tail1 = -lNa * _expm1_over_x((1 - S) * lNa)
    else:
        tail1 = np.exp((1 - S) * lNa) / (S - 1)
    tail2 = 0.5 * np.exp(-S * lNa)
    out += tail1 + tail2
    corr_mass = np.zeros(S.shape)
    poch = np.ones_like(S)
    for j in range(1, nb + 1):
        if j == 1:
            poch = S.copy()
        else:
            poch = poch * (S + 2 * j - 3) * (S + 2 * j - 2)
        c = _BFLOAT[2 * j] / math.factorial(2 * j)
        term = c * poch * np.exp(-(S + 2 * j - 1) * lNa)
        out += term
        corr_mass += np.abs(term)
    # truncation: magnitude of the first dropped correction term, inflated
    # by the standard remainder comparison factor
    poch_next = poch * (S + 2 * nb - 1) * (S + 2 * nb)
    cnext = abs(_BFLOAT[2 * nb + 2]) / math.factorial(2 * nb + 2)
    drop = cnext * np.abs(poch_next) * np.exp(-(S.real + 2 * nb + 1) * lNa)
    denom = S.real + 2 * nb + 1
    with np.errstate(divide="ignore", invalid="ignore"):
        safety = np.where(denom > 0, (np.abs(S) + 2 * nb + 1) / np.maximum(denom, 1e-300), np.inf)
    trunc = drop * safety
    # rounding: the main sum terms are monotone in k, so their absolute
    # mass is at most N times the larger endpoint
    ends = np.maximum(np.exp(-S.real * math.log(a)) if a < 1 else 1.0,
                      np.exp(-S.real * logs[-1]))
    mass = N * ends + np.abs(tail1) + np.abs(tail2) + corr_mass
    # each term carries a few ulps plus exponent rounding ~ eps |s log(N+a)|
    per_term = _EPS * (4.0 + np.abs(S) * lNa)
    bounds = trunc + per_term * mass
    return out, bounds


def _check_target(err):
    if err < MIN_TARGET_ERR:
        raise AccuracyUnreachable(
            f"requested error {err:.1e} is below the double-precision floor"
        )


def _certified(v, b, err, s):
    """v as a complex number if its error bound b meets the target err."""
    if b > err:
        raise AccuracyUnreachable(
            f"achievable error {b:.2e} exceeds the target {err:.1e} at s = {s}"
        )
    return complex(v)


def hurwitz_zeta(s, a=1.0, err=1e-10):
    """zeta(s, a) with certified absolute error at most err."""
    _check_target(err)
    v, b = _hurwitz_batch(np.array([s]), a)
    if b[0] > err:
        v, b = _hurwitz_batch(np.array([s]), a, nb=29)
    return _certified(v[0], b[0], err, s)


def zeta(s, err=1e-10):
    """Riemann zeta with certified absolute error at most err."""
    _check_target(err)
    if abs(complex(s) - 1) < _POLE_GUARD:
        raise PoleAt1("zeta requested too close to s = 1")
    v, b = lfunc_values(zeta_descriptor(), np.array([s]))
    return _certified(v[0], b[0], err, s)


def _dirichlet_batch(S, chi):
    """Euler-Maclaurin L(s, chi) as a character sum of Hurwitz values."""
    q = chi.modulus
    principal = chi.conductor == 1
    S = np.atleast_1d(np.asarray(S, dtype=complex))
    if principal and np.any(np.abs(S - 1) < _POLE_GUARD):
        raise PoleAt1("principal-character L-function has a pole at s = 1")
    vals = None
    bounds = None
    for a in range(1, q + 1):
        c = chi(a)
        if c == 0:
            continue
        # for non-principal chi the 1/(s-1) poles cancel since the character
        # values sum to zero, so use the pole-subtracted Hurwitz variant
        v, b = _hurwitz_batch(S, a / q, subtract_pole=not principal)
        if vals is None:
            vals, bounds = c * v, abs(c) * b
        else:
            vals += c * v
            bounds += abs(c) * b
    scale = np.exp(-S * math.log(q))
    return scale * vals, np.abs(scale) * bounds


def dirichlet_l(s, chi, err=1e-10):
    """L(s, chi) with certified absolute error at most err.

    Only primitive non-principal characters have a reflection formula; any
    other character is summed directly everywhere.
    """
    _check_target(err)
    S = np.array([s], dtype=complex)
    if chi.is_primitive and chi.conductor > 1:
        v, b = lfunc_values(dirichlet_descriptor(chi), S)
    else:
        v, b = _dirichlet_batch(S, chi)
    return _certified(v[0], b[0], err, s)


def _series_batch(S, desc):
    S = np.atleast_1d(np.asarray(S, dtype=complex))
    theta = desc.ramanujan_bound
    smin = float(np.min(S.real))
    if smin <= 1 + theta + 0.05:
        raise RegionViolation(
            f"series-only data for {desc.id!r} converges absolutely only for "
            f"Re s > {1 + theta + 0.05:.2f}; got Re s = {smin:.3f}"
        )
    coeffs = np.asarray(desc.series_coeffs, dtype=complex)
    N = coeffs.size
    ns = np.arange(1, N + 1)
    vals = (coeffs[None, :] * np.exp(-np.multiply.outer(S, np.log(ns)))).sum(axis=1)
    sig = S.real
    tail = (N ** (1 + theta - sig)) / np.maximum(sig - 1 - theta, 1e-6)
    return vals, tail + _EPS * N


def _direct_batch(desc, S):
    """Values and absolute error bounds by direct summation."""
    if desc.kind == "zeta":
        return _hurwitz_batch(S)
    if desc.kind == "dirichlet":
        return _dirichlet_batch(S, desc.character)
    if desc.kind == "series":
        return _series_batch(S, desc)
    raise ValueError(f"unknown descriptor kind {desc.kind!r}")


def _reflected_scaled(desc, W):
    """(u, g, err) for L(1 - W, dual) = Phi(W) L(W, pi) = u exp(g).

    L(W, pi) is summed directly; err is the absolute error of u.
    """
    base, bb = _direct_batch(desc, W)
    lf = log_fe_factor(desc, W)
    u = np.exp(1j * lf.imag) * base
    rel = bb / np.maximum(np.abs(base), 1e-300) + 1e-13 * (1 + np.abs(W))
    return u, lf.real, np.abs(u) * rel


def _lfunc_values_scaled(desc, S):
    """(u, g, err) with L(s) = u exp(g) and err the absolute error of u.

    Right of sigma = -2 the value is summed directly and g = 0; left of it
    the dual is summed at 1 - s and reflected.  Series data has no
    reflection formula, so it is always summed directly (and refuses points
    outside its region).
    """
    S = np.atleast_1d(np.asarray(S, dtype=complex))
    g = np.zeros(S.shape)
    deep = S.real < _DEEP_SIGMA
    if desc.kind == "series" or not deep.any():
        u, err = _direct_batch(desc, S)
        return u, g, err
    u = np.empty(S.shape, dtype=complex)
    err = np.empty(S.shape)
    if (~deep).any():
        u[~deep], err[~deep] = _direct_batch(desc, S[~deep])
    u[deep], g[deep], err[deep] = _reflected_scaled(contragredient(desc), 1 - S[deep])
    return u, g, err


def lfunc_values(desc: LFunctionDescriptor, S):
    """Values of L(s, pi) over an array of points, with absolute error bounds."""
    u, g, err = _lfunc_values_scaled(desc, S)
    scale = np.exp(g)
    return u * scale, err * scale


def lfunc_derivatives_scaled(desc, S, lmax, rel_tol=1e-9):
    """Scaled derivative tables (D, G): L^(l)(S[i]) = D[l, i] exp(G[i]).

    Cauchy circles: one ring of base evaluations per point yields every
    derivative order.  Ring values are rescaled by the largest
    log-magnitude on their ring before the quadrature, so the arithmetic
    never leaves the double range.  The ring count doubles until two passes
    agree to rel_tol.  D has shape (lmax + 1, len(S)).
    """
    S = np.atleast_1d(np.asarray(S, dtype=complex))
    if lmax == 0:
        u, g, _ = _lfunc_values_scaled(desc, S)
        return u[None, :], g
    radii = np.full(S.shape, 0.5)
    if desc.pole_order > 0:
        dist = np.abs(S - 1)
        if np.any(dist < 1e-6):
            raise PoleTooClose(
                "derivative circle would collapse onto the pole at s = 1"
            )
        radii = np.minimum(0.5, dist / 2)
    # quantize so nearby points share one vectorized ring batch
    rq = np.where(radii >= 0.5, 0.5, 2.0 ** np.floor(np.log2(np.maximum(radii, 1e-12))))
    D = np.empty((lmax + 1, S.size), dtype=complex)
    G = np.empty(S.shape)
    for r in np.unique(rq):
        idx = np.nonzero(rq == r)[0]
        D[:, idx], G[idx] = _ring_derivs(desc, S[idx], lmax, float(r), rel_tol)
    return D, G


def _ring_derivs(desc, centers, lmax, r, rel_tol):
    M = 64
    prev = prev_G = None
    while True:
        th = 2 * np.pi * np.arange(M) / M
        Z = centers[:, None] + r * np.exp(1j * th)[None, :]
        U, gv, err = (a.reshape(Z.shape) for a in _lfunc_values_scaled(desc, Z.ravel()))
        G = gv.max(axis=1)
        w = np.exp(gv - G[:, None])
        FV = U * w
        # absolute error of the ring values in the ring's own scale
        base_err = float(np.max(err * w))
        res = np.empty((lmax + 1, centers.size), dtype=complex)
        for l in range(lmax + 1):
            wl = np.exp(-1j * l * th)
            res[l] = math.factorial(l) / (r**l * M) * (FV * wl[None, :]).sum(axis=1)
        if prev is not None:
            prev = prev * np.exp(prev_G - G)[None, :]
            # per-order agreement, with a floor at the l!/r^l amplification
            # of base rounding below which agreement cannot be expected
            rowscale = np.max(np.abs(res), axis=1, keepdims=True)
            floors = np.array(
                [
                    math.factorial(l) / r**l * max(1e-14, 2 * base_err)
                    for l in range(lmax + 1)
                ]
            )[:, None]
            diff = np.abs(res - prev)
            if (diff <= rel_tol * rowscale + floors).all():
                return res, G
            if M >= 2048:
                d = float(np.max(diff / (rowscale + 1e-300)))
                raise AccuracyUnreachable(
                    f"derivative rings did not stabilize to {rel_tol:.1e} "
                    f"(last disagreement {d:.2e})"
                )
        prev, prev_G = res, G
        M *= 2


def lfunc_derivatives(desc, S, lmax, rel_tol=1e-9):
    """Derivatives 0..lmax of L(s, pi) at each point of S.

    Returns an array of shape (lmax + 1, len(S)).
    """
    D, G = lfunc_derivatives_scaled(desc, S, lmax, rel_tol)
    return D * np.exp(G)[None, :]


def _F_scaled(F, S, rel_tol, prime=False):
    """F over S as (u, g, mass, du): F = u exp(g), mass is the sum of the
    monomial magnitudes and, with prime, F' = du exp(g), all in one scale."""
    S = np.atleast_1d(np.asarray(S, dtype=complex))
    needed = {}
    for m in F.monomials:
        for fid, l, _ in m.factors:
            needed[fid] = max(needed.get(fid, 0), l + prime)
    tables = {
        fid: lfunc_derivatives_scaled(F.lfuncs[fid], S, lmax, rel_tol)
        for fid, lmax in needed.items()
    }
    shape = (len(F.monomials), S.size)
    term_u = np.empty(shape, dtype=complex)
    term_du = np.zeros(shape, dtype=complex)
    term_g = np.zeros(shape)
    for i, m in enumerate(F.monomials):
        facs = [(*tables[fid], l, d) for fid, l, d in m.factors]
        tu = np.full(S.shape, m.coeff, dtype=complex)
        for D, _, l, d in facs:
            tu = tu * D[l] ** d
        term_u[i] = tu
        term_g[i] = sum(d * G for _, G, _, d in facs)
        if prime:
            for j, (D, _, l, d) in enumerate(facs):
                part = m.coeff * d * D[l + 1] * D[l] ** (d - 1)
                for k, (Dk, _, lk, dk) in enumerate(facs):
                    if k != j:
                        part = part * Dk[lk] ** dk
                term_du[i] += part
    g = term_g.max(axis=0)
    w = np.exp(term_g - g)
    return ((term_u * w).sum(axis=0), g, (np.abs(term_u) * w).sum(axis=0),
            (term_du * w).sum(axis=0))


def eval_F_batch(F, S, rel_tol=1e-9):
    """(values, error estimates) of the expression F over an array of points."""
    u, g, mass, _ = _F_scaled(F, S, rel_tol)
    scale = np.exp(g)
    return u * scale, rel_tol * (mass * scale) * (len(F.monomials) + F.max_deriv)


def eval_F(F, s, rel_tol=1e-9):
    """Value of the expression F at a single point."""
    return complex(eval_F_batch(F, np.array([s]), rel_tol)[0][0])


def eval_F_with_prime(F, s, rel_tol=1e-9):
    """(F(s), F'(s)) for Newton refinement."""
    u, g, _, du = _F_scaled(F, np.array([s]), rel_tol, prime=True)
    scale = np.exp(g[0])
    return complex(u[0] * scale), complex(du[0] * scale)


def eval_F_scaled_batch(F, S, rel_tol=1e-9):
    """(u, g) with F(s) = u exp(g), usable arbitrarily far left of the strip."""
    u, g, _, _ = _F_scaled(F, S, rel_tol)
    return u, g


# --- functional-equation pieces ------------------------------------------

def _log_cos(z):
    """log cos(z) over an array, up to a multiple of 2 pi i, stable for
    large |Im z|."""
    small = np.abs(z.imag) < 20
    # cos z = e^{-iw} (1 + e^{2iw}) / 2 with w = +-z chosen so Im w >= 0
    w = np.where(z.imag > 0, z, -z)
    with np.errstate(divide="ignore"):
        big = -1j * w - math.log(2) + np.log(1 + np.exp(2j * w))
    return np.where(small, np.log(np.cos(np.where(small, z, 0))), big)


def log_fe_factor(desc: LFunctionDescriptor, s):
    """log of the factor Phi with L(1 - s, dual) = Phi(s) L(s, pi).

    Takes a point or an array of points.  Assembled in log space from
    loggamma and a shifted log-cosine so the pieces stay finite at heights
    where each factor alone overflows.
    """
    z = np.atleast_1d(np.asarray(s, dtype=complex))
    m = desc.rank
    out = -cmath.log(desc.root_number) + (z - 0.5) * math.log(desc.conductor)
    out += (-m / 2 - m * z) * math.log(math.pi)
    for mu in desc.spectral_params:
        mub = complex(mu).conjugate()
        out += _log_cos(math.pi * (z - mub) / 2)
        out += loggamma((z + mu) / 2)
        out += loggamma((1 + z - mub) / 2)
    # a scalar point gives a scalar, an array an array of its shape
    return out.reshape(np.shape(s))[()]


def reflected_lvalue(desc, s):
    """L(1 - s, dual) computed from L(s, pi) through the reflection factor."""
    u, g, _ = _reflected_scaled(desc, np.array([s], dtype=complex))
    return complex(u[0] * np.exp(g[0]))


def b_factor(s, l, desc: LFunctionDescriptor):
    """Logarithmic weight attached to the l-th derivative under reflection.

    Equals g(s)^l with g the half-sum of log((s + mu_r)/2) and
    log((1 + s - conj(mu_r))/2) over the spectral parameters; 1 at l = 0.
    """
    if l == 0:
        return 1.0 + 0j
    g = 0j
    for mu in desc.spectral_params:
        mub = complex(mu).conjugate()
        g += cmath.log((s + mu) / 2) + cmath.log((1 + s - mub) / 2)
    return (0.5 * g) ** l


def check_reflection_region(F, s, eps=0.1):
    """Points where the reflected asymptotic is valid: Re s > 3/2 and at
    least eps away from every shifted spectral point 2n - 1 + conj(mu)."""
    if s.real <= 1.5:
        raise RegionViolation(f"Re s = {s.real:.3f} is not > 3/2")
    for desc in F.lfuncs.values():
        for mu in desc.spectral_params:
            mub = complex(mu).conjugate()
            x = ((s - mub).real + 1) / 2
            for k in (math.floor(x), math.ceil(x)):
                if abs(s - (2 * k - 1 + mub)) < eps:
                    raise RegionViolation(
                        f"s = {s} lies within {eps} of the shifted spectral "
                        f"point {2 * k - 1 + mub}"
                    )


def asymptotic_fe_main(F, s, profile, eps=0.1):
    """Main term of F(1 - s, dual vector) predicted by the reflection formula.

    Sums the leading monomials J only; the caller compares against a direct
    evaluation of F(1 - s, dual) to measure the 1/log s decay.
    """
    s = complex(s)
    check_reflection_region(F, s, eps)
    sign = (-1) ** profile.deg_der
    total = 0j
    for j in profile.J:
        m = F.monomials[j]
        term = complex(m.coeff)
        per_lfunc = {}
        for fid, l, d in m.factors:
            per_lfunc[fid] = per_lfunc.get(fid, 0) + d
            term *= b_factor(s, l, F.lfuncs[fid]) ** d
        for fid, dtot in per_lfunc.items():
            term *= reflected_lvalue(F.lfuncs[fid], s) ** dtot
        total += term
    return sign * total
