"""Numerical evaluation of L-functions, their derivatives, and expressions.

Every value is carried as a pair (u, g) meaning u * exp(g), with u of
moderate size and g real, and is folded to a plain complex number only by
the public functions that return one.  Right of sigma = -2 the value comes
from one Euler-Maclaurin sum over point arrays, and g = 0: of (k + a)^-s
for zeta(s, a), of the Dirichlet polynomial sum_n chi(n) n^-s, whose terms
stay at most 1, for L(s, chi), zeta being L(s, chi) of the character mod 1.
Left of it the dual is summed at 1 - s and carried over by the reflection
factor, whose logarithm goes into g: the factor alone leaves the double
range far left (|zeta(-740)| ~ 10^1500).
Every evaluation is a table of Taylor coefficients in e of L(s + e): the
Euler-Maclaurin sum runs on truncated power series, so one pass gives all
derivative orders with a bound per order, and values are its row 0.  Each
batch sizes its own sum from the error target: the number of terms N and
of Bernoulli terms nb are the cheapest pair whose truncation bound at the
batch's worst point lies below the rounding floor, with N never above
max(20, 1.2 max|t|).  The main sum is a grid: per block of distinct
heights, one matrix product of the table of n^-it over every term against
n^-sigma over the distinct abscissae gives every (height, abscissa) pair
at once, and each point reads its entry.  Contour batches repeat a few
heights and abscissae, so the grid is a few times their points;
_grid_groups splits a batch whose grid would be larger.  Large tables are
sieved over the primes (_sieve_plan): n^-it is completely multiplicative,
so cos and sin run only at n = 1 and the primes, and every other n is one
complex product of its least prime factor's entry and its cofactor's.
The reflection factor's log Gamma is Stirling's series after a shift to
Re >= 8, as a power series too (_loggamma); numpy is the only dependency.
One truncated series product over the monomials (_sum_monomials) gives
expression values, F'/F for Newton, the pole order, and both sides of the
reflection checks, F(1 - s, dual) and its main term, from one reflected
table per L-function (asymptotic_fe_main).  eval_F_scaled_batch alone
assembles F at a point; eval_F_batch, eval_F and eval_F_with_prime fold
its u e^g.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .constants import BERNOULLI, MIN_TARGET_ERR
from .characters import Character, character
from .descriptors import (
    LFunctionDescriptor,
    contragredient,
    dirichlet_descriptor,
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
# least distance of a reflection point from the shifted spectral points
_REGION_EPS = 0.1
# radius of the circle on which Cauchy's estimate bounds the truncation
# error of every Taylor coefficient
_R = 0.5
# the main sum's grid of heights x abscissae (_grid_groups): a batch is one
# grid when the grid holds at most _GRID times its points, or when its
# cells beyond the points cost at most _GRID_SLACK entries of the products
# (cells x terms), which is less than splitting it costs in numpy calls.
# Its table of n^-it goes by blocks of heights, each block every term and
# at most _BLOCK entries (one height at least); a table of at least _SIEVE
# entries is sieved over the primes, below which the sieve's numpy calls
# cost more than the cos and sin they save
_GRID = 8
_GRID_SLACK = 1 << 18
_BLOCK = 1 << 14
_SIEVE = 1 << 13
# Euler-Maclaurin sizing (_em_size): the truncation bound must lie below
# _FLOOR times a rounding floor; B_(2 _NB_MAX + 2) = B_60 is the last
# tabulated Bernoulli number; N starts at _N_MIN
_NB_MAX = 29
_N_MIN = 4
_FLOOR = 1e-17
# log(|B_(2 nb + 2)| / (2 nb + 2)! / _FLOOR), indexed by nb
_LOG_CNEXT = [None] + [
    math.log(abs(_BFLOAT[2 * nb + 2]) / math.factorial(2 * nb + 2) / _FLOOR)
    for nb in range(1, _NB_MAX + 1)
]
# relative cost of one main-sum entry (point x term), of one Horner step
# and of one point-order of a Horner step, in seconds on a 2-core Xeon
_COST_TERM = 4e-8
_COST_STEP = 3e-5
_COST_STEP_POINT = 2e-8
# _loggamma shifts its argument to real part at least _GAMMA_SHIFT and
# sums Stirling's series there with B_2 .. B_20, kept as B_2k / 2k
_GAMMA_SHIFT = 8
_STIRLING = [_BFLOAT[2 * k] / (2 * k) for k in range(1, 11)]


def _smul(A, B):
    """Truncated product of two power series stored as (order, point) rows;
    either factor may be a list of scalars."""
    return np.array([sum(A[i] * B[j - i] for i in range(j + 1)) for j in range(len(A))])


def _shift_mul(p, v):
    """p(e) * (v + e) for series p with orders on axis 0."""
    out = p * v
    if len(p) > 1:
        out[1:] += p[:-1]
    return out


def _tail_series(S, Ls, ep, subtract_pole):
    """Series in e of M^(1 - s - e) / (s - 1 + e), less 1/(s - 1 + e) under
    subtract_pole, and its absolute masses, shape (len(ep), len(Ls), len(S)):
    one row per L = log M in Ls, with ep[j] the column of (-L)^j / j!."""
    n = len(ep)
    y = 1 - S
    L = np.array(Ls)[:, None]
    X1 = np.exp(y * L)
    aX1 = np.abs(X1)
    T = np.empty((n,) + X1.shape, dtype=complex)
    A = np.empty(T.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        # dividing by (s - 1 + e): T_j = (X1 (-L)^j / j! - T_(j-1)) / (s - 1)
        T[0] = (X1 - subtract_pole) / -y
        A[0] = (aX1 + subtract_pole) / np.abs(y)
        for j in range(1, n):
            T[j] = (X1 * ep[j] - T[j - 1]) / -y
            A[j] = (aX1 * np.abs(ep[j]) + A[j - 1]) / np.abs(y)
    near = np.nonzero(np.abs(y) < 0.5)[0] if subtract_pole else []
    if len(near):
        # each step divides by s - 1, so near s = 1 the tail is -h(1 - s - e)
        # with h(x) = (exp(xL) - 1) / x, whose j-th coefficient at y is
        # L^(j+1) / j! sum_m (yL)^m / (m! (m + j + 1)); |yL| < L / 2 < 5
        # up to MAX_HEIGHT, so 40 terms leave less than 1e-20
        z = y[near] * L
        U = np.empty((40,) + z.shape, dtype=complex)
        U[0] = 1
        for m in range(1, 40):
            U[m] = U[m - 1] * z / m
        m = np.arange(40)[:, None, None]
        for j in range(n):
            c = np.array([(-1) ** (j + 1) * l ** (j + 1) / math.factorial(j)
                          for l in Ls])[:, None]
            T[j][:, near] = c * (U / (m + j + 1)).sum(axis=0)
            A[j][:, near] = np.abs(c) * (np.abs(U) / (m + j + 1)).sum(axis=0)
    return T, A


def _classes(a):
    """(q, classes c, column of weights w_c) of sum_c w_c sum_k (q k + c)^-s:
    zeta(s, a) for a shift a in (0, 1] (q = 1, one class a), L(s, chi) for a
    character chi mod q (c prime to q, w_c = chi(c), +-1 if chi is real)."""
    if isinstance(a, Character):
        q = a.modulus
        cls = tuple(c for c in range(1, q + 1) if a.value_index[c % q] is not None)
        w = np.array([a(c) for c in cls])[:, None]
        return q, cls, w.real.round() if a.order <= 2 else w
    if not 0 < a <= 1:
        raise ValueError("shift a must lie in (0, 1]")
    return 1, (a,), np.ones((1, 1))


def _em_size(sig, smax, tmax, a, lmax, npts):
    """(N, nb): the cheapest Euler-Maclaurin size whose truncation bound
    meets the rounding floor at the worst point of a batch.

    sig is the least real part and smax the largest |s| of the batch; each
    class's bound is its rmax of _hurwitz_batch taken there, which bounds it
    at every point.  Its floor is _FLOOR times a term of the class whose
    rounding every order j carries, n = c, q + c or the half term n = q N +
    c, each as n^-sig |log n|^j / j! times _R^j; both are compared over
    q^-sig, where the bound keeps q^_R.  N stays at most max(20, ceil(1.2
    tmax)), as the old fixed rule, and nb at most _NB_MAX.
    """
    q, cls, _ = _classes(a)
    ncap = max(20, math.ceil(1.2 * tmax))
    lift = _R * math.log(q)
    # per class: c / q, log cap on N + c / q, k = N and k = 0, 1 log floors
    classes = []
    for c in cls:
        x0 = c / q
        fixed = []
        for k in (0, 1):
            h = _least_order_weight(abs(math.log(q * k + c)), lmax)
            if h > 0:
                fixed.append(-sig * math.log(k + x0) + math.log(h))
        half = math.log(0.5 * _least_order_weight(math.log(q * _N_MIN + c), lmax))
        classes.append((x0, math.log(ncap + x0), half, fixed))
    per_term = npts * len(cls) * _COST_TERM
    per_step = _COST_STEP + npts * len(cls) * (lmax + 1) * _COST_STEP_POINT
    best, size = math.inf, (ncap, _NB_MAX)
    log_poch = math.log(smax + _R)
    for nb in range(1, _NB_MAX + 1):
        # log of prod_(k <= 2 nb) (smax + _R + k)
        log_poch += math.log(smax + _R + 2 * nb - 1) + math.log(smax + _R + 2 * nb)
        if nb * per_step >= best:
            break
        lo = sig - _R + 2 * nb + 1
        if lo <= 0:
            continue
        # log rmax - log _FLOOR = K - lo log(N + c / q): per class the least
        # log(N + c / q) that meets one of its floors
        K = _LOG_CNEXT[nb] + log_poch + math.log((smax + _R + 2 * nb + 1) / lo) + lift
        N = _N_MIN
        for x0, log_cap, half, fixed in classes:
            need = (K - half) / (2 * nb + 1 - _R)
            for f in fixed:
                need = min(need, (K - f) / lo)
            if need > log_cap:
                break
            N = max(N, math.ceil(math.exp(need) - x0))
        else:
            cost = N * per_term + nb * per_step
            if cost < best:
                best, size = cost, (N, nb)
    return size


def _least_order_weight(x, lmax):
    """min over j <= lmax of (_R x)^j / j!."""
    return min((_R * x) ** j / math.factorial(j) for j in range(lmax + 1))


def _grid_groups(sig, t, terms):
    """The groups of a batch's main sum over terms terms, each as (usig,
    ut, rows, js, jt): its distinct abscissae and heights, both sorted, and
    its points rows of the batch (all of them, as a slice, when one group
    takes the batch), the i-th of which is usig[js[i]] + 1j ut[jt[i]].

    A batch is one group when its grid, distinct heights x abscissae,
    holds at most _GRID times its points, as a contour batch's does, or
    when the grid's cells beyond its points cost at most _GRID_SLACK
    entries of the products.  Any other batch splits into runs of _GRID
    consecutive abscissae, each with its own heights; a run has no more
    heights than points, so its grid stays within _GRID times its points.
    """
    usig, isig = np.unique(sig, return_inverse=True)
    ut, it = np.unique(t, return_inverse=True)
    cells = usig.size * ut.size
    if cells <= _GRID * sig.size or (cells - sig.size) * terms <= _GRID_SLACK:
        yield usig, ut, slice(None), isig, it
        return
    # the points of run k are order[pb[k]:pb[k + 1]], and its heights the
    # (run, height) pairs pair[tb[k]:tb[k + 1]]
    run = isig // _GRID
    order = np.argsort(run, kind="stable")
    pair, ip = np.unique(run * ut.size + it, return_inverse=True)
    bounds = np.arange(run.max() + 2)
    pb = np.searchsorted(run[order], bounds)
    tb = np.searchsorted(pair, bounds * ut.size)
    for k in bounds[:-1]:
        rows = order[pb[k] : pb[k + 1]]
        yield (usig[k * _GRID : (k + 1) * _GRID], ut[pair[tb[k] : tb[k + 1]] % ut.size],
               rows, isig[rows] - k * _GRID, ip[rows] - tb[k])


@functools.lru_cache(maxsize=32)
def _sieve_plan(q, cls, size):
    """The terms n = q k + c, k < size, c in cls, by levels of their prime
    factors: level 0 holds n = 1 and the primes, level L the n with L + 1
    prime factors, counted with multiplicity.  Each level is (nat, n, ip,
    im): its terms in increasing order, their positions nat among all the
    terms in increasing order and, from level 1 on, for each n the index
    ip of its least prime factor p in level 0 and the index im of n / p in
    level L - 1.  The terms of L(s, chi) mod q are the n prime to q, so p
    and n / p are terms too.  A call takes the plan of the least power of
    two size >= N and slices it (_sieve_rows), so a run builds a handful.
    """
    top = q * size
    n = np.arange(top + 1)
    term = np.isin(n % q, [c % q for c in cls])
    term[0] = False
    # least prime factors: a composite p writes only multiples of a smaller
    # prime, which writes after it
    spf = n.copy()
    for p in range(math.isqrt(top), 1, -1):
        spf[p * p :: p] = p
    # Omega(n): divide each n by its least prime factor until it is 1
    om = np.zeros(top + 1, dtype=int)
    r = n[1:].copy()
    while (r > 1).any():
        om[1:] += r > 1
        r //= spf[r]
    level = np.maximum(om - 1, 0)
    nat = np.cumsum(term) - 1
    plan = []
    for L in range(level[term].max() + 1):
        nv = np.flatnonzero(term & (level == L))
        if L == 0:
            plan.append((nat[nv], nv, None, None))
        else:
            p = spf[nv]
            plan.append((nat[nv], nv, np.searchsorted(plan[0][1], p),
                         np.searchsorted(plan[L - 1][1], nv // p)))
    return plan


def _sieve_rows(plan, top):
    """(order, steps, nd) for the terms n <= top of a _sieve_plan: order
    lists their positions level by level, nd is the size of level 0, and
    each step (lo, hi, ip, im) builds rows lo:hi of that order as the
    products of rows ip and im."""
    order, steps, lo, prev = [], [], 0, 0
    for nat, nv, ip, im in plan:
        k = np.searchsorted(nv, top, "right")
        order.append(nat[:k])
        if ip is not None and k:
            steps.append((lo, lo + k, ip[:k], prev + im[:k]))
        prev, lo = lo, lo + k
    return np.concatenate(order), steps, len(order[0])


def _hurwitz_batch(S, a=1.0, lmax=0, subtract_pole=False):
    """Euler-Maclaurin zeta(s + e, a), or L(s + e, chi) when a is a
    Dirichlet character, as a power series in e over an array of points.

    Returns (C, trunc, rnd), each of shape (lmax + 1, len(S)), the series
    being sum_j C[j] e^j; trunc[j] and rnd[j] bound the truncation and the
    rounding error of C[j].  The series is sum_c w_c sum_k (q k + c)^-(s+e)
    (_classes).  Its main part is one Dirichlet polynomial over n = q k + c,
    k < N, whose terms n^-s are at most 1 right of the strip; one pass
    gives every order, since n^-(s+e) = n^-s sum_j (-log n)^j e^j / j!.
    Each class adds its Euler-Maclaurin rest at x = N + c / q, written in
    M = q N + c so that no (c / q)^-s is formed: the tail M^(1-s-e) / (q (s
    - 1 + e)) and the Bernoulli terms M^-(s+e) x^(1-2j), as rows of the
    same truncated series products.  A class's dropped remainder is q^-(s+e)
    times that of zeta(s + e, c / q), entire in s, so Cauchy's estimate
    bounds its j-th coefficient by its largest value on |e| = _R, where
    |q^-(s+e)| <= q^(_R - sigma), over _R^j.  N and the number nb of
    Bernoulli terms come from the error target (_em_size).  The main sum
    runs group by group (_grid_groups) over the grid of the group's
    distinct heights x abscissae: per block of H heights, one matrix
    product of the table E of n^-it, every term by those heights, against
    the columns n^-sigma P[n] of every abscissa, and n^-sigma |P[n]| for
    the rounding mass; each point reads its (height, abscissa) entry.  For
    zeta and L(s, chi), a table of at least _SIEVE entries takes cos and
    sin only at n = 1 and the primes and builds every other n, level by
    level, as the product of its least prime factor's entry and its
    cofactor's (_sieve_rows); a term of k prime factors carries k - 1 more
    complex products, within 2 _EPS each, while its phase error stays eps t
    log n, since the primes' phases add up to it.  A Hurwitz shift a < 1
    takes cos and sin at every term.  Sums run in another order than point
    by point, so entries agree with one-point calls within their bounds,
    not to the bit.  With subtract_pole each tail loses 1 /
    (q (s - 1 + e)), so the series is zeta(s, a) - 1/(s - 1), or L(s, chi)
    itself for a non-principal chi, entire at s = 1.
    """
    S = np.atleast_1d(np.asarray(S, dtype=complex))
    q, cls, w = _classes(a)
    if not subtract_pole and np.any(np.abs(S - 1) < _POLE_GUARD):
        raise PoleAt1("series requested too close to its pole at s = 1")
    n = lmax + 1
    sig, t = S.real, S.imag
    N, nb = _em_size(float(sig.min()), float(np.abs(S).max()),
                     float(np.abs(t).max()), a, lmax, S.size)
    # the terms n = q k + c in increasing order, one column of P each, with
    # w_c (-log n)^j / j! in row j
    logs = np.log((q * np.arange(N)[:, None] + np.array(cls)).ravel())
    P = np.tile(w.T, N) * np.stack([(-logs) ** j / math.factorial(j) for j in range(n)])
    aP = np.abs(P)
    C = np.empty((n, S.size), dtype=complex)
    mass = np.empty((n, S.size))
    # the product levels behind each point's table entries, and the sieve
    # of the call's terms (_sieve_rows), made when a group first takes it
    lev = np.zeros(S.size)
    sieve = None
    # left of the strip n^-sigma may overflow; the gate refuses what it gives
    with np.errstate(over="ignore", invalid="ignore"):
        for usig, ut, rows, js, jt in _grid_groups(sig, t, logs.size):
            order, steps, nd = slice(None), (), logs.size
            # the terms are integers, to be sieved, for zeta(s, 1) and L(s, chi)
            if ut.size * logs.size >= _SIEVE and cls[0] == 1:
                if sieve is None:
                    sieve = _sieve_rows(_sieve_plan(q, cls, 1 << (N - 1).bit_length()),
                                        q * (N - 1) + cls[-1])
                order, steps, nd = sieve
                lev[rows] = len(steps)
            lg, Pg, aPg = logs[order], P[:, order], aP[:, order]
            # sum_n n^-it n^-sigma P[n] over heights x (abscissa, order),
            # one product per block of H heights against the weighted
            # columns W, and n^-sigma |P[n]| per abscissa; the table E
            # holds at most _BLOCK entries, its first nd rows from cos and
            # sin, the others one product level each.  Along memory, cos
            # and sin run up to twice as fast where the phases move slowly:
            # over the heights of a contour's sieved table, over the terms
            # of a few scattered points
            ns = usig.size * n
            emod = np.exp(-np.multiply.outer(usig, lg))
            W = (emod[:, None] * Pg).reshape(ns, lg.size)
            mass[:, rows] = (emod @ aPg.T)[js].T
            H = max(1, _BLOCK // lg.size)
            buf = np.empty(min(H, ut.size) * lg.size, dtype=complex)
            parts = []
            for h0 in range(0, ut.size, H):
                u = -ut[h0 : h0 + H]
                E = buf[: lg.size * u.size].reshape(lg.size, u.size)
                Ev = E.view(float)
                if steps:
                    ph = np.multiply.outer(lg[:nd], u)
                    np.cos(ph, out=Ev[:nd, 0::2])
                    np.sin(ph, out=Ev[:nd, 1::2])
                else:
                    ph = np.multiply.outer(u, lg)
                    Ev[:, 0::2] = np.cos(ph).T
                    Ev[:, 1::2] = np.sin(ph).T
                for lo, hi, ip, im in steps:
                    np.multiply(E[ip], E[im], out=E[lo:hi])
                parts.append(W @ Ev)
            grid = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
            # W @ Ev holds each sum's real and imaginary parts side by side,
            # so its complex view is the sum when W is real
            vals = grid.view(complex) if grid.dtype == float else grid[:, ::2] + 1j * grid[:, 1::2]
            C[:, rows] = vals.reshape(usig.size, n, ut.size)[js, :, jt].T
    # per class, as columns against the points: x = N + c / q, L = log M,
    # ep[j] = (-L)^j / j! and log x
    x = [N + c / q for c in cls]
    Ls = [math.log(q * N + c) for c in cls]
    ep = [np.array([(-l) ** j / math.factorial(j) for l in Ls])[:, None]
          for j in range(n)]
    lx = np.array([math.log(xc) for xc in x])[:, None]
    tail, tail_mass = _tail_series(S, Ls, ep, subtract_pole)
    # 1/2 M^-(s+e) plus the Bernoulli terms B_(k+1) / (k+1)! (s + e)_k
    # M^-(s+e) x^-k over odd k < 2 nb, summed as M^-(s+e) Q(e) by Horner's
    # rule over the factors V[k] = s + k; AQ carries the absolute masses and
    # poch the product of |s + k| + _R over k <= 2 nb, the Pochhammer factor
    # of the truncation bound; row k // 2 of b holds B_(k+1) / (k+1)! x^-k
    # for odd k, one column per class, built once
    V = S + np.arange(2 * nb + 1)[:, None]
    aV = np.abs(V)
    poch = aV[2 * nb] + _R
    b = np.array([[_BFLOAT[k + 1] / math.factorial(k + 1) * xc ** -k for xc in x]
                  for k in range(1, 2 * nb, 2)])[:, :, None]
    ab = np.abs(b)
    Q = np.zeros((n, len(cls), S.size), dtype=complex)
    AQ = np.zeros(Q.shape)
    for k in range(2 * nb - 1, -1, -1):
        poch *= aV[k] + _R
        Q, AQ = _shift_mul(Q, V[k]), _shift_mul(AQ, aV[k])
        if k % 2:
            Q[0] += b[k // 2]
            AQ[0] += ab[k // 2]
    Q[0] += 0.5
    AQ[0] += 0.5
    X = np.exp(-S * np.array(Ls)[:, None]) * w
    C += (tail * (w / q)).sum(axis=1) + (X * _smul(Q, ep)).sum(axis=1)
    # rounding: every term carries a few ulps, the j-th log power j more,
    # a sieved one 2 per product level, and the exponent rounds at ~ eps
    # |s log n| <= eps |s| max L
    per_term = _EPS * (4.0 + np.arange(n)[:, None] + 2 * lev + np.abs(S) * max(Ls))
    rnd = per_term * (mass + (tail_mass * np.abs(w / q)).sum(axis=1)
                      + (np.abs(X) * _smul(AQ, np.abs(ep))).sum(axis=1))
    # truncation: per class the first dropped Bernoulli term, inflated by
    # the standard remainder comparison factor, at the worst point of the
    # circle |e| = _R (each |s + e + k| is at most |s + k| + _R), times
    # q^(_R - sigma)
    lo = sig - _R + 2 * nb + 1
    cnext = abs(_BFLOAT[2 * nb + 2]) / math.factorial(2 * nb + 2)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        safety = np.where(lo > 0, (np.abs(S) + _R + 2 * nb + 1) / np.maximum(lo, 1e-300), np.inf)
        scale = np.abs(w) * np.exp(-lo * lx + (_R - sig) * math.log(q))
        rmax = cnext * poch * scale.sum(axis=0) * safety
    trunc = rmax / _R ** np.arange(n)[:, None]
    return C, trunc, rnd


def _check_target(err):
    if err < MIN_TARGET_ERR:
        raise AccuracyUnreachable(
            f"requested error {err:.1e} is below the double-precision floor"
        )


def _certified(v, b, err, s):
    """v as a complex number if its error bound b meets the target err; a
    NaN bound meets none."""
    if not b <= err:
        raise AccuracyUnreachable(
            f"achievable error {b:.2e} exceeds the target {err:.1e} at s = {s}"
        )
    return complex(v)


def hurwitz_zeta(s, a=1.0, err=1e-10):
    """zeta(s, a) with certified absolute error at most err."""
    _check_target(err)
    C, trunc, rnd = _hurwitz_batch(np.array([s]), a)
    return _certified(C[0, 0], trunc[0, 0] + rnd[0, 0], err, s)


def zeta(s, err=1e-10):
    """Riemann zeta, L(s, chi) of the character mod 1, with certified
    absolute error at most err."""
    return dirichlet_l(s, character(1, 0), err)


def dirichlet_l(s, chi, err=1e-10):
    """L(s, chi) with certified absolute error at most err.

    Only primitive characters have a reflection formula, the one mod 1 (zeta)
    among them; an imprimitive character is summed directly everywhere.
    """
    _check_target(err)
    S = np.array([s], dtype=complex)
    G = np.zeros(1)
    if chi.is_primitive:
        C, G, trunc, rnd = _lfunc_taylor(dirichlet_descriptor(chi), S, 0)
    else:
        C, trunc, rnd = _hurwitz_batch(S, chi, 0, not chi.is_principal)
    scale = np.exp(G[0])
    return _certified(C[0, 0] * scale, (trunc[0, 0] + rnd[0, 0]) * scale, err, s)


def _loggamma(z, n):
    """Taylor coefficients of the principal log Gamma(z + h) in h, orders
    0 .. n - 1, as an array of shape (n,) + shape of z, for Re z > 0.
    Order 0 is the branch that is real on the positive axis and continuous
    in the half-plane, order 1 is psi(z).

    log Gamma(z + h) = log Gamma(w + h) - sum_(k < m) log(z + k + h), with
    m >= 0 the least integer that makes Re w >= _GAMMA_SHIFT for w = z + m,
    principal logarithms, and each shift term expanded as a series in h.
    log Gamma(w + h) is Stirling's series (w + h - 1/2) log(w + h) - w - h
    + log(2 pi) / 2 + sum_(k <= 10) B_2k / (2k (2k - 1)) (w + h)^(1 - 2k).
    Its order i >= 1 is 1/i times order i - 1 of psi(w + h) = log(w + h) -
    1 / (2 (w + h)) - sum_(k <= 10) B_2k / 2k (w + h)^-2k, the sums by
    Horner's rule in 1/w^2 (_stirling).

    The remainder R(w) of log Gamma is below |B_22| / (22 21 |w|^21)
    sec^22(arg w / 2) (DLMF 5.11(ii)).  At fixed Re w the sec factor grows
    no faster than |w|^21 does, so the bound is largest on the real axis:
    at most 1.5e-18 for Re w >= 8.  Order 1's remainder is R'(w) =
    -int_0^inf (B_22 - B~_22(x)) / (x + w)^23 dx with B~ the periodic
    Bernoulli function; |B_22 - B~_22| <= 2 |B_22| and |x + w| >= (x + |w|)
    cos(arg w / 2) bound it by |B_22| / (11 |w|^22) sec^23(arg w / 2), at
    most 7.7e-18 by the same argument.  Order i >= 2 is the i-th Taylor
    coefficient of R(w + h), at most the largest |R| on |h| = 1 by Cauchy's
    estimate; there Re(w + h) >= 7, so it is at most 2.4e-17.
    """
    z = np.asarray(z, dtype=complex)
    if not np.all(z.real > 0):
        raise ValueError("log Gamma is evaluated only for Re z > 0")
    m = np.maximum(np.ceil(_GAMMA_SHIFT - z.real), 0)
    w = z + m
    r2 = 1 / (w * w)
    lw = np.log(w)
    out = np.empty((n,) + z.shape, dtype=complex)
    for i in range(n):
        ser = 0
        for b in _stirling(i):
            ser = ser * r2 + b
        if i == 0:
            out[0] = (w - 0.5) * lw - w + 0.5 * math.log(2 * math.pi) + ser / w
        elif i == 1:
            out[1] = lw - 0.5 / w + ser * r2
        else:
            out[i] = ((-1) ** i * (1 / (i * (i - 1)) + 0.5 / (i * w))
                      + ser * r2) / w ** (i - 1)
    for k in range(int(m.max(initial=0))):
        out[0] -= np.where(k < m, np.log(z + k), 0)
        if n > 1:
            # order i of log(z + k + h) is (-1)^(i + 1) / (i (z + k)^i)
            p = inv = np.where(k < m, 1 / (z + k), 0)
            out[1] -= p
            for i in range(2, n):
                p = p * inv
                out[i] -= (-1) ** (i + 1) / i * p
    return out


@functools.lru_cache(maxsize=None)
def _stirling(i):
    """Order i of the Stirling sum in _loggamma: its Horner coefficients in
    1/w^2, highest first, B_2k / (2k (2k - 1)) at order 0 and -B_2k / 2k
    binom(-2k, i - 1) / i at order i >= 1."""
    return tuple(b / (2 * k - 1) if i == 0
                 else -b * math.comb(2 * k + i - 2, i - 1) * (-1) ** (i - 1) / i
                 for k, b in reversed(list(enumerate(_STIRLING, 1))))


def _log_fe_smooth(desc, W, n):
    """Taylor coefficients in e of log Phi(W - e) without its cosine
    factors, orders 0 .. n - 1 over an array W.

    Each Gamma argument moves by h = -e/2, so order j of _loggamma there is
    scaled by (-1/2)^j; the conductor and pi terms reach orders 0 and 1.
    """
    m = desc.rank
    out = np.zeros((n, W.size), dtype=complex)
    out[0] = -cmath.log(desc.root_number) + (W - 0.5) * math.log(desc.conductor)
    out[0] += (-m / 2 - m * W) * math.log(math.pi)
    if n > 1:
        out[1] = -(math.log(desc.conductor) - m * math.log(math.pi))
        scale = (-0.5) ** np.arange(1, n)[:, None]
    for mu in desc.spectral_params:
        lg = [_loggamma(x, n) for x in ((W + mu) / 2, (1 + W - complex(mu).conjugate()) / 2)]
        out[0] += lg[0][0] + lg[1][0]
        if n > 1:
            out[1:] += scale * lg[0][1:]
            out[1:] += scale * lg[1][1:]
    return out


def _fe_series(desc, W, n):
    """(Phi, mass, G): Phi(W - e) = exp(G) sum_j Phi[j] e^j, where Phi is
    the reflection factor, L(1 - s, dual) = Phi(s) L(s, pi), and mass[j] >=
    |Phi[j]| is the absolute mass that the rounding of Phi[j] scales with.

    Phi is exp of a smooth part times cosines.  The smooth part's Taylor
    series is _log_fe_smooth's, exponentiated as a series.  Each cosine is
    expanded directly, cos(a - x) = cos a cos x + sin a sin x, scaled by
    exp(-|Im a|), so a zero of Phi (a trivial zero of the dual) costs
    nothing.
    """
    lam = _log_fe_smooth(desc, W, n)
    cos_parts = []
    G = lam[0].real.copy()
    for mu in desc.spectral_params:
        a = math.pi * (W - complex(mu).conjugate()) / 2
        y = np.abs(a.imag)
        p = np.exp(1j * a.real - a.imag - y)
        q = np.exp(-1j * a.real + a.imag - y)
        G += y
        coef = np.array([(-1) ** (j // 2) * (math.pi / 2) ** j / math.factorial(j) for j in range(n)])[:, None]
        cs = coef * np.array([(p + q) / 2 if j % 2 == 0 else (p - q) / 2j for j in range(n)])
        # the exponentials' mass: at a zero of cos its value is rounding
        cos_parts.append((cs, np.abs(coef) * (np.abs(p) + np.abs(q)) / 2))
    e = np.zeros((n, W.size), dtype=complex)
    ae = np.zeros((n, W.size))
    e[0] = np.exp(1j * lam[0].imag)
    ae[0] = 1.0
    for j in range(1, n):
        e[j] = sum(k * lam[k] * e[j - k] for k in range(1, j + 1)) / j
        ae[j] = sum(k * np.abs(lam[k]) * ae[j - k] for k in range(1, j + 1)) / j
    for cs, acs in cos_parts:
        e, ae = _smul(e, cs), _smul(ae, acs)
    return e, ae, G


def _reflected(desc, W, lmax):
    """(C, G, trunc, rnd): L(1 - W + e, dual) = exp(G) sum_j C[j] e^j from
    L(1 - W + e, dual) = Phi(W - e) L(W - e, pi), with L(W - e, pi) summed
    directly; trunc and rnd bound the errors of C in its own scale."""
    n = lmax + 1
    C, trunc, rnd = _hurwitz_batch(W, desc.character, lmax, not desc.pole_order)
    C = C * ((-1.0) ** np.arange(n))[:, None]
    Phi, mass, G = _fe_series(desc, W, n)
    # _loggamma and the phase exp(i Im log Phi) carry a relative
    # error that grows with |log Phi| ~ |W log W|
    rel = 1e-13 * (1 + np.abs(W))
    with np.errstate(over="ignore", invalid="ignore"):
        return (_smul(Phi, C), G, _smul(mass, trunc),
                _smul(mass, rnd) + rel * _smul(mass, np.abs(C)))


def _lfunc_taylor(desc, S, lmax):
    """(C, G, trunc, rnd) with L(s + e) = exp(G) sum_j C[j] e^j at each
    point of S, and trunc[j], rnd[j] bounds on the truncation and rounding
    error of C[j].

    Right of sigma = -2 the series is summed directly and G = 0; left of it
    the dual is summed at 1 - s and reflected.
    """
    S = np.atleast_1d(np.asarray(S, dtype=complex))
    n = lmax + 1
    C = np.empty((n, S.size), dtype=complex)
    G = np.zeros(S.shape)
    trunc = np.empty((n, S.size))
    rnd = np.empty((n, S.size))
    deep = S.real < _DEEP_SIGMA
    if (~deep).any():
        C[:, ~deep], trunc[:, ~deep], rnd[:, ~deep] = _hurwitz_batch(
            S[~deep], desc.character, lmax, not desc.pole_order)
    if deep.any():
        C[:, deep], G[deep], trunc[:, deep], rnd[:, deep] = _reflected(
            contragredient(desc), 1 - S[deep], lmax
        )
    return C, G, trunc, rnd


def _gate(C, trunc, rnd, S, rel_tol):
    """Raise AccuracyUnreachable where a Taylor table's truncation bound
    exceeds rel_tol times its entry's magnitude plus its rounding bound, or
    where an entry or a bound is not finite."""
    bad = ~((trunc <= rel_tol * np.abs(C) + rnd) & np.isfinite(C)
            & np.isfinite(rnd))
    if bad.any():
        l, i = (int(x[0]) for x in np.nonzero(bad))
        raise AccuracyUnreachable(
            f"entry {C[l, i]:.3g} of order {l} at s = {S[i]}, with "
            f"truncation bound {trunc[l, i]:.2e} and rounding bound "
            f"{rnd[l, i]:.2e}, misses the target {rel_tol:.1e}"
        )


def lfunc_derivatives_scaled(desc, S, lmax, rel_tol=1e-9):
    """Scaled derivative tables (D, G): L^(l)(S[i]) = D[l, i] exp(G[i]).

    D has shape (lmax + 1, len(S)) and row l is l! times the Taylor
    coefficient of order l, all from one Euler-Maclaurin pass.  rel_tol
    gates the truncation bound entry by entry: AccuracyUnreachable is raised
    where it exceeds rel_tol times the entry's own magnitude plus its
    rounding bound, so a point passes or fails whatever batch it comes in.
    A purely relative gate would fail at zeros of L, where the value is all
    rounding.
    """
    S = np.atleast_1d(np.asarray(S, dtype=complex))
    if desc.pole_order > 0 and np.any(np.abs(S - 1) < 1e-6):
        raise PoleTooClose("derivative table requested within 1e-6 of the pole at s = 1")
    return _derivative_rows(_lfunc_taylor(desc, S, lmax), S, rel_tol)


def _derivative_rows(table, S, rel_tol):
    """(D, G) from a Taylor table (C, G, trunc, rnd) that passes _gate:
    row l of D is l! C[l]."""
    C, G, trunc, rnd = table
    _gate(C, trunc, rnd, S, rel_tol)
    return C * np.array([math.factorial(l) for l in range(len(C))])[:, None], G


def lfunc_derivatives(desc, S, lmax, rel_tol=1e-9):
    """Derivatives 0..lmax of L(s, pi) at each point of S.

    Returns an array of shape (lmax + 1, len(S)).
    """
    D, G = lfunc_derivatives_scaled(desc, S, lmax, rel_tol)
    return D * np.exp(G)[None, :]


def _sum_monomials(monomials, factor, n, size):
    """(u, g, mass): sum_m c_m prod L^(l)(s + e)^d = exp(g) sum_k u[k] e^k
    as truncated power series to order n - 1, rows of shape (n, size).

    factor(fid, l) gives the Taylor rows of L^(l)(s + e) and their g.  Each
    monomial is the truncated product (_smul) of its factor rows, d times
    each, at its own g = sum d g, with the product of the absolute rows
    alongside in mass; the monomials are summed at the largest g.
    """
    u = np.zeros((len(monomials), n, size), dtype=complex)
    mass = np.zeros(u.shape)
    g = np.zeros((len(monomials), size))
    for i, m in enumerate(monomials):
        u[i, 0], mass[i, 0] = m.coeff, abs(m.coeff)
        for fid, l, d in m.factors:
            rows, G = factor(fid, l)
            for _ in range(d):
                u[i], mass[i] = _smul(u[i], rows), _smul(mass[i], np.abs(rows))
            g[i] += d * G
    gmax = g.max(axis=0)
    w = np.exp(g - gmax)[:, None]
    return (u * w).sum(axis=0), gmax, (mass * w).sum(axis=0)


def _orders(F, n):
    """The highest Taylor order of each L-function in F's series to order n - 1."""
    needed = {}
    for m in F.monomials:
        for fid, l, _ in m.factors:
            needed[fid] = max(needed.get(fid, 0), l + n - 1)
    return needed


def eval_F_scaled_batch(F, S, rel_tol=1e-9, prime=False):
    """(u, g) with F(s) = u exp(g) over S, usable arbitrarily far left of
    the strip; with prime, (u, g, d) with d = F'(s) / F(s), in which g
    cancels.  The one assembler of F: a derivative table per L-function,
    one order deeper with prime, and one _sum_monomials over them."""
    S = np.atleast_1d(np.asarray(S, dtype=complex))
    n = 1 + prime
    tables = {
        fid: lfunc_derivatives_scaled(F.lfuncs[fid], S, lmax, rel_tol)
        for fid, lmax in _orders(F, n).items()
    }
    fact = np.array([math.factorial(k) for k in range(n)])[:, None]

    def factor(fid, l):
        D, G = tables[fid]
        return D[l : l + n] / fact, G

    u, g, _ = _sum_monomials(F.monomials, factor, n, S.size)
    return (u[0], g, u[1] / u[0]) if prime else (u[0], g)


def eval_F_batch(F, S, rel_tol=1e-9):
    """Values u exp(g) of the expression F over an array of points."""
    u, g = eval_F_scaled_batch(F, S, rel_tol)
    return u * np.exp(g)


def eval_F(F, s, rel_tol=1e-9):
    """Value of the expression F at a single point."""
    return complex(eval_F_batch(F, [s], rel_tol)[0])


def eval_F_with_prime(F, s, rel_tol=1e-9):
    """(F(s), F'(s)) for Newton refinement, as (v, v d) of the scaled batch."""
    u, g, d = eval_F_scaled_batch(F, [s], rel_tol, prime=True)
    v = complex(u[0] * np.exp(g[0]))
    return v, v * complex(d[0])


# --- functional-equation pieces ------------------------------------------

def log_fe_factor(desc: LFunctionDescriptor, s):
    """log of the factor Phi with L(1 - s, dual) = Phi(s) L(s, pi), up to a
    multiple of 2 pi i: G + log Phi[0] of _fe_series.

    Takes a point or an array of points.
    """
    Phi, _, G = _fe_series(desc, np.asarray(s, dtype=complex).reshape(-1), 1)
    with np.errstate(divide="ignore"):
        out = G + np.log(Phi[0])
    # a scalar point gives a scalar, an array an array of its shape
    return out.reshape(np.shape(s))[()]


def b_factor(s, l, desc: LFunctionDescriptor):
    """Logarithmic weight attached to the l-th derivative under reflection,
    over an array of points.

    Equals g(s)^l with g the half-sum of log((s + mu_r)/2) and
    log((1 + s - conj(mu_r))/2) over the spectral parameters; 1 at l = 0.
    """
    s = np.asarray(s, dtype=complex)
    g = np.zeros(s.shape, dtype=complex)
    if l > 0:
        for mu in desc.spectral_params:
            mub = complex(mu).conjugate()
            g += np.log((s + mu) / 2) + np.log((1 + s - mub) / 2)
    return (0.5 * g) ** l


def _reflection_region(F, S):
    """Mask of the points where the reflected asymptotic is valid: Re s >
    3/2 and at least _REGION_EPS away from every shifted spectral point
    2n - 1 + conj(mu)."""
    ok = S.real > 1.5
    for desc in F.lfuncs.values():
        for mu in desc.spectral_params:
            mub = complex(mu).conjugate()
            x = ((S - mub).real + 1) / 2
            for k in (np.floor(x), np.ceil(x)):
                ok &= np.abs(S - (2 * k - 1 + mub)) >= _REGION_EPS
    return ok


def asymptotic_fe_main(F, S, rel_tol=1e-9):
    """F(1 - s, dual vector) and its main term predicted by the reflection
    formula over an array S, as ((u, g), (um, gm)) with F = u exp(g) and
    main = um exp(gm).

    One _reflected table per L-function, to the highest order F takes of
    it and gated as every derivative table, gives both, through
    _sum_monomials as eval_F_scaled_batch does: F from the rows l! C[l] =
    L^(l)(1 - s, dual) over every monomial, and the main term from their
    leading asymptotics b_factor C[0] over the leading monomials J.
    RegionViolation is raised if any point lies outside the valid region.
    """
    S = np.atleast_1d(np.asarray(S, dtype=complex))
    outside = S[~_reflection_region(F, S)]
    if outside.size:
        raise RegionViolation(
            f"s = {outside[0]} is outside the region of the reflected "
            f"asymptotic: Re s > 3/2 and {_REGION_EPS} away from every "
            "shifted spectral point"
        )
    refl = {
        fid: _derivative_rows(_reflected(F.lfuncs[fid], S, lmax), S, rel_tol)
        for fid, lmax in _orders(F, 1).items()
    }

    def value(fid, l):
        D, G = refl[fid]
        return D[l : l + 1], G

    def main(fid, l):
        D, G = refl[fid]
        return b_factor(S, l, F.lfuncs[fid]) * D[:1], G

    u, g, _ = _sum_monomials(F.monomials, value, 1, S.size)
    profile = F.profile
    um, gm, _ = _sum_monomials([F.monomials[j] for j in profile.J], main, 1, S.size)
    return (u[0], g), ((-1) ** profile.deg_der * um[0], gm)


def asymptotic_fe_ratio(F, S, rel_tol):
    """F(1 - s, dual) over its reflected main term at each point of the
    array S.  Both sides stay u exp(g) until their ratio, which is O(1)
    however far right s lies, is formed."""
    (ud, gd), (um, gm) = asymptotic_fe_main(F, S, rel_tol)
    return ud / um * np.exp(gd - gm)
