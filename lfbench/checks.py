"""Output checks that use nothing from lfpoly.

Every check compares a CLI output document against mpmath, a closed form,
or a property the method must have.  A check raises CheckFailed with the
reason; ``known`` marks a rejection that is the documented program fault
of the workload (see README.md), which the run counts as a failed
operation without calling the output incorrect.
"""

import math

import mpmath as mp


class CheckFailed(Exception):
    def __init__(self, reason, known=False):
        super().__init__(reason)
        self.known = known


def _require(cond, reason):
    if not cond:
        raise CheckFailed(reason)


# --- count: zeta up to height T -------------------------------------------

def check_count_zeta(doc, T):
    _require(doc.get("command") == "count", "not a count document")
    _require(doc["T"] == T, f"T is {doc['T']}, asked for {T}")
    truth = int(mp.nzeros(T))     # Gram points and Rosser's rule
    _require(doc["empirical"] == truth,
             f"empirical {doc['empirical']} != mpmath.nzeros({T}) = {truth}")
    main = T / (2 * math.pi) * math.log(T / (2 * math.pi * math.e))
    _require(abs(doc["predicted"] - main) <= 1e-9 * abs(main),
             f"predicted {doc['predicted']!r} != (T/2pi) log(T/2pi e) = {main!r}")
    counts = [b["count"] for b in doc["bands"]]
    _require(all(isinstance(c, int) and c >= 0 for c in counts),
             "a band count is negative or not an integer")
    _require(sum(counts) == doc["empirical"],
             f"band counts sum to {sum(counts)}, empirical is {doc['empirical']}")
    strip = doc["strip"]
    # every nontrivial zero of zeta has 0 < beta < 1
    _require(strip["E1"] <= 0 and strip["E2"] >= 1,
             f"strip [{strip['E1']}, {strip['E2']}] misses part of 0 < sigma < 1")


# --- zeros of zeta' in a height window ------------------------------------

# the first nonreal zero of zeta' has gamma = 23.298...; a window starting
# below it holds every zero up to its top, as the two sums need
FIRST_DZETA_GAMMA = 23.29


def _dzeta(s):
    return mp.fp.zeta(s, derivative=1)


def _segment_turns(f, a, b, fa, fb, depth=0):
    """Phase change of f from a to b, bisecting until steps are < pi/4."""
    d = math.remainder(math.atan2(fb.imag, fb.real)
                       - math.atan2(fa.imag, fa.real), 2 * math.pi)
    if abs(d) < math.pi / 4:
        return d
    if depth > 40:
        raise CheckFailed(f"mpmath winding: phase unresolved near {a}")
    m = (a + b) / 2
    fm = f(m)
    return (_segment_turns(f, a, m, fa, fm, depth + 1)
            + _segment_turns(f, m, b, fm, fb, depth + 1))


def dzeta_zero_count(t1, t2, sigma_lo=-1.0, sigma_hi=5.0, step=0.2):
    """Zeros of zeta' in [sigma_lo, sigma_hi] x [t1, t2] by the argument
    principle on mpmath values.  zeta' has no nonreal zeros with sigma <= 0
    (Levinson-Montgomery) nor with sigma >= 3, so the box holds all of them.
    """
    corners = [complex(sigma_lo, t1), complex(sigma_hi, t1),
               complex(sigma_hi, t2), complex(sigma_lo, t2)]
    total = 0.0
    for a, b in zip(corners, corners[1:] + corners[:1]):
        n = max(2, math.ceil(abs(b - a) / step))
        pts = [a + (b - a) * k / n for k in range(n + 1)]
        vals = [_dzeta(p) for p in pts]
        for k in range(n):
            total += _segment_turns(_dzeta, pts[k], pts[k + 1],
                                    vals[k], vals[k + 1])
    w = total / (2 * math.pi)
    if abs(w - round(w)) > 0.05:
        raise CheckFailed(f"mpmath winding {w:.3f} is not near an integer")
    return round(w)


def levinson_montgomery(T):
    """Main term of 2 pi sum_{0 < gamma' <= T} (beta' - 1/2) for zeta'."""
    x = T / (2 * math.pi)
    return (T * math.log(math.log(x))
            + T * (0.5 * math.log(2) - math.log(math.log(2)))
            - 2 * math.pi * float(mp.li(x, offset=True)))


def berndt(T):
    """Main term of N_1(T), the number of zeros of zeta' with 0 < gamma <= T."""
    return T / (2 * math.pi) * math.log(T / (4 * math.pi)) - T / (2 * math.pi)


class DzetaRoots:
    """mpmath roots of zeta', shared by the operations of one run."""

    def __init__(self):
        self._roots = {}

    def near(self, z):
        key = (round(z.real, 9), round(z.imag, 9))
        if key not in self._roots:
            mp.mp.dps = 25
            try:
                r = mp.findroot(lambda s: mp.zeta(s, derivative=1), mp.mpc(z))
            except ValueError as e:
                raise CheckFailed(f"mpmath.findroot finds no root from {z}: {e}")
            self._roots[key] = complex(r)
        return self._roots[key]


def check_zeros_dzeta(doc, T1, T2, roots):
    _require(T1 < FIRST_DZETA_GAMMA, "window must start below 23.29")
    _require(doc.get("command") == "zeros", "not a zeros document")
    _require(doc["T1"] == T1 and doc["T2"] == T2,
             f"window ({doc['T1']}, {doc['T2']}), asked for ({T1}, {T2})")
    zs = doc["zeros"]
    gammas = [z["gamma"] for z in zs]
    _require(gammas == sorted(gammas), "zeros are not sorted by height")
    for z in zs:
        rho = complex(z["beta"], z["gamma"])
        _require(z["multiplicity"] == 1,
                 f"zero {rho} has multiplicity {z['multiplicity']}")
        _require(z["beta"] > 0.5, f"zero {rho} lies left of the half line")
        _require(T1 < z["gamma"] < T2, f"zero {rho} lies outside the window")
        r = roots.near(rho)
        _require(abs(r - rho) <= 1e-10,
                 f"zero {rho} is {abs(r - rho):.2e} from mpmath's root {r}")
    for a, b in zip(zs, zs[1:]):
        _require(abs(complex(a["beta"], a["gamma"])
                     - complex(b["beta"], b["gamma"])) > 1e-8,
                 f"zero at gamma {a['gamma']} appears twice")
    n = len(zs)
    truth = dzeta_zero_count(T1, T2)
    _require(n == truth, f"{n} zeros listed, mpmath winding counts {truth}")
    lt = math.log(T2)
    lm = 2 * math.pi * sum(z["beta"] - 0.5 for z in zs)
    _require(abs(lm - levinson_montgomery(T2)) <= 2 * lt,
             f"2 pi sum(beta - 1/2) = {lm:.3f}, Levinson-Montgomery "
             f"{levinson_montgomery(T2):.3f}, off by more than 2 log T")
    _require(abs(n - berndt(T2)) <= 2 * lt,
             f"{n} zeros, Berndt N1 = {berndt(T2):.3f}, off by more than 2 log T")


# --- audit of zeta'(s) L(s, chi_4) far left --------------------------------

def _dzeta_sign_factor(x):
    """zeta'(x) / (2^x pi^(x-1) Gamma(1-x)) for real x < 0, from the
    functional equation; the divisor is positive, so the sign is zeta''s.
    Direct mpmath zeta'(x) near x = -274 takes about 30 s a point."""
    x = mp.mpf(x)
    y = 1 - x
    s, c, z = mp.sin(mp.pi * x / 2), mp.cos(mp.pi * x / 2), mp.zeta(y)
    return ((mp.log(2 * mp.pi) - mp.psi(0, y)) * s * z + mp.pi / 2 * c * z
            - s * mp.zeta(y, derivative=1))


def dzeta_real_zeros_in(a, b, step=0.01):
    """Real zeros of zeta' in [a, b] (a < b < 0) by sign changes.

    zeta' has exactly one real zero between consecutive negative even
    integers, so a grid far finer than 2 misses none.
    """
    mp.mp.dps = 30
    n = max(2, math.ceil((b - a) / step))
    signs = [mp.sign(_dzeta_sign_factor(mp.mpf(a) + (mp.mpf(b) - a) * k / n))
             for k in range(n + 1)]
    return sum(1 for u, v in zip(signs, signs[1:]) if u * v < 0)


def odd_negative_integers_in(a, b):
    """Zeros of L(s, chi_4) in [a, b] (b < 0): chi_4 is odd, so its
    L-function vanishes left of the strip exactly at -1, -3, -5, ..."""
    return sum(1 for m in range(math.ceil(a), math.floor(b) + 1) if m % 2)


class AuditOracle:
    def __init__(self):
        self._disk = {}

    def disk_truth(self, c, eps):
        """Zeros of zeta'(s) L(s, chi_4) in the square of half-side eps
        about the real point c.  Left of sigma = 0 neither factor has a
        nonreal zero, so the real segment of the square holds them all."""
        key = (c, eps)
        if key not in self._disk:
            a, b = c - eps, c + eps
            self._disk[key] = (dzeta_real_zeros_in(a, b)
                               + odd_negative_integers_in(a, b))
        return self._disk[key]


# the winding fault named in README.md: one extra zero at n = 137, 138, 139
KNOWN_FAULT_DISKS = (137, 138, 139)


def check_audit_dzeta_chi4(doc, eps, oracle):
    _require(doc.get("command") == "audit", "not an audit document")
    _require(doc["epsilon"] == eps, f"epsilon {doc['epsilon']}, asked for {eps}")
    disks = doc["disks"]
    _require(len(disks) > 0, "no disks")
    _require([d["n"] for d in disks]
             == list(range(doc["nStart"], doc["nStart"] + len(disks))),
             "disks are not consecutive from nStart")
    wrong = []
    for d in disks:
        n = d["n"]
        # zeta has mu = 0 and odd chi_4 has mu = 1: centers -2n and -2n - 1,
        # 1 apart, so the squares of side 2 eps <= 1 never merge
        centers = sorted(complex(*c).real for c in d["centers"])
        _require(centers == [-2 * n - 1, -2 * n]
                 and all(c[1] == 0 for c in d["centers"]),
                 f"n={n}: centers {d['centers']}, expected -2n - 1 and -2n")
        _require(d["expected"] == 2, f"n={n}: expected {d['expected']}, the rank sum is 2")
        _require(d["matches"] == (d["count"] == d["expected"]),
                 f"n={n}: matches flag disagrees with the counts")
        truth = sum(oracle.disk_truth(c, eps) for c in centers)
        if d["count"] != truth:
            wrong.append((n, d["count"], truth))
    _require(doc["allMatch"] == all(d["matches"] for d in disks),
             "allMatch disagrees with the disks")
    if wrong:
        known = all(n in KNOWN_FAULT_DISKS and count == truth + 1
                    for n, count, truth in wrong)
        raise CheckFailed(
            "disk counts differ from mpmath: "
            + ", ".join(f"n={n} counts {c}, truth {t}" for n, c, t in wrong),
            known=known)
