"""End-to-end acceptance checks, one verdict line per criterion.

Each test prints "ACCEPTANCE <n> <name>: PASS|FAIL" on the real stdout so
the verdicts survive pytest capture, then asserts the criterion.
"""

import cmath
import json
import math
import random
import sys
import time

import mpmath as mp
import numpy as np
import pytest

from lfpoly import analysis as A
from lfpoly import characters as chars
from lfpoly import cli
from lfpoly import evaluate as ev
from lfpoly import expr as E
from lfpoly import exprfile
from lfpoly import zeros as Z
from lfpoly.descriptors import dirichlet_descriptor, zeta_descriptor

from conftest import build, zpoly, ZETA
from test_expr import _brute_coefficients

mp.mp.dps = 30

TWO_PI = 2 * math.pi


@pytest.fixture
def verdict(capsys):
    """Verdict printer that bypasses capture so every line reaches the log."""
    def _v(num, name, ok):
        with capsys.disabled():
            print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}",
                  flush=True)
        return ok
    return _v


def _family():
    """The four benchmark expressions: zeta', zeta'', zeta'' + 3 zeta', zeta' zeta."""
    return {
        "zeta1": zpoly((1.0, [(1, 1)])),
        "zeta2": zpoly((1.0, [(2, 1)])),
        "combo": zpoly((1.0, [(2, 1)]), (3.0, [(1, 1)])),
        "prod": zpoly((1.0, [(1, 1), (0, 1)])),
    }


def test_acceptance_1_coefficient_oracle(verdict):
    t0 = time.monotonic()
    chi3 = dirichlet_descriptor(chars.character_table(3)[1], id="chi3")
    chi4 = dirichlet_descriptor(chars.character_table(4)[1], id="chi4")
    descs = [ZETA, chi3, chi4]
    rng = random.Random(20260826)
    worst = 0.0
    for _ in range(50):
        monos = []
        for _ in range(rng.randint(1, 3)):
            facs = [
                (rng.choice(descs), rng.randint(0, 2), rng.randint(1, 2))
                for _ in range(rng.randint(1, 2))
            ]
            c = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            monos.append((c, facs))
        F = build(monos, descs)
        got = E.dirichlet_coefficients(F, 200).eta
        ref = _brute_coefficients(F, 200)
        scale = max(np.abs(ref).max(), 1.0)
        worst = max(worst, float(np.abs(got - ref).max() / scale))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-12 and elapsed < 10
    assert verdict(1, "coefficient oracle", ok), (worst, elapsed)


def test_acceptance_2_degree_calculus(verdict):
    checks = []

    p = E.degree_profile(zpoly((1.0, [(0, 1)])))
    checks.append((p.deg_rk, p.deg_der, p.deg_cond) == (1, 0, 0.0))
    checks.append(abs(p.alpha1 - 1 / TWO_PI) < 1e-12)
    checks.append(abs(p.alpha2 + math.log(TWO_PI * math.e) / TWO_PI) < 1e-12)

    a2_deriv = -(math.log(TWO_PI * math.e) + math.log(2)) / TWO_PI
    for k in (1, 2, 3):
        p = E.degree_profile(zpoly((1.0, [(k, 1)])))
        checks.append((p.deg_rk, p.deg_der, p.deg_cond) == (1, k, 0.0))
        checks.append(abs(p.alpha1 - 1 / TWO_PI) < 1e-12)
        checks.append(abs(p.alpha2 - a2_deriv) < 1e-12)

    p = E.degree_profile(zpoly((1.0, [(2, 1)]), (3.0, [(1, 1)])))
    checks.append((p.deg_rk, p.deg_der) == (1, 2))
    checks.append(len(p.J) == 1)
    checks.append(abs(p.alpha2 - a2_deriv) < 1e-12)

    chi3 = dirichlet_descriptor(chars.character_table(3)[1], id="chi3")
    p = E.degree_profile(build([(1.0, [(ZETA, 1, 1), (chi3, 0, 1)])],
                               [ZETA, chi3]))
    checks.append((p.deg_rk, p.deg_der) == (2, 1))
    checks.append(abs(p.deg_cond - math.log(3)) < 1e-14)
    checks.append(abs(p.alpha1 - 2 / TWO_PI) < 1e-12)
    a2_prod = (math.log(3) - 2 * math.log(TWO_PI * math.e)
               - math.log(2)) / TWO_PI
    checks.append(abs(p.alpha2 - a2_prod) < 1e-12)

    ok = all(checks)
    assert verdict(2, "degree calculus", ok), checks


def _sign_change_zero_count(T):
    """Critical-line zeros of zeta below T by hardy-function sign changes."""
    ts = np.arange(0.5, T, 0.1)
    vals = [float(mp.siegelz(t)) for t in ts]
    signs = np.sign(vals)
    return int(np.sum(signs[1:] != signs[:-1]))


def test_acceptance_3_zeta_count(zeta_expr, verdict):
    t0 = time.monotonic()
    counted = int(Z.count_nontrivial(zeta_expr, 0, 100))
    oracle = _sign_change_zero_count(100)
    elapsed = time.monotonic() - t0
    ok = counted == 29 == oracle and elapsed < 120
    assert verdict(3, "zeta count to height 100", ok), (counted, oracle, elapsed)


def test_acceptance_4_predicted_counts(verdict):
    t0 = time.monotonic()
    worst = 0.0
    details = {}
    for name, F in _family().items():
        for T in (100, 200):
            rep = A.verify_count(F, T)
            details[(name, T)] = rep.slack
            worst = max(worst, rep.slack)
    elapsed = time.monotonic() - t0
    ok = worst <= 5.0 and elapsed < 900
    assert verdict(4, "count asymptotics", ok), (details, elapsed)


def test_acceptance_5_trivial_zero_audit(verdict):
    details = {}
    ok = True
    for name, F in _family().items():
        n0 = A.admissible_start(F, 0.25)
        reports = A.trivial_zero_audit(F, 0.25, range(n0, n0 + 5))
        good = all(r.matches for r in reports)
        details[name] = (n0, [r.count for r in reports])
        ok = ok and good
    assert verdict(5, "trivial-zero audit", ok), details


def test_acceptance_6_asymptotic_fe(zeta_prime, verdict):
    rep = A.asymptotic_fe_check(zeta_prime, 3.0, [20.0, 40.0, 80.0, 160.0])
    rs = [p.r for p in rep.points]
    ok = rs[-1] < rs[0] and all(r <= 1.0 for r in rs) and rep.sign_matches
    assert verdict(6, "asymptotic reflection", ok), rs


def _levinson_montgomery_main(T):
    """Main term of 2 pi Sigma_{0 < gamma' <= T} (beta' - 1/2) over zeta' zeros."""
    x = T / TWO_PI
    return (T * math.log(math.log(x))
            + T * (0.5 * math.log(2) - math.log(math.log(2)))
            - TWO_PI * float(mp.li(x, offset=True)))


def test_acceptance_7_clustering(zeta_prime, verdict):
    zs = A.zero_list(zeta_prime, 14, 200)
    rep = A.clustering_counts(zeta_prime, 0.25, 14, T2=200, zeros=zs)
    fracs = [
        A.clustering_counts(zeta_prime, d, 14, T2=200, zeros=zs).fraction_outside
        for d in (0.1, 0.25, 0.5)
    ]
    monotone = fracs[0] >= fracs[1] >= fracs[2]
    # "almost all" zeros near the half line is asymptotic: the fraction
    # outside a fixed delta decays only like log log T / (delta log T), and
    # the mean displacement of zeta' zeros below height 200 is about 0.84.
    # What the theory gives at this scale is Levinson & Montgomery, "Zeros
    # of the derivatives of the Riemann zeta-function" (Acta Math. 133,
    # 1974):
    #   2 pi Sigma_{0 < gamma' <= T} (beta' - 1/2) = T log log(T / 2 pi)
    #     + T (log 2 / 2 - log log 2) - 2 pi Li(T / 2 pi) + O(log T).
    # zeta' has no zeros with 0 < gamma' < 14 (the first is at 23.298), so
    # the located list gives the full sum.
    devs = {}
    for T in (100, 150, 200):
        total = TWO_PI * sum(
            z.multiplicity * (z.beta - 0.5) for z in zs if z.gamma <= T
        )
        devs[T] = (total - _levinson_montgomery_main(T)) / math.log(T)
    near_main = all(abs(d) <= 2.0 for d in devs.values())
    ok = rep.n_minus == 0 and monotone and near_main
    verdict(7, "clustering near the half line", ok)
    # Speiser: under RH, zeta' has no zeros left of the half line
    assert rep.n_minus == 0
    assert monotone, fracs
    assert near_main, "deviation / log T: " + ", ".join(
        f"T={T}: {d:+.2f}" for T, d in devs.items()
    )


def test_acceptance_8_littlewood(zeta_expr, verdict):
    rep = A.littlewood_sum(zeta_expr, -1.0, 200)
    ok = rep.deviation <= 5.0
    assert verdict(8, "littlewood sum", ok), rep


def test_acceptance_9_determinism(tmp_path, verdict):
    src = tmp_path / "zeta.json"
    exprfile.dump(zpoly((1.0, [(0, 1)])), src)
    runs = {}
    for tag, flags in (("a", ["--parallelism", "1"]),
                       ("b", ["--parallelism", "1"]), ("bare", [])):
        out = tmp_path / tag
        rc = cli.main(["count", str(src), "-o", str(out), "--T", "50",
                       "--seed", "3"] + flags)
        assert rc == 0
        runs[tag] = (
            (out / "count.json").read_bytes(),
            (out / "count.csv").read_bytes(),
        )
    ok = runs["a"] == runs["b"] == runs["bare"]
    assert verdict(9, "deterministic outputs", ok)


def test_acceptance_10_fe_special_values(verdict):
    zd = zeta_descriptor()
    z_m3 = cmath.exp(ev.log_fe_factor(zd, 4.0)) * ev.zeta(4.0)
    z_m1 = cmath.exp(ev.log_fe_factor(zd, 2.0)) * ev.zeta(2.0)
    ok = abs(z_m3 - 1 / 120) < 1e-9 and abs(z_m1 + 1 / 12) < 1e-9
    assert verdict(10, "reflection special values", ok), (z_m3, z_m1)
