"""Dirichlet character groups: construction, conductors, parity, Gauss sums.

Characters are built from the CRT decomposition of (Z/qZ)^* into cyclic
pieces (odd prime powers get a primitive root, 2^k >= 8 splits as
{-1} x <5>).  Values are stored as exact root-of-unity indices so that
orthogonality and multiplicativity can be checked without rounding.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import NotPrimitive


def _factorize(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            k = 0
            while n % d == 0:
                n //= d
                k += 1
            out.append((d, k))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def _primitive_root(pk, p):
    """Smallest primitive root modulo an odd prime power p^k."""
    phi = pk - pk // p
    fac = [f for f, _ in _factorize(phi)]
    for g in range(2, pk):
        if math.gcd(g, pk) != 1:
            continue
        if all(pow(g, phi // f, pk) != 1 for f in fac):
            return g
    raise RuntimeError(f"no primitive root mod {pk}")


def _unit_group(q):
    """Generators and cyclic orders of (Z/qZ)^*, plus discrete-log tables."""
    gens, orders = [], []
    for p, k in _factorize(q):
        pk = p**k
        if p == 2:
            if k == 1:
                continue
            if k == 2:
                gens.append(3)
                orders.append(2)
            else:
                gens.append(pk - 1)  # -1
                orders.append(2)
                gens.append(5)
                orders.append(pk // 4)
        else:
            gens.append(_primitive_root(pk, p))
            orders.append(pk - pk // p)
    # lift each generator to a generator of the full group via CRT:
    # replace g (mod p^k) by the residue that is g mod p^k and 1 mod q/p^k.
    lifted = []
    gi = 0
    for p, k in _factorize(q):
        pk = p**k
        rest = q // pk
        ngen = 0 if (p == 2 and k == 1) else (2 if (p == 2 and k >= 3) else 1)
        for _ in range(ngen):
            g = gens[gi]
            gi += 1
            if rest == 1:
                lifted.append(g % q)
            else:
                inv = pow(pk, -1, rest)
                # x = g mod pk, x = 1 mod rest
                x = (g + pk * ((1 - g) * inv % rest)) % q
                lifted.append(x)
    return lifted, orders


def _dlog_table(q, gens, orders):
    """Map each unit mod q to its exponent tuple over the generators."""
    table = {1: tuple([0] * len(gens))}
    frontier = [(1, tuple([0] * len(gens)))]
    # BFS over the group; sizes are small (q <= 1e4)
    while frontier:
        new = []
        for n, e in frontier:
            for i, g in enumerate(gens):
                m = (n * g) % q
                if m in table:
                    continue
                e2 = list(e)
                e2[i] = (e2[i] + 1) % orders[i]
                table[m] = tuple(e2)
                new.append((m, table[m]))
        frontier = new
    return table


@dataclass(frozen=True)
class Character:
    """One Dirichlet character mod q, values as exact root-of-unity indices."""

    modulus: int
    index: int  # position in the canonical table ordering
    exponents: tuple  # character exponents against the group generators
    group_exponent: int  # common root-of-unity order O for value indices
    value_index: tuple  # per residue 0..q-1: index k (value e^{2pi i k/O}) or None
    order: int  # actual multiplicative order of the character
    conductor: int
    is_primitive: bool
    parity: int  # 0 even, 1 odd

    @property
    def is_principal(self):
        return self.order == 1

    def __call__(self, n):
        k = self.value_index[n % self.modulus]
        if k is None:
            return 0j
        return cmath.exp(2j * math.pi * k / self.group_exponent)

    def conjugate(self):
        table = character_table(self.modulus)
        q = self.modulus
        target = tuple(
            None if k is None else (-k) % self.group_exponent for k in self.value_index
        )
        for chi in table.characters:
            if chi.value_index == target:
                return chi
        raise RuntimeError("conjugate character not found")  # pragma: no cover


@dataclass(frozen=True)
class CharacterTable:
    modulus: int
    characters: tuple

    def __iter__(self):
        return iter(self.characters)

    def __getitem__(self, i):
        return self.characters[i]

    def __len__(self):
        return len(self.characters)

    def primitive(self):
        return [chi for chi in self.characters if chi.is_primitive]


def _conductor(q, value_index):
    """Smallest f | q with chi trivial on units congruent to 1 mod f."""
    divisors = sorted(d for d in range(1, q + 1) if q % d == 0)
    for f in divisors:
        ok = True
        for n in range(1, q + 1):
            if math.gcd(n, q) != 1 or (n - 1) % f != 0:
                continue
            if value_index[n % q] != 0:
                ok = False
                break
        if ok:
            return f
    return q  # pragma: no cover


@lru_cache(maxsize=None)
def character_table(q: int) -> CharacterTable:
    """The full dual group of (Z/qZ)^*, canonically ordered.

    Characters are ordered by their exponent tuples (principal first), so
    `characterIndex` in expression files is stable across runs.
    """
    if not (1 <= q <= 10**4):
        raise ValueError("modulus out of supported range [1, 10^4]")
    if q == 1:
        chi = Character(
            modulus=1,
            index=0,
            exponents=(),
            group_exponent=1,
            value_index=(0,),
            order=1,
            conductor=1,
            is_primitive=True,
            parity=0,
        )
        return CharacterTable(1, (chi,))

    gens, orders = _unit_group(q)
    dlog = _dlog_table(q, gens, orders)
    group_exp = 1
    for d in orders:
        group_exp = group_exp * d // math.gcd(group_exp, d)

    # enumerate character exponent tuples in mixed radix, principal first
    tuples = [()]
    for d in orders:
        tuples = [t + (a,) for t in tuples for a in range(d)]
    tuples.sort()

    chars = []
    for idx, a in enumerate(tuples):
        vi = [None] * q
        for n, e in dlog.items():
            k = 0
            for ai, ei, di in zip(a, e, orders):
                k += ai * ei * (group_exp // di)
            vi[n] = k % group_exp
        vi = tuple(vi)
        nz = [k for k in vi if k not in (None, 0)]
        g = 0
        for k in nz:
            g = math.gcd(g, k)
        order = group_exp // math.gcd(g, group_exp) if g else 1
        cond = _conductor(q, vi)
        parity = 0 if vi[(q - 1) % q] == 0 else 1
        chars.append(
            Character(
                modulus=q,
                index=idx,
                exponents=a,
                group_exponent=group_exp,
                value_index=vi,
                order=order,
                conductor=cond,
                is_primitive=(cond == q),
                parity=parity,
            )
        )
    return CharacterTable(q, tuple(chars))


def gauss_sum(chi: Character) -> complex:
    """tau(chi) = sum_a chi(a) e^{2 pi i a / q}; requires chi primitive."""
    if not chi.is_primitive:
        raise NotPrimitive(f"character {chi.index} mod {chi.modulus} is imprimitive")
    q = chi.modulus
    if q == 1:
        return 1.0 + 0j
    tau = 0j
    for a in range(1, q + 1):
        k = chi.value_index[a % q]
        if k is None:
            continue
        tau += cmath.exp(2j * math.pi * (k / chi.group_exponent + a / q))
    return tau


def root_number(chi: Character) -> complex:
    """W(chi) = tau(chi) / (i^a sqrt(q)) for primitive chi."""
    tau = gauss_sum(chi)
    q = chi.modulus
    return tau / ((1j**chi.parity) * math.sqrt(q))
