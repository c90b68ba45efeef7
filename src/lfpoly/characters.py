"""Dirichlet characters: construction, conductors, parity, Gauss sums.

(Z/qZ)^* is the product of cyclic groups, one per generator: per prime
power p^k || q, in increasing p, the smallest primitive root for odd p, 3
for 4, and -1 and 5 for 2^k >= 8, each CRT-lifted to 1 mod q / p^k.
`character(q, i)` builds one character, in about linear time in q, from
its index i read in mixed radix over the generators' orders (last
generator fastest; 0 is principal), so no caller needs the whole table.
Values are stored as exact root-of-unity indices so that orthogonality
and multiplicativity can be checked without rounding.
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


@lru_cache(maxsize=None)
def _generators(q):
    """CRT-lifted generators of (Z/qZ)^* and their orders (module docstring)."""
    if not (1 <= q <= 10**4):
        raise ValueError("modulus out of supported range [1, 10^4]")
    gens, orders = [], []
    for p, k in _factorize(q):
        pk = p**k
        if p != 2:
            local = [(_primitive_root(pk, p), pk - pk // p)]
        elif k == 1:
            local = []
        elif k == 2:
            local = [(3, 2)]
        else:
            local = [(pk - 1, 2), (5, pk // 4)]
        rest = q // pk
        inv = pow(pk, -1, rest)
        for g, d in local:
            gens.append((g + pk * ((1 - g) * inv % rest)) % q)
            orders.append(d)
    return tuple(gens), tuple(orders)


@dataclass(frozen=True)
class Character:
    """One Dirichlet character mod q, values as exact root-of-unity indices."""

    modulus: int
    index: int  # position in the canonical ordering (see `character`)
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
        _, orders = _generators(self.modulus)
        index = 0
        for a, d in zip(self.exponents, orders):
            index = index * d + (-a) % d
        return character(self.modulus, index)


class CharacterTable(tuple):
    """The characters mod q, in index order."""

    def primitive(self):
        return [chi for chi in self if chi.is_primitive]


@lru_cache(maxsize=None)
def character(q: int, index: int) -> Character:
    """The character mod q with the given `characterIndex`, built alone.

    The index is read in mixed radix over the generators' orders, last
    generator fastest, as the exponent tuple (a_1, ..., a_r); index 0 is
    the principal character.  chi(prod g_j^{e_j}) = e(sum a_j e_j / d_j).
    """
    q, index = int(q), int(index)  # a bool or numpy index must not enter the cache
    gens, orders = _generators(q)
    phi = math.prod(orders)
    if not 0 <= index < phi:
        raise IndexError(f"{index} out of range for modulus {q} ({phi} characters)")
    exps, i = [], index
    for d in reversed(orders):
        i, a = divmod(i, d)
        exps.insert(0, a)
    G = math.lcm(*orders)
    units = [(1 % q, 0)]  # (residue, value index) over the exponent tuples
    for g, d, a in zip(gens, orders, exps):
        units = [
            (n * pow(g, e, q) % q, (k + e * a * (G // d)) % G)
            for n, k in units
            for e in range(d)
        ]
    vi = [None] * q
    for n, k in units:
        vi[n] = k
    # smallest f | q with chi trivial on the units congruent to 1 mod f
    cond = next(
        f for f in range(1, q + 1)
        if q % f == 0 and all(vi[n] in (None, 0) for n in range(1, q, f))
    )
    return Character(
        modulus=q,
        index=index,
        exponents=tuple(exps),
        group_exponent=G,
        value_index=tuple(vi),
        order=G // math.gcd(G, *(k for k in vi if k is not None)),
        conductor=cond,
        is_primitive=(cond == q),
        parity=0 if vi[q - 1] == 0 else 1,
    )


def character_table(q: int) -> CharacterTable:
    """All phi(q) characters mod q, `character(q, i)` for i in index order."""
    return CharacterTable(character(q, i) for i in range(math.prod(_generators(q)[1])))


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
