import cmath
import hashlib
import math
import random

import pytest

from lfpoly import characters as chars
from lfpoly.errors import NotPrimitive


def _phi(q):
    return sum(1 for a in range(1, q + 1) if math.gcd(a, q) == 1)


def _mobius(n):
    out = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        else:
            p += 1
    if n > 1:
        out = -out
    return out


def test_trivial_character_mod_1():
    table = chars.character_table(1)
    assert len(table) == 1
    chi = table[0]
    assert chi.conductor == 1
    assert chi.parity == 0
    assert chi.is_principal
    assert chi(1) == 1


@pytest.mark.parametrize("q", list(range(1, 31)))
def test_group_size_is_phi(q):
    assert len(chars.character_table(q)) == _phi(q)


@pytest.mark.parametrize("q", [3, 4, 5, 8, 12, 15, 21])
def test_multiplicativity(q):
    rng = random.Random(q)
    for chi in chars.character_table(q):
        for _ in range(20):
            a = rng.randrange(1, 4 * q)
            b = rng.randrange(1, 4 * q)
            assert abs(chi(a * b) - chi(a) * chi(b)) < 1e-12


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 12, 16, 24])
def test_row_orthogonality(q):
    table = chars.character_table(q)
    phi = len(table)
    for chi in table:
        s = sum(chi(a) for a in range(1, q + 1))
        expect = phi if chi.is_principal else 0.0
        assert abs(s - expect) < 1e-10


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 12, 16, 24])
def test_column_orthogonality(q):
    table = chars.character_table(q)
    phi = len(table)
    for a in range(2, q):
        if math.gcd(a, q) != 1:
            continue
        s = sum(chi(a) for chi in table)
        assert abs(s) < 1e-10, f"a={a}"


@pytest.mark.parametrize("q", [2, 3, 4, 6, 8, 9, 12, 15, 16, 20, 24])
def test_primitive_count(q):
    # number of primitive characters mod q equals sum mu(q/d) phi(d)
    expect = sum(
        _mobius(q // d) * _phi(d) for d in range(1, q + 1) if q % d == 0
    )
    got = len(chars.character_table(q).primitive())
    assert got == expect


def test_conductor_divides_modulus():
    for q in (8, 9, 12, 18, 24):
        for chi in chars.character_table(q):
            assert q % chi.conductor == 0
            assert chi.is_primitive == (chi.conductor == q)


def test_parity_matches_minus_one():
    for q in (3, 4, 5, 8, 13):
        for chi in chars.character_table(q):
            assert abs(chi(q - 1) - (-1.0) ** chi.parity) < 1e-12


def test_conjugate_is_involution():
    for q in (5, 7, 12):
        for chi in chars.character_table(q):
            cc = chi.conjugate().conjugate()
            assert cc.index == chi.index
            for a in range(1, q):
                assert abs(chi.conjugate()(a) - chi(a).conjugate()) < 1e-12


def test_gauss_sum_magnitude():
    for q in (3, 4, 5, 7, 8, 11, 13):
        for chi in chars.character_table(q).primitive():
            if chi.is_principal:
                continue
            tau = chars.gauss_sum(chi)
            assert abs(abs(tau) - math.sqrt(q)) < 1e-10


def test_gauss_sum_chi4():
    # the odd character mod 4: tau = e(1/4) - e(3/4) = 2i
    chi = chars.character_table(4)[1]
    assert chi.parity == 1
    assert abs(chars.gauss_sum(chi) - 2j) < 1e-12


def test_quadratic_even_root_number_is_one():
    # real even primitive characters have root number +1
    chi5 = next(
        c for c in chars.character_table(5).primitive()
        if c.order == 2 and c.parity == 0
    )
    assert abs(chars.root_number(chi5) - 1.0) < 1e-12


def test_root_number_unit_modulus():
    for q in (3, 4, 5, 7, 8, 11):
        for chi in chars.character_table(q).primitive():
            if chi.is_principal:
                continue
            assert abs(abs(chars.root_number(chi)) - 1.0) < 1e-12


def test_gauss_sum_rejects_imprimitive():
    chi = next(c for c in chars.character_table(8) if not c.is_primitive
               and not c.is_principal)
    with pytest.raises(NotPrimitive):
        chars.gauss_sum(chi)


# sha256 (first 12 hex digits) of the (exponents, value_index, order,
# conductor, parity) rows of character_table(q), q = 1..100: expression
# files name characters by index, so this order must never move
_TABLE_DIGESTS = [
    'f0160f1a74f8', '5fef7bf4ccbc', '753f15765524', '41ce7beeb561', '59fce252f54f',
    '11777615e5c4', 'dca2e85b6770', '83df1cc2353d', '5e424d617b5c', 'e4003bb4093b',
    '3a3b56f85c2f', '38ca050767a9', 'f56f0d876282', 'a2c1551510c9', '88018b5b84a9',
    'be2616dd991f', '87a3bfaf1178', 'f6f079467053', '0505856d1b14', '79b495db34e3',
    'b404e8006d28', 'c607d71a923e', 'bbe90ba18937', '5931a7323742', 'a3700b69f379',
    '8577ca831893', '04d742d91eff', 'c56693726845', '2ac7fb703064', 'e21422095289',
    '434e097b3a9d', '7b4db57e6303', '0b2c135e9ec1', 'a749ae95f80d', 'abb6675802ad',
    'dee65c6beb25', 'cee1af36207f', 'd20759da55fa', '25e1b3b1a033', '5710fd3244ea',
    '604d699a60ed', '189659658ef7', 'f410ad3a1bc8', '9223704cdb2f', 'daf5b00ee0c1',
    'a50a4f07ae41', '8b21fab69aec', '48df2f68e3cc', 'caa58e3d3a22', 'a4588e9dee84',
    'b432fa00925a', '996c34597383', '5d5de2ae8270', 'dc8654aab860', 'eeb47a492d6a',
    '49033f61bcd0', '1f88276807f0', 'a7cc15c691e4', '01de14366c30', '7076056e8718',
    '91d0880a7009', 'ecbe701ab1a4', '7176a2ced630', 'eac09d72822f', '890edc58f325',
    '9167098d4706', '07ae6703102e', 'fd8088f2c46b', '70797213427a', '8dd3b4757fa6',
    'd495f1cf2fc7', 'fb0b81a0883d', 'a33c1dd98443', 'acecce9274e1', 'e01af6608b0c',
    '9584113a7f93', '65ae73c191ce', 'd9bc2b8f9670', '58ab05699242', '2de119349c8e',
    '42cacde187b8', '58f90d6be263', '60e782a1b6e4', '040eea0f918d', '70474ee6330a',
    '6b10eb0be87b', 'd8cfa36f6176', 'f4fb9a5e6c39', 'fa07be65b405', 'eb27c5a08ed5',
    'ea9c79001cbd', '328610b8d543', 'efddbafa3e04', '506505e2478b', 'b972631d375e',
    'e96d82ef64dd', '2ac1ef0bf499', 'ad624e266bc5', '550a12735048', '2e1093c550fd',
]


def test_character_index_order_is_pinned():
    for q, digest in enumerate(_TABLE_DIGESTS, start=1):
        rows = [(c.exponents, c.value_index, c.order, c.conductor, c.parity)
                for c in chars.character_table(q)]
        assert hashlib.sha256(repr(rows).encode()).hexdigest()[:12] == digest, q


def test_character_index_mod_5():
    # one generator, 2 of order 4: index a gives chi(2) = e(a / 4)
    rows = [(c.exponents, c.value_index, c.order, c.conductor, c.parity)
            for c in chars.character_table(5)]
    assert rows == [
        ((0,), (None, 0, 0, 0, 0), 1, 1, 0),
        ((1,), (None, 0, 1, 3, 2), 4, 5, 1),
        ((2,), (None, 0, 2, 2, 0), 2, 5, 0),
        ((3,), (None, 0, 3, 1, 2), 4, 5, 1),
    ]
