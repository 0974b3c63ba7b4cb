import random
from fractions import Fraction
from math import gcd

import pytest

from cyclo_oracle import (from_json, galois, inverse, is_rational, power,
                         rational_value, trace, zeta, zeta_multiples)
from ffrace.cyclo import CycloNum, cyclotomic_poly
from ffrace.errors import UsageError
from ffrace.numth import euler_phi


def alpha7():
    # z^2 + z^4 + z^5 + z^6 in Q(zeta_7)
    return zeta(7, 2) + zeta(7, 4) + zeta(7, 5) + zeta(7, 6)


def alpha8():
    return zeta(8, 2) + zeta(8, 3) + zeta(8, 5)


def sqrt_minus3():
    # 2*zeta_6 - 1
    return zeta(6) * 2 - 1


def test_cyclotomic_polys():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(7) == (1,) * 7
    assert cyclotomic_poly(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)
    for E in range(1, 40):
        assert len(cyclotomic_poly(E)) == euler_phi(E) + 1


def test_phi3_relation():
    assert zeta(3) + zeta(3, 2) == -1
    assert zeta(3) + zeta(3, 2) == CycloNum.from_rational(-1, 3)


def test_zeta_power_identity():
    for E in (3, 4, 6, 7, 8, 12, 26):
        assert power(zeta(E), E) == 1
        assert power(zeta(E), E + 3) == zeta(E, 3)


def test_alpha7_norm_is_two():
    a = alpha7()
    assert a == -1 - zeta(7) - zeta(7, 3)       # the stated rewriting
    assert a * galois(a, -1) == 2               # |alpha|^2 = 2


def test_alpha8_norm_is_three():
    a = alpha8()
    assert a * galois(a, -1) == 3               # |alpha|^2 = 3


def test_galois_examples():
    a7 = alpha7()
    assert galois(a7, 2) == zeta(7, -1 % 7) * a7      # sigma_2 = z^-1 *
    assert galois(a7, 4) == zeta(7, -3 % 7) * a7
    a8 = alpha8()
    assert galois(a8, 3) == -a8                       # z8^-4 = -1
    x = sqrt_minus3()
    assert galois(x, 5) == -x
    assert galois(x, 5) == zeta(6, 3) * x
    assert x * x == -3
    # sigma_1 identity
    for v in (a7, a8, x):
        assert galois(v, 1) == v
    with pytest.raises(UsageError):
        galois(zeta(8), 2)


def test_galois_is_ring_hom_and_composes():
    rng = random.Random(2)
    for E in (7, 8, 12):
        ls = [l for l in range(1, E) if gcd(l, E) == 1]
        for _ in range(25):
            x = CycloNum(E, [rng.randrange(-5, 6)
                             for _ in range(euler_phi(E))], rng.randrange(1, 4))
            y = CycloNum(E, [rng.randrange(-5, 6)
                             for _ in range(euler_phi(E))], 1)
            l = rng.choice(ls)
            k = rng.choice(ls)
            assert galois(x + y, l) == galois(x, l) + galois(y, l)
            assert galois(x * y, l) == galois(x, l) * galois(y, l)
            assert galois(galois(x, k), l) == galois(x, (l * k) % E)


def test_zeta_multiples_are_products():
    rng = random.Random(3)
    for E in (1, 2, 7, 12, 63):
        x = CycloNum(E, [rng.randrange(-9, 10) for _ in range(euler_phi(E))],
                     rng.randrange(1, 4))
        assert zeta_multiples(x) == [zeta(E, j) * x for j in range(E)]


def galois_sum(x):
    """Tr x by its definition: the sum of all Galois images."""
    total = CycloNum.from_rational(0, x.E)
    for l in range(1, x.E + 1):
        if gcd(l, x.E) == 1:
            total = total + galois(x, l)
    assert is_rational(total)
    return rational_value(total)


def test_traces():
    assert trace(zeta(7)) == -1
    assert trace(CycloNum.from_rational(1, 7)) == euler_phi(7)
    assert trace(sqrt_minus3()) == 0
    x = CycloNum.from_rational(5, 8)
    assert (trace(x), is_rational(x), rational_value(x)) == \
        (5 * euler_phi(8), True, 5)
    # Q-linearity and Galois invariance
    rng = random.Random(4)
    for _ in range(20):
        x = CycloNum(12, [rng.randrange(-4, 5) for _ in range(4)], 1)
        y = CycloNum(12, [rng.randrange(-4, 5) for _ in range(4)], 3)
        assert trace(x + y) == trace(x) + trace(y)
        assert trace(galois(x, 5)) == trace(x)
    # the Ramanujan-sum trace equals the sum of the Galois images
    for E in (12, 15, 63):
        for _ in range(5):
            x = CycloNum(E, [rng.randrange(-9, 10)
                             for _ in range(euler_phi(E))], rng.randrange(1, 6))
            assert trace(x) == galois_sum(x)


def test_exactness_vs_inverse():
    rng = random.Random(9)
    for E in (5, 7, 8, 12, 15, 21, 63):
        phi = euler_phi(E)
        for _ in range(15 if E < 63 else 3):
            x = CycloNum(E, [rng.randrange(-6, 7) for _ in range(phi)],
                         rng.randrange(1, 5))
            y = CycloNum(E, [rng.randrange(-6, 7) for _ in range(phi)], 1)
            assert (x + y) - y == x
            if not y.is_zero:
                assert (x * y) * inverse(y) == x
                assert y * inverse(y) == 1
        with pytest.raises(ZeroDivisionError):
            inverse(CycloNum.from_rational(0, E))


ORACLE_CONDUCTORS = tuple(range(1, 41)) + (63, 124, 127, 242, 255)


def reduce_by_division(E, vec):
    """sum vec[i] x^i mod Phi_E by long division (the reduction oracle)."""
    Phi = cyclotomic_poly(E)
    phi = len(Phi) - 1
    rem = list(vec)
    for i in range(len(rem) - 1, phi - 1, -1):
        c = rem[i]
        if c:
            for j in range(phi + 1):
                rem[i - phi + j] -= c * Phi[j]
    return tuple((rem + [0] * phi)[:phi])


def oracle(E, vec, den=1):
    return CycloNum(E, reduce_by_division(E, vec), den)


def test_reduction_matches_long_division():
    rng = random.Random(11)
    for E in ORACLE_CONDUCTORS:
        phi = euler_phi(E)
        units = [l for l in range(1, E + 1) if gcd(l, E) == 1]
        for t in range(E):
            assert zeta(E, t) == oracle(E, [0] * t + [1])
        for _ in range(3):
            w = [rng.randrange(-9, 10) for _ in range(E)]
            assert CycloNum.from_zeta_powers(E, w) == oracle(E, w)
            x = CycloNum(E, [rng.randrange(-9, 10) for _ in range(phi)],
                         rng.randrange(1, 4))
            for l in rng.sample(units, min(4, len(units))):
                image = [0] * E                 # zeta^i -> zeta^(il mod E)
                for i, c in enumerate(x.nums):
                    image[(i * l) % E] = c
                assert galois(x, l) == oracle(E, image, x.den)
            y = CycloNum(E, [rng.randrange(-9, 10) for _ in range(phi)])
            conv = [0] * (2 * phi - 1)
            for i, a in enumerate(x.nums):
                for j, b in enumerate(y.nums):
                    conv[i + j] += a * b
            assert x * y == oracle(E, conv, x.den)


def test_embeddings():
    assert abs(zeta(4).embed() - 1j) < 1e-12
    assert abs(abs(alpha7().embed()) - 2 ** 0.5) < 1e-9
    assert abs(abs(alpha8().embed()) - 3 ** 0.5) < 1e-9
    assert abs(alpha8().embed() - (-2 ** 0.5 + 1j)) < 1e-9


def test_mixed_conductors_are_refused():
    # an int or a Fraction is an element of the CycloNum's own field
    assert CycloNum.from_rational(Fraction(3, 2), 6) == Fraction(3, 2)
    assert zeta(6) + Fraction(1, 2) - 1 == zeta(6) - Fraction(1, 2)
    assert 2 - zeta(6) * 3 == -(zeta(6) * 3 - 2)
    # zeta_6^2 = zeta_3, but a CycloNum belongs to one conductor
    for a, b in ((zeta(6, 2), zeta(3)), (zeta(4), zeta(12, 3)),
                 (CycloNum.from_rational(1, 1), zeta(2))):
        for combine in (lambda x, y: x + y, lambda x, y: x - y,
                        lambda x, y: x * y, lambda x, y: x == y):
            with pytest.raises(UsageError, match="Q\\(zeta_"):
                combine(a, b)
            with pytest.raises(UsageError, match="Q\\(zeta_"):
                combine(b, a)


def test_scalar_and_rational_checks():
    x = zeta(8) * Fraction(2, 3)
    assert x.coeffs == (0, Fraction(2, 3), 0, 0)
    v = zeta(5) + zeta(5, 2) + zeta(5, 3) + zeta(5, 4)
    assert is_rational(v) and rational_value(v) == -1
    assert not is_rational(zeta(5))


def test_json_roundtrip():
    a = alpha7() * Fraction(1, 3)
    obj = a.to_json()
    assert obj["E"] == 7 and len(obj["coeffs"]) == 6
    assert from_json(obj) == a
    # the documented serialization example: -1 - z - z^3 at E=7
    b = from_json({"E": 7, "coeffs": ["-1", "-1", "0", "-1", "0", "0"]})
    assert b == alpha7()
