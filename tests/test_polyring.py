import random

import pytest

from ffrace.errors import UsageError
from ffrace.field import field_make, parse_field
from ffrace.numth import gauss_irreducible_count
from ffrace.polyring import (Poly, ResidueRing, enumerate_monic, factorize,
                             format_poly, is_irreducible, parse_poly, poly_gcd,
                             powmod)

F2 = field_make(2)
F3 = field_make(3)
F5 = field_make(5)


def P(field, s):
    return parse_poly(field, s)


def test_char2_square():
    assert P(F2, "T+1") ** 2 == P(F2, "T^2+1")


def test_gcd_coprime():
    assert poly_gcd(P(F3, "T^2+1"), P(F3, "T^2")) == Poly.one(F3)


def test_divmod_oracle_and_frozen_value():
    # oracle: quotient*divisor + remainder reassembles, deg r < deg g
    f, g = P(F2, "T^4+T"), P(F2, "T^3+T+1")
    q, r = divmod(f, g)
    assert q * g + r == f and r.degree < g.degree
    assert r == P(F2, "T^2")          # oracle-verified value
    assert P(F2, "T^4") % g == P(F2, "T^2+T")


def test_divmod_random_roundtrip():
    rng = random.Random(7)
    for field in (F2, F3, F5):
        for _ in range(200):
            f = Poly.from_index(field, rng.randrange(1, field.q ** 8))
            g = Poly.from_index(field, rng.randrange(field.q, field.q ** 5))
            q, r = divmod(f, g)
            assert q * g + r == f
            assert r.degree < g.degree


def test_is_irreducible_reference_cases():
    assert is_irreducible(P(F2, "T^2+T+1"))
    assert is_irreducible(P(F3, "T^2+1"))
    assert not is_irreducible(P(F2, "T^2+1"))    # (T+1)^2
    # Artin-Schreier T^p - T - a, a != 0
    for p in (3, 5, 7):
        Fp = field_make(p)
        for a in range(1, p):
            coeffs = [(-a) % p, p - 1] + [0] * (p - 2) + [1]
            assert is_irreducible(Poly(Fp, coeffs))


def test_is_irreducible_vs_trial_division():
    # brute-force oracle: no monic divisor of degree <= n/2
    def trial(f):
        for d in range(1, f.degree // 2 + 1):
            for g in enumerate_monic(f.field, d):
                if (f % g).is_zero:
                    return False
        return True

    for N in range(1, 9):
        for f in enumerate_monic(F2, N):
            assert is_irreducible(f) == trial(f)
    for N in range(1, 6):
        for f in enumerate_monic(F3, N):
            assert is_irreducible(f) == trial(f)


def test_is_irreducible_errors():
    with pytest.raises(UsageError):
        is_irreducible(P(F3, "2*T+1"))  # not monic
    with pytest.raises(UsageError):
        is_irreducible(P(F2, "1"))      # constant


def test_factorize_cases():
    f = factorize(P(F3, "T^2"))
    assert f.factors == ((P(F3, "T"), 2),)
    f = factorize(P(F2, "T^3+T+1"))
    assert f.factors == ((P(F2, "T^3+T+1"), 1),)
    f = factorize(P(F2, "T^4+T^2"))
    assert f.factors == ((P(F2, "T"), 2), (P(F2, "T+1"), 2))


def test_factorize_random_products():
    rng = random.Random(11)
    irred2 = [f for f in enumerate_monic(F2, 1)] + \
             [f for n in (2, 3) for f in enumerate_monic(F2, n)
              if is_irreducible(f)]
    for _ in range(40):
        parts = rng.choices(irred2, k=rng.randrange(1, 4))
        prod = Poly.one(F2)
        for p in parts:
            prod = prod * p
        fact = factorize(prod)
        assert fact.reassemble(F2) == prod
        for p, _e in fact.factors:
            assert is_irreducible(p)


def test_enumerate_monic():
    assert [format_poly(f) for f in enumerate_monic(F2, 1)] == ["T", "T+1"]
    assert [format_poly(f) for f in enumerate_monic(F3, 1)] == \
        ["T", "T+1", "T+2"]
    deg3 = list(enumerate_monic(F2, 3))
    assert len(deg3) == 8
    assert sum(1 for f in deg3 if is_irreducible(f)) == 2  # Gauss: (8-2)/3
    # encoding order is strictly increasing
    encs = [f.encode() for f in deg3]
    assert encs == sorted(encs)


def test_gauss_counts_per_poly_loop():
    # enumerate + is_irreducible agrees with the closed form (reduced bounds;
    # the sieve covers the full spec bounds in test_sieve/test_acceptance)
    for field, top in ((F2, 11), (F3, 6), (F5, 4)):
        for N in range(1, top + 1):
            got = sum(1 for f in enumerate_monic(field, N)
                      if is_irreducible(f))
            assert got == gauss_irreducible_count(field.q, N)


def test_is_irreducible_matches_sieve_membership_at_full_bounds():
    import numpy as np
    from ffrace.sieve import default_cutoff, irreducible_indices
    rng = random.Random(3)
    # F_2, F_3, F_5 at the top two test bounds; every other characteristic
    # shape at the sieve's default cutoff: F_4, F_8 (p = 2, k > 1), F_7,
    # F_13 (odd prime fields), F_9 (odd p, k = 2)
    cases = [(F2, 15), (F2, 16), (F3, 9), (F3, 10), (F5, 6), (F5, 7)]
    for name in ("F4", "F7", "F8", "F9", "F13"):
        field = parse_field(name)
        cases.append((field, default_cutoff(field.q)))
    for field, N in cases:
        members = irreducible_indices(field, N)
        base = field.q ** N
        for _ in range(300):
            idx = base + rng.randrange(base)
            f = Poly.from_index(field, idx)
            pos = np.searchsorted(members, idx)
            found = pos < len(members) and members[pos] == idx
            assert is_irreducible(f) == found, (field, idx)


def test_degree_multiplicativity_and_lc():
    rng = random.Random(5)
    for _ in range(100):
        f = Poly.from_index(F3, rng.randrange(3, 3 ** 6))
        g = Poly.from_index(F3, rng.randrange(3, 3 ** 6))
        assert (f * g).degree == f.degree + g.degree
    assert Poly.zero(F3).degree == -1


def test_parse_format_roundtrip():
    assert format_poly(P(F2, "T^3+T+1")) == "T^3+T+1"
    assert format_poly(P(F3, "2*T+1")) == "2*T+1"
    assert format_poly(P(F3, "4*T+5")) == "T+2"  # coefficients reduced mod p
    assert format_poly(Poly.zero(F3)) == "0"
    rng = random.Random(13)
    for field in (F2, F3, parse_field("F4")):
        for _ in range(100):
            f = Poly.from_index(field, rng.randrange(0, field.q ** 6))
            assert parse_poly(field, format_poly(f)) == f
    with pytest.raises(UsageError):
        parse_poly(F2, "T^-1")
    with pytest.raises(UsageError):
        parse_poly(F2, "x+1")


def test_field_mismatch():
    with pytest.raises(UsageError):
        P(F2, "T") + P(F3, "T")


# moduli over F2 to F27: nine with a repeated factor (such as T^5,
# (T^2+T+1)^2 and (T+1)^2 (T+2) over F3), two irreducible, two split
RING_MODULI = [("F2", "T^5"), ("F2", "T^4+T^2+1"), ("F2", "T^10+T^3+1"),
               ("F3", "T^3+2*T+2"), ("F3", "T^3+T^2+2*T+2"), ("F4", "T^3"),
               ("F4", "T^4+T^2"), ("F5", "T^3+3*T^2+3*T+1"), ("F8", "T^2+3"),
               ("F9", "T^3+5*T+1"), ("F16", "T^2+T+7"), ("F25", "T^2"),
               ("F27", "T^2+T+1")]


@pytest.mark.parametrize("field, mstr", RING_MODULI)
def test_residue_ring_matches_poly_products(field, mstr):
    F = parse_field(field)
    m = P(F, mstr)
    ring = ResidueRing(m)
    rng = random.Random(mstr)
    size = F.q ** m.degree
    a = [rng.randrange(size) for _ in range(200)]
    b = [rng.randrange(size) for _ in range(200)]
    polys = [Poly.from_index(F, x) for x in a]
    assert ring.codes(ring.digits(a)).tolist() == a
    want = [(f * Poly.from_index(F, y) % m).encode() for f, y in zip(polys, b)]
    assert ring.codes(ring.mul(ring.digits(a), ring.digits(b))).tolist() == want
    for y in b[:5]:
        x = Poly.from_index(F, y)
        assert ring.codes(ring.times(ring.digits(a), ring.digits(y))).tolist() \
            == [(f * x % m).encode() for f in polys]
    for e in (0, 1, 2, 7, F.q ** m.degree + 3):
        assert ring.codes(ring.pow(ring.digits(a[:20]), e)).tolist() == \
            [powmod(f, e, m).encode() for f in polys[:20]]
