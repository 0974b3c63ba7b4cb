import pytest

from cyclo_oracle import from_json, galois, zeta
from group_oracle import char_pow
from lpoly_oracle import character_sums
from newton_oracle import power_sum_mismatch, verify_power_sums_vs_sieve
from relations_oracle import conjugate_relations, strip_unit_roots
from sieve_oracle import weighted_count
from ffrace import cyclo, explicit
from ffrace.characters import Character, UnitGroup, all_characters, unit_group
from ffrace.cyclo import CycloNum
from ffrace.errors import IntegrityError, UsageError
from ffrace.field import field_make, parse_field
from ffrace.lfunc import (LPolynomial, find_conjugate_relations, l_polynomial,
                          power_sums, weil_bound_violations)
from ffrace.numth import divisors
from ffrace.polyring import parse_poly
from ffrace.explicit import s_value
from ffrace.polyring import factorize

F2 = field_make(2)
F3 = field_make(3)


def P(field, s):
    return parse_poly(field, s)


def chars_of(field, mstr):
    return parse_poly(field, mstr), all_characters(unit_group(parse_poly(field, mstr)))


def z(E, t=1):
    return zeta(E, t)


def test_lpoly_T2T1():
    m, chars = chars_of(F2, "T^2+T+1")
    for chi in chars[1:]:
        L = l_polynomial(m, chi)
        assert L.degree == 1
        assert L.coeffs[0] == 1 and L.coeffs[1] == -1     # 1 - u
        assert power_sums(L, 5) == [-1] * 5               # c_n = -1


def test_lpoly_T3T1():
    m, chars = chars_of(F2, "T^3+T+1")
    L = l_polynomial(m, chars[1])
    alpha = z(7, 2) + z(7, 4) + z(7, 5) + z(7, 6)
    # (1-u)(1-alpha u) = 1 - (1+alpha) u + alpha u^2
    assert L.degree == 2
    assert L.coeffs[1] == -(1 + alpha)
    assert L.coeffs[2] == alpha


def test_lpoly_p3T2():
    m, chars = chars_of(F3, "T^2")
    sqrt_m3 = 2 * z(6) - 1
    expected = {1: (1, sqrt_m3), 2: (1, -1), 3: (1,), 4: (1, -1),
                5: (1, -sqrt_m3)}
    for l, coeffs in expected.items():
        L = l_polynomial(m, chars[l])
        assert len(L.coeffs) == len(coeffs)
        for got, want in zip(L.coeffs, coeffs):
            assert got == want
    # 1 + sqrt(-3) u literally
    assert l_polynomial(m, chars[1]).coeffs[1] == from_json(
        {"E": 6, "coeffs": ["-1", "2"]})


def test_lpoly_p3T21():
    m, chars = chars_of(F3, "T^2+1")
    alpha = z(8, 2) + z(8, 3) + z(8, 5)
    for l in range(1, 8):
        L = l_polynomial(m, chars[l])
        if l % 2 == 0:
            assert L.coeffs == (CycloNum.from_rational(1, 8),
                                L.coeffs[1]) and L.coeffs[1] == -1
        else:
            assert L.coeffs[1] == -galois(alpha, l)


def test_lpoly_rejects_trivial():
    m, chars = chars_of(F2, "T^2+T+1")
    with pytest.raises(UsageError):
        l_polynomial(m, chars[0])


def test_degree_bound_and_a0():
    for field, mstr in ((F2, "T^3+T+1"), (F3, "T^2+1"), (F3, "T^3+2T+2"),
                        (F2, "T^4+T^2+1")):
        m = parse_poly(field, mstr)
        for chi in all_characters(unit_group(m))[1:]:
            L = l_polynomial(m, chi)
            assert L.coeffs[0] == 1
            assert L.degree <= m.degree - 1


def test_power_sums_trivial_poly():
    m, chars = chars_of(F3, "T^2")
    L3 = l_polynomial(m, chars[3])     # L = 1
    assert L3.degree == 0
    assert power_sums(L3, 6) == [0] * 6


def test_power_sums_direct_expansion():
    # L = (1-u)(1-alpha u): c_1 = -(1+alpha), c_2 = -(1+alpha^2)
    m, chars = chars_of(F2, "T^3+T+1")
    L = l_polynomial(m, chars[1])
    alpha = z(7, 2) + z(7, 4) + z(7, 5) + z(7, 6)
    c1, c2 = power_sums(L, 2)
    assert c1 == -(1 + alpha)
    assert c2 == -(1 + alpha * alpha)


def test_power_sums_horizon_consistency_and_integrality():
    m, chars = chars_of(F3, "T^2+1")
    L = l_polynomial(m, chars[1])
    short = power_sums(L, 6)
    L2 = l_polynomial(m, chars[1])
    long = power_sums(L2, 15)
    assert long[:6] == short
    for c in long:
        assert all(f.denominator == 1 for f in c.coeffs)  # algebraic integers
    with pytest.raises(UsageError):
        L2.power_sum(0)     # not p_15 from the end of the cache


def test_newton_vs_sieve_eq9():
    m, chars = chars_of(F2, "T^2+T+1")
    assert verify_power_sums_vs_sieve(m, chars[1], 10)
    m, chars = chars_of(F3, "T^2+1")
    for chi in chars[1:]:
        assert power_sum_mismatch(m, chi, 8) is None
    with pytest.raises(UsageError):
        verify_power_sums_vs_sieve(m, chars[0], 4)


def test_trivial_character_divisor_identity():
    # sum_{d|n} d A_chi0(d) = q^n - s_{m,n}
    for field, mstr in ((F2, "T^3+T+1"), (F3, "T^2"), (F3, "T^2+1")):
        m = parse_poly(field, mstr)
        chi0 = all_characters(unit_group(m))[0]
        fact = factorize(m)
        for n in range(1, 9):
            lhs = CycloNum.from_rational(0, chi0.group.exponent)
            for d in divisors(n):
                lhs = lhs + weighted_count(m, char_pow(chi0, n // d), d) * d
            assert lhs == field.q ** n - s_value(fact, n)


def test_degree_M_coefficient_vanishes():
    # equidistribution at degree M: already asserted inside l_polynomial;
    # reaching here without IntegrityError is the check
    for field, mstr in ((F2, "T^3+T+1"), (F3, "T^3+2T+2")):
        m = parse_poly(field, mstr)
        for chi in all_characters(unit_group(m))[1:]:
            l_polynomial(m, chi)


# prime fields, F4 and F9; cyclic and non-cyclic groups (T^4+T^2+1, T^4 and
# T^8+T^4+1 over F2, T^2+2 over F3, T^2 over F4); repeated factors
ORACLE_MODULI = (
    (2, "T^2+T+1"), (2, "T^2"), (2, "T^3+T+1"), (2, "T^4+T^2+1"), (2, "T^4"),
    (2, "T^5+T^2+1"), (2, "T^6+T^3+T"), (2, "T^8+T^4+1"),
    (3, "T^2+1"), (3, "T^2"), (3, "T^2+2"), (3, "T^3+2T+2"), (3, "T^4+T+2"),
    (4, "T^2+T+2"), (4, "T^2"), (4, "T^3+T+1"),
    (5, "T^2+2"), (5, "T^3+T+1"), (7, "T^2+1"), (9, "T^2+T+3"), (9, "T^2+1"),
)


def test_l_polynomial_matches_per_polynomial_tally():
    for q, mstr in ORACLE_MODULI:
        m = parse_poly(parse_field("F%d" % q), mstr)
        for chi in all_characters(unit_group(m))[1:]:
            sums = character_sums(m, chi)
            assert sums[-1].is_zero, (mstr, chi)
            assert l_polynomial(m, chi).coeffs == \
                LPolynomial(chi, sums[:-1]).coeffs, (q, mstr, chi)


def test_corrupted_dlog_array_raises_integrity_error():
    # a fresh group with a writable copy, so the cached one stays intact;
    # row 0 is the class of 1, so corrupting it breaks a_0 = 1, and any other
    # row the vanishing sum
    m = P(F2, "T^3+T+1")
    with pytest.raises(ValueError):
        unit_group(m).dlog_array[0, 0] = 1
    for row, message in ((0, "a_0 != 1"), (3, "does not vanish")):
        G = UnitGroup(m)
        G.dlog_array = G.dlog_array.copy()
        G.dlog_array[row, 0] = (G.dlog_array[row, 0] + 1) % G.gen_orders[0]
        with pytest.raises(IntegrityError, match=message):
            l_polynomial(m, Character(G, (1,)))


def test_weil_bound_all_reference_moduli():
    for field, mstr in ((F2, "T^2"), (F2, "T^2+T+1"), (F2, "T^3+T+1"),
                        (F3, "T^2"), (F3, "T^2+1"), (F3, "T^3+2T+2")):
        m = parse_poly(field, mstr)
        for chi in all_characters(unit_group(m))[1:]:
            assert weil_bound_violations(l_polynomial(m, chi)) == []


def test_strip_unit_roots():
    m, chars = chars_of(F2, "T^3+T+1")
    L = l_polynomial(m, chars[1])
    k, stripped = strip_unit_roots(L)
    assert k == 1 and stripped.degree == 1
    alpha = z(7, 2) + z(7, 4) + z(7, 5) + z(7, 6)
    assert stripped.power_sum(1) == alpha
    # 1 - u strips to the empty product
    m2, chars2 = chars_of(F2, "T^2+T+1")
    k2, s2 = strip_unit_roots(l_polynomial(m2, chars2[1]))
    assert k2 == 1 and s2.degree == 0


def test_conjugate_relations_reference():
    # T^3+T+1/F2: sigma_2(alpha) = zeta_7^-1 alpha, sigma_4 = zeta_7^-3 alpha
    m = P(F2, "T^3+T+1")
    rels = {(r.chi.label(), r.other.label(), r.l, r.t, r.stripped)
            for r in find_conjugate_relations(m)}
    assert ("1", "1", 2, 6, True) in rels
    assert ("1", "1", 4, 4, True) in rels
    # T^2+1/F3: sigma_3(alpha) = zeta_8^4 alpha
    m = P(F3, "T^2+1")
    rels = {(r.chi.label(), r.other.label(), r.l, r.t, r.stripped)
            for r in find_conjugate_relations(m)}
    assert ("1", "1", 3, 4, False) in rels
    # T^2/F3: sigma_5(sqrt(-3)) = zeta_6^3 sqrt(-3)
    m = P(F3, "T^2")
    rels = {(r.chi.label(), r.other.label(), r.l, r.t, r.stripped)
            for r in find_conjugate_relations(m)}
    assert ("1", "1", 5, 3, False) in rels


def test_conjugate_relations_include_galois_equivariance():
    # sigma_l(roots of chi) = roots of chi^l, i.e. (chi, chi^l, l, t=0)
    m = P(F3, "T^2+1")
    G = unit_group(m)
    rels = {(r.chi.label(), r.other.label(), r.l, r.t)
            for r in find_conjugate_relations(m) if not r.stripped}
    chars = all_characters(G)
    for l in (1, 3, 5, 7):
        for k in (1, 3, 5, 7):   # the degree-1 characters
            assert (str(k), str((k * l) % 8), l, 0) in rels


# the moduli of the relations goldens, the paper's three, and groups with
# repeated and non-cyclic factors over F2, F3 and F5 (exponents up to 80)
RELATION_MODULI = [
    ("F2", "T^4+T+1"), ("F2", "T^6+T^2+1"), ("F4", "T^2+T+2"),
    ("F2", "T^3+T+1"), ("F3", "T^2+1"), ("F3", "T^2"),
    ("F2", "T^6+T+1"), ("F3", "T^4+T+2"), ("F5", "T^2+2"), ("F2", "T^5"),
    ("F3", "T^3"), ("F2", "T^2+T"), ("F2", "T"),
]


def relation_rows(rels):
    return [r.to_json() for r in rels]


@pytest.mark.parametrize("field, mstr", RELATION_MODULI)
def test_relations_match_oracle(field, mstr):
    m = P(parse_field(field), mstr)
    assert relation_rows(find_conjugate_relations(m)) == \
        relation_rows(conjugate_relations(m))


def test_relations_build_no_cyclotomic_number(monkeypatch):
    # a fresh counter on a modulus no other test uses, so nothing in
    # Q(zeta_E) is cached: the search must not construct any
    m = P(F2, "T^5+T^3+1")
    want = relation_rows(conjugate_relations(m))
    assert any(r["stripped"] for r in want)

    def refuse(*args, **kwargs):
        raise AssertionError("CycloNum built")

    monkeypatch.setattr(cyclo.CycloNum, "__init__", refuse)
    explicit.explicit_counter.cache_clear()
    assert relation_rows(find_conjugate_relations(m)) == want


@pytest.fixture
def fresh_counters():
    """No cached counter before the test, and none it built after it: the
    counter built under a patch is not left for the tests that follow."""
    explicit.explicit_counter.cache_clear()
    yield
    explicit.explicit_counter.cache_clear()


def test_relations_refuse_a_split_prime_below_the_bound(monkeypatch,
                                                      fresh_counters):
    # E = 63, d = 5: the tests are exact for ell^2 > 4^6 2^5, ell > 362; with
    # 7-bit split primes the counter's first is 127
    monkeypatch.setattr(explicit, "PRIME_BITS", 7)
    monkeypatch.setitem(explicit._split, 63, [])
    m = P(F2, "T^6+T+1")
    assert explicit.explicit_counter(m)._rows(0)[0].tolist() == [[127]]
    with pytest.raises(IntegrityError, match="below the bound"):
        find_conjugate_relations(m)
