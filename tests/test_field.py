import pytest

from ffrace.errors import UsageError
from ffrace.field import field_make, parse_field


def test_f2_basics():
    F = field_make(2)
    assert F.q == 2
    assert F.add(1, 1) == 0


def test_f3_basics():
    F = field_make(3)
    assert F.mul(2, 2) == 1


def test_f4_canonical_modulus_and_unit_orders():
    F = field_make(2, 2)
    # canonical modulus x^2 + x + 1
    assert F.modulus_poly == (1, 1, 1)
    # exhaustive check of the 4-element tables: the two non-identity units
    # have multiplicative order 3
    for g in (2, 3):
        assert F.mul(g, g) != 1
        assert F.mul(F.mul(g, g), g) == 1
        assert F.mult_order(g) == 3


def test_f4_lagrange_every_unit_cubed_is_one():
    F = field_make(2, 2)
    for g in F.units():
        assert F.pow(g, 3) == 1


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3),
                                 (3, 2), (7, 1), (2, 4), (2, 6), (3, 3)])
def test_field_axioms_and_frobenius(p, k):
    F = field_make(p, k)
    q = F.q
    els = list(F.elements())
    for a in els:
        assert F.pow(a, q) == a, "a^q != a"
        if a:
            assert F.mul(a, F.inv(a)) == 1
        for b in els:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            # Frobenius additivity
            assert F.pow(F.add(a, b), p) == F.add(F.pow(a, p), F.pow(b, p))
    # spot associativity/distributivity on a deterministic slice
    sl = els[: min(len(els), 8)]
    for a in sl:
        for b in sl:
            for c in sl:
                assert F.mul(a, F.mul(b, c)) == F.mul(F.mul(a, b), c)
                assert F.add(a, F.add(b, c)) == F.add(F.add(a, b), c)
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_division():
    F = field_make(5)
    for a in F.elements():
        for b in F.units():
            assert F.mul(F.div(a, b), b) == a
    with pytest.raises(ZeroDivisionError):
        F.div(1, 0)


def test_errors():
    with pytest.raises(UsageError):
        field_make(4)          # composite p
    with pytest.raises(UsageError):
        field_make(2, 9)       # q over bound
    with pytest.raises(UsageError):
        parse_field("F6")      # not a prime power
    with pytest.raises(UsageError):
        parse_field("G2")


def test_parse_field():
    assert parse_field("F2").q == 2
    assert parse_field("F4").modulus_poly == (1, 1, 1)
    assert parse_field("F9").q == 9
    assert parse_field("F8").modulus_poly == (1, 1, 0, 1)  # x^3+x+1
    assert repr(parse_field("F27")) == "F27"
