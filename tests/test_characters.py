import hashlib
from math import lcm

import pytest

from cyclo_oracle import zeta
from group_oracle import (char_order, char_pow, dlog, from_dlog,
                          power_indices, unit_pow, value_exponent)
from ffrace import polyring
from ffrace.characters import (UnitGroup, all_characters, group_exponent,
                               parse_character, unit_group)
from ffrace.cyclo import CycloNum
from ffrace.errors import UsageError
from ffrace.field import field_make, parse_field
from ffrace.numth import divisors
from ffrace.polyring import Poly, enumerate_monic, format_poly, parse_poly

F2 = field_make(2)
F3 = field_make(3)


def G(field, s):
    return unit_group(parse_poly(field, s))


def value(chi, a):
    """chi(a) as an element of Q(zeta_E)."""
    return zeta(chi.group.exponent, value_exponent(chi, a))


def test_generator_choices_match_reference_moduli():
    g = G(F2, "T^2+T+1")
    assert g.order == 3 and g.is_cyclic
    assert g.generators == (parse_poly(F2, "T"),)

    g = G(F3, "T^2+1")
    assert g.order == 8 and g.is_cyclic
    assert g.generators == (parse_poly(F3, "T+1"),)
    assert g.order_of(parse_poly(F3, "T")) == 4   # T is not a generator

    g = G(F2, "T^2")
    assert g.order == 2
    assert g.generators == (parse_poly(F2, "T+1"),)

    g = G(F2, "T^3+T+1")
    assert g.order == 7
    assert g.generators == (parse_poly(F2, "T"),)
    assert g.order_of(parse_poly(F2, "T")) == 7

    g = G(F3, "T^2")
    assert g.order == 6
    assert g.generators == (parse_poly(F3, "T+2"),)


def test_non_cyclic_group():
    # (T^2+T+1)^2 over F2: order 12, invariant factors (2, 6)
    g = G(F2, "T^4+T^2+1")
    assert g.order == 12
    assert g.gen_orders == (2, 6)
    assert g.exponent == 6
    assert not g.is_cyclic


def test_dlog_roundtrip_and_orders():
    for grp in (G(F2, "T^3+T+1"), G(F3, "T^2+1"), G(F2, "T^4+T^2+1"),
                G(F3, "T^3+2T+2")):
        assert len(grp.dlog_array) == grp.order
        prod = 1
        for d in grp.gen_orders:
            prod *= d
        assert prod == grp.order
        for i, (gen, d) in enumerate(zip(grp.generators, grp.gen_orders)):
            assert grp.order_of(gen) == d
        one = parse_poly(grp.field, "1")
        for u, vec in zip(grp.units, grp.dlog_array.tolist()):
            assert from_dlog(grp, vec) == u
            assert unit_pow(grp, u, grp.exponent) == one
            assert (u * unit_pow(grp, u, -1)) % grp.modulus == one


def test_char_values_reference():
    g = G(F2, "T^2+T+1")
    chi1 = all_characters(g)[1]
    assert value(chi1, parse_poly(F2, "T")) == zeta(3)

    g = G(F3, "T^2+1")
    chi1 = all_characters(g)[1]
    assert value(chi1, parse_poly(F3, "T+1")) == zeta(8)

    g = G(F2, "T^3+T+1")
    chi1 = all_characters(g)[1]
    assert value(chi1, parse_poly(F2, "T")) == zeta(7)

    g = G(F2, "T^2")
    chi1 = all_characters(g)[1]
    assert value(chi1, parse_poly(F2, "T+1")) == -1


def test_trivial_character_and_errors():
    g = G(F3, "T^2")
    chi0 = all_characters(g)[0]
    assert chi0.is_trivial
    for u in g.units:
        assert value(chi0, u) == 1


def test_multiplicativity_exhaustive():
    for grp in (G(F2, "T^2+T+1"), G(F3, "T^2+1"), G(F2, "T^4+T^2+1")):
        assert grp.order <= 64
        for chi in all_characters(grp):
            for a in grp.units:
                for b in grp.units:
                    ab = (a * b) % grp.modulus
                    assert value(chi, ab) == value(chi, a) * value(chi, b)


def test_all_characters_order_and_duality():
    g = G(F3, "T^2+1")
    chars = all_characters(g)
    assert len(chars) == 8
    assert [c.exps for c in chars] == [(k,) for k in range(8)]
    chi1 = chars[1]
    for l in range(8):
        assert char_pow(chi1, l).exps == chars[l].exps
    # chi^{M'} = chi0
    assert char_pow(chi1, g.order).is_trivial
    # exponent divides M', character orders divide E
    for grp in (g, G(F2, "T^4+T^2+1")):
        assert grp.order % grp.exponent == 0
        for chi in all_characters(grp):
            assert grp.exponent % char_order(chi) == 0


def test_orthogonality_both_ways():
    for grp in (G(F2, "T^2+T+1"), G(F3, "T^2+1"), G(F2, "T^4+T^2+1")):
        chars = all_characters(grp)
        E = grp.exponent
        one = parse_poly(grp.field, "1")
        # column: sum_chi chi(b^-1 c) = M' [b == c]
        for b in grp.units:
            for c in grp.units:
                x = (unit_pow(grp, b, -1) * c) % grp.modulus
                total = CycloNum.from_rational(0, E)
                for chi in chars:
                    total = total + value(chi, x)
                assert total == (grp.order if b == c else 0)
        # row: sum_a chi(a) conj(psi(a)) = M' [chi == psi]
        for chi in chars[:4]:
            for psi in chars[:4]:
                total = CycloNum.from_rational(0, E)
                for a in grp.units:
                    total = total + zeta(E, (
                        value_exponent(chi, a) - value_exponent(psi, a)) % E)
                assert total == (grp.order if chi.exps == psi.exps else 0)


def test_character_order_formula():
    g = G(F3, "T^2+1")
    for chi in all_characters(g):
        n = 1
        while not char_pow(chi, n).is_trivial:
            n += 1
        assert char_order(chi) == n


def test_power_indices_match_oracle():
    # the trivial group (T/F2), a split one (T^2+T/F2, also trivial), a
    # non-cyclic one and a cyclic one of order 26
    for grp in (G(F2, "T"), G(F2, "T^2+T"), G(F2, "T^4+T^2+1"),
                G(F3, "T^3+2T+2")):
        for n in range(-grp.exponent, grp.exponent + 1):
            assert (grp.power_index(n).tolist(),
                    grp.character_power_index(n).tolist()) == \
                power_indices(grp, n), (grp, n)


def test_scalar_index_matches_poly_scaling():
    # over prime and extension fields, with a repeated factor (T^2/F5)
    for field, mstr in (("F3", "T^3+2T+2"), ("F4", "T^2+T+2"),
                        ("F5", "T^2"), ("F9", "T^2+1"), ("F2", "T^3+T+1")):
        grp = G(parse_field(field), mstr)
        assert grp.scalar_index.shape == (grp.field.q - 1, grp.order)
        for c in range(1, grp.field.q):
            assert [grp.units[i] for i in grp.scalar_index[c - 1]] == \
                [u.scale(c) for u in grp.units], (field, mstr, c)


def test_parse_character():
    g = G(F3, "T^2+1")
    assert parse_character(g, "3").exps == (3,)
    g2 = G(F2, "T^4+T^2+1")
    assert parse_character(g2, "1,4").exps == (1, 4)
    with pytest.raises(UsageError):
        parse_character(g, "1,0")
    with pytest.raises(UsageError):
        parse_character(g, "x")


# SHA-256 of the canonical text of every unit group in the census below, one
# digest per field, taken from the generator search that stepped each element
# through its powers (quadratic in the group order).  Every monic modulus of
# degree 1..top over F_q is covered: 759 groups, orders up to 127.
CENSUS_DIGESTS = {
    (2, 7): "c7c121a084172804618fef9ce4d7153ef7a282eb908134a8af8baf89b73d7028",
    (3, 4): "94dafa0f842214807f53e72349d8ed2aae7497c1399cd9e490e1bf4b54f49091",
    (4, 3): "7f3bd4396ae2b08231a0bbaccdf66cc7c86e789217862d218f1d2476f5629d81",
    (5, 3): "cc433c6991d9d7edb8702290295b54ed07f16eca1cf902b9fe621d0ed9629d6a",
    (7, 2): "6422ac18cb9411c3b6cd2213ee06797c5c066e2d05b08edd8342a98cfd08b20e",
    (9, 2): "d0e8d898d2994a8909cdd13bda40d4193483ffd6eb356efd023e552aad8fb1b7",
}


def canonical_text(grp):
    """Modulus, generators, invariant factors, then one line per unit in
    encoding order: its encoding and its dlog vector."""
    lines = [format_poly(grp.modulus),
             ";".join(format_poly(g) for g in grp.generators),
             ",".join(map(str, grp.gen_orders))]
    lines += ["%d:%s" % (u.encode(), ",".join(map(str, vec)))
              for u, vec in sorted(zip(grp.units, grp.dlog_array.tolist()),
                                   key=lambda row: row[0].encode())]
    return "\n".join(lines) + "\n"


def exponent_by_powers(grp):
    """lcm of element orders, each found by stepping through its powers; an
    element already met as a power of an earlier one is skipped, as its order
    divides that one's."""
    one = Poly.one(grp.field)
    seen, out = set(), 1
    for u in grp.units:
        if u in seen:
            continue
        x, n = u, 1
        while x != one:
            seen.add(x)
            x = (x * u) % grp.modulus
            n += 1
        out = lcm(out, n)
    return out


def test_unit_group_builds_on_encodings(monkeypatch):
    # a cold build makes fewer Poly than there are units: the units tuple is
    # built on first read, where a class is named
    m = parse_poly(F2, "T^10+T^3+1")
    made = []
    init = Poly.__init__

    def counted(self, field, coeffs):
        made.append(1)
        init(self, field, coeffs)
    monkeypatch.setattr(Poly, "__init__", counted)
    grp = UnitGroup(m)
    assert grp.order == 1023 and len(made) < grp.order
    assert len(grp.units) == grp.order
    assert grp.units == tuple(sorted(grp.units, key=Poly.encode))


def test_cold_unit_group_runs_one_distinct_degree_pass():
    # the group order and the factorization share one cached degree_layers
    m = parse_poly(F2, "T^8+T^4+1")
    polyring.degree_layers.cache_clear()
    polyring.factorize.cache_clear()
    assert UnitGroup(m).gen_orders == (2, 2, 4, 12)
    assert polyring.degree_layers.cache_info().misses == 1


def test_unit_group_census_is_pinned():
    for (q, top), digest in CENSUS_DIGESTS.items():
        field = parse_field("F%d" % q)
        h = hashlib.sha256()
        for deg in range(1, top + 1):
            for m in enumerate_monic(field, deg):
                grp = UnitGroup(m)
                h.update(canonical_text(grp).encode())
                if grp.order <= 64:
                    assert group_exponent(m) == grp.exponent \
                        == exponent_by_powers(grp), format_poly(m)
        assert h.hexdigest() == digest, "F%d" % q


@pytest.mark.parametrize("mstr, factors", [("T^10+T^3+1", (1023,)),
                                           ("T^8+T^4+1", (2, 2, 4, 12))])
def test_dlog_array_matches_oracle(mstr, factors):
    grp = G(F2, mstr)
    assert grp.gen_orders == factors
    assert [dlog(grp, u) for u in grp.units] == \
        [tuple(vec) for vec in grp.dlog_array.tolist()]


def test_has_order_is_exact():
    for grp in (G(F2, "T^4+T^2+1"), G(F2, "T^4"), G(F3, "T^2+1"),
                G(F3, "T^2+2")):
        one = parse_poly(grp.field, "1")
        for u in grp.units:
            n, x = 1, u
            while x != one:
                x = (x * u) % grp.modulus
                n += 1
            for t in divisors(grp.exponent):
                x = grp.ring.digits(u.encode())
                assert grp._has_order(x, t)[0] == (t == n), (u, t)
