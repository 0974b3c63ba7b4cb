import hashlib

import pytest

from ffrace.errors import UsageError
from ffrace.field import field_make, parse_field

# SHA-256 of repr((modulus_poly, _add, _mul, _neg, _inv)) for every extension
# field q = p^k <= 256, k > 1, captured from an independent F_p[x] with
# trial-division irreducibility, so any change to a table or modulus shows.
TABLE_SHA256 = {
    4: "694b96b33000769c2ecf1058600cb7c31f773e13f53dfdf3750d72ca80d599e5",
    8: "f3a40bfb3797bfa794a7057fb37e0aae580c37d1821ca96adef208af92138942",
    9: "71c9c180ccdf33d44044720157cb7abe7aac721e5c67506ee783caa4e07e16e3",
    16: "dab312d4154188bec60c97d557bc18f6f9e40a76bfe958c2334a73225374d3a6",
    25: "b36429c04fc6a01949a57537afd546485d6789b4fb85a35409164bf4f3e354f7",
    27: "e2c3be882599cc8d17669e51254d2da112b4dae089becdb8593f0efaaa267bc9",
    32: "b3fed154037ea3fdca7d1c587de88ceb8f5a0926fb42f8392fa8eeff5890c8f6",
    49: "64ee715e67855ff96973dd83f36ec22700121e1fb29657b8339ada1c34e35689",
    64: "3832b9ea497be3a207bfc093dec77508649b94a0b916623331b1a335ac82a037",
    81: "8206e6930332f5539182258ca4fe93a4ed2d769fe22c78973b3eeab9939f5d12",
    121: "be2f7e5036d33ad8f046c77e7b2b89f1eeae842cfd79ca7ed7542114846bfe4d",
    125: "816c62d91125e8a3207a1221c8a9e828febb50dc8a9bf8dcd06e9de25a6bd459",
    128: "b504d938be6fad60a231a10a2e4df508f319a080f34f804550773b1a90326cc5",
    169: "8eacce14abf7ebd6ec21ea141217e7239fdf1c5474e22a84b7c83a096e33496a",
    243: "1940a2c653a619a0a7cb3eed546a8fef092c390cd78f9a14b57d5f418858d416",
    256: "1285d55f365edd936f0168c9f4ee7228d547ea99277015615f1dcdce569c8562",
}


def fpow(F, a, n):
    """a^n in F by repeated multiplication, n >= 0."""
    out = 1
    for _ in range(n):
        out = F.mul(out, a)
    return out


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
    for g in range(1, F.q):
        assert fpow(F, g, 3) == 1


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3),
                                 (3, 2), (7, 1), (2, 4), (2, 6), (3, 3)])
def test_field_axioms_and_frobenius(p, k):
    F = field_make(p, k)
    q = F.q
    els = list(range(q))
    for a in els:
        assert fpow(F, a, q) == a, "a^q != a"
        if a:
            assert F.mul(a, F.inv(a)) == 1
        for b in els:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            # Frobenius additivity
            assert fpow(F, F.add(a, b), p) == \
                F.add(fpow(F, a, p), fpow(F, b, p))
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
    for a in range(F.q):
        for b in range(1, F.q):
            assert F.mul(F.mul(a, F.inv(b)), b) == a
    with pytest.raises(ZeroDivisionError):
        F.mul(1, F.inv(0))


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


def test_extension_tables_are_pinned():
    for q, digest in TABLE_SHA256.items():
        F = parse_field("F%d" % q)
        assert F.k > 1
        text = repr((F.modulus_poly, F._add, F._mul, F._neg, F._inv))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, q
