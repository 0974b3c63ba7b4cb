import random
from itertools import product

import pytest

from ffrace import gl2
from ffrace.characters import unit_group
from ffrace.errors import IntegrityError, UsageError
from ffrace.explicit import ExplicitCounter
from ffrace.field import field_make, parse_field
from ffrace.gl2 import (Mat2, all_invertible, certify_ties,
                        first_failed_certificate, slash_action,
                        stabilizer_period, stabilizer_search,
                        verify_certificate_empirically)
from ffrace.limits import MAX_GROUP_ORDER
from ffrace.polyring import Poly, enumerate_monic, format_poly, is_irreducible, \
    parse_poly
from ffrace.sieve import irreducible_indices

from slash_oracle import slash_action_by_power_list

F2 = field_make(2)
F3 = field_make(3)
F5 = field_make(5)


def P(field, s):
    return parse_poly(field, s)


def names(polys):
    return [format_poly(c) for c in polys]


def mat_mul(A, B):
    F = A.field
    return Mat2(F, F.add(F.mul(A.a, B.a), F.mul(A.b, B.c)),
                F.add(F.mul(A.a, B.b), F.mul(A.b, B.d)),
                F.add(F.mul(A.c, B.a), F.mul(A.d, B.c)),
                F.add(F.mul(A.c, B.b), F.mul(A.d, B.d)))


def mat_inverse(B):
    F = B.field
    di = F.inv(B.det)
    return Mat2(F, F.mul(di, B.d), F.mul(di, F.neg(B.b)),
                F.mul(di, F.neg(B.c)), F.mul(di, B.a))


def test_mat2_basics():
    B = Mat2(F3, 1, 2, 0, 2)
    assert B.det == 2
    assert mat_mul(B, mat_inverse(B)).entries() == (1, 0, 0, 1)
    with pytest.raises(UsageError):
        Mat2(F2, 1, 1, 1, 1)    # singular
    assert len(all_invertible(F2)) == 6
    assert len(all_invertible(F3)) == 48
    # lexicographic entry order, which the stabilizer search follows
    assert [B.entries() for B in all_invertible(F3)] == [
        (a, b, c, d) for a, b, c, d in product(range(3), repeat=4)
        if (a * d - b * c) % 3]


def test_slash_reciprocal():
    swap = Mat2(F2, 0, 1, 1, 0)
    assert slash_action(P(F2, "T"), 1, swap) == P(F2, "1")
    # coefficient reversal for f with nonzero constant term
    f = P(F3, "2*T^3+T+1")
    got = slash_action(f, 3, swap)
    assert got.coeffs == tuple(reversed(f.coeffs))


def test_slash_fixes_reference_modulus():
    m = P(F2, "T^3+T+1")
    B = Mat2(F2, 1, 1, 1, 0)
    assert slash_action(m, 3, B) == m       # T^3 m((T+1)/T) = m
    with pytest.raises(UsageError):
        slash_action(m, 2, B)               # weight below degree


def test_action_law():
    rng = random.Random(23)
    for field in (F2, F3):
        mats = all_invertible(field)
        for _ in range(500):
            B1, B2 = rng.choice(mats), rng.choice(mats)
            f = Poly.from_index(field, rng.randrange(1, field.q ** 5))
            n = f.degree + rng.randrange(0, 3)
            # f|_n (B1 B2) == (f|_n B1)|_n B2
            assert slash_action(f, n, mat_mul(B1, B2)) == \
                slash_action(slash_action(f, n, B1), n, B2)
            # B2 = B1^-1: composition is the identity on f
            assert slash_action(slash_action(f, n, B1), n,
                                mat_inverse(B1)) == f
    ident = Mat2(F2, 1, 0, 0, 1)
    f = P(F2, "T^4+T")
    assert slash_action(f, 5, ident) == f


def test_slash_action_matches_power_list_oracle():
    # the action starts from (cT+d)^(n - deg f) by squaring; the oracle
    # builds every power (cT+d)^0..(cT+d)^n
    rng = random.Random(41)
    for field in (F2, F3, parse_field("F4"), parse_field("F9")):
        mats = all_invertible(field)
        for _ in range(150):
            B = rng.choice(mats)
            f = Poly.from_index(field, rng.randrange(0, field.q ** 6))
            n = max(f.degree, 0) + rng.randrange(0, 40)
            assert slash_action(f, n, B) == \
                slash_action_by_power_list(f, n, B), (field, f, n, B)


def _stabilizers_by_oracle(m, mats):
    """stabilizer_search by brute force: one power-list slash action per
    matrix of mats = all_invertible(m.field)."""
    out = []
    for B in mats:
        g = slash_action_by_power_list(m, m.degree, B)
        lam = m.field.mul(g.lc, m.field.inv(m.lc))
        if g == m.scale(lam):
            out.append((B, lam))
    return out


def test_stabilizer_search_matches_brute_force_oracle():
    # every modulus of degree <= 3 over F2, F3 and F4, monic or not, and a
    # seeded one of degree <= 3 over each of F5, F7, F8 and F9: the same
    # (B, lam) in the same order
    rng = random.Random(53)
    moduli = [Poly.from_index(F, i) for F in (F2, F3, parse_field("F4"))
              for i in range(F.q, F.q ** 4)]
    for q in (5, 7, 8, 9):
        F = parse_field("F%d" % q)
        moduli.append(Poly.from_index(F, rng.randrange(F.q, F.q ** 4)))
    mats = {}
    for m in moduli:
        mats.setdefault(m.field, all_invertible(m.field))
        assert stabilizer_search(m) == \
            _stabilizers_by_oracle(m, mats[m.field]), m


def test_stabilizers_T2T1_all_of_gl2():
    m = P(F2, "T^2+T+1")
    stabs = stabilizer_search(m)
    assert len(stabs) == 6                   # fixed by every matrix
    assert all(lam == 1 for _B, lam in stabs)


def test_stabilizers_reference_matrices():
    assert any(B.entries() == (1, 1, 1, 0)
               for B, _ in stabilizer_search(P(F2, "T^3+T+1")))
    found = [(B.entries(), lam)
             for B, lam in stabilizer_search(P(F3, "T^2+1"))]
    assert ((1, 0, 0, 2), 1) in found        # (m|_2 B)(T) = m(T)
    # Artin-Schreier translations x -> x + b
    for p, mstr in ((3, "T^3+2T+2"), (5, "T^5+4T+4")):
        Fp = field_make(p)
        m = P(Fp, mstr)
        assert is_irreducible(m)
        stabs = {B.entries() for B, _ in stabilizer_search(m)}
        for b in range(1, p):
            assert (1, b, 0, 1) in stabs


def test_certificate_T3T1():
    m = P(F2, "T^3+T+1")
    B = Mat2(F2, 1, 1, 1, 0)
    cert = certify_ties(m, B, 1, 1)
    assert cert.period == 7
    assert cert.residue == 8                 # lifted from e=1 to >= M-1
    assert cert.residue_requested == 1
    assert cert.monic_certified and cert.justification == "q=2"
    assert names(min(cert.orbits, key=len)) == ["T^2+1"]
    orbit_sets = {frozenset(names(o)) for o in cert.orbits}
    assert frozenset(["1", "T", "T+1"]) in orbit_sets
    assert frozenset(["T^2", "T^2+T", "T^2+T+1"]) in orbit_sets
    # displayed degree-1 cycle: 1 -> T -> T+1 -> 1
    omap = {format_poly(c): format_poly(i) for c, i in cert.orbit_map.items()}
    assert omap["1"] == "T" and omap["T"] == "T+1" and omap["T+1"] == "1"
    assert verify_certificate_empirically(cert, 22)


def test_certificate_T2T1_translation():
    m = P(F2, "T^2+T+1")
    cert = certify_ties(m, Mat2(F2, 1, 1, 0, 1), 1, 1)
    assert cert.period == 1                  # cT+d = 1
    orbit_sets = {frozenset(names(o)) for o in cert.orbits}
    assert frozenset(["T", "T+1"]) in orbit_sets
    assert verify_certificate_empirically(cert, 16)
    # swap matrix: period 3
    cert2 = certify_ties(m, Mat2(F2, 0, 1, 1, 0), 1, 1)
    assert cert2.period == 3
    omap = {format_poly(c): format_poly(i)
            for c, i in cert2.orbit_map.items()}
    assert omap == {"1": "T", "T": "1", "T+1": "T+1"}   # N = 1 mod 3
    assert verify_certificate_empirically(cert2, 16)


def test_certificate_p3T21():
    m = P(F3, "T^2+1")
    B = Mat2(F3, 1, 0, 0, 2)
    cert = certify_ties(m, B, 1, 1)          # odd degrees
    assert cert.period == 2
    assert cert.monic_certified
    assert cert.justification == "gamma=0,ord(alpha)|gcd(e,N0)"
    omap = {format_poly(c): format_poly(i) for c, i in cert.orbit_map.items()}
    assert omap == {"1": "2", "2": "1", "T": "T", "2*T": "2*T",
                    "T+1": "T+2", "T+2": "T+1", "2*T+1": "2*T+2",
                    "2*T+2": "2*T+1"}
    orbit_sets = {frozenset(names(o)) for o in cert.orbits}
    assert frozenset(["1", "2"]) in orbit_sets
    assert frozenset(["T+1", "T+2"]) in orbit_sets
    assert frozenset(["2*T+1", "2*T+2"]) in orbit_sets
    assert frozenset(["T"]) in orbit_sets and frozenset(["2*T"]) in orbit_sets
    assert verify_certificate_empirically(cert, 14)
    # even degrees: T <-> 2T swap
    cert2 = certify_ties(m, B, 1, 2)
    omap2 = {format_poly(c): format_poly(i)
             for c, i in cert2.orbit_map.items()}
    assert omap2["T"] == "2*T" and omap2["T+1"] == "2*T+1"
    assert verify_certificate_empirically(cert2, 14)


def test_certificate_T2_both_characteristics():
    # p = 2: B = (1 0; 1 1), odd N: 1 <-> T+1
    m = P(F2, "T^2")
    cert = certify_ties(m, Mat2(F2, 1, 0, 1, 1), 1, 1)
    assert cert.period == 2
    assert {frozenset(names(o)) for o in cert.orbits} == \
        {frozenset(["1", "T+1"])}
    assert cert.monic_certified            # q = 2
    assert verify_certificate_empirically(cert, 20)
    # p = 3: B = (1 0; 0 2), odd N: pairs (1,2), (T+1,T+2), (2T+1,2T+2)
    m = P(F3, "T^2")
    cert = certify_ties(m, Mat2(F3, 1, 0, 0, 2), 1, 1)
    assert cert.period == 2
    sets = {frozenset(names(o)) for o in cert.orbits}
    assert frozenset(["1", "2"]) in sets
    assert frozenset(["T+1", "T+2"]) in sets
    assert frozenset(["2*T+1", "2*T+2"]) in sets
    assert verify_certificate_empirically(cert, 13)
    # even N: T+1 <-> 2T+1, T+2 <-> 2T+2
    cert2 = certify_ties(m, Mat2(F3, 1, 0, 0, 2), 1, 2)
    sets2 = {frozenset(names(o)) for o in cert2.orbits}
    assert frozenset(["T+1", "2*T+1"]) in sets2
    assert frozenset(["T+2", "2*T+2"]) in sets2
    assert verify_certificate_empirically(cert2, 14)


def test_certificate_artin_schreier():
    m = P(F3, "T^3+2T+2")
    cert = certify_ties(m, Mat2(F3, 1, 1, 0, 1), 1, 2)
    assert cert.period == 1
    assert cert.monic_certified
    t2 = P(F3, "T^2")
    orbit = next(o for o in cert.orbits if t2 in o)
    assert set(names(orbit)) == {"T^2", "T^2+2*T+1", "T^2+T+1"}
    assert verify_certificate_empirically(cert, 10)


def test_monic_not_claimed_for_gamma_nonzero_odd_q():
    # stabilizer with gamma != 0 over F3: certificate covers nonmonic only
    m = P(F3, "T^2+1")
    gammas = [(B, lam) for B, lam in stabilizer_search(m) if B.c != 0]
    assert gammas
    B, lam = gammas[0]
    cert = certify_ties(m, B, lam, 1)
    assert not cert.monic_certified and cert.justification == "none"
    assert verify_certificate_empirically(cert, 10)


def test_degree_and_irreducibility_preservation():
    rng = random.Random(31)
    for field, mstr in ((F2, "T^3+T+1"), (F3, "T^2+1")):
        m = P(field, mstr)
        stabs = stabilizer_search(m)
        for N in (2, 3, 5, 8):
            pool = irreducible_indices(field, N)
            for _ in range(20):
                f = Poly.from_index(field, int(rng.choice(pool)))
                for B, _lam in stabs:
                    g = slash_action(f, N, B)
                    assert g.degree == N and g.lc != 0
                    assert is_irreducible(g.monic())


def test_irreducibility_preservation_exhaustive_small():
    # f irreducible <=> f|_N B keeps degree N and is irreducible (N >= 2);
    # reducible f may drop degree, which also counts as non-preserved
    m = P(F2, "T^2+T+1")
    stabs = stabilizer_search(m)
    for N in range(2, 9):
        for f in enumerate_monic(F2, N):
            irr = is_irreducible(f)
            for B, _lam in stabs:
                g = slash_action(f, N, B)
                assert irr == (g.degree == N and is_irreducible(g.monic()))


def test_congruence_transport():
    # f = c (mod m) implies f|_N B = c|_N B (mod m)
    rng = random.Random(37)
    m = P(F3, "T^2+1")
    stabs = stabilizer_search(m)
    for _ in range(50):
        f = Poly.from_index(F3, rng.randrange(3 ** 4, 3 ** 6))
        c = f % m
        N = f.degree
        for B, _lam in stabs[:6]:
            assert slash_action(f, N, B) % m == slash_action(c, N, B) % m


def test_periodicity_window():
    m = P(F2, "T^3+T+1")
    B = Mat2(F2, 1, 1, 1, 0)
    cert = certify_ties(m, B, 1, 2)
    G = unit_group(m)
    e = cert.residue
    for c in G.units:
        base = slash_action(c, e, B) % m
        for n in range(e, e + 2 * cert.period + 1):
            got = slash_action(c, n, B) % m
            if (n - e) % cert.period == 0:
                assert got == base


def test_certificate_reverification_error():
    m = P(F2, "T^3+T+1")
    with pytest.raises(UsageError):
        certify_ties(m, Mat2(F2, 1, 0, 1, 1), 1, 1)   # not a stabilizer
    # a true stabilizer, (T^2+1)|_2 B = T^2+1, with a wrong lambda: its
    # image is proportional to m, but not 2 m
    m, B = P(F3, "T^2+1"), Mat2(F3, 1, 0, 0, 2)
    certify_ties(m, B, 1, 1)
    with pytest.raises(UsageError, match="does not stabilize"):
        certify_ties(m, B, 2, 1)


def test_violation_reporting():
    m = P(F2, "T^2+T+1")
    cert = certify_ties(m, Mat2(F2, 0, 1, 1, 0), 1, 1)
    # degrade the certificate on purpose: claim the e=1 map at e=0 residue
    bad = certify_ties(m, Mat2(F2, 0, 1, 1, 0), 1, 0)
    bad.orbit_map = cert.orbit_map
    bad.orbits = cert.orbits
    assert not verify_certificate_empirically(bad, 12)
    assert verify_certificate_empirically(cert, 12)
    assert verify_certificate_empirically(cert, 12, sieve_limit=12)


def test_certificates_share_one_run_per_kind_of_count(monkeypatch):
    # every distinct degree is counted once: one explicit run for the monic
    # certificates and one for the non-monic ones, however many there are
    runs = []
    run = ExplicitCounter.run

    def counted(self, degrees):
        runs.append(list(degrees))
        return run(self, degrees)

    monkeypatch.setattr(ExplicitCounter, "run", counted)
    for field, mstr, n_max, kinds in ((F2, "T^3+T+1", 60, 1),
                                      (F3, "T^3+2T+2", 18, 2)):
        m = P(field, mstr)
        certs = [certify_ties(m, B, lam, e) for B, lam in stabilizer_search(m)
                 for e in range(stabilizer_period(m, B))]
        assert len({c.monic_certified for c in certs}) == kinds
        runs.clear()
        assert first_failed_certificate(certs, n_max) is None
        assert len(runs) == kinds, mstr
        for degrees in runs:
            assert len(degrees) == len(set(degrees))
        # past the default sieve limit, 12
        assert {frozenset(degrees) for degrees in runs} == {
            frozenset(n for c in certs if c.monic_certified == monic
                      for n in gl2.certificate_degrees(c, n_max) if n > 12)
            for monic in {c.monic_certified for c in certs}}


def test_first_failed_certificate_in_list_order():
    m = P(F2, "T^2+T+1")
    good = certify_ties(m, Mat2(F2, 0, 1, 1, 0), 1, 1)
    bad = []
    for _ in range(2):    # the e = 1 map claimed at residue 0, as above
        cert = certify_ties(m, Mat2(F2, 0, 1, 1, 0), 1, 0)
        cert.orbit_map, cert.orbits = good.orbit_map, good.orbits
        bad.append(cert)
    assert first_failed_certificate([good, *bad], 30) is bad[0]
    assert first_failed_certificate([bad[1], good, bad[0]], 30) is bad[1]
    assert first_failed_certificate([good], 30) is None
    assert first_failed_certificate([], 30) is None


def test_residue_at_group_order_limit_is_usage_error():
    # the period divides the unit-group exponent, at most MAX_GROUP_ORDER, so
    # a residue at the limit is refused before any slash action is built
    m = P(F2, "T^3+T+1")
    limit = "limit is residue %d" % (MAX_GROUP_ORDER.value - 1)
    with pytest.raises(UsageError, match=limit):
        certify_ties(m, Mat2(F2, 1, 1, 1, 0), 1, MAX_GROUP_ORDER.value)


def test_residue_reduced_by_period_keeps_printed_residue():
    # 1023 = 1 mod 7: the same class map, still reported at residue 1023
    m = P(F2, "T^3+T+1")
    B = Mat2(F2, 1, 1, 1, 0)
    cert = certify_ties(m, B, 1, 1023)
    assert cert.residue == 1023 and cert.residue_requested == 1023
    assert cert.orbit_map == certify_ties(m, B, 1, 1).orbit_map


@pytest.mark.parametrize("q, mstr", [(2, "T^6+T^2+1"), (3, "T^4+T+2"),
                                     (4, "T^3+T+1"), (9, "T^2+1"),
                                     (2, "T^5"), (3, "T^3")])
def test_linear_class_map_matches_slash_action_on_every_class(q, mstr):
    m = P(parse_field("F%d" % q), mstr)
    M = m.degree
    units = unit_group(m).units
    for B, lam in stabilizer_search(m):
        period = stabilizer_period(m, B)
        for e in sorted({0, M - 1, period - 1, period + 3}):
            cert = certify_ties(m, B, lam, e)
            assert len(cert.orbit_map) == len(units)
            for c in units:
                assert cert.orbit_map[c] == \
                    slash_action(c, cert.residue, B) % m, (B, e, c)


def test_rng_draw_and_exact_period_check(monkeypatch):
    # The benchmark draws each certificate's residue from the rng it passes
    # to certify_ties, so its inputs depend on exactly this consumption: one
    # rng.sample(units, 32) above order 64, no draw at or below it.
    m = P(F3, "T^4+T+2")
    G = unit_group(m)
    assert G.order > 64
    stabs = [(B, lam) for B, lam in stabilizer_search(m)
             if stabilizer_period(m, B) > 1]
    B, lam = stabs[0]
    rng, ref = random.Random(11), random.Random(11)
    certify_ties(m, B, lam, 5, rng=rng)
    ref.sample(list(G.units), 32)
    assert rng.getstate() == ref.getstate()
    small = P(F2, "T^3+T+1")
    rng = random.Random(11)
    certify_ties(small, Mat2(F2, 1, 1, 1, 0), 1, 5, rng=rng)
    assert rng.getstate() == random.Random(11).getstate()
    # a period claim that is a proper divisor of the true period is caught
    true_period = stabilizer_period(m, B)
    divisor = max(d for d in range(1, true_period) if true_period % d == 0)
    monkeypatch.setattr(gl2, "stabilizer_period", lambda m, B: divisor)
    with pytest.raises(IntegrityError, match="period claim failed"):
        certify_ties(m, B, lam, 5, rng=random.Random(11))


@pytest.mark.parametrize("q, mstr", [(4, "T^3+T+1"), (3, "T^4+T+2")])
def test_definition_check_catches_basis_images_one_degree_off(q, mstr,
                                                              monkeypatch):
    # Basis images taken at n + 1 still pass the period check and still give
    # a permutation of the unit classes (the true class map at degree e + 1),
    # so only the check against the definition can see that each image is
    # off by the factor cT+d != 1 (period > 1).  Order 63 checks every
    # class; order 80 checks 32 drawn ones.
    m = P(parse_field("F%d" % q), mstr)
    B, lam = next((B, lam) for B, lam in stabilizer_search(m)
                  if stabilizer_period(m, B) > 1)
    true_images = gl2._basis_images
    monkeypatch.setattr(gl2, "_basis_images", lambda factors, M, ns:
                        true_images(factors, M, [n + 1 for n in ns]))
    with pytest.raises(IntegrityError,
                       match="disagrees with the slash action"):
        certify_ties(m, B, lam, 5, rng=random.Random(11))


def test_class_map_off_the_units_raises(monkeypatch):
    # zero basis images pass the period check (equal at e and e + N0) and
    # send every class to 0, which is not a unit
    m = P(F2, "T^3+T+1")
    monkeypatch.setattr(gl2, "_basis_images",
                        lambda factors, M, ns: [[0] * M] * len(ns))
    with pytest.raises(IntegrityError, match="left the unit classes at 1$"):
        certify_ties(m, Mat2(F2, 1, 1, 1, 0), 1, 1)


def test_stabilizer_with_a_non_unit_denominator_raises():
    # cT + d = T shares its factor T with T^2, so it has no order mod m
    with pytest.raises(IntegrityError, match=r"cT\+d is not a unit mod m"):
        stabilizer_period(P(F2, "T^2"), Mat2(F2, 0, 1, 1, 0))


def test_class_map_that_is_not_a_permutation_raises(monkeypatch):
    # the second class sent where the first goes: mod T^2 the units are 1
    # and T+1, and basis images (1, 0) send both to 1, a unit.  The walk
    # along its cycles would never close: it must not be reached
    monkeypatch.setattr(gl2, "_basis_images",
                        lambda factors, M, ns: [[1, 0]] * len(ns))
    monkeypatch.setattr(gl2, "_cycles", lambda perm: pytest.fail("walked"))
    with pytest.raises(IntegrityError, match="is not a permutation$"):
        certify_ties(P(F2, "T^2"), Mat2(F2, 1, 0, 0, 1), 1, 1)


@pytest.mark.parametrize("sieve_limit", [None, 0])
def test_one_corrupt_degree_fails_its_certificate(monkeypatch, sieve_limit):
    # a count raised by one in one class at one degree of the certificate's
    # residue class, sieved (to 12) or explicit, is caught there
    m = P(F2, "T^3+T+1")
    certs = [certify_ties(m, B, lam, 1) for B, lam in stabilizer_search(m)]
    cert = next(c for c in certs if any(x != y for x, y in
                                        c.orbit_map.items()))
    moved = next(x for x, y in cert.orbit_map.items() if x != y)
    degrees = list(gl2.certificate_degrees(cert, 20))
    assert first_failed_certificate(certs, 20, sieve_limit) is None
    run = gl2.run_counts
    at = unit_group(m).unit_index[moved.encode()]
    for bad in (degrees[1], degrees[-1]):
        def corrupt(m, degrees, **kw):
            for n, (found, source) in run(m, degrees, **kw):
                if n == bad:
                    found = list(found)
                    found[at] += 1
                yield n, (found, source)

        monkeypatch.setattr(gl2, "run_counts", corrupt)
        assert first_failed_certificate(certs, 20, sieve_limit) is cert
