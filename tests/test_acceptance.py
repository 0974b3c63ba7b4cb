"""Acceptance suite: one test per criterion, every tolerance pinned.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.
"""

import time

from explicit_oracle import mobius_helpers, zmatrix, zmatrix_inverse
from group_oracle import unit_pow
from newton_oracle import power_sum_mismatch
from published_values import (TABLE_BY_KEY, TABLE_P2T2, TABLE_P3T2, TABLE_P3T21,
                          TABLE_T2T1, TABLE_T3T1, TABLE_T3T1_CUM)
from ffrace.characters import all_characters, unit_group
from ffrace.cyclo import CycloNum
from ffrace.explicit import cumulative_counts, explicit_counter
from ffrace.field import field_make
from ffrace.gl2 import Mat2, certify_ties, stabilizer_search, \
    verify_certificate_empirically
from ffrace.lfunc import (find_conjugate_relations, l_polynomial,
                          weil_bound_violations)
from ffrace.numth import divisors, gauss_irreducible_count
from ffrace.polyring import format_poly, parse_poly
from ffrace.report import check_cumulative_ties, generator_power_columns
from ffrace.sieve import irreducible_indices, sieve_count

F2 = field_make(2)
F3 = field_make(3)

SIX_MODULI = [(F2, "T^2"), (F2, "T^2+T+1"), (F2, "T^3+T+1"),
              (F3, "T^2"), (F3, "T^2+1"), (F3, "T^3+2T+2")]


def P(field, s):
    return parse_poly(field, s)


def _row(m, counts):
    return tuple(counts[c] for c in generator_power_columns(m))


def test_criterion_01_table1_sieve():
    start = time.time()
    m = P(F2, "T^3+T+1")
    checked = 0
    for n in range(9, 23):
        got = _row(m, sieve_count(m, n).counts)
        assert got == TABLE_T3T1[n], n
        checked += len(got)
    elapsed = time.time() - start
    assert checked == 98
    assert elapsed < 60, "criterion 1 over time budget: %.1fs" % elapsed
    print("PASS criterion 1: Table 1 (98 sieve values, N=9..22) exact "
          "in %.2fs" % elapsed)


def test_criterion_02_oracle_equivalence():
    start = time.time()
    cases = 0
    for field, moduli, top in ((F2, ("T^2", "T^2+T+1", "T^3+T+1"), 14),
                               (F3, ("T^2", "T^2+1", "T^3+2T+2"), 12)):
        for mstr in moduli:
            m = P(field, mstr)
            for n in range(1, top + 1):
                assert explicit_counter(m).count(n).counts == \
                    sieve_count(m, n).counts, (mstr, n)
                cases += 1
    elapsed = time.time() - start
    assert elapsed < 300, "criterion 2 over time budget: %.1fs" % elapsed
    print("PASS criterion 2: explicit == sieve on %d (modulus, degree) "
          "pairs, all classes exact, in %.2fs" % (cases, elapsed))


def test_criterion_03_tables_3_and_5_explicit():
    start = time.time()
    for mstr, table in (("T^2+1", TABLE_P3T21), ("T^2", TABLE_P3T2)):
        m = P(F3, mstr)
        for n in range(10, 21):
            got = _row(m, explicit_counter(m).count(n).counts)
            assert got == table[n], (mstr, n)
        # spot-verify against the sieve where enumeration is feasible
        for n in (10, 11, 12):
            assert sieve_count(m, n).counts == \
                explicit_counter(m).count(n).counts
    g1 = unit_group(P(F3, "T^2+1"))
    assert explicit_counter(P(F3, "T^2+1")).count(20).counts[
        unit_pow(g1, g1.generators[0], 4)] == 21793092
    g2 = unit_group(P(F3, "T^2"))
    assert explicit_counter(P(F3, "T^2")).count(20).counts[
        unit_pow(g2, g2.generators[0], 3)] == 29057520
    elapsed = time.time() - start
    assert elapsed < 30, "criterion 3 over time budget: %.1fs" % elapsed
    print("PASS criterion 3: Tables 3 and 5 (explicit, N=10..20) exact, "
          "sieve spot checks N<=12, in %.2fs" % elapsed)


def test_criterion_04_table6_cumulative_and_tie_scan():
    start = time.time()
    m = P(F2, "T^3+T+1")
    per_class = dict(zip(unit_group(m).units, zip(
        *(sums for _n, (sums, _source) in cumulative_counts(m, 40)))))
    cols = generator_power_columns(m)
    for n in range(1, 41):
        got = tuple(per_class[c][n - 1] for c in cols)
        assert got == TABLE_T3T1_CUM[n], n
    assert per_class[P(F2, "1")][39] == 8066595506
    ties = check_cumulative_ties(m, 40)
    assert all(n <= 21 for n, _pair in ties)
    assert any(n == 21 for n, _pair in ties)
    elapsed = time.time() - start
    assert elapsed < 60, "criterion 4 over time budget: %.1fs" % elapsed
    print("PASS criterion 4: Table 6 (cumulative N=1..40) exact; no "
          "cumulative ties in 22..40; in %.2fs" % elapsed)


def test_criterion_05_tables_2_and_4():
    for mstr, table in (("T^2+T+1", TABLE_T2T1), ("T^2", TABLE_P2T2)):
        m = P(F2, mstr)
        for n in range(10, 21):
            assert _row(m, sieve_count(m, n).counts) == table[n], (mstr, n)
            assert _row(m, explicit_counter(m).count(n).counts) == table[n]
    print("PASS criterion 5: Tables 2 and 4 (N=10..20) exact from both "
          "engines")


def test_criterion_06_gl2_certificates():
    # (modulus, field, matrix, expected period, expected orbit partition at
    # the displayed residue, residue e, verify-to horizon)
    cases = [
        ("T^3+T+1", F2, (1, 1, 1, 0), 7, 1,
         {("1", "T", "T+1"), ("T^2", "T^2+T", "T^2+T+1"), ("T^2+1",)}, 22),
        ("T^2+T+1", F2, (0, 1, 1, 0), 3, 1,
         {("1", "T"), ("T+1",)}, 22),
        ("T^2+T+1", F2, (1, 1, 0, 1), 1, 1,
         {("1",), ("T", "T+1")}, 22),
        ("T^2+1", F3, (1, 0, 0, 2), 2, 1,
         {("1", "2"), ("T",), ("2*T",), ("T+1", "T+2"),
          ("2*T+1", "2*T+2")}, 14),
        ("T^2", F3, (1, 0, 0, 2), 2, 1,
         {("1", "2"), ("T+1", "T+2"), ("2*T+1", "2*T+2")}, 14),
        ("T^2", F2, (1, 0, 1, 1), 2, 1, {("1", "T+1")}, 22),
        ("T^3+2T+2", F3, (1, 1, 0, 1), 1, 2,
         {("1",), ("2",), ("T", "T+1", "T+2"), ("2*T", "2*T+1", "2*T+2"),
          ("T^2", "T^2+2*T+1", "T^2+T+1")}, 14),
    ]
    for mstr, field, entries, period, e, partition, horizon in cases:
        m = P(field, mstr)
        stabs = {B.entries(): lam for B, lam in stabilizer_search(m)}
        assert entries in stabs, (mstr, entries)
        cert = certify_ties(m, Mat2(field, *entries), stabs[entries], e)
        assert cert.period == period, (mstr, cert.period)
        got = {tuple(sorted(format_poly(c) for c in orb))
               for orb in cert.orbits}
        want = {tuple(sorted(orb)) for orb in partition}
        assert got >= want, (mstr, got)
        # the displayed degree-1 cycle of the T^3+T+1 example
        if mstr == "T^3+T+1":
            omap = {format_poly(c): format_poly(i)
                    for c, i in cert.orbit_map.items()}
            assert (omap["1"], omap["T"], omap["T+1"]) == ("T", "T+1", "1")
        assert verify_certificate_empirically(cert, horizon), mstr
    print("PASS criterion 6: all five GL2 example certificates (matrices, "
          "periods 7 / 3 and 1 / 2 / 2 / 1, orbit partitions) verified "
          "empirically to N=22 (F2) / 14 (F3)")


def test_criterion_07_conjugate_relations():
    m = P(F2, "T^3+T+1")
    rels = {(r.chi.label(), r.other.label(), r.l, r.t)
            for r in find_conjugate_relations(m) if r.stripped}
    assert ("1", "1", 2, 6) in rels      # sigma_2(alpha) = zeta_7^-1 alpha
    assert ("1", "1", 4, 4) in rels      # sigma_4(alpha) = zeta_7^-3 alpha
    m = P(F3, "T^2+1")
    rels = {(r.chi.label(), r.other.label(), r.l, r.t)
            for r in find_conjugate_relations(m) if not r.stripped}
    assert ("1", "1", 3, 4) in rels      # sigma_3(alpha) = zeta_8^4 alpha
    m = P(F3, "T^2")
    rels = {(r.chi.label(), r.other.label(), r.l, r.t)
            for r in find_conjugate_relations(m) if not r.stripped}
    assert ("1", "1", 5, 3) in rels      # sigma_5(sqrt(-3)) = zeta_6^3 sqrt(-3)
    print("PASS criterion 7: Galois conjugate relations recovered exactly "
          "for T^3+T+1/F2, T^2+1/F3, T^2/F3")


def test_criterion_08_bias_inequalities():
    m = P(F2, "T^2+T+1")
    one, t = P(F2, "1"), P(F2, "T")
    for n in range(9, 61, 3):
        counts = explicit_counter(m).count(n).counts
        assert counts[one] < counts[t], n
    counts6 = explicit_counter(m).count(6).counts
    assert counts6[one] == counts6[t]
    m = P(F2, "T^2")
    one, t1 = P(F2, "1"), P(F2, "T+1")
    for n in range(4, 41, 2):
        counts = explicit_counter(m).count(n).counts
        assert counts[one] < counts[t1], n
    print("PASS criterion 8: bias inequalities exact (T^2+T+1: N=9,12,...,60 "
          "with equality at N=6; T^2: even N=4..40)")


def test_criterion_09_artin_schreier():
    m = P(F3, "T^3+2T+2")
    counts = explicit_counter(m).count(24).counts
    classes = [P(F3, "T^2"), P(F3, "T^2+2T+1"), P(F3, "T^2+T+1")]
    for c in classes:
        assert counts[c] == 452605575, format_poly(c)
    stabs = {B.entries(): lam for B, lam in stabilizer_search(m)}
    cert = certify_ties(m, Mat2(F3, 1, 1, 0, 1), stabs[(1, 1, 0, 1)], 2)
    orbit = next(o for o in cert.orbits if classes[0] in o)
    assert set(orbit) == set(classes)
    print("PASS criterion 9: Artin-Schreier T^3+2T+2/F3 N=24 count "
          "452605575 on the translation orbit")


def test_criterion_10_property_suites():
    # (a) Newton-vs-sieve identity to n=10 on all six moduli
    for field, mstr in SIX_MODULI:
        m = P(field, mstr)
        for chi in all_characters(unit_group(m))[1:]:
            assert power_sum_mismatch(m, chi, 10) is None, (mstr, chi.label())
    # (b) Mobius-inverse defining relations to n=30 (n=10 for the order-26
    #     group, whose entries are fully exercised by criterion 2)
    for field, mstr in SIX_MODULI:
        m = P(field, mstr)
        G = unit_group(m)
        top = 30 if G.order <= 8 else 10
        E = G.exponent
        order = G.order
        for n in range(1, top + 1):
            total = [[CycloNum.from_rational(0, E)] * order
                     for _ in range(order)]
            for d in divisors(n):
                zt = zmatrix_inverse(G, d).entries
                if all(e.is_zero for row in zt for e in row):
                    continue
                z = zmatrix(G, n // d)
                for i in range(order):
                    for j in range(order):
                        acc = total[i][j]
                        for k in range(order):
                            if not zt[i][k].is_zero:
                                acc = acc + zt[i][k] * z[k][j]
                        total[i][j] = acc
            if n == 1:
                for i in range(order):
                    for j in range(order):
                        assert total[i][j] == (1 if i == j else 0)
            else:
                assert all(x.is_zero for row in total for x in row), (mstr, n)
    # (c) Weil bound |alpha| in {1, sqrt q} within 1e-9, every L-polynomial
    for field, mstr in SIX_MODULI:
        m = P(field, mstr)
        for chi in all_characters(unit_group(m))[1:]:
            assert weil_bound_violations(l_polynomial(m, chi)) == []
    # (d) integrality assertion never fired across all runs above: reaching
    #     this line is the check (IntegrityError would have failed the suite)
    # (e) Gauss counts vs sieve at the stated enumeration bounds
    for field, top in ((F2, 16), (F3, 10), (field_make(5), 7)):
        for n in range(1, top + 1):
            assert len(irreducible_indices(field, n)) == \
                gauss_irreducible_count(field.q, n)
    # (f) helper sums, corrected closed forms, N <= 50, p in {2,3,5,7}
    for p in (2, 3, 5, 7):
        for n in range(1, 51):
            first, second = mobius_helpers(n, p)
            rest = n
            while rest % p == 0:
                rest //= p
            assert first == (1 if rest == 1 else 0)
            assert second == (-1 if n == 1 else 2 if n == 2 else 0)
    print("PASS criterion 10: property suites (Newton vs sieve to n=10; "
          "Mobius-inverse relations; Weil bound 1e-9; integrality; Gauss "
          "vs sieve; helper sums N<=50)")
