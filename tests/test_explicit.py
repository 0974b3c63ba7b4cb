import gc
import heapq
import sys
import threading
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from cyclo_oracle import from_json, zeta
from explicit_oracle import (mobius_helpers, pi_g_decomposition, zmatrix,
                             zmatrix_inverse)
from group_oracle import char_pow, unit_pow, value_exponent
from ffrace import explicit, gl2
from ffrace.characters import all_characters, unit_group
from ffrace.cyclo import CycloNum
from ffrace.errors import IntegrityError, UsageError
from ffrace.explicit import (ExplicitCounter, bias_report, explicit_counter,
                             run_counts, s_value)
from ffrace.field import field_make
from ffrace.lfunc import l_polynomial
from ffrace.numth import divisors, mobius
from ffrace.polyring import Poly, factorize, parse_poly
from ffrace.sieve import sieve_count

F2 = field_make(2)
F3 = field_make(3)


def P(field, s):
    return parse_poly(field, s)


def test_s_value_cases():
    assert all(s_value(factorize(P(F2, "T^2")), n) == 1 for n in range(1, 10))
    fact = factorize(P(F2, "T^3+T+1"))     # irreducible of degree 3
    for n in range(1, 13):
        assert s_value(fact, n) == (3 if n % 3 == 0 else 0)
    assert s_value(factorize(P(F2, "T^2+T")), 5) == 2   # two degree-1 parts


def test_ztilde_n1_is_scaled_conjugate_transpose():
    for m in (P(F2, "T^2+T+1"), P(F3, "T^2+1")):
        G = unit_group(m)
        chars = all_characters(G)
        E = G.exponent
        Z1 = zmatrix_inverse(G, 1)
        for ai, a in enumerate(G.units):
            for ci, chi in enumerate(chars):
                want = zeta(E, (-value_exponent(chi, a)) % E) * \
                    Fraction(1, G.order)
                assert Z1.entries[ai][ci] == want


def test_ztilde_coprime_closed_form():
    # gcd(n, M') = 1: Ztilde(n)_{a,chi} = mu(n)/M' chi(a)^(-n^-1)
    for m, ns in ((P(F2, "T^3+T+1"), (2, 3, 5, 6)), (P(F3, "T^2+1"), (3, 5, 7))):
        G = unit_group(m)
        chars = all_characters(G)
        E = G.exponent
        for n in ns:
            ninv = pow(n, -1, G.order)
            Z = zmatrix_inverse(G, n)
            for ai, a in enumerate(G.units):
                for ci, chi in enumerate(chars):
                    want = zeta(
                        E, (-ninv * value_exponent(chi, a)) % E) * \
                        Fraction(mobius(n), G.order)
                    assert Z.entries[ai][ci] == want


def test_ztilde_prime_divisor_closed_form():
    # prime l | M': -(l/M') chi(a^(1/l))^-1 on the l-power images, else 0
    m = P(F3, "T^2+1")
    G = unit_group(m)
    chars = all_characters(G)
    E = G.exponent
    l = 2
    lth_powers = {unit_pow(G, b, l) for b in G.units}
    lth_chars = {char_pow(chi, l).exps for chi in chars}
    Z = zmatrix_inverse(G, l)
    for ai, a in enumerate(G.units):
        for ci, chi in enumerate(chars):
            if a in lth_powers and chi.exps in lth_chars:
                root = next(b for b in G.units if unit_pow(G, b, l) == a)
                want = zeta(E, (-value_exponent(chi, root)) % E) * \
                    Fraction(-l, G.order)
            else:
                want = CycloNum.from_rational(0, E)
            assert Z.entries[ai][ci] == want


def test_ztilde_zero_for_square_divisors():
    G = unit_group(P(F2, "T^3+T+1"))
    Z = zmatrix_inverse(G, 4)
    assert all(e.is_zero for row in Z.entries for e in row)


def _matmul(A, B, E):
    n = len(A)
    k = len(B)
    out = [[CycloNum.from_rational(0, E) for _ in range(len(B[0]))]
           for _ in range(n)]
    for i in range(n):
        for j in range(len(B[0])):
            acc = CycloNum.from_rational(0, E)
            for t in range(k):
                if not A[i][t].is_zero and not B[t][j].is_zero:
                    acc = acc + A[i][t] * B[t][j]
            out[i][j] = acc
    return out


@pytest.mark.parametrize("fieldstr,mstr,top", [
    ("F2", "T^2", 30), ("F2", "T^2+T+1", 30), ("F2", "T^3+T+1", 30),
    ("F3", "T^2", 30), ("F3", "T^2+1", 30), ("F3", "T^3+2T+2", 10),
])
def test_mobius_inverse_defining_relations(fieldstr, mstr, top):
    field = field_make(2) if fieldstr == "F2" else field_make(3)
    m = P(field, mstr)
    G = unit_group(m)
    E = G.exponent
    order = G.order
    ident = [[CycloNum.from_rational(1 if i == j else 0, E)
              for j in range(order)] for i in range(order)]
    zt = {d: zmatrix_inverse(G, d).entries for d in range(1, top + 1)}
    z = {d: zmatrix(G, d) for d in range(1, top + 1)}
    got = _matmul(zt[1], z[1], E)
    assert got == ident
    for n in range(2, top + 1):
        total = None
        for d in divisors(n):
            if all(e.is_zero for row in zt[d] for e in row):
                continue
            term = _matmul(zt[d], z[n // d], E)
            total = term if total is None else \
                [[x + y for x, y in zip(r1, r2)]
                 for r1, r2 in zip(total, term)]
        assert all(e.is_zero for row in total for e in row), n


def test_explicit_equals_sieve_cross_product():
    for field, moduli, top in ((F2, ("T^2", "T^2+T+1", "T^3+T+1"), 10),
                               (F3, ("T^2", "T^2+1", "T^3+2T+2"), 8)):
        for mstr in moduli:
            m = P(field, mstr)
            for N in range(1, top + 1):
                assert explicit_counter(m).count(N).counts == \
                    sieve_count(m, N).counts, (mstr, N)


def test_table_values_spot():
    m = P(F2, "T^3+T+1")
    counts = explicit_counter(m).count(14).counts
    cols = ["1", "T", "T^2", "T+1", "T^2+T", "T^2+T+1", "T^2+1"]
    assert [counts[P(F2, c)] for c in cols] == [168, 162, 162, 169, 162, 169,
                                                169]
    m = P(F3, "T^2+1")
    G = unit_group(m)
    counts = explicit_counter(m).count(20).counts
    assert counts[unit_pow(G, G.generators[0], 4)] == 21793092
    m = P(F3, "T^2")
    G = unit_group(m)
    counts = explicit_counter(m).count(20).counts
    want = (29054568, 29056044, 29056044, 29057520, 29056044, 29056044)
    got = tuple(counts[unit_pow(G, G.generators[0], k)] for k in range(6))
    assert got == want


def test_roundtrip_eq13():
    # re-applying Z(n/d) convolution to explicit counts reproduces
    # (q^n - s_{m,n}, c_n(chi)) exactly
    m = P(F3, "T^2+1")
    counter = explicit_counter(m)
    G = counter.group
    chars = counter.chars
    E = counter.E
    for n in range(1, 9):
        per_degree = {d: explicit_counter(m).count(d).counts
                      for d in divisors(n)}
        for ci, chi in enumerate(chars):
            acc = CycloNum.from_rational(0, E)
            for d in divisors(n):
                nu = n // d    # Z(nu) applied to the degree-d count column
                for a in G.units:
                    acc = acc + zeta(
                        E, (nu * value_exponent(chi, a)) % E) * \
                        (d * per_degree[d][a])
            if ci == 0:
                assert acc == 3 ** n - counter.s(n)
            else:
                assert acc == counter.lpolys[ci].c(n)


def test_breakdown_audit():
    m = P(F2, "T^2+T+1")
    res = explicit_counter(m).count(6, breakdown=True)
    assert res.breakdown            # has per-divisor, per-character terms
    keys = {d for (_cls, d) in res.breakdown}
    assert keys == {1, 2, 3, 6}
    # Ztilde-weighted terms over all divisors and characters re-sum to N*pi
    for cls in ("1", "T", "T+1"):
        total = CycloNum.from_rational(0, 3)
        for (c, _d), terms in res.breakdown.items():
            if c == cls:
                for term in terms.values():
                    total = total + from_json(term)
        assert total == 6 * res.counts[P(F2, cls)]


def test_breakdown_with_one_corrupt_term_raises(monkeypatch):
    # one raw sum beneath the audit, class 1 and the trivial character at
    # d = 1, raised by one: that class's terms no longer re-sum to N pi
    raw_zsum = ExplicitCounter.raw_zsum

    def corrupted(self, d):
        raw = [list(row) for row in raw_zsum(self, d)]
        if d == 1:
            raw[0][0] = raw[0][0] + 1
        return raw

    monkeypatch.setattr(ExplicitCounter, "raw_zsum", corrupted)
    with pytest.raises(IntegrityError, match=r"breakdown of pi\(6; "
                       r"T\^2\+T\+1, 1\) over F2 sums to"):
        ExplicitCounter(P(F2, "T^2+T+1")).count(6, breakdown=True)


def test_pi_g_coprime_degree_collapses_to_pi1():
    m = P(F2, "T^3+T+1")    # M' = 7
    for N in (4, 5, 6, 8):  # gcd(N, 7) = 1
        for k in (0, 1, 3):
            a = unit_pow(unit_group(m), unit_group(m).generators[0], k)
            parts = pi_g_decomposition(m, N, a)
            assert set(parts) == {1, 7}
            assert parts[7] == 0
            assert parts[1] == explicit_counter(m).count(N).counts[a]


def test_pi_g_vanishing_cases():
    # 3 | N, class T != 1 mod T^2+T+1: pi_3 = 0
    m = P(F2, "T^2+T+1")
    for N in (3, 6, 9, 12):
        parts = pi_g_decomposition(m, N, P(F2, "T"))
        assert parts[3] == 0
    # T^2/F3, a = (T+2)^k with k in {1,5}: pi_2 = pi_3 = pi_6 = 0
    m = P(F3, "T^2")
    G = unit_group(m)
    for N in (6, 12):
        for k in (1, 5):
            parts = pi_g_decomposition(m, N, unit_pow(G, G.generators[0], k))
            assert parts[2] == parts[3] == parts[6] == 0


def test_pi_g_sums_to_total():
    for field, mstr, top in ((F2, "T^2+T+1", 12), (F2, "T^3+T+1", 12),
                             (F3, "T^2", 10), (F3, "T^2+1", 10)):
        m = P(field, mstr)
        G = unit_group(m)
        for N in range(1, top + 1):
            counts = explicit_counter(m).count(N).counts
            for a in G.units:
                parts = pi_g_decomposition(m, N, a)
                assert sum(parts.values()) == counts[a], (mstr, N, a)


def test_pi_g_requires_cyclic():
    m = P(F2, "T^4+T^2+1")
    with pytest.raises(UsageError):
        pi_g_decomposition(m, 4, P(F2, "T+1"))


def test_mobius_helpers_closed_forms():
    # first sum: 1 iff the p-free part of N is 1 (N a power of p, incl. N=1);
    # this corrects the published closed form [N=1]+[N=p], which fails at
    # N = p^a for a >= 2 (e.g. N=9, p=3: only d=1 survives, sum = 1)
    for p in (2, 3, 5, 7):
        for N in range(1, 51):
            first, second = mobius_helpers(N, p)
            M = N
            while M % p == 0:
                M //= p
            assert first == (1 if M == 1 else 0), (N, p)
            assert second == (-1 if N == 1 else 2 if N == 2 else 0)
    assert mobius_helpers(1, 3) == (1, -1)
    assert mobius_helpers(3, 3) == (1, 0)
    assert mobius_helpers(12, 3) == (0, 0)
    assert mobius_helpers(9, 3) == (1, 0)    # prime-power counterexample


def test_bias_reference_cases():
    # T^2+T+1/F2: pi(N;1) < pi(N;T) at N in {9,12,...}, equality only at N=6
    m = P(F2, "T^2+T+1")
    rep = bias_report(m, P(F2, "T"), P(F2, "1"), range(9, 31, 3),
                      expected_sign=1)
    assert rep.violations == []
    assert all(d > 0 for *_x, d in rep.rows)
    rep6 = bias_report(m, P(F2, "T"), P(F2, "1"), [6])
    assert rep6.rows[0][3] == 0
    # (a, a) -> all zeros
    rep0 = bias_report(m, P(F2, "T"), P(F2, "T"), range(1, 10))
    assert all(d == 0 for *_x, d in rep0.rows)
    assert rep0.sign_summary() == {"positive": 0, "negative": 0, "zero": 9}


def test_bias_usage_error():
    m = P(F3, "T^2")
    with pytest.raises(UsageError):
        bias_report(m, P(F3, "T"), P(F3, "1"), [4])   # T not a unit mod T^2


def test_bias_expected_sign_mapping_is_usage_error():
    # a mapping N -> sign would be compared whole with every sign and flag
    # every degree; it is refused, as is any value outside -1, 0, 1, None
    m = P(F2, "T^2+T+1")
    with pytest.raises(UsageError, match="expected_sign"):
        bias_report(m, P(F2, "T"), P(F2, "1"), [9, 12],
                    expected_sign={9: 1, 12: 1})


def test_one_shot_degrees_are_read_once():
    # the run is priced and counted from one reading of a generator
    m = P(F2, "T^3+T+1")
    rep = bias_report(m, P(F2, "T"), P(F2, "1"), (n for n in range(9, 15)))
    assert rep.rows == bias_report(m, P(F2, "T"), P(F2, "1"),
                                   range(9, 15)).rows
    assert [r[0] for r in rep.rows] == list(range(9, 15))
    assert [n for n, _found in run_counts(m, iter([13, 14]))] == [13, 14]


def test_run_matches_its_single_counts(monkeypatch):
    # unsorted degrees with repeats, the top one needing more split primes
    # than the rest: one cold Newton walk, rows in input order, and each row
    # equal to a single count on a fresh counter
    walks = []
    newton = explicit._newton

    def counted(rows, top):
        walks.append(top)
        return newton(rows, top)
    monkeypatch.setattr(explicit, "_newton", counted)
    m4 = P(F3, "T^4+T+2")
    certs = [gl2.certify_ties(m4, B, lam, e)
             for B, lam in gl2.stabilizer_search(m4)
             for e in range(gl2.stabilizer_period(m4, B))]
    merged = list(heapq.merge(*(gl2.certificate_degrees(c, 55)
                                for c in certs)))
    for m, degrees, kw in ((P(F2, "T^3+T+1"), [200, 13, 60, 13],
                            {"sieve_limit": 0}),
                           (m4, merged, {})):
        explicit_counter.cache_clear()
        walks.clear()
        run = list(run_counts(m, degrees, **kw))
        assert walks == [max(degrees)]
        assert [n for n, _found in run] == degrees
        order = unit_group(m).order
        primes = sorted({n: len(explicit_counter(m)._rows(
            n * order * m.field.q ** n)[0]) for n in degrees}.values())
        assert primes[-2] < primes[-1]
        single = {n: list(ExplicitCounter(m).count(n).counts.values())
                  for n in degrees}
        for n, (found, _source) in run:
            assert found == single[n]


def test_run_frees_each_degree_at_its_last_read(monkeypatch):
    # the run's result holds a degree's counts until its last read, so a
    # repeated degree reads the same counts twice
    m = P(F2, "T^3+T+1")
    degrees = [20, 13, 20, 15, 13]
    single = {n: list(ExplicitCounter(m).count(n).counts.values())
              for n in degrees}
    held = []
    run = ExplicitCounter.run

    def keep(self, wanted):
        held.append(run(self, wanted))
        return held[-1]

    monkeypatch.setattr(ExplicitCounter, "run", keep)
    explicit_counter.cache_clear()
    for i, (n, (found, source)) in enumerate(
            run_counts(m, degrees, sieve_limit=0)):
        assert (n, source) == (degrees[i], "explicit")
        assert found == single[n]
        assert set(held[0]) == set(degrees[i + 1:])
    assert len(held) == 1


def test_counts_cached_counter_reused():
    m = P(F2, "T^3+T+1")
    assert explicit_counter(m) is explicit_counter(P(F2, "T^3+T+1"))


def test_counter_cache_is_bounded():
    # a sweep of one modulus more than the bound frees the first counter;
    # the group cache keeps at least as many moduli
    bound = explicit_counter.cache_info().maxsize
    assert unit_group.cache_info().maxsize >= bound
    moduli = [Poly.from_index(F2, i) for i in range(16, 17 + bound)]
    first = weakref.ref(explicit_counter(moduli[0]))
    for m in moduli[1:]:
        explicit_counter(m)
    gc.collect()
    assert first() is None
    assert explicit_counter.cache_info().currsize == bound


def test_counter_build_peaks_near_its_value_table():
    # order 1023: the int32 V table holds 4.0 MB; built a block of rows at a
    # time it peaks at 5.7 MB (16 MB as one int64 product and its % E copy)
    m = P(F2, "T^10+T^3+1")
    ExplicitCounter(m)      # the group and its lazily built parts, cached
    tracemalloc.start()
    try:
        counter = ExplicitCounter(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counter._values.nbytes == 1023 * 1023 * 4
    assert peak < 8 << 20, peak


def test_degenerate_degree_one():
    for field, mstr in ((F2, "T^3+T+1"), (F3, "T^2")):
        m = P(field, mstr)
        assert explicit_counter(m).count(1).counts == sieve_count(m, 1).counts


def test_trivial_unit_group_modulus():
    # m = T over F2: single class, pi(N; T, 1) = pi(N) - [N == 1]
    m = P(F2, "T")
    from ffrace.numth import gauss_irreducible_count
    for N in range(1, 9):
        c = explicit_counter(m).count(N).counts
        want = gauss_irreducible_count(2, N) - (1 if N == 1 else 0)
        assert c[P(F2, "1")] == want


def test_concurrent_cold_counter_matches_serial():
    # the prime stack is extended lazily on first use; threads racing on a
    # cold counter must not corrupt it
    m = P(F3, "T^3+2T+2")
    degrees = range(13, 61)
    serial = [ExplicitCounter(m).count(n).counts for n in degrees]
    cold = ExplicitCounter(m)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(lambda n: cold.count(n).counts, degrees))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


def test_lpolys_are_the_direct_l_polynomials():
    for field, mstr in ((F2, "T^6+T^2+1"), (F3, "T^2"), (F2, "T^3+T+1")):
        m = P(field, mstr)
        counter = ExplicitCounter(m)
        assert counter.lpolys[0] is None
        assert [L.coeffs for L in counter.lpolys[1:]] == \
            [l_polynomial(m, chi).coeffs for chi in counter.chars[1:]]


def _race(fn, jobs):
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            return list(pool.map(fn, jobs))
    finally:
        sys.setswitchinterval(interval)


def test_concurrent_counts_while_the_prime_stack_grows():
    # each degree needs more split primes than the last few (N M' q^N grows),
    # so threads on a cold counter extend the rows while others read them
    m = P(F3, "T^3+2T+2")
    degrees = range(13, 201)
    serial = [ExplicitCounter(m).count(n).counts for n in degrees]
    cold = ExplicitCounter(m)
    assert _race(lambda n: cold.count(n).counts, degrees) == serial


def test_concurrent_lpolys_of_cold_counter():
    m = P(F2, "T^6+T^2+1")
    cold = ExplicitCounter(m)
    start = threading.Barrier(4)

    def read(_):
        start.wait()
        return cold.lpolys

    found = _race(read, range(4))
    assert all(lp is found[0] for lp in found)
    assert [L.coeffs for L in found[0][1:]] == \
        [l_polynomial(m, chi).coeffs for chi in cold.chars[1:]]


def _corrupt_residues(monkeypatch, rows):
    """Add 1 to the class-0 residue of the given prime rows before the
    CRT."""
    crt = explicit._crt

    def corrupted(residues, ell):
        residues = residues.copy()
        for r in rows(len(ell)):
            residues[r, 0] = (residues[r, 0] + 1) % ell[r, 0]
        return crt(residues, ell)

    monkeypatch.setattr(explicit, "_crt", corrupted)


@pytest.mark.parametrize("field, mstr, N", [
    (F2, "T^3+T+1", 40), (F3, "T^4+T+2", 16), (F2, "T^6+T^2+1", 30)])
def test_corrupt_prime_row_raises(monkeypatch, field, mstr, N):
    _corrupt_residues(monkeypatch, lambda P: [0])
    with pytest.raises(IntegrityError):
        ExplicitCounter(P(field, mstr)).count(N)


def test_redundant_prime_disagreement_raises(monkeypatch):
    _corrupt_residues(monkeypatch, lambda P: [P - 1])
    with pytest.raises(IntegrityError, match="redundant prime"):
        ExplicitCounter(P(F3, "T^4+T+2")).count(16)


def test_consistent_corruption_fails_integrality(monkeypatch):
    # the same wrong residue on every row passes the redundant prime; the
    # value N M' pi + 1 is no multiple of N M'
    _corrupt_residues(monkeypatch, range)
    with pytest.raises(IntegrityError, match="not a nonnegative integer"):
        ExplicitCounter(P(F3, "T^4+T+2")).count(16)


def test_counts_off_the_gauss_count_raise(monkeypatch):
    # exact, nonnegative counts that sum to one less than the Gauss count
    gauss = explicit.gauss_irreducible_count
    monkeypatch.setattr(explicit, "gauss_irreducible_count",
                        lambda q, n: gauss(q, n) + 1)
    with pytest.raises(IntegrityError, match="explicit counts of degree 30 "
                       "mod T.3.T.1 over F2 sum to"):
        ExplicitCounter(P(F2, "T^3+T+1")).count(30)


def test_non_primitive_root_of_unity_raises(monkeypatch):
    # omega = 1 on one prime makes every character trivial there: the
    # degree-M character sums of that row no longer vanish
    split_prime = explicit.split_prime

    def bad(E, i):
        l, w = split_prime(E, i)
        return (l, 1) if i == 1 else (l, w)

    monkeypatch.setattr(explicit, "split_prime", bad)
    with pytest.raises(IntegrityError, match="does not vanish"):
        ExplicitCounter(P(F2, "T^3+T+1")).count(20)


def test_degree_past_the_split_primes_is_refused(monkeypatch):
    # below 2^10 there are 29 primes l = 1 mod 7, about 248 bits: enough for
    # N = 20 over F2, not for N = 300
    monkeypatch.setattr(explicit, "PRIME_BITS", 10)
    monkeypatch.setattr(explicit, "_split", {})
    m = P(F2, "T^3+T+1")
    assert ExplicitCounter(m).count(20).counts == sieve_count(m, 20).counts
    with pytest.raises(UsageError, match="primes l = 1 mod 7 below 2"):
        ExplicitCounter(m).count(300)


def test_split_primes_have_primitive_roots():
    for E in (1, 2, 7, 56, 63, 80, 1023):
        for i in range(3):
            l, w = explicit.split_prime(E, i)
            assert (l - 1) % E == 0 and l < 2 ** explicit.PRIME_BITS
            assert pow(w, E, l) == 1
            assert all(pow(w, E // p, l) != 1 for p in (2, 3, 5, 7, 11, 31)
                       if E % p == 0)
        assert explicit.split_prime(E, 1)[0] < explicit.split_prime(E, 0)[0]
