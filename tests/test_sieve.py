import random
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ffrace import sieve
from ffrace.characters import all_characters, unit_group
from ffrace.cyclo import CycloNum
from ffrace.errors import IntegrityError, UsageError
from ffrace.explicit import counts, cumulative_counts
from ffrace.field import field_make, parse_field
from ffrace.numth import gauss_irreducible_count
from ffrace.polyring import Poly, factorize, parse_poly
from ffrace.sieve import (sieve_count, _spread_fold, _tally_mod,
                          irreducible_indices)

from sieve_oracle import (digit_add, irreducible_indices_by_products,
                          sieve_count_naive, sieve_count_nonmonic_naive,
                          weighted_count)

F2 = field_make(2)
F3 = field_make(3)
F5 = field_make(5)
F4 = parse_field("F4")


def P(field, s):
    return parse_poly(field, s)


MODULI = {
    F2: ["T^2", "T^2+T+1", "T^3+T+1"],
    F3: ["T^2", "T^2+1", "T^3+2T+2"],
}


def test_engine_matches_naive_reference():
    for field, tops in ((F2, 10), (F3, 7), (F5, 5)):
        for mstr in MODULI.get(field, ["T^2"]):
            m = P(field, mstr)
            for N in range(1, tops + 1):
                fast = sieve_count(m, N)
                slow = sieve_count_naive(m, N)
                assert fast.counts == slow.counts
                assert fast.excluded == slow.excluded


def test_engine_on_extension_field():
    m = P(F4, "T^2+2")
    for N in range(1, 6):
        assert sieve_count(m, N).counts == sieve_count_naive(m, N).counts
    F9 = parse_field("F9")
    m = P(F9, "T^2+1")
    for N in range(1, 4):
        assert sieve_count(m, N).counts == sieve_count_naive(m, N).counts


def test_sieve_count_reuses_tally_not_tables(monkeypatch):
    m = P(F3, "T^2+1")
    first = sieve_count(m, 7)
    first.counts[P(F3, "1")] += 100         # a caller edits its own table
    hits = sieve._class_tally.cache_info().hits
    again = sieve_count(m, 7)
    assert sieve._class_tally.cache_info().hits == hits + 1
    assert again.counts is not first.counts
    assert again.counts == sieve_count_naive(m, 7).counts
    # class accounting is checked on every call, memoized tally or not
    sieve_count(m, 2)
    monkeypatch.setattr(sieve, "factorize",
                        lambda _m: type("NoFactors", (), {"factors": []}))
    with pytest.raises(IntegrityError, match="class accounting failed"):
        sieve_count(m, 2)


def test_table1_row9():
    m = P(F2, "T^3+T+1")
    t = sieve_count(m, 9)
    cols = ["1", "T", "T^2", "T+1", "T^2+T", "T^2+T+1", "T^2+1"]
    assert [t.counts[P(F2, c)] for c in cols] == [7, 9, 7, 9, 9, 8, 7]
    assert sum(t.counts.values()) == 56 == gauss_irreducible_count(2, 9)


def test_table4_row10():
    m = P(F2, "T^2")
    t = sieve_count(m, 10)
    assert t.counts[P(F2, "1")] == 48
    assert t.counts[P(F2, "T+1")] == 51


def test_degree2_modulus_excludes_itself():
    # the only degree-2 irreducible over F2 IS the modulus
    m = P(F2, "T^2+T+1")
    t = sieve_count(m, 2)
    assert sum(t.counts.values()) == 0 and t.excluded == 1


def test_gauss_row_sums_full_spec_bounds():
    for field, top in ((F2, 16), (F3, 10), (F5, 7)):
        for N in range(1, top + 1):
            assert len(irreducible_indices(field, N)) == \
                gauss_irreducible_count(field.q, N)
    # with a modulus: unit classes + excluded == pi(N)
    for field, mstr, top in ((F2, "T^3+T+1", 14), (F3, "T^2+1", 9)):
        m = P(field, mstr)
        for N in range(1, top + 1):
            t = sieve_count(m, N)
            assert sum(t.counts.values()) + t.excluded == \
                gauss_irreducible_count(field.q, N)


def spy_strikes(monkeypatch, record):
    """Patch sieve._strike to append (restricted, marks, unrestricted marks)
    of every call to record: a restricted table (wheel-cut, p = 2) has
    fewer entries per irreducible than low values (offsets), and each write
    in the segment marks every entry once."""
    strike = sieve._strike

    def spy(seg, base, tables):
        stride, lo, _hi, offsets, _sums = tables
        writes = (base + len(seg)) // stride - base // stride
        record.append((lo.shape[1] < len(offsets), lo.size * writes,
                       lo.shape[0] * len(offsets) * writes))
        strike(seg, base, tables)
    monkeypatch.setattr(sieve, "_strike", spy)


def test_enumeration_matches_product_oracle_across_blocks(monkeypatch):
    # from q^N = sieve._BLOCK = 2^16 on, one dense pass clears the multiples
    # of every irreducible of degree <= D: D = 3 over F2 from N = 16, D = 1
    # over F3 from N = 11, F4 from N = 8 and F5 from N = 7, several blocks
    # each at the top degree below.  From F7 up the degree-1 slots alone
    # need a table past _BLOCK, so every degree is struck, F16 N = 4
    # (q^N = 2^16) included.  The struck degrees' multiples have more H
    # digits than one block holds at the top (3^11 H values at F3 N = 13
    # for degree 2, 2^16 at F2 N = 20 for degree 4, 4^8 at F4 N = 10, 5^6 at
    # F5 N = 8, 7^6 at F7 N = 7), and over the extension fields every
    # degree d's H values times irreducibles pass _BLOCK, so its strike
    # takes several writes (at N = 6, 8 * 8^5, 28 * 8^4 and 168 * 8^3 over
    # F8; 9 * 9^5, 36 * 9^4 and 240 * 9^3 over F9).  Over F2 and F4 after
    # the dense pass, the strikes of two writes or more keep only the
    # multiples whose cofactor survives the wheel: 0.14 of them over F2
    # (every slot of degree <= 3) and 0.32 over F4 (every linear slot)
    assert [sieve._dense_degree(parse_field(name), N) for name, N in
            (("F2", 15), ("F2", 16), ("F3", 10), ("F3", 11), ("F4", 7),
             ("F4", 8), ("F5", 6), ("F5", 7), ("F7", 7), ("F16", 4))] == \
        [0, 3, 0, 1, 0, 1, 0, 1, 0, 0]
    strikes, restricted = [], set()
    spy_strikes(monkeypatch, strikes)
    for name, top in (("F3", 13), ("F2", 20), ("F4", 10), ("F5", 8),
                      ("F7", 7), ("F8", 6), ("F9", 6), ("F16", 4)):
        field = parse_field(name)
        ref = {}
        for N in range(1, top + 1):
            ref[N] = irreducible_indices_by_products(field, N, ref.__getitem__)
            strikes.clear()
            assert np.array_equal(irreducible_indices.__wrapped__(field, N),
                                  ref[N]), (name, N)
            if any(cut for cut, _, _ in strikes):
                restricted.add(name)
        if name == "F2":
            # N = 20: every degree 4..10 takes 2 or 4 writes, all cut
            cut = [(marks, full) for is_cut, marks, full in strikes if is_cut]
            assert len(cut) == 7
            assert sum(m for m, _ in cut) <= 0.25 * sum(f for _, f in cut)
            assert sum(f for _, f in cut) == sum(
                gauss_irreducible_count(2, d) * 2 ** (20 - d)
                for d in range(4, 11))
    assert restricted == {"F2", "F4"}


def test_enumeration_across_segments_matches_product_oracle(monkeypatch):
    # At the default _BLOCK a strike write or dense block spans 2^16 or
    # more encodings, all of q^N at these sizes, so the segment and the
    # block both go down: segments of p^6 raised to writes of 2^8 indices
    # or fewer.  The top degrees below then take 5 (F5 N = 7) to 729
    # (F9 N = 6) segments, F2 and F3 with a dense pass of 2^8 and 3^5.
    # The F2 dense pass clears degrees 1 and 2 (4 bits of wheel word); the
    # strikes of degrees 7 and 8 have 3 low digits of H, which span the
    # slots of T and T + 1 alone, so they keep the multiples whose cofactor
    # survives those two.  At 2^8 the F4 dense pass's table (3^8 entries)
    # does not fit, so F4 runs again at a block of 2^13 (2 segments of
    # 2^15): its degree-4 strike has 7 low digits, 3 coefficients and a
    # half, which span three of its four linear slots
    segments, strikes = [], []

    def spy(name):
        fill = getattr(sieve, name)

        def record(seg, base, tables):
            segments.append((name, base))
            fill(seg, base, tables)
        monkeypatch.setattr(sieve, name, record)

    spy_strikes(monkeypatch, strikes)
    spy("_presieve")
    spy("_strike")
    for name, top, block, spans, cut in (
            ("F2", 16, 1 << 8, 32, True), ("F3", 10, 1 << 8, 81, False),
            ("F4", 8, 1 << 8, 64, False), ("F4", 8, 1 << 13, 2, True),
            ("F5", 7, 1 << 8, 5, False), ("F8", 6, 1 << 8, 512, False),
            ("F9", 6, 1 << 8, 729, False)):
        field = parse_field(name)
        monkeypatch.setattr(sieve, "_BLOCK", block)
        monkeypatch.setattr(sieve, "_SEGMENT", field.p ** 6)
        for d in range(1, top // 2 + 1):
            irreducible_indices(field, d)  # the top degree's segments alone
        ref, restricted = {}, False
        for N in range(1, top + 1):
            ref[N] = irreducible_indices_by_products(field, N, ref.__getitem__)
            segments.clear()
            strikes.clear()
            assert np.array_equal(irreducible_indices.__wrapped__(field, N),
                                  ref[N]), (name, N)
            restricted |= any(is_cut for is_cut, _, _ in strikes)
        assert len({base for _, base in segments}) == spans, name
        assert ("_presieve", 0) in segments or field.q > 3
        assert restricted == cut, (name, block)


def _kept_fields():
    return {key[1] for key in sieve._kept}


def test_enumeration_in_any_degree_order_matches_ascending(fresh_tables):
    # The kept tables serve the next enumeration whatever its degree and
    # field: descending within a field, and interleaved across fields so
    # that every step may switch field, past each field's dense pass (F2
    # from 16, cut strikes at 17; F3 from 11; F4 from 8, cut at 9)
    tops = {"F2": 17, "F3": 11, "F4": 9}
    ref = {}
    for name, top in tops.items():
        field, found = parse_field(name), {}
        for N in range(1, top + 1):
            found[N] = irreducible_indices_by_products(field, N,
                                                       found.__getitem__)
            irreducible_indices(field, N)       # lower degrees, cached
            ref[name, N] = found[N]
    descending = [(name, N) for name, top in tops.items()
                  for N in range(top, 0, -1)]
    interleaved = sorted(ref, key=lambda job: (-job[1], job[0]))
    shuffled = list(ref)
    random.Random(3).shuffle(shuffled)
    for order in (descending, interleaved, shuffled):
        sieve._kept.clear()
        for name, N in order:
            field = parse_field(name)
            assert np.array_equal(irreducible_indices.__wrapped__(field, N),
                                  ref[name, N]), (name, N)
            assert _kept_fields() <= {field}


def test_kept_tables_are_read_only_and_dropped_when_unread(fresh_tables):
    # F2 N = 20 keeps its dense pass and strikes (cut to the wheel), F5
    # N = 9 odd-p ones with their spread/fold sums; every array is
    # read-only, and each enumeration keeps only what its degree reads
    F5_ = parse_field("F5")
    irreducible_indices.__wrapped__(F2, 20)
    assert {key[0] for key in sieve._kept} == {"dense", "residues", "strike"}
    assert any(key[-1] is not None for key in sieve._kept
               if key[0] == "strike")
    assert _kept_fields() == {F2}
    arrays = []
    irreducible_indices.__wrapped__(F5_, 9)
    assert _kept_fields() == {F5_}           # F2's are gone
    for name, N in (("F5", 9), ("F2", 20)):
        irreducible_indices.__wrapped__(parse_field(name), N)
        for tables in sieve._kept.values():
            for table in tables:
                for array in (table if isinstance(table, tuple) else
                              (table,)):
                    if isinstance(array, np.ndarray):
                        arrays.append(array)
    assert len(arrays) > 20
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array.flat[0] = 0
    # a degree reads the strikes of degrees up to half of it
    irreducible_indices.__wrapped__(F2, 8)
    assert {(key[0], key[2]) for key in sieve._kept} == {
        (kind, d) for d in range(1, 5) for kind in ("residues", "strike")}


def test_tally_tables_are_kept_per_modulus():
    # one build of a modulus's chunk tables serves every degree of it (N = 20
    # reads 21 digits, two chunks; N = 9 the first); they are read-only, and
    # a tally mod another modulus leaves them in place
    m, other = P(F2, "T^3+T+1"), P(F3, "T^2+1")

    def by_divmod(N):
        return np.bincount([(Poly.from_index(F2, int(f)) % m).encode()
                            for f in irreducible_indices(F2, N)],
                           minlength=8)
    sieve._chunk_tables.cache_clear()
    for N in (9, 20, 4, 9):
        tally = sieve._class_tally.__wrapped__(m, N)
        assert N == 20 or np.array_equal(tally, by_divmod(N)), N
    assert sieve._chunk_tables.cache_info().misses == 1
    tables, _sums = sieve._chunk_tables(m)
    assert len(tables) == 2
    assert not any(table.flags.writeable for table in tables)
    sieve._class_tally.__wrapped__(other, 5)
    assert sieve._chunk_tables(m)[0] is tables
    assert sieve._chunk_tables.cache_info().misses == 2


def test_enumeration_peak_memory_stays_below_a_bitmap():
    # a bitmap of every f of degree N would hold q^N bytes by itself; the
    # segmented sieve holds the int32 output (2.8 and 5.6 MB here), one
    # segment of 2^20 bools and the strike tables
    for name, N in (("F2", 24), ("F4", 12)):
        field = parse_field(name)
        for d in range(1, N // 2 + 1):
            irreducible_indices(field, d)
            sieve._irreducible_powers(field, d)
        tracemalloc.start()
        try:
            out = irreducible_indices.__wrapped__(field, N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out) == gauss_irreducible_count(field.q, N)
        assert peak < field.q ** N, (name, peak)


@pytest.fixture
def fresh_tables():
    """No kept sieve table before the test, and none it built after it: a
    test that corrupts what the tables are built from reaches its guard
    whatever ran before it, and leaves nothing corrupt behind."""
    sieve._kept.clear()
    yield
    sieve._kept.clear()


def test_dropped_marks_fail_the_gauss_count(monkeypatch, fresh_tables):
    # F3 N = 6 strikes degrees 1 to 3, the first without the rows of T
    field = F3
    for d in range(1, 4):
        irreducible_indices(field, d)      # cached before the patch
    powers = sieve._irreducible_powers
    monkeypatch.setattr(sieve, "_irreducible_powers",
                        lambda field, d: powers(field, d)[d == 1:])
    with pytest.raises(IntegrityError, match="degree 6 over F3"):
        irreducible_indices.__wrapped__(field, 6)


def test_dropped_dense_slot_fails_the_gauss_count(monkeypatch, fresh_tables):
    # F3 N = 11 is past the dense pass's gate: it clears degree 1 alone,
    # and with T + 1's residues in the slot of T the multiples of T survive
    field = F3
    for d in range(1, 6):
        irreducible_indices(field, d)      # cached before the patch
    powers, calls = sieve._irreducible_powers, []

    def t_plus_1_for_t(field, d):
        calls.append(d)
        rows = powers(field, d)
        return rows[[1, 1, 2]] if d == 1 else rows

    monkeypatch.setattr(sieve, "_irreducible_powers", t_plus_1_for_t)
    with pytest.raises(IntegrityError,
                       match="degree 11 over F3 exceeds the Mobius"):
        irreducible_indices.__wrapped__(field, 11)
    assert calls == [1, 2, 3, 4, 5]


def test_wheel_restriction_checks_every_row_spans_the_wheel(monkeypatch,
                                                            fresh_tables):
    # F2 N = 20 strikes degree 4 in 4 writes, cut to the cofactors that
    # survive the wheel.  With the second irreducible's row replaced by the
    # residues of T^4 + T = T (T + 1) (T^2 + T + 1), every multiple of it
    # has those three slots zero, so its low digits reach 1/16 of the
    # 1024 wheel words, not all of them, and its row would keep no index
    field = F2
    for d in range(1, 11):
        irreducible_indices(field, d)      # cached before the patch
    powers = sieve._irreducible_powers

    def reducible_row(field, d):
        rows = powers(field, d)
        if d == 4:
            rows = rows.copy()
            rows[1] = sieve._power_encodings(
                field, np.array([0b10010]), 4, rows.shape[1] - 1)[0]
        return rows

    monkeypatch.setattr(sieve, "_irreducible_powers", reducible_row)
    with pytest.raises(IntegrityError,
                       match="degree-4 strike at degree 20 over F2 is not "
                             "rectangular: the low digits of irreducible 1 "
                             "reach 64 of 1024"):
        irreducible_indices.__wrapped__(field, 20)


def test_dead_live_wheel_word_fails_the_gauss_count(monkeypatch,
                                                    fresh_tables):
    # A wheel that marks one live cofactor word dead skips real multiples:
    # the composites of that word survive every strike of F2 N = 20 (all
    # of degrees 4..10 are cut), and the surplus must raise
    field = F2
    for d in range(1, 11):
        irreducible_indices(field, d)      # cached before the patch
    cofactor_wheel, cut = sieve._cofactor_wheel, []

    def one_word_dead(field, width):
        alive = cofactor_wheel(field, width).copy()
        alive[np.flatnonzero(alive)[0]] = False
        cut.append(len(alive))
        return alive

    monkeypatch.setattr(sieve, "_cofactor_wheel", one_word_dead)
    with pytest.raises(IntegrityError,
                       match="degree 20 over F2 exceeds the Mobius"):
        irreducible_indices.__wrapped__(field, 20)
    assert cut == [1024] * 6 + [128]


def test_surplus_survivors_raise_before_the_output_overflows(monkeypatch):
    # F3 N = 13 (3^13 encodings) takes three segments of 3^12.  With the
    # strikes of degrees 2 to 6 dropped, only the dense pass's degree 1 is
    # cleared: the first segment alone holds more survivors than the
    # preallocated array, and the check raises there, before the slice
    # assignment would fail
    field = F3
    for d in range(1, 7):
        irreducible_indices(field, d)      # cached before the patch
    bases = []
    monkeypatch.setattr(sieve, "_strike",
                        lambda seg, base, tables: bases.append(base))
    with pytest.raises(IntegrityError,
                       match="degree 13 over F3 exceeds the Mobius"):
        irreducible_indices.__wrapped__(field, 13)
    assert bases == [0] * 5


def test_extra_mark_leaves_the_output_short(monkeypatch):
    field = F3
    for d in range(1, 4):
        irreducible_indices(field, d)      # cached before the patch
    victim = int(irreducible_indices(field, 6)[7]) - 3 ** 6
    strike = sieve._strike

    def strike_one_more(seg, base, tables):
        strike(seg, base, tables)
        if base <= victim < base + len(seg):
            seg[victim - base] = False

    monkeypatch.setattr(sieve, "_strike", strike_one_more)
    with pytest.raises(IntegrityError,
                       match="degree 6 over F3 falls short of the Mobius "
                             "closed form: 115 of 116"):
        irreducible_indices.__wrapped__(field, 6)


def test_spread_fold_sums_digitwise():
    rng = np.random.default_rng(11)
    for p, width in ((3, 7), (5, 4), (7, 3), (13, 2), (3, 1)):
        spread, fold = _spread_fold(p, width)
        a = rng.integers(0, p ** width, 2000)
        b = rng.integers(0, p ** width, 2000)
        want = np.array([digit_add(np.array([x]), int(y), p)[0]
                         for x, y in zip(a, b)])
        assert np.array_equal(fold[spread[a] + spread[b]], want), (p, width)


def test_vectorized_residues_vs_divmod():
    rng = random.Random(17)
    F9 = parse_field("F9")
    # the first two fit in one chunk table and one block of encodings; the
    # rest span several of each (70,000 encodings, more than one block),
    # over F_p and F_p^k, with repeated factors and with m = T.  Encodings
    # are drawn from a pool of 1,500, so divmod runs once per pool member
    cases = ((F2, "T^3+T+1", 14, 10_000), (F3, "T^3+2T+2", 8, 10_000),
             (F2, "T^8+T^4+T^3+T+1", 24, 70_000),
             (F3, "T^5+2T+1", 14, 70_000), (F5, "T^3+T+1", 9, 70_000),
             (F4, "T^4+T+2", 12, 70_000), (F9, "T^2+1", 6, 70_000),
             (F2, "T^8+T^4+1", 24, 70_000), (F2, "T", 24, 70_000))
    for field, mstr, N, size in cases:
        m = P(field, mstr)
        pool = [rng.randrange(0, field.q ** (N + 1)) for _ in range(1500)]
        residues = np.array([(Poly.from_index(field, f) % m).encode()
                             for f in pool])
        picks = np.array([rng.randrange(len(pool)) for _ in range(size)])
        tally = _tally_mod(m, np.array(pool, dtype=np.int32)[picks], N)
        assert np.array_equal(
            tally, np.bincount(residues[picks], minlength=field.q ** m.degree)
        ), mstr


def nonmonic_by_sieve(m, N):
    found, source = counts(m, N, monic=False, sieve_limit=N)
    assert source == "sieve"
    return dict(zip(unit_group(m).units, found))


def test_nonmonic_f2_equals_monic():
    m = P(F2, "T^3+T+1")
    for N in (3, 6, 9):
        assert nonmonic_by_sieve(m, N) == sieve_count(m, N).counts


def test_nonmonic_vs_naive_enumeration():
    for field, mstr, top in ((F3, "T^2+1", 6), (F3, "T^2", 6), (F5, "T^2", 3)):
        m = P(field, mstr)
        for N in range(1, top + 1):
            assert nonmonic_by_sieve(m, N) == \
                sieve_count_nonmonic_naive(m, N)


def test_nonmonic_scaling_identities():
    m = P(F3, "T^2+1")
    table = sieve_count(m, 2).counts
    nm = nonmonic_by_sieve(m, 2)
    G = unit_group(m)
    for c in G.units:
        # forced by the normalization bijection
        assert nm[c] == table[c] + table[c.scale(2) % m]
        # lambda-invariance: pi~(N; m, c) == pi~(N; m, lambda*c)
        for lam in (1, 2):
            assert nm[c] == nm[c.scale(lam) % m]


def test_weighted_count_reference():
    m = P(F2, "T^2+T+1")
    G = unit_group(m)
    chi0, chi1, _chi2 = all_characters(G)
    assert weighted_count(m, chi0, 1) == 2       # classes T and T+1
    assert weighted_count(m, chi1, 1) == -1      # zeta_3 + zeta_3^2
    # no irreducibles coprime to m at this degree -> 0
    assert weighted_count(m, chi1, 2) == 0


def test_weighted_count_trivial_identity():
    # A_chi0(d) = pi(d) - #{P | m : deg P = d}
    for field, mstr in ((F2, "T^3+T+1"), (F3, "T^2")):
        m = P(field, mstr)
        G = unit_group(m)
        chi0 = all_characters(G)[0]
        fact = factorize(m)
        for d in range(1, 8):
            excl = sum(1 for p, _ in fact.factors if p.degree == d)
            expect = gauss_irreducible_count(field.q, d) - excl
            assert weighted_count(m, chi0, d) == expect


def by_class(m, max_degree):
    """(per_class, sources): cumulative_counts as a column of running sums
    per unit class and the engine of each degree."""
    run = list(cumulative_counts(m, max_degree))
    return (dict(zip(unit_group(m).units,
                     zip(*(sums for _n, (sums, _source) in run)))),
            {n: source for n, (_sums, source) in run})


def test_cumulative_small():
    m = P(F2, "T^3+T+1")
    per_class, sources = by_class(m, 12)
    assert per_class[P(F2, "T")][4] == 3        # N=5, class T
    assert per_class[P(F2, "T^2")][11] == 108   # N=12, class T^2
    # N=1 equals the plain sieve
    first = {c: column[0] for c, column in per_class.items()}
    assert first == sieve_count(m, 1).counts
    assert all(src == "sieve" for src in sources.values())


def test_cumulative_counts_switch_to_explicit_beyond_limit():
    m = P(F3, "T^2")
    per_class, sources = by_class(m, 16)
    assert sources == {n: "sieve" if n <= 12 else "explicit"
                       for n in range(1, 17)}
    units = unit_group(m).units
    running = {c: 0 for c in units}
    for n in range(1, 17):
        found, _source = counts(m, n)
        for c, v in zip(units, found):
            running[c] += v
            assert per_class[c][n - 1] == running[c], (n, c)
    with pytest.raises(UsageError):
        cumulative_counts(m, 0)


def test_usage_errors():
    with pytest.raises(UsageError):
        sieve_count(P(F2, "T^2"), 0)
    with pytest.raises(UsageError, match="modulus must have degree >= 1"):
        sieve_count(P(F2, "1"), 3)
    with pytest.raises(UsageError):
        irreducible_indices(F3, 25)   # beyond enumeration scale


def test_concurrent_enumerations_and_tallies_match_serial():
    # threads that sieve several fields and degrees and tally several
    # moduli at once share the kept tables and the chunk tables: each must
    # read tables built for its own key, whoever else drops or grows them
    jobs = [(name, N) for name, top in (("F2", 18), ("F3", 11), ("F4", 9))
            for N in range(top // 2, top + 1)]
    serial = {job: irreducible_indices(parse_field(job[0]), job[1])
              for job in jobs}
    moduli = [P(F2, "T^3+T+1"), P(F2, "T^2"), P(F3, "T^2+1")]
    tallies = [(m, N) for m in moduli for N in range(4, 12)]
    want = {job: sieve._class_tally(*job) for job in tallies}

    def run(job):
        if isinstance(job[0], str):
            return np.array_equal(irreducible_indices.__wrapped__(
                parse_field(job[0]), job[1]), serial[job])
        return np.array_equal(sieve._class_tally.__wrapped__(*job),
                              want[job])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            assert all(pool.map(run, 3 * (jobs + tallies + jobs[::-1]),
                                timeout=120))
    finally:
        sys.setswitchinterval(interval)
