import json
import pathlib

import pytest

from group_oracle import unit_pow
from published_values import TABLE_BY_KEY
from ffrace.characters import unit_group
from ffrace.errors import UsageError
from ffrace.field import field_make, parse_field
from ffrace.gl2 import certify_ties, stabilizer_search
from ffrace.limits import MAX_PERIOD
from ffrace.polyring import format_poly, parse_poly
from ffrace.report import (TABLES, check_cumulative_ties, default_period,
                           detect_tie_patterns, emit_table,
                           generator_power_columns, render_table)

GOLDEN = pathlib.Path(__file__).parent / "golden"

F2 = field_make(2)
F3 = field_make(3)


def P(field, s):
    return parse_poly(field, s)


def names(group_tuple):
    return tuple(format_poly(c) for c in group_tuple)


def test_emit_table_matches_goldens_bytewise():
    for key in TABLES:
        got = emit_table(key, fmt="csv")
        want = (GOLDEN / (key + ".csv")).read_text()
        assert got == want, key


def test_goldens_match_published_values():
    # the checked-in goldens carry exactly the published numbers
    for key, table in TABLE_BY_KEY.items():
        lines = (GOLDEN / (key + ".csv")).read_text().strip().split("\n")
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == len(table)
        for row in rows:
            n = int(row[0])
            assert tuple(int(x) for x in row[1:]) == table[n], (key, n)


def test_emit_table_column_headers():
    text = emit_table("T3T1", fmt="csv", lo=9, hi=9)
    header = text.splitlines()[0]
    # generator-power order: 1, T, T^2, T^3 = T+1, ...
    assert header == "N,1,T,T^2,T+1,T^2+T,T^2+T+1,T^2+1"


def test_emit_table_formats():
    md = emit_table("p2T2", fmt="md", lo=10, hi=11)
    assert md.splitlines()[0] == "| N | 1 | T+1 |"
    assert "| 10 | 48 | 51 |" in md
    obj = json.loads(emit_table("p2T2", fmt="json", lo=10, hi=11))
    assert obj["table"] == "p2T2"
    assert obj["rows"] == [[10, 48, 51], [11, 93, 93]]
    with pytest.raises(UsageError):
        emit_table("nope")
    with pytest.raises(UsageError):
        emit_table("p2T2", fmt="xml")


def test_render_numbers_are_plain_decimal():
    big = emit_table("T3T1cum", fmt="csv", lo=40, hi=40)
    assert "e" not in big.splitlines()[1].lower().replace("t^", "")
    assert "8066595506" in big


def test_detect_patterns_T3T1_residue1():
    m = P(F2, "T^3+T+1")
    rep = detect_tie_patterns(m, 9, 22, period=7)
    pat = rep.per_residue[1]
    groups = {names(g) for g in pat.groups}
    assert ("1", "T", "T+1") in groups
    assert ("T^2", "T^2+T", "T^2+T+1") in groups
    assert ("T^2+1",) in groups
    assert pat.consistent
    assert pat.observed == (15, 22)


def test_detect_patterns_T2T1_residue0():
    m = P(F2, "T^2+T+1")
    rep = detect_tie_patterns(m, 10, 20, period=3)
    pat = rep.per_residue[0]
    groups = {names(g) for g in pat.groups}
    assert ("T", "T+1") in groups      # T^2 = T+1 as a residue
    assert ("1",) in groups


def test_detect_patterns_period1_no_ties():
    m = P(F2, "T^3+T+1")
    rep = detect_tie_patterns(m, 9, 22, period=1)
    pat = rep.per_residue[0]
    assert all(len(g) == 1 for g in pat.groups)   # no class ties at every N


def test_default_period_from_stabilizers():
    assert default_period(P(F2, "T^2+T+1")) == 3
    assert default_period(P(F2, "T^3+T+1")) == 7
    assert default_period(P(F3, "T^2")) == 6      # includes an order-3 matrix


def test_patterns_refine_certificates():
    # wherever a certificate exists, its orbits sit inside detected groups
    for field, mstr, hi in ((F2, "T^2+T+1", 16), (F2, "T^3+T+1", 22),
                            (F2, "T^2", 16), (F3, "T^2+1", 12),
                            (F3, "T^2", 12), (F3, "T^3+2T+2", 12)):
        m = parse_poly(field, mstr)
        for B, lam in stabilizer_search(m):
            cert = certify_ties(m, B, lam, m.degree - 1)
            if not cert.monic_certified:
                continue
            rep = detect_tie_patterns(m, 2, hi, period=cert.period)
            pat = rep.per_residue[cert.residue % cert.period]
            for orbit in cert.orbits:
                containing = [g for g in pat.groups
                              if set(orbit) <= set(g)]
                assert containing, (mstr, B.entries(), names(orbit))


def test_pattern_sources_label_engines():
    m = P(F3, "T^2")
    rep = detect_tie_patterns(m, 10, 13, period=2)
    assert rep.sources[10] == "sieve"
    assert rep.sources[13] == "explicit"


def test_cumulative_ties_reference():
    m = P(F2, "T^3+T+1")
    ties = check_cumulative_ties(m, 12)
    # published cumulative table: at N=2 classes T and T+1 both sit at 1
    assert any(n == 2 and {format_poly(a), format_poly(b)} == {"T", "T+1"}
               for n, (a, b) in ties)
    # class pairs are distinct and degrees within range
    for n, (a, b) in ties:
        assert 1 <= n <= 12 and a != b


def test_cumulative_ties_nmax_one():
    # at N_max = 1 the ties are exactly the classes with equal degree-1 counts
    from ffrace.sieve import sieve_count
    m = P(F3, "T^2+1")
    counts = sieve_count(m, 1).counts
    got = {frozenset(pair) for n, pair in check_cumulative_ties(m, 1)}
    want = set()
    classes = list(counts)
    for i, a in enumerate(classes):
        for b in classes[i + 1:]:
            if counts[a] == counts[b]:
                want.add(frozenset((a, b)))
    assert got == want


def test_half_the_ties_certifiable_mod4():
    # at N = 0 (mod 4) the classes g, g^2, g^4, g^5 mod T^2/F3 are all tied
    # empirically, but matrix transport only reaches the two pairs
    # (g^2, g^4) and (g, g^5): no stabilizer has period 4 (unit orders
    # divide 6), so no certificate isolates the 0 mod 4 degrees
    m = P(F3, "T^2")
    G = unit_group(m)
    g = G.generators[0]
    four = {unit_pow(G, g, k) for k in (1, 2, 4, 5)}
    rep = detect_tie_patterns(m, 8, 16, period=4)
    groups = {names(grp) for grp in rep.per_residue[0].groups}
    assert ("T+1", "T+2", "2*T+1", "2*T+2") in groups
    certified = set()
    for B, lam in stabilizer_search(m):
        cert = certify_ties(m, B, lam, 4)
        if 4 % cert.period:
            continue
        for orbit in cert.orbits:
            hit = sorted(format_poly(c) for c in orbit if c in four)
            if len(hit) > 1:
                certified.add(tuple(hit))
    assert certified == {("2*T+1", "T+1"), ("2*T+2", "T+2")}


def test_generator_power_columns():
    cols = generator_power_columns(P(F3, "T^2"))
    assert [format_poly(c) for c in cols] == \
        ["1", "T+2", "T+1", "2", "2*T+1", "2*T+2"]
    with pytest.raises(UsageError):
        generator_power_columns(P(F2, "T^4+T^2+1"))   # non-cyclic


def test_render_table_roundtrip():
    text = render_table(["a", "b"], [[1, 2], [3, 4]], "csv")
    assert text == "a,b\n1,2\n3,4\n"
    md = render_table(["a"], [[5]], "md")
    assert md == "| a |\n|---|\n| 5 |\n"


def test_detect_patterns_period_past_group_order_limit_is_usage_error():
    m = P(F2, "T^3+T+1")
    with pytest.raises(UsageError,
                       match="limit is period %d" % MAX_PERIOD.value):
        detect_tie_patterns(m, 3, 10, period=MAX_PERIOD.value + 1)
    with pytest.raises(UsageError):
        detect_tie_patterns(m, 3, 10, period=0)
