"""Self-tests of the benchmark's checks: each corrupted answer must be
rejected, and the hand-derived factorisations must match a brute-force
derivation.  Fast; the checks under test use none of ffrace's
arithmetic (workloads.py is imported for its data and its paper checks).

    python3 perfbench/test_checks.py      (or: python3 -m pytest perfbench)
"""

import copy
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402


# --- brute-force factorisation over F_q (q prime or 4) ---------------------

def _add(q, a, b):
    return a ^ b if q == 4 else (a + b) % q


def _divmod(q, f, g):
    """Quotient and remainder of coefficient lists (T^0 first), g monic."""
    r = list(f)
    quo = [0] * max(1, len(f) - len(g) + 1)
    while len(r) >= len(g) and any(r):
        c = r[-1]
        shift = len(r) - len(g)
        quo[shift] = c
        for i, gc in enumerate(g):
            prod = checks.gf_mul(q, c, gc)
            r[shift + i] = _add(q, r[shift + i], prod if q == 4 else -prod % q)
        while r and r[-1] == 0:
            r.pop()
    return quo, r


def _monics(q, d):
    for t in range(q ** d):
        yield [(t // q ** i) % q for i in range(d)] + [1]


def _irreducible(q, f):
    d = len(f) - 1
    return all(_divmod(q, f, g)[1]
               for k in range(1, d // 2 + 1) for g in _monics(q, k))


def derive_factorisation(q, modulus):
    """(degree, multiplicity) of each distinct irreducible factor, sorted."""
    f = list(checks.parse_label(modulus))
    out = []
    for d in range(1, len(f)):
        for g in _monics(q, d):
            if not _irreducible(q, g):
                continue
            e = 0
            quo, rem = _divmod(q, f, g)
            while not rem:
                e += 1
                f = quo
                while f and f[-1] == 0:
                    f.pop()
                quo, rem = _divmod(q, f, g)
            if e:
                out.append((d, e))
    return sorted(out)


def test_factorisations_match_brute_force():
    import workloads
    moduli = list(workloads.PAPER_MODULI.items())
    moduli += [((f, m), fac) for f, m, fac, _w in workloads.EXPLICIT_DEEP]
    moduli += [((f, m), fac) for f, m, fac in workloads.WIDE_GROUP]
    for (field, mod), factors in moduli:
        assert derive_factorisation(int(field[1:]), mod) == sorted(factors), \
            (field, mod)


# --- the checks reject corrupted answers -------------------------------------

def test_number_theory():
    assert [checks.mobius(n) for n in range(1, 11)] == \
        [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]
    assert [checks.gauss_count(2, n) for n in range(1, 7)] == \
        [2, 1, 2, 3, 6, 9]
    assert checks.gauss_count(3, 2) == 3
    assert checks.unit_group_order(2, [(2, 4)]) == 192
    assert checks.unit_group_order(4, [(2, 1), (2, 1)]) == 225
    assert all(checks.gf_mul(4, a, checks.gf_inv(4, a)) == 1
               for a in range(1, 4))


def _published():
    import workloads
    return workloads._published()


# the published tables' columns mod T^3+T+1: powers of the generator T
T3T1_COLUMNS = ["1", "T", "T^2", "T+1", "T^2+T", "T^2+T+1", "T^2+1"]


def _t3t1_counts(n):
    """pi(n; T^3+T+1, .) over F2 from the published table, by class."""
    return {checks.parse_label(c): v
            for c, v in zip(T3T1_COLUMNS, _published()["T3T1"][n])}


def test_class_count_off_by_one_is_rejected():
    counts = _t3t1_counts(15)
    assert checks.check_counts(2, [(3, 1)], 15, counts) == []
    bad = dict(counts)
    bad[(1,)] += 1
    assert checks.check_counts(2, [(3, 1)], 15, bad)
    neg = dict(counts)
    neg[(1,)] = -1
    assert checks.check_counts(2, [(3, 1)], 15, neg)


def _table_csv(rows):
    lines = [",".join(["N"] + T3T1_COLUMNS)]
    lines += [",".join(str(x) for x in [n] + list(row)) for n, row in rows]
    return "\n".join(lines) + "\n"


def test_swapped_table_row_is_rejected():
    import workloads
    TABLE_BY_KEY = _published()
    table = TABLE_BY_KEY["T3T1"]
    argv = ["table", "T3T1", "--format", "csv"]
    good = _table_csv(sorted(table.items()))
    assert workloads.check_paper([(argv, 0, good)], TABLE_BY_KEY) == []
    rows = sorted(table.items())
    rows[3], rows[4] = (rows[3][0], rows[4][1]), (rows[4][0], rows[3][1])
    swapped = _table_csv(rows)
    assert workloads.check_paper([(argv, 0, swapped)], TABLE_BY_KEY)
    # two classes of one row swapped
    rows = sorted(table.items())
    n, row = rows[5]
    rows[5] = (n, (row[1], row[0]) + tuple(row[2:]))
    assert workloads.check_paper([(argv, 0, _table_csv(rows))],
                                 TABLE_BY_KEY)


def test_certificate_orbit_with_unequal_counts_is_rejected():
    # the paper's T^3+T+1 certificate: period 7, residue 1, q = 2
    cert = {"matrix": [1, 1, 1, 0], "residue": 8, "period": 7, "monic": True,
            "orbits": [[(1,), (0, 1), (1, 1)],
                       [(0, 0, 1), (0, 1, 1), (1, 1, 1)], [(1, 0, 1)]]}
    counts = {n: _t3t1_counts(n) for n in (15, 16, 22)}
    fails, checked = checks.check_certificate(2, cert, counts)
    assert fails == [] and checked == 2       # N = 15 and 22
    bad = copy.deepcopy(counts)
    bad[22][(0, 1)] += 1
    fails, _ = checks.check_certificate(2, cert, bad)
    assert fails
    # a non-monic certificate is checked on all-leading-coefficient counts:
    # over F3, class c and 2c must be summed
    f3 = {(1,): 5, (2,): 7, (0, 1): 6, (0, 2): 6}
    cert3 = {"matrix": [1, 0, 0, 2], "residue": 0, "period": 1,
             "monic": False, "orbits": [[(1,), (2,)], [(0, 1), (0, 2)]]}
    assert checks.check_certificate(3, cert3, {4: f3})[0] == []
    cert3["monic"] = True
    assert checks.check_certificate(3, cert3, {4: f3})[0]


def test_lpoly_weil_check():
    # over F2: 1 + u has the inverse zero -1 (absolute value 1); 1 - 3u has
    # the inverse zero 3, neither 1 nor sqrt 2; a_0 = 2 is not 1
    assert checks.check_lpoly(2, 2, 2, [([1], 1), ([1], 1)]) == []
    assert checks.check_lpoly(2, 2, 2, [([1], 1), ([-3], 1)])
    assert checks.check_lpoly(2, 2, 2, [([2], 1)])


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for t in tests:
        t()
        print("ok", t.__name__)
