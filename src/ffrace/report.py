"""Empirical tie-pattern detection, cumulative-tie scans, and the reference
tables (rendered md/csv/json, byte-stable)."""

import json
from dataclasses import dataclass
from itertools import combinations
from math import lcm

from .characters import unit_group
from .errors import UsageError
from .explicit import cumulative_counts, run_counts
from .gl2 import stabilizer_period, stabilizer_search
from .limits import MAX_PERIOD, check
from .polyring import Poly, format_poly, parse_poly
from .field import parse_field


def default_period(m):
    """lcm of the stabilizer periods (order of cT+d mod m); falls back to the
    unit-group exponent when only the identity stabilizes."""
    p = lcm(*(stabilizer_period(m, B) for B, _lam in stabilizer_search(m)))
    return p if p > 1 else unit_group(m).exponent


@dataclass
class ResiduePattern:
    groups: tuple       # partition of unit classes, canonical order
    consistent: bool    # identical grouping at every observed degree
    observed: tuple     # degrees N = residue (mod period) in the window


@dataclass
class TiePatternReport:
    modulus: Poly
    lo: int
    hi: int
    period: int
    per_residue: dict   # residue -> ResiduePattern
    sources: dict       # N -> "sieve" | "explicit"

    def to_json(self):
        return {
            "modulus": format_poly(self.modulus),
            "field": repr(self.modulus.field),
            "window": [self.lo, self.hi],
            "period": self.period,
            "residues": {
                str(r): {
                    "groups": [[format_poly(c) for c in grp]
                               for grp in pat.groups],
                    "consistent": pat.consistent,
                    "observed": list(pat.observed),
                } for r, pat in self.per_residue.items()},
            "sources": {str(n): s for n, s in sorted(self.sources.items())},
        }


def detect_tie_patterns(m, lo, hi, period=None):
    """Group unit classes by exact count equality at every observed degree in
    each residue class of N mod period (the partition is the common
    refinement across the window)."""
    if not 1 <= lo <= hi:
        raise UsageError("need 1 <= lo <= hi")
    degrees = range(lo, hi + 1)
    run = run_counts(m, degrees)
    if period is None:
        period = default_period(m)
    if period < 1:
        raise UsageError("period must be >= 1")
    check(MAX_PERIOD, "tie patterns mod %s" % format_poly(m), period)
    units = unit_group(m).units
    found, sources = {}, {}
    for n, (counted, source) in run:
        found[n], sources[n] = counted, source
    per_residue = {}
    for r in range(period):
        observed = [n for n in degrees if n % period == r]
        if not observed:
            per_residue[r] = ResiduePattern(groups=(), consistent=True,
                                            observed=())
            continue
        # each class's counts at the observed degrees
        profile = zip(*(found[n] for n in observed))
        groups = tuple(tuple(units[i] for i in group)
                       for group in _tied(profile).values())
        per_degree = [list(_tied(found[n]).values()) for n in observed]
        consistent = all(p == per_degree[0] for p in per_degree)
        per_residue[r] = ResiduePattern(groups=groups, consistent=consistent,
                                        observed=tuple(observed))
    return TiePatternReport(modulus=m, lo=lo, hi=hi, period=period,
                            per_residue=per_residue, sources=sources)


def check_cumulative_ties(m, n_max):
    """Every (N, (a, b)) with equal cumulative counts sum_{n<=N} pi(n;m,.) of
    two distinct classes, N = 1..n_max."""
    run = cumulative_counts(m, n_max)
    units = unit_group(m).units
    out = []
    for n, (sums, _source) in run:
        for _count, group in sorted(_tied(sums).items()):
            out += [(n, (units[i], units[j]))
                    for i, j in combinations(group, 2)]
    return out


def _tied(counts):
    """{count: the indices of the classes with it} over counts in canonical
    class order, keys in order of first occurrence, each list ascending: one
    form for each partition of the classes into ties."""
    out = {}
    for i, c in enumerate(counts):
        out.setdefault(c, []).append(i)
    return out


# --- reference tables -------------------------------------------------------

@dataclass(frozen=True)
class TableSpec:
    key: str
    field: str
    modulus: str
    lo: int
    hi: int
    cumulative: bool


TABLES = {
    "T3T1": TableSpec("T3T1", "F2", "T^3+T+1", 9, 22, False),
    "T2T1group": TableSpec("T2T1group", "F2", "T^2+T+1", 10, 20, False),
    "p3T21group": TableSpec("p3T21group", "F3", "T^2+1", 10, 20, False),
    "p2T2": TableSpec("p2T2", "F2", "T^2", 10, 20, False),
    "p3T2": TableSpec("p3T2", "F3", "T^2", 10, 20, False),
    "T3T1cum": TableSpec("T3T1cum", "F2", "T^3+T+1", 1, 40, True),
}


def generator_power_columns(m):
    """Unit classes ordered 1, g, g^2, ..., g^(M'-1) for the canonical
    generator g (the tables' column convention)."""
    G = unit_group(m)
    if not G.is_cyclic:
        raise UsageError("generator-power columns need a cyclic unit group")
    # in a cyclic group the grid position of g^k is k
    return [G.units[i] for i in G.unit_at.tolist()]


def emit_table(key, fmt="csv", lo=None, hi=None):
    """Render one reference table; every number comes from explicit.counts
    with its default routing (never hardcoded)."""
    try:
        spec = TABLES[key]
    except KeyError:
        raise UsageError("unknown table %r (choose from %s)"
                         % (key, ", ".join(sorted(TABLES))))
    lo = spec.lo if lo is None else lo
    hi = spec.hi if hi is None else hi
    if not 1 <= lo <= hi:
        raise UsageError("bad row range %d..%d" % (lo, hi))
    field = parse_field(spec.field)
    m = parse_poly(field, spec.modulus)
    header = ["N"] + [format_poly(c) for c in generator_power_columns(m)]
    run = cumulative_counts(m, hi) if spec.cumulative else \
        run_counts(m, range(lo, hi + 1))
    # in a cyclic group the grid position of g^k is k
    cols = unit_group(m).unit_at.tolist()
    rows = [[n] + [found[i] for i in cols]
            for n, (found, _source) in run if n >= lo]
    return render_table(header, rows, fmt, name=key)


def render_table(header, rows, fmt, name=None):
    """Deterministic rendering; numbers are plain decimal integers."""
    if fmt == "csv":
        lines = [",".join(str(x) for x in header)]
        lines += [",".join(str(x) for x in row) for row in rows]
        return "\n".join(lines) + "\n"
    if fmt == "md":
        lines = ["| " + " | ".join(str(x) for x in header) + " |",
                 "|" + "---|" * len(header)]
        lines += ["| " + " | ".join(str(x) for x in row) + " |"
                  for row in rows]
        return "\n".join(lines) + "\n"
    if fmt == "json":
        obj = {"columns": [str(x) for x in header],
               "rows": [list(row) for row in rows]}
        if name:
            obj = {"table": name, **obj}
        return json.dumps(obj, indent=2) + "\n"
    raise UsageError("unknown format %r (md, csv, json)" % (fmt,))
