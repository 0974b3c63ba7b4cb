"""Empirical tie-pattern detection, cumulative-tie scans, and the reference
tables (rendered md/csv/json, byte-stable)."""

import json
from dataclasses import dataclass
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
    G = unit_group(m)
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
        profile = {u: tuple(found[n][u] for n in observed) for u in G.units}
        blocks = {}
        for u in G.units:
            blocks.setdefault(profile[u], []).append(u)
        groups = tuple(tuple(b) for b in
                       sorted(blocks.values(), key=lambda b: b[0].sort_key()))
        per_degree = []
        for n in observed:
            one = {}
            for u in G.units:
                one.setdefault(found[n][u], []).append(u)
            per_degree.append(frozenset(tuple(v) for v in one.values()))
        consistent = all(p == per_degree[0] for p in per_degree)
        per_residue[r] = ResiduePattern(groups=groups, consistent=consistent,
                                        observed=tuple(observed))
    return TiePatternReport(modulus=m, lo=lo, hi=hi, period=period,
                            per_residue=per_residue, sources=sources)


def check_cumulative_ties(m, n_max):
    """Every (N, (a, b)) with equal cumulative counts sum_{n<=N} pi(n;m,.) of
    two distinct classes, N = 1..n_max."""
    per_class, _sources = cumulative_counts(m, n_max)
    out = []
    for n in range(1, n_max + 1):
        by_val = {}
        for c, column in per_class.items():
            by_val.setdefault(column[n - 1], []).append(c)
        for v, group in sorted(by_val.items()):
            if len(group) > 1:
                for i in range(len(group)):
                    for j in range(i + 1, len(group)):
                        out.append((n, (group[i], group[j])))
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
    cols = generator_power_columns(m)
    if spec.cumulative:
        per_class, _sources = cumulative_counts(m, hi)
        rows = [[n] + [per_class[c][n - 1] for c in cols]
                for n in range(lo, hi + 1)]
    else:
        rows = [[n] + [found[c] for c in cols]
                for n, (found, _source) in run_counts(m, range(lo, hi + 1))]
    header = ["N"] + [format_poly(c) for c in cols]
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
