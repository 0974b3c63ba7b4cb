"""The benchmark's three workloads, run inside one pass (one interpreter).

Each workload has a set-up step (the per-modulus state: unit groups,
characters, L-polynomials, ExplicitCounter construction), a solve step (the
answer a user waits for) and a check step that runs after the timed region
on plain data taken from the answer.  An operation is one call into a
public function of ffrace (or one CLI command); it fails when it raises
one of ffrace's errors (or the command exits non-zero).

Known factorisations are hand-derived, as (degree, multiplicity) of each
distinct irreducible factor; perfbench/test_checks.py re-derives them.
"""

import contextlib
import importlib.util
import io
import json
import os
import random

# Layers are called through their modules, so that a traced pass sees the
# wrapped names (perfbench/tracing.py).
from ffrace import characters, cli, explicit, gl2, sieve
from ffrace.errors import IntegrityError, UsageError
from ffrace.field import parse_field
from ffrace.polyring import parse_poly

import checks

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Top degree of the sieve's range per q (the program's default cutoff).
SIEVE_TOP = {2: 24, 3: 14, 4: 12, 5: 9}

# --- paper -------------------------------------------------------------------
# The six moduli of the paper and their factorisations.
PAPER_MODULI = {
    ("F2", "T^2"): [(1, 2)],
    ("F2", "T^2+T+1"): [(2, 1)],
    ("F2", "T^3+T+1"): [(3, 1)],
    ("F3", "T^2"): [(1, 2)],
    ("F3", "T^2+1"): [(2, 1)],
    ("F3", "T^3+2T+2"): [(3, 1)],
}
# Reference table -> the modulus it is taken mod.
PAPER_TABLES = {
    "T3T1": ("F2", "T^3+T+1"),
    "T2T1group": ("F2", "T^2+T+1"),
    "p3T21group": ("F3", "T^2+1"),
    "p2T2": ("F2", "T^2"),
    "p3T2": ("F3", "T^2"),
    "T3T1cum": ("F2", "T^3+T+1"),
}
# The paper's GL2 examples: (field, modulus, residue, verify-to, matrix,
# period, orbits that must appear).
PAPER_CERTIFICATES = [
    ("F2", "T^3+T+1", 1, 22, [1, 1, 1, 0], 7,
     [["1", "T", "T+1"], ["T^2", "T^2+T", "T^2+T+1"], ["T^2+1"]]),
    ("F2", "T^2+T+1", 1, 22, [0, 1, 1, 0], 3, [["1", "T"], ["T+1"]]),
    ("F2", "T^2+T+1", 1, 22, [1, 1, 0, 1], 1, [["1"], ["T", "T+1"]]),
    ("F3", "T^2+1", 1, 14, [1, 0, 0, 2], 2,
     [["1", "2"], ["T"], ["2*T"], ["T+1", "T+2"], ["2*T+1", "2*T+2"]]),
    ("F3", "T^2", 1, 14, [1, 0, 0, 2], 2,
     [["1", "2"], ["T+1", "T+2"], ["2*T+1", "2*T+2"]]),
    ("F2", "T^2", 1, 22, [1, 0, 1, 1], 2, [["1", "T+1"]]),
    ("F3", "T^3+2T+2", 2, 14, [1, 1, 0, 1], 1,
     [["1"], ["2"], ["T", "T+1", "T+2"], ["2*T", "2*T+1", "2*T+2"],
      ["T^2", "T^2+2*T+1", "T^2+T+1"]]),
]
# Galois conjugate relations (chi, chi', l, t, stripped) the paper states.
PAPER_RELATIONS = {
    ("F2", "T^3+T+1"): [("1", "1", 2, 6, True), ("1", "1", 4, 4, True)],
    ("F3", "T^2+1"): [("1", "1", 3, 4, False)],
    ("F3", "T^2"): [("1", "1", 5, 3, False)],
}
# (field, modulus, class a, class b, degrees): pi_a - pi_b > 0 throughout.
PAPER_BIAS = [
    ("F2", "T^2+T+1", "T", "1", "9:60:3"),
    ("F2", "T^2", "T+1", "1", "4:40:2"),
]
# Artin-Schreier modulus: pi(24; T^3+2T+2, c) on the translation orbit.
AS_DEGREE, AS_ORBIT, AS_COUNT = 24, ["T^2", "T^2+2*T+1", "T^2+T+1"], 452605575
CUMULATIVE_TOP, CUMULATIVE_ONE = 40, 8066595506
# ties-empirical windows: the tabled range where a table exists.
PAPER_TIE_WINDOWS = {
    ("F2", "T^3+T+1"): (9, 22, "T3T1"),
    ("F2", "T^2+T+1"): (10, 20, "T2T1group"),
    ("F2", "T^2"): (10, 20, "p2T2"),
    ("F3", "T^2+1"): (10, 20, "p3T21group"),
    ("F3", "T^2"): (10, 20, "p3T2"),
    ("F3", "T^3+2T+2"): (10, 16, None),
}

# --- explicit-deep -----------------------------------------------------------
# (field, modulus, factorisation, degrees past the sieve cutoff)
EXPLICIT_DEEP = [
    ("F2", "T^6+T^3+1", [(6, 1)], range(26, 28)),    # order 63, cyclic
    ("F3", "T^4+T+2", [(4, 1)], range(16, 19)),      # order 80, cyclic
    ("F4", "T^3+T+1", [(3, 1)], range(13, 15)),      # order 63, over F4
    ("F2", "T^6+T^2+1", [(3, 2)], range(25, 31)),    # order 56, [2,2,14]
]

# --- wide-group --------------------------------------------------------------
WIDE_GROUP = [
    ("F2", "T^8+T^4+T^3+T+1", [(8, 1)]),   # order 255, cyclic
    ("F2", "T^8+T^4+1", [(2, 4)]),         # order 192, [2,2,4,12]
    ("F3", "T^5+2T+1", [(5, 1)]),          # order 242, cyclic
    ("F4", "T^4+T+2", [(2, 1), (2, 1)]),   # order 225, [15,15]
    ("F5", "T^3+T+1", [(3, 1)]),           # order 124, cyclic
]


class Ops:
    """Operations attempted and failed in one pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except (UsageError, IntegrityError) as exc:
            self.failed += 1
            self.errors.append("%s: %s" % (getattr(fn, "__name__", fn), exc))
            return None


def _modulus(field, text):
    return parse_poly(parse_field(field), text)


def _counts(table):
    return {u.coeffs: v for u, v in table.items()}


def _cert_data(cert):
    return {"matrix": list(cert.matrix.entries()), "residue": cert.residue,
            "period": cert.period, "monic": cert.monic_certified,
            "orbits": [[c.coeffs for c in orb] for orb in cert.orbits]}


# --- paper -------------------------------------------------------------------

def _paper_commands(seed):
    cmds = [["table", key, "--format", "csv"] for key in PAPER_TABLES]
    done = set()
    for field, mod, e, top, *_rest in PAPER_CERTIFICATES:
        if (field, mod) not in done:
            done.add((field, mod))
            cmds.append(["ties-gl2", "--field", field, "--modulus", mod,
                         "--residue", str(e), "--verify-to", str(top),
                         "--seed", str(seed), "--format", "json"])
    for field, mod in PAPER_RELATIONS:
        cmds.append(["relations", "--field", field, "--modulus", mod,
                     "--format", "json"])
    for field, mod, a, b, degrees in PAPER_BIAS:
        cmds.append(["bias", "--field", field, "--modulus", mod,
                     "--class-a", a, "--class-b", b, "--degrees", degrees,
                     "--expect", "pos", "--format", "json"])
    cmds.append(["count-explicit", "--field", "F3", "--modulus", "T^3+2T+2",
                 "--degree", str(AS_DEGREE), "--format", "csv"])
    cmds.append(["cumulative", "--field", "F2", "--modulus", "T^3+T+1",
                 "--max-degree", str(CUMULATIVE_TOP), "--ties",
                 "--format", "json"])
    for (field, mod), (lo, hi, _key) in PAPER_TIE_WINDOWS.items():
        cmds.append(["ties-empirical", "--field", field, "--modulus", mod,
                     "--min-degree", str(lo), "--max-degree", str(hi),
                     "--format", "json"])
    return cmds


def setup_paper(ops, seed):
    for field, mod in PAPER_MODULI:
        ops.call(explicit.explicit_counter, _modulus(field, mod))
    return {"commands": _paper_commands(seed)}


def solve_paper(ops, state):
    outputs = []
    for argv in state["commands"]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        ops.attempted += 1
        if code != 0:
            ops.failed += 1
            ops.errors.append("ffrace %s exited %d" % (" ".join(argv), code))
        outputs.append((argv, code, buf.getvalue()))
    return outputs


def _published():
    path = os.path.join(ROOT, "tests", "published_values.py")
    spec = importlib.util.spec_from_file_location("published_values", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TABLE_BY_KEY


def _parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = [[int(x) if x.lstrip("-").isdigit() else x
             for x in line.split(",")] for line in lines[1:]]
    return header, rows


def check_paper(outputs, published):
    """Checks on the CLI outputs of the paper workload; published maps each
    table key to {N: row} in generator-power column order."""
    fails = []
    by_cmd = {}
    for argv, code, text in outputs:
        if code == 0:
            by_cmd[tuple(argv)] = text
    labelled = {}   # table key -> {N: {class: count}}
    for key, (field, mod) in PAPER_TABLES.items():
        text = by_cmd.get(("table", key, "--format", "csv"))
        if text is None:
            continue
        header, rows = _parse_csv(text)
        got = {r[0]: tuple(r[1:]) for r in rows}
        want = published[key]
        if got != want:
            bad = sorted(n for n in set(got) | set(want)
                         if got.get(n) != want.get(n))
            fails.append("table %s differs from the published values at N=%s"
                         % (key, bad))
        classes = [checks.parse_label(c) for c in header[1:]]
        labelled[key] = {n: dict(zip(classes, row)) for n, row in got.items()}
        factors = PAPER_MODULI[(field, mod)]
        q = int(field[1:])
        if key == "T3T1cum":
            if got.get(CUMULATIVE_TOP, (None,))[0] != CUMULATIVE_ONE:
                fails.append("cumulative pi(<=40; T^3+T+1, 1) != %d"
                             % CUMULATIVE_ONE)
            running = 0
            for n in sorted(got):
                running += checks.gauss_count(q, n) - \
                    checks.excluded_count(factors, n)
                if sum(got[n]) != running:
                    fails.append("T3T1cum: N=%d sums to %d, expected %d"
                                 % (n, sum(got[n]), running))
        else:
            for n, counts in labelled[key].items():
                fails += ["table %s %s" % (key, f) for f in
                          checks.check_counts(q, factors, n, counts)]
    fails += _check_paper_certificates(by_cmd, labelled)
    fails += _check_paper_relations(by_cmd)
    fails += _check_paper_bias(by_cmd)
    fails += _check_paper_artin_schreier(by_cmd)
    fails += _check_paper_cumulative_ties(by_cmd, labelled)
    fails += _check_paper_tie_patterns(by_cmd, labelled)
    return fails


def _json_out(by_cmd, prefix, field, mod):
    for argv, text in by_cmd.items():
        if argv[0] == prefix and argv[2] == field and argv[4] == mod:
            return json.loads(text)
    return None


def _check_paper_certificates(by_cmd, labelled):
    fails = []
    tables = {v: k for k, v in PAPER_TABLES.items() if k != "T3T1cum"}
    for field, mod, _e, _top, matrix, period, orbits in PAPER_CERTIFICATES:
        certs = _json_out(by_cmd, "ties-gl2", field, mod)
        if certs is None:
            continue
        cert = next((c for c in certs if c["matrix"] == matrix), None)
        if cert is None:
            fails.append("%s/%s: no certificate for %s" % (mod, field, matrix))
            continue
        if cert["period"] != period:
            fails.append("%s/%s %s: period %d, paper says %d"
                         % (mod, field, matrix, cert["period"], period))
        got = {tuple(sorted(o)) for o in cert["orbits"]}
        if not {tuple(sorted(o)) for o in orbits} <= got:
            fails.append("%s/%s %s: orbits %s miss the paper's %s"
                         % (mod, field, matrix, sorted(got), orbits))
        key = tables.get((field, mod))
        if key in labelled and cert["monic_certified"]:
            data = {"residue": cert["residue"], "period": cert["period"],
                    "monic": True, "matrix": matrix,
                    "orbits": [[checks.parse_label(c) for c in o]
                               for o in cert["orbits"]]}
            fails += checks.check_certificate(int(field[1:]), data,
                                              labelled[key])[0]
    return fails


def _check_paper_relations(by_cmd):
    fails = []
    for (field, mod), wanted in PAPER_RELATIONS.items():
        rels = _json_out(by_cmd, "relations", field, mod)
        if rels is None:
            continue
        got = {(r["chi"], r["other"], r["l"], r["t"], r["stripped"])
               for r in rels}
        for rel in wanted:
            if rel not in got:
                fails.append("%s/%s: relation %s missing" % (mod, field, rel))
    return fails


def _check_paper_bias(by_cmd):
    fails = []
    for field, mod, a, b, degrees in PAPER_BIAS:
        rep = _json_out(by_cmd, "bias", field, mod)
        if rep is None:
            continue
        lo, hi, step = (int(x) for x in degrees.split(":"))
        if [r["N"] for r in rep["rows"]] != list(range(lo, hi + 1, step)):
            fails.append("bias %s: wrong degrees" % mod)
        for r in rep["rows"]:
            if r["diff"] != r["pi_a"] - r["pi_b"] or r["diff"] <= 0 \
                    or min(r["pi_a"], r["pi_b"]) < 0:
                fails.append("bias %s: pi(%d; %s) - pi(%d; %s) = %s is not "
                             "positive" % (mod, r["N"], a, r["N"], b,
                                           r["diff"]))
        if rep["violations"]:
            fails.append("bias %s: violations %s" % (mod, rep["violations"]))
    return fails


def _check_paper_artin_schreier(by_cmd):
    argv = ("count-explicit", "--field", "F3", "--modulus", "T^3+2T+2",
            "--degree", str(AS_DEGREE), "--format", "csv")
    if argv not in by_cmd:
        return []
    header, rows = _parse_csv(by_cmd[argv])
    counts = dict(zip(header[2:], rows[0][2:]))
    fails = []
    for c in AS_ORBIT:
        if counts.get(c) != AS_COUNT:
            fails.append("pi(24; T^3+2T+2, %s) = %s, paper says %d"
                         % (c, counts.get(c), AS_COUNT))
    fails += checks.check_counts(
        3, PAPER_MODULI[("F3", "T^3+2T+2")], AS_DEGREE,
        {checks.parse_label(c): v for c, v in counts.items()})
    return fails


def _check_paper_cumulative_ties(by_cmd, labelled):
    """The tie scan must find exactly the ties of the published cumulative
    table; the paper has none past N = 21."""
    ties = _json_out(by_cmd, "cumulative", "F2", "T^3+T+1")
    if ties is None or "T3T1cum" not in labelled:
        return []
    got = {(t["N"], frozenset(checks.parse_label(c) for c in t["classes"]))
           for t in ties}
    want = set()
    for n, counts in labelled["T3T1cum"].items():
        classes = sorted(counts)
        for i, a in enumerate(classes):
            for b in classes[i + 1:]:
                if counts[a] == counts[b]:
                    want.add((n, frozenset((a, b))))
    fails = []
    if got != want:
        fails.append("cumulative ties differ from the published table: "
                     "%d found, %d expected" % (len(got), len(want)))
    if any(n > 21 for n, _pair in got):
        fails.append("cumulative tie past N=21")
    return fails


def _check_paper_tie_patterns(by_cmd, labelled):
    """Regroup the classes by equal counts from the published tables and
    compare with the program's patterns; on T^3+2T+2 the translation orbit
    must be tied at every degree."""
    fails = []
    for (field, mod), (lo, hi, key) in PAPER_TIE_WINDOWS.items():
        rep = _json_out(by_cmd, "ties-empirical", field, mod)
        if rep is None:
            continue
        period = rep["period"]
        for r, pat in rep["residues"].items():
            got = {frozenset(checks.parse_label(c) for c in g)
                   for g in pat["groups"]}
            degrees = [n for n in range(lo, hi + 1) if n % period == int(r)]
            if pat["observed"] != degrees:
                fails.append("%s/%s residue %s: observed %s"
                             % (mod, field, r, pat["observed"]))
            if key in labelled:
                table = labelled[key]
                blocks = {}
                for c in table[lo]:
                    blocks.setdefault(tuple(table[n][c] for n in degrees),
                                      set()).add(c)
                want = {frozenset(b) for b in blocks.values()} \
                    if degrees else set()
                if got != want:
                    fails.append("%s/%s residue %s: tie groups differ from "
                                 "the published table" % (mod, field, r))
            elif degrees:
                orbit = frozenset(checks.parse_label(c) for c in AS_ORBIT)
                if not any(orbit <= g for g in got):
                    fails.append("%s/%s residue %s: translation orbit not "
                                 "tied" % (mod, field, r))
    return fails


# --- explicit-deep -----------------------------------------------------------

def setup_explicit_deep(ops, seed):
    rng = random.Random(seed)
    state = []
    for field, mod, factors, window in EXPLICIT_DEEP:
        m = _modulus(field, mod)
        state.append({"m": m, "q": m.field.q, "factors": factors,
                      "window": list(window),
                      "counter": ops.call(explicit.explicit_counter, m)})
    return {"moduli": state, "rng": rng}


def solve_explicit_deep(ops, state):
    rng = state["rng"]
    out = []
    for mod in state["moduli"]:
        m, counter = mod["m"], mod["counter"]
        counts = {}
        if counter is not None:
            for n in mod["window"]:
                res = ops.call(counter.count, n)
                if res is not None:
                    counts[n] = res.counts
        certs = []
        for B, lam in ops.call(gl2.stabilizer_search, m) or []:
            # the residue is a degree of the window, so every certificate
            # has at least one computed degree to be checked on
            cert = ops.call(gl2.certify_ties, m, B, lam,
                            rng.choice(mod["window"]), rng=rng)
            if cert is not None:
                certs.append(cert)
        out.append((counts, certs))
    return out


def check_explicit_deep(state, outputs, cross_check=False):
    """cross_check also compares the explicit formula with the sieve at the
    top degree of the sieve's range (costly, so done once per run)."""
    fails = []
    for mod, (counts, certs) in zip(state["moduli"], outputs):
        q, factors, name = mod["q"], mod["factors"], str(mod["m"])
        plain = {n: _counts(c) for n, c in counts.items()}
        for n, c in plain.items():
            fails += ["%s %s" % (name, f)
                      for f in checks.check_counts(q, factors, n, c)]
        for cert in certs:
            data = _cert_data(cert)
            cert_fails, checked = checks.check_certificate(q, data, plain)
            fails += ["%s %s" % (name, f) for f in cert_fails]
            if not checked:
                fails.append("%s: certificate %s checked at no degree"
                             % (name, data["matrix"]))
        if cross_check and mod["counter"] is not None:
            top = SIEVE_TOP[q]
            by_formula = _counts(mod["counter"].count(top).counts)
            by_sieve = _counts(sieve.sieve_count(mod["m"], top).counts)
            if by_formula != by_sieve:
                fails.append("%s: explicit != sieve at N=%d" % (name, top))
            fails += ["%s sieve %s" % (name, f)
                      for f in checks.check_counts(q, factors, top, by_sieve)]
    return fails


# --- wide-group --------------------------------------------------------------

def setup_wide_group(ops, seed):
    state = []
    for field, mod, factors in WIDE_GROUP:
        m = _modulus(field, mod)
        group = ops.call(characters.unit_group, m)
        counter = ops.call(explicit.explicit_counter, m)
        state.append({"m": m, "q": m.field.q, "factors": factors,
                      "group": group, "counter": counter})
    return {"moduli": state, "rng": random.Random(seed)}


def solve_wide_group(ops, state):
    rng = state["rng"]
    out = []
    for mod in state["moduli"]:
        m, top = mod["m"], SIEVE_TOP[mod["q"]]
        certs, verified = [], []
        for B, lam in ops.call(gl2.stabilizer_search, m) or []:
            cert = ops.call(gl2.certify_ties, m, B, lam,
                            rng.choice((top - 1, top)), rng=rng)
            if cert is not None:
                certs.append(cert)
                # the benchmark checks the top two degrees itself
                verified.append(ops.call(gl2.verify_certificate_empirically,
                                         cert, top - 2, sieve_limit=top))
        counts = {}
        for n in (top - 1, top):
            res = ops.call(sieve.sieve_count, m, n)
            if res is not None:
                counts[n] = res.counts
        out.append((certs, verified, counts))
    return out


def check_wide_group(state, outputs):
    fails = []
    for mod, (certs, verified, counts) in zip(state["moduli"], outputs):
        q, factors, m, name = mod["q"], mod["factors"], mod["m"], str(mod["m"])
        group, counter = mod["group"], mod["counter"]
        if group is not None and \
                group.order != checks.unit_group_order(q, factors):
            fails.append("%s: group order %d != Phi(m) = %d"
                         % (name, group.order,
                            checks.unit_group_order(q, factors)))
        if counter is not None:
            for L in counter.lpolys[1:]:
                data = [(list(c.nums), c.den) for c in L.coeffs]
                fails += ["%s L(u, %s): %s" % (name, L.chi.label(), f)
                          for f in checks.check_lpoly(q, m.degree, counter.E,
                                                      data)]
        plain = {n: _counts(c) for n, c in counts.items()}
        for n, c in plain.items():
            fails += ["%s %s" % (name, f)
                      for f in checks.check_counts(q, factors, n, c)]
        for cert, ok in zip(certs, verified):
            data = _cert_data(cert)
            if ok is False:
                fails.append("%s: certificate %s failed its empirical check"
                             % (name, data["matrix"]))
            cert_fails, checked = checks.check_certificate(q, data, plain)
            fails += ["%s %s" % (name, f) for f in cert_fails]
            if not checked:
                fails.append("%s: certificate %s checked at no degree"
                             % (name, data["matrix"]))
    return fails


WORKLOADS = {
    "paper": (setup_paper, solve_paper),
    "explicit-deep": (setup_explicit_deep, solve_explicit_deep),
    "wide-group": (setup_wide_group, solve_wide_group),
}


def check(name, state, outputs, cross_check):
    if name == "paper":
        return check_paper(outputs, _published())
    if name == "explicit-deep":
        return check_explicit_deep(state, outputs, cross_check)
    return check_wide_group(state, outputs)
