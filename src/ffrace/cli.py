"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 internal consistency violation
(an exact-arithmetic self-check failed; a bug, not bad input).
"""

import argparse
import json
import random
import sys
from functools import lru_cache

from .characters import group_order, parse_character, unit_group
from .errors import IntegrityError, UsageError
from .explicit import bias_report, counts, cumulative_counts, \
    explicit_counter
from .field import parse_field
from .gl2 import certify_ties, first_failed_certificate, stabilizer_period, \
    stabilizer_search
from .lfunc import find_conjugate_relations, l_polynomial, power_sum_work, \
    power_sums, weil_bound_violations
from .limits import MAX_CERTIFICATES, MAX_EXACT_WORK, MAX_GROUP_ORDER, check
from .polyring import format_poly, parse_poly
from .report import TABLES, check_cumulative_ties, detect_tie_patterns, \
    emit_table, render_table
from .sieve import default_cutoff


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _output(sub):
    sub.add_argument("--format", default="md", choices=("md", "csv", "json"),
                     dest="fmt", help="output format")
    sub.add_argument("--out", help="write output to this file")


def _common(sub):
    sub.add_argument("--field", default="F2",
                     help="field spec, e.g. F2, F3, F4 (default F2)")
    sub.add_argument("--modulus", help="modulus polynomial, e.g. 'T^3+T+1'")
    _output(sub)


def _need_modulus(args):
    if not args.modulus:
        raise UsageError("--modulus is required for this command")
    field = parse_field(args.field)
    m = parse_poly(field, args.modulus)
    if m.degree < 1 or not m.is_monic:
        raise UsageError("modulus must be monic of degree >= 1")
    return field, m


def _emit(args, text):
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError("cannot write %s: %s"
                             % (args.out, exc.strerror or exc))
    else:
        sys.stdout.write(text)


def _class_table(m, run, fmt, name):
    """One row per (N, (counts in canonical class order, source)) of run,
    under a column for every unit class mod m."""
    header = ["N", "source"] + [format_poly(u) for u in unit_group(m).units]
    rows = [[n, source, *found] for n, (found, source) in run]
    return render_table(header, rows, fmt, name=name)


def _cmd_count(args):
    _field, m = _need_modulus(args)
    n = args.degree
    if n < 1:
        raise UsageError("--degree must be >= 1")
    # sieve-first: the sieve over its whole supported range
    kw = dict(monic=not args.nonmonic, sieve_limit=default_cutoff(m.field.q))
    suffix = "-nonmonic" if args.nonmonic else ""
    if args.cumulative:
        return _class_table(m, cumulative_counts(m, n, **kw), args.fmt,
                            "cumulative" + suffix)
    return _class_table(m, [(n, counts(m, n, **kw))], args.fmt,
                        "count" + suffix)


def _cmd_count_explicit(args):
    _field, m = _need_modulus(args)
    n = args.degree
    if n < 1:
        raise UsageError("--degree must be >= 1")
    result = explicit_counter(m).count(n, breakdown=args.breakdown)
    if args.breakdown and args.fmt == "json":
        obj = {"modulus": format_poly(m), "degree": n,
               "counts": {format_poly(c): v for c, v in result.counts.items()},
               "breakdown": [
                   {"class": cls, "divisor": d, "terms": terms}
                   for (cls, d), terms in sorted(result.breakdown.items())]}
        return json.dumps(obj, indent=2) + "\n"
    text = _class_table(m, [(n, (result.counts.values(), "explicit"))],
                        args.fmt, "count-explicit")
    if args.breakdown and args.fmt != "json":
        lines = [text, "\nper-divisor, per-character terms:\n"]
        for (cls, d), terms in sorted(result.breakdown.items()):
            for label, term in terms.items():
                lines.append("  class %s  d=%d  chi[%s]: %s\n"
                             % (cls, d, label, term))
        text = "".join(lines)
    return text


def _cmd_lpoly(args):
    _field, m = _need_modulus(args)
    horizon = args.horizon
    G = unit_group(m)  # refuses a group past MAX_GROUP_ORDER first
    if horizon:  # before any L-polynomial is built
        q, E, d = m.field.q, G.exponent, m.degree - 1
        check(MAX_EXACT_WORK, "power sums to n = %d mod %s"
              % (horizon, format_poly(m)), power_sum_work(q, E, d, horizon),
              "n", lambda n: power_sum_work(q, E, d, n))
        if args.fmt != "json":
            raise UsageError("--horizon prints its power sums with "
                             "--format json only")
    chi = parse_character(G, args.char)
    if chi.is_trivial:
        raise UsageError("the trivial character has no L-polynomial")
    L = l_polynomial(m, chi)
    cs = power_sums(L, horizon) if horizon else []
    roots = L.inverse_roots_numeric()
    bad = weil_bound_violations(L)
    obj = {
        "modulus": format_poly(m),
        "field": repr(m.field),
        "char": chi.label(),
        "degree": L.degree,
        "coeffs": [c.to_json() for c in L.coeffs],
        "inverse_roots_numeric": [[z.real, z.imag] for z in roots],
        "weil_bound_ok": not bad,
    }
    if cs:
        obj["power_sums_c"] = [c.to_json() for c in cs]
    if args.fmt == "json":
        return json.dumps(obj, indent=2) + "\n"
    header = ["n", "a_n"]
    rows = [[i, json.dumps(c.to_json())] for i, c in enumerate(L.coeffs)]
    return render_table(header, rows, args.fmt, name="lpoly")


def _cmd_relations(args):
    _field, m = _need_modulus(args)
    rels = find_conjugate_relations(m)
    if args.fmt == "json":
        return json.dumps([r.to_json() for r in rels], indent=2) + "\n"
    header = ["chi", "chi_prime", "l", "t", "stripped", "size"]
    rows = [[r.chi.label(), r.other.label(), r.l, r.t, r.stripped, r.size]
            for r in rels]
    return render_table(header, rows, args.fmt, name="relations")


def _cmd_ties_gl2(args):
    if args.verify_to < 0:
        raise UsageError("--verify-to must be >= 0, got %d" % args.verify_to)
    _field, m = _need_modulus(args)
    # the group order is refused before the search, the group built after it
    check(MAX_GROUP_ORDER, "unit group mod " + format_poly(m), group_order(m))
    stabs = stabilizer_search(m)
    if args.residue is None:
        jobs = [(B, lam, e) for B, lam in stabs
                for e in range(stabilizer_period(m, B))]
        check(MAX_CERTIFICATES, "ties-gl2 mod %s, every residue of %d "
              "stabilizers (--residue builds one each)"
              % (format_poly(m), len(stabs)), len(jobs))
    else:
        jobs = [(B, lam, args.residue) for B, lam in stabs]
    rng = random.Random(args.seed)
    certs = [certify_ties(m, B, lam, e, rng=rng) for B, lam, e in jobs]
    if args.verify_to:
        bad = first_failed_certificate(certs, args.verify_to)
        if bad is not None:
            raise IntegrityError("certificate failed empirical check: %s"
                                 % bad.to_json())
    if args.fmt == "json":
        return json.dumps([c.to_json() for c in certs], indent=2) + "\n"
    header = ["matrix", "lambda", "N0", "e", "monic", "orbits"]
    rows = []
    for c in certs:
        orbits = " | ".join(",".join(format_poly(x) for x in orb)
                            for orb in c.orbits)
        rows.append([repr(c.matrix), c.lam, c.period, c.residue,
                     c.monic_certified, orbits])
    return render_table(header, rows, args.fmt, name="ties-gl2")


def _cmd_ties_empirical(args):
    _field, m = _need_modulus(args)
    report = detect_tie_patterns(m, args.min_degree, args.max_degree,
                                 period=args.period)
    if args.fmt == "json":
        return json.dumps(report.to_json(), indent=2) + "\n"
    header = ["residue", "consistent", "observed", "groups"]
    rows = []
    for r, pat in sorted(report.per_residue.items()):
        groups = " | ".join(",".join(format_poly(c) for c in grp)
                            for grp in pat.groups)
        rows.append([r, pat.consistent,
                     ",".join(str(n) for n in pat.observed), groups])
    return render_table(header, rows, args.fmt, name="ties-empirical")


def _cmd_table(args):
    return emit_table(args.table, fmt=args.fmt, lo=args.lo, hi=args.hi)


def _cmd_cumulative(args):
    _field, m = _need_modulus(args)
    n = args.max_degree
    if n < 1:
        raise UsageError("--max-degree must be >= 1")
    if args.ties:
        ties = check_cumulative_ties(m, n)
        if args.fmt == "json":
            obj = [{"N": t[0], "classes": [format_poly(t[1][0]),
                                           format_poly(t[1][1])]}
                   for t in ties]
            return json.dumps(obj, indent=2) + "\n"
        header = ["N", "class_a", "class_b"]
        rows = [[t[0], format_poly(t[1][0]), format_poly(t[1][1])]
                for t in ties]
        return render_table(header, rows, args.fmt, name="cumulative-ties")
    return _class_table(m, cumulative_counts(m, n), args.fmt, "cumulative")


def _parse_degrees(spec):
    """'9:60:3' slice-ish (inclusive), or comma list '4,6,8'."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) == 2:
            parts.append("1")
        try:
            lo, hi, step = (int(p) for p in parts)  # also rejects 4+ parts
        except ValueError:
            raise UsageError("bad degree range %r" % (spec,))
        if step < 1 or lo < 1 or hi < lo:
            raise UsageError("bad degree range %r" % (spec,))
        return range(lo, hi + 1, step)
    try:
        return [int(p) for p in spec.split(",")]
    except ValueError:
        raise UsageError("bad degree list %r" % (spec,))


def _cmd_bias(args):
    _field, m = _need_modulus(args)
    a = parse_poly(m.field, args.class_a)
    b = parse_poly(m.field, args.class_b)
    degrees = _parse_degrees(args.degrees)
    expected = {"pos": 1, "neg": -1, "zero": 0}.get(args.expect)
    rep = bias_report(m, a, b, degrees, expected_sign=expected)
    if args.fmt == "json":
        obj = {"modulus": format_poly(m),
               "class_a": format_poly(rep.class_a),
               "class_b": format_poly(rep.class_b),
               "rows": [{"N": n, "pi_a": x, "pi_b": y, "diff": d}
                        for n, x, y, d in rep.rows],
               "summary": rep.sign_summary(),
               "violations": rep.violations}
        return json.dumps(obj, indent=2) + "\n"
    header = ["N", "pi_a", "pi_b", "diff"]
    rows = [list(r) for r in rep.rows]
    text = render_table(header, rows, args.fmt, name="bias")
    summary = rep.sign_summary()
    tail = "# sign summary: +%d / 0:%d / -%d" % (
        summary["positive"], summary["zero"], summary["negative"])
    if expected is not None:
        tail += "; violations: %s" % (rep.violations or "none")
    return text + tail + "\n"


@lru_cache(maxsize=1)
def build_parser():
    """The parser, built once per process and shared by every main() call
    (argparse keeps no state between parses); each command runs
    _cmd_<command>, looked up when it runs."""
    parser = _Parser(prog="ffrace",
                     description="Exact prime races in F_q[T]: sieve counts, "
                                 "L-function explicit formula, GL2 tie "
                                 "certificates, and the reference tables.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("count", help="sieve counts per congruence class")
    _common(p)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--nonmonic", action="store_true",
                   help="count all nonzero-lc polynomials, not just monic")
    p.add_argument("--cumulative", action="store_true",
                   help="running sums for N=1..degree")

    p = subs.add_parser("count-explicit",
                        help="exact counts from the explicit formula")
    _common(p)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--breakdown", action="store_true",
                   help="emit per-divisor, per-character terms for audit")

    p = subs.add_parser("lpoly", help="L-polynomial of a character")
    _common(p)
    p.add_argument("--char", required=True,
                   help="character exponents, e.g. '1' or '1,0'")
    p.add_argument("--horizon", type=int, default=0,
                   help="also emit power sums c_n up to this n")

    p = subs.add_parser("relations",
                        help="Galois conjugate relations among inverse zeros")
    _common(p)

    p = subs.add_parser("ties-gl2", help="GL2 stabilizers and tie certificates")
    _common(p)
    p.add_argument("--seed", type=int, default=0,
                   help="seed drawing the 32 classes checked against the "
                        "slash action on unit groups of order > 64 (smaller "
                        "groups check every class)")
    p.add_argument("--residue", type=int, default=None,
                   help="degree residue e (default: all residues mod each "
                        "period)")
    p.add_argument("--verify-to", type=int, default=0,
                   help="empirically verify each certificate up to this degree")

    p = subs.add_parser("ties-empirical", help="detect tie patterns by degree")
    _common(p)
    p.add_argument("--min-degree", type=int, required=True)
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--period", type=int, default=None,
                   help="candidate period (default: lcm of GL2 periods)")

    p = subs.add_parser("table", help="reproduce a reference table")
    _output(p)
    p.add_argument("table", choices=sorted(TABLES),
                   help="which table to emit")
    p.add_argument("--lo", type=int, default=None)
    p.add_argument("--hi", type=int, default=None)

    p = subs.add_parser("cumulative",
                        help="cumulative counts and cumulative ties")
    _common(p)
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--ties", action="store_true",
                   help="emit the cumulative ties instead of the table")

    p = subs.add_parser("bias", help="exact differences between two classes")
    _common(p)
    p.add_argument("--class-a", required=True)
    p.add_argument("--class-b", required=True)
    p.add_argument("--degrees", required=True,
                   help="'lo:hi[:step]' inclusive, or comma list")
    p.add_argument("--expect", choices=("pos", "neg", "zero"), default=None,
                   help="expected sign of pi_a - pi_b; violations are flagged")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    # exact counts are the product: print every digit, past the interpreter's
    # default cap on int-to-str conversion (4300 digits) where it has one
    digits = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digits is not None:
        sys.set_int_max_str_digits(0)
    try:
        text = globals()["_cmd_" + args.command.replace("-", "_")](args)
        _emit(args, text)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except IntegrityError as exc:
        print("internal consistency violation: %s" % exc, file=sys.stderr)
        return 2
    finally:
        if digits is not None:
            sys.set_int_max_str_digits(digits)
    return 0


if __name__ == "__main__":
    sys.exit(main())
