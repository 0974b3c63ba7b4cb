import heapq
import json
import os
import pathlib
import re
import subprocess
import sys
import time

import pytest

import ffrace
from ffrace import characters, cli as cli_mod, explicit, gl2, lfunc
from ffrace.cli import main
from ffrace.errors import IntegrityError, UsageError
from ffrace.explicit import explicit_counter
from ffrace.field import parse_field
from ffrace.limits import (MAX_EXACT_WORK, MAX_EXPLICIT_WORK,
                           MAX_STABILIZER_Q, largest_within)
from ffrace.polyring import format_poly, parse_poly
from ffrace.report import generator_power_columns
from scale_guard import GUARDS

SUBCOMMANDS = ("count", "count-explicit", "lpoly", "relations", "ties-gl2",
               "ties-empirical", "table", "cumulative", "bias")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_subprocess(*argv, timeout=10):
    """The CLI in a child process; TimeoutExpired after `timeout` s."""
    src = str(pathlib.Path(ffrace.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-m", "ffrace.cli", *argv],
                          capture_output=True, text=True, timeout=timeout,
                          env=dict(os.environ, PYTHONPATH=src))
    return done.returncode, done.stdout, done.stderr


def test_count_md(capsys):
    code, out, _ = run(capsys, "count", "--field", "F2",
                       "--modulus", "T^3+T+1", "--degree", "9")
    assert code == 0
    assert "| 9 | sieve | 7 | 9 | 9 | 7 | 7 | 9 | 8 |" in out


def test_count_csv_and_json(capsys):
    code, out, _ = run(capsys, "count", "--field", "F2", "--modulus", "T^2",
                       "--degree", "10", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "N,source,1,T+1"
    assert out.splitlines()[1] == "10,sieve,48,51"
    code, out, _ = run(capsys, "count", "--field", "F2", "--modulus", "T^2",
                       "--degree", "10", "--format", "json")
    obj = json.loads(out)
    assert obj["rows"] == [[10, "sieve", 48, 51]]


def test_count_routes_to_explicit_beyond_cutoff(capsys):
    code, out, _ = run(capsys, "count", "--field", "F3", "--modulus", "T^2+1",
                       "--degree", "16", "--format", "csv")
    assert code == 0
    assert ",explicit," in out.splitlines()[1]


def test_count_nonmonic_and_cumulative(capsys):
    code, out, _ = run(capsys, "count", "--field", "F3", "--modulus", "T^2+1",
                       "--degree", "2", "--nonmonic", "--format", "csv")
    assert code == 0
    code, out, _ = run(capsys, "count", "--field", "F2",
                       "--modulus", "T^3+T+1", "--degree", "5",
                       "--cumulative", "--format", "csv")
    assert code == 0
    assert len(out.strip().splitlines()) == 6   # header + N=1..5


def test_count_cumulative_nonmonic(capsys):
    code, out, _ = run(capsys, "count", "--field", "F3", "--modulus", "T^2+1",
                       "--degree", "2", "--cumulative", "--nonmonic",
                       "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "N,source,1,2,T,T+1,T+2,2*T,2*T+1,2*T+2"
    assert lines[1] == "1,sieve,0,0,1,1,1,1,1,1"
    assert lines[2] == "2,sieve,0,0,1,2,2,1,2,2"


def test_count_explicit_breakdown(capsys):
    code, out, _ = run(capsys, "count-explicit", "--field", "F2",
                       "--modulus", "T^2+T+1", "--degree", "6",
                       "--breakdown", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    # N=6 is the one equality degree of the mod-(T^2+T+1) race: 9 = 3+3+3
    assert obj["counts"] == {"1": 3, "T": 3, "T+1": 3}
    assert any(term["divisor"] == 6 for term in obj["breakdown"])


def _refuse_work(monkeypatch):
    """Make every count, prime search, audit term and L-polynomial fail."""
    def fail(*args, **kwargs):
        raise AssertionError("work started before the refusal")
    for module, name in ((explicit, "split_prime"), (explicit, "class_counts"),
                         (explicit, "l_polynomial"),
                         (explicit.ExplicitCounter, "raw_zsum"),
                         (cli_mod, "l_polynomial"),
                         (cli_mod, "power_sums")):
        monkeypatch.setattr(module, name, fail)


# a refusal in the one shape of limits.check
REFUSAL = re.compile(r"error: [^;\n]+: [^;\n]+; the supported limit is "
                     r"[^;\n]+(; the largest accepted [^;\n]+ is \d+)?\n")


def _row_id(guard):
    """The row's command, field and options: short enough to print whole."""
    argv = guard.argv
    return " ".join(a for a, before in zip(argv, ("",) + argv)
                    if "--modulus" not in (a, before) and a != "--field")


@pytest.mark.parametrize("guard", [g for g in GUARDS if g.exit == 1],
                         ids=_row_id)
def test_refusal_rows(capsys, monkeypatch, guard):
    # every refusal row of tests/scale_guard.py, in process: exit 1 within a
    # second, before any count, prime search, audit term or L-polynomial, in
    # the one shape (the certificate limit comes after the stabilizer
    # search, 0.01 s at F13)
    _refuse_work(monkeypatch)
    start = time.perf_counter()
    code, out, err = run(capsys, *guard.argv)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == "" and REFUSAL.fullmatch(err), err
    for fragment in guard.says:
        assert fragment in err, (fragment, err)


def test_count_explicit_breakdown_past_order_limit_fails_fast(capsys):
    # order 255: the audit's order^2 terms per divisor pass MAX_EXACT_WORK,
    # refused before any raw sum is built
    start = time.perf_counter()
    code, _, err = run(capsys, "count-explicit", "--field", "F2",
                       "--modulus", "T^8+T^4+T^3+T+1", "--degree", "6",
                       "--breakdown")
    assert time.perf_counter() - start < 10.0
    assert code == 1 and "order 255" in err
    assert "limit is %.1e" % MAX_EXACT_WORK.value in err
    # order 80 still runs at N = 2
    code, out, _ = run(capsys, "count-explicit", "--field", "F3",
                       "--modulus", "T^4+T+2", "--degree", "2",
                       "--breakdown", "--format", "json")
    assert code == 0 and json.loads(out)["breakdown"]


def test_breakdown_and_horizon_past_exact_limit_fail_fast(capsys,
                                                          monkeypatch):
    # order 80 at N = 1000 took 17 s and printed 43 MB; order 7 at N = 20000
    # and power sums to n = 100000 would hold GB of exact coordinates
    _refuse_work(monkeypatch)
    limit = "the supported limit is %.1e" % MAX_EXACT_WORK.value
    for field, modulus, degree in (("F3", "T^4+T+2", 1000),
                                   ("F2", "T^3+T+1", 20000)):
        start = time.perf_counter()
        code, _, err = run(capsys, "count-explicit", "--field", field,
                           "--modulus", modulus, "--degree", str(degree),
                           "--breakdown", "--format", "json")
        assert time.perf_counter() - start < 1.0
        assert code == 1 and "--breakdown of degree %d" % degree in err, err
        assert limit in err
    start = time.perf_counter()
    code, _, err = run(capsys, "lpoly", "--field", "F3", "--modulus",
                       "T^4+T+2", "--char", "1", "--horizon", "100000")
    assert time.perf_counter() - start < 1.0
    top = largest_within(lambda n: lfunc.power_sum_work(3, 80, 3, n)
                         <= MAX_EXACT_WORK.value)
    assert code == 1 and top < 100000, err
    assert limit in err and "the largest accepted n is %d" % top in err
    assert lfunc.power_sum_work(3, 80, 3, top) <= MAX_EXACT_WORK.value \
        < lfunc.power_sum_work(3, 80, 3, top + 1)


def test_limits_are_priced_without_factoring_large_numbers(capsys,
                                                           monkeypatch):
    # pricing --horizon needs phi(E) and --breakdown the prime factors of N,
    # both by trial division: unit groups of order 2^61 - 1 and 2^127 - 1
    # (prime) and a prime N near 2^61 would take minutes to hours, so the
    # group-order and explicit-count limits are checked first
    _refuse_work(monkeypatch)
    for modulus, order in (("T^61+T^5+T^2+T+1", 2 ** 61 - 1),
                           ("T^127+T+1", 2 ** 127 - 1)):
        start = time.perf_counter()
        code, _, err = run(capsys, "lpoly", "--field", "F2", "--modulus",
                           modulus, "--char", "1", "--horizon", "1")
        assert time.perf_counter() - start < 1.0
        assert code == 1 and "order %.1e" % order in err, err
        assert "limit is order 1024" in err
    start = time.perf_counter()
    code, _, err = run(capsys, "count-explicit", "--field", "F2", "--modulus",
                       "T^3+T+1", "--degree", str(2 ** 61 - 1), "--breakdown")
    assert time.perf_counter() - start < 1.0
    assert code == 1 and "the supported limit is %.1e cost units; the " \
        "largest accepted degree is %d" \
        % (MAX_EXPLICIT_WORK.value, _largest_degree(2, 7, 3)) in err, err


def _largest_degree(q, order, deg):
    """The largest degree of an explicit count within the work limit."""
    return largest_within(lambda n: explicit.explicit_work(q, order, deg, n)
                          <= MAX_EXPLICIT_WORK.value)


@pytest.mark.parametrize("argv", [
    ("cumulative", "--max-degree", "4000"),
    ("cumulative", "--max-degree", "100000", "--ties"),
    ("count", "--degree", "4000", "--cumulative"),
    ("bias", "--class-a", "T", "--class-b", "1", "--degrees", "1:100000000"),
    ("ties-empirical", "--min-degree", "9", "--max-degree", "4000",
     "--period", "7"),
    ("ties-gl2", "--residue", "1", "--verify-to", "100000"),
])
def test_runs_past_work_limit_fail_fast(capsys, monkeypatch, argv):
    # each degree of these runs is within MAX_EXPLICIT_WORK, the run is not:
    # cold `cumulative --max-degree 4000` mod T^3+T+1 took 108 s
    _refuse_work(monkeypatch)
    start = time.perf_counter()
    code, _, err = run(capsys, *argv, "--field", "F2", "--modulus", "T^3+T+1")
    assert time.perf_counter() - start < 1.0
    assert code == 1 and "the supported limit is %.1e cost units" \
        % MAX_EXPLICIT_WORK.value in err, err
    assert "the largest accepted top degree is" in err


def test_run_refusal_states_a_cost_above_its_limit(capsys, monkeypatch):
    # the run's cost to its first degree past the limit is 3.6e+09 in two
    # digits, as the limit is: it takes as many more as read above it
    _refuse_work(monkeypatch)
    code, _, err = run(capsys, "cumulative", "--field", "F2", "--modulus",
                       "T^3+T+1", "--max-degree", "100000")
    assert code == 1 and "from degree 1 to 1834: 3.603e+09 cost units; the " \
        "supported limit is %.1e cost units; the largest accepted top " \
        "degree is 1833" % MAX_EXPLICIT_WORK.value in err, err


def test_run_limit_names_the_largest_top_degree(capsys):
    m = parse_poly(parse_field("F2"), "T^3+T+1")
    with pytest.raises(UsageError) as refused:
        explicit.check_run_work(m, range(1, 4001))
    message = str(refused.value)
    assert message.startswith("explicit counts mod T^3+T+1 from degree 1 ")
    top = int(message.rsplit("the largest accepted top degree is ", 1)[1])
    explicit.check_run_work(m, range(1, top + 1))
    with pytest.raises(UsageError):
        explicit.check_run_work(m, range(1, top + 2))
    # bias sends every degree to the explicit formula; a lone degree past
    # the limit is told the largest degree that count-explicit accepts
    alone = "the largest accepted degree is %d" % _largest_degree(2, 7, 3)
    with pytest.raises(UsageError, match="explicit count of degree 10000000 "
                       "mod T.3.T.1: .*; " + alone):
        explicit.check_run_work(m, [10 ** 7], 0)
    # count is a run of one degree
    code, _, err = run(capsys, "count", "--field", "F2", "--modulus",
                       "T^3+T+1", "--degree", "1000000")
    assert code == 1 and "degree 1000000 " in err and alone in err, err


def test_sieve_only_runs_build_no_explicit_counter(capsys, monkeypatch):
    m = parse_poly(parse_field("F2"), "T^3+T+1")
    cert = gl2.certify_ties(m, gl2.Mat2(m.field, 1, 1, 1, 0), 1, 1)

    def refuse(m):
        raise AssertionError("explicit counter built")
    monkeypatch.setattr(explicit, "ExplicitCounter", refuse)
    explicit.explicit_counter.cache_clear()
    code, out, err = run(capsys, "count", "--field", "F2", "--modulus",
                         "T^3+T+1", "--degree", "20")
    assert code == 0 and "sieve" in out and "explicit" not in out, err
    assert gl2.verify_certificate_empirically(cert, 12, sieve_limit=12)


def test_ties_gl2_prices_its_certificates_together(capsys, monkeypatch):
    # the 15 certificates mod T^3+T+1 are each within the run limit to
    # N = 1800, not together: checked one by one they took 47 s cold
    m = parse_poly(parse_field("F2"), "T^3+T+1")
    certs = [gl2.certify_ties(m, B, lam, e)
             for B, lam in gl2.stabilizer_search(m)
             for e in range(gl2.stabilizer_period(m, B))]
    assert len(certs) == 15
    for cert in certs:
        explicit.check_run_work(m, gl2.certificate_degrees(cert, 1800))
    _refuse_work(monkeypatch)
    start = time.perf_counter()
    code, _, err = run(capsys, "ties-gl2", "--field", "F2", "--modulus",
                       "T^3+T+1", "--verify-to", "1800")
    assert time.perf_counter() - start < 1.0
    assert code == 1 and "the largest accepted top degree is" in err, err
    top = int(err.rsplit("the largest accepted top degree is ", 1)[1])

    def merged(n_max):
        return heapq.merge(*(gl2.certificate_degrees(c, n_max)
                             for c in certs))
    explicit.check_run_work(m, merged(top))
    with pytest.raises(UsageError):
        explicit.check_run_work(m, merged(top + 1))


def test_table_past_run_limit_fails_fast(capsys, monkeypatch):
    _refuse_work(monkeypatch)
    for table in ("T3T1", "T3T1cum"):
        start = time.perf_counter()
        code, _, err = run(capsys, "table", table, "--lo", "1", "--hi",
                           "100000")
        assert time.perf_counter() - start < 1.0
        assert code == 1 and "the largest accepted top degree is" in err, err


def test_count_explicit_past_work_limit_fails_fast(capsys, monkeypatch):
    # N = 10^6 mod T^3+T+1/F2 would run for hours and N = 20000 at order 1023
    # for about 10 minutes: refused from N, q, M' and deg m alone, before any
    # split prime is searched
    def no_search(E, i):
        raise AssertionError("split prime searched")
    monkeypatch.setattr(explicit, "split_prime", no_search)
    for modulus, degree, order in (("T^3+T+1", 10 ** 6, 7),
                                   ("T^10+T^3+1", 20000, 1023)):
        start = time.perf_counter()
        code, _, err = run(capsys, "count-explicit", "--field", "F2",
                           "--modulus", modulus, "--degree", str(degree))
        assert time.perf_counter() - start < 1.0
        deg = parse_poly(parse_field("F2"), modulus).degree
        top = _largest_degree(2, order, deg)
        assert code == 1 and top < degree, err
        assert "the supported limit is %.1e cost units; the largest " \
            "accepted degree is %d" % (MAX_EXPLICIT_WORK.value, top) in err
        assert explicit.explicit_work(2, order, deg, top) \
            <= MAX_EXPLICIT_WORK.value \
            < explicit.explicit_work(2, order, deg, top + 1)


def test_lpoly_json(capsys):
    code, out, _ = run(capsys, "lpoly", "--field", "F3", "--modulus", "T^2+1",
                       "--char", "1", "--horizon", "4", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["degree"] == 1
    assert obj["weil_bound_ok"] is True
    assert len(obj["power_sums_c"]) == 4
    # a_1 = -alpha = -(z8^2+z8^3+z8^5)
    assert obj["coeffs"][1] == {"E": 8, "coeffs": ["0", "0", "-1", "-1"]} or \
        obj["coeffs"][1]["E"] == 8


def test_lpoly_horizon_needs_json(capsys, monkeypatch):
    # md and csv print no power sums, so --horizon there would build them
    # for nothing (2.2-2.9 s and 134 MB at --horizon 3516): refused
    # before any power sum or L-polynomial is built
    _refuse_work(monkeypatch)
    for fmt in ("md", "csv"):
        code, out, err = run(capsys, "lpoly", "--field", "F3", "--modulus",
                             "T^4+T+2", "--char", "1", "--horizon", "200",
                             "--format", fmt)
        assert code == 1 and out == "", fmt
        assert "--format json" in err, err


def test_relations(capsys):
    code, out, _ = run(capsys, "relations", "--field", "F3", "--modulus",
                       "T^2", "--format", "json")
    assert code == 0
    rels = json.loads(out)
    assert {"chi": "1", "other": "1", "l": 5, "t": 3, "stripped": False,
            "size": 1} in rels


def test_ties_gl2_json_schema(capsys):
    code, out, _ = run(capsys, "ties-gl2", "--field", "F2",
                       "--modulus", "T^3+T+1", "--residue", "1",
                       "--format", "json", "--verify-to", "12")
    assert code == 0
    certs = json.loads(out)
    assert len(certs) == 3          # three stabilizers
    for cert in certs:
        assert set(cert) == {"modulus", "field", "matrix", "lambda", "period",
                             "residue", "residue_requested", "orbit_map",
                             "orbits", "monic_certified", "justification"}
    main_cert = next(c for c in certs if c["matrix"] == [1, 1, 1, 0])
    assert main_cert["period"] == 7
    assert ["1", "T", "T+1"] in main_cert["orbits"]


def test_ties_gl2_negative_verify_to_is_usage_error(capsys):
    code, out, err = run(capsys, "ties-gl2", "--field", "F2",
                         "--modulus", "T^3+T+1", "--verify-to", "-4")
    assert code == 1
    assert out == ""
    assert "--verify-to" in err and "-4" in err


def test_ties_empirical(capsys):
    code, out, _ = run(capsys, "ties-empirical", "--field", "F2",
                       "--modulus", "T^2+T+1", "--min-degree", "10",
                       "--max-degree", "16", "--period", "3",
                       "--format", "json")
    assert code == 0
    obj = json.loads(out)
    groups = obj["residues"]["0"]["groups"]
    assert ["T", "T+1"] in groups


def test_table_golden(capsys, tmp_path):
    import pathlib
    golden = (pathlib.Path(__file__).parent / "golden" / "p2T2.csv").read_text()
    out_file = tmp_path / "t.csv"
    code, out, _ = run(capsys, "table", "p2T2", "--format", "csv",
                       "--out", str(out_file))
    assert code == 0
    assert out == ""                      #.written to file, not stdout
    assert out_file.read_text() == golden


def test_cumulative_and_ties(capsys):
    code, out, _ = run(capsys, "cumulative", "--field", "F2",
                       "--modulus", "T^3+T+1", "--max-degree", "6",
                       "--format", "csv")
    assert code == 0
    assert len(out.strip().splitlines()) == 7
    code, out, _ = run(capsys, "cumulative", "--field", "F2",
                       "--modulus", "T^3+T+1", "--max-degree", "6",
                       "--ties", "--format", "json")
    assert code == 0
    ties = json.loads(out)
    assert {"N": 2, "classes": ["T", "T+1"]} in ties


def test_bias(capsys):
    code, out, _ = run(capsys, "bias", "--field", "F2", "--modulus",
                       "T^2+T+1", "--class-a", "T", "--class-b", "1",
                       "--degrees", "9:21:3", "--expect", "pos",
                       "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["violations"] == []
    assert all(row["diff"] > 0 for row in obj["rows"])
    code, out, _ = run(capsys, "bias", "--field", "F2", "--modulus", "T^2",
                       "--class-a", "T+1", "--class-b", "1",
                       "--degrees", "4,6,8", "--format", "csv")
    assert code == 0


def test_usage_errors_exit_1(capsys):
    code, _, err = run(capsys, "count", "--field", "F2", "--degree", "3")
    assert code == 1 and "modulus" in err
    code, _, err = run(capsys, "count", "--field", "F6",
                       "--modulus", "T^2", "--degree", "3")
    assert code == 1
    code, _, err = run(capsys, "bias", "--field", "F3", "--modulus", "T^2",
                       "--class-a", "T", "--class-b", "1", "--degrees", "4")
    assert code == 1            # T is not a unit mod T^2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1


def test_oversized_unit_group_fails_fast(capsys):
    # order 4095: refused before the unit group is enumerated
    start = time.perf_counter()
    code, _, err = run(capsys, "count", "--field", "F2",
                       "--modulus", "T^12+T^3+1", "--degree", "30")
    assert time.perf_counter() - start < 1.0
    assert code == 1 and "4095" in err and "limit is order 1024" in err


def test_unit_group_refused_before_any_factor_search(capsys, monkeypatch):
    # orders 1.1e19 and 2.2e14 come from the degrees and multiplicities of
    # the modulus's prime factors: refused before any search for the factors
    # (minutes for T^20+T+1/F9) and, in ties-gl2, before the stabilizer search
    def fail(*args):
        raise AssertionError("a search started before the refusal")
    monkeypatch.setattr(characters, "factorize", fail)
    monkeypatch.setattr(cli_mod, "stabilizer_search", fail)
    for argv, order in ((("count", "--field", "F9", "--modulus", "T^20+T+1",
                          "--degree", "3"), "1.1e+19"),
                        (("ties-gl2", "--field", "F16", "--modulus",
                          "T^12+T+1"), "2.2e+14")):
        start = time.perf_counter()
        code, _, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 1 and "order %s" % order in err, err
        assert "limit is order 1024" in err


def test_relations_past_exponent_limit_fails_fast(capsys):
    # exponent 255: refused before the counter builds its L-polynomials
    start = time.perf_counter()
    code, _, err = run(capsys, "relations", "--field", "F2",
                       "--modulus", "T^8+T^4+T^3+T+1")
    assert time.perf_counter() - start < 10.0
    assert code == 1 and "exponent 255" in err
    assert "limit is exponent 128" in err


def test_integrity_errors_exit_2(capsys, monkeypatch):
    # a failed exact-arithmetic self-check must exit 2, not crash
    from ffrace.errors import IntegrityError

    def boom(args):
        raise IntegrityError("forced")

    monkeypatch.setattr(cli_mod, "_cmd_relations", boom)
    code, _, err = run(capsys, "relations", "--field", "F2",
                       "--modulus", "T^2")
    assert code == 2 and "consistency" in err


def test_failed_certificate_check_exits_2(capsys, monkeypatch):
    # --verify-to on a certificate whose class map is wrong: every class is
    # sent to 1, whose counts differ from T's at degree 3
    certify = cli_mod.certify_ties

    def corrupted(m, *args, **kwargs):
        cert = certify(m, *args, **kwargs)
        cert.orbit_map = dict.fromkeys(cert.orbit_map,
                                       parse_poly(m.field, "1"))
        return cert
    monkeypatch.setattr(cli_mod, "certify_ties", corrupted)
    code, out, err = run(capsys, "ties-gl2", "--field", "F2", "--modulus",
                         "T^3+T+1", "--residue", "1", "--verify-to", "12")
    assert code == 2 and out == ""
    assert "certificate failed empirical check" in err, err


def test_seed_only_on_ties_gl2(capsys):
    code, out, _ = run(capsys, "ties-gl2", "--field", "F2",
                       "--modulus", "T^3+T+1", "--residue", "1",
                       "--seed", "42", "--format", "json")
    assert code == 0 and len(json.loads(out)) == 3
    with pytest.raises(SystemExit) as exc:
        main(["count", "--field", "F2", "--modulus", "T^2", "--degree", "4",
              "--seed", "42"])
    assert exc.value.code == 1


def test_options_no_command_reads_are_rejected(capsys):
    for argv in (["count", "--field", "F2", "--modulus", "T^2",
                  "--degree", "4", "--threads", "2"],
                 ["table", "T3T1", "--field", "F3", "--modulus", "T^2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1, argv
    for sub in SUBCOMMANDS:
        with pytest.raises(SystemExit) as exc:
            main([sub, "--help"])
        assert exc.value.code == 0
        usage = capsys.readouterr().out
        assert "--threads" not in usage, sub
        assert ("--seed" in usage) == (sub == "ties-gl2"), sub
        assert ("--modulus" in usage) == (sub != "table"), sub
        assert "--format" in usage and "--out" in usage, sub


def test_commands_in_one_process_carry_no_state(capsys, tmp_path):
    # main() reuses one parser: no option of one call may reach the next
    gl2_args = ("ties-gl2", "--field", "F2", "--modulus", "T^3+T+1",
                "--format", "json")
    code, out, _ = run(capsys, *gl2_args, "--residue", "1")
    certs = json.loads(out)
    assert code == 0 and len(certs) == 3
    assert {c["residue_requested"] for c in certs} == {1}
    code, out, _ = run(capsys, *gl2_args)
    certs = json.loads(out)
    assert code == 0 and len(certs) == 15
    assert {c["residue_requested"] for c in certs} == set(range(7))
    out_file = tmp_path / "t.csv"
    code, out, _ = run(capsys, "table", "p2T2", "--format", "csv",
                       "--out", str(out_file))
    assert code == 0 and out == "" and out_file.read_text()
    code, out, _ = run(capsys, "table", "p2T2", "--format", "csv")
    assert code == 0 and out == out_file.read_text()


def test_out_unwritable_path_exits_1(capsys, tmp_path):
    path = tmp_path / "missing" / "t.csv"
    code, out, err = run(capsys, "table", "p2T2", "--format", "csv",
                         "--out", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: cannot write %s: " % path)
    assert not path.exists()


def test_table_rows_beyond_sieve_range(capsys):
    # T3T1 is an F2 table; degrees past the sieve cutoff come from the
    # explicit formula like any other count
    code, out, _ = run(capsys, "table", "T3T1", "--lo", "26", "--hi", "27",
                       "--format", "csv")
    assert code == 0
    m = parse_poly(parse_field("F2"), "T^3+T+1")
    cols = generator_power_columns(m)
    rows = out.splitlines()[1:]
    for n, row in zip((26, 27), rows):
        found = explicit_counter(m).count(n).counts
        assert row == ",".join(str(x) for x in [n] + [found[c] for c in cols])
    assert len(rows) == 2


def test_degree_range_with_non_integer_part_is_usage_error(capsys):
    for spec in ("a:5", "3:b", "1:5:c", "1:2:3:4"):
        code, _, err = run(capsys, "bias", "--field", "F2",
                           "--modulus", "T^2+T+1", "--class-a", "T",
                           "--class-b", "1", "--degrees", spec)
        assert code == 1 and "bad degree range %r" % spec in err, spec


def test_ties_gl2_past_field_limit_fails_fast(capsys):
    # stabilizer_search scans all ~q^4 matrices of GL2(F_q): F256 is refused
    # before any matrix is built, F16 (the limit) still runs
    code, out, err = run_subprocess("ties-gl2", "--field", "F256",
                                    "--modulus", "T+1")
    assert code == 1 and out == ""
    assert "q = 256" in err
    assert "limit is q = %d" % MAX_STABILIZER_Q.value in err
    code, out, _ = run(capsys, "ties-gl2", "--field",
                       "F%d" % MAX_STABILIZER_Q.value, "--modulus", "T+1",
                       "--residue", "0", "--format", "csv")
    assert code == 0 and len(out.splitlines()) > 1


def test_exact_counts_past_int_str_digit_cap():
    # the degree-15000 counts have about 4,500 digits, past the interpreter's
    # default int-to-str cap of 4,300; the CLI prints them whole
    code, out, err = run_subprocess("count-explicit", "--field", "F2",
                                    "--modulus", "T^3+T+1", "--degree",
                                    "15000", "--format", "csv", timeout=20)
    assert code == 0, err
    m = parse_poly(parse_field("F2"), "T^3+T+1")
    want = explicit_counter(m).count(15000).counts
    cap = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if cap is not None:
        sys.set_int_max_str_digits(0)
    try:
        header, row = out.splitlines()
        got = dict(zip(header.split(",")[2:], row.split(",")[2:]))
        assert got == {format_poly(c): str(n) for c, n in want.items()}
    finally:
        if cap is not None:
            sys.set_int_max_str_digits(cap)
