"""The scale guard: CLI commands at the edges of the supported scale, each
with the exit it must give within its timeout and, for the largest default
sieves, a bound on the child's peak RSS.  No benchmark workload reaches
these sizes.  Times are cold CLI runs on a 2-core Xeon; an exit of 1 is a
refusal (limits.py), which must come at once.

    python tests/scale_guard.py

runs every row in its own interpreter on the source tree beside this file
and exits 1 if any row gives another exit (a timeout counts as 124) or
passes its RSS bound.  tests/test_cli.py runs the refusals in process.
"""

import os
import pathlib
import subprocess
import sys
import time
from typing import NamedTuple


class Guard(NamedTuple):
    argv: tuple
    timeout: float
    exit: int
    why: str
    rss_mb: float | None = None
    says: tuple = ()    # what a refusal must state (exit 1 rows)


GUARDS = (
    Guard(("relations", "--field", "F2", "--modulus", "T^6+T+1",
           "--format", "csv"), 60, 0,
          "relations modulo one split prime take about 0.35 s at orders 63 "
          "and 80; a minute catches a far worse search"),
    Guard(("relations", "--field", "F3", "--modulus", "T^4+T+2",
           "--format", "csv"), 60, 0,
          "as above, order 80"),
    Guard(("relations", "--field", "F2", "--modulus", "T^7+T+1",
           "--format", "csv"), 10, 0,
          "E = 127 takes about 1.0 s, 3.8 s with the search in Q(zeta_E)"),
    Guard(("count-explicit", "--field", "F2", "--modulus", "T^9+T+1",
           "--degree", "20", "--format", "csv"), 60, 0,
          "order 511, N = 20: about 0.3 s modulo split primes, 1.5 s with "
          "products in Q(zeta_E)"),
    Guard(("count-explicit", "--field", "F2", "--modulus", "T^10+T^3+1",
           "--degree", "80", "--format", "csv"), 10, 0,
          "order 1023, N = 80: 0.22-0.24 s and 46.8 MB modulo split primes "
          "(47.2 MB with the unit group built in Poly arithmetic), 77 s "
          "with products in Q(zeta_E)", rss_mb=59),
    Guard(("lpoly", "--field", "F2", "--modulus", "T^10+T^3+1",
           "--char", "1", "--horizon", "3", "--format", "json"), 10, 0,
          "the order-1023 unit group and one L-polynomial: 0.21 s and "
          "35.3 MB (0.24 s with the group built in Poly arithmetic); a "
          "generator search quadratic in the order 18 s", rss_mb=45),
    Guard(("count", "--field", "F2", "--modulus", "T^3+T+1",
           "--degree", "24"), 10, 0,
          "the largest default sieve over F2 (q^N = 2^24): 0.36-0.40 s and "
          "35.7-35.8 MB read through the wheel (0.39-0.42 s and 35.6 MB "
          "with a dense pass); 52.7-52.8 MB with a q^N-byte bitmap and "
          "int64 output", rss_mb=48),
    Guard(("count", "--field", "F4", "--modulus", "T+1",
           "--degree", "12"), 10, 0,
          "the largest default sieve over F4 (q^N = 2^24): 0.27-0.40 s and "
          "39.3 MB read through the wheel (0.43-0.47 s and 39.2-39.3 MB "
          "with a dense pass); 57.3-57.4 MB with a q^N-byte bitmap and "
          "int64 output", rss_mb=48),
    Guard(("count", "--field", "F5", "--modulus", "T^3+T+1",
           "--degree", "9"), 10, 0,
          "odd-p strikes cut to the wheel at the size wide-group sieves "
          "(T + 4 struck, four linear slots in the wheel): 0.24-0.34 s and "
          "34.5-34.6 MB (0.23-0.31 s and 34.1-34.2 MB striking every "
          "multiple after a dense pass); 10 s catches marking by a Python "
          "loop per multiple", rss_mb=42),
    Guard(("count", "--field", "F1000000007", "--modulus", "T",
           "--degree", "2"), 10, 1,
          "a field past MAX_Q is refused before q is factored",
          says=("field F1000000007", "the supported limit is q = 256")),
    Guard(("count", "--field", "F2", "--modulus", "T^12+T^3+1",
           "--degree", "30"), 10, 1,
          "order 4095, past MAX_GROUP_ORDER: refused before the unit group "
          "is enumerated, which ran past 20 s",
          says=("order 4095", "the supported limit is order 1024")),
    Guard(("count", "--field", "F9", "--modulus", "T^20+T+1",
           "--degree", "3"), 10, 1,
          "order 1.1e19, from the degrees and multiplicities of the prime "
          "factors of m by gcds: refused in about 0.3 s, where the scan of "
          "the 9^9 candidates for its two degree-9 factors ran past 60 s",
          says=("order 1.1e+19", "the supported limit is order 1024")),
    Guard(("relations", "--field", "F2", "--modulus", "T^8+T^4+T^3+T+1"),
          10, 1,
          "exponent 255, past MAX_RELATIONS_EXPONENT: 65,024 rows",
          says=("exponent 255", "the supported limit is exponent 128")),
    Guard(("ties-empirical", "--field", "F2", "--modulus", "T^3+T+1",
           "--min-degree", "3", "--max-degree", "10", "--period", "2000"),
          10, 1, "a period past MAX_PERIOD",
          says=("period 2000", "the supported limit is period 1024")),
    Guard(("ties-gl2", "--field", "F2", "--modulus", "T^3+T+1",
           "--residue", "100000"), 10, 1,
          "a residue past MAX_RESIDUE is refused before any slash action",
          says=("residue 100000", "the supported limit is residue 1023")),
    Guard(("count-explicit", "--field", "F2", "--modulus",
           "T^8+T^4+T^3+T+1", "--degree", "6", "--breakdown"), 10, 1,
          "the audit builds order^2 raw sums per squarefree divisor of N, "
          "several GB at order 255: refused past MAX_EXACT_WORK",
          says=("order 255", "the supported limit is 5.0e+07 cost units")),
    Guard(("ties-gl2", "--field", "F3", "--modulus", "T^4+T+2",
           "--format", "csv"), 15, 0,
          "every certificate of T^4+T+2/F3 (8 stabilizers, order 80): about "
          "1 s in F_q table arithmetic, 28 s with a slash action per class "
          "and degree"),
    Guard(("ties-gl2", "--field", "F256", "--modulus", "T+1"), 10, 1,
          "the stabilizer search scans all ~q^4 matrices of GL2(F_q), 4.3e9 "
          "at F256, whose entry array alone would take 137 GB: refused past "
          "MAX_STABILIZER_Q after F256's tables and the group-order check "
          "(0.16-0.19 s cold)",
          says=("q = 256", "the supported limit is q = 16")),
    Guard(("count", "--field", "F256", "--modulus", "T+1", "--degree", "2"),
          3, 0,
          "MAX_Q's measurement, the largest field: 0.23-0.32 s and 33 MB "
          "cold with its tables built by residue-ring matrices, 0.99 s with "
          "q^2/2 polynomial products"),
    Guard(("count", "--field", "F3", "--modulus", "T^2+1",
           "--degree", "14"), 10, 0,
          "odd-q enumeration at the top of the sieve's range: 0.25-0.30 s "
          "and 35.0-35.2 MB with the strikes cut to the wheel (0.29-0.32 s "
          "and 35.4-35.5 MB striking every multiple), minutes with a "
          "Python loop", rss_mb=42),
    Guard(("count", "--field", "F13", "--modulus", "T+1",
           "--degree", "6"), 10, 0,
          "as above, F13 N = 6 (no benchmark workload sieves F13)"),
    Guard(("ties-gl2", "--field", "F13", "--modulus", "T^2+T+2"), 10, 1,
          "25,886 certificates, past MAX_CERTIFICATES: refused after the "
          "stabilizer search (0.01 s in process) in about 0.3 s, where "
          "building them ran past 300 s",
          says=("25886 certificates", "--residue",
                "the supported limit is 1024 certificates")),
    Guard(("ties-gl2", "--field", "F13", "--modulus", "T^2+T+2",
           "--residue", "0", "--format", "csv"), 10, 0,
          "336 certificates, 32 drawn classes each checked at degrees up to "
          "168: about 0.5 s in rational form, 16-22 s with an unreduced "
          "slash action"),
    Guard(("ties-gl2", "--field", "F16", "--modulus", "T+1",
           "--residue", "0", "--format", "csv"), 10, 0,
          "MAX_STABILIZER_Q's measurement: 3,600 stabilizers of 61,200 "
          "matrices, one certificate each: 1.0-1.9 s and 39-40 MB (2.2-3.4 "
          "s and 44.4-44.7 MB with a Poly slash action per matrix)", rss_mb=56),
    Guard(("cumulative", "--field", "F2", "--modulus", "T^10+T^3+1",
           "--max-degree", "247", "--format", "csv"), 15, 0,
          "the largest run accepted at order 1023, running sums in class "
          "order: 2.3-2.9 s and 87.9-96.0 MB (2.5-3.4 s and 88.2-96.2 MB "
          "with a dict per class; the peak moved between sessions on both "
          "sides alike)", rss_mb=111),
    Guard(("ties-empirical", "--field", "F2", "--modulus", "T^10+T^3+1",
           "--min-degree", "10", "--max-degree", "60", "--format", "json"),
          10, 0,
          "ties grouped by class index at order 1023 over 51 degrees: "
          "0.6-1.0 s and 57.5-58.3 MB (0.8-1.2 s and 57.3-58.4 MB with a "
          "Poly profile per residue)", rss_mb=73),
    Guard(("count-explicit", "--field", "F2", "--modulus", "T^3+T+1",
           "--degree", "15000", "--format", "csv"), 20, 0,
          "counts of ~4,500 digits, past the interpreter's int-to-str cap: "
          "about 1 s (602 split primes), and they must print"),
    Guard(("count-explicit", "--field", "F2", "--modulus", "T^3+T+1",
           "--degree", "1000000"), 10, 1,
          "about 1.7e12 cost units, an hour: refused past MAX_EXPLICIT_WORK "
          "before any split prime is searched",
          says=("degree 1000000", "the supported limit is 3.6e+09 cost units",
                "the largest accepted degree is 46257")),
    Guard(("cumulative", "--field", "F2", "--modulus", "T^3+T+1",
           "--max-degree", "1833"), 5, 0,
          "the largest run accepted: about 1 s walking Newton once, 10-12 s "
          "with a walk per degree"),
    Guard(("cumulative", "--field", "F2", "--modulus", "T^3+T+1",
           "--max-degree", "100000"), 10, 1,
          "a run shares the explicit work limit: refused in about 0.3 s",
          says=("the largest accepted top degree is 1833",)),
    Guard(("count-explicit", "--field", "F3", "--modulus", "T^4+T+2",
           "--degree", "1000", "--breakdown"), 10, 1,
          "--breakdown at order 80, N = 1000 took 17 s and printed 43 MB: "
          "refused past MAX_EXACT_WORK",
          says=("--breakdown of degree 1000",
                "the supported limit is 5.0e+07 cost units")),
    Guard(("lpoly", "--field", "F3", "--modulus", "T^4+T+2",
           "--char", "1", "--horizon", "100000"), 10, 1,
          "power sums to n = 100000 would hold GB: refused past "
          "MAX_EXACT_WORK before any L-polynomial is built",
          says=("the largest accepted n is 3516",)),
    Guard(("lpoly", "--field", "F2", "--modulus", "T^127+T+1",
           "--char", "1", "--horizon", "1"), 10, 1,
          "the group order is checked before pricing factors phi(E), "
          "E = 2^127 - 1 prime",
          says=("order 1.7e+38", "the supported limit is order 1024")),
    Guard(("count-explicit", "--field", "F2", "--modulus", "T^3+T+1",
           "--degree", "2305843009213693951", "--breakdown"), 10, 1,
          "the explicit work is checked before pricing factors the prime "
          "N = 2^61 - 1",
          says=("the largest accepted degree is 46257",)),
    Guard(("ties-gl2", "--field", "F2", "--modulus", "T^3+T+1",
           "--verify-to", "1800"), 10, 1,
          "the certificates share one run budget: one by one the 15 took "
          "47 s to N = 1800; refused together in about 0.4 s",
          says=("the largest accepted top degree is 1263",)),
)


def run(guard):
    """(exit, peak RSS in MB) of the guard's command in a fresh
    interpreter; exit 124 if it ran past its timeout."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "ffrace.cli", *guard.argv],
        stdout=subprocess.DEVNULL, env=dict(os.environ, PYTHONPATH=src))
    deadline = time.monotonic() + guard.timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            _pid, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = -9
            return 124, usage.ru_maxrss / 1024
        time.sleep(0.01)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024


def main():
    failed = 0
    for guard in GUARDS:
        start = time.perf_counter()
        code, mb = run(guard)
        bad = code != guard.exit or (guard.rss_mb is not None
                                     and mb > guard.rss_mb)
        failed += bad
        print("%s exit %d (want %d) in %.2f s, peak RSS %.1f MB%s: ffrace %s"
              % ("FAIL" if bad else "ok", code, guard.exit,
                 time.perf_counter() - start, mb,
                 "" if guard.rss_mb is None else " (bound %g)" % guard.rss_mb,
                 " ".join(guard.argv)), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
