"""The mutant table: integrity guards in src/, each with a mutant that turns
it off and the tests that must fail on that mutant (DeMillo, Lipton and
Sayward, "Hints on test data selection", IEEE Computer 11, 1978).  A guard
no test makes fire can be lost in a refactor while the tests stay green.

    python tests/mutants.py

copies src/, tests/ and pyproject.toml beside this file to a temporary
directory, runs every named test there on the unmutated copy (each must
pass), then applies one mutant at a time and runs each of its tests alone,
and exits 1 if a guard's text is not found exactly once, a named test
passes on its mutant (the mutant survives) or a run ends in anything but
test failures.
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple


class Mutant(NamedTuple):
    path: str       # relative to the root of the tree
    guard: str      # exact source text, found once in the file
    mutant: str     # its replacement
    killers: tuple  # tests that must fail on the mutant
    why: str


MUTANTS = (
    Mutant("src/ffrace/sieve.py", "if (reached < p ** width).any():",
           "if False:",
           ("tests/test_sieve.py::"
            "test_wheel_restriction_checks_every_row_spans_the_wheel",),
           "a cut strike whose low digits miss some wheel words keeps the "
           "wrong cofactors; the test's reducible row reaches 64 of 1024"),
    Mutant("src/ffrace/sieve.py", "if reached[0] < len(words):", "if False:",
           ("tests/test_sieve.py::"
            "test_repeated_wheel_slot_fails_the_one_to_one_check",),
           "a wheel whose low digits miss some words has rows of unequal "
           "length, and its scan reads the wrong positions; the test's "
           "repeated slot reaches 81 of 243"),
    Mutant("src/ffrace/sieve.py", "if filled + found > len(out):",
           "if False:",
           ("tests/test_sieve.py::"
            "test_surplus_survivors_raise_before_the_output_overflows",),
           "surplus survivors overflow the output array: without the guard "
           "the append fails with a ValueError, not an IntegrityError"),
    Mutant("src/ffrace/sieve.py", "if filled < len(out):", "if False:",
           ("tests/test_sieve.py::test_extra_mark_leaves_the_output_short",),
           "an irreducible struck by mistake leaves the output short of the "
           "Gauss count, and its last entry unwritten"),
    Mutant("src/ffrace/sieve.py", "if excluded != expected:", "if False:",
           ("tests/test_sieve.py::test_sieve_count_reuses_tally_not_tables",),
           "irreducibles tallied outside the unit classes must be exactly "
           "the prime factors of m of that degree"),
)

ROOT = pathlib.Path(__file__).resolve().parents[1]
PASSED, FAILED = 0, 1       # pytest's exit codes


def pytest(tree, tests):
    """pytest's exit code for the tests, run on the source of tree."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *tests], cwd=tree, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL).returncode


def main():
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = pathlib.Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tree)
        killers = sorted({test for row in MUTANTS for test in row.killers})
        code = pytest(tree, killers)
        print("%s unmutated: %d tests exit %d (want 0)"
              % ("ok" if code == PASSED else "FAIL", len(killers), code),
              flush=True)
        if code != PASSED:
            return 1
        for row in MUTANTS:
            path = tree / row.path
            source = path.read_text()
            start = time.perf_counter()
            if source.count(row.guard) != 1:
                failed += 1
                print("FAIL guard found %d times: %s: %s"
                      % (source.count(row.guard), row.path, row.guard))
                continue
            path.write_text(source.replace(row.guard, row.mutant))
            try:
                codes = [pytest(tree, [test]) for test in row.killers]
            finally:
                path.write_text(source)
            bad = any(code != FAILED for code in codes)
            failed += bad
            print("%s killed by %d of %d tests (exits %s) in %.2f s: %s: %s"
                  % ("FAIL" if bad else "ok", codes.count(FAILED),
                     len(codes), codes, time.perf_counter() - start,
                     row.path, row.guard), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
