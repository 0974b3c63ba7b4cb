"""Byte-for-byte replay of CLI outputs that exercise every engine-routing
path: sieve-first `count` (limit = the sieve cutoff), the default limit of
the multi-degree commands, the non-monic fold on both engines, and the
degrees 13..24 where the two limits disagree; and the full, ordered output
of `relations` (csv only) on a cyclic group with stripped rows, a
non-cyclic group of order 56 and an extension field; and the
`count-explicit --breakdown` audit, every per-divisor, per-character term,
on a non-cyclic group (json) and a cyclic one (md).

The count, cumulative and ties files under tests/golden/cli/ were captured
from `ffrace` before the routing was collapsed into `explicit.counts`, the
relations files from the search in Q(zeta_E) (tests/relations_oracle.py),
before `find_conjugate_relations` moved to one split prime, the breakdown
files before the raw sums were tallied over the log grid, and the bias,
`cumulative --ties`, order-56 `ties-empirical` and F4 non-monic files
before counts became lists in canonical class order; these pin class order
on non-cyclic groups with repeated factors.  Regenerate
one with `PYTHONPATH=src python -m ffrace.cli <argv> --format <fmt>`."""

import pathlib

import pytest

from ffrace.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden" / "cli"

CASES = {
    "count_F2_T3T1_d20": ["count", "--field", "F2", "--modulus", "T^3+T+1",
                          "--degree", "20"],
    "count_F3_T21_d16_nonmonic": ["count", "--field", "F3",
                                  "--modulus", "T^2+1", "--degree", "16",
                                  "--nonmonic"],
    "count_F3_T21_d8_nonmonic": ["count", "--field", "F3",
                                 "--modulus", "T^2+1", "--degree", "8",
                                 "--nonmonic"],
    "count_F2_T2T1_d14_cumulative": ["count", "--field", "F2",
                                     "--modulus", "T^2+T+1", "--degree", "14",
                                     "--cumulative"],
    "cumulative_F2_T2T1_14": ["cumulative", "--field", "F2",
                              "--modulus", "T^2+T+1", "--max-degree", "14"],
    "ties_empirical_F3_T2_10_13": ["ties-empirical", "--field", "F3",
                                   "--modulus", "T^2", "--min-degree", "10",
                                   "--max-degree", "13", "--period", "2"],
    "ties_gl2_F3_T21_verify14": ["ties-gl2", "--field", "F3",
                                 "--modulus", "T^2+1", "--verify-to", "14"],
    "bias_F2_T6T21_a_T_b_1_8_30_2": ["bias", "--field", "F2",
                                     "--modulus", "T^6+T^2+1",
                                     "--class-a", "T", "--class-b", "1",
                                     "--degrees", "8:30:2"],
    "cumulative_F2_T4T21_16_ties": ["cumulative", "--field", "F2",
                                    "--modulus", "T^4+T^2+1",
                                    "--max-degree", "16", "--ties"],
    "ties_empirical_F2_T6T21_8_20": ["ties-empirical", "--field", "F2",
                                     "--modulus", "T^6+T^2+1",
                                     "--min-degree", "8",
                                     "--max-degree", "20"],
    "count_F4_T2_d14_nonmonic": ["count", "--field", "F4", "--modulus", "T^2",
                                 "--degree", "14", "--nonmonic"],
}

RELATIONS = {
    "relations_F2_T4T1": ["relations", "--field", "F2",
                          "--modulus", "T^4+T+1"],
    "relations_F2_T6T21": ["relations", "--field", "F2",
                           "--modulus", "T^6+T^2+1"],
    "relations_F4_T2T2": ["relations", "--field", "F4",
                          "--modulus", "T^2+T+2"],
}

BREAKDOWNS = {
    "count_explicit_F2_T4T21_d12_breakdown.json": [
        "count-explicit", "--field", "F2", "--modulus", "T^4+T^2+1",
        "--degree", "12", "--breakdown", "--format", "json"],
    "count_explicit_F3_T21_d12_breakdown.md": [
        "count-explicit", "--field", "F3", "--modulus", "T^2+1",
        "--degree", "12", "--breakdown", "--format", "md"],
}


def replay(capsys, argv, path):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert out == path.read_text()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(capsys, name, fmt):
    replay(capsys, CASES[name] + ["--format", fmt],
           GOLDEN / ("%s.%s" % (name, fmt)))


@pytest.mark.parametrize("name", sorted(RELATIONS))
def test_relations_output_matches_golden(capsys, name):
    replay(capsys, RELATIONS[name] + ["--format", "csv"],
           GOLDEN / ("%s.csv" % name))


@pytest.mark.parametrize("name", sorted(BREAKDOWNS))
def test_breakdown_output_matches_golden(capsys, name):
    replay(capsys, BREAKDOWNS[name], GOLDEN / name)
