"""Exact prime races in F_q[T].

Counts monic irreducibles per congruence class three independent ways
(exhaustive sieve, L-function explicit formula, GL2 bijection transport),
discovers and certifies ties, and reproduces the reference tables exactly.
"""

__version__ = "0.1.0"

from .field import FieldSpec, field_make, parse_field
from .polyring import (Poly, Factorization, enumerate_monic, factorize,
                       format_poly, is_irreducible, parse_poly, poly_gcd)
from .cyclo import CycloNum, cyclotomic_poly
from .characters import Character, UnitGroup, all_characters, unit_group
from .sieve import CountTable, sieve_count
from .lfunc import (LPolynomial, find_conjugate_relations, l_polynomial,
                    power_sums)
from .explicit import (ExplicitCounter, bias_report, counts, cumulative_counts,
                       s_value)
from .gl2 import (Mat2, TieCertificate, certify_ties, slash_action,
                  stabilizer_search, verify_certificate_empirically)
from .report import check_cumulative_ties, detect_tie_patterns, emit_table
