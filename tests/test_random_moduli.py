"""Differential checks of the explicit formula on random moduli.

Monic moduli of degree <= 4 are drawn over F2, F3, F4, F5, F8 and F9 (cyclic
and non-cyclic unit groups, squarefree and not), restricted to q^deg <= 81 so
that the class x character oracle stays within a few seconds.  For each:

- ExplicitCounter.count, computed modulo split primes and recovered by the
  CRT, equals the cyclotomic orbit assembly in Q(zeta_E) and the matrix
  Mobius inversion assembled from zmatrix_inverse and directly built
  L-polynomials;
- it equals the sieve at a degree N <= min(sieve cutoff, 10), and at that N
  run_counts gives the same list in canonical class order from either
  engine, its non-monic fold that of a literal enumeration where
  q^N <= 2^12;
- find_conjugate_relations, modulo one split prime, returns the rows of the
  search in Q(zeta_E) (every exponent here is at most 80, within
  MAX_RELATIONS_EXPONENT);
- the unit group's power_index and character_power_index, read off its
  log grid, equal the powers taken one element at a time;
- the rational form of the GL2 slash action that checks tie certificates
  equals the unreduced slash_action mod m.
"""

import random

from hypothesis import HealthCheck, example, given, seed, settings
from hypothesis import strategies as st

from cyclo_oracle import rational_value
from explicit_oracle import cyclotomic_counts, zmatrix_inverse
from group_oracle import power_indices
from relations_oracle import conjugate_relations
from sieve_oracle import sieve_count_nonmonic_naive
from ffrace import gl2
from ffrace.characters import unit_group
from ffrace.cyclo import CycloNum
from ffrace.explicit import ExplicitCounter, run_counts
from ffrace.field import field_make
from ffrace.lfunc import find_conjugate_relations, l_polynomial
from ffrace.numth import divisors
from ffrace.polyring import Poly
from ffrace.sieve import default_cutoff, sieve_count

FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 8: (2, 3), 9: (3, 2)}
MAX_RESIDUES = 81


@st.composite
def moduli(draw):
    q = draw(st.sampled_from(sorted(FIELDS)))
    top = max(d for d in range(1, 5) if q ** d <= MAX_RESIDUES)
    deg = draw(st.integers(1, top))
    lower = draw(st.integers(0, q ** deg - 1))
    return Poly.from_index(field_make(*FIELDS[q]), q ** deg + lower)


def oracle_counts(counter, degree):
    """pi(N; m, a) by the class x character matrix inversion, with every
    L-polynomial built directly."""
    G = counter.group
    E = counter.E
    q = counter.field.q
    lpolys = [None] + [l_polynomial(counter.modulus, chi)
                       for chi in counter.chars[1:]]
    acc = [CycloNum.from_rational(0, E)] * G.order
    for d in divisors(degree):
        Z = zmatrix_inverse(G, d).entries
        nu = degree // d
        vals = [q ** nu - counter.s(nu)] + [L.c(nu) for L in lpolys[1:]]
        for ai in range(G.order):
            for ci, v in enumerate(vals):
                if not Z[ai][ci].is_zero:
                    acc[ai] = acc[ai] + Z[ai][ci] * v
    out = {}
    for u, v in zip(G.units, acc):
        val = rational_value(v) / degree
        assert val.denominator == 1 and val >= 0
        out[u] = int(val)
    return out


@seed(20261018)
@settings(max_examples=40, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(m=moduli(), n_sieve=st.integers(1, 10), n_oracle=st.integers(1, 16))
# T^4+T^2+1 = (T^2+T+1)^2 over F2 and T^3 over F3: non-squarefree, groups
# [2, 6], [3, 6].  At N = 12 the first has nontrivial characters chi with
# chi^k trivial for squarefree k | 12: their psi(chi^k, 12/k) is
# q^(12/k) - s_{m,12/k}, not a power sum.
@example(m=Poly(field_make(2), (1, 0, 1, 0, 1)), n_sieve=10, n_oracle=12)
@example(m=Poly(field_make(3), (0, 0, 0, 1)), n_sieve=10, n_oracle=12)
def test_explicit_matches_oracle_sieve_and_direct_lpolys(m, n_sieve, n_oracle):
    counter = ExplicitCounter(m)
    n_sieve = min(n_sieve, default_cutoff(m.field.q))
    assert counter.count(n_sieve).counts == sieve_count(m, n_sieve).counts
    units = counter.group.units
    table = sieve_count(m, n_sieve).counts
    for limit in (0, n_sieve):     # explicit, then sieve
        (_n, (found, _source)), = run_counts(m, [n_sieve], sieve_limit=limit)
        assert found == [table[u] for u in units], limit
    if m.field.q ** n_sieve <= 2 ** 9:
        (_n, (found, _source)), = run_counts(m, [n_sieve], monic=False)
        naive = sieve_count_nonmonic_naive(m, n_sieve)
        assert found == [naive[u] for u in units]
    modular = counter.count(n_oracle).counts
    assert modular == cyclotomic_counts(counter, n_oracle)
    assert modular == oracle_counts(counter, n_oracle)


@seed(20261020)
@settings(max_examples=25, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(m=moduli())
@example(m=Poly(field_make(2), (1, 0, 1, 0, 1)))
@example(m=Poly(field_make(3), (0, 0, 0, 1)))
def test_relations_match_oracle(m):
    assert [r.to_json() for r in find_conjugate_relations(m)] == \
        [r.to_json() for r in conjugate_relations(m)]


@seed(20261021)
@settings(max_examples=25, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(m=moduli())
@example(m=Poly(field_make(2), (1, 0, 1, 0, 1)))
@example(m=Poly(field_make(3), (0, 0, 0, 1)))
def test_power_indices_match_oracle(m):
    G = unit_group(m)
    for n in range(-G.exponent, G.exponent + 1):
        assert (G.power_index(n).tolist(),
                G.character_power_index(n).tolist()) == power_indices(G, n)


@seed(20261019)
@settings(max_examples=15, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(m=moduli(), rnd=st.randoms(use_true_random=False))
@example(m=Poly(field_make(2), (1, 0, 1, 0, 1)), rnd=random.Random(0))
@example(m=Poly(field_make(3), (0, 0, 0, 1)), rnd=random.Random(0))
@example(m=Poly(field_make(2, 2), (1, 1, 0, 1)), rnd=random.Random(0))
def test_rational_slash_matches_unreduced_slash_action(m, rnd):
    M = m.degree
    G = unit_group(m)
    for B, _lam in gl2.stabilizer_search(m):
        period = gl2.stabilizer_period(m, B)
        for n in range(M - 1, M + period + 3):
            c = rnd.choice(G.units)
            got = gl2._rational_slash(G.ring.digits([c.encode()]), n,
                                      gl2._linear_factors(m, B), m, period)
            want = gl2.slash_action(c, n, B) % m
            assert got.tolist() == [want.encode()], (B, n, c)
