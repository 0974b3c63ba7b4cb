"""Reference oracle for the power sums: Newton's identities on the
L-polynomial against the sieve-side divisor sum of weighted counts."""

from ffrace.cyclo import CycloNum
from ffrace.errors import UsageError
from ffrace.lfunc import l_polynomial
from ffrace.numth import divisors

from group_oracle import char_pow
from sieve_oracle import weighted_count


def power_sum_mismatch(m, chi, n_max):
    """First n where Newton-side c_n differs from the sieve-side divisor sum
    sum_{d|n} d * A_{chi^(n/d)}(d); None if they agree through n_max."""
    if chi.is_trivial:
        raise UsageError("use the q^n - s_{m,n} identity for the trivial "
                         "character")
    L = l_polynomial(m, chi)
    E = chi.group.exponent
    for n in range(1, n_max + 1):
        rhs = CycloNum.from_rational(0, E)
        for d in divisors(n):
            rhs = rhs + weighted_count(m, char_pow(chi, n // d), d) * d
        if L.c(n) != rhs:
            return n
    return None


def verify_power_sums_vs_sieve(m, chi, n_max):
    return power_sum_mismatch(m, chi, n_max) is None
