"""Reference oracles for the explicit formula: the class x character matrix
Mobius inversion, the cyclotomic orbit assembly, the pi_g decomposition of
cyclic unit groups and the Mobius helper sums, each against which
explicit.ExplicitCounter.count is compared.

For each divisor d of N
    Ztilde(d)_{a,chi} = (mu(d)/M') * sum_{b^d = a} chi(b)^-1
and
    pi(N; m, a) = (1/N) sum_{d|N} ( Ztilde(d)_{a,chi0} (q^{N/d} - s_{m,N/d})
                                    + sum_{chi != chi0} Ztilde(d)_{a,chi} c_{N/d}(chi) ).
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from cyclo_oracle import (galois, is_rational, ramanujan_sums,
                          rational_value, zeta)
from group_oracle import char_order, char_pow, dlog, value_exponent
from relations_oracle import orbit
from ffrace.characters import all_characters
from ffrace.cyclo import CycloNum
from ffrace.errors import IntegrityError, UsageError
from ffrace.explicit import explicit_counter, s_value
from ffrace.numth import (divisors, euler_phi, gauss_irreducible_count,
                          mobius)


@dataclass
class ZMatrixInverse:
    """Entries of Ztilde(n), indexed [unit class][character] in canonical
    class / lexicographic character order."""
    n: int
    group: object
    entries: list  # entries[a_index][chi_index] -> CycloNum


def zmatrix_inverse(G, n):
    """Ztilde(n); the zero matrix when mu(n) = 0."""
    if n < 1:
        raise UsageError("n must be >= 1")
    E = G.exponent
    mu = mobius(n)
    order = G.order
    if mu == 0:
        zero = CycloNum.from_rational(0, E)
        return ZMatrixInverse(n=n, group=G,
                              entries=[[zero] * order for _ in range(order)])
    scale = Fraction(mu, order)
    raw = explicit_counter(G.modulus).raw_zsum(n)
    return ZMatrixInverse(n=n, group=G,
                          entries=[[s * scale for s in row] for row in raw])


def zmatrix(G, n):
    """Forward matrix Z(n), entries [chi_index][a_index] = chi^n(a)."""
    chars = all_characters(G)
    E = G.exponent
    return [[zeta(E, (n * value_exponent(chi, a)) % E)
             for a in G.units] for chi in chars]


def cyclotomic_counts(counter, degree):
    """pi(N; m, a) for every unit class a, assembled in Q(zeta_E) one Galois
    orbit of characters at a time.  For l a unit mod E,
    L(u, chi^l) = sigma_l L(u, chi), so the orbit of chi contributes one
    trace:
        sum_{chi' ~ chi} chi'(a)^-1 A_chi'(N)
            = (phi(ord chi)/phi(E)) Tr_{Q(zeta_E)/Q}(zeta_E^(-e_chi(a)) A_chi(N)),
    and Tr(zeta_E^t x) is an integer dot product of the power-basis
    coordinates of x with the Ramanujan sums Tr(zeta_E^t).  Power sums are
    extended on the orbit representatives only."""
    G = counter.group
    E = counter.E
    q = counter.field.q
    R = ramanujan_sums(E)
    orbits = orbit(counter)

    def psi(ci, n):
        # q^n - s_{m,n} for the trivial character, else sigma_l c_n(rep)
        if ci == 0:
            return q ** n - counter.s(n)
        r, l = orbits[ci]
        c = counter.lpolys[r].c(n)
        return c if l == 1 else galois(c, l)

    index = {chi.exps: ci for ci, chi in enumerate(counter.chars)}
    moebius = [(k, mobius(k)) for k in divisors(degree) if mobius(k)]
    # phi(E) * N * M' * pi(N; a), accumulated orbit by orbit
    trivial = sum(mu * psi(0, degree // k) for k, mu in moebius)
    totals = [euler_phi(E) * trivial] * G.order
    for ci, (r, _l) in enumerate(orbits):
        if ci == 0 or r != ci:
            continue
        chi = counter.chars[ci]
        rational = 0
        acc = CycloNum.from_rational(0, E)
        for k, mu in moebius:
            term = psi(index[char_pow(chi, k).exps], degree // k)
            if isinstance(term, int):
                rational += mu * term
            else:
                acc = acc + term if mu > 0 else acc - term
        if acc.den != 1:
            raise IntegrityError("power sums of %r are not algebraic integers"
                                 % (chi,))
        # N A_chi(N) = sum_j nums[j] zeta_E^j; chi(a) = zeta_E^e with e a
        # multiple of E / ord(chi)
        nums = list(acc.nums)
        nums[0] += rational
        weight = euler_phi(char_order(chi))
        trace = {e: weight * sum(x * R[(j - e) % E]
                                 for j, x in enumerate(nums) if x)
                 for e in range(0, E, E // char_order(chi))}
        for ai, e in enumerate(chi.value_exponents().tolist()):
            totals[ai] += trace[e]
    scale = euler_phi(E) * degree * G.order
    out = {}
    for u, total in zip(G.units, totals):
        val = Fraction(total, scale)
        if val.denominator != 1 or val < 0:
            raise IntegrityError("cyclotomic count pi(%d; %s) = %s"
                                 % (degree, u, val))
        out[u] = int(val)
    primes = gauss_irreducible_count(q, degree) - sum(
        1 for p, _e in counter.factorization.factors if p.degree == degree)
    assert sum(out.values()) == primes
    return out


def pi_g_decomposition(m, degree, cls):
    """For cyclic unit groups: the map g -> pi_g(N; m, a) over g | M', where
    pi_g collects the divisors d | N with gcd(d, M') = g, via the closed form

      pi_g(N;m,c^k) = (g [g|k] / (M' N)) sum_{d: gcd(d,M')=g} mu(d)
          ( q^{N/d} - s_{m,N/d}
            + sum_{j=1}^{M'/g-1} zeta_{M'}^{-k j (d/g)^{-1}} c_{N/d}(chi_1^{g j}) ).

    Individual parts are rationals (not necessarily integers); they sum to
    the explicit count."""
    counter = explicit_counter(m)
    G = counter.group
    if not G.is_cyclic:
        raise UsageError("pi_g decomposition needs a cyclic unit group")
    cls = cls % m
    Mp = G.order
    q = counter.field.q
    fact = counter.factorization
    if Mp == 1:
        # only g = 1; the whole formula collapses to the trivial column
        total = Fraction(0)
        for d in divisors(degree):
            mu = mobius(d)
            if mu:
                total += mu * (q ** (degree // d) - s_value(fact, degree // d))
        return {1: total / degree}
    k = dlog(G, cls)[0]
    E = counter.E
    assert E == Mp
    out = {}
    for g in divisors(Mp):
        if k % g:
            out[g] = Fraction(0)
            continue
        acc = CycloNum.from_rational(0, E)
        for d in divisors(degree):
            if gcd(d, Mp) != g:
                continue
            mu = mobius(d)
            if mu == 0:
                continue
            nu = degree // d
            inner = CycloNum.from_rational(q ** nu - s_value(fact, nu), E)
            dg_inv = pow(d // g, -1, Mp)
            for j in range(1, Mp // g):
                ci = (g * j) % Mp
                zz = zeta(E, (-k * j * dg_inv) % E)
                inner = inner + zz * counter.lpolys[ci].c(nu)
            acc = acc + inner * mu
        if not is_rational(acc):
            raise IntegrityError("pi_%d part is not rational for %s mod %s"
                                 % (g, cls, m))
        out[g] = rational_value(acc) * Fraction(g, Mp * degree)
    return out


def mobius_helpers(N, p):
    """(sum_{p !| d | N} mu(d), sum_{d|N} mu(d) (-1)^(N/d)), both by direct
    summation.

    Closed forms: the first sum is 1 exactly when the p-free part of N is 1
    (i.e. N is a power of p, including N = 1), else 0; the second is -1 at
    N = 1, 2 at N = 2, and 0 for N >= 3."""
    if N < 1 or p < 2:
        raise UsageError("need N >= 1 and prime p")
    first = sum(mobius(d) for d in divisors(N) if d % p != 0)
    second = sum(mobius(d) * (-1) ** (N // d) for d in divisors(N))
    return first, second
