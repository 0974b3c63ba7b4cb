"""Exact per-class counts with no enumeration: the explicit formula, assembled
on the character side and shared across Galois orbits of characters.

For a character chi mod m let A_chi(N) = sum chi(P) over the monic
irreducible P of degree N prime to m.  Mobius inversion of
c_n(chi) = sum_{d|n} d A_{chi^(n/d)}(d) gives
    N A_chi(N) = sum_{k|N} mu(k) psi(chi^k, N/k),
with psi(chi, n) = c_n(chi) = -sum_j alpha_j^n for nontrivial chi and
psi(chi0, n) = q^n - s_{m,n}; orthogonality then gives
    pi(N; m, a) = (1/M') sum_chi chi(a)^-1 A_chi(N),    M' = Phi(m).
For l a unit mod E, L(u, chi^l) = sigma_l L(u, chi), so the orbit of chi
contributes one trace:
    sum_{chi' ~ chi} chi'(a)^-1 A_chi'(N)
        = (phi(ord chi)/phi(E)) Tr_{Q(zeta_E)/Q}(zeta_E^(-e_chi(a)) A_chi(N)),
and Tr(zeta_E^t x) is an integer dot product of the power-basis coordinates
of x with the Ramanujan sums Tr(zeta_E^t).  L-polynomials are built, and
power sums extended, for one representative per orbit only; the other
characters' L-polynomials are its Galois images.  Every count must reduce to
a nonnegative rational integer and the counts must sum to the number of
degree-N primes prime to m; a failure is raised, never rounded away.

The class x character matrix Mobius inversion stays only as the --breakdown
audit: for each divisor d of N
    Ztilde(d)_{a,chi} = (mu(d)/M') * sum_{b^d = a} chi(b)^-1
and
    pi(N; m, a) = (1/N) sum_{d|N} ( Ztilde(d)_{a,chi0} (q^{N/d} - s_{m,N/d})
                                    + sum_{chi != chi0} Ztilde(d)_{a,chi} c_{N/d}(chi) ).
The oracle built on it, with the pi_g decomposition and the Mobius helper
sums, lives in tests/explicit_oracle.py.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .characters import all_characters, unit_group
from .cyclo import CycloNum
from .errors import IntegrityError, UsageError
from .lfunc import LPolynomial, l_polynomial
from .numth import (divisors, euler_phi, gauss_irreducible_count, mobius,
                    ramanujan_sums)
from .polyring import Poly, factorize, format_poly
from .sieve import default_cutoff, sieve_count

# Largest unit-group order the --breakdown audit accepts.  It builds order^2
# raw sums per squarefree divisor of N: on a 2-core Xeon, order 80 at N = 30
# (8 such divisors) takes 4.5 s and 380 MB, order 124 at N = 6 12 s and 770 MB.
MAX_BREAKDOWN_ORDER = 80


def s_value(factorization, n):
    """s_{m,n}: sum of deg P over distinct irreducible P | m with deg P | n."""
    if n < 1:
        raise UsageError("n must be >= 1")
    return sum(p.degree for p, _ in factorization.factors if n % p.degree == 0)


def _raw_power_sums(G, n):
    """S(n)[a_idx][chi_idx] = sum_{b^n = a} chi(b)^-1 (integer CycloNums);
    Ztilde(n) = (mu(n)/M') * S(n)."""
    E = G.exponent
    chars = all_characters(G)
    order = G.order
    tallies = [[None] * order for _ in range(order)]
    for b in G.units:
        a_idx = G.index_of(G.unit_pow(b, n))
        row = tallies[a_idx]
        for ci, chi in enumerate(chars):
            if row[ci] is None:
                row[ci] = [0] * E
            row[ci][(-chi.value_exponent(b)) % E] += 1
    zero = [0] * E
    return [[CycloNum.from_zeta_powers(E, t if t is not None else zero)
             for t in row] for row in tallies]


@dataclass
class ExplicitCount:
    modulus: Poly
    degree: int
    counts: dict            # Poly -> int, canonical class order
    breakdown: dict | None  # (class literal, d) -> {chi label: CycloNum json}


class ExplicitCounter:
    """Caches the per-modulus character data across degrees: unit group,
    Galois orbits of characters, L-polynomials (built on orbit
    representatives, transported to the rest), power sums, and the Ztilde
    raw sums of the --breakdown audit."""

    def __init__(self, m):
        if m.degree < 1:
            raise UsageError("modulus must have degree >= 1")
        self.modulus = m
        self.field = m.field
        self.group = unit_group(m)
        E = self.E = self.group.exponent
        self.factorization = factorize(m)
        self.chars = all_characters(self.group)
        self._index = {chi.exps: ci for ci, chi in enumerate(self.chars)}
        # orbit[ci] = (r, l): chars[ci] = chars[r]^l with l a unit mod E and
        # r the first index of the orbit (so r <= ci)
        self.orbit = [None] * len(self.chars)
        galois_units = [l for l in range(1, E + 1) if gcd(l, E) == 1]
        for ci, chi in enumerate(self.chars):
            if self.orbit[ci] is None:
                for l in galois_units:
                    cj = self._index[(chi ** l).exps]
                    if self.orbit[cj] is None:
                        self.orbit[cj] = (ci, l)
        self.lpolys = [None] * len(self.chars)
        for ci, (r, l) in enumerate(self.orbit):
            if ci == 0:
                continue
            if r == ci:
                self.lpolys[ci] = l_polynomial(m, self.chars[ci])
            else:
                self.lpolys[ci] = LPolynomial(
                    self.chars[ci], [c.galois(l) for c in self.lpolys[r].coeffs])
        # nontrivial representatives: (index, phi(order), e_chi(a) per class)
        self._reps = [(ci, euler_phi(self.chars[ci].order),
                       self.chars[ci].value_exponents().tolist())
                      for ci, (r, _l) in enumerate(self.orbit)
                      if r == ci and ci != 0]
        self._raw = {}

    def s(self, n):
        return s_value(self.factorization, n)

    def raw_zsum(self, d):
        raw = self._raw.get(d)
        if raw is None:
            raw = self._raw.setdefault(d, _raw_power_sums(self.group, d))
        return raw

    def _psi(self, ci, n):
        """psi(chars[ci], n): q^n - s_{m,n} (an int) for the trivial
        character, else c_n(chi) = sigma_l c_n(rep) on the orbit
        representative."""
        if ci == 0:
            return self.field.q ** n - self.s(n)
        r, l = self.orbit[ci]
        c = self.lpolys[r].c(n)
        return c if l == 1 else c.galois(l)

    def count(self, degree, breakdown=False):
        if degree < 1:
            raise UsageError("degree must be >= 1")
        G = self.group
        if breakdown and G.order > MAX_BREAKDOWN_ORDER:
            raise UsageError(
                "--breakdown mod %s: unit group of order %d; the supported "
                "limit is %d" % (format_poly(self.modulus), G.order,
                                 MAX_BREAKDOWN_ORDER))
        E = self.E
        R = ramanujan_sums(E)
        moebius = [(k, mobius(k)) for k in divisors(degree) if mobius(k)]
        # phi(E) * N * M' * pi(N; a), accumulated orbit by orbit
        trivial = sum(mu * self._psi(0, degree // k) for k, mu in moebius)
        totals = [euler_phi(E) * trivial] * G.order
        for ci, weight, exps in self._reps:
            chi = self.chars[ci]
            rational = 0
            acc = CycloNum.from_rational(0, E)
            for k, mu in moebius:
                term = self._psi(self._index[(chi ** k).exps], degree // k)
                if isinstance(term, int):
                    rational += mu * term
                else:
                    acc = acc + term if mu > 0 else acc - term
            if acc.den != 1:
                raise IntegrityError(
                    "power sums of %r mod %s are not algebraic integers"
                    % (chi, self.modulus))
            # N A_chi(N) = sum_j nums[j] zeta_E^j; chi(a) = zeta_E^e with
            # e a multiple of E / ord(chi)
            nums = list(acc.nums)
            nums[0] += rational
            trace = {}
            for e in range(0, E, E // chi.order):
                trace[e] = weight * sum(x * R[(j - e) % E]
                                        for j, x in enumerate(nums) if x)
            for ai, e in enumerate(exps):
                totals[ai] += trace[e]
        scale = euler_phi(E) * degree * G.order
        counts = {}
        for u, total in zip(G.units, totals):
            val = Fraction(total, scale)
            if val.denominator != 1 or val < 0:
                raise IntegrityError(
                    "explicit count pi(%d; %s, %s) = %s is not a nonnegative "
                    "integer" % (degree, self.modulus, u, val))
            counts[u] = int(val)
        primes = gauss_irreducible_count(self.field.q, degree) - sum(
            1 for p, _e in self.factorization.factors if p.degree == degree)
        total = sum(counts.values())
        if total != primes:
            raise IntegrityError(
                "explicit counts of degree %d mod %s sum to %d, not to the %d "
                "primes prime to the modulus"
                % (degree, self.modulus, total, primes))
        out_audit = self._audit(degree, counts) if breakdown else None
        return ExplicitCount(modulus=self.modulus, degree=degree,
                             counts=counts, breakdown=out_audit)

    def _audit(self, degree, counts):
        """(class literal, d) -> {chi label: Ztilde(d)_{a,chi} psi(chi, N/d)}
        over the divisors d with mu(d) != 0; the terms of each class must
        re-sum to N pi(N; m, a)."""
        G = self.group
        order = G.order
        audit = {}
        sums = [CycloNum.from_rational(0, self.E)] * order
        for d in divisors(degree):
            mu = mobius(d)
            if mu == 0:
                continue
            raw = self.raw_zsum(d)
            scale = Fraction(mu, order)
            vals = [self._psi(ci, degree // d) for ci in range(order)]
            for ai, u in enumerate(G.units):
                terms = [(raw[ai][ci] * scale) * vals[ci]
                         for ci in range(order)]
                for t in terms:
                    sums[ai] = sums[ai] + t
                audit[(format_poly(u), d)] = {
                    chi.label(): t.to_json()
                    for chi, t in zip(self.chars, terms)}
        for u, total in zip(G.units, sums):
            if total != degree * counts[u]:
                raise IntegrityError(
                    "breakdown of pi(%d; %s, %s) sums to %r, not to N*pi"
                    % (degree, self.modulus, u, total))
        return audit


_counters = {}


def explicit_counter(m):
    key = (m.field, m.coeffs)
    counter = _counters.get(key)
    if counter is None:
        counter = _counters.setdefault(key, ExplicitCounter(m))
    return counter


def counts(m, degree, *, monic=True, sieve_limit=None):
    """(counts, source): the count of degree-N irreducibles in every unit
    class c mod m, and the engine that produced it, "sieve" or "explicit".

    The one place that chooses the engine: the sieve for N <= sieve_limit,
    the explicit formula beyond.  The default limit is
    min(default_cutoff(q), 12).

    monic=False counts all irreducibles with a nonzero leading coefficient.
    f -> lc(f)^-1 f maps the lc = lam ones bijectively onto the monic ones
    and class c onto lam^-1 c, so pi~(N; m, c) = sum_lam pi(N; m, lam^-1 c)."""
    if sieve_limit is None:
        sieve_limit = min(default_cutoff(m.field.q), 12)
    if degree <= sieve_limit:
        out, source = sieve_count(m, degree).counts, "sieve"
    else:
        out, source = explicit_counter(m).count(degree).counts, "explicit"
    if not monic:
        field = m.field
        out = {c: sum(out[c.scale(field.inv(lam)) % m] for lam in field.units())
               for c in out}
    return out, source


def cumulative_counts(m, max_degree, **kw):
    """(per_class, sources): running sums sum_{n<=N} counts(m, n, **kw) for
    N = 1..max_degree, per_class[c][N-1] for every unit class c, and the
    engine of every degree, sources[N]."""
    if max_degree < 1:
        raise UsageError("max degree must be >= 1")
    per_class, sources = {}, {}
    for n in range(1, max_degree + 1):
        found, sources[n] = counts(m, n, **kw)
        for c, v in found.items():
            column = per_class.setdefault(c, [])
            column.append(v + (column[-1] if column else 0))
    return {c: tuple(v) for c, v in per_class.items()}, sources


@dataclass
class BiasReport:
    modulus: Poly
    class_a: Poly
    class_b: Poly
    rows: list              # (N, pi_a, pi_b, diff)
    violations: list        # degrees where the expected sign failed

    def sign_summary(self):
        pos = sum(1 for r in self.rows if r[3] > 0)
        neg = sum(1 for r in self.rows if r[3] < 0)
        zer = sum(1 for r in self.rows if r[3] == 0)
        return {"positive": pos, "negative": neg, "zero": zer}


def bias_report(m, class_a, class_b, degrees, expected_sign=None):
    """Exact differences pi(N;m,a) - pi(N;m,b) over the given degrees.
    expected_sign in {-1, 0, 1} flags the degrees whose difference has
    another sign; None flags none."""
    if expected_sign not in (-1, 0, 1, None):
        raise UsageError("expected_sign must be -1, 0, 1 or None, got %r"
                         % (expected_sign,))
    counter = explicit_counter(m)
    a = class_a % m
    b = class_b % m
    G = counter.group
    if not (G.contains(a) and G.contains(b)):
        raise UsageError("classes must be units mod the modulus")
    rows = []
    violations = []
    for N in degrees:
        counts = counter.count(N).counts
        diff = counts[a] - counts[b]
        rows.append((N, counts[a], counts[b], diff))
        if expected_sign is not None:
            if (diff > 0) - (diff < 0) != expected_sign:
                violations.append(N)
    return BiasReport(modulus=m, class_a=a, class_b=b, rows=rows,
                      violations=violations)
