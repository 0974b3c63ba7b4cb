"""Exact per-class counts with no enumeration: the explicit formula,
evaluated modulo primes that split completely in Q(zeta_E).

With A_chi(N) = sum chi(P) over the monic irreducible P of degree N prime
to m, Mobius inversion of c_n(chi) = sum_{d|n} d A_{chi^(n/d)}(d) gives
    N A_chi(N) = sum_{k|N} mu(k) psi(chi^k, N/k),
where psi(chi, n) = c_n(chi) = -p_n(chi), p_n the inverse-zero power sums
of L(u, chi), and psi(chi, n) = q^n - s_{m,n} for every trivial chi^k; then
    N M' pi(N; m, a) = sum_chi chi(a)^-1 N A_chi(N),    M' = Phi(m),
an integer of size at most N M' q^N.  For a prime l = 1 mod E,
Z[zeta_E]/l = F_l^phi(E): zeta_E -> omega, a primitive E-th root of unity
mod l, makes every step arithmetic mod l on all characters and all primes
at once: the L-coefficients, Newton's recurrence, the sum over characters.
Primes l < 2^25 are stacked until the product of all but the last exceeds
2 N M' q^N; the Chinese remainder theorem gives the integer in the
symmetric range, and the last prime must agree.  Every count must be a
nonnegative integer and the counts must sum to the number of degree-N
primes prime to m; a failure is raised, never rounded away.  A run of
counts (a single count is a run of one) whose Newton walks would pass
limits.MAX_EXPLICIT_WORK together is refused before any prime is searched.

The conjugate-relation search (lfunc.find_conjugate_relations) reads the
first row of the stack.  The L-polynomials in Q(zeta_E) are built on first
use, for the --breakdown audit: the class x character matrix inversion
    Ztilde(d)_{a,chi} = (mu(d)/M') * sum_{b^d = a} chi(b)^-1,
    pi(N; m, a) = (1/N) sum_{d|N} ( Ztilde(d)_{a,chi0} (q^{N/d} - s_{m,N/d})
                                    + sum_{chi != chi0} Ztilde(d)_{a,chi} c_{N/d}(chi) ).
The oracles built on it, the assembly by traces in Q(zeta_E), the pi_g
decomposition and the Mobius helper sums live in tests/explicit_oracle.py.
"""

import threading
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import log2, prod
from operator import add, mul

import numpy as np

from .characters import all_characters, unit_group
from .cyclo import CycloNum
from .errors import IntegrityError, UsageError
from .lfunc import l_polynomial, power_sum_work
from .limits import MAX_EXACT_WORK, MAX_EXPLICIT_WORK, check
from .numth import (divisors, euler_phi, gauss_irreducible_count, is_prime,
                    mobius, prime_factors)
from .polyring import Poly, factorize, format_poly
from .sieve import class_counts, default_cutoff

# Split primes lie below 2^PRIME_BITS: an entry times a weight is below
# 2^50, a sum of 4096 of them below 2^62.
PRIME_BITS = 25
# int64 entries of omega^V gathered at once (1 MB).  On a 2-core Xeon the
# order-1023 count at N = 80 takes 0.06 s and 45 MB, 0.20 s and 122 MB with
# the whole table gathered.
_GATHER = 1 << 17

_split = {}  # E -> [(l, omega)], the split primes found so far, descending
_split_lock = threading.Lock()


def split_prime(E, i):
    """(l, omega): the i-th prime l = 1 mod E below 2^PRIME_BITS, counting
    down, and a primitive E-th root of unity omega mod l."""
    with _split_lock:
        found = _split.setdefault(E, [])
        l = found[-1][0] - E if found else (2 ** PRIME_BITS - 2) // E * E + 1
        while len(found) <= i:
            if l <= E + 1:  # past any count within the limits (README)
                raise UsageError("the explicit formula needs more than the %d "
                                 "primes l = 1 mod %d below 2^%d"
                                 % (len(found), E, PRIME_BITS))
            if is_prime(l):
                found.append((l, next(
                    w for w in (pow(g, (l - 1) // E, l) for g in range(2, l))
                    if all(pow(w, E // p, l) != 1 for p in prime_factors(E)))))
            l -= E
        return found[i]


def _gathered(powers, values):
    """(rows, omega^values[rows] on every prime) over blocks of rows."""
    step = max(1, _GATHER // max(1, powers.shape[0] * values.shape[1]))
    for lo in range(0, len(values), step):
        yield slice(lo, lo + step), np.take(powers, values[lo:lo + step], 1)


def _newton(rows, top):
    """Newton's recurrence p_n = -(n a_n + sum_i a_i p_(n-i)) mod l on every
    row (zero below p_1): yields p_1, p_2, .., p_top."""
    ell, _powers, coeffs = rows
    zero = np.zeros(coeffs.shape[1:], dtype=np.int64)
    recent = [zero] * len(coeffs)
    for n in range(1, top + 1):
        p = n * coeffs[n - 1] if n <= len(coeffs) else zero.copy()
        for a, x in zip(coeffs, recent):
            p += a * x
        np.negative(p, out=p)
        p %= ell
        yield p
        recent = [p] + recent[:-1]


def _crt(residues, ell):
    """Per column of residues, the x in the symmetric range of the product
    of all rows but the last with x = residues[j] mod ell[j] on those rows,
    and whether the last row agrees with it."""
    *ell, check = ell.ravel().tolist()
    product = prod(ell)
    basis = [product // l * pow(product // l, -1, l) for l in ell]
    out = []
    for *column, last in residues.T.tolist():
        x = sum(map(mul, column, basis)) % product
        out.append((x - product if 2 * x > product else x, x % check == last))
    return out


def s_value(factorization, n):
    """s_{m,n}: sum of deg P over distinct irreducible P | m with deg P | n."""
    if n < 1:
        raise UsageError("n must be >= 1")
    return sum(p.degree for p, _ in factorization.factors if n % p.degree == 0)


def explicit_work(q, order, deg, degree):
    """Cost units (see limits.MAX_EXPLICIT_WORK) of a cold degree-N count:
    N Newton steps over P x M' row entries, P the split primes past
    2 N M' q^N, each deg m - 1 multiply-adds and four passes more."""
    bits = log2(2 * degree * order) + degree * log2(q)
    return degree * (int(bits) // PRIME_BITS + 2) * order * (deg + 3)


def breakdown_work(q, order, E, deg, degree):
    """Cost units of the --breakdown audit (see limits.MAX_EXACT_WORK): the
    exact power sums of the order - 1 nontrivial characters to the degree,
    then order^2 terms per squarefree divisor of it.  A term takes phi(E)^2
    coordinate products and writes phi(E) coordinates of at most
    degree log2(q) / 2 bits; building and printing one costs 512 units more,
    and 16 more per coordinate."""
    phi = euler_phi(E)
    terms = 2 ** len(prime_factors(degree)) * order ** 2
    return (order - 1) * power_sum_work(q, E, deg - 1, degree) + \
        terms * (512 + phi * (phi + 16 + degree * log2(q) / 16))


def _sieve_limit(m, sieve_limit):
    return min(default_cutoff(m.field.q), 12) if sieve_limit is None \
        else max(sieve_limit, 0)


def check_run_work(m, degrees, sieve_limit=None):
    """Refuse a run of counts mod m over a sequence of degrees whose
    explicit counts, those above sieve_limit (routed as run_counts does; 0
    sends every degree), would together pass limits.MAX_EXPLICIT_WORK.
    Judged from q, the unit-group order and deg m alone: no counter is
    built, no prime searched, and the sum stops at the first degree past the
    limit.  The degrees may repeat (runs merged in order) and need only be
    iterable."""
    floor = _sieve_limit(m, sieve_limit)
    q, order, deg = m.field.q, unit_group(m).order, m.degree
    work, first, below, last = 0, None, None, None
    for n in degrees:
        if n != last:
            below, last = last, n
            first = n if first is None else first
        if n > floor:
            work += explicit_work(q, order, deg, n)
            if work > MAX_EXPLICIT_WORK.value:
                break
    else:
        return
    if below is None:  # the first degree, alone
        check(MAX_EXPLICIT_WORK, "explicit count of degree %d mod %s"
              % (n, format_poly(m)), explicit_work(q, order, deg, n),
              "degree", lambda t: explicit_work(q, order, deg, t))
    check(MAX_EXPLICIT_WORK, "explicit counts mod %s from degree %d to %d"
          % (format_poly(m), first, n), work, "top degree", top=below)


def run_counts(m, degrees, *, monic=True, sieve_limit=None):
    """(N, (counts, source)) for every N in degrees, in order: the count of
    degree-N irreducibles in every unit class mod m, one list in canonical
    class order (that of unit_group(m).units), and its engine, the
    sieve for N <= sieve_limit (default min(default_cutoff(q), 12)), else
    one run of the explicit counter, made on first read.  The one place that
    chooses the engine; check_run_work prices the run first, a range lazily.

    monic=False counts all irreducibles with a nonzero leading coefficient.
    f -> lc(f)^-1 f maps the lc = lam ones bijectively onto the monic ones
    and class c onto lam^-1 c, so pi~(N; m, c) = sum_lam pi(N; m, lam^-1 c),
    a sum over the scalar multiples of c: one gather-sum through the unit
    group's scalar_index."""
    if not isinstance(degrees, range):
        degrees = list(degrees)
    check_run_work(m, degrees, sieve_limit)
    floor = _sieve_limit(m, sieve_limit)

    def run():
        G = None if monic else unit_group(m)
        # reads left per explicit degree: the last read frees its counts
        reads = Counter(n for n in degrees if n > floor)
        found = explicit_counter(m).run(reads) if reads else {}
        for n in degrees:
            if n > floor:
                reads[n] -= 1
                out = found[n] if reads[n] else found.pop(n)
                source = "explicit"
            else:
                out, source = class_counts(m, n), "sieve"
            if not monic:
                # object entries keep counts past int64 exact
                out = np.array(out, dtype=object)[G.scalar_index].sum(
                    axis=0).tolist()
            yield n, (out, source)
    return run()


@dataclass
class ExplicitCount:
    modulus: Poly
    degree: int
    counts: dict            # Poly -> int, canonical class order
    breakdown: dict | None  # (class literal, d) -> {chi label: CycloNum json}


class ExplicitCounter:
    """Caches the per-modulus data across degrees: unit group, characters,
    their values V[chi, a] (chi(a) = zeta_E^V), the stack of split primes
    with the L-coefficients on each, the Ztilde raw sums of the --breakdown
    audit and, on first use, the L-polynomials in Q(zeta_E).  V is one
    product over the group's log grid.  Safe to share between threads."""

    def __init__(self, m):
        if m.degree < 1:
            raise UsageError("modulus must have degree >= 1")
        self.modulus = m
        self.field = m.field
        G = self.group = unit_group(m)
        self.E = G.exponent
        self.factorization = factorize(m)
        self.chars = all_characters(G)
        # chars[ci]'s exponents are the logs of units[unit_at[ci]]
        weights = G.exponent // np.array(G.gen_orders, dtype=np.int64)
        self._values = ((G.dlog_array[G.unit_at] * weights)
                        @ G.dlog_array.T % self.E).astype(np.int32)
        self._lock = threading.RLock()
        # (ell (P, 1), powers (P, E): omega^e mod l, coeffs (deg m - 1, P,
        # M'): a_1, a_2, .. of every L-polynomial)
        self._stack = self._new_rows(0)
        self._lpolys = None
        self._raw = {}

    def s(self, n):
        return s_value(self.factorization, n)

    def raw_zsum(self, d):
        """S(d)[a_idx][chi_idx] = sum_{b^d = a} chi(b)^-1 (integer CycloNums),
        one tally of (index of b^d, chi, -V[chi, b] mod E) over every
        (chi, b); Ztilde(d) = (mu(d)/M') * S(d)."""
        raw = self._raw.get(d)
        if raw is None:
            G, E = self.group, self.E
            tallies = np.zeros((G.order, G.order, E), dtype=np.int32)
            np.add.at(tallies, (G.power_index(d)[None, :],
                                np.arange(G.order)[:, None],
                                -self._values % E), 1)
            raw = self._raw.setdefault(d, [
                [CycloNum.from_zeta_powers(E, t) for t in row.tolist()]
                for row in tallies])
        return raw

    @property
    def lpolys(self):
        """L-polynomials in Q(zeta_E), None for the trivial character, built
        on first use."""
        with self._lock:
            if self._lpolys is None:
                self._lpolys = [None] + [l_polynomial(self.modulus, chi)
                                         for chi in self.chars[1:]]
            return self._lpolys

    def _new_rows(self, P):
        """The stack over the first P split primes; each L-polynomial must have
        a_0 = 1 and a vanishing degree-M character sum mod every prime."""
        ell, omega = np.array([split_prime(self.E, i) for i in range(P)],
                              dtype=np.int64).reshape(P, 2).T[..., None]
        powers = np.ones((P, self.E), dtype=np.int64)
        for e in range(1, self.E):
            powers[:, e:e + 1] = powers[:, e - 1:e] * omega % ell
        classes = self.group.monic_classes
        sums = np.zeros((len(classes), P, self.group.order), dtype=np.int64)
        for rows, table in _gathered(powers, self._values):
            for n, ix in enumerate(classes):
                sums[n, :, rows] = table[..., ix].sum(axis=-1)
        sums %= ell
        bad = np.argwhere((sums[0, :, 1:] != 1) | (sums[-1, :, 1:] != 0))
        if len(bad):
            j, ci = bad[0]
            raise IntegrityError(
                "mod the prime %d: a_0 != 1 or the degree-%d character sum "
                "does not vanish for %r"
                % (ell[j, 0], len(classes) - 1, self.chars[ci + 1]))
        sums[:, :, 0] = 0
        return ell, powers, sums[1:-1]

    def _rows(self, bound):
        """The first k + 1 rows, the product of the first k past 2 bound."""
        k, product = 0, 1
        while product <= 2 * bound:
            product *= split_prime(self.E, k)[0]
            k += 1
        with self._lock:
            if len(self._stack[0]) <= k:
                self._stack = self._new_rows(k + 1)
            ell, powers, coeffs = self._stack
        return ell[:k + 1], powers[:k + 1], coeffs[:, :k + 1]

    def count(self, degree, breakdown=False):
        if degree < 1:
            raise UsageError("degree must be >= 1")
        m, G = self.modulus, self.group
        check_run_work(m, [degree], 0)  # priced as a run of one
        if breakdown:
            # after the run's limit, which keeps the degree small enough to
            # factor by trial division; not monotone in N, so no largest N
            check(MAX_EXACT_WORK, "--breakdown of degree %d mod %s (unit "
                  "group of order %d)" % (degree, format_poly(m), G.order),
                  breakdown_work(self.field.q, G.order, self.E, m.degree,
                                 degree))
        counts = self.run([degree])[degree]
        audit = self._audit(degree, counts) if breakdown else None
        return ExplicitCount(self.modulus, degree,
                             dict(zip(G.units, counts)), audit)

    def run(self, degrees):
        """{N: counts in canonical class order} for every N in degrees
        (N >= 1 within the work limit, as count() and run_counts check),
        each on the rows its bound needs.  One Newton walk to the largest N
        adds each p_n to the Mobius sums of the N with N/n squarefree; one
        gather of omega^V serves every N."""
        G, q = self.group, self.field.q
        bounds = {N: N * G.order * q ** N for N in degrees}
        ell, powers, _coeffs = rows = self._rows(max(bounds.values()))
        # X[N][:, chi] = N A_conj(chi)(N) mod l, summing psi(chi^-k, N/k) and
        # reduced where read; then N M' pi(N; a) = sum_chi chi(a) X[N][:, chi]
        X, terms = {}, {}
        for N, bound in bounds.items():
            X[N] = np.zeros((len(self._rows(bound)[0]), G.order), np.int64)
            for k in filter(mobius, divisors(N)):
                terms.setdefault(N // k, []).append((N, k))
        for n, p in enumerate(_newton(rows, max(bounds)), 1):
            if n in terms:
                psi = -p % ell
                s = self.s(n)
                psi[:, 0] = [(pow(q, n, l) - s) % l
                             for l in ell.ravel().tolist()]
                for N, k in terms[n]:
                    x = X[N]
                    x += mobius(k) * psi[:len(x), G.character_power_index(-k)]
        sums = dict.fromkeys(X, 0)
        for chis, table in _gathered(powers, self._values):
            for N, x in X.items():
                sums[N] = sums[N] + np.einsum(
                    "pc,pca->pa", x[:, chis] % ell[:len(x)], table[:len(x)])
        for N, t in sums.items():  # in place: frees each array in turn
            sums[N] = self._checked(N, t, ell[:len(t)])
        return sums

    def _checked(self, degree, totals, ell):
        """The counts of degree N in canonical class order by the CRT from
        N M' pi(N; a) mod ell."""
        G, scale = self.group, degree * self.group.order
        m = format_poly(self.modulus)

        def named(i):  # the count of class i, named where a check fails
            return "explicit count pi(%d; %s, %s) over %r" % (
                degree, m, format_poly(G.units[i]), self.field)
        counts = []
        for i, (total, agrees) in enumerate(_crt(totals % ell, ell)):
            if not agrees:
                raise IntegrityError(
                    "%s: the redundant prime %d disagrees with the other %d"
                    % (named(i), ell[-1, 0], len(ell) - 1))
            count, rest = divmod(total, scale)
            if rest or total < 0:
                raise IntegrityError("%s = %s is not a nonnegative integer"
                                     % (named(i), Fraction(total, scale)))
            counts.append(count)
        primes = gauss_irreducible_count(self.field.q, degree) - sum(
            1 for p, _e in self.factorization.factors if p.degree == degree)
        total = sum(counts)
        if total != primes:
            raise IntegrityError(
                "explicit counts of degree %d mod %s over %r sum to %d, not "
                "to the %d primes prime to the modulus"
                % (degree, m, self.field, total, primes))
        return counts

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
            n = degree // d
            vals = [self.field.q ** n - self.s(n)] + \
                [L.c(n) for L in self.lpolys[1:]]
            for ai, u in enumerate(G.units):
                terms = [(raw[ai][ci] * scale) * vals[ci]
                         for ci in range(order)]
                for t in terms:
                    sums[ai] = sums[ai] + t
                audit[(format_poly(u), d)] = {
                    chi.label(): t.to_json()
                    for chi, t in zip(self.chars, terms)}
        for u, total, count in zip(G.units, sums, counts):
            if total != degree * count:
                raise IntegrityError(
                    "breakdown of pi(%d; %s, %s) over %r sums to %r, not to "
                    "N*pi" % (degree, format_poly(self.modulus),
                              format_poly(u), self.field, total))
        return audit


_counters = {}


def explicit_counter(m):
    key = (m.field, m.coeffs)
    counter = _counters.get(key)
    if counter is None:
        counter = _counters.setdefault(key, ExplicitCounter(m))
    return counter


def counts(m, degree, **kw):
    """(counts, source) of degree N: a run of one (see run_counts)."""
    return next(run_counts(m, [degree], **kw))[1]


def cumulative_counts(m, max_degree, **kw):
    """(N, (sums, source)) for N = 1..max_degree, as run_counts gives
    counts(m, N, **kw): sums the running sums sum_{n<=N} in canonical class
    order, source the engine of degree N."""
    if max_degree < 1:
        raise UsageError("max degree must be >= 1")
    counted = run_counts(m, range(1, max_degree + 1), **kw)

    def run():
        sums = None
        for n, (found, source) in counted:
            sums = found if sums is None else list(map(add, sums, found))
            yield n, (sums, source)
    return run()


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
    """Exact differences pi(N;m,a) - pi(N;m,b) over a sequence of degrees.
    expected_sign in {-1, 0, 1} flags the degrees whose difference has
    another sign; None flags none."""
    if expected_sign not in (-1, 0, 1, None):
        raise UsageError("expected_sign must be -1, 0, 1 or None, got %r"
                         % (expected_sign,))
    run = run_counts(m, degrees, sieve_limit=0)
    a = class_a % m
    b = class_b % m
    G = unit_group(m)
    if not (G.contains(a) and G.contains(b)):
        raise UsageError("classes must be units mod the modulus")
    ia, ib = G.unit_index[[a.encode(), b.encode()]].tolist()
    rows, violations = [], []
    for N, (found, _source) in run:
        diff = found[ia] - found[ib]
        rows.append((N, found[ia], found[ib], diff))
        if expected_sign not in (None, (diff > 0) - (diff < 0)):
            violations.append(N)
    return BiasReport(modulus=m, class_a=a, class_b=b, rows=rows,
                      violations=violations)
