"""Correctness checks for the benchmark, computed apart from ffrace.

Every check takes plain data (ints, tuples, lists, dicts) and returns a list
of failure messages; an empty list means the answer passed.  The number
theory here (Mobius function, Gauss counts, Phi(m), finite-field scaling,
complex embeddings of cyclotomic coefficients) is the benchmark's own, so a
bug shared by the program and its checks would have to be written twice.

A class is a coefficient tuple (T^0 first), as ffrace's Poly.coeffs, or a
literal such as "2*T^2+T+1" as the CLI prints it.
"""

import cmath
import math

import numpy as np


# --- integer number theory -------------------------------------------------

def mobius(n):
    out = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


def gauss_count(q, n):
    """Monic irreducibles of degree n over F_q:
    (1/n) sum_{d|n} mu(d) q^(n/d)."""
    total = sum(mobius(d) * q ** (n // d)
                for d in range(1, n + 1) if n % d == 0)
    if total % n:
        raise ValueError("Gauss sum not divisible by n")
    return total // n


def unit_group_order(q, factors):
    """Phi(m) = prod over P^e || m of (q^deg P - 1) q^(deg P (e-1)).

    factors lists (deg P, e) for the distinct irreducible factors P of m."""
    out = 1
    for d, e in factors:
        out *= (q ** d - 1) * q ** (d * (e - 1))
    return out


def excluded_count(factors, n):
    """Irreducible factors of m of degree n: they are primes of degree n that
    lie in no unit class."""
    return sum(1 for d, _e in factors if d == n)


# --- F_q elements and class labels ------------------------------------------

def gf_mul(q, a, b):
    """Product in F_q with ffrace's element encoding: residues mod p for a
    prime q; for q = 4, bit vectors over F_2 reduced mod x^2 + x + 1."""
    if q == 4:
        r = 0
        for i in range(2):
            if (b >> i) & 1:
                r ^= a << i
        if r & 4:
            r ^= 0b111
        return r
    return a * b % q


def gf_inv(q, a):
    return next(b for b in range(1, q) if gf_mul(q, a, b) == 1)


def scale(q, cls, lam):
    """lam * c for a class c; reduced mod m already, since lam is a unit."""
    return tuple(gf_mul(q, lam, c) for c in cls)


def parse_label(text):
    """Inverse of the CLI's literal format: '2*T^2+T+1' -> (1, 1, 2)."""
    coeffs = {}
    for term in text.split("+"):
        head, t, tail = term.partition("T")
        if not t:
            coeffs[0] = int(term)
            continue
        c = int(head.rstrip("*")) if head else 1
        coeffs[int(tail[1:]) if tail else 1] = c
    deg = max(coeffs)
    return tuple(coeffs.get(i, 0) for i in range(deg + 1))


def nonmonic_counts(q, counts):
    """Counts of all nonzero-leading-coefficient irreducibles per class: a
    polynomial lam*f with f monic lies in class c exactly when f lies in
    class lam^-1 c."""
    return {c: sum(counts[scale(q, c, gf_inv(q, lam))] for lam in range(1, q))
            for c in counts}


# --- generic checks ----------------------------------------------------------

def check_counts(q, factors, degree, counts):
    """counts maps class -> pi(N; m, class) for one degree: every count is a
    nonnegative integer, there are Phi(m) classes, and the classes plus the
    irreducible factors of m of that degree hold every monic irreducible."""
    fails = []
    bad = [c for c, v in counts.items()
           if not isinstance(v, int) or isinstance(v, bool) or v < 0]
    if bad:
        fails.append("N=%d: counts not nonnegative integers at %s"
                     % (degree, bad[:3]))
        return fails
    if len(counts) != unit_group_order(q, factors):
        fails.append("N=%d: %d classes, Phi(m) = %d"
                     % (degree, len(counts), unit_group_order(q, factors)))
    total = sum(counts.values()) + excluded_count(factors, degree)
    if total != gauss_count(q, degree):
        fails.append("N=%d: classes hold %d primes, Gauss count is %d"
                     % (degree, total, gauss_count(q, degree)))
    return fails


def check_certificate(q, cert, counts_by_degree):
    """Orbit classes of a certificate have equal counts at every computed
    degree N >= 2 with N = residue (mod period): monic counts when the
    certificate is monic-certified, all-leading-coefficient counts otherwise.
    Returns (failures, number of degrees checked)."""
    fails = []
    checked = 0
    for n, counts in sorted(counts_by_degree.items()):
        if n < 2 or (n - cert["residue"]) % cert["period"]:
            continue
        checked += 1
        vals = counts if cert["monic"] else nonmonic_counts(q, counts)
        for orbit in cert["orbits"]:
            seen = {vals[tuple(c)] for c in orbit}
            if len(seen) > 1:
                fails.append("certificate %s: orbit %s has counts %s at N=%d"
                             % (cert["matrix"], orbit, sorted(seen), n))
    return fails, checked


def check_lpoly(q, deg_m, E, coeffs):
    """coeffs[k] = (nums, den) of a_k in the power basis of Q(zeta_E):
    a_0 = 1, degree <= deg m - 1, and every inverse zero has absolute value
    1 or sqrt(q)."""
    fails = []
    nums0, den0 = coeffs[0]
    if den0 != 1 or nums0[0] != 1 or any(nums0[1:]):
        fails.append("a_0 != 1")
    if len(coeffs) - 1 > deg_m - 1:
        fails.append("degree %d exceeds deg m - 1 = %d"
                     % (len(coeffs) - 1, deg_m - 1))
    zeta = cmath.exp(2j * cmath.pi / E)
    values = [sum(c * zeta ** i for i, c in enumerate(nums)) / den
              for nums, den in coeffs]
    if len(values) > 1:
        for u in np.roots(values[::-1]):
            r = abs(1 / u)
            if abs(r - 1) > 1e-6 and abs(r - math.sqrt(q)) > 1e-6:
                fails.append("inverse zero of modulus %.9f" % r)
    return fails
