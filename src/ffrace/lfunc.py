"""Dirichlet L-polynomials, their inverse-zero power sums via Newton's
identities, and exact Galois conjugate-relation discovery among inverse zeros.

Everything stays in Q(zeta_E); complex embeddings appear only in the Weil
|alpha| diagnostic.
"""

import threading
from dataclasses import dataclass
from math import gcd

import numpy as np

from .characters import unit_group
from .cyclo import CycloNum
from .errors import IntegrityError, UsageError
from .polyring import format_poly

MAX_RELATIONS_EXPONENT = 128  # the scale relations supports (E = 127: 3-4 s)


class LPolynomial:
    """L(u, chi) = sum a_n u^n with a_0 = 1, degree d <= deg(m) - 1 for
    nontrivial chi.  Coefficients are algebraic integers in Q(zeta_E)."""

    def __init__(self, chi, coeffs):
        self.chi = chi
        cs = list(coeffs)
        while len(cs) > 1 and cs[-1].is_zero:
            cs.pop()
        self.coeffs = tuple(cs)
        self._psums = []  # p_n = sum_j alpha_j^n, cached from n=1
        self._lock = threading.Lock()  # extends _psums; reads need none

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def power_sum(self, n):
        """p_n via the Newton recurrence p_n = -(n a_n + sum a_i p_(n-i))."""
        if n < 1:
            raise UsageError("power sums start at n = 1")
        if n > len(self._psums):
            self._extend(n)
        return self._psums[n - 1]

    def _extend(self, n):
        E = self.coeffs[0].E
        d = self.degree
        with self._lock:
            while len(self._psums) < n:
                k = len(self._psums) + 1
                acc = (self.coeffs[k] * k) if k <= d \
                    else CycloNum.from_rational(0, E)
                for i in range(1, min(k - 1, d) + 1):
                    if not self.coeffs[i].is_zero:
                        acc = acc + self.coeffs[i] * self._psums[k - 1 - i]
                self._psums.append(-acc)

    def c(self, n):
        """c_n(chi) = -p_n."""
        return -self.power_sum(n)

    def strip_unit_roots(self):
        """(k, stripped LPolynomial): exact division by (1-u)^k where k is the
        multiplicity of the inverse zero alpha = 1."""
        E = self.coeffs[0].E
        cs = list(self.coeffs)
        k = 0
        while len(cs) > 1:
            total = cs[0]
            for c in cs[1:]:
                total = total + c
            if not total.is_zero:
                break
            # exact: L = (1-u) Q with q_j = sum_{i<=j} a_i (the top partial
            # sum q_{d-1} = -a_d holds because the full sum vanishes)
            quo = []
            run = CycloNum.from_rational(0, E)
            for c in cs[:-1]:
                run = run + c
                quo.append(run)
            cs = quo
            k += 1
        return k, LPolynomial(self.chi, cs)

    def inverse_roots_numeric(self):
        """Complex inverse zeros alpha_j (floating; diagnostics only)."""
        if self.degree == 0:
            return []
        cs = [c.embed() for c in self.coeffs]
        u_roots = np.roots(list(reversed(cs)))
        return [1.0 / u for u in u_roots]


def l_polynomial(m, chi):
    """Coefficients a_n = sum over monic degree-n f coprime to m of chi(f),
    n = 0..deg(m)-1.  The trivial character is rejected: its data enters the
    explicit formula through q^n - s_{m,n} instead."""
    if chi.is_trivial:
        raise UsageError("the trivial character has no L-polynomial here; "
                         "its term is q^n - s_{m,n}")
    G = chi.group
    if G.modulus != m:
        raise UsageError("character modulus mismatch")
    E = G.exponent
    # sums[n] = sum of chi(f) over monic f of degree n, n = 0..deg(m), as
    # tallies of chi(f) = zeta_E^v over v
    values = chi.value_exponents()
    sums = [CycloNum.from_zeta_powers(
                E, np.bincount(values[ix], minlength=E).tolist())
            for ix in G.monic_classes]
    coeffs = sums[:-1]
    if coeffs[0] != 1:
        raise IntegrityError("a_0 != 1 for %r" % (chi,))
    # completeness: the full degree-M character sum must vanish
    if not sums[-1].is_zero:
        raise IntegrityError("degree-%d character sum does not vanish for %r"
                             % (m.degree, chi))
    return LPolynomial(chi, coeffs)


def power_sums(lpoly, n_max):
    """[c_1(chi), ..., c_n_max(chi)], exact."""
    if n_max < 1:
        raise UsageError("horizon must be >= 1")
    return [lpoly.c(n) for n in range(1, n_max + 1)]


@dataclass(frozen=True)
class ConjugateRelation:
    """sigma_l(inverse-zero multiset of chi) = zeta_E^t * (multiset of other).
    stripped=True means copies of the inverse zero 1 were removed first."""
    chi: object
    other: object
    l: int
    t: int
    stripped: bool
    size: int

    def to_json(self):
        return {"chi": self.chi.label(), "other": self.other.label(),
                "l": self.l, "t": self.t, "stripped": self.stripped,
                "size": self.size}


def find_conjugate_relations(m):
    """All (chi, chi', l, t) with sigma_l carrying the inverse-zero multiset
    of chi onto zeta_E^t times that of chi', tested exactly through the power
    sums p_1..p_d (which determine a size-d multiset).  Searched both on the
    full multisets and with unit roots stripped; empty multisets are skipped
    (every t would match vacuously).

    L-polynomials and power sums are the explicit counter's, transported from
    orbit representatives.  As L(u, chi^l) = sigma_l L(u, chi), the sigma_l
    image of chi's power sums is chi^l's: one lookup among the twists."""
    from .explicit import explicit_counter  # explicit imports this module
    E = unit_group(m).exponent
    if E > MAX_RELATIONS_EXPONENT:
        raise UsageError("relations mod %s: unit-group exponent %d; the "
                         "supported limit is %d"
                         % (format_poly(m), E, MAX_RELATIONS_EXPONENT))
    counter = explicit_counter(m)
    chars = counter.chars
    variants = {}  # (ci, stripped) -> p_1..p_d of chars[ci], d >= 1
    for ci, (r, l) in enumerate(counter.orbit[1:], 1):
        L = counter.lpolys[r]
        k = L.strip_unit_roots()[0]  # sigma_l fixes the inverse zero 1
        psums = [L.power_sum(n).galois(l) for n in range(1, L.degree + 1)]
        if psums:
            variants[ci, False] = psums
        if k and L.degree > k:
            variants[ci, True] = [p - k for p in psums[:L.degree - k]]

    def coords(psums):
        return tuple((p.nums, p.den) for p in psums)

    # (stripped, coords of (zeta_E^(tn) p_n(chi'))_n) -> [(chi', t)] in
    # (chi', t) order; only twists equal to some chi's power sums are kept
    matches = {(flag, coords(ps)): [] for (_ci, flag), ps in variants.items()}
    for (ci, flag), psums in variants.items():
        twists = [p.zeta_multiples() for p in psums]
        for t in range(E):
            twisted = coords(tw[t * n % E] for n, tw in enumerate(twists, 1))
            found = matches.get((flag, twisted))
            if found is not None:
                found.append((ci, t))
    units = [l for l in range(1, E) if gcd(l, E) == 1]
    return [ConjugateRelation(chi=chars[ci], other=chars[cj], l=l, t=t,
                              stripped=flag, size=len(psums))
            for (ci, flag), psums in variants.items() for l in units
            for cj, t in matches[flag, coords(
                variants[counter._index[(chars[ci] ** l).exps], flag])]]


def weil_bound_violations(lpoly, tol=1e-9):
    """Inverse zeros whose modulus is neither 1 nor sqrt(q) within tol."""
    q = lpoly.chi.group.field.q
    bad = []
    for alpha in lpoly.inverse_roots_numeric():
        r = abs(alpha)
        if abs(r - 1.0) > tol and abs(r - q ** 0.5) > tol:
            bad.append(alpha)
    return bad
