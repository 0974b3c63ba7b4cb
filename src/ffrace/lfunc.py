"""Dirichlet L-polynomials, their inverse-zero power sums via Newton's
identities, and exact Galois conjugate-relation discovery among inverse zeros.

L-polynomials and power sums are exact in Q(zeta_E); the relation search
works modulo one prime that splits completely there, where every test is
exact by a size bound.  Complex embeddings appear only in the Weil |alpha|
diagnostic.
"""

import threading
from dataclasses import dataclass
from math import gcd, log2

import numpy as np

from .characters import unit_group
from .cyclo import CycloNum
from .errors import IntegrityError, UsageError
from .limits import MAX_RELATIONS_EXPONENT, check
from .numth import euler_phi
from .polyring import format_poly

# How far |alpha| may sit from 1 or sqrt(q) in the floating Weil diagnostic.
WEIL_TOL = 1e-9


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


def power_sum_work(q, E, d, n):
    """Cost units (see limits.MAX_EXACT_WORK) of the exact power sums
    p_1..p_n of an L-polynomial of degree d over F_q in Q(zeta_E): n Newton
    steps, each d products of phi(E)^2 coordinate pairs writing phi(E)
    coordinates of at most n log2(q) / 2 bits."""
    phi = euler_phi(E)
    return n * phi * (d * phi + n * log2(q) / 16)


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
    of chi onto zeta_E^t times that of chi', tested through the power sums
    p_1..p_d (which determine a size-d multiset).  Searched both on the full
    multisets and with unit roots stripped; empty multisets are skipped
    (every t would match vacuously).

    Everything is computed modulo the explicit counter's first split prime
    ell = 1 mod E, where Z[zeta_E]/ell = F_ell^phi(E) through
    zeta_E -> omega^u, u a unit mod E.  A value of chi at omega^u is the
    value of chi^u at omega, so the images of an algebraic integer of chi
    are the counter's row at omega gathered over the chi^u; as
    L(u, chi^l) = sigma_l L(u, chi), the sigma_l image of chi's power sums
    is chi^l's.  An algebraic integer in ell Z[zeta_E] whose conjugates all
    lie below ell is 0.  The tested differences of power sums (at most
    2 d q^(d/2)), the L-coefficients and L(1) (at most 2^d q^(d/2)) stay
    below ell when ell^2 > 4^(d+1) q^d, d = deg m - 1, so every test is
    exact."""
    from .explicit import _newton, explicit_counter  # explicit imports this
    E = unit_group(m).exponent
    check(MAX_RELATIONS_EXPONENT, "relations mod %s" % format_poly(m), E)
    counter = explicit_counter(m)
    chars = counter.chars
    q, d = m.field.q, m.degree - 1
    rows = counter._rows(0)  # the first prime alone
    ell, powers, coeffs = int(rows[0][0, 0]), rows[1][0], rows[2][:, 0]
    if ell * ell <= 4 ** (d + 1) * q ** d:
        raise IntegrityError(
            "relations mod %s: the split prime %d is below the bound "
            "2^(d+1) q^(d/2) on the conjugates it must tell from 0, d = %d"
            % (format_poly(m), ell, d))
    units = [u for u in range(1, E) if gcd(u, E) == 1]
    # conj[j, ci]: the index of chars[ci]^units[j]
    conj = np.array([counter.group.character_power_index(u) for u in units],
                    dtype=np.intp).reshape(len(units), len(chars))
    # a_0..a_d and p_1..p_d of every character at zeta_E -> omega, and the
    # degree and the multiplicity of the inverse zero 1 mod ell there; a
    # coefficient or L(1) is 0 when it is 0 at every conjugate, so the exact
    # degree is the largest over the conjugates and the multiplicity the
    # smallest
    psums = np.array([p[0] for p in _newton(rows, d)],
                     dtype=np.int64).reshape(d, len(chars))
    coeffs = np.concatenate([np.ones((1, len(chars)), np.int64), coeffs])
    degree = d - np.argmax(coeffs[::-1] != 0, axis=0)  # a_0 = 1
    mult = np.zeros(len(chars), dtype=np.int64)
    alive = np.ones(len(chars), dtype=bool)
    for _ in range(d):  # L = (1 - u) Q with q_j = sum_(i <= j) a_i
        alive &= coeffs.sum(axis=0) % ell == 0
        mult += alive
        coeffs = np.cumsum(coeffs, axis=0) % ell
    degree = degree[conj].max(axis=0, initial=0).tolist()
    mult = mult[conj].min(axis=0, initial=d).tolist()
    variants = {}  # (ci, stripped) -> p_n(chars[ci]^u) over (n <= size, u)
    for ci in range(1, len(chars)):
        size, k = degree[ci], mult[ci]
        if size:
            variants[ci, False] = psums[:size, conj[:, ci]]
        if k and size > k:
            variants[ci, True] = (psums[:size - k, conj[:, ci]] - k) % ell

    # (stripped, key of (zeta_E^(tn) p_n(chi'))_n) -> [(chi', t)] in
    # (chi', t) order; only twists equal to some chi's power sums are kept
    keys = {v: ps.tobytes() for v, ps in variants.items()}
    matches = {(flag, key): [] for (_ci, flag), key in keys.items()}
    # zeta_E^(tn) at zeta_E -> omega^u over (t, n, u)
    scales = powers[np.multiply.outer(np.arange(E), np.multiply.outer(
        np.arange(1, d + 1), np.array(units, dtype=np.int64))) % E]
    for (ci, flag), ps in variants.items():
        twists = scales[:, :len(ps)] * ps % ell
        for t, twist in enumerate(twists):
            found = matches.get((flag, twist.tobytes()))
            if found is not None:
                found.append((ci, t))
    return [ConjugateRelation(chi=chars[ci], other=chars[cj], l=l, t=t,
                              stripped=flag, size=len(ps))
            for (ci, flag), ps in variants.items()
            for l, image in zip(units, conj[:, ci].tolist())
            for cj, t in matches[flag, keys[image, flag]]]


def weil_bound_violations(lpoly):
    """Inverse zeros whose modulus is neither 1 nor sqrt(q) within WEIL_TOL."""
    q = lpoly.chi.group.field.q
    bad = []
    for alpha in lpoly.inverse_roots_numeric():
        r = abs(alpha)
        if abs(r - 1.0) > WEIL_TOL and abs(r - q ** 0.5) > WEIL_TOL:
            bad.append(alpha)
    return bad
