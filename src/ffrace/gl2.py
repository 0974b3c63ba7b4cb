"""GL2(F_q) slash action on polynomials, modulus stabilizers, and tie
certificates transporting congruence classes by bijection.

B = (a b; c d) acts by (f|_n B)(T) = (cT+d)^n f((aT+b)/(cT+d)) = sum_i f_i
(aT+b)^i (cT+d)^(n-i).  If m|_M B = lam m, M = deg m, lam != 0, then f ->
f|_N B is a bijection on degree-N irreducibles moving class c to c|_N B,
periodic in N with period N0 = the order of cT+d mod m.  The search finds
every such B at once: GL2(F_q) is one entry array, and each Horner step
multiplies every row by a linear polynomial in F_q table lookups.

A certificate's class map c -> c|_n B = sum_i c_i W_i(n) mod m, W_i(n) =
(aT+b)^i (cT+d)^(n-i) mod m, is F_p-linear: every class's image is one
product mod p in the unit group's ResidueRing, and W(e + N0) == W(e) proves
the period exactly.  Drawn classes are checked against the rational form,
(cT+d)^n c(mu) mod m with mu = (aT+b)(cT+d)^(N0-1) mod m.
"""

import heapq
import random
from dataclasses import dataclass
from math import gcd

import numpy as np

from .characters import unit_group
from .errors import IntegrityError, UsageError
from .explicit import check_run_work, run_counts
from .field import field_tables
from .limits import MAX_RESIDUE, MAX_STABILIZER_Q, check
from .polyring import Poly, format_poly


@dataclass(frozen=True)
class Mat2:
    field: object
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        F = self.field
        if any(not 0 <= x < F.q for x in (self.a, self.b, self.c, self.d)):
            raise UsageError("matrix entries must be field elements 0..q-1")
        if self.det == 0:
            raise UsageError("matrix is singular")

    @property
    def det(self):
        F = self.field
        return F.sub(F.mul(self.a, self.d), F.mul(self.b, self.c))

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def __repr__(self):
        return "[[%d,%d],[%d,%d]]" % self.entries()


def _gl2_entries(field):
    """GL2(F_q) as rows a, b, c, d in lexicographic order."""
    abcd = np.indices((field.q,) * 4, dtype=np.uint8).reshape(4, -1)
    ad, bc = field_tables(field)[1][abcd[[0, 1]], abcd[[3, 2]]]
    return abcd[:, ad != bc].T


def all_invertible(field):
    """GL2(F_q) in lexicographic entry order."""
    return [Mat2(field, *B) for B in _gl2_entries(field).tolist()]


def _slash_rows(field, f, abcd):
    """Coefficient rows of f|_D B, D = len(f) - 1, for each row a, b, c, d of
    abcd, by homogeneous Horner: acc = f_D, then for j = 1..D
    acc <- acc (aT+b) + f_(D-j) (cT+d)^j."""
    add, mul = field_tables(field)
    a, b, c, d = np.asarray(abcd).T[..., None]
    acc, bot = np.zeros((2, len(a), len(f)), dtype=np.int64)
    acc[:, 0], bot[:, 0] = f[-1], 1

    def times(x, u, v):  # x (uT + v), where x_D = 0 as deg x < D
        out = mul[v, x]
        out[:, 1:] = add[out[:, 1:], mul[u, x[:, :-1]]]
        return out
    for j in range(1, len(f)):
        bot = times(bot, c, d)
        acc = add[times(acc, a, b), mul[f[-1 - j], bot]]
    return acc


def slash_action(f, n, B):
    """f|_n B = sum_i f_i (aT+b)^i (cT+d)^(n-i); requires n >= deg f.  The
    search's kernel at weight deg f, times (cT+d)^(n - deg f) by squaring."""
    if n < f.degree:
        raise UsageError("weight n=%d below deg f=%d" % (n, f.degree))
    g = _slash_rows(f.field, f.coeffs or (0,), [B.entries()])[0].tolist()
    return Poly(f.field, g) * Poly(f.field, (B.d, B.c)) ** (n + 1 - len(g))


def stabilizer_search(m):
    """All (B, lam) with g = m|_M B = lam m (lam = g_M / m_M), scanning all of
    GL2(F_q) in deterministic order, in blocks of about 2^14 coefficients."""
    if m.degree < 1:
        raise UsageError("modulus must have degree >= 1")
    F = m.field
    check(MAX_STABILIZER_Q, "stabilizer search over GL2(%r)" % F, F.q)
    mul, mats, out = field_tables(F)[1], _gl2_entries(F), []
    for block in np.array_split(mats, 1 + len(mats) * m.degree // 2 ** 14):
        g = _slash_rows(F, m.coeffs, block)
        # lam = 0 would need g = 0, which no invertible B gives
        lam = mul[g[:, -1], F.inv(m.lc)]
        ok = (g == mul[lam[:, None], m.coeffs]).all(1)
        out += [(Mat2(F, *B), x) for B, x in
                zip(block[ok].tolist(), lam[ok].tolist())]
    return out


def stabilizer_period(m, B):
    """N0 = the order of cT+d mod m, the period in N of B's class map."""
    G = unit_group(m)
    bot = Poly(m.field, (B.d, B.c)) % m
    if not G.contains(bot):
        raise IntegrityError("cT+d is not a unit mod m for a stabilizer")
    return G.order_of(bot)


@dataclass
class TieCertificate:
    """A stabilizing matrix plus the class permutation it induces at degrees
    N = residue (mod period).  monic_certified=False means only the
    not-necessarily-monic counts are certified equal."""
    modulus: Poly
    matrix: Mat2
    lam: int
    period: int                 # N0 = order of cT+d mod m
    residue_requested: int
    residue: int                # lifted to >= deg(m) - 1 so classes act
    orbit_map: dict             # Poly -> Poly on unit classes
    orbits: tuple               # tuple of class-tuples
    monic_certified: bool
    justification: str          # "q=2" | "gamma=0,ord(alpha)|gcd(e,N0)" | "none"

    def to_json(self):
        return {
            "modulus": format_poly(self.modulus),
            "field": repr(self.modulus.field),
            "matrix": list(self.matrix.entries()),
            "lambda": self.lam,
            "period": self.period,
            "residue": self.residue,
            "residue_requested": self.residue_requested,
            "orbit_map": {format_poly(c): format_poly(i)
                          for c, i in self.orbit_map.items()},
            "orbits": [[format_poly(c) for c in orb] for orb in self.orbits],
            "monic_certified": self.monic_certified,
            "justification": self.justification,
        }


def certify_ties(m, B, lam, e, rng=None):
    """Build the certificate for residue class e of the degree.

    e below deg(m)-1 is lifted by multiples of the period (the class map only
    depends on e mod N0, but c|_e B needs e >= deg c for every class
    representative).  Every class of a unit group of order <= 64, or 32
    drawn by rng.sample otherwise, is checked against the rational form of
    the slash action."""
    if e < 0:
        raise UsageError("residue must be >= 0")
    where = "%r mod %s over %r" % (B, format_poly(m), m.field)
    check(MAX_RESIDUE, "certificate of " + where, e)
    M = m.degree
    if slash_action(m, M, B) != m.scale(lam):
        raise UsageError("(B, lambda) does not stabilize the modulus")
    G = unit_group(m)
    period = stabilizer_period(m, B)
    e_used = e
    while e_used < M - 1:
        e_used += period
    # equal basis images at e and e + N0 prove the period for every class
    factors = _linear_factors(m, B)
    basis, later = _basis_images(factors, M, (e_used, e_used + period))
    if not np.array_equal(basis, later):
        raise IntegrityError("period claim failed for %s at residue %d"
                             % (where, e_used))
    # the image of every class at once: the class map is F_p-linear on
    # digit rows, b_s = alpha^j T^i -> alpha^j W_i (s = k i + j)
    ring, F = G.ring, m.field
    i, j = np.divmod(np.arange(ring.n), F.k)
    by_map = ring.mul(ring.digits(F.p ** j), ring.digits(basis)[i])
    # the units are sorted by encoding, so these rows are in unit order
    units = ring.digits(np.flatnonzero(G.unit_index >= 0))
    images = ring.codes(units @ by_map % ring.p)
    perm = G.unit_index[images]
    off = np.flatnonzero(perm < 0)
    if len(off):
        raise IntegrityError("class map of %s left the unit classes at %s"
                             % (where, format_poly(G.units[off[0]])))
    if np.bincount(perm, minlength=G.order).max() > 1:
        raise IntegrityError("class map of %s is not a permutation" % where)
    # the benchmark draws its residues from the same rng, so its inputs
    # depend on this draw: one rng.sample above order 64, nothing below
    drawn = range(G.order)
    if G.order > 64:
        rng = rng or random.Random(0)
        drawn = rng.sample(drawn, 32)
    drawn = np.array(drawn)
    e0 = M - 1 + (e - (M - 1)) % period
    wrong = np.flatnonzero(_rational_slash(units[drawn], e0, factors, m,
                                           period) != images[drawn])
    if len(wrong):
        raise IntegrityError("linear class map of %s disagrees with the "
                             "slash action at %s"
                             % (where, format_poly(G.units[drawn[wrong[0]]])))
    perm = perm.tolist()
    orbit_map = {c: G.units[j] for c, j in zip(G.units, perm)}
    orbits = tuple(tuple(G.units[j] for j in cyc) for cyc in _cycles(perm))
    if F.q == 2:
        monic, why = True, "q=2"
    elif B.c == 0 and gcd(e_used, period) % m.field.mult_order(B.a) == 0:
        monic, why = True, "gamma=0,ord(alpha)|gcd(e,N0)"
    else:
        monic, why = False, "none"
    return TieCertificate(modulus=m, matrix=B, lam=lam, period=period,
                          residue_requested=e, residue=e_used,
                          orbit_map=orbit_map, orbits=orbits,
                          monic_certified=monic, justification=why)


def _linear_factors(m, B):
    """The unit group's ring, and aT+b and cT+d mod m as its digit rows."""
    ring = unit_group(m).ring
    return [ring] + [ring.digits((Poly(m.field, f) % m).encode())
                     for f in ((B.b, B.a), (B.d, B.c))]


def _basis_images(factors, M, ns):
    """Encodings of W_i(n) = (aT+b)^i (cT+d)^(n-i) mod m for i < M = deg m,
    one row per n in ns (each n >= M - 1, each from its own power of cT+d)."""
    ring, top, bot = factors
    tops = ring.power_rows(ring.digits([1]), top, M)
    return [ring.codes(ring.mul(tops, ring.power_rows(
        ring.pow(bot, n - M + 1), bot, M)[::-1])) for n in ns]


def _rational_slash(X, n, factors, m, period):
    """Encodings of c|_n B mod m for the classes c with digit rows X in the
    unit group's ring, in the rational form of the definition: (cT+d)^n
    c(mu) mod m with mu = (aT+b) (cT+d)^(N0-1), N0 = period, as the period
    check proves (cT+d)^N0 = 1 mod m.  c(mu) is Horner's rule on every row
    at once, each step one matrix of multiplication by mu."""
    ring, top, bot = factors
    k, mu = m.field.k, ring.mul(top, ring.pow(bot, period - 1))
    acc = np.zeros_like(X)
    for i in range(m.degree - 1, -1, -1):
        acc = ring.times(acc, mu)
        acc[:, :k] = (acc[:, :k] + X[:, k * i:k * i + k]) % ring.p
    return ring.codes(ring.times(acc, ring.pow(bot, n)))


def _cycles(perm):
    """Cycles of a permutation of range(len(perm)), each from its least
    element, in order of that element."""
    seen, out = set(), []
    for start in range(len(perm)):
        if start not in seen:
            cyc = [start]
            while perm[cyc[-1]] != start:
                cyc.append(perm[cyc[-1]])
            seen.update(cyc)
            out.append(cyc)
    return out


def certificate_degrees(cert, n_max):
    """The degrees 2 <= N <= n_max of the certificate's residue class (the
    bijection needs deg >= 2)."""
    return range(2 + (cert.residue - 2) % cert.period, n_max + 1,
                 cert.period)


def verify_certificate_empirically(cert, n_max, sieve_limit=None):
    return first_failed_certificate([cert], n_max, sieve_limit) is None


def first_failed_certificate(certs, n_max, sieve_limit=None):
    """The first of certs, all mod one modulus, whose empirical check to
    n_max fails, or None.  Their runs are priced together first: each is
    within the run limit where all of them may not be.  Then each distinct
    degree is counted once, in one run of monic and one of non-monic
    counts (to run_counts' sieve_limit), and every certificate reads those:
    each degree's counts as one array in canonical class order (int64, or
    object past it), each certificate's class map as the unit indices of
    its (class, image) pairs."""
    if not certs:
        return None
    m = certs[0].modulus
    check_run_work(m, heapq.merge(
        *(certificate_degrees(c, n_max) for c in certs)), sieve_limit)
    found = {}
    for monic in {c.monic_certified for c in certs}:
        degrees = sorted({N for c in certs if c.monic_certified == monic
                          for N in certificate_degrees(c, n_max)})
        found[monic] = {N: np.array(counts)
                        for N, (counts, _source) in run_counts(
                            m, degrees, monic=monic, sieve_limit=sieve_limit)}
    index = unit_group(m).unit_index

    def fails(c):
        classes, images = index[[[x.encode() for x in c.orbit_map],
                                 [y.encode() for y in c.orbit_map.values()]]]
        counts = found[c.monic_certified]
        return any((counts[N][classes] != counts[N][images]).any()
                   for N in certificate_degrees(c, n_max))
    return next((c for c in certs if fails(c)), None)
