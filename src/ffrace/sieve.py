"""Brute-force counting oracle: exact per-congruence-class counts of monic
irreducibles of one degree, by exhaustive enumeration.

Polynomials are enumerated through their integer encodings (base-q digit
vectors).  Composites of degree N are marked as products g*h over irreducible
g of degree <= N/2; products are generated in index space, where adding a
fixed polynomial is a digit-wise mod-q update (plain XOR when q = 2) that
vectorizes.  Residues mod m of the survivors are then reduced vectorized and
tallied per unit class.  Every call cross-checks its total against the
closed-form count of irreducibles.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .characters import unit_group
from .cyclo import CycloNum
from .errors import IntegrityError, UsageError
from .numth import gauss_irreducible_count
from .polyring import Poly, factorize, is_irreducible, enumerate_monic

# Largest degree the sieve is routed to: `count` sieves up to the full cutoff,
# every other caller of explicit.counts up to min(cutoff, 12).
DEFAULT_CUTOFF = {2: 24, 3: 14, 5: 9}
# Hard cap on enumeration size (bitmap of q^N bools).
_MAX_ENUM = 1 << 26
# Cap on the vectorized low-product span (memory/latency tradeoff).
_SPAN_BITS = 18


def default_cutoff(q):
    return DEFAULT_CUTOFF.get(q, max(1, int(24 / math.log2(q))))


def _jmax(q):
    return max(1, int(_SPAN_BITS / math.log2(q)))


def _digit_add(arr, w, p, out=None):
    """Add the constant encoding w to every encoded polynomial in arr, as
    polynomials.  Encodings are base-q digit vectors of F_q coefficients and
    each coefficient is a base-p digit vector of F_p coordinates, so addition
    is carryless digit-wise mod p over the whole base-p expansion (plain XOR
    in characteristic 2)."""
    if out is None:
        out = arr.copy()
    elif out is not arr:
        np.copyto(out, arr)
    if p == 2:
        np.bitwise_xor(out, w, out=out)
        return out
    pi = 1
    while w:
        b = w % p
        w //= p
        if b:
            digit = (out // pi) % p
            out += b * pi
            out -= (p * pi) * (digit >= (p - b))
        pi *= p
    return out


def _span_low_products(g, e_width):
    """Encodings of g*u for every u of degree < e_width."""
    field = g.field
    q = field.q
    if q == 2:
        g_int = g.encode()
        cur = np.zeros(1, dtype=np.int64)
        for j in range(e_width):
            cur = np.concatenate([cur, cur ^ (g_int << j)])
        return cur
    scaled = [g.scale(c).encode() for c in range(q)]
    cur = np.zeros(1, dtype=np.int64)
    for j in range(e_width):
        shift = q ** j
        parts = [cur]
        for c in range(1, q):
            parts.append(_digit_add(cur, scaled[c] * shift, field.p))
        cur = np.concatenate(parts)
    return cur


def _mark_multiples(bitmap, g, degree):
    """Mark g*h for every monic h with deg(g*h) == degree."""
    field = g.field
    q = field.q
    d = g.degree
    e = degree - d
    offset = q ** degree
    J = min(e, _jmax(q))
    span = _span_low_products(g, J)
    if q == 2:
        g_int = g.encode()
        w = g_int << e
        bitmap[(span ^ w) - offset] = True
        for t in range(1, 1 << (e - J)):
            w ^= g_int << (J + (t & -t).bit_length() - 1)
            bitmap[(span ^ w) - offset] = True
    else:
        t_e = Poly.monomial(field, 1, e)
        buf = np.empty_like(span)
        for t in range(q ** (e - J)):
            u_hi = Poly.from_index(field, t).shift(J)
            w = (g * (t_e + u_hi)).encode()
            bitmap[_digit_add(span, w, field.p, out=buf) - offset] = True


@lru_cache(maxsize=64)
def irreducible_indices(field, degree):
    """Sorted encodings of all monic irreducibles of the given degree."""
    if degree < 1:
        raise UsageError("degree must be >= 1")
    q = field.q
    size = q ** degree
    if size > _MAX_ENUM:
        raise UsageError(
            "degree %d over F%d is beyond enumeration scale; "
            "use the explicit formula" % (degree, q))
    bitmap = np.zeros(size, dtype=bool)
    for d in range(1, degree // 2 + 1):
        for g_idx in irreducible_indices(field, d):
            _mark_multiples(bitmap, Poly.from_index(field, int(g_idx)), degree)
    out = np.flatnonzero(~bitmap).astype(np.int64) + size
    out.flags.writeable = False
    if len(out) != gauss_irreducible_count(q, degree):
        raise IntegrityError(
            "irreducible count at degree %d over F%d disagrees with the "
            "Mobius closed form" % (degree, q))
    return out


# (field, modulus coeffs) -> {w: the lookup r -> r (+) w on encoded
# residues}, filled lazily by _residues_mod
_residue_add_tables = {}


def _residues_mod(m, idx, degree):
    """Encodings of f mod m for every encoded f in idx (deg f <= degree).

    Works one base-p digit at a time: bit t = i*k + j of the encoding is the
    x^j-coordinate of the T^i coefficient, contributing that multiple of
    x^j * T^i mod m to the residue."""
    field = m.field
    p, k = field.p, field.k
    qM = field.q ** m.degree
    res = np.zeros(len(idx), dtype=np.int64)
    if p == 2:
        for t in range((degree + 1) * k):
            i, j = divmod(t, k)
            w = (Poly.monomial(field, 1 << j, i) % m).encode()
            if w:
                res ^= w * ((idx >> t) & 1)
        return res
    tables = _residue_add_tables.setdefault((field, m.coeffs), {})
    base = np.arange(qM, dtype=np.int64)
    pi = 1
    for t in range((degree + 1) * k):
        i, j = divmod(t, k)
        digit = (idx // pi) % p
        pi *= p
        for c in range(1, p):
            w = (Poly.monomial(field, (p ** j) * c, i) % m).encode()
            if not w:
                continue
            if w not in tables:
                tables[w] = _digit_add(base, w, p)
            sel = digit == c
            if sel.any():
                res[sel] = tables[w][res[sel]]
    return res


@dataclass
class CountTable:
    """pi(N; m, c) for every unit class c, in canonical class order."""
    modulus: Poly
    degree: int
    counts: dict           # Poly (unit residue) -> int
    excluded: int          # irreducibles of this degree dividing m

    @property
    def total(self):
        return sum(self.counts.values())


def _class_counts(m, degree):
    field = m.field
    idx = irreducible_indices(field, degree)
    res = _residues_mod(m, idx, degree)
    tally = np.bincount(res, minlength=field.q ** m.degree)
    return tally, len(idx)


def sieve_count(m, degree):
    """Exact CountTable by enumerating all monic degree-N polynomials."""
    if degree < 1:
        raise UsageError("degree must be >= 1")
    if m.degree < 1:
        raise UsageError("modulus must have degree >= 1")
    G = unit_group(m)
    tally, n_irred = _class_counts(m, degree)
    counts = {u: int(tally[u.encode()]) for u in G.units}
    excluded = n_irred - sum(counts.values())
    expected = sum(1 for p, _ in factorize(m).factors if p.degree == degree)
    if excluded != expected:
        raise IntegrityError(
            "class accounting failed at degree %d mod %s: %d irreducibles "
            "landed outside the unit classes, expected %d"
            % (degree, m, excluded, expected))
    return CountTable(modulus=m, degree=degree, counts=counts,
                      excluded=excluded)


def sieve_count_naive(m, degree):
    """Reference implementation: per-polynomial irreducibility test plus
    divmod reduction.  Tests only; quadratically slower."""
    G = unit_group(m)
    counts = {u: 0 for u in G.units}
    excluded = 0
    for f in enumerate_monic(m.field, degree):
        if is_irreducible(f):
            r = f % m
            if G.contains(r):
                counts[r] += 1
            else:
                excluded += 1
    return CountTable(modulus=m, degree=degree, counts=counts,
                      excluded=excluded)


def sieve_count_nonmonic_naive(m, degree):
    """Reference: literally enumerate every nonzero-lc polynomial."""
    G = unit_group(m)
    field = m.field
    counts = {u: 0 for u in G.units}
    for f in enumerate_monic(field, degree):
        if is_irreducible(f):
            for lam in field.units():
                r = f.scale(lam) % m
                if G.contains(r):
                    counts[r] += 1
    return counts


def weighted_count(m, chi, n):
    """A_chi(n): sum over unit classes of pi(n; m, c) * chi(c), exact."""
    if n < 1:
        raise UsageError("n must be >= 1")
    table = sieve_count(m, n)
    E = chi.group.exponent
    tally = [0] * E
    for c, cnt in table.counts.items():
        if cnt:
            tally[chi.value_exponent(c)] += cnt
    return CycloNum.from_zeta_powers(E, tally)
