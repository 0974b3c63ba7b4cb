"""Brute-force counting oracle: exact per-congruence-class counts of monic
irreducibles of one degree, by exhaustive enumeration.

Polynomials are enumerated through their integer encodings (base-q digit
vectors).  Composites of degree N are marked as products g*h over irreducible
g of degree <= N/2; products are generated in index space, where adding a
fixed polynomial is a digit-wise mod-q update (plain XOR when q = 2) that
vectorizes.  f mod m is F_p-linear in the base-p digits of f's encoding, so
the survivors are reduced a chunk of digits at a time, by lookups in tables
over the chunk's digit patterns, and tallied per unit class.  Every call
cross-checks its total against the closed-form count of irreducibles.
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
# Residue reduction: log2 of a chunk table's size; encodings per block.
_CHUNK_BITS = 16
_BLOCK = 1 << 16


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


@lru_cache(maxsize=4)
def _sum_table(p, width):
    """table[a, b] = a (+) b, the digit-wise mod-p sum of two encodings of
    `width` base-p digits, in the smallest integer type that holds them."""
    size = p ** width
    base = np.arange(size, dtype=np.int64)
    table = np.empty((size, size), dtype=np.min_scalar_type(-size))
    for a in range(size):
        table[a] = _digit_add(base, a, p)
    table.flags.writeable = False
    return table


def _residues_mod(m, idx, degree):
    """Encodings of f mod m for every encoded f in idx (deg f <= degree).

    Digit t = i*k + j of the base-p encoding is the x^j-coordinate of the T^i
    coefficient.  A chunk's table holds the residues of all its digit
    patterns; lookups are added through _sum_table, a block of idx at a time."""
    field = m.field
    p = field.p
    add = _sum_table(p, m.degree * field.k)
    width = max(1, int(_CHUNK_BITS / math.log2(p)))
    n_digits = (degree + 1) * field.k
    tables = []
    for lo in range(0, n_digits, width):
        table = np.zeros(1, dtype=add.dtype)
        for t in range(lo, min(lo + width, n_digits)):
            mults = [(Poly.from_index(field, c * p ** t) % m).encode()
                     for c in range(p)]
            table = add[np.array(mults)[:, None], table].ravel()
        tables.append(table)
    chunk = p ** width
    res = np.empty(len(idx), dtype=add.dtype)
    for start in range(0, len(idx), _BLOCK):
        digits = idx[start:start + _BLOCK]
        acc = tables[0][digits % chunk]
        for table in tables[1:]:
            digits = digits // chunk
            acc = add[acc, table[digits % chunk]]
        res[start:start + _BLOCK] = acc
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


def sieve_count(m, degree):
    """Exact CountTable by enumerating all monic degree-N polynomials."""
    if degree < 1:
        raise UsageError("degree must be >= 1")
    G = unit_group(m)  # refuses a constant modulus
    idx = irreducible_indices(m.field, degree)
    tally = np.bincount(_residues_mod(m, idx, degree),
                        minlength=m.field.q ** m.degree)
    counts = {u: int(tally[u.encode()]) for u in G.units}
    excluded = len(idx) - sum(counts.values())
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
