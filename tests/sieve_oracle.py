"""Reference oracles for the sieve.

irreducible_indices_by_products: composites marked as products g*h generated
in index space, where adding a fixed polynomial to an encoding is a digit-wise
mod-p update, independent of the division-form marking the sieve uses.

sieve_count_naive, sieve_count_nonmonic_naive: a per-polynomial
irreducibility test and divmod reduction, against which sieve_count and the
non-monic fold are compared.  weighted_count: the sieve-side character sums
A_chi(n) that the power-sum oracle checks Newton's identities against."""

import numpy as np

from group_oracle import value_exponent
from ffrace.characters import unit_group
from ffrace.cyclo import CycloNum
from ffrace.errors import UsageError
from ffrace.polyring import Poly, enumerate_monic, is_irreducible
from ffrace.sieve import CountTable, sieve_count

# Cap on the vectorized low-product span (memory/latency tradeoff).
_SPAN_BITS = 18


def digit_add(arr, w, p, out=None):
    """Add the constant encoding w to every encoded polynomial in arr, as
    polynomials: carryless digit-wise mod p over the whole base-p expansion
    (plain XOR in characteristic 2)."""
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
    scaled = [g.scale(c).encode() for c in range(field.q)]
    cur = np.zeros(1, dtype=np.int64)
    for j in range(e_width):
        shift = field.q ** j
        parts = [cur]
        for c in range(1, field.q):
            parts.append(digit_add(cur, scaled[c] * shift, field.p))
        cur = np.concatenate(parts)
    return cur


def _mark_products(bitmap, g, degree):
    """Mark g*h for every monic h with deg(g*h) == degree."""
    field = g.field
    q = field.q
    e = degree - g.degree
    J = min(e, max(1, int(_SPAN_BITS / np.log2(q))))
    span = _span_low_products(g, J)
    t_e = Poly.from_index(field, q ** e)
    buf = np.empty_like(span)
    for t in range(q ** (e - J)):
        u_hi = Poly.from_index(field, t * q ** J)
        w = (g * (t_e + u_hi)).encode()
        bitmap[digit_add(span, w, field.p, out=buf) - q ** degree] = True


def irreducible_indices_by_products(field, degree, lower):
    """Sorted encodings of the monic irreducibles of the given degree, given
    lower(d), the encodings of the monic irreducibles of each degree d <=
    degree/2."""
    size = field.q ** degree
    bitmap = np.zeros(size, dtype=bool)
    for d in range(1, degree // 2 + 1):
        for g_idx in lower(d):
            _mark_products(bitmap, Poly.from_index(field, int(g_idx)), degree)
    return np.flatnonzero(~bitmap).astype(np.int64) + size


def sieve_count_naive(m, degree):
    """Reference implementation: per-polynomial irreducibility test plus
    divmod reduction.  Quadratically slower than sieve_count."""
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
            for lam in range(1, field.q):
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
            tally[value_exponent(chi, c)] += cnt
    return CycloNum.from_zeta_powers(E, tally)
