"""Reference oracles for the sieve.

irreducible_indices_by_products: composites marked as products g*h generated
in index space, where adding a fixed polynomial to an encoding is a digit-wise
mod-p update, independent of the division-form marking the sieve uses.

sieve_count_naive: a per-polynomial irreducibility test and divmod
reduction, against which sieve_count is compared.

sieve_count_nonmonic_naive: the irreducibles by products, every scaling of
each reduced by long division on arrays, against which the non-monic fold is
compared.

weighted_count: the sieve-side character sums A_chi(n) that the power-sum
oracle checks Newton's identities against."""

import numpy as np

from group_oracle import value_exponent
from ffrace.characters import unit_group
from ffrace.cyclo import CycloNum
from ffrace.errors import UsageError
from ffrace.field import field_tables
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
    """Reference: every irreducible of the degree with a nonzero leading
    coefficient, as lam f for each monic irreducible f (by products) and
    each lam in F_q^x, scaled digit by digit and reduced mod m by schoolbook
    long division, all rows at once."""
    G = unit_group(m)
    field, M = m.field, m.degree
    q = field.q
    add, mul = field_tables(field)
    neg = np.array([field.neg(c) for c in range(q)])
    found = {}
    for d in range(1, degree + 1):
        found[d] = irreducible_indices_by_products(field, d, found.__getitem__)
    digits = found[degree][:, None] // q ** np.arange(max(degree + 1, M)) % q
    f = np.concatenate([mul[lam][digits] for lam in range(1, q)])
    lead, divisor = field.inv(m.lc), np.array(m.coeffs)
    for i in range(degree, M - 1, -1):
        c = mul[f[:, i], lead]            # the quotient's T^(i - M) term
        f[:, i - M:i + 1] = add[f[:, i - M:i + 1],
                                neg[mul[c[:, None], divisor]]]
    index = G.unit_index[f[:, :M] @ q ** np.arange(M)]
    counts = np.bincount(index[index >= 0], minlength=G.order)
    return dict(zip(G.units, counts.tolist()))


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
