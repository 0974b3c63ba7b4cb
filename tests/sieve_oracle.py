"""Reference oracle for sieve.irreducible_indices: composites marked as
products g*h generated in index space, where adding a fixed polynomial to an
encoding is a digit-wise mod-p update, independent of the division-form
marking the sieve uses."""

import numpy as np

from ffrace.polyring import Poly

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
    t_e = Poly.monomial(field, 1, e)
    buf = np.empty_like(span)
    for t in range(q ** (e - J)):
        u_hi = Poly.from_index(field, t).shift(J)
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
