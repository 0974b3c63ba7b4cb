"""The sieve: exact per-congruence-class counts of monic irreducibles of one
degree, by exhaustive enumeration.

Polynomials are enumerated through their integer encodings (base-q digit
vectors, each F_q digit a vector of base-p digits), one bool per monic f of
degree N, cleared where f has a factor of degree <= N/2.  From q^N = 2^16
on, one dense pass first clears the multiples of every irreducible of
degree <= D (the wheel of a wheel sieve; D = 3 over F2, 1 over F3, F4 and
F5, none from F7 up): f mod g is F_p-linear in the digits of f, the
residues of all these g share one packed encoding, and a table over it
says whether any is zero.  The higher degrees are struck in division form:
for an irreducible g of degree d and a monic H of degree N - d, the one
multiple of g with H above T^d is f = H T^d + r, r = -(H T^d mod g), and
its index is enc(H - T^(N-d)) q^d + enc(r), plain integer arithmetic.  r
is F_p-linear in the base-p digits of H, so it is a table over a low block
of digits, shifted once per value of the high digits, for all irreducibles
of one degree together.  Both passes take the residues of the digits from
one recurrence, r -> T r mod g.  Sums of encodings are digit-wise mod p:
XOR when p = 2, otherwise fold[spread[a] + spread[b]] through two small
tables.  f mod m is F_p-linear in the digits of f in the same way, so the
survivors are reduced a chunk of digits at a time, by lookups in tables
over the chunk's digit patterns, and tallied per unit class.  Every call
cross-checks its total against the closed-form count of irreducibles.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .characters import unit_group
from .errors import IntegrityError, UsageError
from .field import field_tables
from .numth import gauss_irreducible_count
from .polyring import Poly, factorize

# Largest degree the sieve is routed to: `count` sieves up to the full cutoff,
# every other caller of explicit.counts up to min(cutoff, 12).
DEFAULT_CUTOFF = {2: 24, 3: 14, 5: 9}
# Hard cap on enumeration size (bitmap of q^N bools).
_MAX_ENUM = 1 << 26
# log2 of the largest table over a block of base-p digits (a residue chunk);
# encodings per block of residue reduction, indices per write of _strike,
# and the largest block and table of _presieve.
_CHUNK_BITS = 16
_BLOCK = 1 << 16


def default_cutoff(q):
    return DEFAULT_CUTOFF.get(q, max(1, int(24 / math.log2(q))))


@lru_cache(maxsize=8)
def _spread_fold(p, width):
    """Digit-wise mod-p sums of encodings of `width` base-p digits:
    spread[a] rewrites the digits of a in base 2p - 1, so spread[a] +
    spread[b] carries nothing, and fold[s] reduces every base-(2p - 1)
    digit of s mod p.  Hence fold[spread[a] + spread[b]] = a (+) b (XOR
    when p = 2, where only _presieve spreads)."""
    spread = np.zeros(1, dtype=np.int32)
    fold = np.zeros(1, dtype=np.int32)
    for t in range(width):
        spread = (np.arange(p, dtype=np.int32)[:, None] * (2 * p - 1) ** t
                  + spread).ravel()
        fold = ((np.arange(2 * p - 1, dtype=np.int32) % p)[:, None] * p ** t
                + fold).ravel()
    spread.flags.writeable = False
    fold.flags.writeable = False
    return spread, fold


def _basis_residues(field, gs, d, low, n, sign=-1):
    """For the monic polynomials gs (encodings) of one degree d: steps[i, t,
    c] encodes sign c x^l T^(low+j) mod gs[i] for digit t = j*k + l of an
    encoding of degree < n, and const[i] encodes sign T^(low+n) mod gs[i].
    The powers of T come from r -> T r mod g, for all of gs at once."""
    q, p, k = field.q, field.p, field.k
    add, mul = field_tables(field)
    place = q ** np.arange(d)
    w0 = mul[p - 1][(gs[:, None] // place) % q]     # T^d = -(g - T^d) mod g
    # sign c x^l as elements of F_q, shape (k, p)
    scalars = p ** np.arange(k)[:, None] * (sign * np.arange(p) % p)
    steps = np.empty((len(gs), n * k, p), dtype=np.int64)
    shifted = np.zeros_like(w0)                     # T r, before the carry
    w = np.zeros_like(w0)
    w[:, 0] = 1                                     # T^(low + j) from j = -low
    for j in range(-low, n):
        if j >= 0:
            steps[:, j * k:(j + 1) * k] = \
                mul[scalars[None, :, :, None], w[:, None, None, :]] @ place
        shifted[:, 1:] = w[:, :-1]
        w = add[shifted, mul[w[:, -1:], w0]]
    return steps, mul[sign % p][w] @ place


def _span(start, steps, sums):
    """table[i, h] = start[i] (+) the sum of steps[i, t, digit t of h] over
    every vector h of steps.shape[1] base-p digits (index h, digit 0 lowest),
    for every row i; sums is None for p = 2 (XOR), else the (spread, fold)
    pair of the encodings."""
    table = np.asarray(start, dtype=np.int64)[:, None]
    for t in range(steps.shape[1]):
        mults = steps[:, t, :, None]
        if sums is None:
            table = mults ^ table[:, None, :]
        else:
            spread, fold = sums
            table = fold[spread[mults] + spread[table][:, None, :]]
        table = table.reshape(len(steps), -1)
    return table


def _strike(bitmap, field, gs, d, degree):
    """Clear every multiple of degree `degree` of the monic irreducibles gs of
    degree d, all of gs together.

    f = H T^d + r is a multiple of g exactly when r = -(H T^d mod g), for
    every monic H of degree e = degree - d; f's bitmap index is then
    enc(H - T^e) q^d + enc(r).  r is F_p-linear in the base-p digits of H:
    its values over a low block of digits are one table per g, shifted once
    per value of the high digits (XOR when p = 2, a spread/fold sum
    otherwise).  One write covers one value of the high digits: the rows of
    the low block times every g, H-major, so it sweeps one stretch of the
    bitmap in order.  It holds at most _BLOCK indices: even with no low
    digits, len(gs) < q^d <= 2^13 under _MAX_ENUM."""
    q, p = field.q, field.p
    e = degree - d
    steps, const = _basis_residues(field, gs, d, d, e)
    low = 0
    while low < e * field.k and p ** (low + 1) * len(gs) <= _BLOCK:
        low += 1
    size = p ** low
    stride = size * q ** d
    offsets = np.arange(size, dtype=np.int64)[:, None] * q ** d
    sums = None if p == 2 else _spread_fold(p, d * field.k)
    lo = _span(np.zeros(len(gs), dtype=np.int64), steps[:, :low], sums)
    hi = _span(const, steps[:, low:], sums).T      # (high values, g)
    # r is broadcast over the write one row at a time, so a row holds reps
    # low values: reps * len(gs) >= 512 indices where the block allows
    reps = 1
    while reps < size and reps * len(gs) < 512:
        reps *= p
    shape = (size // reps, reps * len(gs))          # H-major
    if sums is None:
        lo = np.bitwise_or(lo.T, offsets, order="C").reshape(shape)
    else:
        spread, fold = sums
        lo, hi = spread[lo].T.reshape(shape), spread[hi]
        offsets = np.broadcast_to(offsets, (size, len(gs))).reshape(shape)
        spread_buf = np.empty(shape, dtype=np.int32)
        res_buf = np.empty(shape, dtype=np.int32)
    buf = np.empty(shape, dtype=np.int64)
    for b, r in enumerate(hi):
        r = np.tile(r, reps)
        if sums is None:
            np.bitwise_xor(lo, r, out=buf)
        else:
            np.add(lo, r, out=spread_buf)
            np.take(fold, spread_buf, out=res_buf)
            np.add(res_buf, offsets, out=buf)
        bitmap[b * stride:(b + 1) * stride][buf] = False


def _dense_degree(field, degree):
    """The largest D <= degree/2 whose slots fit _presieve's table of at most
    _BLOCK entries, (2p - 1)^W for W base-p digits of slots; 0 (strike every
    degree) where q^degree < _BLOCK, too few indices to repay the tables."""
    q, p, k = field.q, field.p, field.k
    D = width = 0
    if q ** degree >= _BLOCK:
        while D < degree // 2:
            width += (D + 1) * k * gauss_irreducible_count(q, D + 1)
            if (2 * p - 1) ** width > _BLOCK:
                break
            D += 1
    return D


def _presieve(bitmap, field, groups, degree):
    """Fill bitmap: True at the index of every monic f of the given degree
    that no irreducible of groups (groups[d - 1]: the encodings of degree d)
    divides.  The wheel of a wheel sieve, in one dense pass.

    -(f mod g) is F_p-linear in the base-p digits of f's bitmap index, plus
    -(T^degree mod g).  Each g owns a slot of deg g base-q digits in one
    packed encoding, so the residues of every g add as one encoding, digit-
    wise mod p.  A block of p^L indices is a table over its L low digits
    plus one packed value over the high digits.  In spread form (base 2p - 1
    digits, see _spread_fold) that sum carries nothing, so one boolean table
    over spread sums says whether no slot is zero, and a block is one gather
    from that table, offset by the block's high value."""
    p, k = field.p, field.k
    packed = const = width = 0
    slots = []                          # (lowest digit, digits) of each g
    for d, gs in enumerate(groups, 1):
        steps, c = _basis_residues(field, gs, d, 0, degree)
        place = p ** (width + d * k * np.arange(len(gs)))
        packed = packed + np.tensordot(place, steps, axes=1)
        const += int(place @ c)
        slots += [(width + d * k * i, d * k) for i in range(len(gs))]
        width += len(gs) * d * k
    # not cached: up to _BLOCK entries, read by this pass alone
    spread, fold = sums = _spread_fold.__wrapped__(p, width)
    sums = None if p == 2 else sums
    low = 0
    while p ** (low + 1) <= _BLOCK:
        low += 1
    lo = spread[_span([0], packed[None, :low], sums)[0]].astype(np.intp)
    hi = spread[_span([const], packed[None, low:], sums)[0]]
    alive = np.ones(len(fold), dtype=bool)
    for start, w in slots:
        alive &= fold // p ** start % p ** w != 0
    block = p ** low
    for b, h in enumerate(hi.tolist()):
        # every index of alive[h:] is in range; "raise" would buffer out
        np.take(alive[h:], lo, out=bitmap[b * block:(b + 1) * block],
                mode="wrap")


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
    # bitmap[i]: no irreducible of the degrees done so far divides f_i
    D = _dense_degree(field, degree)
    if D:
        bitmap = np.empty(size, dtype=bool)
        _presieve(bitmap, field,
                  [irreducible_indices(field, d) for d in range(1, D + 1)],
                  degree)
    else:
        bitmap = np.ones(size, dtype=bool)
    for d in range(D + 1, degree // 2 + 1):
        _strike(bitmap, field, irreducible_indices(field, d), d, degree)
    out = np.flatnonzero(bitmap).astype(np.int64, copy=False)
    out += size
    out.flags.writeable = False
    if len(out) != gauss_irreducible_count(q, degree):
        raise IntegrityError(
            "irreducible count at degree %d over F%d disagrees with the "
            "Mobius closed form" % (degree, q))
    return out


def _residues_mod(m, idx, degree):
    """Encodings of f mod m for every encoded f in idx (deg f <= degree).

    Digit t = i*k + j of the base-p encoding is the x^j-coordinate of the T^i
    coefficient.  A chunk's table holds the residues of all its digit
    patterns; lookups are added digit-wise mod p (XOR when p = 2, spread/fold
    otherwise), a block of idx at a time."""
    field = m.field
    p = field.p
    sums = None if p == 2 else _spread_fold(p, m.degree * field.k)
    width = max(1, int(_CHUNK_BITS / math.log2(p)))
    n_digits = (degree + 1) * field.k
    steps, _ = _basis_residues(field, np.array([m.monic().encode()]),
                               m.degree, 0, degree + 1, sign=1)
    tables = [_span([0], steps[:, lo:lo + width], sums)[0]
              for lo in range(0, n_digits, width)]
    if sums is not None:
        spread, fold = sums
        tables[1:] = [spread[table] for table in tables[1:]]
    chunk = p ** width
    res = np.empty(len(idx), dtype=np.int64)
    for start in range(0, len(idx), _BLOCK):
        digits = idx[start:start + _BLOCK]
        acc = tables[0][digits % chunk]
        for table in tables[1:]:
            digits = digits // chunk
            if sums is None:
                acc ^= table[digits % chunk]
            else:
                acc = fold[spread[acc] + table[digits % chunk]]
        res[start:start + _BLOCK] = acc
    return res


@dataclass
class CountTable:
    """pi(N; m, c) for every unit class c, in canonical class order."""
    modulus: Poly
    degree: int
    counts: dict           # Poly (unit residue) -> int
    excluded: int          # irreducibles of this degree dividing m


@lru_cache(maxsize=128)
def _class_tally(m, degree):
    """Read-only count of the monic irreducibles of the given degree per
    residue mod m (indexed by the residue's encoding)."""
    idx = irreducible_indices(m.field, degree)
    tally = np.bincount(_residues_mod(m, idx, degree),
                        minlength=m.field.q ** m.degree)
    tally.flags.writeable = False
    return tally


def sieve_count(m, degree):
    """Exact CountTable by enumerating all monic degree-N polynomials."""
    if degree < 1:
        raise UsageError("degree must be >= 1")
    G = unit_group(m)  # refuses a constant modulus
    tally = _class_tally(m, degree)
    # units are sorted by encoding: one gather reads every class
    found = tally[np.flatnonzero(G.unit_index >= 0)]
    counts = dict(zip(G.units, found.tolist()))
    excluded = int(tally.sum() - found.sum())
    expected = sum(1 for p, _ in factorize(m).factors if p.degree == degree)
    if excluded != expected:
        raise IntegrityError(
            "class accounting failed at degree %d mod %s: %d irreducibles "
            "landed outside the unit classes, expected %d"
            % (degree, m, excluded, expected))
    return CountTable(modulus=m, degree=degree, counts=counts,
                      excluded=excluded)
