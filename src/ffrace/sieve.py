"""The sieve: exact per-congruence-class counts of monic irreducibles of one
degree, by exhaustive enumeration.

Polynomials are enumerated through their integer encodings (base-q digit
vectors, each F_q digit a vector of base-p digits).  The monic f of degree
N are sieved one segment of consecutive encodings at a time, a segmented
sieve of Eratosthenes (Bays and Hudson, "The segmented sieve of
Eratosthenes and primes in arithmetic progressions to 10^12", BIT 17,
1977): one reused bool per f of the segment, cleared where f has a factor
of degree <= N/2.  The survivors of each segment are appended to an int32
array allocated once at the closed-form (Gauss) count of irreducibles,
which is checked as the array fills and again at the end.  A segment holds
about 2^20 encodings, so the working set is the output and tables of at
most _BLOCK entries, not q^N bytes.

From q^N = 2^16 on, each segment starts with one dense pass over the
multiples of every irreducible of degree <= D (the wheel of a wheel sieve;
D = 3 over F2, 1 over F3, F4 and F5, none from F7 up): f mod g is F_p-linear
in the digits of f, the residues of all these g share one packed encoding,
and a table over it says whether any is zero.  The higher degrees are
struck in division form: for an irreducible g of degree d and a monic H of
degree N - d, the one multiple of g with H above T^d is f = H T^d + r,
r = -(H T^d mod g), and its index is enc(H - T^(N-d)) q^d + enc(r), plain
integer arithmetic.  r is F_p-linear in the base-p digits of H, so it is a
table over a low block of digits, shifted once per value of the high
digits, for all irreducibles of one degree together.  When p = 2 (F2, F4)
after a dense pass, a strike of several writes keeps only the multiples
f = g Q whose cofactor Q survives the wheel, the rule of a wheel sieve
(Pritchard, Acta Inf. 17, 1982): every other f has a factor of degree
<= D, so the dense pass has cleared it.  The residues of f mod the wheel's
irreducibles are F_2-linear in the digits of H too, and its low digits
reach every residue, so each irreducible keeps the same share of low
values: 0.14 over F2, 0.32 over F4, a little more where the low block
spans only a prefix of the wheel's slots.  A segment is a whole number of
the dense pass's blocks and of every degree's shifts.  Both
passes take the residues of the digits from T^j mod g, walked once per
field and degree by r -> T r mod g and cached.  Sums of encodings are
digit-wise mod p: XOR when p = 2, otherwise fold[spread[a] + spread[b]]
through two small tables.  f mod m is F_p-linear in the digits of f in the
same way, so the irreducibles are reduced a chunk of digits at a time, by
lookups in tables over the chunk's digit patterns, and tallied per residue
a block at a time.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .characters import unit_group
from .errors import IntegrityError, UsageError
from .field import field_tables
from .limits import MAX_ENUM, check
from .numth import gauss_irreducible_count
from .polyring import Poly, factorize, format_poly

# Largest degree the sieve is routed to: `count` sieves up to the full cutoff,
# every other caller of explicit.counts up to min(cutoff, 12).
DEFAULT_CUTOFF = {2: 24, 3: 14, 5: 9}
# log2 of the largest table over a block of base-p digits (a residue chunk);
# encodings per tally of residues, indices per write of _strike, and the
# largest block and table of the dense pass.
_CHUNK_BITS = 16
_BLOCK = 1 << 16
# Encodings per sieve segment: the largest power of p up to this, raised to
# a multiple of every strike write's stretch and of the dense block (all
# powers of p), or q^N if that is smaller.
_SEGMENT = 1 << 20


def default_cutoff(q):
    return DEFAULT_CUTOFF.get(q, max(1, int(24 / math.log2(q))))


def _low_digits(p, count, digits, limit):
    """The largest L <= digits with count * p^L <= limit."""
    low = 0
    while low < digits and count * p ** (low + 1) <= limit:
        low += 1
    return low


@lru_cache(maxsize=8)
def _spread_fold(p, width):
    """Digit-wise mod-p sums of encodings of `width` base-p digits:
    spread[a] rewrites the digits of a in base 2p - 1, so spread[a] +
    spread[b] carries nothing, and fold[s] reduces every base-(2p - 1)
    digit of s mod p.  Hence fold[spread[a] + spread[b]] = a (+) b (XOR
    when p = 2, where only the dense pass spreads)."""
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


def _power_encodings(field, gs, d, n):
    """powers[i, j] encodes T^j mod gs[i] for j = 0..n, for the monic
    polynomials gs (encodings) of one degree d, from r -> T r mod g for all
    of gs at once."""
    q, p = field.q, field.p
    add, mul = field_tables(field)
    place = q ** np.arange(d)
    w0 = mul[p - 1][(gs[:, None] // place) % q]     # T^d = -(g - T^d) mod g
    powers = np.empty((len(gs), n + 1), dtype=np.int64)
    shifted = np.zeros_like(w0)                     # T r, before the carry
    w = np.zeros_like(w0)
    w[:, 0] = 1
    for j in range(n + 1):
        powers[:, j] = w @ place
        shifted[:, 1:] = w[:, :-1]
        w = add[shifted, mul[w[:, -1:], w0]]
    return powers


@lru_cache(maxsize=64)
def _irreducible_powers(field, d):
    """Read-only encodings of T^j mod g for every monic irreducible g of
    degree d (rows, in order) and every j up to the largest degree within
    MAX_ENUM.  uint16: the sieve divides by degrees d with q^d <= 2^13."""
    top = _low_digits(field.q, 1, MAX_ENUM.value, MAX_ENUM.value)
    powers = _power_encodings(field, irreducible_indices(field, d), d,
                              top).astype(np.uint16)
    powers.flags.writeable = False
    return powers


def _basis_residues(field, powers, d, sign=-1):
    """For rows of powers[i, j] = enc(T^(low+j) mod g_i), j = 0..n (g_i of
    degree d): steps[i, t, c] encodes sign c x^l T^(low+j) mod g_i for digit
    t = j*k + l of an encoding of degree < n, and const[i] encodes
    sign T^(low+n) mod g_i."""
    q, p, k = field.q, field.p, field.k
    _, mul = field_tables(field)
    place = q ** np.arange(d)
    digits = powers[..., None] // place % q
    # sign c x^l as elements of F_q, shape (k, p)
    scalars = p ** np.arange(k)[:, None] * (sign * np.arange(p) % p)
    steps = mul[scalars[:, :, None], digits[:, :-1, None, None, :]] @ place
    const = mul[sign % p][digits[:, -1]] @ place
    return (steps.reshape(len(powers), -1, p).astype(np.int32),
            const.astype(np.int32))


def _span(start, steps, sums):
    """table[i, h] = start[i] (+) the sum of steps[i, t, digit t of h] over
    every vector h of steps.shape[1] base-p digits (index h, digit 0 lowest),
    for every row i; sums is None for p = 2 (XOR), else the (spread, fold)
    pair of the encodings."""
    table = np.asarray(start, dtype=np.int32)[:, None]
    for t in range(steps.shape[1]):
        mults = steps[:, t, :, None]
        if sums is None:
            table = mults ^ table[:, None, :]
        else:
            spread, fold = sums
            table = fold[spread[mults] + spread[table][:, None, :]]
        table = table.reshape(len(steps), -1)
    return table


def _strike_low(field, d, degree):
    """Low digits of H per row of a strike table of degree d: the most with
    p^low times the irreducibles of degree d within _BLOCK indices (even
    with none, gauss_irreducible_count(q, d) < q^d <= 2^13)."""
    return _low_digits(field.p, gauss_irreducible_count(field.q, d),
                       (degree - d) * field.k, _BLOCK)


def _strike_tables(field, powers, d, degree):
    """The tables that strike every multiple of degree `degree` of the monic
    irreducibles of degree d, all together (powers: their rows of
    _irreducible_powers).

    f = H T^d + r is a multiple of g exactly when r = -(H T^d mod g), for
    every monic H of degree e = degree - d; f's index is then
    enc(H - T^e) q^d + enc(r).  r is F_p-linear in the base-p digits of H:
    its values over a low block of digits are one table per g, lo (int32,
    one row per g), shifted once per value b of the high digits by hi[b]
    (one entry per g).  The write of b covers the indices [b stride,
    (b + 1) stride) in g-major order.  When p = 2 after a dense pass, lo
    holds only the multiples whose cofactor survives the wheel
    (_restrict), fewer entries per row than offsets.  Returns (stride, lo,
    hi, offsets, sums): offsets enc(H low) q^d per low value where p is odd
    (XOR adds it into lo when p = 2), sums the spread/fold pair or None."""
    q, p = field.q, field.p
    steps, const = _basis_residues(field, powers[:, d:degree + 1], d)
    low = _strike_low(field, d, degree)
    stride = p ** low * q ** d
    offsets = np.arange(p ** low, dtype=np.int32) * q ** d
    wheel = _cofactor_wheel(field, degree, low, (degree - d) * field.k)
    if wheel is not None:
        lo, hi = _restrict(field, d, degree, wheel, steps, const, low)
        return stride, lo, hi, offsets, None
    sums = None if p == 2 else _spread_fold(p, d * field.k)
    lo = _span(np.zeros(len(powers)), steps[:, :low], sums)
    hi = _span(const, steps[:, low:], sums).T[:, :, None]
    if sums is None:
        lo |= offsets
    else:
        spread = sums[0]
        lo, hi = spread[lo], spread[hi]
    return stride, lo, hi, offsets, sums


@lru_cache(maxsize=8)
def _wheel_words(field, D, degree):
    """(bits, const, slots) of the dense pass over degrees <= D at the given
    degree, for p = 2 (see _wheel_slots): bits[t] (read-only int32) is the
    packed word of index digit t, const that of T^degree."""
    packed, const, slots = _wheel_slots(
        field, [_irreducible_powers(field, j) for j in range(1, D + 1)],
        degree)
    bits = packed[:, 1].astype(np.int32)
    bits.flags.writeable = False
    return bits, const, tuple(slots)


def _cofactor_wheel(field, degree, low, digits):
    """(bits, const, alive) of the wheel a strike restricts to, for p = 2
    after a dense pass, or None: the longest prefix of the dense pass's
    slots whose digits fit in the strike's `low` digits of H, the low bits
    of the packed word.  bits[t] is the word of index digit t, const that
    of T^degree, and alive[w] says whether no slot of the word w is zero.
    None where the marks the wheel saves per irreducible, over all p^digits
    values of H, are not more than the p^low entries of its table."""
    D = _dense_degree(field, degree)
    if field.p != 2 or not D:
        return None
    bits, const, slots = _wheel_words(field, D, degree)
    slots = [(start, w) for start, w in slots if start + w <= low]
    width = sum(w for _, w in slots)
    words = np.arange(1 << width)
    alive = np.ones(1 << width, dtype=bool)
    for start, w in slots:
        alive &= words >> start & (1 << w) - 1 != 0
    saved = ((1 << width) - int(alive.sum())) << (digits - width)
    if 1 << low >= saved:
        return None
    mask = (1 << width) - 1
    return bits & mask, const & mask, alive


def _words(bits, x):
    """The XOR of bits[t] over every set bit t of x (p = 2)."""
    out = np.zeros(np.shape(x), dtype=np.int32)
    for t, word in enumerate(bits):
        out ^= (x >> t & 1) * word
    return out


def _restrict(field, d, degree, wheel, steps, const, low):
    """The p = 2 strike tables (lo, hi) of _strike_tables (steps, const:
    the residues of H's digits and of T^degree mod each g) cut to the
    multiples f = g Q whose cofactor Q survives the wheel, the rule of a
    wheel sieve (Pritchard, Acta Inf. 17, 1982): g has degree d > D, so f
    has a factor in the wheel exactly when Q does, and the dense pass has
    cleared every such f.

    The wheel word of f is F_2-linear in the digits of f's index, so it is
    A[g, s] ^ B[g, b] over the low value s and high value b of H.  The
    first `width` digits of H already span the wheel's digits: Q's low part
    runs over every residue mod the wheel, and g is a unit mod it.  So
    s -> A[g, s] is a bijection for s < 2^width, which is checked, and
    every row keeps the same m low values S_g = {s : alive[A[g, s]]}, which
    are read through its inverse.  With A[g, s0] = B[g, b], the survivors of
    write b are S_g ^ s0; lo (offsets included) is XOR-linear in s, so the
    write is lo[g, S_g] ^ hi[b, g] ^ lo[g, s0].  Returns lo[g, S_g] and that
    shift."""
    bits, base, alive = wheel
    n, dk, place = len(steps), d * field.k, field.q ** d
    width = len(alive).bit_length() - 1
    # each digit of H moves r by its step and f's index by its own digit
    wsteps = _words(bits[:dk], steps)
    wsteps[:, :, 1] ^= bits[dk:]
    zeros, g = np.zeros(n), np.arange(n)[:, None]

    def tables(first, last):
        """lo and A over the digits [first, last) of H."""
        values = np.arange(1 << last - first, dtype=np.int32) << first
        return (_span(zeros, steps[:, first:last], None) | values * place,
                _span(zeros, wsteps[:, first:last], None))

    lo_low, words_low = tables(0, width)
    lo_high, words_high = tables(width, low)
    preimage = np.zeros(words_low.shape,
                        dtype=np.min_scalar_type(len(alive) - 1))
    preimage[g, words_low] = np.arange(len(alive))
    onto = words_low[g, preimage] == np.arange(len(alive))
    if not onto.all():
        raise IntegrityError(
            "wheel restriction of the degree-%d strike at degree %d over F%d "
            "is not rectangular: the low digits of irreducible %d reach %d of "
            "%d wheel words" % (d, degree, field.q, onto.all(axis=1).argmin(),
                                onto.sum(axis=1).min(), len(alive)))
    s = preimage[g[:, :, None], words_high[:, :, None] ^ np.flatnonzero(alive)]
    lo = (lo_high[:, :, None] ^ lo_low[g[:, :, None], s]).reshape(n, -1)
    hi = _span(const, steps[:, low:], None)
    words_hi = _span(_words(bits[:dk], const) ^ base, wsteps[:, low:], None)
    shift = hi ^ lo_low[g, preimage[g, words_hi]]
    return lo, shift.T[:, :, None]


def _strike(seg, base, tables):
    """Clear in seg, the bool segment of the encodings from base on, the
    writes of one degree's _strike_tables that fall in it."""
    stride, lo, hi, offsets, sums = tables
    # intp: fancy indices of another dtype are converted on every write
    buf = np.empty(lo.shape, dtype=np.intp)
    if sums is not None:
        fold = sums[1]
        spread_buf = np.empty(lo.shape, dtype=np.int32)
        res_buf = np.empty(lo.shape, dtype=np.int32)
    for b in range(base // stride, (base + len(seg)) // stride):
        if sums is None:
            np.bitwise_xor(lo, hi[b], out=buf)
        else:
            np.add(lo, hi[b], out=spread_buf)
            np.take(fold, spread_buf, out=res_buf)
            np.add(res_buf, offsets, out=buf)
        seg[b * stride - base:(b + 1) * stride - base][buf] = False


def _dense_degree(field, degree):
    """The largest D <= degree/2 whose slots fit the dense pass's table of at
    most _BLOCK entries, (2p - 1)^W for W base-p digits of slots; 0 (strike
    every degree) where q^degree < _BLOCK, too few indices to repay the
    tables."""
    q, p, k = field.q, field.p, field.k
    D = width = 0
    if q ** degree >= _BLOCK:
        while D < degree // 2:
            width += (D + 1) * k * gauss_irreducible_count(q, D + 1)
            if (2 * p - 1) ** width > _BLOCK:
                break
            D += 1
    return D


def _wheel_slots(field, powers, degree):
    """(packed, const, slots) of the irreducibles of degree <= D
    (powers[d - 1]: the rows of _irreducible_powers of degree d) for an
    index of the given degree: packed[t, c] encodes -(c x^l T^j mod g) for
    digit t = j*k + l and every g at once, each g in a slot of deg g base-q
    digits of one packed encoding, const the same of T^degree, and slots
    the (lowest digit, digits) of each g, in order."""
    p, k = field.p, field.k
    packed = const = width = 0
    slots = []
    for d, rows in enumerate(powers, 1):
        steps, c = _basis_residues(field, rows[:, :degree + 1], d)
        place = p ** (width + d * k * np.arange(len(rows)))
        packed = packed + np.tensordot(place, steps, axes=1)
        const += int(place @ c)
        slots += [(width + d * k * i, d * k) for i in range(len(rows))]
        width += len(rows) * d * k
    return packed, const, slots


def _presieve_tables(field, powers, degree):
    """The tables of the dense pass that leaves True at the index of every
    monic f of the given degree that no irreducible of degree <= D divides
    (powers[d - 1]: the rows of _irreducible_powers of degree d).  The
    wheel of a wheel sieve.

    -(f mod g) is F_p-linear in the base-p digits of f's index, plus
    -(T^degree mod g).  Each g owns a slot of deg g base-q digits in one
    packed encoding (_wheel_slots), so the residues of every g add as one
    encoding, digit-wise mod p.  A block of p^L indices is a table over its
    L low digits plus one packed value over the high digits.  In spread
    form (base 2p - 1 digits, see _spread_fold) that sum carries nothing,
    so one boolean table over spread sums says whether no slot is zero, and
    a block is one gather from that table, offset by the block's high
    value.  Returns (block, lo, hi, alive)."""
    p, k = field.p, field.k
    packed, const, slots = _wheel_slots(field, powers, degree)
    # not cached: up to _BLOCK entries, read by this enumeration alone
    spread, fold = sums = _spread_fold.__wrapped__(
        p, sum(w for _, w in slots))
    sums = None if p == 2 else sums
    low = _low_digits(p, 1, degree * k, _BLOCK)
    lo = spread[_span([0], packed[None, :low], sums)[0]].astype(np.intp)
    hi = spread[_span([const], packed[None, low:], sums)[0]].tolist()
    alive = np.ones(len(fold), dtype=bool)
    for start, w in slots:
        alive &= fold // p ** start % p ** w != 0
    return p ** low, lo, hi, alive


def _presieve(seg, base, tables):
    """Fill seg, the bool segment of the encodings from base on, with the
    dense pass's blocks that fall in it."""
    block, lo, hi, alive = tables
    for b in range(base // block, (base + len(seg)) // block):
        # every index of alive[hi[b]:] is in range; "raise" would buffer out
        np.take(alive[hi[b]:], lo,
                out=seg[b * block - base:(b + 1) * block - base], mode="wrap")


def _passes(field, D, degree):
    """(fill, tables) of each pass over a segment, in order: the dense pass
    over degrees 1..D if D, then one strike per degree up to degree/2, each
    one's tables built as it is reached."""
    if D:
        yield _presieve, _presieve_tables(
            field, [_irreducible_powers(field, d) for d in range(1, D + 1)],
            degree)
    for d in range(D + 1, degree // 2 + 1):
        yield _strike, _strike_tables(field, _irreducible_powers(field, d), d,
                                      degree)


@lru_cache(maxsize=64)
def irreducible_indices(field, degree):
    """Sorted encodings (read-only int32) of all monic irreducibles of the
    given degree."""
    if degree < 1:
        raise UsageError("degree must be >= 1")
    q, p, k = field.q, field.p, field.k
    size = q ** degree
    check(MAX_ENUM, "sieve of degree %d over F%d (larger degrees are for "
          "the explicit formula)" % (degree, q), size, "degree",
          lambda n: q ** n)
    D = _dense_degree(field, degree)
    strides = [p ** _strike_low(field, d, degree) * q ** d
               for d in range(D + 1, degree // 2 + 1)]
    if D:
        strides.append(p ** _low_digits(p, 1, degree * k, _BLOCK))
    span = min(size, max([p ** _low_digits(p, 1, degree * k, _SEGMENT)]
                         + strides))
    passes = _passes(field, D, degree)
    if span < size:
        passes = list(passes)           # every segment reads every pass
    out = np.empty(gauss_irreducible_count(q, degree), dtype=np.int32)
    seg = np.empty(span, dtype=bool)
    filled = 0
    for base in range(0, size, span):
        if not D:
            seg.fill(True)
        for fill, tables in passes:
            fill(seg, base, tables)
            del tables      # one segment: one pass's tables at a time
        # a block at a time: the int64 indices of one block, not a segment
        for start in range(0, span, _BLOCK):
            found = np.flatnonzero(seg[start:start + _BLOCK])
            if filled + len(found) > len(out):
                raise IntegrityError(
                    "irreducible count at degree %d over F%d exceeds the "
                    "Mobius closed form %d" % (degree, q, len(out)))
            found += size + base + start
            out[filled:filled + len(found)] = found
            filled += len(found)
    if filled < len(out):
        raise IntegrityError(
            "irreducible count at degree %d over F%d falls short of the "
            "Mobius closed form: %d of %d" % (degree, q, filled, len(out)))
    out.flags.writeable = False
    return out


def _tally_mod(m, idx, degree):
    """tally[r]: how many of the encoded f in idx (deg f <= degree) reduce
    mod m to the residue encoded r.

    Digit t = i*k + j of the base-p encoding is the x^j-coordinate of the T^i
    coefficient.  A chunk's table holds the residues of all its digit
    patterns; lookups are added digit-wise mod p (XOR when p = 2, spread/fold
    otherwise), and the residues are tallied a block of idx at a time."""
    field = m.field
    p = field.p
    sums = None if p == 2 else _spread_fold(p, m.degree * field.k)
    width = max(1, int(_CHUNK_BITS / math.log2(p)))
    n_digits = (degree + 1) * field.k
    powers = _power_encodings(field, np.array([m.monic().encode()]),
                              m.degree, degree + 1)
    steps, _ = _basis_residues(field, powers, m.degree, sign=1)
    tables = [_span([0], steps[:, lo:lo + width], sums)[0]
              for lo in range(0, n_digits, width)]
    if sums is not None:
        spread, fold = sums
        tables[1:] = [spread[table] for table in tables[1:]]
    chunk = p ** width
    tally = np.zeros(field.q ** m.degree, dtype=np.int64)
    for start in range(0, len(idx), _BLOCK):
        digits = idx[start:start + _BLOCK]
        acc = tables[0][digits % chunk]
        for table in tables[1:]:
            digits = digits // chunk
            if sums is None:
                acc ^= table[digits % chunk]
            else:
                acc = fold[spread[acc] + table[digits % chunk]]
        tally += np.bincount(acc, minlength=len(tally))
    return tally


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
    tally = _tally_mod(m, irreducible_indices(m.field, degree), degree)
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
            "class accounting failed at degree %d mod %s over %r: %d "
            "irreducibles landed outside the unit classes, expected %d"
            % (degree, format_poly(m), m.field, excluded, expected))
    return CountTable(modulus=m, degree=degree, counts=counts,
                      excluded=excluded)
