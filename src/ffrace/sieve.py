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
the dense pass's blocks and of every degree's shifts.  Sums of encodings
are digit-wise mod p: XOR when p = 2, otherwise fold[spread[a] +
spread[b]] through two small tables.  f mod m is F_p-linear in the digits
of f in the same way, so the irreducibles are reduced a chunk of digits at
a time, by lookups in tables over the chunk's digit patterns, and tallied
per residue a block at a time.

What is built how often:
- once per field and degree d of irreducibles: T^j mod g for every g of
  degree d and every j up to the largest degree the sieve takes, walked by
  r -> T r mod g (cached with the enumerations);
- once per field, while the degrees sieved read them (_kept): the residues
  of every digit of H mod each g (_residues), each strike's table over its
  low digits of H with the wheel's cut (_strike_low_tables), and the dense
  pass's packed words of every digit, alive table and spread (_wheel).  An
  enumeration drops every kept table its degree does not read before it
  builds any, so another field's go at its first sieve;
- once per degree: the dense pass's table over its low index digits and
  each pass's shifts hi, from T^degree and the high digits;
- once per modulus: the chunk tables of the residues mod m (_chunk_tables),
  kept until another modulus is tallied.
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


def _top_degree(field):
    """The largest degree whose q^N encodings are within MAX_ENUM."""
    return _low_digits(field.q, 1, MAX_ENUM.value, MAX_ENUM.value)


@lru_cache(maxsize=64)
def _irreducible_powers(field, d):
    """Read-only encodings of T^j mod g for every monic irreducible g of
    degree d (rows, in order) and every j up to _top_degree.  uint16: the
    sieve divides by degrees d with q^d <= 2^13."""
    powers = _power_encodings(field, irreducible_indices(field, d), d,
                              _top_degree(field)).astype(np.uint16)
    powers.flags.writeable = False
    return powers


def _basis_residues(field, powers, d, sign=-1):
    """For rows of powers[i, j] = enc(T^(low+j) mod g_i) (g_i of degree d):
    steps[i, t, c] (int32) encodes sign c x^l T^(low+j) mod g_i for digit
    t = j*k + l of an encoding.  steps[i, j*k, 1] is sign T^(low+j)."""
    q, p, k = field.q, field.p, field.k
    _, mul = field_tables(field)
    place = q ** np.arange(d)
    digits = powers[..., None] // place % q
    # sign c x^l as elements of F_q, shape (k, p)
    scalars = p ** np.arange(k)[:, None] * (sign * np.arange(p) % p)
    steps = mul[scalars[:, :, None], digits[:, :, None, None, :]] @ place
    return steps.reshape(len(powers), -1, p).astype(np.int32)


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


# The degree-independent tables of the sieve (see _passes), by key: those
# of the degree sieved last.  Each enumeration drops every one its degree
# does not read, another field's with them, and builds what it lacks.  No
# lock: a key's tables are a function of the key alone and never change,
# so threads that race on one build equal tables, and each sieves with
# the ones it holds whoever drops them from here.
_kept = {}


def _kept_tables(key, build):
    """_kept[key], built by build() if missing; every array read-only."""
    tables = _kept.get(key)
    if tables is None:
        tables = build()
        for table in tables:
            if isinstance(table, np.ndarray):
                table.flags.writeable = False
        _kept[key] = tables
    return tables


def _strike_low(field, d, degree):
    """Low digits of H per row of a strike table of degree d: the most with
    p^low times the irreducibles of degree d within _BLOCK indices (even
    with none, gauss_irreducible_count(q, d) < q^d <= 2^13)."""
    return _low_digits(field.p, gauss_irreducible_count(field.q, d),
                       (degree - d) * field.k, _BLOCK)


def _strike_tables(field, d, degree, wheel):
    """The tables that strike every multiple of degree `degree` of the monic
    irreducibles of degree d, all together (wheel: the dense pass's kept
    tables, None without one).

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
    (XOR adds it into lo when p = 2), sums the spread/fold pair or None.

    All but hi depend on d and the low digits alone (_residues and
    _strike_low_tables), and are kept; hi is built here from T^degree and
    the high digits."""
    q, p, digits = field.q, field.p, (degree - d) * field.k
    residues, strike = _strike_keys(field, _dense_degree(field, degree), d,
                                    degree)
    *_, low, width = strike
    steps, = _kept_tables(residues, lambda: _residues(field, d))
    lo, offsets, sums, cut, wsteps = _kept_tables(
        strike, lambda: _strike_low_tables(field, d, steps, low, width,
                                           wheel, degree))
    hi = _span(steps[:, digits, 1], steps[:, low:digits], sums)
    if cut is not None:
        # the shift of _restrict: the low value whose wheel word is the
        # one of T^degree and the high digits
        hi ^= _words(cut, _span(wsteps[:, digits, 1], wsteps[:, low:digits],
                                None))
    elif sums is not None:
        hi = sums[0][hi]
    return p ** low * q ** d, lo, hi.T[:, :, None], offsets, sums


def _strike_keys(field, D, d, degree):
    """The keys of the kept tables of the strike of degree d at this
    degree: its _residues, and its _strike_low_tables over the low digits
    of H, cut to `width` digits of the wheel or not (None)."""
    low = _strike_low(field, d, degree)
    width = _cut_width(field, D, low, (degree - d) * field.k)
    return ("residues", field, d), ("strike", field, d, low, width)


def _residues(field, d):
    """(steps,): the residues of every digit of H up to _top_degree mod the
    monic irreducibles of degree d, _basis_residues of their powers of T
    from T^d on.  uint16: below q^d <= 2^13, as the powers."""
    return (_basis_residues(field, _irreducible_powers(field, d)[:, d:],
                            d).astype(np.uint16),)


def _strike_low_tables(field, d, steps, low, width, wheel, degree):
    """(lo, offsets, sums, cut, wsteps) of the strike of degree d over `low`
    low digits of H (see _strike_tables; steps from _residues).  Where the
    strike keeps the cofactors that survive `width` digits of the wheel,
    cut is the shift's basis of _restrict and wsteps the steps of the wheel
    word of f, A and B there; else both None."""
    p, dk = field.p, d * field.k
    offsets = np.arange(p ** low, dtype=np.int32) * field.q ** d
    if width is not None:
        bits = wheel[0][:, 1] & (1 << width) - 1
        # each digit of H moves r by its step and f's index by its own digit
        wsteps = _words(bits[:dk], steps)
        wsteps[:, :, 1] ^= bits[dk:]
        lo, cut = _restrict(field, d, steps[:, :low], wsteps[:, :low],
                            _cofactor_wheel(field, width), degree)
        return lo, offsets, None, cut, wsteps.astype(np.uint16)
    sums = None if p == 2 else _spread_fold(p, dk)
    lo = _span(np.zeros(len(steps)), steps[:, :low], sums)
    if sums is None:
        return lo | offsets, offsets, None, None, None
    # spread values, below len(fold): often 16 bits
    lo = sums[0][lo].astype(np.min_scalar_type(len(sums[1]) - 1))
    return lo, offsets, sums, None, None


def _slots(field, D):
    """(lowest digit, digits) of the slot of each monic irreducible of
    degree <= D in the dense pass's packed encoding, in order (lazily)."""
    width = 0
    for d in range(1, D + 1):
        for _ in range(gauss_irreducible_count(field.q, d)):
            yield width, d * field.k
            width += d * field.k


def _cut_width(field, D, low, digits):
    """The digits of the wheel a strike with `low` of the `digits` digits
    of H in its table keeps the surviving cofactors of, or None: p = 2
    after a dense pass, the longest prefix of the dense pass's slots that
    fits in the low digits (the low bits of the packed word).  None where
    the marks the wheel saves per irreducible, over all p^digits values of
    H, are not more than the p^low entries of its table."""
    if field.p != 2 or not D:
        return None
    width, live = 0, 1
    for start, w in _slots(field, D):
        if start + w > low:
            break
        width, live = start + w, live * ((1 << w) - 1)
    saved = ((1 << width) - live) << (digits - width)
    return width if 1 << low < saved else None


def _cofactor_wheel(field, width):
    """alive[w]: whether no slot of the wheel word w of `width` digits is
    zero (p = 2; the slots of _slots within it, all of degree <= width)."""
    words = np.arange(1 << width)
    alive = np.ones(1 << width, dtype=bool)
    for start, w in _slots(field, width):
        if start + w > width:
            break
        alive &= words >> start & (1 << w) - 1 != 0
    return alive


def _words(bits, x):
    """The XOR of bits[..., t] over every set bit t of x (p = 2): one word
    per bit, or one row of them per row of x."""
    out = np.zeros(np.shape(x), dtype=np.int32)
    for t in range(bits.shape[-1]):
        out ^= (x >> t & 1) * bits[..., t, None]
    return out


def _restrict(field, d, steps, wsteps, alive, degree):
    """The p = 2 strike table lo of _strike_tables (steps: the residues of
    H's low digits mod each g; wsteps: what each moves the wheel word of f
    by) cut to the multiples f = g Q whose cofactor Q survives the wheel,
    the rule of a wheel sieve (Pritchard, Acta Inf. 17, 1982): g has degree
    d > D, so f has a factor in the wheel exactly when Q does, and the
    dense pass has cleared every such f.

    The wheel word of f is F_2-linear in the digits of f's index, so it is
    A[g, s] ^ B[g, b] over the low value s and high value b of H.  The
    first `width` digits of H already span the wheel's digits: Q's low part
    runs over every residue mod the wheel, and g is a unit mod it.  So
    s -> A[g, s] is a bijection for s < 2^width, which is checked, and
    every row keeps the same m low values S_g = {s : alive[A[g, s]]}, which
    are read through its inverse.  With A[g, s0] = B[g, b], the survivors of
    write b are S_g ^ s0; lo (offsets included) is XOR-linear in s, so the
    write is lo[g, S_g] ^ hi[b, g] ^ lo[g, s0].  Returns lo[g, S_g] and
    the shift's basis: w -> lo[g, s] of the s < 2^width with A[g, s] = w is
    XOR-linear, so cut[g, i] = its value at w = 2^i gives every degree's
    lo[g, s0] (_words).  Nothing checked depends on the degree being
    sieved (it only names it), so once per table is every time."""
    n, low, place = len(steps), steps.shape[1], field.q ** d
    width = len(alive).bit_length() - 1
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
    cut = lo_low[g, preimage]
    lo = lo_high[:, :, None] ^ cut[g[:, :, None], words_high[:, :, None]
                                   ^ np.flatnonzero(alive)]
    return lo.reshape(n, -1), cut[:, 1 << np.arange(width)]


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


def _wheel(field, D):
    """(packed, alive, spread, sums): the degree-independent tables of the
    dense pass over the degrees <= D (see _presieve_tables).  packed[t, c]
    encodes -(c x^l T^j mod g) for digit t = j*k + l up to _top_degree and
    every g at once, each g in its slot of _slots; alive over the spread
    sums of packed encodings; sums None when p = 2."""
    p = field.p
    slots = list(_slots(field, D))
    packed = 0
    for d in range(1, D + 1):
        rows = _irreducible_powers(field, d)
        starts = [start for start, w in slots if w == d * field.k]
        place = p ** np.array(starts)
        packed = packed + np.tensordot(
            place, _basis_residues(field, rows, d), axes=1)
    spread, fold = _spread_fold(p, sum(w for _, w in slots))
    sums = None if p == 2 else (spread, fold)
    alive = np.ones(len(fold), dtype=bool)
    for start, w in slots:
        alive &= fold // p ** start % p ** w != 0
    return packed, alive, spread, sums


def _presieve_tables(field, D, degree):
    """The tables of the dense pass that leaves True at the index of every
    monic f of the given degree that no irreducible of degree <= D divides.
    The wheel of a wheel sieve.

    -(f mod g) is F_p-linear in the base-p digits of f's index, plus
    -(T^degree mod g).  Each g owns a slot of deg g base-q digits in one
    packed encoding (_wheel), so the residues of every g add as one
    encoding, digit-wise mod p.  A block of p^L indices is a table over its
    L low digits plus one packed value over the high digits.  In spread
    form (base 2p - 1 digits, see _spread_fold) that sum carries nothing,
    so one boolean table over spread sums says whether no slot is zero, and
    a block is one gather from that table, offset by the block's high
    value.  The packed encodings of every digit, that table and spread
    depend on D alone (_wheel) and are kept; the low table, as large as a
    block, and the high values are built here.  Returns ((block, lo, hi,
    alive), the kept tables)."""
    p, k = field.p, field.k
    low = _low_digits(p, 1, degree * k, _BLOCK)
    wheel = packed, alive, spread, sums = _kept_tables(
        ("dense", field, D), lambda: _wheel(field, D))
    lo = spread[_span([0], packed[None, :low], sums)[0]].astype(np.intp)
    hi = spread[_span([packed[degree * k, 1]], packed[None, low:degree * k],
                      sums)[0]].tolist()
    return (p ** low, lo, hi, alive), wheel


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
    over degrees 1..D if D, then one strike per degree up to degree/2,
    each one's tables built as it is reached.  Their degree-independent
    parts are kept (_kept) under keys of what they depend on; every kept
    table this degree does not read is dropped before any is built."""
    for d in range(1, degree // 2 + 1):
        irreducible_indices(field, d)   # first: its sieve drops our tables
    reads = {key for d in range(D + 1, degree // 2 + 1)
             for key in _strike_keys(field, D, d, degree)}
    if D:
        reads.add(("dense", field, D))
    for key in list(_kept):
        if key not in reads:
            _kept.pop(key, None)
    wheel = None
    if D:
        tables, wheel = _presieve_tables(field, D, degree)
        yield _presieve, tables
        del tables
    for d in range(D + 1, degree // 2 + 1):
        yield _strike, _strike_tables(field, d, degree, wheel)


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


# The chunk tables of the modulus tallied last (_chunk_tables), by modulus:
# a tuple, replaced whole when it grows, so threads never see it half built.
_chunks = {}


def _chunk_digits(p):
    """Base-p digits per chunk of _tally_mod: a table of 2^_CHUNK_BITS
    entries at most."""
    return max(1, int(_CHUNK_BITS / math.log2(p)))


def _chunk_tables(m, count):
    """The first `count` chunk tables of _tally_mod for the modulus m and
    the spread/fold pair (None when p = 2).  Chunk c holds the residues mod
    m of every pattern of the digits [c w, (c + 1) w) of an encoding, up to
    _top_degree: none depends on the degree tallied.  They are built as
    first read and kept for m, and a tally mod another modulus drops them."""
    field = m.field
    p = field.p
    kept = _chunks.get(m)
    if kept:
        steps, sums, tables = kept
    else:
        powers = _power_encodings(field, np.array([m.monic().encode()]),
                                  m.degree, _top_degree(field))
        steps = _basis_residues(field, powers, m.degree, sign=1)
        sums = None if p == 2 else _spread_fold(p, m.degree * field.k)
        tables = ()
    width = _chunk_digits(p)
    for c in range(len(tables), count):
        table = _span([0], steps[:, c * width:(c + 1) * width], sums)[0]
        if sums is not None and c:
            table = sums[0][table]      # spread: below len(fold)
            table = table.astype(np.min_scalar_type(len(sums[1]) - 1))
        else:
            table = table.astype(np.min_scalar_type(field.q ** m.degree - 1))
        table.flags.writeable = False
        tables += (table,)
    _chunks.clear()                     # one modulus at a time
    _chunks[m] = steps, sums, tables
    return tables[:count], sums


def _tally_mod(m, idx, degree):
    """tally[r]: how many of the encoded f in idx (deg f <= degree) reduce
    mod m to the residue encoded r.

    Digit t = i*k + j of the base-p encoding is the x^j-coordinate of the T^i
    coefficient.  A chunk's table holds the residues of all its digit
    patterns (_chunk_tables, built once per modulus); lookups are added
    digit-wise mod p (XOR when p = 2, spread/fold otherwise), and the
    residues are tallied a block of idx at a time."""
    p = m.field.p
    width = _chunk_digits(p)
    tables, sums = _chunk_tables(m, -(-(degree + 1) * m.field.k // width))
    if sums is not None:
        spread, fold = sums
    chunk = p ** width
    tally = np.zeros(m.field.q ** m.degree, dtype=np.int64)
    for start in range(0, len(idx), _BLOCK):
        # digits - high * chunk: numpy's % takes several times as long
        digits = idx[start:start + _BLOCK]
        high = digits // chunk
        acc = tables[0][digits - high * chunk]
        for table in tables[1:]:
            digits, high = high, high // chunk
            if sums is None:
                acc ^= table[digits - high * chunk]
            else:
                acc = fold[spread[acc] + table[digits - high * chunk]]
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


def class_counts(m, degree):
    """pi(N; m, c) for every unit class c, a list in canonical class order,
    by enumerating all monic degree-N polynomials."""
    if degree < 1:
        raise UsageError("degree must be >= 1")
    G = unit_group(m)  # refuses a constant modulus
    tally = _class_tally(m, degree)
    # units are sorted by encoding: one gather reads every class
    found = tally[G.unit_index >= 0]
    excluded = int(tally.sum() - found.sum())
    expected = sum(1 for p, _ in factorize(m).factors if p.degree == degree)
    if excluded != expected:
        raise IntegrityError(
            "class accounting failed at degree %d mod %s over %r: %d "
            "irreducibles landed outside the unit classes, expected %d"
            % (degree, format_poly(m), m.field, excluded, expected))
    return found.tolist()


def sieve_count(m, degree):
    """Exact CountTable by enumerating all monic degree-N polynomials."""
    found = class_counts(m, degree)
    # every monic irreducible of the degree is enumerated
    return CountTable(m, degree, dict(zip(unit_group(m).units, found)),
                      gauss_irreducible_count(m.field.q, degree) - sum(found))
