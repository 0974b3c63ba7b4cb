"""The sieve: exact per-congruence-class counts of monic irreducibles of one
degree, by exhaustive enumeration.

Polynomials are enumerated through their integer encodings (base-q digit
vectors, each F_q digit a vector of base-p digits).  The monic f of degree
N are sieved one segment of consecutive encodings at a time, a segmented
sieve of Eratosthenes (Bays and Hudson, "The segmented sieve of
Eratosthenes and primes in arithmetic progressions to 10^12", BIT 17,
1977): one reused bool per f of the segment, cleared where f is a multiple
of an irreducible of degree <= N/2 outside the wheel (below), and read
only at the f that no irreducible of the wheel divides.  The survivors of
each segment are appended to an int32 array allocated once at the
closed-form (Gauss) count of irreducibles, which is checked as the array
fills and again at the end.  A segment holds about 2^20 encodings, so the
working set is the output and tables of at most _BLOCK entries, not q^N
bytes.

The wheel of a wheel sieve (Pritchard, Acta Inf. 17, 1982) is the field's
first irreducibles in order of degree, as many as keep its row table within
_ROWS entries: the degrees <= 3 over F2, T, T + 1, T + 2 and T^2 + 1 over
F3, the four linear ones over F4, four of the five over F5, one to three
from F7 up (W digits in all).  A degree below twice the wheel's top degree,
or of fewer than W digits, has no wheel and strikes every degree.  f mod g
is F_p-linear in the digits of f, the residues of all of them share one
packed word, and the W low digits of an index are the coefficients of f
below the degree of their product M, so they map one to one onto the words
(f mod M).  Each block of p^W indices therefore has one fixed sorted row of
live low values (no residue zero) per word of its high digits, and the
survivors are read from the segment at those positions alone: 0.14 of them
over F2, 0.26 over F3, 0.32 over F4, 0.41 over F5.  No pass clears what the
wheel divides.  The other irreducibles of degree <= N/2 are struck in
division form: for g of degree d and a monic H of degree N - d, the one
multiple of g with H above T^d is f = H T^d + r, r = -(H T^d mod g), and its
index is enc(H - T^(N-d)) q^d + enc(r), plain integer arithmetic.  r is
F_p-linear in the base-p digits of H, so it is a table over a low block of
digits, shifted once per value of the high digits, for all irreducibles of
one degree together.  In every characteristic a strike of several writes
keeps only the multiples f = g Q whose cofactor Q survives the wheel, the
rule of a wheel sieve: every other f has a factor in the wheel, which the
scan never reads.  The wheel word of f is F_p-linear in the digits of H too,
and its low digits reach every word, so each irreducible keeps the same
share of low values, shifted per write by the low value that cancels the
high digits' word (a little more where the low block spans only a prefix of
the wheel's slots).  A segment is a whole number of the wheel's blocks and
of every degree's writes.  Sums of encodings are digit-wise mod p: XOR when
p = 2, otherwise fold[spread[a] + spread[b]] through two small tables; an
odd-p write adds r and the shifted low value through one fold each.  f mod
m is F_p-linear in the digits of f in the same way, so the irreducibles are
reduced a chunk of digits at a time, by lookups in tables over the chunk's
digit patterns, and tallied per residue a block at a time.

What is built how often:
- once per field and degree d of irreducibles, while among the last 12
  read: the residues of every digit of H mod each g (_residues), from T^j
  mod g for every g of degree d and every j up to the largest degree the
  sieve takes, walked by r -> T r mod g (_irreducible_powers);
- once per strike, while among the last 8 read: its table over its low
  digits of H with the wheel's cut (_strike_low_tables), keyed by d, the
  first irreducible outside the wheel, the low digits, the cut and the
  wheel;
- once per field and wheel, while among the last 3 read: the wheel's
  packed words of every digit, its rows of live low values and the
  spread/fold pair of its words (_wheel);
- once per degree: each strike's shifts hi and the word of every block of
  the scan, from T^degree and the high digits;
- once per modulus, while it is among the last few tallied: the chunk
  tables of the residues mod m (_chunk_tables).
Each bound is the smallest that builds no table twice in a pass of any
benchmark workload.  Every cached array is read-only: threads that race on
a key build equal tables, and each sieves with the ones it holds.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import count

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
# encodings per tally of residues and indices per write of _strike.
_CHUNK_BITS = 16
_BLOCK = 1 << 16
# Encodings per sieve segment: the largest power of p up to this, raised to
# a multiple of every strike write's stretch and of the wheel's block (all
# powers of p), or q^N if that is smaller.
_SEGMENT = 1 << 20
# Entries of the largest wheel row table (rows of live low values), and
# positions the scan reads per chunk (2^16 raised the peak RSS of a
# wide-group pass by 0.3-0.6 MB, and took no less time).
_ROWS = 1 << 18
_SCAN = 1 << 14


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
    when p = 2, where nothing spreads)."""
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


def _irreducible_powers(field, d):
    """Encodings of T^j mod g for every monic irreducible g of degree d
    (rows, in order) and every j up to _top_degree; read by the cached
    _residues and _wheel alone.  uint16: the sieve divides by degrees d with
    q^d <= 2^13."""
    return _power_encodings(field, irreducible_indices(field, d), d,
                            _top_degree(field)).astype(np.uint16)


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


def _add(a, b, sums):
    """a (+) b, digit-wise mod p: XOR where sums is None (p = 2), else
    through the (spread, fold) pair of the encodings."""
    if sums is None:
        return a ^ b
    spread, fold = sums
    return fold[spread[a] + spread[b]]


def _span(start, steps, sums):
    """table[i, h] = start[i] (+) the sum of steps[i, t, digit t of h] over
    every vector h of steps.shape[1] base-p digits (index h, digit 0 lowest),
    for every row i (sums as in _add)."""
    table = np.asarray(start, dtype=np.int32)[:, None]
    for t in range(steps.shape[1]):
        table = _add(steps[:, t, :, None], table[:, None, :], sums)
        table = table.reshape(len(steps), -1)
    return table


def _negation(p, width, sums):
    """neg[w] = -w digit-wise mod p, for every w of `width` digits."""
    if p == 2:
        return np.arange(2 ** width)
    steps = -np.arange(p) % p * p ** np.arange(width)[:, None]
    return _span([0], steps[None], sums)[0]


def _flat(at, width):
    """at[i, ...] + i width: indices into row i of a table of rows of
    `width` entries, into the table raveled (a 2-d fancy index takes
    several times as long)."""
    return at + (np.arange(len(at)) * width).reshape(
        (-1,) + (1,) * (at.ndim - 1))


def _inverse(table):
    """(inverse, reached): inverse[i, w] (int32) an s with table[i, s] = w
    for every row i and word w < table.shape[1], and how many words each
    row reaches (all of them where it is one to one)."""
    n, size = table.shape
    at = _flat(table, size).ravel()
    inverse = np.zeros(at.shape, dtype=np.int32)
    inverse[at] = np.tile(np.arange(size, dtype=np.int32), n)
    hit = np.zeros(at.shape, dtype=bool)
    hit[at] = True
    return inverse.reshape(n, size), hit.reshape(n, size).sum(axis=1)


def _narrow(values, bound):
    """values in the smallest integer type that holds every value below
    bound."""
    return values.astype(np.min_scalar_type(bound - 1))


def _read_only(*tables):
    """tables, each array among them made read-only: they are cached."""
    for table in tables:
        if isinstance(table, np.ndarray):
            table.flags.writeable = False
    return tables


@lru_cache(maxsize=None)
def _wheel_slots(field):
    """(lowest digit, digits, degree) of the slot of each irreducible of
    the field's wheel in its packed word, in order of degree and encoding
    (a slot holds the residue mod its irreducible): the longest such
    prefix whose rows, p^W of them for its W digits with one entry per
    live word, hold at most _ROWS entries."""
    slots, start, live = [], 0, 1
    for d in count(1):
        for _ in range(gauss_irreducible_count(field.q, d)):
            w = d * field.k
            live *= field.p ** w - 1
            if field.p ** (start + w) * live > _ROWS:
                return tuple(slots)
            slots.append((start, w, d))
            start += w


def _within(field, width):
    """The slots of the wheel within the lowest `width` digits."""
    return [slot for slot in _wheel_slots(field)
            if slot[0] + slot[1] <= width]


def _wheel_width(field, degree):
    """The digits W of the wheel of a sieve of the given degree: all of
    the field's wheel where its slots have degree <= degree/2 and lie
    within the degree's digits; else 0, no wheel."""
    start, w, top = _wheel_slots(field)[-1]
    width = start + w
    return width if 2 * top <= degree and width <= degree * field.k else 0


def _live(field, width):
    """live[w]: whether no slot of the wheel word w of `width` digits is
    zero (the slots within it)."""
    words = np.arange(field.p ** width)
    live = np.ones(len(words), dtype=bool)
    for start, w, _ in _within(field, width):
        live &= words // field.p ** start % field.p ** w != 0
    return live


def _packed(field, width):
    """packed[t, c] (int32) encodes -(c x^l T^j mod g) for digit t = j*k +
    l up to _top_degree and every g of the slots within `width` digits at
    once, each g in its slot: the wheel word that digit t of an index moves
    by when it is c."""
    p = field.p
    packed = np.zeros(((_top_degree(field) + 1) * field.k, p), dtype=np.int64)
    slots = _within(field, width)
    for d in sorted({d for *_, d in slots}):
        starts = [start for start, _, e in slots if e == d]
        rows = _irreducible_powers(field, d)[:len(starts)]
        packed += np.tensordot(p ** np.array(starts),
                               _basis_residues(field, rows, d), axes=1)
    return packed.astype(np.int32)


# 3 wheels: at most 0.35 MB each (F8 at W = 9: 512 rows of 343).
@lru_cache(maxsize=3)
def _wheel(field, width):
    """(packed, rows, sums), read-only: the wheel of the slots within
    `width` digits (_packed), rows[s] the sorted low values u < p^width
    whose word plus s has no slot zero, and the spread/fold pair of the
    words (None when p = 2).

    The low W = `width` digits of an index are the coefficients of f below
    the degree of the product M of the wheel's irreducibles, so their words
    are f mod M, one to one (checked), and every row holds the same number
    of live values."""
    p = field.p
    packed = _packed(field, width)
    sums = None if p == 2 else _spread_fold(p, width)
    words = _span([0], packed[None, :width], sums)[0]
    inverse, reached = _inverse(words[None])
    if reached[0] < len(words):
        raise IntegrityError(
            "wheel of the %d irreducibles within %d digits over F%d is not "
            "one to one: the low digits reach %d of %d words"
            % (len(_within(field, width)), width, field.q, reached[0],
               len(words)))
    # the word of u (+) t is the word of u plus the word of t: row s is the
    # live values of row 0 (+) -inverse[s]
    neg = _negation(field.p, width, sums)[inverse[0]]
    rows = _add(_narrow(np.flatnonzero(_live(field, width)[words]),
                        len(words)), _narrow(neg, len(words))[:, None], sums)
    rows = _narrow(rows, len(words))
    rows.sort(axis=1)
    return _read_only(packed, rows, sums)


def _scan_tables(field, width, degree, span):
    """(block, rows, shifts, at, keep) of the scan of a sieve of the given
    degree through its wheel of `width` digits, over segments of `span`
    encodings: each block of p^width indices is one row of the wheel,
    shifts[j] the word of block j's high digits and T^degree; at and keep
    hold the positions of a chunk of blocks, at most _SCAN, and whether
    each survives (reused: fresh ones per chunk raised the peak RSS)."""
    packed, rows, sums = _wheel(field, width)
    shifts = _span([packed[degree * field.k, 1]],
                   packed[None, width:degree * field.k], sums)[0]
    chunk = (min(max(1, _SCAN // rows.shape[1]), span // len(rows)),
             rows.shape[1])
    return (len(rows), rows, shifts.astype(rows.dtype),
            np.empty(chunk, dtype=np.intp), np.empty(chunk, dtype=bool))


def _scan(seg, base, tables):
    """(at, keep) of each chunk of blocks of seg, the bool segment of the
    encodings from base on, in order: at the live low values of each
    block relative to base, ascending (its row of the wheel), keep whether
    seg holds True there.  seg is read only at those positions."""
    block, rows, shifts, at, keep = tables
    step = len(at) * block
    for start in range(0, len(seg), step):
        starts = np.arange(start, min(start + step, len(seg)), block)
        first = (base + start) // block
        n = len(starts)
        np.add(rows[shifts[first:first + n]], starts[:, None], out=at[:n])
        np.take(seg, at[:n], out=keep[:n])
        yield at[:n].ravel(), keep[:n].ravel()


def _struck(field, degree):
    """(d, first) of every strike of a sieve of the given degree: each
    degree d <= degree/2 from its first irreducible outside the wheel."""
    inside = [d for *_, d in _within(field, _wheel_width(field, degree))]
    return [(d, inside.count(d)) for d in range(1, degree // 2 + 1)
            if inside.count(d) < gauss_irreducible_count(field.q, d)]


def _strike_low(field, d, first, degree):
    """Low digits of H per row of a strike table of degree d from the
    irreducible `first` on: the most with p^low times its irreducibles
    within _BLOCK indices (even with all, gauss_irreducible_count(q, d) <
    q^d <= 2^13)."""
    return _low_digits(field.p, gauss_irreducible_count(field.q, d) - first,
                       (degree - d) * field.k, _BLOCK)


def _cut_width(field, wheel, low, digits):
    """The digits of the wheel (`wheel` digits) whose surviving cofactors a
    strike with `low` of the `digits` digits of H in its table keeps: its
    longest prefix of slots within the low digits; 0 (every multiple)
    where the marks that saves per irreducible, over all p^digits values
    of H, are not more than the p^low entries of its table."""
    p, width, live = field.p, 0, 1
    for start, w, _ in _within(field, min(wheel, low)):
        width, live = start + w, live * (p ** w - 1)
    saved = (p ** width - live) * p ** (digits - width)
    return width if p ** low < saved else 0


def _strike_tables(field, d, first, degree):
    """The tables that strike every multiple of degree `degree` of the monic
    irreducibles of degree d from the irreducible `first` on (those before
    it are in the wheel), all together.

    f = H T^d + r is a multiple of g exactly when r = -(H T^d mod g), for
    every monic H of degree e = degree - d; f's index is then
    enc(H - T^e) q^d + enc(r).  r is F_p-linear in the base-p digits of H:
    its values over a low block of digits are one table per g, lo (one row
    per g), shifted once per value b of the high digits by hi[b] (one
    entry per g).  The write of b covers the indices [b stride,
    (b + 1) stride).  lo holds only the multiples whose cofactor survives
    the wheel (_restrict).  Returns (stride, lo, hi, folds): when p = 2 lo
    holds the whole low index and a write is lo ^ hi[b]; else lo is (r,
    low value, high value), hi[b] (r, low value), each in spread form,
    and folds the fold tables of both, the low value's scaled by q^d.

    All but hi depend on d, the first irreducible, the low digits and the
    cut alone, and are cached (_residues and _strike_low_tables); hi is
    built here from T^degree and the high digits."""
    p, digits = field.p, (degree - d) * field.k
    low = _strike_low(field, d, first, degree)
    wheel = _wheel_width(field, degree)
    width = _cut_width(field, wheel, low, digits)
    lo, hsteps, s0steps, sums = _strike_low_tables(field, d, first, low,
                                                   width, wheel)
    stride = p ** low * field.q ** d

    def shifts(steps, sums):
        """One row per write: T^degree and its high digits' steps."""
        table = _span(steps[:, digits, 1], steps[:, low:digits], sums)
        return (table if sums is None else sums[0][table]).T[:, :, None]
    if sums is None:
        return stride, lo, shifts(hsteps, None), None
    rsums, wsums, scaled = sums
    return (stride, lo, (shifts(hsteps, rsums), shifts(s0steps, wsums)),
            (rsums[1], scaled))


# 12 degrees: at most 2.1 MB each (F89 at d = 2; 35 KB over F2).
@lru_cache(maxsize=12)
def _residues(field, d):
    """The residues of every digit of H up to _top_degree mod the monic
    irreducibles of degree d, _basis_residues of their powers of T from T^d
    on; read-only.  uint16: below q^d <= 2^13, as the powers."""
    steps = _basis_residues(field, _irreducible_powers(field, d)[:, d:],
                            d).astype(np.uint16)
    steps.flags.writeable = False
    return steps


# 8 strikes: at most 2.3 MB each, 1.6 MB of it the fold table of r (F81 at
# d = 2).
@lru_cache(maxsize=8)
def _strike_low_tables(field, d, first, low, width, wheel):
    """(lo, hsteps, s0steps, sums), read-only, of the strike of degree d
    from the irreducible `first` on over `low` low digits of H, cut to the
    cofactors that survive the slots within `width` digits of the wheel of
    `wheel` digits (see _strike_tables and _restrict).  sums: the
    spread/fold pairs of r and of the cut's words, then the scaled fold of
    the low value; s0steps and sums None when p = 2."""
    p = field.p
    steps = _residues(field, d)[first:]
    rsums = wsums = None
    if p != 2:
        rsums, wsums = _spread_fold(p, d * field.k), _spread_fold(p, width)
    lo, hsteps, s0steps = _restrict(field, d, steps, low, width, wheel,
                                    rsums, wsums)
    if p == 2:
        return _read_only(lo, hsteps, None, None)
    # the low value's fold, scaled to its place above r
    scaled = wsums[1] * field.q ** d
    _read_only(*lo, hsteps, s0steps, scaled)
    return lo, hsteps, s0steps, (rsums, wsums, scaled)


def _restrict(field, d, steps, low, width, wheel, rsums, wsums):
    """The strike table lo of _strike_tables over `low` low digits of H
    (steps: the residues r that each digit of H moves by mod each g) cut
    to the multiples f = g Q whose cofactor Q survives the slots of the
    wheel (of `wheel` digits) within `width` digits, the rule of a wheel
    sieve (Pritchard, Acta Inf. 17, 1982): g is not in the wheel, so f has
    a factor in it exactly when Q does, and the scan never reads such f.
    With width 0 every low value is kept.

    The wheel word of f is F_p-linear in the digits of H, so it is
    A[g, s] (+) B[g, b] over the low value s and high value b of H.  The
    first `width` digits of H already span the cut's digits: Q's low part
    runs over every residue mod the wheel, and g is a unit mod it.  So
    s -> A[g, s] is a bijection for s < p^width, which is checked, and
    every row keeps the same m low values S_g = {s : live[A[g, s]]}, which
    are read through its inverse.  With A[g, s0] = -B[g, b] (s0 < p^width),
    the survivors of write b are S_g (+) s0, and r is linear in s, so the
    write is r[g, S_g] (+) r[g, s0] (+) hi[b, g].  s0 and r[g, s0] are
    F_p-linear in the high digits as well: s0steps[g, t, c] is the s0 of
    digit t with value c alone, and hsteps its step of r plus r[g, s0].
    Returns (lo, hsteps, s0steps); when p = 2 lo and hsteps hold the
    whole low index, s0 at its place q^d included, and s0steps is None.
    Nothing checked depends on the degree being sieved, so once per table
    is every time."""
    p, n, place = field.p, len(steps), field.q ** d
    zeros = np.zeros(n)
    if not width:
        r = _span(zeros, steps[:, :low], rsums)
        values = np.arange(p ** low, dtype=np.int32) * place
        if p == 2:
            return r ^ values, steps, None
        return ((_narrow(rsums[0][r], len(rsums[1])),
                 np.zeros(r.shape, dtype=np.uint8), values), steps,
                np.zeros(steps.shape, dtype=np.uint8))
    # the word of f's slots within `width` digits that each digit of H
    # moves: through r, and as f's own digit dk + t
    packed = _wheel(field, wheel)[0] % p ** width
    words = _span([0], packed[None, :d * field.k], wsums)[0]
    wsteps = _add(words[steps], packed[d * field.k:], wsums)
    r_low = _span(zeros, steps[:, :width], rsums)
    r_high = _span(zeros, steps[:, width:low], rsums)
    a_high = _span(zeros, wsteps[:, width:low], wsums)
    back, reached = _inverse(_span(zeros, wsteps[:, :width], wsums))
    if (reached < p ** width).any():
        raise IntegrityError(
            "wheel restriction of the degree-%d strike over %d low digits, "
            "cut to %d wheel digits, over F%d is not rectangular: the low "
            "digits of irreducible %d reach %d of %d wheel words"
            % (d, low, width, field.q, reached.argmin(), reached.min(),
               p ** width))
    # back[g, w]: the low value whose word is -w, and r_back its r
    neg = _negation(p, width, wsums)
    back = back[:, neg]
    r_back = r_low.ravel()[_flat(back, p ** width)]
    s0steps = back.ravel()[_flat(wsteps, p ** width)]
    hsteps = _add(steps, r_back.ravel()[_flat(wsteps, p ** width)], rsums)
    # the survivors of high value h: the live words a, at word a_high - a
    live = np.flatnonzero(_live(field, width))
    at = _flat(_add(a_high[:, :, None], neg[live], wsums), p ** width)
    high = np.arange(a_high.shape[1], dtype=np.int32) * p ** width
    if p == 2:
        lo = (r_back ^ back * place).ravel()[at] ^ (r_high ^ high * place)[
            :, :, None]
        return lo.reshape(n, -1), hsteps ^ s0steps * place, None
    r = _add(r_high[:, :, None], r_back.ravel()[at], rsums)
    # spread values, below the lengths of the folds: often 16 bits
    lo = (_narrow(rsums[0][r], len(rsums[1])).reshape(n, -1),
          _narrow(wsums[0][back.ravel()[at]], len(wsums[1])).reshape(n, -1),
          np.repeat(high * place, len(live)).astype(np.int32))
    return lo, hsteps, _narrow(s0steps, p ** width)


def _strike(seg, base, tables):
    """Clear in seg, the bool segment of the encodings from base on, the
    writes of one degree's _strike_tables that fall in it."""
    stride, lo, hi, folds = tables
    # intp: fancy indices of another dtype are converted on every write
    buf = np.empty(np.shape(lo[0] if folds else lo), dtype=np.intp)
    if folds is not None:
        (r, low, high), (rfold, sfold) = lo, folds
        t, u, v = (np.empty(buf.shape, dtype=np.int32) for _ in range(3))
    for b in range(base // stride, (base + len(seg)) // stride):
        if folds is None:
            np.bitwise_xor(lo, hi[b], out=buf)
        else:
            np.add(r, hi[0][b], out=t)
            np.take(rfold, t, out=u)
            np.add(low, hi[1][b], out=t)
            np.take(sfold, t, out=v)
            np.add(u, v, out=buf)
            buf += high
        seg[b * stride - base:(b + 1) * stride - base][buf] = False


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
    struck = _struck(field, degree)
    width = _wheel_width(field, degree)
    strides = [p ** _strike_low(field, d, first, degree) * q ** d
               for d, first in struck] + [p ** width]
    span = min(size, max([p ** _low_digits(p, 1, degree * k, _SEGMENT)]
                         + strides))
    scan = _scan_tables(field, width, degree, span)
    passes = (_strike_tables(field, d, first, degree) for d, first in struck)
    if span < size:
        passes = list(passes)           # every segment reads every pass
    out = np.empty(gauss_irreducible_count(q, degree), dtype=np.int32)
    seg = np.empty(span, dtype=bool)
    filled = 0
    for base in range(0, size, span):
        seg.fill(True)
        for tables in passes:
            _strike(seg, base, tables)
            del tables      # one segment: one pass's tables at a time
        for at, keep in _scan(seg, base, scan):
            found = np.count_nonzero(keep)
            if filled + found > len(out):
                raise IntegrityError(
                    "irreducible count at degree %d over F%d exceeds the "
                    "Mobius closed form %d" % (degree, q, len(out)))
            # compress: a boolean index takes four times as long
            np.compress(keep, at, out=out[filled:filled + found])
            out[filled:filled + found] += size + base
            filled += found
    if filled < len(out):
        raise IntegrityError(
            "irreducible count at degree %d over F%d falls short of the "
            "Mobius closed form: %d of %d" % (degree, q, filled, len(out)))
    out.flags.writeable = False
    return out


def _chunk_digits(p):
    """Base-p digits per chunk of _tally_mod: a table of 2^_CHUNK_BITS
    entries at most."""
    return max(1, int(_CHUNK_BITS / math.log2(p)))


# 8 moduli: at MAX_GROUP_ORDER one holds at most 0.45 MB of tables, fold
# included (F3 at degree 7).
@lru_cache(maxsize=8)
def _chunk_tables(m):
    """The chunk tables of _tally_mod for the modulus m (read-only) and the
    spread/fold pair (None when p = 2).  Chunk c holds the residues mod m of
    every pattern of the digits [c w, (c + 1) w) of an encoding, up to
    _top_degree: none depends on the degree tallied.  All are built at once:
    a chunk no tally reads costs 24 us over F2 (2-core Xeon)."""
    field = m.field
    p = field.p
    powers = _power_encodings(field, np.array([m.monic().encode()]),
                              m.degree, _top_degree(field))
    steps = _basis_residues(field, powers, m.degree, sign=1)
    sums = None if p == 2 else _spread_fold(p, m.degree * field.k)
    width = _chunk_digits(p)
    tables = []
    for c in range(-(-steps.shape[1] // width)):
        table = _span([0], steps[:, c * width:(c + 1) * width], sums)[0]
        if sums is not None and c:
            table = sums[0][table]      # spread: below len(fold)
            table = table.astype(np.min_scalar_type(len(sums[1]) - 1))
        else:
            table = table.astype(np.min_scalar_type(field.q ** m.degree - 1))
        table.flags.writeable = False
        tables.append(table)
    return tuple(tables), sums


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
    tables, sums = _chunk_tables(m)
    tables = tables[:-(-(degree + 1) * m.field.k // width)]
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


# 128 tallies of q^deg m int64 entries: at most 32 KB at MAX_GROUP_ORDER.
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
