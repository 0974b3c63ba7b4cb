"""Exact arithmetic in small finite fields F_q, q = p^k, via full lookup tables.

Elements are integers 0..q-1; the base-p digits of an element are its
F_p-coordinates in the power basis of the canonical modulus.  The integer
encoding fixes a total order used for deterministic enumeration everywhere
downstream.
"""

from functools import lru_cache

import numpy as np

from .errors import UsageError
from .limits import MAX_Q, check
from .numth import prime_factors
from .polyring import Poly, ResidueRing, enumerate_monic, is_irreducible


@lru_cache(maxsize=None)
def _canonical_modulus(p, k):
    """Smallest (by integer encoding) monic irreducible of degree k over F_p."""
    return next(f for f in enumerate_monic(field_make(p), k)
                if is_irreducible(f)).coeffs


class FieldSpec:
    """Immutable description of F_q with precomputed add/mul/inv tables."""

    __slots__ = ("p", "k", "q", "modulus_poly", "_add", "_mul", "_neg", "_inv",
                 "_hash")

    def __init__(self, p, k=1):
        if k < 1:
            raise UsageError("extension degree must be >= 1")
        q = p ** k
        check(MAX_Q, "field F%d" % q, q)
        if prime_factors(p) != (p,):
            raise UsageError("p = %r is not prime" % (p,))
        self.p = p
        self.k = k
        self.q = q
        self.modulus_poly = _canonical_modulus(p, k) if k > 1 else ()
        self._build_tables()
        self._hash = hash((p, k, self.modulus_poly))

    def _build_tables(self):
        p, k, q = self.p, self.k, self.q
        if k == 1:
            self._add = [[(a + b) % p for b in range(p)] for a in range(p)]
            self._mul = [[(a * b) % p for b in range(p)] for a in range(p)]
            self._neg = [(-a) % p for a in range(p)]
        else:
            # element e <-> the polynomial over F_p with e's base-p digits,
            # mod the canonical modulus: sums digit-wise, products in a ring
            ring = ResidueRing(Poly(field_make(p), self.modulus_poly))
            digits = ring.digits(np.arange(q))
            self._add = [((a + digits) % p @ ring.place).tolist()
                         for a in digits]
            self._mul = [ring.codes(ring.times(digits, a)).tolist()
                         for a in digits]
            self._neg = (-digits % p @ ring.place).tolist()
        self._inv = [0] + [row.index(1) for row in self._mul[1:]]

    # --- element ops ------------------------------------------------------
    def add(self, a, b):
        return self._add[a][b]

    def sub(self, a, b):
        return self._add[a][self._neg[b]]

    def mul(self, a, b):
        return self._mul[a][b]

    def neg(self, a):
        return self._neg[a]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("division by zero in %s" % self)
        return self._inv[a]

    def mult_order(self, a):
        """Order of a in F_q^x."""
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative order")
        n, x = 1, a
        while x != 1:
            x = self._mul[x][a]
            n += 1
        return n

    def from_int(self, c):
        """Reduce an integer literal into the field (mod p for prime fields;
        encodings taken mod q for extensions)."""
        return c % self.q if self.k > 1 else c % self.p

    # --- identity ---------------------------------------------------------
    def __eq__(self, other):
        return (isinstance(other, FieldSpec)
                and (self.p, self.k, self.modulus_poly)
                == (other.p, other.k, other.modulus_poly))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "F%d" % self.q


@lru_cache(maxsize=None)
def field_make(p, k=1):
    """F_{p^k} with the canonical (encoding-smallest) irreducible modulus."""
    return FieldSpec(p, k)


@lru_cache(maxsize=8)
def field_tables(field):
    """F_q addition and multiplication as read-only (q, q) arrays, for
    vectorised arithmetic on arrays of element encodings."""
    add = np.array(field._add)
    mul = np.array(field._mul)
    add.flags.writeable = False
    mul.flags.writeable = False
    return add, mul


def parse_field(text):
    """Parse 'F2', 'F3', 'F4', ... into a FieldSpec (q must be a prime power)."""
    s = text.strip()
    if not s or s[0] not in "Ff" or not s[1:].isdigit():
        raise UsageError("bad field spec %r (expected e.g. 'F2', 'F9')" % (text,))
    q = int(s[1:])
    if q < 2:
        raise UsageError("bad field size %d" % q)
    check(MAX_Q, "field F%d" % q, q)  # before q is factored
    primes = prime_factors(q)
    if len(primes) != 1:
        raise UsageError("%d is not a prime power" % q)
    p, k = primes[0], 1
    while p ** k < q:
        k += 1
    return field_make(p, k)
