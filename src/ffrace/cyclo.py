"""Exact arithmetic in cyclotomic fields Q(zeta_E).

Elements live in the power basis 1, z, ..., z^(phi(E)-1) of Q[x]/(Phi_E(x)),
so equality is coefficient equality.  Internally a value is a tuple of integer
numerators over one positive denominator, which keeps the hot paths (character
sums, power sums, the counting formula) in pure integer arithmetic.
"""

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import UsageError
from .numth import divisors, euler_phi, ramanujan_sum


@lru_cache(maxsize=None)
def cyclotomic_poly(E):
    """Integer coefficients of Phi_E (ascending, monic), by exact division of
    x^E - 1 by Phi_d for proper divisors d."""
    if E == 1:
        return (-1, 1)
    rem = [-1] + [0] * (E - 1) + [1]
    for d in divisors(E):
        if d == E:
            continue
        phi_d = cyclotomic_poly(d)
        # exact synthetic division by the monic phi_d
        dd = len(phi_d) - 1
        quo = [0] * (len(rem) - dd)
        r = list(rem)
        for i in range(len(r) - 1, dd - 1, -1):
            c = r[i]
            if c:
                quo[i - dd] = c
                for j in range(dd + 1):
                    r[i - dd + j] -= c * phi_d[j]
        assert not any(r[:dd]), "inexact cyclotomic division"
        rem = quo
    assert rem[-1] == 1
    return tuple(rem)


@lru_cache(maxsize=None)
def _powrows(E):
    """Row j = integer coefficients of x^j mod Phi_E, for j up to
    max(E, 2*phi-1) - 1 (covers products of reduced elements and raw zeta
    powers)."""
    phi = euler_phi(E)
    Phi = cyclotomic_poly(E)
    top = max(E, 2 * phi - 1)
    rows = []
    for j in range(phi):
        row = [0] * phi
        row[j] = 1
        rows.append(tuple(row))
    for j in range(phi, top):
        # x^j = x * x^(j-1), then reduce the overflow coefficient
        prev = rows[j - 1]
        row = [0] + list(prev[:-1])
        c = prev[-1]
        if c:
            for i in range(phi):
                row[i] -= c * Phi[i]
        rows.append(tuple(row))
    return tuple(rows)


def _normalized(nums, den):
    if den < 0:
        nums = [-x for x in nums]
        den = -den
    g = den
    for x in nums:
        g = gcd(g, x)
        if g == 1:
            break
    if g > 1:
        nums = [x // g for x in nums]
        den //= g
    return tuple(nums), den


class CycloNum:
    """An element of Q(zeta_E), reduced mod Phi_E."""

    __slots__ = ("E", "nums", "den")

    def __init__(self, E, nums, den=1, _normalized_input=False):
        self.E = E
        if _normalized_input:
            self.nums = nums
            self.den = den
        else:
            phi = euler_phi(E)
            nums = list(nums)
            assert len(nums) == phi, "need phi(E) coefficients"
            self.nums, self.den = _normalized(nums, den)

    # --- constructors -----------------------------------------------------
    @classmethod
    def from_rational(cls, value, E=1):
        fr = Fraction(value)
        nums = [fr.numerator] + [0] * (euler_phi(E) - 1)
        return cls(E, nums, fr.denominator)

    @classmethod
    def zeta(cls, E, t=1):
        """zeta_E^t."""
        t %= E
        rows = _powrows(E)
        return cls(E, list(rows[t]), 1)

    @classmethod
    def from_zeta_powers(cls, E, weights):
        """sum weights[i] * zeta_E^i for an integer/Fraction weight vector of
        length E (the natural carrier for character-sum tallies)."""
        assert len(weights) == E
        den = 1
        if any(type(w) is Fraction for w in weights):
            den = lcm(*(w.denominator for w in weights
                        if type(w) is Fraction))
            weights = [int(w * den) for w in weights]
        phi = euler_phi(E)
        rows = _powrows(E)
        nums = [0] * phi
        for i, wi in enumerate(weights):
            if wi:
                row = rows[i]
                for j in range(phi):
                    if row[j]:
                        nums[j] += wi * row[j]
        return cls(E, nums, den)

    # --- coercion ---------------------------------------------------------
    def promote(self, E2):
        """Reinterpret in Q(zeta_E2) for E | E2 (zeta_E = zeta_E2^(E2/E))."""
        if E2 == self.E:
            return self
        if E2 % self.E:
            raise UsageError("cannot promote conductor %d to %d" % (self.E, E2))
        r = E2 // self.E
        weights = [0] * E2
        for i, c in enumerate(self.nums):
            weights[i * r] = c
        out = CycloNum.from_zeta_powers(E2, weights)
        return CycloNum(E2, out.nums, out.den * self.den)

    def _pair(self, other):
        if not isinstance(other, CycloNum):
            other = CycloNum.from_rational(other, 1)
        if self.E == other.E:
            return self, other
        L = lcm(self.E, other.E)
        return self.promote(L), other.promote(L)

    # --- ring ops ----------------------------------------------------------
    def __add__(self, other):
        a, b = self._pair(other)
        da, db = a.den, b.den
        if da == db:
            nums = [x + y for x, y in zip(a.nums, b.nums)]
            return CycloNum(a.E, nums, da)
        nums = [x * db + y * da for x, y in zip(a.nums, b.nums)]
        return CycloNum(a.E, nums, da * db)

    __radd__ = __add__

    def __neg__(self):
        return CycloNum(self.E, tuple(-x for x in self.nums), self.den,
                        _normalized_input=True)

    def __sub__(self, other):
        a, b = self._pair(other)
        return a + (-b)

    def __rsub__(self, other):
        a, b = self._pair(other)
        return b + (-a)

    def __mul__(self, other):
        if isinstance(other, int):
            return CycloNum(self.E, [x * other for x in self.nums], self.den)
        if isinstance(other, Fraction):
            return CycloNum(self.E, [x * other.numerator for x in self.nums],
                            self.den * other.denominator)
        a, b = self._pair(other)
        phi = len(a.nums)
        conv = [0] * (2 * phi - 1)
        for i, x in enumerate(a.nums):
            if x:
                bn = b.nums
                for j in range(phi):
                    y = bn[j]
                    if y:
                        conv[i + j] += x * y
        rows = _powrows(a.E)
        nums = list(conv[:phi])
        for j in range(phi, 2 * phi - 1):
            c = conv[j]
            if c:
                row = rows[j]
                for i in range(phi):
                    if row[i]:
                        nums[i] += c * row[i]
        return CycloNum(a.E, nums, a.den * b.den)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = CycloNum.from_rational(1, self.E)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def inverse(self):
        """Extended gcd of the coefficient polynomial with Phi_E over Q."""
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        Phi = [Fraction(c) for c in cyclotomic_poly(self.E)]
        a = [Fraction(n, self.den) for n in self.nums]

        def pdeg(p):
            d = len(p) - 1
            while d >= 0 and p[d] == 0:
                d -= 1
            return d

        def pdivmod(u, v):
            dv = pdeg(v)
            u = list(u)
            q = [Fraction(0)] * max(1, len(u) - dv)
            for i in range(pdeg(u), dv - 1, -1):
                c = u[i] / v[dv]
                if c:
                    q[i - dv] = c
                    for j in range(dv + 1):
                        u[i - dv + j] -= c * v[j]
            return q, u[:dv] if dv > 0 else [Fraction(0)]

        # xgcd(a, Phi): s*a + t*Phi = g (g constant since Phi_E is irreducible)
        r0, r1 = Phi, a
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while pdeg(r1) > 0:
            q, r = pdivmod(r0, r1)
            # s_next = s0 - q*s1
            prod = [Fraction(0)] * (len(q) + len(s1))
            for i, x in enumerate(q):
                if x:
                    for j, y in enumerate(s1):
                        prod[i + j] += x * y
            s_next = [Fraction(0)] * max(len(s0), len(prod))
            for i, x in enumerate(s0):
                s_next[i] += x
            for i, x in enumerate(prod):
                s_next[i] -= x
            r0, r1, s0, s1 = r1, r, s1, s_next
        g = r1[0]
        if g == 0:
            raise ZeroDivisionError("not invertible mod Phi_E")
        inv = [x / g for x in s1]
        phi = euler_phi(self.E)
        inv = (inv + [Fraction(0)] * phi)[:phi]
        den = 1
        for x in inv:
            den = lcm(den, x.denominator)
        return CycloNum(self.E, [int(x * den) for x in inv], den)

    # --- Galois / invariants ------------------------------------------------
    def galois(self, l):
        """Image under sigma_l: zeta -> zeta^l, gcd(l, E) = 1."""
        l %= self.E
        if gcd(l, self.E) != 1:
            raise UsageError("sigma_%d is not a Galois element for E=%d"
                             % (l, self.E))
        weights = [0] * self.E
        for i, c in enumerate(self.nums):
            if c:
                weights[(i * l) % self.E] += c
        out = CycloNum.from_zeta_powers(self.E, weights)
        return CycloNum(self.E, out.nums, out.den * self.den)

    def zeta_multiples(self):
        """[zeta_E^j * self for j < E], by shifting the power basis and
        reducing by the monic Phi_E (zeta_E is a unit: no renormalizing)."""
        Phi, nums, out = cyclotomic_poly(self.E), self.nums, [self]
        for _ in range(self.E - 1):
            top, nums = nums[-1], (0,) + nums[:-1]
            nums = tuple(x - top * c for x, c in zip(nums, Phi))
            out.append(CycloNum(self.E, nums, self.den, True))
        return out

    def conjugate(self):
        return self.galois(self.E - 1) if self.E > 2 else self

    def trace(self):
        """Tr_{Q(zeta_E)/Q}: sum of all Galois images; a rational."""
        total = CycloNum.from_rational(0, self.E)
        for l in range(1, self.E + 1):
            if gcd(l, self.E) == 1:
                total = total + self.galois(l)
        assert total.is_rational
        return total.rational_value

    @property
    def is_zero(self):
        return not any(self.nums)

    @property
    def is_rational(self):
        return not any(self.nums[1:])

    @property
    def rational_value(self):
        if not self.is_rational:
            raise ValueError("not rational: %r" % (self,))
        return Fraction(self.nums[0], self.den)

    def as_integer(self):
        v = self.rational_value
        if v.denominator != 1:
            raise ValueError("not an integer: %r" % (self,))
        return v.numerator

    @property
    def coeffs(self):
        return tuple(Fraction(n, self.den) for n in self.nums)

    def embed(self):
        """Complex floating image at zeta_E = exp(2*pi*i/E); diagnostics only."""
        z = cmath.exp(2j * cmath.pi / self.E)
        out = 0j
        for c in reversed(self.nums):
            out = out * z + c
        return out / self.den

    # --- identity / io -----------------------------------------------------
    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycloNum.from_rational(other, 1)
        if not isinstance(other, CycloNum):
            return NotImplemented
        a, b = self._pair(other)
        return a.nums == b.nums and a.den == b.den

    def __hash__(self):
        # Tr(x)/phi(E): unchanged by promotion, and r for a rational r
        tr = sum(x * ramanujan_sum(self.E, j) for j, x in enumerate(self.nums))
        return hash(Fraction(tr, euler_phi(self.E) * self.den))

    def to_json(self):
        return {"E": self.E, "coeffs": [str(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, obj):
        E = obj["E"]
        fracs = [Fraction(s) for s in obj["coeffs"]]
        den = 1
        for f in fracs:
            den = lcm(den, f.denominator)
        return cls(E, [int(f * den) for f in fracs], den)

    def __repr__(self):
        return "CycloNum(E=%d, [%s])" % (
            self.E, ", ".join(str(c) for c in self.coeffs))
