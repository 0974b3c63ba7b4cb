"""Exact arithmetic in cyclotomic fields Q(zeta_E).

Elements live in the power basis 1, z, ..., z^(phi(E)-1) of Q[x]/(Phi_E(x)),
so equality is coefficient equality.  Internally a value is a tuple of integer
numerators over one positive denominator, which keeps the L-polynomials,
their power sums and the --breakdown audit in pure integer arithmetic.  The
explicit counts themselves run modulo split primes (ffrace.explicit).
"""

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .errors import UsageError
from .numth import divisors, euler_phi


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
def _overflow_rows(E):
    """Entry j - phi(E) = x^j mod Phi_E for phi(E) <= j < E, as sparse
    ((i, coefficient), ...) rows."""
    phi = euler_phi(E)
    Phi = cyclotomic_poly(E)
    rows, row = [], [0] * (phi - 1) + [1]      # x^(phi-1)
    for _ in range(phi, E):
        # x^j = x * x^(j-1), then reduce the overflow coefficient
        top = row[-1]
        row = [0] + row[:-1]
        if top:
            row = [x - top * c for x, c in zip(row, Phi)]
        rows.append(tuple((i, c) for i, c in enumerate(row) if c))
    return tuple(rows)


def _reduce(E, vec):
    """Power-basis coordinates of sum vec[i] x^i mod Phi_E for an integer
    vector of any length: fold by x^E = 1, then replace each x^j with
    phi(E) <= j < E by its sparse row."""
    phi = euler_phi(E)
    if len(vec) > E:
        folded = list(vec[:E])
        for i in range(E, len(vec)):
            folded[i % E] += vec[i]
        vec = folded
    out = list(vec[:phi]) + [0] * (phi - len(vec))
    for row, c in zip(_overflow_rows(E), vec[phi:]):
        if c:
            for i, r in row:
                out[i] += c * r
    return out


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
    """An element of Q(zeta_E), reduced mod Phi_E.  A CycloNum belongs to one
    conductor E: an int or a Fraction combines with it as an element of
    Q(zeta_E), a CycloNum of another conductor is refused."""

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
    def from_rational(cls, value, E):
        fr = Fraction(value)
        nums = [fr.numerator] + [0] * (euler_phi(E) - 1)
        return cls(E, nums, fr.denominator)

    @classmethod
    def from_zeta_powers(cls, E, weights):
        """sum weights[i] * zeta_E^i for an integer weight vector of length E
        (the natural carrier for character-sum tallies)."""
        assert len(weights) == E
        return cls(E, _reduce(E, weights))

    # --- coercion ---------------------------------------------------------
    def _coerce(self, other):
        if not isinstance(other, CycloNum):
            return CycloNum.from_rational(other, self.E)
        if other.E != self.E:
            raise UsageError("cannot combine Q(zeta_%d) with Q(zeta_%d)"
                             % (self.E, other.E))
        return other

    # --- ring ops ----------------------------------------------------------
    def __add__(self, other):
        b = self._coerce(other)
        da, db = self.den, b.den
        if da == db:
            nums = [x + y for x, y in zip(self.nums, b.nums)]
            return CycloNum(self.E, nums, da)
        nums = [x * db + y * da for x, y in zip(self.nums, b.nums)]
        return CycloNum(self.E, nums, da * db)

    __radd__ = __add__

    def __neg__(self):
        return CycloNum(self.E, tuple(-x for x in self.nums), self.den,
                        _normalized_input=True)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, int):
            return CycloNum(self.E, [x * other for x in self.nums], self.den)
        if isinstance(other, Fraction):
            return CycloNum(self.E, [x * other.numerator for x in self.nums],
                            self.den * other.denominator)
        b = self._coerce(other)
        phi = len(self.nums)
        conv = [0] * (2 * phi - 1)
        for i, x in enumerate(self.nums):
            if x:
                bn = b.nums
                for j in range(phi):
                    y = bn[j]
                    if y:
                        conv[i + j] += x * y
        return CycloNum(self.E, _reduce(self.E, conv), self.den * b.den)

    __rmul__ = __mul__

    # --- invariants -------------------------------------------------------
    @property
    def is_zero(self):
        return not any(self.nums)

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
        if not isinstance(other, (int, Fraction, CycloNum)):
            return NotImplemented
        b = self._coerce(other)
        return self.nums == b.nums and self.den == b.den

    def to_json(self):
        return {"E": self.E, "coeffs": [str(c) for c in self.coeffs]}

    def __repr__(self):
        return "CycloNum(E=%d, [%s])" % (
            self.E, ", ".join(str(c) for c in self.coeffs))
