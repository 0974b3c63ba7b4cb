"""Reference arithmetic in Q(zeta_E) that ffrace itself never needs: the
roots of unity zeta_E^t, JSON input, rationality and traces, Galois images,
the multiples zeta_E^j x, powers by repeated squaring and inverses through the
norm, against which products and the relation search are checked exactly."""

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from ffrace.cyclo import CycloNum, _reduce, cyclotomic_poly
from ffrace.errors import UsageError
from ffrace.numth import euler_phi, mobius


def zeta(E, t=1):
    """zeta_E^t."""
    t %= E
    return CycloNum(E, _reduce(E, [0] * t + [1]), 1)


def from_json(obj):
    """The CycloNum of a CycloNum.to_json object."""
    fracs = [Fraction(s) for s in obj["coeffs"]]
    den = lcm(1, *(f.denominator for f in fracs))
    return CycloNum(obj["E"], [int(f * den) for f in fracs], den)


def is_rational(x):
    return not any(x.nums[1:])


def rational_value(x):
    if not is_rational(x):
        raise ValueError("not rational: %r" % (x,))
    return Fraction(x.nums[0], x.den)


@lru_cache(maxsize=None)
def ramanujan_sums(E):
    """Entry t = Tr_{Q(zeta_E)/Q}(zeta_E^t) = mu(r) phi(E) / phi(r) with
    r = E / gcd(t, E), for 0 <= t < E."""
    orders = [E // gcd(t, E) for t in range(E)]
    return tuple(mobius(r) * (euler_phi(E) // euler_phi(r)) for r in orders)


def trace(x):
    """Tr_{Q(zeta_E)/Q}, the sum of all phi(E) Galois images; a rational.
    Computed as the dot product of the coordinates with the Ramanujan sums
    Tr(zeta_E^j)."""
    R = ramanujan_sums(x.E)
    return Fraction(sum(c * R[j] for j, c in enumerate(x.nums)), x.den)


def galois(x, l):
    """Image of x under sigma_l: zeta -> zeta^l, gcd(l, E) = 1."""
    l %= x.E
    if gcd(l, x.E) != 1:
        raise UsageError("sigma_%d is not a Galois element for E=%d"
                         % (l, x.E))
    weights = [0] * x.E
    for i, c in enumerate(x.nums):
        weights[(i * l) % x.E] = c
    return CycloNum(x.E, _reduce(x.E, weights), x.den)


def zeta_multiples(x):
    """[zeta_E^j * x for j < E], by shifting the power basis and reducing by
    the monic Phi_E (zeta_E is a unit: no renormalizing)."""
    Phi, nums, out = cyclotomic_poly(x.E), x.nums, [x]
    for _ in range(x.E - 1):
        top, nums = nums[-1], (0,) + nums[:-1]
        nums = tuple(y - top * c for y, c in zip(nums, Phi))
        out.append(CycloNum(x.E, nums, x.den, True))
    return out


def power(x, n):
    """x^n by repeated squaring; a negative n inverts first."""
    if n < 0:
        return power(inverse(x), -n)
    out = CycloNum.from_rational(1, x.E)
    base = x
    while n:
        if n & 1:
            out = out * base
        base = base * base
        n >>= 1
    return out


def inverse(x):
    """1/x = (product of the conjugates sigma_l x, l != 1) / N(x), where
    the norm N(x), the product of all phi(E) conjugates, is a nonzero
    rational."""
    if x.is_zero:
        raise ZeroDivisionError("inverse of zero cyclotomic number")
    others = CycloNum.from_rational(1, x.E)
    for l in range(2, x.E):
        if gcd(l, x.E) == 1:
            others = others * galois(x, l)
    return others * (1 / rational_value(x * others))
