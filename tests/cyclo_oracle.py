"""Reference arithmetic in Q(zeta_E) that ffrace itself never needs: Galois
images, the multiples zeta_E^j x, powers by repeated squaring and inverses
through the norm, against which products and the relation search are checked
exactly."""

from math import gcd

from ffrace.cyclo import CycloNum, _reduce, cyclotomic_poly
from ffrace.errors import UsageError


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
    return others * (1 / (x * others).rational_value)
