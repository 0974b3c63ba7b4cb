"""Reference arithmetic in Q(zeta_E) that ffrace itself never needs: powers
by repeated squaring and inverses through the norm, against which products
are checked exactly."""

from math import gcd

from ffrace.cyclo import CycloNum


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
            others = others * x.galois(l)
    return others * (1 / (x * others).rational_value)
