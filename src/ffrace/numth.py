"""Small integer number-theory helpers shared by the counting modules."""

from functools import lru_cache


@lru_cache(maxsize=None)
def prime_factors(n: int) -> tuple:
    """Distinct prime divisors of n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


@lru_cache(maxsize=None)
def divisors(n: int) -> tuple:
    """All positive divisors of n, ascending."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return tuple(small + large[::-1])


@lru_cache(maxsize=None)
def mobius(n: int) -> int:
    primes = prime_factors(n)
    if any(n % (p * p) == 0 for p in primes):
        return 0
    return (-1) ** len(primes)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    out = n
    for p in prime_factors(n):
        out = out // p * (p - 1)
    return out


def is_prime(n: int) -> bool:
    """Miller-Rabin on the bases 2, 3, 5, 7: exact below 3,215,031,751,
    the least strong pseudoprime to all four."""
    if n < 11:
        return n in (2, 3, 5, 7)
    r = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^r with d odd
    for a in (2, 3, 5, 7):
        x = pow(a, (n - 1) >> r, n)
        if x == 1:
            continue
        for _ in range(r):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def gauss_irreducible_count(q: int, n: int) -> int:
    """Number of degree-n monic irreducibles over F_q: (1/n) sum mu(d) q^(n/d)."""
    total = sum(mobius(d) * q ** (n // d) for d in divisors(n))
    assert total % n == 0
    return total // n
