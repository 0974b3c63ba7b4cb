from math import cos, gcd, pi

from cyclo_oracle import ramanujan_sums
from ffrace.numth import (divisors, euler_phi, is_prime, mobius,
                          prime_factors)

N = 2000


def brute_divisors(n):
    return tuple(d for d in range(1, n + 1) if n % d == 0)


def test_divisors_and_prime_factors():
    primes = {p for p in range(2, N + 1) if brute_divisors(p) == (1, p)}
    for n in range(1, N + 1):
        divs = brute_divisors(n)
        assert divisors(n) == divs, n
        assert prime_factors(n) == tuple(d for d in divs if d in primes), n


def test_mobius_inverts_the_constant_one():
    # mu(1) = 1 and sum_{d | n} mu(d) = 0 for n > 1 define mu
    mu = {1: 1}
    for n in range(2, N + 1):
        mu[n] = -sum(mu[d] for d in brute_divisors(n)[:-1])
    for n in range(1, N + 1):
        assert mobius(n) == mu[n], n


def test_euler_phi_counts_units():
    for n in range(1, N + 1):
        assert euler_phi(n) == sum(1 for a in range(1, n + 1)
                                   if gcd(a, n) == 1), n


def test_ramanujan_sums_are_traces_of_roots_of_unity():
    for E in range(1, 121):
        units = [l for l in range(E) if gcd(l, E) == 1]
        expected = tuple(round(sum(cos(2 * pi * t * l / E) for l in units))
                         for t in range(E))
        assert ramanujan_sums(E) == expected, E


def test_is_prime_matches_trial_division():
    for n in range(-2, N + 1):
        assert is_prime(n) == (n > 1 and prime_factors(n) == (n,)), n
    # 2^25 - 39 is the largest prime below 2^25; 25326001 is a strong
    # pseudoprime to the bases 2, 3 and 5 (base 7 exposes it)
    assert is_prime(2 ** 25 - 39)
    assert not any(is_prime(n) for n in range(2 ** 25 - 38, 2 ** 25))
    assert not is_prime(25326001) and not is_prime(3 * 11 * 17)
