"""Reference oracle for the unit group's log grid: discrete logs, powers and
character values computed one element at a time in Poly arithmetic from the
group's generators, against which UnitGroup.dlog_array, power_index,
character_power_index and Character.value_exponents are compared."""

from functools import lru_cache
from itertools import product
from math import gcd, lcm

from ffrace.characters import Character
from ffrace.errors import UsageError
from ffrace.polyring import Poly, powmod


def from_dlog(G, vec):
    """prod_i generators[i]^vec[i] mod m."""
    out = Poly.one(G.field)
    for g, e in zip(G.generators, vec):
        if e:
            out = (out * powmod(g, e, G.modulus)) % G.modulus
    return out


@lru_cache(maxsize=None)
def _dlogs(G):
    return {from_dlog(G, vec): vec
            for vec in product(*[range(d) for d in G.gen_orders])}


def dlog(G, u):
    """The exponent vector of the unit u over G's generators."""
    try:
        return _dlogs(G)[u]
    except KeyError:
        raise UsageError("%s is not a unit mod %s" % (u, G.modulus))


def unit_pow(G, u, n):
    """u^n using the discrete log (n may be negative)."""
    vec = dlog(G, u)
    return from_dlog(G, tuple((e * n) % d for e, d in zip(vec, G.gen_orders)))


def value_exponent(chi, a):
    """t with chi(a) = zeta_E^t."""
    G = chi.group
    E = G.exponent
    vec = dlog(G, a)
    return sum(k * e * (E // d)
               for k, e, d in zip(chi.exps, vec, G.gen_orders)) % E


def char_pow(chi, n):
    """chi^n."""
    return Character(chi.group, tuple((k * n) % d for k, d in
                                      zip(chi.exps, chi.group.gen_orders)))


def char_order(chi):
    """The order of chi: lcm over i of d_i / gcd(k_i, d_i)."""
    return lcm(1, *(d // gcd(k, d)
                    for k, d in zip(chi.exps, chi.group.gen_orders)))


def power_indices(G, n):
    """(the unit index of units[i]^n for every i, the index of chars[ci]^n
    in all_characters order for every ci), one element at a time."""
    units = {u: i for i, u in enumerate(G.units)}
    chars = [Character(G, exps)
             for exps in product(*[range(d) for d in G.gen_orders])]
    index = {chi.exps: ci for ci, chi in enumerate(chars)}
    return ([units[unit_pow(G, u, n)] for u in G.units],
            [index[char_pow(chi, n).exps] for chi in chars])
