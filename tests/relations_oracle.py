"""Reference oracle for lfunc.find_conjugate_relations: the same search in
Q(zeta_E).  Power sums are taken on one representative per Galois orbit of
characters and carried to the rest by sigma_l, the unit roots are stripped
by exact division by (1 - u), and every twist zeta_E^(tn) p_n(chi') is a
CycloNum, matched by its power-basis coordinates."""

from math import gcd

from cyclo_oracle import galois, zeta_multiples
from group_oracle import char_pow
from ffrace.cyclo import CycloNum
from ffrace.explicit import explicit_counter
from ffrace.lfunc import ConjugateRelation, LPolynomial


def orbit(counter):
    """orbit[ci] = (r, l): chars[ci] = chars[r]^l with l a unit mod E and r
    the first index of the Galois orbit (so r <= ci)."""
    E = counter.E
    orbit = [None] * len(counter.chars)
    units = [l for l in range(1, E + 1) if gcd(l, E) == 1]
    index = {chi.exps: ci for ci, chi in enumerate(counter.chars)}
    for ci, chi in enumerate(counter.chars):
        if orbit[ci] is None:
            for l in units:
                cj = index[char_pow(chi, l).exps]
                if orbit[cj] is None:
                    orbit[cj] = (ci, l)
    return orbit


def strip_unit_roots(L):
    """(k, stripped LPolynomial): exact division by (1-u)^k where k is the
    multiplicity of the inverse zero alpha = 1."""
    E = L.coeffs[0].E
    cs = list(L.coeffs)
    k = 0
    while len(cs) > 1:
        total = cs[0]
        for c in cs[1:]:
            total = total + c
        if not total.is_zero:
            break
        # exact: L = (1-u) Q with q_j = sum_{i<=j} a_i (the top partial
        # sum q_{d-1} = -a_d holds because the full sum vanishes)
        quo = []
        run = CycloNum.from_rational(0, E)
        for c in cs[:-1]:
            run = run + c
            quo.append(run)
        cs = quo
        k += 1
    return k, LPolynomial(L.chi, cs)


def conjugate_relations(m):
    """find_conjugate_relations(m), row for row, in Q(zeta_E)."""
    counter = explicit_counter(m)
    E = counter.E
    chars = counter.chars
    variants = {}  # (ci, stripped) -> p_1..p_d of chars[ci], d >= 1
    for ci, (r, l) in enumerate(orbit(counter)[1:], 1):
        L = counter.lpolys[r]
        k = strip_unit_roots(L)[0]  # sigma_l fixes the inverse zero 1
        psums = [galois(L.power_sum(n), l) for n in range(1, L.degree + 1)]
        if psums:
            variants[ci, False] = psums
        if k and L.degree > k:
            variants[ci, True] = [p - k for p in psums[:L.degree - k]]

    def coords(psums):
        return tuple((p.nums, p.den) for p in psums)

    # (stripped, coords of (zeta_E^(tn) p_n(chi'))_n) -> [(chi', t)] in
    # (chi', t) order; only twists equal to some chi's power sums are kept
    matches = {(flag, coords(ps)): [] for (_ci, flag), ps in variants.items()}
    for (ci, flag), psums in variants.items():
        twists = [zeta_multiples(p) for p in psums]
        for t in range(E):
            twisted = coords(tw[t * n % E] for n, tw in enumerate(twists, 1))
            found = matches.get((flag, twisted))
            if found is not None:
                found.append((ci, t))
    units = [l for l in range(1, E) if gcd(l, E) == 1]
    index = {chi.exps: ci for ci, chi in enumerate(chars)}
    return [ConjugateRelation(chi=chars[ci], other=chars[cj], l=l, t=t,
                              stripped=flag, size=len(psums))
            for (ci, flag), psums in variants.items() for l in units
            for cj, t in matches[flag, coords(
                variants[index[char_pow(chars[ci], l).exps], flag])]]
