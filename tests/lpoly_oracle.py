"""Reference oracle for l_polynomial: the character sums tallied one
polynomial at a time, against which its numpy pass over the group's dlog
array is compared."""

from group_oracle import value_exponent
from ffrace.cyclo import CycloNum
from ffrace.polyring import enumerate_monic


def character_sums(m, chi):
    """[sum of chi(f) over monic f of degree n, n = 0..deg(m)], with
    chi(f) = chi(f mod m) and zero off the units.  Entries 0..deg(m)-1 are the
    L-polynomial's coefficients; entry deg(m) vanishes for nontrivial chi."""
    G = chi.group
    E = G.exponent
    sums = []
    for n in range(m.degree + 1):
        tally = [0] * E
        for f in enumerate_monic(m.field, n):
            r = f % m
            if G.contains(r):
                tally[value_exponent(chi, r)] += 1
        sums.append(CycloNum.from_zeta_powers(E, tally))
    return sums
