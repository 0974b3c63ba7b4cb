"""The unit group (F_q[T]/m)^x and its Dirichlet characters.

Generators are found by subgroup peeling: repeatedly take the
canonically-smallest residue of maximal order in the current quotient, correct
it by an element of the subgroup built so far until its order equals its
quotient order, and extend.  This yields invariant factors d_1 | d_2 | ... |
d_r with d_r = exponent(group).  No element is stepped through its powers:
the exponent is read off the factorization of m, an element's order is found
by peeling the primes of the exponent (a^(t/p) = 1?) and its quotient order,
which divides that order, by peeling the primes again (a^(t/p) in the
subgroup?), each test one modular power.

Units and characters are positions in one row-major grid over the invariant
factors (the dual group has the same ones): units[i] sits at the position
of its dlog vector, all_characters(G)[ci] at position ci.  So b -> b^n and
chi -> chi^k are index maps, power_index(n) and character_power_index(k).
"""

from functools import cached_property, lru_cache
from itertools import product
from math import gcd, lcm

import numpy as np

from .errors import UsageError
from .field import field_tables
from .limits import MAX_GROUP_ORDER, check
from .numth import prime_factors
from .polyring import Poly, enumerate_monic, factorize, format_poly, powmod


def group_order(m):
    """Phi(m) = prod over P^e || m of q^(deg P (e-1)) (q^deg P - 1)."""
    q = m.field.q
    out = 1
    for p, e in factorize(m).factors:
        out *= q ** (p.degree * (e - 1)) * (q ** p.degree - 1)
    return out


def group_exponent(m):
    """lcm over P^e || m of (q^deg P - 1) p^ceil(log_p e).  The units mod P^e
    are (F_q[T]/P)^x times the p-group 1 + P, and (1 + y)^(p^k) = 1 + y^(p^k)
    makes the exponent of the latter the least power of p that is >= e."""
    field = m.field
    out = 1
    for P, e in factorize(m).factors:
        wild = 1
        while wild < e:
            wild *= field.p
        out = lcm(out, (field.q ** P.degree - 1) * wild)
    return out


class UnitGroup:
    """Units mod m with discrete logarithms onto invariant-factor generators."""

    def __init__(self, modulus):
        if modulus.degree < 1:
            raise UsageError("modulus must have degree >= 1")
        order = group_order(modulus)
        check(MAX_GROUP_ORDER, "unit group mod %s" % format_poly(modulus),
              order)
        self.modulus = modulus
        self.field = modulus.field
        self.deg = modulus.degree
        units = [Poly.from_index(self.field, i)
                 for i in range(self.field.q ** self.deg)]
        # a unit is a residue that no prime factor of m divides
        primes = [P for P, _e in factorize(modulus).factors]
        units = [u for u in units if all(u % P for P in primes)]
        units.sort(key=lambda u: u.sort_key())
        self.units = tuple(units)
        self.order = len(units)
        assert self.order == order, "unit count differs from Phi(m)"
        self._build_generators()
        self._build_monic_classes()

    # --- construction -------------------------------------------------------
    def _mul(self, a, b):
        return (a * b) % self.modulus

    def _peel(self, a, t, holds):
        """Least s with holds(a^s), given holds(a^t), where the s with
        holds(a^s) are the multiples of one number (a^s = 1, or a^s in a
        subgroup), so that number divides t: divide t by each prime p while
        holds(a^(t/p))."""
        for p in prime_factors(t):
            while t % p == 0 and holds(powmod(a, t // p, self.modulus)):
                t //= p
        return t

    def _has_order(self, x, t):
        """x^t = 1 and x^(t/p) != 1 for every prime p | t."""
        one = Poly.one(self.field)
        return (powmod(x, t, self.modulus) == one
                and all(powmod(x, t // p, self.modulus) != one
                        for p in prime_factors(t)))

    def _build_generators(self):
        one = Poly.one(self.field)
        exponent = group_exponent(self.modulus)
        elt_orders = {}  # unit -> its order, found once across rounds
        gens, orders = [], []
        # subgroup generated so far: element -> exponent vector over gens
        sub = {one: ()}
        # every quotient order divides the quotient's exponent: the group's
        # in round one; after that it divides both the previous generator's
        # order (the invariant factors divide each other) and the quotient's
        # order
        bound = exponent
        while len(sub) < self.order:
            # canonically-smallest residue of maximal order in the quotient;
            # one whose quotient order cannot beat best_t is skipped, and one
            # that reaches the bound has the maximal order
            best_t, best_a = 0, None
            for a in self.units:
                n = elt_orders.get(a)
                if n is None:
                    n = elt_orders[a] = self._peel(a, exponent, one.__eq__)
                n = gcd(n, bound)
                if n <= best_t:
                    continue
                # quotient order; in round one it is the order itself
                t = self._peel(a, n, sub.__contains__) if gens else n
                if t > best_t:
                    best_t, best_a = t, a
                    if t == bound:
                        break
            t, a = best_t, best_a
            # a^t = prod gens[i]^inside[i]
            inside = sub[powmod(a, t, self.modulus)]
            # correct a by a subgroup element so that its order becomes t:
            # need s_i with t*s_i = -e_i (mod d_i); solvable since
            # e_i = u_i * t (mod d_i) for some u_i.
            x = a
            for i, (g, d) in enumerate(zip(gens, orders)):
                e = inside[i]
                gg = gcd(t, d)
                assert e % gg == 0, "peeling invariant violated"
                s = (-(e // gg) * pow(t // gg, -1, d // gg)) % (d // gg)
                if s:
                    x = self._mul(x, powmod(g, s, self.modulus))
            assert self._has_order(x, t), "adjusted generator has wrong order"
            gens.append(x)
            orders.append(t)
            pows = [one]
            for _ in range(t - 1):
                pows.append(self._mul(pows[-1], x))
            sub = {self._mul(h, xp): vec + (j,)
                   for h, vec in sub.items() for j, xp in enumerate(pows)}
            bound = gcd(t, self.order // len(sub))
        # ascending invariant factors d_1 | ... | d_r = exponent
        gens.reverse()
        orders.reverse()
        for i in range(len(orders) - 1):
            assert orders[i + 1] % orders[i] == 0, "not invariant-factor form"
        self.generators = tuple(gens)
        self.gen_orders = tuple(orders)
        self.exponent = orders[-1] if orders else 1
        assert self.exponent == exponent, "top invariant factor != exponent"
        assert len(sub) == self.order
        # the logs, row i for units[i]; read-only, as unit_group hands one
        # group to every caller
        self.dlog_array = np.array(
            [sub[u][::-1] for u in self.units],
            dtype=np.int64).reshape(self.order, len(gens))
        self.dlog_array.setflags(write=False)
        # the unit index at every position of the row-major grid over
        # gen_orders, the inverse of the units' positions
        self.unit_at = np.empty(self.order, dtype=np.int64)
        self.unit_at[self._positions(1)] = np.arange(self.order)
        self.unit_at.setflags(write=False)

    def _build_monic_classes(self):
        """monic_classes[n] = the unit indices of f mod m over the monic f of
        degree n prime to m, in encoding order, n = 0..deg m: the residues an
        L-polynomial tallies.  Also unit_index: the unit index of every
        residue encoding, -1 off the units (read-only)."""
        q, M = self.field.q, self.deg
        index = np.full(q ** M, -1, dtype=np.int64)
        index[[u.encode() for u in self.units]] = np.arange(self.order)
        index.setflags(write=False)
        self.unit_index = index
        top = [(f % self.modulus).encode()
               for f in enumerate_monic(self.field, M)]
        found = [index[q ** n:2 * q ** n] for n in range(M)] + [index[top]]
        self.monic_classes = tuple(ix[ix >= 0] for ix in found)
        for ix in self.monic_classes:
            ix.setflags(write=False)

    # --- queries ------------------------------------------------------------
    def _positions(self, n):
        """The grid position of units[i]^n for every i."""
        if not self.gen_orders:  # the trivial group: one position
            return np.zeros(self.order, dtype=np.int64)
        return np.ravel_multi_index(
            (self.dlog_array * (n % self.exponent) % self.gen_orders).T,
            self.gen_orders)

    def power_index(self, n):
        """The unit index of units[i]^n for every i (n may be negative)."""
        return self.unit_at[self._positions(n)]

    def character_power_index(self, k):
        """The index of chars[ci]^k in all_characters order for every ci:
        chars[ci] has the exponents of the logs of units[unit_at[ci]]."""
        return self._positions(k)[self.unit_at]

    @cached_property
    def scalar_index(self):
        """scalar_index[c - 1, i] = the unit index of c units[i], for every c
        in F_q^x (read-only; built on first use, by the non-monic fold)."""
        q, M = self.field.q, self.deg
        place = q ** np.arange(M)
        # units are sorted by encoding; deg c u < deg m, so the scaled
        # coefficient rows need no reduction
        digits = np.flatnonzero(self.unit_index >= 0)[:, None] // place % q
        index = self.unit_index[field_tables(self.field)[1][1:, digits]
                                @ place]
        index.setflags(write=False)
        return index

    def contains(self, u):
        code = u.encode()
        return (u.field == self.field and code < len(self.unit_index)
                and self.unit_index[code] >= 0)

    def order_of(self, u):
        if not self.contains(u):
            raise UsageError("%s is not a unit mod %s" % (u, self.modulus))
        vec = self.dlog_array[self.unit_index[u.encode()]].tolist()
        return lcm(1, *(d // gcd(e, d) for e, d in zip(vec, self.gen_orders)))

    @property
    def is_cyclic(self):
        return len(self.generators) <= 1

    def __repr__(self):
        return "UnitGroup(%s; order=%d, factors=%s)" % (
            self.modulus, self.order, list(self.gen_orders))


@lru_cache(maxsize=None)
def _group_cache(field, coeffs):
    return UnitGroup(Poly(field, coeffs))


def unit_group(m):
    return _group_cache(m.field, m.coeffs)


class Character:
    """chi(g_i) = zeta_{d_i}^{k_i} on the group's generators, extended by zero
    off the units.  Addressed by its exponent vector."""

    __slots__ = ("group", "exps")

    def __init__(self, group, exps):
        exps = tuple(exps)
        if len(exps) != len(group.generators):
            raise UsageError("character needs %d exponents"
                             % len(group.generators))
        if any(not 0 <= k < d for k, d in zip(exps, group.gen_orders)):
            raise UsageError("character exponents out of range %s" % (exps,))
        self.group = group
        self.exps = exps

    @property
    def is_trivial(self):
        return not any(self.exps)

    def value_exponents(self):
        """t(a) with chi(a) = zeta_E^t(a) for every unit a, in canonical
        class order, as one product with the group's dlog array:
        sum_i k_i (E/d_i) dlog_i(a) mod E."""
        G = self.group
        E = G.exponent
        weights = np.array([k * (E // d)
                            for k, d in zip(self.exps, G.gen_orders)],
                           dtype=np.int64)
        return G.dlog_array @ weights % E

    def __eq__(self, other):
        return (isinstance(other, Character) and self.group == other.group
                and self.exps == other.exps)

    def __hash__(self):
        return hash((id(self.group), self.exps))

    def label(self):
        return ",".join(str(k) for k in self.exps)

    def __repr__(self):
        return "chi[%s]" % self.label()


def all_characters(G):
    """All Phi(m) characters, exponent vectors in lexicographic order (the
    trivial character first)."""
    return [Character(G, exps)
            for exps in product(*[range(d) for d in G.gen_orders])]


def parse_character(G, text):
    """CLI addressing: comma-separated exponent vector, e.g. '1' or '1,0'."""
    try:
        exps = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError("bad character spec %r" % (text,))
    if len(exps) != len(G.gen_orders):
        raise UsageError("character spec %r needs %d exponents (orders %s)"
                         % (text, len(G.gen_orders), list(G.gen_orders)))
    return Character(G, tuple(k % d for k, d in zip(exps, G.gen_orders)))
