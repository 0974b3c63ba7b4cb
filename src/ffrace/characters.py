"""The unit group (F_q[T]/m)^x and its Dirichlet characters.

Generators are found by subgroup peeling: repeatedly take the first unit of
maximal order in the current quotient, correct it by an element of the
subgroup built so far until its order equals its quotient order, and extend,
for invariant factors d_1 | ... | d_r = exponent(group).  It runs on arrays
of digit rows (polyring.ResidueRing): the quotient orders of a block of units
by peeling the primes of a bound at once, the subgroup grown by doubling.

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
from .limits import MAX_GROUP_ORDER, check
from .numth import prime_factors
from .polyring import Poly, ResidueRing, degree_layers, factorize, format_poly


def group_order(m):
    """Phi(m) = prod over P^e || m of q^(deg P (e-1)) (q^deg P - 1), from the
    degrees and multiplicities of the P: no factor search before the limit."""
    q, out = m.field.q, 1
    for d, layers in degree_layers(m.monic()):
        out *= (q ** d - 1) ** (layers[0].degree // d) * q ** sum(
            x.degree for x in layers[1:])
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
        self.field = F = modulus.field
        self.deg = M = modulus.degree
        ring = self.ring = ResidueRing(modulus)
        # a unit is a residue that no prime factor P of m divides: whose
        # product with m / P is not 0
        residues = ring.digits(np.arange(F.q ** M))
        unit = np.ones(len(residues), dtype=bool)
        for P, _e in factorize(modulus).factors:
            unit &= ring.times(residues, ring.digits((modulus // P).encode())
                               ).any(axis=1)
        codes = np.flatnonzero(unit)
        self.order = len(codes)
        assert self.order == order, "unit count differs from Phi(m)"
        self._build_generators(residues[codes])
        # unit_index: the unit index of every residue encoding, -1 off the
        # units; monic_classes[n] = those of the monic f of degree n prime to
        # m, n <= M, in encoding order; T^M + r mod m = (T^M mod m) + r
        self.unit_index = np.where(unit, np.cumsum(unit) - 1, -1)
        self.unit_index.setflags(write=False)
        top = ring.digits((Poly.T(F) ** M % modulus).encode())
        top = self.unit_index[ring.codes((residues + top) % ring.p)]
        self.monic_classes = tuple(
            ix[ix >= 0] for ix in [self.unit_index[F.q ** n:2 * F.q ** n]
                                   for n in range(M)] + [top])
        for ix in self.monic_classes:
            ix.setflags(write=False)

    # --- construction -------------------------------------------------------
    def _orders(self, X, t, inside):
        """Least s with inside(x^s) for every row x of X, given s | t and a
        subgroup inside(codes): for each p^v || t, p divides s once for each
        i < v with x^(t p^i / p^v) outside."""
        ring, X = self.ring, np.atleast_2d(X)
        out = np.ones(len(X), dtype=np.int64)
        for p in prime_factors(t):
            pv = gcd(t, p ** t.bit_length())  # the p-part of t
            Y = ring.pow(X, t // pv)
            while pv > 1:
                out[~inside(ring.codes(Y))] *= p
                pv //= p
                Y = ring.pow(Y, p) if pv > 1 else Y
        return out

    def _has_order(self, X, t):
        """Whether each row of X has order t: its order peeled from the
        exponent, a multiple of every order."""
        return self._orders(X, group_exponent(self.modulus),
                            lambda codes: codes == 1) == t

    def _build_generators(self, units):
        ring, exponent = self.ring, group_exponent(self.modulus)
        gens, orders = [], []
        # the subgroup generated so far: digit rows, exponent vectors over
        # gens, and the row of every residue encoding in it (-1 outside)
        sub, vecs = ring.digits([1]), np.zeros((1, 0), dtype=np.int64)
        where = np.where(np.arange(self.field.q ** self.deg) == 1, 0, -1)
        # every quotient order divides the quotient's exponent: the group's
        # in round one; after that it divides both the previous generator's
        # order (the invariant factors divide each other) and the quotient's
        # order
        bound = exponent
        while len(sub) < self.order:
            # the first unit of maximal quotient order, over ever longer
            # prefixes of the units until one reaches the bound
            t, lo, hi = 0, 0, 64
            while lo < self.order and t < bound:
                found = self._orders(units[lo:hi], bound,
                                     lambda codes: where[codes] >= 0)
                if found.max() > t:
                    t, x = int(found.max()), units[lo + found.argmax()]
                lo, hi = hi, 4 * hi
            # x^t = prod gens[i]^inside[i]
            inside = vecs[where[ring.codes(ring.pow(x, t))[0]]]
            # correct x by a subgroup element so that its order becomes t:
            # need s_i with t*s_i = -e_i (mod d_i); solvable since
            # e_i = u_i * t (mod d_i) for some u_i.
            for g, d, e in zip(gens, orders, inside.tolist()):
                gg = gcd(t, d)
                assert e % gg == 0, "peeling invariant violated"
                s = (-(e // gg) * pow(t // gg, -1, d // gg)) % (d // gg)
                if s:
                    x = ring.mul(x, ring.pow(g, s))[0]
            assert self._has_order(x, t)[0], \
                "adjusted generator has wrong order"
            gens.append(x)
            orders.append(t)
            # row j*S + h is sub[h] x^j, j < t
            sub = ring.power_rows(sub, x, t)
            vecs = np.hstack([np.tile(vecs, (t, 1)),
                              np.repeat(np.arange(t), len(vecs))[:, None]])
            where[ring.codes(sub)] = np.arange(len(sub))
            bound = gcd(t, self.order // len(sub))
        # ascending invariant factors d_1 | ... | d_r = exponent
        gens.reverse()
        orders.reverse()
        for i in range(len(orders) - 1):
            assert orders[i + 1] % orders[i] == 0, "not invariant-factor form"
        self.generators = tuple(Poly.from_index(self.field, int(ring.codes(g)))
                                for g in gens)
        self.gen_orders = tuple(orders)
        self.exponent = orders[-1] if orders else 1
        assert self.exponent == exponent, "top invariant factor != exponent"
        assert len(sub) == self.order
        # the logs, row i for units[i]; read-only, as unit_group hands one
        # group to every caller
        self.dlog_array = vecs[where[ring.codes(units)], ::-1]
        self.dlog_array.setflags(write=False)
        # the unit index at every position of the row-major grid over
        # gen_orders, the inverse of the units' positions
        self.unit_at = np.empty(self.order, dtype=np.int64)
        self.unit_at[self._positions(1)] = np.arange(self.order)
        self.unit_at.setflags(write=False)

    # --- queries ------------------------------------------------------------
    @cached_property
    def units(self):
        """The units as Poly in canonical class order, ascending encoding,
        the order of every count: built on first read, where a class is
        named."""
        F, codes = self.field, np.flatnonzero(self.unit_index >= 0)
        return tuple(Poly(F, row) for row in (
            codes[:, None] // F.q ** np.arange(self.deg) % F.q).tolist())

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
        ring = self.ring
        units = ring.digits(np.flatnonzero(self.unit_index >= 0))
        index = np.array([self.unit_index[ring.codes(ring.times(units, c))]
                          for c in ring.digits(np.arange(1, self.field.q))])
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


# 16 groups, twice the counters explicit.explicit_counter keeps: every count
# through a counter asks for its group first, so a counter outlives its
# group only where other moduli's groups evict it, and then the two are
# equal builds, read by index.  A group holds at most 0.6 MB at
# MAX_GROUP_ORDER, its units and scalar_index included (F256 mod T+1, a
# scalar_index of 255 x 255 entries; 0.2 MB at order 1023 over F2).
@lru_cache(maxsize=16)
def unit_group(m):
    """The UnitGroup of m, shared by every caller."""
    return UnitGroup(m)


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
