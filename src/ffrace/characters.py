"""The unit group (F_q[T]/m)^x and its Dirichlet characters.

Generators are found by brute-force order computation and subgroup peeling:
repeatedly take the canonically-smallest residue of maximal order in the
current quotient, correct it by an element of the subgroup built so far until
its order equals its quotient order, and extend.  This yields invariant
factors d_1 | d_2 | ... | d_r with d_r = exponent(group).
"""

from functools import lru_cache
from itertools import product
from math import gcd, lcm

from .cyclo import CycloNum
from .errors import UsageError
from .polyring import Poly, factorize, format_poly, poly_gcd, powmod

# Largest supported unit-group order Phi(m): the generator search is
# quadratic in the order (order 1023 takes about 20 s).
MAX_GROUP_ORDER = 1024


def group_order(m):
    """Phi(m) = prod over P^e || m of q^(deg P (e-1)) (q^deg P - 1)."""
    q = m.field.q
    out = 1
    for p, e in factorize(m).factors:
        out *= q ** (p.degree * (e - 1)) * (q ** p.degree - 1)
    return out


class UnitGroup:
    """Units mod m with discrete logarithms onto invariant-factor generators."""

    def __init__(self, modulus):
        if modulus.degree < 1:
            raise UsageError("modulus must have degree >= 1")
        order = group_order(modulus)
        if order > MAX_GROUP_ORDER:
            raise UsageError(
                "unit group mod %s has order %d; the supported limit is %d"
                % (format_poly(modulus), order, MAX_GROUP_ORDER))
        self.modulus = modulus
        self.field = modulus.field
        self.deg = modulus.degree
        units = [Poly.from_index(self.field, i)
                 for i in range(self.field.q ** self.deg)]
        units = [u for u in units if poly_gcd(u, modulus).degree == 0]
        units.sort(key=lambda u: u.sort_key())
        self.units = tuple(units)
        self.order = len(units)
        assert self.order == order, "unit count differs from Phi(m)"
        self._index = {u: i for i, u in enumerate(units)}
        self._build_generators()

    # --- construction -------------------------------------------------------
    def _mul(self, a, b):
        return (a * b) % self.modulus

    def _elt_order(self, a):
        one = Poly.one(self.field)
        n, x = 1, a
        while x != one:
            x = self._mul(x, a)
            n += 1
        return n

    def _build_generators(self):
        one = Poly.one(self.field)
        gens, orders = [], []
        # subgroup generated so far: element -> exponent vector over gens
        sub = {one: ()}
        while len(sub) < self.order:
            # canonically-smallest residue of maximal order in the quotient
            best_t, best_a, best_pow = 0, None, None
            for a in self.units:
                t, x = 1, a
                while x not in sub:
                    x = self._mul(x, a)
                    t += 1
                if t > best_t:
                    best_t, best_a, best_pow = t, a, x
            t, a = best_t, best_a
            inside = sub[best_pow]  # a^t = prod gens[i]^inside[i]
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
            assert self._elt_order(x) == t, "adjusted generator has wrong order"
            gens.append(x)
            orders.append(t)
            sub = {self._mul(h, xp): vec + (j,)
                   for h, vec in sub.items()
                   for j, xp in enumerate(self._pows(x, t))}
        # ascending invariant factors d_1 | ... | d_r = exponent
        gens.reverse()
        orders.reverse()
        for i in range(len(orders) - 1):
            assert orders[i + 1] % orders[i] == 0, "not invariant-factor form"
        self.generators = tuple(gens)
        self.gen_orders = tuple(orders)
        self.exponent = orders[-1] if orders else 1
        self.dlog = {u: vec[::-1] for u, vec in sub.items()}
        assert len(self.dlog) == self.order

    def _pows(self, a, t):
        out = [Poly.one(self.field)]
        for _ in range(t - 1):
            out.append(self._mul(out[-1], a))
        return out

    # --- queries ------------------------------------------------------------
    def index_of(self, u):
        try:
            return self._index[u]
        except KeyError:
            raise UsageError("%s is not a unit mod %s" % (u, self.modulus))

    def contains(self, u):
        return u in self._index

    def from_dlog(self, vec):
        out = Poly.one(self.field)
        for g, e in zip(self.generators, vec):
            if e:
                out = self._mul(out, powmod(g, e, self.modulus))
        return out

    def unit_pow(self, u, n):
        """u^n using the discrete log (n may be negative)."""
        vec = self.dlog[u]
        return self.from_dlog(tuple((e * n) % d
                                    for e, d in zip(vec, self.gen_orders)))

    def order_of(self, u):
        vec = self.dlog[u]
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

    @property
    def order(self):
        return lcm(1, *(d // gcd(k, d)
                        for k, d in zip(self.exps, self.group.gen_orders)))

    def value_exponent(self, a):
        """t with chi(a) = zeta_E^t."""
        G = self.group
        E = G.exponent
        vec = G.dlog[a]
        return sum(k * e * (E // d)
                   for k, e, d in zip(self.exps, vec, G.gen_orders)) % E

    def value(self, a):
        return CycloNum.zeta(self.group.exponent, self.value_exponent(a))

    def __pow__(self, n):
        return Character(self.group, tuple((k * n) % d for k, d in
                                           zip(self.exps, self.group.gen_orders)))

    def __mul__(self, other):
        assert self.group is other.group or self.group == other.group
        return Character(self.group,
                         tuple((a + b) % d for a, b, d in
                               zip(self.exps, other.exps, self.group.gen_orders)))

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
