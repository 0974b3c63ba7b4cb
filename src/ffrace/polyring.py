"""Dense polynomials over F_q: ring arithmetic, irreducibility, factorization,
and canonical enumeration.

A polynomial is encoded as the integer sum(c_i * q^i); within one degree this
coincides with comparing coefficient vectors most-significant-first, so the
integer encoding *is* the canonical order used for table rows, generator
choices and tie-breaking.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import UsageError
from .numth import prime_factors


class Poly:
    """Immutable dense polynomial over a FieldSpec.  coeffs[i] is the T^i
    coefficient; no trailing zeros; the zero polynomial has coeffs == ()."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    # --- constructors -----------------------------------------------------
    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (1,))

    @classmethod
    def const(cls, field, c):
        return cls(field, (field.from_int(c),))

    @classmethod
    def T(cls, field):
        return cls(field, (0, 1))

    @classmethod
    def from_index(cls, field, idx):
        """Inverse of encode(): base-q digits of idx are the coefficients."""
        q = field.q
        cs = []
        while idx:
            cs.append(idx % q)
            idx //= q
        return cls(field, cs)

    # --- structure --------------------------------------------------------
    @property
    def degree(self):
        """-1 is the zero-polynomial sentinel."""
        return len(self.coeffs) - 1

    @property
    def lc(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def encode(self):
        q = self.field.q
        out = 0
        for c in reversed(self.coeffs):
            out = out * q + c
        return out

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash(self.coeffs)  # __eq__ tells fields apart

    def __bool__(self):
        return bool(self.coeffs)

    # --- arithmetic -------------------------------------------------------
    def _check(self, other):
        if self.field != other.field:
            raise UsageError("mixed fields: %r vs %r" % (self.field, other.field))

    def __add__(self, other):
        self._check(other)
        F = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = F.add(out[i], c)
        return Poly(F, out)

    def __neg__(self):
        F = self.field
        return Poly(F, [F.neg(c) for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        F = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(F)
        out = [0] * (len(a) + len(b) - 1)
        add, mul = F.add, F.mul
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[i + j] = add(out[i + j], mul(x, y))
        return Poly(F, out)

    def scale(self, c):
        F = self.field
        c = F.from_int(c) if not (0 <= c < F.q) else c
        return Poly(F, [F.mul(c, x) for x in self.coeffs])

    def __divmod__(self, other):
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        F = self.field
        r = list(self.coeffs)
        d = other.degree
        if self.degree < d:
            return Poly.zero(F), self
        inv_lc = F.inv(other.lc)
        quo = [0] * (self.degree - d + 1)
        sub, mul = F.sub, F.mul
        oc = other.coeffs
        for i in range(len(r) - 1, d - 1, -1):
            c = r[i]
            if c:
                t = mul(c, inv_lc)
                quo[i - d] = t
                for j in range(d + 1):
                    r[i - d + j] = sub(r[i - d + j], mul(t, oc[j]))
        return Poly(F, quo), Poly(F, r[:d])

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative polynomial power")
        out, base = Poly.one(self.field), self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def monic(self):
        if self.is_zero:
            return self
        return self.scale(self.field.inv(self.lc))

    def __repr__(self):
        return "Poly(%r, %s)" % (self.field, format_poly(self))


def poly_gcd(f, g):
    """Monic gcd."""
    while not g.is_zero:
        f, g = g, f % g
    return f.monic() if not f.is_zero else f


def powmod(base, e, mod):
    """base^e mod `mod` by repeated squaring."""
    out, b = Poly.one(base.field), base % mod
    while e:
        if e & 1:
            out = (out * b) % mod
        b = (b * b) % mod
        e >>= 1
    return out


class ResidueRing:
    """F_q[T]/m on encodings.  A residue is its n = k deg m base-p digits,
    its F_p-coordinates in the basis b_s = alpha^j T^i, s = k i + j, where
    alpha^j is encoded p^j.  The digits of x y are sum x_s y_t S[s, t] mod p
    with S[s, t] = digits(b_s b_t mod m), so L products are one (L, n^2) @
    (n^2, n) product and multiplying by a fixed x is one n x n matrix.  In
    int64 the sums stay below n^2 p^3 < 2^24 n^2, far under 2^63."""

    def __init__(self, m):
        from .field import field_tables  # field imports this module
        F, M = m.field, m.degree
        self.p, self.n = F.p, F.k * M
        self.place = F.p ** np.arange(self.n)
        # b_s b_t = alpha^j alpha^j' T^(i+i'): F_q coefficients, then digits
        i, j = np.divmod(np.arange(self.n), F.k)
        T = [(Poly.T(F) ** e % m).coeffs for e in range(2 * M - 1)]
        T = np.array([c + (0,) * (M - len(c)) for c in T])
        mul = field_tables(F)[1]
        coeffs = mul[mul[F.p ** j[:, None], F.p ** j][..., None],
                     T[i[:, None] + i]]
        self.tensor = (coeffs[..., None] // self.place[:F.k] % F.p).reshape(
            self.n, self.n * self.n)
        self._rows = max(1, 2 ** 16 // self.n ** 2)  # products per block

    def digits(self, codes):
        """Digit rows of the residues with these encodings."""
        return np.asarray(codes)[..., None] // self.place % self.p

    def codes(self, X):
        return X @ self.place

    def mul(self, X, Y):
        """Rows x y for the rows x of X and y of Y, in blocks of rows."""
        n, step = self.n, self._rows
        X, Y = X.reshape(-1, n), Y.reshape(-1, n)
        out = np.empty(X.shape, dtype=np.int64)
        for lo in range(0, len(X), step):
            outer = X[lo:lo + step, :, None] * Y[lo:lo + step, None, :]
            out[lo:lo + step] = (outer.reshape(-1, n * n)
                                 @ self.tensor.reshape(n * n, n) % self.p)
        return out

    def times(self, X, x):
        """Rows x' x for rows x' of X and one residue x (S is symmetric)."""
        by_x = x.reshape(-1) @ self.tensor % self.p
        return X @ by_x.reshape(self.n, self.n) % self.p

    def power_rows(self, Y, x, count):
        """Rows y x^j for j < count and the rows y of Y, j-major, by
        doubling: each step one matrix of multiplication by x^(2^i)."""
        size = len(Y) * count
        while len(Y) < size:
            Y = np.vstack([Y, self.times(Y[:size - len(Y)], x)])
            x = self.mul(x, x) if len(Y) < size else x
        return Y

    def pow(self, X, e):
        """Rows x^e for rows x of X (e >= 0), by squaring."""
        X, out = X.reshape(-1, self.n), None
        while e:
            if e & 1:
                out = X if out is None else self.mul(out, X)
            e >>= 1
            X = self.mul(X, X) if e else X
        if out is None:  # e = 0
            return self.digits(np.ones(len(X), dtype=np.int64))
        return out


def is_irreducible(f):
    """Monic f of degree >= 1.  Standard criterion: T^(q^n) = T (mod f) and
    gcd(T^(q^(n/l)) - T, f) = 1 for every prime l | n."""
    if not f.is_monic or f.degree < 1:
        raise UsageError("is_irreducible needs a monic polynomial of degree >= 1")
    n = f.degree
    if n == 1:
        return True
    F = f.field
    q = F.q
    t = Poly.T(F)
    # frob[i] = T^(q^i) mod f, computed once up the tower
    frob = [t % f]
    x = frob[0]
    for _ in range(n):
        x = powmod(x, q, f)
        frob.append(x)
    if frob[n] != t % f:
        return False
    for l in prime_factors(n):
        g = poly_gcd(frob[n // l] - t, f)
        if g.degree != 0:
            return False
    return True


@dataclass(frozen=True)
class Factorization:
    """Complete factorization unit * prod(p_i^e_i) with monic irreducible p_i,
    listed in canonical (degree, encoding) order."""
    unit: int
    factors: tuple  # of (Poly, multiplicity)

    def reassemble(self, field):
        out = Poly.const(field, self.unit)
        for p, e in self.factors:
            out = out * p ** e
        return out


# degree_layers and factorize keep 256 moduli each: a few Poly of degree
# <= deg m, at most 2.4 KB for a modulus in both at MAX_GROUP_ORDER.
@lru_cache(maxsize=256)
def degree_layers(f):
    """((d, layers), ...) for each degree d of the irreducible factors P of
    the monic f, ascending: layers[k] is the product of those with
    P^(k+1) | f, by gcds with T^(q^d) - T once lower degrees are divided out
    (no factor search).  Memoized: the group order and factorize share one
    pass per modulus."""
    out = []
    rem, frob, d = f, Poly.T(f.field), 0  # frob = T^(q^d) mod rem
    while rem.degree >= 1:
        d += 1
        if 2 * d > rem.degree:  # every factor has degree >= d: one is left
            out.append((rem.degree, (rem,)))
            break
        frob = powmod(frob, f.field.q, rem)
        layers = [poly_gcd(frob - Poly.T(f.field), rem)]
        while layers[-1].degree > 0:
            rem = rem // layers[-1]
            layers.append(poly_gcd(rem, layers[-1]))
        if len(layers) > 1:
            out.append((d, tuple(layers[:-1])))
            frob = frob % rem
    return tuple(out)


@lru_cache(maxsize=256)
def factorize(f):
    """Factor f (degree >= 1) into monic irreducibles with multiplicities.

    Degrees are extracted ascending (degree_layers); a degree with several
    factors is split by scanning the candidates dividing its squarefree part
    in encoding order, each with the multiplicity of the layers it divides.
    Memoized; a Factorization is frozen and its Polys are immutable.
    """
    if f.degree < 1:
        raise UsageError("cannot factor a constant")
    out = []
    for d, layers in degree_layers(f.monic()):
        part = layers[0]
        for cand in enumerate_monic(f.field, d) if part.degree > d else [part]:
            if part.degree == 0:
                break
            if (part % cand).is_zero:
                out.append((cand, sum((x % cand).is_zero for x in layers)))
                part = part // cand
    out.sort(key=lambda pe: pe[0].encode())
    fact = Factorization(unit=f.lc, factors=tuple(out))
    assert fact.reassemble(f.field) == f, "factorization does not reassemble"
    return fact


def enumerate_monic(field, degree):
    """All q^degree monic polynomials of the given degree, in encoding order."""
    if degree < 0:
        raise UsageError("degree must be >= 0")
    q = field.q
    base = q ** degree
    for t in range(base):
        yield Poly.from_index(field, base + t)


# --- literal grammar ------------------------------------------------------
# terms c*T^e | T^e | T | c joined by '+'; emitted with descending exponents.

def parse_poly(field, text):
    s = text.replace(" ", "")
    if not s:
        raise UsageError("empty polynomial literal")
    coeffs = {}
    for term in s.split("+"):
        if not term:
            raise UsageError("bad polynomial literal %r" % (text,))
        if "T" in term:
            head, _, tail = term.partition("T")
            if head.endswith("*"):
                head = head[:-1]
            if head and not head.isdigit():
                raise UsageError("bad coefficient in %r" % (text,))
            c = int(head) if head else 1
            if tail:
                if not tail.startswith("^") or not tail[1:].isdigit():
                    raise UsageError("bad exponent in %r" % (text,))
                e = int(tail[1:])
            else:
                e = 1
        else:
            if not term.isdigit():
                raise UsageError("bad term %r in %r" % (term, text))
            c, e = int(term), 0
        c = field.from_int(c)
        coeffs[e] = field.add(coeffs.get(e, 0), c)
    deg = max(coeffs) if coeffs else 0
    return Poly(field, [coeffs.get(i, 0) for i in range(deg + 1)])


def format_poly(f):
    if f.is_zero:
        return "0"
    terms = []
    for e in range(f.degree, -1, -1):
        c = f.coeffs[e]
        if not c:
            continue
        if e == 0:
            terms.append(str(c))
        elif e == 1:
            terms.append("T" if c == 1 else "%d*T" % c)
        else:
            terms.append("T^%d" % e if c == 1 else "%d*T^%d" % (c, e))
    return "+".join(terms)
