"""Finite commutative rings presented as products of local rings.

A ring is described by a spec string such as ``"Z/4"``, ``"Z/6"`` or
``"GF(2,2) x Z/9"``.  ``Z/N`` is factored into its prime-power parts, so
every ring is held in pre-factored form: an ordered tuple of local rings,
each either Z/p^k or a Galois field GF(p, k) with a fixed monic modulus.

Elements are tuples holding one integer code per local factor.  Codes make
equality, hashing and table lookups cheap; all arithmetic goes through the
owning ring object.
"""

from __future__ import annotations

import itertools
import math
import re


class RingError(Exception):
    """Base class for ring construction and arithmetic errors."""


class RingSpecError(RingError):
    """Malformed ring-spec string; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class RingMismatchError(RingError):
    """Element does not structurally belong to the ring."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization as an ordered list of (p, multiplicity)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            k = 0
            while n % d == 0:
                n //= d
                k += 1
            out.append((d, k))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


# -- polynomials over F_p, coefficients low-degree-first ----------------------

def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _poly_trim(out)


def _poly_rem(a, b, p):
    """Remainder of a mod b over F_p; b must have an invertible lead."""
    a = list(a)
    _poly_trim(a)
    db, lead = len(b) - 1, b[-1]
    linv = pow(lead, -1, p)
    while len(a) - 1 >= db and a:
        q = a[-1] * linv % p
        shift = len(a) - 1 - db
        for i, c in enumerate(b):
            a[shift + i] = (a[shift + i] - q * c) % p
        _poly_trim(a)
    return a


def _is_irreducible(poly, p):
    """Brute-force factor search: no monic divisor of degree 1..deg//2."""
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            g = list(tail) + [1]
            if not _poly_rem(poly, g, p):
                return False
    # degree-1 polynomials have no proper divisors; also reject constants
    return deg >= 1


def _smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible of degree k over F_p.

    Coefficient tuples (c_0, ..., c_{k-1}) are compared low-degree-first.
    """
    for tail in itertools.product(range(p), repeat=k):
        poly = tuple(tail) + (1,)
        if _is_irreducible(poly, p):
            return poly
    raise RingError(f"no irreducible of degree {k} over F_{p}")  # unreachable


class LocalRing:
    """One local factor: Z/p^k (kind "zmod") or GF(p, k) (kind "gf").

    Elements are integer codes in [0, size).  For zmod the code is the least
    non-negative residue.  For gf it encodes the coefficient vector
    (c_0, ..., c_{k-1}) of the residue polynomial as sum(c_i * p^i), and
    multiplication reduces modulo the stored monic modulus.
    """

    def __init__(self, kind: str, p: int, k: int, modulus=None):
        if kind not in ("zmod", "gf"):
            raise RingError(f"unknown local ring kind {kind!r}")
        if not _is_prime(p):
            raise RingError(f"{p} is not prime")
        if k < 1:
            raise RingError(f"exponent {k} must be >= 1")
        self.kind = kind
        self.p = p
        self.k = k
        self.size = p ** k
        if kind == "gf":
            if modulus is None:
                modulus = _smallest_irreducible(p, k)
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != k + 1 or modulus[-1] != 1:
                raise RingError("modulus must be monic of degree k")
            if not _is_irreducible(modulus, p):
                raise RingError(f"modulus {modulus} is reducible over F_{p}")
            self.modulus = modulus
        else:
            self.modulus = None
        self._build_tables()

    # element codes <-> values
    def coeffs(self, a: int) -> tuple[int, ...]:
        """Coefficient vector (c_0, ..., c_{k-1}) of a gf code."""
        p = self.p
        out = []
        for _ in range(self.k):
            out.append(a % p)
            a //= p
        return tuple(out)

    def value(self, a: int):
        """Human-facing value: the residue for zmod, coeff tuple for gf."""
        return a if self.kind == "zmod" else self.coeffs(a)

    def _encode(self, coeffs) -> int:
        out = 0
        for c in reversed(coeffs):
            out = out * self.p + c % self.p
        return out

    def _build_tables(self):
        q, p = self.size, self.p
        if self.kind == "zmod":
            self._add = tuple(tuple((a + b) % q for b in range(q)) for a in range(q))
            self._mul = tuple(tuple(a * b % q for b in range(q)) for a in range(q))
            self._neg = tuple(-a % q for a in range(q))
            self.one = 1 % q
        else:
            cs = [self.coeffs(a) for a in range(q)]
            self._add = tuple(
                tuple(self._encode([(x + y) % p for x, y in zip(cs[a], cs[b])])
                      for b in range(q))
                for a in range(q))
            self._neg = tuple(self._encode([-x % p for x in cs[a]]) for a in range(q))
            mul = []
            for a in range(q):
                row = []
                for b in range(q):
                    prod = _poly_mul(list(cs[a]), list(cs[b]), p)
                    rem = _poly_rem(prod, self.modulus, p)
                    rem += [0] * (self.k - len(rem))
                    row.append(self._encode(rem))
                mul.append(tuple(row))
            self._mul = tuple(mul)
            self.one = 1
        self.zero = 0
        units = []
        inv = {}
        for a in range(q):
            if self.kind == "zmod":
                is_u = a % p != 0
            else:
                is_u = a != 0
            if is_u:
                units.append(a)
        for a in units:
            row = self._mul[a]
            for b in units:
                if row[b] == self.one:
                    inv[a] = b
                    break
            else:
                raise RingError(f"no inverse for unit code {a}")  # unreachable
        self.units = tuple(units)
        self._inv = inv
        self.ideal = tuple(a for a in range(q) if a not in inv)

    def add(self, a, b):
        return self._add[a][b]

    def mul(self, a, b):
        return self._mul[a][b]

    def neg(self, a):
        return self._neg[a]

    def sub(self, a, b):
        return self._add[a][self._neg[b]]

    def is_unit(self, a) -> bool:
        return a in self._inv

    def inv(self, a):
        try:
            return self._inv[a]
        except KeyError:
            raise RingError(f"{self.value(a)} is not a unit") from None

    def unit_order(self, a) -> int:
        """Multiplicative order of a unit."""
        x, n = a, 1
        while x != self.one:
            x = self._mul[x][a]
            n += 1
        return n

    @property
    def residue_ring(self) -> "LocalRing":
        """Residue field of this local ring (itself when already a field)."""
        if self.k == 1 or self.kind == "gf":
            return self
        return LocalRing("zmod", self.p, 1)

    def reduce(self, a: int) -> int:
        """Code of a in the residue field."""
        if self.k == 1 or self.kind == "gf":
            return a
        return a % self.p

    @property
    def spec_str(self) -> str:
        if self.kind == "zmod":
            return f"Z/{self.size}"
        return f"GF({self.p},{self.k})"

    def _key(self):
        return (self.kind, self.p, self.k, self.modulus)

    def __eq__(self, other):
        return isinstance(other, LocalRing) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"LocalRing({self.spec_str})"


class RingSpec:
    """An ordered product of local rings; elements are tuples of local codes."""

    def __init__(self, local_rings):
        self.locals = tuple(local_rings)
        if not self.locals:
            raise RingError("a ring needs at least one local factor")
        self.size = math.prod(r.size for r in self.locals)
        self.zero = tuple(r.zero for r in self.locals)
        self.one = tuple(r.one for r in self.locals)
        self._units = None
        self._exponent = None

    @property
    def canonical_str(self) -> str:
        return " x ".join(r.spec_str for r in self.locals)

    def validate(self, a):
        if not isinstance(a, tuple) or len(a) != len(self.locals):
            raise RingMismatchError(f"{a!r} is not an element of {self.canonical_str}")
        for x, r in zip(a, self.locals):
            if not isinstance(x, int) or not 0 <= x < r.size:
                raise RingMismatchError(
                    f"{a!r} is not an element of {self.canonical_str}")

    def elements(self):
        """All elements, lexicographic in component codes."""
        return itertools.product(*(range(r.size) for r in self.locals))

    def add(self, a, b):
        return tuple(r.add(x, y) for r, x, y in zip(self.locals, a, b))

    def mul(self, a, b):
        return tuple(r.mul(x, y) for r, x, y in zip(self.locals, a, b))

    def neg(self, a):
        return tuple(r.neg(x) for r, x in zip(self.locals, a))

    def sub(self, a, b):
        return tuple(r.sub(x, y) for r, x, y in zip(self.locals, a, b))

    def is_unit(self, a) -> bool:
        return all(r.is_unit(x) for r, x in zip(self.locals, a))

    def inv(self, a):
        return tuple(r.inv(x) for r, x in zip(self.locals, a))

    def units(self):
        """All units, each invertible via inv(); cached."""
        if self._units is None:
            self._units = tuple(a for a in self.elements() if self.is_unit(a))
        return self._units

    def unit_order(self, a) -> int:
        return math.lcm(*(r.unit_order(x) for r, x in zip(self.locals, a)))

    def unit_exponent(self) -> int:
        """Exponent of the unit group: lcm of the orders of all units."""
        if self._exponent is None:
            self._exponent = math.lcm(
                *(math.lcm(*(r.unit_order(u) for u in r.units)) for r in self.locals))
        return self._exponent

    def value(self, a):
        return tuple(r.value(x) for r, x in zip(self.locals, a))

    def _key(self):
        return tuple(r._key() for r in self.locals)

    def __eq__(self, other):
        return isinstance(other, RingSpec) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"RingSpec({self.canonical_str!r})"


_TOKEN_Z = re.compile(r"Z/(\d+)")
_TOKEN_GF = re.compile(r"GF\(\s*(\d+)\s*,\s*(\d+)\s*\)")


def parse_ring_spec(text: str) -> RingSpec:
    """Parse a ring-spec string into a RingSpec with pre-factored locals.

    Grammar: spec := local ("x" local)*, local := "Z/" N | "GF(" p "," k ")".
    Z/N splits into its prime-power factors, ordered by prime.
    """
    factors = []
    pos = 0
    n = len(text)
    expect_local = True
    while True:
        while pos < n and text[pos].isspace():
            pos += 1
        if pos >= n:
            if expect_local:
                raise RingSpecError("expected a local ring", pos)
            break
        if not expect_local:
            if text[pos] == "x":
                pos += 1
                expect_local = True
                continue
            raise RingSpecError(f"expected 'x' or end, found {text[pos]!r}", pos)
        m = _TOKEN_Z.match(text, pos)
        if m:
            N = int(m.group(1))
            if N < 2:
                raise RingSpecError(f"Z/{N} is not a valid ring (need N >= 2)", pos)
            for p, k in _factorize(N):
                factors.append(LocalRing("zmod", p, k))
            pos = m.end()
            expect_local = False
            continue
        m = _TOKEN_GF.match(text, pos)
        if m:
            p, k = int(m.group(1)), int(m.group(2))
            if not _is_prime(p):
                raise RingSpecError(f"GF({p},{k}): {p} is not prime", pos)
            if k < 1:
                raise RingSpecError(f"GF({p},{k}): need k >= 1", pos)
            factors.append(LocalRing("gf", p, k))
            pos = m.end()
            expect_local = False
            continue
        raise RingSpecError("expected 'Z/N' or 'GF(p,k)'", pos)
    return RingSpec(factors)
