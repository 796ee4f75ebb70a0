"""Exact arithmetic in the cyclotomic field Q(zeta_e), plus exact linear algebra.

Numbers are stored in the power basis 1, z, ..., z^(phi(e)-1) with rational
coefficients, where z is a primitive e-th root of unity and phi is Euler's
totient.  Products reduce modulo the e-th cyclotomic polynomial, so all
arithmetic is exact.  Floating point appears only in integer matmuls on
these coordinates (algebra.matmul_dtype: the product kernel's, and the end
algebras' double-coset counts), in float64 only when an a-priori bound keeps
every partial sum below 2^53, where float64 holds every integer exactly.

Linear algebra runs on one engine, SparseReducer: fraction-free elimination
on integer power-basis coordinates in numpy arrays, in one sweep that reduces
a whole stack of vectors at once.  Feeding, span tests, coordinates
(coords_list) and solve_affine all run on that sweep; they take and return
integer arrays over denominators, so no CycloNum or Fraction is made.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np


class CycloError(Exception):
    pass


def _divisors(e):
    return [d for d in range(1, e + 1) if e % d == 0]


def _poly_div_exact(a, b):
    """Quotient of integer polynomials (low-degree-first), b monic, remainder 0."""
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for shift in range(len(a) - len(b), -1, -1):
        c = a[shift + len(b) - 1]
        q[shift] = c
        if c:
            for i, bc in enumerate(b):
                a[shift + i] -= c * bc
    if any(a):
        raise CycloError("division was not exact")
    return q


@lru_cache(maxsize=None)
def cyclotomic_poly(e: int) -> tuple[int, ...]:
    """Coefficients of the e-th cyclotomic polynomial, low-degree-first."""
    num = [-1] + [0] * (e - 1) + [1]
    for d in _divisors(e):
        if d < e:
            num = _poly_div_exact(num, cyclotomic_poly(d))
    return tuple(num)


@lru_cache(maxsize=None)
def _conductor(e: int):
    """(phi, pow_rows) where pow_rows[j] gives z^j in the power basis."""
    if e < 1:
        raise CycloError(f"conductor must be >= 1, got {e}")
    poly = cyclotomic_poly(e)
    phi = len(poly) - 1
    top = [-c for c in poly[:-1]]  # z^phi
    rows = [tuple(1 if i == j else 0 for i in range(phi))
            for j in range(phi)]
    cur = rows[phi - 1]
    for _ in range(max(2 * phi - 2, e - 1) - (phi - 1)):
        carry = cur[phi - 1]
        nxt = [0] + list(cur[:phi - 1])
        if carry:
            nxt = [x + carry * t for x, t in zip(nxt, top)]
        cur = tuple(nxt)
        rows.append(cur)
    return phi, tuple(rows)


@lru_cache(maxsize=None)
def power_fold(e: int):
    """Integer tensor F[s][t] = coordinates of z^(s+t) in the power basis."""
    phi, rows = _conductor(e)
    return tuple(tuple(rows[s + t] for t in range(phi)) for s in range(phi))


@lru_cache(maxsize=None)
def fold_array(e: int):
    """(F, kf): power_fold(e) as an int64 array of shape (phi, phi * phi), and
    kf with |coordinate of a * b| <= kf * max|a| * max|b| in Z[zeta_e]."""
    fold = power_fold(e)
    ft = np.array(fold, dtype=np.int64).reshape(len(fold), -1)
    ft.flags.writeable = False
    return ft, len(fold) ** 2 * int(np.abs(ft).max())


@lru_cache(maxsize=None)
def root_coords(e: int):
    """Int64 array whose row t holds the power-basis coordinates of zeta_e^t."""
    _, rows = _conductor(e)
    out = np.array(rows[:e], dtype=np.int64)
    out.flags.writeable = False
    return out


def galois(e: int, t: int):
    """Integer matrix of z -> z^t on coordinate rows: v @ galois(e, t)."""
    return root_coords(e)[t * np.arange(len(power_fold(e))) % e]


def times(rows, c, e, dtype):
    """rows * c in Z[zeta_e]: integer rows (k, phi) times integer coordinates
    c (phi,), or times each of a stack c (m, phi), giving (m, k, phi)."""
    ft, _ = fold_array(e)
    m = np.asarray(c, dtype=dtype) @ ft.astype(dtype, copy=False)
    return rows.astype(dtype, copy=False) @ m.reshape(*m.shape[:-1], len(ft), -1)


_ZERO = Fraction(0)
_ONE = Fraction(1)


class CycloNum:
    """An element of Q(zeta_e)."""

    __slots__ = ("e", "c")

    def __init__(self, e, coeffs):
        self.e = e
        self.c = tuple(x if type(x) is Fraction else Fraction(x)
                       for x in coeffs)

    @classmethod
    def rational(cls, e, q) -> "CycloNum":
        phi, _ = _conductor(e)
        return cls(e, (Fraction(q),) + (_ZERO,) * (phi - 1))

    @classmethod
    def zero(cls, e) -> "CycloNum":
        return cls.rational(e, 0)

    @classmethod
    def one(cls, e) -> "CycloNum":
        return cls.rational(e, 1)

    @classmethod
    def root(cls, e, t) -> "CycloNum":
        """zeta_e^t."""
        phi, rows = _conductor(e)
        return cls(e, rows[t % e])

    def _coerce(self, other):
        if isinstance(other, CycloNum):
            if other.e != self.e:
                raise CycloError(f"conductor mismatch: {self.e} vs {other.e}")
            return other
        if isinstance(other, (int, Fraction)):
            return CycloNum.rational(self.e, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycloNum(self.e, tuple(a + b for a, b in zip(self.c, o.c)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycloNum(self.e, tuple(a - b for a, b in zip(self.c, o.c)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return CycloNum(self.e, tuple(-a for a in self.c))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CycloNum(self.e, tuple(a * other for a in self.c))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        phi, rows = _conductor(self.e)
        if phi == 1:
            return CycloNum(self.e, (self.c[0] * o.c[0],))
        conv = [_ZERO] * (2 * phi - 1)
        for i, a in enumerate(self.c):
            if a:
                for j, b in enumerate(o.c):
                    if b:
                        conv[i + j] += a * b
        out = conv[:phi]
        for j in range(phi, 2 * phi - 1):
            cj = conv[j]
            if cj:
                row = rows[j]
                for i in range(phi):
                    if row[i]:
                        out[i] += cj * row[i]
        return CycloNum(self.e, out)

    __rmul__ = __mul__

    def __pow__(self, m: int):
        if not isinstance(m, int):
            return NotImplemented
        if m < 0:
            return self.inverse() ** (-m)
        out = CycloNum.one(self.e)
        base = self
        while m:
            if m & 1:
                out = out * base
            base = base * base
            m >>= 1
        return out

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def inverse(self) -> "CycloNum":
        """Multiplicative inverse via the extended Euclidean algorithm."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        phi, _ = _conductor(self.e)
        if phi == 1:
            return CycloNum(self.e, (1 / self.c[0],))
        mod = [Fraction(x) for x in cyclotomic_poly(self.e)]
        # invariants: r0 = u0 * a (mod Phi), r1 = u1 * a (mod Phi)
        r0, u0 = mod, [_ZERO]
        r1, u1 = [x for x in self.c], [_ONE]
        while True:
            while r1 and r1[-1] == 0:
                r1.pop()
            if len(r1) == 1:
                break
            if not r1:
                raise CycloError("cyclotomic polynomial not coprime to element")
            # r0 = q*r1 + rem
            q = [_ZERO] * (len(r0) - len(r1) + 1)
            rem = list(r0)
            inv_lead = 1 / r1[-1]
            for shift in range(len(rem) - len(r1), -1, -1):
                c = rem[shift + len(r1) - 1] * inv_lead
                q[shift] = c
                if c:
                    for i, bc in enumerate(r1):
                        rem[shift + i] -= c * bc
            # u_next = u0 - q*u1
            qu = [_ZERO] * (len(q) + len(u1) - 1)
            for i, x in enumerate(q):
                if x:
                    for j, y in enumerate(u1):
                        qu[i + j] += x * y
            un = [_ZERO] * max(len(u0), len(qu))
            for i, x in enumerate(u0):
                un[i] += x
            for i, x in enumerate(qu):
                un[i] -= x
            r0, u0, r1, u1 = r1, u1, rem, un
        scale = 1 / r1[0]
        u = [x * scale for x in u1]
        # reduce u modulo Phi back into the power basis
        _, rows = _conductor(self.e)
        out = [_ZERO] * phi
        for j, x in enumerate(u):
            if x:
                row = rows[j] if j < len(rows) else None
                if row is None:
                    raise CycloError("inverse degree out of range")
                for i in range(phi):
                    if row[i]:
                        out[i] += x * row[i]
        return CycloNum(self.e, out)

    def conj(self) -> "CycloNum":
        """Complex conjugate: z |-> z^(e-1); rational coefficients are fixed."""
        phi, rows = _conductor(self.e)
        out = [_ZERO] * phi
        for j, a in enumerate(self.c):
            if a:
                row = rows[(-j) % self.e]
                for i in range(phi):
                    if row[i]:
                        out[i] += a * row[i]
        return CycloNum(self.e, out)

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.c)

    def is_rational(self) -> bool:
        return all(x == 0 for x in self.c[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise CycloError(f"{self} is not rational")
        return self.c[0]

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycloNum.rational(self.e, other)
        if not isinstance(other, CycloNum):
            return NotImplemented
        return self.e == other.e and self.c == other.c

    def __hash__(self):
        return hash((self.e, self.c))

    def __repr__(self):
        terms = []
        for j, a in enumerate(self.c):
            if a == 0:
                continue
            if j == 0:
                terms.append(str(a))
            elif j == 1:
                terms.append(f"{a}*z" if a != 1 else "z")
            else:
                terms.append(f"{a}*z^{j}" if a != 1 else f"z^{j}")
        return " + ".join(terms) if terms else "0"


def exact_dtype(bound):
    """int64 when a bound on every intermediate is below 2^62, else Python ints."""
    return np.int64 if bound < 2 ** 62 else object


def int_rows(coeffs: dict):
    """(keys, integer coordinate rows, common denominator) of a dict of CycloNums."""
    den = math.lcm(*(f.denominator for c in coeffs.values() for f in c.c))
    rows = [[f.numerator * (den // f.denominator) for f in c.c]
            for c in coeffs.values()]
    return list(coeffs), rows, den


@lru_cache(maxsize=None)
def _conjugations(e: int):
    """Matrices of the Galois maps z -> z^t, t a unit mod e other than 1."""
    return [galois(e, t).astype(object) for t in range(2, e)
            if math.gcd(t, e) == 1]


def content(a):
    """gcd of the entries of an integer array, 0 when it is empty or zero
    (a one-entry reduce keeps its sign)."""
    return abs(int(np.gcd.reduce(a, axis=None)))


def max_abs(a):
    """Largest |entry| of an integer array, 0 when it is empty."""
    return int(np.abs(a).max()) if a.size else 0


class SparseReducer:
    """Incremental exact row reduction of sparse vectors over Q(zeta_e).

    A vector is (keys, rows, den), the form AlgElem.vec gives: an integer
    array of distinct non-negative keys, an integer array with one row of phi
    power-basis coordinates per key, and a positive denominator; it stands
    for rows[i] / den at keys[i]. A stack of k vectors on one key array has
    rows of shape (k, len(keys), phi); every method takes a vector or a
    stack. Pivot rows are normalized to leading coefficient 1 and keyed by
    their least index; every key in a pivot row other than its lead is
    strictly larger than the lead, so reduction of any vector terminates with
    a remainder that is zero exactly when the vector lies in the span.

    Elimination is fraction-free on integer power-basis coordinates, one row
    of phi integers per key. A pivot is an integer array R with R[lead] = D,
    a positive integer, and stands for R / D. One sweep (_sweep) reduces a
    whole stack: each step takes the least key at which some vector starts
    and which is a pivot's lead, and reduces every vector that starts there
    by v <- D v - v[lead] R, so each stays a positive rational multiple of
    its exact remainder, and meets the pivots in the order it would alone.
    Each step takes int64 or exact Python ints from a bound on its entries
    (exact_dtype); a step whose bound would reach 2^62 first divides each
    vector by g, the gcd of its entries.
    """

    def __init__(self, e):
        self.e = e
        ft, self._kf = fold_array(e)
        self._phi = len(ft)
        self._rows = []    # pivot arrays, from the lead key on
        self._dens = []
        self._maxes = []   # largest |entry| of each pivot array
        self._leads = []   # in insertion order
        self._width = 0

    def _vector(self, vec):
        """Dense integer rows (k, width, phi) of a vector or stack (keys,
        rows, den), den dropped; a vector is a stack of one."""
        keys, rows, _ = vec
        if len(keys) and keys.min() < 0:
            raise CycloError("reducer keys must be non-negative integers")
        rows = rows[None] if rows.ndim == 2 else rows
        # at least one key wide, so that every vector has a first key
        width = int(keys.max()) + 1 if len(keys) else 1
        v = np.zeros((len(rows), max(self._width, width), self._phi),
                     dtype=exact_dtype(max_abs(rows)))
        v[:, keys] = rows
        return v

    def _sweep(self, v, grow=0):
        """Reduce the stack v (k, width, phi) on the pivots.

        When no vector starts at a pivot's lead, the lowest-index vector that
        starts before key `grow` becomes a pivot, and the sweep goes on; this
        gives the pivots of feeding the vectors one at a time, in order, as a
        vector left over meets the new pivots where it stopped.  Returns (v,
        lead, grown, steps): the remainders, each one's lead (width when it
        is zero or became a pivot), the positions that became pivots, and per
        step (pivot index, vectors, their lead coordinates, the contents g
        they were divided by first, 1 where they were not).
        """
        k, width, _ = v.shape
        at = np.full(width + 1, -1, dtype=np.intp)   # key -> pivot index
        at[self._leads] = np.arange(self.rank)
        lead = np.empty(k, dtype=np.intp)
        act, key, tail = np.arange(k), 0, v
        grown, steps = [], []
        while True:
            nz = (tail != 0).any(axis=2)
            lead[act] = np.where(nz.any(axis=1), key + nz.argmax(axis=1), width)
            piv = at[lead]
            while (piv < 0).all():
                new = np.flatnonzero(lead < grow)
                if not len(new):
                    return v, lead, grown, steps
                i = int(new[0])
                self._insert(v[i], int(lead[i]))
                at[lead[i]], lead[i] = self.rank - 1, width
                grown.append(i)
                piv = at[lead]
            key = int(lead[piv >= 0].min())
            act, j = np.flatnonzero(lead == key), int(at[key])
            R, D = self._rows[j], self._dens[j]
            tail = v[act, key:]
            mv = max_abs(tail)
            g = np.ones(len(act), dtype=np.int64)
            if D * mv + self._kf * mv * self._maxes[j] >= 2 ** 62:
                # the vectors over their contents, only where int64 would not do
                g = np.abs(np.gcd.reduce(tail, axis=(1, 2)))
                tail = tail // g[:, None, None]
                mv = max_abs(tail)
            dtype = exact_dtype(D * mv + self._kf * mv * self._maxes[j])
            tail = tail.astype(dtype, copy=False)
            c = tail[:, 0].copy()
            tail *= D
            tail[:, :len(R)] -= times(R, c, self.e, dtype)
            if dtype is object:
                v = v.astype(object, copy=False)
            v[act, key:] = tail
            steps.append((j, act, c, g))

    def _adjugate(self, a):
        """Product of the Galois conjugates of a other than a itself.

        a * adjugate(a) is the norm of a, a nonzero integer when a != 0.
        """
        out = np.array([[1] + [0] * (self._phi - 1)], dtype=object)
        for s in _conjugations(self.e):
            out = times(out, np.array(a, dtype=object) @ s, self.e, object)
        return out[0].tolist()

    def _insert(self, v, k):
        """Make the nonzero remainder v, lead k, a pivot scaled to lead D."""
        nz = np.flatnonzero(v[k:].any(axis=1))
        tail = v[k:k + int(nz[-1]) + 1]
        if self._phi == 1:     # the adjugate is 1
            R = tail.copy()
        else:
            adj = self._adjugate(v[k].tolist())
            R = times(tail, adj, self.e, exact_dtype(
                self._kf * max_abs(tail) * max(abs(x) for x in adj)))
        g = content(R)
        if R[0, 0] < 0:
            g = -g
        R //= g
        big = int(np.abs(R).max())
        R = R.astype(exact_dtype(big), copy=False)
        self._rows.append(R)
        self._dens.append(int(R[0, 0]))
        self._maxes.append(big)
        self._leads.append(k)
        self._width = max(self._width, k + len(R))

    def feed(self, vecs) -> list:
        """Insert a vector or a stack; the positions in the stack of the
        vectors that enlarged the span (empty when none did)."""
        v = self._vector(vecs)
        return self._sweep(v, grow=v.shape[1])[2]

    def contains(self, vecs) -> bool:
        """True when every vector of a vector or stack lies in the span."""
        v, lead, _, _ = self._sweep(self._vector(vecs))
        return bool((lead == v.shape[1]).all())

    def coords_list(self, vecs):
        """Coordinates of a stack of vectors on the pivots, in insertion order.

        vecs is (keys, rows, den) with rows of shape (k, len(keys), phi), or
        (len(keys), phi) for a stack of one.  Returns (coords, dens, inside):
        vector i is sum_j coords[i, j] / dens[i] times pivot row j (lead 1),
        and inside[i] is False when it lies outside the span (its coordinates
        then mean nothing).

        After each step of the sweep, a vector it reduced stands for p[i] /
        q[i] times its input minus the part taken off, so its coordinate on
        the step's pivot is v[i, lead] q[i] / p[i].
        """
        v, lead, _, steps = self._sweep(self._vector(vecs))
        k = len(v)
        p, q = np.ones(k, dtype=object), np.ones(k, dtype=object)
        coords = np.zeros((k, self.rank, self._phi), dtype=object)
        dens = np.ones((k, self.rank), dtype=object)
        for j, act, c, g in steps:
            # the step divided the vectors by g, then took c R / D off each
            qa = q[act] * g.astype(object)
            coords[act, j], dens[act, j] = c * qa[:, None], p[act]
            pa = p[act] * self._dens[j]
            h = np.gcd(pa, qa)
            p[act], q[act] = pa // h, qa // h
        inside = lead == v.shape[1]
        # one denominator per vector, in lowest terms
        lcm = np.lcm.reduce(dens, axis=1, initial=1)
        coords *= (lcm[:, None] // dens)[:, :, None]
        lcm *= vecs[2]
        g = np.gcd(np.gcd.reduce(coords, axis=(1, 2), initial=0), lcm)
        coords //= g[:, None, None]
        lcm //= g
        return coords.astype(exact_dtype(max_abs(coords)), copy=False), lcm, inside

    @property
    def rank(self) -> int:
        return len(self._rows)

    def basis_rows(self):
        """Pivot rows as vectors (keys, rows, den), lead coefficient 1, in
        insertion order."""
        out = []
        for R, D, lead in zip(self._rows, self._dens, self._leads):
            nz = np.flatnonzero((R != 0).any(axis=1))
            out.append((lead + nz, R[nz], D))
        return out


class AffineSolution:
    """Solutions of M x = rhs: the point particular / den plus the span of
    the vectors nullspace[i] / null_dens[i], each an integer array (nc, phi)
    of power-basis coordinates."""

    def __init__(self, particular, den, nullspace, null_dens):
        self.particular, self.den = particular, den
        self.nullspace, self.null_dens = nullspace, null_dens

    @property
    def dimension(self) -> int:
        return len(self.nullspace)

    def point(self, weights):
        """(rows, den) of particular + sum_i weights[i] nullspace[i], for
        integer weights; rows is an object array (nc, phi)."""
        den = math.lcm(self.den, *self.null_dens)
        out = self.particular.astype(object) * (den // self.den)
        for w, vec, d in zip(weights, self.nullspace, self.null_dens):
            out += vec.astype(object) * (w * (den // d))
        return out, den


def solve_affine(e, aug) -> AffineSolution | None:
    """Solve M x = rhs exactly over Q(zeta_e); None when inconsistent.

    aug is [M | rhs] as an integer array (nr, nc + 1, phi): aug[i, j] holds
    the power-basis coordinates of M[i, j], and aug[i, nc] those of rhs[i].
    (Scaling a row by a nonzero integer keeps the solutions, so a rational
    system is passed with each row over a common denominator.)

    The columns of [M | rhs], each with a unit tag on keys after M's rows, go
    through one SparseReducer in one sweep, which makes pivots only of
    remainders that start inside M's rows, lowest column first, as if the
    columns were fed left to right. A column whose M part reduces to zero is
    a combination of the pivot columns before it, and its tags hold that
    relation; read off, the relations are the reduced-row-echelon particular
    solution and nullspace basis.
    """
    nr, nc = aug.shape[0], aug.shape[1] - 1
    red = SparseReducer(e)
    cols = np.zeros((nc + 1, nr + nc + 1, red._phi),
                    dtype=exact_dtype(max_abs(aug)))
    cols[:, :nr] = aug.transpose(1, 0, 2)
    cols[np.arange(nc + 1), nr + np.arange(nc + 1), 0] = 1
    v, _, grown, _ = red._sweep(cols, grow=nr)
    if nc in grown:
        return None
    # the tags of a column that is not a pivot read sum_i tags[i] * column_i
    # = 0 with tags[j] a positive integer; for the rhs column, divided by
    # -tags[j], they are the particular solution
    null = [j for j in range(nc) if j not in grown]
    tags = v[null + [nc], nr:]
    tags //= np.abs(np.gcd.reduce(tags, axis=(1, 2), keepdims=True))   # lowest terms
    return AffineSolution(-tags[-1, :nc], int(tags[-1, nc, 0]),
                          [tags[i, :nc] for i in range(len(null))],
                          [int(tags[i, j, 0]) for i, j in enumerate(null)])
