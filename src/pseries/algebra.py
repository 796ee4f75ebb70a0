"""The group algebra of a tabulated group, with exact cyclotomic coefficients.

An element is held in integer arrays, in the layout of FLINT's fmpq_poly
applied per group element: a sorted support array `keys`, an integer array
`rows` of power-basis coordinates in Q(zeta_e), one row per key, and one
positive denominator `den`; the coefficient of keys[i] is rows[i] / den.
Elements are canonical (no zero rows, gcd of rows and den is 1), so equality
is array equality.  Every operation picks int64 or exact Python ints (object
arrays) from an a-priori bound on its entries.

The star operation sends g to g^-1 and conjugates coefficients; the inner
product is Hermitian, conjugate-linear in its first argument.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import MappingProxyType

import numpy as np

from .cyclo import (CycloNum, content, exact_dtype, fold_array, galois,
                    int_rows, max_abs, power_fold, root_coords, times)
from .groups import GroupTable, row_blocks


class AlgebraError(Exception):
    pass


# gathered entries per row block of the product kernel, twice the table
# gathers' budget: at 2^14 per-block overhead dominates (a product of two
# 1764-term elements of GF(7,1) n=2 took 48 ms, and 23-29 ms at 2^15-2^16)
_MUL_BLOCK = 1 << 15

# entries of the stack-sized arrays the product kernel holds at once (16 MB
# in float64): it multiplies a wider stack a chunk of vectors at a time, and
# callers that multiply many vectors cut them into stacks of at most this
# many dense (|G|, phi) entries, so neither the temporaries nor the
# (k, |G|, phi) results grow with the number of vectors
_STACK_BLOCK = 1 << 21


def matmul_dtype(bound):
    """The dtype of an exact integer matmul whose every partial sum is at most
    `bound` in absolute value: float64 below 2^53, where BLAS runs it and
    every partial sum is an integer that float64 holds exactly, whatever the
    summation order; int64 below 2^62; exact Python ints (object) above."""
    return np.float64 if bound < 2 ** 53 else exact_dtype(bound)


def stack(vecs):
    """Vectors and stacks (keys, rows, den) as one stack (keys, rows, den)
    over the union of their keys and their common denominator; rows has
    shape (k, len(keys), phi), and a vector, rows (len(keys), phi), is a
    stack of one."""
    vecs = [(k, r[None] if r.ndim == 2 else r, d) for k, r, d in vecs]
    # a mask, not np.unique: its first call imports numpy.ma, ~20 ms
    keys = np.concatenate([v[0] for v in vecs])
    present = np.zeros(int(keys.max(initial=-1)) + 1, dtype=bool)
    present[keys] = True
    keys = np.flatnonzero(present)
    den = math.lcm(*(v[2] for v in vecs))
    dtype = exact_dtype(max(max_abs(r) * (den // d) for _, r, d in vecs))
    rows = np.zeros((sum(len(r) for _, r, _ in vecs), len(keys),
                     vecs[0][1].shape[2]), dtype=dtype)
    pos = 0
    for k, r, d in vecs:
        rows[pos:pos + len(r), np.searchsorted(keys, k)] = (
            r.astype(dtype, copy=False) * (den // d))
        pos += len(r)
    return keys, rows, den


def _mul_dense(a: "AlgElem", vecs):
    """The products a * v for a stack of k vectors v that share one key array.

    `vecs` is (keys, rows, den): vector i is rows[i] / den on keys, with rows
    of shape (k, len(keys), phi), or (len(keys), phi) for a stack of one such
    as AlgElem.vec.  Returns (arange(|G|), out, a.den * den), out an exact
    integer array of shape (k, |G|, phi), dense over G.

    (a v)(g) = sum_y a(g y^-1) v(y) = sum_x a(x) v(x^-1 g).  The kernel
    contracts over whichever index set gathers fewer entries from the Cayley
    table: over v's keys y it gathers a's group matrix a(g y^-1) once for a
    whole chunk of vectors (|G| len(keys) entries); over a's support x it
    gathers v(x^-1 g) for every vector (|G| |a| k entries).  Either way it
    runs one matmul per row block of g, in the dtype matmul_dtype picks from
    a bound on the sum of |terms| of every output coordinate.  A chunk is as
    many vectors as keep its temporaries within _STACK_BLOCK entries (in the
    first order, the chunk's product W with the fold table and W's transposed
    copy; in the second, the chunk dense over G), so a wide stack takes more
    than one chunk.
    """
    table, e = a.table, a.e
    keys, rows, den = vecs
    ft, kf = fold_array(e)
    phi, size = len(ft), table.size
    V = rows[None] if rows.ndim == 2 else rows
    k, m, na = len(V), len(keys), len(a.keys)
    bound = kf * max_abs(a.rows) * max_abs(V) * min(na, m)
    out = np.zeros((k, size, phi), dtype=exact_dtype(bound))
    if not bound:
        return np.arange(size), out, a.den * den
    dtype = matmul_dtype(bound)
    # fold[s, (t, c)]: coordinate c of z^(s+t), symmetric in s and t
    fold = ft.astype(dtype)
    g_all = np.arange(size)
    if m <= na * k:
        A = np.zeros((size, phi), dtype=dtype)
        A[a.keys] = a.rows
        cols = table._inv[keys]
        # W and its transposed copy share the budget
        for ks in row_blocks(k, 2 * m * phi * phi, _STACK_BLOCK):
            # W[(y, s), (i, c)] = sum_t v_i(y)_t fold[t, (s, c)]
            W = (V[ks].astype(dtype).reshape(-1, phi) @ fold).reshape(
                -1, m, phi, phi).transpose(1, 2, 0, 3).reshape(m * phi, -1)
            # each block's matmul reads all of W, so a wide W takes blocks of
            # up to 64 rows, as long as they hold no more entries than W
            block_entries = max(_MUL_BLOCK, min(W.size, 64 * m * phi))
            for gs in row_blocks(size, m * phi, block_entries):
                # np.take gathers whole rows several times faster than A[idx]
                Ag = np.take(A, table._table[gs][:, cols], axis=0)
                block = Ag.reshape(-1, m * phi) @ W
                out[ks, gs] = block.reshape(len(block), -1, phi).transpose(1, 0, 2)
    else:
        # Ga[(x, t), c] = sum_s a(x)_s fold[s, (t, c)]
        Ga = (a.rows.astype(dtype) @ fold).reshape(na * phi, phi)
        xinv = table._inv[a.keys]
        for ks in row_blocks(k, size * phi, _STACK_BLOCK):
            Vk = V[ks]
            Vd = np.zeros((len(Vk), size, phi), dtype=dtype)
            Vd[:, keys] = Vk
            for gs in row_blocks(size, na * len(Vd) * phi, _MUL_BLOCK):
                idx = table._table[xinv[None, :], g_all[gs, None]]
                block = np.take(Vd, idx, axis=1).reshape(-1, na * phi) @ Ga
                out[ks, gs] = block.reshape(len(Vd), -1, phi)
    return g_all, out, a.den * den


def _elem(table, e, keys, rows, den) -> "AlgElem":
    """The AlgElem of arrays that are canonical already."""
    out = object.__new__(AlgElem)
    out.table, out.e, out.keys, out.rows, out.den = table, e, keys, rows, den
    return out


def _canonical(keys, rows, den):
    """(keys, rows, den) sorted, without zero rows, and with gcd 1."""
    nz = (rows != 0).any(axis=1)
    keys, rows = keys[nz], rows[nz]
    order = np.argsort(keys)
    keys, rows = keys[order].astype(np.intp, copy=False), rows[order]
    g = math.gcd(content(rows), den)
    if g > 1:
        rows, den = rows // g, den // g
    return keys, rows, den


class AlgElem:
    """An element of the group algebra over Q(zeta_e), as integer arrays."""

    __slots__ = ("table", "e", "keys", "rows", "den")

    def __init__(self, table: GroupTable, e: int, coeffs: dict):
        """The element sum_g coeffs[g] g, for a dict g -> CycloNum."""
        keys, rows, den = int_rows(coeffs)
        rows = np.array(rows, dtype=exact_dtype(
            max((abs(x) for row in rows for x in row), default=0)))
        self.table, self.e = table, e
        self.keys, self.rows, self.den = _canonical(
            np.array(keys, dtype=np.intp),
            rows.reshape(len(keys), len(power_fold(e))), den)

    @classmethod
    def from_vec(cls, table, e, vec) -> "AlgElem":
        """The element of a vector (keys, rows, den): distinct keys, den > 0."""
        return _elem(table, e, *_canonical(*vec))

    @classmethod
    def zero(cls, table, e) -> "AlgElem":
        return _elem(table, e, np.zeros(0, dtype=np.intp),
                     np.zeros((0, len(power_fold(e))), dtype=np.int64), 1)

    @classmethod
    def delta(cls, table, e, i: int) -> "AlgElem":
        return _elem(table, e, np.array([i], dtype=np.intp), root_coords(e)[:1], 1)

    @classmethod
    def one(cls, table, e) -> "AlgElem":
        return cls.delta(table, e, table.identity)

    @property
    def vec(self):
        """(keys, rows, den), the vector form SparseReducer takes."""
        return self.keys, self.rows, self.den

    @property
    def coeffs(self):
        """Read-only {g: CycloNum} view, built on each access."""
        return MappingProxyType({
            k: CycloNum(self.e, [Fraction(x, self.den) for x in row])
            for k, row in zip(self.keys.tolist(), self.rows.tolist())})

    def _check(self, other: "AlgElem"):
        if self.table is not other.table or self.e != other.e:
            raise AlgebraError("elements live in different group algebras")

    def _plus(self, other: "AlgElem", sign: int) -> "AlgElem":
        """self + sign * other, summed on a dense (|G|, phi) array."""
        self._check(other)
        if other.is_zero():
            return self
        if self.is_zero():
            return other if sign > 0 else -other
        den = math.lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        dtype = exact_dtype(max_abs(self.rows) * fa + max_abs(other.rows) * abs(fb))
        out = np.zeros((self.table.size, self.rows.shape[1]), dtype=dtype)
        out[self.keys] = self.rows.astype(dtype, copy=False) * fa
        out[other.keys] += other.rows.astype(dtype, copy=False) * fb
        return AlgElem.from_vec(self.table, self.e,
                                (np.arange(self.table.size), out, den))

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return _elem(self.table, self.e, self.keys, -self.rows, self.den)

    def scale(self, s) -> "AlgElem":
        if not isinstance(s, CycloNum):
            s = CycloNum.rational(self.e, s)
        _, (c,), d = int_rows({0: s})
        _, kf = fold_array(self.e)
        dtype = exact_dtype(kf * max_abs(self.rows) * max(abs(x) for x in c))
        rows = times(self.rows, c, self.e, dtype)
        return AlgElem.from_vec(self.table, self.e, (self.keys, rows, self.den * d))

    def __mul__(self, other):
        if not isinstance(other, AlgElem):
            return self.scale(other)
        self._check(other)
        keys, rows, den = _mul_dense(self, other.vec)
        return AlgElem.from_vec(self.table, self.e, (keys, rows[0], den))

    def __rmul__(self, other):
        if isinstance(other, AlgElem):
            return NotImplemented
        return self.scale(other)

    def _moved(self, keys, rows) -> "AlgElem":
        """An element with new distinct keys and rows of the same content."""
        order = np.argsort(keys)
        return _elem(self.table, self.e, keys[order].astype(np.intp, copy=False),
                     rows[order], self.den)

    def star(self) -> "AlgElem":
        """g -> g^-1 with conjugated coefficients (an anti-automorphism)."""
        conj = galois(self.e, -1)   # an involution of Z^phi keeps the content
        dtype = exact_dtype(max_abs(self.rows) * len(conj) * max_abs(conj))
        return self._moved(self.table._inv[self.keys],
                           self.rows.astype(dtype, copy=False)
                           @ conj.astype(dtype, copy=False))

    def inner(self, other: "AlgElem") -> CycloNum:
        """Hermitian inner product, conjugate-linear in self: the identity
        coefficient of self* other."""
        return (self.star() * other).coeff(self.table.identity)

    def left_translate(self, g: int) -> "AlgElem":
        """delta_g * self, computed without a full convolution."""
        return self._moved(self.table._table[g, self.keys], self.rows)

    def right_translate(self, g: int) -> "AlgElem":
        """self * delta_g."""
        return self._moved(self.table._table[self.keys, g], self.rows)

    def coeff(self, i: int) -> CycloNum:
        j = int(np.searchsorted(self.keys, i))
        if j == len(self.keys) or self.keys[j] != i:
            return CycloNum.zero(self.e)
        return CycloNum(self.e, [Fraction(x, self.den) for x in self.rows[j].tolist()])

    def is_zero(self) -> bool:
        return not len(self.keys)

    def __eq__(self, other):
        if not isinstance(other, AlgElem):
            return NotImplemented
        return (self.table is other.table and self.e == other.e
                and self.den == other.den
                and np.array_equal(self.keys, other.keys)
                and np.array_equal(self.rows, other.rows))

    def __repr__(self):
        pairs = ", ".join(f"{i}:{c!r}" for i, c in self.coeffs.items())
        return f"AlgElem({{{pairs}}})"


def idempotent_subgroup(table: GroupTable, e: int, indices) -> AlgElem:
    """Averaging idempotent |H|^-1 sum_{h in H} h; validates H is a subgroup."""
    idx_set = set(indices)
    if table.identity not in idx_set:
        raise AlgebraError("subgroup must contain the identity")
    idx = np.fromiter(idx_set, dtype=np.intp, count=len(idx_set))
    member = np.full(table.size, -1, dtype=np.int32)   # 0 on H, -1 elsewhere
    member[idx] = 0
    if member[table._inv[idx]].min() < 0:
        raise AlgebraError("index list not closed under inverse")
    if member[table._table[np.ix_(idx, idx)]].min() < 0:
        raise AlgebraError("index list not closed under multiplication")
    rows = np.repeat(root_coords(e)[:1], len(idx), axis=0)
    return _elem(table, e, np.sort(idx), rows, len(idx))


def idempotent_char(table: GroupTable, chi) -> AlgElem:
    """e_chi = |L|^-1 sum_l chi(l)^-1 l over the diagonal torus."""
    e = chi.e
    L = np.array(table.subgroup("L"), dtype=np.intp)
    diag = np.arange(table.n)
    ts = [-chi.value_exponent_on_diag(d) % e
          for d in table.codes[L][:, diag, diag].tolist()]
    return AlgElem.from_vec(table, e, (L, root_coords(e)[ts], len(L)))
