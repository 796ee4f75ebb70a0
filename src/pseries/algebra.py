"""The group algebra of a tabulated group, with exact cyclotomic coefficients.

Elements are sparse dictionaries mapping group indices to CycloNum values.
The star operation sends g to g^-1 and conjugates coefficients; the inner
product is Hermitian, conjugate-linear in its first argument.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .cyclo import (CycloMatrix, CycloNum, exact_dtype, int_rows, power_fold,
                    rank as cyclo_rank)
from .groups import GroupTable


class AlgebraError(Exception):
    pass


def _mul_dense(a: "AlgElem", b: "AlgElem") -> "AlgElem":
    """Exact convolution on scaled integer coordinates, vectorized per row.

    Sums run in int64 when the overflow bound allows it and in exact Python
    ints (object arrays) otherwise; both dtypes take the same steps.
    """
    table, e = a.table, a.e
    if not a.coeffs or not b.coeffs:
        return AlgElem.zero(table, e)
    fold = power_fold(e)
    phi = len(fold)
    ia, ma, da = int_rows(a.coeffs)
    ib, mb, db = int_rows(b.coeffs)
    max_a = max(abs(x) for row in ma for x in row)
    max_b = max(abs(x) for row in mb for x in row)
    max_f = max(abs(x) for fs in fold for ft in fs for x in ft)
    # each output coordinate sums at most min(|a|, |b|) * phi^2 terms
    bound = max_a * max_b * max_f * phi * phi * min(len(ia), len(ib))
    dtype = exact_dtype(bound)
    rows = table.mul_row
    gb = np.array(ib, dtype=np.intp)
    A = np.array(ma, dtype=dtype)
    B = np.array(mb, dtype=dtype)
    ft = np.array(fold, dtype=dtype).reshape(phi, phi * phi)
    out = np.zeros((table.size, phi), dtype=dtype)
    # row x of a acts on b's coordinates through the folded matrix G[x]
    G = (A @ ft).reshape(len(ia), phi, phi)
    for r, g in zip(ia, G):
        # a Cayley-table row is a permutation, so targets never collide
        out[rows(r)[gb]] += B @ g
    den = da * db
    nz = np.nonzero((out != 0).any(axis=1))[0]
    return AlgElem(table, e, {i: CycloNum(e, [Fraction(x, den) for x in row])
                              for i, row in zip(nz.tolist(), out[nz].tolist())})


class AlgElem:
    """A sparse element of the group algebra over Q(zeta_e)."""

    __slots__ = ("table", "e", "coeffs")

    def __init__(self, table: GroupTable, e: int, coeffs: dict):
        self.table = table
        self.e = e
        self.coeffs = {i: c for i, c in coeffs.items() if not c.is_zero()}

    @classmethod
    def zero(cls, table, e) -> "AlgElem":
        return cls(table, e, {})

    @classmethod
    def delta(cls, table, e, i: int) -> "AlgElem":
        return cls(table, e, {i: CycloNum.one(e)})

    @classmethod
    def one(cls, table, e) -> "AlgElem":
        return cls.delta(table, e, table.identity)

    def _check(self, other: "AlgElem"):
        if self.table is not other.table or self.e != other.e:
            raise AlgebraError("elements live in different group algebras")

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for i, c in other.coeffs.items():
            cur = out.get(i)
            out[i] = c if cur is None else cur + c
        return AlgElem(self.table, self.e, out)

    def __sub__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for i, c in other.coeffs.items():
            cur = out.get(i)
            out[i] = -c if cur is None else cur - c
        return AlgElem(self.table, self.e, out)

    def __neg__(self):
        return AlgElem(self.table, self.e, {i: -c for i, c in self.coeffs.items()})

    def scale(self, s) -> "AlgElem":
        if not isinstance(s, CycloNum):
            s = CycloNum.rational(self.e, s)
        return AlgElem(self.table, self.e, {i: c * s for i, c in self.coeffs.items()})

    def __mul__(self, other):
        if not isinstance(other, AlgElem):
            return self.scale(other)
        self._check(other)
        return _mul_dense(self, other)

    def __rmul__(self, other):
        if isinstance(other, AlgElem):
            return NotImplemented
        return self.scale(other)

    def star(self) -> "AlgElem":
        """g -> g^-1 with conjugated coefficients (an anti-automorphism)."""
        inv = self.table.inv
        return AlgElem(self.table, self.e,
                       {inv(i): c.conj() for i, c in self.coeffs.items()})

    def inner(self, other: "AlgElem") -> CycloNum:
        """Hermitian inner product, conjugate-linear in self."""
        self._check(other)
        total = CycloNum.zero(self.e)
        small, big = self.coeffs, other.coeffs
        for i, c in small.items():
            d = big.get(i)
            if d is not None:
                total = total + c.conj() * d
        return total

    def left_translate(self, g: int) -> "AlgElem":
        """delta_g * self, computed without a full convolution."""
        keys = list(self.coeffs)
        targets = self.table._table[g, keys].tolist()
        return AlgElem(self.table, self.e, dict(zip(targets, self.coeffs.values())))

    def right_translate(self, g: int) -> "AlgElem":
        """self * delta_g."""
        keys = list(self.coeffs)
        targets = self.table._table[keys, g].tolist()
        return AlgElem(self.table, self.e, dict(zip(targets, self.coeffs.values())))

    def coeff(self, i: int) -> CycloNum:
        return self.coeffs.get(i, CycloNum.zero(self.e))

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def support(self):
        return sorted(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, AlgElem):
            return NotImplemented
        return (self.table is other.table and self.e == other.e
                and self.coeffs == other.coeffs)

    def __repr__(self):
        pairs = ", ".join(f"{i}:{c!r}" for i, c in sorted(self.coeffs.items()))
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
    c = CycloNum.rational(e, Fraction(1, len(idx_set)))
    return AlgElem(table, e, {i: c for i in idx_set})


def idempotent_char(table: GroupTable, chi) -> AlgElem:
    """e_chi = |L|^-1 sum_l chi(l)^-1 l over the diagonal torus."""
    e = chi.e
    L = table.subgroup("L")
    inv_count = Fraction(1, len(L))
    coeffs = {}
    for i in L:
        t = chi.value_exponent_on_diag(table.diag(i))
        coeffs[i] = CycloNum.root(e, -t) * inv_count
    return AlgElem(table, e, coeffs)


def span_rank(elems) -> int:
    """Rank of the span: dense coefficient matrix over the whole group."""
    elems = list(elems)
    if not elems:
        return 0
    table, e = elems[0].table, elems[0].e
    size = table.size
    zero = CycloNum.zero(e)
    rows = []
    for a in elems:
        if a.table is not table or a.e != e:
            raise AlgebraError("mixed group algebras in span_rank")
        rows.append([a.coeffs.get(i, zero) for i in range(size)])
    return cyclo_rank(CycloMatrix(e, rows))
