"""GL_n over a finite commutative ring: enumeration, subgroups, Bruhat labels.

A matrix is held as an integer code array of shape (n, n, m): entry (i, j)
in local factor f at [i, j, f] (see rings.py for the codes).  Its public
form, tuples of tuples of ring elements, is built from that on demand.  A
GroupTable fixes an indexing of the whole group with the identity at index
0: over a local ring the rest in increasing order of their base-q entry
codes, over a product ring g = sum_f g_f prod_{f' > f} |G_f'| (mixed radix
over the factors' indices g_f, the first factor most significant).  It
holds one array per element field (codes, determinant codes, Bruhat label),
the index-level multiplication and inverse tables, and the standard
subgroups.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .rings import RingSpec


class GroupError(Exception):
    pass


class SizeGuardError(GroupError):
    """Requested group is larger than the configured safety bound."""


class PermWord:
    """A tuple of permutations, one per local factor of the ring.

    The permutation p stands for the matrix with a 1 in row p[j] of column
    j, so composition is (v * w)[j] = v[w[j]].
    """

    __slots__ = ("perms", "n")

    def __init__(self, perms):
        self.perms = tuple(tuple(p) for p in perms)
        self.n = len(self.perms[0]) if self.perms else 0

    @classmethod
    def identity(cls, num_factors: int, n: int) -> "PermWord":
        return cls((tuple(range(n)),) * num_factors)

    def __mul__(self, other: "PermWord") -> "PermWord":
        return PermWord(tuple(tuple(p[q[j]] for j in range(self.n))
                              for p, q in zip(self.perms, other.perms)))

    def inverse(self) -> "PermWord":
        out = []
        for p in self.perms:
            q = [0] * self.n
            for j, i in enumerate(p):
                q[i] = j
            out.append(tuple(q))
        return PermWord(tuple(out))

    @property
    def length(self) -> int:
        """Total number of inversions across the factors."""
        total = 0
        for p in self.perms:
            total += sum(1 for i in range(self.n) for j in range(i + 1, self.n)
                         if p[i] > p[j])
        return total

    def is_identity(self) -> bool:
        ident = tuple(range(self.n))
        return all(p == ident for p in self.perms)

    def __eq__(self, other):
        return isinstance(other, PermWord) and self.perms == other.perms

    def __hash__(self):
        return hash(self.perms)

    def __repr__(self):
        return "w" + "|".join("".join(str(i) for i in p) for p in self.perms)


def weyl_elements(num_factors: int, n: int) -> list[PermWord]:
    """All PermWords, factors of lexicographically ordered permutations."""
    perms = list(itertools.permutations(range(n)))
    return [PermWord(combo) for combo in itertools.product(perms, repeat=num_factors)]


def _perms_with_signs(n):
    out = []
    for perm in itertools.permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        out.append((perm, -1 if inv % 2 else 1))
    return out


@functools.lru_cache(maxsize=None)
def ring_arrays(local):
    """(add, mul, neg, inv, unit) of one local ring as integer arrays indexed
    by codes; inv is the zero code off the units, where unit is False.  Every
    caller shares them, so they are read-only."""
    unit = np.zeros(local.size, dtype=bool)
    unit[list(local.units)] = True
    inv = np.full(local.size, local.zero, dtype=np.int32)
    inv[unit] = [local.inv(a) for a in local.units]
    out = (np.array(local._add, dtype=np.int32), np.array(local._mul, dtype=np.int32),
           np.array(local._neg, dtype=np.int32), inv, unit)
    for a in out:
        a.flags.writeable = False
    return out


def _encode(entries, q):
    """Base-q codes of matrices whose n*n row-major entry codes run along the
    first axis of `entries`."""
    code = entries[0].astype(np.int64)
    for x in entries[1:]:
        code = code * q + x
    return code


def _as_mat(codes):
    """The tuple form of one matrix from its (n, n, m) code array."""
    return tuple(tuple(map(tuple, row)) for row in codes.tolist())


# entries per row block of a vectorised table gather: keeps temporaries small
_BLOCK = 1 << 14
# a table fill takes at most this many blocks (of rows or columns), so the
# blocks of a large group grow with it instead of shrinking to one row
_TABLE_BLOCKS = 128


# the largest group whose indices 0 .. |G|-1 fit in int16
_INT16_GROUP = 1 << 15


def _index_dtype(size):
    """The narrowest signed dtype of a Cayley table over a group of the given
    order: int16 up to _INT16_GROUP elements, int32 above."""
    return np.int16 if size <= _INT16_GROUP else np.int32


def row_blocks(rows, width, budget=_BLOCK):
    """Slices covering range(rows), each about `budget` entries of the given
    width."""
    step = max(1, budget // width)
    return (slice(r, min(r + step, rows)) for r in range(0, rows, step))


def _table_blocks(rows, width):
    """row_blocks of _BLOCK entries, or of 1/_TABLE_BLOCKS of the rows when
    that is more."""
    return row_blocks(rows, width, max(_BLOCK, -(-rows // _TABLE_BLOCKS) * width))


def _local_gl(local, n):
    """The invertible n x n matrices over one local factor: (A, dets, lookup).

    A holds their row-major entry codes, shape (size, n, n): the identity
    first, then the rest in increasing order of their base-q codes.  dets
    holds their determinants, and lookup maps a base-q code to the matrix's
    position in A, -1 for a singular matrix.  The q^(n^2) candidates are
    walked in blocks, each determinant summed over permutations through the
    ring's tables.
    """
    add, mul, neg, _, unit = ring_arrays(local)
    q, nn = local.size, n * n
    place = q ** np.arange(nn - 1, -1, -1, dtype=np.int64)
    perms = _perms_with_signs(n)
    kept, mats, dets = [], [], []
    for block in row_blocks(q ** nn, nn, _BLOCK << 4):
        codes = np.arange(block.start, block.stop, dtype=np.int64)
        flat = (codes[:, None] // place % q).astype(np.int32)
        det = np.full(len(codes), local.zero, dtype=np.int32)
        for perm, sign in perms:
            term = flat[:, perm[0]]
            for i in range(1, n):
                term = mul[term, flat[:, i * n + perm[i]]]
            det = add[det, neg[term] if sign < 0 else term]
        keep = unit[det]
        kept.append(codes[keep])
        mats.append(flat[keep])
        dets.append(det[keep])
    kept, A, dets = (np.concatenate(x) for x in (kept, mats, dets))
    ident = np.where(np.eye(n, dtype=bool), local.one, local.zero).reshape(nn, 1)
    at = int(np.flatnonzero(kept == _encode(ident, q)[0])[0])
    order = np.concatenate(([at], np.arange(at), np.arange(at + 1, len(kept))))
    lookup = np.full(q ** nn, -1, dtype=np.int32)
    lookup[kept[order]] = np.arange(len(kept), dtype=np.int32)
    return A[order].reshape(-1, n, n), dets[order], lookup


def _local_table(local, A, lookup):
    """Cayley table of one local factor's matrices, gathered from its ring tables.

    A holds the matrices' entry codes, shape (size, n, n).  Row i of a b is
    row i of a times b, so each distinct row vector v of the matrices is
    multiplied by a block of right factors b once, entry by entry through
    the ring's addition and multiplication tables, and kept as base-q row
    codes.  A product's base-q code (see _local_gl) is then read off its
    rows' codes and mapped back to an index through `lookup`.  A product
    that is not among the matrices raises.
    """
    (size, n, _), q = A.shape, local.size
    add, mul = ring_arrays(local)[:2]
    add = add.ravel()
    # the distinct rows V, and row_of[a, i] = the position of row i of a in V
    rows = _encode(A.transpose(2, 0, 1), q)
    seen = np.zeros(q ** n, dtype=bool)
    seen[rows] = True
    row_of = (np.cumsum(seen) - 1)[rows]
    V = np.flatnonzero(seen)[:, None] // q ** np.arange(n - 1, -1, -1) % q
    table = np.empty((size, size), dtype=_index_dtype(size))
    for cols in _table_blocks(size, size * n * n):
        # M[x, k, j, b] = x * A[b, k, j]: row k of each right factor, scaled by x
        M = mul[:, A[cols].transpose(1, 2, 0)]
        # vb[v, j, b] = entry j of V[v] A[b] = sum_k V[v, k] A[b, k, j]
        vb = M[V[:, 0], 0]
        for k in range(1, n):
            vb = add[vb * q + M[V[:, k], k]]
        vb = _encode(vb.transpose(1, 0, 2), q)
        code = vb[row_of[:, 0]]
        for i in range(1, n):
            code *= q ** n
            code += vb[row_of[:, i]]
        pos = lookup[code]
        if pos.min() < 0:
            raise GroupError("a product of invertible matrices is not in the group")
        table[:, cols] = pos
    return table


def _local_subgroups(loc, A):
    """Local indices of the standard subgroups U, V, L, N and G0, read off as
    boolean masks over one factor's matrices, A their (size, n, n) entry
    codes.  Every matrix in A is invertible, so N (one nonzero entry per
    column) has unit entries."""
    n = A.shape[1]
    off = ~np.eye(n, dtype=bool)
    below = np.tril(off)
    diag, nonzero = A[:, ~off], A != loc.zero
    ideal = np.zeros(loc.size, dtype=bool)
    ideal[list(loc.ideal)] = True
    one_plus = np.zeros(loc.size, dtype=bool)
    one_plus[[loc.add(loc.one, t) for t in loc.ideal]] = True
    unipotent = (diag == loc.one).all(axis=1)
    masks = {
        "U": unipotent & ~nonzero[:, below].any(axis=1),
        "V": unipotent & ~nonzero[:, below.T].any(axis=1),
        "L": ~nonzero[:, off].any(axis=1),
        "N": (nonzero.sum(axis=1) == 1).all(axis=1),
        "G0": ideal[A[:, off]].all(axis=1) & one_plus[diag].all(axis=1),
    }
    return {name: np.flatnonzero(mask) for name, mask in masks.items()}


def _local_labels(loc, A):
    """Permutation part of every matrix of one local factor over its residue
    field, A their (size, n, n) entry codes, as its rank among the
    lexicographically ordered permutations.

    Columns are processed left to right; the pivot of a column is the
    topmost not-yet-assigned row with a nonzero entry, and entries below the
    pivot in unassigned rows are cleared by adding multiples of the pivot
    row downwards (a lower-unipotent operation).  The permutation p has
    p[j] = the pivot row of column j.
    """
    field = loc.residue_ring
    add, mul, neg, inv, _ = ring_arrays(field)
    a = np.array([loc.reduce(x) for x in range(loc.size)], dtype=np.int32)[A]
    size, n = A.shape[:2]
    rows, below = np.arange(size), np.arange(n) > np.arange(n)[:, None]
    taken = np.zeros((size, n), dtype=bool)
    perm = np.empty((size, n), dtype=np.intp)
    for j in range(n):
        live = ~taken & (a[:, :, j] != field.zero)
        if not live.any(axis=1).all():
            raise GroupError("matrix is singular over the residue field")
        piv = live.argmax(axis=1)
        taken[rows, piv] = True
        perm[:, j] = piv
        prow = a[rows, piv]
        f = mul[a[:, :, j], inv[prow[:, j]][:, None]]
        clear = live & below[piv]
        a = np.where(clear[:, :, None], add[a, neg[mul[f[:, :, None], prow[:, None]]]], a)
    # the lexicographic rank: sum over j of (n-1-j)! times the number of
    # later entries below p[j]
    return sum((perm[:, j + 1:] < perm[:, j, None]).sum(axis=1) * math.factorial(n - 1 - j)
               for j in range(n))


def _local_ulv(loc, A):
    """Factor every matrix of one local factor as u diag(l) v, with u upper-
    and v lower-unipotent; A holds their (k, n, n) entry codes.

    Peels the trailing corner: the residual (c, c) entry must be a unit at
    every step.  Returns (ok, u, l, v), code arrays of A's shape (l
    diagonal); ok[i] is False exactly when matrix i is outside U L V, and
    then its u, l, v are meaningless.
    """
    add, mul, neg, inv, unit = ring_arrays(loc)
    n = A.shape[1]
    eye = np.eye(n, dtype=bool)
    work = A.copy()
    u = np.empty_like(A)
    u[:] = np.where(eye, loc.one, loc.zero)
    v = u.copy()
    ell = np.empty(A.shape[:2], dtype=A.dtype)
    ok = np.ones(len(A), dtype=bool)
    for c in range(n - 1, -1, -1):
        d = work[:, c, c]
        ok &= unit[d]
        dinv = inv[d][:, None]
        ell[:, c] = d
        u[:, :c, c] = mul[work[:, :c, c], dinv]
        v[:, c, :c] = mul[dinv, work[:, c, :c]]
        ud = mul[u[:, :c, c], d[:, None]]
        work[:, :c, :c] = add[work[:, :c, :c], neg[mul[ud[:, :, None], v[:, None, c, :c]]]]
    lmat = np.full_like(A, loc.zero)
    lmat[:, eye] = ell
    return ok, u, lmat, v


def factor_ulv_codes(ring: RingSpec, codes):
    """_local_ulv over a code array of shape (k, n, n, m), the last axis
    running over the ring's local factors: (ok, u, l, v) in the same
    layout.  A matrix factors exactly when it factors in every factor."""
    parts = [_local_ulv(loc, codes[..., f]) for f, loc in enumerate(ring.locals)]
    ok = np.logical_and.reduce([p[0] for p in parts])
    return (ok, *(np.stack([p[i] for p in parts], axis=-1) for i in (1, 2, 3)))


def factor_ulv(ring: RingSpec, mat):
    """Factor mat = u * diag(l) * v with u upper-unipotent, v lower-unipotent.

    Returns None exactly when mat is outside the set U L V; one matrix
    through factor_ulv_codes.
    """
    ok, *ulv = factor_ulv_codes(ring, np.array(mat, dtype=np.int32)[None])
    return tuple(_as_mat(x[0]) for x in ulv) if ok[0] else None


def gl_order(ring: RingSpec, n: int) -> int:
    """|GL_n(ring)| by the order formula: a local factor of size q whose
    residue field has r elements contributes (q/r)^(n^2) prod_{i<n} (r^n - r^i)."""
    out = 1
    for loc in ring.locals:
        r = loc.size if loc.kind == "gf" else loc.p
        out *= (loc.size // r) ** (n * n) * math.prod(r ** n - r ** i for i in range(n))
    return out


class GroupTable(object):
    """Fully tabulated GL_n(R) for one ring; built by enumerate_gl.

    Each element field is one integer array over G: codes[g], shape
    (n, n, m), holds the entry codes of element g (entry (i, j) in local
    factor f at [i, j, f]), det_codes[g], shape (m,), those of its
    determinant, and label_index[g] the position of its Bruhat label in
    weyl.  mat, diag and bruhat_label build one element's tuple form from
    them on demand.  The Cayley table _table is in _index_dtype(|G|), so
    everything gathered from it is int16 up to 2^15 elements.  Element g of
    a product ring is np.unravel_index(g, [f.size for f in factors]).
    """

    def __init__(self, ring, n, codes, det_codes, label_index, table, inv,
                 subgroups, weyl, lookups, factors=None):
        self.ring = ring
        self.n = n
        self.size = len(codes)
        self.codes = codes
        self.det_codes = det_codes
        self.label_index = label_index
        self._table = table
        self._inv = inv
        self.weyl = weyl
        self._lookups = lookups
        self._factors = factors
        self._pyrows = None
        wcodes = np.array([weyl_matrix(ring, w) for w in weyl], dtype=np.int32)
        self.weyl_to_index = dict(zip(weyl, self.index_of(wcodes).tolist()))
        self.subgroups = dict(subgroups, W=tuple(sorted(self.weyl_to_index.values())))
        cells = ((w, np.flatnonzero(label_index == k)) for k, w in enumerate(weyl))
        self.cells = {w: tuple(c.tolist()) for w, c in cells if len(c)}

    identity = 0

    @property
    def factors(self):
        """One one-factor GroupTable per local factor (GL_n of a product ring
        is the product of its factors' groups); [self] for a local ring."""
        return self._factors or [self]

    def inv(self, i: int) -> int:
        return int(self._inv[i])

    def mat(self, i: int):
        return _as_mat(self.codes[i])

    def index_of(self, codes):
        """Index of every matrix in a code array of shape (..., n, n, m), -1
        where the matrix is not in the group; looked up factor by factor
        through each factor's base-q code and combined in mixed radix."""
        codes = np.asarray(codes)
        m, nn = len(self.ring.locals), self.n * self.n
        flat = codes.reshape(-1, nn, m)
        ok = np.ones(len(flat), dtype=bool)
        local = []
        for f, (loc, lookup) in enumerate(zip(self.ring.locals, self._lookups)):
            x = flat[:, :, f]
            ok &= ((x >= 0) & (x < loc.size)).all(axis=1)
            pos = lookup[_encode(np.where(ok[:, None], x, 0).T, loc.size)]
            ok &= pos >= 0
            local.append(np.where(ok, pos, 0))
        index = np.ravel_multi_index(local, [f.size for f in self.factors])
        return np.where(ok, index, -1).reshape(codes.shape[:-3])

    def py_rows(self):
        """Multiplication table as nested Python-int lists.

        Nothing in the package calls it: its only callers are the naive
        product oracle of the tests and the benchmark tracer, which wraps it.
        """
        if self._pyrows is None:
            self._pyrows = self._table.tolist()
        return self._pyrows

    def subgroup(self, name: str):
        try:
            return self.subgroups[name]
        except KeyError:
            raise GroupError(f"unknown subgroup {name!r}") from None

    def diag(self, i: int):
        return tuple(map(tuple, self.codes[i, range(self.n), range(self.n)].tolist()))

    def bruhat_label(self, i: int) -> PermWord:
        return self.weyl[self.label_index[i]]

    def conjugated(self, indices, widx: int):
        """Indices of w^-1 h w for h in indices, as an array."""
        return self._table[self._table[self._inv[widx], indices], widx]

    def __repr__(self):
        return f"GroupTable(GL_{self.n}({self.ring.canonical_str}), |G|={self.size})"


def _factor_table(ring: RingSpec, n: int) -> GroupTable:
    """GL_n of a one-factor ring as a GroupTable, in _local_gl's order (the
    identity, then increasing base-q codes), which is already a GroupTable's
    order."""
    loc = ring.locals[0]
    A, dets, lookup = _local_gl(loc, n)
    table = _local_table(loc, A, lookup)
    # a table row is a permutation, so its least entry is the identity 0
    inv = np.argmin(table, axis=1).astype(np.int32)
    subgroups = {name: tuple(s.tolist()) for name, s in _local_subgroups(loc, A).items()}
    return GroupTable(ring, n, A[..., None], dets[:, None],
                      _local_labels(loc, A), table, inv, subgroups,
                      weyl_elements(1, n), (lookup,))


def enumerate_gl(ring: RingSpec, n: int, max_cost: int = 10 ** 8) -> GroupTable:
    """Enumerate GL_n(ring) and tabulate everything the rest of the code needs.

    Refuses (SizeGuardError) when the candidate count |R|^(n^2) or the
    multiplication table size |G|^2 exceeds max_cost; |G| is taken from the
    order formula, so a refusal enumerates nothing.  Each local factor's
    group is built as a one-factor GroupTable and kept on `factors`, and a
    product ring's fields are the factors' combined in mixed radix.
    """
    if n < 1:
        raise GroupError(f"matrix size must be >= 1, got {n}")
    candidates = ring.size ** (n * n)
    if candidates > max_cost:
        raise SizeGuardError(
            f"candidate count {ring.size}^{n * n} = {candidates} exceeds bound {max_cost}")
    total = gl_order(ring, n)
    if total * total > max_cost:
        raise SizeGuardError(
            f"group order {total} gives table size {total}^2 > bound {max_cost}")
    locs = ring.locals
    rings = [ring] if len(locs) == 1 else [RingSpec([loc]) for loc in locs]
    factors = [_factor_table(r, n) for r in rings]
    sizes = [f.size for f in factors]
    if math.prod(sizes) != total:
        raise GroupError(f"enumerated {math.prod(sizes)} elements, not {total}")
    if len(factors) == 1:
        return factors[0]

    def mixed(parts, radix=sizes):   # every combination, in increasing order
        return np.ravel_multi_index(np.ix_(*parts), radix).ravel()

    # g has the factor indices np.unravel_index(g, sizes); the table is built
    # a factor at a time, each partial index below |G| in the table's dtype
    combos = np.unravel_index(np.arange(total), sizes)
    codes = np.concatenate([f.codes[c] for f, c in zip(factors, combos)], axis=-1)
    det_codes = np.concatenate([f.det_codes[c] for f, c in zip(factors, combos)], axis=1)
    table = np.zeros((1, 1), dtype=_index_dtype(total))
    for f in factors:
        table = (table[:, None, :, None] * f.size + f._table[None, :, None, :]).reshape(
            len(table) * f.size, -1)
    subgroups = {name: tuple(mixed([f.subgroups[name] for f in factors]).tolist())
                 for name in ("U", "V", "L", "N", "G0")}
    # Bruhat labels combined as the position in weyl_elements' order, also
    # the first factor most significant
    label_index = mixed([f.label_index for f in factors], [math.factorial(n)] * len(factors))
    return GroupTable(ring, n, codes, det_codes, label_index, table,
                      mixed([f._inv for f in factors]), subgroups,
                      weyl_elements(len(factors), n),
                      tuple(f._lookups[0] for f in factors), factors)


def weyl_matrix(ring: RingSpec, w: PermWord):
    """The monomial 0/1 matrix of a PermWord over the given ring."""
    n = w.n
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            row.append(tuple(loc.one if p[j] == i else loc.zero
                             for loc, p in zip(ring.locals, w.perms)))
        rows.append(tuple(row))
    return tuple(rows)
