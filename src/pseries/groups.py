"""GL_n over a finite commutative ring: enumeration, subgroups, Bruhat labels.

Matrices are tuples of tuples of ring elements (which are themselves tuples
of local codes, see rings.py).  A GroupTable fixes an indexing of the whole
group, with the identity at index 0 and all other elements in lexicographic
order of their entry codes, and stores the full index-level multiplication
table, inverse table, the standard subgroups, and the Bruhat label of every
element.
"""

from __future__ import annotations

import itertools

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


def _local_gl(local, n):
    """All invertible n x n matrices over one local factor, with determinants.

    Iteration is lexicographic in the row-major entry codes, so the returned
    list is deterministic.
    """
    perms_signs = _perms_with_signs(n)
    mats, dets = [], []
    mul, add, neg, is_unit = local.mul, local.add, local.neg, local.is_unit
    one, zero = local.one, local.zero
    for flat in itertools.product(range(local.size), repeat=n * n):
        det = zero
        for perm, sign in perms_signs:
            term = one
            for i in range(n):
                term = mul(term, flat[i * n + perm[i]])
                if term == zero:
                    break
            if sign < 0:
                term = neg(term)
            det = add(det, term)
        if is_unit(det):
            mats.append(tuple(flat[i * n:(i + 1) * n] for i in range(n)))
            dets.append(det)
    return mats, dets


# entries per row block of a vectorised table gather: keeps temporaries small
_BLOCK = 1 << 14


def row_blocks(rows, width):
    """Slices covering range(rows), each about _BLOCK entries of the given width."""
    step = max(1, _BLOCK // width)
    return (slice(r, min(r + step, rows)) for r in range(0, rows, step))


def _local_table(local, mats, n):
    """Cayley table of one local factor's matrices, gathered from its ring tables.

    Each product is summed entry by entry through the ring's addition and
    multiplication tables, encoded by its row-major base-q entry codes and
    mapped back to an index through a code -> index array of q^(n^2)
    entries (_local_gl has already walked every one of those codes).  A
    product that is not among mats raises.
    """
    q, size = local.size, len(mats)
    mul = np.array(local._mul, dtype=np.int32)
    add = np.array(local._add, dtype=np.int32)
    A = np.array(mats, dtype=np.int32).reshape(size, n, n)

    def encode(x):
        """Codes of matrices whose n*n row-major entries run along axis 1."""
        code = x[:, 0].astype(np.int64)
        for t in range(1, n * n):
            code = code * q + x[:, t]
        return code

    lookup = np.full(q ** (n * n), -1, dtype=np.int32)
    lookup[encode(A.reshape(size, n * n))] = np.arange(size, dtype=np.int32)
    # M[x, k, j, b] = x * A[b, k, j]: row k of every right factor, scaled by x
    M = mul[:, A.transpose(1, 2, 0)]
    table = np.empty((size, size), dtype=np.int32)
    for rows in row_blocks(size, size * n * n):
        a = A[rows]
        # acc[r, i, j, b] = sum_k a[r, i, k] * A[b, k, j] in the ring
        acc = M[a[:, :, 0], 0]
        for k in range(1, n):
            acc = add[acc, M[a[:, :, k], k]]
        pos = lookup[encode(acc.reshape(len(a), n * n, size))]
        if pos.min() < 0:
            raise GroupError("a product of invertible matrices is not in the group")
        table[rows] = pos
    return table


def _mono_perm(field, mat):
    """Permutation part of an invertible matrix over a residue field.

    Columns are processed left to right; the pivot of a column is the
    topmost not-yet-assigned row with a nonzero entry, and entries below the
    pivot in unassigned rows are cleared by adding multiples of the pivot
    row downwards (a lower-unipotent operation).  Returns p with p[j] = the
    pivot row of column j.
    """
    n = len(mat)
    a = [list(row) for row in mat]
    taken = [False] * n
    assigned = [0] * n
    for j in range(n):
        piv = None
        for i in range(n):
            if not taken[i] and a[i][j] != field.zero:
                piv = i
                break
        if piv is None:
            raise GroupError("matrix is singular over the residue field")
        taken[piv] = True
        assigned[j] = piv
        pinv = field.inv(a[piv][j])
        for i in range(piv + 1, n):
            if not taken[i] and a[i][j] != field.zero:
                f = field.mul(a[i][j], pinv)
                a[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(a[i], a[piv])]
    return tuple(assigned)


def factor_ulv(ring: RingSpec, mat):
    """Factor mat = u * diag(l) * v with u upper-unipotent, v lower-unipotent.

    Peels the trailing corner: the residual (k, k) entry must be a unit at
    every step; returns None exactly when mat is outside the set U L V.
    """
    n = len(mat)
    work = [list(row) for row in mat]
    u = [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)]
    v = [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)]
    ell = [ring.zero] * n
    for k in range(n - 1, -1, -1):
        d = work[k][k]
        if not ring.is_unit(d):
            return None
        dinv = ring.inv(d)
        ell[k] = d
        for i in range(k):
            u[i][k] = ring.mul(work[i][k], dinv)
        for j in range(k):
            v[k][j] = ring.mul(dinv, work[k][j])
        for i in range(k):
            uik_d = ring.mul(u[i][k], d)
            for j in range(k):
                work[i][j] = ring.sub(work[i][j], ring.mul(uik_d, v[k][j]))
    lmat = tuple(tuple(ell[i] if i == j else ring.zero for j in range(n))
                 for i in range(n))
    return (tuple(tuple(r) for r in u), lmat, tuple(tuple(r) for r in v))


def _mat_sort_key(mat, identity):
    flat = tuple(code for row in mat for entry in row for code in entry)
    return (0 if mat == identity else 1, flat)


class GroupTable(object):
    """Fully tabulated GL_n(R) for one ring; built by enumerate_gl."""

    def __init__(self, ring, n, elements, index, table, inv, dets, subgroups,
                 weyl, weyl_to_index, labels):
        self.ring = ring
        self.n = n
        self.size = len(elements)
        self.elements = elements
        self.index = index
        self._table = table
        self._inv = inv
        self.dets = dets
        self.subgroups = subgroups
        self.weyl = weyl
        self.weyl_to_index = weyl_to_index
        self.labels = labels
        self._pyrows = None
        cells = {}
        for i, w in enumerate(labels):
            cells.setdefault(w, []).append(i)
        self.cells = {w: tuple(v) for w, v in cells.items()}

    identity = 0

    def mul(self, i: int, j: int) -> int:
        return int(self._table[i, j])

    def inv(self, i: int) -> int:
        return int(self._inv[i])

    def mat(self, i: int):
        return self.elements[i]

    def mul_row(self, i: int):
        """Row of the multiplication table: j -> index of g_i * g_j."""
        return self._table[i]

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
        m = self.elements[i]
        return tuple(m[k][k] for k in range(self.n))

    def det_of(self, i: int):
        return self.dets[i]

    def bruhat_label(self, i: int) -> PermWord:
        return self.labels[i]

    def conjugated(self, indices, widx: int):
        """Indices of w^-1 h w for h in indices."""
        winv = self.inv(widx)
        return tuple(self.mul(self.mul(winv, h), widx) for h in indices)

    def __repr__(self):
        return f"GroupTable(GL_{self.n}({self.ring.canonical_str}), |G|={self.size})"


def enumerate_gl(ring: RingSpec, n: int, max_cost: int = 10 ** 8) -> GroupTable:
    """Enumerate GL_n(ring) and tabulate everything the rest of the code needs.

    Refuses (SizeGuardError) when the candidate count |R|^(n^2) or the
    multiplication table size |G|^2 exceeds max_cost.
    """
    if n < 1:
        raise GroupError(f"matrix size must be >= 1, got {n}")
    candidates = ring.size ** (n * n)
    if candidates > max_cost:
        raise SizeGuardError(
            f"candidate count {ring.size}^{n * n} = {candidates} exceeds bound {max_cost}")
    locs = ring.locals
    m = len(locs)
    local_mats, local_dets, local_index = [], [], []
    for loc in locs:
        mats, dets = _local_gl(loc, n)
        local_mats.append(mats)
        local_dets.append(dets)
        local_index.append({mt: i for i, mt in enumerate(mats)})
    sizes = [len(ms) for ms in local_mats]
    total = 1
    for s in sizes:
        total *= s
    if total * total > max_cost:
        raise SizeGuardError(
            f"group order {total} gives table size {total}^2 > bound {max_cost}")
    local_tables = [_local_table(loc, local_mats[f], n) for f, loc in enumerate(locs)]

    # combined elements, identity first then lexicographic in entry codes
    identity = tuple(tuple(ring.one if i == j else ring.zero for j in range(n))
                     for i in range(n))
    raw = []
    for combo in itertools.product(*(range(s) for s in sizes)):
        mat = tuple(tuple(tuple(local_mats[f][combo[f]][i][j] for f in range(m))
                          for j in range(n))
                    for i in range(n))
        raw.append((mat, combo))
    raw.sort(key=lambda mc: _mat_sort_key(mc[0], identity))
    elements = [mc[0] for mc in raw]
    index = {mt: i for i, mt in enumerate(elements)}
    dec = [np.fromiter((mc[1][f] for mc in raw), dtype=np.int32, count=total)
           for f in range(m)]

    enc = np.empty(tuple(sizes), dtype=np.int32)
    enc[tuple(dec)] = np.arange(total, dtype=np.int32)

    table = np.empty((total, total), dtype=np.int32)
    for rows in row_blocks(total, total):
        table[rows] = enc[tuple(local_tables[f][dec[f][rows, None], dec[f][None, :]]
                                for f in range(m))]
    # inverses factor by factor; element 0, the identity, holds each local one
    inv = enc[tuple(np.argmax(local_tables[f] == dec[f][0], axis=1)[dec[f]]
                    for f in range(m))]

    dets = [tuple(local_dets[f][dec[f][i]] for f in range(m)) for i in range(total)]

    # standard subgroups, assembled per factor and combined through enc
    def combine(local_lists):
        grid = enc[np.ix_(*[np.asarray(v, dtype=np.int32) for v in local_lists])]
        return grid.ravel()

    def local_subgroup_lists(build):
        return [build(f) for f in range(m)]

    def upper(f):
        loc = locs[f]
        out = []
        above = [(i, j) for i in range(n) for j in range(n) if i < j]
        for vals in itertools.product(range(loc.size), repeat=len(above)):
            mat = [[loc.one if i == j else loc.zero for j in range(n)] for i in range(n)]
            for (i, j), v in zip(above, vals):
                mat[i][j] = v
            out.append(local_index[f][tuple(tuple(r) for r in mat)])
        return out

    def lower(f):
        loc = locs[f]
        out = []
        below = [(i, j) for i in range(n) for j in range(n) if i > j]
        for vals in itertools.product(range(loc.size), repeat=len(below)):
            mat = [[loc.one if i == j else loc.zero for j in range(n)] for i in range(n)]
            for (i, j), v in zip(below, vals):
                mat[i][j] = v
            out.append(local_index[f][tuple(tuple(r) for r in mat)])
        return out

    def torus(f):
        loc = locs[f]
        out = []
        for diag in itertools.product(loc.units, repeat=n):
            mat = tuple(tuple(diag[i] if i == j else loc.zero for j in range(n))
                        for i in range(n))
            out.append(local_index[f][mat])
        return out

    def monomial(f):
        loc = locs[f]
        out = []
        for perm in itertools.permutations(range(n)):
            for diag in itertools.product(loc.units, repeat=n):
                mat = [[loc.zero] * n for _ in range(n)]
                for j in range(n):
                    mat[perm[j]][j] = diag[j]
                out.append(local_index[f][tuple(tuple(r) for r in mat)])
        return out

    def perm_mats(f):
        loc = locs[f]
        out = []
        for perm in itertools.permutations(range(n)):
            mat = [[loc.zero] * n for _ in range(n)]
            for j in range(n):
                mat[perm[j]][j] = loc.one
            out.append(local_index[f][tuple(tuple(r) for r in mat)])
        return out

    def congruence_kernel(f):
        loc = locs[f]
        diag_vals = [loc.add(loc.one, t) for t in loc.ideal]
        out = []
        positions = [(i, j) for i in range(n) for j in range(n)]
        choices = [diag_vals if i == j else list(loc.ideal) for (i, j) in positions]
        for vals in itertools.product(*choices):
            mat = [[loc.zero] * n for _ in range(n)]
            for (i, j), v in zip(positions, vals):
                mat[i][j] = v
            out.append(local_index[f][tuple(tuple(r) for r in mat)])
        return out

    subgroups = {}
    for name, build in (("U", upper), ("V", lower), ("L", torus),
                        ("N", monomial), ("G0", congruence_kernel)):
        subgroups[name] = tuple(sorted(int(x) for x in combine(local_subgroup_lists(build))))

    perm_lists = local_subgroup_lists(perm_mats)
    weyl = weyl_elements(m, n)
    w_indices = combine(perm_lists)  # same product order as weyl_elements
    weyl_to_index = {w: int(i) for w, i in zip(weyl, w_indices)}
    subgroups["W"] = tuple(sorted(weyl_to_index.values()))

    # Bruhat label of every element, computed per factor over the residue field
    local_labels = []
    for f in range(m):
        loc = locs[f]
        field = loc.residue_ring
        lab = []
        for mt in local_mats[f]:
            red = tuple(tuple(loc.reduce(x) for x in row) for row in mt)
            lab.append(_mono_perm(field, red))
        local_labels.append(lab)
    labels = [PermWord(tuple(local_labels[f][dec[f][i]] for f in range(m)))
              for i in range(total)]

    return GroupTable(ring, n, elements, index, table, inv, dets, subgroups,
                      weyl, weyl_to_index, labels)


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
