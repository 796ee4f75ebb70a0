"""Reference routes that the tests compare the verifier's faster routes with.

Most are the |G|-wide computation that a check ran before it moved to coset
or Hecke coordinates: exact spans of group-algebra vectors over Q(zeta_e),
the Halmos solve with its coordinate tables and inverse systems taken from
|G|-wide products, the left module spanned by the translates of E_chi, and
thm1's sandwich ranks and the end algebras from the module bases.
The rest are plain references: a CycloNum elimination (rank, span_rank), the
complex value of a CycloNum for float cross-checks, and the whole-ring
residue map.
"""

import cmath

import numpy as np

from pseries import (AlgElem, CycloNum, HalmosElement, SparseReducer, enumerate_gl,
                     idempotent_subgroup)
from pseries.algebra import _STACK_BLOCK, AlgebraError, _mul_dense, stack
from pseries.cyclo import CycloError, exact_dtype, max_abs, power_fold, solve_affine
from pseries.groups import row_blocks
from pseries.rings import RingSpec
from pseries.verify import (CheckResult, EndAlgebra, VerifyAlarm, _block, _coords, _lift,
                            _mask, _products, _times_right, _unit_solution,
                            _wedderburn_blocks, _z_solutions)


class CycloMatrix:
    """Dense rectangular matrix over Q(zeta_e)."""

    def __init__(self, e, rows):
        self.e = e
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for r in self.rows:
            if len(r) != self.ncols:
                raise CycloError("ragged matrix")
            for x in r:
                if x.e != e:
                    raise CycloError("conductor mismatch in matrix")


def rank(m: CycloMatrix) -> int:
    """Exact row-echelon rank; pivot is the first nonzero entry in each column."""
    rows = [list(r) for r in m.rows]
    r = 0
    for col in range(m.ncols):
        pivot = None
        for i in range(r, m.nrows):
            if not rows[i][col].is_zero():
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pinv = rows[r][col].inverse()
        for i in range(r + 1, m.nrows):
            c = rows[i][col]
            if not c.is_zero():
                f = c * pinv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == m.nrows:
            break
    return r


def to_complex(a: CycloNum) -> complex:
    """a's value with zeta_e = exp(2 pi i / e), in floating point."""
    return sum(float(x) * cmath.exp(2j * cmath.pi * j / a.e)
               for j, x in enumerate(a.c) if x)


def span_rank(elems) -> int:
    """Rank of the span: dense coefficient matrix over the whole group."""
    elems = list(elems)
    if not elems:
        return 0
    table, e = elems[0].table, elems[0].e
    size = table.size
    rows = []
    for a in elems:
        if a.table is not table or a.e != e:
            raise AlgebraError("mixed group algebras in span_rank")
        coeffs = a.coeffs
        rows.append([coeffs.get(i, CycloNum.zero(e)) for i in range(size)])
    return rank(CycloMatrix(e, rows))


class ResidueStructure:
    """Maximal ideals, residue fields and the entrywise reduction map."""

    def __init__(self, ring: RingSpec):
        self.ring = ring
        self.ideals = tuple(r.ideal for r in ring.locals)
        self.residue_ring = RingSpec(tuple(r.residue_ring for r in ring.locals))

    def reduce(self, a):
        return tuple(r.reduce(x) for r, x in zip(self.ring.locals, a))


def residue_structure(ring: RingSpec) -> ResidueStructure:
    return ResidueStructure(ring)


def wide_halmos(v) -> HalmosElement:
    """Verifier._solve_halmos with every table from |G|-wide products: the
    left actions, the squares of e_U e_V and e_V e_U and each candidate's
    products z b_j each take a kernel call and the one coords_list sweep
    (one more per candidate), and the unit and z are re-checked |G|-wide.
    It draws the same weights from v.rng."""
    table = v.table
    eU1 = idempotent_subgroup(table, 1, table.subgroup("U"))
    eV1 = idempotent_subgroup(table, 1, table.subgroup("V"))
    cuv1, cvu1 = eU1 * eV1, eV1 * eU1
    red = SparseReducer(1)
    keys, rows, den = stack([eU1.vec, eV1.vec])
    while True:
        words = keys, rows[red.feed((keys, rows, den))], den
        if not len(words[1]):
            break
        keys, rows, den = stack([_times_right(words, x) for x in (eU1, eV1)])
        rows = rows[np.arange(len(rows)).reshape(2, -1).T.ravel()]
    bvecs = red.basis_rows()
    basis = [AlgElem.from_vec(table, 1, vec) for vec in bvecs]
    bstack = stack(bvecs)
    k = len(basis)
    cuv_sq, cvu_sq = cuv1 * cuv1, cvu1 * cvu1
    outside = "product left the algebra generated by e_U, e_V"
    coords, den = _coords(red, stack([
        _mul_dense(eU1, bstack), _times_right(bstack, eU1),
        _mul_dense(eV1, bstack), _times_right(bstack, eV1),
        (table._inv[bstack[0]], *bstack[1:]),
        _times_right(bstack, cuv_sq), _times_right(bstack, cvu_sq),
        cuv1.vec, cvu1.vec, eU1.vec, eV1.vec]), outside)
    lu, ru, lv, rv, star, puv, pvu = coords[:7 * k].reshape(7, k, k, 1)
    t_uv, t_vu, c_u, c_v = coords[7 * k:]

    def build(xs, xden):
        x = xs[:, 0]
        dtype = exact_dtype(max_abs(x) * max_abs(bstack[1]) * k)
        return AlgElem.from_vec(table, 1, (bstack[0], np.tensordot(
            x.astype(dtype), bstack[1].astype(dtype, copy=False), 1),
            xden * bstack[2]))

    unit_sol = _unit_solution((ru, lu, c_u), (rv, lv, c_v))
    unit = build(unit_sol.particular, unit_sol.den)
    assert unit * unit == unit and unit.star() == unit
    star_fixed = star - den * np.eye(k, dtype=object)[:, :, None]
    sol = _z_solutions((ru, lu, rv, lv), star_fixed, (puv, t_uv), (pvu, t_vu))
    dim = sol.dimension
    weights = [[v.rng.randint(-5, 5) for _ in range(dim)] for _ in range(60)]
    for w in [[0] * dim] + weights:
        z = build(*sol.point(w))
        lz, lz_den = _coords(red, _mul_dense(z, bstack), outside)
        inv_sol = solve_affine(1, _block(
            lz * unit_sol.den, unit_sol.particular * lz_den))
        if inv_sol is None or inv_sol.dimension > 0:
            continue
        z_inv = build(inv_sol.particular, inv_sol.den)
        if not (z * z_inv == unit and z_inv * z == unit):
            continue
        assert z.star() == z
        assert z * eU1 == eU1 * z and z * eV1 == eV1 * z
        assert z * cuv_sq == cuv1 and z * cvu_sq == cvu1
        return HalmosElement(_lift(z, v.e), _lift(z_inv, v.e), _lift(unit, v.e),
                             [_lift(b, v.e) for b in basis], dim)
    raise VerifyAlarm("no invertible solution for z found")


def wide_module(v, chi):
    """The SparseReducer of the left module spanned by the translates g E_chi.

    The trace of right multiplication by a verified idempotent equals the
    dimension of its image, so feeding stops once the rank reaches it; a
    shortfall after all translates would be an alarm.  u E = E and l E =
    chi(l) E for u in U, l in L, so one translate per left coset gB, B = U L,
    is fed, min(gB) in increasing order, each feed as many as the rank lacks.
    """
    key, E, t = chi.key(), v.E(chi), v.table
    # the trace is |G| times E's coefficient at the identity
    at = np.flatnonzero(E.keys == t.identity)
    tr = E.rows[at[0]].tolist() if len(at) else [0]
    if any(tr[1:]):
        raise VerifyAlarm(f"module trace is not rational for chi={key}")
    expected, r = divmod(tr[0] * t.size, E.den)
    if r or expected < 0:
        raise VerifyAlarm(f"module trace is not a dimension for chi={key}")
    right = t._table[:, t.subgroup("U")].min(axis=1)      # min(gU)
    reps = np.flatnonzero(right[t._table[:, t.subgroup("L")]].min(axis=1)
                          == np.arange(t.size))           # min(gB)
    red = SparseReducer(v.e)
    most = max(1, _STACK_BLOCK // (t.size * E.rows.shape[1]))
    while red.rank < expected and len(reps):
        take = min(expected - red.rank, most)
        red.feed(translates(E, reps[:take]))
        reps = reps[take:]
    if red.rank != expected:
        raise VerifyAlarm(f"module dimension disagrees with trace for chi={key}")
    return red


def wide_end_algebra(v, chi):
    """Verifier.end_algebra by |G|-wide products: E_chi times the basis of
    wide_module spans B, and each basis element times the stacked basis, one
    kernel call each, gives a row of structure constants."""
    e = v.e
    keys, prods, _ = _mul_dense(v.E(chi), stack(
        (k, r, 1) for k, r, _ in wide_module(v, chi).basis_rows()))
    bred = SparseReducer(e)
    bred.feed((keys, prods, 1))
    basis = bred.basis_rows()
    k, bstack = len(basis), stack(basis)
    struct, den = _coords(bred, stack(
        _mul_dense(AlgElem.from_vec(v.table, e, b), bstack) for b in basis),
        "product left the endomorphism algebra")
    struct = struct.reshape(k, k, k, -1)
    comm = (struct - struct.transpose(1, 0, 2, 3)).reshape(k, k * k, -1)
    sol = solve_affine(e, _block(comm, np.zeros_like(comm[0])))
    blocks, ranks = _wedderburn_blocks(struct, e, sol.nullspace)
    return EndAlgebra(chi.key(), k, sol.dimension, blocks, ranks, struct.tolist(), den)


def wide_sandwich_ranks(v):
    """Verifier._sandwich_rank(chi, sigma) for every pair, as rows over sigma
    and columns over chi, by |G|-wide products: per sigma one kernel call
    multiplies E_sigma by the stacked wide_module bases of all characters,
    and each character's products go to a SparseReducer of their own."""
    bases = [wide_module(v, c).basis_rows() for c in v.chars]
    stacked = stack((k, r, 1) for b in bases for k, r, _ in b)
    ends = np.cumsum([len(b) for b in bases])
    out = []
    for sigma in v.chars:
        keys, prods, _ = _mul_dense(v.E(sigma), stacked)
        ranks = []
        for lo, hi in zip([0, *ends], ends):
            red = SparseReducer(v.e)
            red.feed((keys, prods[lo:hi], 1))
            ranks.append(red.rank)
        out.append(ranks)
    return out


def translates(a, gs):
    """The stack of g a for g in gs, over the union of their keys: one gather
    from the Cayley table, one scatter of a's rows."""
    t, gs = a.table, np.asarray(gs, dtype=np.intp)
    at = t._table[np.ix_(gs, a.keys)]
    present = np.zeros(t.size, dtype=bool)
    present[at] = True
    rows = np.zeros((len(gs), int(present.sum()), a.rows.shape[1]), dtype=a.rows.dtype)
    rows[np.arange(len(gs))[:, None], (np.cumsum(present) - 1)[at]] = a.rows
    return np.flatnonzero(present), rows, a.den


def right_translates(a, gs):
    """The stack of a g for g in gs, over the union of their keys."""
    t, gs = a.table, np.asarray(gs, dtype=np.intp)
    at = t._table[np.ix_(a.keys, gs)].T
    present = np.zeros(t.size, dtype=bool)
    present[at] = True
    rows = np.zeros((len(gs), int(present.sum()), a.rows.shape[1]), dtype=a.rows.dtype)
    rows[np.arange(len(gs))[:, None], (np.cumsum(present) - 1)[at]] = a.rows
    return np.flatnonzero(present), rows, a.den


def sandwiches(v, gs):
    """Stacks of c_uv g c_uv for g in gs, of at most _STACK_BLOCK dense
    entries each, from the left translates g c_uv."""
    width = v.table.size * len(power_fold(v.e))
    for part in row_blocks(len(gs), width, _STACK_BLOCK):
        yield _mul_dense(v.c_uv, translates(v.c_uv, gs[part]))


def wide_phi_data(v, w):
    """Verifier._phi_data by |G|-wide spans: one right translate of c_w and of
    e_V c_w per coset V^w g, the sandwiches of w L, and one sandwich per
    double coset V g U of the cell."""
    t, e = v.table, v.e
    widx = t.weyl_to_index[w]
    Uw, Vw = (t.conjugated(t.subgroup(h), widx) for h in "UV")
    cw = idempotent_subgroup(t, e, Uw) * idempotent_subgroup(t, e, Vw)
    vcw = v.eV * cw
    red_cw, red_vcw, phi_red = (SparseReducer(e) for _ in range(3))
    reps = np.flatnonzero(_mask(t, t._table[Vw].min(axis=0)))
    for part in row_blocks(len(reps), t.size * len(power_fold(e)), _STACK_BLOCK):
        red_cw.feed(right_translates(cw, reps[part]))
        red_vcw.feed(right_translates(vcw, reps[part]))
    for vecs in sandwiches(v, _products(t, (widx,), t.subgroup("L"))):
        phi_red.feed(vecs)
    V, U = (np.asarray(t.subgroup(h)) for h in "VU")
    double = t._table[V].min(axis=0)[t._table[:, U]].min(axis=1)   # min(V g U)
    cell = np.asarray(t.cells.get(w, ()), dtype=np.intp)
    cell_in_span = all(phi_red.contains(vecs) for vecs in sandwiches(
        v, np.flatnonzero(_mask(t, double[cell]))))
    return {"rank_cw": red_cw.rank, "rank_vcw": red_vcw.rank,
            "rank_phi": phi_red.rank, "cell_span_equal": cell_in_span}


def wide_lin_independence(v):
    """prop3.7 by the rank of the |G|-wide sandwiches of W L."""
    t = v.table
    red = SparseReducer(v.e)
    for vecs in sandwiches(v, _products(t, t.subgroup("W"), t.subgroup("L"))):
        red.feed(vecs)
    expect = len(t.subgroup("W")) * len(t.subgroup("L"))
    return CheckResult("prop3.7", "pass" if red.rank == expect else "fail",
                       {"rank": expect}, {"rank": red.rank})


def whole_ring_residue(v):
    """prop3.2b by reducing all of G onto GL_n of the whole residue ring."""
    rs = residue_structure(v.ring)
    rtab = (v.table if rs.residue_ring == v.ring
            else enumerate_gl(rs.residue_ring, v.n, v.max_cost))
    codes = v.table.codes
    red = np.stack([np.array([loc.reduce(x) for x in range(loc.size)])[codes[..., f]]
                    for f, loc in enumerate(v.ring.locals)], axis=-1)
    images = rtab.index_of(red)
    assert images.min() >= 0
    expected = {"image_size": rtab.size}
    actual = {"image_size": int(_mask(rtab, images).sum())}
    return CheckResult("prop3.2b", "pass" if expected == actual else "fail",
                       expected, actual)
