"""Reference routes that the tests compare the verifier's faster routes with.

Most are the |G|-wide computation that a check ran before it moved to coset
or Hecke coordinates: exact spans of group-algebra vectors over Q(zeta_e),
the Halmos solve with its closure, coordinate tables and inverse systems
taken from |G|-wide products, Lemma 3.3's identities as products, the left
module spanned by the translates of E_chi, thm1's sandwich ranks and the
end algebras from the module bases, lem3.10's twist applied to the
idempotents as group-algebra elements, and the conjugacy classes from every
conjugate x^-1 g x rather than from conjugation by a generating set.
The per-character routes build E_chi, its class sums, the rows of its end
algebra and the end algebra itself one character at a time, each with a
gather, a reducer and a centre solve of its own and every trace-form rank
exact.
zc's Krylov relation is also found by a solve_affine sweep over the powers
of e_U e_V, as it was before the relation was read off their tags.
The rest are plain references: a CycloNum elimination (rank, span_rank), the
complex value of a CycloNum for float cross-checks, the whole-ring residue
map, and single products and translates read off the Cayley table.
"""

import cmath
import math
from fractions import Fraction

import numpy as np

from pseries import (AlgElem, CycloNum, HalmosElement, LeviChar, SparseReducer,
                     enumerate_gl, idempotent_subgroup)
from pseries.algebra import AlgebraError, _mul_dense, idempotent_char, matmul_dtype, stack
from pseries.chars import factor_chars, unit_structures
from pseries.cyclo import (CycloError, exact_dtype, fold_array, max_abs, power_fold,
                           root_coords, solve_affine, times)
from pseries.groups import ring_arrays, row_blocks
from pseries.rings import RingSpec
from pseries.verify import (CheckResult, EndAlgebra, VerifyAlarm, _block, _counts, _dense,
                            _lift, _mask, _multiplicative_on_generators, _products, _rank,
                            _rows, _sandwich_values, _unit_solution, _uv_products,
                            _z_solutions)

# dense (|G|, phi) entries per stack that the references feed or multiply at
# once (16 MB in float64), so a wide span is built a batch at a time
_BATCH = 1 << 21


def _coords(red, vecs, alarm):
    """(coords, den): the coordinates of a stack of vectors on red's pivots,
    an integer array (k, rank, phi) over one denominator; VerifyAlarm(alarm)
    when a vector lies outside red's span."""
    coords, dens, inside = red.coords_list(vecs)
    if not inside.all():
        raise VerifyAlarm(alarm)
    den = math.lcm(*dens.tolist())
    return coords * (den // dens)[:, None, None], den


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


def as_fraction(a: CycloNum) -> Fraction:
    """a as a Fraction; CycloError unless a is rational."""
    if not a.is_rational():
        raise CycloError(f"{a} is not rational")
    return a.c[0]


def mul(t, i: int, j: int) -> int:
    """The product of group elements i and j, one read of the Cayley table."""
    return int(t._table[i, j])


def left_translate(a, g: int):
    """delta_g a: a's coefficients moved to the keys g x."""
    return AlgElem.from_vec(a.table, a.e, (a.table._table[g, a.keys], a.rows, a.den))


def right_translate(a, g: int):
    """a delta_g: a's coefficients moved to the keys x g."""
    return AlgElem.from_vec(a.table, a.e, (a.table._table[a.keys, g], a.rows, a.den))


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


def _times_right(vecs, x):
    """The products v x for a stack of vectors v at conductor 1, computed as
    (x* v*)* in one kernel call; at conductor 1, * only sends each key g to
    g^-1."""
    inv = x.table._inv
    keys, rows, den = _mul_dense(x.star(), (inv[vecs[0]], *vecs[1:]))
    return keys, rows[:, inv], den


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


def wide_lemma33(v):
    """Verifier.check_lemma33's identities by |G|-wide products, z z_inv and
    z_inv z included, with z e_U e_V compared with zc first."""
    h = v.halmos
    if h.z * v.c_uv != v.zc:
        raise VerifyAlarm("z e_U e_V of the Halmos solve differs from the Krylov zc")
    return {
        "self_adjoint": h.z.star() == h.z,
        "central": h.z * v.eU == v.eU * h.z and h.z * v.eV == v.eV * h.z,
        "uv_identity": v.zc * v.c_uv == v.c_uv,
        "vu_identity": (h.z * v.c_vu) * v.c_vu == v.c_vu,
        "invertible": h.z * h.z_inv == h.unit and h.z_inv * h.z == h.unit,
    }


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
    most = max(1, _BATCH // (t.size * E.rows.shape[1]))
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
    return single_end_fields(chi.key(), struct.reshape(k, k, k, -1), den, e)


def single_end_fields(key, struct, den, e):
    """The EndAlgebra of B from its structure constants over den: the centre
    from a commutation system of its own, the blocks from
    single_wedderburn_blocks."""
    k = len(struct)
    comm = (struct - struct.transpose(1, 0, 2, 3)).reshape(k, k * k, -1)
    sol = solve_affine(e, _block(comm, np.zeros_like(comm[0])))
    blocks, ranks = single_wedderburn_blocks(struct, e, sol.nullspace)
    return EndAlgebra(key, k, sol.dimension, blocks, ranks, struct.tolist(), den)


def single_wedderburn_blocks(struct, e, centre):
    """verify._wedderburn_blocks for one algebra, every rank exact (_rank):
    (blocks, ranks), the trace form T of the centre ranked on its own."""
    ft, kf = fold_array(e)

    def mul(spec, a, b):
        dtype = exact_dtype(kf * max_abs(a) * max_abs(b) * a.size * b.size)
        F = ft.reshape(len(ft), len(ft), -1).astype(dtype)
        return np.einsum(spec, a.astype(dtype), b.astype(dtype), F)

    k, c = len(struct), len(centre)
    tr_b = struct[:, range(k), range(k)].sum(axis=1).astype(object)
    Z = np.array(centre, dtype=object)
    free = [int(np.flatnonzero(z.any(axis=1))[-1]) for z in Z]
    n = Z[range(c), free, 0]
    if (Z[:, free, 0] != np.diag(n)).any() or Z[:, free, 1:].any():
        raise VerifyAlarm("the basis of the centre is not in echelon form")
    N = math.lcm(*n.tolist())
    Z *= (N // n)[:, None, None]
    Q = mul("bjs,ajtr,sru->abtu", Z, mul("ais,ijtr,sru->ajtu", Z, struct))
    tr_z = mul("ijs,tjir,sru->tu", Z, struct[:, :, free])
    if _rank(e, mul("abts,tr,sru->abu", Q, tr_z)) != c:
        raise VerifyAlarm("the trace form of the centre is degenerate")
    blocks, d = [], 1
    while len(blocks) < c and k - sum(x * x for x in blocks) > (c - len(blocks)) * d * d:
        blocks += [d] * (c - _rank(e, mul("abts,tr,sru->abu", Q, N * tr_b - d * d * tr_z)))
        d += 1
    blocks += [d] * (c - len(blocks))
    if sum(x * x for x in blocks) != k:
        raise VerifyAlarm(f"Wedderburn blocks do not fill dimension {k}")
    return tuple(blocks), d - 1


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
    """Stacks of c_uv g c_uv for g in gs, of at most _BATCH dense
    entries each, from the left translates g c_uv."""
    width = v.table.size * len(power_fold(v.e))
    for part in row_blocks(len(gs), width, _BATCH):
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
    for part in row_blocks(len(reps), t.size * len(power_fold(e)), _BATCH):
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


def twisted_scalar_failures(v):
    """lem3.10's failure list by twisting e_U, e_V and e_chi themselves: the
    coefficient of each element at g times zeta^t(g), t(g) chi1's exponent
    at det g, compared with e_U, e_V and e_L as group-algebra elements, on a
    Verifier per local factor."""
    failures = []
    for f, lv in enumerate(v.local_verifiers if len(v.ring.locals) > 1 else [v]):
        tf, ef, loc = lv.table, lv.ring.unit_exponent(), lv.ring.locals[0]
        eL = idempotent_subgroup(tf, ef, tf.subgroup("L"))
        units = np.array(loc.units)
        unit_at = np.full(loc.size, -1)
        unit_at[units] = np.arange(len(units))
        umul = unit_at[ring_arrays(loc)[1][np.ix_(units, units)]]
        d = unit_at[tf.det_codes[:, 0]]
        ft, kf = fold_array(ef)
        roots = (root_coords(ef) @ ft).reshape(ef, len(ft), len(ft))
        det_ok = _multiplicative_on_generators(tf, d, umul, lv.generators(tf))
        for chi1 in factor_chars(unit_structures(lv.ring)[0], ef):
            x = np.array([chi1.value_exponent(u) for u in loc.units])
            if not (det_ok and ((x[:, None] + x) % ef == x[umul]).all()):
                failures.append(f"factor{f}:exps{chi1.exps}:multiplicative")
                continue
            t = x[d]

            def twist(a):
                rows = a.rows.astype(object)[:, None] @ roots[t[a.keys]].astype(object)
                return AlgElem.from_vec(tf, ef, (a.keys, rows[:, 0], a.den))

            chi = LeviChar(lv.ring, v.n, ef, ((chi1,) * v.n,))
            if twist(lv.eU) != lv.eU or twist(lv.eV) != lv.eV:
                failures.append(f"factor{f}:exps{chi1.exps}:unipotent")
            if twist(idempotent_char(tf, chi)) != eL:
                failures.append(f"factor{f}:exps{chi1.exps}:echi")
    return failures


def least_conjugate_classes(v):
    """Verifier.classes from the least element min over x of x^-1 g x of
    each g's class, gathered for a block of g at a time: |G|^2 reads, and no
    generating set."""
    t, xs = v.table, np.arange(v.table.size)
    label = np.empty(t.size, dtype=np.intp)
    for gs in row_blocks(t.size, t.size):
        # entry (g, x) is x^-1 g x
        label[gs] = t._table[t._table[t._inv, xs[gs, None]], xs].min(axis=1)
    return np.searchsorted(np.flatnonzero(label == xs), label)


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


def single_E(v, chi):
    """Verifier.E one character at a time: e_chi must lie on L and square to
    itself over G (np.add.at of the products of every pair of its keys),
    and E = zc e_chi is one gather of zc at g l^-1 for e_chi's keys and one
    matmul, with the stack's alarm texts."""
    key, t, ec = chi.key(), v.table, v.e_chi(chi)
    v._uv_table
    if not _mask(t, t.subgroup("L"))[ec.keys].all():
        raise VerifyAlarm(f"e_chi does not commute with z e_U e_V for chi={key}")
    _, kf = fold_array(v.e)
    dtype = exact_dtype(kf * max_abs(ec.rows) ** 2 * len(ec.keys))
    square = np.zeros((t.size, ec.rows.shape[1]), dtype=dtype)
    if len(ec.keys):   # times takes no empty stack; the square of 0 is 0
        np.add.at(square, t._table[np.ix_(ec.keys, ec.keys)].ravel(),
                  times(ec.rows, ec.rows, v.e, dtype).reshape(-1, square.shape[1]))
    if not np.array_equal(square, _dense(ec, dtype) * ec.den):
        raise VerifyAlarm(f"e_chi not idempotent for chi={key}")
    zc = _dense(v.zc)[:, 0]
    bound = max_abs(zc) * max_abs(ec.rows) * len(ec.keys)
    dtype = matmul_dtype(bound)
    rows = zc[t._table[:, t._inv[ec.keys]]].astype(dtype) @ ec.rows.astype(dtype)
    E = AlgElem.from_vec(t, v.e, (np.arange(t.size), rows.astype(exact_dtype(bound)),
                                  v.zc.den * ec.den))
    if E.is_zero():
        raise VerifyAlarm(f"z e_U e_V e_chi vanished for chi={key}")
    return E


def single_class_sums(v, chi):
    """Verifier.pind_character one character at a time: np.add.at of single_E's
    rows at the classes of its keys, over its denominator."""
    E, cls = single_E(v, chi), v.classes
    s = np.zeros((int(cls.max()) + 1, E.rows.shape[1]),
                 dtype=exact_dtype(max_abs(E.rows) * len(E.keys)))
    np.add.at(s, cls[E.keys], E.rows)
    return s, E.den


def single_end_algebra(v, chi):
    """Verifier.end_algebra one character at a time: single_module's pivots
    as B's basis, every product of two of them from one contraction with N
    of their own, their coordinates from one coords_list sweep on that
    reducer, and single_end_fields."""
    e, bred = v.e, single_module(v, chi)
    N, (keys, rows, den) = v._uv_counts, stack(bred.basis_rows())
    k, basis = len(rows), np.zeros((len(rows), len(N), rows.shape[2]), dtype=rows.dtype)
    basis[:, keys] = rows
    struct, den = _coords(bred, (np.arange(len(N)), _uv_products(N, basis, e, v.table.size),
                                 den * den), "product left the endomorphism algebra")
    return single_end_fields(chi.key(), struct.reshape(k, k, k, -1), den, e)


def single_module(v, chi):
    """Verifier.module_reducer one character at a time: its e_chi X_y e_chi
    from a _sandwich_values call of its own, after single_E's certificate."""
    cls, _, F = v._uv_table
    single_E(v, chi)
    M = _sandwich_values(F, cls, v.e_chi(chi).rows[None], v.e)
    red = SparseReducer(v.e)
    red.feed((np.arange(M.shape[1]), M[:, :, 0, 0], 1))
    return red


def solved_krylov_zc(v):
    """Verifier._krylov_zc by a second solve: the powers v_m = s^(m-1) c^m
    of c = e_U e_V on U\\G/V fed untagged until one adds nothing, then
    sum_m b_m v_(m+1) = v_1 solved by solve_affine on an object Krylov
    matrix, and x = s sum_m b_m v_m."""
    t = v.table
    U, V, cls = t.subgroup("U"), t.subgroup("V"), v.uv_class
    R = _counts(t, v.uv_label, [t.identity], v.uv_first, _products(t, V, U))
    s = len(U) * len(V)
    krylov = [np.zeros(len(R), dtype=np.int64)]
    krylov[0][cls[t.identity]] = 1
    red = SparseReducer(1)
    while red.feed(_rows(krylov[-1][None])):
        dtype = exact_dtype(s ** len(krylov))
        krylov.append(krylov[-1].astype(dtype) @ R.astype(dtype))
    P = np.array(krylov, dtype=object)[..., None]
    sol = solve_affine(1, _block(P[1:], P[0]))
    if sol is None:
        raise VerifyAlarm("no x in e_U A e_V with x e_U e_V = e_U e_V")
    y = sol.particular[:, 0].astype(object) @ P[:-1, :, 0]
    at = y[cls] * (s // np.bincount(cls)[cls])
    keys = np.flatnonzero(at != 0)
    return _lift(AlgElem.from_vec(t, 1, (keys, at[keys, None], sol.den)), v.e)
