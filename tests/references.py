"""Reference routes that the tests compare the verifier's faster routes with.

Each one is the |G|-wide computation that a check ran before it moved to
coset coordinates: exact spans of group-algebra vectors over Q(zeta_e).
"""

import numpy as np

from pseries import SparseReducer, enumerate_gl, idempotent_subgroup
from pseries.algebra import _STACK_BLOCK, _mul_dense, translates
from pseries.cyclo import power_fold
from pseries.groups import row_blocks
from pseries.rings import residue_structure
from pseries.verify import CheckResult, _mask, _products


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
