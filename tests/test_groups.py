"""Group enumeration against classical orders and brute-force matrix oracles."""

import itertools
from functools import reduce

import numpy as np
import pytest

from conftest import STANDARD_PAIRS
from pseries import (PermWord, RingSpec, SizeGuardError, enumerate_gl, factor_ulv,
                     parse_ring_spec, weyl_matrix)
from pseries import groups
from pseries.groups import factor_ulv_codes, gl_order
from references import mul


def mat_mul(ring, a, b):
    n = len(a)
    return tuple(tuple(reduce(ring.add, (ring.mul(a[i][k], b[k][j]) for k in range(n)))
                       for j in range(n)) for i in range(n))


def det2(ring, m):
    return ring.sub(ring.mul(m[0][0], m[1][1]), ring.mul(m[0][1], m[1][0]))


def gl_field_order(q, n):
    out = 1
    for i in range(n):
        out *= q ** n - q ** i
    return out


def test_gl_orders_over_fields():
    for spec, q, n in [("GF(2,1)", 2, 2), ("GF(3,1)", 3, 2), ("GF(2,1)", 2, 3),
                       ("GF(5,1)", 5, 2), ("GF(2,2)", 4, 2)]:
        table = enumerate_gl(parse_ring_spec(spec), n)
        assert table.size == gl_field_order(q, n)


def test_gl2_z4_by_det_filter():
    # independent count: 2x2 matrices over Z/4 with unit determinant
    ring = parse_ring_spec("Z/4")
    count = 0
    for entries in itertools.product(ring.elements(), repeat=4):
        m = (entries[0:2], entries[2:4])
        if ring.is_unit(det2(ring, m)):
            count += 1
    assert count == 96
    assert enumerate_gl(ring, 2).size == 96


def test_gl_order_multiplicative_over_factors():
    assert enumerate_gl(parse_ring_spec("Z/6"), 2).size == 6 * 48
    assert enumerate_gl(parse_ring_spec("Z/4"), 1).size == 2


def test_group_axioms_small():
    for spec, n in [("GF(2,1)", 2), ("Z/4", 1), ("GF(3,1)", 2)]:
        t = enumerate_gl(parse_ring_spec(spec), n)
        e = t.identity
        for i in range(t.size):
            assert mul(t, e, i) == i == mul(t, i, e)
            assert mul(t, i, t.inv(i)) == e == mul(t, t.inv(i), i)
        if t.size <= 48:
            for i in range(t.size):
                for j in range(t.size):
                    for k in range(t.size):
                        assert mul(t, mul(t, i, j), k) == mul(t, i, mul(t, j, k))


def test_table_matches_matrix_product():
    # GF(2,2): field codes are not residues; GF(2,1) n=3: three products per
    # entry; GF(5,1): a table of many row blocks; Z/2xGF(2,2): two factors
    for spec, n in [("GF(2,1)", 2), ("GF(3,1)", 2), ("Z/4", 2), ("GF(2,2)", 2),
                    ("GF(2,1)", 3), ("GF(5,1)", 2), ("Z/2xGF(2,2)", 2)]:
        ring = parse_ring_spec(spec)
        t = enumerate_gl(ring, n)
        idx = {t.mat(i): i for i in range(t.size)}
        assert len(idx) == t.size
        ident = t.mat(t.identity)
        step = 7 if t.size > 50 else 1
        for i in range(0, t.size, step):
            for j in range(0, t.size, step):
                assert mul(t, i, j) == idx[mat_mul(ring, t.mat(i), t.mat(j))]
        for i in range(t.size):
            assert mat_mul(ring, t.mat(i), t.mat(t.inv(i))) == ident
            assert mat_mul(ring, t.mat(t.inv(i)), t.mat(i)) == ident


def test_elements_are_identity_then_mixed_radix():
    # the order GroupTable promises: over a local ring the identity at 0, then
    # increasing base-q codes (lexicographic in the row-major entry codes);
    # over a product ring, g has the factor indices np.unravel_index(g,
    # sizes), the first factor most significant, so every field, index_of,
    # the subgroups and the Cayley table are the factors' combined that way
    for spec, n in [("GF(2,1)", 3), ("Z/4", 2), ("Z/6", 1), ("Z/2xGF(2,2)", 2),
                    ("Z/2xZ/2xZ/3", 2)]:
        ring = parse_ring_spec(spec)
        t = enumerate_gl(ring, n)
        assert t.mat(0) == weyl_matrix(ring, PermWord.identity(len(ring.locals), n))
        assert np.array_equal(t.index_of(t.codes), np.arange(t.size)), spec
        if len(t.factors) == 1:
            flat = [tuple(t.codes[i].ravel().tolist()) for i in range(1, t.size)]
            assert flat == sorted(flat), spec
            continue
        sizes = [f.size for f in t.factors]
        pos = np.unravel_index(np.arange(t.size), sizes)
        for f, (factor, p) in enumerate(zip(t.factors, pos)):
            assert np.array_equal(t.codes[..., f], factor.codes[p, ..., 0]), spec
            assert np.array_equal(t.det_codes[:, f], factor.det_codes[p, 0]), spec
            assert np.array_equal(factor._inv[p], pos[f][t._inv]), spec
        for name in ("U", "V", "L", "N", "G0"):
            grid = itertools.product(*(f.subgroup(name) for f in t.factors))
            assert list(t.subgroup(name)) == [int(np.ravel_multi_index(x, sizes))
                                              for x in grid], (spec, name)
        want = np.ravel_multi_index(
            tuple(f._table[np.ix_(p, p)] for f, p in zip(t.factors, pos)), sizes)
        assert t._table.dtype == np.int16 and np.array_equal(t._table, want), spec


def test_dets_are_multiplicative():
    ring = parse_ring_spec("Z/4")
    t = enumerate_gl(ring, 2)
    dets = [tuple(d) for d in t.det_codes.tolist()]
    for i in range(t.size):
        assert dets[i] == det2(ring, t.mat(i))
    for i in range(0, t.size, 5):
        for j in range(0, t.size, 3):
            assert dets[mul(t, i, j)] == ring.mul(dets[i], dets[j])


def test_subgroup_shapes_and_closure():
    for spec, n in [("GF(3,1)", 2), ("Z/4", 2), ("GF(2,1)", 3)]:
        ring = parse_ring_spec(spec)
        t = enumerate_gl(ring, n)
        sizes = {
            "U": ring.size ** (n * (n - 1) // 2),
            "V": ring.size ** (n * (n - 1) // 2),
            "L": len(ring.units()) ** n,
        }
        for name, expected in sizes.items():
            H = t.subgroup(name)
            assert len(H) == expected
            Hset = set(H)
            assert t.identity in Hset
            for a in H:
                assert t.inv(a) in Hset
                for b in H:
                    assert mul(t, a, b) in Hset
        for u in t.subgroup("U"):
            m = t.mat(u)
            for i in range(n):
                assert m[i][i] == ring.one
                for j in range(i):
                    assert m[i][j] == ring.zero
        for v in t.subgroup("V"):
            m = t.mat(v)
            for i in range(n):
                assert m[i][i] == ring.one
                for j in range(i + 1, n):
                    assert m[i][j] == ring.zero
        for l in t.subgroup("L"):
            m = t.mat(l)
            for i in range(n):
                for j in range(n):
                    if i != j:
                        assert m[i][j] == ring.zero


def test_congruence_kernel_size():
    # |G0| = |m|^(n^2) for a single local factor with maximal ideal m
    for spec, n, expected in [("Z/4", 2, 2 ** 4), ("GF(3,1)", 2, 1), ("Z/9", 1, 3)]:
        t = enumerate_gl(parse_ring_spec(spec), n)
        assert len(t.subgroup("G0")) == expected


def test_factor_ulv_round_trip():
    for spec, n in [("GF(3,1)", 2), ("Z/4", 2)]:
        ring = parse_ring_spec(spec)
        t = enumerate_gl(ring, n)
        U, L, V = t.subgroup("U"), t.subgroup("L"), t.subgroup("V")
        products = {}
        for u in U:
            for l in L:
                for v in V:
                    g = mul(t, mul(t, u, l), v)
                    assert g not in products  # distinctness of the triple product
                    products[g] = (t.mat(u), t.mat(l), t.mat(v))
        for g in range(t.size):
            got = factor_ulv(ring, t.mat(g))
            if g in products:
                assert got == products[g]
            else:
                assert got is None


def test_factor_ulv_codes_match_scalar_call_and_table():
    for spec, n in [("Z/4", 2), ("Z/6", 2), ("GF(2,1)", 3), ("Z/2xGF(2,2)", 2)]:
        ring = parse_ring_spec(spec)
        t = enumerate_gl(ring, n)
        ok, *ulv = factor_ulv_codes(ring, t.codes)
        ui, li, vi = (t.index_of(x) for x in ulv)
        U, L, V = (t.subgroup(h) for h in "ULV")
        assert ok.sum() == len(U) * len(L) * len(V) < t.size
        assert set(ui[ok]) <= set(U) and set(li[ok]) <= set(L) and set(vi[ok]) <= set(V)
        for g in range(t.size):
            got = factor_ulv(ring, t.mat(g))
            if ok[g]:
                assert got == (t.mat(ui[g]), t.mat(li[g]), t.mat(vi[g]))
                assert mul(t, mul(t, ui[g], li[g]), vi[g]) == g
            else:
                assert got is None


def test_index_of_round_trips_every_element():
    for spec, n in [("GF(2,1)", 1), ("Z/4", 2), ("GF(2,1)", 3), ("Z/2xGF(2,2)", 2)]:
        ring = parse_ring_spec(spec)
        t = enumerate_gl(ring, n)
        mats = np.array([t.mat(i) for i in range(t.size)])
        assert (t.index_of(mats) == np.arange(t.size)).all()
        assert t.index_of(mats[-1]) == t.size - 1
        # the zero matrix, a code outside the ring, and (over two factors)
        # the identity with one factor zeroed are not in the group
        outside = np.zeros((3, *mats.shape[1:]), dtype=mats.dtype)
        outside[1] = outside[2] = mats[0]
        outside[1, 0, 0, 0] = ring.locals[0].size
        outside[2, :, :, -1] = 0
        assert t.index_of(outside).tolist() == [-1, -1, -1]


def test_order_formula_matches_enumeration():
    for spec, n in STANDARD_PAIRS + [("Z/2xGF(2,2)", 2), ("Z/9", 1)]:
        ring = parse_ring_spec(spec)
        assert gl_order(ring, n) == enumerate_gl(ring, n).size


def test_guard_refuses_on_the_order_formula(monkeypatch):
    # Z/81 n=2 passes the candidate bound (81^4 < 10^8), and enumerating its
    # 4.3e7 candidates is what the order formula spares
    def fail(*args):
        raise AssertionError("enumerated a group the guard refuses")
    monkeypatch.setattr(groups, "_local_gl", fail)
    with pytest.raises(SizeGuardError, match="group order 25509168 gives table size"):
        enumerate_gl(parse_ring_spec("Z/81"), 2)


def test_perm_word_algebra():
    w1 = PermWord(((1, 0, 2),))
    w2 = PermWord(((0, 2, 1),))
    assert (w1 * w2) * w1 == w1 * (w2 * w1)
    assert w1 * w1.inverse() == PermWord.identity(1, 3)
    assert PermWord.identity(2, 2).is_identity()
    assert not w1.is_identity()
    # length counts inversions factor by factor
    assert PermWord(((2, 1, 0),)).length == 3
    assert PermWord(((1, 0, 2), (0, 2, 1))).length == 2


def test_weyl_elements_and_matrices():
    for spec, n, m in [("GF(3,1)", 2, 1), ("Z/6", 2, 2), ("GF(2,1)", 3, 1)]:
        ring = parse_ring_spec(spec)
        t = enumerate_gl(ring, n)
        import math
        assert len(t.weyl) == math.factorial(n) ** m
        for w in t.weyl:
            mat = weyl_matrix(ring, w)
            gi = t.weyl_to_index[w]
            assert t.mat(gi) == mat
            # each local slice of the matrix is a permutation matrix
            for f in range(m):
                for i in range(n):
                    ones = [j for j in range(n) if mat[i][j][f] == ring.locals[f].one]
                    zeros = [j for j in range(n) if mat[i][j][f] == ring.locals[f].zero]
                    assert len(ones) == 1 and len(zeros) == n - 1


def test_bruhat_cells_partition():
    for spec, n in [("GF(2,1)", 2), ("GF(3,1)", 2), ("Z/4", 2), ("Z/6", 2)]:
        t = enumerate_gl(parse_ring_spec(spec), n)
        total = 0
        seen = set()
        for w, members in t.cells.items():
            total += len(members)
            for g in members:
                assert g not in seen
                seen.add(g)
                assert t.bruhat_label(g) == w
        assert total == t.size
        assert set(t.cells) == set(t.weyl)
        # the identity cell contains all of U, L, V and G0
        idw = PermWord.identity(len(t.ring.locals), n)
        idcell = set(t.cells[idw])
        for name in ("U", "L", "V", "G0"):
            assert set(t.subgroup(name)) <= idcell


def test_conjugated_swaps_unipotents():
    ring = parse_ring_spec("GF(3,1)")
    t = enumerate_gl(ring, 2)
    longest = next(w for w in t.weyl if w.length == 1)
    widx = t.weyl_to_index[longest]
    U, V = t.subgroup("U"), t.subgroup("V")
    assert sorted(t.conjugated(U, widx)) == sorted(V)
    assert sorted(t.conjugated(V, widx)) == sorted(U)


def test_size_guard():
    with pytest.raises(SizeGuardError):
        enumerate_gl(parse_ring_spec("Z/4"), 2, max_cost=10)
    with pytest.raises(SizeGuardError):
        enumerate_gl(parse_ring_spec("Z/6"), 3)  # default guard rejects |G|^2


FACTOR_FIELDS = ("codes", "det_codes", "label_index", "_table", "_inv", "_lookups",
                 "subgroups", "weyl_to_index", "cells")


def test_factor_tables_match_fresh_enumeration():
    # enumerate_gl keeps each factor's group; it must be the group a fresh
    # enumeration of the local ring gives, field by field
    for spec in ("Z/2xZ/2", "Z/2xZ/3", "Z/2xGF(2,2)", "Z/4xZ/2", "Z/2xZ/2xZ/3"):
        ring = parse_ring_spec(spec)
        t = enumerate_gl(ring, 2)
        assert len(t.factors) == len(ring.locals) == spec.count("x") + 1
        for factor, loc in zip(t.factors, ring.locals):
            fresh = enumerate_gl(RingSpec([loc]), 2)
            assert factor.ring == fresh.ring and factor.factors == [factor]
            for name in FACTOR_FIELDS:
                got, want = getattr(factor, name), getattr(fresh, name)
                if isinstance(want, np.ndarray):
                    assert got.dtype == want.dtype and np.array_equal(got, want), (spec, name)
                elif name == "_lookups":
                    assert all(np.array_equal(a, b) for a, b in zip(got, want)), spec
                else:
                    assert got == want, (spec, name)


def test_local_ring_is_its_own_factor():
    t = enumerate_gl(parse_ring_spec("Z/4"), 2)
    assert t.factors == [t]


def test_local_verifiers_enumerate_nothing(monkeypatch):
    from pseries import verify
    calls = []
    inner = verify.enumerate_gl

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)
    monkeypatch.setattr(verify, "enumerate_gl", counted)
    monkeypatch.setattr(groups, "enumerate_gl", counted)
    v = verify.Verifier(parse_ring_spec("Z/2xGF(2,2)"), 2)
    assert len(calls) == 1
    locals_ = v.local_verifiers()
    assert [lv.table for lv in locals_] == v.table.factors
    assert v.check_scalar_twist().passed
    assert len(calls) == 1


def test_table_dtype_is_int16_below_the_limit():
    for spec, n in STANDARD_PAIRS + [("GF(5,1)", 2), ("Z/2xGF(2,2)", 2)]:
        t = enumerate_gl(parse_ring_spec(spec), n)
        assert t._table.dtype == np.int16, spec
        assert all(f._table.dtype == np.int16 for f in t.factors), spec


@pytest.mark.parametrize("spec", ["GF(5,1)", "Z/2xZ/2", "Z/2xGF(2,2)", "Z/4xZ/2"])
def test_int32_table_matches_int16_table(monkeypatch, spec):
    ring = parse_ring_spec(spec)
    narrow = enumerate_gl(ring, 2)
    # a limit of 1 makes every table int32; on a product ring, one at the
    # largest factor keeps the factor tables int16 under an int32 table, the
    # mix enumerate_gl combines through its widened positions
    largest = max(f.size for f in narrow.factors)
    for limit in [1] + [largest] * (largest < narrow.size):
        monkeypatch.setattr(groups, "_INT16_GROUP", limit)
        wide = enumerate_gl(ring, 2)
        assert wide._table.dtype == np.int32
        assert all(f._table.dtype == (np.int16 if f.size <= limit else np.int32)
                   for f in wide.factors)
        assert np.array_equal(wide._table, narrow._table), (spec, limit)
