"""Group enumeration against classical orders and brute-force matrix oracles."""

import itertools
from functools import reduce

import pytest

from pseries import (PermWord, SizeGuardError, enumerate_gl, factor_ulv,
                     parse_ring_spec, weyl_matrix)


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
            assert t.mul(e, i) == i == t.mul(i, e)
            assert t.mul(i, t.inv(i)) == e == t.mul(t.inv(i), i)
        if t.size <= 48:
            for i in range(t.size):
                for j in range(t.size):
                    for k in range(t.size):
                        assert t.mul(t.mul(i, j), k) == t.mul(i, t.mul(j, k))


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
                assert t.mul(i, j) == idx[mat_mul(ring, t.mat(i), t.mat(j))]
        for i in range(t.size):
            assert mat_mul(ring, t.mat(i), t.mat(t.inv(i))) == ident
            assert mat_mul(ring, t.mat(t.inv(i)), t.mat(i)) == ident


def test_dets_are_multiplicative():
    ring = parse_ring_spec("Z/4")
    t = enumerate_gl(ring, 2)
    for i in range(t.size):
        assert t.det_of(i) == det2(ring, t.mat(i))
    for i in range(0, t.size, 5):
        for j in range(0, t.size, 3):
            assert t.det_of(t.mul(i, j)) == ring.mul(t.det_of(i), t.det_of(j))


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
                    assert t.mul(a, b) in Hset
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
                    g = t.mul(t.mul(u, l), v)
                    assert g not in products  # distinctness of the triple product
                    products[g] = (t.mat(u), t.mat(l), t.mat(v))
        for g in range(t.size):
            got = factor_ulv(ring, t.mat(g))
            if g in products:
                assert got == products[g]
            else:
                assert got is None


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
