"""Exact cyclotomic arithmetic against closed forms and float cross-checks."""

import cmath
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from pseries import CycloNum, SparseReducer, solve_affine
from pseries.cyclo import (CycloError, cyclotomic_poly, exact_dtype, max_abs,
                           power_fold)
from references import CycloMatrix, as_fraction, rank, to_complex

CONDUCTORS = [1, 2, 3, 4, 6, 8, 12]


# 2^70 is past the int64 range the elimination engine may use
HUGE = 2 ** 70


def rand_num(e, rng, top=4):
    phi = len(CycloNum.zero(e).c)
    return CycloNum(e, [Fraction(rng.randint(-top, top), rng.randint(1, 3))
                        for _ in range(phi)])


def combine(e, coeffs, vecs):
    """sum of coeffs[i] * vecs[i] for sparse vectors (dict key -> CycloNum)."""
    out = {}
    for cf, vec in zip(coeffs, vecs):
        for k, val in vec.items():
            out[k] = out.get(k, CycloNum.zero(e)) + cf * val
    return out


def as_vec(e, vec):
    """The reducers' input (keys, integer rows, den) of a dict key -> CycloNum."""
    keys = sorted(vec)
    den = math.lcm(*(f.denominator for k in keys for f in vec[k].c))
    rows = [[int(f * den) for f in vec[k].c] for k in keys]
    return (np.array(keys, dtype=np.intp),
            np.array(rows, dtype=object).reshape(len(keys), len(CycloNum.zero(e).c)),
            den)


def as_dict(e, vec):
    """The dict key -> CycloNum of a vector (keys, rows, den)."""
    keys, rows, den = vec
    return {k: CycloNum(e, [Fraction(x, den) for x in row])
            for k, row in zip(keys.tolist(), rows.tolist())}


def test_cyclotomic_poly_known_values():
    # coefficient tuples, constant term first
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_root_has_exact_order():
    for e in CONDUCTORS:
        z = CycloNum.root(e, 1)
        acc = CycloNum.one(e)
        for t in range(1, e + 1):
            acc = acc * z
            if t < e:
                assert acc != CycloNum.one(e)
        assert acc == CycloNum.one(e)


def test_root_exponent_wraps():
    for e in CONDUCTORS:
        for t in range(2 * e):
            assert CycloNum.root(e, t) == CycloNum.root(e, t % e)
            assert CycloNum.root(e, t) == CycloNum.root(e, 1) ** t


def test_field_identities_random():
    rng = random.Random(11)
    for e in CONDUCTORS:
        one = CycloNum.one(e)
        for _ in range(25):
            a, b, c = (rand_num(e, rng) for _ in range(3))
            assert a * (b + c) == a * b + a * c
            assert (a + b) * c == a * c + b * c
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a - a == CycloNum.zero(e)
            if not a.is_zero():
                assert a * a.inverse() == one
            # conjugation is a ring automorphism fixing the rationals
            assert (a * b).conj() == a.conj() * b.conj()
            assert (a + b).conj() == a.conj() + b.conj()
            assert a.conj().conj() == a
            # a * conj(a) is a nonnegative rational only when rational; check norm > 0 numerically
            if not a.is_zero():
                assert abs(to_complex(a)) > 0


def test_scalar_coercion():
    a = CycloNum.root(8, 1)
    assert 2 * a == a + a
    assert a * 2 == a + a
    assert Fraction(1, 2) * (a + a) == a
    assert a + 0 == a
    assert 1 + a == a + CycloNum.one(8)


def test_conductor_mismatch_raises():
    with pytest.raises(CycloError):
        CycloNum.root(4, 1) + CycloNum.root(8, 1)


def test_complex_embedding():
    for e in CONDUCTORS:
        for t in range(e):
            got = to_complex(CycloNum.root(e, t))
            want = cmath.exp(2j * cmath.pi * t / e)
            assert abs(got - want) < 1e-12
    rng = random.Random(3)
    for e in CONDUCTORS:
        for _ in range(10):
            a, b = rand_num(e, rng), rand_num(e, rng)
            assert abs(to_complex(a * b) - to_complex(a) * to_complex(b)) < 1e-9
            assert abs(to_complex(a.conj()) - to_complex(a).conjugate()) < 1e-12


def test_rational_detection():
    a = CycloNum.rational(8, Fraction(3, 7))
    assert a.is_rational() and as_fraction(a) == Fraction(3, 7)
    z = CycloNum.root(8, 1)
    assert not z.is_rational()
    with pytest.raises(CycloError):
        as_fraction(z)
    # zeta_8^2 + zeta_8^6 = i - i = 0
    assert (CycloNum.root(8, 2) + CycloNum.root(8, 6)).is_zero()


def test_power_fold_matches_products():
    for e in CONDUCTORS:
        fold = power_fold(e)
        phi = len(CycloNum.zero(e).c)
        for s in range(phi):
            for t in range(phi):
                mono_s = CycloNum(e, [1 if i == s else 0 for i in range(phi)])
                mono_t = CycloNum(e, [1 if i == t else 0 for i in range(phi)])
                assert (mono_s * mono_t).c == tuple(Fraction(x) for x in fold[s][t])


def test_rank_against_float_svd():
    rng = random.Random(5)
    for e in [1, 2, 3, 4, 6, 8]:
        for m, n, r in [(6, 6, 3), (10, 7, 5), (12, 12, 12), (9, 4, 2)]:
            left = [[rand_num(e, rng) for _ in range(r)] for _ in range(m)]
            right = [[rand_num(e, rng) for _ in range(n)] for _ in range(r)]
            zero = CycloNum.zero(e)
            prod = [[sum((left[i][k] * right[k][j] for k in range(r)), zero)
                     for j in range(n)] for i in range(m)]
            exact = rank(CycloMatrix(e, prod))
            emb = np.array([[to_complex(x) for x in row] for row in prod])
            assert exact == np.linalg.matrix_rank(emb)
            assert exact <= r


def test_rank_big_random_full():
    # generic square matrices are full rank; 50x50 to exercise the pivoting
    rng = random.Random(9)
    rows = [[CycloNum.rational(1, Fraction(rng.randint(-20, 20), rng.randint(1, 9)))
             for _ in range(50)] for _ in range(50)]
    m = CycloMatrix(1, rows)
    emb = np.array([[float(x.c[0]) for x in row] for row in rows])
    assert rank(m) == np.linalg.matrix_rank(emb) == 50


def as_aug(e, mat, rhs):
    """[M | rhs] as solve_affine takes it: integer power-basis coordinates,
    each row over its own common denominator."""
    phi = len(CycloNum.zero(e).c)
    out = np.zeros((len(mat), len(mat[0]) + 1 if mat else 1, phi), dtype=object)
    for i, row in enumerate(mat):
        row = list(row) + [rhs[i]]
        den = math.lcm(*(f.denominator for x in row for f in x.c))
        out[i] = [[int(f * den) for f in x.c] for x in row]
    return out


def as_nums(e, rows, den):
    """CycloNums of integer coordinate rows (n, phi) over den."""
    return [CycloNum(e, [Fraction(x, den) for x in row]) for row in rows.tolist()]


def test_solve_affine_consistent():
    rng = random.Random(7)
    for e, top in [(1, 4), (3, 4), (4, 4), (8, 4), (1, HUGE), (3, HUGE)]:
        zero = CycloNum.zero(e)
        for m, n, r in [(5, 3, 3), (4, 6, 4), (6, 6, 6), (6, 5, 2), (3, 4, 0)]:
            left = [[rand_num(e, rng, top) for _ in range(r)] for _ in range(m)]
            right = [[rand_num(e, rng) for _ in range(n)] for _ in range(r)]
            mat = [[sum((left[i][k] * right[k][j] for k in range(r)), zero)
                    for j in range(n)] for i in range(m)]
            x0 = [rand_num(e, rng) for _ in range(n)]
            rhs = [sum((mat[i][j] * x0[j] for j in range(n)), zero) for i in range(m)]
            sol = solve_affine(e, as_aug(e, mat, rhs))
            assert sol is not None
            # the particular point solves the system
            point = as_nums(e, sol.particular, sol.den)
            for i in range(m):
                assert sum((mat[i][j] * point[j] for j in range(n)), zero) == rhs[i]
            # each nullspace vector maps to zero, and has a unit entry last
            for vec, d in zip(sol.nullspace, sol.null_dens):
                v = as_nums(e, vec, d)
                assert [x for x in v if not x.is_zero()][-1] == CycloNum.one(e)
                for i in range(m):
                    assert sum((mat[i][j] * v[j] for j in range(n)), zero).is_zero()
            assert sol.dimension == n - rank(CycloMatrix(e, mat))
            # point() combines the particular point and the nullspace
            w = [rng.randint(-5, 5) for _ in range(sol.dimension)]
            rows, den = sol.point(w)
            want = point
            for wi, vec, d in zip(w, sol.nullspace, sol.null_dens):
                want = [a + b * wi for a, b in zip(want, as_nums(e, vec, d))]
            assert as_nums(e, rows, den) == want


def test_solve_affine_inconsistent():
    e = 4
    zero, one = CycloNum.zero(e), CycloNum.one(e)
    # 0 * x = 1 has no solution
    assert solve_affine(e, as_aug(e, [[zero]], [one])) is None
    # duplicate row with different rhs
    mat = [[one, one], [one, one]]
    assert solve_affine(e, as_aug(e, mat, [one, zero])) is None
    sol = solve_affine(e, as_aug(e, mat, [one, one]))
    assert sol is not None and sol.dimension == 1
    # x = 1, y = 0, and the nullspace vector (-1, 1)
    assert as_nums(e, sol.particular, sol.den) == [one, zero]
    assert as_nums(e, sol.nullspace[0], sol.null_dens[0]) == [-one, one]


def test_sparse_reducer_matches_dense_rank():
    rng = random.Random(13)
    for e, top in [(1, 4), (2, 4), (3, 4), (4, 4), (8, 4), (1, HUGE), (3, HUGE), (8, HUGE)]:
        zero = CycloNum.zero(e)
        red = SparseReducer(e)
        vecs = []
        for _ in range(12):
            if vecs and rng.random() < 0.3:
                # a combination of earlier vectors must not enlarge the span
                vec = combine(e, [rand_num(e, rng) for _ in vecs], vecs)
            else:
                vec = {rng.randrange(30): rand_num(e, rng, top)
                       for _ in range(rng.randint(1, 5))}
            before = rank(CycloMatrix(e, [[v.get(j, zero) for j in range(30)]
                                          for v in vecs])) if vecs else 0
            vecs.append(vec)
            after = rank(CycloMatrix(e, [[v.get(j, zero) for j in range(30)]
                                         for v in vecs]))
            assert red.feed(as_vec(e, vec)) == ([0] if after > before else [])
            assert red.rank == after


def test_sparse_reducer_membership_and_coords():
    rng = random.Random(17)
    for e, top in [(1, 4), (3, 4), (4, 4), (8, 4), (4, HUGE)]:
        red = SparseReducer(e)
        basis = []
        for i in range(4):
            vec = {i: rand_num(e, rng, top) + 1, 10 + i: rand_num(e, rng, top),
                   20 + i: rand_num(e, rng)}
            red.feed(as_vec(e, vec))
            basis.append(vec)
        # a random combination of basis rows is contained, with matching coordinates
        combo = combine(e, [rand_num(e, rng) for _ in range(4)], basis)
        assert red.contains(as_vec(e, combo))
        coords, dens, inside = red.coords_list(as_vec(e, combo))
        assert inside.tolist() == [True]
        got = as_nums(e, coords[0], dens[0])
        rows = [as_dict(e, row) for row in red.basis_rows()]
        assert all(row[min(row)] == CycloNum.one(e) for row in rows)
        rebuilt = combine(e, got, rows)
        for k in set(combo) | set(rebuilt):
            assert (combo.get(k, CycloNum.zero(e)) - rebuilt.get(k, CycloNum.zero(e))).is_zero()
        # something outside the span
        outside = {25: CycloNum.one(e)}
        assert not red.contains(as_vec(e, outside))
        assert red.coords_list(as_vec(e, outside))[2].tolist() == [False]


def test_coords_list_stacks_match_single_vectors():
    # stacks mixing in-span rows, an all-zero row and rows outside the span,
    # with int64 entries and with entries past the int64 range
    rng = random.Random(23)
    width = 16
    for e in (1, 3, 4, 8):
        phi = len(CycloNum.zero(e).c)
        zero = CycloNum.zero(e)
        for top in (4, HUGE):
            red = SparseReducer(e)
            gens = []
            for _ in range(4):
                vec = {rng.randrange(width): rand_num(e, rng, top)
                       for _ in range(3)}
                red.feed(as_vec(e, vec))
                gens.append(vec)
            vecs = [combine(e, [rand_num(e, rng) for _ in gens], gens)
                    for _ in range(4)]
            vecs.insert(2, {})
            vecs += [{rng.randrange(width): rand_num(e, rng, top)
                      for _ in range(3)} for _ in range(3)]
            den = math.lcm(*(f.denominator for v in vecs for c in v.values()
                             for f in c.c))
            rows = np.zeros((len(vecs), width, phi), dtype=object)
            for i, vec in enumerate(vecs):
                for k, c in vec.items():
                    rows[i, k] = [int(f * den) for f in c.c]
            rows = rows.astype(exact_dtype(max_abs(rows)))
            assert (rows.dtype == object) == (top == HUGE)
            keys = np.arange(width)

            coords, dens, inside = red.coords_list((keys, rows, den))
            assert coords.shape == (len(vecs), red.rank, phi)
            basis = [as_dict(e, row) for row in red.basis_rows()]
            ref = rank(CycloMatrix(e, [[g.get(j, zero) for j in range(width)]
                                       for g in gens]))
            for i, vec in enumerate(vecs):
                grown = rank(CycloMatrix(e, [[g.get(j, zero) for j in range(width)]
                                             for g in gens + [vec]]))
                assert bool(inside[i]) == (grown == ref)
                one = red.coords_list((keys, rows[i], den))
                assert one[2].tolist() == [inside[i]]
                if not inside[i]:
                    continue
                got = as_nums(e, coords[i], dens[i])
                rebuilt = combine(e, got, basis)
                for k in set(vec) | set(rebuilt):
                    assert vec.get(k, zero) == rebuilt.get(k, zero)
                assert (one[0][0].tolist(), one[1][0]) == (coords[i].tolist(), dens[i])
            # the all-zero row has zero coordinates
            assert inside[2] and not coords[2].any()
            assert not inside[-3:].all()


def test_stacked_feed_matches_single_feeds():
    # a stack of random, zero and dependent rows, fed at once, must give the
    # pivots and grown positions of its rows fed one at a time, into a fresh
    # reducer and into one that already holds vectors; contains and in-span
    # coords_list must not depend on stacking either
    rng = random.Random(29)
    width = 14
    for e in (1, 3, 4, 8):
        phi = len(CycloNum.zero(e).c)
        for top, seeded in itertools.product((4, HUGE), (False, True)):
            vecs = []
            for i in range(9):
                if i in (2, 6):
                    vecs.append({})
                elif i > 3 and rng.random() < 0.4:
                    vecs.append(combine(e, [rand_num(e, rng) for _ in vecs], vecs))
                else:
                    vecs.append({rng.randrange(width): rand_num(e, rng, top)
                                 for _ in range(rng.randint(1, 3))})
            den = math.lcm(*(f.denominator for v in vecs for c in v.values()
                             for f in c.c))
            rows = np.zeros((len(vecs), width, phi), dtype=object)
            for i, vec in enumerate(vecs):
                for k, c in vec.items():
                    rows[i, k] = [int(f * den) for f in c.c]
            rows = rows.astype(exact_dtype(max_abs(rows)))
            keys = np.arange(width)
            one, many = SparseReducer(e), SparseReducer(e)
            if seeded:
                seed = {rng.randrange(width): rand_num(e, rng, top) for _ in range(3)}
                one.feed(as_vec(e, seed))
                many.feed(as_vec(e, seed))
            grown = [i for i, row in enumerate(rows) if one.feed((keys, row, den))]
            assert many.feed((keys, rows, den)) == grown
            assert isinstance(grown, list) and grown
            assert ([(k.tolist(), r.tolist(), d) for k, r, d in many.basis_rows()]
                     == [(k.tolist(), r.tolist(), d) for k, r, d in one.basis_rows()])
            # in the span: the fed rows and combinations of them
            probe = rows[[0, 2, len(rows) - 1]]
            assert many.contains((keys, probe, den))
            coords, dens, inside = many.coords_list((keys, probe, den))
            assert inside.all()
            for i, row in enumerate(probe):
                assert one.contains((keys, row, den))
                c1, d1, in1 = one.coords_list((keys, row, den))
                assert in1.tolist() == [True]
                assert (c1[0].tolist(), d1[0]) == (coords[i].tolist(), dens[i])
            # a stack with one row outside the span is not contained
            wide = np.zeros((4, width + 1, phi), dtype=rows.dtype)
            wide[:3, :width] = probe
            wide[3, width, 0] = 1
            assert not many.contains((np.arange(width + 1), wide, den))
            assert many.coords_list((np.arange(width + 1), wide, den))[2].tolist() == [
                True, True, True, False]
