"""Group algebra arithmetic: exact convolution, star, idempotents, spans."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import pseries.algebra as algebra
from pseries.cyclo import fold_array
from pseries import (AlgElem, CycloNum, all_levi_chars, enumerate_gl,
                     idempotent_char, idempotent_subgroup, parse_ring_spec)
from references import left_translate, mul, right_translate, span_rank

_tables = {}


def table_for(spec, n):
    key = (spec, n)
    if key not in _tables:
        _tables[key] = enumerate_gl(parse_ring_spec(spec), n)
    return _tables[key]


def naive_mul(a, b):
    """Straight convolution oracle, independent of the library's product."""
    rows = a.table.py_rows()
    out = {}
    for i, ca in a.coeffs.items():
        row = rows[i]
        for j, cb in b.coeffs.items():
            k = row[j]
            out[k] = out.get(k, CycloNum.zero(a.e)) + ca * cb
    return AlgElem(a.table, a.e, {k: v for k, v in out.items() if not v.is_zero()})


def rand_elem(table, e, rng, support, denom_max=4):
    coeffs = {}
    for _ in range(support):
        i = rng.randrange(table.size)
        phi = len(CycloNum.zero(e).c)
        coeffs[i] = CycloNum(e, [Fraction(rng.randint(-6, 6), rng.randint(1, denom_max))
                                 for _ in range(phi)])
    return AlgElem(table, e, {k: v for k, v in coeffs.items() if not v.is_zero()})


def test_delta_products_follow_cayley_table():
    t = table_for("GF(2,1)", 2)
    for i in range(t.size):
        for j in range(t.size):
            assert AlgElem.delta(t, 1, i) * AlgElem.delta(t, 1, j) == \
                AlgElem.delta(t, 1, mul(t, i, j))


def test_one_is_neutral():
    t = table_for("GF(3,1)", 2)
    rng = random.Random(0)
    one = AlgElem.one(t, 2)
    for _ in range(5):
        a = rand_elem(t, 2, rng, 7)
        assert one * a == a == a * one


def stacked_products(a, bs):
    """a * b for every b, from one kernel call on the stacked bs."""
    keys, rows, den = algebra._mul_dense(a, algebra.stack(b.vec for b in bs))
    assert rows.shape == (len(bs), a.table.size, len(CycloNum.zero(a.e).c))
    return [AlgElem.from_vec(a.table, a.e, (keys, r, den)) for r in rows]


def assert_products_match_oracle(a, bs):
    """Single products (a stack of one) and one stack of all bs with a zero
    vector among them both equal the naive convolution."""
    want = [naive_mul(a, b) for b in bs]
    assert [a * b for b in bs] == want
    zero = AlgElem.zero(a.table, a.e)
    got = stacked_products(a, [bs[0], zero, *bs[1:]])
    assert got == [want[0], zero, *want[1:]]


def test_mul_matches_naive_oracle():
    # supports from a few keys to all of G, on both sides
    rng = random.Random(1)
    for spec, n, e in [("GF(2,1)", 2, 1), ("GF(3,1)", 2, 3), ("GF(3,1)", 2, 8), ("Z/4", 2, 4)]:
        t = table_for(spec, n)
        for support in [3, t.size // 2, t.size]:
            a = rand_elem(t, e, rng, support)
            assert_products_match_oracle(
                a, [rand_elem(t, e, rng, s) for s in (2, 5, support, t.size)])


def linear_oracle(a, b, sign):
    """a + sign * b on the coefficient dicts."""
    out = dict(a.coeffs)
    for k, c in b.coeffs.items():
        out[k] = out.get(k, CycloNum.zero(a.e)) + c * sign
    return {k: c for k, c in out.items() if not c.is_zero()}


def moved_oracle(a, key, conj=False):
    """The coefficient dict of a with g moved to key(g), conjugated on request."""
    return {key(k): c.conj() if conj else c for k, c in a.coeffs.items()}


def assert_canonical(a):
    keys, rows, den = a.vec
    assert keys.dtype == np.intp and keys.tolist() == sorted(set(keys.tolist()))
    assert rows.shape == (len(keys), len(CycloNum.zero(a.e).c))
    assert (rows != 0).any(axis=1).all()
    assert type(den) is int and den > 0
    assert math.gcd(*rows.ravel().tolist(), den) == 1


def full_width_elem(table, e, rng, support, M):
    """An element with den 1, entries uniform in [-M, M] and max |entry| M,
    so that products of such entries use every bit below their bound."""
    phi = len(CycloNum.zero(e).c)
    keys = np.array(rng.sample(range(table.size), support), dtype=np.intp)
    rows = np.array([[rng.randint(-M, M) for _ in range(phi)] for _ in keys],
                    dtype=object)
    rows[0, 0] = M
    a = AlgElem.from_vec(table, e, (keys, rows, 1))
    assert a.den == 1 and algebra.max_abs(a.rows) == M
    return a


def test_huge_coefficients_stay_exact():
    # the product kernel's bound is kf * max|a| * max|b| * min(|a|, |b|);
    # scales just below and just above 2^53 and 2^62 run its float64, int64
    # and exact object matmuls, each with a left factor of 9 keys and one of
    # 2, and each must equal the naive convolution
    rng = random.Random(2)
    runs = set()
    for (spec, e), limit, side in itertools.product(
            [("GF(2,1)", 1), ("GF(3,1)", 3), ("GF(3,1)", 4), ("Z/4", 8)],
            [2 ** 53, 2 ** 62], [0, 1]):
        t = table_for(spec, 2)
        kf = fold_array(e)[1]
        support = min(9, t.size)
        M = math.isqrt(limit // (kf * support)) + side
        bs = [full_width_elem(t, e, rng, support, M) for _ in range(2)]
        # the 2-key factor's largest entry puts its bound on the same side
        small = -(-limit // (kf * 2 * M)) - 1 + side
        for a, bound in [
                (full_width_elem(t, e, rng, support, M), kf * support * M * M),
                (full_width_elem(t, e, rng, 2, small), kf * 2 * small * M)]:
            assert (bound >= limit) == bool(side)
            assert_products_match_oracle(a, bs)
            runs.add(algebra.matmul_dtype(bound))
    assert runs == {np.float64, np.int64, object}
    # past the int64 bound every other operation runs on exact Python ints
    # too; at 10^12 each entry fits in int64 but their products do not
    for big, (spec, e) in itertools.product(
            [10 ** 12, 10 ** 40], [("GF(2,1)", 1), ("GF(3,1)", 4), ("GF(3,1)", 8)]):
        t = table_for(spec, 2)
        a = rand_elem(t, e, rng, 12).scale(big)
        b = rand_elem(t, e, rng, 9).scale(Fraction(big, 7))
        want = naive_mul(a, b)
        assert a * b == want
        assert_products_match_oracle(want, [a, b])
        assert_products_match_oracle(b, [a, want])
        s = CycloNum.root(e, 1) * Fraction(big, 3) + Fraction(1, big)
        g = rng.randrange(t.size)
        for got, oracle in [
                (a + b, linear_oracle(a, b, 1)),
                (want - a, linear_oracle(want, a, -1)),
                (a.scale(s), {k: c * s for k, c in a.coeffs.items()}),
                (want.star(), moved_oracle(want, t.inv, conj=True)),
                (left_translate(want, g), moved_oracle(want, lambda k: mul(t, g, k))),
                (right_translate(b, g), moved_oracle(b, lambda k: mul(t, k, g)))]:
            assert got.coeffs == oracle
            assert_canonical(got)


def test_routes_agree_and_are_canonical():
    # equality is array equality, so every route to one value must end in
    # the same canonical arrays
    rng = random.Random(10)
    for spec, e in [("GF(3,1)", 1), ("GF(3,1)", 4), ("Z/4", 8)]:
        t = table_for(spec, 2)
        for _ in range(4):
            # at most 20 keys in the product, so some key is left for a zero
            a, b = rand_elem(t, e, rng, 5), rand_elem(t, e, rng, 4)
            g = rng.randrange(t.size)
            want = naive_mul(a, b)
            spare = next(k for k in range(t.size) if k not in want.coeffs)
            scaled = {k: c * Fraction(3, 7) for k, c in want.coeffs.items()}
            scaled[spare] = CycloNum.zero(e)
            routes = [
                a * b,
                AlgElem(t, e, scaled).scale(Fraction(7, 3)),
                (want + b) - b,
                (want + want).scale(Fraction(1, 2)),
                want.star().star(),
                left_translate(left_translate(want, g), t.inv(g)),
                right_translate(right_translate(want, g), t.inv(g)),
            ]
            for got in routes:
                assert got == want
                assert got.coeffs == want.coeffs
                assert_canonical(got)
            zero = want - want
            assert zero == AlgElem.zero(t, e) and zero.den == 1 and zero.is_zero()


def test_product_with_empty_factor():
    rng = random.Random(8)
    for spec, e in [("GF(2,1)", 1), ("GF(3,1)", 4)]:
        t = table_for(spec, 2)
        zero = AlgElem.zero(t, e)
        a = rand_elem(t, e, rng, 7)
        for x, y in [(zero, a), (a, zero), (zero, zero)]:
            assert x * y == naive_mul(x, y) == zero


def test_product_of_single_terms():
    rng = random.Random(9)
    for spec, e in [("GF(2,1)", 1), ("GF(3,1)", 4), ("Z/4", 8)]:
        t = table_for(spec, 2)
        for _ in range(10):
            i, j = rng.randrange(t.size), rng.randrange(t.size)
            c = CycloNum.root(e, rng.randrange(e)) * rng.randint(1, 9)
            d = CycloNum.root(e, rng.randrange(e)) * Fraction(-1, rng.randint(1, 9))
            a, b = AlgElem(t, e, {i: c}), AlgElem(t, e, {j: d})
            assert a * b == naive_mul(a, b) == AlgElem(t, e, {mul(t, i, j): c * d})


def test_scalar_and_linear_structure():
    t = table_for("GF(3,1)", 2)
    rng = random.Random(3)
    a, b = rand_elem(t, 2, rng, 9), rand_elem(t, 2, rng, 9)
    c = rand_elem(t, 2, rng, 5)
    assert (a + b) * c == a * c + b * c
    assert c * (a - b) == c * a - c * b
    assert a.scale(Fraction(2, 3)).scale(Fraction(3, 2)) == a
    assert (-a) + a == AlgElem.zero(t, 2)


def test_star_is_an_anti_automorphism():
    t = table_for("GF(3,1)", 2)
    rng = random.Random(4)
    for _ in range(5):
        a, b = rand_elem(t, 8, rng, 8), rand_elem(t, 8, rng, 8)
        assert (a * b).star() == b.star() * a.star()
        assert a.star().star() == a
    for g in range(0, t.size, 5):
        assert AlgElem.delta(t, 8, g).star() == AlgElem.delta(t, 8, t.inv(g))


def test_inner_product_adjunction():
    # <a b c, d> = <b, a* d c*> makes left/right multiplication adjoint to star
    t = table_for("GF(3,1)", 2)
    rng = random.Random(5)
    for _ in range(5):
        a, b, c, d = (rand_elem(t, 4, rng, 6) for _ in range(4))
        assert (a * b * c).inner(d) == b.inner(a.star() * d * c.star())


def test_translates_match_delta_products():
    for spec, step in [("Z/4", 11), ("Z/2xZ/2", 1)]:
        t = table_for(spec, 2)
        rng = random.Random(6)
        a = rand_elem(t, 2, rng, 12)
        for g in range(0, t.size, step):
            assert left_translate(a, g) == AlgElem.delta(t, 2, g) * a
            assert right_translate(a, g) == a * AlgElem.delta(t, 2, g)


def test_subgroup_idempotents():
    for spec, n, e in [("GF(3,1)", 2, 2), ("Z/4", 2, 2)]:
        t = table_for(spec, n)
        for name in ("U", "V", "L", "G0"):
            eH = idempotent_subgroup(t, e, t.subgroup(name))
            assert eH * eH == eH
            assert eH.star() == eH
            for h in t.subgroup(name)[:4]:
                assert left_translate(eH, h) == eH
                assert right_translate(eH, h) == eH


def test_idempotent_subgroup_validates():
    t = table_for("GF(3,1)", 2)
    g = next(i for i in range(t.size) if mul(t, i, i) != t.identity and i != t.identity)
    with pytest.raises(algebra.AlgebraError, match="inverse"):
        idempotent_subgroup(t, 2, [t.identity, g])
    with pytest.raises(algebra.AlgebraError, match="identity"):
        idempotent_subgroup(t, 2, [g])
    # closed under inverses, but h^2 is neither 1, h nor h^-1
    h = next(i for i in range(t.size) if mul(t, i, i) not in (t.identity, t.inv(i)))
    with pytest.raises(algebra.AlgebraError, match="multiplication"):
        idempotent_subgroup(t, 2, [t.identity, h, t.inv(h)])


def test_char_idempotents_resolve_torus_identity():
    t = table_for("GF(3,1)", 2)
    ring = t.ring
    chars = all_levi_chars(ring, 2)
    e = ring.unit_exponent()
    total = AlgElem.zero(t, e)
    for chi in chars:
        echi = idempotent_char(t, chi)
        assert echi * echi == echi
        total = total + echi
    for psi in chars[:3]:
        for chi in chars:
            prod = idempotent_char(t, chi) * idempotent_char(t, psi)
            if chi == psi:
                assert prod == idempotent_char(t, chi)
            else:
                assert prod.is_zero()
    assert total == AlgElem.delta(t, e, t.identity)


def test_char_idempotent_picks_out_character():
    # l * e_chi = chi(l) e_chi for torus elements l
    t = table_for("Z/4", 2)
    for chi in all_levi_chars(t.ring, 2)[:6]:
        echi = idempotent_char(t, chi)
        for l in t.subgroup("L"):
            want = echi.scale(CycloNum.root(chi.e, chi.value_exponent_on_diag(t.diag(l))))
            assert left_translate(echi, l) == want


def test_span_rank_coset_count():
    t = table_for("GF(3,1)", 2)
    eU = idempotent_subgroup(t, 2, t.subgroup("U"))
    translates = [left_translate(eU, g) for g in range(t.size)]
    assert span_rank(translates) == t.size // len(t.subgroup("U"))
    deltas = [AlgElem.delta(t, 2, g) for g in range(t.size)]
    assert span_rank(deltas) == t.size
    assert span_rank([]) == 0
