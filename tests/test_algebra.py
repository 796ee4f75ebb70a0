"""Group algebra arithmetic: exact convolution, star, idempotents, spans."""

import itertools
import random
from fractions import Fraction

import pytest

import pseries.algebra as algebra
from pseries import (AlgElem, CycloNum, all_levi_chars, enumerate_gl,
                     idempotent_char, idempotent_subgroup, parse_ring_spec,
                     span_rank)

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
                AlgElem.delta(t, 1, t.mul(i, j))


def test_one_is_neutral():
    t = table_for("GF(3,1)", 2)
    rng = random.Random(0)
    one = AlgElem.one(t, 2)
    for _ in range(5):
        a = rand_elem(t, 2, rng, 7)
        assert one * a == a == a * one


def test_mul_matches_naive_oracle():
    rng = random.Random(1)
    for spec, n, e in [("GF(2,1)", 2, 1), ("GF(3,1)", 2, 2),
                       ("GF(3,1)", 2, 8), ("Z/4", 2, 4)]:
        t = table_for(spec, n)
        for support in [3, t.size // 2, t.size]:
            a = rand_elem(t, e, rng, support)
            b = rand_elem(t, e, rng, support)
            assert a * b == naive_mul(a, b)


def test_huge_coefficients_stay_exact():
    # past the int64 overflow bound the kernel sums exact Python ints; at
    # 10^12 each entry fits in int64 but their products do not
    rng = random.Random(2)
    for big, (spec, e) in itertools.product(
            [10 ** 12, 10 ** 40], [("GF(2,1)", 1), ("GF(3,1)", 4), ("GF(3,1)", 8)]):
        t = table_for(spec, 2)
        a = rand_elem(t, e, rng, 12).scale(big)
        b = rand_elem(t, e, rng, 9).scale(Fraction(big, 7))
        want = naive_mul(a, b)
        assert a * b == want
        assert b * a == naive_mul(b, a)
        assert want * a == naive_mul(want, a)


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
            assert a * b == naive_mul(a, b) == AlgElem(t, e, {t.mul(i, j): c * d})


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
            assert a.left_translate(g) == AlgElem.delta(t, 2, g) * a
            assert a.right_translate(g) == a * AlgElem.delta(t, 2, g)


def test_subgroup_idempotents():
    for spec, n, e in [("GF(3,1)", 2, 2), ("Z/4", 2, 2)]:
        t = table_for(spec, n)
        for name in ("U", "V", "L", "G0"):
            eH = idempotent_subgroup(t, e, t.subgroup(name))
            assert eH * eH == eH
            assert eH.star() == eH
            for h in t.subgroup(name)[:4]:
                assert eH.left_translate(h) == eH
                assert eH.right_translate(h) == eH


def test_idempotent_subgroup_validates():
    t = table_for("GF(3,1)", 2)
    g = next(i for i in range(t.size) if t.mul(i, i) != t.identity and i != t.identity)
    with pytest.raises(algebra.AlgebraError, match="inverse"):
        idempotent_subgroup(t, 2, [t.identity, g])
    with pytest.raises(algebra.AlgebraError, match="identity"):
        idempotent_subgroup(t, 2, [g])
    # closed under inverses, but h^2 is neither 1, h nor h^-1
    h = next(i for i in range(t.size) if t.mul(i, i) not in (t.identity, t.inv(i)))
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
            assert echi.left_translate(l) == want


def test_span_rank_coset_count():
    t = table_for("GF(3,1)", 2)
    eU = idempotent_subgroup(t, 2, t.subgroup("U"))
    translates = [eU.left_translate(g) for g in range(t.size)]
    assert span_rank(translates) == t.size // len(t.subgroup("U"))
    deltas = [AlgElem.delta(t, 2, g) for g in range(t.size)]
    assert span_rank(deltas) == t.size
    assert span_rank([]) == 0
