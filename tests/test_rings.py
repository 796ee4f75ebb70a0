"""Ring layer: parsing, local arithmetic, units, residue maps."""

import math

import pytest

from pseries import LocalRing, RingSpec, RingSpecError, parse_ring_spec
from references import residue_structure


def test_parse_round_trip():
    for text, canon in [
        ("Z/4", "Z/4"),
        ("GF(2,1)", "GF(2,1)"),
        ("Z/2 x Z/9", "Z/2 x Z/9"),
        ("  Z/8xGF( 3 , 2 ) ", "Z/8 x GF(3,2)"),
        ("Z/6", "Z/2 x Z/3"),
        ("Z/12", "Z/4 x Z/3"),
        ("Z/360", "Z/8 x Z/9 x Z/5"),
    ]:
        ring = parse_ring_spec(text)
        assert ring.canonical_str == canon
        # re-parsing the canonical form is stable
        assert parse_ring_spec(ring.canonical_str).canonical_str == canon


def test_parse_rejects_garbage():
    for bad in ["", "Z/1", "Z/0", "GF(4,1)", "GF(2,0)", "Z/4 x", "x Z/4",
                "GF(2)", "Q", "Z/-8", "Z/4 y Z/2", "GF(2,2) Z/3"]:
        with pytest.raises(RingSpecError):
            parse_ring_spec(bad)


def test_parse_error_position():
    try:
        parse_ring_spec("Z/4 x Q/3")
        assert False, "expected a parse error"
    except RingSpecError as err:
        assert err.position >= 4


def test_zmod_matches_integer_arithmetic():
    for n in [2, 3, 4, 8, 9, 25]:
        loc = parse_ring_spec(f"Z/{n}").locals[0]
        for a in range(n):
            for b in range(n):
                assert loc.add(a, b) == (a + b) % n
                assert loc.mul(a, b) == (a * b) % n
                assert loc.sub(a, b) == (a - b) % n
        units = [a for a in range(n) if math.gcd(a, n) == 1]
        assert sorted(loc.units) == units
        for a in units:
            assert loc.mul(a, loc.inv(a)) == 1


def test_crt_isomorphism():
    # Z/12 as Z/4 x Z/3: componentwise ops agree with integer ops mod 12
    ring = parse_ring_spec("Z/12")
    embed = {}
    for m in range(12):
        embed[m] = (m % 4, m % 3)
    for a in range(12):
        for b in range(12):
            assert ring.add(embed[a], embed[b]) == embed[(a + b) % 12]
            assert ring.mul(embed[a], embed[b]) == embed[(a * b) % 12]
    assert len(ring.units()) == 4  # phi(12)


def test_gf_field_axioms():
    for p, k in [(2, 2), (3, 2), (2, 3)]:
        f = LocalRing("gf", p, k)
        q = p ** k
        assert f.size == q
        # every nonzero element is a unit with a two-sided inverse
        assert sorted(f.units) == list(range(1, q))
        for a in range(1, q):
            assert f.mul(a, f.inv(a)) == f.one
        # distributivity on the full cube
        for a in range(q):
            for b in range(q):
                for c in range(q):
                    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        # multiplicative group is cyclic of order q-1
        orders = [f.unit_order(a) for a in f.units]
        assert max(orders) == q - 1
        assert math.lcm(*orders) == q - 1


def test_frobenius_in_gf():
    # x -> x^p is additive in GF(p,k)
    f = LocalRing("gf", 3, 2)
    def power(a, m):
        out = f.one
        for _ in range(m):
            out = f.mul(out, a)
        return out
    for a in range(f.size):
        for b in range(f.size):
            assert power(f.add(a, b), 3) == f.add(power(a, 3), power(b, 3))


def test_unit_group_data():
    for text, nunits, exponent in [
        ("Z/4", 2, 2),
        ("Z/8", 4, 2),
        ("Z/9", 6, 6),
        ("GF(2,1)", 1, 1),
        ("GF(3,2)", 8, 8),
        ("GF(5,1)", 4, 4),
        ("Z/6", 2, 2),
        ("Z/12", 4, 2),
    ]:
        ring = parse_ring_spec(text)
        assert len(ring.units()) == nunits
        assert ring.unit_exponent() == exponent
        for u in ring.units():
            assert ring.mul(u, ring.inv(u)) == ring.one
            assert ring.unit_order(u) >= 1
            assert exponent % ring.unit_order(u) == 0


def test_unit_order_matches_brute_force():
    ring = parse_ring_spec("Z/9")
    for u in ring.units():
        acc, order = u, 1
        while acc != ring.one:
            acc = ring.mul(acc, u)
            order += 1
        assert ring.unit_order(u) == order


def test_residue_ring_of_local_factors():
    assert parse_ring_spec("Z/4").locals[0].residue_ring.spec_str == "Z/2"
    assert parse_ring_spec("Z/9").locals[0].residue_ring.spec_str == "Z/3"
    f = LocalRing("gf", 2, 2)
    assert f.residue_ring is f  # a field is its own residue field
    z2 = parse_ring_spec("Z/2").locals[0]
    assert z2.residue_ring is z2


def test_residue_map_is_ring_hom():
    for text in ["Z/4", "Z/8", "Z/12", "Z/9 x GF(2,2)"]:
        ring = parse_ring_spec(text)
        rs = residue_structure(ring)
        res = rs.residue_ring
        seen = set()
        for a in ring.elements():
            seen.add(rs.reduce(a))
        assert seen == set(res.elements())  # surjective
        els = list(ring.elements())
        for a in els:
            for b in els:
                assert rs.reduce(ring.add(a, b)) == res.add(rs.reduce(a), rs.reduce(b))
                assert rs.reduce(ring.mul(a, b)) == res.mul(rs.reduce(a), rs.reduce(b))
        # units reduce to units (local rings: non-units lie in the maximal ideal)
        for u in ring.units():
            assert res.is_unit(rs.reduce(u))


def test_ring_spec_equality_and_validation():
    a = parse_ring_spec("Z/6")
    b = parse_ring_spec("Z/2 x Z/3")
    assert a == b and hash(a) == hash(b)
    assert a != parse_ring_spec("Z/3 x Z/2")  # order matters
    from pseries.rings import RingMismatchError
    with pytest.raises(RingMismatchError):
        a.validate((0,))
    with pytest.raises(RingMismatchError):
        a.validate((0, 5))
