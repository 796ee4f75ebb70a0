"""Characters and counting combinatorics against brute-force oracles."""

import math
from itertools import product

import pytest

from pseries import (LeviChar, all_levi_chars, multipartition_count, orbit,
                     orbit_reps, parse_ring_spec, partition_count,
                     principal_series_count, stabilizer, stabilizer_degrees)
from pseries.chars import (CharError, conjugacy_class_count, factor_chars,
                           hook_degree, multipartitions, partitions,
                           stabilizer_irrep_count, stabilizer_order,
                           unit_structures)


def brute_partitions(n):
    """All partitions of n, independent of the library's recursion."""
    if n == 0:
        return [()]
    out = set()
    def rec(remaining, parts):
        if remaining == 0:
            out.add(tuple(sorted(parts, reverse=True)))
            return
        for part in range(1, remaining + 1):
            rec(remaining - part, parts + [part])
    rec(n, [])
    return sorted(out)


def test_partition_count_small_table():
    known = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]
    for n, want in enumerate(known):
        assert partition_count(n) == want


def test_partitions_match_brute_force():
    for n in range(9):
        assert sorted(partitions(n)) == brute_partitions(n)
        assert partition_count(n) == len(brute_partitions(n))


def test_multipartition_count_against_enumeration():
    for k in range(1, 5):
        for n in range(7):
            listed = list(multipartitions(k, n))
            assert len(set(listed)) == len(listed)
            for tup in listed:
                assert len(tup) == k and sum(map(sum, tup)) == n
            assert multipartition_count(k, n) == len(listed)


def test_multipartition_count_rejects_bad_args():
    with pytest.raises(CharError):
        multipartition_count(0, 3)
    with pytest.raises(CharError):
        multipartition_count(2, -1)


def test_principal_series_count_examples():
    for spec, n, want in [
        ("GF(2,1)", 2, 2),
        ("GF(3,1)", 2, 5),
        ("Z/4", 2, 5),
        ("GF(2,1)", 3, 3),
        ("Z/6", 2, 10),
        ("GF(5,1)", 2, 14),
        ("Z/6", 3, 30),
        ("Z/4", 1, 2),
        ("GF(3,2)", 1, 8),
    ]:
        assert principal_series_count(parse_ring_spec(spec), n) == want


def test_principal_series_count_n1_is_unit_count():
    for spec in ["Z/4", "Z/8", "Z/9", "GF(5,1)", "Z/6", "GF(2,2)"]:
        ring = parse_ring_spec(spec)
        assert principal_series_count(ring, 1) == len(ring.units())


def test_unit_char_orthogonality():
    for spec in ["Z/8", "GF(7,1)", "Z/9"]:
        ring = parse_ring_spec(spec)
        structure = unit_structures(ring)[0]
        e = ring.unit_exponent()
        chars = factor_chars(structure, e)
        units = [u[0] for u in ring.units()]
        assert len(chars) == len(units)
        from pseries import CycloNum
        for chi in chars:
            for psi in chars:
                total = sum((chi.value(u) * psi.value(u).conj() for u in units),
                            CycloNum.zero(e))
                want = len(units) if chi == psi else 0
                assert total == CycloNum.rational(e, want)
        # multiplicativity through exponents
        loc = ring.locals[0]
        for chi in chars:
            for u in units:
                for v in units:
                    uv = loc.mul(u, v)
                    assert uv == loc.mul(v, u)
                    assert chi.value_exponent(uv) == (
                        chi.value_exponent(u) + chi.value_exponent(v)) % e


def test_all_levi_chars_size_and_keys():
    for spec, n in [("GF(3,1)", 2), ("Z/4", 2), ("Z/6", 2)]:
        ring = parse_ring_spec(spec)
        chars = all_levi_chars(ring, n)
        assert len(chars) == len(ring.units()) ** n
        assert len({chi.key() for chi in chars}) == len(chars)


def test_levi_char_values_multiply_on_torus():
    ring = parse_ring_spec("Z/4")
    chars = all_levi_chars(ring, 2)
    units = ring.units()
    diags = [ (a, b) for a in units for b in units ]
    for chi in chars:
        for da in diags:
            for db in diags:
                dc = tuple(ring.mul(x, y) for x, y in zip(da, db))
                assert chi.value_exponent_on_diag(dc) == (
                    chi.value_exponent_on_diag(da)
                    + chi.value_exponent_on_diag(db)) % chi.e


def test_levi_char_exponents_are_sums_of_unit_exponents():
    # the gathered tables against each position's unit character, on every
    # diagonal of units, product rings included
    for spec, n in [("Z/4", 2), ("GF(2,2)", 2), ("Z/6", 2), ("Z/2xGF(2,2)", 3)]:
        ring = parse_ring_spec(spec)
        diags = list(product(ring.units(), repeat=n))
        for chi in all_levi_chars(ring, n):
            want = [sum(c.value_exponent(d[i][f]) for f, row in enumerate(chi.grid)
                        for i, c in enumerate(row)) % chi.e for d in diags]
            assert chi.value_exponents(diags).tolist() == want, chi.key()


def test_orbit_stabilizer_theorem():
    for spec, n in [("GF(3,1)", 2), ("Z/6", 2), ("GF(2,1)", 3)]:
        ring = parse_ring_spec(spec)
        m = len(ring.locals)
        wsize = math.factorial(n) ** m
        for chi in all_levi_chars(ring, n):
            orb = orbit(chi)
            stab = stabilizer(chi)
            assert len(orb) * len(stab) == wsize
            assert stabilizer_order(chi) == len(stab)
            for w in stab:
                assert chi.acted(w) == chi


def test_action_is_a_group_action():
    ring = parse_ring_spec("GF(3,1)")
    chars = all_levi_chars(ring, 3)
    from pseries.groups import weyl_elements
    weyl = weyl_elements(1, 3)
    for chi in chars[:8]:
        for w1 in weyl:
            for w2 in weyl:
                assert chi.acted(w1 * w2) == chi.acted(w2).acted(w1)


def test_orbit_reps_cover_without_overlap():
    for spec, n in [("GF(3,1)", 2), ("Z/4", 2), ("Z/6", 2), ("GF(2,1)", 3)]:
        ring = parse_ring_spec(spec)
        reps = orbit_reps(ring, n)
        seen = set()
        for rep in reps:
            assert rep.canonical() == rep
            for chi in orbit(rep):
                assert chi.key() not in seen
                seen.add(chi.key())
        assert seen == {chi.key() for chi in all_levi_chars(ring, n)}
        assert len(reps) == multipartition_sum_check(ring, n)


def multipartition_sum_check(ring, n):
    # number of orbits = multisets of characters per factor, combined
    total = 1
    for structure in unit_structures(ring):
        k = math.prod(structure.orders) if structure.orders else 1
        combos = math.comb(k + n - 1, n)
        total *= combos
    return total


def test_hook_degrees_classical():
    assert hook_degree((1,)) == 1
    assert hook_degree((2,)) == 1 and hook_degree((1, 1)) == 1
    assert hook_degree((3,)) == 1 and hook_degree((2, 1)) == 2 and hook_degree((1, 1, 1)) == 1
    assert hook_degree((2, 2)) == 2
    assert hook_degree((3, 1)) == 3
    # degrees of S_m squared sum to m!
    for m in range(1, 7):
        assert sum(hook_degree(lam) ** 2 for lam in partitions(m)) == math.factorial(m)


def test_stabilizer_degrees_products_of_sym_groups():
    # trivial character: stabilizer is the full Weyl group
    ring = parse_ring_spec("GF(2,1)")
    triv = [chi for chi in all_levi_chars(ring, 3) if chi.is_trivial()][0]
    assert sorted(stabilizer_degrees(triv)) == [1, 1, 2]          # S_3
    ring = parse_ring_spec("Z/6")
    triv = [chi for chi in all_levi_chars(ring, 2) if chi.is_trivial()][0]
    assert sorted(stabilizer_degrees(triv)) == [1, 1, 1, 1]       # S_2 x S_2
    ring = parse_ring_spec("GF(3,1)")
    mixed = [chi for chi in all_levi_chars(ring, 2)
             if len({c.exps for c in chi.grid[0]}) == 2][0]
    assert sorted(stabilizer_degrees(mixed)) == [1]               # trivial W_chi
    # sum of squared degrees is the stabilizer order, count is the class count
    for spec, n in [("GF(3,1)", 2), ("Z/6", 2), ("GF(2,1)", 3)]:
        for chi in all_levi_chars(parse_ring_spec(spec), n):
            degs = stabilizer_degrees(chi)
            assert sum(d * d for d in degs) == stabilizer_order(chi)
            assert len(degs) == stabilizer_irrep_count(chi)
            assert stabilizer_irrep_count(chi) == conjugacy_class_count(stabilizer(chi))


def test_conjugacy_class_count_brute():
    from pseries.groups import weyl_elements
    # S_3 has 3 classes; S_2 x S_2 has 4
    assert conjugacy_class_count(weyl_elements(1, 3)) == 3
    assert conjugacy_class_count(weyl_elements(2, 2)) == 4


def test_principal_series_count_is_orbit_rep_sum():
    # the count equals the sum over orbit reps of the stabilizer's irrep count
    for spec, n in [("GF(3,1)", 2), ("Z/4", 2), ("Z/6", 2), ("GF(2,1)", 3)]:
        ring = parse_ring_spec(spec)
        total = sum(stabilizer_irrep_count(rep) for rep in orbit_reps(ring, n))
        assert total == principal_series_count(ring, n)
