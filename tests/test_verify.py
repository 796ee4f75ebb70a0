"""Verification engine internals on small groups; the acceptance file runs the gate."""

import json

import pytest

from pseries import (AlgElem, CycloNum, SparseReducer, Verifier, all_levi_chars,
                     idempotent_subgroup, orbit_reps, parse_ring_spec, span_rank,
                     stabilizer, stabilizer_degrees)


def test_halmos_identities_recomputed(vget):
    # re-verify the defining identities with plain algebra ops, outside the solver
    for spec, n in [("GF(2,1)", 2), ("GF(3,1)", 2), ("Z/4", 2)]:
        v = vget(spec, n)
        h = v.halmos
        z = h.z
        c_uv = v.eU * v.eV
        c_vu = v.eV * v.eU
        assert z * c_uv * c_uv == c_uv
        assert z * c_vu * c_vu == c_vu
        assert z.star() == z
        assert z * v.eU == v.eU * z
        assert z * v.eV == v.eV * z
        assert z * h.z_inv == h.unit == h.z_inv * z
        assert h.unit * z == z == z * h.unit


def test_halmos_unit_is_identity_on_word_algebra(vget):
    v = vget("GF(3,1)", 2)
    h = v.halmos
    assert h.unit * h.unit == h.unit
    for b in h.basis:
        assert h.unit * b == b == b * h.unit


def test_halmos_solution_dims(vget):
    assert vget("GF(2,1)", 2).halmos.solution_dim == 0
    assert vget("GF(3,1)", 2).halmos.solution_dim == 0
    assert vget("Z/4", 2).halmos.solution_dim == 2


def test_E_is_idempotent_and_spans_like_cuv(vget):
    for spec, n in [("GF(2,1)", 2), ("GF(3,1)", 2)]:
        v = vget(spec, n)
        for chi in all_levi_chars(v.ring, n):
            E = v.E(chi)
            assert E * E == E
            base = v.eU * v.eV * v.e_chi(chi)
            red_e = SparseReducer(v.e)
            red_b = SparseReducer(v.e)
            for g in range(v.table.size):
                red_e.feed(E.left_translate(g).coeffs)
                red_b.feed(base.left_translate(g).coeffs)
            assert red_e.rank == red_b.rank
            for row in red_b.basis_rows():
                assert red_e.contains(row)


def test_sandwich_shortcut_matches_full_sweep(vget):
    # rank over module basis rows must equal the rank over all |G| translates
    for spec, n in [("GF(2,1)", 2), ("GF(3,1)", 2)]:
        v = vget(spec, n)
        chars = all_levi_chars(v.ring, n)
        for chi in chars:
            for sigma in chars:
                Echi, Esig = v.E(chi), v.E(sigma)
                red = SparseReducer(v.e)
                for g in range(v.table.size):
                    red.feed((Esig * Echi.left_translate(g)).coeffs)
                assert v._sandwich_rank(chi, sigma) == red.rank


def test_intertwining_matrix_frozen_values(vget):
    v2 = vget("GF(2,1)", 2)
    chars = all_levi_chars(v2.ring, 2)
    assert len(chars) == 1
    assert v2.intertwining_dim_formula(chars[0], chars[0]) == 2
    assert v2.intertwining_dim_oracle(chars[0], chars[0]) == 2

    v3 = vget("GF(3,1)", 2)
    chars = all_levi_chars(v3.ring, 2)
    mat = [[v3.intertwining_dim_formula(c, s) for s in chars] for c in chars]
    diag = sorted(mat[i][i] for i in range(4))
    assert diag == [1, 1, 2, 2]
    for i, c in enumerate(chars):
        for j, s in enumerate(chars):
            assert mat[i][j] == mat[j][i]  # symmetric: w*chi = sigma iff w^-1*sigma = chi
            assert mat[i][j] == v3.intertwining_dim_oracle(c, s)
    # total = |W| per row-orbit: each chi meets exactly |W| pairs (w, sigma)
    for row in mat:
        assert sum(row) == 2


def test_character_route_agrees_with_sandwich(vget):
    v = vget("GF(3,1)", 2)
    chars = all_levi_chars(v.ring, 2)
    for chi in chars:
        for sigma in chars:
            assert v._character_dim(chi, sigma) == v._sandwich_rank(chi, sigma)


def test_pind_character_matches_definition(vget):
    # chi(g) = sum_x E(x^-1 g^-1 x), summed term by term with CycloNum
    for spec, n in [("GF(2,1)", 2), ("GF(3,1)", 2)]:
        v = vget(spec, n)
        t = v.table
        for chi in all_levi_chars(v.ring, n):
            E = v.E(chi)
            want = []
            for g in range(t.size):
                total = CycloNum.zero(v.e)
                for x in range(t.size):
                    total = total + E.coeff(t.mul(t.mul(t.inv(x), t.inv(g)), x))
                want.append(total)
            assert v.pind_character(chi) == want


def test_end_algebra_shapes(vget):
    v = vget("Z/4", 2)
    for rep in orbit_reps(v.ring, 2):
        B = v.end_algebra(rep)
        assert B.dim == len(stabilizer(rep))
        assert sorted(B.blocks) == sorted(stabilizer_degrees(rep))
        assert sum(d * d for d in B.blocks) == B.dim
        assert 1 <= B.attempts <= 5
        # structure constants close under multiplication: sanity on the stored table
        assert len(B.structure) == B.dim
        for row in B.structure:
            assert len(row) == B.dim
            for cell in row:
                assert len(cell) == B.dim


def test_end_algebra_center_of_commutative_case(vget):
    # W_chi trivial => B is one-dimensional, center dim 1, single block
    v = vget("GF(3,1)", 2)
    free = [chi for chi in orbit_reps(v.ring, 2) if len(stabilizer(chi)) == 1]
    assert free
    for chi in free:
        B = v.end_algebra(chi)
        assert (B.dim, B.center_dim, B.blocks) == (1, 1, (1,))


def test_counts_agree(vget):
    for spec, n, want in [("GF(2,1)", 2, 2), ("GF(3,1)", 2, 5), ("Z/4", 2, 5)]:
        v = vget(spec, n)
        pipeline, formula = v.count_principal_series()
        assert pipeline == formula == want


def test_local_product_count(vget):
    v = vget("Z/6", 2)
    combined = v.pipeline_count()
    prod = 1
    for lv in v.local_verifiers():
        prod *= lv.pipeline_count()
    assert combined == prod == 10


def test_intro_example_counts(vget):
    assert vget("Z/4", 2).count_pind_trivial_constituents() == 2
    assert vget("Z/6", 2).count_pind_trivial_constituents() == 4
    assert vget("GF(2,1)", 3).count_pind_trivial_constituents() == 3


def test_check_order_and_filters(vget):
    v = vget("GF(3,1)", 2)
    order = v.check_order()
    assert order[0].startswith("prop3.2")
    assert "thm1" in order and "thm2" in order and "cor2.3" in order
    assert "lem3.1" not in order  # single local factor
    report = v.run_checks(only=["prop3.2"])
    assert [c.id for c in report.checks] == [f"prop3.2{x}" for x in "abcdef"]
    report = v.run_checks(skip=["prop3.2", "lem3", "thm", "cor2.3", "intro"])
    assert [c.id for c in report.checks] == ["prop3.6", "prop3.7"]
    with pytest.raises(ValueError):
        v.run_checks(only=["nope"])


def test_multi_factor_gets_local_product_check(vget):
    assert "lem3.1" in vget("Z/6", 2).check_order()


def test_report_serialization(vget):
    v = vget("GF(2,1)", 2)
    report = v.run_checks(only=["prop3.2a", "lem3.3"])
    data = json.loads(report.to_json())
    assert data["ring"] == "GF(2,1)" and data["n"] == 2 and data["seed"] == 0
    assert data["summary"] == {"total": 2, "passed": 2, "failed": 0}
    for check in data["checks"]:
        assert check["millis"] is None
        assert check["status"] == "pass"
    # key order is sorted at every level
    raw = report.to_json()
    assert raw.index('"checks"') < raw.index('"n"') < raw.index('"ring"') < raw.index('"seed"')
    text = report.to_text()
    assert "prop3.2a" in text and "lem3.3" in text and "2/2" in text
    csv_out = report.to_csv()
    lines = csv_out.splitlines()
    assert lines[0] == "id,status,expected,actual"
    assert len(lines) == 3


def test_report_bytes_stable_for_fixed_seed():
    ring = parse_ring_spec("GF(2,1)")
    a = Verifier(ring, 2, seed=5).run_checks().to_json()
    b = Verifier(ring, 2, seed=5).run_checks().to_json()
    assert a == b


def test_full_suite_small_fields(vget):
    for spec, n in [("GF(2,1)", 2), ("GF(3,1)", 2)]:
        report = vget(spec, n).run_checks()
        assert report.all_passed, report.to_text()
        assert report.summary["total"] == len(vget(spec, n).check_order())
