"""Acceptance gate: the ten headline criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v` to see one line per criterion.
Everything here is exact arithmetic, the Wedderburn block sizes included.
"""

import json

import pytest

from pseries import all_levi_chars, cli, orbit_reps, parse_ring_spec, stabilizer
from pseries.chars import (conjugacy_class_count, multipartition_count,
                           partitions, stabilizer_order)

from conftest import STANDARD_PAIRS


def _line(num, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[criterion {num}] {tag}{suffix}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_intertwining_dims_three_ways(vget):
    bad = []
    pairs_checked = 0
    for spec, n in STANDARD_PAIRS:
        v = vget(spec, n)
        chars = all_levi_chars(v.ring, n)
        weyl = v.table.weyl
        for chi in chars:
            for sigma in chars:
                brute = sum(1 for w in weyl if chi.acted(w) == sigma)
                formula = v.intertwining_dim_formula(chi, sigma)
                oracle = v.intertwining_dim_oracle(chi, sigma)
                pairs_checked += 1
                if not (brute == formula == oracle):
                    bad.append((spec, n, chi.key(), sigma.key(), brute, formula, oracle))
    _line(1, not bad, f"{pairs_checked} ordered pairs over {len(STANDARD_PAIRS)} groups"
          if not bad else repr(bad[:3]))


def _rep_with_trivial_pattern(v, n, pattern):
    """Orbit representative whose components are trivial exactly per pattern."""
    for rep in orbit_reps(v.ring, n):
        if tuple(c.is_trivial() for c in rep.grid[0]) == pattern:
            return rep
    raise AssertionError(f"no orbit representative matching {pattern}")


def test_criterion_02_block_multisets(vget):
    cases = [
        ("GF(2,1)", 3, (True, True, True), [1, 1, 2]),
        ("Z/4", 2, (True, True), [1, 1]),
        ("Z/4", 2, (True, False), [1]),   # trivial tensor the nontrivial character
        ("GF(3,1)", 2, (True, False), [1]),
    ]
    bad = []
    for spec, n, pattern, blocks in cases:
        v = vget(spec, n)
        rep = _rep_with_trivial_pattern(v, n, pattern)
        B = v.end_algebra(rep)
        checks = [
            sorted(B.blocks) == blocks,
            sum(d * d for d in B.blocks) == stabilizer_order(rep),
            len(B.blocks) == conjugacy_class_count(stabilizer(rep)),
        ]
        if not all(checks):
            bad.append((spec, n, pattern, tuple(B.blocks)))
    _line(2, not bad, "4 character cases" if not bad else repr(bad))


def test_criterion_03_counts_pipeline_equals_formula(vget):
    expected = {("GF(2,1)", 2): 2, ("GF(3,1)", 2): 5, ("Z/4", 2): 5,
                ("GF(2,1)", 3): 3, ("Z/6", 2): 10, ("GF(5,1)", 2): 14}
    bad = []
    for (spec, n), want in sorted(expected.items()):
        v = vget(spec, n)
        pipeline, formula = v.count_principal_series()
        if not (pipeline == formula == want):
            bad.append((spec, n, pipeline, formula, want))
    _line(3, not bad, "6 rings incl. GF(5,1) stretch" if not bad else repr(bad))


def _run_named_checks(vget, ids, num, label):
    bad = []
    total = 0
    for spec, n in STANDARD_PAIRS:
        report = vget(spec, n).run_checks(only=ids)
        total += len(report.checks)
        for c in report.checks:
            if not c.passed:
                bad.append((spec, n, c.id, c.actual))
    _line(num, not bad, f"{total} checks: {label}" if not bad else repr(bad))
    return bad


def test_criterion_04_cell_structure(vget):
    _run_named_checks(vget, ["prop3.2"], 4, "cell decomposition a-f, all groups")


def test_criterion_05_linear_independence(vget):
    _run_named_checks(vget, ["prop3.7"], 5, "span rank |W|*|L|, all groups")


def test_criterion_06_z_solver(vget):
    bad = _run_named_checks(vget, ["lem3.3"], 6, "z exists with exact identities")
    # uniqueness over the field cases: constrained solution space is a point
    for spec, n in [("GF(2,1)", 2), ("GF(3,1)", 2), ("GF(2,1)", 3)]:
        assert vget(spec, n).halmos.solution_dim == 0, (spec, n)


def test_criterion_07_intertwiner_factorizations(vget):
    _run_named_checks(vget, ["lem3.4", "lem3.5", "prop3.6"], 7,
                      "e_V e_{U^w} e_{V^w} identity and rank certificates")


def test_criterion_08_trivial_character_constituents(vget):
    cases = [("Z/4", 2, 2), ("Z/6", 2, 4), ("GF(2,1)", 3, 3)]
    bad = []
    for spec, n, want in cases:
        got = vget(spec, n).count_pind_trivial_constituents()
        if got != want:
            bad.append((spec, n, got, want))
    _line(8, not bad, "P(n)^m for 3 rings" if not bad else repr(bad))


def test_criterion_09_multipartition_oracle():
    def brute(k, n):
        if k == 1:
            return [(lam,) for lam in partitions(n)]
        out = []
        for first in range(n + 1):
            for lam in partitions(first):
                for rest in brute(k - 1, n - first):
                    out.append((lam,) + rest)
        return out

    bad = []
    for k in range(1, 5):
        for n in range(7):
            listed = brute(k, n)
            assert len(set(listed)) == len(listed)
            if multipartition_count(k, n) != len(listed):
                bad.append((k, n, multipartition_count(k, n), len(listed)))
    _line(9, not bad, "k <= 4, n <= 6 vs enumeration" if not bad else repr(bad))


def test_criterion_10_byte_identical_reports(capsys):
    argv = ["verify", "--ring", "GF(3,1)", "-n", "2", "--format", "json", "--seed", "3"]
    code1 = cli.main(list(argv))
    first = capsys.readouterr().out.encode()
    code2 = cli.main(list(argv))
    second = capsys.readouterr().out.encode()
    ok = code1 == code2 == 0 and first == second and json.loads(first)
    _line(10, bool(ok), f"{len(first)} bytes, seed 3")
