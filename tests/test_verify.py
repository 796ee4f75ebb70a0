"""Verification engine internals on small groups; the acceptance file runs the gate."""

import hashlib
import itertools
import json
import re
from fractions import Fraction

import numpy as np
import pytest

from conftest import STANDARD_PAIRS
from pseries import (AlgElem, CycloNum, SparseReducer, Verifier, all_levi_chars,
                     factor_ulv, idempotent_subgroup, orbit_reps, parse_ring_spec,
                     stabilizer, stabilizer_degrees)
from pseries import algebra, cli, enumerate_gl, verify
from pseries.algebra import AlgebraError
from pseries.chars import factor_chars, unit_structures
from pseries.cyclo import power_fold, root_coords
from pseries.groups import ring_arrays
from pseries.verify import HalmosElement, VerifyAlarm, compositions
from references import (least_conjugate_classes, left_translate, mul, right_translate,
                        single_class_sums, single_E,
                        single_module, translates, twisted_scalar_failures,
                        whole_ring_residue, wide_end_algebra, wide_halmos, wide_lemma33,
                        wide_lin_independence, wide_module, wide_phi_data,
                        wide_sandwich_ranks)


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


# z, z_inv and the unit of A for Z/4 n=2 at seed 0, as (keys, coordinates,
# den); there solution_dim is 2, so the candidate order and the rng stream
# decide z
HALMOS_Z4 = {
    "z": ([0, 5, 6, 7, 8, 9, 10, 11, 12, 18, 20, 22, 24, 27, 29, 30, 32, 35, 36,
           39, 40, 42, 45, 47, 49, 51, 52, 54, 56, 58, 61, 63, 67, 69, 71, 75,
           76, 78, 82, 85, 86, 90, 92, 95],
          [96, 1, -15, 1, 1, 1, -15, 1, 1, 33, 34, 33, 32, -15, -14, -15, 32,
           -15, -30, -15, 32, -15, -14, -15, -15, 1, 1, 1, 1, 1, -15, 1, 1, 2,
           1, 1, -14, 1, -15, 2, -15, 1, -14, 1], 48),
    "z_inv": ([0, 5, 7, 8, 9, 11, 12, 18, 20, 22, 24, 29, 32, 35, 36, 39, 40,
               45, 51, 52, 54, 56, 58, 63, 65, 67, 69, 71, 73, 75, 76, 78, 81,
               82, 85, 86, 89, 90, 92, 95],
              [493, 80, 80, 80, 80, 80, 80, 205, 237, 205, 208, 32, 243, 35,
               -13, 35, 208, 32, 80, 80, 80, 80, 80, 80, 13, 45, 77, 45, 48,
               80, 32, 80, 83, 35, 147, 35, 48, 80, 32, 80], 3840),
    "unit": ([0, 5, 6, 7, 8, 9, 10, 11, 12, 18, 20, 22, 24, 27, 29, 30, 32, 35,
              36, 39, 40, 42, 45, 47, 49, 51, 52, 54, 56, 58, 61, 63, 65, 69,
              75, 76, 78, 81, 82, 85, 86, 90, 92, 95],
             [23, 1, -3, 1, 1, 1, -3, 1, 1, 8, 9, 8, 8, -3, -2, -3, 9, -2, -5,
              -2, 8, -3, -2, -3, -3, 1, 1, 1, 1, 1, -3, 1, -1, 1, 1, -2, 1, 1,
              -2, 3, -2, 1, -2, 1], 48),
}


def test_halmos_pinned_z4():
    h = Verifier(parse_ring_spec("Z/4"), 2, seed=0).halmos
    for name, (keys, coords, den) in HALMOS_Z4.items():
        a = getattr(h, name)
        assert (a.keys.tolist(), a.rows[:, 0].tolist(), a.den) == (keys, coords, den)
        assert not a.rows[:, 1:].any()


# rings whose Halmos solve, Krylov zc and oracle take well under a second;
# Z/4, Z/8 and Z/9 have solution_dim 2, so there z depends on the rng stream
HALMOS_RINGS = ["GF(2,1)", "GF(3,1)", "Z/4", "Z/6", "Z/2xZ/2", "GF(2,2)", "Z/8",
                "Z/2xGF(2,2)", "Z/2xZ/3", "Z/9"]


def as_arrays(a):
    return a.keys.tolist(), a.rows.tolist(), a.den


@pytest.mark.parametrize("spec,n", [pytest.param(spec, 2, id=spec) for spec in HALMOS_RINGS]
                         + [("GF(2,1)", 3)])
def test_halmos_solve_matches_wide_route(vget, spec, n):
    # the solve in A's coordinates against the |G|-wide route, each on a fresh
    # Verifier of one seed: the same z, z_inv, unit, basis, solution_dim and
    # rng state afterwards; and the Krylov zc is z e_U e_V, even where z is
    # not unique
    v = vget(spec, n)
    fast, wide = (Verifier._on_table(v.table, 0, v.max_cost) for _ in range(2))
    h, ref = fast.halmos, wide_halmos(wide)
    for name in ("z", "z_inv", "unit"):
        assert as_arrays(getattr(h, name)) == as_arrays(getattr(ref, name)), name
    assert [as_arrays(b) for b in h.basis] == [as_arrays(b) for b in ref.basis]
    assert h.solution_dim == ref.solution_dim
    assert fast.rng.getstate() == wide.rng.getstate()
    assert fast.zc == h.z * fast.c_uv


@pytest.mark.parametrize("spec,n", [("Z/4", 2), ("GF(3,1)", 2), ("GF(2,1)", 3)])
def test_halmos_solve_reads_no_double_coset_counts(monkeypatch, vget, spec, n):
    # the closure and the solve run over G alone: with _labels and _counts
    # raising once the Verifiers are built, the solve still matches the
    # |G|-wide route
    def gone(*args):
        raise AssertionError("the Halmos solve read double-coset counts")
    v = vget(spec, n)
    fast, wide = (Verifier._on_table(v.table, 0, v.max_cost) for _ in range(2))
    monkeypatch.setattr(verify, "_counts", gone)
    monkeypatch.setattr(verify, "_labels", gone)
    h, ref = fast.halmos, wide_halmos(wide)
    for name in ("z", "z_inv", "unit"):
        assert as_arrays(getattr(h, name)) == as_arrays(getattr(ref, name)), name
    assert [as_arrays(b) for b in h.basis] == [as_arrays(b) for b in ref.basis]
    assert h.solution_dim == ref.solution_dim


@pytest.mark.parametrize("spec,n", [("GF(2,1)", 2), ("GF(3,1)", 2), ("Z/4", 2), ("Z/6", 2),
                                    ("Z/2xZ/2", 2), ("GF(2,2)", 2), ("GF(2,1)", 3),
                                    ("Z/2xZ/2xZ/3", 2)])
def test_lemma33_matches_product_route(vget, spec, n):
    # the certificate on the Cayley table against the same identities as
    # |G|-wide products, on a fresh Verifier
    v = Verifier._on_table(vget(spec, n).table, 0, 10 ** 8)
    r = v.check_lemma33()
    assert r.passed
    assert {key: r.actual[key] for key in r.actual if key != "solution_dim"} == wide_lemma33(v)


def test_lemma33_never_passes_with_a_corrupted_right_action(monkeypatch):
    # the Halmos closure's sums over X (|X| a e_X, whose coordinates are a
    # row of the right action R_X) corrupted while the solve runs, the
    # certificate's own sums left alone: one candidate doubled, which keeps
    # the span but not its row, or every sum over U taken over a conjugate
    # g U g^-1.  The solve raises, lem3.3 fails, or z comes out right (z is
    # unique over a field).  The unit solve catches every doubled candidate,
    # so only the conjugates reach the certificate, and both of its outcomes
    # must occur
    v = Verifier(parse_ring_spec("GF(3,1)"), 2)
    t, inner, h = v.table, verify._average, v.halmos
    U = np.asarray(t.subgroup("U"))
    right_u = t._table[:, U].T

    def doubled(n):
        calls = itertools.count()
        return lambda a, idx: inner(a, idx) * (2 if next(calls) == n else 1)

    def conjugated(g):
        right_g = t._table[:, t._table[t._table[g, U], t.inv(g)]].T
        return lambda a, idx: inner(a, right_g if np.array_equal(idx, right_u) else idx)

    passed = []
    # the closure takes one sum for each root candidate and each word
    for corrupted in ([doubled(n) for n in range(2 + len(h.words))]
                      + [conjugated(g) for g in range(t.size)]):
        w = Verifier._on_table(t, 0, v.max_cost)
        with monkeypatch.context() as m:
            m.setattr(verify, "_average", corrupted)
            try:
                w.halmos
            except VerifyAlarm:
                continue
        (result,) = w.run_checks(only=["lem3.3"]).checks
        if result.passed:
            assert w.halmos.z == h.z
        passed.append(result.passed)
    assert any(passed) and not all(passed)


def test_lemma33_invertible_reads_false_on_a_wrong_z_inv():
    v = Verifier(parse_ring_spec("GF(3,1)"), 2)
    h = v.halmos
    v._halmos = HalmosElement(h.z, h.z_inv.scale(2), h.unit, h.basis, h.solution_dim,
                              h.words, h.z_coords, h.z_inv_coords)
    r = v.check_lemma33()
    assert r.status == "fail" and r.actual["invertible"] is False


def test_E_never_wrong_when_a_count_is_corrupted(monkeypatch):
    # one entry of the U\G/V count matrix off by one: the Krylov solve or a
    # certificate of zc raises, or zc (so every E) comes out right anyway;
    # on Z/4 both the solve and the idempotency certificate are reached
    v = Verifier(parse_ring_spec("Z/4"), 2)
    right = [v.E(chi) for chi in v.chars]
    t, inner = v.table, verify._counts
    k = len(np.unique(verify._labels(t, t.subgroup("U"), t.subgroup("V"))))
    alarms = 0
    for i, j in itertools.product(range(k), repeat=2):
        def corrupted(*args):
            M = inner(*args).copy()
            M[i, j] += 1
            return M
        monkeypatch.setattr(verify, "_counts", corrupted)
        w = Verifier._on_table(v.table, 0, v.max_cost)
        try:
            assert [w.E(chi) for chi in w.chars] == right
        except VerifyAlarm:
            alarms += 1
    assert alarms > 0


def test_lemma33_alarms_when_halmos_z_disagrees_with_zc(monkeypatch):
    v = Verifier(parse_ring_spec("GF(3,1)"), 2)
    h = v.halmos
    monkeypatch.setattr(v, "_halmos", HalmosElement(
        h.z.scale(2), h.z_inv, h.unit, h.basis, h.solution_dim))
    (result,) = v.run_checks(only=["lem3.3"]).checks
    assert result.status == "fail"
    assert result.actual == {
        "alarm": "z e_U e_V of the Halmos solve differs from the Krylov zc"}


@pytest.mark.parametrize("spec,run", [
    ("GF(2,2)", lambda v: v.count_principal_series()),
    ("Z/2xZ/2", lambda v: v.run_checks(skip=["lem3.3"])),
])
def test_only_lemma33_solves_for_z(monkeypatch, spec, run):
    calls = []
    inner = Verifier._solve_halmos

    def counted(self):
        calls.append(self)
        return inner(self)
    monkeypatch.setattr(Verifier, "_solve_halmos", counted)
    run(Verifier(parse_ring_spec(spec), 2))
    assert calls == []


# sha256 of `--format json --seed 7` reports; the JSON bytes of a fixed seed
# are part of the output contract.  On Z/4 (solution_dim 2) the Halmos solve
# draws 120 weights; count and intertwine draw none, so their bytes also pin
# that E does not depend on that solve.
PINNED_REPORTS = [
    ("verify --ring Z/4 -n 2",
     "0cf26b1e1ede78f4bf90d93ab5dfaaf244370a8fc58b2a1ab409a08fed7fe89c"),
    ("verify --ring Z/2xZ/2 -n 2",
     "ce4483901b04d339f5e949a8717e3d8490c022528a56c4f90ef719e2fe88e207"),
    ("count --ring GF(2,2) -n 2",
     "7c28ebe6beb89a4c3682e871804ccac654052526eed55346f9abb4636fd2f961"),
    ("count --ring Z/4 -n 2",
     "22e2aa259b4b6dcc05eddbac4a85991802dc5803bbf079510563761e19454353"),
    ("intertwine --ring Z/4 -n 2",
     "600b3ca677bb46835af1b6efe9e8d4759630712da74528f5537f391a6157ac17"),
]


@pytest.mark.parametrize("args,digest", PINNED_REPORTS)
def test_pinned_report_digests(args, digest, capsys):
    code = cli.main(args.split() + ["--format", "json", "--seed", "7"])
    out = capsys.readouterr().out.encode()
    assert code == 0
    assert hashlib.sha256(out).hexdigest() == digest


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
                red_e.feed(left_translate(E, g).vec)
                red_b.feed(left_translate(base, g).vec)
            assert red_e.rank == red_b.rank
            for row in red_b.basis_rows():
                assert red_e.contains(row)


def test_E_squares_to_itself(vget):
    # the full product, the oracle for E's certificate (zc^2 = zc once,
    # e_chi^2 = e_chi and e_chi zc = E per chi)
    for spec, n in STANDARD_PAIRS + [("GF(2,2)", 2)]:
        v = vget(spec, n)
        for chi in v.chars:
            assert v.E(chi) * v.E(chi) == v.E(chi)


def test_E_is_borel_equivariant(vget):
    # u E = E and l E = chi(l) E, a root of unity times E: the translates of
    # a coset gB are multiples of one another, so wide_module feeds one
    for spec, n in [("Z/4", 2), ("GF(2,2)", 2), ("Z/2xZ/2", 2)]:
        v = vget(spec, n)
        t, e = v.table, v.e
        roots = [CycloNum.root(e, j) for j in range(e)]
        for chi in v.chars:
            E = v.E(chi)
            keys, rows, den = translates(E, t.subgroup("U"))
            assert all(AlgElem.from_vec(t, e, (keys, r, den)) == E for r in rows)
            keys, rows, den = translates(E, t.subgroup("L"))
            multiples = [E.scale(c) for c in roots]
            assert all(AlgElem.from_vec(t, e, (keys, r, den)) in multiples
                       for r in rows)


def test_E_alarms_when_zc_is_not_idempotent(monkeypatch):
    v = Verifier(parse_ring_spec("GF(3,1)"), 2)
    zc = v._krylov_zc()
    monkeypatch.setattr(v, "_krylov_zc", lambda: zc.scale(2))
    with pytest.raises(VerifyAlarm, match="z e_U e_V not idempotent"):
        v.E(v.chars[0])


def test_E_alarms_when_e_chi_does_not_commute(monkeypatch):
    # e_V is the idempotent of a non-normal subgroup: zc e_V = zc is nonzero,
    # but e_V zc != zc
    v = Verifier(parse_ring_spec("GF(3,1)"), 2)
    chi = v.chars[1]
    monkeypatch.setattr(v, "e_chi", lambda c: v.eV)
    with pytest.raises(VerifyAlarm, match=f"does not commute .* chi={re.escape(chi.key())}$"):
        v.E(chi)


@pytest.mark.parametrize("corrupt,alarm", [
    (lambda ec: ec.scale(2), "e_chi not idempotent"),
    (lambda ec: AlgElem.zero(ec.table, ec.e), "z e_U e_V e_chi vanished"),
], ids=["not-idempotent", "vanishing"])
@pytest.mark.parametrize("spec", ["GF(3,1)", "Z/4"])
def test_E_alarms_for_one_corrupted_e_chi_only(vget, spec, corrupt, alarm):
    # one character's e_chi doubled (on L, but 2 e_chi squares to 4 e_chi) or
    # zero (idempotent, but z e_U e_V 0 = 0): E of that character raises the
    # alarm with its key, as the per-character route does, and every other
    # character's E is the one of an uncorrupted Verifier
    ref = vget(spec, 2)
    v = Verifier._on_table(ref.table, 0, 10 ** 8)
    chi = v.chars[1]
    v._echi[chi.key()] = corrupt(v.e_chi(chi))
    for route in (v.E, lambda c: single_E(v, c)):
        with pytest.raises(VerifyAlarm, match=f"^{alarm} for chi={re.escape(chi.key())}$"):
            route(chi)
    for other in v.chars:
        if other != chi:
            assert v.E(other) == ref.E(other) == single_E(ref, other)


@pytest.mark.parametrize("spec,n", [("GF(2,1)", 2), ("GF(3,1)", 2), ("GF(2,2)", 2), ("Z/4", 2),
                                    ("Z/6", 2), ("Z/2xZ/2", 2), ("GF(2,1)", 3)])
def test_character_stack_matches_per_character_route(vget, spec, n):
    # E, its class sums and the end algebra's spanning rows of every
    # character from the stack against one gather and one contraction per
    # character
    v = vget(spec, n)
    for chi in v.chars:
        assert as_arrays(v.E(chi)) == as_arrays(single_E(v, chi)), chi.key()
        (s, den), (want, want_den) = v.pind_character(chi), single_class_sums(v, chi)
        assert (s.tolist(), den) == (want.tolist(), want_den), chi.key()
        assert basis_lists(v.module_reducer(chi)) == basis_lists(single_module(v, chi))


def test_sandwich_shortcut_matches_full_sweep(vget):
    # the sandwich table's rank must be that of E_sigma g E_chi over all of G
    for spec, n in [("GF(2,1)", 2), ("GF(3,1)", 2), ("GF(2,2)", 2), ("Z/4", 2),
                    ("Z/6", 2), ("Z/2xZ/2", 2), ("GF(2,1)", 3)]:
        v = vget(spec, n)
        chars = all_levi_chars(v.ring, n)
        for chi in chars:
            for sigma in chars:
                # E_sigma g E_chi for every g, from one stacked product
                keys, prods, den = algebra._mul_dense(v.E(sigma), algebra.stack(
                    left_translate(v.E(chi), g).vec for g in range(v.table.size)))
                red = SparseReducer(v.e)
                for row in prods:
                    red.feed((keys, row, den))
                assert v._sandwich_rank(chi, sigma) == red.rank


@pytest.mark.parametrize("spec,n", [("Z/6", 2), ("GF(2,1)", 3), ("Z/8", 2),
                                    ("Z/2xGF(2,2)", 2), ("Z/4xZ/2", 2)])
def test_sandwich_ranks_match_module_stack_route(vget, spec, n):
    # the U\\G/V route against E_sigma times the stacked module bases, on
    # every pair; GF(2,1) n=3 has six double cosets L V y U L, and on Z/8
    # some modules are smaller than [G:B]
    v = vget(spec, n)
    assert ([[v._sandwich_rank(chi, sigma) for chi in v.chars] for sigma in v.chars]
            == wide_sandwich_ranks(v))


def moved_off_L(t):
    """A Verifier on t whose zc is moved by 1 / den on one U\\G/V class that
    conjugation by L moves: it stays constant on U\\G/V, as the Krylov lift
    makes it, but no longer commutes with L."""
    v = Verifier._on_table(t, 0, 10 ** 8)
    zc, L = v.zc, np.asarray(t.subgroup("L"))
    label = verify._labels(t, t.subgroup("U"), t.subgroup("V"))
    conj = label[t._table[t._table[t._inv[L][:, None], np.arange(t.size)], L[:, None]]]
    moved = label[np.flatnonzero((conj != label).any(axis=0))[0]]
    rows = np.zeros((t.size, zc.rows.shape[1]), dtype=np.int64)
    rows[zc.keys] = zc.rows
    rows[label == moved, 0] += 1
    v._zc = AlgElem.from_vec(t, v.e, (np.arange(t.size), rows, zc.den))
    return v


@pytest.mark.parametrize("spec", ["GF(3,1)", "Z/4"])
def test_sandwich_certificate_alarms_when_zc_is_not_L_invariant(vget, spec):
    v = moved_off_L(vget(spec, 2).table)
    with pytest.raises(VerifyAlarm, match="z e_U e_V does not commute with L"):
        v._sandwich_rank(v.chars[0], v.chars[0])


@pytest.mark.parametrize("spec", ["GF(3,1)", "Z/4"])
def test_count_alarms_when_zc_is_not_L_invariant(vget, spec):
    # the end algebras read the same certified table, so count raises the
    # alarm with no thm1 run before it (a route that skips the table raises
    # other alarms here)
    v = moved_off_L(vget(spec, 2).table)
    with pytest.raises(VerifyAlarm, match="z e_U e_V does not commute with L"):
        v.count_principal_series()


@pytest.mark.parametrize("spec", ["GF(3,1)", "Z/4"])
def test_thm1_never_passes_with_a_corrupted_character(vget, spec):
    # one exponent of one character off by one at one l in L, for each: e_chi
    # is then no character; thm1 fails, and the sandwich ranks alone already
    # disagree with the formula
    t = vget(spec, 2).table
    roots = root_coords(vget(spec, 2).e)
    for c, i in itertools.product(range(4), range(1, len(t.subgroup("L")))):
        v = Verifier._on_table(t, 0, 10 ** 8)
        key, ec = v.chars[c].key(), v.e_chi(v.chars[c])
        rows = ec.rows.copy()
        (j,) = np.flatnonzero((roots == rows[i]).all(axis=1))
        rows[i] = roots[(j + 1) % len(roots)]
        v._echi[key] = AlgElem.from_vec(t, v.e, (ec.keys, rows, ec.den))
        assert any(v._sandwich_rank(chi, sigma) != v.intertwining_dim_formula(chi, sigma)
                   for chi in v.chars for sigma in v.chars), (key, i)
        (result,) = v.run_checks(only=["thm1"]).checks
        assert result.status == "fail", (key, i)


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
    # the class route, the sandwich ranks and the Weyl orbit formula: three
    # independent routes to every dim Hom
    for spec, n in STANDARD_PAIRS + [("GF(2,2)", 2), ("Z/8", 2)]:
        v = vget(spec, n)
        for chi in v.chars:
            for sigma in v.chars:
                dim = v.intertwining_dim_formula(chi, sigma)
                assert v._character_dim(chi, sigma) == v._sandwich_rank(chi, sigma) == dim


def brute_classes(t):
    """Each g's conjugacy class, numbered by least elements, from the set of
    its conjugates x^-1 g x taken one product at a time."""
    least = [min(mul(t, mul(t, t.inv(x), g), x) for x in range(t.size)) for g in range(t.size)]
    firsts = sorted(set(least))
    return [firsts.index(m) for m in least]


@pytest.mark.parametrize("spec,n", STANDARD_PAIRS + [("GF(2,2)", 2), ("Z/2xZ/2", 2)])
def test_classes_match_brute_force(vget, spec, n):
    v = vget(spec, n)
    assert v.classes.tolist() == brute_classes(v.table)


@pytest.mark.parametrize("spec,n", STANDARD_PAIRS + [("GF(2,2)", 2), ("Z/2xZ/2", 2),
                                     ("Z/2xZ/2xZ/3", 2)])
def test_classes_match_least_conjugates(vget, spec, n):
    v = vget(spec, n)
    assert np.array_equal(v.classes, least_conjugate_classes(v))


@pytest.mark.parametrize("spec", ["GF(3,1)", "Z/2xGF(2,2)"])
def test_classes_alarm_when_S_does_not_generate(spec):
    # with V = {1}, S = U | L lies in the Borel subgroup, whose conjugation
    # orbits are finer than G's classes: the walk must raise, never label
    v = Verifier(parse_ring_spec(spec), 2)
    v.table.subgroups["V"] = (v.table.identity,)
    with pytest.raises(VerifyAlarm, match="do not generate"):
        v.classes
    assert v._classes is None


@pytest.mark.parametrize("spec,n,q", [("GF(3,1)", 2, 3), ("GF(2,2)", 2, 4),
                                      ("GF(7,1)", 2, 7), ("GF(2,1)", 3, 2)])
def test_class_counts_of_gl_over_fields(vget, spec, n, q):
    # GL_2(F_q) has q^2 - 1 conjugacy classes and GL_3(F_q) has q^3 - q
    want = {2: q ** 2 - 1, 3: q ** 3 - q}[n]
    assert int(vget(spec, n).classes.max()) + 1 == want


@pytest.mark.parametrize("spec", ["GF(3,1)", "Z/4"])
def test_thm1_never_passes_with_corrupted_classes(monkeypatch, vget, spec):
    # each class of two or more elements split (its least element put in a
    # class of its own), and each two classes merged: thm1 must fail, by a
    # mismatch or an alarm, and every corrupted labelling must be the one the
    # class sums read.  A labelling that leaves every E's class averages
    # s(K) / |K| at every g as they were changes no term of any inner
    # product (merging two classes on which every induced character takes
    # one value), so it is no corruption and is not tried; any other split
    # raises, and any other merge lowers, the sum of |s(K)|^2 / |K| of some E
    # (Cauchy-Schwarz), so that character's dim Hom with itself moves
    v = Verifier._on_table(vget(spec, 2).table, 0, 10 ** 8)
    cls = v.classes
    k, sizes = int(cls.max()) + 1, np.bincount(cls)

    def averages(labels):
        v._classes = labels
        return np.bincount(labels)[labels], [v.pind_character(chi)[0][labels] for chi in v.chars]

    size, sums = averages(cls)

    def changes(labels):
        n, got = averages(labels)
        return any((a * size[:, None] != b * n[:, None]).any() for a, b in zip(got, sums))

    splits, merges = [], []
    for c in np.flatnonzero(sizes >= 2):
        split = cls.copy()
        split[np.flatnonzero(cls == c)[0]] = k
        splits.append(split)
    for i, j in itertools.combinations(range(k), 2):
        merges.append(np.unique(np.where(cls == j, i, cls), return_inverse=True)[1])
    splits, merges = ([x for x in xs if changes(x)] for xs in (splits, merges))
    assert len(splits) == np.count_nonzero(sizes >= 2) and merges
    read = []
    real = Verifier.pind_character

    def recording(self, chi):
        read.append(self._classes)
        return real(self, chi)

    monkeypatch.setattr(Verifier, "pind_character", recording)
    for labels in splits + merges:
        v._classes, v._chardim, read[:] = labels, None, []
        (result,) = v.run_checks(only=["thm1"]).checks
        assert result.status == "fail", labels
        assert read and all(r is labels for r in read)


@pytest.mark.parametrize("spec", ["GF(3,1)", "Z/4"])
def test_thm1_builds_each_class_sum_once(monkeypatch, vget, spec):
    # every pair's dim Hom is read from one table of all pairs, so thm1 sums
    # each character's classes once, not twice per pair
    v = Verifier._on_table(vget(spec, 2).table, 0, 10 ** 8)
    calls = []
    real = Verifier.pind_character

    def counting(self, chi):
        calls.append(chi.key())
        return real(self, chi)

    monkeypatch.setattr(Verifier, "pind_character", counting)
    (result,) = v.run_checks(only=["thm1"]).checks
    assert result.passed
    assert sorted(calls) == sorted(c.key() for c in v.chars)


def basis_lists(red):
    """A reducer's pivot vectors as nested lists, comparable with ==."""
    return [(k.tolist(), r.tolist(), d) for k, r, d in red.basis_rows()]


def test_module_reducer_matches_single_translates(vget):
    # the reference module: one translate per coset gB, fed in stacks, must
    # give the pivots of feeding g E for g = 0, 1, 2, ... one at a time up to
    # the trace
    for spec, n in [("Z/4", 2), ("Z/6", 2), ("GF(2,2)", 2), ("GF(2,1)", 3)]:
        v = vget(spec, n)
        for chi in v.chars:
            red = wide_module(v, chi)
            one = SparseReducer(v.e)
            for g in range(v.table.size):
                if one.rank == red.rank:
                    break
                one.feed(left_translate(v.E(chi), g).vec)
            assert basis_lists(red) == basis_lists(one)


def test_coset_sweeps_match_full_sweeps(vget):
    # _phi_data counts one right translate per coset V^w g and tests one cell
    # element per double coset V g U; sweeping all of G must agree
    for spec, n in [("GF(2,1)", 3), ("Z/4", 2), ("Z/6", 2), ("GF(2,2)", 2)]:
        v = vget(spec, n)
        t, e, c_uv = v.table, v.e, v.c_uv
        for w, widx in t.weyl_to_index.items():
            euw, evw = (idempotent_subgroup(t, e, t.conjugated(t.subgroup(h), widx))
                        for h in "UV")
            cw = euw * evw
            vcw = v.eV * cw
            red_cw, red_vcw, phi_red = (SparseReducer(e) for _ in range(3))
            for g in range(t.size):
                red_cw.feed(right_translate(cw, g).vec)
                red_vcw.feed(right_translate(vcw, g).vec)
            for l in t.subgroup("L"):
                phi_red.feed((right_translate(c_uv, mul(t, widx, l)) * c_uv).vec)
            cell_in_span = all(phi_red.contains((right_translate(c_uv, g) * c_uv).vec)
                               for g in t.cells.get(w, ()))
            assert v._phi_data(w) == {
                "rank_cw": red_cw.rank, "rank_vcw": red_vcw.rank,
                "rank_phi": phi_red.rank, "cell_span_equal": cell_in_span}


def hecke_and_wide(v):
    """(phi data, verdicts) of lem3.5, prop3.6 and prop3.7 by the count
    matrices, then by the |G|-wide route on a fresh Verifier of v's table."""
    ref = Verifier._on_table(v.table, v.seed, v.max_cost)
    ref._phi_data = lambda w: wide_phi_data(ref, w)

    def results(x, lin):
        return ([x._phi_data(w) for w in x.table.weyl],
                [(r.status, r.expected, r.actual)
                 for r in (x.check_lemma35(), x.check_prop36(), lin)])
    return (results(v, v.check_lin_independence()),
            results(ref, wide_lin_independence(ref)))


def test_hecke_coordinates_match_wide_route(vget):
    # Z/8 takes the exact sweep for rank_cw, the others a certified rank
    for spec, n in STANDARD_PAIRS + [("GF(2,2)", 2), ("Z/8", 2), ("Z/2xGF(2,2)", 2)]:
        got, want = hecke_and_wide(vget(spec, n))
        assert got == want, spec
        assert all(status == "pass" for status, _, _ in got[1])


def test_hecke_coordinates_match_wide_route_on_swapped_subgroups():
    # swapped subgroups reach the fail path of each of the three checks
    statuses = set()
    for spec in ("GF(3,1)", "Z/4"):
        for swap in (("V", "U"), ("L", "U"), ("L", "N"), ("U", "G0")):
            t = enumerate_gl(parse_ring_spec(spec), 2)
            t.subgroups[swap[0]] = t.subgroups[swap[1]]
            got, want = hecke_and_wide(Verifier._on_table(t, 0, 10 ** 8))
            assert got == want, (spec, swap)
            statuses |= {(cid, status) for cid, (status, _, _)
                         in zip(("lem3.5", "prop3.6", "prop3.7"), got[1])}
    assert statuses >= {("lem3.5", "fail"), ("prop3.6", "fail"), ("prop3.7", "fail"),
                        ("prop3.6", "pass"), ("prop3.7", "pass")}


def exact_rank(M):
    red = SparseReducer(1)
    red.feed((np.arange(M.shape[1]), M[:, :, None], 1))
    return red.rank


def test_certified_rank_matches_exact_sweep():
    # full rank (certified by reaching min(m, n)), rank-deficient with small
    # entries (by Hadamard's bound) and with large ones (by the sweep; the
    # last of these has squared row norms above 2^63)
    rng = np.random.default_rng(5)
    for m, n, r, hi in [(6, 6, 6, 3), (5, 8, 5, 1), (7, 5, 3, 1), (9, 9, 4, 3),
                        (8, 6, 2, 2 ** 20), (6, 9, 5, 2 ** 40), (4, 4, 0, 1)]:
        M = rng.integers(-hi, hi + 1, (m, r)) @ rng.integers(-1, 2, (r, n))
        assert verify._certified_rank(M) == exact_rank(M), (m, n, r, hi)


def test_rank_mod_p_is_not_trusted_below_the_certificate():
    p = verify._P
    for M in ([[p, 0], [0, 1]], [[p, 0, 0], [0, 1, 0], [0, 1, 0]], [[p * p, 1], [0, 1]],
              [[p, 0, 0], [0, 1, 1]]):
        for M in (np.array(M, dtype=np.int64), np.array(M, dtype=np.int64).T):
            assert verify._rank_mod_p(M) < exact_rank(M) == verify._certified_rank(M)


def test_rank_mod_p_matches_exact_rank_on_either_side():
    # wide and tall (eliminated as its transpose), full rank, rank-deficient
    # and all-zero; small entries, so no minor is a multiple of p
    rng = np.random.default_rng(7)
    for m, n, r in [(5, 9, 5), (9, 5, 5), (6, 10, 3), (10, 6, 3), (7, 7, 4), (1, 6, 1),
                    (6, 1, 1), (8, 3, 0), (3, 8, 0)]:
        M = rng.integers(-3, 4, (m, r)) @ rng.integers(-2, 3, (r, n))
        assert verify._rank_mod_p(M) == verify._rank_mod_p(M.T) == exact_rank(M) == r


def test_hadamard_bound_certifies_without_the_sweep(monkeypatch):
    # rank-deficient 0/1 rows: every minor is at most 8^4 in absolute value
    rng = np.random.default_rng(1)
    M = rng.integers(0, 2, (8, 8))
    M[4:] = M[:4]
    want = exact_rank(M)
    assert want < 8

    def no_sweep(e):
        raise AssertionError("the exact sweep ran")
    monkeypatch.setattr(verify, "SparseReducer", no_sweep)
    assert verify._certified_rank(M) == want


def test_residue_check_per_factor_matches_whole_ring(monkeypatch):
    # Z/4's residue field Z/2 is also Z/4xZ/2's second factor, whose group
    # enumerate_gl kept, so only the local Z/4 enumerates its residue group
    calls = []
    inner = verify.enumerate_gl

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)
    monkeypatch.setattr(verify, "enumerate_gl", counted)
    for spec, enumerations in [("Z/4xZ/2", 0), ("Z/4", 1), ("Z/2xGF(2,2)", 0)]:
        v = Verifier(parse_ring_spec(spec), 2)
        calls.clear()
        r = v.check_residue_surjective()
        assert len(calls) == enumerations, spec
        want = whole_ring_residue(v)
        assert (r.status, r.expected, r.actual) == (want.status, want.expected, want.actual)
        assert r.passed


def test_pind_character_matches_definition(vget):
    # chi(g) = sum_x E(x^-1 g^-1 x), summed term by term with CycloNum, is
    # |C_G(g)| times the class sum of g^-1's class; on GF(2,2) (e = 3) some
    # characters are not real, so a class read in place of its inverse shows
    for spec, n in [("GF(2,1)", 2), ("GF(3,1)", 2), ("GF(2,2)", 2)]:
        v = vget(spec, n)
        t, cls = v.table, v.classes
        w = (t.size // np.bincount(cls)).tolist()
        for chi in all_levi_chars(v.ring, n):
            E = [v.E(chi).coeff(h) for h in range(t.size)]
            want = []
            for g in range(t.size):
                total = CycloNum.zero(v.e)
                for x in range(t.size):
                    total = total + E[mul(t, mul(t, t.inv(x), t.inv(g)), x)]
                want.append(total)
            sums, den = v.pind_character(chi)
            rows = sums.tolist()
            assert [CycloNum(v.e, [Fraction(w[k] * x, den) for x in rows[k]])
                    for k in cls[t._inv].tolist()] == want


def test_end_algebra_shapes(vget):
    v = vget("Z/4", 2)
    for rep in orbit_reps(v.ring, 2):
        B = v.end_algebra(rep)
        assert B.dim == len(stabilizer(rep))
        assert sorted(B.blocks) == sorted(stabilizer_degrees(rep))
        assert sum(d * d for d in B.blocks) == B.dim
        # every Z/4 algebra is commutative, so its blocks need no rank
        assert B.attempts == 0
        # structure constants close under multiplication: sanity on the stored table
        assert len(B.structure) == B.dim
        for row in B.structure:
            assert len(row) == B.dim
            for cell in row:
                assert len(cell) == B.dim


@pytest.mark.parametrize("spec,n", STANDARD_PAIRS + [("GF(2,2)", 2), ("Z/8", 2),
                                                    ("Z/2xGF(2,2)", 2)])
def test_end_algebra_matches_wide_route(vget, spec, n):
    # B on U\\G/V coordinates against E times the |G|-wide module basis
    v = vget(spec, n)
    for rep in orbit_reps(v.ring, n):
        got, want = v.end_algebra(rep), wide_end_algebra(v, rep)
        assert ((got.dim, got.center_dim, got.blocks, got.attempts)
                == (want.dim, want.center_dim, want.blocks, want.attempts)), rep.key()


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_uv_contractions_agree_in_every_dtype(vget, monkeypatch, dtype):
    # float64 carries every U\\G/V contraction on the test rings; int64 and
    # exact ints must give the same structure constants and sandwich ranks
    for spec, n in [("GF(2,2)", 2), ("GF(2,1)", 3)]:
        ref = vget(spec, n)
        want = ([ref.end_algebra(c).structure for c in ref.chars],
                [[ref._sandwich_rank(c, s) for s in ref.chars] for c in ref.chars])
        with monkeypatch.context() as m:
            m.setattr(verify, "matmul_dtype", lambda bound: dtype)
            v = Verifier._on_table(ref.table, 0, 10 ** 8)
            assert want == ([v.end_algebra(c).structure for c in v.chars],
                            [[v._sandwich_rank(c, s) for s in v.chars] for c in v.chars])


def test_uv_products_are_exact_on_the_python_int_path(vget):
    # entries near 3^40 put the bound past 2^62, so the products run on
    # Python ints; N's float64 counts must enter them as ints, or every
    # product is a float (7.094823811888605e+39 for the constant rows)
    v = vget("GF(3,1)", 2)
    N, big = v._uv_counts(), 3 ** 40 + 1
    k = len(N)
    b = np.empty((2, k, 1), dtype=object)
    b[0, :, 0] = big
    b[1, :, 0] = [big + D for D in range(k)]
    P = verify._uv_products(N, b, v.e, v.table.size)
    counts = N.astype(np.int64).tolist()
    want = [[sum(counts[D1][D2][D] * int(x[D1, 0]) * int(y[D2, 0])
                 for D1 in range(k) for D2 in range(k)) for D in range(k)]
            for x in b for y in b]
    assert want[0][0] == 7094823811888604320339129973975863449792
    assert all(type(p) is int for p in P.ravel())
    assert P[..., 0].tolist() == want


def test_end_algebra_split_takes_one_rank_and_no_draw():
    # GL_3(F_2)'s trivial character: B is the Iwahori-Hecke algebra of S_3,
    # blocks (1, 1, 2) after one rank of G - T, and nothing drawn from the rng
    v = Verifier(parse_ring_spec("GF(2,1)"), 3)
    state = v.rng.getstate()
    B = v.end_algebra(v.chars[0])
    assert (B.dim, B.center_dim, B.blocks, B.attempts) == (6, 3, (1, 1, 2), 1)
    assert v.rng.getstate() == state


def group_algebra(spec, e):
    """(struct, centre) of Q(zeta_e)[GL_2(R)]: struct[i, j, t] = [g_i g_j =
    g_t] from the Cayley table, and the class sums as the centre's basis."""
    t = enumerate_gl(parse_ring_spec(spec), 2)
    k, phi, mul = t.size, len(power_fold(e)), t._table
    struct = np.zeros((k, k, k, phi), dtype=np.int64)
    i, j = np.indices((k, k))
    struct[i, j, mul[i, j], 0] = 1
    # label[g]: the least x^-1 g x
    label = mul[mul[t._inv[:, None], np.arange(k)], np.arange(k)[:, None]].min(axis=0)
    one = np.eye(phi, dtype=np.int64)[0]
    return struct, [np.outer(label == c, one) for c in np.unique(label)]


@pytest.mark.parametrize("spec, e, degrees", [
    ("GF(2,1)", 1, (1, 1, 2)),       # GL_2(F_2) = S_3
    ("GF(2,1)", 3, (1, 1, 2)),
    # the centre of Q[GL_2(F_3)] is not split (two characters take values in
    # Q(sqrt -2)); over Q(zeta_8) it is
    ("GF(3,1)", 1, (1, 1, 2, 2, 2, 3, 3, 4)),
    ("GF(3,1)", 8, (1, 1, 2, 2, 2, 3, 3, 4)),
])
def test_wedderburn_blocks_of_group_algebras(spec, e, degrees):
    struct, centre = group_algebra(spec, e)
    blocks, ranks = verify._wedderburn_blocks(struct, e, centre)
    assert blocks == degrees
    assert 1 <= ranks < len(set(degrees))


def test_wedderburn_blocks_alarm_on_a_radical():
    # the dual numbers Q[x]/(x^2), basis (1, x): commutative (c = k = 2) but
    # not semisimple, so the trace form of the centre has rank 1
    struct = np.zeros((2, 2, 2, 1), dtype=np.int64)
    struct[0, 0, 0] = struct[0, 1, 1] = struct[1, 0, 1] = 1
    centre = [np.eye(2, dtype=np.int64)[:, :1], np.eye(2, dtype=np.int64)[:, 1:]]
    with pytest.raises(VerifyAlarm, match="trace form"):
        verify._wedderburn_blocks(struct, 1, centre)


def test_wedderburn_blocks_alarm_off_echelon_form():
    # the centre's coordinates are read at each basis vector's last key, so a
    # basis in which two vectors share theirs is refused
    struct, centre = group_algebra("GF(2,1)", 1)
    with pytest.raises(VerifyAlarm, match="echelon"):
        verify._wedderburn_blocks(struct, 1, [centre[0] + centre[1], *centre[1:]])


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


def test_equal_local_rings_share_one_verifier(vget):
    first, second = vget("Z/2xZ/2", 2).local_verifiers()
    assert first is second
    assert [lv.ring.canonical_str for lv in vget("Z/6", 2).local_verifiers()] == ["Z/2", "Z/3"]


def _det_units(t):
    """(d, umul): each element's determinant as a position among the units of
    a one-factor table's ring, and the units' multiplication table."""
    loc = t.ring.locals[0]
    unit_at = np.full(loc.size, -1)
    unit_at[list(loc.units)] = np.arange(len(loc.units))
    units = np.array(loc.units)
    return unit_at[t.det_codes[:, 0]], unit_at[ring_arrays(loc)[1][np.ix_(units, units)]]


def _det_all_pairs(t):
    # the oracle: det(g h) = det(g) det(h) on all |G|^2 pairs
    d, umul = _det_units(t)
    return bool((umul[d[:, None], d] == d[t._table]).all())


def test_det_generator_test_matches_all_pairs(vget):
    for spec, n in STANDARD_PAIRS + [("GF(5,1)", 2), ("Z/2xGF(2,2)", 2)]:
        v = vget(spec, n)
        for t in v.table.factors:
            gen = verify._multiplicative_on_generators(t, *_det_units(t), v.generators(t))
            assert (gen, _det_all_pairs(t)) == (True, True), spec
        assert v.check_scalar_twist().passed, spec


def test_scalar_twist_fails_on_a_moved_det():
    v = Verifier(parse_ring_spec("Z/2xGF(2,2)"), 2)
    t = v.table.factors[1]
    units = list(t.ring.locals[0].units)
    g = t.size // 2
    t.det_codes[g, 0] = units[(units.index(t.det_codes[g, 0]) + 1) % len(units)]
    assert not _det_all_pairs(t)
    assert not verify._multiplicative_on_generators(t, *_det_units(t), v.generators(t))
    r = v.check_scalar_twist()
    assert not r.passed
    assert all(f.startswith("factor1:") and f.endswith(":multiplicative")
               for f in r.actual["failures"])


def test_scalar_twist_fails_when_S_does_not_generate():
    # with V = {1}, S = U L is the Borel subgroup: det is still multiplicative
    # (the all-pairs oracle passes), but the test on S would be partial, so
    # the walk raises and lem3.10 fails by the alarm
    v = Verifier(parse_ring_spec("GF(3,1)"), 2)
    v.table.subgroups["V"] = (v.table.identity,)
    assert _det_all_pairs(v.table)
    (r,) = v.run_checks(only=["lem3.10"]).checks
    assert not r.passed and "do not generate" in r.actual["alarm"]


@pytest.mark.parametrize("spec", ["GF(3,1)", "Z/2xZ/2xZ/3"])
def test_scalar_twist_fails_on_a_moved_det_after_classes(spec):
    # classes walks S over G first; a local ring's group is its own factor,
    # so lem3.10 reads that walk, and a product ring's factors walk their
    # own: either way the G x S test of det still runs and fails
    v = Verifier(parse_ring_spec(spec), 2)
    v.classes
    f, t = len(v.table.factors) - 1, v.table.factors[-1]
    units = list(t.ring.locals[0].units)
    g = t.size // 2
    t.det_codes[g, 0] = units[(units.index(t.det_codes[g, 0]) + 1) % len(units)]
    (r,) = v.run_checks(only=["lem3.10"]).checks
    assert r.status == "fail" and r.actual["failures"]
    assert all(x.startswith(f"factor{f}:") and x.endswith(":multiplicative")
               for x in r.actual["failures"])


def test_scalar_twist_matches_twisted_idempotents(vget):
    for spec, n in STANDARD_PAIRS + [("GF(5,1)", 2), ("Z/2xGF(2,2)", 2)]:
        v = vget(spec, n)
        assert v.check_scalar_twist().actual["failures"] == twisted_scalar_failures(v) == []


def test_scalar_twist_matches_twisted_idempotents_on_a_moved_det():
    v = Verifier(parse_ring_spec("Z/2xGF(2,2)"), 2)
    t = v.table.factors[1]
    units = list(t.ring.locals[0].units)
    t.det_codes[0, 0] = units[(units.index(t.det_codes[0, 0]) + 1) % len(units)]
    failures = v.check_scalar_twist().actual["failures"]
    assert failures and failures == twisted_scalar_failures(v)


@pytest.mark.parametrize("spec", ["GF(3,1)", "Z/2xGF(2,2)"])
def test_scalar_twist_fails_on_a_unipotent_subgroup_with_L(spec):
    # U of the last factor replaced by U | L: S = U | L | V is unchanged, so
    # the multiplicativity gate passes, and every nontrivial chi1(det .) is
    # nonzero on some l in L, so only the unipotent test fails
    v = Verifier(parse_ring_spec(spec), 2)
    f, t = len(v.table.factors) - 1, v.table.factors[-1]
    t.subgroups["U"] = tuple(sorted(t.subgroup("U") + t.subgroup("L")))
    chars = factor_chars(unit_structures(t.ring)[0], t.ring.unit_exponent())
    r = v.check_scalar_twist()
    assert r.actual["failures"] == [f"factor{f}:exps{c.exps}:unipotent"
                                    for c in chars if not c.is_trivial()]


@pytest.mark.parametrize("spec", ["GF(3,1)", "Z/2xGF(2,2)"])
def test_scalar_twist_fails_on_a_moved_diagonal_entry(spec):
    # one l in L with its first diagonal entry moved to another unit: det
    # and the subgroups are unchanged, so only e_chi's test fails, for the
    # chi1 that tell the two units apart; the twisted idempotents agree
    v = Verifier(parse_ring_spec(spec), 2)
    f, t = len(v.table.factors) - 1, v.table.factors[-1]
    units = list(t.ring.locals[0].units)
    l = t.subgroup("L")[-1]
    a = int(t.codes[l, 0, 0, 0])
    b = units[(units.index(a) + 1) % len(units)]
    t.codes[l, 0, 0, 0] = b
    chars = factor_chars(unit_structures(t.ring)[0], t.ring.unit_exponent())
    failures = v.check_scalar_twist().actual["failures"]
    assert failures == [f"factor{f}:exps{c.exps}:echi" for c in chars
                        if c.value_exponent(a) != c.value_exponent(b)]
    assert failures and failures == twisted_scalar_failures(v)


def test_lemma34_matches_four_product_comparison(vget):
    # the oracle: e_V e_{U^w} e_{V^w} against e_V e_U e_{V^w}, four products
    # for every w, identity included
    for spec, n in STANDARD_PAIRS + [("Z/2xGF(2,2)", 2)]:
        v = vget(spec, n)
        want = [repr(w) for w in v.table.weyl_to_index
                if v.eV * v.conjugates(w)[0] * v.conjugates(w)[1]
                != v.eV * v.eU * v.conjugates(w)[1]]
        r = v.check_lemma34()
        assert r.actual == {"failing_w": want} and r.passed, spec


def test_lemma34_fails_on_a_wrong_conjugate(monkeypatch):
    # at the swap w, e_V in place of e_{V^w} = e_U: e_V e_V e_V = e_V is not
    # e_V e_U e_V, so the four-product comparison fails too
    v = Verifier(parse_ring_spec("GF(3,1)"), 2)
    swap = next(w for w in v.table.weyl if not w.is_identity())
    true = v.conjugates

    def wrong(w):
        euw, evw = true(w)
        return (euw, v.eV) if w == swap else (euw, evw)
    monkeypatch.setattr(v, "conjugates", wrong)
    euw, evw = v.conjugates(swap)
    assert v.eV * euw * evw != v.eV * v.eU * evw
    assert v.check_lemma34().actual == {"failing_w": [repr(swap)]}


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


def loop_products(t, *factors):
    """Products f_1 ... f_k by nested loops over t.mul, last factor fastest."""
    out = [t.identity]
    for f in factors:
        out = [mul(t, a, b) for a in out for b in f]
    return out


def nested_loop_check(v, cid):
    """(status, expected, actual) of a group-level check, by nested loops."""
    t, ring, n = v.table, v.ring, v.n
    U, L, V, G0 = (t.subgroup(h) for h in ("U", "L", "V", "G0"))
    status = lambda bad: "fail" if bad else "pass"
    if cid == "prop3.2a":
        seen, size = set(), len(U) * len(L) * len(V)
        for g in loop_products(t, U, L, V):
            if g in seen:
                return "fail", {"distinct_products": size}, {"collision_at": g}
            seen.add(g)
        mismatch = 0
        for g in range(t.size):
            f = factor_ulv(ring, t.mat(g))
            if f is None:
                mismatch += g in seen
            else:
                ui, li, vi = (int(t.index_of(m)) for m in f)
                mismatch += not (g in seen and ui in U and li in L and vi in V
                                 and mul(t, mul(t, ui, li), vi) == g)
        return (status(mismatch), {"distinct_products": size, "mismatches": 0},
                {"distinct_products": len(seen), "mismatches": mismatch})
    if cid == "prop3.2c":
        parts = [([i for i in H if i in G0], nm)
                 for H, nm in ((U, "U0"), (L, "L0"), (V, "V0"))]
        bad = []
        for perm in itertools.permutations(parts):
            prods = loop_products(t, *(h for h, _ in perm))
            if len(set(prods)) != len(prods) or set(prods) != set(G0):
                bad.append("".join(nm for _, nm in perm))
        return (status(bad), {"bijective_orderings": 6, "failing": []},
                {"bijective_orderings": 6 - len(bad), "failing": bad})
    if cid == "prop3.2d":
        bad = []
        for w, widx in t.weyl_to_index.items():
            conj = lambda H: {mul(t, mul(t, t.inv(widx), h), widx) for h in H}
            uw, vw = conj(U), conj(V)
            prods = loop_products(t, [u for u in U if u in uw],
                                  [u for u in U if u in vw])
            if len(set(prods)) != len(prods) or set(prods) != set(U):
                bad.append(repr(w))
        return status(bad), {"failing_w": []}, {"failing_w": bad}
    if cid == "prop3.2e":
        bad = [repr(w) for w, widx in t.weyl_to_index.items()
               if set(loop_products(t, V, [widx], L, U, G0)) != set(t.cells.get(w, ()))
               or t.bruhat_label(widx) != w]
        total = sum(len(c) for c in t.cells.values())
        return ("fail" if bad or total != t.size else "pass",
                {"covered": t.size, "failing_w": []},
                {"covered": total, "failing_w": bad})
    if cid == "prop3.2f":
        ulv = set(loop_products(t, U, L, V))
        pairs = [(a, b) for a in t.weyl for b in t.weyl
                 if a != b and a.length <= b.length]
        bad = [f"{a!r},{b!r}" for a, b in pairs
               if ulv & set(loop_products(t, [t.inv(t.weyl_to_index[a])], U,
                                          [t.weyl_to_index[b]]))]
        return (status(bad), {"pairs": len(pairs), "intersecting": []},
                {"pairs": len(pairs), "intersecting": bad})
    assert cid == "lem3.12"
    failures = []
    for comp in compositions(n):
        block = [i for i, size in enumerate(comp) for _ in range(size)]

        def zero_at(H, where):
            return [h for h in H if all(t.mat(h)[a][b] == ring.zero
                                        for a in range(n) for b in range(n)
                                        if where(a, b, block[a] == block[b]))]

        def eprod(H, where_in, where_out):
            return (idempotent_subgroup(t, v.e, zero_at(H, where_in))
                    * idempotent_subgroup(t, v.e, zero_at(H, where_out)))

        if eprod(U, lambda a, b, s: a < b and not s, lambda a, b, s: a < b and s) != v.eU:
            failures.append(f"{comp}:eU")
        if eprod(V, lambda a, b, s: a > b and not s, lambda a, b, s: a > b and s) != v.eV:
            failures.append(f"{comp}:eV")
        prods = loop_products(t, zero_at(range(t.size), lambda a, b, s: not s),
                              zero_at(U, lambda a, b, s: a < b and s),
                              zero_at(V, lambda a, b, s: a > b and s))
        if len(set(prods)) != len(prods):
            failures.append(f"{comp}:injectivity")
    return status(failures), {"failures": []}, {"failures": failures}


def test_group_checks_match_nested_loops():
    # each swap breaks some of prop3.2 (a)-(f) or lem3.12, so the fail paths
    # (collision_at, failing lists) are compared as well as the passes
    ids = ["prop3.2a", "prop3.2c", "prop3.2d", "prop3.2e", "prop3.2f", "lem3.12"]
    swaps = [None, ("V", "U"), ("G0", "L"), ("L", "U"), ("U", "N"), ("G0", "U")]
    statuses = set()
    for spec, n in [("GF(3,1)", 2), ("Z/4", 2), ("Z/6", 2), ("GF(2,1)", 3)]:
        for swap in swaps:
            v = Verifier(parse_ring_spec(spec), n)
            if swap:
                v.table.subgroups[swap[0]] = v.table.subgroups[swap[1]]
            for cid in ids:
                try:
                    r = v._check_method(cid)()
                    got = r.status, r.expected, r.actual
                except AlgebraError as ex:   # a swapped U is no longer a group
                    got = "raise", str(ex)
                try:
                    want = nested_loop_check(v, cid)
                except AlgebraError as ex:
                    want = "raise", str(ex)
                assert got == want, (spec, n, swap, cid)
                statuses.add((swap is None, got[0], "collision_at" in str(got)))
    assert statuses >= {(True, "pass", False), (False, "fail", False),
                        (False, "fail", True)}
