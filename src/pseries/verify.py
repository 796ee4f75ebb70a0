"""Verification engine for the principal-series structure of GL_n(R).

Everything that decides pass/fail is exact (rational or cyclotomic); the
only floating point is the eigenvalue splitting that guesses Wedderburn
block sizes, and every integer it produces is cross-checked exactly.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import AlgElem, idempotent_char, idempotent_subgroup
from .chars import (LeviChar, all_levi_chars, conjugacy_class_count,
                    factor_chars, orbit, orbit_reps, partition_count,
                    principal_series_count, stabilizer, stabilizer_degrees,
                    stabilizer_irrep_count, stabilizer_order, unit_structures)
from .cyclo import (CycloError, CycloMatrix, CycloNum, SparseReducer,
                    exact_dtype, int_rows, solve_affine)
from .groups import PermWord, enumerate_gl, factor_ulv, row_blocks
from .rings import RingSpec, residue_structure


class VerifyAlarm(Exception):
    """An exact invariant that the theory guarantees failed to hold."""


@dataclass
class CheckResult:
    id: str
    status: str          # "pass" | "fail"
    expected: object     # JSON-serializable
    actual: object
    millis: float | None = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"


class VerifyReport:
    """Result bundle for a verification run; serializes to text/JSON/CSV."""

    def __init__(self, ring: str, n: int, seed: int, checks):
        self.ring = ring
        self.n = n
        self.seed = seed
        self.checks = list(checks)

    @property
    def summary(self):
        passed = sum(1 for c in self.checks if c.passed)
        return {"total": len(self.checks), "passed": passed,
                "failed": len(self.checks) - passed}

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        # millis is emitted as null so identical runs are byte-identical
        obj = {
            "ring": self.ring,
            "n": self.n,
            "seed": self.seed,
            "checks": [{"id": c.id, "status": c.status, "expected": c.expected,
                        "actual": c.actual, "millis": None} for c in self.checks],
            "summary": self.summary,
        }
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        lines = [f"ring: {self.ring}   n={self.n}   seed={self.seed}"]
        width = max((len(c.id) for c in self.checks), default=4)
        for c in self.checks:
            ms = f"{c.millis:9.1f}ms" if c.millis is not None else "         -"
            line = f"  {c.id:<{width}}  {c.status:<4} {ms}"
            if not c.passed:
                line += (f"  expected {json.dumps(c.expected, sort_keys=True)}"
                         f" actual {json.dumps(c.actual, sort_keys=True)}")
            lines.append(line)
        s = self.summary
        lines.append(f"summary: {s['passed']}/{s['total']} passed")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["id", "status", "expected", "actual"])
        for c in self.checks:
            w.writerow([c.id, c.status, json.dumps(c.expected, sort_keys=True),
                        json.dumps(c.actual, sort_keys=True)])
        return buf.getvalue()


@dataclass
class HalmosElement:
    z: AlgElem
    z_inv: AlgElem
    unit: AlgElem        # the unit of the algebra A generated by e_U, e_V
    basis: list          # basis of A (span of the nonempty words in e_U, e_V)
    solution_dim: int    # dimension over Q of the constrained solution space


@dataclass
class EndAlgebra:
    chi_key: str
    dim: int                    # dim of B = E_chi C[G] E_chi
    center_dim: int             # exact nullity of the commutation system
    blocks: tuple               # sorted Wedderburn block sizes d_i
    attempts: int               # random central elements tried
    basis: list
    structure: list             # structure constants in the chosen basis


def compositions(n: int):
    """All ordered compositions of n."""
    out = []
    for cuts in itertools.product((0, 1), repeat=n - 1):
        parts, cur = [], 1
        for c in cuts:
            if c:
                parts.append(cur)
                cur = 1
            else:
                cur += 1
        parts.append(cur)
        out.append(tuple(parts))
    return out


class Verifier:
    """Holds one tabulated group and runs every check against it."""

    def __init__(self, ring: RingSpec, n: int, seed: int = 0,
                 max_cost: int = 10 ** 8):
        self.ring = ring
        self.n = n
        self.seed = seed
        self.max_cost = max_cost
        self.table = enumerate_gl(ring, n, max_cost)
        self.e = ring.unit_exponent()
        self.rng = random.Random(seed)
        self.chars = all_levi_chars(ring, n)
        t, e = self.table, self.e
        self.eU = idempotent_subgroup(t, e, t.subgroup("U"))
        self.eV = idempotent_subgroup(t, e, t.subgroup("V"))
        self.eL = idempotent_subgroup(t, e, t.subgroup("L"))
        self.c_uv = self.eU * self.eV
        self.c_vu = self.eV * self.eU
        self._halmos = None
        self._echi = {}
        self._E = {}
        self._module = {}
        self._pind_char = {}
        self._end = {}
        self._phi = {}
        self._local_verifiers = None

    # -- basic cached objects ------------------------------------------------

    def e_chi(self, chi: LeviChar) -> AlgElem:
        key = chi.key()
        if key not in self._echi:
            self._echi[key] = idempotent_char(self.table, chi)
        return self._echi[key]

    @property
    def halmos(self) -> HalmosElement:
        if self._halmos is None:
            self._halmos = self._solve_halmos()
        return self._halmos

    def _solve_halmos(self) -> HalmosElement:
        # A is the span of the nonempty words in e_U, e_V; asking for z there
        # (rather than in A + Q1) is what makes the field-case solution unique.
        # Every coefficient in sight is rational, so the whole solve runs at
        # conductor 1 and the results are lifted to conductor e at the end.
        table, e = self.table, self.e
        eU1 = idempotent_subgroup(table, 1, table.subgroup("U"))
        eV1 = idempotent_subgroup(table, 1, table.subgroup("V"))
        cuv1 = eU1 * eV1
        cvu1 = eV1 * eU1
        red = SparseReducer(1)
        queue = []

        def feed(a):
            if red.feed(a.coeffs):
                queue.append(a)

        feed(eU1)
        feed(eV1)
        pos = 0
        while pos < len(queue):
            a = queue[pos]
            pos += 1
            feed(a * eU1)
            feed(a * eV1)
        basis = [AlgElem(table, 1, row) for row in red.basis_rows()]
        k = len(basis)

        def coords_q(elem: AlgElem):
            cl = red.coords_list(elem.coeffs)
            if cl is None:
                raise VerifyAlarm("product left the algebra generated by e_U, e_V")
            return [c.as_fraction() for c in cl]

        # centrality against the generators is centrality in all of A
        cuv_sq = cuv1 * cuv1
        cvu_sq = cvu1 * cvu1
        right_u = [coords_q(b * eU1) for b in basis]
        left_u = [coords_q(eU1 * b) for b in basis]
        right_v = [coords_q(b * eV1) for b in basis]
        left_v = [coords_q(eV1 * b) for b in basis]
        star = [coords_q(b.star()) for b in basis]
        puv = [coords_q(b * cuv_sq) for b in basis]
        pvu = [coords_q(b * cvu_sq) for b in basis]
        t_uv = coords_q(cuv1)
        t_vu = coords_q(cvu1)
        c_u = coords_q(eU1)
        c_v = coords_q(eV1)

        def solve_q(rows, rhs):
            m = CycloMatrix(1, [[CycloNum.rational(1, x) for x in row]
                                for row in rows])
            return solve_affine(m, [CycloNum.rational(1, x) for x in rhs])

        def build(xs):
            z = AlgElem.zero(table, 1)
            for x, b in zip(xs, basis):
                z = z + b.scale(CycloNum.rational(1, x))
            return z

        # A is semisimple (a star-closed subalgebra in characteristic 0), so
        # it has its own unit; find it first to certify invertibility against.
        # Fixing both generators on both sides pins down the two-sided unit.
        urows, urhs = [], []
        for t in range(k):
            for sys, target in ((right_u, c_u), (left_u, c_u),
                                (right_v, c_v), (left_v, c_v)):
                urows.append([sys[i][t] for i in range(k)])
                urhs.append(target[t])
        usol = solve_q(urows, urhs)
        if usol is None or usol.dimension != 0:
            raise VerifyAlarm("the algebra generated by e_U, e_V has no unit")
        unit_coords = [c.as_fraction() for c in usol.particular]
        unit = build(unit_coords)
        if unit * unit != unit or unit.star() != unit:
            raise VerifyAlarm("unit of the e_U, e_V algebra is not a projection")

        # star is conjugate-linear, so solve over the rationals, where all
        # of A's structure data lives anyway
        rows, rhs = [], []
        for t in range(k):
            rows.append([right_u[i][t] - left_u[i][t] for i in range(k)])
            rhs.append(0)
            rows.append([right_v[i][t] - left_v[i][t] for i in range(k)])
            rhs.append(0)
        for t in range(k):
            rows.append([star[i][t] - (1 if i == t else 0) for i in range(k)])
            rhs.append(0)
        for t in range(k):
            rows.append([puv[i][t] for i in range(k)])
            rhs.append(t_uv[t])
        for t in range(k):
            rows.append([pvu[i][t] for i in range(k)])
            rhs.append(t_vu[t])

        sol = solve_q(rows, rhs)
        if sol is None:
            raise VerifyAlarm("the defining system for z has no solution")
        dim = sol.dimension

        particular = [c.as_fraction() for c in sol.particular]
        null_q = [[c.as_fraction() for c in vec] for vec in sol.nullspace]
        candidates = [particular]
        for _ in range(60):
            xs = list(particular)
            for vec in null_q:
                w = Fraction(self.rng.randint(-5, 5))
                xs = [x + w * v for x, v in zip(xs, vec)]
            candidates.append(xs)

        def lift(a: AlgElem) -> AlgElem:
            return AlgElem(table, e, {i: CycloNum.rational(e, c.as_fraction())
                                      for i, c in a.coeffs.items()})

        for xs in candidates:
            z = build(xs)
            lz = [coords_q(z * b) for b in basis]
            inv_sol = solve_q([[lz[j][t] for j in range(k)] for t in range(k)],
                              unit_coords)
            if inv_sol is None or inv_sol.dimension > 0:
                continue
            z_inv = build([c.as_fraction() for c in inv_sol.particular])
            if not (z * z_inv == unit and z_inv * z == unit):
                continue
            if z.star() != z:
                raise VerifyAlarm("solved z is not self-adjoint")
            if z * eU1 != eU1 * z or z * eV1 != eV1 * z:
                raise VerifyAlarm("solved z is not central")
            if z * cuv_sq != cuv1 or z * cvu_sq != cvu1:
                raise VerifyAlarm("solved z fails its defining identities")
            return HalmosElement(lift(z), lift(z_inv), lift(unit),
                                 [lift(b) for b in basis], dim)
        raise VerifyAlarm("no invertible solution for z found")

    def E(self, chi: LeviChar) -> AlgElem:
        """The idempotent z e_U e_V e_chi, idempotency verified exactly."""
        key = chi.key()
        if key not in self._E:
            E = self.halmos.z * self.c_uv * self.e_chi(chi)
            if E.is_zero():
                raise VerifyAlarm(f"z e_U e_V e_chi vanished for chi={key}")
            if E * E != E:
                raise VerifyAlarm(f"z e_U e_V e_chi not idempotent for chi={key}")
            self._E[key] = E
        return self._E[key]

    def module_reducer(self, chi: LeviChar) -> SparseReducer:
        """Row basis of the left module spanned by the translates g * E_chi.

        The trace of right multiplication by a verified idempotent equals the
        dimension of its image, so feeding stops once the rank reaches it;
        a shortfall after all translates would be an alarm.
        """
        key = chi.key()
        if key not in self._module:
            E = self.E(chi)
            tr = E.coeff(self.table.identity) * self.table.size
            try:
                trq = tr.as_fraction()
            except CycloError:
                raise VerifyAlarm(f"module trace is not rational for chi={key}")
            if trq.denominator != 1 or trq < 0:
                raise VerifyAlarm(f"module trace is not a dimension for chi={key}")
            expected = int(trq)
            red = SparseReducer(self.e)
            for g in range(self.table.size):
                red.feed(E.left_translate(g).coeffs)
                if red.rank == expected:
                    break
            if red.rank != expected:
                raise VerifyAlarm(f"module dimension disagrees with trace for chi={key}")
            self._module[key] = red
        return self._module[key]

    # -- intertwining dimensions ----------------------------------------------

    def intertwining_dim_formula(self, chi: LeviChar, sigma: LeviChar) -> int:
        return sum(1 for w in self.table.weyl if chi.acted(w) == sigma)

    def _sandwich_rank(self, chi: LeviChar, sigma: LeviChar) -> int:
        """rank{E_sigma g E_chi : g in G} via a basis of the chi module."""
        red = self.module_reducer(chi)
        Esig = self.E(sigma)
        out = SparseReducer(self.e)
        for row in red.basis_rows():
            out.feed((Esig * AlgElem(self.table, self.e, row)).coeffs)
        return out.rank

    def pind_character(self, chi: LeviChar):
        """Character values of the induced module, one CycloNum per element.

        chi(g) = sum_x E(x^-1 g^-1 x), summed on E's integer coordinates.
        """
        key = chi.key()
        if key not in self._pind_char:
            table, size = self.table, self.table.size
            keys, rows, den = int_rows(self.E(chi).coeffs)
            top = max((abs(x) for row in rows for x in row), default=0)
            dense = np.zeros((size, len(CycloNum.zero(self.e).c)),
                             dtype=exact_dtype(top * size))
            dense[keys] = rows
            mul, inv, xs = table._table, table._inv, np.arange(size)
            out = []
            for g in range(size):
                sums = dense[mul[mul[inv, inv[g]], xs]].sum(axis=0)
                out.append(CycloNum(self.e, [Fraction(int(x), den) for x in sums]))
            self._pind_char[key] = out
        return self._pind_char[key]

    def _character_dim(self, chi: LeviChar, sigma: LeviChar) -> int:
        """dim Hom via the averaged inner product of the two characters."""
        a = self.pind_character(chi)
        b = self.pind_character(sigma)
        total = CycloNum.zero(self.e)
        for x, y in zip(a, b):
            total = total + x * y.conj()
        val = (total * Fraction(1, self.table.size)).as_fraction()
        if val.denominator != 1:
            raise VerifyAlarm("character inner product is not an integer")
        return int(val)

    def intertwining_dim_oracle(self, chi: LeviChar, sigma: LeviChar) -> int:
        s = self._sandwich_rank(chi, sigma)
        c = self._character_dim(chi, sigma)
        if s != c:
            raise VerifyAlarm(
                f"oracles disagree for ({chi.key()}, {sigma.key()}): "
                f"sandwich {s}, character {c}")
        return s

    # -- endomorphism algebras -------------------------------------------------

    def end_algebra(self, chi: LeviChar) -> EndAlgebra:
        key = chi.key()
        if key in self._end:
            return self._end[key]
        table, e = self.table, self.e
        E = self.E(chi)
        mred = self.module_reducer(chi)
        bred = SparseReducer(e)
        for row in mred.basis_rows():
            bred.feed((E * AlgElem(table, e, row)).coeffs)
        k = bred.rank
        basis = [AlgElem(table, e, row) for row in bred.basis_rows()]

        def coords(elem):
            cl = bred.coords_list(elem.coeffs)
            if cl is None:
                raise VerifyAlarm("product left the endomorphism algebra")
            return cl

        struct = [[coords(basis[i] * basis[j]) for j in range(k)] for i in range(k)]

        # center: exact nullity of the commutation system
        rows = []
        for j in range(k):
            for t in range(k):
                rows.append([struct[i][j][t] - struct[j][i][t] for i in range(k)])
        zero = CycloNum.zero(e)
        sol = solve_affine(CycloMatrix(e, rows), [zero] * len(rows))
        center = sol.nullspace
        center_dim = len(center)

        blocks, attempts = None, 0
        for attempt in range(5):
            attempts = attempt + 1
            weights = [self.rng.randint(1, 100) for _ in center]
            zeta = [zero] * k
            for wgt, vec in zip(weights, center):
                zeta = [a + b * wgt for a, b in zip(zeta, vec)]
            lmat = [[zero] * k for _ in range(k)]
            for j in range(k):
                for i in range(k):
                    zi = zeta[i]
                    if zi.is_zero():
                        continue
                    col = struct[i][j]
                    for t in range(k):
                        lmat[t][j] = lmat[t][j] + zi * col[t]
            lf = np.array([[x.to_complex() for x in row] for row in lmat],
                          dtype=complex)
            eig = sorted(np.linalg.eigvals(lf), key=lambda v: (v.real, v.imag))
            scale = max(1.0, max(abs(v) for v in eig)) if k else 1.0
            clusters = []
            for v in eig:
                if clusters and abs(v - clusters[-1][-1]) <= 1e-8 * scale:
                    clusters[-1].append(v)
                else:
                    clusters.append([v])
            if len(clusters) != center_dim:
                continue
            ds = []
            for cl in clusters:
                m = len(cl)
                d = round(math.sqrt(m))
                if abs(math.sqrt(m) - d) >= 1e-6:
                    ds = None
                    break
                ds.append(d)
            if ds is None or sum(d * d for d in ds) != k:
                continue
            blocks = tuple(sorted(ds))
            break
        if blocks is None:
            raise VerifyAlarm(
                f"eigen-splitting failed after {attempts} attempts for chi={key}")
        out = EndAlgebra(key, k, center_dim, blocks, attempts, basis, struct)
        self._end[key] = out
        return out

    # -- counting ---------------------------------------------------------------

    def pipeline_count(self) -> int:
        """Distinct irreducible constituents across all induced modules."""
        return sum(self.end_algebra(rep).center_dim
                   for rep in orbit_reps(self.ring, self.n))

    def count_principal_series(self):
        """(pipeline count, formula count); also checks the cheap variant."""
        pipeline = self.pipeline_count()
        formula = principal_series_count(self.ring, self.n)
        cheap = sum(stabilizer_irrep_count(rep)
                    for rep in orbit_reps(self.ring, self.n))
        if cheap != pipeline:
            raise VerifyAlarm(
                f"stabilizer irrep count {cheap} disagrees with pipeline {pipeline}")
        return pipeline, formula

    def count_pind_trivial_constituents(self) -> int:
        trivial = self.chars[0]
        if not trivial.is_trivial():
            raise VerifyAlarm("character list does not start with the trivial one")
        return self.end_algebra(trivial).center_dim

    def local_verifiers(self):
        """One Verifier per local factor (for product-ring cross-checks)."""
        if self._local_verifiers is None:
            self._local_verifiers = [
                Verifier(RingSpec([loc]), self.n, self.seed, self.max_cost)
                for loc in self.ring.locals]
        return self._local_verifiers

    # -- named checks -----------------------------------------------------------

    def check_ulv(self) -> CheckResult:
        """(a) U x L x V -> G is injective, and membership matches factor_ulv."""
        t = self.table
        U, L, V = t.subgroup("U"), t.subgroup("L"), t.subgroup("V")
        seen = {}
        for u in U:
            for l in L:
                ul = t.mul(u, l)
                for v in V:
                    g = t.mul(ul, v)
                    if g in seen:
                        return CheckResult("prop3.2a", "fail",
                                           {"distinct_products": len(U) * len(L) * len(V)},
                                           {"collision_at": g})
                    seen[g] = (u, l, v)
        mismatch = 0
        uset, lset, vset = set(U), set(L), set(V)
        for g in range(t.size):
            f = factor_ulv(self.ring, t.mat(g))
            if (f is not None) != (g in seen):
                mismatch += 1
                continue
            if f is not None:
                ui, li, vi = (t.index[f[0]], t.index[f[1]], t.index[f[2]])
                if (ui not in uset or li not in lset or vi not in vset
                        or t.mul(t.mul(ui, li), vi) != g):
                    mismatch += 1
        expected = {"distinct_products": len(U) * len(L) * len(V), "mismatches": 0}
        actual = {"distinct_products": len(seen), "mismatches": mismatch}
        status = "pass" if expected == actual else "fail"
        return CheckResult("prop3.2a", status, expected, actual)

    def check_residue_surjective(self) -> CheckResult:
        """(b) entrywise reduction hits all of GL_n over the residue ring."""
        rs = residue_structure(self.ring)
        if rs.residue_ring == self.ring:
            rtab = self.table
        else:
            rtab = enumerate_gl(rs.residue_ring, self.n, self.max_cost)
        images = set()
        for i in range(self.table.size):
            red = tuple(tuple(rs.reduce(x) for x in row)
                        for row in self.table.mat(i))
            images.add(rtab.index[red])
        expected = {"image_size": rtab.size}
        actual = {"image_size": len(images)}
        return CheckResult("prop3.2b", "pass" if expected == actual else "fail",
                           expected, actual)

    def check_kernel_orderings(self) -> CheckResult:
        """(c) all six orderings of (U_0, L_0, V_0) multiply bijectively onto G_0."""
        t = self.table
        g0 = set(t.subgroup("G0"))
        u0 = [i for i in t.subgroup("U") if i in g0]
        l0 = [i for i in t.subgroup("L") if i in g0]
        v0 = [i for i in t.subgroup("V") if i in g0]
        bad = []
        for perm in itertools.permutations(((u0, "U0"), (l0, "L0"), (v0, "V0"))):
            (xa, _), (xb, _), (xc, _) = perm
            prods = set()
            for a in xa:
                for b in xb:
                    ab = t.mul(a, b)
                    for c in xc:
                        prods.add(t.mul(ab, c))
            name = "".join(nm for _, nm in perm)
            if len(prods) != len(u0) * len(l0) * len(v0) or prods != g0:
                bad.append(name)
        expected = {"bijective_orderings": 6, "failing": []}
        actual = {"bijective_orderings": 6 - len(bad), "failing": bad}
        return CheckResult("prop3.2c", "pass" if not bad else "fail",
                           expected, actual)

    def check_unipotent_splitting(self) -> CheckResult:
        """(d) (U cap U^w) x (U cap V^w) -> U is a bijection for every w."""
        t = self.table
        uset = set(t.subgroup("U"))
        vset = set(t.subgroup("V"))
        bad = []
        for w, widx in t.weyl_to_index.items():
            uw = set(t.conjugated(t.subgroup("U"), widx))
            vw = set(t.conjugated(t.subgroup("V"), widx))
            a = sorted(uset & uw)
            b = sorted(uset & vw)
            prods = set()
            for x in a:
                for y in b:
                    prods.add(t.mul(x, y))
            if len(prods) != len(a) * len(b) or prods != uset:
                bad.append(repr(w))
        expected = {"failing_w": []}
        actual = {"failing_w": bad}
        return CheckResult("prop3.2d", "pass" if not bad else "fail", expected, actual)

    def check_cells(self) -> CheckResult:
        """(e) the label fibers are exactly the products V w L U G_0."""
        t = self.table
        U, L, V, G0 = (t.subgroup("U"), t.subgroup("L"), t.subgroup("V"),
                       t.subgroup("G0"))
        total = sum(len(c) for c in t.cells.values())
        bad = []
        for w in t.weyl:
            widx = t.weyl_to_index[w]
            cell = set(t.cells.get(w, ()))
            prods = set()
            for v in V:
                vw = t.mul(v, widx)
                for l in L:
                    vwl = t.mul(vw, l)
                    for u in U:
                        vwlu = t.mul(vwl, u)
                        for g0 in G0:
                            prods.add(t.mul(vwlu, g0))
            if prods != cell or t.bruhat_label(widx) != w:
                bad.append(repr(w))
        expected = {"covered": t.size, "failing_w": []}
        actual = {"covered": total, "failing_w": bad}
        status = "pass" if (total == t.size and not bad) else "fail"
        return CheckResult("prop3.2e", status, expected, actual)

    def check_cell_separation(self) -> CheckResult:
        """(f) ULV misses t^-1 U r for every ordered pair t != r, l(t) <= l(r)."""
        t = self.table
        ulv = set()
        for u in t.subgroup("U"):
            for l in t.subgroup("L"):
                ul = t.mul(u, l)
                for v in t.subgroup("V"):
                    ulv.add(t.mul(ul, v))
        bad = []
        pairs = 0
        for wt in t.weyl:
            for wr in t.weyl:
                if wt == wr or wt.length > wr.length:
                    continue
                pairs += 1
                ti = t.inv(t.weyl_to_index[wt])
                ri = t.weyl_to_index[wr]
                for u in t.subgroup("U"):
                    if t.mul(t.mul(ti, u), ri) in ulv:
                        bad.append(f"{wt!r},{wr!r}")
                        break
        expected = {"pairs": pairs, "intersecting": []}
        actual = {"pairs": pairs, "intersecting": bad}
        return CheckResult("prop3.2f", "pass" if not bad else "fail", expected, actual)

    def check_lemma33(self) -> CheckResult:
        h = self.halmos
        idents = {
            "self_adjoint": h.z.star() == h.z,
            "central": (h.z * self.eU == self.eU * h.z
                        and h.z * self.eV == self.eV * h.z),
            "uv_identity": h.z * (self.c_uv * self.c_uv) == self.c_uv,
            "vu_identity": h.z * (self.c_vu * self.c_vu) == self.c_vu,
            "invertible": (h.z * h.z_inv == h.unit
                           and h.z_inv * h.z == h.unit),
        }
        expected = {k: True for k in idents}
        actual = dict(idents)
        # over a field z is unique; over a general ring the dimension is
        # only reported
        locs = self.ring.locals
        if len(locs) == 1 and (locs[0].kind == "gf" or locs[0].k == 1):
            expected["solution_dim"] = 0
        else:
            expected["solution_dim"] = h.solution_dim
        actual["solution_dim"] = h.solution_dim
        status = "pass" if expected == actual else "fail"
        return CheckResult("lem3.3", status, expected, actual)

    def check_lemma34(self) -> CheckResult:
        t = self.table
        bad = []
        for w, widx in t.weyl_to_index.items():
            euw = idempotent_subgroup(t, self.e, t.conjugated(t.subgroup("U"), widx))
            evw = idempotent_subgroup(t, self.e, t.conjugated(t.subgroup("V"), widx))
            if self.eV * euw * evw != self.eV * self.eU * evw:
                bad.append(repr(w))
        return CheckResult("lem3.4", "pass" if not bad else "fail",
                           {"failing_w": []}, {"failing_w": bad})

    def _phi_data(self, w: PermWord):
        key = w.perms
        if key in self._phi:
            return self._phi[key]
        t, e = self.table, self.e
        widx = t.weyl_to_index[w]
        euw = idempotent_subgroup(t, e, t.conjugated(t.subgroup("U"), widx))
        evw = idempotent_subgroup(t, e, t.conjugated(t.subgroup("V"), widx))
        cw = euw * evw
        vcw = self.eV * cw
        red_cw = SparseReducer(e)
        red_vcw = SparseReducer(e)
        for g in range(t.size):
            red_cw.feed(cw.right_translate(g).coeffs)
            red_vcw.feed(vcw.right_translate(g).coeffs)
        phi_red = SparseReducer(e)
        for l in t.subgroup("L"):
            wl = t.mul(widx, l)
            phi_red.feed((self.c_uv.right_translate(wl) * self.c_uv).coeffs)
        # with every cell element inside phi_red's span, the joint span is
        # that span, so containment alone decides span equality
        cell_in_span = all(
            phi_red.contains((self.c_uv.right_translate(g) * self.c_uv).coeffs)
            for g in t.cells.get(w, ()))
        data = {
            "rank_cw": red_cw.rank,
            "rank_vcw": red_vcw.rank,
            "rank_phi": phi_red.rank,
            "cell_span_equal": cell_in_span,
        }
        self._phi[key] = data
        return data

    def check_phi_w(self, w: PermWord) -> dict:
        """Sub-checks (i)-(iii) for one Weyl element."""
        d = self._phi_data(w)
        L = len(self.table.subgroup("L"))
        return {
            "dims_match": d["rank_cw"] == d["rank_vcw"],
            "phi_rank_full": d["rank_phi"] == L,
            "phi_surjective": d["cell_span_equal"],
        }

    def check_lemma35(self) -> CheckResult:
        bad = [repr(w) for w in self.table.weyl
               if not self.check_phi_w(w)["dims_match"]]
        return CheckResult("lem3.5", "pass" if not bad else "fail",
                           {"failing_w": []}, {"failing_w": bad})

    def check_prop36(self) -> CheckResult:
        bad = []
        for w in self.table.weyl:
            r = self.check_phi_w(w)
            if not (r["phi_rank_full"] and r["phi_surjective"]):
                bad.append(repr(w))
        return CheckResult("prop3.6", "pass" if not bad else "fail",
                           {"failing_w": []}, {"failing_w": bad})

    def check_lin_independence(self) -> CheckResult:
        t = self.table
        gens = []
        for w in t.subgroup("W"):
            for l in t.subgroup("L"):
                wl = t.mul(w, l)
                gens.append(self.c_uv.right_translate(wl) * self.c_uv)
        red = SparseReducer(self.e)
        for g in gens:
            red.feed(g.coeffs)
        expect = len(t.subgroup("W")) * len(t.subgroup("L"))
        return CheckResult("prop3.7", "pass" if red.rank == expect else "fail",
                           {"rank": expect}, {"rank": red.rank})

    def check_theorem1(self) -> CheckResult:
        chars = self.chars
        formula = [[self.intertwining_dim_formula(chi, sig) for sig in chars]
                   for chi in chars]
        oracle = [[self.intertwining_dim_oracle(chi, sig) for sig in chars]
                  for chi in chars]
        status = "pass" if formula == oracle else "fail"
        return CheckResult("thm1", status, {"dims": formula}, {"dims": oracle})

    def check_theorem2(self) -> CheckResult:
        reps = orbit_reps(self.ring, self.n)
        expected, actual = {}, {}
        invariance_done = False
        for rep in reps:
            ea = self.end_algebra(rep)
            st = stabilizer(rep)
            expected[rep.key()] = {
                "dim": stabilizer_order(rep),
                "blocks": list(stabilizer_degrees(rep)),
                "num_blocks": conjugacy_class_count(st),
                "sum_d2": stabilizer_order(rep),
            }
            actual[rep.key()] = {
                "dim": ea.dim,
                "blocks": list(ea.blocks),
                "num_blocks": ea.center_dim,
                "sum_d2": sum(d * d for d in ea.blocks),
            }
            if not invariance_done:
                orb = orbit(rep)
                others = [c for c in orb if c != rep]
                if others:
                    ea2 = self.end_algebra(others[-1])
                    expected[rep.key()]["unsorted_blocks"] = list(ea.blocks)
                    actual[rep.key()]["unsorted_blocks"] = list(ea2.blocks)
                    invariance_done = True
        status = "pass" if expected == actual else "fail"
        return CheckResult("thm2", status, expected, actual)

    def check_scalar_twist(self) -> CheckResult:
        """Twisting by a determinant character fixes e_U, e_V, moves e_chi to e_L."""
        expected = {"failures": []}
        failures = []
        factor_verifiers = (self.local_verifiers()
                            if len(self.ring.locals) > 1 else [self])
        for f, lv in enumerate(factor_verifiers):
            ringf = lv.ring
            tf = lv.table
            ef = ringf.unit_exponent()
            structs = unit_structures(ringf)
            for chi1 in factor_chars(structs[0], ef):
                # multiplicativity of chi1(det .) on all pairs
                dexp = [chi1.value_exponent(tf.dets[i][0])
                        for i in range(tf.size)]
                d = np.array(dexp)
                if not all(((d[rows, None] + d) % ef == d[tf._table[rows]]).all()
                           for rows in row_blocks(tf.size, tf.size)):
                    failures.append(f"factor{f}:exps{chi1.exps}:multiplicative")
                    continue
                eUf = idempotent_subgroup(tf, ef, tf.subgroup("U"))
                eVf = idempotent_subgroup(tf, ef, tf.subgroup("V"))
                eLf = idempotent_subgroup(tf, ef, tf.subgroup("L"))

                def twist(a: AlgElem) -> AlgElem:
                    return AlgElem(tf, ef, {
                        i: c * CycloNum.root(ef, dexp[i])
                        for i, c in a.coeffs.items()})

                chi = LeviChar(ringf, self.n, ef, ((chi1,) * self.n,))
                if twist(eUf) != eUf or twist(eVf) != eVf:
                    failures.append(f"factor{f}:exps{chi1.exps}:unipotent")
                if twist(idempotent_char(tf, chi)) != eLf:
                    failures.append(f"factor{f}:exps{chi1.exps}:echi")
        actual = {"failures": failures}
        return CheckResult("lem3.10", "pass" if not failures else "fail",
                           expected, actual)

    def check_levi_support(self) -> CheckResult:
        """Block factorizations e_U = e_U' e_U'' and the L' U'' V'' injectivity."""
        t, e, n = self.table, self.e, self.n
        failures = []
        for comp in compositions(n):
            block = []
            for bi, sz in enumerate(comp):
                block.extend([bi] * sz)

            def is_zero_entry(mat, i, j):
                return mat[i][j] == self.ring.zero

            U = t.subgroup("U")
            V = t.subgroup("V")
            u_in = [i for i in U
                    if all(is_zero_entry(t.mat(i), a, b)
                           for a in range(n) for b in range(n)
                           if a < b and block[a] != block[b])]
            u_out = [i for i in U
                     if all(is_zero_entry(t.mat(i), a, b)
                            for a in range(n) for b in range(n)
                            if a < b and block[a] == block[b])]
            v_in = [i for i in V
                    if all(is_zero_entry(t.mat(i), a, b)
                           for a in range(n) for b in range(n)
                           if a > b and block[a] != block[b])]
            v_out = [i for i in V
                     if all(is_zero_entry(t.mat(i), a, b)
                            for a in range(n) for b in range(n)
                            if a > b and block[a] == block[b])]
            levi = [i for i in range(t.size)
                    if all(is_zero_entry(t.mat(i), a, b)
                           for a in range(n) for b in range(n)
                           if block[a] != block[b])]
            eU = self.eU
            eV = self.eV
            if idempotent_subgroup(t, e, u_in) * idempotent_subgroup(t, e, u_out) != eU:
                failures.append(f"{comp}:eU")
            if idempotent_subgroup(t, e, v_in) * idempotent_subgroup(t, e, v_out) != eV:
                failures.append(f"{comp}:eV")
            prods = set()
            for l in levi:
                for u in u_out:
                    lu = t.mul(l, u)
                    for v in v_out:
                        prods.add(t.mul(lu, v))
            if len(prods) != len(levi) * len(u_out) * len(v_out):
                failures.append(f"{comp}:injectivity")
        return CheckResult("lem3.12", "pass" if not failures else "fail",
                           {"failures": []}, {"failures": failures})

    def check_corollary(self) -> CheckResult:
        pipeline, formula = self.count_principal_series()
        status = "pass" if pipeline == formula else "fail"
        return CheckResult("cor2.3", status, {"count": formula},
                           {"pipeline": pipeline, "formula": formula})

    def check_intro_example(self) -> CheckResult:
        got = self.count_pind_trivial_constituents()
        want = partition_count(self.n) ** len(self.ring.locals)
        return CheckResult("intro", "pass" if got == want else "fail",
                           {"constituents": want}, {"constituents": got})

    def check_local_product(self) -> CheckResult:
        """Product rings: the pipeline count factors over the local rings."""
        combined = self.pipeline_count()
        locals_ = [lv.pipeline_count() for lv in self.local_verifiers()]
        prod = math.prod(locals_)
        status = "pass" if combined == prod else "fail"
        return CheckResult("lem3.1", status,
                           {"combined": combined},
                           {"local_product": prod, "locals": locals_})

    # -- the runner ---------------------------------------------------------------

    def check_order(self):
        ids = ["prop3.2a", "prop3.2b", "prop3.2c", "prop3.2d", "prop3.2e",
               "prop3.2f", "lem3.3", "lem3.4", "lem3.5", "prop3.6", "prop3.7",
               "thm1", "thm2", "lem3.10", "lem3.12", "cor2.3", "intro"]
        if len(self.ring.locals) > 1:
            ids.append("lem3.1")
        return ids

    def _check_method(self, check_id: str):
        return {
            "prop3.2a": self.check_ulv,
            "prop3.2b": self.check_residue_surjective,
            "prop3.2c": self.check_kernel_orderings,
            "prop3.2d": self.check_unipotent_splitting,
            "prop3.2e": self.check_cells,
            "prop3.2f": self.check_cell_separation,
            "lem3.3": self.check_lemma33,
            "lem3.4": self.check_lemma34,
            "lem3.5": self.check_lemma35,
            "prop3.6": self.check_prop36,
            "prop3.7": self.check_lin_independence,
            "thm1": self.check_theorem1,
            "thm2": self.check_theorem2,
            "lem3.10": self.check_scalar_twist,
            "lem3.12": self.check_levi_support,
            "cor2.3": self.check_corollary,
            "intro": self.check_intro_example,
            "lem3.1": self.check_local_product,
        }[check_id]

    def run_checks(self, only=None, skip=None) -> VerifyReport:
        ids = self.check_order()
        if only:
            wanted = set(only)
            unknown = wanted - set(ids)
            if unknown:
                # allow family prefixes such as "prop3.2"
                for u in sorted(unknown):
                    if not any(i.startswith(u) for i in ids):
                        raise ValueError(f"unknown check id {u!r}")
            ids = [i for i in ids if i in wanted
                   or any(i.startswith(u) for u in wanted)]
        if skip:
            ids = [i for i in ids
                   if i not in set(skip) and not any(i.startswith(s) for s in skip)]
        checks = []
        for cid in ids:
            start = time.perf_counter()
            try:
                result = self._check_method(cid)()
            except VerifyAlarm as ex:
                result = CheckResult(cid, "fail", {"alarm": None},
                                     {"alarm": str(ex)})
            result.millis = (time.perf_counter() - start) * 1000.0
            checks.append(result)
        return VerifyReport(self.ring.canonical_str, self.n, self.seed, checks)
