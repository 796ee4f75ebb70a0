"""Verification engine for the principal-series structure of GL_n(R).

Everything that decides pass/fail is exact (rational or cyclotomic); a rank
read mod a prime counts only where it is certified exact (_certified_rank).
Wedderburn block sizes are ranks of trace forms (_wedderburn_blocks).  The
one floating-point step is float64 integer matmuls (algebra.matmul_dtype:
the U\\G/V contractions and E's sum over L), run only when an a-priori bound
keeps every partial sum an integer below 2^53.

No check multiplies two group-algebra elements.  A product of subgroup
idempotents is a count of subgroup products (_products); v e_X and
e_X v are sums over X (_average); products of elements constant on U\\G/V
are contractions with one double-coset count table (_uv_counts).  The linear
systems are built as integer arrays and solved by the array form of
solve_affine: zc = z e_U e_V, all that E needs of the Halmos element z, from
a Krylov solve on U\\G/V count coordinates; z itself (Lemma 3.3 only) on the
coordinates of the words of A, which live on the four spaces X\\G/Y, X, Y in
{U, V}; and the centre of each endomorphism algebra.  thm1's sandwich ranks
(all character pairs at once) and each end algebra E_chi C[G] E_chi come
from zc on the same U\\G/V coordinates, through one certified table
(_uv_table).
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

from .algebra import (AlgElem, idempotent_char, idempotent_subgroup, matmul_dtype,
                      stack)
from .chars import (LeviChar, all_levi_chars, conjugacy_class_count,
                    factor_chars, orbit, orbit_reps, partition_count,
                    principal_series_count, stabilizer, stabilizer_degrees,
                    stabilizer_irrep_count, stabilizer_order, unit_structures)
from .cyclo import (SparseReducer, content, exact_dtype, fold_array, galois, max_abs,
                    power_fold, root_coords, solve_affine, times)
from .groups import (PermWord, enumerate_gl, factor_ulv_codes, ring_arrays,
                     row_blocks)
from .rings import RingSpec


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
    words: list = ()     # (p, x): word w_p e_U (x = 0) or w_p e_V, w_-1 = 1
    z_coords: tuple = ((), 1)      # (c, den): z = sum_l c[l] w_l / den
    z_inv_coords: tuple = ((), 1)  # the same for z_inv


@dataclass
class EndAlgebra:
    chi_key: str
    dim: int                    # dim of B = E_chi C[G] E_chi
    center_dim: int             # exact nullity of the commutation system
    blocks: tuple               # sorted Wedderburn block sizes d_i, exact
    attempts: int               # ranks of G - d^2 T taken (_wedderburn_blocks)
    structure: list             # structure[i][j][t] / den: coordinate t of
    den: int                    # b_i b_j, as phi power-basis integers


def _products(t, *factors):
    """Every product f_1 ... f_k of elements of the index lists, gathered from
    the Cayley table in nested-loop order (the last factor varies fastest)."""
    out = np.asarray(factors[0], dtype=np.intp)
    for f in factors[1:]:
        out = t._table[out[:, None], np.asarray(f, dtype=np.intp)].ravel()
    return out


def _mask(t, idx):
    """Boolean membership array of the given indices over G."""
    out = np.zeros(t.size, dtype=bool)
    out[np.asarray(idx, dtype=np.intp)] = True
    return out


def _multiplicative_on_generators(t, d, mul):
    """Whether d(g h) = mul[d(g), d(h)] for all g, h in G, for an integer
    array d over G and a multiplication table mul of its values.

    S = U | L | V contains the identity.  Walking out from {1} by right
    multiplication by S, each front is gathered once, so every g in G is
    tested against every s in S, |G| |S| products, and the walk certifies
    that S generates G.  d(g s) = d(g) d(s) for all g and s in S then gives
    d(1) = 1 and, by induction on word length, d(g h) = d(g) d(h).  A walk
    that does not reach all of G fails.
    """
    S = np.flatnonzero(_mask(t, t.subgroup("U") + t.subgroup("L") + t.subgroup("V")))
    reached = _mask(t, [t.identity])
    front, ok = np.array([t.identity]), True
    while len(front):
        grown = np.zeros(t.size, dtype=bool)
        for rows in row_blocks(len(front), len(S)):
            g = front[rows]
            prods = t._table[np.ix_(g, S)]
            ok &= bool((mul[d[g, None], d[S]] == d[prods]).all())
            grown[prods] = True
        front = np.flatnonzero(grown & ~reached)
        reached |= grown
    return ok and bool(reached.all())


def _labels(t, X, Y=()):
    """label[g] = min(X g), or min(X g Y) when Y is given: the least element
    of g's coset or double coset, one gather and a min per side."""
    out = t._table[np.asarray(X, dtype=np.intp)].min(axis=0)
    if len(Y):
        out = out[t._table[:, np.asarray(Y, dtype=np.intp)]].min(axis=1)
    return out


def _counts(t, label, left, xs, right):
    """The int64 matrix M[i, j] = #{(a, b) in left x right : a xs[i] b lies
    in class j}, the classes numbered in increasing order of their least
    elements, label[g] being that of g's class; one gather, one bincount."""
    index = np.cumsum(label == np.arange(t.size)) - 1
    k, xs = int(index[-1]) + 1, np.asarray(xs, dtype=np.intp)
    ax = t._table[np.ix_(np.asarray(left, dtype=np.intp), xs)]
    cls = index[label[t._table[ax[..., None], np.asarray(right, dtype=np.intp)]]]
    flat = cls + (np.arange(len(xs)) * k)[:, None]
    return np.bincount(flat.ravel(), minlength=len(xs) * k).reshape(len(xs), k)


def _rows(M):
    """The rows of an integer matrix as a SparseReducer stack."""
    return np.arange(M.shape[1]), M[:, :, None], 1


def _rank(e, M):
    """The rank over Q(zeta_e) of an integer matrix M (m, n, phi)."""
    red = SparseReducer(e)
    red.feed((np.arange(M.shape[1]), M, 1))
    return red.rank


# a prime whose residues multiply in int64
_P = 2 ** 31 - 1


def _rank_mod_p(M):
    """The rank mod _P of an integer matrix, by elimination that updates only
    the trailing block right of each pivot, and in it only the rows below
    the pivot that are nonzero in its column (count matrices stay sparse)."""
    A = (M % _P).astype(np.int64)
    rank = 0
    for c in range(A.shape[1]):
        if rank == len(A):
            break
        nz = np.flatnonzero(A[rank:, c])
        if not len(nz):
            continue
        A[[rank, rank + nz[0]]] = A[[rank + nz[0], rank]]
        A[rank, c + 1:] = A[rank, c + 1:] * pow(int(A[rank, c]), _P - 2, _P) % _P
        rows = rank + 1 + np.flatnonzero(A[rank + 1:, c])
        # residues below p: each entry stays above -p^2 > -2^63 before the mod
        A[rows, c + 1:] = (A[rows, c + 1:] - A[rows, c, None] * A[rank, c + 1:]) % _P
        rank += 1
    return rank


def _certified_rank(M, upper=None):
    """The rank over Q of an integer matrix M: its rank mod _P where that is
    certified, else an exact sweep over its rows.

    rank mod p <= rank over Q <= upper (min(M.shape) when None), so a rank
    mod p that reaches upper is exact.  So is any rank mod p when the k =
    min(M.shape) largest squared row norms, each taken as at least 1,
    multiply to less than p^2: by Hadamard's bound every minor is then
    smaller than p in absolute value, so none that is nonzero vanishes mod p.
    """
    k = min(M.shape)
    rank = _rank_mod_p(M)
    if rank == (k if upper is None else upper):
        return rank
    M2 = M.astype(exact_dtype(max_abs(M) ** 2 * M.shape[1]))
    norms = sorted(np.maximum((M2 * M2).sum(axis=1), 1).tolist(), reverse=True)
    if math.prod(norms[:k]) < _P * _P:
        return rank
    return _rank(1, M[:, :, None])


def _coords(red, vecs, alarm):
    """(coords, den): the coordinates of a stack of vectors on red's pivots,
    an integer array (k, rank, phi) over one denominator; VerifyAlarm(alarm)
    when a vector lies outside red's span."""
    coords, dens, inside = red.coords_list(vecs)
    if not inside.all():
        raise VerifyAlarm(alarm)
    den = math.lcm(*dens.tolist())
    return coords * (den // dens)[:, None, None], den


def _block(cols, rhs):
    """[M | rhs] of the equations sum_i cols[i, t] x_i = rhs[t], one per t,
    for integer arrays cols (nc, nr, phi) and rhs (nr, phi)."""
    return np.concatenate([cols.transpose(1, 0, 2), rhs[:, None]], axis=1)


def _dense(a, dtype=None):
    """The coordinate rows (|G|, phi) of an element at every g in G, over a.den."""
    out = np.zeros((a.table.size, a.rows.shape[1]), dtype=dtype or a.rows.dtype)
    out[a.keys] = a.rows
    return out


def _average(v, idx):
    """At each g, the sum over x in X of v(idx[x, g]), for integer arrays v
    (..., |G|) of values over G: |X| v e_X for idx = t._table[:, X].T (g x),
    |X| e_X v for idx = t._table[X] (x g)."""
    v = v.astype(exact_dtype(max_abs(v) * len(idx)), copy=False)
    return v[..., idx].sum(axis=-2)


def _same(a, da, b, db):
    """Whether a / da = b / db, for integer arrays a, b and integers da, db > 0."""
    dtype = exact_dtype(max(max_abs(a) * db, max_abs(b) * da))
    return bool((a.astype(dtype) * db == b.astype(dtype) * da).all())


def _combination(coeffs, den, vecs):
    """(num, d): sum_l coeffs[l] / den times vecs[l] = (v_l, d_l), standing for
    v_l / d_l, is num / d."""
    lcm = math.lcm(*(d for _, d in vecs))
    scaled = [int(c) * (lcm // d) for c, (_, d) in zip(coeffs, vecs)]
    dtype = exact_dtype(sum(abs(s) * max_abs(v) for s, (v, _) in zip(scaled, vecs)))
    return (np.array(scaled, dtype=dtype) @ np.array([v for v, _ in vecs], dtype=dtype),
            den * lcm)


def _along(words, a, den, act, sizes):
    """[(num, d)]: num / d is a w_l for each word w_l = w_p e_X of words, (p,
    X) per word and w_-1 = 1, with a = a / den and a w_l = act(a w_p, X) /
    sizes[X], each in lowest terms."""
    out = []
    for p, x in words:
        num, d = (a, den) if p < 0 else out[p]
        num, d = act(num, x), d * sizes[x]
        g = math.gcd(content(num), d)
        out.append((num // g, d // g))
    return out


def _tagged(vecs, skip=0):
    """The rows of vecs (m, n), then skip zero keys and a tag key of its own
    for each row, as a SparseReducer stack (m, n + skip + m, 1)."""
    m = len(vecs)
    return np.concatenate([vecs, np.zeros((m, skip), dtype=np.int64),
                           np.eye(m, dtype=np.int64)], 1)[..., None]


def _over_one(rows):
    """Rational rows [(num, den), ...] as one object array over one den, the
    least: each row is put in lowest terms first."""
    rows = [(np.asarray(num, dtype=object), int(d)) for num, d in rows]
    rows = [(num // g, d // g) for num, d in rows
            for g in [math.gcd(*num.ravel().tolist(), d)]]
    den = math.lcm(*(d for _, d in rows))
    return np.array([num * (den // d) for num, d in rows]), den


def _lift(a, e):
    """A rational element at conductor e, coordinate q as (q, 0, ..., 0), in
    the narrowest exact dtype."""
    rows = np.zeros((len(a.keys), len(power_fold(e))), dtype=exact_dtype(max_abs(a.rows)))
    rows[:, :1] = a.rows[:, :1]
    return AlgElem.from_vec(a.table, e, (a.keys, rows, a.den))


def _unit_solution(*gens):
    """The unit of A, from tables (right, left, g) per generator g: right[i, t]
    and left[i, t] are coordinate t of b_i g and g b_i, over g's denominator.
    A is semisimple (a star-closed subalgebra in characteristic 0), so it has
    its own unit; fixing both generators on both sides pins it down."""
    sol = solve_affine(1, np.concatenate([
        _block(side, g) for right, left, g in gens for side in (right, left)]))
    if sol is None or sol.dimension != 0:
        raise VerifyAlarm("the algebra generated by e_U, e_V has no unit")
    return sol


def _z_solutions(sides, star_fixed, *identities):
    """The z in A that commute with e_U and e_V (sides = (right_u, left_u,
    right_v, left_v)), are fixed by star (star_fixed[i, t] is coordinate t of
    b_i* - b_i) and satisfy each identity (products, rhs), products[i, t]
    being coordinate t of b_i (b b') and rhs that of b.  Each equation may
    be scaled, so only the tables that meet in one equation share a
    denominator: ru with lu, rv with lv, and products with rhs.  star is
    conjugate-linear, so this is a rational system."""
    ru, lu, rv, lv = sides
    zero = np.zeros((len(star_fixed), 1), dtype=np.int64)
    sol = solve_affine(1, np.concatenate([
        _block(ru - lu, zero), _block(rv - lv, zero), _block(star_fixed, zero),
        *(_block(prods, rhs) for prods, rhs in identities)]))
    if sol is None:
        raise VerifyAlarm("the defining system for z has no solution")
    return sol


def _wedderburn_blocks(struct, e, centre):
    """(blocks, ranks): the sorted Wedderburn block sizes of a semisimple B
    over Q(zeta_e), from struct[i, j, t] = coordinate t of b_i b_j times some
    s > 0 and solve_affine's basis z_i of B's centre Z (z_i alone nonzero at
    its last key f_i, and rational there).  In the basis of Z's primitive
    idempotents G(z, z') = Tr_B(L_{z z'}) is diag(d_i^2) and T(z, z') =
    Tr_Z(L_{z z'}) the identity: rank T = c certifies that Z is semisimple,
    and d occurs c - rank(G - d^2 T) times, ranked for d = 1, 2, ... until
    the blocks left fill the dimension left.
    """
    ft, kf = fold_array(e)

    def mul(spec, a, b):
        # np.einsum(spec, a, b, F), F the fold table: the product in Q(zeta_e)
        # of a's last axis s and b's last axis r, in a dtype no sum overflows
        dtype = exact_dtype(kf * max_abs(a) * max_abs(b) * a.size * b.size)
        F = ft.reshape(len(ft), len(ft), -1).astype(dtype)
        return np.einsum(spec, a.astype(dtype), b.astype(dtype), F)

    k, c = len(struct), len(centre)
    # Q[a, b] = z_a z_b times s, and Tr_Z(L_y) = sum_t y[t] tr_z[t] / (N s)
    # on Z, so N s^2 T and N s^2 G are Q contracted with tr_z and N tr_b
    tr_b = struct[:, range(k), range(k)].sum(axis=1).astype(object)
    Z = np.array(centre, dtype=object)
    free = [int(np.flatnonzero(z.any(axis=1))[-1]) for z in Z]
    n = Z[range(c), free, 0]
    if (Z[:, free, 0] != np.diag(n)).any() or Z[:, free, 1:].any():
        raise VerifyAlarm("the basis of the centre is not in echelon form")
    # scaled to z_i[f_i] = N, y[f_i] / N is y's coordinate on z_i
    N = math.lcm(*n.tolist())
    Z *= (N // n)[:, None, None]
    Q = mul("bjs,ajtr,sru->abtu", Z, mul("ais,ijtr,sru->ajtu", Z, struct))
    tr_z = mul("ijs,tjir,sru->tu", Z, struct[:, :, free])
    if _rank(e, mul("abts,tr,sru->abu", Q, tr_z)) != c:
        raise VerifyAlarm("the trace form of the centre is degenerate")
    blocks, d = [], 1
    while len(blocks) < c and k - sum(x * x for x in blocks) > (c - len(blocks)) * d * d:
        blocks += [d] * (c - _rank(e, mul("abts,tr,sru->abu", Q, N * tr_b - d * d * tr_z)))
        d += 1
    blocks += [d] * (c - len(blocks))
    if sum(x * x for x in blocks) != k:
        raise VerifyAlarm(f"Wedderburn blocks do not fill dimension {k}")
    return tuple(blocks), d - 1


def _sandwich_values(F, cls, S, e):
    """M[y, j, s, x]: |L|^2 times the value at g_j of e_s X_y e_x, for X_y =
    F[y] on U\\G/V classes, cls[a, j, c] the class of a^-1 g_j c^-1 and S[s]
    e_s's rows on L: sum_{a, c in L} S[s, a] F[y, cls[a, j, c]] S[x, c],
    folded into Q(zeta_e), in matmul_dtype."""
    ft, kf = fold_array(e)
    bound = kf * max_abs(F) * (cls.shape[0] * max_abs(S)) ** 2
    dtype = matmul_dtype(bound)
    S = S.astype(dtype)
    return np.einsum("yajc,sap,xcq,pqu->yjsxu", F.astype(dtype)[:, cls], S, S,
                     ft.reshape(len(ft), len(ft), -1).astype(dtype),
                     optimize=True).astype(exact_dtype(bound))


def _uv_products(N, b, e, size):
    """P[i k + j, D] = (b_i b_j)(g_D) = sum_{D1, D2} N[D1, D2, D] b_i(D1)
    b_j(D2), for k elements b (k, n, phi) constant on U\\G/V, and N[D1, D2,
    D] = #{h in D1 : h^-1 g_D in D2}, in matmul_dtype: N sums to size over
    (D1, D2)."""
    ft, kf = fold_array(e)
    bound = kf * size * max_abs(b) ** 2
    dtype = matmul_dtype(bound)
    b = b.astype(dtype)
    # Q[i, s, D, j, r] = sum_{D1, D2} b_i(D1)_s N[D1, D2, D] b_j(D2)_r
    Q = np.tensordot(np.tensordot(b, N.astype(dtype), ([1], [0])), b, ([2], [1]))
    out = np.tensordot(Q, ft.reshape(len(ft), len(ft), -1).astype(dtype), ([1, 4], [0, 1]))
    return out.transpose(0, 2, 1, 3).astype(exact_dtype(bound)).reshape(-1, *b.shape[1:])


# check id -> Verifier method, in report order; lem3.1 runs on product
# rings only
_CHECKS = (
    ("prop3.2a", "check_ulv"),
    ("prop3.2b", "check_residue_surjective"),
    ("prop3.2c", "check_kernel_orderings"),
    ("prop3.2d", "check_unipotent_splitting"),
    ("prop3.2e", "check_cells"),
    ("prop3.2f", "check_cell_separation"),
    ("lem3.3", "check_lemma33"),
    ("lem3.4", "check_lemma34"),
    ("lem3.5", "check_lemma35"),
    ("prop3.6", "check_prop36"),
    ("prop3.7", "check_lin_independence"),
    ("thm1", "check_theorem1"),
    ("thm2", "check_theorem2"),
    ("lem3.10", "check_scalar_twist"),
    ("lem3.12", "check_levi_support"),
    ("cor2.3", "check_corollary"),
    ("intro", "check_intro_example"),
    ("lem3.1", "check_local_product"),
)


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
        self._setup(enumerate_gl(ring, n, max_cost), seed, max_cost)

    @classmethod
    def _on_table(cls, table, seed, max_cost):
        """A Verifier on an already tabulated group."""
        out = cls.__new__(cls)
        out._setup(table, seed, max_cost)
        return out

    def _setup(self, table, seed, max_cost):
        self.ring = ring = table.ring
        self.n = table.n
        self.seed = seed
        self.max_cost = max_cost
        self.table = t = table
        self.e = e = ring.unit_exponent()
        self.rng = random.Random(seed)
        self.chars = all_levi_chars(ring, self.n)
        # min(U g V); its g_D = min D and g's class D, D over U\\G/V in order
        self.uv_label = label = _labels(t, t.subgroup("U"), t.subgroup("V"))
        self.uv_first = np.flatnonzero(label == np.arange(t.size))
        self.uv_class = np.searchsorted(self.uv_first, label)
        U, V = t.subgroup("U"), t.subgroup("V")
        self.eU = idempotent_subgroup(t, e, U)
        self.eV = idempotent_subgroup(t, e, V)
        # e_X e_Y = sum_g #{(x, y) in X x Y : x y = g} g / (|X| |Y|)
        self.c_uv, self.c_vu = (AlgElem.from_vec(t, e, (
            np.arange(t.size), np.bincount(_products(t, X, Y), minlength=t.size)[:, None]
            * root_coords(e)[:1], len(X) * len(Y))) for X, Y in ((U, V), (V, U)))
        self._halmos = None
        self._zc = None
        self._ulv = None
        self._echi = {}
        self._E = {}
        self._uv = None
        self._uv_mul = None
        self._sandwich = {}
        self._pind_char = {}
        self._end = {}
        self._conj = {}
        self._phi = {}
        self._local_verifiers = None

    # -- basic cached objects ------------------------------------------------

    @property
    def ulv(self):
        """Every product u l v, in (u, l, v) loop order."""
        if self._ulv is None:
            t = self.table
            self._ulv = _products(t, t.subgroup("U"), t.subgroup("L"),
                                  t.subgroup("V"))
        return self._ulv

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
        # x in A is held as phi(x) = (e_X x e_Y), part s = 2 X + Y for XY in
        # UU, UV, VU, VV, each by its values at the least elements of X\G/Y;
        # phi is injective on A (x = 1_A x 1_A, 1_A a combination of words).
        # phi(x e_Z) has XZ part phi(x)_XZ and, for Y the other generator, XY
        # part phi(x)_XZ e_Y, at g_i sum_j M[i, j] phi(x)_XZ[j] / |Y| with
        # M[i, j] = #{y in Y : g_i y in class j}
        t = self.table
        H = [np.asarray(t.subgroup(h), dtype=np.intp) for h in "UV"]
        labels = [_labels(t, H[s // 2], H[s % 2]) for s in range(4)]
        firsts = [np.flatnonzero(lab == np.arange(t.size)) for lab in labels]
        cls = np.array([np.searchsorted(f, lab) for f, lab in zip(firsts, labels)])
        off = np.cumsum([0] + [len(f) for f in firsts])
        part, K = [slice(off[s], off[s + 1]) for s in range(4)], off[-1]
        ny = [len(H[1]), len(H[0])]      # |Y| for Z = U, V
        M = [_counts(t, labels[s], [t.identity], firsts[s ^ 1], H[1 - s % 2])
             for s in range(4)]

        def right_by(vecs, z):
            # |Y| phi(x e_Z) for the rows phi(x) of vecs
            vecs = vecs.astype(exact_dtype(max_abs(vecs) * ny[z]), copy=False)
            out = np.zeros_like(vecs)
            for s in (z, 2 + z):
                out[:, part[s]] = vecs[:, part[s]] * ny[z]
                out[:, part[s ^ 1]] = vecs[:, part[s]] @ M[s].T
            return out

        # |U| |V| phi(1): e_U is 1 / |U| on the class of 1 in U\G/U, and
        # (e_U e_V)(g_i) = #{v in V : g_i v in U} / (|U| |V|), a column of M
        e1, one = cls[:, t.identity], np.zeros((1, K), dtype=np.int64)
        one[0, off[0] + e1[0]], one[0, off[3] + e1[3]] = ny
        one[0, part[1]], one[0, part[2]] = M[0][:, e1[0]], M[3][:, e1[3]]
        # the words, breadth first: each generation of new words times e_U
        # and e_V, fed in one stack as a queue would take them, a e_U then a
        # e_V for each a in turn; kept[l] = (p, x) when the l-th word that
        # enlarged the span is word p (the empty word when -1) times
        # generator x, and phi(w'_l), w_l = scales[l] w'_l, is its vector over
        # the vector's content
        red, src, kept, words, scales = SparseReducer(1), [(-1, 0), (-1, 1)], [], [], []
        vecs = np.concatenate([right_by(one, 0), right_by(one, 1)])
        while grown := red.feed((np.arange(K), vecs[..., None], 1)):
            first = len(kept)
            kept += [src[i] for i in grown]
            g = np.gcd.reduce(vecs[grown], axis=1)
            words.append(vecs[grown] // g[:, None])
            scales += [Fraction(c, ny[x]) * (scales[p] if p >= 0 else
                                             Fraction(1, ny[0] * ny[1]))
                       for (p, x), c in zip(kept[first:], g.tolist())]
            vecs = np.stack([right_by(words[-1], z) for z in (0, 1)], axis=1).reshape(-1, K)
            src = [(first + i, x) for i in range(len(grown)) for x in (0, 1)]
        k, Phi = len(kept), np.concatenate(words)

        # the one sweep: coordinates on the w', over D, of w'_l e_X (rows of
        # the right action R_X), of w'_l* (rows of the star S; phi(x*)_YX at
        # the class of g^-1 is phi(x)_XY at that of g) and of e_X.  The words
        # and these vectors go in with a tag key each, after phi's; as in
        # solve_affine, a vector keeps s (its tag - sum_l c_l tag_l), s > 0,
        # for vector = sum_l c_l phi(w'_l)
        tred, star = SparseReducer(1), np.zeros_like(Phi)
        tred.feed((np.arange(K + k), _tagged(Phi), 1))
        dual = [2 * (s % 2) + s // 2 for s in range(4)]
        star[:, np.concatenate([off[d] + cls[d][t._inv[f]]
                                for d, f in zip(dual, firsts)])] = Phi
        vecs = [(right_by(Phi, 0), ny[0]), (right_by(Phi, 1), ny[1]), (star, 1),
                (right_by(one, 0), ny[0] ** 2 * ny[1]),
                (right_by(one, 1), ny[0] * ny[1] ** 2)]
        dens = [d for x, d in vecs for _ in x]
        v, _, grown, _ = tred._sweep(_tagged(np.concatenate([x for x, _ in vecs]), k),
                                     grow=K)
        if grown:
            raise VerifyAlarm("product left the algebra generated by e_U, e_V")
        table, D = _over_one([(-v[i, K:K + k, 0], int(v[i, K + k + i, 0]) * d)
                              for i, d in enumerate(dens)])
        ru, rv, S, (cu, cv) = table[:k], table[k:2 * k], table[2 * k:3 * k], table[3 * k:]
        # a word e_X ... e_Y is e_X w e_Y, its own XY part: over G, a gather
        sp = []
        for p, x in kept:
            sp.append(2 * (x if p < 0 else sp[p] // 2) + x)
        W = Phi[np.arange(k)[:, None], off[sp][:, None] + cls[sp]]

        # fed with tags, the words' pivots are the echelon basis b of A over
        # G, as feeding the words gives; b_i = sum_l B[i, l] w'_l / dB.  One
        # sweep per word: in one stack, every word turns to Python ints at
        # the first step that needs them
        gred, basis, B = SparseReducer(1), [], []
        for row in _tagged(W):
            gred._sweep(row[None], grow=t.size)
        for keys, rows, d in gred.basis_rows():
            g = keys < t.size
            basis.append(_lift(AlgElem.from_vec(t, 1, (keys[g], rows[g], d)), self.e))
            B.append((np.zeros(k, dtype=object), d))
            B[-1][0][keys[~g] - t.size] = rows[~g, 0]
        B, dB = _over_one(B)

        # the unit's and z's systems on b, each equation B times a table, so
        # that the candidate order and the rng draws pick z on b.  e_X x =
        # (x* e_X)*, so e_X acts on the left as S R_X S over D^3; x (e_U
        # e_V)^2 is x R_U R_V R_U R_V over D^4, and e_U e_V is cu R_V over D^2
        D2 = D * D
        sides = tuple((B @ x)[..., None] for x in (ru * D2, S @ ru @ S, rv * D2, S @ rv @ S))
        cu2, cv2 = cu * D2 * dB, cv * D2 * dB
        unit_sol = _unit_solution((*sides[:2], cu2[:, None]), (*sides[2:], cv2[:, None]))
        sol = _z_solutions(sides, (B @ (S - D * np.eye(k, dtype=object)))[..., None],
                           ((B @ ru @ rv @ ru @ rv)[..., None], (cu2 @ rv)[:, None]),
                           ((B @ rv @ ru @ rv @ ru)[..., None], (cv2 @ ru)[:, None]))

        def build(x, xden):
            # sum_l x[l] / xden times w'_l, over G
            num, d = _combination(x, xden, [(w, 1) for w in W])
            return _lift(AlgElem.from_vec(t, 1, (np.arange(t.size), num[:, None], d)),
                         self.e)

        def along_words(x, xden):
            # the coordinates on the w' of a w_l for every kept word, a = x /
            # xden, over one denominator: a e_X is a R_X and a (w X) is (a w) R_X
            return _over_one(_along(kept, x, xden, lambda a, g: a @ (ru, rv)[g], [D, D]))

        dim = sol.dimension
        weights = [[self.rng.randint(-5, 5) for _ in range(dim)]
                   for _ in range(60)]
        unit = unit_sol.particular[:, 0].astype(object) @ B
        for w in [[0] * dim] + weights:
            zx, zden = sol.point(w)
            z = zx[:, 0] @ B
            zw, zw_den = along_words(z, zden * dB)
            # sum_l y_l z w_l = unit; the words span A, so z_inv = sum_l y_l w_l
            inv_sol = solve_affine(1, _block(zw[..., None] * (unit_sol.den * dB),
                                             (unit * zw_den)[:, None]))
            if inv_sol is None or inv_sol.dimension > 0:
                continue
            y = inv_sol.particular[:, 0]
            z_inv, inv_den = _over_one([(c * f.numerator, f.denominator)
                                        for c, f in zip(y, scales)])
            z_w, z_wden = _over_one([(c * f.denominator, f.numerator)
                                     for c, f in zip(z, scales)])
            return HalmosElement(build(z, zden * dB), build(z_inv, inv_den * inv_sol.den),
                                 build(unit, unit_sol.den * dB), basis, dim, kept,
                                 (z_w, z_wden * zden * dB), (y, inv_sol.den))
        raise VerifyAlarm("no invertible solution for z found")

    def _krylov_zc(self) -> AlgElem:
        """z e_U e_V, the one x in e_U A e_V with x e_U e_V = e_U e_V.

        e_U A e_V is the span of the powers c^m, m >= 1, of c = e_U e_V; and
        x c = 0 forces x = 0 there, as it does in each irreducible
        representation of two projections (of dimension 1, or 2 with P =
        diag(1, 0) and Q of rank 1 at a nonzero angle), so x is unique.  On
        the basis e_U y_D e_V of e_U C[G] e_V, D over U\\G/V, right
        multiplication by c is R / s, R[D, D'] = #{(v, u) in V x U : y_D v u
        in D'} and s = |U| |V|, so v_m = s^(m-1) c^m are integer vectors,
        v_1 at the class of 1 and v_(m+1) = v_m R, taken until one adds
        nothing.  sum_m b_m v_(m+1) = v_1 gives x = s sum_m b_m v_m, and
        e_U y_D e_V is the indicator of D over |D|.
        """
        t = self.table
        U, V, cls = t.subgroup("U"), t.subgroup("V"), self.uv_class
        R = _counts(t, self.uv_label, [t.identity], self.uv_first, _products(t, V, U))
        s = len(U) * len(V)
        krylov = [np.zeros(len(R), dtype=np.int64)]
        krylov[0][cls[t.identity]] = 1
        red = SparseReducer(1)
        while red.feed(_rows(krylov[-1][None])):
            # R's rows sum to s, so v_(m+1) >= 0 sums to s^m
            dtype = exact_dtype(s ** len(krylov))
            krylov.append(krylov[-1].astype(dtype) @ R.astype(dtype))
        P = np.array(krylov, dtype=object)[..., None]
        sol = solve_affine(1, _block(P[1:], P[0]))
        if sol is None:
            raise VerifyAlarm("no x in e_U A e_V with x e_U e_V = e_U e_V")
        # x = s y / sol.den with y = sum_m particular_m v_m, so x_D / |D| at
        # each g in D is y_D (s / |D|) / sol.den; |D| divides s
        y = sol.particular[:, 0].astype(object) @ P[:-1, :, 0]
        at = y[cls] * (s // np.bincount(cls)[cls])
        keys = np.flatnonzero(at != 0)
        return _lift(AlgElem.from_vec(t, 1, (keys, at[keys, None], sol.den)), self.e)

    def _uv_counts(self):
        """N[D1, D2, D] = #{h in D1 : h^-1 g_D in D2}, D over U\\G/V, built
        once: for a, b constant on U\\G/V, (a b)(g_D) = sum_{D1, D2} N[D1, D2,
        D] a(D1) b(D2) (_uv_products)."""
        if self._uv_mul is None:
            # one column per g_D: the classes of h and h^-1 g_D (a gather from
            # t._table[t._inv] would copy the whole table)
            t, c, n = self.table, self.uv_class, len(self.uv_first)
            flat = c[t._table[t._inv[:, None], self.uv_first]]
            flat += c[:, None] * n     # in place: one |G| x n array at a time
            flat *= n
            flat += np.arange(n)
            self._uv_mul = np.bincount(flat.ravel(), minlength=n ** 3).reshape(n, n, n)
        return self._uv_mul

    @property
    def zc(self) -> AlgElem:
        """z e_U e_V from _krylov_zc, certified by zc^2 = zc and zc e_U e_V =
        e_U e_V.  zc (by its lift) and e_U e_V are constant on U\\G/V, so
        are their products, which N gives at each g_D."""
        if self._zc is None:
            zc = self._krylov_zc()
            idempotent, fixes = self._uv_identities(zc)
            if not idempotent:
                raise VerifyAlarm("z e_U e_V not idempotent")
            if not fixes:
                raise VerifyAlarm("z e_U e_V does not fix e_U e_V")
            self._zc = zc
        return self._zc

    def _uv_identities(self, zc):
        """(zc^2 == zc, zc e_U e_V == e_U e_V) for a zc constant on U\\G/V,
        by _uv_products: zc zc over zc.den^2, zc c_uv over zc.den c_uv.den."""
        a, c = (_dense(x)[self.uv_first, 0] for x in (zc, self.c_uv))
        P = _uv_products(self._uv_counts(), np.stack([a, c])[..., None], 1, self.table.size)
        return _same(P[0, :, 0], zc.den, a, 1), _same(P[1, :, 0], zc.den, c, 1)

    def E(self, chi: LeviChar) -> AlgElem:
        """The idempotent E = zc e_chi, E(g) = sum_l zc(g l^-1) e_chi(l) over
        l in L.  _uv_table certifies l zc = zc l for l in L, so e_chi zc = zc
        e_chi for e_chi on L; with zc^2 = zc and e_chi^2 = e_chi (a product
        on L) that gives E^2 = E."""
        key = chi.key()
        if key not in self._E:
            t, ec = self.table, self.e_chi(chi)
            self._uv_table()
            if not _mask(t, t.subgroup("L"))[ec.keys].all():
                raise VerifyAlarm(f"e_chi does not commute with z e_U e_V for chi={key}")
            _, kf = fold_array(self.e)
            dtype = exact_dtype(kf * max_abs(ec.rows) ** 2 * len(ec.keys))
            square = np.zeros((t.size, ec.rows.shape[1]), dtype=dtype)
            # coefficient (a, b) of the pair is e_chi(a) e_chi(b), at a b
            np.add.at(square, t._table[np.ix_(ec.keys, ec.keys)].ravel(),
                      times(ec.rows, ec.rows, self.e, dtype).reshape(-1, square.shape[1]))
            if not np.array_equal(square, _dense(ec, dtype) * ec.den):
                raise VerifyAlarm(f"e_chi not idempotent for chi={key}")
            zc = _dense(self.zc)[:, 0]
            bound = max_abs(zc) * max_abs(ec.rows) * len(ec.keys)
            dtype = matmul_dtype(bound)
            rows = zc[t._table[:, t._inv[ec.keys]]].astype(dtype) @ ec.rows.astype(dtype)
            E = AlgElem.from_vec(t, self.e, (np.arange(t.size), rows.astype(
                exact_dtype(bound)), self.zc.den * ec.den))
            if E.is_zero():
                raise VerifyAlarm(f"z e_U e_V e_chi vanished for chi={key}")
            self._E[key] = E
        return self._E[key]

    def _uv_table(self):
        """(cls, reps, F), built once for thm1's sandwiches and the end algebras.

        U zc = zc = zc V, and l zc = zc l for l in L is certified here, so
        E_sigma C[G] E_chi is spanned by the e_sigma X_y e_chi, X_y = zc y zc,
        y over L V\\G/U L: the inverses of one g_D = min D per orbit of L x L
        on U\\G/V.  cls[a, D, c] is the class of a^-1 g_D c^-1 (a, c over L in
        increasing order, e_chi's key order), reps the least class of each
        orbit, and F[y, D] = X_y(g_D) = sum_m zc(m^-1 y^-1) zc(m g_D) over
        zc.den^2.
        """
        if self._uv is None:
            t, z, L = self.table, _dense(self.zc)[:, 0], np.asarray(self.table.subgroup("L"))
            # zc(l g) = zc(g l) for all g is l zc l^-1 = zc
            if (z[t._table[L]] != z[t._table[:, L]].T).any():
                raise VerifyAlarm("z e_U e_V does not commute with L")
            gD, linv = self.uv_first, t._inv[L]
            cls = self.uv_class[t._table[t._table[linv[:, None], gD][..., None], linv]]
            reps = np.flatnonzero(cls.min(axis=(0, 2)) == np.arange(len(gD)))
            dtype = exact_dtype(t.size * max_abs(z) ** 2)
            F = (z[t._table[t._inv, gD[reps, None]]].astype(dtype)
                 @ z[t._table[:, gD]].astype(dtype, copy=False))
            self._uv = cls, reps, F
        return self._uv

    def module_reducer(self, chi: LeviChar) -> SparseReducer:
        """B = E_chi C[G] E_chi as a SparseReducer on U\\G/V: key D holds the
        value at g_D, which fixes an element of B (U E = E = E V); the rows
        are the e_chi X_y e_chi of _uv_table.  E(chi), certified on the
        table, is the unit of B.  The name is that of the left-module route
        this replaced, under which perfbench times it."""
        cls, _, F = self._uv_table()
        self.E(chi)
        M = _sandwich_values(F, cls, self.e_chi(chi).rows[None], self.e)
        red = SparseReducer(self.e)
        red.feed((np.arange(M.shape[1]), M[:, :, 0, 0], 1))
        return red

    # -- intertwining dimensions ----------------------------------------------

    def intertwining_dim_formula(self, chi: LeviChar, sigma: LeviChar) -> int:
        return sum(1 for w in self.table.weyl if chi.acted(w) == sigma)

    def _sandwich_rank(self, chi: LeviChar, sigma: LeviChar) -> int:
        """rank{E_sigma g E_chi : g in G}, from one table of every pair: the
        rank of the e_sigma X_y e_chi of _uv_table, each fixed by its values
        at the g_D of reps, one per orbit of L x L on U\\G/V (its value at
        a^-1 g c^-1 is sigma(a) chi(c) times that at g)."""
        if not self._sandwich:
            cls, reps, F = self._uv_table()
            S = np.array([self.e_chi(c).rows for c in self.chars])
            M = _sandwich_values(F, cls[:, reps], S, self.e)
            keys, live = [c.key() for c in self.chars], M.any(axis=(0, 1, 4))
            for (s, left), (x, right) in itertools.product(enumerate(keys), repeat=2):
                rank = _rank(self.e, M[:, :, s, x]) if live[s, x] else 0
                self._sandwich[right, left] = rank
        return self._sandwich[chi.key(), sigma.key()]

    def pind_character(self, chi: LeviChar):
        """Character of the induced module: (values, den), with values an
        integer array (|G|, phi) whose row g over den is the value at g.

        chi(g) = sum_x E(x^-1 g^-1 x), summed on E's integer coordinates for
        a block of g at a time.
        """
        key = chi.key()
        if key not in self._pind_char:
            table, size = self.table, self.table.size
            E = self.E(chi)
            dense = _dense(E, exact_dtype(max_abs(E.rows) * size))
            mul, inv, xs = table._table, table._inv, np.arange(size)
            out = np.empty_like(dense)
            for gs in row_blocks(size, size * dense.shape[1]):
                # entry (g, x) is x^-1 g^-1 x
                conj = mul[mul[inv, inv[gs, None]], xs]
                out[gs] = dense[conj].sum(axis=1)
            self._pind_char[key] = out, E.den
        return self._pind_char[key]

    def _character_dim(self, chi: LeviChar, sigma: LeviChar) -> int:
        """dim Hom via the averaged inner product of the two characters.

        sum_g a(g) conj(b(g)) is A^T (B C) contracted with the fold tensor,
        C the matrix of complex conjugation; it is divided once, at the end.
        """
        A, da = self.pind_character(chi)
        B, db = self.pind_character(sigma)
        ft, kf = fold_array(self.e)
        phi, size = len(ft), self.table.size
        conj = galois(self.e, -1)
        dtype = exact_dtype(kf * size * phi * max_abs(conj)
                            * max_abs(A) * max_abs(B))
        A, B, conj, ft = (x.astype(dtype, copy=False) for x in (A, B, conj, ft))
        total = (A.T @ (B @ conj)).reshape(-1) @ ft.reshape(phi * phi, phi)
        q, r = divmod(int(total[0]), size * da * db)
        if r or (total[1:] != 0).any():
            raise VerifyAlarm("character inner product is not an integer")
        return q

    def intertwining_dim_oracle(self, chi: LeviChar, sigma: LeviChar) -> int:
        s = self._sandwich_rank(chi, sigma)
        c = self._character_dim(chi, sigma)
        if s != c:
            raise VerifyAlarm(
                f"oracles disagree for ({chi.key()}, {sigma.key()}): "
                f"sandwich {s}, character {c}")
        return s

    def intertwining_matrices(self):
        """(formula, oracle): dim Hom matrices over all character pairs."""
        chars = self.chars
        formula = [[self.intertwining_dim_formula(chi, sig) for sig in chars]
                   for chi in chars]
        oracle = [[self.intertwining_dim_oracle(chi, sig) for sig in chars]
                  for chi in chars]
        return formula, oracle

    # -- endomorphism algebras -------------------------------------------------

    def end_algebra(self, chi: LeviChar) -> EndAlgebra:
        key = chi.key()
        if key in self._end:
            return self._end[key]
        e, t, bred = self.e, self.table, self.module_reducer(chi)
        N, (keys, rows, den) = self._uv_counts(), stack(bred.basis_rows())
        k, basis = len(rows), np.zeros((len(rows), len(N), rows.shape[2]), dtype=rows.dtype)
        basis[:, keys] = rows
        # struct[i, j, t]: coordinate t of b_i b_j, over den
        struct, den = _coords(bred, (np.arange(len(N)), _uv_products(N, basis, e, t.size),
                                     den * den), "product left the endomorphism algebra")
        struct = struct.reshape(k, k, k, -1)

        # center: exact nullity of the commutation system, one equation per
        # (j, t): sum_i (struct[i, j, t] - struct[j, i, t]) x_i = 0
        comm = (struct - struct.transpose(1, 0, 2, 3)).reshape(k, k * k, -1)
        sol = solve_affine(e, _block(comm, np.zeros_like(comm[0])))
        blocks, ranks = _wedderburn_blocks(struct, e, sol.nullspace)
        out = EndAlgebra(key, k, sol.dimension, blocks, ranks, struct.tolist(), den)
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
        """One Verifier per local factor (for product-ring cross-checks), each
        on the factor's group that enumerate_gl kept."""
        if self._local_verifiers is None:
            # equal local rings share one Verifier (same seed, same results)
            made = {}
            for loc, factor in zip(self.ring.locals, self.table.factors):
                if loc not in made:
                    made[loc] = Verifier._on_table(factor, self.seed, self.max_cost)
            self._local_verifiers = [made[loc] for loc in self.ring.locals]
        return self._local_verifiers

    # -- named checks -----------------------------------------------------------

    def check_ulv(self) -> CheckResult:
        """(a) U x L x V -> G is injective, and membership matches factor_ulv."""
        t, ulv = self.table, self.ulv
        seen = _mask(t, ulv)
        if seen.sum() != len(ulv):
            # the first product, in loop order, that repeats an earlier one
            order = np.argsort(ulv, kind="stable")
            repeats = order[1:][ulv[order[1:]] == ulv[order[:-1]]]
            return CheckResult("prop3.2a", "fail", {"distinct_products": len(ulv)},
                               {"collision_at": int(ulv[repeats.min()])})
        in_u, in_l, in_v = (_mask(t, t.subgroup(h)) for h in "ULV")
        ok, *factors = factor_ulv_codes(self.ring, t.codes)
        # a g that factors and is a product u l v must have its factors in
        # U, L and V, multiplying back to g
        both = np.flatnonzero(ok & seen)
        ui, li, vi = (t.index_of(x[both]) for x in factors)
        good = ((ui >= 0) & (li >= 0) & (vi >= 0) & in_u[ui] & in_l[li] & in_v[vi]
                & (t._table[t._table[ui, li], vi] == both))
        mismatch = int((ok != seen).sum() + (~good).sum())
        expected = {"distinct_products": len(ulv), "mismatches": 0}
        actual = {"distinct_products": len(ulv), "mismatches": mismatch}
        status = "pass" if expected == actual else "fail"
        return CheckResult("prop3.2a", status, expected, actual)

    def check_residue_surjective(self) -> CheckResult:
        """(b) entrywise reduction hits all of GL_n over the residue ring.

        GL_n of a product ring is the product of its factors' GL_n, and
        reduction acts factor by factor, so each factor group is reduced onto
        GL_n of its residue field; a field factor's group is its own target
        and serves any factor with that residue field.  Image and target
        sizes are products over the factors.
        """
        tabs = {loc: ft for loc, ft in zip(self.ring.locals, self.table.factors)
                if loc.residue_ring == loc}
        expected, actual = {"image_size": 1}, {"image_size": 1}
        for loc, ft in zip(self.ring.locals, self.table.factors):
            res = loc.residue_ring
            if res not in tabs:
                tabs[res] = enumerate_gl(RingSpec([res]), self.n, self.max_cost)
            rtab = tabs[res]
            reduce = np.array([loc.reduce(x) for x in range(loc.size)])
            images = rtab.index_of(reduce[ft.codes])
            if images.min() < 0:
                raise VerifyAlarm("a reduction of an element of G is not invertible")
            expected["image_size"] *= rtab.size
            actual["image_size"] *= int(_mask(rtab, images).sum())
        return CheckResult("prop3.2b", "pass" if expected == actual else "fail",
                           expected, actual)

    def check_kernel_orderings(self) -> CheckResult:
        """(c) all six orderings of (U_0, L_0, V_0) multiply bijectively onto G_0."""
        t = self.table
        g0 = t.subgroup("G0")
        in_g0 = _mask(t, g0)
        u0, l0, v0 = ([i for i in t.subgroup(h) if in_g0[i]] for h in "ULV")
        bad = []
        for perm in itertools.permutations(((u0, "U0"), (l0, "L0"), (v0, "V0"))):
            prods = _products(t, *(x for x, _ in perm))
            if len(prods) != len(g0) or not _mask(t, prods)[in_g0].all():
                bad.append("".join(nm for _, nm in perm))
        expected = {"bijective_orderings": 6, "failing": []}
        actual = {"bijective_orderings": 6 - len(bad), "failing": bad}
        return CheckResult("prop3.2c", "pass" if not bad else "fail",
                           expected, actual)

    def check_unipotent_splitting(self) -> CheckResult:
        """(d) (U cap U^w) x (U cap V^w) -> U is a bijection for every w."""
        t = self.table
        U, V = np.asarray(t.subgroup("U")), t.subgroup("V")
        bad = []
        for w, widx in t.weyl_to_index.items():
            a = U[_mask(t, t.conjugated(U, widx))[U]]
            b = U[_mask(t, t.conjugated(V, widx))[U]]
            prods = _products(t, a, b)
            if len(prods) != len(U) or not _mask(t, prods)[U].all():
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
            # deduplicated after each factor, so no stage exceeds |G|
            prods = V
            for f in ((widx,), L, U, G0):
                prods = np.flatnonzero(_mask(t, _products(t, prods, f)))
            if (not np.array_equal(prods, t.cells.get(w, ()))
                    or t.bruhat_label(widx) != w):
                bad.append(repr(w))
        expected = {"covered": t.size, "failing_w": []}
        actual = {"covered": total, "failing_w": bad}
        status = "pass" if (total == t.size and not bad) else "fail"
        return CheckResult("prop3.2e", status, expected, actual)

    def check_cell_separation(self) -> CheckResult:
        """(f) ULV misses t^-1 U r for every ordered pair t != r, l(t) <= l(r)."""
        t = self.table
        in_ulv = _mask(t, self.ulv)
        bad = []
        pairs = 0
        for wt in t.weyl:
            for wr in t.weyl:
                if wt == wr or wt.length > wr.length:
                    continue
                pairs += 1
                ti = t.inv(t.weyl_to_index[wt])
                ri = t.weyl_to_index[wr]
                if in_ulv[_products(t, (ti,), t.subgroup("U"), (ri,))].any():
                    bad.append(f"{wt!r},{wr!r}")
        expected = {"pairs": pairs, "intersecting": []}
        actual = {"pairs": pairs, "intersecting": bad}
        return CheckResult("prop3.2f", "pass" if not bad else "fail", expected, actual)

    def check_lemma33(self) -> CheckResult:
        """Lemma 3.3 for the Halmos solve's z, certified on the Cayley table at
        conductor 1 with no group-algebra product: v e_X and e_X v are sums
        over X (_average).  z and z_inv must be the combinations of the words
        w_l that the solve reports, w_l = w_p e_X summed from w_p, so both lie
        in A; z z_inv = sum_l y_l z w_l, with z w_l = (z w_p) e_X, must be the
        unit, which must fix e_U and e_V on both sides, so that, lying in A,
        it is A's unit.  z_inv z = z z_inv follows, as z is central in A."""
        t, h = self.table, self.halmos
        H = [np.asarray(t.subgroup(x)) for x in "UV"]
        right, left = [t._table[:, X].T.copy() for X in H], [t._table[X] for X in H]
        if any(x.rows[:, 1:].any() for x in (h.z, h.z_inv, h.unit)):
            raise VerifyAlarm("the Halmos solve gave an irrational element")
        (z, zd), (zi, zid), (u, ud), (zc, zcd), (cvu, cvud) = (
            (_dense(x)[:, 0], x.den) for x in (h.z, h.z_inv, h.unit, self.zc, self.c_vu))
        if not _same(_average(_average(z, right[0]), right[1]), zd * len(H[0]) * len(H[1]),
                     zc, zcd):
            raise VerifyAlarm("z e_U e_V of the Halmos solve differs from the Krylov zc")
        # z c_vu^2 = z e_V e_U e_V e_U
        vu, vud = z, zd
        for x in (1, 0, 1, 0):
            vu, vud = _average(vu, right[x]), vud * len(H[x])

        def along(v, d):
            # (num, den) of v w_l for every word w_l
            return _along(h.words, v, d, lambda a, x: _average(a, right[x]),
                          [len(X) for X in H])

        words = along((np.arange(t.size) == t.identity).astype(np.int64), 1)
        idents = {
            "self_adjoint": h.z.star() == h.z,
            "central": all(np.array_equal(_average(z, r), _average(z, l))
                           for r, l in zip(right, left)),
            "uv_identity": self._uv_identities(self.zc)[1],
            "vu_identity": _same(vu, vud, cvu, cvud),
            "invertible": (_same(*_combination(*h.z_coords, words), z, zd)
                           and _same(*_combination(*h.z_inv_coords, words), zi, zid)
                           and _same(*_combination(*h.z_inv_coords, along(z, zd)), u, ud)
                           and all(_same(_average(u, idx), ud * len(X), _mask(t, X), len(X))
                                   for X, r, l in zip(H, right, left) for idx in (r, l))),
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

    def conjugates(self, w: PermWord):
        """(e_{U^w}, e_{V^w}) for a Weyl element, built once."""
        key = w.perms
        if key not in self._conj:
            t = self.table
            widx = t.weyl_to_index[w]
            self._conj[key] = tuple(idempotent_subgroup(
                t, self.e, t.conjugated(t.subgroup(h), widx)) for h in "UV")
        return self._conj[key]

    def check_lemma34(self) -> CheckResult:
        """e_V e_{U^w} e_{V^w} = e_V e_U e_{V^w} for every w: the two sides
        are the counts of their subgroup products (np.bincount) over |V|
        |U^w| |V^w| and |V| |U| |V^w|.  Where e_{U^w} = e_U they are one
        product, so w passes."""
        t, bad = self.table, []
        V, U = t.subgroup("V"), t.subgroup("U")
        for w in t.weyl_to_index:
            euw, evw = self.conjugates(w)
            if euw == self.eU:
                continue
            lhs, rhs = (np.bincount(_products(t, V, x, evw.keys), minlength=t.size)
                        for x in (euw.keys, U))
            if not np.array_equal(lhs * len(U), rhs * len(euw.keys)):
                bad.append(repr(w))
        return CheckResult("lem3.4", "pass" if not bad else "fail",
                           {"failing_w": []}, {"failing_w": bad})

    def _sandwich_counts(self, xs):
        """n[i, D] = #{(v, u) in V x U : v xs[i] u lies in D}, D over U\\G/V.

        c_uv x c_uv = sum_D n_D(x) e_U y_D e_V / (|U| |V|), y_D in D, and the
        e_U y_D e_V have disjoint supports, so ranks and spans of these
        sandwiches are those of their count rows.
        """
        t = self.table
        return _counts(t, self.uv_label, t.subgroup("V"), xs, t.subgroup("U"))

    def _phi_data(self, w: PermWord):
        """The ranks and the span test behind lem3.5 and prop3.6 for one w, on
        integer coordinates over bases with disjoint supports.

        e_H x = e_H min(H x), so c_w g = e_{U^w} e_{V^w} g has the coordinates
        #{v in V^w : min(U^w v g) = h} / |V| on the basis e_{U^w} h, and
        e_V c_w g has #{(u, v) in U^w x V^w : min(V u v g) = h'} / (|U| |V|)
        on the basis e_V h'; c_w v = c_w for v in V^w, so one g per coset
        V^w g.  phi's span is that of the sandwich counts of w L.
        """
        key = w.perms
        if key in self._phi:
            return self._phi[key]
        t = self.table
        U, V, widx = t.subgroup("U"), t.subgroup("V"), t.weyl_to_index[w]
        Uw, Vw = (t.conjugated(h, widx) for h in (U, V))
        gs, one = np.flatnonzero(_labels(t, Vw) == np.arange(t.size)), [t.identity]
        rank_cw = _certified_rank(_counts(t, _labels(t, Uw), Vw, gs, one))
        # rank(e_V c_w) <= rank(c_w)
        rank_vcw = _certified_rank(_counts(t, _labels(t, V), _products(t, Uw, Vw),
                                           gs, one), rank_cw)
        phi_red = SparseReducer(1)
        phi_red.feed(_rows(self._sandwich_counts(
            _products(t, (widx,), t.subgroup("L")))))
        # with every cell element inside phi_red's span, the joint span is
        # that span, so containment alone decides span equality; and
        # c_uv (v g u) c_uv = c_uv g c_uv, so one g per double coset V g U
        # of the cell decides it
        cell = np.asarray(t.cells.get(w, ()), dtype=np.intp)
        reps = np.flatnonzero(_mask(t, _labels(t, V, U)[cell]))
        data = {
            "rank_cw": rank_cw,
            "rank_vcw": rank_vcw,
            "rank_phi": phi_red.rank,
            "cell_span_equal": phi_red.contains(_rows(self._sandwich_counts(reps))),
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
        """The c_uv x c_uv for x in W L are linearly independent."""
        t = self.table
        rank = _certified_rank(self._sandwich_counts(
            _products(t, t.subgroup("W"), t.subgroup("L"))))
        expect = len(t.subgroup("W")) * len(t.subgroup("L"))
        return CheckResult("prop3.7", "pass" if rank == expect else "fail",
                           {"rank": expect}, {"rank": rank})

    def check_theorem1(self) -> CheckResult:
        formula, oracle = self.intertwining_matrices()
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
        """Twisting by a determinant character fixes e_U, e_V, moves e_chi to e_L.

        chi1(det .) is multiplicative on G when det is and chi1 is, so det
        is tested once per factor, on G x S for a generating set S
        (_multiplicative_on_generators), and each chi1 only on the |R^x|^2
        pairs of units.
        """
        expected = {"failures": []}
        failures = []
        factor_verifiers = (self.local_verifiers()
                            if len(self.ring.locals) > 1 else [self])
        for f, lv in enumerate(factor_verifiers):
            ringf = lv.ring
            tf = lv.table
            ef = ringf.unit_exponent()
            structs = unit_structures(ringf)
            eLf = idempotent_subgroup(tf, ef, tf.subgroup("L"))
            loc = ringf.locals[0]
            units = np.array(loc.units)
            unit_at = np.full(loc.size, -1)
            unit_at[units] = np.arange(len(units))
            umul = unit_at[ring_arrays(loc)[1][np.ix_(units, units)]]
            d = unit_at[tf.det_codes[:, 0]]
            # roots[t]: the matrix of multiplication by zeta^t on coordinate
            # rows; a twisted entry is at most kr times the largest one
            ft, kf = fold_array(ef)
            roots = (root_coords(ef) @ ft).reshape(ef, len(ft), len(ft))
            kr = kf * max_abs(root_coords(ef))
            det_ok = _multiplicative_on_generators(tf, d, umul)
            for chi1 in factor_chars(structs[0], ef):
                v = np.array([chi1.value_exponent(u) for u in loc.units])
                if not (det_ok and ((v[:, None] + v) % ef == v[umul]).all()):
                    failures.append(f"factor{f}:exps{chi1.exps}:multiplicative")
                    continue
                dexp = v[d]

                def twist(a: AlgElem) -> AlgElem:
                    # the coefficient at g times zeta^dexp[g]
                    dtype = exact_dtype(kr * max_abs(a.rows))
                    rows = (a.rows.astype(dtype)[:, None]
                            @ roots[dexp[a.keys]].astype(dtype, copy=False))
                    return AlgElem.from_vec(tf, ef, (a.keys, rows[:, 0], a.den))

                chi = LeviChar(ringf, self.n, ef, ((chi1,) * self.n,))
                if twist(lv.eU) != lv.eU or twist(lv.eV) != lv.eV:
                    failures.append(f"factor{f}:exps{chi1.exps}:unipotent")
                if twist(idempotent_char(tf, chi)) != eLf:
                    failures.append(f"factor{f}:exps{chi1.exps}:echi")
        actual = {"failures": failures}
        return CheckResult("lem3.10", "pass" if not failures else "fail",
                           expected, actual)

    def check_levi_support(self) -> CheckResult:
        """Block factorizations e_U = e_U' e_U'' and the L' U'' V'' injectivity."""
        t, n = self.table, self.n
        # nonzero[g, a, b]: entry (a, b) of element g is nonzero
        nonzero = (t.codes != np.array(self.ring.zero)).any(axis=-1)
        U, V = np.asarray(t.subgroup("U")), np.asarray(t.subgroup("V"))
        above = np.triu(np.ones((n, n), dtype=bool), 1)

        def zero_at(idx, where):
            return idx[~nonzero[idx][:, where].any(axis=1)]

        failures = []
        for comp in compositions(n):
            block = np.repeat(np.arange(len(comp)), comp)
            cross = block[:, None] != block[None, :]
            u_in, u_out = zero_at(U, above & cross), zero_at(U, above & ~cross)
            v_in, v_out = zero_at(V, above.T & cross), zero_at(V, above.T & ~cross)
            levi = zero_at(np.arange(t.size), cross)
            # e_H' e_H'' = e_H when each h in H is hit |H'| |H''| / |H| times
            # and nothing else is hit
            for name, (a, b), H in (("eU", (u_in, u_out), self.eU.keys),
                                    ("eV", (v_in, v_out), self.eV.keys)):
                for h in (a, b):   # raises unless h is a subgroup
                    idempotent_subgroup(t, 1, h)
                hits = np.bincount(_products(t, a, b), minlength=t.size)
                if not np.array_equal(hits * len(H), _mask(t, H) * (len(a) * len(b))):
                    failures.append(f"{comp}:{name}")
            prods = _products(t, levi, u_out, v_out)
            if _mask(t, prods).sum() != len(prods):
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
        return [cid for cid, _ in _CHECKS
                if cid != "lem3.1" or len(self.ring.locals) > 1]

    def _check_method(self, check_id: str):
        return getattr(self, dict(_CHECKS)[check_id])

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
