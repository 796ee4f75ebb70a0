"""Verification engine for the principal-series structure of GL_n(R).

Everything that decides pass/fail is exact (rational or cyclotomic); a rank
read mod a prime counts only where it is certified exact (_certified_rank).
Wedderburn block sizes are ranks of trace forms (_wedderburn_blocks).  The
one floating-point step is float64 integer matmuls (algebra.matmul_dtype:
the U\\G/V contractions, and the sums over L of E, e_chi^2 and the class
sums), run only when an a-priori bound keeps every partial sum an integer
below 2^53.

No check multiplies two group-algebra elements.  A product of subgroup
idempotents is a count of subgroup products (_products); v e_X and
e_X v are sums over X (_average); products of elements constant on U\\G/V
are contractions with one double-coset count table (_uv_counts).  zc = z
e_U e_V, all that E needs of the Halmos element z, is read off the tags of a
Krylov sequence on U\\G/V count coordinates.  The other linear systems are
built as integer arrays and solved by the array form of solve_affine: z
itself (Lemma 3.3 only) on the
coordinates of the words of A, each word over G the sum of its parent over U
or V; and the centre of each endomorphism algebra.  thm1's sandwich ranks
(all character pairs at once) and the end algebras E_chi C[G] E_chi come
from zc on the same U\\G/V coordinates, through one certified table
(_uv_table).  The per-character layer is built once, as stacks over every
chi: the e_chi on L, certified in one batched pass, and every E from one
gather of zc and one matmul (_chi_stack); every end algebra's spanning
values from one contraction (_end_rows), and the end algebras a caller reads
from one reducer, one contraction with N, one coordinate sweep, one centre
solve and one certified trace-form rank per block of characters
(_end_block); every class sum from one sum over classes and one matmul
(pind_character).  thm1's character route is the
inner product of class functions: G's classes by propagation over the
generating set U | L | V (Verifier.classes), the class sums of every E, and
one contraction of their stack for every pair at once.  lem3.10 twists no
element: it tests det on G x (U | L | V) and compares the exponents of
chi1(det .) on U, V and L with those of chi on L's diagonals.
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
from .chars import (LeviChar, all_levi_chars, canonical_reps, conjugacy_class_count,
                    factor_chars, orbit, partition_count, principal_series_count,
                    stabilizer, stabilizer_degrees, stabilizer_irrep_count,
                    stabilizer_order, unit_structures)
from .cyclo import (SparseReducer, content, exact_dtype, fold_array, galois, max_abs,
                    power_fold, root_coords, solve_affine)
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


def _multiplicative_on_generators(t, d, mul, S):
    """Whether d(g s) = mul[d(g), d(s)] for all g in G and s in S (one G x S
    gather, a block of rows at a time), for an integer array d over G and a
    multiplication table mul of its values.  For a generating set S holding
    1 (Verifier.generators) that gives d(1) = 1 and, by induction on word
    length, d(g h) = d(g) d(h) for all g, h in G."""
    return all(bool((mul[d[rows, None], d[S]] == d[t._table[rows][:, S]]).all())
               for rows in row_blocks(t.size, len(S)))


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

# entries of the largest temporary that a blocked count or product makes, a
# block of columns or of characters at a time (2 MB in float64)
_SCRATCH = 1 << 18


def _rank_mod_p(M):
    """The rank mod _P of an integer matrix, by elimination over its shorter
    side (rank M = rank M^T) that stops once the rank reaches it: a pivot a
    = A[r, c] takes each row below it nonzero in column c (count matrices
    stay sparse) to a A[row] - A[row, c] A[r] mod p right of c, with no
    inverse and products below p^2 < 2^62, reduced as B - B // p * p (int64
    // by a scalar is several times faster than %)."""
    A = np.ascontiguousarray((M if M.shape[0] <= M.shape[1] else M.T) % _P, dtype=np.int64)
    rank = 0
    for c in range(A.shape[1]):
        nz = np.flatnonzero(A[rank:, c])
        if not len(nz):
            continue
        if nz[0]:
            A[[rank, rank + nz[0]]] = A[[rank + nz[0], rank]]
        rows = rank + nz[1:]   # the row swapped down, if any, is zero in column c
        B = A[rows, c + 1:] * A[rank, c]
        B -= A[rows, c, None] * A[rank, c + 1:]
        A[rows, c + 1:] = B - B // _P * _P
        rank += 1
        if rank == len(A):
            break
    return rank


def _cyclo_rank(e, M):
    """The rank over Q(zeta_e) of an integer matrix M (m, n, phi), certified:
    _certified_rank of its Q-embedding over phi.  The embedding (m phi, n
    phi) has as block (i, j) the matrix of multiplication by M[i, j] on the
    power basis, so it is x -> x M on Q(zeta_e)^m as a map over Q, of rank
    phi times M's rank over Q(zeta_e)."""
    ft, kf = fold_array(e)
    m, n, phi = M.shape
    X = M.astype(exact_dtype(kf * max_abs(M)), copy=False).reshape(-1, phi) @ ft
    return _certified_rank(X.reshape(m, n, phi, phi).transpose(0, 2, 1, 3).reshape(
        m * phi, n * phi)) // phi


def _certified_rank(M, upper=None):
    """The rank over Q of an integer matrix M: its rank mod _P where that is
    certified, else an exact sweep over its rows.

    rank mod p <= rank over Q <= upper (min(M.shape) when None), so a rank
    mod p that reaches upper is exact.  Short of it, each row is divided by
    its content, which keeps the rank over Q; a row whose content p does not
    divide is multiplied by a unit mod p, so the rank mod p is taken again
    only when some content is a nonzero multiple of p.  That rank is exact
    when the k = min(M.shape) largest squared row norms, each taken as at
    least 1, multiply to less than p^2: by Hadamard's bound every minor is
    then smaller than p in absolute value, so none that is nonzero vanishes
    mod p.
    """
    k = min(M.shape)
    upper = k if upper is None else upper
    rank = _rank_mod_p(M)
    if rank < upper:
        g = np.abs(np.gcd.reduce(M, axis=1))
        if (g > 1).any():
            M = M // np.maximum(g, 1)[:, None]
            if ((g % _P == 0) & (g > 0)).any():
                rank = _rank_mod_p(M)
    if rank == upper:
        return rank
    M2 = M.astype(exact_dtype(max_abs(M) ** 2 * M.shape[1]))
    norms = sorted(np.maximum((M2 * M2).sum(axis=1), 1).tolist(), reverse=True)
    if math.prod(norms[:k]) < _P * _P:
        return rank
    return _rank(1, M[:, :, None])


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


def _wedderburn_blocks(algebras, e):
    """[(blocks, ranks)]: the sorted Wedderburn block sizes of each
    semisimple B of algebras = [(key, struct, centre)] over Q(zeta_e), from
    struct[i, j, t] = coordinate t of b_i b_j times some s > 0 and
    solve_affine's basis z_i of B's centre Z (z_i alone nonzero at its last
    key f_i, and rational there), and the ranks taken for each.  In the
    basis of Z's primitive idempotents G(z, z') = Tr_B(L_{z z'}) is
    diag(d_i^2) and T(z, z') = Tr_Z(L_{z z'}) the identity: rank T = c
    certifies that Z is semisimple, for every B at once, as one
    block-diagonal matrix has full rank exactly when each block has
    (_cyclo_rank); VerifyAlarm names the key of a degenerate T.  d occurs
    c - rank(G - d^2 T) times, ranked exactly for d = 1, 2, ... until the
    blocks left fill the dimension left.
    """
    ft, kf = fold_array(e)

    def mul(spec, a, b):
        # np.einsum(spec, a, b, F), F the fold table: the product in Q(zeta_e)
        # of a's last axis s and b's last axis r, in a dtype no sum overflows
        dtype = exact_dtype(kf * max_abs(a) * max_abs(b) * a.size * b.size)
        F = ft.reshape(len(ft), len(ft), -1).astype(dtype)
        return np.einsum(spec, a.astype(dtype), b.astype(dtype), F)

    forms = []
    for key, struct, centre in algebras:
        k, c = len(struct), len(centre)
        # Q[a, b] = z_a z_b times s, and Tr_Z(L_y) = sum_t y[t] tr_z[t] / (N s)
        # on Z, so N s^2 T and N s^2 G are Q contracted with tr_z and N tr_b
        tr_b = struct[:, range(k), range(k)].sum(axis=1).astype(object)
        Z = np.array(centre, dtype=object)
        free = [int(np.flatnonzero(z.any(axis=1))[-1]) for z in Z]
        n = Z[range(c), free, 0]
        if (Z[:, free, 0] != np.diag(n)).any() or Z[:, free, 1:].any():
            raise VerifyAlarm(f"the basis of the centre is not in echelon form for chi={key}")
        # scaled to z_i[f_i] = N, y[f_i] / N is y's coordinate on z_i
        N = math.lcm(*n.tolist())
        Z *= (N // n)[:, None, None]
        Q = mul("bjs,ajtr,sru->abtu", Z, mul("ais,ijtr,sru->ajtu", Z, struct))
        tr_z = mul("ijs,tjir,sru->tu", Z, struct[:, :, free])
        forms.append((Q, N * tr_b, tr_z, mul("abts,tr,sru->abu", Q, tr_z)))
    sizes = [len(T) for *_, T in forms]
    T = np.zeros((sum(sizes), sum(sizes), len(ft)), dtype=object)
    for at, (*_, t) in zip(np.cumsum(sizes) - sizes, forms):
        T[at:at + len(t), at:at + len(t)] = t
    if _cyclo_rank(e, T) != len(T):
        key = next(key for (key, *_), (*_, t) in zip(algebras, forms)
                   if _cyclo_rank(e, t) != len(t))
        raise VerifyAlarm(f"the trace form of the centre is degenerate for chi={key}")
    out = []
    for (key, struct, _), (Q, tr_b, tr_z, T) in zip(algebras, forms):
        k, c = len(struct), len(T)
        blocks, d = [], 1
        while len(blocks) < c and k - sum(x * x for x in blocks) > (c - len(blocks)) * d * d:
            blocks += [d] * (c - _rank(e, mul("abts,tr,sru->abu", Q, tr_b - d * d * tr_z)))
            d += 1
        blocks += [d] * (c - len(blocks))
        if sum(x * x for x in blocks) != k:
            raise VerifyAlarm(f"Wedderburn blocks do not fill dimension {k} for chi={key}")
        out.append((tuple(blocks), d - 1))
    return out


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


def _uv_products(N, b, e, size, pairs=None):
    """P[p, D] = (b_i b_j)(g_D) = sum_{D1, D2} N[D1, D2, D] b_i(D1) b_j(D2)
    for (i, j) = pairs[p] (every (i, j) at p = i k + j when None), for k
    elements b (k, n, phi) constant on U\\G/V, and N[D1, D2, D] = #{h in D1 :
    h^-1 g_D in D2} (float64), in matmul_dtype: N sums to size over (D1,
    D2).  N is cast through int64 where matmul_dtype is not float64, so that
    exact Python ints never meet a float.  A block of the g_D at a time, so
    no temporary passes _SCRATCH entries; each block of N[..., D] is
    contiguous when N is _uv_counts' view."""
    ft, kf = fold_array(e)
    bound = kf * size * max_abs(b) ** 2
    dtype = matmul_dtype(bound)
    k, n, phi = b.shape
    i, j = np.divmod(np.arange(k * k), k) if pairs is None else pairs
    b, F = b.astype(dtype), ft.reshape(phi, phi, phi).astype(dtype)
    left, right = b.transpose(0, 2, 1).reshape(-1, n), b.transpose(1, 0, 2).reshape(n, -1)
    T = np.moveaxis(N, 2, 0)
    out = np.empty((len(i), n, phi), dtype=exact_dtype(bound))
    for ds in row_blocks(n, max(n * n, k * phi * n, (k * phi) ** 2), _SCRATCH):
        Td = T[ds] if dtype is np.float64 else T[ds].astype(np.int64).astype(dtype)
        # Q[D, i, s, j, r] = sum_{D1, D2} b_i(D1)_s N[D1, D2, D] b_j(D2)_r
        Q = (left @ Td @ right).reshape(-1, k, phi, k, phi)
        out[:, ds] = np.tensordot(Q, F, ([2, 4], [0, 1]))[:, i, j].transpose(1, 0, 2)
    return out


def _orbit_partner(reps):
    """(rep, other): the first of the orbit representatives reps whose Weyl
    orbit has another member, and the last such member, whose end algebra
    thm2 compares with rep's; None when every orbit is a point."""
    for rep in reps:
        others = [c for c in orbit(rep) if c != rep]
        if others:
            return rep, others[-1]
    return None


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
        self._zc = self._zc_ids = None
        self._ulv = None
        self._echi = {}
        self._stack = None
        self._sums = None
        self._end_vals = None
        self._uv = None
        self._uv_mul = None
        self._sandwich = {}
        self._gens = {}
        self._classes = None
        self._chardim = None
        self._end = {}
        self._conj = {}
        self._phi = {}
        self._local_verifiers = None
        self._reps = None

    # -- basic cached objects ------------------------------------------------

    @property
    def reps(self):
        """The Weyl orbit representatives of self.chars (orbit_reps), built
        once."""
        if self._reps is None:
            self._reps = canonical_reps(self.chars)
        return self._reps

    @property
    def ulv(self):
        """Every product u l v, in (u, l, v) loop order."""
        if self._ulv is None:
            t = self.table
            self._ulv = _products(t, t.subgroup("U"), t.subgroup("L"),
                                  t.subgroup("V"))
        return self._ulv

    def generators(self, t):
        """S = U | L | V of t (self.table or a factor; a local ring's group is
        its own), a sorted index array, certified once per table to generate
        t: the walk from {1} by right multiplication by S, each front gathered
        once (|t| |S| products), reaches all of t, or VerifyAlarm."""
        if t not in self._gens:
            S = np.flatnonzero(_mask(t, t.subgroup("U") + t.subgroup("L") + t.subgroup("V")))
            reached, front = _mask(t, [t.identity]), np.array([t.identity])
            while len(front):
                grown = np.zeros(t.size, dtype=bool)
                for rows in row_blocks(len(front), len(S)):
                    grown[t._table[np.ix_(front[rows], S)]] = True
                front = np.flatnonzero(grown & ~reached)
                reached |= grown
            if not reached.all():
                raise VerifyAlarm(f"U, L and V do not generate {t!r}")
            self._gens[t] = S
        return self._gens[t]

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
        # The words, breadth first, over G: each generation of new words a
        # gives the candidates a e_X for each a in turn, X = U then V, but not
        # a's last generator, for which a e_X = a; |X| a e_X is a sum over X.
        # They are fed over their contents in one sweep, with a tag key each.
        # kept[l] = (p, x) when the l-th candidate that enlarged the span,
        # w'_l, is word p (the empty word when -1) times generator x, and the
        # word is w_l = scales[l] w'_l.  As in solve_affine, every other
        # candidate keeps s (its tag - sum_l c_l tag(w'_l)), s > 0, for
        # candidate = sum_l c_l w'_l.  rows[p, x] = (c, s): w'_p e_X is c / s
        # on the w', the coordinates of e_X for p = -1, else a row of R_X
        t = self.table
        H = [np.asarray(t.subgroup(h), dtype=np.intp) for h in "UV"]
        right = [t._table[:, X].T.copy() for X in H]
        red, words, kept, scales, tags, rows = SparseReducer(1), [], [], [], [], {}
        new, first, fed = [(np.arange(t.size) == t.identity).astype(np.int64)], -1, 0
        while new:
            src = [(p, x) for p in range(first, first + len(new)) for x in (0, 1)
                   if p < 0 or kept[p][1] != x]
            vecs = [_average(new[p - first], right[x]) for p, x in src]
            g = [content(a) for a in vecs]
            vecs = [a // c for a, c in zip(vecs, g)]
            v, _, grown, _ = red._sweep(_tagged(np.array(vecs), fed), grow=t.size)
            first = len(words)
            for l, i in enumerate(grown, first):
                p, x = src[i]
                kept.append(src[i])
                scales.append(Fraction(g[i], len(H[x])) * (scales[p] if p >= 0 else 1))
                tags.append(fed + i)
                rows[l, x] = (np.arange(l + 1) == l).astype(object), 1   # w'_l e_X = w'_l
            tag = np.array(tags)
            for i, (p, x) in enumerate(src):
                # candidate i is c / s on the w'; w'_p e_X is g[i] / |X| times it
                c, s = ((tag == fed + i, 1) if i in grown else
                        (-v[i, t.size + tag, 0], v[i, t.size + fed + i, 0]))
                rows[p, x] = c.astype(object) * g[i], int(s) * len(H[x])
            new, fed = [vecs[i] for i in grown], fed + len(src)
            words += new
        k = len(words)
        rows = [(np.concatenate([c, np.zeros(k - len(c), dtype=object)]), d)
                for c, d in (rows[p, x] for p in range(-1, k) for x in (0, 1))]
        table, D = _over_one(rows)

        # w_l* is w_l's word reversed: e_X for its last generator X, then
        # times the others, last to first
        star = []
        for l, f in enumerate(scales):
            xs, p = [], l
            while p >= 0:
                p, x = kept[p]
                xs.append(x)
            a, d = table[xs[0]], D
            for x in xs[1:]:
                a, d = a @ table[2 + x::2], d * D
                c = math.gcd(content(a), d)
                a, d = a // c, d // c
            star.append((a * f.denominator, d * f.numerator))
        table, D = _over_one(rows + star)
        cu, cv, ru, rv, S = table[0], table[1], table[2:-k:2], table[3:-k:2], table[-k:]

        # the pivots are the echelon basis b of A over G, as feeding the words
        # one at a time gives; their tags give b_i = sum_l B[i, l] w'_l / dB
        basis, B = [], []
        for keys, rws, d in red.basis_rows():
            g = keys < t.size
            basis.append(_lift(AlgElem.from_vec(t, 1, (keys[g], rws[g], d)), self.e))
            B.append((np.zeros(k, dtype=object), d))
            B[-1][0][np.searchsorted(tag, keys[~g] - t.size)] = rws[~g, 0]
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
            num, d = _combination(x, xden, [(w, 1) for w in words])
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
        v_1 at the class of 1 and v_(m+1) = v_m R, each fed with a tag key of
        its own (_tagged) until one adds nothing.  That one's remainder is
        zero on U\\G/V, so its tags read sum_m t_m v_m = 0 over m <= M + 1,
        with t_(M+1) > 0; v_1, ..., v_M are independent, so this relation is
        unique up to scale.  x c = c has a solution x = s y in the span of
        v_1, ..., v_M exactly when t_1 != 0: y = sum_(j >= 2) t_j v_(j-1) /
        (-t_1) has y R = v_1.  e_U y_D e_V is the indicator of D over |D|.
        """
        t = self.table
        U, V, cls = t.subgroup("U"), t.subgroup("V"), self.uv_class
        R = _counts(t, self.uv_label, [t.identity], self.uv_first, _products(t, V, U))
        s, n = len(U) * len(V), len(R)
        krylov = [np.zeros(n, dtype=np.int64)]
        krylov[0][cls[t.identity]] = 1
        red = SparseReducer(1)
        while True:
            rem, _, grown, _ = red._sweep(_tagged(krylov[-1][None], len(krylov) - 1), grow=n)
            if not grown:
                break
            # R's rows sum to s, so v_(m+1) >= 0 sums to s^m
            dtype = exact_dtype(s ** len(krylov))
            krylov.append(krylov[-1].astype(dtype) @ R.astype(dtype))
        tags = [int(x) for x in rem[0, n:, 0]]
        if not tags[0]:
            raise VerifyAlarm("no x in e_U A e_V with x e_U e_V = e_U e_V")
        sign = -1 if tags[0] > 0 else 1
        y, den = _combination([sign * x for x in tags[1:]], abs(tags[0]),
                              [(v, 1) for v in krylov[:-1]])
        # x_D / |D| at each g in D is y_D (s / |D|) / den; |D| divides s
        at = y.astype(exact_dtype(max_abs(y) * s), copy=False)[cls] * (s // np.bincount(cls)[cls])
        keys = np.flatnonzero(at != 0)
        return _lift(AlgElem.from_vec(t, 1, (keys, at[keys, None], den)), self.e)

    def _uv_counts(self):
        """N[D1, D2, D] = #{h in D1 : h^-1 g_D in D2}, D over U\\G/V, built
        once: for a, b constant on U\\G/V, (a b)(g_D) = sum_{D1, D2} N[D1, D2,
        D] a(D1) b(D2) (_uv_products).  Kept in float64, which holds every
        count exactly (each is at most |G| < 2^53); _uv_products casts it
        through int64 for its integer dtypes.  Stored D first, N being its
        transposed view, so that each g_D's counts are contiguous."""
        if self._uv_mul is None:
            # one g_D at a time per row, a block of them at a time: the
            # classes of h and h^-1 g_D (a gather from t._table[t._inv] would
            # copy the whole table)
            t, c, n = self.table, self.uv_class, len(self.uv_first)
            self._uv_mul = np.empty((n, n, n))
            for ds in row_blocks(n, t.size, _SCRATCH):
                w = ds.stop - ds.start
                flat = c[t._table[t._inv[:, None], self.uv_first[ds]]]
                flat += c[:, None] * n     # in place: one |G| x w array at a time
                flat += np.arange(w) * (n * n)
                self._uv_mul[ds] = np.bincount(flat.ravel(), minlength=n * n * w).reshape(
                    w, n, n)
        return self._uv_mul.transpose(1, 2, 0)

    @property
    def zc(self) -> AlgElem:
        """z e_U e_V from _krylov_zc, certified by zc^2 = zc and zc e_U e_V =
        e_U e_V (the pair kept in _zc_ids).  zc (by its lift) and e_U e_V are
        constant on U\\G/V, so are their products, which N gives at each g_D."""
        if self._zc is None:
            zc = self._krylov_zc()
            a, c = (_dense(x)[self.uv_first, 0] for x in (zc, self.c_uv))
            P = _uv_products(self._uv_counts(), np.stack([a, c])[..., None], 1, self.table.size)
            idempotent, fixes = self._zc_ids = (_same(P[0, :, 0], zc.den, a, 1),
                                                _same(P[1, :, 0], zc.den, c, 1))
            if not idempotent:
                raise VerifyAlarm("z e_U e_V not idempotent")
            if not fixes:
                raise VerifyAlarm("z e_U e_V does not fix e_U e_V")
            self._zc = zc
        return self._zc

    def _chi_stack(self):
        """(place, S, Es), built once for every chi of self.chars:
        place[chi.key()] is chi's place c, S[c] e_chi's rows on L (in
        increasing order) over e_chi.den, and Es[c] E_chi = zc e_chi, or the
        alarm text of the certificate chi fails.

        chi passes when e_chi lies in C[L], e_chi^2 = e_chi and E_chi != 0.
        L is a group, so e_chi^2 lies in C[L]: e_chi^2(m) = sum_a e_chi(a)
        e_chi(a^-1 m) over a in L, one gather of the stack.  _uv_table
        certifies l zc = zc l for l in L, so e_chi zc = zc e_chi, and with
        zc^2 = zc that gives E^2 = E.  E(g) = sum_l zc(g l^-1) e_chi(l): one
        gather of zc and one matmul with the stack.  The products run a
        block of characters at a time."""
        if self._stack is None:
            t, e, L = self.table, self.e, np.asarray(self.table.subgroup("L"))
            self._uv_table()
            ft, kf = fold_array(e)
            ecs, k, nl, phi = [self.e_chi(c) for c in self.chars], len(self.chars), len(L), len(ft)
            at = np.full(t.size, nl)
            at[L] = np.arange(nl)
            S = np.zeros((k, nl, phi), dtype=exact_dtype(max(max_abs(x.rows) for x in ecs)))
            Es = [None] * k
            for c, (chi, ec) in enumerate(zip(self.chars, ecs)):
                if (at[ec.keys] == nl).any():
                    Es[c] = f"e_chi does not commute with z e_U e_V for chi={chi.key()}"
                else:
                    S[c, at[ec.keys]] = ec.rows

            # e_chi^2 on L: square[c, m, u] = sum_(a, r) S[c, at(a^-1 m), r]
            # SF[c, (a, r), u], SF[c, (a, r), u] = sum_s S[c, a, s] ft[s, (r, u)]
            bound = kf * nl * max_abs(S) ** 2
            dens = [ec.den for ec in ecs]
            dtype, exact = matmul_dtype(bound), exact_dtype(bound + max_abs(S) * max(dens))
            dens = np.array(dens, dtype=exact)
            pair, Sd = at[t._table[t._inv[L], L[:, None]]], S.astype(dtype)
            SF = (Sd @ ft.astype(dtype)).reshape(k, nl * phi, phi)
            for blk in row_blocks(k, nl * nl * phi, _SCRATCH):
                square = (Sd[blk][:, pair].reshape(-1, nl, nl * phi) @ SF[blk]).astype(exact)
                fixed = (square == S[blk].astype(exact) * dens[blk, None, None]).all(axis=(1, 2))
                for c in np.flatnonzero(~fixed) + blk.start:
                    Es[c] = Es[c] or f"e_chi not idempotent for chi={self.chars[c].key()}"

            zc = _dense(self.zc)[:, 0]
            bound = max_abs(zc) * max_abs(S) * nl
            dtype = matmul_dtype(bound)
            Z = zc.astype(dtype)[t._table[:, t._inv[L]]]
            for blk in row_blocks(k, t.size * phi, _SCRATCH):
                rows = (Z @ S[blk].astype(dtype).transpose(1, 0, 2).reshape(nl, -1)).reshape(
                    t.size, -1, phi)
                for c in range(blk.start, blk.stop):
                    if Es[c] is None:
                        E = AlgElem.from_vec(t, e, (np.arange(t.size), rows[:, c - blk.start]
                                                    .astype(exact_dtype(bound)),
                                                    self.zc.den * ecs[c].den))
                        Es[c] = E if not E.is_zero() else (
                            f"z e_U e_V e_chi vanished for chi={self.chars[c].key()}")
            self._stack = {c.key(): i for i, c in enumerate(self.chars)}, S, Es
        return self._stack

    def E(self, chi: LeviChar) -> AlgElem:
        """The idempotent E = zc e_chi, read from the stack of every
        character (_chi_stack); VerifyAlarm when chi's certificate failed."""
        place, _, Es = self._chi_stack()
        E = Es[place[chi.key()]]
        if isinstance(E, str):
            raise VerifyAlarm(E)
        return E

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

    def _end_rows(self):
        """M[c, y, D]: |L|^2 times the value at g_D of e_chi X_y e_chi, for
        chi = chars[c] and X_y of _uv_table: sum_{a, b in L} e_chi(a) F[y,
        cls[a, D, b]] e_chi(b), folded into Q(zeta_e), the diagonal of
        _sandwich_values.  F gathered at cls and two matmuls with the stack
        of _chi_stack, a block of double cosets and of characters at a time,
        built once."""
        if self._end_vals is None:
            cls, _, F = self._uv_table()
            S = self._chi_stack()[1]
            ft, kf = fold_array(self.e)
            k, nl, phi = S.shape
            bound = kf * max_abs(F) * (nl * max_abs(S)) ** 2
            dtype = matmul_dtype(bound)
            # SF[c, (b, p), u] = sum_q S[c, b, q] ft[p, (q, u)], ft being
            # symmetric in p and q
            F, S = F.astype(dtype), S.astype(dtype)
            SF = (S @ ft.astype(dtype)).reshape(k, nl * phi, phi)
            out = np.empty((k, len(F), cls.shape[1], phi), dtype=exact_dtype(bound))
            for ds in row_blocks(cls.shape[1], len(F) * nl * nl, _SCRATCH):
                # X[(y, D, b), a] = F[y, cls[a, D, b]] for D in ds
                X = F[:, cls[:, ds].transpose(1, 2, 0)].reshape(-1, nl)
                for blk in row_blocks(k, len(X) * phi, _SCRATCH):
                    # (X @ S[c])[(y, D, b), p] = sum_a e_chi(a)_p F[y, cls[a, D, b]]
                    T = (X @ S[blk]).reshape(blk.stop - blk.start, -1, nl * phi)
                    out[blk, :, ds] = (T @ SF[blk]).reshape(len(T), len(F), -1, phi)
            self._end_vals = out
        return self._end_vals

    def module_reducer(self, chi: LeviChar) -> SparseReducer:
        """B = E_chi C[G] E_chi as a SparseReducer on U\\G/V: key D holds the
        value at g_D, which fixes an element of B (U E = E = E V); the rows
        are chi's e_chi X_y e_chi of _end_rows.  E(chi), certified on the
        stack, is the unit of B.  end_algebra feeds these rows of a block of
        characters into one reducer, chi's at keys c #(U\\G/V) + D, whose
        pivots for chi are this reducer's, shifted.  The name is that of the
        left-module route this replaced, under which perfbench times it."""
        self._uv_table()     # first, as E's certificate and B's rows read it
        self.E(chi)
        M = self._end_rows()[self._chi_stack()[0][chi.key()]]
        red = SparseReducer(self.e)
        red.feed((np.arange(M.shape[1]), M, 1))
        return red

    # -- intertwining dimensions ----------------------------------------------

    def intertwining_dim_formula(self, chi: LeviChar, sigma: LeviChar) -> int:
        return sum(1 for w in self.table.weyl if chi.acted(w) == sigma)

    def _sandwich_rank(self, chi: LeviChar, sigma: LeviChar) -> int:
        """rank{E_sigma g E_chi : g in G}, from one table of every pair: the
        rank of the e_sigma X_y e_chi of _uv_table, each fixed by its values
        at the g_D of reps, one per orbit of L x L on U\\G/V (its value at
        a^-1 g c^-1 is sigma(a) chi(c) times that at g), each a certified
        rank over Q(zeta_e) (_cyclo_rank)."""
        if not self._sandwich:
            cls, reps, F = self._uv_table()
            S = np.array([self.e_chi(c).rows for c in self.chars])
            M = _sandwich_values(F, cls[:, reps], S, self.e)
            keys, live = [c.key() for c in self.chars], M.any(axis=(0, 1, 4))
            for (s, left), (x, right) in itertools.product(enumerate(keys), repeat=2):
                rank = _cyclo_rank(self.e, M[:, :, s, x]) if live[s, x] else 0
                self._sandwich[right, left] = rank
        return self._sandwich[chi.key(), sigma.key()]

    @property
    def classes(self):
        """cls[g], the number of g's conjugacy class, the classes numbered in
        increasing order of their least elements.  S (self.generators) generates
        G and is closed under inverses, so a class is a component of the graph
        g -- s^-1 g s, whose least element propagation finds (Shiloach and
        Vishkin, J. Algorithms 1982): from lab[g] = g, a round takes lab to its
        min with every lab[s^-1 g s] (one (|S|, |G|) gather), then lab <-
        lab[lab] until stable; lab[g] stays in g's class, and a round that
        changes nothing leaves it constant there."""
        if self._classes is None:
            t, S = self.table, self.generators(self.table)
            conj = t._table[t._table[t._inv[S]], S[:, None]]   # entry (s, g) is s^-1 g s
            lab, new = None, np.arange(t.size, dtype=t._table.dtype)
            while not np.array_equal(lab, new):
                lab = new
                new = np.minimum(lab, lab[conj].min(axis=0))
                while not np.array_equal(new, new[new]):
                    new = new[new]
            self._classes = np.searchsorted(np.flatnonzero(lab == np.arange(t.size)), lab)
        return self._classes

    def pind_character(self, chi: LeviChar):
        """Character of the induced module on classes: (s, den), with s an
        integer array (#classes, phi) whose row K over den is the class sum
        sum_{h in K} E(h).  The value at g is sum_x E(x^-1 g^-1 x) =
        |C_G(g)| s[class(g^-1)] / den: x^-1 g^-1 x covers g^-1's class
        |C_G(g)| times.

        The class sums of every character come at once, for the labelling
        self.classes holds, from Z[K, l] = sum_{g in K} zc(g l^-1) (np.add.at,
        a row block of g at a time) and one matmul with the stack of
        _chi_stack: s_chi(K) = sum_l Z[K, l] e_chi(l), over zc.den e_chi.den,
        then divided by the content that E dropped."""
        E, cls = self.E(chi), self.classes
        if self._sums is None or self._sums[0] is not cls:
            t, L, S = self.table, np.asarray(self.table.subgroup("L")), self._chi_stack()[1]
            zc = _dense(self.zc)[:, 0]
            Z = np.zeros((int(cls.max()) + 1, len(L)), dtype=exact_dtype(max_abs(zc) * t.size))
            for gs in row_blocks(t.size, len(L)):
                np.add.at(Z, cls[gs], zc[t._table[gs][:, t._inv[L]]])
            bound = max_abs(Z) * max_abs(S) * len(L)
            dtype = matmul_dtype(bound)
            self._sums = cls, (Z.astype(dtype) @ S.astype(dtype)).astype(exact_dtype(bound))
        c = self._chi_stack()[0][chi.key()]
        return self._sums[1][c] // (self.zc.den * self.e_chi(chi).den // E.den), E.den

    def _character_dim(self, chi: LeviChar, sigma: LeviChar) -> int:
        """dim Hom via the averaged inner product of the two characters:
        |G|^-1 sum_g a(g) conj(b(g)) = sum_K (|G|/|K|) a(K) conj(b(K)) on
        the class sums, from one table of every pair.  With S the stack of
        every character's class sums, w the centraliser orders and C the
        matrix of complex conjugation, that is one contraction of w S with
        S C and the fold tensor, as two matmuls in matmul_dtype; each pair is
        divided once, at the end, and a pair that does not divide into an
        integer is kept as an alarm.
        """
        if self._chardim is None:
            sums, dens = zip(*(self.pind_character(c) for c in self.chars))
            S = np.array(sums)
            ft, kf = fold_array(self.e)
            phi, w = len(ft), self.table.size // np.bincount(self.classes)
            conj = galois(self.e, -1)
            bound = kf * int(w.sum()) * phi * max_abs(conj) * max_abs(S) ** 2
            dtype = matmul_dtype(bound)
            S, conj, ft, w = (x.astype(dtype, copy=False) for x in (S, conj, ft, w))
            # total[a, b, u] = sum_(k, s) (w S)[a, k, s] Y[(k, s), (b, u)], with
            # Y[b, k, (s, u)] = sum_r (S C)[b, k, r] ft[r, (s, u)] (ft symmetric)
            a, k = S.shape[:2]
            Y = ((S @ conj) @ ft).reshape(a, k, phi, phi).transpose(1, 2, 0, 3)
            total = ((w[:, None] * S).reshape(a, -1) @ Y.reshape(k * phi, -1)).reshape(
                a, a, phi).astype(exact_dtype(bound))
            den = np.array(dens, dtype=object)
            tot, dd = total[..., 0].astype(object), np.outer(den, den)
            q = tot // dd
            q[(tot % dd != 0) | total[..., 1:].any(axis=-1)] = None
            keys = [c.key() for c in self.chars]
            self._chardim = {(a, b): q[i, j] for (i, a), (j, b)
                             in itertools.product(enumerate(keys), repeat=2)}
        dim = self._chardim[chi.key(), sigma.key()]
        if dim is None:
            raise VerifyAlarm("character inner product is not an integer")
        return dim

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
        """B = E_chi C[G] E_chi: its dimension, the dimension of its centre,
        its Wedderburn block sizes and its structure constants, read from the
        stack that _end_block builds on first use for chi and the next orbit
        representatives not yet built (self.reps, which every count reads),
        as many as _SCRATCH holds in its block-diagonal arrays; VerifyAlarm
        when E(chi)'s certificate failed.  A character outside self.reps,
        such as thm2's orbit partner, is built only when it is asked for, so
        the caller's first read decides whether it shares a stack."""
        key = chi.key()
        if key not in self._end:
            self.E(chi)
            place, _, Es = self._chi_stack()
            cls, _, F = self._uv_table()
            # the feed and the products are (K m, K n, phi) with m <= len(F)
            # rows per character and n = #(U\\G/V)
            size = math.isqrt(_SCRATCH // (len(F) ** 2 * cls.shape[1] * len(power_fold(self.e))))
            more = [c for c in self.reps if (k := c.key()) != key and k not in self._end
                    and not isinstance(Es[place[k]], str)]
            self._end_block([chi] + more[:max(size - 1, 0)])
        return self._end[key]

    def _end_block(self, chis):
        """The EndAlgebra of every chi of chis (each E certified) into
        self._end, as one stack: the rows of module_reducer for character c
        at keys c n + D (n = #(U\\G/V)) in one SparseReducer, whose pivots
        for each chi are those of feeding its rows alone; the products of
        every pair of basis elements of one chi from one contraction with N
        (_uv_products) and their coordinates from one coords_list sweep; the
        centres from one block-diagonal system, the commutators of each chi a
        block; and every trace form certified at once (_wedderburn_blocks)."""
        e, keys = self.e, [c.key() for c in chis]
        place = self._chi_stack()[0]
        M = self._end_rows()[[place[k] for k in keys]]
        K, m, n, phi = M.shape
        rows = np.zeros((K, m, K, n, phi), dtype=M.dtype)
        rows[np.arange(K), :, np.arange(K)] = M
        red = SparseReducer(e)
        red.feed((np.arange(K * n), rows.reshape(K * m, K * n, phi), 1))

        # the pivots on U\\G/V, over one den; coords_list puts each product
        # in lowest terms, so the den taken does not show in the coordinates
        piv = red.basis_rows()
        owner = np.array([int(k[0]) // n for k, _, _ in piv])
        at, vals, den = stack(piv)
        b = np.zeros((len(vals), K * n, phi), dtype=vals.dtype)
        b[:, at] = vals
        b = b.reshape(-1, K, n, phi)[np.arange(len(b)), owner]
        pi, pj = np.nonzero(owner[:, None] == owner)    # pairs within one chi
        P = _uv_products(self._uv_counts(), b, e, self.table.size, (pi, pj))
        po = owner[pi]
        vecs = np.zeros((len(P), K, n, phi), dtype=P.dtype)
        vecs[np.arange(len(P)), po] = P
        coords, cdens, inside = red.coords_list((np.arange(K * n), vecs.reshape(len(P), -1, phi),
                                                 den * den))
        if not inside.all():
            raise VerifyAlarm("product left the endomorphism algebra")

        # struct[i, j, t]: coordinate t of b_i b_j, over den; the centre is
        # the nullspace of sum_i (struct[i, j, t] - struct[j, i, t]) x_i = 0,
        # one equation per (j, t), each chi's system a block of one solve
        structs, cols = [], np.zeros((len(piv), len(P), phi), dtype=object)
        for c in range(K):
            mine, prods = owner == c, po == c
            k, den = int(mine.sum()), math.lcm(*cdens[prods].tolist())
            struct = (coords[prods][:, mine] * (den // cdens[prods])[:, None, None]).reshape(
                k, k, k, phi)
            cols[np.ix_(mine, prods)] = (struct - struct.transpose(1, 0, 2, 3)).reshape(k, -1, phi)
            structs.append((struct, den))
        sol = solve_affine(e, _block(cols, np.zeros((len(P), phi), dtype=np.int64)))
        homes = [owner[np.flatnonzero(z.any(axis=1))[0]] for z in sol.nullspace]
        centres = [[z[owner == c] for z, h in zip(sol.nullspace, homes) if h == c]
                   for c in range(K)]
        split = _wedderburn_blocks([(key, struct, centre) for key, (struct, _), centre
                                    in zip(keys, structs, centres)], e)
        for key, (struct, den), centre, (blocks, ranks) in zip(keys, structs, centres, split):
            self._end[key] = EndAlgebra(key, len(struct), len(centre), blocks, ranks,
                                        struct.tolist(), den)

    # -- counting ---------------------------------------------------------------

    def pipeline_count(self) -> int:
        """Distinct irreducible constituents across all induced modules."""
        return sum(self.end_algebra(rep).center_dim for rep in self.reps)

    def count_principal_series(self):
        """(pipeline count, formula count); also checks the cheap variant."""
        pipeline = self.pipeline_count()
        formula = principal_series_count(self.ring, self.n)
        cheap = sum(stabilizer_irrep_count(rep) for rep in self.reps)
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
            "uv_identity": self._zc_ids[1],
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

    def check_lemma35(self) -> CheckResult:
        bad = [repr(w) for w in self.table.weyl
               if (d := self._phi_data(w))["rank_cw"] != d["rank_vcw"]]
        return CheckResult("lem3.5", "pass" if not bad else "fail",
                           {"failing_w": []}, {"failing_w": bad})

    def check_prop36(self) -> CheckResult:
        L = len(self.table.subgroup("L"))
        bad = [repr(w) for w in self.table.weyl
               if not ((d := self._phi_data(w))["rank_phi"] == L and d["cell_span_equal"])]
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
        partner = _orbit_partner(self.reps)
        # the partner read first shares the first stack with the
        # representatives (end_algebra)
        ea2 = self.end_algebra(partner[1]) if partner else None
        expected, actual = {}, {}
        for rep in self.reps:
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
            if partner and rep == partner[0]:
                expected[rep.key()]["unsorted_blocks"] = list(ea.blocks)
                actual[rep.key()]["unsorted_blocks"] = list(ea2.blocks)
        status = "pass" if expected == actual else "fail"
        return CheckResult("thm2", status, expected, actual)

    def check_scalar_twist(self) -> CheckResult:
        """Twisting by a determinant character fixes e_U, e_V, moves e_chi to e_L.

        The twist by chi1(det .) multiplies the coefficient at g by
        zeta^t(g), t(g) the exponent of chi1 at det g.  So it fixes e_U and
        e_V exactly when t vanishes on U and V, and it moves e_chi =
        |L|^-1 sum_l chi(l)^-1 l to e_L exactly when t(l) is the exponent of
        chi = (chi1, ..., chi1) on l's diagonal, for every l in L.

        chi1(det .) is multiplicative on G when det is and chi1 is, so det
        is tested once per factor, on G x S for the factor's certified
        generating set S (self.generators, _multiplicative_on_generators),
        and each chi1 only on the |R^x|^2 pairs of units.
        """
        failures, i = [], np.arange(self.n)
        for f, tf in enumerate(self.table.factors):
            ef, loc = tf.ring.unit_exponent(), tf.ring.locals[0]
            units = np.array(loc.units)
            unit_at = np.full(loc.size, -1)
            unit_at[units] = np.arange(len(units))
            umul = unit_at[ring_arrays(loc)[1][np.ix_(units, units)]]
            d = unit_at[tf.det_codes[:, 0]]
            U, L, V = (np.asarray(tf.subgroup(h), dtype=np.intp) for h in "ULV")
            det_ok = _multiplicative_on_generators(tf, d, umul, self.generators(tf))
            for chi1 in factor_chars(unit_structures(tf.ring)[0], ef):
                v = np.array([chi1.value_exponent(u) for u in loc.units])
                if not (det_ok and ((v[:, None] + v) % ef == v[umul]).all()):
                    failures.append(f"factor{f}:exps{chi1.exps}:multiplicative")
                    continue
                t = v[d]
                chi = LeviChar(tf.ring, self.n, ef, ((chi1,) * self.n,))
                if t[U].any() or t[V].any():
                    failures.append(f"factor{f}:exps{chi1.exps}:unipotent")
                if (t[L] != chi.value_exponents(tf.codes[L][:, i, i])).any():
                    failures.append(f"factor{f}:exps{chi1.exps}:echi")
        return CheckResult("lem3.10", "pass" if not failures else "fail",
                           {"failures": []}, {"failures": failures})

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
