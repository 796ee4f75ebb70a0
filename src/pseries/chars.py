"""Characters of the diagonal torus, the Weyl action on them, and partitions.

All character values live in one cyclotomic field Q(zeta_e) where e is the
exponent of the unit group of the ring, so values of different characters
can be mixed freely.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .cyclo import CycloNum
from .groups import PermWord, weyl_elements
from .rings import RingSpec


class CharError(Exception):
    pass


class AbelianStructure:
    """Cyclic decomposition of a finite abelian group.

    Greedy extraction: repeatedly adjoin the element of largest order (ties
    broken by the supplied element order) whose cyclic group meets the span
    of the generators found so far only in the identity.  Stores a discrete
    logarithm table mapping every element to its exponent vector.
    """

    def __init__(self, elements, mul, identity):
        elements = list(elements)
        orders = {}
        for a in elements:
            x, k = a, 1
            while x != identity:
                x = mul(x, a)
                k += 1
            orders[a] = k
        self.gens = []
        self.orders = []
        dlog = {identity: ()}
        while len(dlog) < len(elements):
            best = None
            for a in elements:
                x = a
                ok = orders[a] > 1
                while ok and x != identity:
                    if x in dlog:
                        ok = False
                        break
                    x = mul(x, a)
                if ok and (best is None or orders[a] > orders[best]):
                    best = a
            if best is None:
                raise CharError("decomposition stalled")  # cannot happen
            d = orders[best]
            new = {}
            for s, vec in dlog.items():
                x = s
                for t in range(d):
                    new[x] = vec + (t,)
                    x = mul(x, best)
            dlog = new
            self.gens.append(best)
            self.orders.append(d)
        self.dlog = dlog
        self.exponent = math.lcm(*self.orders) if self.orders else 1
        self.size = len(elements)

    def __repr__(self):
        return f"AbelianStructure(orders={self.orders})"


_unit_structures_cache: dict = {}


def unit_structures(ring: RingSpec):
    """AbelianStructure of the unit group of each local factor; cached."""
    key = ring
    if key not in _unit_structures_cache:
        _unit_structures_cache[key] = tuple(
            AbelianStructure(loc.units, loc.mul, loc.one) for loc in ring.locals)
    return _unit_structures_cache[key]


class UnitChar:
    """A character of the unit group of one local factor.

    exps[i] picks the power of the i-th cyclic generator; values are powers
    of zeta_e for the shared conductor e.
    """

    __slots__ = ("structure", "exps", "e")

    def __init__(self, structure: AbelianStructure, exps, e: int):
        self.structure = structure
        self.exps = tuple(exps)
        self.e = e
        for x, d in zip(self.exps, structure.orders):
            if not 0 <= x < d:
                raise CharError(f"exponent {x} out of range for order {d}")

    def value_exponent(self, u) -> int:
        """t with chi(u) = zeta_e^t."""
        vec = self.structure.dlog[u]
        t = 0
        for x, v, d in zip(self.exps, vec, self.structure.orders):
            t += x * v * (self.e // d)
        return t % self.e

    def value(self, u) -> CycloNum:
        return CycloNum.root(self.e, self.value_exponent(u))

    def is_trivial(self) -> bool:
        return all(x == 0 for x in self.exps)

    def __eq__(self, other):
        return (isinstance(other, UnitChar) and self.exps == other.exps
                and self.structure is other.structure)

    def __hash__(self):
        return hash((id(self.structure), self.exps))

    def __repr__(self):
        return "chi" + ",".join(str(x) for x in self.exps)


def factor_chars(structure: AbelianStructure, e: int) -> list[UnitChar]:
    """All characters of one factor's unit group, lexicographic in exponents."""
    return [UnitChar(structure, exps, e)
            for exps in itertools.product(*(range(d) for d in structure.orders))]


class LeviChar:
    """A character of the diagonal torus: one UnitChar per factor and position."""

    __slots__ = ("ring", "n", "e", "grid")

    def __init__(self, ring: RingSpec, n: int, e: int, grid):
        self.ring = ring
        self.n = n
        self.e = e
        self.grid = tuple(tuple(row) for row in grid)

    def value_exponent_on_diag(self, diag) -> int:
        return int(self.value_exponents([diag])[0])

    def value_exponents(self, diags):
        """t with chi(diag(d)) = zeta_e^t for each d in a code array (k, n, m):
        per factor a table of each position's unit exponents, gathered."""
        diags, pos = np.asarray(diags), np.arange(self.n)
        t = np.zeros(len(diags), dtype=np.int64)
        for f, (loc, row) in enumerate(zip(self.ring.locals, self.grid)):
            table = np.zeros((self.n, loc.size), dtype=np.int64)
            table[:, list(loc.units)] = [[c.value_exponent(u) for u in loc.units] for c in row]
            t += table[pos, diags[..., f]].sum(axis=1)
        return t % self.e

    def acted(self, w: PermWord) -> "LeviChar":
        """The character sending position w[i] to this one's position i."""
        grid = []
        for p, row in zip(w.perms, self.grid):
            new = [None] * self.n
            for i in range(self.n):
                new[p[i]] = row[i]
            grid.append(tuple(new))
        return LeviChar(self.ring, self.n, self.e, grid)

    def canonical(self) -> "LeviChar":
        """Orbit representative: each factor's characters sorted by exponents."""
        return LeviChar(self.ring, self.n, self.e,
                        tuple(tuple(sorted(row, key=lambda c: c.exps))
                              for row in self.grid))

    def sort_key(self):
        return tuple(c.exps for row in self.grid for c in row)

    def key(self) -> str:
        return "|".join(";".join(",".join(str(x) for x in c.exps) for c in row)
                        for row in self.grid)

    def is_trivial(self) -> bool:
        return all(c.is_trivial() for row in self.grid for c in row)

    def __eq__(self, other):
        return isinstance(other, LeviChar) and self.grid == other.grid

    def __hash__(self):
        return hash(tuple((id(c.structure), c.exps) for row in self.grid for c in row))

    def __repr__(self):
        return f"LeviChar({self.key()})"


def all_levi_chars(ring: RingSpec, n: int) -> list[LeviChar]:
    """Every character of the diagonal torus, lexicographic in exponent grids."""
    e = ring.unit_exponent()
    structs = unit_structures(ring)
    per_factor = [factor_chars(s, e) for s in structs]
    slots = []
    for f in range(len(ring.locals)):
        slots.extend([per_factor[f]] * n)
    out = []
    for combo in itertools.product(*slots):
        grid = [combo[f * n:(f + 1) * n] for f in range(len(ring.locals))]
        out.append(LeviChar(ring, n, e, grid))
    out.sort(key=LeviChar.sort_key)
    return out


def stabilizer(chi: LeviChar) -> list[PermWord]:
    """All Weyl elements fixing chi."""
    return [w for w in weyl_elements(len(chi.ring.locals), chi.n)
            if chi.acted(w) == chi]


def orbit(chi: LeviChar) -> list[LeviChar]:
    seen = {}
    for w in weyl_elements(len(chi.ring.locals), chi.n):
        img = chi.acted(w)
        seen[img.sort_key()] = img
    return [seen[k] for k in sorted(seen)]


def orbit_reps(ring: RingSpec, n: int) -> list[LeviChar]:
    """Canonical representatives (sorted grids), in lexicographic order."""
    reps = {}
    for chi in all_levi_chars(ring, n):
        c = chi.canonical()
        reps.setdefault(c.sort_key(), c)
    return [reps[k] for k in sorted(reps)]


def conjugacy_class_count(words: list[PermWord]) -> int:
    """Number of conjugacy classes of a finite set closed under conjugation."""
    remaining = set(words)
    count = 0
    while remaining:
        g = remaining.pop()
        cls = {w * g * w.inverse() for w in words}
        remaining -= cls
        count += 1
    return count


# -- partitions and multipartitions -------------------------------------------

def partitions(n: int):
    """Weakly decreasing tuples summing to n (lexicographically descending)."""
    if n == 0:
        yield ()
        return
    def rec(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest
    yield from rec(n, n)


@lru_cache(maxsize=None)
def partition_count(n: int) -> int:
    """p(n) by the standard bounded-part recurrence."""
    if n < 0:
        raise CharError("partition_count needs n >= 0")
    # table[k] = number of partitions of k with parts <= current bound
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for k in range(part, n + 1):
            table[k] += table[k - part]
    return table[n]


def multipartition_count(k: int, n: int) -> int:
    """Number of k-tuples of partitions with total size n."""
    if k < 1:
        raise CharError("multipartition_count needs k >= 1")
    if n < 0:
        raise CharError("multipartition_count needs n >= 0")
    cur = [partition_count(i) for i in range(n + 1)]
    for _ in range(k - 1):
        nxt = [0] * (n + 1)
        for a in range(n + 1):
            pa = partition_count(a)
            for b in range(n + 1 - a):
                nxt[a + b] += pa * cur[b]
        cur = nxt
    return cur[n]


def multipartitions(k: int, n: int):
    """All k-tuples of partitions with total size n (test oracle material)."""
    if k == 1:
        for lam in partitions(n):
            yield (lam,)
        return
    for first_size in range(n + 1):
        for lam in partitions(first_size):
            for rest in multipartitions(k - 1, n - first_size):
                yield (lam,) + rest


def hook_degree(lam) -> int:
    """Degree of the irreducible S_m module labeled by the partition lam."""
    m = sum(lam)
    if m == 0:
        return 1
    conj = [sum(1 for part in lam if part > j) for j in range(lam[0])]
    prod = 1
    for i, part in enumerate(lam):
        for j in range(part):
            prod *= part - j + conj[j] - i - 1
    return math.factorial(m) // prod


def sym_product_degrees(mults) -> tuple[int, ...]:
    """Sorted degree multiset of a product of symmetric groups S_m."""
    degrees = [1]
    for m in mults:
        block = [hook_degree(lam) for lam in partitions(m)]
        degrees = [d * f for d in degrees for f in block]
    return tuple(sorted(degrees))


def _stabilizer_multiplicities(chi: LeviChar) -> list[int]:
    out = []
    for row in chi.grid:
        counts = {}
        for c in row:
            counts[c.exps] = counts.get(c.exps, 0) + 1
        out.extend(sorted(counts.values()))
    return out


def stabilizer_order(chi: LeviChar) -> int:
    return math.prod(math.factorial(m) for m in _stabilizer_multiplicities(chi))


def stabilizer_irrep_count(chi: LeviChar) -> int:
    """Number of irreducibles of the stabilizer of chi in the Weyl group."""
    return math.prod(partition_count(m) for m in _stabilizer_multiplicities(chi))


def stabilizer_degrees(chi: LeviChar) -> tuple[int, ...]:
    """Sorted irreducible degrees of the stabilizer of chi."""
    return sym_product_degrees(_stabilizer_multiplicities(chi))


def principal_series_count(ring: RingSpec, n: int) -> int:
    """Product over local factors of the multipartition counts P_{k_f}(n)."""
    return math.prod(multipartition_count(len(loc.units), n)
                     for loc in ring.locals)
