"""In-memory span and counter recorder, and the wrappers that install it.

The tracer lives in the benchmark, not in the program: it is installed by
replacing public functions and methods of `pseries` with wrappers that
record a span (name, start, end, parent) or bump a counter around the call.
Nothing is installed in an untraced run.
"""

import functools
import json
import sys
import time


class Tracer:
    """Spans and counters of one process, kept in memory until `write`."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.counters = {}
        self._stack = [-1]

    def count(self, name, k=1):
        self.counters[name] = self.counters.get(name, 0) + k

    def open(self, name) -> int:
        i = len(self.starts)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.starts.append(self.clock())
        self.ends.append(None)
        self._stack.append(i)
        return i

    def close(self, i):
        if self._stack.pop() != i:
            raise RuntimeError("spans closed out of order")
        self.ends[i] = self.clock()

    def span(self, name, fn):
        """Wrap fn so that every call records one span named `name`."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)
        return wrapper

    def self_times(self) -> dict:
        """Seconds per span name, each span minus the time its children cover.

        Children of one span run one after another (one thread), so the part
        of the parent they cover is the sum of their durations.
        """
        covered = [0.0] * len(self.starts)
        for i, p in enumerate(self.parents):
            if p >= 0:
                covered[p] += self.ends[i] - self.starts[i]
        out = {}
        for i, name in enumerate(self.names):
            own = self.ends[i] - self.starts[i] - covered[i]
            out[name] = out.get(name, 0.0) + own
        return out

    def write(self, path):
        """Sidecar: span table as parallel arrays, plus the counters."""
        doc = {"names": sorted(set(self.names)), "counters": self.counters}
        ids = {n: k for k, n in enumerate(doc["names"])}
        doc["spans"] = {"name": [ids[n] for n in self.names],
                        "start": self.starts, "end": self.ends,
                        "parent": self.parents}
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _replace(old, new):
    """Rebind every `pseries` module attribute that is `old` to `new`.

    Modules import functions by name, so the defining module is not the only
    place a caller looks them up.
    """
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "pseries" or mod_name.startswith("pseries."):
            for attr, val in list(vars(mod).items()):
                if val is old:
                    setattr(mod, attr, new)


def _wrap_function(module, attr, make):
    fn = getattr(module, attr)
    _replace(fn, make(fn))


def _wrap_method(cls, attr, make):
    setattr(cls, attr, make(cls.__dict__[attr]))


def _counted(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(name)
        return fn(*args, **kwargs)
    return wrapper


# public functions of pseries.chars that the verifier and the CLI call
CHARS_FUNCTIONS = ("all_levi_chars", "orbit_reps", "orbit", "stabilizer",
                   "stabilizer_order", "stabilizer_degrees",
                   "stabilizer_irrep_count", "conjugacy_class_count",
                   "partition_count", "principal_series_count",
                   "unit_structures", "factor_chars")


def install(tracer):
    """Wrap the layer boundaries of an imported `pseries`.

    A missing target raises, so a renamed function fails the traced case
    instead of reading 0.  Returns the EndAlgebra results seen, so the
    caller can sum their block-split attempts.
    """
    from pseries import algebra, chars, cyclo, groups, rings, verify

    span = tracer.span

    _wrap_function(rings, "parse_ring_spec",
                   lambda f: span("rings.parse", f))

    def enumerate_gl(fn):
        inner = span("groups.enumerate_gl", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            table = inner(*args, **kwargs)
            tracer.count("groups.enumerate_gl_calls")
            size_bytes = table.size * table.size * 4
            if size_bytes > tracer.counters.get("groups.table_bytes_max", 0):
                tracer.counters["groups.table_bytes_max"] = size_bytes
            return table
        return wrapper
    _wrap_function(groups, "enumerate_gl", enumerate_gl)
    _wrap_method(groups.GroupTable, "py_rows",
                 lambda f: span("groups.py_rows", f))

    for name in CHARS_FUNCTIONS:
        _wrap_function(chars, name, lambda f: span("chars", f))

    reducer = cyclo.SparseReducer

    def feed(fn):
        inner = span("cyclo.feed", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            grew = inner(*args, **kwargs)
            tracer.count("cyclo.feed_calls")
            if grew:
                tracer.count("cyclo.feed_useful")
            return grew
        return wrapper
    _wrap_method(reducer, "feed", feed)
    _wrap_method(reducer, "contains", lambda f: span("cyclo.lookup", f))
    _wrap_method(reducer, "coords_list", lambda f: span("cyclo.lookup", f))
    _wrap_function(cyclo, "solve_affine", lambda f: _counted(
        tracer, "cyclo.solve_affine_calls", span("cyclo.solve_affine", f)))
    num = cyclo.CycloNum
    _wrap_method(num, "__mul__",
                 lambda f: _counted(tracer, "cyclo.num_mul_calls", f))
    _wrap_method(num, "__rmul__",
                 lambda f: _counted(tracer, "cyclo.num_mul_calls", f))

    def alg_mul(fn):
        inner = span("algebra.mul", fn)

        @functools.wraps(fn)
        def wrapper(self, other):
            if not isinstance(other, algebra.AlgElem):
                return fn(self, other)   # a scaling, not a product
            tracer.count("algebra.mul_calls")
            return inner(self, other)
        return wrapper
    _wrap_method(algebra.AlgElem, "__mul__", alg_mul)

    def dense(fn):
        inner = span("algebra.dense", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = inner(*args, **kwargs)
            tracer.count("algebra.dense_calls")
            if out is None:
                tracer.count("algebra.dense_fallbacks")
            return out
        return wrapper
    _wrap_function(algebra, "_mul_dense", dense)
    for name in ("idempotent_subgroup", "idempotent_char"):
        _wrap_function(algebra, name, lambda f: span("algebra.idempotent", f))

    ver = verify.Verifier
    for attr, name in (("_solve_halmos", "verify.halmos"), ("E", "verify.E"),
                       ("module_reducer", "verify.module_reducer"),
                       ("_sandwich_rank", "verify.sandwich_rank"),
                       ("pind_character", "verify.pind_character"),
                       ("_phi_data", "verify.phi_data")):
        _wrap_method(ver, attr, lambda f, name=name: span(name, f))

    end_algebras = {}

    def end_algebra(fn):
        inner = span("verify.end_algebra", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = inner(*args, **kwargs)
            # results are cached, so keep each object once (alive, by id)
            end_algebras[id(out)] = out
            return out
        return wrapper
    _wrap_method(ver, "end_algebra", end_algebra)
    return end_algebras
