"""Exact verification toolkit for principal series of GL_n over finite
commutative rings."""

from .algebra import AlgElem, idempotent_char, idempotent_subgroup
from .chars import (LeviChar, UnitChar, all_levi_chars, multipartition_count,
                    orbit, orbit_reps, partition_count, principal_series_count,
                    stabilizer, stabilizer_degrees)
from .cyclo import CycloNum, SparseReducer, solve_affine
from .groups import (GroupTable, PermWord, SizeGuardError, enumerate_gl,
                     factor_ulv, weyl_matrix)
from .rings import LocalRing, RingSpec, RingSpecError, parse_ring_spec
from .verify import (CheckResult, EndAlgebra, HalmosElement, Verifier,
                     VerifyAlarm, VerifyReport)

__version__ = "0.1.0"

__all__ = [
    "AlgElem", "CheckResult", "CycloNum", "EndAlgebra", "GroupTable",
    "HalmosElement", "LeviChar", "LocalRing", "PermWord", "RingSpec",
    "RingSpecError", "SizeGuardError", "SparseReducer", "UnitChar",
    "Verifier", "VerifyAlarm", "VerifyReport", "all_levi_chars",
    "enumerate_gl", "factor_ulv", "idempotent_char", "idempotent_subgroup",
    "multipartition_count", "orbit", "orbit_reps", "parse_ring_spec",
    "partition_count", "principal_series_count", "solve_affine", "stabilizer",
    "stabilizer_degrees", "weyl_matrix", "__version__",
]
