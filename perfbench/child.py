"""One benchmark case in a fresh process.

Usage: python3 child.py SPEC_JSON, with PYTHONPATH pointing at the `src`
directory of the checkout.  SPEC_JSON names the command (verify or count),
ring, n, seed, optional --only ids, whether to trace, and the files for the
result and the trace sidecar.  The child drives `pseries` through the calls
`pseries.cli` makes and writes its marks (monotonic clock, comparable with
the parent's) and outputs to the result file.

Before anything else the child times a fixed reference loop, so that the
parent can tell how fast the host ran at that moment.
"""

import json
import resource
import sys
import time
import traceback
from fractions import Fraction


def reference_s() -> float:
    """Seconds a fixed loop of Fraction arithmetic takes.

    The loop does the same kind of work as the program (pure-Python rational
    arithmetic), so its time tracks the speed the host gives that work.
    """
    t0 = time.perf_counter()
    s = Fraction(0)
    for i in range(1, 12000):
        s += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
    return time.perf_counter() - t0


def main(spec) -> dict:
    ref_before = reference_s()
    tracer = end_algebras = None
    if spec["trace"]:
        from tracer import Tracer, install
        tracer = Tracer()
        end_algebras = install(tracer)
    import pseries

    out = {"error": None, "t_ready": None, "t_done": None}
    try:
        ring = pseries.parse_ring_spec(spec["ring"])
        v = pseries.Verifier(ring, spec["n"], spec["seed"])
        out["t_ready"] = time.monotonic()
        out["rss_after_setup_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if spec["command"] == "verify":
            only = spec["only"].split(",") if spec["only"] else None
            report = v.run_checks(only=only)
            out["t_done"] = time.monotonic()
            t0 = time.perf_counter()
            out["report"] = report.to_json()
            out["format_s"] = time.perf_counter() - t0
            out["millis"] = {c.id: c.millis for c in report.checks}
        else:
            pipeline, formula = v.count_principal_series()
            out["t_done"] = time.monotonic()
            t0 = time.perf_counter()
            # the payload `pseries count --format json` prints; a guard
            # refusal raised above, so guard is None here
            payload = {"ring": ring.canonical_str, "n": spec["n"],
                       "seed": spec["seed"], "formula": formula,
                       "pipeline": pipeline, "match": pipeline == formula,
                       "guard": None}
            out["report"] = json.dumps(payload, sort_keys=True, indent=2) + "\n"
            out["format_s"] = time.perf_counter() - t0
            out["millis"] = {}
    except (pseries.VerifyAlarm, pseries.SizeGuardError) as ex:
        out["error"] = f"{type(ex).__name__}: {ex}"
    except Exception as ex:  # any other failure still ends as a failed case
        traceback.print_exc()
        out["error"] = f"{type(ex).__name__}: {ex}"
    if tracer is not None:
        tracer.count("verify.end_algebra_attempts",
                     sum(ea.attempts for ea in end_algebras.values()))
        out["self_times"] = tracer.self_times()
        out["counters"] = tracer.counters
        tracer.write(spec["sidecar"])
    out["ref_s"] = [ref_before, reference_s()]
    return out


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    result = main(spec)
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
