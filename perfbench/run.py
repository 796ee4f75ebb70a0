"""Benchmark of pseries: time to verdict, set-up time and peak memory.

Usage, from the root of a checkout (every workload in turn):

    for w in verify-mixed count-cyclo tabulate; do
        python3 perfbench/run.py --workload $w --seed 0 --seconds 30 --trace 0
    done

Each run prints wall_s (child start to exit), setup_s (child start until
`Verifier(...)` returns), compute_s (until `run_checks` or
`count_principal_series` returns), peak_rss_mb (largest child) and
fail_share (failed / attempted cases; the JSON line carries it as
pass_share = 1 - fail_share, a metric that is never 0), times summed over
the cases of a pass.

One client runs the cases of a workload one at a time (a closed loop), each
in a fresh child process (`child.py`) that drives `pseries` through the calls
`pseries.cli` makes.  A pass runs every case once; passes repeat while the
next one is expected to end within --seconds.

The host is shared, and its speed for the same pure-Python work changes by
up to 3x over seconds to minutes, on either CPU and in CPU time as well as
wall time.  So each child also times a fixed reference loop, before set-up
and after its result, outside the times above.  Every time is scaled by
REF_S over that child's mean reference time: it reads as on a host where the
loop takes REF_S seconds.  The unscaled fastest wall time is printed too.
The three times are means over the faster half (by wall time) of the
complete passes whose cases all passed, with the median and highest over
those passes printed beside them.

Each case is checked: a verify report must hold its checks, all passing,
and a count must give the expected number by both routes; an alarm, guard
refusal, exception or mismatch fails the case and the run goes
on.  Reports must also be byte-identical to earlier runs of the same source
and seed in this checkout.

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1 the run alternates untraced and traced passes for
--seconds and reports the per-layer metrics instead: medians over the traced
passes of the spans and counters that `tracer.py` records in the children
(sidecars under .perfbench-out/; times scaled as above), and the traced over
the untraced median wall time as trace.overhead_ratio.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
OUT = ROOT / ".perfbench-out"

# one run of the benchmark must end well inside 180 s
HARD_LIMIT_S = 170.0

# Times are reported at the host speed at which the child's reference loop
# (child.reference_s) takes this long.
REF_S = 0.05

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")


@dataclass(frozen=True)
class Case:
    command: str                 # "verify" or "count"
    ring: str
    n: int
    only: str | None = None      # verify: --only ids
    checks: int = 0              # verify: checks the report must hold, all passing
    count: int | None = None     # count: what pipeline and formula must both give

    @property
    def slug(self) -> str:
        return "".join(ch if ch.isalnum() else "_" for ch in self.label)

    @property
    def label(self) -> str:
        return f"{self.command} {self.ring} n={self.n}" + (
            f" --only {self.only}" if self.only else "")


# The cases of each workload, one pass.  A pass takes a few seconds, so one
# run makes several, and the faster half of them skips the host's slow spells.
WORKLOADS = {
    # A non-field local ring and a product ring, all checks.  Arithmetic is
    # rational (phi(e) = 1); time goes to group-algebra products (thm1),
    # SparseReducer (lem3.5, thm1, thm2) and solve_affine (lem3.3).
    "verify-mixed": (Case("verify", "Z/4", 2, checks=17),
                     Case("verify", "Z/2xZ/2", 2, checks=18)),
    # GF(4): e = 3, phi = 2, the smallest field with real cyclotomic
    # products, spent in module_reducer and end_algebra, so a shortcut that
    # helps rationals only, or that slows the cyclotomic path, shows here.
    "count-cyclo": (Case("count", "GF(2,2)", 2, count=9),),
    # Cheap checks on a field (|G| = 480, tabulated element by element) and
    # on the largest product-ring group that keeps a pass short (|G| = 1080,
    # a 4.7 MB Cayley table): enumerate_gl, the table and py_rows dominate
    # time and memory; no elimination.
    "tabulate": tuple(Case("verify", ring, 2,
                           only="prop3.2,lem3.4,lem3.10,lem3.12", checks=9)
                      for ring in ("GF(5,1)", "Z/2xGF(2,2)")),
}

CHECK_IDS = ("prop3.2a", "prop3.2b", "prop3.2c", "prop3.2d", "prop3.2e",
             "prop3.2f", "lem3.3", "lem3.4", "lem3.5", "prop3.6", "prop3.7",
             "thm1", "thm2", "lem3.10", "lem3.12", "cor2.3", "intro", "lem3.1")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "compute_s": "s",
                    "peak_rss_mb": "MB", "pass_share": "share"}

# per-layer metric -> the span whose self time it sums, in seconds
SPAN_METRICS = {
    "rings.parse_s": "rings.parse",
    "groups.enumerate_gl_s": "groups.enumerate_gl",
    "groups.py_rows_s": "groups.py_rows",
    "chars.s": "chars",
    "cyclo.feed_s": "cyclo.feed",
    "cyclo.lookup_s": "cyclo.lookup",
    "cyclo.solve_affine_s": "cyclo.solve_affine",
    "algebra.mul_s": "algebra.mul",
    "algebra.dense_s": "algebra.dense",
    "algebra.idempotent_s": "algebra.idempotent",
    "verify.halmos_s": "verify.halmos",
    "verify.E_s": "verify.E",
    "verify.module_reducer_s": "verify.module_reducer",
    "verify.sandwich_rank_s": "verify.sandwich_rank",
    "verify.pind_character_s": "verify.pind_character",
    "verify.end_algebra_s": "verify.end_algebra",
    "verify.phi_data_s": "verify.phi_data",
}
COUNTER_METRICS = ("groups.enumerate_gl_calls", "cyclo.feed_calls",
                   "cyclo.feed_useful", "cyclo.solve_affine_calls",
                   "cyclo.num_mul_calls", "algebra.mul_calls",
                   "algebra.dense_calls", "algebra.dense_fallbacks",
                   "verify.end_algebra_attempts")


def source_digest() -> str:
    """sha256 over the program's sources: the identity of the code measured."""
    h = hashlib.sha256()
    for path in sorted((SRC / "pseries").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def environment() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        commit = None
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {"python": platform.python_version(), "numpy": numpy,
            "nproc": os.cpu_count(), "cpu": cpu,
            "commit": commit,
            "source_sha256": source_digest()}


class Runner:
    """Runs cases in child processes and keeps the run's bookkeeping."""

    def __init__(self, seed: int, deadline: float, src_digest: str):
        self.seed = seed
        self.deadline = deadline
        self.src_digest = src_digest
        self.attempted = 0
        self.failed = 0
        self.timed_out = False
        self._serial = 0
        self.env = dict(os.environ, PYTHONPATH=str(SRC),
                        **{k: "1" for k in THREAD_VARS})

    def spawn(self, case: Case, trace: bool) -> dict:
        """Run one child; marks are relative to the moment before spawning."""
        self._serial += 1
        stem = OUT / f"{os.getpid()}-{self._serial}"
        result_path = stem.with_suffix(".result.json")
        spec = {"command": case.command, "ring": case.ring, "n": case.n,
                "seed": self.seed, "only": case.only, "trace": trace,
                "result": str(result_path),
                "sidecar": str(OUT / f"trace-seed{self.seed}-{case.slug}.json")}
        t0 = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(CHILD), json.dumps(spec)],
                                cwd=ROOT, env=self.env,
                                stdout=subprocess.DEVNULL)
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [],
                                        max(self.deadline - time.monotonic(), 0))
            if not ready:
                self.timed_out = True
                proc.kill()
            # reap here, so the rusage is this child's alone
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        t_exit = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out = {"wall": t_exit - t0, "rss_mb": usage.ru_maxrss / 1024.0,
               "exit": proc.returncode}
        try:
            out.update(json.loads(result_path.read_text()))
            result_path.unlink()
        except (OSError, ValueError):
            out["error"] = f"no result (exit {proc.returncode})"
        if out.get("error") is None and proc.returncode != 0:
            out["error"] = f"exit {proc.returncode}"
        # the child's reference loops are the benchmark's work, not the
        # program's: one runs before set-up, one after the result
        before, after = out.get("ref_s", (0.0, 0.0))
        out["wall"] -= before + after
        ready_at = out.get("t_ready")
        out["setup"] = ready_at - t0 - before if ready_at else out["wall"]
        out["scale"] = 2 * REF_S / (before + after) if before else 1.0
        done_at = out.get("t_done")
        out["compute"] = done_at - ready_at if ready_at and done_at else 0.0
        return out

    def run_case(self, case: Case, trace: bool = False) -> dict:
        out = self.spawn(case, trace)
        self.attempted += 1
        out["failure"] = out["error"] or check_output(case, out) or \
            self.check_repeatable(case, out["report"])
        if out["failure"]:
            self.failed += 1
            print(f"FAILED {case.label} seed={self.seed}: {out['failure']}",
                  file=sys.stderr)
        return out

    def run_pass(self, cases, trace: bool = False) -> list:
        return [self.run_case(c, trace) for c in cases if not self.timed_out]

    def check_repeatable(self, case: Case, report: str) -> str | None:
        """Same source, case and seed must give the same report bytes."""
        key = f"{self.src_digest}|{case.label}|{self.seed}"
        digest = hashlib.sha256(report.encode()).hexdigest()
        return remember(OUT / "reports.json", key, digest,
                        "report bytes differ from an earlier run of this seed")


def check_output(case: Case, out: dict) -> str | None:
    """Why the case's output is wrong, or None when it is right."""
    report = json.loads(out["report"])
    if case.command == "verify":
        checks = report["checks"]
        bad = [c["id"] for c in checks if c["status"] != "pass"]
        if bad:
            return f"checks failed: {', '.join(bad)}"
        if len(checks) != case.checks:
            return f"{len(checks)} checks reported, expected {case.checks}"
        return None
    if not (report["pipeline"] == report["formula"] == case.count
            and report["match"] is True):
        return (f"pipeline {report['pipeline']}, formula {report['formula']},"
                f" expected {case.count}")
    return None


def remember(path: Path, key: str, value, complaint: str) -> str | None:
    """Store value under key in a JSON file, or compare with the stored one."""
    try:
        seen = json.loads(path.read_text())
    except (OSError, ValueError):
        seen = {}
    if key in seen:
        return None if seen[key] == value else complaint
    seen[key] = value
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(seen, sort_keys=True, indent=1))
    os.replace(tmp, path)
    return None


def scaled(cases: list, key: str = "wall") -> float:
    """A time summed over cases, each scaled to the reference host speed."""
    return sum(o[key] * o["scale"] for o in cases)


def end_to_end(runner: Runner, cases, seconds: float):
    passes, lengths = [], []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        passes.append(runner.run_pass(cases))
        lengths.append(time.monotonic() - t0)
        if (runner.timed_out
                or time.monotonic() - start + statistics.median(lengths) > seconds):
            break
    # Only complete passes whose cases all passed are timed: a cut or failed
    # pass ends early and would read too fast.
    timed = [p for p in passes
             if len(p) == len(cases) and not any(o["failure"] for o in p)]
    sums = [{key: scaled(p, key) for key in ("wall", "setup", "compute")}
            for p in timed or passes]
    # Scaling removes most of the host's changes of speed; what is left
    # (other tenants preempting a pass) only ever slows a pass down.  So the
    # times are means over the faster half of the passes, by wall time, all
    # three over the same passes; the median and the slowest are printed too.
    fast = sorted(sums, key=lambda t: t["wall"])[:max(1, len(sums) // 2)]
    metrics = {f"{key}_s": statistics.mean(t[key] for t in fast)
               for key in ("wall", "setup", "compute")}
    metrics["peak_rss_mb"] = max((o["rss_mb"] for p in passes for o in p),
                                 default=0.0)
    metrics["pass_share"] = 1 - runner.failed / max(runner.attempted, 1)
    info = {"passes": len(passes), "timed": len(timed), "fast": len(fast),
            "unscaled wall_s min": min(sum(o["wall"] for o in p)
                                       for p in timed or passes)}
    for key in ("wall", "setup", "compute"):
        v = [t[key] for t in sums]
        info[f"{key}_s median"] = statistics.median(v)
        info[f"{key}_s max"] = max(v)
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, info


def layer_metrics(traced: list):
    """Per-layer metrics of one traced pass, and the pass's raw counters."""
    self_times, counters, millis = {}, {}, {}
    for o in traced:
        for name, s in o.get("self_times", {}).items():
            self_times[name] = self_times.get(name, 0.0) + s * o["scale"]
        for name, k in o.get("counters", {}).items():
            if name == "groups.table_bytes_max":
                counters[name] = max(counters.get(name, 0), k)
            else:
                counters[name] = counters.get(name, 0) + k
        for cid, ms in o.get("millis", {}).items():
            millis[cid] = millis.get(cid, 0.0) + ms * o["scale"]
    metrics = {}
    for metric, span in SPAN_METRICS.items():
        metrics[metric] = (self_times.get(span, 0.0), "s")
    for name in COUNTER_METRICS:
        metrics[name] = (counters.get(name, 0), "count")
    calls = counters.get("cyclo.feed_calls", 0)
    metrics["cyclo.feed_useful_ratio"] = (
        counters.get("cyclo.feed_useful", 0) / calls if calls else 0.0, "ratio")
    metrics["groups.table_mb"] = (
        counters.get("groups.table_bytes_max", 0) / 2 ** 20, "MB")
    metrics["groups.rss_after_setup_mb"] = (
        max((o.get("rss_after_setup_mb") or 0.0 for o in traced), default=0.0),
        "MB")
    for cid in CHECK_IDS:
        metrics[f"check.{cid}_s"] = (millis.get(cid, 0.0) / 1000.0, "s")
    metrics["cli.format_s"] = (
        sum(o.get("format_s", 0.0) * o["scale"] for o in traced), "s")
    return metrics, counters


def per_layer(runner: Runner, cases, seconds: float):
    """Untraced and traced passes in turn; medians over the traced passes."""
    plain, traced, lengths = [], [], []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        plain.append(scaled(runner.run_pass(cases)))
        traced.append(runner.run_pass(cases, trace=True))
        lengths.append(time.monotonic() - t0)
        if (runner.timed_out
                or time.monotonic() - start + statistics.median(lengths) > seconds):
            break
    results = [layer_metrics(t) for t in traced]
    # counters are deterministic functions of source, cases and seed, so they
    # must agree between this run's traced passes and with earlier runs
    counters = results[0][1]
    labels = "+".join(c.label for c in cases)
    runner.attempted += 1
    mismatch = ("counters differ between traced passes"
                if any(c != counters for _, c in results) else
                remember(OUT / "counters.json",
                         f"{runner.src_digest}|{labels}|{runner.seed}", counters,
                         "counters differ from an earlier traced run of this seed"))
    if mismatch:
        runner.failed += 1
        print(f"FAILED {labels} seed={runner.seed}: {mismatch}",
              file=sys.stderr)
    metrics = {name: (statistics.median(m[name][0] for m, _ in results), unit)
               for name, (_, unit) in results[0][0].items()}
    plain_wall = statistics.median(plain)
    traced_wall = statistics.median(scaled(t) for t in traced)
    metrics["trace.overhead_ratio"] = (
        traced_wall / plain_wall if plain_wall else 0.0, "ratio")
    return metrics, {"pairs": len(plain), "plain_wall_s": plain_wall,
                     "traced_wall_s": traced_wall}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "pseries" / "__init__.py").is_file():
        print(f"perfbench: no pseries sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + HARD_LIMIT_S
    OUT.mkdir(exist_ok=True)
    env = environment()
    print("env: " + json.dumps(env, sort_keys=True))
    runner = Runner(args.seed, deadline, env["source_sha256"])
    cases = WORKLOADS[args.workload]
    if args.trace:
        metrics, info = per_layer(runner, cases, args.seconds)
    else:
        metrics, info = end_to_end(runner, cases, args.seconds)
    print(f"workload {args.workload}  seed {args.seed}  "
          + "  ".join(f"{k} {v:.6g}" for k, v in info.items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {unit}")
    # a run cut before its first case counts as one failed case
    attempted = max(runner.attempted, 1)
    failed = runner.failed if runner.attempted else 1
    print(f"  {'fail_share':<28} {failed / attempted:>14.6g} share"
          f"  ({failed} of {attempted} cases failed)")
    if runner.timed_out:
        print(f"perfbench: run stopped at the {HARD_LIMIT_S:.0f} s limit",
              file=sys.stderr)
    result = {"correct": failed == 0 and not runner.timed_out,
              "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
