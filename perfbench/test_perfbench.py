"""Tests of the benchmark's own pieces: span arithmetic and the case gate."""

import json
import time
import types

import pytest

import run
import tracer
from tracer import Tracer


def test_self_time_subtracts_direct_children_only():
    # a [0,10] holds b [1,5] (which holds c [2,4]) and a second b [6,9]
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 9.0, 10.0])
    t = Tracer(clock=lambda: next(ticks))
    a = t.open("a")
    b = t.open("b")
    c = t.open("c")
    t.close(c)
    t.close(b)
    b2 = t.open("b")
    t.close(b2)
    t.close(a)
    assert t.parents == [-1, 0, 1, 0]
    assert t.self_times() == {"a": 3.0, "b": 5.0, "c": 2.0}


def test_wrapped_calls_nest_and_self_times_add_up():
    t = Tracer()
    inner = t.span("inner", lambda: time.sleep(0.01))

    def body():
        inner()
        inner()
    outer = t.span("outer", body)
    outer()
    times = t.self_times()
    total = t.ends[0] - t.starts[0]
    assert t.parents == [-1, 0, 0]
    assert times["inner"] >= 0.02
    assert times["outer"] + times["inner"] == pytest.approx(total)


def test_spans_must_close_in_order():
    t = Tracer()
    a = t.open("a")
    t.open("b")
    with pytest.raises(RuntimeError):
        t.close(a)


def test_missing_wrap_target_raises():
    class Table:
        pass
    with pytest.raises(KeyError):
        tracer._wrap_method(Table, "py_rows", lambda f: f)
    with pytest.raises(AttributeError):
        tracer._wrap_function(types.ModuleType("groups"), "enumerate_gl",
                              lambda f: f)


def test_wrong_expected_count_fails_the_case(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    runner = run.Runner(0, time.monotonic() + 120, "test")
    right = runner.run_case(run.Case("count", "GF(2,1)", 2, count=2))
    wrong = runner.run_case(run.Case("count", "GF(2,1)", 2, count=3))
    assert right["failure"] is None
    assert right["scale"] == pytest.approx(2 * run.REF_S / sum(right["ref_s"]))
    assert "expected 3" in wrong["failure"]
    assert (runner.attempted, runner.failed) == (2, 1)


def test_times_come_from_the_fastest_clean_pass_at_reference_speed():
    def case(wall, setup, scale=1.0, failure=None):
        return {"wall": wall, "setup": setup, "compute": wall - setup,
                "scale": scale, "rss_mb": 30.0, "failure": failure}
    passes = iter([
        [case(2.5, 0.2), case(2.5, 1.5)],
        [case(2.0, 0.5), case(0.1, 0.1, failure="exit 1")],
        # slowest as measured, but the host ran at half the reference speed
        [case(3.0, 1.0, 0.5), case(3.0, 1.0, 0.5)],
        [case(1.0, 0.1)],                    # cut by the hard limit
    ])

    class Stub:
        timed_out = False
        attempted, failed = 7, 1

        def run_pass(self, cases):
            p = next(passes)
            self.timed_out = len(p) < len(cases)
            return p

    metrics, info = run.end_to_end(Stub(), ("a", "b"), seconds=100)
    assert (info["passes"], info["timed"]) == (4, 2)
    assert metrics["wall_s"][0] == pytest.approx(3.0)
    assert metrics["setup_s"][0] == pytest.approx(1.0)
    assert metrics["compute_s"][0] == pytest.approx(2.0)


def test_changed_report_bytes_fail_the_case(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    runner = run.Runner(0, time.monotonic() + 120, "test")
    case = run.Case("count", "GF(2,1)", 2, count=2)
    assert runner.check_repeatable(case, "a report\n") is None
    assert runner.check_repeatable(case, "a report\n") is None
    assert runner.check_repeatable(case, "another report\n") is not None


def test_metrics_match_benchmark_json(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    tiny = (run.Case("count", "GF(2,1)", 2, count=2),)
    runner = run.Runner(0, time.monotonic() + 120, "test")
    e2e, _ = run.end_to_end(runner, tiny, seconds=0)
    layers, _ = run.per_layer(runner, tiny, seconds=0)
    assert runner.failed == 0
    assert {k: u for k, (_, u) in e2e.items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: u for k, (_, u) in layers.items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_counters_must_repeat_across_traced_runs(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    tiny = (run.Case("count", "GF(2,1)", 2, count=2),)

    def traced_run():
        runner = run.Runner(0, time.monotonic() + 120, "test")
        run.per_layer(runner, tiny, seconds=0)
        return runner.failed

    assert traced_run() == 0
    assert traced_run() == 0
    store = tmp_path / "counters.json"
    seen = json.loads(store.read_text())
    for counters in seen.values():
        counters["cyclo.feed_calls"] += 1
    store.write_text(json.dumps(seen))
    assert traced_run() == 1
