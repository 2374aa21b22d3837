"""Tests of the benchmark harness itself; run with ``python -m pytest bench``."""

import json
import threading
from pathlib import Path

import pytest

from harness import Checks, Span, Tracer, covered_length, self_times, totals, valid_metric_name

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def test_self_time_subtracts_nested_children():
    spans = [
        Span(0, None, "run", 0.0, 10.0),
        Span(1, 0, "flux", 1.0, 4.0),
        Span(2, 1, "hll", 1.5, 3.0),
        Span(3, 0, "limiter", 5.0, 7.0),
        Span(4, 3, "scan", 5.5, 6.0),
        Span(5, 3, "scan", 6.5, 6.75),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 3.0 - 2.0)
    assert own[1] == pytest.approx(3.0 - 1.5)
    assert own[2] == pytest.approx(1.5)
    assert own[3] == pytest.approx(2.0 - 0.5 - 0.25)
    t = totals(spans)
    assert t.self_time["scan"] == pytest.approx(0.75)
    assert t.calls["scan"] == 2
    # self times of a tree without concurrency add up to the top-level span
    assert sum(own.values()) == pytest.approx(t.top_level) == pytest.approx(10.0)


def test_self_time_merges_overlapping_children_from_worker_threads():
    spans = [
        Span(0, None, "solve", 0.0, 4.0),
        Span(1, 0, "eval", 0.5, 2.5),
        Span(2, 0, "eval", 1.0, 3.0),
    ]
    assert covered_length([(0.5, 2.5), (1.0, 3.0)]) == pytest.approx(2.5)
    assert self_times(spans)[0] == pytest.approx(1.5)


def test_counts_add_up_and_max_keys_take_the_maximum():
    spans = [
        Span(0, None, "limiter", 0.0, 1.0, {"limited": 2, "max_theta": 0.3}),
        Span(1, None, "limiter", 1.0, 2.0, {"limited": 5, "max_theta": 0.1}),
    ]
    t = totals(spans)
    assert t.counts["limiter"]["limited"] == 7
    assert t.maxima["limiter"]["max_theta"] == pytest.approx(0.3)


def test_tracer_nests_wrapped_calls_and_restores_them():
    tracer = Tracer()

    class Module:
        @staticmethod
        def inner(n):
            return list(range(n))

        @staticmethod
        def outer(n):
            return Module.inner(n)

    original = Module.inner
    hooks = [
        (Module, "outer", "outer", None),
        (Module, "inner", "inner", lambda args, kwargs, result: {"items": len(result)}),
    ]
    with tracer.installed(hooks):
        assert Module.outer(3) == [0, 1, 2]
    assert Module.inner is original
    spans = {s.name: s for s in tracer.take()}
    assert spans["inner"].parent == spans["outer"].sid
    assert spans["outer"].parent is None
    assert spans["inner"].counts == {"items": 3}
    assert tracer.take() == []


def test_worker_thread_spans_hang_under_the_caller():
    tracer = Tracer()
    work = tracer.wrap(lambda: None, "work")

    def start_workers():
        threads = [threading.Thread(target=work) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()

    tracer.wrap(start_workers, "pool")()
    spans = tracer.take()
    pool = next(s for s in spans if s.name == "pool")
    assert [s.parent for s in spans if s.name == "work"] == [pool.sid, pool.sid]


@pytest.mark.parametrize(
    "name, ok",
    [
        ("wall_s", True),
        ("fv.node_fluxes_per_s", True),
        ("ipm.max-iterations", True),
        ("2d.steps", True),
        ("_private", False),
        (".hidden", False),
        ("rate/s", False),
        ("with space", False),
        ("a" * 64, True),
        ("a" * 65, False),
        ("", False),
    ],
)
def test_metric_name_rule(name, ok):
    assert valid_metric_name(name) is ok


def test_benchmark_metric_names_follow_the_rule_and_are_unique():
    spec = json.loads(BENCHMARK.read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(valid_metric_name(n) for n in names)
    assert len(names) == len(set(names))


def test_fail_ratio_counts_failed_checks_and_raising_runs():
    checks = Checks()
    assert checks.run("solver", lambda: 42) == 42
    assert checks.check("admissible", True)
    assert not checks.check("residual <= tol", False, "2e-7")

    def broken():
        raise ValueError("inadmissible state")

    assert checks.run("broken solver", broken) is None
    assert checks.attempted == 4
    assert checks.failed == 2
    assert checks.fail_ratio == pytest.approx(0.5)
    assert checks.failures[0] == "residual <= tol: 2e-7"
    assert "ValueError: inadmissible state" in checks.failures[1]


def test_emitted_metrics_match_benchmark_json():
    import layers
    import run

    spec = json.loads(BENCHMARK.read_text())
    emitted = set(layers.body_metrics(totals([]), 1.0)) | set(layers.setup_metrics(totals([])))
    emitted.add("trace.overhead")
    assert emitted == {m["name"] for m in spec["per_layer"]}
    for m in spec["end_to_end"]:
        assert run.E2E_UNITS[m["name"]] == m["unit"]
