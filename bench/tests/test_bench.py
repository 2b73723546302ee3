"""Tests of the benchmark itself: generators, driver, tracer, failure
accounting. Run with `python -m pytest bench/tests -q`."""

from __future__ import annotations

import importlib

import pytest

import driver
import run
import tracer
import workloads
from folbridge import transforms
from folbridge.parser import parse_term
from folbridge.terms import alpha_eq


@pytest.mark.parametrize("workload", sorted(workloads.SIZES))
@pytest.mark.parametrize("index", [0, 1, 2])
def test_generators_are_seeded(workload, index):
    size, text = workloads.problem(workload, 5, index)
    assert (size, text) == workloads.problem(workload, 5, index)
    assert text != workloads.problem(workload, 6, index)[1]
    assert size == workloads.SIZES[workload][index]


def test_poly_lemmas_duplicates_are_alpha_equal():
    r = driver.preprocess(workloads.problem("poly_lemmas", 0, 2)[1])
    assert r.dropped >= 40 // workloads.DUPLICATE_EVERY


def test_driver_reproduces_hd_error_listing():
    text = workloads.PRELUDE + "goal forall (l : list Int), hd_error Int l = hd_error Int l.\n"
    r = driver.preprocess(text)
    env = r.state.env
    want_nil = parse_term("forall (A : Type), hd_error A (nil A) = none A", env)
    want_cons = parse_term(
        "forall (A : Type) (x : A) (l : list A),"
        " hd_error A (cons A x l) = some A x", env)
    stmts = [h.statement for h in r.state.hypotheses]
    assert any(alpha_eq(s, want_nil) for s in stmts)
    assert any(alpha_eq(s, want_cons) for s in stmts)
    assert len(r.lines) == len(stmts)


def _bound_attributes():
    out = {}
    for module, attr_path, _layer, _extra in tracer.BINDINGS:
        owner, attr = tracer._resolve(module, attr_path)
        out[module, attr_path] = vars(owner)[attr]
    return out


def test_tracer_restores_every_binding():
    before = _bound_attributes()
    tr = tracer.Tracer()
    with tracer.installed(tr):
        assert all(_bound_attributes()[k] is not v for k, v in before.items())
        with tr.root(tracer.PREPROCESS, 0):
            driver.preprocess(workloads.problem("unfold_defs", 0, 0)[1])
    assert _bound_attributes() == before
    with pytest.raises(ZeroDivisionError):
        with tracer.installed(tracer.Tracer()):
            1 / 0
    after = _bound_attributes()
    assert all(after[k] is v for k, v in before.items())


def test_self_times_on_hand_built_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3].
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    assert tracer.self_times(parent, start, end) == [3.0, 2.0, 1.0, 4.0]


def test_layer_self_times_account_for_traced_preprocessing():
    tr = tracer.Tracer()
    with tracer.installed(tr):
        for i in range(2):
            with tr.root(tracer.PREPROCESS, i):
                driver.preprocess(workloads.problem("unfold_defs", 1, i)[1])
    m = tr.layer_metrics(2)
    layers = sum(m[f"{layer}.s"] for _, _, layer, _ in tracer.BINDINGS
                 if layer not in tracer.CHECK_LAYERS)
    assert m["trace.preprocess_s"] > 0
    assert layers + m["driver.s"] == pytest.approx(m["trace.preprocess_s"], rel=1e-9)
    assert m["transforms.get_def.calls"] > 0
    assert m["transforms.expand.not_applicable"] > 0


def test_recursion_error_is_counted_not_raised(monkeypatch):
    runner = run.Runner("unfold_defs", 0)

    def deep(_text):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(runner.driver, "preprocess", deep)
    runner.run_one(0)
    runner.run_one(1)
    assert runner.samples == []
    assert len(runner.failures) == 2
    assert "RecursionError" in runner.failures[0]


def test_golden_mismatch_is_a_failure():
    runner = run.Runner("unfold_defs", 0)
    assert runner.golden, "the golden seed has a golden file"
    runner.golden[0] = runner.golden[0][:-1]
    runner.run_one(0)
    runner.run_one(1)
    assert len(runner.failures) == 1 and "golden" in runner.failures[0]
    assert len(runner.samples) == 1


def test_untraced_run_does_not_import_tracer():
    import sys
    sys.modules.pop("tracer", None)
    importlib.reload(run)
    runner = run.Runner("unfold_defs", 0)
    runner.run_one(0)
    assert "tracer" not in sys.modules
    sys.modules["tracer"] = tracer


def test_tail_is_the_mean_beyond_a_percentile_with_ten_samples_beyond():
    times = [float(i) for i in range(1, 43)]
    assert run.tail(times) == (75, sum(range(33, 43)) / 10)
    assert run.tail(times[:20]) == (50, sum(range(11, 21)) / 10)
    assert run.tail(times[:15]) == (100, 15.0)
    assert run.tail(times * 3)[0] == 75


def test_not_applicable_counts_transform_errors():
    tr = tracer.Tracer()
    with tracer.installed(tr):
        with tr.root(tracer.PREPROCESS, 0):
            state = transforms.ProofState(driver.parser.parse_problem(
                workloads.PRELUDE + "goal true = true.\n").env, [], None)
            with pytest.raises(transforms.TransformError):
                transforms.get_def(state, "nope")
    assert tr.counts[tracer.PREPROCESS, "transforms.get_def.not_applicable"] == 1


def test_benchmark_json_lists_every_reported_metric():
    import json
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.UNITS)
    assert all(m["unit"] == run.UNITS[m["name"]] for m in spec["end_to_end"])
    assert [m["name"] for m in spec["per_layer"]] == tracer.metric_names()
    assert all(m["unit"] == run._layer_unit(m["name"]) for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == sorted(workloads.SIZES)
