"""Tests of the benchmark itself (not of zenodrive); they run no workload.

Run with ``python3 -m pytest benchmarks/selftest.py``.  The file name keeps
these tests out of the repository's own test run.
"""
from __future__ import annotations

import copy
import json
import signal
import threading
import time
from pathlib import Path

import pytest

import calibrate
import check
import layers
import run
import workloads
from spans import ROOT, Tracer

REPO = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_reference_matches_itself(workload):
    variant = check.load_variants(workload)[0]
    expected = variant["outputs"]
    attempted, failed, notes = check.compare(expected, copy.deepcopy(expected))
    assert attempted == check.expected_rows(expected) > 0
    assert failed == 0, notes


@pytest.mark.parametrize("workload, table, column", [
    ("zeno-geodesic", "zeno.csv", "I_exact"),
    ("crossover-linear", "compare.csv", "I_coherent"),
    ("coherent-sweep", "trace", "fidelity"),
])
def test_perturbed_row_counts_as_failed(workload, table, column):
    variant = check.load_variants(workload)[1]
    expected = variant["outputs"]
    actual = copy.deepcopy(expected)
    header = actual[table]["header"]
    row = actual[table]["rows"][len(actual[table]["rows"]) // 2]
    row[header.index(column)] *= 1.0 + 1e-4
    attempted, failed, _ = check.compare(expected, actual)
    assert (attempted, failed) == (check.expected_rows(expected), 1)


def test_missing_and_extra_rows_count_as_failed():
    expected = check.load_variants("zeno-geodesic")[0]["outputs"]
    rows = expected["zeno.csv"]["rows"]
    short = {"zeno.csv": {"header": expected["zeno.csv"]["header"], "rows": rows[:-1]}}
    assert check.compare(expected, short)[:2] == (len(rows), 1)
    long = {"zeno.csv": {"header": expected["zeno.csv"]["header"], "rows": rows + rows[:2]}}
    assert check.compare(expected, long)[:2] == (len(rows) + 2, 2)


def test_wrong_integer_fails():
    expected = check.load_variants("crossover-linear")[0]["outputs"]
    actual = copy.deepcopy(expected)
    header = actual["compare.csv"]["header"]
    actual["compare.csv"]["rows"][-1][header.index("K_min")] += 1
    assert check.compare(expected, actual)[1] == 1


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_stored_inputs_are_regenerated_from_their_seed(workload):
    for variant in check.load_variants(workload):
        assert workloads.make_inputs(workload, variant["seed"]) == variant["inputs"]


def test_seed_zero_is_canonical_and_others_cycle():
    assert check.variant_index(0, 12) == 0
    assert [check.variant_index(s, 12) for s in (1, 11, 12)] == [1, 11, 1]
    canonical = workloads.make_inputs("crossover-linear", 0)["argv"]
    assert canonical[:3] == ["compare", "--path.family=linear-v", "--path.start=0.0,0.0"]
    assert canonical[3:5] == ["--path.end=2.0,0.5", "--times.T=1.0,2.0,5.0,10.0,20.0,50.0"]


def test_self_times_split_concurrent_threads_and_sum_to_wall():
    tracer = Tracer("test")

    def layer(name, seconds):
        index = tracer.open(name)
        time.sleep(seconds)
        tracer.close(index)

    def body():
        layer("a", 0.02)
        threads = [threading.Thread(target=layer, args=(n, 0.05)) for n in ("b", "c")]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        assert not any(t.is_alive() for t in threads)

    started = time.perf_counter()
    tracer.run_root(body)
    wall = time.perf_counter() - started
    share, busy = tracer.self_times()
    assert sum(share.values()) == pytest.approx(wall, abs=1e-3)
    assert share["b"] == pytest.approx(0.025, abs=0.01)
    assert busy["b"] == pytest.approx(0.05, abs=0.01)
    assert share[ROOT] < wall - 0.06


def test_per_layer_names_match_benchmark_json():
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    tracer = Tracer("test")
    tracer.run_root(lambda: None)
    names = set(layers.summarize(tracer, 0.0))
    names |= {f"kernel.eigh_many.N{n}.us_per_matrix" for n in layers.KERNEL_SIZES}
    names |= {f"kernel.metric_with_gradient_many.N{n}.us_per_point" for n in layers.KERNEL_SIZES}
    names |= {"trace.untraced_wall_s", "trace.overhead_s", "trace.span_cost_us"}
    assert names == {m["name"] for m in spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS


def test_sampler_runs_snippets_during_the_timing_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with calibrate.Sampler(interval=0.02) as sampler:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            sum(range(1000))
    assert sampler.samples >= 5
    assert 0.0 < sampler.spent < 0.3
    assert sampler.snippet_s() == pytest.approx(sampler.spent / sampler.samples)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
