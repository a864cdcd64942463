"""Self-test of the benchmark: tiny runs of every workload.

    python3 -m pytest perfbench -q

Checks that each workload emits every metric with its unit, that traced
counts agree with counts the benchmark makes itself, and that the
layers each workload must not touch record zero calls.
"""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

bench.import_library()

from tracer import metric_units  # noqa: E402

SEED = 3
TINY = dict(seconds=0.05, scale=0.02, setup_budget_s=0.0)
WORKLOADS = ("train", "gst", "correct", "align")

# correct's inputs include sentences longer than the model's window
pytestmark = pytest.mark.filterwarnings("ignore:input of")


@functools.cache
def traced(workload):
    return bench.run(workload, SEED, trace=True, **TINY)


def metrics(doc):
    return {k: v["value"] for k, v in doc["result"]["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    doc = bench.run(workload, SEED, trace=False, **TINY)
    result = doc["result"]
    assert result["correct"], doc["problems"]
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == bench.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values()), result
    assert doc["named"] and all(v["unit"] for v in doc["named"].values())
    assert doc["environment"]["seed"] == SEED


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    doc = traced(workload)
    assert doc["result"]["correct"], doc["problems"]
    units = {k: v["unit"] for k, v in doc["result"]["metrics"].items()}
    expected = dict(metric_units())
    expected.update({name: "%" for name in bench.OVERHEAD})
    assert units == expected
    m = metrics(doc)
    assert m["trace.absent_spans"] == 0
    assert m["trace.hook_errors"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_zero_call_predictions(workload):
    m = metrics(traced(workload))
    sampling = (m["sampling.sample_gumbel.calls"]
                + m["sampling.relax_with_noise.calls"]
                + m["sampling.sample_label.calls"])
    if workload == "gst":
        assert sampling > 0
    else:
        assert sampling == 0
    if workload == "align":
        assert m["model.forward.calls"] == 0
        assert m["model.loss_and_grads.calls"] == 0
        assert m["model.adam_step.calls"] == 0
        assert m["model.forward.tokens"] == 0
    if workload == "correct":
        assert m["model.loss_and_grads.calls"] == 0
        assert m["model.adam_step.calls"] == 0
    if workload in ("train", "gst"):
        assert m["model.loss_and_grads.calls"] > 0
        assert m["model.adam_step.calls"] > 0


def test_forward_calls_equal_rounds_on_correct():
    doc = traced("correct")
    d = doc["details"]
    m = metrics(doc)
    assert m["model.forward.calls"] == d["passes"] * (
        d["rounds_per_pass"] + d["failed_per_pass"])
    assert m["inference.correct.calls"] == d["passes"] * d["sentences"]
    endings = sum(m[f"inference.rounds_ended.{e}"]
                  for e in ("gate", "converged", "noop", "max_iters"))
    assert endings == d["passes"] * (d["sentences"] - d["failed_per_pass"])


@pytest.mark.parametrize("seed", (1, 2))
def test_correct_inputs_have_a_fixed_over_length_share(seed):
    import workloads
    pairs = workloads.correct_inputs(seed, 1200)
    assert pairs == workloads.correct_inputs(seed, 1200)
    assert sum(len(p.source) > workloads.CORRECT_WINDOW
               for p in pairs) == 12


def test_failures_do_not_depend_on_passes():
    doc = traced("correct")
    assert doc["result"]["attempted"] == doc["details"]["sentences"]
    assert doc["result"]["failed"] == doc["details"]["failed_per_pass"]


def test_checkout_without_library_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "align",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout


def test_benchmark_json_matches_the_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == bench.END_TO_END
    per_layer = dict(metric_units())
    per_layer.update({name: "%" for name in bench.OVERHEAD})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
