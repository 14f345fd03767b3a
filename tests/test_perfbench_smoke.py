"""The benchmark harness still runs against the library: the traced CLI finds the
names it rebinds, the kernel timings call the models as they are, and the
models still give the confusions the benchmark recorded."""

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from flowbench import bench as bench_module
from flowbench.bench import BenchOptions, run_benchmark
from flowbench.classifiers import make_model
from flowbench.cli import EXIT_OK, main
from flowbench.features import fit_transform, stratified_split
from flowbench.flow_data import parse_dataset, records_to_csv
from flowbench.synth import generate_records

ROOT = Path(__file__).resolve().parents[1]
TREE_MODELS = ["decision_tree", "extra_tree", "bagging", "random_forest", "extra_trees"]


def _perfbench_module(name: str):
    """perfbench/<name>.py, loaded without running it."""
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look up their module by name
    spec.loader.exec_module(module)
    return module


def array_stats(model) -> dict:
    """Node count and deepest leaf over a tree model's trees, read from its forest's arrays."""
    forest = model.forest_
    level = [0] * forest.left.size
    for node, left in enumerate(forest.left.tolist()):
        if left != -1:
            level[left] = level[left + 1] = level[node] + 1
    roots = forest.roots.tolist()
    nodes = depth = 0
    for root, end in zip(roots, [*roots[1:], len(level)]):
        nodes += end - root
        depth = max(depth, *level[root:end])
    return {"nodes": nodes, "depth": depth}


def test_traced_bench_reports_spans_and_tree_stats(tmp_path, monkeypatch):
    data = tmp_path / "data.csv"
    data.write_text(records_to_csv(generate_records(150, seed=7, signal_strength=0.9)))
    spans = tmp_path / "spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    models = ",".join([*TREE_MODELS, "knn", "dummy"])
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced_cli.py"),
         "--spans", str(spans), "--parent", "root",
         "bench", "--data", str(data), "--models", models],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    document = json.loads(spans.read_text())
    assert document["spans"]
    names = {span["name"] for span in document["spans"]}
    assert {"classifiers.tree.build_tree", "classifiers.tree.tree_scores"} <= names
    # The harness walks node views; the same fits, read from their arrays, agree.
    fitted = {}

    def recording_make_model(name, **kwargs):
        fitted[name] = make_model(name, **kwargs)
        return fitted[name]

    monkeypatch.setattr(bench_module, "make_model", recording_make_model)
    options = BenchOptions()
    matrix = fit_transform(parse_dataset(data), scale=True)
    plan = stratified_split(matrix.labels, options.test_fraction, options.seed)
    run_benchmark(matrix, plan, TREE_MODELS, options)
    for name in TREE_MODELS:
        stats = document["tree_stats"][name]
        assert stats["nodes"] >= 3 and stats["depth"] >= 1
        assert stats == array_stats(fitted[name])
    # Every tree model, ensembles included, grows all of a fit's trees in one call.
    fits = {
        span["id"]: span["attrs"]["model"]
        for span in document["spans"]
        if span["name"].endswith(".fit") and span["attrs"].get("model") in TREE_MODELS
    }
    builds = [
        fits.get(span["parent"])
        for span in document["spans"]
        if span["name"] == "classifiers.tree.build_tree"
    ]
    assert sorted(builds) == sorted(fits.values()) == sorted(TREE_MODELS)


def _run_traced(tmp_path, *command):
    """Run one CLI command under traced_cli.py; return the span document."""
    spans = tmp_path / "spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced_cli.py"),
         "--spans", str(spans), "--parent", "root", *command],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(spans.read_text())


def test_traced_predict_reports_read_side_spans(tmp_path):
    # predict-100k's parse and tree metrics are read from these spans.
    data = tmp_path / "data.csv"
    data.write_text(records_to_csv(generate_records(150, seed=7, signal_strength=0.9)))
    model = tmp_path / "model.json"
    _run_traced(tmp_path, "train", "--data", str(data), "--model", "random_forest",
                "--output", str(model))
    traced = tmp_path / "traced.csv"
    document = _run_traced(tmp_path, "predict", "--data", str(data),
                           "--model-file", str(model), "--output", str(traced))
    names = {span["name"] for span in document["spans"]}
    assert {
        "flow_data.parse_dataset",
        "features.encode_records",
        "classifiers.persistence.load_model",
        "classifiers.tree.tree_scores",
    } <= names
    # flow_data.parse_rows_per_s divides these rows, len() of the parse result.
    (parse,) = [s for s in document["spans"] if s["name"] == "flow_data.parse_dataset"]
    assert parse["attrs"]["rows"] == len(data.read_text().splitlines()) - 1 == 150
    untraced = tmp_path / "untraced.csv"
    assert main(["predict", "--data", str(data), "--model-file", str(model),
                 "--output", str(untraced)]) == EXIT_OK
    assert traced.read_bytes() == untraced.read_bytes()


def test_kernel_metrics_run_on_a_small_problem():
    # The per-layer pass times the SGD models, build_tree and knn through
    # layers.py's own calls, so a changed constructor or signature of any of
    # them fails here, not only in a traced benchmark run.
    layers = _perfbench_module("layers")
    matrix = fit_transform(generate_records(150, seed=7, signal_strength=0.9), scale=True)
    metrics = layers.kernel_metrics(matrix.rows, matrix.encoded, matrix.labels, matrix.rows[:20])
    assert set(metrics) == {
        "kernel.sgd_epoch_s.hinge",
        "kernel.sgd_epoch_s.log",
        "kernel.sgd_epoch_s.perceptron",
        "kernel.tree_build_s",
        "kernel.knn_block_s",
    }
    assert all(math.isfinite(value) and value > 0 for value in metrics.values())


@pytest.mark.parametrize("workload", ["portfolio-1k", "ensembles-1k"])
@pytest.mark.parametrize("seed", [7, 8])
def test_tree_models_reproduce_the_recorded_confusions(workload, seed):
    # The benchmark checks its outputs against references.json only at the
    # recorded seeds, which CI's benchmark steps do not run, so this pins the
    # tree models' outputs there. They use no BLAS, so the pins are exact.
    run = _perfbench_module("run")
    recorded = run.load_references()[workload][str(seed)]
    confusions = _bench_confusions(run, workload, seed, TREE_MODELS)
    assert confusions == {m: recorded[m] for m in TREE_MODELS}


# The other models the benchmark pins exactly in both 1k workloads.
EXACT_MODELS = ["knn", "gaussian_nb", "bernoulli_nb", "nearest_centroid", "ridge", "dummy"]


@pytest.mark.parametrize("model", EXACT_MODELS)
@pytest.mark.parametrize("workload", ["portfolio-1k", "ensembles-1k"])
@pytest.mark.parametrize("seed", [7, 8])
def test_exact_models_reproduce_the_recorded_confusions(workload, seed, model):
    # reference_problem compares these models' confusions exactly too, and
    # CI's benchmark steps run a seed without references. Their scores go
    # through BLAS, yet test_bench.py's DEFAULT_MODEL_CONFUSIONS already pins
    # them exactly on CI's three Pythons.
    run = _perfbench_module("run")
    recorded = run.load_references()[workload][str(seed)][model]
    assert _bench_confusions(run, workload, seed, [model])[model] == recorded


def _bench_confusions(run, workload: str, seed: int, models) -> dict:
    """The holdout confusions a benchmark pass of `workload` at data seed `seed` gives `models`."""
    spec = run.WORKLOADS[workload]
    matrix = fit_transform(generate_records(spec.rows, seed, spec.signal), scale=True)
    plan = stratified_split(matrix.labels, 0.2, 42)
    board = run_benchmark(matrix, plan, models, BenchOptions(seed=42))
    return {r.model: r.confusion for r in board.reports}


# The benchmark's SGD models (logistic_regression included) in the workloads
# that fit them; ensembles-1k fits only the perceptron.
SGD_CASES = [
    *(("portfolio-1k", seed, m) for seed in (7, 8)
      for m in ("linear_svm_sgd", "logistic_regression", "perceptron")),
    *(("ensembles-1k", seed, "perceptron") for seed in (7, 8)),
]
# references.json predates logistic_regression's Newton fit and the SGD
# models' patience stop; the benchmark's re-record (ROADMAP item 2a) mends these.
STALE_SGD_REFERENCES = {
    ("portfolio-1k", 8, "logistic_regression"): "the Newton fit's accuracy moved 0.020",
    ("portfolio-1k", 8, "linear_svm_sgd"): "the patience stop's accuracy moved 0.025",
}


def _sgd_case(case):
    stale = STALE_SGD_REFERENCES.get(case)
    reason = f"{stale}; references.json is re-recorded in ROADMAP item 2a"
    return pytest.param(
        *case, marks=[pytest.mark.xfail(reason=reason, strict=True)] if stale else []
    )


@pytest.mark.parametrize("workload, seed, model", map(_sgd_case, SGD_CASES))
def test_sgd_models_stay_within_the_recorded_references(workload, seed, model):
    # The benchmark holds these models to an accuracy tolerance around the
    # recorded confusions, not to the confusions; this applies its own rule.
    run = _perfbench_module("run")
    confusion = _bench_confusions(run, workload, seed, [model])[model]
    recorded = run.load_references()[workload][str(seed)][model]
    assert run.reference_problem(model, np.asarray(confusion), np.asarray(recorded)) is None
