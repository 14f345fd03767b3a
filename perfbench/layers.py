"""Per-layer metrics: span self times and the kernel micro-benchmarks.

A span is a dict with `id`, `name`, `layer`, `parent`, `start`, `end` and
`attrs`. A span's self time is its duration minus the part of its interval
that its child spans cover; overlapping children (the bench worker threads)
are counted once.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

import numpy as np

from flowbench.classifiers import (
    KNNModel,
    LinearSVMModel,
    LogisticRegressionModel,
    PerceptronModel,
    build_tree,
)

# Span name -> metric that sums the span's durations.
SUMMED = {
    "flow_data.parse_dataset": "flow_data.parse_s",
    "features.fit_transform": "features.fit_transform_s",
    "features.stratified_split": "features.split_s",
    "features.encode_records": "features.encode_records_s",
    "bench.run_benchmark": "bench.run_benchmark_s",
    "bench.render": "bench.render_s",
}
# Last part of a per-model span name -> metric name template.
PER_MODEL = {
    "fit": "classifiers.fit_s.{}",
    "predict_scores": "classifiers.score_s.{}",
    "save_model": "persistence.save_s.{}",
    "load_model": "persistence.load_s.{}",
}
SGD_KERNELS = (
    ("hinge", LinearSVMModel),
    ("log", LogisticRegressionModel),
    ("perceptron", PerceptronModel),
)
KNN_BLOCK_ROWS = 512


def self_times(spans: list[dict]) -> dict[str, float]:
    children = defaultdict(list)
    for span in spans:
        children[span["parent"]].append((span["start"], span["end"]))
    out = {}
    for span in spans:
        covered, cursor = 0.0, span["start"]
        for start, end in sorted(children[span["id"]]):
            start, end = max(start, cursor), min(end, span["end"])
            if end > start:
                covered += end - start
                cursor = end
        out[span["id"]] = span["end"] - span["start"] - covered
    return out


def span_metrics(spans: list[dict], tree_stats: dict) -> dict[str, float]:
    """Every per-layer metric the spans of one traced run support."""
    metrics: dict[str, float] = defaultdict(float)
    selfs = self_times(spans)
    parsed_rows = flops = 0
    for span in spans:
        name, attrs = span["name"], span["attrs"]
        duration = span["end"] - span["start"]
        metrics[f"self_s.{span['layer']}"] += selfs[span["id"]]
        if name in SUMMED:
            metrics[SUMMED[name]] += duration
        template = PER_MODEL.get(name.rsplit(".", 1)[-1])
        if template and "model" in attrs:
            metrics[template.format(attrs["model"])] += duration
        if span["layer"] == "metrics":
            metrics["metrics.leaderboard_s"] += duration
        if span["layer"] == "cli":
            metrics[f"cli.command_s.{attrs['command']}"] += duration
            metrics["cli.unaccounted_s"] += selfs[span["id"]]
        if name == "bench.run_benchmark":
            metrics["bench.unaccounted_s"] += selfs[span["id"]]
        if name == "flow_data.parse_dataset":
            parsed_rows += attrs.get("rows", 0)
        flops += attrs.get("flops", 0)
    if metrics["flow_data.parse_s"] > 0:
        metrics["flow_data.parse_rows_per_s"] = parsed_rows / metrics["flow_data.parse_s"]
    if flops:
        metrics["classifiers.knn_distance_flops"] = flops
        metrics["classifiers.knn_gflops_per_s"] = (
            flops / metrics["classifiers.score_s.knn"] / 1e9
        )
    for model, stats in tree_stats.items():
        metrics[f"classifiers.tree_nodes.{model}"] = stats["nodes"]
        metrics[f"classifiers.tree_depth.{model}"] = stats["depth"]
    return dict(metrics)


def median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def kernel_metrics(
    scaled: np.ndarray, raw: np.ndarray, labels: np.ndarray, queries: np.ndarray
) -> dict:
    """Hot kernels timed through public entry points on one workload's rows.

    `scaled` and `raw` are the training rows with and without z-scoring,
    `labels` their class codes, and `queries` the rows the workload scores;
    the kNN block cycles through them to KNN_BLOCK_ROWS rows.
    """
    metrics = {}
    for loss, model_class in SGD_KERNELS:
        metrics[f"kernel.sgd_epoch_s.{loss}"] = median_time(
            lambda: model_class(max_epochs=1, seed=42).fit(scaled, labels), 5
        )
    n_classes = int(labels.max()) + 1
    metrics["kernel.tree_build_s"] = median_time(
        lambda: build_tree(raw, labels, n_classes), 5
    )
    knn = KNNModel().fit(scaled, labels)
    block = np.resize(queries, (KNN_BLOCK_ROWS, queries.shape[1]))
    metrics["kernel.knn_block_s"] = median_time(lambda: knn.predict_scores(block), 21)
    return metrics
