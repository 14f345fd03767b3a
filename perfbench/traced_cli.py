"""Run one flowbench CLI command with a span around each call into a layer.

    python3 perfbench/traced_cli.py --spans OUT.json --parent ID bench|train|predict ...

The command runs through `flowbench.cli.main`, so a traced run executes the
program's own command code. Before it starts, the module globals that code
looks up at call time are rebound to traced wrappers: in `flowbench.cli`
(`parse_dataset`, `fit_transform`, `stratified_split`, `run_benchmark`,
`render`, `make_model`, `save_model`, `load_model`, `encode_records`), in
`flowbench.bench` (`make_model`, the metric functions and `macro_auc`) and
in the tree and ensemble modules (`build_tree`, `tree_scores`).
`Scaler.apply` is wrapped on its class. Every model the command makes or
loads gets traced `fit` and `predict_scores` methods. No file of the program
changes.

Each span records name, layer, start, end and parent span. Spans stay in
memory and are written to OUT.json when the command ends, together with node
counts and depths of every fitted tree model. Times come from
`time.monotonic`, the clock the benchmark parent also uses, so the parent's
span around this process and the spans inside it line up.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import flowbench.bench as bench_module
import flowbench.classifiers.ensemble as ensemble_module
import flowbench.classifiers.tree as tree_module
import flowbench.cli as cli_module
from flowbench.classifiers import KNNModel
from flowbench.features import Scaler


class Tracer:
    """Collects spans in memory; safe to use from the bench worker threads."""

    def __init__(self, root_parent: str):
        self.spans: list[dict] = []
        self.models: list = []  # (name, model) of every instrumented model
        # Parent for spans opened by a thread with no open span of its own,
        # i.e. the bench pool workers; run_benchmark points it at itself.
        self.fallback_parent = root_parent
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, layer: str, **attrs):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            span_id = f"{os.getpid()}-{next(self._ids)}"
        record = {
            "id": span_id,
            "name": name,
            "layer": layer,
            "parent": stack[-1] if stack else self.fallback_parent,
            "attrs": attrs,
        }
        stack.append(span_id)
        record["start"] = time.monotonic()
        try:
            yield record
        finally:
            record["end"] = time.monotonic()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def add_model(self, name: str, model) -> None:
        with self._lock:
            self.models.append((name, model))

    def wrap(self, fn, name: str, layer: str):
        def traced(*args, **kwargs):
            with self.span(name, layer):
                return fn(*args, **kwargs)

        return traced


def classifier_layer(model) -> str:
    return "classifiers." + type(model).__module__.rsplit(".", 1)[-1]


def instrument_model(tracer: Tracer, model, name: str):
    """Give one model instance traced `fit` and `predict_scores` methods."""
    layer = classifier_layer(model)
    fit, predict_scores = model.fit, model.predict_scores

    def traced_fit(X, y):
        with tracer.span(f"{layer}.fit", layer, model=name, rows=len(X)):
            return fit(X, y)

    def traced_predict_scores(X):
        attrs = {"model": name, "rows": len(X)}
        if isinstance(model, KNNModel):
            n_train, d = model.train_rows_.shape
            attrs["flops"] = 2 * len(X) * n_train * (d + 1)
        with tracer.span(f"{layer}.predict_scores", layer, **attrs):
            return predict_scores(X)

    model.fit = traced_fit
    model.predict_scores = traced_predict_scores
    tracer.add_model(name, model)
    return model


def install_hooks(tracer: Tracer) -> None:
    """Rebind the globals the CLI commands, run_benchmark and the tree models call."""
    make_model = cli_module.make_model
    parse_dataset = cli_module.parse_dataset
    load_model = cli_module.load_model
    save_model = cli_module.save_model
    run_benchmark = cli_module.run_benchmark

    def traced_make_model(name, seed=0):
        layer = "classifiers.registry"
        with tracer.span(f"{layer}.make_model", layer, model=name):
            model = make_model(name, seed=seed)
        return instrument_model(tracer, model, name)

    def traced_parse_dataset(source):
        with tracer.span("flow_data.parse_dataset", "flow_data") as span:
            records = parse_dataset(source)
            span["attrs"]["rows"] = len(records)
        return records

    def traced_load_model(path):
        layer = "classifiers.persistence"
        with tracer.span(f"{layer}.load_model", layer) as span:
            artifact = load_model(path)
            span["attrs"]["model"] = artifact.model.name
        instrument_model(tracer, artifact.model, artifact.model.name)
        return artifact

    def traced_save_model(path, model, **kwargs):
        layer = "classifiers.persistence"
        with tracer.span(f"{layer}.save_model", layer, model=model.name):
            return save_model(path, model, **kwargs)

    def traced_run_benchmark(*args, **kwargs):
        with tracer.span("bench.run_benchmark", "bench") as span:
            outer, tracer.fallback_parent = tracer.fallback_parent, span["id"]
            try:
                return run_benchmark(*args, **kwargs)
            finally:
                tracer.fallback_parent = outer

    cli_module.make_model = bench_module.make_model = traced_make_model
    cli_module.parse_dataset = traced_parse_dataset
    cli_module.load_model = traced_load_model
    cli_module.save_model = traced_save_model
    cli_module.run_benchmark = traced_run_benchmark
    for fn_name in ("fit_transform", "stratified_split", "encode_records"):
        fn = getattr(cli_module, fn_name)
        setattr(cli_module, fn_name, tracer.wrap(fn, f"features.{fn_name}", "features"))
    cli_module.render = tracer.wrap(cli_module.render, "bench.render", "bench")
    Scaler.apply = tracer.wrap(Scaler.apply, "features.Scaler.apply", "features")
    for fn_name in ("confusion", "accuracy", "balanced_accuracy", "f1"):
        fn = getattr(bench_module, fn_name)
        setattr(bench_module, fn_name, tracer.wrap(fn, f"metrics.{fn_name}", "metrics"))
    bench_module.macro_auc = tracer.wrap(
        bench_module.macro_auc, "bench.macro_auc", "metrics"
    )
    for module in (tree_module, ensemble_module):
        module.build_tree = tracer.wrap(
            tree_module.build_tree, "classifiers.tree.build_tree", "classifiers.tree"
        )
        module.tree_scores = tracer.wrap(
            tree_module.tree_scores, "classifiers.tree.tree_scores", "classifiers.tree"
        )


def tree_stats(model) -> dict | None:
    """Total node count and deepest leaf over a tree model's trees."""
    roots = getattr(model, "trees_", None) or (
        [model.tree_] if getattr(model, "tree_", None) is not None else []
    )
    if not roots:
        return None
    nodes = depth = 0
    for root in roots:
        stack = [(root, 0)]
        while stack:
            node, level = stack.pop()
            nodes += 1
            depth = max(depth, level)
            if not node.is_leaf:
                stack.append((node.left, level + 1))
                stack.append((node.right, level + 1))
    return {"nodes": nodes, "depth": depth}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0], allow_abbrev=False)
    parser.add_argument("--spans", required=True, help="where to write the spans")
    parser.add_argument("--parent", required=True, help="span id of the caller")
    args, command = parser.parse_known_args(argv)
    tracer = Tracer(root_parent=args.parent)
    install_hooks(tracer)
    try:
        return cli_module.main(command)
    finally:
        with tracer.span("trace.tree_stats", "trace"):
            stats = {name: s for name, model in tracer.models if (s := tree_stats(model))}
        document = {"spans": tracer.spans, "tree_stats": stats}
        Path(args.spans).write_text(json.dumps(document), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
