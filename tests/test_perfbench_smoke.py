"""The traced CLI of the benchmark harness still finds the names it rebinds."""

import json
import os
import subprocess
import sys
from pathlib import Path

from flowbench.flow_data import records_to_csv
from flowbench.synth import generate_records

ROOT = Path(__file__).resolve().parents[1]
TREE_MODELS = ["decision_tree", "extra_tree", "random_forest"]


def test_traced_bench_reports_spans_and_tree_stats(tmp_path):
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
    for name in TREE_MODELS:
        stats = document["tree_stats"][name]
        assert stats["nodes"] >= 3 and stats["depth"] >= 1
