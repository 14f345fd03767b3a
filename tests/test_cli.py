import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from flowbench.cli import EXIT_DATA, EXIT_MODEL, EXIT_OK, EXIT_USAGE, main
from flowbench.flow_data import parse_dataset, records_to_csv
from flowbench.synth import generate_records

from conftest import FIGURE_ROW, HEADER, csv_bytes

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def synth_csv(tmp_path):
    path = tmp_path / "data.csv"
    assert main(["synth", "--rows", "240", "--seed", "5",
                 "--signal-strength", "0.9", "--output", str(path)]) == EXIT_OK
    return path


def test_synth_is_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    main(["synth", "--rows", "100", "--seed", "3", "--output", str(a)])
    main(["synth", "--rows", "100", "--seed", "3", "--output", str(b)])
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.csv"
    main(["synth", "--rows", "100", "--seed", "4", "--output", str(c)])
    assert a.read_bytes() != c.read_bytes()


def test_synth_inspect_round_trip(synth_csv, capsys):
    assert main(["inspect", "--data", str(synth_csv)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "240 rows" in out
    assert "14 data columns" in out
    assert "families" in out


def test_inspect_json_format(synth_csv, capsys):
    assert main(["inspect", "--data", str(synth_csv), "--format", "json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["row_count"] == 240
    assert sum(doc["class_counts"].values()) == 240


def test_inspect_text_and_json_golden(tmp_path, capsys):
    path = tmp_path / "three.csv"
    path.write_bytes(csv_bytes(
        "50,TCP,A,WannaCry,1,1DA11mPS,1BonuSr7,1,500,5,A,Botnet,5061,SS",
        "60,UDP,A,Locky,1,1DA11mPS,1BonuSr7,1,500,5,A,Botnet,5061,A",
        "60,TCP,A,WannaCry,1,1DA11mPS,1BonuSr7,2,500,5,A,Botnet,5061,A",
    ))
    distinct = {"Time": 2, "Protocol": 2, "Flag": 1, "Family": 2, "Clusters": 1,
                "SeedAddress": 1, "ExpAddress": 1, "BTC": 2, "USD": 1,
                "Netflow_Bytes": 1, "IPaddress": 1, "Threats": 1, "Port": 1,
                "Prediction": 2}
    assert main(["inspect", "--data", str(path)]) == EXIT_OK
    assert capsys.readouterr().out == (
        "3 rows\n14 data columns\n2 families\n"
        "classes:\n  A: 2\n  S: 0\n  SS: 1\n"
        "families:\n  WannaCry: 2\n  Locky: 1\n"
        "distinct values per column:\n"
        + "".join(f"  {column}: {count}\n" for column, count in distinct.items())
    )
    assert main(["inspect", "--data", str(path), "--format", "json"]) == EXIT_OK
    assert capsys.readouterr().out == json.dumps({
        "row_count": 3,
        "column_count": 14,
        "family_count": 2,
        "distinct_counts": distinct,
        "family_counts": {"WannaCry": 2, "Locky": 1},
        "class_counts": {"A": 2, "S": 0, "SS": 1},
    }, indent=2) + "\n"


def test_inspect_env_var_supplies_default_data(synth_csv, capsys, monkeypatch):
    monkeypatch.setenv("UGRANSOME_DATA", str(synth_csv))
    assert main(["inspect"]) == EXIT_OK
    assert "240 rows" in capsys.readouterr().out


def test_missing_data_file_is_data_error(capsys):
    assert main(["bench", "--data", "missing.csv"]) == EXIT_DATA
    assert "missing.csv" in capsys.readouterr().err


def test_no_data_flag_is_usage_error(monkeypatch, capsys):
    monkeypatch.delenv("UGRANSOME_DATA", raising=False)
    assert main(["inspect"]) == EXIT_USAGE


def test_malformed_csv_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("Time,Protocol\n1,TCP\n")
    assert main(["inspect", "--data", str(bad)]) == EXIT_DATA
    assert "missing column" in capsys.readouterr().err


def test_unnamed_header_cell_is_named_in_the_data_error(tmp_path, capsys):
    path = tmp_path / "trailing_comma.csv"
    path.write_text(HEADER + ",\n" + FIGURE_ROW + ",\n")
    assert main(["inspect", "--data", str(path)]) == EXIT_DATA
    assert capsys.readouterr().err == "data error: unexpected column(s): ''\n"


def test_unreadable_csv_line_is_data_error(synth_csv, tmp_path, capsys):
    # A cell longer than the csv module's field limit (131,072 characters).
    bad = tmp_path / "long.csv"
    row = FIGURE_ROW.replace("WannaCry", "x" * 140_000)
    bad.write_bytes(csv_bytes(row))
    model_file = tmp_path / "model.json"
    assert main(["train", "--data", str(synth_csv), "--model", "dummy",
                 "--output", str(model_file)]) == EXIT_OK
    capsys.readouterr()
    for argv in (["inspect"], ["predict", "--model-file", str(model_file)]):
        assert main([*argv, "--data", str(bad)]) == EXIT_DATA
        assert capsys.readouterr().err == (
            "data error: row 1: field larger than field limit (131072)\n"
        )


def test_bad_test_fraction_is_usage_error(synth_csv):
    assert main(["bench", "--data", str(synth_csv), "--test-fraction", "1.5"]) == EXIT_USAGE
    assert main(["bench", "--data", str(synth_csv), "--folds", "1"]) == EXIT_USAGE


def test_unknown_model_name_is_usage_error(synth_csv):
    assert main(["bench", "--data", str(synth_csv), "--models", "nope"]) == EXIT_USAGE
    assert main(["roc", "--data", str(synth_csv), "--model", "nope"]) == EXIT_USAGE


def test_duplicate_model_name_is_usage_error(synth_csv, capsys):
    argv = ["bench", "--data", str(synth_csv), "--models", "dummy,dummy"]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "duplicate model name(s): dummy" in captured.err
    assert captured.out == ""


def test_unknown_subcommand_is_usage_error():
    assert main(["frobnicate"]) == EXIT_USAGE
    assert main([]) == EXIT_USAGE


def test_bench_table_on_stdout(synth_csv, capsys):
    code = main([
        "bench", "--data", str(synth_csv), "--seed", "42",
        "--models", "decision_tree,dummy",
    ])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("Model")
    assert "decision_tree" in out and "dummy" in out


def test_bench_json_deterministic_excluding_time(synth_csv, capsys):
    argv = [
        "bench", "--data", str(synth_csv), "--seed", "7", "--format", "json",
        "--models", "decision_tree,extra_tree,knn,dummy",
    ]
    snapshots = []
    for workers in ("1", "3"):
        assert main(argv + ["--workers", workers]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        for report in doc["reports"]:
            report.pop("time_taken_s")
        snapshots.append(json.dumps(doc))
    assert snapshots[0] == snapshots[1]


def test_bench_with_folds_reports_cv(synth_csv, capsys):
    code = main([
        "bench", "--data", str(synth_csv), "--folds", "3", "--format", "json",
        "--models", "dummy",
    ])
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["reports"][0]["cv"]["k"] == 3


def test_bench_cv_fold_failure_is_an_error_row(tmp_path, capsys):
    # Class counts [2, 2, 4]: knn (k=5) fits the 5-row holdout train split
    # but not the 4-row training side of a 2-fold split.
    header, *lines = records_to_csv(generate_records(60, seed=5, signal_strength=0.9)).splitlines()
    picked = [line for token, n in (("A", 2), ("S", 2), ("SS", 4))
              for line in [line for line in lines if line.endswith("," + token)][:n]]
    path = tmp_path / "tiny.csv"
    path.write_text("\n".join([header, *picked, ""]))
    assert [int(r.prediction) for r in parse_dataset(path)] == [0, 0, 1, 1, 2, 2, 2, 2]
    code = main(["bench", "--data", str(path), "--folds", "2", "--test-fraction",
                 "0.1", "--models", "knn,dummy", "--format", "json"])
    assert code == EXIT_OK
    by_name = {r["model"]: r for r in json.loads(capsys.readouterr().out)["reports"]}
    assert by_name["knn"]["status"].startswith("error: fold")
    assert by_name["dummy"]["status"] == "ok"


def test_correlate_emits_pair_csv(synth_csv, capsys):
    assert main(["correlate", "--data", str(synth_csv)]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "column_a,column_b,correlation,involves_constant"
    # 14 columns (13 features + label) -> 14*15/2 pairs
    assert len(lines) - 1 == 14 * 15 // 2
    self_rows = [line for line in lines[1:] if line.startswith("Time,Time,")]
    assert self_rows and self_rows[0].split(",")[2] == "1.0"


def test_roc_emits_curve_points(synth_csv, capsys):
    code = main(["roc", "--data", str(synth_csv), "--model", "gaussian_nb"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "class,auc,threshold,fpr,tpr"
    classes = {line.split(",")[0] for line in lines[1:]}
    assert classes == {"A", "S", "SS"}


def test_roc_rejects_bench_only_flags(synth_csv):
    argv = ["roc", "--data", str(synth_csv), "--model", "gaussian_nb"]
    assert main(argv + ["--workers", "2"]) == EXIT_USAGE
    assert main(argv + ["--folds", "3"]) == EXIT_USAGE


def test_train_then_predict_round_trip(synth_csv, tmp_path, capsys):
    model_file = tmp_path / "model.json"
    assert main([
        "train", "--data", str(synth_csv), "--model", "decision_tree",
        "--output", str(model_file),
    ]) == EXIT_OK
    capsys.readouterr()
    out_file = tmp_path / "predictions.csv"
    assert main([
        "predict", "--data", str(synth_csv), "--model-file", str(model_file),
        "--output", str(out_file),
    ]) == EXIT_OK
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "row,prediction_code,prediction"
    records = parse_dataset(str(synth_csv))
    assert len(lines) - 1 == len(records)
    # in-memory fit on the same file must match the persisted predictions
    from flowbench.classifiers import make_model
    from flowbench.features import fit_transform

    matrix = fit_transform(records, scale=True)
    model = make_model("decision_tree", seed=42).fit(matrix.encoded, matrix.labels)
    expected = model.predict(matrix.encoded)
    got = np.array([int(line.split(",")[1]) for line in lines[1:]])
    assert np.array_equal(got, expected)


def test_negative_seed_is_usage_error(synth_csv, tmp_path, capsys):
    for name in ("extra_tree", "random_forest"):
        assert main(["train", "--data", str(synth_csv), "--model", name, "--seed", "-1",
                     "--output", str(tmp_path / "model.json")]) == EXIT_USAGE
        assert "seed must be a non-negative integer" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["decision_tree", "extra_tree"])
def test_train_splits_rows_whose_midpoint_rounds_up(name, tmp_path):
    # USD values 2**52 + 1 and 2**52 + 2: their midpoint rounds onto the
    # upper one. A fit that hangs fails through the subprocess timeout.
    rows = [FIGURE_ROW.replace(",500,", f",{usd},").replace(",SS", f",{label}")
            for usd, label in ((4503599627370497, "A"), (4503599627370498, "S"))]
    data = tmp_path / "data.csv"
    data.write_bytes(csv_bytes(*rows))
    model_file = tmp_path / "model.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    command = [sys.executable, "-m", "flowbench.cli"]
    proc = subprocess.run(
        [*command, "train", "--data", str(data), "--model", name, "--seed", "0",
         "--output", str(model_file)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    proc = subprocess.run(
        [*command, "predict", "--data", str(data), "--model-file", str(model_file)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.stdout.splitlines()[1:] == ["0,0,A", "1,1,S"]


def test_predict_handles_unseen_categories(synth_csv, tmp_path):
    model_file = tmp_path / "model.json"
    main(["train", "--data", str(synth_csv), "--model", "knn",
          "--output", str(model_file)])
    other = tmp_path / "other.csv"
    main(["synth", "--rows", "40", "--seed", "99", "--output", str(other)])
    assert main(["predict", "--data", str(other),
                 "--model-file", str(model_file)]) == EXIT_OK


def test_predict_rejects_bad_model_file(synth_csv, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"format_version": 9}))
    assert main(["predict", "--data", str(synth_csv),
                 "--model-file", str(bad)]) == EXIT_MODEL
    assert "format_version" in capsys.readouterr().err


def test_model_file_of_format_1_is_model_error(synth_csv, tmp_path, capsys):
    # Format 1 stored every tunable hyperparameter; they are constants now.
    model_file = tmp_path / "model.json"
    assert main(["train", "--data", str(synth_csv), "--model", "knn",
                 "--output", str(model_file)]) == EXIT_OK
    document = json.loads(model_file.read_text())
    document.update(format_version=1, hyperparameters={"k": 5})
    model_file.write_text(json.dumps(document))
    capsys.readouterr()
    assert main(["predict", "--data", str(synth_csv),
                 "--model-file", str(model_file)]) == EXIT_MODEL
    assert capsys.readouterr().err == "model error: unsupported model format_version: 1\n"


def _with_encoders(document, encoders) -> bytes:
    return json.dumps({**document, "encoders": encoders}).encode()


def _nested_tree(document, depth: int) -> bytes:
    """A decision_tree document whose one tree nests `depth` levels deep."""
    leaf = '{"dist": [1.0, 0.0, 0.0]}'
    tree = ('{"feature": 0, "threshold": 0.5, "left": ' * depth + leaf
            + (', "right": ' + leaf + "}") * depth)
    state = {"classes": [0, 1, 2], "n_features": 13, "trees": ["TREE"]}
    document = {**document, "model": "decision_tree", "hyperparameters": {}, "state": state}
    return json.dumps(document).replace('"TREE"', tree).encode()


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: b"[]",
        lambda doc: b"not json",
        lambda doc: b"\xff\xfe",
        lambda doc: _with_encoders(doc, {}),
        lambda doc: _with_encoders(doc, 5),
        lambda doc: _with_encoders(doc, {**doc["encoders"], "Flag": {"A": "x"}}),
        lambda doc: _with_encoders(doc, {**doc["encoders"], "Flag": {"A": True}}),
        lambda doc: _with_encoders(doc, {**doc["encoders"], "Flag": {"A": 10**400}}),
        lambda doc: _nested_tree(doc, 1_500),
        lambda doc: _nested_tree(doc, 100_000),
    ],
    ids=["list", "not-json", "not-utf8", "no-encoders", "encoders-int", "code-text",
         "code-bool", "code-beyond-float", "tree-1500-deep", "tree-100000-deep"],
)
def test_model_file_that_is_not_a_model_document_is_model_error(
    edit, synth_csv, tmp_path, capsys
):
    model_file = tmp_path / "model.json"
    assert main(["train", "--data", str(synth_csv), "--model", "dummy",
                 "--output", str(model_file)]) == EXIT_OK
    model_file.write_bytes(edit(json.loads(model_file.read_text())))
    capsys.readouterr()
    assert main(["predict", "--data", str(synth_csv),
                 "--model-file", str(model_file)]) == EXIT_MODEL
    err = capsys.readouterr().err
    assert err.startswith("model error: ") and err.count("\n") == 1


def _predict_with_literal(name, path, literal, synth_csv, tmp_path, capsys) -> str:
    """Stderr of `predict` with a `name` file holding the JSON text `literal` at `path`."""
    model_file = tmp_path / "model.json"
    assert main(["train", "--data", str(synth_csv), "--model", name,
                 "--output", str(model_file)]) == EXIT_OK
    document = json.loads(model_file.read_text())
    *parents, last = path
    target = document
    for key in parents:
        target = target[key]
    target[last] = "LITERAL"
    model_file.write_text(json.dumps(document).replace('"LITERAL"', literal))
    capsys.readouterr()
    assert main(["predict", "--data", str(synth_csv),
                 "--model-file", str(model_file)]) == EXIT_MODEL
    return capsys.readouterr().err


def test_model_file_with_an_integer_beyond_the_digit_limit_is_model_error(
    synth_csv, tmp_path, capsys
):
    # int() refuses more than 4,300 digits, so json.loads raises a plain ValueError.
    err = _predict_with_literal("perceptron", ("hyperparameters", "seed"), "9" * 5_001,
                                synth_csv, tmp_path, capsys)
    assert err.startswith("model error: ") and err.count("\n") == 1
    assert "4300 digits" in err


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
@pytest.mark.parametrize(
    "name, path",
    [("knn", ("state", "train_rows", 0)), ("ridge", ("state", "weights", 0)),
     ("decision_tree", ("state", "threshold", 0))],
    ids=["knn", "ridge", "tree-threshold"],
)
def test_model_file_with_a_non_finite_number_is_model_error(
    name, path, literal, synth_csv, tmp_path, capsys
):
    err = _predict_with_literal(name, path, literal, synth_csv, tmp_path, capsys)
    assert err == f"model error: non-finite number in the document: {literal}\n"


def test_model_file_whose_scores_overflow_is_model_error(synth_csv, tmp_path, capsys):
    # Finite on load; squaring a row's distance to the mean overflows.
    err = _predict_with_literal("gaussian_nb", ("state", "means", 0), "1e200",
                                synth_csv, tmp_path, capsys)
    assert err == "model error: overflow encountered in multiply\n"


def test_knn_file_with_fewer_rows_than_k_is_model_error(synth_csv, tmp_path, capsys):
    model_file = tmp_path / "model.json"
    assert main(["train", "--data", str(synth_csv), "--model", "knn",
                 "--output", str(model_file)]) == EXIT_OK
    document = json.loads(model_file.read_text())
    state = document["state"]
    state["train_rows"] = state["train_rows"][: 3 * state["n_features"]]
    state["train_codes"] = state["train_codes"][:3]
    model_file.write_text(json.dumps(document))
    capsys.readouterr()
    assert main(["predict", "--data", str(synth_csv),
                 "--model-file", str(model_file)]) == EXIT_MODEL
    assert capsys.readouterr().err == (
        "model error: malformed model document: k=5 exceeds the training size (3)\n"
    )


def _root_onto_grandchildren(document) -> None:
    """Point a tree's root at the children of its first child that splits."""
    left = document["state"]["left"]
    child = next(node for node in (left[0], left[0] + 1) if left[node] != -1)
    left[0] = left[child]


def _leaf_with_a_feature(document) -> None:
    """Give the first leaf feature 0 and a threshold above every value.

    Read as a split, the leaf would send every row to its `left`, -1, and
    predict would finish rather than loop, so the leaf check alone rejects it.
    """
    state = document["state"]
    leaf = state["left"].index(-1)
    state["feature"][leaf], state["threshold"][leaf] = 0, 1e300


@pytest.mark.parametrize(
    "name, edit, message",
    [
        ("dummy", lambda doc: doc["state"].update(classes=[0, 1, 7]),
         "classes must be a strictly increasing"),
        ("dummy", lambda doc: doc["state"].update(classes=[2, 1, 0]),
         "classes must be a strictly increasing"),
        ("knn", lambda doc: doc["scaler"].update(mean=[0.0] * 3),
         "mean must hold d = 13 numbers, found 3"),
        ("knn", lambda doc: doc["scaler"].update(std=[-1.0] * 13), "non-negative stds"),
        ("decision_tree", lambda doc: doc["state"].update(roots=[]),
         "expected 1 trees, found 0"),
        ("knn", lambda doc: doc["state"]["train_codes"].__setitem__(0, 9),
         "train_codes must lie in 0..2"),
        ("gaussian_nb", lambda doc: doc["state"]["variances"].__setitem__(0, 0.0),
         "variances must be finite and positive"),
        # Row 1, column 2 of the (k, d) = (3, 13) variances, stored flat.
        ("gaussian_nb", lambda doc: doc["state"]["variances"].__setitem__(15, -1.0),
         "variances must be finite and positive"),
        ("ridge", lambda doc: doc["state"].update(weights=doc["state"]["weights"][:13]),
         "weights must hold k * d = 39 numbers, found 13"),
        ("nearest_centroid",
         lambda doc: doc["state"].update(centroids=doc["state"]["centroids"][:26]),
         "centroids must hold k * d = 39 numbers, found 26"),
        # train_codes, the first one-dimensional array naming m, binds it.
        ("knn", lambda doc: doc["state"].update(train_codes=doc["state"]["train_codes"][:-1]),
         "train_rows must hold m * d = "),
        ("knn", lambda doc: doc["state"]["train_rows"].__setitem__(0, 10**400),
         "train_rows must be a flat list of numbers"),
        ("knn", lambda doc: doc["state"]["train_rows"].__setitem__(0, 1e200),
         "train_rows must square to finite numbers"),
        ("ridge", lambda doc: doc["state"]["weights"].__setitem__(0, -(10**400)),
         "weights must be a flat list of numbers"),
        ("decision_tree", lambda doc: doc["state"]["left"].__setitem__(0, 0),
         "child indices must point forward within their tree"),
        ("decision_tree",
         lambda doc: doc["state"]["left"].__setitem__(0, len(doc["state"]["left"]) - 1),
         "child indices must point forward within their tree"),
        ("decision_tree", lambda doc: doc["state"]["feature"].__setitem__(0, 13),
         "features must lie in 0..12"),
        ("decision_tree", lambda doc: doc["state"]["feature"].__setitem__(0, -2),
         "features must lie in 0..12"),
        ("decision_tree", lambda doc: doc["state"]["value"].__setitem__(-1, -0.5),
         "value must hold 3 class fractions in [0, 1] per node"),
        ("decision_tree", lambda doc: doc["state"]["threshold"].pop(),
         "threshold must hold n = "),
        ("random_forest", lambda doc: doc["state"]["roots"].pop(),
         "expected 100 trees, found 99"),
        ("random_forest", lambda doc: doc["state"]["roots"].append(doc["state"]["roots"][-1] + 1),
         "expected 100 trees, found 101"),
        ("decision_tree", lambda doc: doc["state"].update(roots=[1]),
         "roots must ascend from 0 and lie below the node count"),
        ("random_forest", lambda doc: doc["state"]["roots"].__setitem__(0, 1),
         "roots must ascend from 0 and lie below the node count"),
        ("random_forest", lambda doc: doc["state"]["roots"].reverse(),
         "roots must ascend from 0 and lie below the node count"),
        ("random_forest",
         lambda doc: doc["state"]["roots"].__setitem__(2, doc["state"]["roots"][1]),
         "roots must ascend from 0 and lie below the node count"),
        ("decision_tree",
         lambda doc: doc["state"]["roots"].__setitem__(0, len(doc["state"]["left"])),
         "roots must ascend from 0 and lie below the node count"),
        # Tree 0's root points at tree 1's root, then at a node inside tree 1.
        ("random_forest",
         lambda doc: doc["state"]["left"].__setitem__(0, doc["state"]["roots"][1]),
         "child indices must point forward within their tree"),
        ("random_forest",
         lambda doc: doc["state"]["left"].__setitem__(0, doc["state"]["roots"][1] + 1),
         "child indices must point forward within their tree"),
        ("decision_tree", _root_onto_grandchildren,
         "every node but a root must be the child of one node"),
        ("decision_tree", _leaf_with_a_feature, "a leaf must hold -1 in feature and left"),
        *(("decision_tree", lambda doc, value=value: doc["state"].update(n_features=value),
           "n_features must be a non-negative integer") for value in ("13", " 13 ", 13.9, True)),
    ],
    ids=["unknown-class", "decreasing-classes", "short-scaler", "negative-std",
         "no-trees", "knn-code-beyond-classes", "zero-variance", "negative-variance",
         "ridge-one-weight-row", "two-centroids-for-three-classes", "short-knn-codes",
         "knn-row-beyond-float", "knn-row-beyond-square", "ridge-weight-beyond-float",
         "tree-child-backwards", "tree-child-beyond-end", "tree-feature-beyond-width",
         "tree-negative-feature", "tree-negative-value", "tree-short-threshold",
         "forest-99-trees", "forest-101-trees", "tree-root-not-0", "forest-roots-not-from-0",
         "forest-roots-descending", "forest-roots-repeated", "tree-root-beyond-end",
         "forest-root-is-a-child", "forest-child-in-next-tree", "tree-node-with-two-parents",
         "tree-leaf-with-a-feature",
         "n-features-string", "n-features-padded-string",
         "n-features-float", "n-features-bool"],
)
def test_model_file_with_inconsistent_state_is_model_error(
    name, edit, message, synth_csv, tmp_path, capsys
):
    model_file = tmp_path / "model.json"
    assert main(["train", "--data", str(synth_csv), "--model", name,
                 "--output", str(model_file)]) == EXIT_OK
    document = json.loads(model_file.read_text())
    edit(document)
    model_file.write_text(json.dumps(document))
    capsys.readouterr()
    assert main(["predict", "--data", str(synth_csv),
                 "--model-file", str(model_file)]) == EXIT_MODEL
    err = capsys.readouterr().err
    assert err.startswith("model error: malformed model document: ")
    assert message in err and err.count("\n") == 1


def test_tree_of_depth_3999_trains_saves_and_predicts(tmp_path, capsys):
    # Alternating labels along one varying column: every split peels off one row.
    template = "{},ICMP,A,WannaCry,6,1PyqNahY,1FusionX,976,18571,8317,A,SSH,8080,{}"
    labels = ["A" if i % 2 else "S" for i in range(4_000)]
    data = tmp_path / "alternating.csv"
    data.write_bytes(csv_bytes(*(template.format(i, label) for i, label in enumerate(labels))))
    model_file, predictions = tmp_path / "deep.json", tmp_path / "predictions.csv"
    assert main(["train", "--data", str(data), "--model", "decision_tree",
                 "--output", str(model_file)]) == EXIT_OK
    assert main(["predict", "--data", str(data), "--model-file", str(model_file),
                 "--output", str(predictions)]) == EXIT_OK
    assert capsys.readouterr().err == ""
    assert [line.rsplit(",", 1)[1] for line in predictions.read_text().splitlines()[1:]] == labels
    state = json.loads(model_file.read_text())["state"]
    assert state["roots"] == [0]
    depth = [0] * len(state["left"])
    for node, left in enumerate(state["left"]):
        if left != -1:
            depth[left] = depth[left + 1] = depth[node] + 1
    assert max(depth) == 3_999


def test_synth_validates_arguments(tmp_path):
    assert main(["synth", "--rows", "0"]) == EXIT_USAGE
    assert main(["synth", "--rows", "5", "--signal-strength", "2.0"]) == EXIT_USAGE


def test_every_output_that_cannot_be_written_is_data_error(synth_csv, tmp_path, capsys):
    model_file = tmp_path / "model.json"
    assert main(["train", "--data", str(synth_csv), "--model", "dummy",
                 "--output", str(model_file)]) == EXIT_OK
    unwritable = str(tmp_path / "missing" / "out")
    for command in (
        ["train", "--data", str(synth_csv), "--model", "dummy"],
        ["bench", "--data", str(synth_csv), "--models", "dummy"],
        ["predict", "--data", str(synth_csv), "--model-file", str(model_file)],
        ["synth", "--rows", "5"],
    ):
        capsys.readouterr()
        assert main([*command, "--output", unwritable]) == EXIT_DATA, command
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1, err


def test_output_files_are_written(synth_csv, tmp_path):
    out = tmp_path / "board.csv"
    code = main([
        "bench", "--data", str(synth_csv), "--models", "dummy",
        "--format", "csv", "--output", str(out),
    ])
    assert code == EXIT_OK
    assert out.read_text().startswith("model,status,")


def _two_class_csv(synth_csv, tmp_path, tokens):
    """The rows of the synthetic file whose label is one of `tokens`."""
    header, *rows = synth_csv.read_text().splitlines()
    kept = [row for row in rows if row.rsplit(",", 1)[1] in tokens]
    path = tmp_path / ("_".join(tokens) + ".csv")
    path.write_text("\n".join([header, *kept]) + "\n")
    return path


def test_roc_without_class_a_sweeps_the_classes_present(synth_csv, tmp_path, capsys):
    path = _two_class_csv(synth_csv, tmp_path, ("A", "SS"))
    assert main(["roc", "--data", str(path), "--model", "gaussian_nb"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert {line.split(",")[0] for line in lines[1:]} == {"A", "SS"}


def test_bench_without_class_a_ranks_every_model(synth_csv, tmp_path, capsys):
    path = _two_class_csv(synth_csv, tmp_path, ("S", "SS"))
    code = main(["bench", "--data", str(path), "--format", "json",
                 "--models", "decision_tree,knn,gaussian_nb,ridge,dummy"])
    assert code == EXIT_OK
    reports = json.loads(capsys.readouterr().out)["reports"]
    assert [r["status"] for r in reports] == ["ok"] * 5
    # Class A (code 0) has no row, so it has no recall to average.
    dummy = next(r for r in reports if r["model"] == "dummy")
    assert dummy["balanced_accuracy"] == 0.5
    assert dummy["confusion"][0] == [0, 0, 0]


def test_bench_on_one_class_ranks_every_model_without_roc_auc(synth_csv, tmp_path, capsys):
    # With one class in the holdout no class has a complement, so ROC AUC
    # is undefined; the other metrics still rank the models.
    path = _two_class_csv(synth_csv, tmp_path, ("S",))
    models = "decision_tree,bagging,knn,ridge,dummy"
    assert main(["bench", "--data", str(path), "--format", "json", "--models", models]) == EXIT_OK
    reports = json.loads(capsys.readouterr().out)["reports"]
    assert [r["status"] for r in reports] == ["ok"] * 5
    assert all(r["roc_auc_macro"] is None and r["accuracy"] == 1.0 for r in reports)
    assert main(["bench", "--data", str(path), "--format", "csv", "--models", models]) == EXIT_OK
    header, *rows = capsys.readouterr().out.splitlines()
    column = header.split(",").index("roc_auc_macro")
    assert [row.split(",")[column] for row in rows] == [""] * 5
    assert main(["bench", "--data", str(path), "--models", models]) == EXIT_OK
    header, *rows = capsys.readouterr().out.splitlines()
    assert "ROC AUC" in header and len(rows) == 5
    assert all("error" not in row for row in rows)


def test_roc_on_one_class_is_data_error(synth_csv, tmp_path, capsys):
    # bench ranks such a file without ROC AUC; roc has no curve to write.
    path = _two_class_csv(synth_csv, tmp_path, ("S",))
    assert main(["roc", "--data", str(path), "--model", "dummy"]) == EXIT_DATA
    assert capsys.readouterr().err == (
        "data error: ROC requires both the class and its complement present\n"
    )


@pytest.mark.parametrize("column", ["Time", "USD"])
@pytest.mark.parametrize("command", ["correlate", "bench"])
def test_integer_beyond_float64_precision_is_data_error(column, command, tmp_path, capsys):
    header, *rows = csv_bytes(FIGURE_ROW, FIGURE_ROW).decode().splitlines()
    position = header.split(",").index(column)
    cells = rows[0].split(",")
    cells[position] = str(10**400)
    path = tmp_path / "huge.csv"
    path.write_text("\n".join([header, ",".join(cells), rows[1]]) + "\n")
    assert main([command, "--data", str(path)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"row 1: {column}: integer magnitude above 2**53" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "name, hyperparameter, value",
    [
        # Keys that are class constants now, as format 1 files stored them.
        ("random_forest", "n_trees", 0),
        ("decision_tree", "max_depth", None),
        ("knn", "k", 5),
        ("extra_tree", "seed", -1),
        ("linear_svm_sgd", "seed", -1),
        ("extra_tree", "seed", True),
        ("linear_svm_sgd", "seed", False),
        ("perceptron", "max_epochs", "abc"),
        ("perceptron", "max_epochs", -5),
        ("perceptron", "max_epochs", 1.5),
        ("perceptron", "max_epochs", None),
        ("perceptron", "max_epochs", True),
    ],
)
def test_model_file_rejected_by_constructor_is_model_error(
    name, hyperparameter, value, synth_csv, tmp_path, capsys
):
    model_file = tmp_path / "model.json"
    assert main(["train", "--data", str(synth_csv), "--model", name,
                 "--output", str(model_file)]) == EXIT_OK
    document = json.loads(model_file.read_text())
    document["hyperparameters"][hyperparameter] = value
    model_file.write_text(json.dumps(document))
    capsys.readouterr()
    assert main(["predict", "--data", str(synth_csv),
                 "--model-file", str(model_file)]) == EXIT_MODEL
    err = capsys.readouterr().err
    assert err.startswith("model error: malformed model document")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "command",
    [
        ["bench", "--models", "knn"],
        ["roc", "--model", "knn"],
        ["train", "--model", "knn", "--output", "model.json"],
        ["synth", "--rows", "5"],
    ],
)
def test_negative_seed_is_usage_error_in_every_subcommand(command, synth_csv, capsys):
    argv = [*command, "--seed", "-1"]
    if command[0] != "synth":
        argv += ["--data", str(synth_csv)]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == "usage error: argument --seed: seed must be a non-negative integer\n"
