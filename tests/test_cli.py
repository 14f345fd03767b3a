import json

import numpy as np
import pytest

from flowbench.cli import EXIT_DATA, EXIT_MODEL, EXIT_OK, EXIT_USAGE, main
from flowbench.flow_data import parse_dataset, records_to_csv
from flowbench.synth import generate_records


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


def test_bad_test_fraction_is_usage_error(synth_csv):
    assert main(["bench", "--data", str(synth_csv), "--test-fraction", "1.5"]) == EXIT_USAGE
    assert main(["bench", "--data", str(synth_csv), "--folds", "1"]) == EXIT_USAGE


def test_unknown_model_name_is_usage_error(synth_csv):
    assert main(["bench", "--data", str(synth_csv), "--models", "nope"]) == EXIT_USAGE
    assert main(["roc", "--data", str(synth_csv), "--model", "nope"]) == EXIT_USAGE


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
    records = generate_records(60, seed=5, signal_strength=0.9)
    picked = [r for c, n in ((0, 2), (1, 2), (2, 4))
              for r in [r for r in records if int(r.prediction) == c][:n]]
    assert [int(r.prediction) for r in picked] == [0, 0, 1, 1, 2, 2, 2, 2]
    path = tmp_path / "tiny.csv"
    path.write_text(records_to_csv(picked))
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


def test_synth_validates_arguments(tmp_path):
    assert main(["synth", "--rows", "0"]) == EXIT_USAGE
    assert main(["synth", "--rows", "5", "--signal-strength", "2.0"]) == EXIT_USAGE


def test_output_files_are_written(synth_csv, tmp_path):
    out = tmp_path / "board.csv"
    code = main([
        "bench", "--data", str(synth_csv), "--models", "dummy",
        "--format", "csv", "--output", str(out),
    ])
    assert code == EXIT_OK
    assert out.read_text().startswith("model,status,")
