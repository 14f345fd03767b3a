"""Benchmark harness: fit every requested model, score, time, and rank.

The headline leaderboard always comes from the holdout split; k-fold
cross-validation is opt-in and attached per report. A model that fails to
fit, on the holdout split or in a CV fold, becomes an error row instead of
aborting the run. Models are evaluated one after another, in the order
named, and the leaderboard is ordered by the sort rule.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields

from flowbench.classifiers import MODEL_NAMES, make_model, non_negative_int
from flowbench.features import FEATURE_COLUMNS, FeatureMatrix, SplitPlan, k_folds
from flowbench.flow_data import csv_text
from flowbench.metrics import (
    CVResult,
    accuracy,
    balanced_accuracy,
    confusion,
    cv_evaluate,
    f1,
    fit_and_score,
    roc_curves,
)

SCHEMA_VERSION = 1


@dataclass
class EvalReport:
    """One model's metric row; `status` is "ok" or an error description."""

    model: str
    status: str = "ok"
    accuracy: float | None = None
    balanced_accuracy: float | None = None
    roc_auc_macro: float | None = None
    f1_weighted: float | None = None
    f1_macro: float | None = None
    time_taken_s: float | None = None
    confusion: list[list[int]] | None = None
    cv: CVResult | None = None


# The metric columns of the CSV and JSON renderings, in this order.
_METRIC_FIELDS = [f.name for f in fields(EvalReport) if f.type == "float | None"]


@dataclass
class Leaderboard:
    """Reports sorted by accuracy desc, balanced accuracy desc, then name."""

    reports: list[EvalReport]
    metadata: dict


@dataclass(frozen=True)
class BenchOptions:
    """The options of one run, with their defaults; bad values raise ValueError."""

    seed: int = 42
    test_fraction: float = 0.2
    folds: int = 0  # 0 = holdout only; k >= 2 adds k-fold cross-validation
    workers: int = 1  # must be at least 1; selects nothing until worker processes exist

    def __post_init__(self):
        non_negative_int(self.seed, "seed")
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError("test_fraction must be in (0, 1)")
        if non_negative_int(self.folds, "folds") == 1:
            raise ValueError("folds must be 0 or at least 2")
        if non_negative_int(self.workers, "workers") < 1:
            raise ValueError("workers must be at least 1")


def run_benchmark(
    matrix: FeatureMatrix,
    plan: SplitPlan,
    model_names,
    options: BenchOptions | None = None,
) -> Leaderboard:
    """Fit each model on the train split, score the test split, rank the results."""
    options = options or BenchOptions()
    names = resolve_model_names(model_names)
    n_classes = matrix.n_classes
    test_labels = matrix.labels[plan.test_indices]
    folds = k_folds(matrix.labels, options.folds, options.seed) if options.folds else None

    def evaluate(name: str) -> EvalReport:
        def new_model():
            return make_model(name, seed=options.seed)

        try:
            scores, predicted, elapsed = fit_and_score(
                new_model, matrix, plan.train_indices, plan.test_indices
            )
            counts = confusion(test_labels, predicted, n_classes)
            report = EvalReport(
                model=name,
                accuracy=accuracy(counts),
                balanced_accuracy=balanced_accuracy(counts),
                roc_auc_macro=macro_auc(test_labels, scores),
                f1_weighted=f1(counts, "weighted"),
                f1_macro=f1(counts, "macro"),
                time_taken_s=elapsed,
                confusion=counts.tolist(),
            )
            if folds is not None:
                report.cv = cv_evaluate(
                    new_model,
                    matrix,
                    folds,
                    lambda y_true, y_pred: 1.0
                    - accuracy(confusion(y_true, y_pred, n_classes)),
                )
        except Exception as exc:
            return EvalReport(model=name, status=f"error: {exc}")
        return report

    reports = sorted(map(evaluate, names), key=_sort_key)
    metadata = {
        "seed": options.seed,
        "test_fraction": options.test_fraction,
        "folds": options.folds,
        "fingerprint": fingerprint(matrix),
        "roc_auc_averaging": "macro one-vs-rest",
        "table_f1_averaging": "weighted",
    }
    return Leaderboard(reports=reports, metadata=metadata)


def macro_auc(y_true, scores) -> float | None:
    """Unweighted mean of one-vs-rest AUCs over classes present in y_true.

    None when y_true holds a single class: no class then has a complement.
    """
    if len(set(y_true.tolist())) < 2:
        return None
    return roc_curves(y_true, scores).macro_auc


def fingerprint(matrix: FeatureMatrix) -> dict:
    column_hash = hashlib.sha256(",".join(FEATURE_COLUMNS).encode("utf-8")).hexdigest()[:16]
    return {"rows": int(matrix.labels.size), "column_hash": column_hash}


def resolve_model_names(model_names) -> list[str]:
    if model_names == "all" or model_names is None:
        return list(MODEL_NAMES)
    names = list(model_names)
    if not names:
        raise ValueError("empty model set: name at least one model")
    unknown = [n for n in names if n not in MODEL_NAMES]
    if unknown:
        raise ValueError(f"unknown model name(s): {', '.join(unknown)}")
    duplicates = dict.fromkeys(n for n in names if names.count(n) > 1)
    if duplicates:
        raise ValueError(f"duplicate model name(s): {', '.join(duplicates)}")
    return names


def _sort_key(report: EvalReport):
    if report.status != "ok":
        return (1, 0.0, 0.0, report.model)
    return (0, -report.accuracy, -report.balanced_accuracy, report.model)


# rendering -------------------------------------------------------------------

_TABLE_COLUMNS = [
    "Model",
    "Accuracy",
    "Balanced Accuracy",
    "ROC AUC",
    "F1 Score",
    "Time Taken",
]


def render(leaderboard: Leaderboard, fmt: str = "table") -> str:
    """Serialize a leaderboard as an aligned table, CSV, or versioned JSON."""
    if fmt == "table":
        return _render_table(leaderboard)
    if fmt == "csv":
        return _render_csv(leaderboard)
    if fmt == "json":
        return json.dumps(to_json_dict(leaderboard), indent=2)
    raise ValueError(f"unknown format {fmt!r}")


def _render_table(leaderboard: Leaderboard) -> str:
    rows = [_TABLE_COLUMNS]
    for r in leaderboard.reports:
        if r.status != "ok":
            rows.append([r.model, r.status, "", "", "", ""])
            continue
        values = (r.accuracy, r.balanced_accuracy, r.roc_auc_macro, r.f1_weighted, r.time_taken_s)
        rows.append([r.model, *("" if v is None else f"{v:.2f}" for v in values)])
    widths = [max(len(row[i]) for row in rows) for i in range(len(_TABLE_COLUMNS))]
    return "".join(
        "  ".join(
            cell.ljust(width) if i == 0 else cell.rjust(width)
            for i, (cell, width) in enumerate(zip(row, widths))
        )
        + "\n"
        for row in rows
    )


def _render_csv(leaderboard: Leaderboard) -> str:
    rows = [["model", "status", *_METRIC_FIELDS, "cv_error"]]
    for r in leaderboard.reports:
        rows.append(
            [
                r.model,
                r.status,
                *(_fmt(getattr(r, name)) for name in _METRIC_FIELDS),
                _fmt(r.cv.cv_error) if r.cv is not None else "",
            ]
        )
    return csv_text(rows)


def _fmt(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def to_json_dict(leaderboard: Leaderboard) -> dict:
    reports = []
    for r in leaderboard.reports:
        entry = {
            "model": r.model,
            "status": r.status,
            **{name: getattr(r, name) for name in _METRIC_FIELDS},
            "confusion": r.confusion,
        }
        if r.cv is not None:
            entry["cv"] = asdict(r.cv)
        reports.append(entry)
    return {
        "schema_version": SCHEMA_VERSION,
        "metadata": leaderboard.metadata,
        "reports": reports,
    }


def leaderboard_from_json(text: str) -> Leaderboard:
    """Parse the JSON rendering back into an equal Leaderboard."""
    document = json.loads(text)
    version = document.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported leaderboard schema_version: {version!r}")
    reports = []
    for entry in document["reports"]:
        cv_doc = entry.get("cv")
        reports.append(
            EvalReport(
                model=entry["model"],
                status=entry["status"],
                **{name: entry[name] for name in _METRIC_FIELDS},
                confusion=entry["confusion"],
                cv=CVResult(**cv_doc) if cv_doc is not None else None,
            )
        )
    return Leaderboard(reports=reports, metadata=document["metadata"])
