"""Versioned JSON persistence for fitted models and their feature-space state."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from flowbench.classifiers.base import Classifier
from flowbench.classifiers.registry import MODEL_CLASSES
from flowbench.features import CATEGORICAL_COLUMNS, FEATURE_COLUMNS, Scaler
from flowbench.flow_data import MAX_EXACT_INTEGER, ThreatClass

FORMAT_VERSION = 1


class ModelFormatError(ValueError):
    """The document is not a loadable model file."""


@dataclass
class ModelArtifact:
    """A fitted model together with the encoders and scaler it was trained with."""

    model: Classifier
    encoders: dict[str, dict[str, int]]
    scaler: Scaler | None


def save_model(
    path, model: Classifier, *, encoders: dict[str, dict[str, int]], scaler: Scaler | None
) -> None:
    # column_names is written for readers of the file; load_model checks
    # n_features instead, the width that predict requires.
    document = {
        "format_version": FORMAT_VERSION,
        "model": model.name,
        "hyperparameters": model.hyperparameters,
        "state": model.get_state(),
        "encoders": encoders,
        "scaler": scaler.to_json_dict() if scaler is not None else None,
        "column_names": FEATURE_COLUMNS,
    }
    Path(path).write_text(json.dumps(document), encoding="utf-8")


def load_model(path) -> ModelArtifact:
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"not a UTF-8 JSON document: {exc}") from None
    if not isinstance(document, dict):
        raise ModelFormatError("the document is not a JSON object")
    version = document.get("format_version")
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported model format_version: {version!r}")
    name = document.get("model")
    if name not in MODEL_CLASSES:
        raise ModelFormatError(f"unknown model name in file: {name!r}")
    try:
        model = MODEL_CLASSES[name](**document["hyperparameters"])
        _check_classes(document["state"]["classes"])
        model.set_state(document["state"])
        return ModelArtifact(
            model=model,
            encoders=_checked_encoders(document["encoders"]),
            scaler=_checked_scaler(document.get("scaler"), model.n_features_),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"malformed model document: {exc}") from exc


def _check_classes(classes) -> None:
    """Require a non-empty, strictly increasing list of ThreatClass codes."""
    known = range(len(ThreatClass))
    if not (
        isinstance(classes, list)
        and classes
        and all(type(code) is int and code in known for code in classes)
        and classes == sorted(set(classes))
    ):
        raise ModelFormatError(
            "classes must be a strictly increasing list of class codes"
            f" in 0..{len(ThreatClass) - 1}"
        )


def _checked_scaler(doc, n_features: int) -> Scaler | None:
    """The scaler, when it holds n_features finite means and finite, non-negative stds."""
    if not doc:
        return None
    scaler = Scaler.from_json_dict(doc)
    if not (
        scaler.mean.shape == scaler.std.shape == (n_features,)
        and np.isfinite(scaler.mean).all()
        and np.isfinite(scaler.std).all()
        and (scaler.std >= 0).all()
    ):
        raise ModelFormatError(
            f"the scaler must hold {n_features} finite means and {n_features} finite, "
            "non-negative stds"
        )
    return scaler


def _checked_encoders(encoders) -> dict[str, dict[str, int]]:
    """The encoders, when each categorical column maps text to integer codes.

    A code must lie within ±MAX_EXACT_INTEGER, as every encoded feature does.
    """
    if not isinstance(encoders, dict):
        raise ModelFormatError("encoders must be a JSON object")
    for name in CATEGORICAL_COLUMNS:
        codes = encoders.get(name)
        if not isinstance(codes, dict) or not all(
            type(code) is int and abs(code) <= MAX_EXACT_INTEGER for code in codes.values()
        ):
            raise ModelFormatError(f"encoders[{name!r}] must map text to integer codes")
    return encoders
