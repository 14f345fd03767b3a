"""Versioned JSON persistence for fitted models and their feature-space state."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from flowbench.classifiers.base import Classifier
from flowbench.classifiers.registry import MODEL_CLASSES
from flowbench.features import CATEGORICAL_COLUMNS, Scaler
from flowbench.flow_data import MAX_EXACT_INTEGER

FORMAT_VERSION = 1


class ModelFormatError(ValueError):
    """The document is not a loadable model file."""


@dataclass
class ModelArtifact:
    """A fitted model together with the encoders and scaler it was trained with."""

    model: Classifier
    encoders: dict[str, dict[str, int]]
    scaler: Scaler | None
    column_names: list[str]


def save_model(
    path,
    model: Classifier,
    *,
    encoders: dict[str, dict[str, int]],
    scaler: Scaler | None,
    column_names: list[str],
) -> None:
    document = {
        "format_version": FORMAT_VERSION,
        "model": model.name,
        "hyperparameters": model.hyperparameters,
        "state": model.get_state(),
        "encoders": encoders,
        "scaler": scaler.to_json_dict() if scaler is not None else None,
        "column_names": list(column_names),
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
        model.set_state(document["state"])
        scaler_doc = document.get("scaler")
        return ModelArtifact(
            model=model,
            encoders=_checked_encoders(document["encoders"]),
            scaler=Scaler.from_json_dict(scaler_doc) if scaler_doc else None,
            column_names=list(document["column_names"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"malformed model document: {exc}") from exc


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
