"""Versioned JSON persistence for fitted models and their feature-space state."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from flowbench.classifiers.base import Classifier, non_negative_int
from flowbench.classifiers.registry import MODEL_CLASSES
from flowbench.features import CATEGORICAL_COLUMNS, FEATURE_COLUMNS, Scaler
from flowbench.flow_data import CLASS_TOKENS, MAX_EXACT_INTEGER

FORMAT_VERSION = 5

# Each element kind an array declaration names: the dtype the array decodes
# to, the kinds of the numpy arrays (as np.asarray reads a JSON list) that
# convert to it, and what the list must hold. A float array takes integers
# too, uint64 among them (an integer in [2**63, 2**64)).
_KINDS = {int: (np.int64, "i", "integers"), float: (np.float64, "iuf", "numbers")}
# The scaler's arrays, declared as a model declares its fitted arrays.
_SCALER = {"mean": (float, "d"), "std": (float, "d")}


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
    model._require_fitted()
    document = {
        "format_version": FORMAT_VERSION,
        "model": model.name,
        "hyperparameters": model.hyperparameters,
        "state": {
            "classes": model.classes_.tolist(),
            "n_features": model.n_features_,
            **_encoded(model._state()),
        },
        "encoders": encoders,
        "scaler": None if scaler is None else _encoded({"mean": scaler.mean, "std": scaler.std}),
        "column_names": FEATURE_COLUMNS,
    }
    Path(path).write_text(json.dumps(document), encoding="utf-8")


def load_model(path) -> ModelArtifact:
    try:
        document = json.loads(
            Path(path).read_text(encoding="utf-8"),
            parse_constant=_reject_constant,
            parse_float=_finite_float,
        )
    except ModelFormatError:
        raise
    except ValueError as exc:
        # Undecodable bytes, bad JSON, or an integer literal beyond Python's
        # digit limit for int().
        raise ModelFormatError(f"not a UTF-8 JSON document: {exc}") from None
    except RecursionError:
        # json.loads recurses once per nesting level of arrays and objects.
        raise ModelFormatError("the document nests too deeply to decode") from None
    if not isinstance(document, dict):
        raise ModelFormatError("the document is not a JSON object")
    version = document.get("format_version")
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported model format_version: {version!r}")
    name = document.get("model")
    if not isinstance(name, str) or name not in MODEL_CLASSES:
        raise ModelFormatError(f"unknown model name in file: {name!r}")
    try:
        model = MODEL_CLASSES[name](**document["hyperparameters"])
        state = document["state"]
        model.classes_ = _checked_classes(state["classes"])
        model.n_features_ = non_negative_int(state["n_features"], "n_features")
        sizes = {"k": model.classes_.size, "d": model.n_features_}
        model._load_state(_decoded(state, model._fitted, sizes))
        return ModelArtifact(
            model=model,
            encoders=_checked_encoders(document["encoders"]),
            scaler=_checked_scaler(document.get("scaler"), model.n_features_),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"malformed model document: {exc}") from exc


def _reject_constant(name: str):
    raise ModelFormatError(f"non-finite number in the document: {name}")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ModelFormatError(f"non-finite number in the document: {text}")
    return value


def _encoded(arrays: dict[str, np.ndarray]) -> dict[str, list]:
    """Each array as one flat JSON list, in C order."""
    return {name: array.ravel().tolist() for name, array in arrays.items()}


def _decoded(document: dict, declared: dict, sizes: dict[str, int]) -> dict[str, np.ndarray]:
    """The declared arrays of a document, each as int64 or float64 in its declared shape.

    `sizes` binds dimension names to sizes. A free dimension is bound by the
    first declared one-dimensional array that names it, so those decode first.
    """
    arrays = {}
    for name, (kind, *dims) in sorted(declared.items(), key=lambda item: len(item[1])):
        dtype, kinds, noun = _KINDS[kind]
        try:
            array = np.asarray(document[name])
        except ValueError:  # lists nested to unequal depths or lengths
            array = None
        # An empty list reads as floats; it has no element of a wrong kind.
        if array is None or array.ndim != 1 or (array.size and array.dtype.kind not in kinds):
            raise ValueError(f"{name} must be a flat list of {noun}")
        if len(dims) == 1:
            sizes.setdefault(dims[0], array.size)
        shape = [sizes[dim] for dim in dims]
        if array.size != math.prod(shape):
            expected = f"{' * '.join(dims)} = {math.prod(shape)}"
            raise ValueError(f"{name} must hold {expected} {noun}, found {array.size}")
        arrays[name] = array.astype(dtype, copy=False).reshape(shape)
    return arrays


def _checked_classes(classes) -> np.ndarray:
    """The classes, when they are a non-empty, strictly increasing list of class codes."""
    known = range(len(CLASS_TOKENS))
    if not (
        isinstance(classes, list)
        and classes
        and all(type(code) is int and code in known for code in classes)
        and classes == sorted(set(classes))
    ):
        raise ModelFormatError(
            "classes must be a strictly increasing list of class codes"
            f" in 0..{len(CLASS_TOKENS) - 1}"
        )
    return np.array(classes, dtype=np.int64)


def _checked_scaler(doc, n_features: int) -> Scaler | None:
    """The scaler, when it holds n_features finite means and finite, non-negative stds."""
    if not doc:
        return None
    scaler = Scaler(**_decoded(doc, _SCALER, {"d": n_features}))
    if not (
        np.isfinite(scaler.mean).all()
        and np.isfinite(scaler.std).all()
        and (scaler.std >= 0).all()
    ):
        raise ModelFormatError("the scaler must hold finite means and finite, non-negative stds")
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
