"""Feature encoding, z-score scaling, and deterministic stratified splitting.

Encoding reads a FlowTable column by column: integer columns pass through,
and each text column maps its vocabulary to codes once and gathers them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from flowbench.flow_data import CANONICAL_COLUMNS, COLUMNS, FlowTable, IntegerCell

# Every column but the label, which comes last.
FEATURE_COLUMNS = CANONICAL_COLUMNS[:-1]
# The text-valued features, in canonical order: the columns the parser codes
# by vocabulary. This order is the encoder order that model files store.
CATEGORICAL_COLUMNS = tuple(
    header for header, parse in COLUMNS[:-1] if not isinstance(parse, IntegerCell)
)

# Code assigned to categorical values never seen while fitting the encoders.
UNSEEN_CODE = -1


@dataclass
class Scaler:
    """Per-column centering plus unit-variance scaling for non-constant columns."""

    mean: np.ndarray
    std: np.ndarray  # population std; exact zeros mark constant columns

    def apply(self, rows: np.ndarray) -> np.ndarray:
        out = rows - self.mean
        nonconstant = self.std > 0
        out[:, nonconstant] /= self.std[nonconstant]
        return out


@dataclass
class FeatureMatrix:
    """Numeric design matrix plus the fitted per-column state that built it.

    `rows` is the matrix models consume: z-scored when a scaler was fitted,
    otherwise identical to `encoded` (the raw integer-coded values).
    """

    rows: np.ndarray
    labels: np.ndarray
    encoders: dict[str, dict[str, int]]
    scaler: Scaler | None
    encoded: np.ndarray

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1 if self.labels.size else 0

    def rows_for(self, model) -> np.ndarray:
        """Scaled rows for models that want them, raw encoded rows otherwise."""
        return self.rows if getattr(model, "needs_scaling", False) else self.encoded


@dataclass
class SplitPlan:
    """Deterministic holdout partition."""

    train_indices: np.ndarray
    test_indices: np.ndarray


def fit_transform(table: FlowTable, scale: bool = False) -> FeatureMatrix:
    """Encode a table into a FeatureMatrix, fitting encoders (and a scaler).

    Categorical columns map to integer codes by lexicographic rank of the
    vocabulary seen here; numeric columns pass through. With scale=True a
    z-score scaler is fitted on these rows and applied to `rows`;
    constant columns are centered only, so they come out as all zeros.
    """
    if not len(table):
        raise ValueError("fit_transform requires at least one record")
    encoders = {
        name: {value: rank for rank, value in enumerate(sorted(table.columns[name].vocabulary))}
        for name in CATEGORICAL_COLUMNS
    }
    encoded = encode_records(table, encoders)
    scaler = None
    rows = encoded
    if scale:
        scaler = Scaler(mean=encoded.mean(axis=0), std=encoded.std(axis=0))
        rows = scaler.apply(encoded)
    return FeatureMatrix(
        rows=rows,
        labels=table.labels,
        encoders=encoders,
        scaler=scaler,
        encoded=encoded,
    )


def encode_records(table: FlowTable, encoders: dict[str, dict[str, int]]) -> np.ndarray:
    """Apply fitted encoders; unseen categorical values map to UNSEEN_CODE.

    A categorical column encodes through one lookup array over its
    vocabulary and one gather.
    """
    out = np.empty((len(table), len(FEATURE_COLUMNS)), dtype=np.float64)
    for j, name in enumerate(FEATURE_COLUMNS):
        column = table.columns[name]
        if name in CATEGORICAL_COLUMNS:
            codes = encoders[name]
            lookup = np.array(
                [codes.get(v, UNSEEN_CODE) for v in column.vocabulary], dtype=np.float64
            )
            out[:, j] = lookup[column.codes]
        else:
            out[:, j] = column
    return out


def transform(matrix: FeatureMatrix, table: FlowTable) -> np.ndarray:
    """Encode a new table with the matrix's fitted encoders and scaler."""
    rows = encode_records(table, matrix.encoders)
    if matrix.scaler is not None:
        rows = matrix.scaler.apply(rows)
    return rows


def stratified_split(labels, test_fraction: float, seed: int) -> SplitPlan:
    """Per-class proportional holdout split, deterministic for a fixed seed.

    Every class contributes round(count * test_fraction) test samples,
    clamped so both sides keep at least one member of each class.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    classes, counts = np.unique(labels, return_counts=True)
    small = classes[counts < 2]
    if small.size:
        raise ValueError(f"class {int(small[0])} has fewer than 2 members")
    rng = np.random.default_rng(seed)
    test_parts, train_parts = [], []
    for cls, count in zip(classes, counts):
        permuted = rng.permutation(np.flatnonzero(labels == cls))
        take = int(np.floor(count * test_fraction + 0.5))
        take = min(max(take, 1), int(count) - 1)
        test_parts.append(permuted[:take])
        train_parts.append(permuted[take:])
    return SplitPlan(
        train_indices=np.sort(np.concatenate(train_parts)),
        test_indices=np.sort(np.concatenate(test_parts)),
    )


def k_folds(labels, k: int, seed: int) -> np.ndarray:
    """Stratified fold assignment in [0, k), fold sizes differing by at most one."""
    labels = np.asarray(labels, dtype=np.int64)
    if k < 2:
        raise ValueError("k must be at least 2")
    _, dense, counts = np.unique(labels, return_inverse=True, return_counts=True)
    smallest = int(counts.min())
    if k > smallest:
        raise ValueError(f"k={k} exceeds the smallest class size ({smallest})")
    # Fold i receives every k-th label of the labels sorted by class, which
    # keeps both fold sizes and class balance tight: a class at offset `start`
    # of that order takes its folds, in fold order, over its shuffled members.
    rng = np.random.default_rng(seed)
    assignment = np.empty(labels.size, dtype=np.int64)
    for ci, start in enumerate(np.cumsum(counts) - counts):
        members = rng.permutation(np.flatnonzero(dense == ci))
        assignment[members] = np.sort(np.arange(start, start + members.size) % k)
    return assignment
