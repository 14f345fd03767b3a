"""Parsing, validation, and summary statistics for network-flow threat CSVs.

The expected layout is comma-delimited UTF-8 with a mandatory header row of
14 named columns. Binding is by header name rather than position, so
reordered exports parse identically, and a leading unnamed index column (as
produced by dataframe dumps) is tolerated and discarded.

`COLUMNS` is the schema: one (CSV header, FlowRecord field, cell parser)
entry per column, in canonical order, with the Prediction label last. The
parser, `records_to_csv`, the feature encoder and the synthetic generator all
follow it. Each cell parser takes the stripped cell text and returns its value
or raises ValueError; cells are checked in canonical order, so a row with
several bad cells reports the first of them.
"""

from __future__ import annotations

import csv
import enum
import io
import re
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

PROTOCOL_VOCABULARY = ("ICMP", "TCP", "UDP")


class SchemaError(ValueError):
    """The header row does not provide the expected columns."""


class RowError(ValueError):
    """A data row failed validation; `row` is the 1-based data row number."""

    def __init__(self, row: int, message: str):
        super().__init__(f"row {row}: {message}")
        self.row = row


class ThreatClass(enum.IntEnum):
    """Label classes, coded by lexicographic rank of the tokens A < S < SS."""

    ANOMALY = 0
    SIGNATURE = 1
    SYNTHETIC_SIGNATURE = 2

    @property
    def token(self) -> str:
        return _CLASS_TO_TOKEN[self]

    @classmethod
    def from_token(cls, token: str) -> "ThreatClass":
        try:
            return _TOKEN_TO_CLASS[token]
        except KeyError:
            raise ValueError(f"unknown prediction label {token!r}") from None


_TOKEN_TO_CLASS = {
    "A": ThreatClass.ANOMALY,
    "S": ThreatClass.SIGNATURE,
    "SS": ThreatClass.SYNTHETIC_SIGNATURE,
}
_CLASS_TO_TOKEN = {cls: token for token, cls in _TOKEN_TO_CLASS.items()}


class FlowRecord(NamedTuple):
    """One parsed flow row; its fields follow the order of COLUMNS."""

    time: int
    protocol: str
    flag: str
    family: str
    clusters: int
    seed_address: str
    exp_address: str
    btc: int
    usd: int
    netflow_bytes: int
    ip_class: str
    threat: str
    port: int
    prediction: ThreatClass


# Integers up to this magnitude are exact in float64, the encoded feature type.
MAX_EXACT_INTEGER = 2**53


# Messages quote at most this many characters of a bad cell.
SHOWN_CELL_CHARS = 40
# The base-10 literals int() parses, whatever their length.
_INTEGER_LITERAL = re.compile(r"[+-]?\d+(?:_\d+)*")


def _shown(cell: str) -> str:
    """The repr of a bad cell for a message: the cell, or a prefix of a long one."""
    if len(cell) <= SHOWN_CELL_CHARS:
        return repr(cell)
    return f"{cell[:SHOWN_CELL_CHARS]!r}... ({len(cell)} characters)"


def _integer(cell: str) -> int:
    try:
        value = int(cell)
    except ValueError:
        if not _INTEGER_LITERAL.fullmatch(cell):
            raise ValueError(f"non-integer value {_shown(cell)}") from None
        # int() refuses a literal of more than sys.get_int_max_str_digits()
        # digits, leading zeros included. Decimal has no such limit; it is
        # imported on this rare path only, to keep it out of every run.
        from decimal import Decimal

        value = Decimal(cell)
        if abs(value) <= MAX_EXACT_INTEGER:
            return int(value)
    # A cell of at most 15 characters is below 10**15 in magnitude, the fast path.
    if len(cell) > 15 and abs(value) > MAX_EXACT_INTEGER:
        raise ValueError("integer magnitude above 2**53")
    return value


def _amount(cell: str) -> int:
    value = _integer(cell)
    if value < 0:
        raise ValueError(f"negative value {value}")
    return value


def _port(cell: str) -> int:
    value = _integer(cell)
    if not 0 <= value <= 65535:
        raise ValueError(f"value {value} outside 0..65535")
    return value


def _protocol(cell: str) -> str:
    if cell not in PROTOCOL_VOCABULARY:
        raise ValueError(f"unknown value {_shown(cell)}")
    return sys.intern(cell)


def _label(cell: str) -> ThreatClass:
    try:
        return _TOKEN_TO_CLASS[cell]
    except KeyError:
        raise ValueError(f"unknown label {_shown(cell)}") from None


# Text cells repeat a small vocabulary, so one shared copy of each saves memory.
_text = sys.intern

COLUMNS = (
    ("Time", "time", _amount),
    ("Protocol", "protocol", _protocol),
    ("Flag", "flag", _text),
    ("Family", "family", _text),
    ("Clusters", "clusters", _integer),
    ("SeedAddress", "seed_address", _text),
    ("ExpAddress", "exp_address", _text),
    ("BTC", "btc", _amount),
    ("USD", "usd", _amount),
    ("Netflow_Bytes", "netflow_bytes", _amount),
    ("IPaddress", "ip_class", _text),
    ("Threats", "threat", _text),
    ("Port", "port", _port),
    ("Prediction", "prediction", _label),
)
CANONICAL_COLUMNS = [header for header, _, _ in COLUMNS]
COLUMN_FIELDS = {header: field for header, field, _ in COLUMNS}


@dataclass
class DatasetSummary:
    """Exact counts over a record list: rows, distinct values, histograms."""

    row_count: int
    distinct_counts: dict[str, int]
    family_counts: dict[str, int]
    class_counts: dict[ThreatClass, int]

    @property
    def family_count(self) -> int:
        return len(self.family_counts)

    def to_json_dict(self) -> dict:
        return {
            "row_count": self.row_count,
            "column_count": len(CANONICAL_COLUMNS),
            "family_count": self.family_count,
            "distinct_counts": dict(self.distinct_counts),
            "family_counts": dict(self.family_counts),
            "class_counts": {cls.token: n for cls, n in self.class_counts.items()},
        }


def parse_dataset(source) -> list[FlowRecord]:
    """Parse a CSV path, bytes, or stream into a list of FlowRecords.

    `source` may be a filesystem path (str or Path), raw CSV bytes, or a
    file-like object. Raises SchemaError when the header is wrong and
    RowError, carrying the 1-based data row number, for the first bad row.
    """
    reader = csv.reader(_as_text_stream(source))
    header = next(reader, None)
    if header is None:
        raise SchemaError("empty input: a header row is required")

    drop_index = len(header) > 0 and header[0].strip() == ""
    names = [cell.strip() for cell in (header[1:] if drop_index else header)]
    duplicates = sorted(name for name, count in Counter(names).items() if count > 1)
    if duplicates:
        raise SchemaError(f"duplicate column(s): {', '.join(duplicates)}")
    missing = [c for c in CANONICAL_COLUMNS if c not in names]
    extra = [c for c in names if c not in CANONICAL_COLUMNS]
    if missing or extra:
        parts = []
        if missing:
            parts.append("missing column(s): " + ", ".join(missing))
        if extra:
            parts.append("unexpected column(s): " + ", ".join(extra))
        raise SchemaError("; ".join(parts))

    offset = 1 if drop_index else 0
    cells = [(c, names.index(c) + offset, parse) for c, _, parse in COLUMNS]
    width = len(names) + offset

    records = []
    for row_no, raw in enumerate(reader, start=1):
        if not raw:
            continue
        if len(raw) != width:
            raise RowError(row_no, f"expected {width} fields, found {len(raw)}")
        values = []
        for column, position, parse in cells:
            try:
                values.append(parse(raw[position].strip()))
            except ValueError as exc:
                raise RowError(row_no, f"{column}: {exc}") from None
        records.append(FlowRecord(*values))
    return records


def records_to_csv(records: Iterable[FlowRecord]) -> str:
    """Serialize records to canonical-header CSV text; round-trips parse_dataset."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CANONICAL_COLUMNS)
    writer.writerows((*r[:-1], r[-1].token) for r in records)
    return buffer.getvalue()


def summarize(records: Sequence[FlowRecord]) -> DatasetSummary:
    """Row count, per-column distinct-value counts, family and class histograms."""
    families = Counter(r.family for r in records)
    classes = Counter(r.prediction for r in records)
    distinct = {
        column: len({r[i] for r in records})
        for i, column in enumerate(CANONICAL_COLUMNS)
    }
    return DatasetSummary(
        row_count=len(records),
        distinct_counts=distinct,
        family_counts=dict(sorted(families.items(), key=lambda kv: (-kv[1], kv[0]))),
        class_counts={cls: classes.get(cls, 0) for cls in ThreatClass},
    )


def _as_text_stream(source) -> io.StringIO:
    # utf-8-sig drops the byte-order mark that spreadsheet "CSV UTF-8" exports write.
    if isinstance(source, (str, Path)):
        return io.StringIO(Path(source).read_text(encoding="utf-8-sig"))
    if isinstance(source, (bytes, bytearray)):
        return io.StringIO(source.decode("utf-8-sig"))
    data = source.read()
    if isinstance(data, (bytes, bytearray)):
        data = data.decode("utf-8-sig")
    return io.StringIO(data)
