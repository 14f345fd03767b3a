"""Parsing, validation, and summary statistics for network-flow threat CSVs.

The expected layout is comma-delimited UTF-8 with a mandatory header row of
14 named columns. Binding is by header name rather than position, so
reordered exports parse identically, and a leading unnamed index column (as
produced by dataframe dumps) is tolerated and discarded.

`COLUMNS` is the schema: one (CSV header, cell parser) entry per column, in
canonical order, with the Prediction label last; `FlowRecord` names the same
columns' fields in the same order. The parser, `records_to_csv`, the feature
encoder and the synthetic generator all follow it. Each cell parser takes the
stripped cell text and returns its value or raises ValueError; cells are
checked in canonical order, so a row with several bad cells reports the first
of them. Integer columns' parsers are `IntegerCell`s, which declare the
column's bounds; every other column is coded by vocabulary.

`FlowTable` is the one in-memory dataset: `parse_dataset` and the generator
build it, and the encoder and `summarize` read it by column. Rows exist as
FlowRecords only where a table is iterated.

`parse_dataset` reads CHUNK_ROWS rows at a time and parses each chunk column
by column into a `FlowTable`; every value comes from these columns. A chunk
that fails any check is walked row by row with the cell parsers only to
name its first bad row, so the error it reports is that of the cell parsers.
"""

from __future__ import annotations

import csv
import enum
import io
import itertools
import re
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

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


_TOKEN_TO_CLASS = {
    "A": ThreatClass.ANOMALY,
    "S": ThreatClass.SIGNATURE,
    "SS": ThreatClass.SYNTHETIC_SIGNATURE,
}
_CLASS_TO_TOKEN = {cls: token for token, cls in _TOKEN_TO_CLASS.items()}
_CLASSES = tuple(ThreatClass)


class FlowRecord(NamedTuple):
    """One parsed flow row; its fields name the columns of COLUMNS, in order."""

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


@dataclass(frozen=True)
class IntegerCell:
    """Cell parser of an integer column whose values lie within low..high.

    The bounds lie within ±MAX_EXACT_INTEGER, which every integer cell must
    meet; the chunked parser checks whole columns against the same bounds.
    """

    low: int
    high: int

    def __call__(self, cell: str) -> int:
        value = _integer(cell)
        if not self.low <= value <= self.high:
            # Above 2**53 _integer has already failed, so an amount can only be negative.
            if self.high == MAX_EXACT_INTEGER:
                raise ValueError(f"negative value {value}")
            raise ValueError(f"value {value} outside {self.low}..{self.high}")
        return value


_amount = IntegerCell(0, MAX_EXACT_INTEGER)


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
    ("Time", _amount),
    ("Protocol", _protocol),
    ("Flag", _text),
    ("Family", _text),
    ("Clusters", IntegerCell(-MAX_EXACT_INTEGER, MAX_EXACT_INTEGER)),
    ("SeedAddress", _text),
    ("ExpAddress", _text),
    ("BTC", _amount),
    ("USD", _amount),
    ("Netflow_Bytes", _amount),
    ("IPaddress", _text),
    ("Threats", _text),
    ("Port", IntegerCell(0, 65535)),
    ("Prediction", _label),
)
CANONICAL_COLUMNS = [header for header, _ in COLUMNS]

# Data rows parsed per chunk: enough to amortize the per-column calls, few
# enough that a chunk's cells take a few MB.
CHUNK_ROWS = 4096


class TextColumn(NamedTuple):
    """A text column: its distinct values, each occurring in some row, and every row's code.

    Row i holds `vocabulary[codes[i]]`; the vocabulary is in order of first
    appearance.
    """

    vocabulary: tuple
    codes: np.ndarray  # int32

    @classmethod
    def of(cls, values: Sequence) -> "TextColumn":
        vocabulary = tuple(dict.fromkeys(values))
        index = {value: code for code, value in enumerate(vocabulary)}
        codes = np.fromiter(map(index.__getitem__, values), np.int32, len(values))
        return cls(vocabulary, codes)


class FlowTable:
    """Flows held by column; iterating a table yields its rows as FlowRecords.

    `columns` maps each feature header to an int64 array (integer columns) or
    a TextColumn; `labels` holds the class codes.
    """

    def __init__(self, columns: dict, labels: np.ndarray):
        self.columns = columns
        self.labels = labels

    def __len__(self) -> int:
        return self.labels.size

    def __iter__(self) -> Iterator[FlowRecord]:
        # Rows exist only where a table is iterated, so they are built here
        # with one gather per field and no Python-level call per row.
        fields = []
        for column in self.columns.values():
            if isinstance(column, TextColumn):
                column = np.array(column.vocabulary, dtype=object)[column.codes]
            fields.append(column.tolist())
        fields.append(np.array(_CLASSES, dtype=object)[self.labels].tolist())
        return map(tuple.__new__, itertools.repeat(FlowRecord), zip(*fields))


@dataclass
class DatasetSummary:
    """Exact counts over a table: rows, distinct values, histograms."""

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


def parse_dataset(source) -> FlowTable:
    """Parse a CSV path, bytes, or stream into a FlowTable.

    `source` may be a filesystem path (str or Path), read as a stream, raw
    CSV bytes, or a file-like object. Raises SchemaError when the header is
    wrong and RowError, carrying the 1-based data row number (blank lines
    count), for the first bad row, including a row the csv module cannot read.
    """
    if isinstance(source, (str, Path)):
        # utf-8-sig drops the byte-order mark that spreadsheet "CSV UTF-8" exports
        # write; newline="" leaves line breaks to csv, as they are in bytes input.
        with open(source, encoding="utf-8-sig", newline="") as stream:
            return _parse_stream(stream)
    return _parse_stream(_as_text_stream(source))


def _parse_stream(stream) -> FlowTable:
    reader = csv.reader(stream)
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
    positions = [names.index(c) + offset for c in CANONICAL_COLUMNS]
    width = len(names) + offset
    builders = [
        _IntegerColumn(parse) if isinstance(parse, IntegerCell) else _Vocabulary(parse)
        for _, parse in COLUMNS
    ]
    first_row = 1
    for chunk in _chunks(reader):
        rows = list(filter(None, chunk))
        if rows:
            try:
                parsed = _parse_columns(builders, rows, positions, width)
            except (ValueError, OverflowError):
                _raise_first_row_error(chunk, first_row, positions, width)
                raise
            for builder, values in zip(builders, parsed):
                builder.parts.append(values)
        first_row += len(chunk)
    *features, labels = builders
    columns = {header: b.column() for header, b in zip(CANONICAL_COLUMNS, features)}
    classes, codes = labels.column()
    return FlowTable(columns, np.array(classes, dtype=np.int64)[codes])


def _chunks(reader) -> Iterator[list]:
    """The reader's rows, CHUNK_ROWS at a time.

    When reading fails (a line the csv module rejects, or undecodable bytes),
    the rows read before it form a last chunk, so an error in them is still
    reported first. A rejected line then raises a RowError naming its row.
    """
    rows_read = 0
    while True:
        chunk = []
        try:
            chunk.extend(itertools.islice(reader, CHUNK_ROWS))
        except csv.Error as exc:
            yield chunk
            raise RowError(rows_read + len(chunk) + 1, str(exc)) from None
        except UnicodeDecodeError:
            yield chunk
            raise
        if not chunk:
            return
        rows_read += len(chunk)
        yield chunk


def _parse_columns(builders, rows, positions, width) -> list:
    """A chunk's columns parsed whole; raises ValueError when any row or cell fails a check."""
    if set(map(len, rows)) != {width}:
        raise ValueError("a row has the wrong field count")
    cells = list(zip(*rows))
    return [builder.parse_cells(cells[p]) for builder, p in zip(builders, positions)]


def _raise_first_row_error(chunk, first_row, positions, width) -> None:
    """Raise the RowError of the chunk's first bad row, found with the cell parsers.

    The column path accepts exactly the cells the cell parsers accept, with
    the same values, so a chunk it rejects holds a bad row and this raises.
    """
    for row_no, raw in enumerate(chunk, start=first_row):
        if not raw:
            continue
        if len(raw) != width:
            raise RowError(row_no, f"expected {width} fields, found {len(raw)}") from None
        for (column, parse), position in zip(COLUMNS, positions):
            try:
                parse(raw[position].strip())
            except ValueError as exc:
                raise RowError(row_no, f"{column}: {exc}") from None


class _IntegerColumn:
    """The int64 parts of an integer column, checked against its IntegerCell bounds."""

    def __init__(self, cell: IntegerCell):
        self.cell = cell
        self.parts: list[np.ndarray] = []

    def parse_cells(self, cells) -> np.ndarray:
        try:
            values = np.fromiter(map(int, cells), np.int64, len(cells))
        except ValueError:
            # int() gives the cell parser's value for every legal cell but one:
            # a literal longer than sys.get_int_max_str_digits(), which it refuses.
            values = np.fromiter(map(self.cell, map(str.strip, cells)), np.int64, len(cells))
        if values.min() < self.cell.low or values.max() > self.cell.high:
            raise ValueError("out of bounds")
        return values

    def column(self) -> np.ndarray:
        return np.concatenate([np.empty(0, dtype=np.int64), *self.parts])


class _Vocabulary:
    """The int32 code parts of a text or label column, coding its distinct parsed values."""

    def __init__(self, parse):
        self.parse = parse
        self.parts: list[np.ndarray] = []
        self._codes: dict = {}  # parsed value -> code, in order of first appearance
        self._cells: dict = {}  # raw cell -> code

    def parse_cells(self, cells) -> np.ndarray:
        known = self._cells
        try:
            return np.fromiter(map(known.__getitem__, cells), np.int32, len(cells))
        except KeyError:
            # Parse each new cell once, in order of first appearance, then retry.
            for cell in dict.fromkeys(cells):
                if cell not in known:
                    known[cell] = self._code(self.parse(cell.strip()))
            return self.parse_cells(cells)

    def _code(self, value) -> int:
        return self._codes.setdefault(value, len(self._codes))

    def column(self) -> TextColumn:
        codes = np.concatenate([np.empty(0, dtype=np.int32), *self.parts])
        return TextColumn(tuple(self._codes), codes)


def records_to_csv(records: Iterable[FlowRecord]) -> str:
    """Serialize records to canonical-header CSV text; round-trips parse_dataset."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CANONICAL_COLUMNS)
    writer.writerows((*r[:-1], r[-1].token) for r in records)
    return buffer.getvalue()


def summarize(table: FlowTable) -> DatasetSummary:
    """Row count, per-column distinct-value counts, family and class histograms."""
    family = table.columns["Family"]
    family_sizes = np.bincount(family.codes, minlength=len(family.vocabulary)).tolist()
    classes = np.bincount(table.labels, minlength=len(ThreatClass)).tolist()
    distinct = {
        header: len(column.vocabulary)
        if isinstance(column, TextColumn)
        else np.unique(column).size
        for header, column in table.columns.items()
    }
    distinct[CANONICAL_COLUMNS[-1]] = np.unique(table.labels).size
    families = zip(family.vocabulary, family_sizes)
    return DatasetSummary(
        row_count=len(table),
        distinct_counts=distinct,
        family_counts=dict(sorted(families, key=lambda kv: (-kv[1], kv[0]))),
        class_counts={cls: classes[cls] for cls in ThreatClass},
    )


def _as_text_stream(source) -> io.StringIO:
    if isinstance(source, (bytes, bytearray)):
        return io.StringIO(source.decode("utf-8-sig"))
    data = source.read()
    if isinstance(data, (bytes, bytearray)):
        data = data.decode("utf-8-sig")
    return io.StringIO(data)
