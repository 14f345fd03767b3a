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
column's bounds; every other column is coded by vocabulary. Every label fact
lives in `CLASS_TOKENS`: a label is its class code, its token's index there.

`FlowTable` is the one in-memory dataset: `parse_dataset` and the generator
build it, and the encoder and `summarize` read it by column. Rows exist as
FlowRecords only where a table is iterated. `summarize` returns the `inspect`
document itself.

`parse_dataset` reads CHUNK_ROWS lines at a time and parses each chunk column
by column into a `FlowTable`; every value comes from these columns. A block
of lines that csv.reader would split at its commas (no quote, NUL or stray
carriage return, and the header's field count on every non-blank line) is
split whole with `str.split`; from the first other block on, csv.reader
reads the rest of the file. A chunk that fails any check is walked row by
row with the cell parsers only to name its first bad row, so the error it
reports is that of the cell parsers.

`records_to_csv` writes a table column by column: each distinct value is
formatted once, the csv module's way, and the rows are joined from the
formatted columns.
"""

from __future__ import annotations

import csv
import enum
import io
import itertools
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np

PROTOCOL_VOCABULARY = ("ICMP", "TCP", "UDP")
# Each label class's token, indexed by class code.
CLASS_TOKENS = ("A", "S", "SS")


class SchemaError(ValueError):
    """The header row does not provide the expected columns."""


class RowError(ValueError):
    """A data row failed validation; `row` is the 1-based data row number."""

    def __init__(self, row: int, message: str):
        super().__init__(f"row {row}: {message}")
        self.row = row


class ThreatClass(enum.IntEnum):
    """Label classes, coded by lexicographic rank of the tokens A < S < SS.

    The library codes labels as CLASS_TOKENS indices and reads no ThreatClass;
    it is kept only for perfbench/run.py, until ROADMAP items 2a and 9.
    """

    ANOMALY = 0
    SIGNATURE = 1
    SYNTHETIC_SIGNATURE = 2

    @property
    def token(self) -> str:
        return CLASS_TOKENS[self]


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
    prediction: int  # the class code


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
    if abs(value) > MAX_EXACT_INTEGER:
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
    return cell


def _label(cell: str) -> int:
    if cell not in CLASS_TOKENS:
        raise ValueError(f"unknown label {_shown(cell)}")
    return CLASS_TOKENS.index(cell)


COLUMNS = (
    ("Time", _amount),
    ("Protocol", _protocol),
    ("Flag", str),
    ("Family", str),
    ("Clusters", IntegerCell(-MAX_EXACT_INTEGER, MAX_EXACT_INTEGER)),
    ("SeedAddress", str),
    ("ExpAddress", str),
    ("BTC", _amount),
    ("USD", _amount),
    ("Netflow_Bytes", _amount),
    ("IPaddress", str),
    ("Threats", str),
    ("Port", IntegerCell(0, 65535)),
    ("Prediction", _label),
)
CANONICAL_COLUMNS = [header for header, _ in COLUMNS]

# Data rows parsed, or written, per chunk: enough to amortize the per-column
# calls, few enough that a chunk's cells take a few MB.
CHUNK_ROWS = 4096


class TextColumn(NamedTuple):
    """A text column: its distinct values, each occurring in some row, and every row's code.

    Row i holds `vocabulary[codes[i]]`; the vocabulary is in order of first
    appearance.
    """

    vocabulary: tuple
    codes: np.ndarray  # int32


class FlowTable:
    """Flows held by column; iterating a table yields its rows as FlowRecords.

    `columns` maps each feature header to an int64 array (integer columns) or
    a TextColumn; `labels` holds each row's label, its class code.
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
        for column in [*map(self.columns.__getitem__, CANONICAL_COLUMNS[:-1]), self.labels]:
            if isinstance(column, TextColumn):
                column = np.array(column.vocabulary, dtype=object)[column.codes]
            fields.append(column.tolist())
        return map(tuple.__new__, itertools.repeat(FlowRecord), zip(*fields))


def parse_dataset(source) -> FlowTable:
    """Parse a CSV path, bytes, or stream into a FlowTable.

    `source` may be a filesystem path (str or Path), raw CSV bytes, or a
    binary or text stream. Paths, bytes and binary streams are decoded as
    UTF-8 as they are read; utf-8-sig drops the byte-order mark that
    spreadsheet "CSV UTF-8" exports write. A text stream is read whole. Every
    source leaves line breaks to csv (newline=""), so a lone carriage return
    ends a line in each. A binary stream stays open. Raises SchemaError when
    the header is wrong and RowError, carrying the 1-based data row number
    (blank lines count), for the first bad row, including a row the csv
    module cannot read.
    """
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8-sig", newline="") as stream:
            return _parse_stream(stream)
    if isinstance(source, (bytes, bytearray)):
        source = io.BytesIO(source)
    if isinstance(source.read(0), str):
        return _parse_stream(io.StringIO(source.read(), newline=""))
    stream = io.TextIOWrapper(source, encoding="utf-8-sig", newline="")
    try:
        return _parse_stream(stream)
    finally:
        stream.detach()


def _parse_stream(stream) -> FlowTable:
    reader = csv.reader(stream)
    header = next(reader, None)
    if header is None:
        raise SchemaError("empty input: a header row is required")

    drop_index = len(header) > 0 and header[0].strip() == ""
    names = [cell.strip() for cell in (header[1:] if drop_index else header)]
    duplicates = sorted(name for name, count in Counter(names).items() if count > 1)
    if duplicates:
        raise SchemaError(f"duplicate column(s): {_listed(duplicates)}")
    missing = [c for c in CANONICAL_COLUMNS if c not in names]
    extra = [c for c in names if c not in CANONICAL_COLUMNS]
    if missing or extra:
        parts = []
        if missing:
            parts.append("missing column(s): " + ", ".join(missing))
        if extra:
            parts.append("unexpected column(s): " + _listed(extra))
        raise SchemaError("; ".join(parts))

    offset = 1 if drop_index else 0
    positions = [names.index(c) + offset for c in CANONICAL_COLUMNS]
    width = len(names) + offset
    builders = [
        _IntegerColumn(parse) if isinstance(parse, IntegerCell) else _Vocabulary(parse)
        for _, parse in COLUMNS
    ]
    first_row = 1
    blocks = _chunks(stream)
    for block in blocks:
        flat = _split_block(block, width)
        if flat is None:
            # A quoted cell can run on into the next block, so csv.reader
            # reads the rest of the file, from this block's first line.
            lines = itertools.chain.from_iterable(itertools.chain([block], blocks))
            _parse_rows(builders, csv.reader(lines), first_row, positions, width)
            break
        if flat:
            try:
                for builder, p in zip(builders, positions):
                    builder.parts.append(builder.parse_cells(flat[p::width]))
            except (ValueError, OverflowError):
                _raise_first_row_error(csv.reader(block), first_row, positions, width)
                raise
        first_row += len(block)
    *features, labels = builders
    columns = {header: b.column() for header, b in zip(CANONICAL_COLUMNS, features)}
    classes, codes = labels.column()
    return FlowTable(columns, np.array(classes, dtype=np.int64)[codes])


def _listed(names) -> str:
    """Header names for a message, an unnamed cell shown as ''."""
    return ", ".join(name or "''" for name in names)


def _split_block(block: list[str], width: int) -> list[str] | None:
    """The block's cells, row after row, when csv.reader would split each line at its commas.

    That holds when the block has no quote, no NUL, no carriage return but in
    a CRLF line end, no line longer than the csv field limit, and width - 1
    commas on every non-blank line. Blank lines hold no cells. Any other
    block gives None.
    """
    text = "".join(block)
    if not text or '"' in text or "\0" in text:
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n")
        if "\r" in text:
            return None
    if max(map(len, block)) > csv.field_size_limit():
        return None
    if set(map(str.count, block, itertools.repeat(","))) != {width - 1}:
        lines = list(filter(None, text.split("\n")))
        if any(line.count(",") != width - 1 for line in lines):
            return None
        text = "\n".join(lines)
        if not text:
            return []
    return text.removesuffix("\n").replace("\n", ",").split(",")


def _parse_rows(builders, reader, first_row, positions, width) -> None:
    """Parse csv.reader's rows, CHUNK_ROWS at a time, the first being row `first_row`."""
    for chunk in _chunks(reader, first_row - 1):
        rows = list(filter(None, chunk))
        if rows:
            try:
                if set(map(len, rows)) != {width}:
                    raise ValueError("a row has the wrong field count")
                cells = list(zip(*rows))
                for builder, p in zip(builders, positions):
                    builder.parts.append(builder.parse_cells(cells[p]))
            except (ValueError, OverflowError):
                _raise_first_row_error(chunk, first_row, positions, width)
                raise
        first_row += len(chunk)


def _chunks(items, rows_read: int = 0) -> Iterator[list]:
    """A stream's lines or csv.reader's rows, CHUNK_ROWS at a time, after `rows_read` rows.

    When reading fails (a line the csv module rejects, or undecodable bytes),
    the items read before it form a last chunk, so an error in them is still
    reported first. A rejected line then raises a RowError naming its row.
    """
    while True:
        chunk = []
        try:
            chunk.extend(itertools.islice(items, CHUNK_ROWS))
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


def records_to_csv(table: FlowTable) -> str:
    """Serialize a table to canonical-header CSV text; round-trips parse_dataset.

    The text is what csv.writer writes row by row: each distinct value is
    formatted once, as csv.writer writes it among other cells of a row, and
    the rows are joined from the formatted columns CHUNK_ROWS at a time, so
    only one chunk's cells are held as Python lists at once.
    """
    columns = []  # per column: its formatted values, and each row's index into them
    for header in CANONICAL_COLUMNS[:-1]:
        column = table.columns[header]
        if isinstance(column, TextColumn):
            formatted, codes = _csv_cells(column.vocabulary), column.codes
        else:
            values, codes = np.unique(column, return_inverse=True)
            formatted = list(map(str, values.tolist()))
        columns.append((np.array(formatted, dtype=object), codes))
    columns.append((np.array(_csv_cells(CLASS_TOKENS), dtype=object), table.labels))
    lines = [csv_text([CANONICAL_COLUMNS]).removesuffix("\n")]
    for start in range(0, len(table), CHUNK_ROWS):
        rows = slice(start, start + CHUNK_ROWS)
        cells = [pool.take(codes[rows]).tolist() for pool, codes in columns]
        lines.append("\n".join(map(",".join, zip(*cells))))
    lines.append("")
    return "\n".join(lines)


def csv_text(rows: Iterable) -> str:
    """The rows as csv.writer writes them, each ending in a newline."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def _csv_cells(values: Iterable[str]) -> list[str]:
    """Each value as csv.writer writes it among other cells of a row, quoted as needed."""
    # The row is the cell, a comma, an empty cell and the line end.
    return [csv_text([(value, "")])[:-2] for value in values]


def summarize(table: FlowTable) -> dict:
    """The `inspect` document: row and column counts, histograms, distinct values."""
    family = table.columns["Family"]
    family_sizes = np.bincount(family.codes, minlength=len(family.vocabulary)).tolist()
    families = dict(sorted(zip(family.vocabulary, family_sizes), key=lambda kv: (-kv[1], kv[0])))
    classes = np.bincount(table.labels, minlength=len(CLASS_TOKENS)).tolist()
    distinct = {
        header: len(column.vocabulary)
        if isinstance(column, TextColumn)
        else np.unique(column).size
        for header, column in table.columns.items()
    }
    distinct[CANONICAL_COLUMNS[-1]] = np.unique(table.labels).size
    return {
        "row_count": len(table),
        "column_count": len(CANONICAL_COLUMNS),
        "family_count": len(families),
        "distinct_counts": distinct,
        "family_counts": families,
        "class_counts": dict(zip(CLASS_TOKENS, classes)),
    }
