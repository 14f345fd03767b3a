import contextlib
import csv
import io
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from flowbench import flow_data
from flowbench.features import fit_transform
from flowbench.flow_data import (
    CANONICAL_COLUMNS,
    CLASS_TOKENS,
    COLUMNS,
    FlowRecord,
    FlowTable,
    RowError,
    SchemaError,
    TextColumn,
    ThreatClass,
    parse_dataset,
    records_to_csv,
    summarize,
)
from flowbench.synth import generate_records

from conftest import FIGURE_ROW, HEADER, csv_bytes

# The FlowRecord field of each CSV header.
FIELD_OF = dict(zip(CANONICAL_COLUMNS, FlowRecord._fields))


def _reference_parse(source) -> list[FlowRecord]:
    """The row-by-row parser that the chunked one replaced, kept as its oracle."""
    reader = csv.reader(_reference_text_stream(source))
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
    cells = [(c, names.index(c) + offset, parse) for c, parse in COLUMNS]
    width = len(names) + offset

    records = []
    row_no = 0
    try:
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
    except csv.Error as exc:
        # The line the csv module rejects is the row after the last one read.
        raise RowError(row_no + 1, str(exc)) from None
    return records


def _reference_text_stream(source) -> io.StringIO:
    # newline="" leaves line breaks to csv, so a lone CR ends a line.
    if isinstance(source, (str, Path)):
        source = Path(source).read_bytes()
    if isinstance(source, (bytes, bytearray)):
        return io.StringIO(source.decode("utf-8-sig"), newline="")
    data = source.read()
    if isinstance(data, (bytes, bytearray)):
        data = data.decode("utf-8-sig")
    return io.StringIO(data, newline="")


def _outcome(parse, source):
    """The records and their value types, or the error, that one parser gives."""
    try:
        records = list(parse(source))
    except (RowError, SchemaError) as exc:
        return type(exc), str(exc), getattr(exc, "row", None)
    return records, [tuple(map(type, record)) for record in records]


def _sources(data: bytes, path: Path) -> dict:
    """Makers of each kind of source of one file, written to `path`: a path, the
    bytes, a byte stream and a text stream."""
    path.write_bytes(data)
    return {
        "path": lambda: path,
        "bytes": lambda: data,
        "byte stream": lambda: io.BytesIO(data),
        "text stream": lambda: io.StringIO(data.decode("utf-8-sig")),
    }


def assert_parses_like_reference(data: bytes, tmp_path: Path) -> None:
    """The chunked parser matches the oracle on these bytes, from every kind of source."""
    expected = _outcome(_reference_parse, data)
    for kind, source in _sources(data, tmp_path / "flows.csv").items():
        assert _outcome(parse_dataset, source()) == expected, kind


def test_parse_reference_row():
    (r,) = parse_dataset(csv_bytes(FIGURE_ROW))
    assert r.time == 50
    assert r.protocol == "TCP"
    assert r.flag == "A"
    assert r.family == "WannaCry"
    assert r.clusters == 1
    assert r.seed_address == "1DA11mPS"
    assert r.exp_address == "1BonuSr7"
    assert r.btc == 1
    assert r.usd == 500
    assert r.netflow_bytes == 5
    assert r.ip_class == "A"
    assert r.threat == "Botnet"
    assert r.port == 5061
    assert r.prediction == 2


@pytest.mark.parametrize("kind", ["path", "str path", "bytes", "byte stream"])
def test_leading_byte_order_mark_is_dropped(kind, tmp_path):
    data = b"\xef\xbb\xbf" + csv_bytes(FIGURE_ROW)
    path = tmp_path / "bom.csv"
    path.write_bytes(data)
    source = {"path": path, "str path": str(path), "bytes": data,
              "byte stream": io.BytesIO(data)}[kind]
    assert list(parse_dataset(source)) == list(parse_dataset(csv_bytes(FIGURE_ROW)))


@pytest.mark.parametrize("kind", ["path", "bytes", "byte stream"])
def test_quoted_line_break_keeps_its_bytes(kind, tmp_path):
    data = _file([_with_cells(Family='"Wanna\r\nCry"'), FIGURE_ROW], newline="\r\n")
    path = tmp_path / "crlf.csv"
    path.write_bytes(data)
    source = {"path": path, "bytes": data, "byte stream": io.BytesIO(data)}[kind]
    assert [r.family for r in parse_dataset(source)] == ["Wanna\r\nCry", "WannaCry"]


def test_column_table_names_the_record_fields_in_order():
    assert len(COLUMNS) == len(FlowRecord._fields)
    assert CANONICAL_COLUMNS == HEADER.split(",")


def test_parse_header_only_gives_empty_list():
    assert list(parse_dataset(csv_bytes())) == []


def test_port_out_of_range_is_row_error():
    bad = FIGURE_ROW.replace(",5061,", ",99999,")
    with pytest.raises(RowError, match="row 1.*Port"):
        parse_dataset(csv_bytes(bad))


def test_row_error_carries_row_number():
    bad = FIGURE_ROW.replace(",5061,", ",99999,")
    with pytest.raises(RowError) as info:
        parse_dataset(csv_bytes(FIGURE_ROW, bad))
    assert info.value.row == 2


def test_non_integer_numeric_field_is_row_error():
    bad = FIGURE_ROW.replace(",500,", ",five-hundred,")
    with pytest.raises(RowError, match="USD.*non-integer"):
        parse_dataset(csv_bytes(bad))


def test_negative_amount_is_row_error():
    bad = FIGURE_ROW.replace("50,TCP", "-3,TCP")
    with pytest.raises(RowError, match="Time.*negative"):
        parse_dataset(csv_bytes(bad))


def test_unknown_prediction_label_is_row_error():
    bad = FIGURE_ROW[: -len("SS")] + "XX"
    with pytest.raises(RowError, match="Prediction"):
        parse_dataset(csv_bytes(bad))


def test_unknown_protocol_is_row_error():
    bad = FIGURE_ROW.replace("TCP", "GRE")
    with pytest.raises(RowError, match="Protocol"):
        parse_dataset(csv_bytes(bad))


def _with_cells(**cells: str) -> str:
    values = dict(zip(HEADER.split(","), FIGURE_ROW.split(",")))
    values.update(cells)
    return ",".join(values.values())


@pytest.mark.parametrize(
    "column, value, message",
    [
        *[
            (c, "-3", f"{c}: negative value -3")
            for c in ("Time", "BTC", "USD", "Netflow_Bytes")
        ],
        *[
            (c, "five", f"{c}: non-integer value 'five'")
            for c in ("Time", "Clusters", "BTC", "USD", "Netflow_Bytes", "Port")
        ],
        *[
            (c, str(v), f"{c}: integer magnitude above 2**53")
            for c in ("Time", "USD")
            for v in (2**53 + 1, 10**400)
        ],
        ("Clusters", str(-(2**53) - 1), "Clusters: integer magnitude above 2**53"),
        ("Port", "-1", "Port: value -1 outside 0..65535"),
        ("Port", "65536", "Port: value 65536 outside 0..65535"),
        ("Protocol", "GRE", "Protocol: unknown value 'GRE'"),
        ("Prediction", "XX", "Prediction: unknown label 'XX'"),
    ],
)
def test_row_error_message_names_the_bad_cell(column, value, message):
    with pytest.raises(RowError) as info:
        parse_dataset(csv_bytes(_with_cells(**{column: value})))
    assert str(info.value) == f"row 1: {message}"


def test_row_error_quotes_a_prefix_of_a_long_cell():
    cases = [
        # int() refuses literals of more than 4,300 digits outright.
        ("USD", "1" * 5000, "integer magnitude above 2**53"),
        ("Clusters", "-" + "9" * 5000, "integer magnitude above 2**53"),
        ("Time", "12a" * 2000, f"non-integer value {('12a' * 14)[:40]!r}... (6000 characters)"),
        ("Protocol", "T" * 41, f"unknown value {'T' * 40!r}... (41 characters)"),
        ("Prediction", "S" * 5000, f"unknown label {'S' * 40!r}... (5000 characters)"),
    ]
    for column, value, message in cases:
        with pytest.raises(RowError) as info:
            parse_dataset(csv_bytes(_with_cells(**{column: value})))
        assert str(info.value) == f"row 1: {column}: {message}"


def test_integer_padded_past_the_int_digit_limit_parses():
    for column in ("Time", "USD", "Clusters"):
        (record,) = parse_dataset(csv_bytes(_with_cells(**{column: "0" * 5000 + "7"})))
        assert getattr(record, FIELD_OF[column]) == 7
        assert type(getattr(record, FIELD_OF[column])) is int


def test_integers_up_to_2_to_the_53_parse_exactly():
    for column in ("Time", "USD", "Clusters"):
        for value in (2**53, "+000000000000000000000007"):
            (record,) = parse_dataset(csv_bytes(_with_cells(**{column: str(value)})))
            assert getattr(record, FIELD_OF[column]) == int(value)
    (record,) = parse_dataset(csv_bytes(_with_cells(Clusters=str(-(2**53)))))
    assert record.clusters == -(2**53)


def test_row_error_names_the_first_bad_cell_in_header_order():
    bad = _with_cells(Protocol="GRE", USD="five")
    with pytest.raises(RowError) as info:
        parse_dataset(csv_bytes(bad))
    assert str(info.value) == "row 1: Protocol: unknown value 'GRE'"


def test_missing_column_names_the_column():
    header = HEADER.replace("Netflow_Bytes,", "")
    row = FIGURE_ROW.replace(",5,A,Botnet", ",A,Botnet")
    text = f"{header}\n{row}\n".encode()
    with pytest.raises(SchemaError, match="Netflow_Bytes"):
        parse_dataset(text)


def test_extra_column_names_the_column():
    text = (HEADER + ",Bogus\n" + FIGURE_ROW + ",1\n").encode()
    with pytest.raises(SchemaError, match="Bogus"):
        parse_dataset(text)


def test_duplicate_column_is_schema_error():
    text = (HEADER.replace("Flag", "Protocol", 1) + "\n").encode()
    with pytest.raises(SchemaError, match="duplicate"):
        parse_dataset(text)


@pytest.mark.parametrize(
    "suffix, message",
    [(",", "unexpected column(s): ''"), (",,", "duplicate column(s): ''")],
)
def test_unnamed_header_cell_past_the_first_is_shown_as_quotes(suffix, message):
    with pytest.raises(SchemaError) as info:
        parse_dataset((HEADER + suffix + "\n").encode())
    assert str(info.value) == message


def test_field_count_mismatch_is_row_error():
    with pytest.raises(RowError, match="expected 14 fields"):
        parse_dataset(csv_bytes(FIGURE_ROW + ",extra"))


def test_leading_unnamed_index_column_is_discarded():
    text = ("," + HEADER + "\n0," + FIGURE_ROW + "\n").encode()
    (record,) = parse_dataset(text)
    assert record.time == 50


def test_header_order_does_not_matter():
    columns = FIGURE_ROW.split(",")
    named = dict(zip(HEADER.split(","), columns))
    shuffled = list(reversed(HEADER.split(",")))
    text = (",".join(shuffled) + "\n" + ",".join(named[c] for c in shuffled) + "\n").encode()
    assert list(parse_dataset(text)) == list(parse_dataset(csv_bytes(FIGURE_ROW)))


def test_csv_round_trip(synth_records):
    text = records_to_csv(synth_records)
    assert list(parse_dataset(text.encode())) == list(synth_records)
    # and a second serialization is byte-identical
    assert records_to_csv(parse_dataset(text.encode())) == text


def _reference_csv(table) -> str:
    """The row-by-row csv.writer serialization that records_to_csv replaced, kept as its oracle."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CANONICAL_COLUMNS)
    writer.writerows((*r[:-1], CLASS_TOKENS[r[-1]]) for r in table)
    return buffer.getvalue()


def test_csv_writer_matches_row_by_row_csv_writer():
    parsed = parse_dataset(csv_bytes(
        _with_cells(Family='"Wanna,Cry"', Threats='"say ""hi"""', Clusters="-5"),
        _with_cells(Family='"Wanna\nCry"', Flag='"A\r\nF"', USD=str(2**53)),
        _with_cells(Family='"  padded  "', SeedAddress=" 1DA11mPS ", Prediction="A"),
        _with_cells(Family="", ExpAddress='""', Prediction="S"),
        FIGURE_ROW,
    ))
    header_only = parse_dataset(csv_bytes())
    # Parsing strips cells, so spaces and lone carriage returns need a built table.
    generated = generate_records(60, seed=3, signal_strength=0.5)
    family = generated.columns["Family"]
    odd = (" a ", "b,c", 'd"e', "f\ng", "h\r\ni", "", "\r", "j\rk", "\t")
    vocabulary = tuple(f"{odd[i % len(odd)]}{i or ''}" for i in range(len(family.vocabulary)))
    built = FlowTable(
        dict(generated.columns, Family=TextColumn(vocabulary, family.codes)), generated.labels
    )
    for table in (parsed, header_only, built):
        assert records_to_csv(table) == _reference_csv(table)
    assert records_to_csv(header_only) == HEADER + "\n"


def test_csv_writer_follows_the_canonical_column_order(synth_records):
    reordered = FlowTable(dict(reversed(synth_records.columns.items())), synth_records.labels)
    assert records_to_csv(reordered) == records_to_csv(synth_records)


def test_row_count_matches_data_lines(synth_records):
    text = records_to_csv(synth_records)
    data_lines = text.strip().splitlines()[1:]
    parsed = parse_dataset(text.encode())
    assert summarize(parsed)["row_count"] == len(data_lines) == len(synth_records)


def test_threat_class_codes_follow_lexicographic_rank():
    tokens = ["A", "S", "SS"]
    assert sorted(tokens) == tokens
    for rank, token in enumerate(sorted(tokens)):
        (record,) = parse_dataset(csv_bytes(_with_cells(Prediction=token)))
        assert record.prediction == rank
        # perfbench/run.py maps codes to tokens through ThreatClass.
        assert ThreatClass(rank).token == CLASS_TOKENS[rank] == token


def test_threat_class_rejects_unknown_token():
    with pytest.raises(RowError, match="Prediction: unknown label 'Z'"):
        parse_dataset(csv_bytes(_with_cells(Prediction="Z")))


def test_summarize_empty():
    summary = summarize(parse_dataset(csv_bytes()))
    assert summary["row_count"] == 0
    assert summary["family_counts"] == {}
    assert all(count == 0 for count in summary["class_counts"].values())


def test_summarize_family_histogram():
    rows = [
        FIGURE_ROW.replace("WannaCry", "X"),
        FIGURE_ROW.replace("WannaCry", "X"),
        FIGURE_ROW.replace("WannaCry", "Y"),
    ]
    summary = summarize(parse_dataset(csv_bytes(*rows)))
    assert summary["family_counts"] == {"X": 2, "Y": 1}
    assert summary["family_count"] == 2


def test_summarize_histograms_sum_to_row_count(synth_records):
    summary = summarize(synth_records)
    assert sum(summary["family_counts"].values()) == summary["row_count"]
    assert sum(summary["class_counts"].values()) == summary["row_count"]
    assert set(summary["distinct_counts"]) == set(CANONICAL_COLUMNS)


# chunked parse against the row-by-row oracle --------------------------------

SMALL_CHUNK = 4


def _synth_lines(n: int, seed: int = 3) -> list[str]:
    """Data lines of n synthetic rows, without the header."""
    return records_to_csv(generate_records(n, seed=seed, signal_strength=0.5)).splitlines()[1:]


def _file(lines: list[str], newline: str = "\n") -> bytes:
    return newline.join([HEADER, *lines, ""]).encode()


def _small_chunk_cases() -> dict[str, bytes]:
    good = _synth_lines(3 * SMALL_CHUNK + 2)
    bad_port = _with_cells(Port="70000")
    long_cell = _with_cells(Family="x" * (csv.field_size_limit() + 1))
    # int() refuses this legal literal, so its column takes the cell parser's path.
    padded = "0" * sys.get_int_max_str_digits() + "7"
    cases = {
        "bad cell opening the second chunk": good[:SMALL_CHUNK] + [bad_port] + good,
        "blank lines before it": good[:SMALL_CHUNK - 1] + ["", ""] + [bad_port] + good,
        "wrong field count after a bad cell": (
            good[:SMALL_CHUNK + 1] + [bad_port, FIGURE_ROW + ",extra"] + good
        ),
        "bad cell after a wrong field count": (
            good[:SMALL_CHUNK + 1] + [FIGURE_ROW + ",extra", bad_port] + good
        ),
        "several bad cells in one row": good[:SMALL_CHUNK + 2] + [
            _with_cells(Protocol="GRE", USD="-1", Prediction="X")
        ],
        "padded cell in a later chunk": (
            good[:SMALL_CHUNK + 1] + [_with_cells(USD="0" * 5000 + "7")] + good
        ),
        "padded cells in one chunk": good[:SMALL_CHUNK] + [
            _with_cells(Time=padded, Port=" " + "0" * 5000 + "80"), good[0],
            _with_cells(Port=padded),
        ] + good,
        "padded cell, then a bad cell in its chunk": (
            good[:SMALL_CHUNK] + [_with_cells(USD=padded), good[0], bad_port] + good
        ),
        "cell beyond int64": good[:2 * SMALL_CHUNK] + [_with_cells(BTC=str(2**64))] + good,
        "cell between 2**53 and int64": good[:2] + [_with_cells(Clusters=str(-(2**60)))],
        "blank chunk": good[:SMALL_CHUNK] + [""] * (2 * SMALL_CHUNK) + good,
        "trailing blank lines": good + ["", "", ""],
        "padded text, integer and label cells": good[:5] + [
            _with_cells(Family=" WannaCry ", Port=" 80 ", Protocol=" TCP", Prediction="S ")
        ] + good,
        "non-ASCII digits": good[:5] + [_with_cells(Port="\u0663\u0664")] + good,
        "quoted separators and line breaks": good[:5] + [
            _with_cells(Family='"Wanna,\nCry"', Threats='"say ""hi"""')
        ] + good,
        "unknown protocol in the first chunk": [_with_cells(Protocol="GRE")] + good,
        "unreadable line after a bad cell": good[:2] + [bad_port, long_cell] + good,
        "unreadable line alone": good[:SMALL_CHUNK + 1] + [long_cell] + good,
        "clean": good,
        # Blocks of SMALL_CHUNK lines that str.split reads, then one that it must not.
        "quote first in a later block": (
            good[:2 * SMALL_CHUNK + 1] + [_with_cells(Family='"Wanna Cry"')] + good
        ),
        "quoted cell across a block boundary": good[:SMALL_CHUNK - 1] + [
            _with_cells(Family='"Wanna\n,Cry"')
        ] + good + [bad_port],
        "NUL in a later block": good[:SMALL_CHUNK + 2] + [_with_cells(Family="Wanna\0Cry")] + good,
        "field count changing in a later block": (
            good[:2 * SMALL_CHUNK] + [",".join([good[0], "extra"])] + good
        ),
        "two rows on one line beside a blank line": (
            good[:SMALL_CHUNK] + ["", ",".join(good[:2])] + good
        ),
        "blank lines across a block boundary": (
            good[:SMALL_CHUNK - 1] + ["", ""] + good[:SMALL_CHUNK] + ["", bad_port] + good
        ),
        "line longer than the field limit, fields within it": good[:SMALL_CHUNK] + [
            _with_cells(Family="x" * (csv.field_size_limit() // 2),
                        Threats="y" * (csv.field_size_limit() // 2 + 10))
        ] + good,
    }
    files = {name: _file(lines) for name, lines in cases.items()}
    files["all CRLF"] = _file(good + [""] + good, newline="\r\n")
    files["CRLF from a later block"] = _file(good[:SMALL_CHUNK]) + _file(
        good[SMALL_CHUNK:] + [bad_port], newline="\r\n"
    ).split(b"\r\n", 1)[1]
    # A carriage return alone ends the last line of the file, after LF lines.
    files["lone CR in an LF file"] = _file(good)[:-1] + b"\r"
    files["last block without a trailing newline"] = _file(good[:2 * SMALL_CHUNK])[:-1]
    files["bad last line without a trailing newline"] = (
        _file(good[:SMALL_CHUNK + 1] + [bad_port])[:-1]
    )
    return files


@pytest.mark.parametrize("case", list(_small_chunk_cases()))
def test_chunked_parse_matches_reference_at_chunk_boundaries(case, tmp_path, monkeypatch):
    monkeypatch.setattr(flow_data, "CHUNK_ROWS", SMALL_CHUNK)
    assert_parses_like_reference(_small_chunk_cases()[case], tmp_path)


def test_chunk_boundary_errors_name_the_row_in_file_order(monkeypatch):
    monkeypatch.setattr(flow_data, "CHUNK_ROWS", SMALL_CHUNK)
    cases = _small_chunk_cases()
    last = 3 * SMALL_CHUNK + 2
    port_error = "Port: value 70000 outside 0..65535"
    expected = {
        "bad cell opening the second chunk": "row 5: Port: value 70000 outside 0..65535",
        "blank lines before it": "row 6: Port: value 70000 outside 0..65535",
        "wrong field count after a bad cell": "row 6: Port: value 70000 outside 0..65535",
        "bad cell after a wrong field count": "row 6: expected 14 fields, found 15",
        "cell beyond int64": "row 9: BTC: integer magnitude above 2**53",
        "padded cell, then a bad cell in its chunk": "row 7: Port: value 70000 outside 0..65535",
        "unreadable line after a bad cell": "row 3: Port: value 70000 outside 0..65535",
        "unreadable line alone": (
            f"row {SMALL_CHUNK + 2}: field larger than field limit ({csv.field_size_limit()})"
        ),
        "quoted cell across a block boundary": f"row {last + SMALL_CHUNK + 1}: {port_error}",
        "field count changing in a later block": (
            f"row {2 * SMALL_CHUNK + 1}: expected 14 fields, found 15"
        ),
        "blank lines across a block boundary": f"row {2 * SMALL_CHUNK + 3}: {port_error}",
        "two rows on one line beside a blank line": (
            f"row {SMALL_CHUNK + 2}: expected 14 fields, found 28"
        ),
        "CRLF from a later block": f"row {last + 1}: {port_error}",
        "bad last line without a trailing newline": f"row {SMALL_CHUNK + 2}: {port_error}",
    }
    for case, message in expected.items():
        with pytest.raises(RowError) as info:
            parse_dataset(cases[case])
        assert str(info.value) == message


def test_clean_blocks_are_split_without_csv_reader(monkeypatch):
    monkeypatch.setattr(flow_data, "CHUNK_ROWS", SMALL_CHUNK)
    cases = _small_chunk_cases()

    def no_reader(*args):
        raise AssertionError("csv.reader read past the header")

    monkeypatch.setattr(flow_data, "_parse_rows", no_reader)
    for name in ("clean", "blank chunk", "all CRLF", "last block without a trailing newline"):
        data = cases[name]
        assert _outcome(parse_dataset, data) == _outcome(_reference_parse, data)


@pytest.mark.parametrize("quoted", [False, True])
def test_rows_before_undecodable_bytes_are_checked_first(quoted, tmp_path):
    # A file is decoded 8 KiB at a time, so the lines before the undecodable
    # byte are read, and form a partial block, before reading fails.
    lines = _synth_lines(200)
    if quoted:
        lines[0] = _with_cells(Family='"WannaCry"')
    lines[2] = _with_cells(Port="70000")
    path = tmp_path / "flows.csv"
    path.write_bytes(_file(lines) + b"\xff\n")
    with pytest.raises(RowError, match="row 3: Port"):
        parse_dataset(path)
    lines[2] = lines[3]
    path.write_bytes(_file(lines) + b"\xff\n")
    with pytest.raises(UnicodeDecodeError):
        parse_dataset(path)


def test_lone_carriage_return_mid_file_is_read_as_before(tmp_path):
    # Every source is read with newline="", as a path always was, so a lone CR
    # ends a line in each; bytes and streams once read it as a stray line break.
    data = _file(_synth_lines(6)[:2] + [_with_cells(Family="Wanna\rCry")] + _synth_lines(6))
    assert_parses_like_reference(data, tmp_path)
    for kind, source in _sources(data, tmp_path / "cr.csv").items():
        with pytest.raises(RowError) as info:
            parse_dataset(source())
        assert str(info.value) == "row 3: expected 14 fields, found 4", kind


@pytest.mark.parametrize("kind", ["path", "bytes", "byte stream", "text stream"])
def test_carriage_returns_alone_end_lines_in_every_source(kind, tmp_path):
    lines = _synth_lines(3 * SMALL_CHUNK + 2)
    data = _file(lines, newline="\r")
    assert_parses_like_reference(data, tmp_path)
    source = _sources(data, tmp_path / "cr.csv")[kind]()
    assert list(parse_dataset(source)) == list(parse_dataset(_file(lines)))


@pytest.mark.parametrize("row", [FIGURE_ROW, FIGURE_ROW.replace(",5061,", ",99999,")])
def test_a_byte_stream_stays_open_after_parsing(row):
    stream = io.BytesIO(csv_bytes(row))
    with contextlib.suppress(RowError):
        parse_dataset(stream)
    assert not stream.closed and stream.read() == b""


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
@pytest.mark.parametrize("index", [False, True])
@pytest.mark.parametrize("bom", [False, True])
def test_chunked_parse_matches_reference_on_export_variants(newline, index, bom, tmp_path):
    # Several real-size chunks, a reordered header, and two rare cells.
    records = generate_records(2 * flow_data.CHUNK_ROWS + 5, seed=11, signal_strength=0.5)
    header = list(reversed(CANONICAL_COLUMNS))
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator=newline)
    writer.writerow([""] * index + header)
    for i, line in enumerate(records_to_csv(records).splitlines()[1:]):
        named = dict(zip(CANONICAL_COLUMNS, line.split(",")))
        if i == flow_data.CHUNK_ROWS + 1:
            named["USD"] = "0" * 5000 + "7"
        writer.writerow([i] * index + [named[c] for c in header])
    data = ("\ufeff" * bom + buffer.getvalue()).encode()
    assert_parses_like_reference(data, tmp_path)
    assert list(parse_dataset(data))[flow_data.CHUNK_ROWS + 1].usd == 7
    beyond = data.replace(b"0" * 5000 + b"7", str(2**63).encode())
    assert_parses_like_reference(beyond, tmp_path)


# the FlowTable contract ---------------------------------------------------------


def test_flow_table_iterates_the_parsed_records(synth_records):
    records = list(synth_records)
    table = parse_dataset(records_to_csv(synth_records).encode())
    assert isinstance(table, FlowTable)
    assert len(table) == len(records)
    assert list(table) == records
    assert all(type(record) is FlowRecord for record in table)


def test_iterating_a_table_lays_out_fields_in_canonical_order():
    generated = generate_records(50, seed=3, signal_strength=0.6)
    reordered = FlowTable(dict(reversed(generated.columns.items())), generated.labels)
    assert list(reordered) == list(generated)
    first = next(iter(reordered))
    assert first.port == generated.columns["Port"][0]
    assert first.protocol == generated.columns["Protocol"].vocabulary[
        generated.columns["Protocol"].codes[0]
    ]


def test_header_only_table_is_empty():
    table = parse_dataset(csv_bytes())
    assert len(table) == 0
    assert list(table) == []


def test_summary_of_table_equals_summary_of_records(synth_records):
    table = parse_dataset(records_to_csv(synth_records).encode())
    assert summarize(table) == summarize(synth_records)
    assert summarize(table)["distinct_counts"] == {
        column: len({r[i] for r in synth_records})
        for i, column in enumerate(CANONICAL_COLUMNS)
    }


@pytest.mark.parametrize("n", [1, 1000, 4097])
@pytest.mark.parametrize("strength", [0.0, 0.6, 1.0])
@pytest.mark.parametrize("seed", [7, 8])
def test_generated_table_equals_the_table_its_csv_parses_to(seed, strength, n):
    generated = generate_records(n, seed=seed, signal_strength=strength)
    parsed = parse_dataset(records_to_csv(generated).encode())
    assert list(parsed) == list(generated)
    assert list(parsed.columns) == list(generated.columns)
    for header, column in generated.columns.items():
        other = parsed.columns[header]
        if isinstance(column, TextColumn):
            assert other.vocabulary == column.vocabulary
            other, column = other.codes, column.codes
        assert other.dtype == column.dtype
        np.testing.assert_array_equal(other, column)
    assert parsed.labels.dtype == generated.labels.dtype
    np.testing.assert_array_equal(parsed.labels, generated.labels)
    for scale in (False, True):
        from_parsed = fit_transform(parsed, scale=scale)
        from_generated = fit_transform(generated, scale=scale)
        for field in ("rows", "encoded", "labels"):
            np.testing.assert_array_equal(
                getattr(from_parsed, field), getattr(from_generated, field)
            )
        assert from_parsed.encoders == from_generated.encoders
