import io

import pytest

from flowbench.flow_data import (
    CANONICAL_COLUMNS,
    COLUMN_FIELDS,
    COLUMNS,
    FlowRecord,
    RowError,
    SchemaError,
    ThreatClass,
    parse_dataset,
    records_to_csv,
    summarize,
)

from conftest import FIGURE_ROW, HEADER, csv_bytes


def test_parse_reference_row():
    records = parse_dataset(csv_bytes(FIGURE_ROW))
    assert len(records) == 1
    r = records[0]
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
    assert r.prediction is ThreatClass.SYNTHETIC_SIGNATURE


@pytest.mark.parametrize("kind", ["path", "str path", "bytes", "byte stream"])
def test_leading_byte_order_mark_is_dropped(kind, tmp_path):
    data = b"\xef\xbb\xbf" + csv_bytes(FIGURE_ROW)
    path = tmp_path / "bom.csv"
    path.write_bytes(data)
    source = {"path": path, "str path": str(path), "bytes": data,
              "byte stream": io.BytesIO(data)}[kind]
    assert parse_dataset(source) == parse_dataset(csv_bytes(FIGURE_ROW))


def test_column_table_names_the_record_fields_in_order():
    assert [field for _, field, _ in COLUMNS] == list(FlowRecord._fields)
    assert CANONICAL_COLUMNS == HEADER.split(",")


def test_parse_header_only_gives_empty_list():
    assert parse_dataset(csv_bytes()) == []


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
        assert getattr(record, COLUMN_FIELDS[column]) == 7
        assert type(getattr(record, COLUMN_FIELDS[column])) is int


def test_integers_up_to_2_to_the_53_parse_exactly():
    for column in ("Time", "USD", "Clusters"):
        for value in (2**53, "+000000000000000000000007"):
            (record,) = parse_dataset(csv_bytes(_with_cells(**{column: str(value)})))
            assert getattr(record, COLUMN_FIELDS[column]) == int(value)
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


def test_field_count_mismatch_is_row_error():
    with pytest.raises(RowError, match="expected 14 fields"):
        parse_dataset(csv_bytes(FIGURE_ROW + ",extra"))


def test_leading_unnamed_index_column_is_discarded():
    text = ("," + HEADER + "\n0," + FIGURE_ROW + "\n").encode()
    records = parse_dataset(text)
    assert len(records) == 1
    assert records[0].time == 50


def test_header_order_does_not_matter():
    columns = FIGURE_ROW.split(",")
    named = dict(zip(HEADER.split(","), columns))
    shuffled = list(reversed(HEADER.split(",")))
    text = (",".join(shuffled) + "\n" + ",".join(named[c] for c in shuffled) + "\n").encode()
    assert parse_dataset(text) == parse_dataset(csv_bytes(FIGURE_ROW))


def test_csv_round_trip(synth_records):
    text = records_to_csv(synth_records)
    assert parse_dataset(text.encode()) == synth_records
    # and a second serialization is byte-identical
    assert records_to_csv(parse_dataset(text.encode())) == text


def test_row_count_matches_data_lines(synth_records):
    text = records_to_csv(synth_records)
    data_lines = text.strip().splitlines()[1:]
    parsed = parse_dataset(text.encode())
    assert summarize(parsed).row_count == len(data_lines) == len(synth_records)


def test_threat_class_codes_follow_lexicographic_rank():
    tokens = ["A", "S", "SS"]
    assert sorted(tokens) == tokens
    for rank, token in enumerate(sorted(tokens)):
        assert int(ThreatClass.from_token(token)) == rank
        assert ThreatClass(rank).token == token


def test_threat_class_rejects_unknown_token():
    with pytest.raises(ValueError):
        ThreatClass.from_token("Z")


def test_summarize_empty():
    summary = summarize([])
    assert summary.row_count == 0
    assert summary.family_counts == {}
    assert all(count == 0 for count in summary.class_counts.values())


def test_summarize_family_histogram():
    rows = [
        FIGURE_ROW.replace("WannaCry", "X"),
        FIGURE_ROW.replace("WannaCry", "X"),
        FIGURE_ROW.replace("WannaCry", "Y"),
    ]
    summary = summarize(parse_dataset(csv_bytes(*rows)))
    assert summary.family_counts == {"X": 2, "Y": 1}
    assert summary.family_count == 2


def test_summarize_histograms_sum_to_row_count(synth_records):
    summary = summarize(synth_records)
    assert sum(summary.family_counts.values()) == summary.row_count
    assert sum(summary.class_counts.values()) == summary.row_count
    assert set(summary.distinct_counts) == set(CANONICAL_COLUMNS)
