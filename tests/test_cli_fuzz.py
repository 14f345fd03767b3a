"""Property-based CLI fuzzing: legal input files never crash a subcommand.

Hypothesis draws small valid CSVs: any subset of the classes, duplicated
rows, constant columns, reordered headers, an unnamed index column, CRLF line
ends, a byte-order mark, and integer cells at 0, at 2**53 and beyond it. Each
file goes through every subcommand in-process, and, with one cell damaged or
not, through the chunked parser and its row-by-row reference. The run is
derandomized and keeps no example database, so it is the same on every
machine.
"""

import contextlib
import csv
import io
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flowbench import flow_data
from flowbench.classifiers import MODEL_NAMES, make_model
from flowbench.cli import EXIT_OK, main
from flowbench.features import fit_transform
from flowbench.flow_data import (
    CANONICAL_COLUMNS,
    MAX_EXACT_INTEGER,
    PROTOCOL_VOCABULARY,
    parse_dataset,
)

from test_flow_data import assert_parses_like_reference

AMOUNT = st.sampled_from([0, 1, MAX_EXACT_INTEGER]) | st.integers(0, 10**6)
CELLS = {
    "Time": AMOUNT,
    "Protocol": st.sampled_from(PROTOCOL_VOCABULARY),
    "Clusters": st.sampled_from([0, -MAX_EXACT_INTEGER, MAX_EXACT_INTEGER])
    | st.integers(-3, 12),
    "BTC": AMOUNT,
    "USD": AMOUNT,
    "Netflow_Bytes": AMOUNT,
    "Port": st.integers(0, 65535),
    "Prediction": st.sampled_from(["A", "S", "SS"]),
}
TEXT = st.text(alphabet="aZ09 ,\"'-_.é", max_size=4)
INTEGER_COLUMNS = ["Time", "Clusters", "BTC", "USD", "Netflow_Bytes", "Port"]
# One file in four gets a cell beyond 2**53, which the parser rejects.
BEYOND = [None] * 6 + [MAX_EXACT_INTEGER + 1, 10**400]


@st.composite
def flow_files(draw):
    """The bytes of one small CSV the parser may accept."""
    classes = draw(st.lists(st.sampled_from(["A", "S", "SS"]), min_size=1, max_size=3, unique=True))
    # A class with one row fails the split; most files give each class more.
    labels = [c for c in classes for _ in range(draw(st.sampled_from([2, 3, 4, 2, 3, 4, 1])))]
    labels = draw(st.permutations(labels))
    constant = draw(st.sets(st.sampled_from(CANONICAL_COLUMNS[:-1])))
    rows = [{c: draw(CELLS.get(c, TEXT)) for c in CANONICAL_COLUMNS} for _ in labels]
    for row, label in zip(rows, labels):
        row["Prediction"] = label
    n = len(rows)
    for column in constant:
        for row in rows:
            row[column] = rows[0][column]
    rows += [rows[i] for i in draw(st.lists(st.integers(0, n - 1), max_size=3))]
    huge = draw(st.sampled_from(BEYOND))
    if huge is not None:
        rows[draw(st.integers(0, len(rows) - 1))][draw(st.sampled_from(INTEGER_COLUMNS))] = huge
    header = draw(st.permutations(CANONICAL_COLUMNS))
    index = draw(st.booleans())
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    writer.writerow([""] * index + list(header))
    for i, row in enumerate(rows):
        writer.writerow([i] * index + [row[c] for c in header])
    bom = "\ufeff" if draw(st.booleans()) else ""
    return (bom + buffer.getvalue()).encode("utf-8")


def run(*argv):
    """Exit code and stdout of one in-process CLI call that printed no traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    return code, out.getvalue()


@settings(
    max_examples=80,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    flow_files(),
    st.sampled_from(MODEL_NAMES),
    st.booleans(),
)
def test_every_subcommand_survives_legal_files(data, model, no_scale):
    scale = ["--no-scale"] * no_scale
    with tempfile.TemporaryDirectory() as tmp:
        path, model_file = Path(tmp) / "flows.csv", Path(tmp) / "model.json"
        path.write_bytes(data)
        run("inspect", "--data", path, "--format", "json")
        run("correlate", "--data", path)
        run("roc", "--data", path, "--model", model, *scale)

        code, out = run("bench", "--data", path, "--format", "csv", *scale)
        if code == EXIT_OK:
            # The holdout split succeeded, so its test side holds a row of
            # every class: some model must rank, even with a single class.
            assert ",ok," in out, out

        code, _ = run("train", "--data", path, "--model", model, "--output", model_file, *scale)
        if code == EXIT_OK:
            code, out = run("predict", "--data", path, "--model-file", model_file)
            assert code == EXIT_OK
            matrix = fit_transform(parse_dataset(path), scale=not no_scale)
            fitted = make_model(model, seed=42)
            fitted.fit(matrix.rows_for(fitted), matrix.labels)
            expected = fitted.predict(matrix.rows_for(fitted))
            got = [int(line.split(",")[1]) for line in out.splitlines()[1:]]
            np.testing.assert_array_equal(got, expected)


# Cells that some column rejects, or accepts only on the cell parser's slow path.
ODD_CELLS = ["", "x", "-1", "70000", "GRE", "Q", " 5 ", "1_000", "+7", "\u0663",
             "0" * 5000 + "3", str(2**63)]


def damaged(data: bytes, row: int, column: int, cell: str | None) -> bytes:
    """The file with one data cell replaced by `cell`, or with a field added for None."""
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    fields = rows[1 + row % (len(rows) - 1)]
    if cell is None:
        fields.append("extra")
    else:
        fields[column % len(fields)] = cell
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue().encode("utf-8")


@settings(
    max_examples=80,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    flow_files(),
    st.none() | st.tuples(st.integers(0, 30), st.integers(0, 14),
                          st.none() | st.sampled_from(ODD_CELLS)),
    st.sampled_from([1, 2, 3, flow_data.CHUNK_ROWS]),
)
def test_chunked_parse_matches_the_row_by_row_reference(data, damage, chunk_rows):
    if damage is not None:
        data = damaged(data, *damage)
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(flow_data, "CHUNK_ROWS", chunk_rows):
        assert_parses_like_reference(data, Path(tmp))


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 30), st.integers(0, 2**64), st.floats(0.0, 1.0))
def test_synth_output_parses(rows, seed, signal):
    code, out = run("synth", "--rows", rows, "--seed", seed, "--signal-strength", signal)
    assert code == EXIT_OK
    assert len(parse_dataset(out.encode("utf-8"))) == rows
