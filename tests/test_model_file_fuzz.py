"""Property-based fuzzing of saved tree model files: predict exits 0 or 3.

Hypothesis edits saved decision_tree and random_forest files: it deletes
keys, changes types, truncates or reshapes the tree arrays, points children
backwards or out of range, and sets numbers to huge, negative or boolean
values. `predict` must then either exit 0 and write one valid line per row,
or exit 3 with a one-line message; it never exits 1 or 2, and never prints a
traceback or a warning. The run is derandomized and keeps no example
database, so it is the same on every machine.
"""

import contextlib
import io
import json
import warnings

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flowbench.cli import EXIT_MODEL, EXIT_OK, main
from flowbench.flow_data import CLASS_TOKENS, records_to_csv
from flowbench.synth import generate_records

MODELS = ("decision_tree", "random_forest")
ROWS = 60
FIELDS = ("feature", "threshold", "left", "right", "value")
ODD = st.sampled_from([
    None, True, False, "x", "", [], {}, [[0]], {"a": 1}, 0, 1, -1, -2, 0.5, -0.5, 1.5,
    12, 13, 2**31, 2**63, 10**400, 1e200, -1e308,
])


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """The flows file and the text of each model's file trained on it."""
    folder = tmp_path_factory.mktemp("tree-files")
    data = folder / "flows.csv"
    data.write_text(records_to_csv(generate_records(ROWS, seed=4, signal_strength=0.7)))
    texts = {}
    for name in MODELS:
        path = folder / f"{name}.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["train", "--data", str(data), "--model", name,
                         "--output", str(path)]) == EXIT_OK
        texts[name] = path.read_text()
    return data, texts


def edit_tree(draw, document) -> None:
    """One edit of one field of one tree, when the document still has trees."""
    trees = document.get("state", {}).get("trees")
    if not isinstance(trees, list) or not trees or not isinstance(trees[0], dict):
        return
    tree = trees[draw(st.integers(0, len(trees) - 1))]
    field = draw(st.sampled_from(FIELDS))
    array = tree.get(field)
    operation = draw(st.sampled_from(["set", "set", "set", "truncate", "append",
                                      "nest", "delete", "retype"]))
    if operation == "delete":
        tree.pop(field, None)
    elif operation == "retype" or not isinstance(array, list) or not array:
        tree[field] = draw(ODD)
    elif operation == "truncate":
        del array[draw(st.integers(0, len(array) - 1)):]
    elif operation == "append":
        array.append(draw(ODD))
    elif operation == "nest":
        tree[field] = [array[i : i + 3] for i in range(0, len(array), 3)]
    else:
        at = draw(st.integers(0, len(array) - 1))
        # Node-relative values: itself, its parent side, the end of the tree.
        array[at] = draw(st.sampled_from([at - 1, at, len(array), len(array) + 1]) | ODD)


def edit_anywhere(draw, document) -> None:
    """Delete or replace the value at a random path from the document root."""
    parent, key = None, None
    node = document
    while isinstance(node, (dict, list)) and node and (parent is None or draw(st.booleans())):
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, draw(st.sampled_from(list(keys)))
        node = parent[key]
    if parent is None:
        return
    if draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(ODD)


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(st.sampled_from(MODELS), st.integers(1, 3), st.integers(0, 2), st.data())
def test_predict_on_an_edited_tree_file_exits_0_or_3(saved, name, tree_edits, other_edits, data):
    flows, texts = saved
    document = json.loads(texts[name])
    for _ in range(tree_edits):
        edit_tree(data.draw, document)
    for _ in range(other_edits):
        edit_anywhere(data.draw, document)
    path = flows.with_name("edited.json")
    path.write_text(json.dumps(document))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["predict", "--data", str(flows), "--model-file", str(path)])
    assert not caught, [str(w.message) for w in caught]
    if code == EXIT_MODEL:
        assert err.getvalue().startswith("model error: ")
        assert err.getvalue().count("\n") == 1
        return
    assert code == EXIT_OK, err.getvalue()
    assert err.getvalue() == ""
    header, *lines = out.getvalue().splitlines()
    assert header == "row,prediction_code,prediction"
    assert len(lines) == ROWS
    for row, line in enumerate(lines):
        index, code, token = line.split(",")
        assert index == str(row) and CLASS_TOKENS[int(code)] == token
