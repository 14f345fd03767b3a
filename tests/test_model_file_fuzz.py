"""Property-based fuzzing of saved model files: predict exits 0 or 3.

Hypothesis edits saved files of all 14 models. Each edit picks a section of
the file (the fitted state, the scaler, the encoders or the hyperparameters
`seed` and `max_epochs`), then one object or array in it, down to a matrix
row. It deletes or adds keys, changes types, truncates, extends or reshapes
arrays, points indices backwards or out of range, and sets numbers and codes
to huge, negative, fractional or boolean values.
A sweep also sets the first number of every fitted array, a tree model's
forest included, and of the scaler to each of a few extreme magnitudes, which
random edits rarely reach. Another moves, drops, adds and reorders a tree
model's roots, the node numbers at which its trees start.

`predict` must then either exit 0 and write one valid line per row, or exit
3 with a one-line message; it never exits 1 or 2, and never prints a
traceback or a warning. The run is derandomized and keeps no example
database, so it is the same on every machine.
"""

import contextlib
import copy
import io
import json
import warnings

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flowbench.classifiers import MODEL_NAMES
from flowbench.cli import EXIT_MODEL, EXIT_OK, main
from flowbench.flow_data import CLASS_TOKENS, records_to_csv
from flowbench.synth import generate_records

ROWS = 60
# The state twice: it holds most of a file's arrays.
SECTIONS = ("state", "state", "scaler", "encoders", "hyperparameters")
ODD = st.sampled_from([
    None, True, False, "x", "", "13", [], {}, [[0]], {"a": 1}, 0, 1, -1, -2, 0.5, -0.5,
    1.5, 12, 13, 2**31, 2**63, 10**400, 1e200, -1e308,
]).map(copy.deepcopy)  # a later edit must not change the list's own [] or {}
EXTREMES = (1e200, -1e308, 1e-300)
TREE_MODELS = ("decision_tree", "extra_tree", "bagging", "random_forest", "extra_trees")


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """The flows file and the text of each model's file trained on it."""
    folder = tmp_path_factory.mktemp("model-files")
    data = folder / "flows.csv"
    data.write_text(records_to_csv(generate_records(ROWS, seed=4, signal_strength=0.7)))
    texts = {}
    for name in MODEL_NAMES:
        path = folder / f"{name}.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["train", "--data", str(data), "--model", name,
                         "--output", str(path)]) == EXIT_OK
        texts[name] = path.read_text()
    return data, texts


def containers(parent, key):
    """(parent, key) of every object and array at or below parent[key]."""
    found = [(parent, key)]
    value = parent[key]
    if isinstance(value, (dict, list)):
        for inner in (sorted(value) if isinstance(value, dict) else range(len(value))):
            if isinstance(value[inner], (dict, list)):
                found += containers(value, inner)
    return found


def edit_section(draw, document) -> None:
    """One edit of one object or array in one section of the document."""
    section = draw(st.sampled_from(SECTIONS))
    if section not in document:
        return
    choices = containers(document, section)
    parent, key = choices[draw(st.integers(0, len(choices) - 1))]
    value = parent[key]
    operation = draw(st.sampled_from(["set", "set", "set", "truncate", "append",
                                      "nest", "delete", "retype"]))
    if operation == "delete" and parent is not document:
        del parent[key]
    elif operation == "retype" or not isinstance(value, (dict, list)) or not value:
        parent[key] = draw(ODD)
    elif isinstance(value, dict):
        if operation == "append":
            value["unexpected"] = draw(ODD)
        elif operation in ("truncate", "delete"):
            del value[draw(st.sampled_from(sorted(value)))]
        else:
            value[draw(st.sampled_from(sorted(value)))] = draw(ODD)
    elif operation == "truncate":
        del value[draw(st.integers(0, len(value) - 1)):]
    elif operation == "append":
        value.append(draw(st.sampled_from([value[-1]]) | ODD))
    elif operation == "nest":
        parent[key] = [value[i : i + 3] for i in range(0, len(value), 3)]
    else:
        at = draw(st.integers(0, len(value) - 1))
        # Index-relative values: itself, its parent side, the end of the array.
        value[at] = draw(st.sampled_from([at - 1, at, len(value), len(value) + 1]) | ODD)


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
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(st.sampled_from(MODEL_NAMES), st.integers(1, 3), st.integers(0, 1), st.data())
def test_predict_on_an_edited_model_file_exits_0_or_3(
    saved, name, section_edits, other_edits, data
):
    flows, texts = saved
    document = json.loads(texts[name])
    for _ in range(section_edits):
        edit_section(data.draw, document)
    for _ in range(other_edits):
        edit_anywhere(data.draw, document)
    check_predict(flows, document)


def first_numbers(document):
    """(array, label) of every fitted array and of the scaler's arrays."""
    found = []
    for field, value in document["state"].items():
        if isinstance(value, list):
            found.append((value[0] if isinstance(value[0], list) else value, field))
    return found + [(document["scaler"][key], f"scaler.{key}") for key in ("mean", "std")]


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_predict_with_an_extreme_number_in_each_array_exits_0_or_3(saved, name):
    flows, texts = saved
    for at in range(len(first_numbers(json.loads(texts[name])))):
        for value in EXTREMES:
            document = json.loads(texts[name])
            array, label = first_numbers(document)[at]
            array[0] = value
            check_predict(flows, document, f"{label}[0] = {value!r}")


@pytest.mark.parametrize("name", TREE_MODELS)
def test_predict_with_edited_roots_exits_0_or_3(saved, name):
    flows, texts = saved
    state = json.loads(texts[name])["state"]
    roots, n = state["roots"], len(state["left"])
    edits = [[], roots[::-1], roots[:-1], roots + [n - 1], roots + [n], roots + roots[-1:],
             [root + 1 for root in roots], [root - 1 for root in roots]]
    for at in sorted({0, 1 % len(roots), len(roots) - 1}):
        for value in (roots[at] - 1, roots[at] + 1, roots[at - 1], n - 1, n, -1):
            edits.append([*roots[:at], value, *roots[at + 1:]])
    for edited in edits:
        document = json.loads(texts[name])
        document["state"]["roots"] = edited
        check_predict(flows, document, f"roots = {edited!r}")


def check_predict(flows, document, edit=None) -> None:
    """predict on the edited document exits 3 with one line, or 0 with one line per row."""
    path = flows.with_name("edited.json")
    path.write_text(json.dumps(document))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["predict", "--data", str(flows), "--model-file", str(path)])
    assert not caught, (edit, [str(w.message) for w in caught])
    if code == EXIT_MODEL:
        assert err.getvalue().startswith("model error: ")
        assert err.getvalue().count("\n") == 1
        return
    assert code == EXIT_OK, (edit, err.getvalue())
    assert err.getvalue() == ""
    header, *lines = out.getvalue().splitlines()
    assert header == "row,prediction_code,prediction"
    assert len(lines) == ROWS
    for row, line in enumerate(lines):
        index, code, token = line.split(",")
        assert index == str(row) and CLASS_TOKENS[int(code)] == token
