"""Command-line entry point: inspect, correlate, bench, roc, train, predict, synth.

Exit codes: 0 success, 1 usage error, 2 data/schema error, 3 model error.
The --data flag falls back to the UGRANSOME_DATA environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

import numpy as np

from flowbench.bench import BenchOptions, render, resolve_model_names, run_benchmark
from flowbench.classifiers import (
    ModelFormatError,
    NotFittedError,
    load_model,
    make_model,
    non_negative_int,
    save_model,
)
from flowbench.features import encode_records, fit_transform, stratified_split
from flowbench.flow_data import (
    CLASS_TOKENS,
    parse_dataset,
    records_to_csv,
    summarize,
)
from flowbench.metrics import (
    correlation_to_csv,
    fit_and_score,
    pearson_matrix,
    roc_curves,
    roc_to_csv,
)
from flowbench.synth import generate_records

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_MODEL = 3


class _UsageError(Exception):
    pass


class _ModelError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _seed(text: str) -> int:
    """The --seed type of every subcommand: the seed rule of models and BenchOptions."""
    try:
        return non_negative_int(int(text), "seed")
    except ValueError:
        raise argparse.ArgumentTypeError("seed must be a non-negative integer") from None


def build_parser() -> _Parser:
    parser = _Parser(prog="flowbench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_data(p):
        p.add_argument(
            "--data",
            default=os.environ.get("UGRANSOME_DATA"),
            help="input CSV path (default: $UGRANSOME_DATA)",
        )

    def add_seed(p):
        p.add_argument("--seed", type=_seed, default=BenchOptions.seed)

    def add_split(p):
        add_seed(p)
        p.add_argument("--test-fraction", type=float, default=BenchOptions.test_fraction)
        p.add_argument("--no-scale", action="store_true", help="skip z-score scaling")

    def add_output(p, formats):
        p.add_argument("--output", default=None, help="write here instead of stdout")
        p.add_argument("--format", choices=formats, default=formats[0])

    p = sub.add_parser("inspect", help="dataset summary")
    add_data(p)
    add_output(p, ["text", "json"])
    p.set_defaults(handler=_cmd_inspect)

    p = sub.add_parser("correlate", help="feature/label Pearson correlation CSV")
    add_data(p)
    p.add_argument("--output", default=None)
    p.set_defaults(handler=_cmd_correlate)

    p = sub.add_parser("bench", help="train and rank the model portfolio")
    add_data(p)
    add_split(p)
    p.add_argument("--folds", type=int, default=BenchOptions.folds, help="0 = holdout only")
    p.add_argument("--workers", type=int, default=BenchOptions.workers,
                   help="at least 1; every count evaluates the models in one loop today")
    p.add_argument("--models", default="all", help="comma-separated names or 'all'")
    add_output(p, ["table", "csv", "json"])
    p.set_defaults(handler=_cmd_bench)

    p = sub.add_parser("roc", help="per-class ROC curve points for one model")
    add_data(p)
    add_split(p)
    p.add_argument("--model", required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(handler=_cmd_roc)

    p = sub.add_parser("train", help="fit one model on the whole file and save it")
    add_data(p)
    p.add_argument("--model", required=True)
    add_seed(p)
    p.add_argument("--no-scale", action="store_true")
    p.add_argument("--output", required=True, help="model JSON path")
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("predict", help="apply a saved model to a CSV")
    add_data(p)
    p.add_argument("--model-file", required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(handler=_cmd_predict)

    p = sub.add_parser("synth", help="generate schema-conformant synthetic data")
    p.add_argument("--rows", type=int, required=True)
    add_seed(p)
    p.add_argument("--signal-strength", type=float, default=1.0)
    p.add_argument("--output", default=None)
    p.set_defaults(handler=_cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (_ModelError, ModelFormatError, NotFittedError) as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except (OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


def _load_records(path):
    if not path:
        raise _UsageError("--data is required (or set UGRANSOME_DATA)")
    if not Path(path).is_file():
        raise FileNotFoundError(f"no such file: {path}")
    return parse_dataset(path)


def _prepared(args, requested):
    """Checked options and model names of bench, roc and train, then the encoded --data."""
    try:
        options = BenchOptions(
            **{f.name: getattr(args, f.name) for f in fields(BenchOptions) if f.name in args}
        )
        models = resolve_model_names(requested)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    matrix = fit_transform(_load_records(args.data), scale=not args.no_scale)
    return options, models, matrix


@contextmanager
def _model_stage():
    """Any failure of a fit or of scoring is a model error."""
    try:
        yield
    except Exception as exc:
        raise _ModelError(str(exc)) from exc


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _cmd_inspect(args) -> int:
    summary = summarize(_load_records(args.data))
    if args.format == "json":
        _emit(json.dumps(summary, indent=2), args.output)
        return EXIT_OK
    lines = [
        f"{summary['row_count']} rows",
        f"{summary['column_count']} data columns",
        f"{summary['family_count']} families",
    ]
    for heading, key in (
        ("classes", "class_counts"),
        ("families", "family_counts"),
        ("distinct values per column", "distinct_counts"),
    ):
        lines.append(f"{heading}:")
        lines.extend(f"  {name}: {count}" for name, count in summary[key].items())
    _emit("\n".join(lines), args.output)
    return EXIT_OK


def _cmd_correlate(args) -> int:
    records = _load_records(args.data)
    matrix = fit_transform(records, scale=False)
    _emit(correlation_to_csv(pearson_matrix(matrix)), args.output)
    return EXIT_OK


def _cmd_bench(args) -> int:
    requested = args.models
    if requested != "all":
        requested = [m.strip() for m in requested.split(",") if m.strip()]
    options, models, matrix = _prepared(args, requested)
    plan = stratified_split(matrix.labels, options.test_fraction, options.seed)
    leaderboard = run_benchmark(matrix, plan, models, options)
    _emit(render(leaderboard, args.format), args.output)
    return EXIT_OK


def _cmd_roc(args) -> int:
    options, (name,), matrix = _prepared(args, [args.model])
    plan = stratified_split(matrix.labels, options.test_fraction, options.seed)
    with _model_stage():
        scores, _, _ = fit_and_score(
            lambda: make_model(name, seed=options.seed),
            matrix,
            plan.train_indices,
            plan.test_indices,
        )
    curve = roc_curves(matrix.labels[plan.test_indices], scores)
    _emit(roc_to_csv(curve), args.output)
    return EXIT_OK


def _cmd_train(args) -> int:
    options, (name,), matrix = _prepared(args, [args.model])
    model = make_model(name, seed=options.seed)
    with _model_stage():
        model.fit(matrix.rows_for(model), matrix.labels)
    save_model(args.output, model, encoders=matrix.encoders, scaler=matrix.scaler)
    print(f"saved {name} to {args.output} ({matrix.labels.size} training rows)")
    return EXIT_OK


def _cmd_predict(args) -> int:
    artifact = load_model(args.model_file)
    rows = encode_records(_load_records(args.data), artifact.encoders)
    # The cells are bounded integers, so a float error is the model file's.
    with _model_stage(), np.errstate(over="raise", invalid="raise", divide="raise"):
        if artifact.model.needs_scaling and artifact.scaler is not None:
            rows = artifact.scaler.apply(rows)
        predicted = artifact.model.predict(rows)
    codes = predicted.tolist()
    # load_model admits only known class codes, so each indexes its line ending.
    endings = [f",{code},{token}\n" for code, token in enumerate(CLASS_TOKENS)]
    body = "".join(map(str.__add__, map(str, range(len(codes))), map(endings.__getitem__, codes)))
    _emit("row,prediction_code,prediction\n" + body, args.output)
    return EXIT_OK


def _cmd_synth(args) -> int:
    if args.rows < 1:
        raise _UsageError("--rows must be at least 1")
    if not 0.0 <= args.signal_strength <= 1.0:
        raise _UsageError("--signal-strength must be in [0, 1]")
    records = generate_records(args.rows, args.seed, args.signal_strength)
    _emit(records_to_csv(records), args.output)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
