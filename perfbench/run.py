"""End-to-end benchmark of the flowbench CLI on three closed-loop workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-references

One client runs each workload's CLI commands one after another, each in a
fresh interpreter, so a pass costs what a user pays: interpreter start,
import and the command itself. With --trace 0 the run sets up at least
SETUP_REPEATS times, then runs passes for about --seconds (at least one),
checks every output and reports the end-to-end metrics. With --trace 1
it runs one untraced pass, then the same commands through traced_cli.py,
which runs the real CLI with a span around each call into a layer, and
reports the per-layer metrics. The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}; the metrics
are the ones BENCHMARK.json names for the chosen trace mode.

--record-references rewrites references.json: the confusion matrices and
prediction digests of the current program on the two recorded seeds.

Paths resolve against the checkout this file sits in; everything the run
writes goes under .perfbench/ there. flowbench and numpy are imported inside
functions, after main() has checked for the checkout's src/ and put it on
sys.path.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCES = HERE / "references.json"

DEFAULT_SEED = 7
VALIDATION_SEED = 8  # kept for validating claims; never tuned against
QUERY_SEED_OFFSET = 100_000  # predict-100k scores rows from seed + offset
# Set up at least SETUP_REPEATS times and for at least SETUP_MIN_SECONDS, so
# that a set-up of a few milliseconds still gets a stable median.
SETUP_REPEATS = 3
SETUP_MIN_SECONDS = 3.0
SGD_MODELS = ("linear_svm_sgd", "logistic_regression", "perceptron")
SGD_ACCURACY_TOLERANCE = 0.02  # holdout accuracy drift allowed for SGD models
ACCURACY_FLOOR = 0.5  # every non-dummy model must beat chance (1/3) by this much
TREE_ENSEMBLES = ("bagging", "random_forest", "extra_trees")
PREDICT_HEADER = "row,prediction_code,prediction"


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int  # rows of the bench CSV, or training rows for predict
    signal: float
    models: tuple[str, ...] | None  # None: the CLI default, every model
    query_rows: int = 0  # predict only: rows each predict command scores
    pool_workers: int = 0  # traced run only: also run the bench at this many workers


WORKLOADS = {
    w.name: w
    for w in (
        Workload("portfolio-1k", rows=1000, signal=0.9, models=None),
        Workload(
            "ensembles-1k",
            rows=1000,
            signal=0.6,
            models=(
                "decision_tree", "extra_tree", "bagging", "random_forest",
                "extra_trees", "knn", "gaussian_nb", "bernoulli_nb",
                "nearest_centroid", "ridge", "perceptron", "dummy",
            ),
            pool_workers=2,
        ),
        Workload(
            "predict-100k",
            rows=1000,
            signal=0.6,
            models=("random_forest", "knn"),
            query_rows=100_000,
        ),
    )
}


@dataclass
class Pass:
    """One pass over a workload's commands and what its outputs showed."""

    wall_s: float
    rss_mb: float
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    outputs: dict = field(default_factory=dict)  # model -> confusion or sha256


class Run:
    """State of one benchmark run of one workload and seed."""

    def __init__(self, workload: Workload, seed: int, reference: dict | None):
        from flowbench.classifiers import MODEL_NAMES

        self.workload = workload
        self.seed = seed
        self.reference = reference
        self.models = list(workload.models or MODEL_NAMES)
        self.work = WORK / workload.name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        self.traces: list[dict] = []  # one per traced command: cli span + child spans
        self.setup_failures: list[str] = []
        self.labels = None  # true classes of the rows each pass classifies

    # set-up -----------------------------------------------------------------

    def setup(self) -> float:
        """Write the input CSVs (and train the models); return the seconds taken."""
        from flowbench.flow_data import records_to_csv
        from flowbench.synth import generate_records

        w = self.workload
        start = time.monotonic()
        records = generate_records(w.rows, self.seed, w.signal)
        if w.query_rows:
            (self.work / "train.csv").write_text(records_to_csv(records), encoding="utf-8")
            query_seed = self.seed + QUERY_SEED_OFFSET
            records = generate_records(w.query_rows, query_seed, w.signal)
            (self.work / "query.csv").write_text(records_to_csv(records), encoding="utf-8")
            for model in self.models:
                code, _ = self.command(["train", "--data", "train.csv", "--model", model,
                                        "--output", f"{model}.json"])
                if code != 0:
                    self.setup_failures.append(f"train {model}: exit code {code}")
        else:
            (self.work / "data.csv").write_text(records_to_csv(records), encoding="utf-8")
        elapsed = time.monotonic() - start
        self.labels = [int(r.prediction) for r in records]
        return elapsed

    def holdout_class_counts(self) -> list[int]:
        """Class counts of the CLI's default holdout split of the bench CSV."""
        import numpy as np
        from flowbench.features import stratified_split

        labels = np.asarray(self.labels)
        plan = stratified_split(labels, 0.2, 42)
        return np.bincount(labels[plan.test_indices], minlength=3).tolist()

    # commands ---------------------------------------------------------------

    def command(self, cli_args: list[str], traced: bool = False, phase: str = "setup"):
        """Run one CLI command in a fresh interpreter; return (exit code, peak RSS MB)."""
        span_id = f"cli-{len(self.traces)}"
        spans_file = self.work / f"spans-{span_id}.json"
        if traced:
            argv = [sys.executable, str(HERE / "traced_cli.py"), "--spans",
                    str(spans_file), "--parent", span_id, *cli_args]
        else:
            argv = [sys.executable, "-m", "flowbench.cli", *cli_args]
        with open(self.work / "stderr.log", "ab") as log:
            start = time.monotonic()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=log)
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if traced:
            cli_span = {"id": span_id, "name": f"cli.{cli_args[0]}", "layer": "cli",
                        "parent": None, "start": start, "end": end,
                        "attrs": {"command": cli_args[0], "phase": phase}}
            try:
                child = json.loads(spans_file.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                child = {"spans": [], "tree_stats": {}}
            self.traces.append({"phase": phase, "spans": [cli_span, *child["spans"]],
                                "tree_stats": child["tree_stats"]})
        return proc.returncode, usage.ru_maxrss / 1024.0

    def run_pass(self, traced: bool = False, workers: int | None = None,
                 expected: dict | None = None) -> Pass:
        """Run every command of one pass, then check their outputs.

        `expected` maps each model to the output another pass produced on the
        same inputs; this pass must reproduce it exactly.
        """
        w = self.workload
        tag = "traced" if traced else f"w{workers or 1}"
        results = []
        start = time.monotonic()
        if w.query_rows:
            for model in self.models:
                prefix = "traced-" if traced else ""
                out = self.work / f"{tag}-{model}.csv"
                out.unlink(missing_ok=True)
                code, rss = self.command(
                    ["predict", "--data", "query.csv", "--model-file",
                     f"{prefix}{model}.json", "--output", out.name],
                    traced, "pass")
                results.append((model, code, rss, out))
        else:
            out = self.work / f"{tag}-leaderboard.json"
            out.unlink(missing_ok=True)
            args = ["bench", "--data", "data.csv", "--workers", str(workers or 1),
                    "--format", "json", "--output", out.name]
            if w.models:
                args += ["--models", ",".join(w.models)]
            code, rss = self.command(args, traced, "pass")
            results.append((None, code, rss, out))
        result = Pass(wall_s=time.monotonic() - start, rss_mb=max(r[2] for r in results))
        for model, code, _, out in results:
            if w.query_rows:
                self.check_predictions(result, model, code, out, expected)
            else:
                self.check_leaderboard(result, code, out, expected)
        return result

    # output checks ------------------------------------------------------------

    def check_leaderboard(self, result: Pass, code: int, path: Path, expected) -> None:
        import numpy as np

        result.attempted += len(self.models)
        reports, missing = {}, "missing row"
        try:
            if code != 0:
                raise ValueError(f"exit code {code}")
            reports = {r["model"]: r for r in json.loads(path.read_text())["reports"]}
        except (OSError, ValueError, KeyError, TypeError) as exc:
            missing = f"no leaderboard: {exc}"
        holdout = self.holdout_class_counts()
        for model in self.models:
            row = reports.get(model)
            problem = None
            if row is None:
                problem = missing
            elif row["status"] != "ok":
                problem = row["status"]
            else:
                cm = np.asarray(row["confusion"])
                accuracy = np.trace(cm) / cm.sum()
                if cm.shape != (3, 3) or cm.sum(axis=1).tolist() != holdout:
                    problem = f"confusion row sums differ from holdout {holdout}"
                elif abs(accuracy - row["accuracy"]) > 1e-12:
                    problem = "accuracy disagrees with the confusion matrix"
                elif model != "dummy" and accuracy < ACCURACY_FLOOR:
                    problem = f"accuracy {accuracy:.3f} below {ACCURACY_FLOOR}"
                elif expected is not None and row["confusion"] != expected.get(model):
                    problem = "confusion differs from the untraced pass"
                elif self.reference is not None:
                    reference = np.asarray(self.reference[model])
                    problem = reference_problem(model, cm, reference)
                result.outputs[model] = row["confusion"]
            if problem:
                result.failures.append(f"{model}: {problem}")

    def check_predictions(self, result: Pass, model: str, code: int, path: Path,
                          expected) -> None:
        from flowbench.flow_data import ThreatClass

        result.attempted += 1
        try:
            data = path.read_bytes()
        except OSError:
            result.failures.append(f"predict {model}: exit {code}, no output")
            return
        digest = hashlib.sha256(data).hexdigest()
        result.outputs[model] = digest
        lines = data.decode("utf-8").splitlines()
        problem = None
        if code != 0:
            problem = f"exit code {code}"
        elif lines[:1] != [PREDICT_HEADER] or len(lines) != len(self.labels) + 1:
            problem = f"{len(lines)} lines for {len(self.labels)} rows"
        else:
            tokens = {str(cls.value): cls.token for cls in ThreatClass}
            rows = [line.split(",") for line in lines[1:]]
            if any(len(r) != 3 or r[0] != str(i) or tokens.get(r[1]) != r[2]
                   for i, r in enumerate(rows)):
                problem = "malformed prediction line"
            else:
                hits = sum(int(r[1]) == label for r, label in zip(rows, self.labels))
                accuracy = hits / len(self.labels)
                if accuracy < ACCURACY_FLOOR:
                    problem = f"accuracy {accuracy:.3f} below {ACCURACY_FLOOR}"
                elif expected is not None and digest != expected.get(model):
                    problem = "output differs from the untraced pass"
                elif self.reference is not None and digest != self.reference[model]:
                    problem = "output digest differs from the recorded reference"
        if problem:
            result.failures.append(f"predict {model}: {problem}")

    # traced run ------------------------------------------------------------------

    def kernel_inputs(self):
        """Training rows (scaled, raw), their labels and the rows a pass scores."""
        import numpy as np
        from flowbench.features import fit_transform, stratified_split, transform
        from flowbench.flow_data import parse_dataset

        w = self.workload
        records = parse_dataset(self.work / ("train.csv" if w.query_rows else "data.csv"))
        matrix = fit_transform(records, scale=True)
        if w.query_rows:
            with open(self.work / "query.csv", encoding="utf-8") as f:
                head = "".join(f.readline() for _ in range(513))
            queries = transform(matrix, parse_dataset(head.encode("utf-8")))
            train = np.arange(matrix.labels.size)
        else:
            plan = stratified_split(matrix.labels, 0.2, 42)
            queries = matrix.rows[plan.test_indices]
            train = plan.train_indices
        return matrix.rows[train], matrix.encoded[train], matrix.labels[train], queries


def reference_problem(model: str, cm, reference) -> str | None:
    if model in SGD_MODELS:
        drift = abs(cm.trace() / cm.sum() - reference.trace() / reference.sum())
        if drift > SGD_ACCURACY_TOLERANCE:
            return f"accuracy moved {drift:.4f} from the reference"
        return None
    if not (cm == reference).all():
        return "confusion differs from the recorded reference"
    return None


# provenance ---------------------------------------------------------------------


def provenance(run: Run, trace: int, passes: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        git_sha = proc.stdout.strip() or None
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": openblas_threads(np),
        "workload": run.workload.name,
        "seed": run.seed,
        "trace": trace,
        "passes": passes,
    }


def openblas_threads(np) -> int | None:
    """Thread count of numpy's bundled OpenBLAS, or None if it is not found."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


# workflows ------------------------------------------------------------------------


def load_references() -> dict:
    if not REFERENCES.is_file():
        return {}
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def end_to_end(run: Run, seconds: float) -> tuple[dict, list[Pass], dict]:
    setups: list[float] = []
    start = time.monotonic()
    while len(setups) < SETUP_REPEATS or time.monotonic() - start < SETUP_MIN_SECONDS:
        setups.append(run.setup())
    # Start another pass while it would end, taking as long as the last one,
    # less than half a pass after --seconds; so a run measures about --seconds.
    passes: list[Pass] = []
    start = time.monotonic()
    while not passes or time.monotonic() - start + passes[-1].wall_s / 2 < seconds:
        passes.append(run.run_pass())
    metrics = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p.rss_mb for p in passes),
    }
    extra = {}
    if run.workload.query_rows:
        files = [run.work / f"{m}.json" for m in run.models]
        if all(f.is_file() for f in files):
            extra["model_file_kb"] = (sum(f.stat().st_size for f in files) / 1000, "KB")
    return metrics, passes, extra


def per_layer(run: Run) -> tuple[dict, list[Pass], dict]:
    from layers import kernel_metrics, span_metrics

    w = run.workload
    run.setup()
    untraced = run.run_pass()
    if w.query_rows:  # replay the set-up's train commands too, for fit and save spans
        for model in run.models:
            run.command(["train", "--data", "train.csv", "--model", model,
                         "--output", f"traced-{model}.json"], traced=True)
    traced = run.run_pass(traced=True, expected=untraced.outputs)
    passes = [untraced, traced]
    spans = [s for t in run.traces for s in t["spans"]]
    stats = {k: v for t in run.traces for k, v in t["tree_stats"].items()}
    metrics = span_metrics(spans, stats)
    metrics["trace.overhead_frac"] = (traced.wall_s - untraced.wall_s) / untraced.wall_s
    if w.pool_workers:
        pooled = run.run_pass(workers=w.pool_workers, expected=untraced.outputs)
        passes.append(pooled)
        metrics["bench.worker_speedup"] = untraced.wall_s / pooled.wall_s
    metrics.update(kernel_metrics(*run.kernel_inputs()))
    (run.work / "spans.json").write_text(json.dumps(spans), encoding="utf-8")

    # Shares of the traced pass's wall time, for the README's "should move" column.
    pass_spans = [s for t in run.traces if t["phase"] == "pass" for s in t["spans"]]
    in_pass = span_metrics(pass_spans, {})
    shares = {f"share.self.{k[len('self_s.'):]}": v / traced.wall_s
              for k, v in in_pass.items() if k.startswith("self_s.")}

    def model_time(names, kind):
        return sum(in_pass.get(f"classifiers.{kind}_s.{m}", 0.0) for m in names)

    if w.query_rows:
        shares["share.parse_plus_score"] = (
            in_pass.get("flow_data.parse_s", 0.0) + model_time(run.models, "score")
        ) / traced.wall_s
    else:
        busy = model_time(run.models, "fit") + model_time(run.models, "score") or 1.0
        shares["share.sgd_fit_score"] = (
            model_time(SGD_MODELS, "fit") + model_time(SGD_MODELS, "score")) / traced.wall_s
        shares["share.tree_ensembles_of_model_time"] = (
            model_time(TREE_ENSEMBLES, "fit") + model_time(TREE_ENSEMBLES, "score")) / busy
    return metrics, passes, {k: (v, "ratio") for k, v in shares.items()}


def unit_of(name: str) -> str:
    if name.endswith(("_frac", "speedup")) or name.startswith("share."):
        return "ratio"
    if name.endswith("rows_per_s"):
        return "rows/s"
    if name.endswith("gflops_per_s"):
        return "GFLOP/s"
    if name.endswith("_s") or "_s." in name:
        return "s"
    return "count"


def record_references() -> int:
    references = {}
    for workload in WORKLOADS.values():
        for seed in (DEFAULT_SEED, VALIDATION_SEED):
            run = Run(workload, seed, reference=None)
            run.setup()
            result = run.run_pass()
            if result.failures:
                print("\n".join(result.failures), file=sys.stderr)
                return 1
            references.setdefault(workload.name, {})[str(seed)] = result.outputs
            print(f"recorded {workload.name} seed {seed}")
    REFERENCES.write_text(format_references(references), encoding="utf-8")
    return 0


def format_references(references: dict) -> str:
    """JSON with one line per model, so a changed reference shows as a small diff."""
    workloads = []
    for workload, seeds in sorted(references.items()):
        blocks = []
        for seed, outputs in sorted(seeds.items()):
            rows = ",\n".join(f"   {json.dumps(model)}: {json.dumps(value)}"
                               for model, value in sorted(outputs.items()))
            blocks.append(f"  {json.dumps(seed)}: {{\n{rows}\n  }}")
        workloads.append(f" {json.dumps(workload)}: {{\n" + ",\n".join(blocks) + "\n }")
    return "{\n" + ",\n".join(workloads) + "\n}\n"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-references", action="store_true")
    args = parser.parse_args(argv)
    if not args.record_references and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "flowbench" / "cli.py").is_file():
        print(f"perfbench: no flowbench sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record_references:
        return record_references()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    reported = spec["per_layer"] if args.trace else spec["end_to_end"]
    reference = load_references().get(args.workload, {}).get(str(args.seed))
    run = Run(WORKLOADS[args.workload], args.seed, reference)
    if args.trace:
        metrics, passes, extra = per_layer(run)
    else:
        metrics, passes, extra = end_to_end(run, args.seconds)

    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    # Set-up failures and unmeasured metrics make the run incorrect; they are
    # not operations, so they do not count in `failed`.
    problems = list(dict.fromkeys(run.setup_failures)) + [
        f"metric {m['name']} not measured" for m in reported if m["name"] not in metrics
    ]
    extra["ops_failed_frac"] = (len(failures) / attempted, "ratio")
    info = provenance(run, args.trace, len(passes))
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} reference={'yes' if reference else 'none'}")
    print("provenance " + json.dumps(info, sort_keys=True))
    for failure in problems + failures:
        print(f"check failed: {failure}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    rows = {k: (v, units.get(k) or unit_of(k)) for k, v in sorted(metrics.items())} | extra
    for name, (value, unit) in rows.items():
        print(f"{name:48s} {value:16.6g} {unit}")
    print(f"{'ops':48s} {len(failures)} failed of {attempted} attempted")
    (run.work / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"provenance": info, "failures": problems + failures,
                    "metrics": {k: {"value": v, "unit": u} for k, (v, u) in rows.items()}},
                   indent=1),
        encoding="utf-8")
    result = {
        "correct": not (failures or problems),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in reported if m["name"] in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
