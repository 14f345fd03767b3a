"""flowbench: benchmark a from-scratch classifier portfolio on flow-record CSVs."""

from flowbench.bench import (
    BenchOptions,
    EvalReport,
    Leaderboard,
    leaderboard_from_json,
    render,
    run_benchmark,
)
from flowbench.features import (
    FeatureMatrix,
    Scaler,
    SplitPlan,
    encode_records,
    fit_transform,
    k_folds,
    stratified_split,
    transform,
)
from flowbench.flow_data import (
    CANONICAL_COLUMNS,
    DatasetSummary,
    FlowRecord,
    FlowTable,
    RowError,
    SchemaError,
    ThreatClass,
    parse_dataset,
    records_to_csv,
    summarize,
)
from flowbench.synth import generate_records

__version__ = "0.1.0"
