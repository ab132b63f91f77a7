"""Interpretable fuzzy-logic neural networks.

Gates are clamped sums ``cut(x + y - alpha)`` (smoothed for training) whose
learnable compensation level alpha slides each gate between disjunction,
aggregation and conjunction.  Trained networks stay readable: sparse
selector routing traces back into a short logic expression.
"""

from .data import (
    ColumnSchema,
    DataError,
    Dataset,
    generate_synthetic,
    load_csv,
    load_schema,
    numeric_schema,
    relabel,
    save_csv,
    split_dataset,
)
from .expressions import (
    Const,
    Gate,
    Leaf,
    LogicExpr,
    Not,
    canonical_form,
    evaluate_crisp,
    parse,
    render,
)
from .extraction import (
    ExtractionConfig,
    dominant_first_gate,
    faithfulness,
    leaf_labels,
    should_omit,
    snap_operators,
    snapped_network,
    trace_expression,
)
from .network import (
    ConfigurationError,
    LogicNetwork,
    NetworkConfig,
    ShapeMismatchError,
    StaleCacheError,
    build_network,
    serialize_model,
)
from .operators import (
    GeneralOpSpec,
    OperatorKind,
    SquashParams,
    classify_alpha,
    cut,
    gate_crisp,
    gate_smooth,
    general_operator,
    preference,
    squash,
)
from .training import (
    BaselineConfig,
    CrossValResult,
    Metrics,
    TrainConfig,
    TrainingDivergedError,
    TrainResult,
    build_baseline,
    cross_validate,
    evaluate,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # operators
    "OperatorKind", "SquashParams", "GeneralOpSpec", "cut", "squash",
    "gate_crisp", "gate_smooth", "general_operator", "preference",
    "classify_alpha",
    # expressions
    "LogicExpr", "Leaf", "Const", "Gate", "Not", "render", "parse",
    "evaluate_crisp", "canonical_form",
    # network
    "NetworkConfig", "LogicNetwork", "build_network",
    "serialize_model", "ConfigurationError", "ShapeMismatchError",
    "StaleCacheError",
    # training
    "TrainConfig", "TrainResult", "Metrics", "train", "evaluate",
    "BaselineConfig", "build_baseline", "CrossValResult",
    "cross_validate", "TrainingDivergedError",
    # extraction
    "ExtractionConfig", "trace_expression", "should_omit", "faithfulness",
    "snap_operators", "snapped_network", "dominant_first_gate", "leaf_labels",
    # data
    "Dataset", "ColumnSchema", "DataError", "load_schema", "load_csv",
    "save_csv", "numeric_schema", "relabel", "split_dataset",
    "generate_synthetic",
]
