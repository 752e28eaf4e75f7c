"""Univariate pathspace Kalman filtering with dynamic process uncertainty.

The package provides the pathspace Kalman filter (a trajectory-iterating
filter whose per-timepoint process uncertainty tracks model/data
discrepancy), the ODE-spline internal models it relies on, four baseline
filters/smoothers for comparison, seeded synthetic-data generators, a
benchmark harness, and a CLI for batch processing of measurement panels.
"""

from .baselines import (
    run_adaptive_kf,
    run_ipls,
    run_ukf,
    run_urts,
)
from .bench import (
    AlgorithmSpec,
    BenchmarkReport,
    BenchmarkRow,
    QRatioSummary,
    mse,
    q_ratio_summary,
    run_benchmark,
    table_specs,
)
from .core import (
    VARIANCE_FLOOR,
    GroundTruth,
    InvalidConfigError,
    InvalidDataError,
    InvalidParameterError,
    NumericalOverflowError,
    PathkfError,
    TimeGrid,
    TimeSeriesData,
    Trajectory,
)
from .models import (
    ModelKind,
    ScanGrid,
    SplinePathModel,
    flow_birth_death,
    flow_const_reg,
)
from .pkf import (
    PkfResult,
    PkfState,
    PkfWeights,
    RegimeLabel,
    classify_regimes,
    pkf_weights,
    run_pkf,
    run_pkf_block,
    update_process_uncertainty,
)
from .synth import (
    BirthDeathScenario,
    GenePanelScenario,
    GeneSpec,
    PiecewiseConstant,
    panel_labels,
    simulate_birth_death,
    simulate_gene_panel,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
