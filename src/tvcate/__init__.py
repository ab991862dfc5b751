"""Meta-learners for conditional average treatment effects over discrete time.

The package provides a trajectory data model with deterministic history
encoding, structural-equation simulators with closed-form ground truth,
weighted base learners, nuisance estimation (iterative G-computation,
propensities, history adjustment), six CATE meta-learners, and a
reproducible benchmark harness with verification suites.
"""

from .panel import (
    Trajectory,
    Panel,
    HistoryView,
    InterventionPair,
    FeatureCodec,
    encode_history,
    encode_block,
    panel_from_arrays,
    panel_to_csv,
    panel_from_csv,
)
from .learners import (
    RegressorSpec,
    ClassifierSpec,
    FittedRegressor,
    FittedClassifier,
    fit_regressor,
    fit_classifier,
)
from .dgp import (
    StructuralDGP,
    DiscreteDGP,
    ChainResponseForm,
    make_d1,
    make_d2,
    make_d3,
    make_linear_chain,
    make_mini_discrete,
    get_dgp,
    simulate_panel,
    benchmark_pair,
)
from .nuisance import (
    SplitPlan,
    RowTable,
    NuisanceSet,
    default_codec,
    build_row_table,
    make_split,
    fit_response_iterative,
    fit_history_adjustment,
    fit_propensities,
    fit_nuisances,
    oracle_nuisances,
    save_nuisances,
    load_nuisances,
)
from .meta import (
    LEARNER_KINDS,
    CateModel,
    PseudoRows,
    VModel,
    pseudo_ipw,
    pseudo_dr,
    pseudo_ra,
    ivw_realized,
    build_pseudo_rows,
    fit_v_model,
    fit_meta,
    save_cate_model,
    load_cate_model,
)
from .verify import (
    SUITE_NAMES,
    CheckResult,
    SuiteReport,
    run_suite,
    format_report,
)
from .harness import (
    ExperimentConfig,
    ExperimentResult,
    ResultRow,
    default_sweep_config,
    config_to_text,
    parse_config_text,
    config_with_overrides,
    run_experiment,
    overlap_sweep,
    summarize,
    emit_results,
    emit_sweep,
    spearman,
)

__version__ = "0.1.0"
