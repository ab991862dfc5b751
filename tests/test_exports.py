"""Every public name the package advertises resolves, so deleting a
function cannot leave a stale export behind, and the package-level names
are pinned, so adding or dropping one is a reviewed edit.  So are the
parameters of the fit functions, the one module that tells regressor kinds
apart, the one module that names the plug-in learners, the one process
pool and the one module of thread and block runners."""

import ast
import importlib
import inspect
import pathlib
import pkgutil

import pytest

import tvcate

MODULES = sorted(info.name for info in pkgutil.iter_modules(tvcate.__path__))

#: the 71 public names ``import tvcate`` provides, sorted
PACKAGE_NAMES = [
    "CateModel", "ChainResponseForm", "CheckResult", "ClassifierSpec",
    "DiscreteDGP", "ExperimentConfig", "ExperimentResult", "FeatureCodec",
    "FittedClassifier", "FittedRegressor", "HistoryView", "InterventionPair",
    "LEARNER_KINDS", "NuisanceSet", "Panel", "PseudoRows", "RegressorSpec",
    "ResultRow", "RowTable", "SUITE_NAMES", "SplitPlan", "StructuralDGP",
    "SuiteReport", "Trajectory", "VModel", "benchmark_pair", "build_pseudo_rows",
    "build_row_table", "config_to_text", "config_with_overrides", "default_codec",
    "default_sweep_config", "emit_results", "emit_sweep", "encode_block",
    "encode_history", "fit_classifier", "fit_history_adjustment", "fit_meta",
    "fit_nuisances", "fit_propensities", "fit_regressor", "fit_response_iterative",
    "fit_v_model", "format_report", "get_dgp", "ivw_realized", "load_cate_model",
    "load_nuisances", "make_d1", "make_d2", "make_d3", "make_linear_chain",
    "make_mini_discrete", "make_split", "oracle_nuisances", "overlap_sweep",
    "panel_from_arrays", "panel_from_csv", "panel_to_csv", "parse_config_text",
    "pseudo_dr", "pseudo_ipw", "pseudo_ra", "run_experiment", "run_suite",
    "save_cate_model", "save_nuisances", "simulate_panel", "spearman", "summarize",
]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"tvcate.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_package_imports_resolve():
    tree = ast.parse(pathlib.Path(tvcate.__file__).read_text())
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imported
    for module, attr in imported:
        source = importlib.import_module(f"tvcate.{module}")
        assert hasattr(source, attr) and getattr(tvcate, attr) is getattr(source, attr)


def test_package_names_are_pinned():
    names = sorted(name for name in vars(tvcate) if not name.startswith("_")
                   and not inspect.ismodule(getattr(tvcate, name)))
    assert names == PACKAGE_NAMES


#: the parameter names of the fit functions, in order
FIT_PARAMETERS = {
    "fit_regressor": ["spec", "features", "target", "weight"],
    "fit_nuisances": ["panel", "pair", "regressor_spec", "classifier_spec", "split",
                      "clip_eps", "need", "propensity_model", "propensities",
                      "response_map"],
    "fit_propensities": ["panel", "spec", "split"],
    "fit_response_iterative": ["panel", "a_seq", "tau", "spec", "split", "table"],
    "fit_history_adjustment": ["panel", "pair", "tau", "spec", "split"],
    "fit_meta": ["kind", "panel", "pair", "nuisances", "second_stage_spec", "positions"],
}


@pytest.mark.parametrize("name", sorted(FIT_PARAMETERS))
def test_fit_parameters_are_pinned(name):
    assert list(inspect.signature(getattr(tvcate, name)).parameters) == FIT_PARAMETERS[name]


def test_only_learners_names_the_regressor_kinds():
    # every other module fits and predicts through row maps, whatever the kind
    kinds = ("ridge-random-features", "lookup-table")
    src = pathlib.Path(tvcate.__file__).parent
    naming = sorted(path.name for path in src.glob("*.py")
                    if any(kind in path.read_text() for kind in kinds))
    assert naming == ["learners.py"]


def test_only_meta_names_the_plug_in_kinds():
    # every other module reads meta.PLUG_IN_KINDS and meta.LEARNER_NUISANCES
    src = pathlib.Path(tvcate.__file__).parent
    naming = sorted(path.name for path in src.glob("*.py")
                    if any(kind in path.read_text() for kind in ("PI-HA", "PI-RA")))
    assert naming == ["meta.py"]


def test_runs_and_sweeps_share_one_process_pool():
    src = pathlib.Path(tvcate.__file__).parent
    pools = sum(path.read_text().count("ProcessPoolExecutor(") for path in src.glob("*.py"))
    assert pools == 1


def test_block_runners_live_in_one_module():
    # threads start in tvcate._blocks alone, and no module takes a runner
    # from tvcate.learners, so the lowest layers do not reach up into it
    src = pathlib.Path(tvcate.__file__).parent
    starts = {path.name: path.read_text().count("threading.Thread(") for path in src.glob("*.py")}
    assert {name: count for name, count in starts.items() if count} == {"_blocks.py": 1}
    blocks = importlib.import_module("tvcate._blocks")
    runners = {name for name in vars(blocks) if name.startswith("_") and not name.startswith("__")}
    assert {"_run_spans", "_table_blocks", "_block_pass", "_usable_cpus"} <= runners
    for path in src.glob("*.py"):
        imports = [(node.module, alias.name) for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.ImportFrom) for alias in node.names]
        taken = {name for module, name in imports if module == "learners"}
        assert taken & runners == set(), path.name
        if path.name == "panel.py":
            assert taken == set() and (None, "learners") not in imports
