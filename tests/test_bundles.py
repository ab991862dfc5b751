"""Bundle format 2 and the format-1 bundles that still load.

``tests/data/format1`` holds bundles written in format 1 (see its
``make_fixtures.py``) with the predictions their writer made on
``test-panel.csv``.
"""

import dataclasses
import json
import pathlib
import re
import warnings

import numpy as np
import pytest

from tvcate.dgp import benchmark_pair, make_d1, simulate_panel
from tvcate.learners import (ClassifierSpec, FittedClassifier, FittedRegressor, RegressorSpec,
                             fit_classifier, fit_regressor, map_digest)
from tvcate.meta import (LEARNER_KINDS, cate_model_from_dict, cate_model_to_dict, fit_meta,
                         load_cate_model, save_cate_model)
from tvcate.nuisance import (build_row_table, fit_nuisances, load_nuisances, make_split,
                             nuisances_from_dict, nuisances_to_dict, oracle_nuisances,
                             save_nuisances)
from tvcate.panel import panel_from_csv

FORMAT1 = pathlib.Path(__file__).parent / "data" / "format1"
SPECS = dict(regressor_spec=RegressorSpec(feature_count=16),
             classifier_spec=ClassifierSpec(feature_count=8, l2=1e-2))
SECOND_STAGE = RegressorSpec(feature_count=16, ridge_lambda=1e-2)


def nuisance_predictions(ns, table):
    return {"mu": {arm: [ns.mu(arm, j, table).tolist() for j in range(ns.tau + 1)]
                   for arm in ("a", "b")},
            "pi": [ns.propensity(j, 1, table)[1].tolist() for j in range(ns.tau + 1)],
            "delta": {arm: ns.history_models[arm].predict(table.features(0)).tolist()
                      for arm in ("a", "b")}}


def param_keys(state):
    """The keys of every model's ``params`` anywhere in a JSON state."""
    if isinstance(state, list):
        return set().union(*map(param_keys, state))
    if not isinstance(state, dict):
        return set()
    own = set(state["params"]) if isinstance(state.get("params"), dict) else set()
    return own.union(*map(param_keys, state.values()))


def regressor_count(state):
    """Ridge or lookup regressors anywhere in a JSON state."""
    if isinstance(state, list):
        return sum(map(regressor_count, state))
    if not isinstance(state, dict):
        return 0
    own = "ridge_lambda" in state.get("spec", {})
    return own + sum(map(regressor_count, state.values()))


@pytest.fixture(scope="module")
def fitted():
    dgp = dataclasses.replace(make_d1(), horizon=3)
    train = simulate_panel(dgp, 120, seed=51)
    test = simulate_panel(dgp, 30, seed=52)
    pair = benchmark_pair(1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ns = fit_nuisances(train, pair, **SPECS)
        models = {kind: fit_meta(kind, train, pair, ns, SECOND_STAGE) for kind in LEARNER_KINDS}
    return train, test, pair, ns, models


class TestFormat1Fixtures:
    @pytest.fixture(scope="class")
    def expected(self):
        with open(FORMAT1 / "predictions.json") as fh:
            return json.load(fh)

    @pytest.fixture(scope="class")
    def test_panel(self):
        return panel_from_csv(FORMAT1 / "test-panel.csv")

    @pytest.mark.parametrize("name", ["nuisances-nosplit", "nuisances-split"])
    def test_nuisance_bundle_predicts_as_written(self, name, expected, test_panel):
        ns = load_nuisances(FORMAT1 / f"{name}.json")
        assert ns.split.enabled == (name == "nuisances-split")
        table = build_row_table(test_panel, 1, ns.codec)
        assert nuisance_predictions(ns, table) == expected[name]

    @pytest.mark.parametrize("kind", LEARNER_KINDS)
    def test_model_bundle_predicts_as_written(self, kind, expected, test_panel):
        model = load_cate_model(FORMAT1 / f"model-{kind}.json")
        feats = build_row_table(test_panel, 1, model.codec).features(0)
        assert model.predict(feats).tolist() == expected[f"model-{kind}"]

    def test_resaved_as_format_2_predicts_as_written(self, expected, test_panel, tmp_path):
        for kind in ("PI-HA", "IVW-DR"):
            save_cate_model(load_cate_model(FORMAT1 / f"model-{kind}.json"), tmp_path / "m.json")
            model = load_cate_model(tmp_path / "m.json")
            feats = build_row_table(test_panel, 1, model.codec).features(0)
            assert model.predict(feats).tolist() == expected[f"model-{kind}"]

    def test_truncated_map_raises_naming_the_model(self):
        state = json.loads((FORMAT1 / "nuisances-nosplit.json").read_text())
        state["response_models"]["b"][1]["params"]["W"].pop()
        with pytest.raises(ValueError, match=r"response_models\.b\[1\]: params\.W"):
            nuisances_from_dict(state)
        state = json.loads((FORMAT1 / "model-PI-RA.json").read_text())
        state["nuisances"]["response_models"]["a"][0]["params"]["b"].pop()
        with pytest.raises(ValueError, match=r"nuisances\.response_models\.a\[0\]: params\.b"):
            cate_model_from_dict(state)

    def test_plug_in_without_its_models_raises(self):
        state = json.loads((FORMAT1 / "model-PI-HA.json").read_text())
        state["nuisances"]["history_models"] = None
        with pytest.raises(ValueError, match="kind 'PI-HA' needs nuisances for arms"):
            cate_model_from_dict(state)


class TestFormat2:
    @pytest.mark.parametrize("kind", LEARNER_KINDS)
    def test_learner_round_trips_with_equal_bits(self, kind, fitted, tmp_path):
        _, test, _, ns, models = fitted
        path = tmp_path / f"model-{kind}.json"
        save_cate_model(models[kind], path)
        loaded = load_cate_model(path)
        feats = build_row_table(test, 1, ns.codec).features(0)
        assert np.array_equal(loaded.predict(feats), models[kind].predict(feats))
        assert loaded.diagnostics == json.loads(json.dumps(models[kind].diagnostics))

    @pytest.mark.parametrize("enabled", [False, True])
    def test_nuisances_round_trip_with_equal_bits(self, enabled, fitted, tmp_path):
        train, test, pair, ns, _ = fitted
        if enabled:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                ns = fit_nuisances(train, pair, split=make_split(train, 1, True, seed=3),
                                   **SPECS)
        save_nuisances(ns, tmp_path / "ns.json")
        back = load_nuisances(tmp_path / "ns.json")
        table = build_row_table(test, 1, ns.codec)
        assert nuisance_predictions(back, table) == nuisance_predictions(ns, table)
        assert back.split.enabled == enabled
        assert back.split.folds.keys() == ns.split.folds.keys()
        for name in ns.split.folds:
            assert np.array_equal(back.split.fold(name), ns.split.fold(name))

    def test_disabled_split_is_written_as_its_trajectory_count(self, fitted):
        train, _, _, ns, _ = fitted
        assert nuisances_to_dict(ns)["split"] == {"enabled": False, "tau": 1,
                                                  "trajectories": train.n}

    def test_no_bundle_holds_a_map(self, fitted):
        _, _, _, ns, models = fitted
        states = [nuisances_to_dict(ns)] + [cate_model_to_dict(m) for m in models.values()]
        for state in states:
            keys = param_keys(json.loads(json.dumps(state)))
            assert "beta" in keys and not {"W", "b"} & keys
        assert "map_sha256" in states[0]["propensity_model"]["params"]

    @pytest.mark.parametrize("kind", ["PI-RA", "PI-HA"])
    def test_plug_in_bundle_holds_two_regressors(self, kind, fitted):
        state = cate_model_to_dict(fitted[4][kind])
        assert regressor_count(state) == 2
        assert state["arm_models"].keys() == {"a", "b"}
        assert state["second_stage"] is None and "nuisances" not in state

    def test_tampered_digest_raises_naming_the_model(self, fitted):
        _, _, _, ns, models = fitted
        state = nuisances_to_dict(ns)
        state["response_models"]["a"][1]["params"]["map_sha256"] = "0" * 64
        with pytest.raises(ValueError, match=r"response_models\.a\[1\]: the cosine map"):
            nuisances_from_dict(state)
        state = nuisances_to_dict(ns)
        state["propensity_model"]["params"]["map_sha256"] = "0" * 64
        with pytest.raises(ValueError, match="propensity_model: the cosine map"):
            nuisances_from_dict(state)
        state = cate_model_to_dict(models["PI-HA"])
        state["arm_models"]["b"]["spec"]["seed"] = 1
        with pytest.raises(ValueError, match=r"arm_models\.b: the cosine map"):
            cate_model_from_dict(state)
        state = cate_model_to_dict(models["IVW-DR"])
        state["v_model"]["model"]["params"]["map_sha256"] = "0" * 64
        with pytest.raises(ValueError, match=r"v_model\.model: the cosine map"):
            cate_model_from_dict(state)

    def test_stripped_version_raises_value_error(self, fitted):
        _, _, _, ns, models = fitted
        for state, load in ((nuisances_to_dict(ns), nuisances_from_dict),
                            (cate_model_to_dict(models["DR"]), cate_model_from_dict),
                            (cate_model_to_dict(models["PI-RA"]), cate_model_from_dict)):
            del state["format_version"]
            with pytest.raises(ValueError):
                load(state)


class TestLoadChecks:
    def test_missing_param_names_model_and_field(self, fitted):
        state = nuisances_to_dict(fitted[3])
        del state["history_models"]["b"]["params"]["beta"]
        with pytest.raises(ValueError, match="history_models.b: params lacks the required "
                                             "key 'beta'"):
            nuisances_from_dict(state)
        state = cate_model_to_dict(fitted[4]["DR"])
        del state["second_stage"]["in_dim"]
        with pytest.raises(ValueError, match="second_stage lacks the required key 'in_dim'"):
            cate_model_from_dict(state)

    def test_shapes_must_match_in_dim_and_feature_count(self, fitted):
        state = nuisances_to_dict(fitted[3])
        state["response_models"]["a"][0]["params"]["phi_mean"].pop()
        with pytest.raises(ValueError, match=r"response_models\.a\[0\]: params\.phi_mean "
                                             r"is not an array of shape \(16,\)"):
            nuisances_from_dict(state)
        state = nuisances_to_dict(fitted[3])
        state["propensity_model"]["params"]["theta"].pop()
        with pytest.raises(ValueError, match=r"propensity_model: params\.theta"):
            nuisances_from_dict(state)

    def test_each_arm_needs_tau_plus_one_levels(self, fitted):
        state = nuisances_to_dict(fitted[3])
        state["response_models"]["a"] = state["response_models"]["a"][:1]
        with pytest.raises(ValueError, match="response_models.a: 1 levels, tau 1 needs 2"):
            nuisances_from_dict(state)

    def test_split_keys_are_checked(self, fitted):
        state = nuisances_to_dict(fitted[3])
        del state["split"]["trajectories"]
        with pytest.raises(ValueError, match="split lacks the required key 'trajectories'"):
            nuisances_from_dict(state)

    @pytest.mark.parametrize("edit,field", [
        pytest.param(lambda s: s.update(tau=2.5), "tau", id="tau 2.5"),
        pytest.param(lambda s: s.update(tau="3"), "tau", id="tau '3'"),
        pytest.param(lambda s: s.update(tau=0), "tau", id="tau 0"),
        pytest.param(lambda s: s.update(tau=2), "tau", id="tau 2"),
        pytest.param(lambda s: s.update(enabled="no"), "enabled", id="enabled 'no'"),
        pytest.param(lambda s: s.update(enabled=1), "enabled", id="enabled 1"),
        pytest.param(lambda s: s.update(trajectories=-1), "trajectories", id="trajectories -1"),
        pytest.param(lambda s: s.update(trajectories=2.5), "trajectories",
                     id="trajectories 2.5"),
        pytest.param(lambda s: s.update(trajectories=None), "trajectories",
                     id="trajectories None"),
    ])
    def test_split_of_another_kind_names_the_field(self, edit, field, fitted):
        # a d1 tau = 1 bundle whose split once loaded as tau 2, 3 or 0, or
        # read "no" as enabled and failed on the missing folds
        state = json.loads(json.dumps(nuisances_to_dict(fitted[3])))
        edit(state["split"])
        with pytest.raises(ValueError, match=rf"^nuisance bundle: split\.{field} "):
            nuisances_from_dict(state)

    def test_pair_must_match_tau(self, fitted):
        state = nuisances_to_dict(fitted[3])
        state["pair"] = {"a_seq": [1], "b_seq": [0]}
        with pytest.raises(ValueError, match="pair has 1 levels per arm, tau 1 needs 2"):
            nuisances_from_dict(state)

    @pytest.mark.parametrize("bundle", ["nuisance", "model"])
    @pytest.mark.parametrize("edit,field", [
        pytest.param(lambda s: s["pair"].pop("b_seq"), "pair", id="no b_seq"),
        pytest.param(lambda s: s.update(pair=5), "pair", id="pair 5"),
        pytest.param(lambda s: s["pair"].update(a_seq=None), "pair.a_seq", id="a_seq None"),
        pytest.param(lambda s: s["pair"].update(a_seq="x"), "pair.a_seq", id="a_seq x"),
        pytest.param(lambda s: s["pair"].update(b_seq=[1, 2.5]), "pair.b_seq", id="arm 2.5"),
        pytest.param(lambda s: s["pair"].update(b_seq=[1, -1]), "pair.b_seq", id="arm -1"),
        pytest.param(lambda s: s["pair"].update(b_seq=[True, 0]), "pair.b_seq", id="arm True"),
        pytest.param(lambda s: s.update(tau=[1, 2]), "tau", id="tau [1, 2]"),
        pytest.param(lambda s: s.update(tau=None), "tau", id="tau None"),
        pytest.param(lambda s: s.update(tau=2.5), "tau", id="tau 2.5"),
        pytest.param(lambda s: s.update(tau=True), "tau", id="tau True"),
    ])
    def test_pair_and_tau_of_another_kind_name_the_field(self, bundle, edit, field, fitted):
        # a d1 tau = 1 bundle; each edit once raised KeyError or TypeError,
        # or truncated tau 2.5 to 2 and blamed the level count
        if bundle == "nuisance":
            state, load = nuisances_to_dict(fitted[3]), nuisances_from_dict
        else:
            state, load = cate_model_to_dict(fitted[4]["DR"]), cate_model_from_dict
        state = json.loads(json.dumps(state))
        edit(state)
        with pytest.raises(ValueError, match=rf"^{bundle} bundle: {re.escape(field)} "):
            load(state)

    @pytest.mark.parametrize("field,value", [
        ("max_len", float("nan")), ("max_len", 0), ("max_len", 3.0), ("cov_dim", [1, 2]),
        ("cov_dim", True), ("treatment_arity", "x"), ("treatment_arity", 0),
        ("include_time_index", 1), ("include_time_index", None), ("time_scale", float("nan")),
        ("time_scale", float("inf")), ("time_scale", "1"), ("time_scale", True),
        (None, 3), (None, None), (None, [3, 1]),
    ])
    def test_a_bad_codec_is_refused_naming_the_field(self, field, value, fitted):
        # a d1 tau = 1 bundle; a codec of 3 raised TypeError, and max_len NaN,
        # cov_dim [1, 2] and treatment_arity "x" loaded
        codec = fitted[3].codec
        if field is not None:
            with pytest.raises(ValueError, match=f"^{field} must be"):
                dataclasses.replace(codec, **{field: value})
        for what, state, load in (("nuisance", nuisances_to_dict(fitted[3]), nuisances_from_dict),
                                  ("model", cate_model_to_dict(fitted[4]["DR"]),
                                   cate_model_from_dict)):
            state = json.loads(json.dumps(state))
            if field is None:
                state["codec"] = value
            else:
                state["codec"][field] = value
            match = f"codec: {field} must be" if field else "codec must be a JSON object$"
            with pytest.raises(ValueError, match=f"^{what} bundle: {match}"):
                load(state)

    @pytest.mark.parametrize("source,edit,match", [
        ("PI-RA", lambda s: s.update(kind="XYZ"), "kind 'XYZ'; choose from"),
        ("DR", lambda s: s.update(kind="PI-RA"), "kind 'PI-RA' needs arm_models"),
        ("PI-HA", lambda s: s["arm_models"].pop("b"), "kind 'PI-HA' needs arm_models"),
        ("PI-RA", lambda s: s.update(kind="DR"), "kind 'DR' needs second_stage"),
        ("DR", lambda s: s.update(kind="IVW-DR"), "kind 'IVW-DR' needs v_model"),
        ("DR", lambda s: s.update(tau=0), "pair has 2 levels per arm, tau 0 needs 1"),
    ])
    def test_kind_must_hold_its_models(self, source, edit, match, fitted, tmp_path):
        state = cate_model_to_dict(fitted[4][source])
        edit(state)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(state))
        with pytest.raises(ValueError, match=match):
            load_cate_model(path)


class TestCrossFieldChecks:
    """A bundle's pair holds arms of its codec and every model it loads reads
    the codec's width; each refusal names the field or the model."""

    @staticmethod
    def state(bundle, fitted):
        """A d1 tau = 1 bundle's JSON state and its loader."""
        if bundle in LEARNER_KINDS:
            return json_round(cate_model_to_dict(fitted[4][bundle])), cate_model_from_dict
        ns = fitted[3] if bundle == "nuisance" else oracle_nuisances(make_d1(), benchmark_pair(1))
        return json_round(nuisances_to_dict(ns)), nuisances_from_dict

    @pytest.mark.parametrize("bundle", ["nuisance", "oracle", "DR"])
    @pytest.mark.parametrize("key", ["a_seq", "b_seq"])
    def test_a_pair_arm_past_the_codec_arity_names_the_sequence(self, bundle, key, fitted):
        # an oracle bundle whose a_seq was [0, 5] loaded and answered P(A = 0) for arm 5
        state, load = self.state(bundle, fitted)
        state["pair"][key][1] = 5
        what = "model" if bundle == "DR" else "nuisance"
        with pytest.raises(ValueError, match=rf"^{what} bundle: pair\.{key}: arm 5 >= "
                                             r"treatment_arity 2$"):
            load(state)

    def test_an_oracle_bundle_of_more_arms_is_refused_by_its_set(self, fitted):
        state, load = self.state("oracle", fitted)
        state["codec"]["treatment_arity"] = 6
        state["pair"]["a_seq"] = [0, 5]
        with pytest.raises(ValueError, match=r"^a_seq\[1\] is arm 5: oracle and injected "):
            load(state)

    @pytest.mark.parametrize("field,value", [("max_len", 5), ("cov_dim", 2),
                                             ("treatment_arity", 3),
                                             ("include_time_index", False)])
    @pytest.mark.parametrize("bundle,first", [("nuisance", "response_models.a[0]"),
                                              ("PI-HA", "arm_models.a"), ("DR", "second_stage"),
                                              ("IVW-DR", "second_stage")])
    def test_a_codec_of_another_width_names_the_first_model(self, bundle, first, field, value,
                                                            fitted):
        # a DR bundle whose max_len went from 3 to 5 loaded, and only predict
        # failed, naming neither the bundle nor the codec
        state, load = self.state(bundle, fitted)
        state["codec"][field] = value
        with pytest.raises(ValueError, match=rf"^{re.escape(first)}: in_dim 11 is not the "
                                             rf"width \d+ of FeatureCodec\(.*{field}={value}"):
            load(state)

    @pytest.mark.parametrize("bundle,path,name", [
        ("nuisance", ("response_models", "b", 1), "response_models.b[1]"),
        ("nuisance", ("propensity_model",), "propensity_model"),
        ("nuisance", ("history_models", "b"), "history_models.b"),
        ("PI-RA", ("arm_models", "b"), "arm_models.b"), ("DR", ("second_stage",), "second_stage"),
        ("IVW-DR", ("v_model", "model"), "v_model.model")])
    def test_a_model_of_another_width_is_named(self, bundle, path, name, fitted):
        state, load = self.state(bundle, fitted)
        node = state
        for key in path:
            node = node[key]
        node["in_dim"] = 12
        with pytest.raises(ValueError, match=rf"^{re.escape(name)}: in_dim 12 is not the width "
                                             r"11 of FeatureCodec\(max_len=3, cov_dim=1, "
                                             r"treatment_arity=2, .*include_time_index=True"):
            load(state)


class TestUnmappedModels:
    def test_plain_classifier_and_lookup_regressor_keep_their_params(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(80, 2))
        labels = (X[:, 0] > 0).astype(int)
        clf = fit_classifier(ClassifierSpec(use_random_features=False, l2=1e-2), X, labels)
        assert clf.to_dict()["params"].keys() == {"theta", "l2_used"}
        back = FittedClassifier.from_dict(clf.to_dict())
        assert np.array_equal(back.predict_proba(X), clf.predict_proba(X))
        cells = rng.integers(0, 3, size=(40, 2)).astype(float)
        table = fit_regressor(RegressorSpec(kind="lookup-table"), cells, rng.normal(size=40))
        assert table.to_dict()["params"].keys() == {"keys", "values", "default"}
        assert np.array_equal(FittedRegressor.from_dict(table.to_dict()).predict(cells),
                              table.predict(cells))

    def test_oracle_bundle_round_trips(self):
        ns = oracle_nuisances(make_d1(), benchmark_pair(1))
        state = nuisances_to_dict(ns)
        assert state["split"] == {"enabled": False, "tau": 1, "trajectories": 0}
        back = nuisances_from_dict(json.loads(json.dumps(state)))
        assert back.oracle_mode and back.split.fold("po").size == 0


#: the single mutations of a key or list element: "delete" removes the key
#: or drops the element, any other value replaces it
MUTATIONS = ("delete", None, float("nan"), 3, "x", [], {}, True)
#: fields a loader reads and ignores by design, so a mutation may load
#: without round-tripping: ``weights_mode`` is always "estimated" (every
#: model is fitted with estimated weights), format 1's kNN "k" and
#: ``oracle_history_mc`` are shims for bundles of removed features, and
#: ``diagnostics`` is a record of the fit that predictions never read
IGNORED = ("weights_mode", "k", "oracle_history_mc")


def json_round(state):
    return json.loads(json.dumps(state))


def mutation_paths(state, rng, path=()):
    """Every key path of a JSON state and two seeded elements of each list
    (lists of numbers hold most paths and share one reader), with a parent
    before its children."""
    items = (state.items() if isinstance(state, dict) else
             [(i, state[i]) for i in sorted(set(rng.integers(0, len(state), 2).tolist()))]
             if isinstance(state, list) and state else ())
    for key, value in items:
        yield path + (key,)
        yield from mutation_paths(value, rng, path + (key,))


def exempt(path) -> bool:
    return bool(set(path) & set(IGNORED)) or (path[0] == "diagnostics" and len(path) > 1)


def mutated(state, path, kind):
    """``state`` with one mutation at ``path``; objects off the path are shared."""
    key, copy = path[0], dict(state) if isinstance(state, dict) else list(state)
    if len(path) > 1:
        copy[key] = mutated(state[key], path[1:], kind)
    elif kind == "delete":
        del copy[key]
    else:
        copy[key] = json_round(kind)
    return copy


def format2_of(state):
    """The format-2 bundle of a format-1 one's models, built apart from the
    loaders: a cosine map's W and b become their digest, a disabled split
    its trajectory count, and a plug-in model keeps the two models its kind
    predicts from."""
    def maps(node):
        if isinstance(node, list):
            return [maps(child) for child in node]
        if not isinstance(node, dict):
            return node
        node = {key: maps(child) for key, child in node.items()}
        params = node.get("params")
        if isinstance(params, dict) and "W" in params:
            params["map_sha256"] = map_digest(np.array(params.pop("W")),
                                              np.array(params.pop("b")))
        return node
    state = dict(state)
    if "nuisances" in state:
        held = state.pop("nuisances")
        state["arm_models"] = (None if held is None else held["history_models"]
                               if state["kind"] == "PI-HA" else
                               {arm: levels[0] for arm, levels in held["response_models"].items()})
    state = maps(state)
    if "split" in state and not state["split"]["enabled"]:
        state["split"] = {"enabled": False, "tau": state["split"]["tau"],
                          "trajectories": len(state["split"]["folds"]["po"])}
    state["format_version"] = 2
    return state


class TestSeededMutations:
    """Single seeded mutations at every path of a bundle: each load raises
    ValueError naming the mutated key (the last key of its path), or loads
    an object whose ``to_dict`` is the mutated state after a JSON round trip
    (for a format-1 bundle, the state's :func:`format2_of`).  Two elements
    of each list and four seeded mutation kinds at each path keep the test
    to a few seconds."""

    @staticmethod
    def check(state, load, dump, seed, upgrade=lambda s: s):
        state = json_round(state)
        assert json_round(dump(load(state))) == upgrade(state)
        rng = np.random.default_rng(seed)
        escapes = []
        for path in list(mutation_paths(state, rng)):
            if exempt(path):
                continue
            key = next(k for k in reversed(path) if isinstance(k, str))
            for pick in rng.choice(len(MUTATIONS), 4, replace=False):
                kind = MUTATIONS[pick]
                changed = mutated(state, path, kind)
                try:
                    back = json_round(dump(load(changed)))
                except ValueError as exc:
                    if key not in str(exc):
                        escapes.append((path, kind, f"ValueError: {exc}"))
                    continue
                except Exception as exc:      # any other error is an escape
                    escapes.append((path, kind, f"{type(exc).__name__}: {exc}"))
                    continue
                if back != upgrade(changed):
                    escapes.append((path, kind, "loaded another state"))
        assert not escapes, "\n".join(map(str, escapes[:10]))

    @pytest.mark.parametrize("mode", ["fitted", "oracle"])
    def test_nuisance_bundle(self, mode, fitted):
        ns = fitted[3] if mode == "fitted" else oracle_nuisances(make_d1(), benchmark_pair(1))
        self.check(nuisances_to_dict(ns), nuisances_from_dict, nuisances_to_dict, 11)

    @pytest.mark.parametrize("kind", LEARNER_KINDS)
    def test_model_bundle(self, kind, fitted):
        self.check(cate_model_to_dict(fitted[4][kind]), cate_model_from_dict,
                   cate_model_to_dict, 12)

    @pytest.mark.parametrize("name", ["nuisances-nosplit", "nuisances-split"] +
                             [f"model-{kind}" for kind in LEARNER_KINDS])
    def test_format1_fixture(self, name):
        state = json.loads((FORMAT1 / f"{name}.json").read_text())
        load, dump = ((nuisances_from_dict, nuisances_to_dict) if name.startswith("nuisances")
                      else (cate_model_from_dict, cate_model_to_dict))
        self.check(state, load, dump, 13, format2_of)

    @pytest.mark.parametrize("kind", ["lookup", "plain-classifier"])
    def test_unmapped_model(self, kind):
        rng = np.random.default_rng(4)
        cells = rng.integers(0, 3, size=(40, 2)).astype(float)
        model = (fit_regressor(RegressorSpec(kind="lookup-table"), cells, rng.normal(size=40))
                 if kind == "lookup" else
                 fit_classifier(ClassifierSpec(use_random_features=False, l2=1e-2), cells,
                                cells[:, 0] > 0))
        self.check(model.to_dict(), type(model).from_dict, type(model).to_dict, 14)
