import json

import pytest

from fringe_denoise.config import ConfigError, config_from_dict, load_config
from fringe_denoise.training import TrainConfig


class TestRunConfig:
    def test_minimal_document_materializes_defaults(self):
        cfg = config_from_dict({"seed": 42})
        resolved = cfg.resolved()
        assert resolved["seed"] == 42
        assert resolved["simulate"]["count"] == 8
        assert resolved["network"]["stages"] == 3
        assert resolved["network"]["filters"] == 64
        assert resolved["train"]["batch_size"] == 64
        assert resolved["train"]["learning_rate"] == 1e-3
        assert resolved["train"]["epochs"] == 35
        assert resolved["eval"]["every"] == 1

    def test_missing_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            config_from_dict({})

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="simulat "):
            config_from_dict({"seed": 1, "simulat ": {}})

    def test_unknown_nested_key_names_path(self):
        with pytest.raises(ConfigError, match="network.filtres"):
            config_from_dict({"seed": 1, "network": {"filtres": 32}})

    def test_section_values_propagate(self):
        cfg = config_from_dict(
            {
                "seed": 7,
                "network": {"stages": 2, "layers_per_stage": 4, "filters": 16},
                "train": {"batch_size": 32, "epochs": 3},
                "eval": {"every": 2},
            }
        )
        assert cfg.network.stages == 2
        tc = cfg.train_config()
        assert tc.batch_size == 32 and tc.epochs == 3
        assert tc.eval_every == 2 and tc.seed == 7

    def test_invalid_field_value_reported(self):
        with pytest.raises(ConfigError):
            config_from_dict({"seed": 1, "simulate": {"awgn_mode": "sometimes"}})
        with pytest.raises((ConfigError, ValueError)):
            config_from_dict({"seed": 1, "network": {"kernel": 4}})

    def test_train_checks_run_at_load(self):
        with pytest.raises(ConfigError, match="batch_size"):
            config_from_dict({"seed": 1, "train": {"batch_size": 1}})

    def test_dataset_section_is_unknown(self):
        # The dataset command's flags are its only configuration.
        with pytest.raises(ConfigError, match="unknown top-level key dataset"):
            config_from_dict({"seed": 1, "dataset": {"patch_size": 40}})

    def test_train_and_eval_keys_resolve_unchanged(self):
        cfg = config_from_dict({"seed": 3, "eval": {"max_patches": 7}})
        resolved = cfg.resolved()
        assert set(resolved) == {"seed", "simulate", "network", "train", "eval"}
        assert resolved["train"] == {
            "batch_size": 64, "learning_rate": 1e-3, "epochs": 35,
            "beta1": 0.9, "beta2": 0.999, "adam_eps": 1e-8,
        }
        assert resolved["eval"] == {"every": 1, "holdout_fraction": 0.1, "max_patches": 7}
        assert "stage_wiring" not in resolved["network"]
        assert cfg.train_config() == TrainConfig(seed=3, eval_max_patches=7)

    def test_seed_must_be_integer(self):
        with pytest.raises(ConfigError):
            config_from_dict({"seed": "42"})
        with pytest.raises(ConfigError):
            config_from_dict({"seed": True})

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"seed": 9, "simulate": {"count": 3}}))
        cfg = load_config(path)
        assert cfg.seed == 9 and cfg.simulate.count == 3

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(path)


class TestFieldChecks:
    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e400"])
    @pytest.mark.parametrize(
        "section, key",
        [
            ("simulate", "awgn_sigma"), ("simulate", "ar_sq"), ("simulate", "phi_r"),
            ("network", "alpha_first"), ("train", "learning_rate"), ("train", "beta2"),
            ("eval", "holdout_fraction"),
        ],
    )
    def test_non_finite_float_is_config_error(self, section, key, text):
        doc = json.loads(f'{{"seed": 1, "{section}": {{"{key}": {text}}}}}')
        with pytest.raises(ConfigError, match=f"{key} must be a finite number"):
            config_from_dict(doc)

    @pytest.mark.parametrize("text", ["[1, NaN]", "[Infinity, 2]", "[1, 1e400]"])
    def test_non_finite_range_end_is_config_error(self, text):
        doc = json.loads(f'{{"seed": 1, "simulate": {{"a0c_sq_range": {text}}}}}')
        with pytest.raises(ConfigError, match="a0c_sq_range must be a pair"):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "section, body, match",
        [
            ("simulate", {"count": True}, "count must be an integer"),
            ("simulate", {"ned_lambda_range": "ab"}, "ned_lambda_range must be a pair"),
            ("network", {"alpha_rest": None}, "alpha_rest must be a finite number"),
            ("eval", {"max_patches": "7"}, "max_patches must be an integer"),
        ],
    )
    def test_wrong_type_is_config_error_naming_the_field(self, section, body, match):
        with pytest.raises(ConfigError, match=match):
            config_from_dict({"seed": 1, section: body})

    @pytest.mark.parametrize(
        "body, match",
        [
            ({"width": 0}, "width and height"),
            ({"height": -3}, "width and height"),
            ({"min_terms": 0}, "min_terms"),
            ({"a0c_sq_range": [5, 0]}, "a0c_sq_range"),
            ({"ar_sq": 0}, "ar_sq"),
            ({"ned_lambda_range": [0, -1]}, "ned_lambda_range"),
            ({"a0c_sq_range": [150, 1]}, "a0c_sq_range"),
            ({"ned_lambda_range": [50, 0]}, "ned_lambda_range"),
            ({"awgn_sigma": -0.5}, "awgn_sigma"),
        ],
    )
    def test_out_of_range_simulate_value_is_config_error(self, body, match):
        with pytest.raises(ConfigError, match=match):
            config_from_dict({"seed": 1, "simulate": body})

    def test_range_edges_accepted(self):
        cfg = config_from_dict({"seed": 0, "simulate": {
            "width": 1, "height": 1, "min_terms": 1, "max_terms": 1,
            "a0c_sq_range": [1e-9, 1e-9], "ned_lambda_range": [0, 0], "awgn_sigma": 0,
        }})
        assert cfg.simulate.min_terms == cfg.simulate.max_terms == 1

    @pytest.mark.parametrize(
        "body",
        [{"learning_rate": 0}, {"beta1": 1.0}, {"beta1": -0.1}, {"beta2": 1}, {"adam_eps": 0}],
        ids=repr,
    )
    def test_adam_hyperparameter_out_of_range_is_config_error(self, body):
        # beta1 = 1 zeroes Adam's bias correction, which makes the weights NaN.
        with pytest.raises(ConfigError, match="Adam needs"):
            config_from_dict({"seed": 1, "train": body})

    @pytest.mark.parametrize(
        "body",
        [{"every": -1}, {"max_patches": -3}, {"holdout_fraction": 1.0},
         {"holdout_fraction": 1.5}, {"holdout_fraction": -0.1}],
        ids=repr,
    )
    def test_eval_setting_out_of_range_is_config_error(self, body):
        # A negative max_patches would slice the held-out set from its end.
        with pytest.raises(ConfigError, match="eval needs"):
            config_from_dict({"seed": 1, "eval": body})

    def test_eval_range_edges_accepted(self):
        cfg = config_from_dict(
            {"seed": 0, "eval": {"every": 0, "max_patches": 0, "holdout_fraction": 0.0}}
        )
        assert (cfg.train.eval_every, cfg.train.eval_max_patches) == (0, 0)
        assert TrainConfig(holdout_fraction=0.999).holdout_fraction == 0.999

    def test_negative_seed_is_config_error(self):
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            config_from_dict({"seed": -1})

