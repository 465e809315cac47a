import pytest

from marginnet.config import (
    ConfigError,
    default_config,
    head_spec_from_config,
    parse_config,
    parse_config_text,
)


class TestParsing:
    def test_typed_values_and_sources(self):
        cfg = parse_config_text(
            """
            # a comment line
            head = l2svm
            svm_c = 0.05
            hidden_dims = 64, 32
            standardize = true
            epochs = 3
            """
        )
        assert cfg.head == "l2svm"
        assert cfg.svm_c == 0.05
        assert cfg.hidden_dims == [64, 32]
        assert cfg.standardize is True
        assert cfg.sources["head"] == "config"
        assert cfg.sources["momentum"] == "default"

    def test_unknown_key_is_a_hard_error_with_location(self):
        with pytest.raises(ConfigError) as exc:
            parse_config_text("epochz = 3\n", origin="run.cfg")
        msg = str(exc.value)
        assert "epochz" in msg
        assert "run.cfg" in msg
        assert "1" in msg  # line number

    def test_bad_value_names_key_and_text(self):
        with pytest.raises(ConfigError) as exc:
            parse_config_text("epochs = soon\n")
        assert "epochs" in str(exc.value)
        assert "soon" in str(exc.value)

    def test_choices_enforced(self):
        with pytest.raises(ConfigError):
            parse_config_text("head = hinge3\n")
        with pytest.raises(ConfigError):
            parse_config_text("dataset = imagenet\n")

    def test_epochs_zero_allowed_negative_rejected(self):
        assert parse_config_text("epochs = 0\n").epochs == 0
        with pytest.raises(ConfigError):
            parse_config_text("epochs = -1\n")

    @pytest.mark.parametrize("key", ["init_std", "noise_start", "noise_end",
                                     "lower_weight_decay", "train_subset",
                                     "lr_start", "lr_end", "weight_decay",
                                     "max_jitter", "momentum", "conv_dropout"])
    def test_negative_value_rejected_at_parse_time(self, key):
        assert getattr(parse_config_text(f"{key} = 0\n"), key) == 0
        with pytest.raises(ConfigError) as exc:
            parse_config_text(f"{key} = -1\n", origin="run.cfg")
        assert key in str(exc.value)
        assert "run.cfg" in str(exc.value)

    @pytest.mark.parametrize("key", ["init_std", "noise_start", "noise_end",
                                     "lower_weight_decay", "lr_start", "lr_end",
                                     "weight_decay", "svm_c", "blobs_separation",
                                     "momentum", "conv_dropout"])
    def test_nan_rejected_at_parse_time(self, key):
        with pytest.raises(ConfigError):
            parse_config_text(f"{key} = nan\n")

    @pytest.mark.parametrize("key", ["weight_decay", "svm_c", "blobs_separation",
                                     "init_std", "noise_start", "noise_end",
                                     "lower_weight_decay", "lr_start", "lr_end",
                                     "momentum", "conv_dropout"])
    def test_infinite_value_rejected_at_parse_time(self, key):
        with pytest.raises(ConfigError) as exc:
            parse_config_text(f"{key} = inf\n")
        assert key in str(exc.value)

    @pytest.mark.parametrize("key", ["momentum", "conv_dropout"])
    def test_rate_of_one_rejected_at_parse_time(self, key):
        assert getattr(parse_config_text(f"{key} = 0.99\n"), key) == 0.99
        with pytest.raises(ConfigError) as exc:
            parse_config_text(f"{key} = 1.0\n")
        assert key in str(exc.value)

    @pytest.mark.parametrize("head", ["softmax", "l1svm", "l2svm"])
    @pytest.mark.parametrize("key", ["svm_c", "blobs_separation"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_positive_constants_checked_for_every_head(self, head, key, value):
        with pytest.raises(ConfigError) as exc:
            parse_config_text(f"head = {head}\n{key} = {value}\n")
        assert key in str(exc.value)

    @pytest.mark.parametrize("head", ["softmax", "l1svm", "l2svm"])
    def test_weight_decay_checked_for_every_head(self, head):
        assert parse_config_text(f"head = {head}\nweight_decay = 0\n").weight_decay == 0
        with pytest.raises(ConfigError):
            parse_config_text(f"head = {head}\nweight_decay = -1\n")

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 9\nbatch_size = 16\n")
        cfg = parse_config(str(path))
        assert cfg.seed == 9
        assert cfg.batch_size == 16

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(str(tmp_path / "nope.cfg"))


class TestEcho:
    def test_distinguishes_recipe_defaults_from_artifact_defaults(self):
        echo = default_config().echo()
        # values the published recipe pins
        assert echo["lr_start"]["default_origin"] == "recipe"
        assert echo["weight_decay"]["default_origin"] == "recipe"
        assert echo["batch_size"]["default_origin"] == "recipe"
        # implementation choices the recipe is silent on
        assert echo["momentum"]["default_origin"] == "artifact"
        assert echo["init_std"]["default_origin"] == "artifact"
        assert echo["max_jitter"]["default_origin"] == "artifact"

    def test_override_marks_cli_source(self):
        cfg = parse_config_text("epochs = 2\n")
        cfg.override("seed", 42)
        echo = cfg.echo()
        assert echo["seed"] == {
            "value": 42, "source": "cli", "default_origin": "artifact",
        }
        assert echo["epochs"]["source"] == "config"

    def test_override_rejects_unknown_key(self):
        with pytest.raises(ConfigError):
            default_config().override("learning_rate", 0.1)

    def test_every_schema_key_appears(self):
        cfg = default_config()
        echo = cfg.echo()
        assert set(echo) == set(cfg.values)


class TestHeadSpec:
    def test_softmax_uses_weight_decay(self):
        cfg = parse_config_text("head = softmax\nweight_decay = 0.01\n")
        spec = head_spec_from_config(cfg)
        assert spec.kind == "softmax"
        assert spec.weight_decay == 0.01

    def test_svm_uses_c(self):
        cfg = parse_config_text(
            "head = l1svm\nsvm_c = 0.5\nblobs_classes = 3\n"
        )
        spec = head_spec_from_config(cfg)
        assert spec.kind == "l1svm"
        assert spec.c == 0.5
