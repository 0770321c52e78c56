"""Config system: defaults, flat-file parsing, overrides, validation."""

import numpy as np
import pytest

from dctm.config import (
    ConvConfig,
    DataConfig,
    DctmConfig,
    FusionConfig,
    OptimConfig,
    from_flat,
    read_config_file,
    resolve_config,
    to_flat,
)
from dctm.errors import ConfigError
from dctm.transformer import TransformerSettings


class TestDefaults:
    def test_architecture_defaults(self):
        cfg = DctmConfig()
        assert cfg.conv.kind == "dilated"
        assert cfg.conv.kernels == (5, 5, 3)
        assert cfg.conv.dilations == (4, 4, 4)
        assert cfg.conv.channels == 64
        assert cfg.fusion.kind == "sa"
        assert cfg.transformer.hidden == 128
        assert cfg.transformer.heads == 8
        assert cfg.transformer.encoder_layers == 4
        assert cfg.transformer.decoder_layers == 4
        assert cfg.transformer.ff_dim == 512
        assert cfg.transformer.dropout == 0.1

    def test_training_and_data_defaults(self):
        cfg = DctmConfig()
        assert cfg.optim.lr == 1e-6
        assert cfg.optim.epochs == 30
        assert cfg.optim.batch_size == 32
        assert cfg.data.window == 64
        assert cfg.data.stride == 32
        assert cfg.data.subject == "both"
        assert cfg.data.modalities == ("head", "pose", "voice")
        assert cfg.seed == 0
        assert cfg.precision == "float32"

    def test_dtype_property(self):
        assert DctmConfig().dtype is np.float32
        assert DctmConfig(precision="float64").dtype is np.float64

    def test_effective_dilations(self):
        assert ConvConfig(kind="dilated").effective_dilations() == (4, 4, 4)
        assert ConvConfig(kind="traditional").effective_dilations() == (1, 1, 1)


class TestFlatRoundTrip:
    def test_to_flat_echoes_every_field(self):
        flat = to_flat(DctmConfig())
        assert flat["conv.kernels"] == "5,5,3"
        assert flat["conv.dilations"] == "4,4,4"
        assert flat["optim.lr"] == "1e-06"
        assert flat["optim.epochs"] == "30"
        assert flat["data.modalities"] == "head,pose,voice"
        assert flat["seed"] == "0"
        assert flat["precision"] == "float32"

    def test_round_trip_identity(self):
        cfg = DctmConfig(
            conv=ConvConfig(kind="traditional", kernels=(3, 3), dilations=(1, 1)),
            fusion=FusionConfig(kind="gmu"),
            optim=OptimConfig(lr=0.003, epochs=5, batch_size=8),
            data=DataConfig(root="/tmp/x", window=32, stride=16, subject="expert",
                            modalities=("voice",)),
            seed=7,
            precision="float64",
        )
        assert from_flat(to_flat(cfg)) == cfg

    def test_overrides_change_only_named_keys(self):
        cfg = from_flat({"optim.lr": "0.001", "conv.kind": "none"})
        assert cfg.optim.lr == 0.001
        assert cfg.conv.kind == "none"
        assert cfg.optim.epochs == 30          # untouched default
        assert cfg.data.window == 64

    def test_tuple_parsing(self):
        cfg = from_flat({
            "conv.kernels": "3,5,3",
            "conv.dilations": "1,2,4",
            "data.modalities": "voice,head",
        })
        assert cfg.conv.kernels == (3, 5, 3)
        assert cfg.conv.dilations == (1, 2, 4)
        assert cfg.data.modalities == ("voice", "head")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            from_flat({"optim.momentum": "0.9"})
        with pytest.raises(ConfigError, match="unknown config key"):
            from_flat({"banana": "1"})
        # keys of knobs that had one production value and were deleted
        for key, value in (("conv.activation", "relu"), ("transformer.use_positional", "true")):
            with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
                from_flat({key: value})

    def test_unparsable_value_names_key(self):
        with pytest.raises(ConfigError, match="conv.channels"):
            from_flat({"conv.channels": "many"})


class TestConfigFile:
    def test_file_with_comments_and_blanks(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(
            "# experiment settings\n"
            "\n"
            "optim.lr = 0.0005   # small steps\n"
            "seed = 3\n"
            "optim.lr = 0.002\n"      # last occurrence wins
        )
        flat = read_config_file(p)
        assert flat == {"optim.lr": "0.002", "seed": "3"}

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            read_config_file(tmp_path / "absent.cfg")

    def test_malformed_line_reports_position(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("optim.lr = 1e-4\njust words\n")
        with pytest.raises(ConfigError, match=r"bad\.cfg:2"):
            read_config_file(p)

    def test_resolve_order_cli_beats_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("optim.lr = 0.0005\noptim.epochs = 2\n")
        cfg = resolve_config(p, {"optim.lr": "0.1"})
        assert cfg.optim.lr == 0.1
        assert cfg.optim.epochs == 2

    def test_resolve_without_file(self):
        assert resolve_config(None, {}) == DctmConfig()


class TestValidation:
    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError, match="odd"):
            ConvConfig(kernels=(4, 5, 3), dilations=(4, 4, 4))

    def test_kernel_dilation_length_mismatch(self):
        with pytest.raises(ConfigError, match="equal length"):
            ConvConfig(kernels=(5, 5), dilations=(4, 4, 4))

    def test_zero_dilation_rejected(self):
        with pytest.raises(ConfigError, match="dilations"):
            ConvConfig(kernels=(5,), dilations=(0,))

    def test_bad_conv_kind(self):
        with pytest.raises(ConfigError, match="conv.kind"):
            ConvConfig(kind="strided")

    def test_bad_fusion_kind(self):
        with pytest.raises(ConfigError, match="fusion.kind"):
            FusionConfig(kind="sum")

    def test_nonpositive_lr(self):
        with pytest.raises(ConfigError, match="lr"):
            OptimConfig(lr=0.0)

    def test_bad_subject(self):
        with pytest.raises(ConfigError, match="subject"):
            DataConfig(subject="alien")

    def test_unknown_modality(self):
        with pytest.raises(ConfigError, match="unknown modality"):
            DataConfig(modalities=("voice", "smell"))

    def test_duplicate_modality(self):
        with pytest.raises(ConfigError, match="duplicate"):
            DataConfig(modalities=("voice", "voice"))

    def test_bad_precision(self):
        with pytest.raises(ConfigError, match="precision"):
            DctmConfig(precision="float16")

    def test_hidden_heads_divisibility(self):
        with pytest.raises(ConfigError, match="divisible"):
            TransformerSettings(hidden=100, heads=8)

    def test_dropout_range(self):
        with pytest.raises(ConfigError, match="dropout"):
            TransformerSettings(dropout=1.0)
