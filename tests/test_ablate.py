"""Ablation grid and the per-modality magnitude table."""

import collections
import json

import numpy as np
import pytest

import dctm.ablate
import dctm.data
from dctm.ablate import (
    ablate_run,
    format_grid,
    format_magnitude,
    magnitude_rows,
    parse_modality_sets,
    run_ablation,
)
from dctm.config import ConvConfig, DataConfig, DctmConfig, OptimConfig
from dctm.data import MODALITIES, SyntheticSpec, generate_dataset, load_split_sessions
from dctm.errors import ConfigError
from dctm.transformer import TransformerSettings


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("ablate-data")
    generate_dataset(root, SyntheticSpec(seed=4, sessions=4, frames=300,
                                         dims=(3, 3, 2), snr=(0.0, 0.0, 2.0)))
    return root


def base_cfg(root) -> DctmConfig:
    return DctmConfig(
        conv=ConvConfig(channels=8),
        transformer=TransformerSettings(hidden=16, heads=2, encoder_layers=1,
                                        decoder_layers=1, ff_dim=32, dropout=0.0),
        optim=OptimConfig(lr=1e-3, epochs=1, batch_size=8),
        data=DataConfig(root=str(root)),
        seed=0,
    )


class TestModalitySets:
    def test_parse(self):
        assert parse_modality_sets("head+pose+voice,voice") == (
            ("head", "pose", "voice"), ("voice",))

    def test_empty_subset_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            parse_modality_sets("voice,,head")

    def test_unknown_modality_rejected(self):
        with pytest.raises(ConfigError, match="smell"):
            parse_modality_sets("voice+smell")


class TestGrid:
    def test_grid_reads_each_session_once(self, dataset, monkeypatch):
        # the magnitude table reuses the training sessions the grid trained on
        reads = collections.Counter()
        real = dctm.data.load_session

        def counting(root, session_id, role, **kwargs):
            reads[f"{session_id}/{role}"] += 1
            return real(root, session_id, role, **kwargs)

        monkeypatch.setattr(dctm.data, "load_session", counting)
        cells, magnitude = run_ablation(base_cfg(dataset), conv_kinds=("none",),
                                        fusion_kinds=("sa", "gmu"))
        assert [c.status for c in cells] == ["ok", "ok"]
        splits = json.loads((dataset / "splits.json").read_text())
        assert reads == {f"{sid}/{role}": 1 for sid in splits["train"] + splits["val"]
                         for role in ("expert", "novice")}
        assert magnitude == magnitude_rows("both", load_split_sessions(dataset, "train"),
                                           MODALITIES)

    def test_cells_cover_requested_grid(self, dataset):
        cells, magnitude = run_ablation(base_cfg(dataset),
                                        conv_kinds=("dilated", "none"),
                                        fusion_kinds=("sa",))
        assert [(c.conv, c.fusion) for c in cells] == [("dilated", "sa"), ("none", "sa")]
        assert [c.receptive_field for c in cells] == [41, 1]
        for c in cells:
            assert c.status == "ok"
            assert c.val_ccc is not None and np.isfinite(c.val_ccc)
            assert c.subject == "both"
        assert [(r.subject, r.modality) for r in magnitude] == [
            ("both", "head"), ("both", "pose"), ("both", "voice")]

    def test_traditional_cell_reports_rf_11(self, dataset):
        cells, _ = run_ablation(base_cfg(dataset),
                                conv_kinds=("traditional",), fusion_kinds=("sa",))
        assert cells[0].receptive_field == 11

    def test_failed_cell_does_not_stop_grid(self, dataset, monkeypatch):
        true_fit = dctm.ablate.fit

        def exploding_fit(cfg, *args, **kwargs):
            if cfg.fusion.kind == "gmu":
                raise RuntimeError("boom")
            return true_fit(cfg, *args, **kwargs)

        monkeypatch.setattr(dctm.ablate, "fit", exploding_fit)
        cells, _ = run_ablation(base_cfg(dataset),
                                conv_kinds=("none",), fusion_kinds=("sa", "gmu"))
        by_fusion = {c.fusion: c for c in cells}
        assert by_fusion["sa"].status == "ok"
        assert by_fusion["gmu"].status.startswith("error:")
        assert by_fusion["gmu"].val_ccc is None

    def test_modality_subset_cell(self, dataset):
        cells, _ = run_ablation(base_cfg(dataset),
                                conv_kinds=("none",), fusion_kinds=("sa",),
                                modality_sets=(("voice",),))
        assert cells[0].modalities == ("voice",)
        assert cells[0].status == "ok"


class TestMagnitude:
    def test_pure_noise_modalities_have_small_ccc(self, dataset):
        rows = magnitude_rows("both", load_split_sessions(dataset, "train"), MODALITIES)
        by_mod = {r.modality: r for r in rows}
        # head and pose carry no signal at all in this dataset
        assert abs(by_mod["head"].ccc) < 0.1
        assert abs(by_mod["pose"].ccc) < 0.1
        assert by_mod["voice"].n == by_mod["head"].n > 1000

    def test_formatting_mentions_every_row(self, dataset):
        cells, rows = run_ablation(base_cfg(dataset),
                                   conv_kinds=("none",), fusion_kinds=("sa",))
        grid_text = format_grid(cells)
        assert "none" in grid_text and "val_ccc" in grid_text
        mag_text = format_magnitude(rows)
        for r in rows:
            assert r.modality in mag_text


class TestAblateRun:
    def test_writes_json_and_text(self, dataset, tmp_path):
        out = tmp_path / "ablation"
        ablate_run(base_cfg(dataset), out,
                   conv_kinds=("none",), fusion_kinds=("sa",),
                   subjects=None, modality_sets=None)
        payload = json.loads((out / "ablation.json").read_text())
        assert len(payload["grid"]) == 1
        assert payload["grid"][0]["conv"] == "none"
        assert payload["config"]["conv.channels"] == "8"
        assert len(payload["magnitude"]) == 3
        assert (out / "ablation.txt").exists()
