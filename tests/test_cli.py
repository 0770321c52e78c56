"""Command-line interface: exit codes and the end-to-end command flow."""

import json
import re
import shutil

import numpy as np
import pytest

from dctm.checkpoint import load_checkpoint, save_checkpoint
from dctm.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from dctm.train import load_run

TINY = [
    "--conv.channels=8",
    "--transformer.hidden=16",
    "--transformer.heads=2",
    "--transformer.encoder_layers=1",
    "--transformer.decoder_layers=1",
    "--transformer.ff_dim=32",
    "--optim.lr=0.001",
    "--optim.epochs=1",
    "--optim.batch_size=4",
    "--data.window=32",
    "--data.stride=16",
]


def replace_line(text, index, line):
    lines = text.splitlines()
    lines[index] = line
    return "\n".join(lines) + "\n"


def blank_cells(path, rows):
    """Empty every feature cell of the given data rows of a modality CSV."""
    lines = path.read_text().splitlines()
    for r in rows:
        frame, *cells = lines[1 + r].split(",")
        lines[1 + r] = ",".join([frame] + [""] * len(cells))
    path.write_text("\n".join(lines) + "\n")


# file under the copied run/data directories, its corruption, the error it must give
MALFORMED = {
    "short_stats_row": ("run/norm_stats.csv", lambda t: replace_line(t, 2, "head.f1,0.5"),
                        "norm_stats.csv:3: expected name,mean,std"),
    "non_float_stats_cell": ("run/norm_stats.csv",
                             lambda t: replace_line(t, 1, "head.f0,banana,1.0"),
                             "norm_stats.csv:2: expected name,mean,std"),
    "nan_stats_mean": ("run/norm_stats.csv", lambda t: replace_line(t, 1, "head.f0,nan,1.0"),
                       "norm_stats.csv:2: expected name,mean,std with a finite mean"),
    "meta_non_int_dims": ("run/meta.json",
                          lambda t: json.dumps({**json.loads(t),
                                                "feature_dims": {"head": "x", "pose": 3,
                                                                 "voice": 2}}),
                          "meta.json: 'feature_dims' must map each of"),
    "meta_not_json": ("run/meta.json", lambda t: t[:len(t) // 2], "meta.json: invalid JSON"),
    "meta_not_an_object": ("run/meta.json", lambda t: "3",
                           "meta.json: expected a JSON object"),
    "meta_without_dims": ("run/meta.json",
                          lambda t: json.dumps({k: v for k, v in json.loads(t).items()
                                                if k != "feature_dims"}),
                          "meta.json: missing 'feature_dims'"),
    "splits_not_json": ("data/splits.json", lambda t: t.replace("]", "", 1),
                        "splits.json: invalid JSON"),
}


@pytest.fixture(scope="module")
def flow(tmp_path_factory):
    """Dataset + trained run shared by the command tests."""
    base = tmp_path_factory.mktemp("cli")
    root, run = base / "data", base / "run"
    assert main(["gen-synth", "--out", str(root), "--sessions", "3",
                 "--frames", "80", "--dims", "3,3,2", "--seed", "9"]) == EXIT_OK
    assert main(["train", "--out", str(run), f"--data.root={root}", *TINY]) == EXIT_OK
    return root, run


class TestFlow:
    def test_gen_synth_layout(self, flow):
        root, _ = flow
        assert (root / "splits.json").exists()
        session_dirs = sorted(p.name for p in root.iterdir() if p.is_dir())
        assert len(session_dirs) == 3
        first = root / session_dirs[0]
        for name in ("expert.head.csv", "expert.pose.csv", "expert.voice.csv",
                     "expert.labels.csv", "novice.labels.csv"):
            assert (first / name).exists(), name

    def test_train_wrote_run_directory(self, flow):
        _, run = flow
        for name in ("config.txt", "checkpoint.best.dctm", "report.json"):
            assert (run / name).exists(), name

    def test_evaluate(self, flow, capsys):
        _, run = flow
        assert main(["evaluate", "--run", str(run), "--split", "val"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "ccc_overall" in out

    def test_evaluate_with_override_echoes_it(self, flow, capsys):
        _, run = flow
        assert main(["evaluate", "--run", str(run), "--split", "val",
                     "--optim.batch_size=2"]) == EXIT_OK
        assert "optim.batch_size = 2" in capsys.readouterr().out

    def test_predict_writes_score_files(self, flow, tmp_path, capsys):
        _, run = flow
        out = tmp_path / "scores"
        assert main(["predict", "--run", str(run), "--out", str(out)]) == EXIT_OK
        files = sorted(out.glob("*.scores.csv"))
        assert len(files) == 2  # one val session id x expert/novice
        body = files[0].read_text().splitlines()
        assert body[0] == "frame,score"
        assert len(body) == 81

    def test_verify_command(self, capsys):
        assert main(["verify", "--grad-cases", "3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out


class TestConfigErrors:
    def test_unparsable_value(self, tmp_path):
        assert main(["train", "--out", str(tmp_path / "r"),
                     "--optim.lr=banana"]) == EXIT_CONFIG

    def test_unknown_key(self, tmp_path):
        assert main(["train", "--out", str(tmp_path / "r"),
                     "--optim.warmup=5"]) == EXIT_CONFIG

    def test_override_without_value(self, tmp_path, capsys):
        code = main(["train", "--out", str(tmp_path / "r"), "--optim.lr"])
        assert code == EXIT_CONFIG
        assert "--key=value" in capsys.readouterr().err

    def test_missing_run_directory(self, tmp_path):
        assert main(["evaluate", "--run", str(tmp_path / "ghost")]) == EXIT_CONFIG

    @pytest.mark.parametrize("keep", [10, 200, -3])
    def test_truncated_checkpoint(self, flow, tmp_path, capsys, keep):
        _, run = flow
        copy = tmp_path / "run"
        shutil.copytree(run, copy)
        ckpt = copy / "checkpoint.best.dctm"
        ckpt.write_bytes(ckpt.read_bytes()[:keep])
        assert main(["evaluate", "--run", str(copy)]) == EXIT_CONFIG
        assert "checkpoint.best.dctm: truncated in " in capsys.readouterr().err

    def test_infinite_feature_cell(self, flow, tmp_path, capsys):
        root, run = flow
        data = tmp_path / "data"
        shutil.copytree(root, data)
        feats = sorted(data.glob("*/*.voice.csv"))[0]
        lines = feats.read_text().splitlines()
        first = lines[1].split(",")
        lines[1] = ",".join([first[0], "inf", *first[2:]])
        feats.write_text("\n".join(lines) + "\n")
        for command in (["evaluate"], ["predict", "--out", str(tmp_path / "scores")]):
            assert main([*command, "--run", str(run), "--split", "train",
                         f"--data.root={data}"]) == EXIT_CONFIG
            assert "non-finite value inf" in capsys.readouterr().err

    @pytest.mark.parametrize("target, corrupt, message", MALFORMED.values(),
                             ids=list(MALFORMED))
    def test_malformed_run_file_names_it(self, flow, tmp_path, capsys, target, corrupt,
                                         message):
        root, run = flow
        shutil.copytree(run, tmp_path / "run")
        shutil.copytree(root, tmp_path / "data")
        path = tmp_path / target
        path.write_text(corrupt(path.read_text()))
        assert main(["evaluate", "--run", str(tmp_path / "run"),
                     f"--data.root={tmp_path / 'data'}"]) == EXIT_CONFIG
        assert message in capsys.readouterr().err

    def test_unknown_split(self, flow):
        _, run = flow
        assert main(["evaluate", "--run", str(run), "--split", "test"]) == EXIT_CONFIG

    def test_gen_synth_rejects_overrides(self, tmp_path):
        assert main(["gen-synth", "--out", str(tmp_path / "d"),
                     "--optim.lr=1"]) == EXIT_CONFIG

    def test_gen_synth_bad_dims(self, tmp_path):
        assert main(["gen-synth", "--out", str(tmp_path / "d"),
                     "--dims", "3,3"]) == EXIT_CONFIG

    @pytest.mark.parametrize("arg", ["--sessions=0", "--frames=0", "--dims=3,0,2",
                                     "--snr=-1,1,1", "--snr=nan,1,1",
                                     "--val-fraction=1.5", "--val-fraction=-0.5"])
    def test_gen_synth_rejects_out_of_range(self, tmp_path, capsys, arg):
        out = tmp_path / "d"
        assert main(["gen-synth", "--out", str(out), arg]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_missing_config_file(self, tmp_path):
        assert main(["train", "--out", str(tmp_path / "r"),
                     "--config", str(tmp_path / "absent.cfg")]) == EXIT_CONFIG


class TestTooFewValidFrames:
    """CCC is undefined on fewer than 2 valid frames."""

    def copy_data(self, flow, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(flow[0], data)
        return data, json.loads((data / "splits.json").read_text())

    def test_training_skips_such_windows(self, flow, tmp_path):
        data, splits = self.copy_data(flow, tmp_path)
        # windows starting at frames 0, 16 and 32 have no valid frame
        blank_cells(data / splits["train"][0] / "expert.voice.csv", range(64))
        assert main(["train", "--out", str(tmp_path / "r"), f"--data.root={data}",
                     *TINY]) == EXIT_OK

    def test_such_a_val_session_is_a_data_error(self, flow, tmp_path, capsys):
        data, splits = self.copy_data(flow, tmp_path)
        blank_cells(data / splits["val"][0] / "expert.voice.csv", range(80))
        assert main(["train", "--out", str(tmp_path / "r"), f"--data.root={data}",
                     *TINY]) == EXIT_CONFIG
        assert f"session {splits['val'][0]}/expert has fewer than 2" in capsys.readouterr().err


def poisoned_run(run, tmp_path, poison):
    """A copy of ``run`` whose best checkpoint has ``poison(records)`` applied."""
    copy = tmp_path / "run"
    shutil.copytree(run, copy)
    path = copy / "checkpoint.best.dctm"
    _, model, _, _ = load_run(copy)
    load_checkpoint(path, model.named_parameters())
    records = {name: p.data for name, p in model.named_parameters()}
    poison(records)
    save_checkpoint(path, list(records.items()))
    return copy


def assert_scoring_exits_2(run, tmp_path, capsys, message):
    """evaluate and predict both exit 2 naming the fault, and write nothing."""
    before = sorted(p.name for p in run.iterdir())
    scores = tmp_path / "scores"
    for command in (["evaluate"], ["predict", "--out", str(scores)]):
        assert main([*command, "--run", str(run)]) == EXIT_NUMERICAL
        assert re.search(message, capsys.readouterr().err)
    assert sorted(p.name for p in run.iterdir()) == before
    assert not scores.exists()


class TestNonFiniteWeights:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_non_finite_checkpoint_record_is_named(self, flow, tmp_path, capsys, bad, seed):
        _, run = flow
        rng = np.random.default_rng(seed)
        where = {}

        def poison(records):
            name = list(records)[rng.integers(len(records))]
            index = tuple(int(rng.integers(n)) for n in records[name].shape)
            records[name][index] = bad
            where.update(name=name, index=index)

        copy = poisoned_run(run, tmp_path, poison)
        assert_scoring_exits_2(copy, tmp_path, capsys,
                               rf"checkpoint tensor '{re.escape(where['name'])}' holds "
                               rf"{re.escape(str(np.float32(bad)))} at index "
                               rf"{re.escape(str(where['index']))}")

    def test_overflowing_weight_is_caught_at_its_score(self, flow, tmp_path, capsys):
        # finite in float32, so the checkpoint restores; the forward overflows
        _, run = flow

        def poison(records):
            records["core.encoder.0.ff.expand.weight"][...] = 3e38

        copy = poisoned_run(run, tmp_path, poison)
        with np.errstate(all="ignore"):
            assert_scoring_exits_2(copy, tmp_path, capsys,
                                   r"non-finite score \S+ for session \S+ at frame \d+")


class TestNumericalErrors:
    def test_nan_labels_rejected_at_load(self, tmp_path, capsys):
        # the loader refuses out-of-range (including NaN) labels, so this
        # is a data error, not a numerical one
        root = tmp_path / "data"
        assert main(["gen-synth", "--out", str(root), "--sessions", "2",
                     "--frames", "60", "--dims", "2,2,2"]) == EXIT_OK
        for labels in root.glob("*/*.labels.csv"):
            lines = labels.read_text().splitlines()
            poisoned = [lines[0]] + [f"{i},nan" for i in range(len(lines) - 1)]
            labels.write_text("\n".join(poisoned) + "\n")
        code = main(["train", "--out", str(tmp_path / "r"),
                     f"--data.root={root}", *TINY])
        assert code == EXIT_CONFIG
        assert "outside [0, 1]" in capsys.readouterr().err

    def test_constant_labels_aborts_with_exit_2(self, tmp_path, capsys):
        # all-0.5 labels meet the fresh model's all-0.5 predictions: the
        # concordance loss hits 0/0 and training must abort, not continue
        root = tmp_path / "data"
        assert main(["gen-synth", "--out", str(root), "--sessions", "2",
                     "--frames", "60", "--dims", "2,2,2"]) == EXIT_OK
        for labels in root.glob("*/*.labels.csv"):
            lines = labels.read_text().splitlines()
            flat = [lines[0]] + [f"{i},0.5" for i in range(len(lines) - 1)]
            labels.write_text("\n".join(flat) + "\n")
        with np.errstate(all="ignore"):
            code = main(["train", "--out", str(tmp_path / "r"),
                         f"--data.root={root}", *TINY])
        assert code == EXIT_NUMERICAL
        assert "non-finite loss" in capsys.readouterr().err
