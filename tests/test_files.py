"""Atomic writes: a write that raises part-way leaves the old file whole
and no temporary file behind."""

import json

import numpy as np
import pytest

from dctm.data import NormStats
from dctm.files import atomic_write
from dctm.train import EvalReport


def test_write_replaces_the_target(tmp_path):
    path = tmp_path / "a.txt"
    path.write_text("old\n")
    with atomic_write(path) as fh:
        fh.write("new\n")
    assert path.read_text() == "new\n"
    assert list(tmp_path.iterdir()) == [path]


def test_write_that_raises_midway_leaves_the_old_file_whole(tmp_path):
    path = tmp_path / "a.txt"
    path.write_text("old\n")
    with pytest.raises(RuntimeError):
        with atomic_write(path) as fh:
            fh.write("half of the new")
            fh.flush()
            raise RuntimeError("killed")
    assert path.read_text() == "old\n"
    assert list(tmp_path.iterdir()) == [path]


def test_first_write_that_raises_leaves_nothing(tmp_path):
    with pytest.raises(RuntimeError):
        with atomic_write(tmp_path / "a.bin", "wb") as fh:
            fh.write(b"\x00")
            raise RuntimeError("killed")
    assert list(tmp_path.iterdir()) == []


def test_norm_stats_save_failing_on_a_row_keeps_the_old_file(tmp_path):
    path = tmp_path / "norm_stats.csv"
    NormStats(["head.f0"], np.array([1.5]), np.array([2.0])).save(path)
    before = path.read_bytes()
    # the first row is written, the second cannot be formatted as a float
    bad = NormStats(["head.f0", "head.f1"], np.array([0.0, "x"], dtype=object),
                    np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        bad.save(path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_report_save_failing_midway_keeps_the_old_reports(tmp_path):
    def report(config):
        return EvalReport(split="val", ccc_overall=0.5, degenerate_overall=False,
                          per_session=[], config_echo=config, build="b", wall_time_s=1.0)

    report({"seed": "1"}).save(tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    # json.dump streams its output, so the file holds a prefix when it fails
    with pytest.raises(TypeError):
        report({"seed": object()}).save(tmp_path)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    assert json.loads(before["report.json"])["config"] == {"seed": "1"}
