"""Self-test of the benchmark (not part of the package's test suite).

    python3 -m pytest -q perfbench/test_perfbench.py

Runs every workload for one call per pass, so it takes about a minute
and peaks near 2 GB (the default-architecture training step).
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
from dctm.tensor import Tensor  # noqa: E402

EXACT = ("tensor.nodes_per_step", "tensor.forward_bytes_per_step", "tensor.grad_bytes",
         "tensor.grad_itemsize", "optim.state_bytes", "optim.state_itemsize",
         "data.useful_frame_ratio")
TARGETS = [(owner, attr) for owner, attr, _, _ in
           workloads.CLOCK_TARGETS + workloads.LAYER_TARGETS] + [(Tensor, "__init__")]


def _current():
    return {(owner, attr): getattr(owner, attr) for owner, attr in TARGETS}


ORIGINAL = _current()


class Watched:
    """Wraps a workload and records what every target was during each call."""

    def __init__(self, wl):
        self.wl = wl
        self.during = []

    def __getattr__(self, name):
        return getattr(self.wl, name)

    def call(self, rec):
        self.during.append(_current())
        return self.wl.call(rec)


def _pass(name, traced, tmp_path, seed=3):
    wl = Watched(workloads.WORKLOADS[name]())
    work = Path(tempfile.mkdtemp(prefix=name, dir=tmp_path))
    p = workloads.Pass(wl, traced).run(seed, 0.0, work)
    problems = []
    _, failed = wl.check(p.outcomes, problems)
    assert failed == 0 and not problems, problems
    return p, wl


@pytest.fixture(scope="module")
def traced_pairs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("traced")
    return {name: [_pass(name, True, tmp) for _ in range(2)]
            for name in workloads.WORKLOADS}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_exact_counts_repeat_between_traced_runs(traced_pairs, name):
    (a, _), (b, _) = traced_pairs[name]
    la, lb = a.per_layer(), b.per_layer()
    assert {k: la[k] for k in EXACT} == {k: lb[k] for k in EXACT}
    assert la["tensor.nodes_per_step"] > 0 and la["data.useful_frame_ratio"] > 0


@pytest.mark.parametrize("name", ["train_sa", "ablate_tiny"])
def test_float32_run_keeps_float64_gradients_and_moments(traced_pairs, name):
    # Known defect at the time the benchmark was written: the loss is a
    # float64 scalar, so every gradient and Adam moment is float64 in a
    # float32 run. A fix should turn both item sizes to 4.
    layers = traced_pairs[name][0][0].per_layer()
    assert layers["tensor.grad_itemsize"] == 8
    assert layers["optim.state_itemsize"] == 8


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_child_spans_stay_inside_their_parent(traced_pairs, name):
    p, _ = traced_pairs[name][0]
    spans = p.rec.spans
    assert all(s.end is not None for s in spans)
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            parent = spans[s.parent]
            assert parent.start <= s.start and s.end <= parent.end, (s.name, parent.name)
            child_time[s.parent] += s.duration
    assert all(c <= s.duration for s, c in zip(spans, child_time))


def test_traced_pass_wraps_every_target_and_restores_it(traced_pairs):
    _, wl = traced_pairs["ablate_tiny"][0]
    assert all(wl.during[0][k] is not ORIGINAL[k] for k in TARGETS)
    assert _current() == ORIGINAL


def test_untraced_pass_leaves_layer_functions_untouched(tmp_path):
    _, wl = _pass("ablate_tiny", False, tmp_path)
    clock = {(owner, attr) for owner, attr, _, _ in workloads.CLOCK_TARGETS}
    for key in TARGETS:
        if key in clock:
            assert wl.during[0][key] is not ORIGINAL[key]
        else:
            assert wl.during[0][key] is ORIGINAL[key], key
    assert _current() == ORIGINAL


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "score",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""


def test_benchmark_json_lists_what_run_prints(traced_pairs):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p, _ = traced_pairs["score"][0]
    assert {m["name"] for m in spec["end_to_end"]} == set(p.end_to_end())
    assert ({m["name"] for m in spec["per_layer"]}
            == set(p.per_layer()) | {f"trace.overhead_{m['name']}" for m in spec["end_to_end"]})
