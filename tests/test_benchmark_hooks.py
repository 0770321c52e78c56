"""The benchmark wraps package functions and methods by name from outside
the package (``perfbench/workloads.py``). A rename or a moved import would
leave a hook that no longer resolves, and the traced benchmark pass would
fail or time nothing. This reads the benchmark's target lists, without
editing them, and checks that each one still resolves."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from dctm.layers import Arena
from dctm.optim import CHUNK, Adam
from dctm.tensor import Tensor

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    # workloads.py imports its sibling modules by bare name, as run.py runs it
    siblings = ("inputs", "spans")
    saved = {name: sys.modules.pop(name) for name in siblings if name in sys.modules}
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                      PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.path.remove(str(PERFBENCH))
        for name in siblings:
            sys.modules.pop(name, None)
        sys.modules.update(saved)


@pytest.mark.parametrize("targets", ["CLOCK_TARGETS", "LAYER_TARGETS"])
def test_every_hook_resolves_to_a_callable(workloads, targets):
    entries = getattr(workloads, targets)
    assert entries
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _, _ in entries
               if not callable(getattr(owner, attr, None))]
    assert not missing, f"{targets} entries that no longer resolve: {missing}"


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_traced_optimizer_info_counts_a_real_adam(workloads, dtype):
    """The traced ``optim.*`` and ``tensor.grad_*`` metrics read ``opt.params``,
    ``opt.m``, ``opt.v`` and each ``.grad``: after one step they count the
    moments (two parameter-sized buffers) and the gradients."""
    rng = np.random.default_rng(0)
    params = [(f"p{i}", Tensor(rng.standard_normal(s).astype(dtype), requires_grad=True))
              for i, s in enumerate([(3, 4), (5,), (CHUNK + 3,), (2, 2)])]
    opt = Adam(Arena(params), lr=1e-3)
    for _, p in params[:-1]:
        p.grad = rng.standard_normal(p.shape).astype(dtype)
    opt.step()
    param_bytes = sum(p.data.nbytes for _, p in params)
    itemsize = np.dtype(dtype).itemsize
    assert workloads._optim_info((opt,), {}, None) == {
        "grad_bytes": param_bytes - 4 * itemsize, "grad_itemsize": itemsize,
        "state_bytes": 2 * param_bytes, "state_itemsize": itemsize}
