"""The benchmark wraps package functions and methods by name from outside
the package (``perfbench/workloads.py``). A rename or a moved import would
leave a hook that no longer resolves, and the traced benchmark pass would
fail or time nothing. This reads the benchmark's target lists, without
editing them, and checks that each one still resolves."""

import importlib.util
import sys
from pathlib import Path

import pytest

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
