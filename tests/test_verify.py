"""The built-in verification suite, including a sabotage check that the
gradient comparison actually has teeth, and the boundary that keeps its
gradient oracle in one module."""

import ast
from pathlib import Path

import numpy as np

import dctm.conv
from dctm.cli import EXIT_VERIFY, main
from dctm.verify import (
    check_attention_rows,
    check_ccc_oracle,
    check_conv_oracle,
    check_gradient_suite,
    check_receptive_field,
    format_results,
    run_all,
)

EXPECTED_OPS = {
    "add", "mul", "tanh", "sigmoid", "relu", "linear", "feed_forward",
    "layer_norm", "residual_norm", "dilated_conv1d", "attention", "gmu", "sigmoid_head",
    "ccc_loss",
}


def failed(results):
    return [r.name for r in results if not r.passed]


class TestSuitePasses:
    def test_all_checks_green(self):
        results = run_all(n_grad_cases=4, seed=1)
        assert failed(results) == [], format_results(results)

    def test_gradient_suite_covers_every_op(self):
        names = {r.name for r in check_gradient_suite(n_cases=2, seed=0)}
        assert names == {f"grad/{op}" for op in EXPECTED_OPS}

    def test_individual_checks(self):
        assert check_conv_oracle(seed=2).passed
        assert check_ccc_oracle(seed=2).passed
        assert check_receptive_field(seed=2).passed
        assert check_attention_rows(seed=2).passed

    def test_format_lists_every_result(self):
        results = run_all(n_grad_cases=2, seed=0)
        text = format_results(results)
        for r in results:
            assert r.name in text
        assert "[PASS]" in text


class TestSabotage:
    """Corrupt one implementation detail and demand the suite notices."""

    def test_broken_conv_input_gradient_is_caught(self, monkeypatch):
        true_grad = dctm.conv._conv_input_grad

        def skewed(*args, **kwargs):
            return 1.01 * true_grad(*args, **kwargs)

        monkeypatch.setattr(dctm.conv, "_conv_input_grad", skewed)
        assert failed(check_gradient_suite(n_cases=4, seed=0)) == ["grad/dilated_conv1d"]

    def test_widened_float32_conv_gradient_is_caught(self, monkeypatch):
        """A float32 conv whose input gradient comes back float64 has the
        right values; only the float32 pass sees the wrong dtype."""
        true_grad = dctm.conv._conv_input_grad
        monkeypatch.setattr(dctm.conv, "_conv_input_grad",
                            lambda *a, **k: true_grad(*a, **k).astype(np.float64))
        assert failed(check_gradient_suite(n_cases=4, seed=0)) == ["grad/dilated_conv1d"]

    def test_cli_verify_exits_3_on_failure(self, monkeypatch, capsys):
        true_grad = dctm.conv._conv_input_grad
        monkeypatch.setattr(dctm.conv, "_conv_input_grad",
                            lambda *a, **k: 1.01 * true_grad(*a, **k))
        assert main(["verify", "--grad-cases", "4"]) == EXIT_VERIFY
        assert "[FAIL] grad/dilated_conv1d" in capsys.readouterr().out

    def test_skewed_ccc_oracle_is_caught(self, monkeypatch):
        # skew the independent oracle instead of the implementation: any
        # disagreement between the two must be reported either way
        import dctm.verify as V

        true_oracle = V.ccc_two_pass
        monkeypatch.setattr(V, "ccc_two_pass",
                            lambda x, y: true_oracle(x, y) + 1e-3)
        assert not check_ccc_oracle(seed=0).passed


ROOT = Path(__file__).resolve().parents[1]
ORACLE = {"complex_step_grads", "numpy_layer_norm", "numpy_attention_block", "numpy_feed_forward",
          "numpy_gated_unit", "numpy_conv1d", "numpy_ccc_loss"}


def test_the_gradient_oracle_is_defined_once_and_gradcheck_is_gone():
    """``complex_step_grads`` and the ``numpy_*`` forwards are defined only in
    ``reference.py``, and nothing under src/ or tests/ imports ``gradcheck``."""
    defined, importers = {}, []
    for path in sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py")]):
        name = path.relative_to(ROOT).as_posix()
        for node in ast.walk(ast.parse(path.read_text(), name)):
            if isinstance(node, ast.FunctionDef) and (node.name in ORACLE
                                                      or node.name.startswith("numpy_")):
                defined.setdefault(node.name, []).append(name)
            if isinstance(node, ast.Import):
                imported = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported = [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            if any("gradcheck" in m.split(".") for m in imported):
                importers.append(name)
    assert defined == {f: ["src/dctm/reference.py"] for f in ORACLE}
    assert importers == []
