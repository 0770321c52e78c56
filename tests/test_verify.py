"""The built-in verification suite, including a sabotage check that the
gradient comparison actually has teeth."""

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


class TestSuitePasses:
    def test_all_checks_green(self):
        results = run_all(n_grad_cases=4, seed=1)
        failed = [r.name for r in results if not r.passed]
        assert failed == [], format_results(results)

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
        results = check_gradient_suite(n_cases=4, seed=0)
        by_name = {r.name: r for r in results}
        assert not by_name["grad/dilated_conv1d"].passed
        others = [n for n, r in by_name.items()
                  if n != "grad/dilated_conv1d" and not r.passed]
        assert others == []  # sabotage is localized

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
