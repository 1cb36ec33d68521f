"""The audit harness itself: coverage, budgets, and failure reporting."""

from spanfeat.gradcheck import (
    MODEL_BUDGET,
    PRIMITIVE_BUDGET,
    CheckResult,
    check_architectures,
    check_primitives,
    report_lines,
    run_gradient_checks,
)


def test_primitive_suite_covers_every_op_family():
    names = {r.name for r in check_primitives(seed=5)}
    for expected in (
        "matmul", "add", "add-bias", "sub", "scale", "relu", "concat",
        "stack-unstack", "gather-rows", "conv1d-same", "max-over-time",
        "lstm-cell", "lstm-sequence", "lstm-sequence-reverse",
        "conv1d-max-over-time-batched", "conv-relu-max", "softmax-cross-entropy", "crf-log-partition",
        "crf-log-partition-constrained", "crf-nll-constrained",
        "lstm-sequence-packed", "crf-nll-packed-constrained",
    ):
        assert expected in names
    assert all(r.budget == PRIMITIVE_BUDGET for r in check_primitives(seed=5))


def test_architecture_suite_covers_all_five_models():
    results = check_architectures(seed=5)
    assert {r.name for r in results} == {
        "intent-tagger", "feature-tagger-flat", "feature-tagger-cascaded",
        "span-cnn", "global-local",
    }
    assert all(r.budget == MODEL_BUDGET for r in results)


def test_architecture_suite_passes_at_another_seed():
    results = check_architectures(seed=1)
    assert all(r.passed for r in results), [r.line() for r in results if not r.passed]


def test_full_suite_passes_at_default_seed():
    results = run_gradient_checks()
    assert all(r.passed for r in results), [r.line() for r in results if not r.passed]


def test_report_lines_flag_failures():
    results = [
        CheckResult("good", 1e-9, 1e-5),
        CheckResult("bad", 2e-3, 1e-4),
    ]
    lines = report_lines(results)
    assert any(line.startswith("FAIL") and "bad" in line for line in lines)
    assert "GRADIENT CHECKS FAILED" in lines[-1]
    assert "bad" in lines[-1]


def test_report_lines_all_green():
    lines = report_lines([CheckResult("good", 1e-9, 1e-5)])
    assert "all gradient checks passed" in lines[-1]
