"""The audit harness itself: coverage, budgets, and failure reporting."""

from spanfeat.gradcheck import (
    MODEL_BUDGET,
    PRIMITIVE_BUDGET,
    CheckResult,
    _tiny_setup,
    check_architectures,
    check_primitives,
    report_lines,
    run_gradient_checks,
)
from spanfeat.models import (
    FeatureTaggerCascaded,
    FeatureTaggerFlat,
    GlobalLocalClassifier,
    GlobalLocalConfig,
    IntentTagger,
    SpanCnnClassifier,
    SpanCnnConfig,
)
from spanfeat.tensor import Tape


# instance-name prefix of the ops whose check instances are named after
# the loss they sit in, not after the op
_AUDITED_AS = {"index_sum": "crf-nll", "log_partition": "crf-log-partition"}


def _recorded_ops():
    """The ops one ``batch_loss`` tape of each of the five architectures
    records, by the function whose backward each step is."""
    word, char, encoder, utterance, example = _tiny_setup()
    small = dict(embedding_dim=5, filter_widths=[2, 3], filters_per_width=3)
    models = [
        (IntentTagger(word, char, ["install", "cancel"], encoder), utterance),
        (FeatureTaggerFlat(word, char, "tense", encoder), utterance),
        (FeatureTaggerCascaded(word, char, "tense", encoder, boundary_dim=3), utterance),
        (SpanCnnClassifier(word, "tense", SpanCnnConfig(**small)), example),
        (GlobalLocalClassifier(word, "tense", GlobalLocalConfig(**small)), example),
    ]
    ops = set()
    for model, instance in models:
        with Tape() as tape:
            model.batch_loss([instance, instance])
        ops.update(step.__qualname__.split(".")[0] for step in tape._steps)
    return ops


def test_primitive_suite_covers_every_op_family():
    ops = _recorded_ops()
    prefixes = {op: _AUDITED_AS.get(op, op.replace("_", "-")) for op in ops}
    results = check_primitives(seed=5)
    names = [r.name for r in results]

    def audits(name, prefix):
        return name == prefix or name.startswith(prefix + "-")

    unaudited = [op for op, prefix in prefixes.items() if not any(audits(n, prefix) for n in names)]
    assert not unaudited, f"ops the models record with no check_primitives instance: {unaudited}"
    unused = [n for n in names if not any(audits(n, prefix) for prefix in prefixes.values())]
    assert not unused, f"check_primitives instances of ops no model records: {unused}"
    assert {"conv_relu_max", "lstm_sequence", "log_partition", "gather_rows"} <= ops
    assert all(r.budget == PRIMITIVE_BUDGET for r in results)


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
