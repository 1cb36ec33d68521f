"""The audit harness itself: coverage, budgets, and failure reporting."""

import pytest

from spanfeat import crf, gradcheck
from spanfeat.gradcheck import (
    MODEL_BUDGET,
    PRIMITIVE_BUDGET,
    _PRIMITIVES,
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
from spanfeat.tensor import Tape, grad_check


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


def test_fallback_instance_audits_the_log_space_recursion(monkeypatch):
    """``crf-log-partition-fallback`` is the one unconstrained instance whose
    emissions the scaled CRF pass refuses, so it audits the log-space
    recursion as the scaled pass's fallback."""
    reference = crf._log_space_partition
    refused = []

    def spy(emissions, params, constraints, *rest):
        if constraints is None:
            refused.append(float(emissions.values.min()))
        return reference(emissions, params, constraints, *rest)

    monkeypatch.setattr(crf, "_log_space_partition", spy)
    results = {r.name: r for r in check_primitives()}
    assert results["crf-log-partition-fallback"].passed
    # every call that fell back holds the instance's -1000 emission, give or take the step
    assert refused and all(value < -999.0 for value in refused)


def _audit_table(table):
    """``check_primitives`` over ``table``, by name: each instance's max error
    and the bytes of the input values its check started from."""
    started = []

    def spy(function, inputs, **kwargs):
        started.append([t.values.tobytes() for t in inputs])
        return grad_check(function, inputs, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gradcheck, "_PRIMITIVES", table)
        patch.setattr(gradcheck, "grad_check", spy)
        results = check_primitives()
    assert [r.name for r in results] == list(table)
    return {r.name: (r.max_error, inputs) for r, inputs in zip(results, started)}


@pytest.fixture(scope="module")
def full_table():
    return _audit_table(_PRIMITIVES)


def test_each_instance_alone_matches_the_full_table(full_table):
    """An instance built by itself draws the same inputs and gets the same
    result, bit for bit, as within the table."""
    for name, build in _PRIMITIVES.items():
        assert _audit_table({name: build}) == {name: full_table[name]}, name


@pytest.mark.parametrize("dropped", list(_PRIMITIVES))
def test_dropping_an_instance_moves_no_other(full_table, dropped):
    rest = {name: build for name, build in _PRIMITIVES.items() if name != dropped}
    assert _audit_table(rest) == {name: full_table[name] for name in rest}
