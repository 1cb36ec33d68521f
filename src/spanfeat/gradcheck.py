"""Finite-difference audits for every op the models run and every model family.

Each check builds a small deterministic instance, computes the analytic
gradient on the tape, and compares against central differences. Primitives
get a tighter budget than whole models because the model checks compound
hundreds of operations and accumulate legitimate floating-point noise. The
model checks also take a larger step than the primitives: at the default
1e-5 the round-off of a whole BiLSTM-CRF loss already exceeds the model
budget at some seeds, and the error falls as the step grows to 3e-4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .crf import CrfParams, build_iobes_constraints, crf_nll, log_partition
from .data import FEATURE_DIMENSIONS, AnnotatedUtterance, IntentSpan, MaskedExample, Vocabulary
from .encoders import EncoderConfig
from .models import (
    FeatureTaggerCascaded,
    FeatureTaggerFlat,
    GlobalLocalClassifier,
    GlobalLocalConfig,
    IntentTagger,
    SpanCnnClassifier,
    SpanCnnConfig,
)
from .tensor import (
    Tensor,
    add,
    concat,
    conv_relu_max,
    gather_rows,
    grad_check,
    lstm_sequence,
    matmul,
    scale,
    softmax_cross_entropy,
    sub,
)

__all__ = [
    "CheckResult",
    "PRIMITIVE_BUDGET",
    "MODEL_BUDGET",
    "check_primitives",
    "check_architectures",
    "run_gradient_checks",
    "report_lines",
]

PRIMITIVE_BUDGET = 1e-5
MODEL_BUDGET = 1e-4
MODEL_STEP = 3e-4  # finite-difference step of the model checks


@dataclass
class CheckResult:
    name: str
    max_error: float
    budget: float

    @property
    def passed(self) -> bool:
        return self.max_error < self.budget

    def line(self) -> str:
        status = "ok" if self.passed else "FAIL"
        return f"{status:<5} {self.name:<34} max_rel_err={self.max_error:.3e} budget={self.budget:.0e}"


def _away_from_zero(rng, shape) -> Tensor:
    """Magnitudes in [0.2, 1.0] with random signs, so ReLU kinks and max ties
    sit far outside the finite-difference step."""
    return Tensor(rng.uniform(0.2, 1.0, size=shape) * rng.choice([-1.0, 1.0], size=shape))


def _pin(m: Tensor, left: Tensor, right: Tensor) -> Tensor:
    """Scalarize a matrix with fixed probe vectors; asymmetric weights keep
    transposition mistakes visible."""
    return matmul(matmul(left, m), right)


def check_primitives(seed: int = 13) -> list[CheckResult]:
    """One instance of every op the models record; the draws of dropped
    instances are still made, so that the others keep their inputs."""
    rng = np.random.default_rng(seed)
    results = []

    def run(name, function, inputs):
        results.append(CheckResult(name, grad_check(function, inputs), PRIMITIVE_BUDGET))

    a, b = _away_from_zero(rng, (3, 4)), _away_from_zero(rng, (4, 2))
    u3, v2 = Tensor(rng.normal(size=3)), Tensor(rng.normal(size=2))
    run("matmul", lambda: _pin(matmul(a, b), u3, v2), [a, b])

    c, d = _away_from_zero(rng, (3, 4)), _away_from_zero(rng, (3, 4))
    v4 = Tensor(rng.normal(size=4))
    run("add", lambda: _pin(add(c, d), u3, v4), [c, d])
    bias = _away_from_zero(rng, 4)
    run("add-bias", lambda: _pin(add(c, bias), u3, v4), [c, bias])
    run("sub", lambda: _pin(sub(c, d), u3, v4), [c, d])
    run("scale", lambda: _pin(scale(c, -1.7), u3, v4), [c])

    e, f = _away_from_zero(rng, (3, 2)), _away_from_zero(rng, (3, 3))
    v5 = Tensor(rng.normal(size=5))
    run("concat", lambda: _pin(concat([e, f]), u3, v5), [e, f])

    table = _away_from_zero(rng, (5, 3))
    u4 = Tensor(rng.normal(size=4))
    run("gather-rows", lambda: _pin(gather_rows(table, [0, 2, 2, 4]), u4, u3), [table])

    _away_from_zero(rng, (6, 3))  # input of the dropped conv1d-same and max-over-time instances
    filters = Tensor(rng.normal(size=(3, 3, 4)) * 0.5)
    cbias = Tensor(rng.normal(size=4) * 0.1)
    rng.normal(size=6)  # and their probe

    for shape in (3, 4, 4):  # input and states of the dropped lstm-cell instance
        _away_from_zero(rng, shape)
    wx = Tensor(rng.normal(size=(3, 16)) * 0.4)
    wh = Tensor(rng.normal(size=(4, 16)) * 0.4)
    gb = Tensor(rng.normal(size=16) * 0.2)
    probe = Tensor(rng.normal(size=4))
    rng.normal(size=4)  # its cell-state probe

    logits = Tensor(rng.normal(size=(1, 5)))
    run("softmax-cross-entropy", lambda: softmax_cross_entropy(logits, [2]), [logits])

    tags = build_iobes_constraints(["O", "B-x", "I-x", "E-x", "S-x"])
    params = CrfParams(5)
    params.transitions.values[:] = rng.normal(size=params.transitions.shape) * 0.3
    emissions = Tensor(rng.normal(size=(4, 5)))
    run("crf-log-partition", lambda: log_partition(emissions, params), [emissions, params.transitions])
    run(
        "crf-log-partition-constrained",
        lambda: log_partition(emissions, params, tags),
        [emissions, params.transitions],
    )
    gold = [1, 2, 3, 0]  # B-x I-x E-x O
    run(
        "crf-nll-constrained",
        lambda: crf_nll(emissions, params, gold, tags),
        [emissions, params.transitions],
    )

    # fused kernels, drawn last so the instances above stay as they were
    xs = _away_from_zero(rng, (5, 3))
    u5 = Tensor(rng.normal(size=5))
    for name, reverse in (("lstm-sequence", False), ("lstm-sequence-reverse", True)):
        run(
            name,
            lambda reverse=reverse: _pin(lstm_sequence(xs, wx, wh, gb, reverse), u5, probe),
            [xs, wx, wh, gb],
        )

    batch = _away_from_zero(rng, (3, 5, 3))
    lengths = [1, 2, 5]
    rng.normal(size=4)  # probe of the dropped padded-batch conv instance
    banks = [filters, Tensor(rng.normal(size=(2, 3, 2)) * 0.5)]
    bank_biases = [cbias, Tensor(rng.normal(size=2) * 0.1)]
    u6b = Tensor(rng.normal(size=6))
    # the batch's 15 positions as table rows, so that no draw is added: 8
    # packed ids read 6 of them, id 9 three times (twice in one row)
    table_rows = Tensor(batch.values.reshape(15, 3).copy())
    packed_ids = [4, 9, 4, 11, 0, 9, 2, 9]
    run(
        "conv-relu-max",
        lambda: _pin(conv_relu_max(table_rows, packed_ids, banks, bank_biases, lengths), u3, u6b),
        [table_rows, *banks, *bank_biases],
    )

    # packed BiLSTM and CRF batches, drawn after every instance above
    rows = _away_from_zero(rng, (7, 3))
    row_lengths = [2, 1, 4]
    u7, u8 = Tensor(rng.normal(size=7)), Tensor(rng.normal(size=8))
    run(
        "lstm-sequence-packed",
        lambda: _pin(
            concat([lstm_sequence(rows, wx, wh, gb, reverse, row_lengths) for reverse in (False, True)]), u7, u8
        ),
        [rows, wx, wh, gb],
    )
    tag_rows = Tensor(rng.normal(size=(6, 5)))
    golds = [4, 1, 3, 0, 0, 4]  # S-x | B-x E-x O | O S-x
    run(
        "crf-nll-packed-constrained",
        lambda: crf_nll(tag_rows, params, golds, tags, [1, 3, 2]),
        [tag_rows, params.transitions],
    )

    # the log-space recursion the scaled CRF pass falls back to, drawn after
    # every instance above: an emission 1000 below the rest of its position
    # underflows the weight that the scaled pass would need
    refused = Tensor(rng.normal(size=(4, 5)))
    refused.values[2, 0] = -1000.0
    run(
        "crf-log-partition-fallback",
        lambda: log_partition(refused, params),
        [refused, params.transitions],
    )
    return results


_TOKENS = ["please", "install", "the", "printer", "now"]
_FEATURES = {
    "communicative_function": "request-action",
    "attr_cf": "self",
    "attr_ev": "other",
    "negation": "positive",
    "tense": "future",
    "modality": "other",
}


def _tiny_setup():
    word = Vocabulary.build([_TOKENS], min_count=1)
    char = Vocabulary.build([list(t) for t in _TOKENS], min_count=1)
    encoder = EncoderConfig(
        word_embedding_dims=[5], char_embedding_dim=3, char_filters=3,
        char_filter_width=2, lstm_hidden=4,
    )
    utterance = AnnotatedUtterance(
        tokens=_TOKENS,
        spans=[
            IntentSpan(0, 2, "install", dict(_FEATURES)),
            IntentSpan(2, 5, "cancel", dict(_FEATURES, tense="past")),
        ],
    )
    example = MaskedExample(
        tokens=_TOKENS, mask=[0, 1, 1, 1, 0],
        gold=FEATURE_DIMENSIONS["tense"].index("future"),
    )
    return word, char, encoder, utterance, example


def check_architectures(seed: int = 13) -> list[CheckResult]:
    word, char, encoder, utterance, example = _tiny_setup()
    span_config = SpanCnnConfig(embedding_dim=5, filter_widths=[2, 3], filters_per_width=3)
    gl_config = GlobalLocalConfig(embedding_dim=5, filter_widths=[2, 3], filters_per_width=3)
    models = [
        (IntentTagger(word, char, ["install", "cancel"], encoder, seed=seed), utterance),
        (FeatureTaggerFlat(word, char, "tense", encoder, seed=seed), utterance),
        (FeatureTaggerCascaded(word, char, "tense", encoder, seed=seed, boundary_dim=3), utterance),
        (SpanCnnClassifier(word, "tense", span_config, seed=seed), example),
        (GlobalLocalClassifier(word, "tense", gl_config, seed=seed), example),
    ]
    results = []
    for model, instance in models:
        inputs = list(model.parameters().values())
        error = grad_check(lambda m=model, i=instance: m.loss(i), inputs, epsilon=MODEL_STEP)
        results.append(CheckResult(model.architecture, error, MODEL_BUDGET))
    return results


def run_gradient_checks(seed: int = 13) -> list[CheckResult]:
    return check_primitives(seed) + check_architectures(seed)


def report_lines(results: list[CheckResult]) -> list[str]:
    lines = [r.line() for r in results]
    worst = max(results, key=lambda r: r.max_error / r.budget)
    verdict = "all gradient checks passed" if all(r.passed for r in results) else "GRADIENT CHECKS FAILED"
    lines.append(f"{verdict} (worst: {worst.name} at {worst.max_error:.3e})")
    return lines
