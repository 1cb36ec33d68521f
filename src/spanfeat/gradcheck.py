"""Finite-difference audits for every op the models run and every model family.

Each check builds a small instance, computes the analytic gradient on the
tape, and compares against central differences. A primitive instance draws
its inputs from its own generator, seeded by (seed, instance name) only.
Primitives get a tighter budget than whole models, whose checks compound
hundreds of operations and their floating-point noise. The model checks
also take a larger step: at 1e-5 the round-off of a whole BiLSTM-CRF loss
exceeds the model budget at some seeds, and the error falls as the step
grows to 3e-4.

A pass is a verdict on one seed's instances. Some seeds fail with correct
gradients: where a primitive's gradient entries are under about 1e-6, the
step's round-off reads as error (``lstm-sequence-packed``), and span-cnn's
instance sits on a max tie or a ReLU kink at seeds 10 and 15.
"""

from __future__ import annotations

import zlib
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
    """Magnitudes in [0.2, 1.0] with random signs. This keeps an op's inputs
    far from a kink or tie at zero; it does not keep a fused node's
    pre-activations (sums of inputs times weights) away from theirs."""
    return Tensor(rng.uniform(0.2, 1.0, size=shape) * rng.choice([-1.0, 1.0], size=shape))


def _probed(rng, op, inputs):
    """(function, inputs) scalarizing ``op``'s (m, q) output as (1, m) @ (m, q) @ (q, 1);
    asymmetric probe weights keep transposition mistakes visible."""
    rows, cols = op().shape
    left, right = rng.normal(size=(1, rows)), rng.normal(size=(cols, 1))
    return (lambda: matmul(matmul(Tensor(left), op()), Tensor(right))), inputs


def _pinned(rng, op, *shapes):
    inputs = [_away_from_zero(rng, shape) for shape in shapes]
    return _probed(rng, lambda: op(*inputs), inputs)


def _crf(rng, tags=None, gold=None, lengths=None, refused=False):
    """The CRF log-partition, or given ``gold`` the NLL, over one emission row
    per gold tag (else 4) for the IOBES tags of one label. In a ``refused``
    instance an emission 1000 below the rest of its position underflows the
    scaled pass's weight, so the log-space recursion runs."""
    params = CrfParams(5)
    params.transitions.values[:] = rng.normal(size=params.transitions.shape) * 0.3
    emissions = Tensor(rng.normal(size=(len(gold or range(4)), 5)))
    if refused:
        emissions.values[2, 0] = -1000.0
    if gold is None:
        return (lambda: log_partition(emissions, params, tags)), [emissions, params.transitions]
    return (lambda: crf_nll(emissions, params, gold, tags, lengths)), [emissions, params.transitions]


def _lstm_sequence(rng, positions, ids, lengths=None, reverse=False):
    """The two-direction LSTM node, hidden size 4. The backward direction's
    weights differ from the forward ones, so that a gradient sent to the
    wrong direction shows; ``reverse`` exchanges the two."""
    xs = _away_from_zero(rng, (positions, 3))
    fwd, bwd = (
        tuple(Tensor(rng.normal(size=shape) * s) for shape, s in zip([(3, 16), (4, 16), (16,)], scales))
        for scales in [(0.4, 0.4, 0.2), (0.5, 0.5, 0.5)]
    )
    first, second = (bwd, fwd) if reverse else (fwd, bwd)
    return _probed(rng, lambda: lstm_sequence(xs, ids, first, second, lengths), [xs, *fwd, *bwd])


def _conv_relu_max(rng):
    # 8 packed ids in rows of 1, 2 and 5 read 6 of the 15 table rows, id 9 thrice (twice in one row)
    table = _away_from_zero(rng, (15, 3))
    banks = [Tensor(rng.normal(size=(3, 3, 4)) * 0.5), Tensor(rng.normal(size=(2, 3, 2)) * 0.5)]
    biases = [Tensor(rng.normal(size=4) * 0.1), Tensor(rng.normal(size=2) * 0.1)]
    ids = [4, 9, 4, 11, 0, 9, 2, 9]
    return _probed(rng, lambda: conv_relu_max(table, ids, banks, biases, [1, 2, 5]), [table, *banks, *biases])


def _softmax_cross_entropy(rng):
    logits = Tensor(rng.normal(size=(1, 5)))
    return (lambda: softmax_cross_entropy(logits, [2])), [logits]


_TAGS = build_iobes_constraints(["O", "B-x", "I-x", "E-x", "S-x"])

# One instance of every op the models record, by name: a builder takes the
# instance's own generator and returns (function, inputs).
_PRIMITIVES = {
    "matmul": lambda rng: _pinned(rng, matmul, (3, 4), (4, 2)),
    "add": lambda rng: _pinned(rng, add, (3, 4), (3, 4)),
    "add-bias": lambda rng: _pinned(rng, add, (3, 4), (4,)),
    "sub": lambda rng: _pinned(rng, sub, (3, 4), (3, 4)),
    "scale": lambda rng: _pinned(rng, lambda c: scale(c, -1.7), (3, 4)),
    "concat": lambda rng: _pinned(rng, lambda e, f: concat([e, f]), (3, 2), (3, 3)),
    "gather-rows": lambda rng: _pinned(rng, lambda table: gather_rows(table, [0, 2, 2, 4]), (5, 3)),
    "softmax-cross-entropy": _softmax_cross_entropy,
    "crf-log-partition": _crf,
    "crf-log-partition-constrained": lambda rng: _crf(rng, _TAGS),
    "crf-nll-constrained": lambda rng: _crf(rng, _TAGS, [1, 2, 3, 0]),  # B-x I-x E-x O
    "lstm-sequence": lambda rng: _lstm_sequence(rng, 5, range(5)),
    "lstm-sequence-reverse": lambda rng: _lstm_sequence(rng, 5, range(5), reverse=True),
    "conv-relu-max": _conv_relu_max,
    # 7 packed ids read 5 of the 7 table rows, id 4 three times (twice in the last row)
    "lstm-sequence-packed": lambda rng: _lstm_sequence(rng, 7, [1, 4, 5, 4, 0, 4, 2], [2, 1, 4]),
    # gold S-x | B-x E-x O | O S-x
    "crf-nll-packed-constrained": lambda rng: _crf(rng, _TAGS, [4, 1, 3, 0, 0, 4], [1, 3, 2]),
    "crf-log-partition-fallback": lambda rng: _crf(rng, refused=True),
}


def check_primitives(seed: int = 13) -> list[CheckResult]:
    """Every instance of ``_PRIMITIVES``, each built by a generator that
    depends on the seed and its own name only."""
    results = []
    for name, build in _PRIMITIVES.items():
        function, inputs = build(np.random.default_rng([seed, zlib.crc32(name.encode())]))
        results.append(CheckResult(name, grad_check(function, inputs), PRIMITIVE_BUDGET))
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
    cnn = dict(embedding_dim=5, filter_widths=[2, 3], filters_per_width=3)
    models = [
        (IntentTagger(word, char, ["install", "cancel"], encoder, seed=seed), utterance),
        (FeatureTaggerFlat(word, char, "tense", encoder, seed=seed), utterance),
        (FeatureTaggerCascaded(word, char, "tense", encoder, seed=seed, boundary_dim=3), utterance),
        (SpanCnnClassifier(word, "tense", SpanCnnConfig(**cnn), seed=seed), example),
        (GlobalLocalClassifier(word, "tense", GlobalLocalConfig(**cnn), seed=seed), example),
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
