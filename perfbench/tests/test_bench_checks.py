"""Each correctness check accepts the program's output and rejects a wrong one."""

import numpy as np
import pytest

from spanbench import reference as ref
from spanbench import workloads
from spanbench.tracer import Tracer
from spanfeat import crf
from spanfeat.crf import CrfParams, build_iobes_constraints, log_partition, viterbi
from spanfeat.data import MaskedExample, Vocabulary, iobes_tag_set
from spanfeat.models import GlobalLocalClassifier, GlobalLocalConfig, SpanCnnClassifier, SpanCnnConfig
from spanfeat.tensor import Tensor

SMALL = workloads.Sizes(
    train=150, dev=20, test=20,
    tagger_train_per_round=10, predict_per_round=4, setups=1,
)


@pytest.fixture
def crf_case():
    tags = iobes_tag_set(["a", "b"])
    rng = np.random.default_rng(0)
    params = CrfParams(len(tags))
    params.transitions.values[...] = rng.normal(size=params.transitions.shape)
    emissions = rng.normal(size=(3, len(tags)))
    return tags, params, emissions


def _example():
    vocab = Vocabulary(["please", "install", "the", "printer", "tomorrow"])
    tokens = ["please", "install", "the", "printer", "tomorrow", "Zzz"]
    return vocab, MaskedExample(tokens=tokens, mask=[0, 1, 1, 1, 0, 0], gold=0)


def test_log_partition_off_by_1e6_is_rejected(crf_case):
    tags, params, emissions = crf_case
    gold = [tags.index(t) for t in ("B-a", "E-a", "O")]
    nll, logz, _ = ref.enumerate_crf(emissions, params.transitions.values, tags, gold)
    program = log_partition(Tensor(emissions), params, build_iobes_constraints(tags)).item()
    assert ref.check_crf_value(program, logz, "logZ") == []
    assert ref.check_crf_value(program + 1e-6, logz, "logZ")
    program_nll = crf.crf_nll(Tensor(emissions), params, gold).item()
    assert ref.check_crf_value(program_nll, nll, "nll") == []
    assert ref.check_crf_value(program_nll - 1e-6, nll, "nll")


def test_illegal_tag_path_is_rejected(crf_case):
    tags, params, emissions = crf_case
    _, _, best = ref.enumerate_crf(emissions, params.transitions.values, tags, [0, 0, 0])
    decoded = viterbi(emissions, params, build_iobes_constraints(tags))
    assert ref.check_path(decoded, tags, "viterbi", reference=best) == []
    assert ref.viterbi(emissions, params.transitions.values, tags) == best
    for illegal in (["I-a", "E-a", "O"], ["B-a", "E-b", "O"], ["O", "O", "B-a"], ["S-a", "I-a", "E-a"]):
        assert ref.check_path([tags.index(t) for t in illegal], tags, "path")
    other = [tags.index(t) for t in ("O", "O", "O")]
    if other != best:
        assert ref.check_path(other, tags, "path", reference=best)


@pytest.mark.parametrize("cls", [GlobalLocalClassifier, SpanCnnClassifier])
def test_flipped_classifier_label_is_rejected(cls):
    vocab, example = _example()
    if cls is GlobalLocalClassifier:
        model = cls(vocab, "tense", GlobalLocalConfig(embedding_dim=8, filters_per_width=4), seed=5)
        logits = ref.global_local_logits
        program = model._logits(example.tokens, example.mask).values
    else:
        model = cls(vocab, "tense", SpanCnnConfig(embedding_dim=8, filters_per_width=4), seed=5)
        logits = ref.span_cnn_logits
        program = model._logits(example).values
    params = {k: t.values for k, t in model.parameters().items()}
    expected = logits(params, vocab.to_dict(), model.config.filter_widths, example.tokens, example.mask)
    assert ref.check_logits(program, expected, "logits") == []
    assert ref.check_logits(program + 1e-6, expected, "logits")
    predicted = model.classify(example)
    assert ref.check_label(predicted, expected, "label") == []
    assert ref.check_label((predicted + 1) % len(model.labels), expected, "label")


def test_feature_values_are_checked():
    good = {dim: values[0] for dim, values in ref.FEATURE_VALUES.items()}
    assert ref.check_features(good, "span") == []
    assert ref.check_features({**good, "tense": "someday"}, "span")
    assert ref.check_features({k: v for k, v in good.items() if k != "tense"}, "span")


def test_predict_round_rejects_a_flipped_label(tmp_path):
    bench = workloads.Predict(3, SMALL, Tracer(), tmp_path)
    try:
        bench.start()
        bench.run_round(0)
        inputs, outputs, latencies = bench.round_io
        failed, problems, _ = bench.check_round(0)
        assert (failed, problems) == (0, [])
        bench.run_round(1)
        inputs, outputs, latencies = bench.round_io
        labelled = outputs[1]
        for value in ref.FEATURE_VALUES["tense"]:
            if f'"tense": "{value}"' in labelled:
                other = next(v for v in ref.FEATURE_VALUES["tense"] if v != value)
                outputs[1] = labelled.replace(f'"tense": "{value}"', f'"tense": "{other}"', 1)
                break
        failed, problems, _ = bench.check_round(1)
        assert failed == 1 and problems
    finally:
        bench.close()


def test_tagger_round_rejects_an_illegal_path_and_a_bad_log_partition(monkeypatch):
    bench = workloads.TaggerTrain(3, SMALL, Tracer())
    bench.start()
    bench.run_round(0)
    bench.decodes.calls[0] = (bench.decodes.calls[0][0], [bench.model.tags.index("I-install")])
    failed, problems, _ = bench.check_round(0)
    assert failed >= 1 and any("illegal tag path" in p for p in problems)

    original = crf.log_partition
    monkeypatch.setattr(workloads.crf, "log_partition", lambda *a: Tensor(original(*a).values + 1e-6))
    bench.run_round(1)
    failed, problems, _ = bench.check_round(1)
    assert failed >= workloads.CRF_WINDOWS_PER_ROUND
    assert sum("log-partition" in p for p in problems) == workloads.CRF_WINDOWS_PER_ROUND
