"""Metric oracles worked by hand, plus end-to-end report plumbing."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanfeat.data import FEATURE_DIMENSIONS, AnnotatedUtterance, IntentSpan
from spanfeat.evaluation import (
    COMPARISON_ROLES,
    DimensionReport,
    EvalReport,
    boundary_disagreement,
    classifier_accuracy,
    compare_models,
    evaluate_feature_model,
    evaluate_intent_tagger,
    feature_f1,
    gold_feature_spans,
    merge_reports,
    span_f1,
)
from spanfeat.encoders import EncoderConfig
from spanfeat.models import (
    FeatureTaggerFlat,
    GlobalLocalClassifier,
    GlobalLocalConfig,
    IntentTagger,
)
from spanfeat import evaluation
from spanfeat.data import Vocabulary, masked_examples


def spans(*triples):
    return [IntentSpan(a, b, label) for a, b, label in triples]


# ---------------------------------------------------------------------------
# span F1
# ---------------------------------------------------------------------------


class TestSpanF1:
    def test_perfect_prediction(self):
        gold = [spans((0, 2, "a"), (3, 5, "b"))]
        prf = span_f1(gold, gold)
        assert prf.precision == prf.recall == prf.f1 == 1.0
        assert prf.support == 2
        assert not prf.zero_denominator

    def test_hand_counted_mixture(self):
        # utterance 1: predictions {A, X}, gold {A, B} -> tp=1 fp=1 fn=1
        # utterance 2: predictions {C, D}, gold {C, E, F} -> tp=1 fp=1 fn=2
        predicted = [
            spans((0, 2, "a"), (2, 4, "x")),
            spans((0, 1, "c"), (1, 3, "d")),
        ]
        gold = [
            spans((0, 2, "a"), (2, 4, "b")),
            spans((0, 1, "c"), (1, 3, "e"), (3, 5, "f")),
        ]
        prf = span_f1(predicted, gold)
        assert prf.precision == pytest.approx(2 / 4)
        assert prf.recall == pytest.approx(2 / 5)
        assert prf.f1 == pytest.approx(2 * 0.5 * 0.4 / 0.9)

    def test_label_mismatch_is_both_fp_and_fn(self):
        predicted = [spans((0, 2, "a"))]
        gold = [spans((0, 2, "b"))]
        prf = span_f1(predicted, gold)
        assert prf.f1 == 0.0
        assert prf.support == 1 and prf.predicted == 1

    def test_boundary_mismatch_scores_zero(self):
        prf = span_f1([spans((0, 3, "a"))], [spans((0, 2, "a"))])
        assert prf.f1 == 0.0

    def test_empty_prediction_zero_denominator(self):
        prf = span_f1([[]], [spans((0, 1, "a"))])
        assert prf.precision == 0.0 and prf.recall == 0.0 and prf.f1 == 0.0
        assert prf.zero_denominator

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="2 predictions for 1"):
            span_f1([[], []], [[]])

    def test_f1_is_harmonic_mean(self):
        # P = 1/2, R = 1/4 -> F1 = 2PR/(P+R) = 1/3
        predicted = [spans((0, 1, "a"), (1, 2, "x"))]
        gold = [spans((0, 1, "a"), (1, 2, "y"), (2, 3, "z"), (3, 4, "w"))]
        prf = span_f1(predicted, gold)
        assert prf.precision == pytest.approx(0.5)
        assert prf.recall == pytest.approx(0.25)
        assert abs(prf.f1 - 1 / 3) < 1e-12


# ---------------------------------------------------------------------------
# boundary disagreement
# ---------------------------------------------------------------------------


class TestBoundaryDisagreement:
    def test_identical_sets_zero(self):
        layout = [spans((0, 2, "a"), (3, 5, "b"))]
        assert boundary_disagreement(layout, layout) == 0.0

    def test_labels_ignored(self):
        predicted = [spans((0, 2, "x"), (3, 5, "y"))]
        reference = [spans((0, 2, "a"), (3, 5, "b"))]
        assert boundary_disagreement(predicted, reference) == 0.0

    def test_disjoint_sets_one(self):
        predicted = [spans((0, 1, "a"))]
        reference = [spans((1, 2, "a"))]
        assert boundary_disagreement(predicted, reference) == 1.0

    def test_hand_counted_dice(self):
        # |P| = 2, |R| = 3, |P intersect R| = 1 -> 1 - 2*1/5 = 0.6
        predicted = [spans((0, 2, "a"), (2, 4, "a"))]
        reference = [spans((0, 2, "b"), (4, 6, "b"), (6, 8, "b"))]
        assert boundary_disagreement(predicted, reference) == pytest.approx(0.6)

    def test_both_empty_zero(self):
        assert boundary_disagreement([[]], [[]]) == 0.0

    def test_symmetric(self):
        a = [spans((0, 2, "a"), (2, 4, "a"))]
        b = [spans((0, 2, "b"), (4, 6, "b"))]
        assert boundary_disagreement(a, b) == boundary_disagreement(b, a)


# ---------------------------------------------------------------------------
# per-dimension feature F1
# ---------------------------------------------------------------------------


class TestFeatureF1:
    def test_hand_counted_negation(self):
        # negative: tp=3 fp=1 fn=2 -> P=3/4, R=3/5, F1=2/3
        predicted = ["negative"] * 3 + ["negative"] + ["positive"] * 2 + ["positive"] * 4
        gold = ["negative"] * 3 + ["positive"] + ["negative"] * 2 + ["positive"] * 4
        report = feature_f1(predicted, gold, "negation")
        neg = report.per_label["negative"]
        assert neg.precision == pytest.approx(3 / 4)
        assert neg.recall == pytest.approx(3 / 5)
        assert neg.f1 == pytest.approx(2 / 3)
        # micro counts: tp=7 of 10 -> accuracy 0.7 for a single-label task
        assert report.micro_f1 == pytest.approx(0.7)

    def test_micro_equals_accuracy(self):
        predicted = ["past", "present", "future", "past", "past"]
        gold = ["past", "present", "past", "future", "past"]
        report = feature_f1(predicted, gold, "tense")
        accuracy = sum(p == g for p, g in zip(predicted, gold)) / len(gold)
        assert report.micro_f1 == pytest.approx(accuracy)

    def test_macro_skips_absent_labels(self):
        # only past/present ever appear; future must not drag the macro down
        predicted = ["past", "present", "past"]
        gold = ["past", "present", "present"]
        report = feature_f1(predicted, gold, "tense")
        past, present = report.per_label["past"], report.per_label["present"]
        assert report.macro_f1 == pytest.approx((past.f1 + present.f1) / 2)
        assert report.per_label["future"].support == 0

    def test_absent_label_zero_denominator_flagged(self):
        report = feature_f1(["past"], ["past"], "tense")
        assert report.per_label["future"].zero_denominator
        assert report.per_label["future"].f1 == 0.0
        assert not report.per_label["past"].zero_denominator

    def test_unknown_dimension_rejected(self):
        with pytest.raises(ValueError, match="unknown feature dimension"):
            feature_f1(["x"], ["x"], "mood")

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="not in dimension"):
            feature_f1(["sometime"], ["past"], "tense")
        with pytest.raises(ValueError, match="not in dimension"):
            feature_f1(["past"], ["sometime"], "tense")

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="1 predictions for 2"):
            feature_f1(["past"], ["past", "past"], "tense")

    @given(
        st.lists(
            st.tuples(st.sampled_from(("past", "present", "future")),
                      st.sampled_from(("past", "present", "future"))),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_micro_f1_matches_accuracy_everywhere(self, pairs):
        predicted = [p for p, _ in pairs]
        gold = [g for _, g in pairs]
        report = feature_f1(predicted, gold, "tense")
        accuracy = sum(p == g for p, g in zip(predicted, gold)) / len(gold)
        assert report.micro_f1 == pytest.approx(accuracy)

    @given(st.permutations(list(range(6))))
    @settings(max_examples=30, deadline=None)
    def test_order_invariance(self, order):
        predicted = ["past", "past", "present", "future", "present", "past"]
        gold = ["past", "present", "present", "future", "past", "past"]
        base = feature_f1(predicted, gold, "tense")
        shuffled = feature_f1([predicted[i] for i in order], [gold[i] for i in order], "tense")
        assert shuffled.micro_f1 == pytest.approx(base.micro_f1)
        assert shuffled.macro_f1 == pytest.approx(base.macro_f1)


# ---------------------------------------------------------------------------
# reports and comparison
# ---------------------------------------------------------------------------


def _single_dim_report(dimension, micro, model_tag="m", corpus_tag="dev"):
    section = DimensionReport(
        dimension=dimension, per_label={}, micro_f1=micro, macro_f1=micro, support=10
    )
    return EvalReport(
        model_tag=model_tag, corpus_tag=corpus_tag, span_mode="gold",
        dimensions={dimension: section},
    )


def _role_reports(scores_by_dim):
    """scores_by_dim: {dim: (gl, cnn, noglobal, noshared)}"""
    reports = {}
    for i, role in enumerate(COMPARISON_ROLES):
        sections = [
            _single_dim_report(dim, scores[i], model_tag=role)
            for dim, scores in scores_by_dim.items()
        ]
        reports[role] = merge_reports(sections, model_tag=role)
    return reports


class TestCompareModels:
    def test_clean_ordering_passes(self):
        reports = _role_reports({
            "tense": (0.95, 0.70, 0.72, 0.90),
            "negation": (0.99, 0.80, 0.85, 0.98),
        })
        result = compare_models(reports)
        assert result.verdict == "PASS"
        assert result.failures == []
        assert result.micro_table["tense"]["global-local"] == pytest.approx(0.95)

    def test_small_margin_fails(self):
        reports = _role_reports({"tense": (0.74, 0.70, 0.60, 0.72)})
        result = compare_models(reports)
        assert result.verdict == "FAIL"
        assert any("span-cnn" in f for f in result.failures)

    def test_noshared_slightly_above_full_model_passes(self):
        # not between cnn and gl, but within the slack of gl
        reports = _role_reports({"tense": (0.90, 0.70, 0.70, 0.91)})
        assert compare_models(reports).verdict == "PASS"

    def test_noshared_far_below_fails(self):
        reports = _role_reports({"tense": (0.90, 0.80, 0.80, 0.60)})
        result = compare_models(reports)
        assert result.verdict == "FAIL"
        assert any("no-shared-embedding" in f for f in result.failures)

    def test_missing_role_named(self):
        reports = _role_reports({"tense": (0.9, 0.7, 0.7, 0.85)})
        del reports["span-cnn"]
        with pytest.raises(ValueError, match="'span-cnn'"):
            compare_models(reports)

    def test_dimension_mismatch_rejected(self):
        reports = _role_reports({"tense": (0.9, 0.7, 0.7, 0.85)})
        reports["span-cnn"].dimensions["negation"] = reports["span-cnn"].dimensions["tense"]
        with pytest.raises(ValueError, match="covers dimensions"):
            compare_models(reports)

    def test_text_rendering_has_verdict_line(self):
        reports = _role_reports({"tense": (0.95, 0.70, 0.72, 0.90)})
        text = compare_models(reports).to_text()
        assert "ordering verdict: PASS" in text


class TestReports:
    def test_merge_combines_dimensions(self):
        merged = merge_reports(
            [_single_dim_report("tense", 0.9), _single_dim_report("negation", 0.8)],
            model_tag="combo",
        )
        assert set(merged.dimensions) == {"tense", "negation"}
        assert merged.model_tag == "combo"

    def test_merge_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate dimension"):
            merge_reports(
                [_single_dim_report("tense", 0.9), _single_dim_report("tense", 0.8)],
                model_tag="combo",
            )

    def test_merge_rejects_empty(self):
        with pytest.raises(ValueError, match="no reports"):
            merge_reports([], model_tag="combo")

    def test_json_and_text_round_numbers(self):
        predicted = ["past", "present", "past"]
        gold = ["past", "present", "present"]
        report = EvalReport(
            model_tag="m", corpus_tag="dev", span_mode="gold",
            dimensions={"tense": feature_f1(predicted, gold, "tense")},
        )
        blob = report.to_json()
        assert blob["dimensions"]["tense"]["micro_f1"] == pytest.approx(2 / 3)
        assert blob["span_mode"] == "gold"
        text = report.to_text()
        assert "micro-F1" in text and "tense" in text


# ---------------------------------------------------------------------------
# evaluation drivers on tiny real models
# ---------------------------------------------------------------------------


TOKENS = ["please", "install", "the", "printer", "and", "cancel", "the", "trial"]


def tiny_corpus():
    features_a = {
        "communicative_function": "request-action",
        "attr_cf": "self",
        "attr_ev": "self",
        "negation": "positive",
        "tense": "present",
        "modality": "other",
    }
    features_b = dict(features_a, tense="past")
    return [
        AnnotatedUtterance(
            tokens=TOKENS,
            spans=[
                IntentSpan(0, 4, "install", dict(features_a)),
                IntentSpan(4, 8, "cancel", dict(features_b)),
            ],
        )
    ]


def tiny_vocabs(corpus):
    word = Vocabulary.build([u.tokens for u in corpus], min_count=1)
    char = Vocabulary.build([list(t) for u in corpus for t in u.tokens], min_count=1)
    return word, char


SMALL = EncoderConfig(word_embedding_dims=[8], char_embedding_dim=4, char_filters=4,
                      char_filter_width=2, lstm_hidden=4)


class TestDrivers:
    def test_gold_feature_spans_projection(self):
        [u] = tiny_corpus()
        projected = gold_feature_spans(u, "tense")
        assert [(s.start, s.end, s.intent) for s in projected] == [
            (0, 4, "present"), (4, 8, "past"),
        ]

    def test_intent_tagger_report_fields(self):
        corpus = tiny_corpus()
        word, char = tiny_vocabs(corpus)
        model = IntentTagger(word, char, ["install", "cancel"], SMALL, seed=3)
        report = evaluate_intent_tagger(model, corpus, corpus_tag="tiny")
        assert report.span_prf is not None
        assert 0.0 <= report.span_prf.f1 <= 1.0
        assert 0.0 <= report.boundary_rate <= 1.0
        assert report.corpus_tag == "tiny"

    def test_feature_tagger_report_aligned_to_gold(self):
        corpus = tiny_corpus()
        word, char = tiny_vocabs(corpus)
        model = FeatureTaggerFlat(word, char, "tense", SMALL, seed=3)
        report = evaluate_feature_model(model, corpus, corpus_tag="tiny")
        section = report.dimensions["tense"]
        assert section.support == 2  # one label per gold span, whatever was decoded
        assert report.span_mode == "gold"
        assert report.boundary_rate is not None

    def test_classifier_gold_mode_matches_accuracy_helper(self):
        corpus = tiny_corpus()
        word, _ = tiny_vocabs(corpus)
        model = GlobalLocalClassifier(
            word, "tense", GlobalLocalConfig(embedding_dim=8, filter_widths=[2],
                                             filters_per_width=3), seed=5,
        )
        report = evaluate_feature_model(model, corpus, corpus_tag="tiny")
        examples = masked_examples(corpus, "tense")
        assert report.dimensions["tense"].micro_f1 == pytest.approx(
            classifier_accuracy(model, examples)
        )

    def test_pipeline_mode_uses_predicted_spans(self):
        corpus = tiny_corpus()
        word, char = tiny_vocabs(corpus)
        tagger = IntentTagger(word, char, ["install", "cancel"], SMALL, seed=3)
        model = FeatureTaggerFlat(word, char, "tense", SMALL, seed=4)
        report = evaluate_feature_model(model, corpus, corpus_tag="tiny", intent_tagger=tagger)
        assert report.span_mode == "pipeline"
        # still exactly one label per gold span
        assert report.dimensions["tense"].support == 2

    def test_rejects_non_feature_model(self):
        corpus = tiny_corpus()
        word, char = tiny_vocabs(corpus)
        tagger = IntentTagger(word, char, ["install"], SMALL, seed=3)
        with pytest.raises(TypeError, match="not a feature model"):
            evaluate_feature_model(tagger, corpus)


class _DecodeRecorder:
    """Instance-level stand-in for ``model.decode`` that keeps every call,
    as a benchmark that times decoding one utterance at a time does."""

    def __init__(self, model) -> None:
        self.bound = type(model).decode
        self.model = model
        self.calls = []
        model.decode = self

    def __call__(self, utterance):
        path = self.bound(self.model, utterance)
        self.calls.append((utterance, path))
        return path


@pytest.mark.parametrize("metric", [
    lambda model, corpus: evaluation.intent_span_f1(model, corpus),
    lambda model, corpus: evaluation.evaluate_intent_tagger(model, corpus),
], ids=["intent_span_f1", "evaluate_intent_tagger"])
def test_intent_metrics_decode_each_utterance_once(metric):
    [base] = tiny_corpus()
    corpus = [
        base,
        AnnotatedUtterance(tokens=["install"], spans=[IntentSpan(0, 1, "install", dict(base.spans[0].features))]),
        AnnotatedUtterance(tokens=TOKENS[4:], spans=[IntentSpan(0, 4, "cancel", dict(base.spans[1].features))]),
    ]
    word, char = tiny_vocabs(corpus)
    model = IntentTagger(word, char, ["install", "cancel"], SMALL, seed=3)
    recorder = _DecodeRecorder(model)
    metric(model, corpus)
    assert [utterance.tokens for utterance, _ in recorder.calls] == [u.tokens for u in corpus]
    for (utterance, path), u in zip(recorder.calls, corpus):
        assert len(path) == len(u.tokens)
        assert all(isinstance(tag, int) for tag in path)
