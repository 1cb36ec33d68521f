import base64
import hashlib
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanfeat.data import (
    FEATURE_DIMENSIONS,
    AnnotatedUtterance,
    CorpusError,
    IntentSpan,
    MaskedExample,
    Vocabulary,
    build_vocabularies,
    decode_iobes,
    encode_iobes,
    masked_examples,
)
from spanfeat.encoders import EncoderConfig
from spanfeat.evaluation import COMPARISON_ROLES
from spanfeat.models import (
    ARCHITECTURES,
    CLASSIFIER_ARCHS,
    FORMAT_VERSION,
    FeatureTaggerCascaded,
    FeatureTaggerFlat,
    GlobalLocalClassifier,
    GlobalLocalConfig,
    IntentTagger,
    ModelError,
    SpanCnnClassifier,
    SpanCnnConfig,
    align_feature_spans,
    load_model,
    serialize_model,
)
from spanfeat.synthetic import SyntheticConfig, generate_synthetic
from spanfeat.tensor import _FIXED, Tape, conv_relu_max, fixed
from spanfeat.training import Adadelta, AdadeltaConfig

SMALL_ENCODER = dict(
    word_embedding_dims=[8], char_embedding_dim=4, char_filters=5, lstm_hidden=4
)


@pytest.fixture(scope="module")
def corpus():
    train, dev, test = generate_synthetic(SyntheticConfig(train_size=60, dev_size=10, test_size=10))
    return train, dev, test


@pytest.fixture(scope="module")
def vocabs(corpus):
    return build_vocabularies(corpus[0])


def small_intent_tagger(vocabs, **kwargs):
    word, char = vocabs
    return IntentTagger(word, char, sorted({"install", "cancel", "refund"}),
                        EncoderConfig(**SMALL_ENCODER), **kwargs)


class TestIntentTagger:
    def test_single_token_utterance(self, vocabs):
        model = small_intent_tagger(vocabs)
        spans = model.tag(["install"])
        assert spans == [] or [(s.start, s.end) for s in spans] == [(0, 1)]

    def test_deterministic_repeated_calls(self, vocabs):
        model = small_intent_tagger(vocabs)
        tokens = "i install the printer".split()
        first = [(s.start, s.end, s.intent) for s in model.tag(tokens)]
        second = [(s.start, s.end, s.intent) for s in model.tag(tokens)]
        assert first == second

    def test_spans_contiguous_and_sorted(self, vocabs):
        model = small_intent_tagger(vocabs)
        spans = model.tag("i install the printer and we cancel my folder".split())
        prev_end = 0
        for s in spans:
            assert s.start >= prev_end
            prev_end = s.end

    def test_loss_is_positive_scalar(self, vocabs, corpus):
        model = small_intent_tagger(vocabs)
        word, char = vocabs
        intents = sorted({s.intent for u in corpus[0] for s in u.spans})
        model = IntentTagger(word, char, intents, EncoderConfig(**SMALL_ENCODER))
        with Tape() as tape:
            loss = model.loss(corpus[0][0])
        assert loss.values.shape == ()
        assert loss.item() > 0
        tape.backward(loss)
        assert np.any(model.crf.transitions.grad != 0)

    def test_wrapper_matches_method(self, vocabs):
        # tag() wraps decode(): the spans of the decoded IOBES path
        model = small_intent_tagger(vocabs)
        tokens = "i install the printer".split()
        path = model.decode(AnnotatedUtterance(tokens=tokens, spans=[]))
        spans, _ = decode_iobes([model.tags[i] for i in path])
        assert [(s.start, s.end, s.intent) for s in model.tag(tokens)] == [
            (s.start, s.end, s.intent) for s in spans
        ]


class TestAlignFeatureSpans:
    def test_identical_boundaries_copy_labels(self):
        intents = [IntentSpan(0, 3, "a"), IntentSpan(4, 6, "b")]
        features = [IntentSpan(0, 3, "past"), IntentSpan(4, 6, "future")]
        assert align_feature_spans(intents, features, "tense") == ["past", "future"]

    def test_larger_overlap_wins(self):
        intents = [IntentSpan(0, 3, "a")]
        features = [IntentSpan(2, 3, "past"), IntentSpan(0, 2, "future")]
        assert align_feature_spans(intents, features, "tense") == ["future"]

    def test_tie_keeps_earlier_feature_span(self):
        intents = [IntentSpan(0, 4, "a")]
        features = [IntentSpan(0, 2, "past"), IntentSpan(2, 4, "future")]
        assert align_feature_spans(intents, features, "tense") == ["past"]

    def test_zero_overlap_falls_back_to_default(self):
        intents = [IntentSpan(0, 2, "a")]
        features = [IntentSpan(3, 4, "negative")]
        assert align_feature_spans(intents, features, "tense") == ["present"]
        assert align_feature_spans(intents, features, "negation") == ["positive"]
        assert align_feature_spans(intents, features, "modality") == ["other"]
        assert align_feature_spans(intents, features, "attr_cf") == ["self"]
        assert align_feature_spans(intents, features, "communicative_function") == ["inform"]

    def test_unknown_dimension(self):
        with pytest.raises(ModelError):
            align_feature_spans([], [], "mood")


class TestFlatFeatureTagger:
    def test_feature_spans_never_overlap(self, vocabs):
        word, char = vocabs
        model = FeatureTaggerFlat(word, char, "tense", EncoderConfig(**SMALL_ENCODER))
        spans = model.tag("i currently install the printer and we cancel my folder".split())
        prev_end = 0
        for s in spans:
            assert s.start >= prev_end
            prev_end = s.end
            assert s.intent in FEATURE_DIMENSIONS["tense"]

    def test_labels_for_covers_every_span(self, vocabs):
        word, char = vocabs
        model = FeatureTaggerFlat(word, char, "negation", EncoderConfig(**SMALL_ENCODER))
        tokens = "i install the printer and we cancel my folder".split()
        ref = [IntentSpan(0, 4, "install"), IntentSpan(5, 9, "cancel")]
        labels = model.labels_for(tokens, ref)
        assert len(labels) == 2
        assert all(v in FEATURE_DIMENSIONS["negation"] for v in labels)

    def test_gold_tags_use_dimension_labels(self, vocabs, corpus):
        word, char = vocabs
        model = FeatureTaggerFlat(word, char, "tense", EncoderConfig(**SMALL_ENCODER))
        u = corpus[0][0]
        ids = model._gold_tag_ids(u)
        tags = [model.tags[i] for i in ids]
        for tag in tags:
            assert tag == "O" or tag[2:] in FEATURE_DIMENSIONS["tense"]

    def test_rejects_unknown_dimension(self, vocabs):
        word, char = vocabs
        with pytest.raises(ModelError):
            FeatureTaggerFlat(word, char, "sentiment", EncoderConfig(**SMALL_ENCODER))


class TestCascadedTagger:
    def make(self, vocabs, **kwargs):
        word, char = vocabs
        return FeatureTaggerCascaded(word, char, "tense", EncoderConfig(**SMALL_ENCODER), **kwargs)

    def test_intent_labels_masked(self, vocabs):
        model = self.make(vocabs)
        tokens = "i install the printer and we cancel my folder".split()
        spans_a = [IntentSpan(0, 4, "install"), IntentSpan(5, 9, "cancel")]
        spans_b = [IntentSpan(0, 4, "cancel"), IntentSpan(5, 9, "install")]
        assert model.labels_for(tokens, spans_a) == model.labels_for(tokens, spans_b)

    def test_sensitive_to_boundaries(self, vocabs):
        model = self.make(vocabs)
        tokens = "i install the printer and we cancel my folder".split()
        narrow = [IntentSpan(0, 2, "x")]
        wide = [IntentSpan(0, 9, "x")]
        # emissions must differ because the boundary channel differs
        u_narrow = AnnotatedUtterance(tokens=tokens, spans=narrow)
        u_wide = AnnotatedUtterance(tokens=tokens, spans=wide)
        e1 = model._emissions(u_narrow).values
        e2 = model._emissions(u_wide).values
        assert not np.allclose(e1, e2)

    def test_boundary_gradient_nonzero(self, vocabs, corpus):
        model = self.make(vocabs)
        with Tape() as tape:
            loss = model.loss(corpus[0][0])
        tape.backward(loss)
        assert np.any(model.boundary_table.grad != 0)

    def test_output_count_matches_span_count(self, vocabs):
        model = self.make(vocabs)
        tokens = "i install the printer and we cancel my folder".split()
        spans = [IntentSpan(0, 4, "a"), IntentSpan(5, 9, "b")]
        labels = model.labels_for(tokens, spans)
        assert len(labels) == len(spans)

    def test_span_exceeding_tokens_rejected(self, vocabs):
        model = self.make(vocabs)
        with pytest.raises(ValueError, match="exceeds"):
            model.labels_for(["one", "two"], [IntentSpan(0, 5, "a")])


def classifier_fixture(vocabs, cls, dimension="tense", **config_kwargs):
    word, _ = vocabs
    if cls is SpanCnnClassifier:
        return cls(word, dimension, SpanCnnConfig(embedding_dim=8, filters_per_width=4, **config_kwargs))
    return cls(word, dimension, GlobalLocalConfig(embedding_dim=8, filters_per_width=4, **config_kwargs))


class TestSpanCnn:
    def test_invariant_to_out_of_span_tokens(self, vocabs):
        model = classifier_fixture(vocabs, SpanCnnClassifier)
        rng = np.random.default_rng(0)
        words = ["i", "we", "install", "cancel", "the", "printer", "yesterday"]
        for _ in range(50):
            n = int(rng.integers(3, 8))
            tokens = [words[int(rng.integers(len(words)))] for _ in range(n)]
            mask = [0] * n
            span = sorted(rng.choice(n, size=2, replace=False))
            for i in range(span[0], span[1] + 1):
                mask[i] = 1
            base = MaskedExample(tokens=tokens, mask=mask, gold=0)
            mutated_tokens = list(tokens)
            outside = [i for i in range(n) if not mask[i]]
            for i in outside:
                mutated_tokens[i] = words[int(rng.integers(len(words)))]
            mutated = MaskedExample(tokens=mutated_tokens, mask=mask, gold=0)
            assert model.classify(base) == model.classify(mutated)
            assert np.array_equal(
                model._logits(tokens, mask).values, model._logits(mutated_tokens, mask).values
            )

    def test_loss_decreases_after_gradient_step(self, vocabs):
        model = classifier_fixture(vocabs, SpanCnnClassifier)
        example = MaskedExample(tokens="i install the printer".split(), mask=[0, 1, 1, 1], gold=1)

        def loss_value():
            return model.loss(example).item()

        before = loss_value()
        for t in model.parameters().values():
            t.zero_grad()
        with Tape() as tape:
            loss = model.loss(example)
        tape.backward(loss)
        for t in model.parameters().values():
            t.values -= 0.1 * t.grad
        assert loss_value() < before

    def test_is_global_local_without_global_view(self, vocabs):
        model = classifier_fixture(vocabs, SpanCnnClassifier)
        assert isinstance(model, GlobalLocalClassifier)
        rep = model.represent(["i install the printer".split()], [[0, 1, 1, 0]])
        assert rep.shape == (1, model.local_pool.output_dim)

    def test_rejects_global_local_config(self, vocabs):
        with pytest.raises(ModelError, match="SpanCnnConfig"):
            SpanCnnClassifier(vocabs[0], "tense", GlobalLocalConfig(embedding_dim=8))

    def test_single_token_span_works_with_wide_filters(self, vocabs):
        model = classifier_fixture(vocabs, SpanCnnClassifier)
        example = MaskedExample(tokens=["install"], mask=[1], gold=0)
        assert 0 <= model.classify(example) < len(model.labels)

    def test_label_is_argmax_of_logits(self, vocabs):
        model = classifier_fixture(vocabs, SpanCnnClassifier)
        example = MaskedExample(tokens="i install".split(), mask=[0, 1], gold=0)
        logits = model._logits(example.tokens, example.mask).values
        assert model.labels[model.classify(example)] == model.labels[int(logits.argmax())]


class TestGlobalLocal:
    def test_full_mask_with_shared_pooling_collapses(self, vocabs):
        model = classifier_fixture(vocabs, GlobalLocalClassifier, share_pooling_params=True)
        tokens = "i install the printer".split()
        rep = model.represent([tokens], [[1, 1, 1, 1]]).values
        d = model.global_pool.output_dim
        assert np.array_equal(rep[:, :d], rep[:, d:])

    def test_joint_order_global_then_local(self, vocabs):
        model = classifier_fixture(vocabs, GlobalLocalClassifier)
        tokens = "i install the printer".split()
        rep = model.represent([tokens], [[0, 1, 1, 0]]).values
        d = model.global_pool.output_dim
        local = model.represent([tokens[1:3]], [[1, 1]]).values
        assert rep.shape == (1, 2 * d)
        assert np.array_equal(rep[:, d:], local[:, d:])
        assert not np.array_equal(rep[:, :d], local[:, :d])

    def test_non_contiguous_mask_accepted(self, vocabs):
        model = classifier_fixture(vocabs, GlobalLocalClassifier)
        example = MaskedExample(tokens=["i", "install", "printer"], mask=[1, 0, 1], gold=0)
        assert model.labels[model.classify(example)] in model.labels
        # represent reads a raw mask's bits by truth, as a list filter does
        tokens = example.tokens
        truthy = model.represent([tokens], [[2, 0, True]]).values
        assert np.array_equal(truthy, model.represent([tokens], [[1, 0, 1]]).values)

    def test_unmasked_token_moves_global_not_local(self, vocabs):
        model = classifier_fixture(vocabs, GlobalLocalClassifier)
        tokens = "i install the printer".split()
        mask = [0, 1, 1, 0]
        d = model.global_pool.output_dim
        base = model.represent([tokens], [mask]).values
        changed = model.represent([["we"] + tokens[1:]], [mask]).values
        assert np.array_equal(base[:, d:], changed[:, d:])
        assert not np.array_equal(base[:, :d], changed[:, :d])

    def test_no_global_context_sees_span_only(self, vocabs):
        model = classifier_fixture(vocabs, GlobalLocalClassifier, use_global_context=False)
        rng = np.random.default_rng(1)
        words = ["i", "we", "install", "cancel", "the", "printer", "yesterday"]
        for _ in range(50):
            n = int(rng.integers(3, 8))
            tokens = [words[int(rng.integers(len(words)))] for _ in range(n)]
            mask = [int(b) for b in rng.integers(0, 2, size=n)]
            if not any(mask):
                mask[0] = 1
            mutated = [
                words[int(rng.integers(len(words)))] if not mask[i] else tokens[i]
                for i in range(n)
            ]
            a = model._logits(tokens, mask).values
            b = model._logits(mutated, mask).values
            assert np.array_equal(a, b)

    def test_separate_embeddings_give_two_tables(self, vocabs):
        model = classifier_fixture(vocabs, GlobalLocalClassifier, share_encoder_embedding=False)
        names = set(model.parameters())
        assert "global_embedding" in names and "local_embedding" in names
        assert "embedding" not in names

    def test_shared_pooling_single_param_group(self, vocabs):
        model = classifier_fixture(vocabs, GlobalLocalClassifier, share_pooling_params=True)
        names = set(model.parameters())
        assert any(n.startswith("pool.") for n in names)
        assert not any(n.startswith("global_pool.") for n in names)

    def test_local_path_preserves_token_order(self, vocabs):
        model = classifier_fixture(vocabs, GlobalLocalClassifier)
        tokens = ["install", "cancel", "printer"]
        d = model.global_pool.output_dim
        fwd = model.represent([tokens], [[1, 1, 1]]).values[:, d:]
        rev = model.represent([tokens[::-1]], [[1, 1, 1]]).values[:, d:]
        assert not np.array_equal(fwd, rev)

    def test_empty_mask_rejected(self, vocabs):
        model = classifier_fixture(vocabs, GlobalLocalClassifier)
        with pytest.raises(ModelError, match="mask"):
            model.represent([["a", "b"]], [[0, 0]])


FEATURE_MODELS = (FeatureTaggerFlat, FeatureTaggerCascaded, SpanCnnClassifier, GlobalLocalClassifier)


class TestLabellingInterface:
    TOKENS = "i install the printer and we cancel my folder".split()
    SPANS = [IntentSpan(0, 4, "install"), IntentSpan(5, 9, "cancel")]

    def make(self, vocabs, cls):
        if cls in (SpanCnnClassifier, GlobalLocalClassifier):
            return classifier_fixture(vocabs, cls)
        return cls(*vocabs, "tense", EncoderConfig(**SMALL_ENCODER))

    def test_one_labels_for_for_every_feature_model(self):
        assert len({cls.labels_for for cls in FEATURE_MODELS}) == 1

    @pytest.mark.parametrize("cls", FEATURE_MODELS, ids=lambda c: c.architecture)
    def test_feature_spans_needs_spans(self, vocabs, cls):
        model = self.make(vocabs, cls)
        with pytest.raises(TypeError):
            model.feature_spans(self.TOKENS)

    @pytest.mark.parametrize("cls", FEATURE_MODELS, ids=lambda c: c.architecture)
    def test_labels_for_aligns_feature_spans(self, vocabs, cls):
        model = self.make(vocabs, cls)
        fspans = model.feature_spans(self.TOKENS, self.SPANS)
        assert all(s.intent in model.labels for s in fspans)
        assert model.labels_for(self.TOKENS, self.SPANS) == align_feature_spans(self.SPANS, fspans, "tense")

    @pytest.mark.parametrize("cls", (SpanCnnClassifier, GlobalLocalClassifier), ids=lambda c: c.architecture)
    def test_classifier_labels_each_given_span_with_one_classify_call(self, vocabs, cls):
        model = self.make(vocabs, cls)
        calls = []

        def classify(example):
            calls.append(example)
            return type(model).classify(model, example)

        model.classify = classify
        fspans = model.feature_spans(self.TOKENS, self.SPANS)
        assert [(s.start, s.end) for s in fspans] == [(s.start, s.end) for s in self.SPANS]
        assert calls == [MaskedExample.for_span(self.TOKENS, s) for s in self.SPANS]
        expected = [model.labels[type(model).classify(model, e)] for e in calls]
        assert [s.intent for s in fspans] == expected
        assert model.labels_for(self.TOKENS, self.SPANS) == expected


def all_models(vocabs):
    word, char = vocabs
    encoder = EncoderConfig(**SMALL_ENCODER)
    return [
        IntentTagger(word, char, ["install", "cancel"], encoder, seed=5),
        FeatureTaggerFlat(word, char, "tense", encoder, seed=5),
        FeatureTaggerCascaded(word, char, "negation", encoder, seed=5, boundary_dim=3),
        SpanCnnClassifier(word, "modality", SpanCnnConfig(embedding_dim=8, filters_per_width=4), seed=5),
        GlobalLocalClassifier(word, "attr_cf", GlobalLocalConfig(embedding_dim=8, filters_per_width=4), seed=5),
    ]


# SHA-256 of each all_models bundle as serialize_model writes it (format 2)
BUNDLE_SHA256 = {
    "intent-tagger": "d8db1ed137e0da31eee0611e23f9d6d2131cec48e73b84667e89bf7e2858ae6c",
    "feature-tagger-flat": "f0a251dc6b481889682460806ac30ef33c1832e87d890132de0870b0d3626ffd",
    "feature-tagger-cascaded": "3f9faba365b972a69ed86a53f68cab70bbe03990c364bf207967134e4843b83f",
    "span-cnn": "4516e2aa6ff23ba47dadde764501b660b6c8ef4952c6e695f5cdaf3401588a31",
    "global-local": "3867cc6f56fb3603952adf69493bd478a7f8be0a90a86d6ae7499462bb69e320",
}
# SHA-256 of the same bundles as format 1 wrote them, values as lists of JSON numbers
FORMAT_1_SHA256 = {
    "intent-tagger": "1dfa649c96c19b04b30db38b12a7a068f8c3ef997ad8b6e6b3167c068488b3d4",
    "feature-tagger-flat": "f1b88797058e59d150c72cca3b08dacecc9a37cad6fcb76e0e0f4cb054963c61",
    "feature-tagger-cascaded": "b4421ddaf5cf014998220f1110fcc7a7ea19cdb380f6b2d5a162ea8f22236949",
    "span-cnn": "f8143676c2998ec4984c1086cd486ac047e9b6caa76406c1b68dc9983da426e8",
    "global-local": "ddcda7ccd7c4d1288b7e28e7108025bc82a24a4401f28b5160182309a748540b",
}


def _floats(text: str) -> np.ndarray:
    """The float64 values of a format-2 ``values`` string."""
    return np.frombuffer(base64.b64decode(text, validate=True), "<f8")


def _b64(values) -> str:
    return base64.b64encode(np.asarray(values, "<f8").tobytes()).decode("ascii")


def _as_format_1(bundle: dict) -> dict:
    """``bundle``, in place, as format 1 stores it: each tensor's values as a
    list of JSON numbers."""
    for entry in bundle["parameters"].values():
        entry["values"] = _floats(entry["values"]).tolist()
    bundle["format_version"] = 1
    return bundle


class TestSerialization:
    def test_bundle_bytes_are_pinned(self, vocabs, tmp_path):
        # a round trip cannot see a changed byte, such as a float written another way
        for model in all_models(vocabs):
            path = tmp_path / f"{model.architecture}.model.json"
            serialize_model(model, path)
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            assert digest == BUNDLE_SHA256[model.architecture], model.architecture

    def test_format_1_bundles_keep_their_bytes_and_load_bitwise(self, vocabs, tmp_path):
        new, old, resaved = tmp_path / "new.json", tmp_path / "old.json", tmp_path / "resaved.json"
        for model in all_models(vocabs):
            serialize_model(model, new)
            text = json.dumps(_as_format_1(json.loads(new.read_text())), sort_keys=True, allow_nan=False) + "\n"
            digest = hashlib.sha256(text.encode()).hexdigest()
            assert digest == FORMAT_1_SHA256[model.architecture], model.architecture
            old.write_text(text, encoding="utf-8")
            loaded = load_model(old)
            restored = loaded.parameters()
            for name, t in model.parameters().items():
                assert t.values.tobytes() == restored[name].values.tobytes(), name
            serialize_model(loaded, resaved)
            assert resaved.read_bytes() == new.read_bytes(), model.architecture

    def test_loaded_parameters_are_writable(self, vocabs, tmp_path):
        serialize_model(all_models(vocabs)[4], tmp_path / "m.json")
        for t in load_model(tmp_path / "m.json").parameters().values():
            t.values += 1.0

    def test_bundle_that_is_not_utf8_names_file(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_bytes(b"\xff\xfe{}")
        message = f"{path}: not a model bundle: 'utf-8' codec can't decode byte 0xff"
        with pytest.raises(ModelError, match=re.escape(message)):
            load_model(path)

    def test_deeply_nested_bundle_is_malformed(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"format_version": ' + "[" * 100_000 + "]" * 100_000 + "}", encoding="utf-8")
        with pytest.raises(ModelError, match=re.escape(f"{path}: not a model bundle: nested too deeply")):
            load_model(path)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_parameter_refused_and_old_bundle_kept(self, vocabs, tmp_path, bad):
        model = all_models(vocabs)[3]
        path = tmp_path / "m.json"
        serialize_model(model, path)
        before = path.read_bytes()
        model.parameters()["projection.bias"].values[0] = bad
        with pytest.raises(ModelError, match="tensor 'projection.bias' holds non-finite values"):
            serialize_model(model, path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_round_trip_bitwise_all_architectures(self, vocabs, tmp_path):
        for model in all_models(vocabs):
            path = tmp_path / f"{model.architecture}.model.json"
            serialize_model(model, path)
            loaded = load_model(path)
            assert loaded.architecture == model.architecture
            original = model.parameters()
            restored = loaded.parameters()
            assert set(original) == set(restored)
            for name in original:
                assert np.array_equal(original[name].values, restored[name].values), name

    def test_save_load_save_idempotent(self, vocabs, tmp_path):
        model = all_models(vocabs)[3]
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        serialize_model(model, first)
        serialize_model(load_model(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_predictions_identical_after_round_trip(self, vocabs, tmp_path):
        word, _ = vocabs
        model = GlobalLocalClassifier(word, "tense", GlobalLocalConfig(embedding_dim=8, filters_per_width=4), seed=9)
        path = tmp_path / "gl.json"
        serialize_model(model, path)
        loaded = load_model(path)
        rng = np.random.default_rng(2)
        words = ["i", "we", "install", "cancel", "the", "printer", "yesterday", "zzz"]
        for _ in range(100):
            n = int(rng.integers(1, 9))
            tokens = [words[int(rng.integers(len(words)))] for _ in range(n)]
            mask = [int(b) for b in rng.integers(0, 2, size=n)]
            if not any(mask):
                mask[int(rng.integers(n))] = 1
            example = MaskedExample(tokens=tokens, mask=mask, gold=0)
            assert model.classify(example) == loaded.classify(example)

    def test_corrupt_shape_names_tensor(self, vocabs, tmp_path):
        import json

        model = all_models(vocabs)[3]
        path = tmp_path / "m.json"
        serialize_model(model, path)
        bundle = json.loads(path.read_text())
        bundle["parameters"]["projection.bias"]["shape"] = [99]
        path.write_text(json.dumps(bundle))
        with pytest.raises(ModelError, match="projection.bias"):
            load_model(path)

    def test_non_finite_value_names_tensor(self, vocabs, tmp_path):
        import json

        model = all_models(vocabs)[0]
        path = tmp_path / "m.json"
        serialize_model(model, path)
        bundle = _as_format_1(json.loads(path.read_text()))
        bundle["parameters"]["projection.bias"]["values"][0] = float("nan")
        path.write_text(json.dumps(bundle))
        with pytest.raises(ModelError, match="projection.bias.*non-finite"):
            load_model(path)

    def test_version_mismatch(self, vocabs, tmp_path):
        import json

        model = all_models(vocabs)[0]
        path = tmp_path / "m.json"
        serialize_model(model, path)
        bundle = json.loads(path.read_text())
        bundle["format_version"] = FORMAT_VERSION + 1
        path.write_text(json.dumps(bundle))
        with pytest.raises(ModelError, match="format version"):
            load_model(path)

    def test_unknown_architecture(self, vocabs, tmp_path):
        import json

        model = all_models(vocabs)[0]
        path = tmp_path / "m.json"
        serialize_model(model, path)
        bundle = json.loads(path.read_text())
        bundle["architecture"] = "transformer"
        path.write_text(json.dumps(bundle))
        with pytest.raises(ModelError, match="architecture"):
            load_model(path)

    def test_missing_parameter_reported(self, vocabs, tmp_path):
        import json

        model = all_models(vocabs)[3]
        path = tmp_path / "m.json"
        serialize_model(model, path)
        bundle = json.loads(path.read_text())
        del bundle["parameters"]["embedding"]
        path.write_text(json.dumps(bundle))
        with pytest.raises(ModelError, match="embedding"):
            load_model(path)


def _bundle_of(model, tmp_path) -> dict:
    path = tmp_path / "m.json"
    serialize_model(model, path)
    return json.loads(path.read_text())


def _drop(*keys):
    def mutate(bundle):
        target = bundle
        for key in keys[:-1]:
            target = target[key]
        del target[keys[-1]]
        return bundle
    return mutate


def _set(value, *keys):
    def mutate(bundle):
        target = bundle
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        return bundle
    return mutate


def _edit_bias(key, edit):
    def mutate(bundle):
        entry = bundle["parameters"]["projection.bias"]
        entry[key] = edit(entry[key])
        return bundle
    return mutate


def _edit_format_1_bias(edit):
    return lambda bundle: _edit_bias("values", edit)(_as_format_1(bundle))


def _with_first_value(x):
    return _edit_bias("values", lambda v: _b64([x, *_floats(v)[1:]]))


NOT_NUMBERS = "tensor 'projection.bias' holds values that are not a flat list of numbers"
NOT_BASE64 = "tensor 'projection.bias' holds values that are not a base64 string"
WRONG_LENGTH = r"tensor 'projection.bias' has \d+ value bytes, expected \d+"
NON_FINITE = "tensor 'projection.bias' holds non-finite values"
MALFORMED_BUNDLES = {
    "top level is a list": (4, lambda bundle: [bundle], "top level is a list"),
    "config missing": (4, _drop("config"), r"bundle: missing keys \['config'\]"),
    "parameters missing": (4, _drop("parameters"), r"bundle: missing keys \['parameters'\]"),
    "unknown config key": (4, _set(0.5, "config", "dropout"), r"config: .*unknown keys \['dropout'\]"),
    "unknown nested config key": (
        4, _set(0.5, "config", "global_local", "dropout"),
        r"config.global_local: .*unknown keys \['dropout'\]",
    ),
    "parameter without shape": (
        4, _drop("parameters", "projection.bias", "shape"),
        r"parameters.projection.bias: missing keys \['shape'\]",
    ),
    "string vocabulary index": (
        4, _set("2", "vocabularies", "word", "printer"),
        "vocabularies.word: index '2' of 'printer' is not an integer",
    ),
    "string parameter value": (4, _edit_format_1_bias(lambda v: ["0.5"] + v[1:]), NOT_NUMBERS),
    "bool parameter values": (4, _edit_format_1_bias(lambda v: v[:-2] + [True, False]), NOT_NUMBERS),
    "nested parameter values": (4, _edit_format_1_bias(lambda v: [[x] for x in v]), NOT_NUMBERS),
    "null parameter value": (4, _edit_format_1_bias(lambda v: [None] + v[1:]), NOT_NUMBERS),
    "integer beyond the float range": (4, _edit_format_1_bias(lambda v: [10**400] + v[1:]), NON_FINITE),
    "format-2 values as a list": (4, _edit_bias("values", lambda v: _floats(v).tolist()), NOT_BASE64),
    "non-alphabet character in values": (4, _edit_bias("values", lambda v: v[:4] + "*" + v[4:]), NOT_BASE64),
    "values cut by 1 character": (4, _edit_bias("values", lambda v: v[:-1]), NOT_BASE64),
    "values cut by 4 characters": (4, _edit_bias("values", lambda v: v[:-4]), WRONG_LENGTH),
    "values cut by 8 characters": (4, _edit_bias("values", lambda v: v[:-8]), WRONG_LENGTH),
    "values with 8 extra bytes": (4, _edit_bias("values", lambda v: _b64([*_floats(v), 0.5])), WRONG_LENGTH),
    "NaN in values": (4, _with_first_value(float("nan")), NON_FINITE),
    "infinity in values": (4, _with_first_value(float("inf")), NON_FINITE),
    "negative infinity in values": (4, _with_first_value(float("-inf")), NON_FINITE),
    "float parameter shape": (
        4, _edit_bias("shape", lambda shape: [float(d) for d in shape]),
        r"tensor 'projection.bias' has shape \[\d+\.0\]",
    ),
    # the taggers' configs go through the same codec
    "tagger config without its encoder": (
        0, _drop("config", "encoder"), r"^config: missing keys \['encoder'\], unknown keys \[\]$",
    ),
    "unknown tagger encoder key": (
        2, _set(0.5, "config", "encoder", "dropout"), r"^config.encoder: missing keys \[\], unknown keys \['dropout'\]$",
    ),
    "unknown tagger config key": (
        1, _set(0.5, "config", "dropout"), r"^config: missing keys \[\], unknown keys \['dropout'\]$",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_BUNDLES))
def test_malformed_bundle_names_field(vocabs, tmp_path, case):
    index, mutate, message = MALFORMED_BUNDLES[case]
    bundle = _bundle_of(all_models(vocabs)[index], tmp_path)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(mutate(bundle)))
    with pytest.raises(ModelError, match=message):
        load_model(path)


def _flat_keys(config: dict, prefix: str = "") -> list[str]:
    keys = []
    for key, value in config.items():
        keys += _flat_keys(value, f"{prefix}{key}.") if isinstance(value, dict) else [prefix + key]
    return sorted(keys)


ENCODER_KEYS = [f"encoder.{k}" for k in (
    "char_embedding_dim", "char_filter_width", "char_filters", "lstm_hidden", "word_embedding_dims",
)]
TAGGER_PARAMETERS = [
    "bilstm.bwd_b", "bilstm.bwd_wh", "bilstm.bwd_wx", "bilstm.fwd_b", "bilstm.fwd_wh", "bilstm.fwd_wx",
    "crf.transitions", "encoder.char_conv_bias", "encoder.char_conv_filters", "encoder.char_table",
    "encoder.word_table_0", "projection.bias", "projection.weight",
]
CNN_KEYS = ["embedding_dim", "filter_widths", "filters_per_width"]
GLOBAL_LOCAL_KEYS = CNN_KEYS + ["share_encoder_embedding", "share_pooling_params", "use_global_context"]


def _pool(prefix: str) -> list[str]:
    return [f"{prefix}.width{w}.{p}" for w in (3, 4, 5) for p in ("bias", "filters")]


PROJECTION = ["projection.bias", "projection.weight"]

# Changing any of these changes what a bundle means on disk, so it needs a
# FORMAT_VERSION bump as well as a change here.
BUNDLE_FORMAT = {
    "intent-tagger": (
        sorted(["constrain_training", "labels", "seed"] + ENCODER_KEYS), ["char", "word"], TAGGER_PARAMETERS,
    ),
    "feature-tagger-flat": (
        sorted(["constrain_training", "dimension", "seed"] + ENCODER_KEYS), ["char", "word"], TAGGER_PARAMETERS,
    ),
    "feature-tagger-cascaded": (
        sorted(["boundary_dim", "constrain_training", "dimension", "seed"] + ENCODER_KEYS),
        ["char", "word"],
        sorted(TAGGER_PARAMETERS + ["boundary_table"]),
    ),
    "span-cnn": (
        ["cnn." + k for k in CNN_KEYS] + ["dimension", "seed"], ["word"],
        ["embedding"] + _pool("pool") + PROJECTION,
    ),
    "global-local": (
        ["dimension"] + ["global_local." + k for k in GLOBAL_LOCAL_KEYS] + ["seed"], ["word"],
        ["embedding"] + _pool("global_pool") + _pool("local_pool") + PROJECTION,
    ),
}


def test_bundle_format_is_pinned(vocabs, tmp_path):
    assert FORMAT_VERSION == 2
    for model in all_models(vocabs):
        bundle = _bundle_of(model, tmp_path)
        assert sorted(bundle) == ["architecture", "config", "format_version", "parameters", "vocabularies"]
        config_keys, vocab_names, parameter_names = BUNDLE_FORMAT[model.architecture]
        assert _flat_keys(bundle["config"]) == config_keys, model.architecture
        assert sorted(bundle["vocabularies"]) == vocab_names, model.architecture
        assert sorted(bundle["parameters"]) == parameter_names, model.architecture
        assert all(type(entry["values"]) is str for entry in bundle["parameters"].values())


@pytest.mark.parametrize("switch, names", [
    ("share_encoder_embedding", ["global_embedding", "local_embedding"] + _pool("global_pool") + _pool("local_pool")),
    ("share_pooling_params", ["embedding"] + _pool("pool")),
])
def test_global_local_ablation_parameter_names_are_pinned(vocabs, tmp_path, switch, names):
    value = switch == "share_pooling_params"
    config = GlobalLocalConfig(embedding_dim=8, filters_per_width=4, **{switch: value})
    bundle = _bundle_of(GlobalLocalClassifier(vocabs[0], "tense", config), tmp_path)
    assert sorted(bundle["parameters"]) == sorted(names + PROJECTION)


SMALL = st.integers(1, 3)


@st.composite
def small_models(draw, vocabs):
    word, char = vocabs
    arch = draw(st.sampled_from(sorted(ARCHITECTURES)))
    cls = ARCHITECTURES[arch]
    seed = draw(st.integers(0, 2**32 - 1))
    dimension = draw(st.sampled_from(sorted(FEATURE_DIMENSIONS)))
    if arch in CLASSIFIER_ARCHS:
        switches = {}
        if arch == "global-local":
            switches = {name: draw(st.booleans()) for name in (
                "share_encoder_embedding", "use_global_context", "share_pooling_params",
            )}
        config = cls.config_type(
            embedding_dim=draw(SMALL), filters_per_width=draw(SMALL),
            filter_widths=draw(st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True)), **switches,
        )
        return cls(word, dimension, config, seed=seed)
    encoder = EncoderConfig(
        word_embedding_dims=draw(st.lists(SMALL, min_size=1, max_size=2)), char_embedding_dim=draw(SMALL),
        char_filters=draw(SMALL), char_filter_width=draw(SMALL), lstm_hidden=draw(SMALL),
    )
    kwargs = dict(seed=seed, constrain_training=draw(st.booleans()))
    if arch == "feature-tagger-cascaded":
        kwargs["boundary_dim"] = draw(SMALL)
    if arch == "intent-tagger":
        intents = st.sampled_from(["cancel", "install", "refund"])
        return cls(word, char, draw(st.lists(intents, min_size=1, max_size=3, unique=True)), encoder, **kwargs)
    return cls(word, char, dimension, encoder, **kwargs)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), values=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=4))
def test_round_trip_random_models(vocabs, data, values):
    model = data.draw(small_models(vocabs))
    bias = model.parameters()["projection.bias"].values
    bias[: len(values)] = values[: bias.size]
    with tempfile.TemporaryDirectory() as root:
        first, second = Path(root) / "a.json", Path(root) / "b.json"
        serialize_model(model, first)
        loaded = load_model(first)
        serialize_model(loaded, second)
        assert first.read_bytes() == second.read_bytes()
    assert type(loaded) is type(model)
    restored = loaded.parameters()
    for name, t in model.parameters().items():
        assert np.array_equal(t.values, restored[name].values), name


def test_masked_examples_feed_classifiers(vocabs, corpus):
    examples = masked_examples(corpus[0], "tense")
    model = classifier_fixture(vocabs, GlobalLocalClassifier)
    with Tape() as tape:
        loss = model.loss(examples[0])
    assert loss.item() > 0


@pytest.mark.parametrize("gold", [1.7, True])
def test_a_gold_label_that_is_not_an_integer_is_refused(vocabs, gold):
    model = classifier_fixture(vocabs, GlobalLocalClassifier)
    with pytest.raises(ValueError, match=rf"^gold label {gold!r} out of range"):
        model.batch_loss([MaskedExample(tokens=["install"], mask=[1], gold=gold)])


def test_ids_reach_every_op_as_integer_arrays(vocabs, corpus, monkeypatch):
    # one training batch and one labelling call of each architecture: every
    # id argument of gather_rows, conv_relu_max and lstm_sequence is an
    # integer array, the type that takes _row_ids' one-pass check
    import spanfeat.tensor

    seen = []
    check = spanfeat.tensor._row_ids

    def recording(indices, rows, op, what):
        seen.append((op, indices))
        return check(indices, rows, op, what)

    monkeypatch.setattr(spanfeat.tensor, "_row_ids", recording)
    batch = [u for u in corpus[0] if u.spans and {s.intent for s in u.spans} <= {"install", "cancel"}][:4]
    for model in all_models(vocabs):
        examples = batch if isinstance(model, (IntentTagger, FeatureTaggerFlat)) else masked_examples(
            batch, model.dimension
        )
        with Tape():
            model.batch_loss(examples)
        if isinstance(model, IntentTagger):
            model.tag(batch[0].tokens)
        else:
            model.feature_spans(batch[0].tokens, batch[0].spans)
    assert {op for op, _ in seen} == {"gather_rows", "conv_relu_max", "lstm_sequence"}
    assert [
        (op, type(ids).__name__) for op, ids in seen if not (isinstance(ids, np.ndarray) and ids.dtype.kind in "iu")
    ] == []


BATCH_VARIANTS = {
    "span-cnn": (SpanCnnClassifier, {}),
    "global-local": (GlobalLocalClassifier, {}),
    "no-global-context": (GlobalLocalClassifier, {"use_global_context": False}),
    "two-embedding-tables": (GlobalLocalClassifier, {"share_encoder_embedding": False}),
    "shared-pooling": (GlobalLocalClassifier, {"share_pooling_params": True}),
}

# a one-token utterance, spans shorter than the widest filter, a non-contiguous
# mask, an unknown word and the longest utterance in the middle of the batch
RAGGED_BATCH = [
    MaskedExample(tokens=["install"], mask=[1], gold=0),
    MaskedExample(tokens="i will install the printer".split(), mask=[0, 1, 1, 0, 0], gold=2),
    MaskedExample(tokens="we cancel my folder and i install the zzz printer".split(),
                  mask=[0, 1, 1, 1, 0, 0, 1, 0, 1, 1], gold=1),
    MaskedExample(tokens="i cancel the printer".split(), mask=[1, 0, 1, 1], gold=0),
    MaskedExample(tokens="refund it".split(), mask=[0, 1], gold=1),
]


def _batch_logits(model, examples):
    rep = model.represent([e.tokens for e in examples], [e.mask for e in examples])
    return model.projection.apply(rep).values


@pytest.mark.parametrize("variant", sorted(BATCH_VARIANTS))
def test_batched_forward_and_gradients_match_one_span_at_a_time(vocabs, variant):
    cls, switches = BATCH_VARIANTS[variant]
    model = classifier_fixture(vocabs, cls, **switches)
    params = model.parameters()

    def gradients(step) -> tuple[float, dict]:
        for t in params.values():
            t.zero_grad()
        value = step()
        return value, {name: t.grad.copy() for name, t in params.items()}

    def batched() -> float:
        with Tape() as tape:
            loss = model.batch_loss(RAGGED_BATCH)
        tape.backward(loss)
        return loss.item()

    def looped() -> float:
        total = 0.0
        for example in RAGGED_BATCH:
            with Tape() as tape:
                loss = model.loss(example)
            tape.backward(loss, seed=1.0 / len(RAGGED_BATCH))
            total += loss.item()
        return total / len(RAGGED_BATCH)

    batch_value, batch_grads = gradients(batched)
    loop_value, loop_grads = gradients(looped)
    assert abs(batch_value - loop_value) < 1e-12
    for name in params:
        assert np.max(np.abs(batch_grads[name] - loop_grads[name])) < 1e-12, name
    assert any(np.any(g != 0.0) for g in batch_grads.values())

    rep = model.represent([e.tokens for e in RAGGED_BATCH], [e.mask for e in RAGGED_BATCH]).values
    for row, example in enumerate(RAGGED_BATCH):
        one = model.represent([example.tokens], [example.mask]).values
        assert np.max(np.abs(rep[row] - one[0])) < 1e-12, row
        assert np.max(np.abs(_batch_logits(model, RAGGED_BATCH)[row] - model._logits(example).values)) < 1e-12


@pytest.mark.parametrize("variant", sorted(BATCH_VARIANTS))
def test_row_logits_do_not_depend_on_the_rest_of_the_batch(vocabs, variant):
    cls, switches = BATCH_VARIANTS[variant]
    model = classifier_fixture(vocabs, cls, **switches)
    target = RAGGED_BATCH[1]
    alone = _batch_logits(model, [target])[0]
    longest = RAGGED_BATCH[2]
    for batch, row in (
        (RAGGED_BATCH, 1),                       # padded to the longest utterance
        ([RAGGED_BATCH[0], target], 1),          # padded only to its own length
        ([target, longest, longest], 0),         # other rows changed
        ([RAGGED_BATCH[3], RAGGED_BATCH[4], target], 2),
    ):
        assert np.max(np.abs(_batch_logits(model, batch)[row] - alone)) < 1e-12


def test_batch_loss_is_one_tape_per_batch(vocabs):
    model = classifier_fixture(vocabs, GlobalLocalClassifier)
    with Tape() as one:
        model.batch_loss(RAGGED_BATCH[:1])
    with Tape() as five:
        model.batch_loss(RAGGED_BATCH)
    assert len(one) == len(five)
    # each view reads its embedding table inside its one conv node
    for tape in (one, five):
        ops = [step.__qualname__.split(".")[0] for step in tape._steps]
        assert "gather_rows" not in ops and ops.count("conv_relu_max") == 2


SHARED_VIEW_VARIANTS = {**COMPARISON_ROLES, "shared-pooling": (GlobalLocalClassifier, {"share_pooling_params": True})}

# one, two and three spans, with tokens repeated inside a span, across spans
# and outside them, and two spans over the same words
SHARED_VIEW_UTTERANCES = [
    ("i install the the printer".split(), [IntentSpan(1, 5, "install")]),
    ("we cancel the order and we cancel the order".split(), [IntentSpan(0, 4, "cancel"), IntentSpan(5, 9, "cancel")]),
    ("refund it now refund it and install it".split(),
     [IntentSpan(0, 2, "refund"), IntentSpan(3, 5, "refund"), IntentSpan(6, 8, "install")]),
]


def _logged_logits(model) -> list[np.ndarray]:
    """Route the model's ``_logits`` through a log of the values it returns."""
    log = []

    def logits(tokens, mask=None):
        out = type(model)._logits(model, tokens, mask)
        log.append(out.values.copy())
        return out

    model._logits = logits
    return log


def _alone(model, tokens, span) -> np.ndarray:
    """The logits of one span labelled alone, outside ``feature_spans``."""
    return type(model)._logits(model, tokens, MaskedExample.for_span(tokens, span).mask).values


class TestSharedGlobalView:
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("variant", sorted(SHARED_VIEW_VARIANTS))
    def test_labels_match_one_span_logits(self, vocabs, variant, seed):
        cls, switches = SHARED_VIEW_VARIANTS[variant]
        model = cls(vocabs[0], "tense", cls.config_type(embedding_dim=8, filters_per_width=4, **switches), seed=seed)
        for tokens, spans in SHARED_VIEW_UTTERANCES:
            log = _logged_logits(model)
            labels = [s.intent for s in model.feature_spans(tokens, spans)]
            alone = [_alone(model, tokens, s) for s in spans]
            assert labels == [model.labels[int(a.argmax())] for a in alone]
            assert len(log) == len(spans) and all(np.array_equal(a, b) for a, b in zip(log, alone))

    def test_held_view_never_outlives_its_call(self, vocabs):
        # span-cnn holds the utterance's word ids alone, global-local its
        # global view too
        for cls in (GlobalLocalClassifier, SpanCnnClassifier):
            model = classifier_fixture(vocabs, cls)
            held = []

            def classify(example, model=model, held=held):
                held.append(model._held_view is not None)
                return type(model).classify(model, example)

            model.classify = classify
            tokens, spans = SHARED_VIEW_UTTERANCES[2]
            model.feature_spans(tokens, spans)
            assert held == [True] * len(spans) and model._held_view is None
            # the second span runs past the utterance, so MaskedExample.for_span raises
            with pytest.raises(CorpusError, match="mask length"):
                model.feature_spans(tokens[:4], spans)
            assert held[len(spans):] == [True] and model._held_view is None

    @pytest.mark.parametrize("variant", sorted(SHARED_VIEW_VARIANTS))
    def test_logits_are_the_projection_node_bit_for_bit(self, vocabs, variant):
        # off the tape, _logits projects the (1, d) row as one numpy
        # expression; it must give the bits of the projection's tape nodes
        cls, switches = SHARED_VIEW_VARIANTS[variant]
        model = classifier_fixture(vocabs, cls, **switches)
        for tokens, spans in SHARED_VIEW_UTTERANCES:
            for span in spans:
                mask = MaskedExample.for_span(tokens, span).mask
                nodes = model.projection.apply(model.represent([tokens], [mask])).values[0]
                assert np.array_equal(model._logits(tokens, mask).values, nodes)

    def test_labels_follow_a_parameter_update(self, vocabs):
        model = classifier_fixture(vocabs, GlobalLocalClassifier)
        tokens, spans = SHARED_VIEW_UTTERANCES[1]
        before = [_alone(model, tokens, s) for s in spans]
        model.feature_spans(tokens, spans)
        params = model.parameters()
        with Tape() as tape:
            loss = model.batch_loss(RAGGED_BATCH)
        tape.backward(loss)
        Adadelta(params, AdadeltaConfig()).step()
        log = _logged_logits(model)
        labels = [s.intent for s in model.feature_spans(tokens, spans)]
        after = [_alone(model, tokens, s) for s in spans]
        assert not any(np.array_equal(a, b) for a, b in zip(before, after))
        assert all(np.array_equal(a, b) for a, b in zip(log, after))
        assert labels == [model.labels[int(a.argmax())] for a in after]

    # conv_relu_max calls of one feature_spans call over S spans: once + per_span * S
    @pytest.mark.parametrize("variant, once, per_span", [
        ("global-local", 1, 1),
        ("no-shared-embedding", 1, 1),
        ("shared-pooling", 1, 1),
        ("no-global-context", 0, 2),
        ("span-cnn", 0, 1),
    ])
    def test_conv_calls_per_labelling_call_are_pinned(self, vocabs, monkeypatch, variant, once, per_span):
        cls, switches = SHARED_VIEW_VARIANTS[variant]
        model = classifier_fixture(vocabs, cls, **switches)
        count = [0]

        def counted(*args):
            count[0] += 1
            return conv_relu_max(*args)

        monkeypatch.setattr("spanfeat.models.conv_relu_max", counted)
        for tokens, spans in SHARED_VIEW_UTTERANCES:
            count[0] = 0
            model.feature_spans(tokens, spans)
            assert count[0] == once + per_span * len(spans), len(spans)


TAGGER_VARIANTS = {
    "intent-tagger": lambda vocabs, intents: IntentTagger(*vocabs, intents, EncoderConfig(**SMALL_ENCODER)),
    "feature-tagger-flat": lambda vocabs, _: FeatureTaggerFlat(*vocabs, "tense", EncoderConfig(**SMALL_ENCODER)),
    "feature-tagger-cascaded": lambda vocabs, _: FeatureTaggerCascaded(
        *vocabs, "tense", EncoderConfig(**SMALL_ENCODER), boundary_dim=3
    ),
}


@pytest.mark.parametrize("variant", sorted(TAGGER_VARIANTS))
def test_gold_tag_ids_are_positions_in_the_tag_list(vocabs, corpus, variant):
    intents = sorted({s.intent for u in corpus[0] for s in u.spans})
    model = TAGGER_VARIANTS[variant](vocabs, intents)
    for u in corpus[0] + corpus[1] + corpus[2]:
        tags = encode_iobes(u.spans, len(u.tokens), key=model.dimension)
        assert model._gold_tag_ids(u) == [model.tags.index(t) for t in tags]
    if variant == "intent-tagger":  # feature values are checked when a span is made
        with pytest.raises(ModelError, match="gold tag 'S-unheard' is not one of the model's tags"):
            model._gold_tag_ids(AnnotatedUtterance(["a", "b"], [IntentSpan(1, 2, "unheard")]))


def _ragged_utterances(corpus):
    """Four corpus utterances with a one-token utterance second."""
    first = corpus[0][0]
    span = first.spans[0]
    one = AnnotatedUtterance(tokens=first.tokens[span.start : span.start + 1],
                             spans=[IntentSpan(0, 1, span.intent, dict(span.features))])
    return [corpus[0][1], one] + corpus[0][2:5]


def test_tagger_batch_loss_is_mean_of_losses(vocabs, corpus):
    utterances = _ragged_utterances(corpus)
    intents = sorted({s.intent for u in corpus[0] for s in u.spans})
    for arch, make in TAGGER_VARIANTS.items():
        model = make(vocabs, intents)
        params = model.parameters()
        with Tape() as tape:
            loss = model.batch_loss(utterances)
        tape.backward(loss)
        batch_grads = {name: t.grad.copy() for name, t in params.items()}
        for t in params.values():
            t.zero_grad()
        total = 0.0
        for utterance in utterances:
            with Tape() as tape:
                one = model.loss(utterance)
            tape.backward(one, seed=1.0 / len(utterances))
            total += one.item()
        assert abs(loss.item() - total / len(utterances)) < 1e-12, arch
        for name, t in params.items():
            assert np.max(np.abs(batch_grads[name] - t.grad)) < 1e-12, (arch, name)
            assert np.any(batch_grads[name] != 0.0), (arch, name)


@pytest.mark.parametrize("arch", sorted(TAGGER_VARIANTS))
def test_tagger_row_emissions_do_not_depend_on_the_rest_of_the_batch(vocabs, corpus, arch):
    utterances = _ragged_utterances(corpus)
    model = TAGGER_VARIANTS[arch](vocabs, sorted({s.intent for u in corpus[0] for s in u.spans}))
    for batch in (utterances, utterances[::-1], utterances[1:2] + utterances[3:], utterances[:1] * 3):
        emissions, lengths = model._packed_emissions(batch)
        assert lengths == [len(u.tokens) for u in batch]
        starts = np.cumsum([0] + lengths[:-1])
        for utterance, a, n in zip(batch, starts, lengths):
            alone = model._emissions(utterance).values
            assert np.max(np.abs(emissions.values[a : a + n] - alone)) < 1e-12


@pytest.mark.parametrize("arch", sorted(TAGGER_VARIANTS))
def test_tagger_batch_loss_tape_does_not_grow_with_the_batch(vocabs, corpus, arch):
    utterances = _ragged_utterances(corpus)
    model = TAGGER_VARIANTS[arch](vocabs, sorted({s.intent for u in corpus[0] for s in u.spans}))
    with Tape() as one:
        model.batch_loss(utterances[:1])
    with Tape() as five:
        model.batch_loss(utterances)
    assert len(one) == len(five)


@pytest.mark.parametrize("arch", sorted(TAGGER_VARIANTS))
def test_tagger_batch_loss_reads_one_table_of_distinct_tokens(vocabs, corpus, arch):
    # two word tables: one gather each over the distinct spellings (and one
    # over the boundary bits), one char-CNN node, one concat, and the BiLSTM
    # reads the table by ids, so no gather spreads char rows over positions
    config = EncoderConfig(**dict(SMALL_ENCODER, word_embedding_dims=[8, 3]))
    intents = sorted({s.intent for u in corpus[0] for s in u.spans})
    model = {
        "intent-tagger": lambda: IntentTagger(*vocabs, intents, config),
        "feature-tagger-flat": lambda: FeatureTaggerFlat(*vocabs, "tense", config),
        "feature-tagger-cascaded": lambda: FeatureTaggerCascaded(*vocabs, "tense", config, boundary_dim=3),
    }[arch]()
    utterances = _ragged_utterances(corpus)
    with Tape() as tape:
        model.batch_loss(utterances)
    ops = [step.__qualname__.split(".")[0] for step in tape._steps]
    cascaded = arch == "feature-tagger-cascaded"
    assert ops.count("gather_rows") == 2 + cascaded
    assert [ops.count(op) for op in ("conv_relu_max", "concat", "lstm_sequence")] == [1, 1, 1]

    table, ids = model._token_table(utterances)
    keys = [t for u in utterances for t in u.tokens]
    if cascaded:
        bits = [[int(any(s.start <= i < s.end for s in u.spans)) for i in range(len(u.tokens))] for u in utterances]
        keys = list(zip(keys, [b for row in bits for b in row]))
    distinct = list(dict.fromkeys(keys))
    assert table.shape[0] == len(distinct) < len(keys)
    assert [distinct[i] for i in ids] == keys


MISTYPED_CONFIGS = {
    "intent tagger with a string flag": (0, _set("no", "config", "constrain_training"), "config.constrain_training"),
    "intent tagger with a boolean seed": (0, _set(True, "config", "seed"), "config.seed"),
    "tagger with a string encoder size": (1, _set("4", "config", "encoder", "lstm_hidden"), "config.encoder.lstm_hidden"),
    "intent labels not strings": (0, _set([1, 2], "config", "labels"), "config.labels"),
    "cascaded boundary size as a float": (2, _set(3.0, "config", "boundary_dim"), "config.boundary_dim"),
    "classifier with a boolean filter count": (
        4, _set(True, "config", "global_local", "filters_per_width"), "config.global_local.filters_per_width",
    ),
    "span-cnn widths with a string": (3, _set([3, "4"], "config", "cnn", "filter_widths"), "config.cnn.filter_widths"),
    "classifier with a numeric dimension": (4, _set(5, "config", "dimension"), "config.dimension"),
}


@pytest.mark.parametrize("case", sorted(MISTYPED_CONFIGS))
def test_mistyped_config_value_names_field(vocabs, tmp_path, case):
    index, mutate, field_name = MISTYPED_CONFIGS[case]
    bundle = _bundle_of(all_models(vocabs)[index], tmp_path)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(mutate(bundle)))
    with pytest.raises(ModelError, match=rf"^{field_name} must be of type "):
        load_model(path)


@pytest.mark.parametrize("index, key", [(3, "cnn"), (4, "global_local")])
def test_duplicate_filter_widths_rejected(vocabs, tmp_path, index, key):
    # the conv banks and their parameter names are keyed by width, so a
    # repeated width would build one bank and use it twice
    config_type = type(all_models(vocabs)[index].config)
    for widths in ([3, 3], [3, 4, 3]):
        with pytest.raises(ValueError, match=rf"^filter widths must be distinct, got {re.escape(str(widths))}$"):
            config_type(filter_widths=widths)
    bundle = _set([5, 4, 5], "config", key, "filter_widths")(_bundle_of(all_models(vocabs)[index], tmp_path))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bundle))
    with pytest.raises(ModelError, match=rf"^config\.{key}: filter widths must be distinct, got \[5, 4, 5\]$"):
        load_model(path)


@pytest.mark.parametrize("labels", [["install", "install"], ["cancel", "install", "cancel"], []])
def test_repeated_or_missing_tagger_labels_rejected(vocabs, labels):
    # each label owns four IOBES tags, so a repeat would build a second,
    # unreachable set of them and no label would leave only O
    word, char = vocabs
    message = rf"^a tagger needs at least one label and no label twice, got {re.escape(str(labels))}$"
    with pytest.raises(ModelError, match=message):
        IntentTagger(word, char, labels, EncoderConfig(**SMALL_ENCODER))


@pytest.mark.parametrize("labels", [["install", "install"], []])
def test_bundle_with_repeated_or_missing_labels_rejected(vocabs, tmp_path, labels):
    # ["install", "install"] keeps the stored tensor shapes of two labels
    bundle = _set(labels, "config", "labels")(_bundle_of(all_models(vocabs)[0], tmp_path))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bundle))
    message = rf"^a tagger needs at least one label and no label twice, got {re.escape(str(labels))}$"
    with pytest.raises(ModelError, match=message):
        load_model(path)


@pytest.fixture(scope="module")
def serialized_small_models(vocabs):
    with tempfile.TemporaryDirectory() as root:
        bundles = [_bundle_of(model, Path(root)) for model in all_models(vocabs)]
    return bundles + [_as_format_1(json.loads(json.dumps(b))) for b in bundles]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_bundles_load_or_raise_model_error(mutate_json, serialized_small_models, data):
    bundle = json.loads(json.dumps(data.draw(st.sampled_from(serialized_small_models))))
    mutate_json(data, bundle)
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "m.json"
        path.write_text(json.dumps(bundle))
        try:
            load_model(path)
        except ModelError:
            pass


def _labelling_corpus(corpus):
    """The test split and an utterance with a one-token span."""
    return corpus[2] + [AnnotatedUtterance(tokens="we install it now".split(), spans=[IntentSpan(1, 2, "install")])]


def _in_blocks(model, label, utterances):
    """``label(utterances)`` outside any block, in one block, and in
    another block over the utterances in reverse order, put back in order."""
    outside = label(utterances)
    with fixed(model.parameters().values()):
        inside = label(utterances)
        assert _FIXED[-1][1]  # the conv calls read a memo
    with fixed(model.parameters().values()):
        reverse = label(utterances[::-1])
    return outside, inside, [part[::-1] for part in reverse]


class TestFixedBlockOutputs:
    """A ``fixed`` block changes no label or path: logits agree to 1e-12,
    bit for bit but where a conv call has one position (a one-token span),
    and blocks filled in opposite orders agree bit for bit."""

    @pytest.mark.parametrize("role", sorted(COMPARISON_ROLES))
    def test_classifier_labels_and_logits(self, corpus, vocabs, role):
        cls, switches = COMPARISON_ROLES[role]
        model = cls(vocabs[0], "tense", cls.config_type(**switches), seed=2)
        utterances = _labelling_corpus(corpus)

        def label(utterances):
            labels = [[s.intent for s in model.feature_spans(u.tokens, u.spans)] for u in utterances]
            logits = [
                [model._logits(u.tokens, MaskedExample.for_span(u.tokens, s).mask).values for s in u.spans]
                for u in utterances
            ]
            return labels, logits

        (labels, logits), (labels_in, logits_in), (labels_rev, logits_rev) = _in_blocks(model, label, utterances)
        assert labels_in == labels_rev == labels
        spans = [s for u in utterances for s in u.spans]
        assert any(s.end - s.start == 1 for s in spans)
        flat = [sum(part, []) for part in (logits, logits_in, logits_rev)]
        for span, alone, inside, reverse in zip(spans, *flat):
            assert np.array_equal(inside, reverse)
            np.testing.assert_allclose(inside, alone, rtol=1e-12, atol=0)
            if span.end - span.start > 1:
                assert np.array_equal(inside, alone)

    @pytest.mark.parametrize("arch", ["intent-tagger", "feature-tagger-cascaded"])
    def test_tagger_paths_and_emissions(self, corpus, vocabs, arch):
        # the char-CNN is one packed call of many rows through the memo
        model = next(m for m in all_models(vocabs) if m.architecture == arch)
        utterances = _labelling_corpus(corpus)

        def label(utterances):
            return [model.decode(u) for u in utterances], [model._emissions(u).values for u in utterances]

        (paths, emissions), (paths_in, emissions_in), (paths_rev, emissions_rev) = _in_blocks(
            model, label, utterances
        )
        assert paths_in == paths_rev == paths
        assert all(np.array_equal(a, b) and np.array_equal(a, c)
                   for a, b, c in zip(emissions, emissions_in, emissions_rev))
