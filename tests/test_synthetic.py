import hashlib
import json
import random

import pytest

from spanfeat.data import FEATURE_DIMENSIONS, utterance_to_json
from spanfeat.synthetic import (
    CUE_WORDS,
    INTENT_VERBS,
    OBJECT_NOUNS,
    SyntheticConfig,
    generate_synthetic,
    generate_utterances,
    span_only_bayes_accuracy,
)


def corpus_fingerprint(corpus):
    return "\n".join(json.dumps(utterance_to_json(u), sort_keys=True) for u in corpus)


def span_tokens(u, s):
    return u.tokens[s.start : s.end]


def cue_in_span(u, s, dimension):
    cue = CUE_WORDS[dimension][s.features[dimension]]
    return cue in span_tokens(u, s)


class TestDeterminismAndShape:
    def test_same_seed_identical(self):
        a = generate_synthetic(SyntheticConfig(train_size=50, dev_size=10, test_size=10))
        b = generate_synthetic(SyntheticConfig(train_size=50, dev_size=10, test_size=10))
        for left, right in zip(a, b):
            assert corpus_fingerprint(left) == corpus_fingerprint(right)

    def test_different_seed_differs(self):
        a = generate_synthetic(SyntheticConfig(train_size=50, dev_size=10, test_size=10, seed=7))
        b = generate_synthetic(SyntheticConfig(train_size=50, dev_size=10, test_size=10, seed=8))
        assert corpus_fingerprint(a[0]) != corpus_fingerprint(b[0])

    @pytest.mark.parametrize("config, digest", [
        (
            SyntheticConfig(train_size=50, dev_size=10, test_size=10),
            "d784e07776fdf60402852ead1abb335b35ba7ddd96aebdfdd87cf016331306f0",
        ),
        (
            SyntheticConfig(
                train_size=50, dev_size=10, test_size=10, seed=3, rho=0.2,
                rho_by_dimension={"tense": 0.0, "negation": 0.9},
            ),
            "798f0225075d89ed4dbd19b180a89510a9c324e7926ed822cddc45d4064da809",
        ),
    ], ids=["default", "rho-by-dimension"])
    def test_corpus_bytes_are_pinned(self, config, digest):
        # a moved random draw changes these bytes; equality within one run would not see it
        text = "\n".join(corpus_fingerprint(split) for split in generate_synthetic(config))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_sizes(self):
        train, dev, test = generate_synthetic(SyntheticConfig(train_size=20, dev_size=5, test_size=8))
        assert (len(train), len(dev), len(test)) == (20, 5, 8)

    def test_all_rows_fully_annotated(self):
        train, dev, test = generate_synthetic(SyntheticConfig(train_size=30, dev_size=5, test_size=5))
        for corpus in (train, dev, test):
            for u in corpus:
                u.require_full_features()
                assert 1 <= len(u.spans) <= 3

    def test_span_count_respects_max(self):
        train, _, _ = generate_synthetic(SyntheticConfig(train_size=40, dev_size=1, test_size=1, max_spans=1))
        assert all(len(u.spans) == 1 for u in train)

    def test_object_fillers_disjoint_across_partitions(self):
        train, dev, test = generate_synthetic(SyntheticConfig(train_size=200, dev_size=100, test_size=100))
        nouns = {name: set(OBJECT_NOUNS[name]) for name in OBJECT_NOUNS}
        assert not nouns["train"] & nouns["dev"]
        assert not nouns["train"] & nouns["test"]
        assert not nouns["dev"] & nouns["test"]
        for corpus, name in ((train, "train"), (dev, "dev"), (test, "test")):
            for u in corpus:
                for s in u.spans:
                    assert u.tokens[s.end - 1] in nouns[name]

    def test_intents_distinct_within_utterance(self):
        train, _, _ = generate_synthetic(SyntheticConfig(train_size=100, dev_size=1, test_size=1))
        for u in train:
            intents = [s.intent for s in u.spans]
            assert len(intents) == len(set(intents))

    def test_verb_identifies_intent(self):
        verb_to_intent = {v: i for i, verbs in INTENT_VERBS.items() for v in verbs}
        train, _, _ = generate_synthetic(SyntheticConfig(train_size=100, dev_size=1, test_size=1))
        for u in train:
            for s in u.spans:
                verbs = [t for t in span_tokens(u, s) if t in verb_to_intent]
                assert len(verbs) == 1
                assert verb_to_intent[verbs[0]] == s.intent


class TestGlobalConsistency:
    def test_all_spans_share_labels_per_dimension(self):
        train, _, _ = generate_synthetic(SyntheticConfig(train_size=150, dev_size=1, test_size=1))
        for u in train:
            for dim in FEATURE_DIMENSIONS:
                values = {s.features[dim] for s in u.spans}
                assert len(values) == 1

    def test_utterance_always_contains_every_cue(self):
        # cue absent from all spans must appear in the trailing zone
        train, _, _ = generate_synthetic(SyntheticConfig(train_size=150, dev_size=1, test_size=1))
        for u in train:
            for dim in FEATURE_DIMENSIONS:
                cue = CUE_WORDS[dim][u.spans[0].features[dim]]
                assert cue in u.tokens

    def test_out_of_span_cues_follow_marker(self):
        train, _, _ = generate_synthetic(SyntheticConfig(train_size=150, dev_size=1, test_size=1))
        for u in train:
            last_span_end = u.spans[-1].end
            tail = u.tokens[last_span_end:]
            if tail:
                assert tail[0] == "btw"

    def test_cue_words_bijective(self):
        seen = {}
        for dim, mapping in CUE_WORDS.items():
            assert set(mapping) == set(FEATURE_DIMENSIONS[dim])
            for label, cue in mapping.items():
                assert cue not in seen, f"cue {cue} reused"
                seen[cue] = (dim, label)


class TestRhoContract:
    def _carry_rate(self, rho, dimension="tense", n=4000):
        config = SyntheticConfig(train_size=n, dev_size=1, test_size=1, rho_by_dimension={dimension: rho})
        train, _, _ = generate_synthetic(config)
        spans = [(u, s) for u in train for s in u.spans]
        carried = sum(cue_in_span(u, s, dimension) for u, s in spans)
        return carried / len(spans)

    def test_rho_zero_never_in_span(self):
        assert self._carry_rate(0.0) == 0.0

    def test_rho_one_always_in_span(self):
        assert self._carry_rate(1.0) == 1.0

    def test_rho_half_close_to_half(self):
        assert abs(self._carry_rate(0.5) - 0.5) < 0.02


class TestBayesOracle:
    def test_rho_one_is_perfect(self):
        config = SyntheticConfig(rho=1.0)
        for dim in FEATURE_DIMENSIONS:
            assert span_only_bayes_accuracy(config, dim) == pytest.approx(1.0)

    def test_rho_zero_is_majority_rate(self):
        config = SyntheticConfig(rho=0.0)
        assert span_only_bayes_accuracy(config, "negation") == pytest.approx(0.5)
        assert span_only_bayes_accuracy(config, "tense") == pytest.approx(1 / 3)

    @staticmethod
    def _enumerated(rho, labels):
        # sum over (label, cue in span) outcomes: a span with its cue is read
        # right, one without it is right only for the label guessed blind
        correct = 0.0
        for index in range(labels):
            for cue_in_span in (True, False):
                p_outcome = (1.0 / labels) * (rho if cue_in_span else 1.0 - rho)
                if cue_in_span or index == 0:
                    correct += p_outcome
        return correct

    def test_closed_form_matches_enumeration(self):
        for dim, labels in FEATURE_DIMENSIONS.items():
            for rho in (0.0, 0.5, 1.0):
                assert span_only_bayes_accuracy(SyntheticConfig(rho=rho), dim) == self._enumerated(rho, len(labels))
            for step in range(21):
                rho = step * 0.05
                closed = span_only_bayes_accuracy(SyntheticConfig(rho=rho), dim)
                assert abs(closed - self._enumerated(rho, len(labels))) <= 1e-15
        # the closed form is exact where the sum rounds: 0.25 + 0.75 / 5
        assert span_only_bayes_accuracy(SyntheticConfig(rho=0.25), "communicative_function") == 0.4
        assert self._enumerated(0.25, 5) == 0.39999999999999997

    def test_uniform_three_way_at_half(self):
        # half the spans read the cue, the rest fall back on a 1/3 guess
        config = SyntheticConfig(rho=0.5)
        assert span_only_bayes_accuracy(config, "tense") == pytest.approx(0.5 + 0.5 / 3)

    def test_monotone_in_rho(self):
        values = [
            span_only_bayes_accuracy(SyntheticConfig(rho=r), "communicative_function")
            for r in (0.0, 0.25, 0.5, 0.75, 1.0)
        ]
        assert values == sorted(values)
        assert values[0] == pytest.approx(0.2)

    def test_oracle_assumption_grounded_in_generator(self):
        # span tokens other than the cue carry no information about the label:
        # strip the cue and the remaining multiset distribution must not depend
        # on the label (checked via verb/subject/determiner independence)
        config = SyntheticConfig(train_size=4000, dev_size=1, test_size=1)
        train, _, _ = generate_synthetic(config)
        by_label = {}
        for u in train:
            for s in u.spans:
                label = s.features["tense"]
                non_cue = [
                    t
                    for t in span_tokens(u, s)
                    if t not in CUE_WORDS["tense"].values()
                ]
                by_label.setdefault(label, []).append(len(non_cue))
        means = {k: sum(v) / len(v) for k, v in by_label.items()}
        spread = max(means.values()) - min(means.values())
        assert spread < 0.15


class TestConfigValidation:
    def test_rejects_bad_rho(self):
        with pytest.raises(ValueError):
            SyntheticConfig(rho=1.5)
        with pytest.raises(ValueError):
            SyntheticConfig(rho_by_dimension={"tense": -0.1})

    def test_rejects_unknown_dimension(self):
        with pytest.raises(ValueError, match="unknown dimension"):
            SyntheticConfig(rho_by_dimension={"mood": 0.5})

    def test_rejects_empty_sizes(self):
        with pytest.raises(ValueError):
            SyntheticConfig(train_size=0)

    def test_generate_utterances_uses_partition(self):
        rng = random.Random(3)
        rows = generate_utterances(rng, SyntheticConfig(), 50, "dev")
        dev_nouns = set(OBJECT_NOUNS["dev"])
        for u in rows:
            assert u.tokens[u.spans[-1].end - 1] in dev_nouns
