import json
import os
import re

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
    decode_iobes,
    encode_iobes,
    iobes_tag_set,
    load_corpus,
    build_vocabularies,
    masked_examples,
    save_corpus,
    utterance_from_json,
    utterance_to_json,
    write_text_atomic,
)

FULL = {
    "communicative_function": "inform",
    "attr_cf": "self",
    "attr_ev": "self",
    "negation": "positive",
    "tense": "present",
    "modality": "other",
}


class TestTypes:
    def test_feature_dimension_cardinalities(self):
        sizes = {d: len(v) for d, v in FEATURE_DIMENSIONS.items()}
        assert sizes == {
            "communicative_function": 5,
            "attr_cf": 2,
            "attr_ev": 2,
            "negation": 2,
            "tense": 3,
            "modality": 3,
        }

    def test_span_rejects_empty_range(self):
        with pytest.raises(CorpusError):
            IntentSpan(2, 2, "install")

    def test_span_rejects_unknown_feature_value(self):
        with pytest.raises(CorpusError, match="tense"):
            IntentSpan(0, 1, "install", {"tense": "pluperfect"})

    def test_utterance_rejects_overlap(self):
        with pytest.raises(CorpusError, match="overlap"):
            AnnotatedUtterance(["a", "b", "c"], [IntentSpan(0, 2, "x"), IntentSpan(1, 3, "y")])

    def test_utterance_sorts_spans(self):
        u = AnnotatedUtterance(["a", "b", "c"], [IntentSpan(2, 3, "y"), IntentSpan(0, 1, "x")])
        assert [s.start for s in u.spans] == [0, 2]

    def test_utterance_rejects_out_of_range_span(self):
        with pytest.raises(CorpusError, match="exceeds"):
            AnnotatedUtterance(["a"], [IntentSpan(0, 2, "x")])

    def test_masked_example_requires_selected_tokens(self):
        with pytest.raises(CorpusError):
            MaskedExample(["a", "b"], [0, 0], 0)


class TestVocabulary:
    def test_reserved_slots(self):
        v = Vocabulary()
        assert v.encode([Vocabulary.PAD_TOKEN, "never-seen"]) == [0, 1]

    def test_min_count_threshold(self):
        v = Vocabulary.build([["a", "a", "b"], ["a", "c", "c"]])
        a, b, c = v.encode(["a", "b", "c"])
        assert Vocabulary.UNK not in (a, c) and a != c
        assert b == Vocabulary.UNK

    def test_build_vocabularies_index_maps_are_pinned(self):
        # first-occurrence order; words lowercased and kept if seen twice; every character kept
        corpus = [
            AnnotatedUtterance(tokens=text.split(), spans=[])
            for text in ("I install the printer", "i cancel The router", "we install my printer")
        ]
        word, char = build_vocabularies(corpus)
        assert word.to_dict() == {"<pad>": 0, "<unk>": 1, "i": 2, "install": 3, "the": 4, "printer": 5}
        assert list(char.to_dict()) == ["<pad>", "<unk>", *"IinstalheprcTouwmy"]
        assert list(char.to_dict().values()) == list(range(20))

    def test_roundtrip(self):
        v = Vocabulary(["x", "y"])
        w = Vocabulary.from_dict(v.to_dict())
        assert w.encode(["x", "y", "z"]) == v.encode(["x", "y", "z"])

    def test_from_dict_requires_reserved(self):
        with pytest.raises(CorpusError):
            Vocabulary.from_dict({"a": 0})


class TestIobesCodec:
    def test_tag_set_shape(self):
        tags = iobes_tag_set(["install", "cancel"])
        assert tags[0] == "O"
        assert len(tags) == 9
        assert "E-cancel" in tags and "S-install" in tags

    def test_encode_examples(self):
        spans = [IntentSpan(0, 1, "a"), IntentSpan(2, 5, "b")]
        assert encode_iobes(spans, 6) == ["S-a", "O", "B-b", "I-b", "E-b", "O"]

    def test_encode_two_token_span_has_no_inside(self):
        assert encode_iobes([IntentSpan(1, 3, "a")], 3) == ["O", "B-a", "E-a"]

    def test_encode_by_feature_dimension(self):
        spans = [IntentSpan(0, 2, "a", dict(FULL, tense="past"))]
        assert encode_iobes(spans, 2, key="tense") == ["B-past", "E-past"]

    def test_encode_names_the_span_missing_the_dimension(self):
        spans = [IntentSpan(0, 2, "a", dict(FULL, tense="past")), IntentSpan(2, 3, "install")]
        with pytest.raises(CorpusError, match=r"span \[2, 3\) 'install' has no 'tense' feature"):
            encode_iobes(spans, 3, key="tense")
        assert encode_iobes(spans, 3) == ["B-a", "E-a", "S-install"]

    def test_clean_decode_has_zero_repairs(self):
        spans, repairs = decode_iobes(["S-a", "O", "B-b", "I-b", "E-b"])
        assert repairs == 0
        assert [(s.start, s.end, s.intent) for s in spans] == [(0, 1, "a"), (2, 5, "b")]

    def test_dangling_open_span_is_closed(self):
        spans, repairs = decode_iobes(["B-a", "O"])
        assert repairs == 1
        assert [(s.start, s.end, s.intent) for s in spans] == [(0, 1, "a")]

    def test_orphan_inside_starts_span(self):
        spans, repairs = decode_iobes(["O", "I-a", "E-a"])
        assert repairs == 1
        assert [(s.start, s.end, s.intent) for s in spans] == [(1, 3, "a")]

    def test_label_switch_inside_span_splits(self):
        spans, repairs = decode_iobes(["B-a", "I-b", "E-b"])
        assert repairs >= 1
        assert [(s.start, s.end, s.intent) for s in spans] == [(0, 1, "a"), (1, 3, "b")]

    def test_trailing_begin_becomes_span(self):
        spans, repairs = decode_iobes(["O", "B-a"])
        assert repairs == 1
        assert [(s.start, s.end, s.intent) for s in spans] == [(1, 2, "a")]

    def test_malformed_tag_rejected(self):
        with pytest.raises(CorpusError, match="malformed"):
            decode_iobes(["Q-a"])


@st.composite
def span_layouts(draw):
    length = draw(st.integers(1, 12))
    spans = []
    cursor = 0
    while cursor < length:
        start = draw(st.integers(cursor, length))
        if start >= length:
            break
        end = draw(st.integers(start + 1, length))
        label = draw(st.sampled_from(["alpha", "beta", "gamma"]))
        spans.append(IntentSpan(start, end, label))
        cursor = end
        if draw(st.booleans()):
            break
    return length, spans


@settings(max_examples=200, deadline=None)
@given(span_layouts())
def test_iobes_roundtrip(layout):
    length, spans = layout
    decoded, repairs = decode_iobes(encode_iobes(spans, length))
    assert repairs == 0
    assert [(s.start, s.end, s.intent) for s in decoded] == [
        (s.start, s.end, s.intent) for s in spans
    ]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(iobes_tag_set(["a", "b"])), min_size=1, max_size=10))
def test_decode_total_and_reencodable(tags):
    spans, _ = decode_iobes(tags)
    for s in spans:
        assert 0 <= s.start < s.end <= len(tags)
    # whatever decode salvages must itself be a legal layout
    reencoded = encode_iobes(spans, len(tags))
    again, repairs = decode_iobes(reencoded)
    assert repairs == 0
    assert [(s.start, s.end, s.intent) for s in again] == [
        (s.start, s.end, s.intent) for s in spans
    ]


class TestCorpusIO:
    def _sample(self):
        return AnnotatedUtterance(
            tokens="I am trying to install and I see a problem".split(),
            spans=[
                IntentSpan(0, 5, "install", dict(FULL, modality="modal-try")),
                IntentSpan(6, 10, "general", dict(FULL, communicative_function="issue")),
            ],
        )

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        save_corpus([self._sample()], path)
        loaded = load_corpus(path)
        assert len(loaded) == 1
        u = loaded[0]
        assert u.tokens[4] == "install"
        assert u.spans[0].features["modality"] == "modal-try"
        assert u.spans[1].features["communicative_function"] == "issue"

    def test_failed_save_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        save_corpus([self._sample(), self._sample()], path)
        before = path.read_bytes()

        def rows():
            yield self._sample()
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            save_corpus(rows(), path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_several_files_written_all_or_none(self, tmp_path, monkeypatch):
        # every text is written before any target is replaced, and a failure
        # at either stage removes every new file
        first, second = tmp_path / "a.txt", tmp_path / "b.txt"
        first.write_bytes(b"old\n")
        with pytest.raises(OSError):  # the second file cannot be opened
            write_text_atomic({first: "new\n", tmp_path / "missing" / "b.txt": "new\n"})
        assert sorted(tmp_path.iterdir()) == [first] and first.read_bytes() == b"old\n"

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            write_text_atomic({first: "new\n", second: "new\n"})
        assert sorted(tmp_path.iterdir()) == [first] and first.read_bytes() == b"old\n"
        monkeypatch.undo()
        write_text_atomic({first: "one\n", second: "two\n"})
        assert (first.read_text(), second.read_text()) == ("one\n", "two\n")
        assert sorted(tmp_path.iterdir()) == [first, second]

    def test_line_numbers_in_errors(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = json.dumps({"tokens": ["hi"], "spans": []})
        path.write_text(good + "\n{not json\n", encoding="utf-8")
        with pytest.raises(CorpusError, match=":2:"):
            load_corpus(path)

    def test_empty_token_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = json.dumps({"tokens": ["hi"], "spans": []})
        path.write_text(good + "\n" + json.dumps({"tokens": ["a", ""], "spans": []}) + "\n")
        with pytest.raises(CorpusError, match=r":2: token 1 is an empty string"):
            load_corpus(path)

    def test_missing_feature_rejected_when_required(self, tmp_path):
        path = tmp_path / "partial.jsonl"
        row = {"tokens": ["go"], "spans": [{"start": 0, "end": 1, "intent": "x", "features": {"tense": "past"}}]}
        path.write_text(json.dumps(row) + "\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="missing feature"):
            load_corpus(path)
        loaded = load_corpus(path, require_features=False)
        assert loaded[0].spans[0].features == {"tense": "past"}

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.jsonl"
        save_corpus([self._sample()], path)
        path.write_text(path.read_text() + "\n\n", encoding="utf-8")
        assert len(load_corpus(path)) == 1

    def test_line_ends_of_text_mode_split_rows(self, tmp_path):
        path = tmp_path / "ends.jsonl"
        good = json.dumps({"tokens": ["hi"], "spans": []})
        path.write_bytes(f"{good}\r\n{good}\r{good}\n".encode())
        assert [u.tokens for u in load_corpus(path)] == [["hi"]] * 3

    def test_line_that_is_not_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(json.dumps({"tokens": ["hi"], "spans": []}).encode() + b"\n\xff\xfe{}\n")
        with pytest.raises(CorpusError, match=re.escape(f"{path}:2: 'utf-8' codec can't decode byte 0xff")):
            load_corpus(path)

    def test_deeply_nested_line_is_malformed(self, tmp_path):
        path = tmp_path / "deep.jsonl"
        deep = '{"tokens": ' + "[" * 100_000 + "]" * 100_000 + ', "spans": []}'
        path.write_text(json.dumps({"tokens": ["hi"], "spans": []}) + "\n" + deep + "\n", encoding="utf-8")
        with pytest.raises(CorpusError, match=re.escape(f"{path}:2: nested too deeply")):
            load_corpus(path)


def test_masked_examples_one_per_span():
    u = AnnotatedUtterance(
        tokens=["please", "cancel", "and", "refund", "me"],
        spans=[
            IntentSpan(0, 2, "cancel", dict(FULL, tense="future")),
            IntentSpan(3, 5, "refund", dict(FULL)),
        ],
    )
    examples = masked_examples([u], "tense")
    assert len(examples) == 2
    assert examples[0].mask == [1, 1, 0, 0, 0]
    assert examples[0].gold == FEATURE_DIMENSIONS["tense"].index("future")
    assert examples[1].mask == [0, 0, 0, 1, 1]


@st.composite
def corpus_rows(draw):
    tokens = draw(st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=8))
    cuts = sorted(draw(st.sets(st.integers(0, len(tokens)), max_size=6)))
    spans = []
    for start, end in zip(cuts[::2], cuts[1::2]):
        features = {}
        for dim, values in FEATURE_DIMENSIONS.items():
            value = draw(st.one_of(st.none(), st.sampled_from(values)))
            if value is not None:
                features[dim] = value
        spans.append(IntentSpan(start, end, draw(st.text(min_size=1, max_size=5)), features))
    return AnnotatedUtterance(tokens=tokens, spans=spans)


@settings(max_examples=200, deadline=None)
@given(corpus_rows())
def test_corpus_row_json_round_trip(u):
    line = json.dumps(utterance_to_json(u), ensure_ascii=False)
    assert utterance_from_json(json.loads(line)) == u


@settings(max_examples=300, deadline=None)
@given(corpus_rows(), st.data())
def test_mutated_corpus_rows_parse_or_raise_corpus_error(mutate_json, u, data):
    row = utterance_to_json(u)
    mutate_json(data, row)
    try:
        utterance_from_json(json.loads(json.dumps(row)))
    except CorpusError:
        pass


@pytest.mark.parametrize("span, message", [
    ({"start": "0", "end": 1, "intent": "x"}, "bounds must be integers"),
    ({"start": 0, "end": True, "intent": "x"}, "bounds must be integers"),
    ({"start": 0.0, "end": 1, "intent": "x"}, "bounds must be integers"),
    ({"start": 0, "end": 1, "intent": 7}, "intent must be a string"),
    ({"start": 0, "end": 1, "intent": "x", "features": ["tense"]}, "features must be an object"),
    ({"start": 0, "end": 1, "intent": ""}, "intent must be a non-empty string"),
])
def test_span_field_types_checked(span, message):
    with pytest.raises(CorpusError, match=message):
        utterance_from_json({"tokens": ["a", "b"], "spans": [span]})
