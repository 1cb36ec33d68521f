"""Domain types: utterances, intent spans, feature labels, IOBES codec, corpus I/O."""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "FEATURE_DIMENSIONS",
    "DEFAULT_FEATURE_VALUES",
    "IntentSpan",
    "AnnotatedUtterance",
    "MaskedExample",
    "Vocabulary",
    "CorpusError",
    "encode_iobes",
    "decode_iobes",
    "iobes_tag_set",
    "may_follow",
    "load_corpus",
    "parse_json",
    "corpus_text",
    "write_text_atomic",
    "utterance_from_json",
    "utterance_to_json",
    "build_vocabularies",
    "masked_examples",
]


# Label order within a dimension fixes the label's class index everywhere.
FEATURE_DIMENSIONS: dict[str, tuple[str, ...]] = {
    "communicative_function": (
        "inform",
        "issue",
        "request-action",
        "request-confirm",
        "request-info",
    ),
    "attr_cf": ("self", "other"),
    "attr_ev": ("self", "other"),
    "negation": ("positive", "negative"),
    "tense": ("past", "present", "future"),
    "modality": ("modal-poss", "modal-try", "other"),
}

# Fallback feature values for spans no feature model said anything about.
DEFAULT_FEATURE_VALUES: dict[str, str] = {
    "communicative_function": "inform",
    "attr_cf": "self",
    "attr_ev": "self",
    "negation": "positive",
    "tense": "present",
    "modality": "other",
}


class CorpusError(ValueError):
    """Raised for malformed corpus files or inconsistent annotations."""


@dataclass
class IntentSpan:
    """Half-open token range [start, end) carrying an intent label.

    ``features`` maps dimension name to value. Corpus rows carry all six
    dimensions; model outputs may carry a subset or none.
    """

    start: int
    end: int
    intent: str
    features: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0 <= self.start < self.end:
            raise CorpusError(f"bad span bounds [{self.start}, {self.end})")
        for dim, value in self.features.items():
            if dim not in FEATURE_DIMENSIONS:
                raise CorpusError(f"unknown feature dimension {dim!r}")
            if value not in FEATURE_DIMENSIONS[dim]:
                raise CorpusError(f"bad value {value!r} for dimension {dim!r}")


@dataclass
class AnnotatedUtterance:
    tokens: list[str]
    spans: list[IntentSpan]

    def __post_init__(self) -> None:
        if not self.tokens:
            raise CorpusError("utterance has no tokens")
        prev_end = 0
        for s in sorted(self.spans, key=lambda s: s.start):
            if s.start < prev_end:
                raise CorpusError(f"overlapping spans at token {s.start}")
            if s.end > len(self.tokens):
                raise CorpusError(
                    f"span [{s.start}, {s.end}) exceeds utterance length {len(self.tokens)}"
                )
            prev_end = s.end
        self.spans = sorted(self.spans, key=lambda s: s.start)

    def require_full_features(self) -> None:
        for s in self.spans:
            missing = [d for d in FEATURE_DIMENSIONS if d not in s.features]
            if missing:
                raise CorpusError(
                    f"span [{s.start}, {s.end}) missing feature dimensions {missing}"
                )


@dataclass
class MaskedExample:
    """A classification instance: full token sequence, span mask, gold class index."""

    tokens: list[str]
    mask: list[int]
    gold: int

    def __post_init__(self) -> None:
        if len(self.mask) != len(self.tokens):
            raise CorpusError("mask length disagrees with token count")
        if not any(self.mask):
            raise CorpusError("mask selects no tokens")
        if any(bit not in (0, 1) for bit in self.mask):
            raise CorpusError("mask entries must be 0 or 1")

    @classmethod
    def for_span(cls, tokens: Sequence[str], span: IntentSpan, gold: int = 0) -> "MaskedExample":
        """The example that masks ``span`` within ``tokens``."""
        mask = [0] * len(tokens)
        mask[span.start : span.end] = [1] * (span.end - span.start)
        return cls(tokens=list(tokens), mask=mask, gold=gold)


class Vocabulary:
    """Token-to-index map with reserved padding (0) and unknown (1) slots."""

    PAD = 0
    UNK = 1
    PAD_TOKEN = "<pad>"
    UNK_TOKEN = "<unk>"

    def __init__(self, tokens: Iterable[str] = ()) -> None:
        self._index: dict[str, int] = {self.PAD_TOKEN: self.PAD, self.UNK_TOKEN: self.UNK}
        for t in tokens:
            if t not in self._index:
                self._index[t] = len(self._index)

    @classmethod
    def build(cls, sequences: Iterable[Iterable[str]], min_count: int = 2) -> "Vocabulary":
        """Count tokens across sequences; indices follow first occurrence, and
        tokens seen fewer than min_count times map to UNK."""
        counts = Counter(chain.from_iterable(sequences))
        return cls(t for t, c in counts.items() if c >= min_count)

    def __len__(self) -> int:
        return len(self._index)

    def encode(self, tokens: Sequence[str]) -> np.ndarray:
        """The flat intp array of the tokens' indices, UNK for an unseen one."""
        return np.fromiter(map(self._index.get, tokens, repeat(self.UNK)), np.intp, len(tokens))

    def to_dict(self) -> dict[str, int]:
        return dict(self._index)

    @classmethod
    def from_dict(cls, mapping: dict[str, int]) -> "Vocabulary":
        if not isinstance(mapping, dict):
            raise CorpusError("vocabulary is not a token-to-index mapping")
        for token, idx in mapping.items():
            if type(idx) is not int:
                raise CorpusError(f"index {idx!r} of {token!r} is not an integer")
        if mapping.get(cls.PAD_TOKEN) != cls.PAD or mapping.get(cls.UNK_TOKEN) != cls.UNK:
            raise CorpusError("vocabulary mapping lacks reserved pad/unk entries")
        vocab = cls()
        for token, idx in sorted(mapping.items(), key=lambda kv: kv[1]):
            if token in (cls.PAD_TOKEN, cls.UNK_TOKEN):
                continue
            if idx != len(vocab._index):
                raise CorpusError(f"vocabulary indices not contiguous at {token!r}")
            vocab._index[token] = idx
        return vocab


# ---------------------------------------------------------------------------
# IOBES codec
# ---------------------------------------------------------------------------
# The tag grammar is stated once: ``_split_tag`` parses a tag into its
# (prefix, label) kind and ``may_follow`` says which kind may come next. The
# CRF's constraint mask is filled from the same predicate.

_CLOSED: tuple[str, str | None] = ("O", None)


def iobes_tag_set(labels: Sequence[str]) -> list[str]:
    """All tags for a label set: O first (index 0), then B/I/E/S per label."""
    tags = ["O"]
    for label in labels:
        tags.extend([f"B-{label}", f"I-{label}", f"E-{label}", f"S-{label}"])
    return tags


def encode_iobes(spans: Sequence[IntentSpan], length: int, key: str | None = None) -> list[str]:
    """Render non-overlapping spans as an IOBES tag sequence of the given length.

    With ``key`` set, tag suffixes come from that feature dimension instead of
    the intent label; a span without that feature raises CorpusError.
    """
    tags = ["O"] * length
    for s in spans:
        if s.end > length:
            raise CorpusError(f"span [{s.start}, {s.end}) exceeds length {length}")
        try:
            label = s.intent if key is None else s.features[key]
        except KeyError:
            raise CorpusError(f"span [{s.start}, {s.end}) {s.intent!r} has no {key!r} feature") from None
        if s.end - s.start == 1:
            tags[s.start] = f"S-{label}"
        else:
            tags[s.start] = f"B-{label}"
            for i in range(s.start + 1, s.end - 1):
                tags[i] = f"I-{label}"
            tags[s.end - 1] = f"E-{label}"
    return tags


def _split_tag(tag: str) -> tuple[str, str | None]:
    """The (prefix, label) kind of an IOBES tag: ("O", None) or e.g. ("B", "x")."""
    if tag == "O":
        return _CLOSED
    if len(tag) > 2 and tag[1] == "-" and tag[0] in "BIES":
        return tag[0], tag[2:]
    raise CorpusError(f"malformed tag {tag!r}: not an IOBES tag")


def may_follow(prev: tuple[str, str | None], kind: tuple[str, str | None]) -> bool:
    """The IOBES grammar over parsed kinds: may ``kind`` come right after ``prev``?

    A span is S alone or B, any number of I, then E, all of one label. The
    start and end states are the closed kind ("O", None). After B or I only
    I or E of the same label may follow; anywhere else only O, B, S or the
    end state may.
    """
    if prev[0] in ("B", "I"):
        return kind[0] in ("I", "E") and kind[1] == prev[1]
    return kind[0] in ("O", "B", "S")


def decode_iobes(tags: Sequence[str]) -> tuple[list[IntentSpan], int]:
    """Recover spans from tags, repairing grammar violations instead of failing.

    One repair is counted at each step of start -> tags -> end that
    ``may_follow`` forbids, the rule the CRF's constraint mask is built
    from. There the open span, if any, is closed, and an I or E that finds
    no open span opens one. Returns the spans plus the repair count, so
    callers can tell clean decodes from salvaged ones.
    """
    spans: list[IntentSpan] = []
    repairs = 0
    start: int | None = None  # where the span a B or I left open begins
    prev = _CLOSED
    for i, kind in enumerate(chain(map(_split_tag, tags), [_CLOSED])):
        if not may_follow(prev, kind):
            repairs += 1
            if start is not None:
                spans.append(IntentSpan(start, i, prev[1]))
                start = None
        prefix, label = kind
        if prefix == "S":
            spans.append(IntentSpan(i, i + 1, label))
        elif prefix != "O":
            if start is None:
                start = i
            if prefix == "E":
                spans.append(IntentSpan(start, i + 1, label))
                start = None
        prev = kind
    return spans, repairs


# ---------------------------------------------------------------------------
# corpus I/O (one JSON object per line)
# ---------------------------------------------------------------------------


def utterance_from_json(obj) -> AnnotatedUtterance:
    if not isinstance(obj, dict):
        raise CorpusError("corpus row is not an object")
    tokens = obj.get("tokens")
    if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
        raise CorpusError("'tokens' must be a list of strings")
    if "" in tokens:
        raise CorpusError(f"token {tokens.index('')} is an empty string")
    raw_spans = obj.get("spans")
    if not isinstance(raw_spans, list):
        raise CorpusError("'spans' must be a list")
    spans = []
    for raw in raw_spans:
        if not isinstance(raw, dict):
            raise CorpusError("span entry is not an object")
        try:
            start, end, intent = raw["start"], raw["end"], raw["intent"]
        except KeyError as missing:
            raise CorpusError(f"span entry missing field {missing}") from None
        if type(start) is not int or type(end) is not int:
            raise CorpusError(f"span bounds must be integers, got {start!r} and {end!r}")
        if not isinstance(intent, str):
            raise CorpusError(f"span intent must be a string, got {intent!r}")
        if not intent:  # a tagger would build the tags B-, I-, E- and S- of it
            raise CorpusError("span intent must be a non-empty string")
        features = raw.get("features", {})
        if not isinstance(features, dict):
            raise CorpusError(f"span features must be an object, got {features!r}")
        spans.append(IntentSpan(start, end, intent, dict(features)))
    return AnnotatedUtterance(tokens=list(tokens), spans=spans)


def utterance_to_json(u: AnnotatedUtterance) -> dict:
    return {
        "tokens": list(u.tokens),
        "spans": [
            {
                "start": s.start,
                "end": s.end,
                "intent": s.intent,
                "features": {k: s.features[k] for k in sorted(s.features)},
            }
            for s in u.spans
        ],
    }


def parse_json(text: str):
    """``json.loads(text)``, with text nested too deeply for the parser
    reported as the ``json.JSONDecodeError`` of any other malformed text."""
    try:
        return json.loads(text)
    except RecursionError:
        raise json.JSONDecodeError("nested too deeply", text, 0) from None


def load_corpus(path: str | Path, require_features: bool = True) -> list[AnnotatedUtterance]:
    utterances = []
    # bytes.splitlines cuts at the line ends of text mode: \n, \r\n and \r
    for lineno, raw in enumerate(Path(path).read_bytes().splitlines(), start=1):
        try:  # each line is decoded on its own, so a byte that is not UTF-8 is named by its line
            line = raw.decode("utf-8")
            if not line.strip():
                continue
            u = utterance_from_json(parse_json(line))
            if require_features:
                u.require_full_features()
        except (UnicodeDecodeError, json.JSONDecodeError, CorpusError) as err:
            raise CorpusError(f"{path}:{lineno}: {err}") from None
        utterances.append(u)
    return utterances


def corpus_text(utterances: Iterable[AnnotatedUtterance]) -> str:
    """The JSON-lines text of a corpus, one utterance a line."""
    return "".join(json.dumps(utterance_to_json(u), ensure_ascii=False) + "\n" for u in utterances)


def write_text_atomic(files: Mapping[str | Path, str]) -> None:
    """Write each text of ``files`` to its path, all of them or none: every
    text first goes to a new file beside its target, then each new file
    replaces its target in one rename. If anything fails, the new files are
    removed and every target already replaced is put back as it was: before
    the first rename, each existing target is hard-linked under a second
    name, so a filesystem without hard links refuses to replace one. A
    caller refuses beforehand a target that no file can be renamed onto,
    such as an existing directory."""
    staged, kept, landed = [], {}, []
    try:
        for path, text in files.items():
            path = Path(path)
            tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
            with open(tmp, "x", encoding="utf-8") as handle:
                staged.append((tmp, path))
                handle.write(text)
        for tmp, path in staged:
            old = tmp.with_suffix(".old")
            try:
                os.link(path, old, follow_symlinks=False)
            except FileNotFoundError:  # a new file: rolled back by removing it
                continue
            kept[path] = old
        for tmp, path in staged:
            os.replace(tmp, path)
            landed.append(path)
    except BaseException:
        for path in reversed(landed):
            if path in kept:
                os.replace(kept.pop(path), path)
            else:
                path.unlink()
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        raise
    finally:
        for old in kept.values():
            old.unlink(missing_ok=True)


def build_vocabularies(corpus: Iterable[AnnotatedUtterance]) -> tuple[Vocabulary, Vocabulary]:
    """Word and character vocabularies from a training corpus.

    Words below the frequency cutoff fall back to the unknown slot; characters
    are kept unconditionally. Word keys are lowercased to match lookup.
    """
    utterances = list(corpus)
    word_vocab = Vocabulary.build([[t.lower() for t in u.tokens] for u in utterances])
    # a token string is its own sequence of characters
    char_vocab = Vocabulary.build([t for u in utterances for t in u.tokens], min_count=1)
    return word_vocab, char_vocab


def masked_examples(
    corpus: Iterable[AnnotatedUtterance], dimension: str
) -> list[MaskedExample]:
    """One classification instance per annotated span, for one feature dimension."""
    labels = FEATURE_DIMENSIONS.get(dimension)
    if labels is None:
        raise CorpusError(f"unknown feature dimension {dimension!r}")
    return [
        MaskedExample.for_span(u.tokens, s, labels.index(s.features[dimension]))
        for u in corpus
        for s in u.spans
    ]
