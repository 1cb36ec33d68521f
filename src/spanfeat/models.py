"""The five architectures: intent-span tagger, flat and cascaded feature
taggers, span-level CNN classifier, and the Global-Local classifier.

Taggers consume whole annotated utterances; classifiers consume masked
examples. Every model exposes ``loss`` (tape-recorded scalar), a prediction
method (tape-free), ``parameters`` (named tensors), and bundle serialization.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .crf import CrfParams, build_iobes_constraints, crf_nll, viterbi
from .data import (
    DEFAULT_FEATURE_VALUES,
    FEATURE_DIMENSIONS,
    AnnotatedUtterance,
    IntentSpan,
    MaskedExample,
    Vocabulary,
    decode_iobes,
    encode_iobes,
    iobes_tag_set,
)
from .encoders import BiLstm, EncoderConfig, TokenEncoder
from .tensor import (
    Tensor,
    add,
    concat,
    conv1d_same,
    gather_rows,
    glorot_uniform,
    matmul,
    max_over_time,
    relu,
    softmax_cross_entropy,
    uniform_init,
)

__all__ = [
    "GlobalLocalConfig",
    "SpanCnnConfig",
    "SpanRepresentation",
    "IntentTagger",
    "FeatureTaggerFlat",
    "FeatureTaggerCascaded",
    "SpanCnnClassifier",
    "GlobalLocalClassifier",
    "ARCHITECTURES",
    "ModelError",
    "align_feature_spans",
    "tag_intents",
    "tag_features_flat",
    "tag_features_cascaded",
    "classify_span_cnn",
    "classify_global_local",
    "serialize_model",
    "load_model",
]

FORMAT_VERSION = 1


class ModelError(ValueError):
    """Raised for malformed bundles or inconsistent model inputs."""


# ---------------------------------------------------------------------------
# configs and shared blocks
# ---------------------------------------------------------------------------


@dataclass
class SpanCnnConfig:
    embedding_dim: int = 100
    filter_widths: list[int] = field(default_factory=lambda: [3, 4, 5])
    filters_per_width: int = 20

    def __post_init__(self) -> None:
        if self.embedding_dim < 1 or self.filters_per_width < 1:
            raise ValueError("embedding and filter counts must be positive")
        if not self.filter_widths or min(self.filter_widths) < 1:
            raise ValueError("filter widths must be positive")


@dataclass
class GlobalLocalConfig:
    embedding_dim: int = 100
    filter_widths: list[int] = field(default_factory=lambda: [3, 4, 5])
    filters_per_width: int = 20
    share_encoder_embedding: bool = True
    use_global_context: bool = True
    share_pooling_params: bool = False

    def __post_init__(self) -> None:
        if self.embedding_dim < 1 or self.filters_per_width < 1:
            raise ValueError("embedding and filter counts must be positive")
        if not self.filter_widths or min(self.filter_widths) < 1:
            raise ValueError("filter widths must be positive")


@dataclass
class SpanRepresentation:
    """Pooled span view: the full-context vector, the span-only vector, and
    their concatenation (global first)."""

    global_vec: Tensor
    local_vec: Tensor
    joint: Tensor


class _Projection:
    def __init__(self, input_dim: int, output_dim: int, rng: np.random.Generator) -> None:
        self.weight = glorot_uniform(rng, (input_dim, output_dim), input_dim, output_dim)
        self.bias = Tensor(np.zeros(output_dim))

    def apply(self, x: Tensor) -> Tensor:
        return add(matmul(x, self.weight), self.bias)

    def parameters(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.weight": self.weight, f"{prefix}.bias": self.bias}


class _ParallelConvPool:
    """Kim-style block: parallel conv widths, ReLU, max-over-time, concat."""

    def __init__(self, input_dim: int, widths: list[int], filters: int, rng: np.random.Generator) -> None:
        self.widths = list(widths)
        self.filters = {}
        self.biases = {}
        for w in self.widths:
            self.filters[w] = glorot_uniform(rng, (w, input_dim, filters), w * input_dim, filters)
            self.biases[w] = Tensor(np.zeros(filters))
        self.output_dim = len(self.widths) * filters

    def apply(self, matrix: Tensor) -> Tensor:
        pooled = [
            max_over_time(relu(conv1d_same(matrix, self.filters[w], self.biases[w])))
            for w in self.widths
        ]
        return concat(pooled)

    def parameters(self, prefix: str) -> dict[str, Tensor]:
        params = {}
        for w in self.widths:
            params[f"{prefix}.width{w}.filters"] = self.filters[w]
            params[f"{prefix}.width{w}.bias"] = self.biases[w]
        return params


def align_feature_spans(
    intent_spans: list[IntentSpan], feature_spans: list[IntentSpan], dimension: str
) -> list[str]:
    """Label each intent span from the feature span overlapping it the most.

    Ties keep the earlier feature span; an intent span no feature span touches
    falls back to the dimension's default label.
    """
    if dimension not in DEFAULT_FEATURE_VALUES:
        raise ModelError(f"unknown feature dimension {dimension!r}")
    labels = []
    for ispan in intent_spans:
        best_label = DEFAULT_FEATURE_VALUES[dimension]
        best_overlap = 0
        for fspan in feature_spans:
            overlap = min(ispan.end, fspan.end) - max(ispan.start, fspan.start)
            if overlap > best_overlap:
                best_overlap = overlap
                best_label = fspan.intent
        labels.append(best_label)
    return labels


# ---------------------------------------------------------------------------
# sequence taggers
# ---------------------------------------------------------------------------


class _SequenceTagger:
    """Shared embed -> BiLSTM -> projection -> CRF plumbing.

    Decoding always applies the IOBES transition constraints; training applies
    them inside the partition function only when constrain_training is set.
    """

    def __init__(
        self,
        word_vocab: Vocabulary,
        char_vocab: Vocabulary,
        labels: list[str],
        encoder_config: EncoderConfig,
        seed: int,
        constrain_training: bool,
        extra_input_dim: int = 0,
    ) -> None:
        self.word_vocab = word_vocab
        self.char_vocab = char_vocab
        self.labels = list(labels)
        self.encoder_config = encoder_config
        self.seed = seed
        self.constrain_training = constrain_training
        self.tags = iobes_tag_set(self.labels)
        rng = np.random.default_rng(seed)
        self.encoder = TokenEncoder(word_vocab, char_vocab, encoder_config, rng)
        self.bilstm = BiLstm(encoder_config.token_dim + extra_input_dim, encoder_config.lstm_hidden, rng)
        self.projection = _Projection(2 * encoder_config.lstm_hidden, len(self.tags), rng)
        self.crf = CrfParams(len(self.tags))
        self.constraints = build_iobes_constraints(self.tags)

    def parameters(self) -> dict[str, Tensor]:
        params = {f"encoder.{k}": v for k, v in self.encoder.parameters().items()}
        params.update({f"bilstm.{k}": v for k, v in self.bilstm.parameters().items()})
        params.update(self.projection.parameters("projection"))
        params["crf.transitions"] = self.crf.transitions
        return params

    def _token_matrix(self, utterance: AnnotatedUtterance) -> Tensor:
        return self.encoder.encode(utterance.tokens)

    def _emissions(self, utterance: AnnotatedUtterance) -> Tensor:
        return self.projection.apply(self.bilstm.encode(self._token_matrix(utterance)))

    def _gold_tag_ids(self, utterance: AnnotatedUtterance) -> list[int]:
        raise NotImplementedError

    def loss(self, utterance: AnnotatedUtterance) -> Tensor:
        emissions = self._emissions(utterance)
        gold = self._gold_tag_ids(utterance)
        constraints = self.constraints if self.constrain_training else None
        return crf_nll(emissions, self.crf, gold, constraints)

    def decode(self, utterance: AnnotatedUtterance) -> list[int]:
        emissions = self._emissions(utterance)
        return viterbi(emissions.values, self.crf, self.constraints)

    def tag(self, tokens: list[str]) -> list[IntentSpan]:
        utterance = AnnotatedUtterance(tokens=list(tokens), spans=[])
        path = self.decode(utterance)
        spans, _ = decode_iobes([self.tags[i] for i in path])
        return spans


class IntentTagger(_SequenceTagger):
    architecture = "intent-tagger"

    def __init__(
        self,
        word_vocab: Vocabulary,
        char_vocab: Vocabulary,
        intents: list[str],
        encoder_config: EncoderConfig | None = None,
        seed: int = 13,
        constrain_training: bool = False,
    ) -> None:
        super().__init__(
            word_vocab, char_vocab, intents, encoder_config or EncoderConfig(),
            seed, constrain_training,
        )

    def _gold_tag_ids(self, utterance: AnnotatedUtterance) -> list[int]:
        tags = encode_iobes(utterance.spans, len(utterance.tokens))
        return [self.tags.index(t) for t in tags]

    def to_config(self) -> dict:
        return {
            "labels": self.labels,
            "encoder": asdict(self.encoder_config),
            "seed": self.seed,
            "constrain_training": self.constrain_training,
        }

    @classmethod
    def from_config(cls, config: dict, vocabularies: dict) -> "IntentTagger":
        return cls(
            Vocabulary.from_dict(vocabularies["word"]),
            Vocabulary.from_dict(vocabularies["char"]),
            config["labels"],
            EncoderConfig(**config["encoder"]),
            seed=config["seed"],
            constrain_training=config["constrain_training"],
        )

    def vocabularies(self) -> dict:
        return {"word": self.word_vocab.to_dict(), "char": self.char_vocab.to_dict()}


class FeatureTaggerFlat(_SequenceTagger):
    """IOBES tagger over one feature dimension's labels, boundaries unsupervised."""

    architecture = "feature-tagger-flat"

    def __init__(
        self,
        word_vocab: Vocabulary,
        char_vocab: Vocabulary,
        dimension: str,
        encoder_config: EncoderConfig | None = None,
        seed: int = 13,
        constrain_training: bool = False,
        extra_input_dim: int = 0,
    ) -> None:
        if dimension not in FEATURE_DIMENSIONS:
            raise ModelError(f"unknown feature dimension {dimension!r}")
        self.dimension = dimension
        super().__init__(
            word_vocab, char_vocab, list(FEATURE_DIMENSIONS[dimension]),
            encoder_config or EncoderConfig(), seed, constrain_training, extra_input_dim,
        )

    def _gold_tag_ids(self, utterance: AnnotatedUtterance) -> list[int]:
        tags = encode_iobes(utterance.spans, len(utterance.tokens), key=self.dimension)
        return [self.tags.index(t) for t in tags]

    def feature_spans(self, tokens: list[str], spans: list[IntentSpan] | None = None) -> list[IntentSpan]:
        """Raw decoded feature spans; reference spans are ignored by the flat
        tagger, which predicts its own boundaries."""
        return self.tag(tokens)

    def labels_for(self, tokens: list[str], spans: list[IntentSpan]) -> list[str]:
        """Tag the utterance, then map feature spans onto the given spans."""
        return align_feature_spans(spans, self.feature_spans(tokens, spans), self.dimension)

    def to_config(self) -> dict:
        return {
            "dimension": self.dimension,
            "encoder": asdict(self.encoder_config),
            "seed": self.seed,
            "constrain_training": self.constrain_training,
        }

    @classmethod
    def from_config(cls, config: dict, vocabularies: dict) -> "FeatureTaggerFlat":
        return cls(
            Vocabulary.from_dict(vocabularies["word"]),
            Vocabulary.from_dict(vocabularies["char"]),
            config["dimension"],
            EncoderConfig(**config["encoder"]),
            seed=config["seed"],
            constrain_training=config["constrain_training"],
        )

    def vocabularies(self) -> dict:
        return {"word": self.word_vocab.to_dict(), "char": self.char_vocab.to_dict()}


OUTSIDE, INSIDE = 0, 1


class FeatureTaggerCascaded(FeatureTaggerFlat):
    """Feature tagger fed the intent spans as per-token boundary embeddings.

    Only the boundary geometry crosses over; intent label strings are never
    read, so feature parameters stay reusable across intent inventories.
    """

    architecture = "feature-tagger-cascaded"

    def __init__(
        self,
        word_vocab: Vocabulary,
        char_vocab: Vocabulary,
        dimension: str,
        encoder_config: EncoderConfig | None = None,
        seed: int = 13,
        constrain_training: bool = False,
        boundary_dim: int = 10,
    ) -> None:
        if boundary_dim < 1:
            raise ModelError("boundary_dim must be positive")
        self.boundary_dim = boundary_dim
        super().__init__(
            word_vocab, char_vocab, dimension, encoder_config, seed,
            constrain_training, extra_input_dim=boundary_dim,
        )
        rng = np.random.default_rng(seed + 1)
        self.boundary_table = uniform_init(rng, (2, boundary_dim), 0.25)

    def parameters(self) -> dict[str, Tensor]:
        params = super().parameters()
        params["boundary_table"] = self.boundary_table
        return params

    def _boundary_ids(self, n: int, spans: list[IntentSpan]) -> list[int]:
        ids = [OUTSIDE] * n
        for s in spans:
            if s.end > n:
                raise ModelError(f"span [{s.start}, {s.end}) exceeds utterance length {n}")
            for i in s.token_range():
                ids[i] = INSIDE
        return ids

    def _token_matrix(self, utterance: AnnotatedUtterance) -> Tensor:
        base = self.encoder.encode(utterance.tokens)
        ids = self._boundary_ids(len(utterance.tokens), utterance.spans)
        return concat([base, gather_rows(self.boundary_table, ids)])

    def feature_spans(self, tokens: list[str], spans: list[IntentSpan] | None = None) -> list[IntentSpan]:
        if spans is None:
            raise ModelError("the cascaded tagger needs reference spans")
        utterance = AnnotatedUtterance(tokens=list(tokens), spans=[
            IntentSpan(s.start, s.end, "span") for s in spans
        ])
        path = self.decode(utterance)
        decoded, _ = decode_iobes([self.tags[i] for i in path])
        return decoded

    def to_config(self) -> dict:
        config = super().to_config()
        config["boundary_dim"] = self.boundary_dim
        return config

    @classmethod
    def from_config(cls, config: dict, vocabularies: dict) -> "FeatureTaggerCascaded":
        return cls(
            Vocabulary.from_dict(vocabularies["word"]),
            Vocabulary.from_dict(vocabularies["char"]),
            config["dimension"],
            EncoderConfig(**config["encoder"]),
            seed=config["seed"],
            constrain_training=config["constrain_training"],
            boundary_dim=config["boundary_dim"],
        )


# ---------------------------------------------------------------------------
# span classifiers
# ---------------------------------------------------------------------------


class SpanCnnClassifier:
    """Classifies a span from its own tokens only: embed, parallel convs,
    max-over-time, project."""

    architecture = "span-cnn"

    def __init__(
        self,
        word_vocab: Vocabulary,
        dimension: str,
        config: SpanCnnConfig | None = None,
        seed: int = 13,
    ) -> None:
        if dimension not in FEATURE_DIMENSIONS:
            raise ModelError(f"unknown feature dimension {dimension!r}")
        self.word_vocab = word_vocab
        self.dimension = dimension
        self.labels = list(FEATURE_DIMENSIONS[dimension])
        self.config = config or SpanCnnConfig()
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.embedding = uniform_init(
            rng, (len(word_vocab), self.config.embedding_dim), 0.25
        )
        self.pool = _ParallelConvPool(
            self.config.embedding_dim, self.config.filter_widths,
            self.config.filters_per_width, rng,
        )
        self.projection = _Projection(self.pool.output_dim, len(self.labels), rng)

    def parameters(self) -> dict[str, Tensor]:
        params = {"embedding": self.embedding}
        params.update(self.pool.parameters("pool"))
        params.update(self.projection.parameters("projection"))
        return params

    def _logits(self, example: MaskedExample) -> Tensor:
        span_ids = [self.word_vocab.lookup(example.tokens[i].lower()) for i in example.span_positions()]
        matrix = gather_rows(self.embedding, span_ids)
        return self.projection.apply(self.pool.apply(matrix))

    def loss(self, example: MaskedExample) -> Tensor:
        return softmax_cross_entropy(self._logits(example), example.gold)

    def classify(self, example: MaskedExample) -> int:
        return int(self._logits(example).values.argmax())

    def to_config(self) -> dict:
        return {"dimension": self.dimension, "cnn": asdict(self.config), "seed": self.seed}

    @classmethod
    def from_config(cls, config: dict, vocabularies: dict) -> "SpanCnnClassifier":
        return cls(
            Vocabulary.from_dict(vocabularies["word"]),
            config["dimension"],
            SpanCnnConfig(**config["cnn"]),
            seed=config["seed"],
        )

    def vocabularies(self) -> dict:
        return {"word": self.word_vocab.to_dict()}


class GlobalLocalClassifier:
    """Two pooled views of a masked span: one over the whole utterance, one
    over the span tokens alone, concatenated global-then-local and projected.

    Ablations: use_global_context=False restricts both views to the span;
    share_encoder_embedding=False embeds the two views with separate tables.
    """

    architecture = "global-local"

    def __init__(
        self,
        word_vocab: Vocabulary,
        dimension: str,
        config: GlobalLocalConfig | None = None,
        seed: int = 13,
    ) -> None:
        if dimension not in FEATURE_DIMENSIONS:
            raise ModelError(f"unknown feature dimension {dimension!r}")
        self.word_vocab = word_vocab
        self.dimension = dimension
        self.labels = list(FEATURE_DIMENSIONS[dimension])
        self.config = config or GlobalLocalConfig()
        self.seed = seed
        c = self.config
        rng = np.random.default_rng(seed)
        shape = (len(word_vocab), c.embedding_dim)
        if c.share_encoder_embedding:
            self.embedding = uniform_init(rng, shape, 0.25)
        else:
            self.global_embedding = uniform_init(rng, shape, 0.25)
            self.local_embedding = uniform_init(rng, shape, 0.25)
        self.global_pool = _ParallelConvPool(c.embedding_dim, c.filter_widths, c.filters_per_width, rng)
        if c.share_pooling_params:
            self.local_pool = self.global_pool
        else:
            self.local_pool = _ParallelConvPool(c.embedding_dim, c.filter_widths, c.filters_per_width, rng)
        self.projection = _Projection(2 * self.global_pool.output_dim, len(self.labels), rng)

    def parameters(self) -> dict[str, Tensor]:
        params = {}
        if self.config.share_encoder_embedding:
            params["embedding"] = self.embedding
        else:
            params["global_embedding"] = self.global_embedding
            params["local_embedding"] = self.local_embedding
        if self.config.share_pooling_params:
            params.update(self.global_pool.parameters("pool"))
        else:
            params.update(self.global_pool.parameters("global_pool"))
            params.update(self.local_pool.parameters("local_pool"))
        params.update(self.projection.parameters("projection"))
        return params

    def represent(self, tokens: list[str], mask: list[int]) -> SpanRepresentation:
        positions = [i for i, bit in enumerate(mask) if bit]
        if not positions:
            raise ModelError("mask selects no tokens")
        if len(mask) != len(tokens):
            raise ModelError("mask length disagrees with token count")
        word_ids = [self.word_vocab.lookup(t.lower()) for t in tokens]
        span_ids = [word_ids[i] for i in positions]
        c = self.config
        if c.share_encoder_embedding:
            if c.use_global_context:
                global_matrix = gather_rows(self.embedding, word_ids)
                local_matrix = gather_rows(global_matrix, positions)
            else:
                global_matrix = gather_rows(self.embedding, span_ids)
                local_matrix = global_matrix
        else:
            global_ids = word_ids if c.use_global_context else span_ids
            global_matrix = gather_rows(self.global_embedding, global_ids)
            local_matrix = gather_rows(self.local_embedding, span_ids)
        g = self.global_pool.apply(global_matrix)
        l = self.local_pool.apply(local_matrix)
        return SpanRepresentation(global_vec=g, local_vec=l, joint=concat([g, l]))

    def _logits(self, tokens: list[str], mask: list[int]) -> Tensor:
        return self.projection.apply(self.represent(tokens, mask).joint)

    def loss(self, example: MaskedExample) -> Tensor:
        return softmax_cross_entropy(self._logits(example.tokens, example.mask), example.gold)

    def classify(self, example: MaskedExample) -> int:
        return int(self._logits(example.tokens, example.mask).values.argmax())

    def to_config(self) -> dict:
        return {"dimension": self.dimension, "global_local": asdict(self.config), "seed": self.seed}

    @classmethod
    def from_config(cls, config: dict, vocabularies: dict) -> "GlobalLocalClassifier":
        return cls(
            Vocabulary.from_dict(vocabularies["word"]),
            config["dimension"],
            GlobalLocalConfig(**config["global_local"]),
            seed=config["seed"],
        )

    def vocabularies(self) -> dict:
        return {"word": self.word_vocab.to_dict()}


# ---------------------------------------------------------------------------
# operation wrappers (stable API surface over the model methods)
# ---------------------------------------------------------------------------


def tag_intents(tokens: list[str], model: IntentTagger) -> list[IntentSpan]:
    return model.tag(tokens)


def tag_features_flat(tokens: list[str], model: FeatureTaggerFlat) -> list[IntentSpan]:
    return model.tag(tokens)


def tag_features_cascaded(
    tokens: list[str], spans: list[IntentSpan], model: FeatureTaggerCascaded
) -> list[str]:
    return model.labels_for(tokens, spans)


def classify_span_cnn(example: MaskedExample, model: SpanCnnClassifier) -> str:
    return model.labels[model.classify(example)]


def classify_global_local(
    tokens: list[str], mask: list[int], model: GlobalLocalClassifier
) -> str:
    return model.labels[model.classify(MaskedExample(tokens=list(tokens), mask=list(mask), gold=0))]


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


ARCHITECTURES = {
    cls.architecture: cls
    for cls in (
        IntentTagger,
        FeatureTaggerFlat,
        FeatureTaggerCascaded,
        SpanCnnClassifier,
        GlobalLocalClassifier,
    )
}


def serialize_model(model, path: str | Path) -> None:
    bundle = {
        "format_version": FORMAT_VERSION,
        "architecture": model.architecture,
        "config": model.to_config(),
        "vocabularies": model.vocabularies(),
        "parameters": {
            name: {"shape": list(t.shape), "values": t.values.reshape(-1).tolist()}
            for name, t in sorted(model.parameters().items())
        },
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(bundle, handle, sort_keys=True)
        handle.write("\n")


def load_model(path: str | Path):
    with open(path, encoding="utf-8") as handle:
        try:
            bundle = json.load(handle)
        except json.JSONDecodeError as err:
            raise ModelError(f"{path}: not a model bundle: {err}") from None
    version = bundle.get("format_version")
    if version != FORMAT_VERSION:
        raise ModelError(f"unsupported format version {version!r} (expected {FORMAT_VERSION})")
    arch = bundle.get("architecture")
    cls = ARCHITECTURES.get(arch)
    if cls is None:
        raise ModelError(f"unknown architecture tag {arch!r}")
    model = cls.from_config(bundle["config"], bundle["vocabularies"])
    params = model.parameters()
    stored = bundle["parameters"]
    missing = sorted(set(params) - set(stored))
    extra = sorted(set(stored) - set(params))
    if missing or extra:
        raise ModelError(f"parameter names disagree: missing {missing}, unexpected {extra}")
    for name, t in params.items():
        entry = stored[name]
        shape = tuple(entry["shape"])
        if shape != t.shape:
            raise ModelError(f"tensor {name!r} has shape {list(shape)}, expected {list(t.shape)}")
        values = np.array(entry["values"], dtype=np.float64)
        if values.size != t.values.size:
            raise ModelError(f"tensor {name!r} has {values.size} values, expected {t.values.size}")
        if not np.all(np.isfinite(values)):
            raise ModelError(f"tensor {name!r} holds non-finite values (NaN or Infinity)")
        t.values[...] = values.reshape(shape)
    return model
