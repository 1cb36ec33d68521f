"""The five architectures: intent-span tagger, flat and cascaded feature
taggers, the Global-Local classifier, and span-cnn, its local view alone.

Taggers consume whole annotated utterances; classifiers consume masked
examples. Every model exposes ``loss`` and ``batch_loss`` (tape-recorded
scalars; the latter the mean over a minibatch), a prediction method
(tape-free), ``parameters`` (named tensors), and bundle serialization.
The four feature models, taggers and classifiers alike, label given intent
spans the same way: ``feature_spans(tokens, spans)`` returns labelled
feature spans, and ``labels_for(tokens, spans)`` aligns them onto the given
spans, one label each.
"""

from __future__ import annotations

import base64
import json
from dataclasses import asdict, dataclass, field, fields
from itertools import chain
from pathlib import Path
from typing import Sequence, get_args, get_origin, get_type_hints

import numpy as np

from .crf import CrfParams, build_iobes_constraints, crf_nll, viterbi
from .data import (
    DEFAULT_FEATURE_VALUES,
    FEATURE_DIMENSIONS,
    AnnotatedUtterance,
    CorpusError,
    IntentSpan,
    MaskedExample,
    Vocabulary,
    decode_iobes,
    encode_iobes,
    iobes_tag_set,
    parse_json,
    write_text_atomic,
)
from .encoders import BiLstm, EncoderConfig, TokenEncoder
from .tensor import (
    Tensor,
    add,
    concat,
    conv_relu_max,
    gather_rows,
    glorot_uniform,
    matmul,
    scale,
    softmax_cross_entropy,
    uniform_init,
)

__all__ = [
    "GlobalLocalConfig",
    "SpanCnnConfig",
    "IntentTagger",
    "FeatureTaggerFlat",
    "FeatureTaggerCascaded",
    "SpanCnnClassifier",
    "GlobalLocalClassifier",
    "ARCHITECTURES",
    "TAGGER_ARCHS",
    "CLASSIFIER_ARCHS",
    "ModelError",
    "align_feature_spans",
    "bundle_text",
    "serialize_model",
    "load_model",
]

FORMAT_VERSION = 2


class ModelError(ValueError):
    """Raised for malformed bundles or inconsistent model inputs."""


# ---------------------------------------------------------------------------
# configs and shared blocks
# ---------------------------------------------------------------------------


@dataclass
class SpanCnnConfig:
    """Sizes of the conv/max-over-time block over word embeddings."""

    embedding_dim: int = 100
    filter_widths: list[int] = field(default_factory=lambda: [3, 4, 5])
    filters_per_width: int = 20

    def __post_init__(self) -> None:
        if self.embedding_dim < 1 or self.filters_per_width < 1:
            raise ValueError("embedding and filter counts must be positive")
        if not self.filter_widths or min(self.filter_widths) < 1:
            raise ValueError("filter widths must be positive")
        if len(set(self.filter_widths)) != len(self.filter_widths):
            # the conv banks and their parameter names are keyed by width
            raise ValueError(f"filter widths must be distinct, got {self.filter_widths}")


@dataclass
class GlobalLocalConfig(SpanCnnConfig):
    """The span-cnn sizes plus the switches of the global-local ablations."""

    share_encoder_embedding: bool = True
    use_global_context: bool = True
    share_pooling_params: bool = False


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

    def apply(self, table: Tensor, ids, lengths) -> Tensor:
        """B rows of ``table`` row ids packed end to end, ``lengths`` ids
        each -> (B, output_dim), as one conv node that does the lookup too."""
        return conv_relu_max(
            table, ids, [self.filters[w] for w in self.widths], [self.biases[w] for w in self.widths], lengths
        )

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


class _FeatureModel:
    """The labelling call the feature taggers and the span classifiers share;
    each defines ``feature_spans(tokens, spans)`` and ``dimension``."""

    def labels_for(self, tokens: list[str], spans: list[IntentSpan]) -> list[str]:
        """One label per given span, from the feature spans the model finds."""
        return align_feature_spans(spans, self.feature_spans(tokens, spans), self.dimension)


# ---------------------------------------------------------------------------
# sequence taggers
# ---------------------------------------------------------------------------


class _SequenceTagger:
    """Shared embed -> BiLSTM -> projection -> CRF plumbing.

    Decoding always applies the IOBES transition constraints; training applies
    them inside the partition function only when constrain_training is set.
    """

    vocab_names = ("word", "char")
    # a bundle's config: each architecture's ``stored_args``, constructor
    # arguments that are also attributes, as they are, and its nested sizes
    # by (bundle key, constructor argument, dataclass)
    nested_config = ("encoder", "encoder_config", EncoderConfig)
    dimension: str | None = None  # the feature dimension tagged; None tags intents

    def __init__(
        self,
        word_vocab: Vocabulary,
        char_vocab: Vocabulary,
        labels: list[str],
        encoder_config: EncoderConfig | None = None,
        seed: int = 13,
        constrain_training: bool = False,
        extra_input_dim: int = 0,
    ) -> None:
        encoder_config = encoder_config or EncoderConfig()
        self.word_vocab = word_vocab
        self.char_vocab = char_vocab
        self.labels = list(labels)
        self.encoder_config = encoder_config
        self.seed = seed
        self.constrain_training = constrain_training
        self.tags = iobes_tag_set(self.labels)
        self._tag_ids = {tag: i for i, tag in enumerate(self.tags)}
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

    def _token_table(self, utterances: Sequence[AnnotatedUtterance]) -> tuple[Tensor, np.ndarray]:
        """The BiLSTM's input for the utterances packed end to end: a table
        of one token vector per distinct spelling and each position's row
        of it, from one encoder call over all their tokens."""
        return self.encoder.encode([t for u in utterances for t in u.tokens])

    def _packed_emissions(self, utterances: Sequence[AnnotatedUtterance]) -> tuple[Tensor, list[int]]:
        """(N, tags) emission scores of the utterances packed end to end,
        and their lengths; a row's scores do not depend on the other rows."""
        lengths = [len(u.tokens) for u in utterances]
        seq = self.bilstm.encode(*self._token_table(utterances), lengths)
        return self.projection.apply(seq), lengths

    def _emissions(self, utterance: AnnotatedUtterance) -> Tensor:
        return self._packed_emissions([utterance])[0]

    def _gold_tag_ids(self, utterance: AnnotatedUtterance) -> list[int]:
        tags = encode_iobes(utterance.spans, len(utterance.tokens), key=self.dimension)
        try:
            return [self._tag_ids[t] for t in tags]
        except KeyError as err:
            raise ModelError(f"gold tag {err.args[0]!r} is not one of the model's tags") from None

    def batch_loss(self, utterances: Sequence[AnnotatedUtterance]) -> Tensor:
        """Mean CRF negative log-likelihood of the utterances, as one forward
        over the packed batch: one encoder call, one BiLSTM node, one
        projection and one batched CRF, whatever the batch size."""
        emissions, lengths = self._packed_emissions(utterances)
        gold = [tag for u in utterances for tag in self._gold_tag_ids(u)]
        constraints = self.constraints if self.constrain_training else None
        return scale(crf_nll(emissions, self.crf, gold, constraints, lengths), 1.0 / len(utterances))

    def loss(self, utterance: AnnotatedUtterance) -> Tensor:
        return self.batch_loss([utterance])

    def decode(self, utterance: AnnotatedUtterance) -> list[int]:
        emissions = self._emissions(utterance)
        return viterbi(emissions.values, self.crf, self.constraints)

    def tag(self, tokens: list[str], spans: list[IntentSpan] = ()) -> list[IntentSpan]:
        """Decoded spans; ``spans`` reach only the cascaded tagger's boundary input."""
        path = self.decode(AnnotatedUtterance(tokens=list(tokens), spans=list(spans)))
        decoded, _ = decode_iobes([self.tags[i] for i in path])
        return decoded


class IntentTagger(_SequenceTagger):
    architecture = "intent-tagger"
    stored_args = ("labels", "seed", "constrain_training")


class FeatureTaggerFlat(_SequenceTagger, _FeatureModel):
    """IOBES tagger over one feature dimension's labels, boundaries unsupervised."""

    architecture = "feature-tagger-flat"
    stored_args = ("dimension", "seed", "constrain_training")

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
            encoder_config, seed, constrain_training, extra_input_dim,
        )

    def feature_spans(self, tokens: list[str], spans: list[IntentSpan]) -> list[IntentSpan]:
        """Raw decoded feature spans with their own boundaries; the given
        spans reach only the cascaded tagger's boundary input."""
        return self.tag(tokens, spans)


OUTSIDE, INSIDE = 0, 1


class FeatureTaggerCascaded(FeatureTaggerFlat):
    """Feature tagger fed the intent spans as per-token boundary embeddings.

    Only the boundary geometry crosses over; intent label strings are never
    read, so feature parameters stay reusable across intent inventories.
    """

    architecture = "feature-tagger-cascaded"
    stored_args = ("dimension", "boundary_dim", "seed", "constrain_training")

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

    def _token_table(self, utterances: Sequence[AnnotatedUtterance]) -> tuple[Tensor, np.ndarray]:
        """One table row per distinct (spelling, boundary bit) pair: the
        encoder's token vector, then the bit's boundary embedding."""
        pairs = []
        for utterance in utterances:
            bits = [OUTSIDE] * len(utterance.tokens)
            for s in utterance.spans:
                bits[s.start : s.end] = [INSIDE] * (s.end - s.start)
            pairs += zip(utterance.tokens, bits)
        distinct = {pair: row for row, pair in enumerate(dict.fromkeys(pairs))}
        boundary = gather_rows(self.boundary_table, np.array([bit for _, bit in distinct], dtype=np.intp))
        table = self.encoder.embed([token for token, _ in distinct], [boundary])
        return table, np.array([distinct[pair] for pair in pairs], dtype=np.intp)


# ---------------------------------------------------------------------------
# span classifiers
# ---------------------------------------------------------------------------


class GlobalLocalClassifier(_FeatureModel):
    """Two pooled views of a masked span: one over the whole utterance, one
    over the span tokens alone, concatenated global-then-local and projected.

    Ablations: use_global_context=False restricts both views to the span;
    share_encoder_embedding=False embeds the two views with separate tables.
    A subclass with ``global_view = False`` keeps the local view alone.
    """

    architecture = "global-local"
    config_type = GlobalLocalConfig
    stored_args = ("dimension", "seed")
    nested_config = ("global_local", "config", config_type)
    global_view = True
    vocab_names = ("word",)
    # (tokens, word ids, pooled global view or None) of the utterance
    # ``feature_spans`` is labelling
    _held_view: tuple[list[str], np.ndarray, Tensor | None] | None = None

    def __init__(
        self,
        word_vocab: Vocabulary,
        dimension: str,
        config: SpanCnnConfig | None = None,
        seed: int = 13,
    ) -> None:
        if dimension not in FEATURE_DIMENSIONS:
            raise ModelError(f"unknown feature dimension {dimension!r}")
        c = config or self.config_type()
        if type(c) is not self.config_type:
            raise ModelError(f"{self.architecture} takes a {self.config_type.__name__}")
        self.word_vocab = word_vocab
        self.dimension = dimension
        self.labels = list(FEATURE_DIMENSIONS[dimension])
        self.config = c
        self.seed = seed
        rng = np.random.default_rng(seed)
        shape = (len(word_vocab), c.embedding_dim)
        two_tables = self.global_view and not c.share_encoder_embedding
        tables = [uniform_init(rng, shape, 0.25) for _ in range(1 + two_tables)]
        self.global_embedding, self.local_embedding = tables[0], tables[-1]
        two_pools = self.global_view and not c.share_pooling_params
        pools = [
            _ParallelConvPool(c.embedding_dim, c.filter_widths, c.filters_per_width, rng)
            for _ in range(1 + two_pools)
        ]
        self.global_pool, self.local_pool = pools[0], pools[-1]
        views = 2 if self.global_view else 1
        self.projection = _Projection(views * self.local_pool.output_dim, len(self.labels), rng)

    def parameters(self) -> dict[str, Tensor]:
        if self.local_embedding is self.global_embedding:
            params = {"embedding": self.local_embedding}
        else:
            params = {
                "global_embedding": self.global_embedding,
                "local_embedding": self.local_embedding,
            }
        if self.local_pool is self.global_pool:
            params.update(self.local_pool.parameters("pool"))
        else:
            params.update(self.global_pool.parameters("global_pool"))
            params.update(self.local_pool.parameters("local_pool"))
        params.update(self.projection.parameters("projection"))
        return params

    def represent(self, tokens: Sequence[list[str]], masks: Sequence[list[int]]) -> Tensor:
        """What the projection reads for a batch of masked spans, one (B, d)
        row per span: the global view's ``global_pool.output_dim`` columns
        first, then the local view's (the local view alone without a global
        view).

        Each view packs the word ids of its rows end to end and is one
        ``conv_relu_max`` node that reads them from its embedding table, so
        no embedded copy of the batch is made; every row is pooled over its
        own positions only, so a row's vectors do not depend on the rest of
        the batch. A one-row call for the utterance ``feature_spans`` is
        labelling reads the word ids, and any global view, that call made.
        """
        if len(tokens) != len(masks) or not tokens:
            raise ModelError("represent needs one mask per token list, and at least one of each")
        if any(len(mask) != len(toks) for toks, mask in zip(tokens, masks)):
            raise ModelError("mask length disagrees with token count")
        span_lengths = [sum(map(bool, mask)) for mask in masks]  # a bit selects its token if true, as in compress
        if not all(span_lengths):
            raise ModelError("mask selects no tokens")
        held = self._held_view
        if held is not None and (len(tokens) != 1 or held[0] != tokens[0]):
            held = None
        word_ids = held[1] if held else self.word_vocab.encode([t.lower() for toks in tokens for t in toks])
        span_ids = word_ids.compress(np.fromiter(chain.from_iterable(masks), bool, word_ids.size))
        if held and held[2] is not None:
            g = held[2]
        elif self.global_view:  # first, so backward frees the local view before the larger global one
            global_ids, global_lengths = (
                (word_ids, [len(toks) for toks in tokens]) if self.config.use_global_context
                else (span_ids, span_lengths)
            )
            g = self.global_pool.apply(self.global_embedding, global_ids, global_lengths)
        local = self.local_pool.apply(self.local_embedding, span_ids, span_lengths)
        return concat([g, local]) if self.global_view else local

    def _logits(self, tokens: list[str] | MaskedExample, mask: list[int] | None = None) -> Tensor:
        """(c,) logits of one masked span; the batched forward at B=1, off the
        tape, so the projection is one numpy expression on the (1, d) row
        (``_Projection.apply``'s arithmetic, in its order)."""
        if mask is None:  # a whole MaskedExample, as the benchmark's span-cnn check passes it
            tokens, mask = tokens.tokens, tokens.mask
        joint = self.represent([tokens], [mask]).values
        return Tensor((joint @ self.projection.weight.values + self.projection.bias.values)[0])

    def batch_loss(self, examples: Sequence[MaskedExample]) -> Tensor:
        """Mean cross-entropy of a batch of masked examples, one forward for all."""
        joint = self.represent([e.tokens for e in examples], [e.mask for e in examples])
        return softmax_cross_entropy(self.projection.apply(joint), [e.gold for e in examples])

    def loss(self, example: MaskedExample) -> Tensor:
        return self.batch_loss([example])

    def classify(self, example: MaskedExample) -> int:
        return int(self._logits(example.tokens, example.mask).values.argmax())

    def feature_spans(self, tokens: list[str], spans: list[IntentSpan]) -> list[IntentSpan]:
        """The given spans, in order, each labelled by its own ``classify`` call.

        The utterance's word ids, and a global view over the whole
        utterance, do not depend on the span, so they are made once and held
        for those calls' ``represent``; they are dropped however the call
        ends, so no parameter update meets the view.
        """
        try:
            if tokens and spans:
                ids = self.word_vocab.encode([t.lower() for t in tokens])
                whole = self.global_view and self.config.use_global_context
                view = self.global_pool.apply(self.global_embedding, ids, [len(ids)]) if whole else None
                self._held_view = list(tokens), ids, view
            return [
                IntentSpan(s.start, s.end, self.labels[self.classify(MaskedExample.for_span(tokens, s))])
                for s in spans
            ]
        finally:
            self._held_view = None


class SpanCnnClassifier(GlobalLocalClassifier):
    """Global-local without its global view: embed the span's own tokens,
    parallel convs, max-over-time, project (Kim 2014)."""

    architecture = "span-cnn"
    config_type = SpanCnnConfig
    nested_config = ("cnn", "config", config_type)
    global_view = False


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
TAGGER_ARCHS = tuple(a for a, c in ARCHITECTURES.items() if issubclass(c, _SequenceTagger))
CLASSIFIER_ARCHS = tuple(a for a, c in ARCHITECTURES.items() if issubclass(c, GlobalLocalClassifier))

BUNDLE_KEYS = ("format_version", "architecture", "config", "vocabularies", "parameters")


def _exact_keys(obj, expected, where: str) -> dict:
    """``obj`` itself if it is a JSON object with exactly the expected keys."""
    if not isinstance(obj, dict):
        raise ModelError(f"{where} is a {type(obj).__name__}, not an object")
    missing = sorted(set(expected) - set(obj))
    unknown = sorted(set(obj) - set(expected))
    if missing or unknown:
        raise ModelError(f"{where}: missing keys {missing}, unknown keys {unknown}")
    return obj


def _has_type(value, hint) -> bool:
    """Whether a JSON value has exactly the annotated type: a JSON bool is
    never an int, and a list is checked item by item."""
    if get_origin(hint) is list:
        (item,) = get_args(hint)
        return type(value) is list and all(_has_type(v, item) for v in value)
    return type(value) is hint


def _check_types(raw: dict, hints: dict, where: str) -> None:
    """Every value of ``raw`` whose key ``hints`` annotates has that type;
    nested configs are decoded, and so checked, on their own."""
    for key, value in raw.items():
        if key in hints and not _has_type(value, hints[key]):
            hint = hints[key]
            name = hint.__name__ if isinstance(hint, type) else str(hint)
            raise ModelError(f"{where}.{key} must be of type {name}, got {value!r}")


def _decode_config(config_type, raw, where: str):
    _exact_keys(raw, [f.name for f in fields(config_type)], where)
    _check_types(raw, get_type_hints(config_type), where)
    try:
        return config_type(**raw)
    except (TypeError, ValueError) as err:
        raise ModelError(f"{where}: {err}") from None


def _require_finite(name: str, values) -> None:
    if values is None or not np.all(np.isfinite(values)):
        raise ModelError(f"tensor {name!r} holds non-finite values (NaN, Infinity or beyond the float range)")


def serialize_model(model, path: str | Path) -> None:
    """Write the model's bundle to ``path``, whole or not at all."""
    write_text_atomic({path: bundle_text(model)})


def bundle_text(model) -> str:
    """The JSON text of the model's bundle; a model with a non-finite
    parameter, which no bundle may hold, is refused."""
    parameters = {}
    for name, t in sorted(model.parameters().items()):
        _require_finite(name, t.values)
        raw = np.ascontiguousarray(t.values, "<f8").tobytes()
        parameters[name] = {"shape": list(t.shape), "values": base64.b64encode(raw).decode("ascii")}
    key, arg, _ = model.nested_config
    config = {name: getattr(model, name) for name in model.stored_args}
    config[key] = asdict(getattr(model, arg))
    bundle = {
        "format_version": FORMAT_VERSION,
        "architecture": model.architecture,
        "config": config,
        "vocabularies": {
            name: getattr(model, f"{name}_vocab").to_dict() for name in model.vocab_names
        },
        "parameters": parameters,
    }
    # json.dumps runs the C encoder in one shot, where json.dump streams through
    # the pure-Python one; both write the same bytes
    return json.dumps(bundle, sort_keys=True, allow_nan=False) + "\n"


def load_model(path: str | Path):
    """Read a bundle of format 1 (values as lists of JSON numbers) or 2
    (values as base64 float64); a malformed one raises one ``ModelError``."""
    try:
        bundle = parse_json(Path(path).read_bytes().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ModelError(f"{path}: not a model bundle: {err}") from None
    if not isinstance(bundle, dict):
        raise ModelError(f"{path}: not a model bundle: the top level is a {type(bundle).__name__}")
    version = bundle.get("format_version")
    if type(version) is not int or not 1 <= version <= FORMAT_VERSION:
        raise ModelError(f"unsupported format version {version!r} (expected 1 to {FORMAT_VERSION})")
    arch = bundle.get("architecture")
    cls = ARCHITECTURES.get(arch) if isinstance(arch, str) else None
    if cls is None:
        raise ModelError(f"unknown architecture tag {arch!r}")
    _exact_keys(bundle, BUNDLE_KEYS, "bundle")
    args = {}
    for name, raw in _exact_keys(bundle["vocabularies"], cls.vocab_names, "vocabularies").items():
        try:
            args[f"{name}_vocab"] = Vocabulary.from_dict(raw)
        except CorpusError as err:
            raise ModelError(f"vocabularies.{name}: {err}") from None
    key, arg, config_type = cls.nested_config
    config = _exact_keys(bundle["config"], (key, *cls.stored_args), "config")
    _check_types(config, get_type_hints(cls.__init__), "config")
    args.update({name: config[name] for name in cls.stored_args})
    args[arg] = _decode_config(config_type, config[key], f"config.{key}")
    try:
        model = cls(**args)
    except ModelError:
        raise
    except (TypeError, ValueError) as err:
        raise ModelError(f"config: {err}") from None
    params = model.parameters()
    stored = _exact_keys(bundle["parameters"], params, "parameters")
    for name, t in params.items():
        entry = _exact_keys(stored[name], ("shape", "values"), f"parameters.{name}")
        shape, values = entry["shape"], entry["values"]
        if not _has_type(shape, list[int]) or shape != list(t.shape):
            raise ModelError(f"tensor {name!r} has shape {shape!r}, expected {list(t.shape)}")
        if version == 1:  # a list of JSON numbers
            # one pass over the values; a JSON bool would pass for a number with numpy
            if type(values) is not list or not set(map(type, values)) <= {float, int}:
                raise ModelError(f"tensor {name!r} holds values that are not a flat list of numbers")
            if len(values) != t.values.size:
                raise ModelError(f"tensor {name!r} has {len(values)} values, expected {t.values.size}")
            try:
                values = np.array(values, dtype=np.float64)
            except OverflowError:  # an integer beyond the float range
                values = None
        else:  # base64 of the little-endian float64 bytes
            try:
                raw = base64.b64decode(values, validate=True)
            except (TypeError, ValueError):  # not a string, a character outside the alphabet, bad padding
                raise ModelError(f"tensor {name!r} holds values that are not a base64 string") from None
            if len(raw) != 8 * t.values.size:
                raise ModelError(f"tensor {name!r} has {len(raw)} value bytes, expected {8 * t.values.size}")
            values = np.frombuffer(raw, "<f8")
        _require_finite(name, values)
        t.values[...] = values.reshape(t.shape)
    return model
