"""Template corpus generator for the span-versus-utterance context experiments.

Every utterance is one to three clauses, each clause one intent span shaped
[subject, cue tokens, verb, determiner, object]. Per feature dimension one
label is drawn uniformly for the whole utterance and shared by all its spans,
mirroring the global-consistency effect this corpus exists to probe: a span
carries its dimension cue word with probability rho, and a cue no span carried
is emitted after the spans in a trailing context zone, so the utterance as a
whole always determines every label while any single span often does not.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Sequence

from .data import FEATURE_DIMENSIONS, AnnotatedUtterance, IntentSpan

__all__ = [
    "SyntheticConfig",
    "CUE_WORDS",
    "INTENT_VERBS",
    "generate_synthetic",
    "generate_utterances",
    "span_only_bayes_accuracy",
]


# One cue word per (dimension, label); the mapping is a bijection so a visible
# cue resolves its dimension's label with certainty.
CUE_WORDS: dict[str, dict[str, str]] = {
    "communicative_function": {
        "inform": "fyi",
        "issue": "unfortunately",
        "request-action": "please",
        "request-confirm": "right",
        "request-info": "how",
    },
    "attr_cf": {"self": "personally", "other": "reportedly"},
    "attr_ev": {"self": "myself", "other": "externally"},
    "negation": {"positive": "indeed", "negative": "not"},
    "tense": {"past": "yesterday", "present": "currently", "future": "tomorrow"},
    "modality": {"modal-poss": "possibly", "modal-try": "experimentally", "other": "certainly"},
}

INTENT_VERBS: dict[str, tuple[str, ...]] = {
    "install": ("install", "download", "setup"),
    "cancel": ("cancel", "terminate", "deactivate"),
    "refund": ("refund", "reimburse", "repay"),
    "upgrade": ("upgrade", "renew", "extend"),
    "report": ("report", "flag", "notice"),
    "access": ("open", "login", "access"),
}

SUBJECTS = ("i", "we")
DETERMINERS = ("the", "my", "this")
CONNECTIVES = ("and", "then", "also")
TAIL_MARKER = "btw"
CONNECTIVE_RATE = 0.7

# Object nouns are the partition-specific filler slot; dev and test nouns never
# occur in training, so they reach the models only through subwords and context.
OBJECT_NOUNS = {
    "train": (
        "printer", "router", "scanner", "charger", "speaker", "folder",
        "browser", "server", "blender", "toaster", "cooker", "dryer",
    ),
    "dev": ("adapter", "recorder", "tracker", "heater", "mixer", "washer"),
    "test": ("freezer", "opener", "shaver", "trimmer", "steamer", "grinder"),
}

_DIM_ORDER = tuple(FEATURE_DIMENSIONS)
_INTENTS = tuple(sorted(INTENT_VERBS))


@dataclass
class SyntheticConfig:
    train_size: int = 2000
    dev_size: int = 500
    test_size: int = 500
    seed: int = 7
    rho: float = 0.5
    # per-dimension overrides of rho, e.g. {"tense": 0.0}
    rho_by_dimension: dict[str, float] = field(default_factory=dict)
    max_spans: int = 3

    def __post_init__(self) -> None:
        if min(self.train_size, self.dev_size, self.test_size) < 1:
            raise ValueError("corpus sizes must be at least 1")
        if not 1 <= self.max_spans <= 3:
            raise ValueError("max_spans must be between 1 and 3")
        for dim, value in self.rho_by_dimension.items():
            if dim not in FEATURE_DIMENSIONS:
                raise ValueError(f"unknown dimension {dim!r} in rho_by_dimension")
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"rho for {dim!r} must be in [0, 1]")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError("rho must be in [0, 1]")

    def rho_for(self, dimension: str) -> float:
        return self.rho_by_dimension.get(dimension, self.rho)


def _one_utterance(rng: random.Random, max_spans: int, dims: list[tuple], objects: Sequence[str]) -> AnnotatedUtterance:
    n_spans = rng.randint(1, max_spans)
    intents = rng.sample(_INTENTS, n_spans)
    labels = {dim: rng.choices(values, cum_weights=cum, k=1)[0] for dim, values, cum, _ in dims}
    carried = {dim: [rng.random() < rho for _ in range(n_spans)] for dim, _, _, rho in dims}

    tokens: list[str] = []
    spans: list[IntentSpan] = []
    for s, intent in enumerate(intents):
        if s > 0 and rng.random() < CONNECTIVE_RATE:
            tokens.append(rng.choice(CONNECTIVES))
        start = len(tokens)
        tokens.append(rng.choice(SUBJECTS))
        for dim in _DIM_ORDER:
            if carried[dim][s]:
                tokens.append(CUE_WORDS[dim][labels[dim]])
        tokens.append(rng.choice(INTENT_VERBS[intent]))
        tokens.append(rng.choice(DETERMINERS))
        tokens.append(rng.choice(objects))
        spans.append(IntentSpan(start, len(tokens), intent, dict(labels)))

    homeless = [dim for dim in _DIM_ORDER if not any(carried[dim])]
    if homeless:
        tokens.append(TAIL_MARKER)
        for dim in homeless:
            tokens.append(CUE_WORDS[dim][labels[dim]])
    return AnnotatedUtterance(tokens=tokens, spans=spans)


def generate_utterances(
    rng: random.Random, config: SyntheticConfig, size: int, partition: str
) -> list[AnnotatedUtterance]:
    objects = OBJECT_NOUNS[partition]
    # (dimension, labels, cumulative uniform weights, rho) once per split; the
    # labels are drawn by choices() over these weights, one random() call each,
    # so the corpora keep the bytes of every seed
    dims = []
    for dim in _DIM_ORDER:
        labels = FEATURE_DIMENSIONS[dim]
        dims.append((dim, labels, list(accumulate([1.0 / len(labels)] * len(labels))), config.rho_for(dim)))
    return [_one_utterance(rng, config.max_spans, dims, objects) for _ in range(size)]


def generate_synthetic(
    config: SyntheticConfig,
) -> tuple[list[AnnotatedUtterance], list[AnnotatedUtterance], list[AnnotatedUtterance]]:
    """Deterministic (train, dev, test) corpora with disjoint object fillers."""
    rng = random.Random(config.seed)
    train = generate_utterances(rng, config, config.train_size, "train")
    dev = generate_utterances(rng, config, config.dev_size, "dev")
    test = generate_utterances(rng, config, config.test_size, "test")
    return train, dev, test


def span_only_bayes_accuracy(config: SyntheticConfig, dimension: str) -> float:
    """Best possible per-span accuracy when only in-span tokens are visible.

    A span carries its dimension's cue with probability rho, and a visible cue
    identifies the label exactly; otherwise the span content is independent
    of the label, which is uniform over the dimension's L labels, so the best
    guess is right 1/L of the time: rho + (1 - rho) / L.
    """
    if dimension not in FEATURE_DIMENSIONS:
        raise ValueError(f"unknown dimension {dimension!r}")
    rho = config.rho_for(dimension)
    return rho + (1.0 - rho) / len(FEATURE_DIMENSIONS[dimension])
