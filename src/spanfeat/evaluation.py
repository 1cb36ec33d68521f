"""Metrics and reports: span F1, per-dimension feature F1, model comparison."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .data import FEATURE_DIMENSIONS, AnnotatedUtterance, IntentSpan, MaskedExample
from .models import (
    FeatureTaggerFlat,
    GlobalLocalClassifier,
    IntentTagger,
    SpanCnnClassifier,
    align_feature_spans,
)
from .tensor import fixed

__all__ = [
    "Prf",
    "DimensionReport",
    "EvalReport",
    "ComparisonResult",
    "span_f1",
    "boundary_disagreement",
    "feature_f1",
    "compare_models",
    "merge_reports",
    "evaluate_feature_model",
    "evaluate_intent_tagger",
    "classifier_accuracy",
    "intent_span_f1",
    "feature_span_f1",
    "gold_feature_spans",
    "COMPARISON_ROLES",
]


@dataclass
class Prf:
    precision: float
    recall: float
    f1: float
    support: int
    predicted: int
    zero_denominator: bool = False


def _prf(tp: int, fp: int, fn: int) -> Prf:
    zero = (tp + fp == 0) or (tp + fn == 0)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return Prf(precision, recall, f1, support=tp + fn, predicted=tp + fp, zero_denominator=zero)


def span_f1(
    predicted: Sequence[Sequence[IntentSpan]], gold: Sequence[Sequence[IntentSpan]]
) -> Prf:
    """Corpus-level exact-match F1 on (start, end, label) triples."""
    if len(predicted) != len(gold):
        raise ValueError(f"{len(predicted)} predictions for {len(gold)} gold utterances")
    tp = fp = fn = 0
    for pred_spans, gold_spans in zip(predicted, gold):
        p = {(s.start, s.end, s.intent) for s in pred_spans}
        g = {(s.start, s.end, s.intent) for s in gold_spans}
        tp += len(p & g)
        fp += len(p - g)
        fn += len(g - p)
    return _prf(tp, fp, fn)


def boundary_disagreement(
    predicted: Sequence[Sequence[IntentSpan]], reference: Sequence[Sequence[IntentSpan]]
) -> float:
    """One minus the Dice overlap of exact (start, end) boundary sets.

    0 means identical segmentation, 1 means no boundary pair agrees. Labels
    are deliberately ignored; this isolates the segmentation question.
    """
    if len(predicted) != len(reference):
        raise ValueError(f"{len(predicted)} predictions for {len(reference)} references")
    matched = total = 0
    for pred_spans, ref_spans in zip(predicted, reference):
        p = {(s.start, s.end) for s in pred_spans}
        r = {(s.start, s.end) for s in ref_spans}
        matched += 2 * len(p & r)
        total += len(p) + len(r)
    return 1.0 - matched / total if total else 0.0


@dataclass
class DimensionReport:
    dimension: str
    per_label: dict[str, Prf]
    micro_f1: float
    macro_f1: float
    support: int


def feature_f1(
    predicted: Sequence[str], gold: Sequence[str], dimension: str
) -> DimensionReport:
    """One-vs-rest P/R/F1 per label plus micro and macro aggregates.

    Inputs are aligned per-span label lists, so micro-F1 equals accuracy.
    Macro averages only over labels present in gold or predictions.
    """
    if len(predicted) != len(gold):
        raise ValueError(f"{len(predicted)} predictions for {len(gold)} gold labels")
    labels = FEATURE_DIMENSIONS.get(dimension)
    if labels is None:
        raise ValueError(f"unknown feature dimension {dimension!r}")
    for value in predicted:
        if value not in labels:
            raise ValueError(f"predicted label {value!r} not in dimension {dimension!r}")
    for value in gold:
        if value not in labels:
            raise ValueError(f"gold label {value!r} not in dimension {dimension!r}")

    per_label: dict[str, Prf] = {}
    micro_tp = micro_fp = micro_fn = 0
    for label in labels:
        tp = sum(1 for p, g in zip(predicted, gold) if p == label and g == label)
        fp = sum(1 for p, g in zip(predicted, gold) if p == label and g != label)
        fn = sum(1 for p, g in zip(predicted, gold) if p != label and g == label)
        per_label[label] = _prf(tp, fp, fn)
        micro_tp += tp
        micro_fp += fp
        micro_fn += fn
    micro = _prf(micro_tp, micro_fp, micro_fn)
    present = [l for l in labels if per_label[l].support > 0 or per_label[l].predicted > 0]
    macro = sum(per_label[l].f1 for l in present) / len(present) if present else 0.0
    return DimensionReport(
        dimension=dimension,
        per_label=per_label,
        micro_f1=micro.f1,
        macro_f1=macro,
        support=len(gold),
    )


@dataclass
class EvalReport:
    model_tag: str
    corpus_tag: str
    span_mode: str  # "gold" or "pipeline"
    dimensions: dict[str, DimensionReport] = field(default_factory=dict)
    span_prf: Prf | None = None
    boundary_rate: float | None = None

    def to_json(self) -> dict:
        out = {
            "model": self.model_tag,
            "corpus": self.corpus_tag,
            "span_mode": self.span_mode,
            "dimensions": {},
        }
        for dim, report in sorted(self.dimensions.items()):
            out["dimensions"][dim] = {
                "micro_f1": report.micro_f1,
                "macro_f1": report.macro_f1,
                "support": report.support,
                "labels": {
                    label: {
                        "precision": prf.precision,
                        "recall": prf.recall,
                        "f1": prf.f1,
                        "support": prf.support,
                        "zero_denominator": prf.zero_denominator,
                    }
                    for label, prf in report.per_label.items()
                },
            }
        if self.span_prf is not None:
            out["spans"] = {
                "precision": self.span_prf.precision,
                "recall": self.span_prf.recall,
                "f1": self.span_prf.f1,
                "support": self.span_prf.support,
            }
        if self.boundary_rate is not None:
            out["boundary_disagreement"] = self.boundary_rate
        return out

    def to_text(self) -> str:
        lines = [f"model={self.model_tag} corpus={self.corpus_tag} spans={self.span_mode}"]
        if self.dimensions:
            lines.append(f"{'dimension':<24}{'label':<18}{'P':>8}{'R':>8}{'F1':>8}{'support':>9}")
        for dim, report in sorted(self.dimensions.items()):
            for label, prf in report.per_label.items():
                flag = "*" if prf.zero_denominator else " "
                lines.append(
                    f"{dim:<24}{label:<18}{prf.precision:>8.4f}{prf.recall:>8.4f}"
                    f"{prf.f1:>8.4f}{prf.support:>8d}{flag}"
                )
            lines.append(f"{dim:<24}{'micro-F1':<18}{'':>16}{report.micro_f1:>8.4f}{report.support:>9d}")
            lines.append(f"{dim:<24}{'macro-F1':<18}{'':>16}{report.macro_f1:>8.4f}")
        if self.span_prf is not None:
            p = self.span_prf
            lines.append(
                f"spans: P={p.precision:.4f} R={p.recall:.4f} F1={p.f1:.4f} support={p.support}"
            )
        if self.boundary_rate is not None:
            lines.append(f"boundary-disagreement: {self.boundary_rate:.4f}")
        return "\n".join(lines) + "\n"


def merge_reports(reports: Sequence[EvalReport], model_tag: str) -> EvalReport:
    """Fold single-dimension reports for one model into one multi-dimension report."""
    if not reports:
        raise ValueError("no reports to merge")
    merged = EvalReport(
        model_tag=model_tag,
        corpus_tag=reports[0].corpus_tag,
        span_mode=reports[0].span_mode,
    )
    for r in reports:
        for dim, section in r.dimensions.items():
            if dim in merged.dimensions:
                raise ValueError(f"duplicate dimension {dim!r} while merging")
            merged.dimensions[dim] = section
    return merged


# ---------------------------------------------------------------------------
# model comparison (ablation table)
# ---------------------------------------------------------------------------

# The full model and the three baselines it is compared with, by role name:
# (classifier class, overrides of the class's default config).
COMPARISON_ROLES = {
    "global-local": (GlobalLocalClassifier, {}),
    "span-cnn": (SpanCnnClassifier, {}),
    "no-global-context": (GlobalLocalClassifier, {"use_global_context": False}),
    "no-shared-embedding": (GlobalLocalClassifier, {"share_encoder_embedding": False}),
}
GLOBAL_LOCAL_MARGIN = 0.05
SHARED_EMBEDDING_SLACK = 0.02


@dataclass
class ComparisonResult:
    micro_table: dict[str, dict[str, float]]  # dimension -> role -> micro F1
    failures: list[str]

    @property
    def verdict(self) -> str:
        return "PASS" if not self.failures else "FAIL"

    def to_text(self) -> str:
        roles = list(COMPARISON_ROLES)
        lines = [f"{'dimension':<24}" + "".join(f"{r:>22}" for r in roles)]
        for dim in sorted(self.micro_table):
            row = self.micro_table[dim]
            lines.append(f"{dim:<24}" + "".join(f"{row[r]:>22.4f}" for r in roles))
        for failure in self.failures:
            lines.append(f"violation: {failure}")
        lines.append(f"ordering verdict: {self.verdict}")
        return "\n".join(lines) + "\n"


def compare_models(reports: Mapping[str, EvalReport]) -> ComparisonResult:
    """Check the expected ordering between the full model and its ablations.

    Requires reports for all four roles over the same dimensions. The full
    model must beat both the span-only baseline and the no-global-context
    ablation by a clear margin; the separate-embedding ablation must land
    between the span-only and full models, or within a small slack of the
    full model.
    """
    for role in COMPARISON_ROLES:
        if role not in reports:
            raise ValueError(f"missing report for model {role!r}")
    dims = set(reports["global-local"].dimensions)
    for role in COMPARISON_ROLES:
        if set(reports[role].dimensions) != dims:
            raise ValueError(
                f"model {role!r} covers dimensions "
                f"{sorted(reports[role].dimensions)}, expected {sorted(dims)}"
            )

    table: dict[str, dict[str, float]] = {}
    failures: list[str] = []
    for dim in sorted(dims):
        row = {role: reports[role].dimensions[dim].micro_f1 for role in COMPARISON_ROLES}
        table[dim] = row
        gl = row["global-local"]
        cnn = row["span-cnn"]
        noglobal = row["no-global-context"]
        noshared = row["no-shared-embedding"]
        if gl < cnn + GLOBAL_LOCAL_MARGIN:
            failures.append(
                f"{dim}: global-local {gl:.4f} not {GLOBAL_LOCAL_MARGIN:.2f} above span-cnn {cnn:.4f}"
            )
        if gl < noglobal + GLOBAL_LOCAL_MARGIN:
            failures.append(
                f"{dim}: global-local {gl:.4f} not {GLOBAL_LOCAL_MARGIN:.2f} above "
                f"no-global-context {noglobal:.4f}"
            )
        between = min(cnn, gl) <= noshared <= max(cnn, gl)
        if not between and noshared < gl - SHARED_EMBEDDING_SLACK:
            failures.append(
                f"{dim}: no-shared-embedding {noshared:.4f} neither between span-cnn "
                f"{cnn:.4f} and global-local {gl:.4f} nor within "
                f"{SHARED_EMBEDDING_SLACK:.2f} of global-local"
            )
    return ComparisonResult(micro_table=table, failures=failures)


# ---------------------------------------------------------------------------
# corpus-level evaluation drivers
# ---------------------------------------------------------------------------


def _fixed(*models):
    """A ``tensor.fixed`` block over every parameter of ``models`` (None
    skipped): a labelling pass holds them still, so each conv memo the
    block keeps convolves each table row once per pass."""
    return fixed(t for model in models if model is not None for t in model.parameters().values())


def gold_feature_spans(utterance: AnnotatedUtterance, dimension: str) -> list[IntentSpan]:
    return [
        IntentSpan(s.start, s.end, s.features[dimension]) for s in utterance.spans
    ]


def evaluate_feature_model(
    model,
    corpus: Sequence[AnnotatedUtterance],
    corpus_tag: str = "eval",
    intent_tagger: IntentTagger | None = None,
) -> EvalReport:
    """Score one feature model on one corpus, anchored to gold spans.

    With an intent tagger supplied, the feature model consumes predicted
    boundaries (pipeline mode) and its outputs are aligned back onto the gold
    spans, so reports stay comparable across span modes.
    """
    is_tagger = isinstance(model, FeatureTaggerFlat)
    if not is_tagger and not isinstance(model, GlobalLocalClassifier):
        raise TypeError(f"not a feature model: {type(model).__name__}")
    dimension = model.dimension
    mode = "pipeline" if intent_tagger is not None else "gold"
    predicted: list[str] = []
    gold: list[str] = []
    pred_span_lists = []
    with _fixed(model, intent_tagger):
        for u in corpus:
            ref_spans = intent_tagger.tag(u.tokens) if intent_tagger is not None else u.spans
            fspans = model.feature_spans(u.tokens, ref_spans)
            predicted.extend(align_feature_spans(u.spans, fspans, dimension))
            gold.extend(s.features[dimension] for s in u.spans)
            pred_span_lists.append(fspans)

    report = EvalReport(
        model_tag=model.architecture,
        corpus_tag=corpus_tag,
        span_mode=mode,
        dimensions={dimension: feature_f1(predicted, gold, dimension)},
    )
    if is_tagger and corpus:  # a tagger's spans have boundaries of their own to score
        report.span_prf = span_f1(
            pred_span_lists,
            [gold_feature_spans(u, dimension) for u in corpus],
        )
        report.boundary_rate = boundary_disagreement(pred_span_lists, [u.spans for u in corpus])
    return report


def evaluate_intent_tagger(
    model: IntentTagger, corpus: Sequence[AnnotatedUtterance], corpus_tag: str = "eval"
) -> EvalReport:
    with _fixed(model):
        predicted = [model.tag(u.tokens) for u in corpus]
    gold = [u.spans for u in corpus]
    return EvalReport(
        model_tag=model.architecture,
        corpus_tag=corpus_tag,
        span_mode="gold",
        span_prf=span_f1(predicted, gold),
        boundary_rate=boundary_disagreement(predicted, gold),
    )


# ---------------------------------------------------------------------------
# small metrics used for dev-best selection and capacity checks
# ---------------------------------------------------------------------------


def classifier_accuracy(model, examples: Sequence[MaskedExample]) -> float:
    if not examples:
        return 0.0
    with _fixed(model):
        return sum(model.classify(e) == e.gold for e in examples) / len(examples)


def intent_span_f1(model: IntentTagger, utterances: Sequence[AnnotatedUtterance]) -> float:
    return evaluate_intent_tagger(model, utterances).span_prf.f1


def feature_span_f1(model: FeatureTaggerFlat, utterances: Sequence[AnnotatedUtterance]) -> float:
    """Exact-span F1 of a feature tagger's raw spans against gold feature
    spans, over a non-empty corpus."""
    return evaluate_feature_model(model, utterances).span_prf.f1


def report_to_json_text(report: EvalReport) -> str:
    return json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"
