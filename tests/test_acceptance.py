"""Release gate: eight numbered criteria, each printing one pass/fail line.

Run with -s (or read the -v test status) to see per-criterion verdicts. The
corpus-scale criteria train real models at the shipped default recipes, so
this module takes several minutes; everything is seeded and deterministic.
"""

import itertools
import json
import random
import time

import numpy as np
import pytest

from spanfeat.crf import CrfParams, build_iobes_constraints, log_partition, viterbi
from spanfeat.data import (
    FEATURE_DIMENSIONS,
    IntentSpan,
    build_vocabularies,
    decode_iobes,
    encode_iobes,
    iobes_tag_set,
    masked_examples,
)
from spanfeat.evaluation import COMPARISON_ROLES as GRID_ROLES
from spanfeat.evaluation import (
    classifier_accuracy,
    compare_models,
    evaluate_feature_model,
    evaluate_intent_tagger,
    intent_span_f1,
    merge_reports,
)
from spanfeat.gradcheck import MODEL_BUDGET, PRIMITIVE_BUDGET, run_gradient_checks
from spanfeat.models import (
    FeatureTaggerCascaded,
    FeatureTaggerFlat,
    GlobalLocalClassifier,
    GlobalLocalConfig,
    IntentTagger,
    SpanCnnClassifier,
    load_model,
    serialize_model,
)
from spanfeat.synthetic import (
    SyntheticConfig,
    generate_synthetic,
    span_only_bayes_accuracy,
)
from spanfeat.tensor import Tape, Tensor
from spanfeat.training import (
    SgdMomentumConfig,
    TAGGER_CLIP_NORM,
    history_lines,
    recipe_for,
    train,
)

ARCH_NAMES = (
    "intent-tagger",
    "feature-tagger-flat",
    "feature-tagger-cascaded",
    "span-cnn",
    "global-local",
)


def _verdict(number: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number} {status}: {label} ({detail})", flush=True)
    assert ok, f"criterion {number} failed: {label} ({detail})"


# ---------------------------------------------------------------------------
# shared corpora and trained models
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def full_data():
    train_c, dev_c, test_c = generate_synthetic(SyntheticConfig())
    word, char = build_vocabularies(train_c)
    return {"train": train_c, "dev": dev_c, "test": test_c, "word": word, "char": char}


def _train_classifier(model, corpus, epochs, seed=13):
    config, clip = recipe_for(model.architecture, epochs=epochs, seed=seed)
    examples = masked_examples(corpus, model.dimension)
    train(model, examples, config, grad_clip=clip)
    return model


GRID_EPOCHS = 2


@pytest.fixture(scope="module")
def classifier_grid(full_data):
    """All four classifier variants trained on every feature dimension."""
    started = time.time()
    word = full_data["word"]
    reports = {}
    for role, (cls, overrides) in GRID_ROLES.items():
        sections = []
        for dimension in sorted(FEATURE_DIMENSIONS):
            model = cls(word, dimension, cls.config_type(**overrides), seed=13)
            _train_classifier(model, full_data["train"], GRID_EPOCHS)
            sections.append(evaluate_feature_model(model, full_data["test"], corpus_tag="test"))
            print(
                f"  [grid] {role:<22} {dimension:<24} "
                f"micro_f1={sections[-1].dimensions[dimension].micro_f1:.4f}",
                flush=True,
            )
        reports[role] = merge_reports(sections, model_tag=role)
    return {"reports": reports, "elapsed": time.time() - started}


# ---------------------------------------------------------------------------
# 1. gradient correctness
# ---------------------------------------------------------------------------


def test_criterion_1_gradient_correctness():
    started = time.time()
    results = run_gradient_checks()
    elapsed = time.time() - started
    by_name = {r.name: r for r in results}
    primitives = [r for r in results if r.name not in ARCH_NAMES]
    worst_prim = max(primitives, key=lambda r: r.max_error)
    worst_arch = max((by_name[a] for a in ARCH_NAMES), key=lambda r: r.max_error)
    ok = (
        all(r.max_error < PRIMITIVE_BUDGET for r in primitives)
        and all(a in by_name and by_name[a].max_error < MODEL_BUDGET for a in ARCH_NAMES)
        and elapsed < 60.0
    )
    _verdict(
        1, "gradient checks under budget",
        ok,
        f"primitives worst {worst_prim.max_error:.2e} < 1e-5, "
        f"models worst {worst_arch.max_error:.2e} < 1e-4, {elapsed:.1f}s < 60s",
    )


# ---------------------------------------------------------------------------
# 2. CRF equals exhaustive enumeration
# ---------------------------------------------------------------------------


def _enumerate_paths(emissions, params, mask=None):
    """Score every tag path by brute force; returns (log-sum-exp, best path)."""
    n, k = emissions.shape
    trans = params.transitions.values
    start, end = params.start_index, params.end_index
    paths = np.array(list(itertools.product(range(k), repeat=n)), dtype=np.intp)
    scores = emissions[np.arange(n), paths].sum(axis=1)
    scores += trans[start, paths[:, 0]] + trans[paths[:, -1], end]
    for t in range(n - 1):
        scores += trans[paths[:, t], paths[:, t + 1]]
    if mask is not None:
        legal = mask.allowed[start, paths[:, 0]] & mask.allowed[paths[:, -1], end]
        for t in range(n - 1):
            legal &= mask.allowed[paths[:, t], paths[:, t + 1]]
        scores = np.where(legal, scores, -np.inf)
    m = scores.max()
    logz = m + np.log(np.exp(scores - m).sum())
    return logz, list(paths[int(scores.argmax())])


def _packed_log_partition(rows, params, mask):
    """Summed log Z of rows packed end to end, and each row's emission gradient."""
    packed = Tensor(np.concatenate(rows))
    with Tape() as tape:
        logz = log_partition(packed, params, mask, [len(r) for r in rows])
    tape.backward(logz)
    return logz.item(), np.split(packed.grad, np.cumsum([len(r) for r in rows])[:-1])


def _row_gradient(emissions, params, mask):
    row = Tensor(emissions)
    with Tape() as tape:
        logz = log_partition(row, params, mask)
    tape.backward(logz)
    return row.grad


def test_criterion_2_crf_matches_enumeration():
    started = time.time()
    rng = np.random.default_rng(202)
    # each instance also runs packed after a neighbour row of 1 to 4
    # positions, drawn from a generator of its own
    neighbours = np.random.default_rng(2020)
    worst = 0.0
    for _ in range(200):
        num_labels = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        tags = iobes_tag_set([f"l{i}" for i in range(num_labels)])
        k = len(tags)
        params = CrfParams(k)
        params.transitions.values[:] = rng.normal(size=params.transitions.shape)
        emissions = rng.normal(size=(n, k))
        mask = build_iobes_constraints(tags)

        logz = log_partition(Tensor(emissions), params).item()
        ref, _ = _enumerate_paths(emissions, params)
        worst = max(worst, abs(logz - ref))

        logz_c = log_partition(Tensor(emissions), params, mask).item()
        ref_c, best_c = _enumerate_paths(emissions, params, mask)
        worst = max(worst, abs(logz_c - ref_c))
        assert viterbi(emissions, params, mask) == best_c

        other = neighbours.normal(size=(int(neighbours.integers(1, 5)), k))
        for row_mask, ref_row in ((None, ref), (mask, ref_c)):
            ref_other, _ = _enumerate_paths(other, params, row_mask)
            packed, grads = _packed_log_partition([other, emissions], params, row_mask)
            worst = max(worst, abs(packed - (ref_other + ref_row)))
            for grad, row in zip(grads, (other, emissions)):
                worst = max(worst, np.abs(grad - _row_gradient(row, params, row_mask)).max())
    elapsed = time.time() - started
    ok = worst <= 1e-10 and elapsed < 60.0
    _verdict(
        2, "log-partition and constrained Viterbi match enumeration",
        ok, f"200 instances, alone and packed row by row, worst |diff| {worst:.2e} <= 1e-10, {elapsed:.1f}s < 60s",
    )


# ---------------------------------------------------------------------------
# 3. IOBES soundness
# ---------------------------------------------------------------------------


def _random_layout(rng: random.Random):
    length = rng.randint(1, 15)
    spans, cursor = [], 0
    while cursor < length:
        if rng.random() < 0.4:
            cursor += 1
            continue
        end = rng.randint(cursor + 1, min(length, cursor + 5))
        spans.append(IntentSpan(cursor, end, rng.choice("abc")))
        cursor = end
    return spans, length


def test_criterion_3_iobes_soundness():
    rng_np = np.random.default_rng(303)
    for _ in range(1000):
        num_labels = int(rng_np.integers(1, 5))
        tags = iobes_tag_set([f"l{i}" for i in range(num_labels)])
        k = len(tags)
        params = CrfParams(k)
        params.transitions.values[:] = rng_np.normal(size=params.transitions.shape) * 2.0
        emissions = rng_np.normal(size=(int(rng_np.integers(1, 13)), k)) * 3.0
        mask = build_iobes_constraints(tags)
        path = viterbi(emissions, params, mask)
        _, repairs = decode_iobes([tags[i] for i in path])
        assert repairs == 0, f"illegal decode {path}"

    # extra instances: emission margins far beyond any finite mask constant
    for scale in (1e2, 1e4, 1e6):
        for _ in range(100):
            num_labels = int(rng_np.integers(1, 5))
            tags = iobes_tag_set([f"l{i}" for i in range(num_labels)])
            params = CrfParams(len(tags))
            params.transitions.values[:] = rng_np.normal(size=params.transitions.shape) * 2.0
            emissions = rng_np.normal(size=(int(rng_np.integers(1, 13)), len(tags))) * scale
            path = viterbi(emissions, params, build_iobes_constraints(tags))
            _, repairs = decode_iobes([tags[i] for i in path])
            assert repairs == 0, f"illegal decode {path} at emission scale {scale:g}"

    rng = random.Random(404)
    for _ in range(1000):
        spans, length = _random_layout(rng)
        decoded, repairs = decode_iobes(encode_iobes(spans, length))
        assert repairs == 0
        assert [(s.start, s.end, s.intent) for s in decoded] == [
            (s.start, s.end, s.intent) for s in spans
        ]
    _verdict(
        3, "constrained decodes always valid; span layouts round-trip",
        True,
        "1000 fuzzed decodes and 300 at emission scales 1e2-1e6 repair-free, "
        "1000 layouts round-tripped",
    )


# ---------------------------------------------------------------------------
# 4. model ordering on the default corpus
# ---------------------------------------------------------------------------


def test_criterion_4_model_ordering(classifier_grid):
    result = compare_models(classifier_grid["reports"])
    elapsed = classifier_grid["elapsed"]
    lows = {
        role: min(r.micro_f1 for r in report.dimensions.values())
        for role, report in classifier_grid["reports"].items()
    }
    ok = result.verdict == "PASS" and elapsed < 900.0
    detail = (
        f"min micro-F1 by model {json.dumps(lows, sort_keys=True)}; "
        f"{len(result.failures)} margin violations; {elapsed:.0f}s < 900s"
    )
    if result.failures:
        detail += "; " + "; ".join(result.failures)
    _verdict(4, "global-local beats span-only and no-global by 5 points", ok, detail)


# ---------------------------------------------------------------------------
# 5. span-only models sit at the informational ceiling
# ---------------------------------------------------------------------------


def test_criterion_5_span_only_ceiling():
    config = SyntheticConfig(rho_by_dimension={"tense": 0.0})
    train_c, _, test_c = generate_synthetic(config)
    word, _ = build_vocabularies(train_c)
    bayes = span_only_bayes_accuracy(config, "tense")
    test_examples = masked_examples(test_c, "tense")

    accuracies = {}
    cnn = SpanCnnClassifier(word, "tense", seed=13)
    _train_classifier(cnn, train_c, GRID_EPOCHS)
    accuracies["span-cnn"] = classifier_accuracy(cnn, test_examples)
    local_only = GlobalLocalClassifier(
        word, "tense", GlobalLocalConfig(use_global_context=False), seed=13,
    )
    _train_classifier(local_only, train_c, GRID_EPOCHS)
    accuracies["no-global-context"] = classifier_accuracy(local_only, test_examples)

    gaps = {name: abs(acc - bayes) for name, acc in accuracies.items()}
    ok = all(gap <= 0.05 for gap in gaps.values())
    _verdict(
        5, "span-only models within 5 points of the Bayes ceiling",
        ok,
        f"bayes={bayes:.4f}, span-cnn={accuracies['span-cnn']:.4f}, "
        f"no-global={accuracies['no-global-context']:.4f} on the cue-free tense task",
    )


# ---------------------------------------------------------------------------
# 6. intent tagger quality; flat tagger boundary drift
# ---------------------------------------------------------------------------


def test_criterion_6_taggers(full_data):
    word, char = full_data["word"], full_data["char"]
    intents = sorted({s.intent for u in full_data["train"] for s in u.spans})
    tagger = IntentTagger(word, char, intents, seed=13)
    config, clip = recipe_for("intent-tagger", epochs=12, seed=13)
    train(tagger, full_data["train"], config, grad_clip=clip)
    intent_report = evaluate_intent_tagger(tagger, full_data["test"], corpus_tag="test")
    f1 = intent_report.span_prf.f1

    flat = FeatureTaggerFlat(word, char, "tense", seed=13)
    config, clip = recipe_for("feature-tagger-flat", epochs=3, seed=13)
    train(flat, full_data["train"], config, grad_clip=clip)
    flat_report = evaluate_feature_model(flat, full_data["test"], corpus_tag="test")
    drift = flat_report.boundary_rate

    ok = f1 >= 0.95 and drift > 0.0
    _verdict(
        6, "intent tagger exact-span F1 and flat-tagger boundary drift",
        ok, f"intent F1 {f1:.4f} >= 0.95; flat boundary-disagreement {drift:.4f} > 0",
    )


# ---------------------------------------------------------------------------
# 7. every architecture can memorize
# ---------------------------------------------------------------------------

# Capacity probe: same SGD+momentum/clip recipe as the taggers' default but a
# memorization-friendly learning rate; the stock 0.0015 is tuned for corpus
# scale and cannot finish 50 examples in 30 epochs.
MEMORIZE_TAGGER_LR = 0.03


def tagger_token_accuracy(model, utterances) -> float:
    """Fraction of tokens whose decoded tag matches the gold tag."""
    correct = total = 0
    for u in utterances:
        gold_ids = model._gold_tag_ids(u)
        path = model.decode(u)
        correct += sum(p == g for p, g in zip(path, gold_ids))
        total += len(gold_ids)
    return correct / total if total else 0.0


def test_criterion_7_memorization(full_data):
    subset = full_data["train"][:50]
    word, char = full_data["word"], full_data["char"]
    intents = sorted({s.intent for u in subset for s in u.spans})
    accuracies = {}

    taggers = [
        IntentTagger(word, char, intents, seed=13),
        FeatureTaggerFlat(word, char, "tense", seed=13),
        FeatureTaggerCascaded(word, char, "tense", seed=13),
    ]
    for model in taggers:
        config = SgdMomentumConfig(learning_rate=MEMORIZE_TAGGER_LR, epochs=30, seed=13)
        train(model, subset, config, grad_clip=TAGGER_CLIP_NORM)
        accuracies[model.architecture] = tagger_token_accuracy(model, subset)

    examples = masked_examples(subset, "tense")
    for model in (SpanCnnClassifier(word, "tense", seed=13),
                  GlobalLocalClassifier(word, "tense", seed=13)):
        config, clip = recipe_for(model.architecture, epochs=30, seed=13)
        train(model, examples, config, grad_clip=clip)
        accuracies[model.architecture] = classifier_accuracy(model, examples)

    ok = all(acc >= 0.98 for acc in accuracies.values())
    detail = ", ".join(f"{name}={acc:.3f}" for name, acc in sorted(accuracies.items()))
    _verdict(7, "all five architectures memorize 50 examples in 30 epochs", ok, detail)


# ---------------------------------------------------------------------------
# 8. determinism and serialization
# ---------------------------------------------------------------------------


def _tagger_run(full_data, tmp_path, label):
    subset = full_data["train"][:50]
    word, char = full_data["word"], full_data["char"]
    intents = sorted({s.intent for u in subset for s in u.spans})
    model = IntentTagger(word, char, intents, seed=13)
    config, clip = recipe_for("intent-tagger", epochs=2, seed=13)
    history = train(model, subset, config, dev_examples=full_data["dev"][:20],
                    metric=intent_span_f1, grad_clip=clip)
    predictions = json.dumps(
        [[(s.start, s.end, s.intent) for s in model.tag(u.tokens)]
         for u in full_data["test"][:30]]
    )
    path = tmp_path / f"tagger_{label}.json"
    serialize_model(model, path)
    return history_lines(history).encode(), predictions.encode(), path.read_bytes(), path


def _classifier_run(full_data, tmp_path, label):
    examples = masked_examples(full_data["train"][:60], "negation")
    model = GlobalLocalClassifier(full_data["word"], "negation", seed=13)
    config, clip = recipe_for("global-local", epochs=2, seed=13)
    history = train(model, examples, config, grad_clip=clip)
    held_out = masked_examples(full_data["test"][:30], "negation")
    predictions = bytes(model.classify(e) for e in held_out)
    path = tmp_path / f"classifier_{label}.json"
    serialize_model(model, path)
    return history_lines(history).encode(), predictions, path.read_bytes(), path


def test_criterion_8_determinism_and_serialization(full_data, tmp_path):
    checks = []
    for runner, tag in ((_tagger_run, "tagger"), (_classifier_run, "classifier")):
        first = runner(full_data, tmp_path, f"{tag}_a")
        second = runner(full_data, tmp_path, f"{tag}_b")
        checks.append((f"{tag} history", first[0] == second[0]))
        checks.append((f"{tag} predictions", first[1] == second[1]))
        checks.append((f"{tag} bundle bytes", first[2] == second[2]))

        reloaded_path = tmp_path / f"{tag}_reloaded.json"
        serialize_model(load_model(first[3]), reloaded_path)
        checks.append((f"{tag} round-trip", reloaded_path.read_bytes() == first[2]))

    failed = [name for name, ok in checks if not ok]
    _verdict(
        8, "same-seed runs byte-identical; bundles round-trip bitwise",
        not failed, "all identical" if not failed else "mismatches: " + ", ".join(failed),
    )
