"""The three workloads: set-up, timed rounds, and output checks.

Every workload does whole rounds of the same operations until ``seconds`` of
timed work have passed (and at least ``MIN_ROUNDS`` rounds). Checks run
between rounds, outside the timed part and with tracing paused. The program
is reached only through module attributes looked up at call time, so the
tracer's patches apply.
"""

from __future__ import annotations

import io
import json
import math
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from spanfeat import cli, crf, data, evaluation, models, synthetic, training
from spanfeat.tensor import Tensor

from . import reference as ref
from .tracer import Tracer

CLASSIFIER_DIMENSION = "tense"
CLASSIFIER_TRAIN_PER_ROUND = 250  # masked spans, trained on by each model
WINDOW = 3  # positions per CRF enumeration window: 25 tags give 15,625 paths
CRF_WINDOWS_PER_ROUND = 2
SAMPLES_PER_ROUND = 2  # outputs recomputed by the reference per round
PROBE_UTTERANCES = 10  # fixed utterances whose loss must fall
MIN_ROUNDS = 2


@dataclass
class Sizes:
    """Input sizes; the defaults are the benchmark's, tests use smaller ones.

    A training round is one epoch over a slice of the train split, then an
    evaluation scaled down from its split by the same factor, so that a round
    weighs training and evaluation as a full epoch and its evaluation do.
    """

    train: int = 2000  # the default synthetic split sizes
    dev: int = 500
    test: int = 500
    tagger_train_per_round: int = 80  # utterances, one SGD epoch over them
    predict_per_round: int = 25  # input lines
    setups: int = 5


@dataclass
class Round:
    items: int
    seconds: float
    infer_items: int
    infer_seconds: float
    # seconds of each phase, by the workload's own metric names
    phases: dict[str, tuple[int, float]] = field(default_factory=dict)


def _cycle(items: list, round_index: int, size: int) -> list:
    start = (round_index * size) % len(items)
    return [items[(start + i) % len(items)] for i in range(min(size, len(items)))]


def _corpus(seed: int, sizes: Sizes):
    config = synthetic.SyntheticConfig(
        train_size=sizes.train, dev_size=sizes.dev, test_size=sizes.test, seed=seed
    )
    return config, synthetic.generate_synthetic(config)


class _Recorder:
    """Instance-level stand-in for a model method that keeps what it returned."""

    def __init__(self, model, method: str) -> None:
        self.bound = getattr(type(model), method)
        self.model = model
        self.calls: list[tuple] = []
        self.latencies: list[float] = []
        setattr(model, method, self)

    def __call__(self, arg):
        t0 = time.perf_counter()
        result = self.bound(self.model, arg)
        self.latencies.append(time.perf_counter() - t0)
        self.calls.append((arg, result))
        return result

    def take(self) -> tuple[list, list]:
        calls, latencies = self.calls, self.latencies
        self.calls, self.latencies = [], []
        return calls, latencies


def _params(model) -> dict:
    return {name: t.values for name, t in model.parameters().items()}


# ---------------------------------------------------------------------------
# tagger-train
# ---------------------------------------------------------------------------


class TaggerTrain:
    """SGD-momentum epochs over slices of the train split, each followed by
    the dev decode pass that ``train --dev`` makes (intent span F1)."""

    def __init__(self, seed: int, sizes: Sizes, tracer: Tracer) -> None:
        self.seed, self.sizes, self.tracer = seed, sizes, tracer
        _, (self.train, self.dev, _) = _corpus(seed, sizes)
        word_vocab, char_vocab = data.build_vocabularies(self.train)
        intents = sorted({s.intent for u in self.train for s in u.spans})
        self.model = models.IntentTagger(word_vocab, char_vocab, intents, seed=seed)

    def start(self) -> None:
        self.decodes = _Recorder(self.model, "decode")
        self.probe = self.train[:PROBE_UTTERANCES]
        self.probe_before = self._probe_loss()
        self.rng = np.random.default_rng(self.seed)

    def _probe_loss(self) -> float:
        return statistics.fmean(self.model.loss(u).item() for u in self.probe)

    def run_round(self, r: int) -> Round:
        s = self.sizes
        chunk = _cycle(self.train, r, s.tagger_train_per_round)
        dev_per_round = max(1, round(s.tagger_train_per_round * s.dev / s.train))
        dev = self.dev_chunk = _cycle(self.dev, r, dev_per_round)
        config, clip = training.recipe_for("intent-tagger", epochs=1, seed=self.seed + r)
        dev_seconds = [0.0]

        def dev_metric(model, utterances):
            with self.tracer.span("training.dev_metric"):
                t0 = time.perf_counter()
                value = evaluation.intent_span_f1(model, utterances)
                dev_seconds[0] += time.perf_counter() - t0
            return value

        t0 = time.perf_counter()
        self.history = training.train(self.model, chunk, config, dev, dev_metric, grad_clip=clip)
        seconds = time.perf_counter() - t0
        return Round(
            items=len(chunk) + len(dev),
            seconds=seconds,
            infer_items=len(dev),
            infer_seconds=dev_seconds[0],
            phases={
                "tagger_train_utt_per_s": (len(chunk), seconds - dev_seconds[0]),
                "tagger_decode_utt_per_s": (len(dev), dev_seconds[0]),
            },
        )

    def check_round(self, r: int) -> tuple[int, list[str], list[float]]:
        problems = []
        calls, latencies = self.decodes.take()
        tags = self.model.tags
        for k, (_, path) in enumerate(calls):
            problems += ref.check_path(path, tags, f"round {r} dev utterance {k}")
            _, repairs = data.decode_iobes([tags[i] for i in path])
            if repairs:
                problems.append(f"round {r} dev utterance {k}: {repairs} decode repairs")
        if not math.isfinite(self.history[-1].train_loss):
            problems.append(f"round {r}: training loss {self.history[-1].train_loss}")
        transitions = self.model.crf.transitions.values
        for w in range(CRF_WINDOWS_PER_ROUND):
            utterance = self.dev_chunk[w % len(self.dev_chunk)]
            n = len(utterance.tokens)
            start = int(self.rng.integers(0, max(1, n - WINDOW + 1)))
            window = self.model._emissions(utterance).values[start : start + WINDOW]
            spans = [(sp.start, sp.end, sp.intent) for sp in utterance.spans]
            gold = [tags.index(t) for t in ref.gold_tags(n, spans)[start : start + WINDOW]]
            nll, logz, best = ref.enumerate_crf(window, transitions, tags, gold)
            what = f"round {r} window {w}"
            em = Tensor(window)
            problems += ref.check_crf_value(crf.crf_nll(em, self.model.crf, gold).item(), nll, f"{what} CRF loss")
            problems += ref.check_crf_value(
                crf.log_partition(em, self.model.crf, self.model.constraints).item(), logz,
                f"{what} constrained log-partition",
            )
            problems += ref.check_path(crf.viterbi(window, self.model.crf, self.model.constraints), tags,
                                       f"{what} Viterbi", reference=best)
        return len(problems), problems, latencies

    def finish(self) -> tuple[list[str], dict]:
        after = self._probe_loss()
        problems = []
        if not after < self.probe_before:
            problems.append(f"training loss did not fall: {self.probe_before!r} -> {after!r}")
        return problems, {"probe_loss_before": self.probe_before, "probe_loss_after": after}

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# classifier-train
# ---------------------------------------------------------------------------


class ClassifierTrain:
    """Adadelta epochs of global-local and span-cnn over slices of one
    dimension's masked spans, then a held-out eval of both."""

    def __init__(self, seed: int, sizes: Sizes, tracer: Tracer) -> None:
        self.seed, self.sizes, self.tracer = seed, sizes, tracer
        self.config, (train, _, self.test) = _corpus(seed, sizes)
        word_vocab, _ = data.build_vocabularies(train)
        self.examples = data.masked_examples(train, CLASSIFIER_DIMENSION)
        # held-out utterances per round, so that the spans evaluated stand to
        # the spans trained on as the test split's spans to the train split's
        self.eval_per_round = max(1, round(CLASSIFIER_TRAIN_PER_ROUND * len(self.test) / len(self.examples)))
        self.models = {
            "global-local": models.GlobalLocalClassifier(word_vocab, CLASSIFIER_DIMENSION, seed=seed),
            "span-cnn": models.SpanCnnClassifier(word_vocab, CLASSIFIER_DIMENSION, seed=seed),
        }

    def start(self) -> None:
        self.recorders = {name: _Recorder(m, "classify") for name, m in self.models.items()}
        self.accuracy: dict[str, tuple[int, int]] = {}

    def run_round(self, r: int) -> Round:
        chunk = _cycle(self.examples, r, CLASSIFIER_TRAIN_PER_ROUND)
        held_out = _cycle(self.test, r, self.eval_per_round)
        self.held_out = held_out
        n_spans = sum(len(u.spans) for u in held_out)
        phases = {}
        t_start = time.perf_counter()
        for name, model in self.models.items():
            config, clip = training.recipe_for(name, epochs=1, seed=self.seed + r)
            t0 = time.perf_counter()
            training.train(model, chunk, config, grad_clip=clip)
            key = "global_local" if name == "global-local" else "span_cnn"
            phases[f"{key}_train_spans_per_s"] = (len(chunk), time.perf_counter() - t0)
        t0 = time.perf_counter()
        self.reports = {
            name: evaluation.evaluate_feature_model(model, held_out) for name, model in self.models.items()
        }
        eval_seconds = time.perf_counter() - t0
        phases["classifier_eval_spans_per_s"] = (2 * n_spans, eval_seconds)
        return Round(
            items=2 * len(chunk) + 2 * n_spans,
            seconds=time.perf_counter() - t_start,
            infer_items=2 * n_spans,
            infer_seconds=eval_seconds,
            phases=phases,
        )

    def check_round(self, r: int) -> tuple[int, list[str], list[float]]:
        problems, per_model = [], []
        gold = [s.features[CLASSIFIER_DIMENSION] for u in self.held_out for s in u.spans]
        for name, model in self.models.items():
            calls, lat = self.recorders[name].take()
            per_model.append(lat)
            predicted = [model.labels[c] for _, c in calls]
            if len(predicted) != len(gold):
                problems.append(f"round {r} {name}: {len(predicted)} predictions for {len(gold)} spans")
                continue
            correct = sum(p == g for p, g in zip(predicted, gold))
            self.accuracy[name] = (correct, len(gold))
            reported = self.reports[name].dimensions[CLASSIFIER_DIMENSION].micro_f1
            if abs(reported - correct / len(gold)) > 1e-12:
                problems.append(f"round {r} {name}: reported accuracy {reported} vs counted {correct / len(gold)}")
            params = _params(model)
            vocab = model.word_vocab.to_dict()
            widths = model.config.filter_widths
            step = max(1, len(calls) // SAMPLES_PER_ROUND)
            for example, predicted_class in calls[::step][:SAMPLES_PER_ROUND]:
                logits = REFERENCE_LOGITS[name](params, vocab, widths, example.tokens, example.mask)
                what = f"round {r} {name}"
                problems += ref.check_logits(_program_logits(model, example), logits, what)
                problems += ref.check_label(predicted_class, logits, what)
        # a span's latency is the time both models take to label it
        latencies = list(np.sum(per_model, axis=0)) if len(set(map(len, per_model))) == 1 else []
        return len(problems), problems, latencies

    def finish(self) -> tuple[list[str], dict]:
        ceiling = synthetic.span_only_bayes_accuracy(self.config, CLASSIFIER_DIMENSION)
        extra = {"span_only_bayes_accuracy": ceiling}
        if set(self.accuracy) != set(self.models):
            return ["no held-out accuracy for every model"], extra
        for name, (correct, n) in self.accuracy.items():
            extra[f"{name}_accuracy"] = correct / n
        problems = []
        if not extra["global-local_accuracy"] > ceiling:
            problems.append(f"global-local accuracy {extra['global-local_accuracy']:.4f} "
                            f"not above the span-only ceiling {ceiling:.4f}")
        allowed = ceiling + ref.accuracy_margin(ceiling, self.accuracy["span-cnn"][1])
        if extra["span-cnn_accuracy"] > allowed:
            problems.append(f"span-cnn accuracy {extra['span-cnn_accuracy']:.4f} "
                            f"above the ceiling {ceiling:.4f} + sampling error")
        return problems, extra

    def close(self) -> None:
        pass


REFERENCE_LOGITS = {"global-local": ref.global_local_logits, "span-cnn": ref.span_cnn_logits}


def _program_logits(model, example) -> np.ndarray:
    if isinstance(model, models.GlobalLocalClassifier):
        return model._logits(example.tokens, example.mask).values
    return model._logits(example).values


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------


class Predict:
    """A closed loop with one client over the held-out split: JSON line in,
    the intent tagger's annotation and the six global-local labels of the
    reference spans out. Models are built from the seed, untrained, and loaded
    from bundles."""

    def __init__(self, seed: int, sizes: Sizes, tracer: Tracer, workdir: Path) -> None:
        self.seed, self.sizes, self.tracer = seed, sizes, tracer
        _, (train, _, test) = _corpus(seed, sizes)
        word_vocab, char_vocab = data.build_vocabularies(train)
        intents = sorted({s.intent for u in train for s in u.spans})
        self.bundle_dir = Path(tempfile.mkdtemp(prefix="bundles-", dir=workdir))
        built = [models.IntentTagger(word_vocab, char_vocab, intents, seed=seed)]
        built += [models.GlobalLocalClassifier(word_vocab, dim, seed=seed) for dim in ref.FEATURE_VALUES]
        paths = []
        for i, model in enumerate(built):
            paths.append(self.bundle_dir / f"model{i}.json")
            models.serialize_model(model, paths[-1])
        loaded = [models.load_model(p) for p in paths]
        self.tagger, self.classifiers = loaded[0], loaded[1:]
        self.lines = [_input_line(u) for u in test]

    def start(self) -> None:
        self.decodes = _Recorder(self.tagger, "decode")
        self.classifies = [_Recorder(m, "classify") for m in self.classifiers]
        self.tagger_params = _params(self.tagger)
        self.word_vocab = self.tagger.word_vocab.to_dict()
        self.char_vocab = self.tagger.char_vocab.to_dict()
        self.classifier_params = [_params(m) for m in self.classifiers]

    def run_round(self, r: int) -> Round:
        stdin = io.StringIO("".join(_cycle(self.lines, r, self.sizes.predict_per_round)))
        stdout = io.StringIO()
        latencies = []
        t_start = time.perf_counter()
        for line in stdin:
            with self.tracer.span("cli.predict"):
                t0 = time.perf_counter()
                utterance = data.utterance_from_json(json.loads(line))
                tagged = cli._predict_utterance(self.tagger, utterance)
                stdout.write(json.dumps(data.utterance_to_json(tagged), ensure_ascii=False) + "\n")
                labelled = utterance
                for model in self.classifiers:
                    labelled = cli._predict_utterance(model, labelled)
                stdout.write(json.dumps(data.utterance_to_json(labelled), ensure_ascii=False) + "\n")
                latencies.append(time.perf_counter() - t0)
        seconds = time.perf_counter() - t_start
        self.round_io = (stdin.getvalue().splitlines(), stdout.getvalue().splitlines(), latencies)
        n = len(latencies)
        return Round(items=n, seconds=seconds, infer_items=n, infer_seconds=seconds,
                     phases={"predict_utt_per_s": (n, seconds)})

    def check_round(self, r: int) -> tuple[int, list[str], list[float]]:
        inputs, outputs, latencies = self.round_io
        decodes, _ = self.decodes.take()
        classifies = [rec.take()[0] for rec in self.classifies]
        failed_lines = 0
        problems = []
        if len(outputs) != 2 * len(inputs) or len(decodes) != len(inputs):
            return len(inputs), [f"round {r}: {len(outputs)} output lines, {len(decodes)} decodes for {len(inputs)} inputs"], latencies
        step = max(1, len(inputs) // SAMPLES_PER_ROUND)
        span_offset = 0
        for k, line in enumerate(inputs):
            source = json.loads(line)
            what = f"round {r} line {k}"
            found = []
            rows = []
            for out in outputs[2 * k : 2 * k + 2]:
                try:
                    row = data.utterance_from_json(json.loads(out))
                    row.require_full_features()
                    rows.append(row)
                except (json.JSONDecodeError, data.CorpusError) as err:
                    found.append(f"{what}: output does not re-parse: {err}")
            if len(rows) == 2:
                tagged, labelled = rows
                for row in rows:
                    if row.tokens != source["tokens"]:
                        found.append(f"{what}: tokens changed")
                    for span in row.spans:
                        found += ref.check_features(span.features, what)
                expected = [(s["start"], s["end"], s["intent"]) for s in source["spans"]]
                if [(s.start, s.end, s.intent) for s in labelled.spans] != expected:
                    found.append(f"{what}: reference spans not kept")
                found += ref.check_path(decodes[k][1], self.tagger.tags, what)
                if k % step == 0 and k // step < SAMPLES_PER_ROUND:
                    found += self._check_sample(source, tagged, labelled, decodes[k][1], what)
            n_spans = len(source["spans"])
            for rec_calls, model in zip(classifies, self.classifiers):
                for (_, predicted), span in zip(rec_calls[span_offset : span_offset + n_spans],
                                                labelled.spans if len(rows) == 2 else []):
                    if model.labels[predicted] != span.features[model.dimension]:
                        found.append(f"{what}: written label differs from the model's prediction")
            span_offset += n_spans
            if found:
                failed_lines += 1
                problems += found
        return failed_lines, problems, latencies

    def _check_sample(self, source, tagged, labelled, path, what) -> list[str]:
        tokens = source["tokens"]
        emissions = ref.tagger_emissions(self.tagger_params, self.word_vocab, self.char_vocab, tokens)
        best = ref.viterbi(emissions, self.tagger_params["crf.transitions"], self.tagger.tags)
        problems = ref.check_path(path, self.tagger.tags, f"{what} tagger", reference=best)
        expected = ref.spans_from_tags([self.tagger.tags[i] for i in best])
        if [(s.start, s.end, s.intent) for s in tagged.spans] != expected:
            problems.append(f"{what}: tagged spans {tagged.spans} differ from reference {expected}")
        for model, params in zip(self.classifiers, self.classifier_params):
            vocab = model.word_vocab.to_dict()
            for span in labelled.spans:
                mask = [int(span.start <= i < span.end) for i in range(len(tokens))]
                logits = ref.global_local_logits(params, vocab, model.config.filter_widths, tokens, mask)
                label = model.labels.index(span.features[model.dimension])
                problems += ref.check_label(label, logits, f"{what} {model.dimension}")
        return problems

    def finish(self) -> tuple[list[str], dict]:
        return [], {}

    def close(self) -> None:
        shutil.rmtree(self.bundle_dir, ignore_errors=True)


def _input_line(u) -> str:
    """A corpus row with the reference spans but none of their features."""
    spans = [{"start": s.start, "end": s.end, "intent": s.intent} for s in u.spans]
    return json.dumps({"tokens": u.tokens, "spans": spans}) + "\n"
