"""Command-line front end: data generation, training, evaluation, prediction,
ablation sweeps, and the finite-difference audit.

Every command is a pure function of (argv, input files, seed). Options may
also come from a key=value config file; explicit flags win over the file,
which wins over built-in defaults.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import re
import sys
from pathlib import Path

from .data import (
    DEFAULT_FEATURE_VALUES,
    FEATURE_DIMENSIONS,
    AnnotatedUtterance,
    CorpusError,
    IntentSpan,
    build_vocabularies,
    corpus_text,
    load_corpus,
    masked_examples,
    parse_json,
    utterance_from_json,
    utterance_to_json,
    write_text_atomic,
)
from .encoders import EncoderConfig
from .evaluation import (
    COMPARISON_ROLES,
    classifier_accuracy,
    compare_models,
    evaluate_feature_model,
    evaluate_intent_tagger,
    feature_span_f1,
    intent_span_f1,
    merge_reports,
    report_to_json_text,
)
from .gradcheck import report_lines, run_gradient_checks
from .models import (
    ARCHITECTURES,
    CLASSIFIER_ARCHS,
    TAGGER_ARCHS,
    IntentTagger,
    ModelError,
    bundle_text,
    load_model,
)
from .synthetic import SyntheticConfig, generate_synthetic
from .training import TrainingError, history_lines, recipe_for, train

DEFAULT_SEED = 13


class CliError(ValueError):
    """Bad flag combination or unusable option value."""


def _resolve_seed(value: int | None, default: int = DEFAULT_SEED) -> int:
    """The --seed flag, else SPANFEAT_SEED, else ``default``; a negative seed
    is refused naming its source, before any command reads a file."""
    if value is not None:
        if value < 0:
            raise CliError(f"--seed must be a non-negative integer, got {value}")
        return value
    env = os.environ.get("SPANFEAT_SEED")
    if env is None:
        return default
    try:
        seed = int(env)
    except ValueError:
        raise CliError(f"SPANFEAT_SEED must be an integer, got {env!r}") from None
    if seed < 0:
        raise CliError(f"SPANFEAT_SEED must be a non-negative integer, got {env!r}")
    return seed


_COMMENT = re.compile(r"(?:^|\s)#")


def _read_config_file(path: str) -> dict:
    """key = value lines as {key: (line number, value)}, the last line of a
    key winning; values parse as JSON where possible, else strings.

    ``#`` starts a comment at the start of a line or after whitespace only,
    so a value such as ``run#1`` keeps its ``#``.
    """
    overrides = {}
    try:
        data = Path(path).read_bytes()
    except OSError as err:
        raise CliError(f"cannot read config file: {err}") from None
    # bytes.splitlines cuts at the line ends of text mode: \n, \r\n and \r
    for lineno, raw in enumerate(data.splitlines(), start=1):
        try:  # each line is decoded on its own, so a byte that is not UTF-8 is named by its line
            text = raw.decode("utf-8")
        except UnicodeDecodeError as err:
            raise CliError(f"{path}:{lineno}: {err}") from None
        line = _COMMENT.split(text, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        try:
            overrides[key] = lineno, parse_json(value)
        except json.JSONDecodeError:
            overrides[key] = lineno, value
    return overrides


def _config_value(action, value, where: str):
    """A config file value as the flag of ``action`` would set it: a switch
    takes JSON true or false, a repeatable flag a string or a list of
    strings, and each value's text (a JSON string's contents) goes through
    the flag's type and choices."""
    if isinstance(action, argparse._StoreTrueAction):
        if not isinstance(value, bool):
            raise CliError(f"{where}: expected true or false, got {value!r}")
        return value
    repeatable = isinstance(action, argparse._AppendAction)
    items = value if repeatable and isinstance(value, list) else [value]
    if repeatable and not all(isinstance(item, str) for item in items):
        raise CliError(f"{where}: expected a string or a list of strings, got {value!r}")
    converted = []
    for item in items:
        text = item if isinstance(item, str) else json.dumps(item)
        try:
            converted.append(text if action.type is None else action.type(text))
        except ValueError:
            raise CliError(f"{where}: invalid {action.type.__name__} value {text!r}") from None
        if action.choices is not None and converted[-1] not in action.choices:
            raise CliError(f"{where}: {text!r} is not one of {', '.join(action.choices)}")
    return converted if repeatable else converted[0]


def _dimension_choices():
    return sorted(FEATURE_DIMENSIONS)


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="spanfeat",
        description="Intent-span tagging and intent-feature models over token sequences.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    subparsers = {}

    def command(name, help_text):
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("--config", help="key = value defaults file; flags override it")
        sub.add_argument("--seed", type=int, default=None,
                         help="random seed (falls back to SPANFEAT_SEED, then 13)")
        subparsers[name] = sub
        return sub

    gen = command("gen-data", "write synthetic train/dev/test corpora")
    gen.add_argument("--out-dir", required=True)
    gen.add_argument("--train-size", type=int, default=2000)
    gen.add_argument("--dev-size", type=int, default=500)
    gen.add_argument("--test-size", type=int, default=500)
    gen.add_argument("--rho", type=float, default=0.5,
                     help="probability that a span carries its own feature cue")
    gen.add_argument("--rho-dim", action="append", default=None, metavar="DIM=RHO",
                     help="per-dimension override of --rho; repeatable")
    gen.add_argument("--max-spans", type=int, default=3)

    tr = command("train", "train one model and save its bundle")
    tr.add_argument("--arch", required=True, choices=sorted(ARCHITECTURES))
    tr.add_argument("--train", required=True, dest="train_path")
    tr.add_argument("--dev", dest="dev_path")
    tr.add_argument("--model", required=True, help="output bundle path")
    tr.add_argument("--dimension", choices=_dimension_choices())
    tr.add_argument("--epochs", type=int, default=30)
    tr.add_argument("--batch-size", type=int, default=None)
    tr.add_argument("--lr", type=float, default=None)
    tr.add_argument("--history", help="write per-epoch loss/metric lines here")
    tr.add_argument("--word-dim", type=int, default=None, help="tagger word embedding size")
    tr.add_argument("--lstm-hidden", type=int, default=None, help="tagger LSTM size per direction")
    tr.add_argument("--embedding-dim", type=int, default=None, help="classifier embedding size")
    tr.add_argument("--filters", type=int, default=None, help="classifier filters per width")
    tr.add_argument("--boundary-dim", type=int, default=None,
                    help="boundary embedding size (cascaded tagger only)")
    tr.add_argument("--constrain-training", action="store_true",
                    help="apply transition constraints inside the training loss (taggers)")
    tr.add_argument("--no-global-context", action="store_true",
                    help="global-local ablation: restrict the global view to the span")
    tr.add_argument("--no-shared-embedding", action="store_true",
                    help="global-local ablation: separate global/local embedding tables")
    tr.add_argument("--share-pooling", action="store_true",
                    help="global-local variant: one conv/pool stack for both views")

    ev = command("eval", "score a saved model on a corpus")
    ev.add_argument("--model", required=True)
    ev.add_argument("--corpus", required=True)
    ev.add_argument("--pipeline", action="store_true",
                    help="feed the feature model spans predicted by --intent-model")
    ev.add_argument("--intent-model", help="intent tagger bundle for --pipeline")
    ev.add_argument("--out", help="also write the report as JSON here")

    pr = command("predict", "annotate utterances from stdin to stdout")
    pr.add_argument("--model", required=True)
    pr.add_argument("--on-error", choices=("fail", "skip"), default="fail",
                    help="fail: stop at the first line that cannot be parsed or labelled; "
                         "skip: write nothing for it, go on, and list the skipped lines on stderr")

    ab = command("ablate", "train global-local, both ablations, and span-cnn; compare")
    ab.add_argument("--train", required=True, dest="train_path")
    ab.add_argument("--test", required=True, dest="test_path")
    ab.add_argument("--dimension", choices=_dimension_choices(), action="append",
                    default=None, help="repeatable; defaults to all six dimensions")
    ab.add_argument("--epochs", type=int, default=3)
    ab.add_argument("--embedding-dim", type=int, default=None)
    ab.add_argument("--filters", type=int, default=None)
    ab.add_argument("--out", help="also write the comparison table as JSON here")

    gc = command("grad-check", "finite-difference audit of primitives and models")

    return parser, subparsers


def _apply_config_overrides(argv, subparsers) -> dict:
    """Make the values of the command's --config file the defaults of its
    flags. A key no command knows is an error; a key of another command is
    left alone. Returns the repeatable flags' lists, which apply only when
    the flag is not given (argparse would append to a default list)."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", default=None)
    known, _ = pre.parse_known_args(argv)
    sub = subparsers.get(argv[0]) if argv else None
    if not known.config or sub is None:
        return {}
    actions = {action.dest: action for action in sub._actions}
    known_dests = {action.dest for other in subparsers.values() for action in other._actions}
    defaults, lists = {}, {}
    for key, (lineno, value) in _read_config_file(known.config).items():
        if key not in known_dests:
            raise CliError(f"{known.config}:{lineno}: unknown config key {key!r}")
        if key in actions:
            converted = _config_value(actions[key], value, f"{known.config}:{lineno}: {key}")
            (lists if isinstance(converted, list) else defaults)[key] = converted
    sub.set_defaults(**defaults)
    return lists


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------


def _cmd_gen_data(args) -> int:
    rho_by_dimension = {}
    for item in args.rho_dim or ():
        key, sep, value = str(item).partition("=")
        if not sep:
            raise CliError(f"--rho-dim expects DIM=RHO, got {item!r}")
        try:
            rho_by_dimension[key.strip()] = float(value)
        except ValueError:
            raise CliError(f"--rho-dim value must be a number, got {value!r}") from None
    config = SyntheticConfig(
        train_size=args.train_size,
        dev_size=args.dev_size,
        test_size=args.test_size,
        seed=_resolve_seed(args.seed, default=7),
        rho=args.rho,
        rho_by_dimension=rho_by_dimension,
        max_spans=args.max_spans,
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = [out_dir / f"{name}.jsonl" for name in ("train", "dev", "test")]
    _check_output_parents(*paths)
    parts = generate_synthetic(config)
    write_text_atomic({path: corpus_text(corpus) for path, corpus in zip(paths, parts)})
    for path, corpus in zip(paths, parts):
        print(f"wrote {path} ({len(corpus)} utterances)")
    return 0


# train flags that only some architectures read: argparse dest -> those architectures
_ARCH_FLAGS = {
    "word_dim": TAGGER_ARCHS,
    "lstm_hidden": TAGGER_ARCHS,
    "constrain_training": TAGGER_ARCHS,
    "boundary_dim": ("feature-tagger-cascaded",),
    "embedding_dim": CLASSIFIER_ARCHS,
    "filters": CLASSIFIER_ARCHS,
    "no_global_context": ("global-local",),
    "no_shared_embedding": ("global-local",),
    "share_pooling": ("global-local",),
}


def _check_train_flags(args) -> None:
    arch = args.arch
    if arch == "intent-tagger":
        if args.dimension:
            raise CliError("--dimension applies to feature models, not intent-tagger")
    elif not args.dimension:
        raise CliError(f"--dimension is required for {arch}")
    for dest, archs in _ARCH_FLAGS.items():
        value = getattr(args, dest)
        if value is not None and value is not False and arch not in archs:
            raise CliError(f"--{dest.replace('_', '-')} applies to {', '.join(archs)} only")


def _check_output_parents(*paths: str | Path | None) -> None:
    """Refuse, before any work is done, an output path whose directory does
    not exist, that is an existing directory, which no file can replace, or
    that names the file of an earlier output, which it would overwrite; a
    path that is not given (None or empty) is skipped."""
    seen = set()
    for path in map(Path, filter(None, paths)):
        if not path.parent.is_dir():
            raise CliError(f"cannot write {path}: no directory {path.parent}")
        if path.is_dir():
            raise CliError(f"cannot write {path}: it is a directory")
        if path.resolve() in seen:
            raise CliError(f"cannot write {path}: another output is written there")
        seen.add(path.resolve())


def _given(**values) -> dict:
    """The keyword arguments whose flag was given (is not None)."""
    return {k: v for k, v in values.items() if v is not None}


def _classifier_sizes(args) -> dict:
    return _given(embedding_dim=args.embedding_dim, filters_per_width=args.filters)


def _build_model(args, seed, word_vocab, char_vocab, intents):
    cls = ARCHITECTURES[args.arch]
    if args.arch in CLASSIFIER_ARCHS:
        switches = {}
        if args.arch == "global-local":
            switches = dict(
                share_encoder_embedding=not args.no_shared_embedding,
                use_global_context=not args.no_global_context,
                share_pooling_params=args.share_pooling,
            )
        config = cls.config_type(**_classifier_sizes(args), **switches)
        return cls(word_vocab, args.dimension, config, seed=seed)
    word_dims = None if args.word_dim is None else [args.word_dim]
    encoder = EncoderConfig(**_given(word_embedding_dims=word_dims, lstm_hidden=args.lstm_hidden))
    subject = intents if args.arch == "intent-tagger" else args.dimension
    return cls(
        word_vocab, char_vocab, subject, encoder, seed=seed,
        constrain_training=args.constrain_training, **_given(boundary_dim=args.boundary_dim),
    )


def _train_one(model, train_corpus, dev_corpus, epochs, seed, batch_size=None, lr=None):
    """Wire a model to its stock optimizer recipe and run the loop."""
    config, clip = recipe_for(model.architecture, epochs=epochs, seed=seed)
    config = dataclasses.replace(config, **_given(batch_size=batch_size, learning_rate=lr))

    if model.architecture in CLASSIFIER_ARCHS:
        examples = masked_examples(train_corpus, model.dimension)
        dev = None if dev_corpus is None else masked_examples(dev_corpus, model.dimension)
        metric = classifier_accuracy
    else:
        examples = train_corpus
        dev = dev_corpus
        metric = intent_span_f1 if isinstance(model, IntentTagger) else feature_span_f1
    history = train(model, examples, config, dev_examples=dev, metric=metric, grad_clip=clip)
    return history


def _cmd_train(args) -> int:
    _check_train_flags(args)
    _check_output_parents(args.model, args.history)
    seed = _resolve_seed(args.seed)
    require = args.arch != "intent-tagger"
    train_corpus = load_corpus(args.train_path, require_features=require)
    dev_corpus = load_corpus(args.dev_path, require_features=require) if args.dev_path else None
    if not train_corpus:
        raise CliError(f"no utterances in {args.train_path}")
    if dev_corpus is not None and not any(u.spans for u in dev_corpus):
        # the dev metric would read 0 every epoch and keep epoch 1's parameters
        raise CliError(f"no intent spans in {args.dev_path}" if dev_corpus else f"no utterances in {args.dev_path}")
    word_vocab, char_vocab = build_vocabularies(train_corpus)
    intents = sorted({s.intent for u in train_corpus for s in u.spans})
    if args.arch == "intent-tagger" and not intents:
        raise CliError("training corpus has no intent spans")

    model = _build_model(args, seed, word_vocab, char_vocab, intents)
    history = _train_one(
        model, train_corpus, dev_corpus, args.epochs, seed,
        batch_size=args.batch_size, lr=args.lr,
    )
    outputs = {args.model: bundle_text(model)}
    if args.history:
        outputs[args.history] = history_lines(history)
    write_text_atomic(outputs)  # the bundle and the history, or neither
    last = history[-1]
    best = max((r.dev_metric for r in history if r.dev_metric is not None), default=None)
    summary = f"trained {args.arch} for {len(history)} epochs; final train_loss={last.train_loss:.4f}"
    if best is not None:
        summary += f" best_dev_metric={best:.4f}"
    print(f"{summary}; saved to {args.model}")
    return 0


def _cmd_eval(args) -> int:
    _check_output_parents(args.out)
    if args.pipeline and not args.intent_model:
        raise CliError("--pipeline needs --intent-model")
    if args.intent_model and not args.pipeline:
        raise CliError("--intent-model applies only with --pipeline")
    model = load_model(args.model)
    corpus_tag = Path(args.corpus).name
    if isinstance(model, IntentTagger):
        if args.pipeline:
            raise CliError("--pipeline applies to feature models, not intent-tagger")
        corpus = load_corpus(args.corpus, require_features=False)
        report = evaluate_intent_tagger(model, corpus, corpus_tag=corpus_tag)
    else:
        corpus = load_corpus(args.corpus)
        tagger = None
        if args.pipeline:
            tagger = load_model(args.intent_model)
            if not isinstance(tagger, IntentTagger):
                raise CliError("--intent-model must be an intent-tagger bundle")
        report = evaluate_feature_model(model, corpus, corpus_tag=corpus_tag, intent_tagger=tagger)
    sys.stdout.write(report.to_text())
    if args.out:
        write_text_atomic({args.out: report_to_json_text(report)})
    return 0


def _full_features(span: IntentSpan, dimension: str, label: str) -> dict:
    return {**DEFAULT_FEATURE_VALUES, **span.features, dimension: label}


def _predict_utterance(model, u: AnnotatedUtterance) -> AnnotatedUtterance:
    if isinstance(model, IntentTagger):
        spans = [
            IntentSpan(s.start, s.end, s.intent, dict(DEFAULT_FEATURE_VALUES))
            for s in model.tag(u.tokens)
        ]
        return AnnotatedUtterance(tokens=u.tokens, spans=spans)
    spans = [
        IntentSpan(s.start, s.end, s.intent, _full_features(s, model.dimension, label))
        for s, label in zip(u.spans, model.labels_for(u.tokens, u.spans))
    ]
    return AnnotatedUtterance(tokens=u.tokens, spans=spans)


@contextlib.contextmanager
def _utf8_stdin():
    """stdin read as UTF-8 whatever the locale, its lines cut as text mode
    cuts them; a byte that is not UTF-8 stays in its line as a lone
    surrogate (PEP 383), so that the line holding it, and no other, fails
    to decode."""
    buffer = getattr(sys.stdin, "buffer", None)
    if buffer is None:  # a text stream with no bytes beneath it
        yield sys.stdin
        return
    stdin = io.TextIOWrapper(buffer, encoding="utf-8", errors="surrogateescape")
    try:
        yield stdin
    finally:
        stdin.detach()  # leaving sys.stdin's buffer open


def _cmd_predict(args) -> int:
    model = load_model(args.model)
    read, written, skipped = 0, 0, []
    with _utf8_stdin() as stdin:
        for lineno, line in enumerate(stdin, start=1):
            if not line.strip():
                continue
            read += 1
            try:  # a line that is not UTF-8, does not parse or cannot be labelled
                line = line.encode("utf-8", "surrogateescape").decode("utf-8")
                annotated = _predict_utterance(model, utterance_from_json(parse_json(line)))
            except ValueError as err:  # decode, JSON, corpus and model errors alike
                if args.on_error == "fail":
                    raise CorpusError(f"stdin:{lineno}: {err}") from None
                skipped.append(f"stdin:{lineno}: {err}")
                continue
            sys.stdout.write(json.dumps(utterance_to_json(annotated), ensure_ascii=False) + "\n")
            written += 1
    if args.on_error == "skip":
        sys.stdout.flush()
        print(f"skipped {len(skipped)} of {read} lines", file=sys.stderr)
        for reason in skipped:
            print(reason, file=sys.stderr)
    return 0 if written or not skipped else 1


def _cmd_ablate(args) -> int:
    repeated = sorted({d for d in args.dimension or () if args.dimension.count(d) > 1})
    if repeated:
        raise CliError(f"--dimension names {', '.join(map(repr, repeated))} more than once")
    _check_output_parents(args.out)
    seed = _resolve_seed(args.seed)
    train_corpus = load_corpus(args.train_path)
    test_corpus = load_corpus(args.test_path)
    word_vocab, _ = build_vocabularies(train_corpus)
    dimensions = args.dimension or _dimension_choices()
    sizes = _classifier_sizes(args)

    reports = {}
    for role, (cls, overrides) in COMPARISON_ROLES.items():
        sections = []
        for dimension in dimensions:
            model = cls(word_vocab, dimension, cls.config_type(**sizes, **overrides), seed=seed)
            _train_one(model, train_corpus, None, args.epochs, seed)
            sections.append(
                evaluate_feature_model(model, test_corpus, corpus_tag=Path(args.test_path).name)
            )
            print(
                f"{role:<22} {dimension:<24} micro_f1="
                f"{sections[-1].dimensions[dimension].micro_f1:.4f}",
                flush=True,
            )
        reports[role] = merge_reports(sections, model_tag=role)

    result = compare_models(reports)
    sys.stdout.write(result.to_text())
    if args.out:
        payload = {
            "micro_f1": result.micro_table,
            "failures": result.failures,
            "verdict": result.verdict,
        }
        write_text_atomic({args.out: json.dumps(payload, indent=2, sort_keys=True) + "\n"})
    return 0 if result.verdict == "PASS" else 1


def _cmd_grad_check(args) -> int:
    results = run_gradient_checks(seed=_resolve_seed(args.seed))
    for line in report_lines(results):
        print(line)
    return 0 if all(r.passed for r in results) else 1


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "predict": _cmd_predict,
    "ablate": _cmd_ablate,
    "grad-check": _cmd_grad_check,
}


def run(argv: list[str]) -> int:
    parser, subparsers = _build_parser()
    try:
        lists = _apply_config_overrides(argv, subparsers)
        args = parser.parse_args(argv)
        for dest, values in lists.items():
            if getattr(args, dest) is None:
                setattr(args, dest, values)
        return _COMMANDS[args.command](args)
    except (CliError, CorpusError, ModelError, TrainingError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except FileNotFoundError as err:
        print(f"error: {err.filename or err} not found", file=sys.stderr)
        return 1
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
