"""End-to-end command coverage through run(argv): every command, the error
paths, config-file precedence, and reproducibility."""

import contextlib
import errno
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spanfeat
from spanfeat import data
from spanfeat.cli import _read_config_file, run
from spanfeat.data import DEFAULT_FEATURE_VALUES, load_corpus, utterance_to_json
from spanfeat.models import load_model


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    code = run([
        "gen-data", "--out-dir", str(root), "--train-size", "40",
        "--dev-size", "10", "--test-size", "10", "--seed", "7",
    ])
    assert code == 0
    return root


# nested past the recursion limit of Python's json parser
DEEP_LIST = "[" * 100_000 + "]" * 100_000

TINY_TAGGER = ["--word-dim", "12", "--lstm-hidden", "6", "--epochs", "1"]
TINY_CLASSIFIER = ["--embedding-dim", "12", "--filters", "3", "--epochs", "1"]


def train_args(arch, corpus_dir, model_path, *extra):
    return [
        "train", "--arch", arch, "--train", str(corpus_dir / "train.jsonl"),
        "--model", str(model_path), *extra,
    ]


class TestGenData:
    def test_writes_three_partitions(self, corpus_dir):
        for name, size in (("train", 40), ("dev", 10), ("test", 10)):
            rows = load_corpus(corpus_dir / f"{name}.jsonl")
            assert len(rows) == size

    def test_same_seed_byte_identical(self, tmp_path):
        for sub in ("a", "b"):
            assert run([
                "gen-data", "--out-dir", str(tmp_path / sub), "--train-size", "15",
                "--dev-size", "3", "--test-size", "3", "--seed", "21",
            ]) == 0
        for name in ("train", "dev", "test"):
            assert (tmp_path / "a" / f"{name}.jsonl").read_bytes() == \
                (tmp_path / "b" / f"{name}.jsonl").read_bytes()

    def test_rho_dim_override(self, tmp_path):
        assert run([
            "gen-data", "--out-dir", str(tmp_path), "--train-size", "5",
            "--dev-size", "2", "--test-size", "2", "--rho-dim", "tense=0.0",
        ]) == 0

    def test_malformed_rho_dim(self, tmp_path, capsys):
        assert run([
            "gen-data", "--out-dir", str(tmp_path), "--rho-dim", "tense",
        ]) == 1
        assert "DIM=RHO" in capsys.readouterr().err

    def test_unknown_rho_dim_dimension(self, tmp_path, capsys):
        assert run([
            "gen-data", "--out-dir", str(tmp_path), "--rho-dim", "mood=0.5",
        ]) == 1
        assert "mood" in capsys.readouterr().err

    def test_writes_all_three_splits_or_none(self, tmp_path, capsys):
        # a split that cannot be written is refused before any is generated,
        # so the others are neither written nor reported
        (tmp_path / "train.jsonl").write_bytes(b"old\n")
        (tmp_path / "test.jsonl").mkdir()
        assert run([
            "gen-data", "--out-dir", str(tmp_path), "--train-size", "5",
            "--dev-size", "2", "--test-size", "2",
        ]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: cannot write {tmp_path / 'test.jsonl'}: it is a directory"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["test.jsonl", "train.jsonl"]
        assert (tmp_path / "train.jsonl").read_bytes() == b"old\n"


class TestTrain:
    def test_classifier_bundle_round_trips(self, corpus_dir, tmp_path):
        model_path = tmp_path / "gl.json"
        code = run(train_args(
            "global-local", corpus_dir, model_path, "--dimension", "negation",
            "--dev", str(corpus_dir / "dev.jsonl"), *TINY_CLASSIFIER,
        ))
        assert code == 0
        model = load_model(model_path)
        assert model.architecture == "global-local"
        assert model.dimension == "negation"

    def test_history_file_one_line_per_epoch(self, corpus_dir, tmp_path):
        model_path, history_path = tmp_path / "cnn.json", tmp_path / "history.txt"
        code = run(train_args(
            "span-cnn", corpus_dir, model_path, "--dimension", "tense",
            "--embedding-dim", "12", "--filters", "3", "--epochs", "2",
            "--history", str(history_path),
        ))
        assert code == 0
        lines = history_path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("epoch=1 train_loss=")

    def test_writes_bundle_and_history_or_neither(self, corpus_dir, tmp_path, capsys):
        # a history path that is a directory is refused before training, so
        # the bundle already at the model path keeps its bytes
        model_path, history_path = tmp_path / "cnn.json", tmp_path / "history"
        model_path.write_bytes(b"old bundle\n")
        history_path.mkdir()
        code = run(train_args(
            "span-cnn", corpus_dir, model_path, "--dimension", "tense", *TINY_CLASSIFIER,
            "--history", str(history_path),
        ))
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: cannot write {history_path}: it is a directory"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cnn.json", "history"]
        assert model_path.read_bytes() == b"old bundle\n"
        assert list(history_path.iterdir()) == []

    def test_history_at_the_model_path_rejected_before_training(self, corpus_dir, tmp_path, capsys):
        # the history would replace the bundle, leaving no model behind
        model_path = tmp_path / "cnn.json"
        code = run(train_args(
            "span-cnn", corpus_dir, model_path, "--dimension", "tense", *TINY_CLASSIFIER,
            "--history", str(model_path),
        ))
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: cannot write {model_path}: another output is written there"]
        assert list(tmp_path.iterdir()) == []

    def test_tagger_trains_and_saves(self, corpus_dir, tmp_path):
        model_path = tmp_path / "intent.json"
        code = run(train_args("intent-tagger", corpus_dir, model_path, *TINY_TAGGER))
        assert code == 0
        assert load_model(model_path).architecture == "intent-tagger"

    def test_cascaded_with_boundary_dim(self, corpus_dir, tmp_path):
        model_path = tmp_path / "casc.json"
        code = run(train_args(
            "feature-tagger-cascaded", corpus_dir, model_path,
            "--dimension", "negation", "--boundary-dim", "4", *TINY_TAGGER,
        ))
        assert code == 0
        assert load_model(model_path).boundary_dim == 4

    def test_dimension_on_intent_tagger_rejected(self, corpus_dir, tmp_path, capsys):
        code = run(train_args(
            "intent-tagger", corpus_dir, tmp_path / "x.json", "--dimension", "tense",
        ))
        assert code == 1
        assert "--dimension" in capsys.readouterr().err

    def test_missing_dimension_rejected(self, corpus_dir, tmp_path, capsys):
        code = run(train_args("span-cnn", corpus_dir, tmp_path / "x.json"))
        assert code == 1
        assert "--dimension is required" in capsys.readouterr().err

    def test_ablation_flag_needs_global_local(self, corpus_dir, tmp_path, capsys):
        code = run(train_args(
            "span-cnn", corpus_dir, tmp_path / "x.json", "--dimension", "tense",
            "--no-global-context",
        ))
        assert code == 1
        assert "global-local" in capsys.readouterr().err

    def test_constrain_training_needs_tagger(self, corpus_dir, tmp_path, capsys):
        code = run(train_args(
            "global-local", corpus_dir, tmp_path / "x.json", "--dimension", "tense",
            "--constrain-training",
        ))
        assert code == 1
        assert "tagger" in capsys.readouterr().err

    def test_boundary_dim_needs_cascaded(self, corpus_dir, tmp_path, capsys):
        code = run(train_args(
            "feature-tagger-flat", corpus_dir, tmp_path / "x.json",
            "--dimension", "tense", "--boundary-dim", "4",
        ))
        assert code == 1
        assert "cascaded" in capsys.readouterr().err

    @pytest.mark.parametrize("arch, extra", [
        ("intent-tagger", TINY_TAGGER),
        ("global-local", ["--dimension", "tense", *TINY_CLASSIFIER]),
    ])
    def test_empty_intent_names_file_and_line(self, corpus_dir, tmp_path, capsys, arch, extra):
        # a tagger would build its tags of an empty intent ("B-") and fail
        # late; every architecture refuses the row as the corpus loads
        lines = (corpus_dir / "train.jsonl").read_text().splitlines(keepends=True)
        row = json.loads(lines[2])
        row["spans"][0]["intent"] = ""
        lines[2] = json.dumps(row) + "\n"
        train = tmp_path / "train.jsonl"
        train.write_text("".join(lines))
        model = tmp_path / "m.json"
        assert run(["train", "--arch", arch, "--train", str(train), "--model", str(model), *extra]) == 1
        assert capsys.readouterr().err == f"error: {train}:3: span intent must be a non-empty string\n"
        assert not model.exists()

    def test_missing_corpus_file(self, tmp_path, capsys):
        code = run([
            "train", "--arch", "span-cnn", "--train", str(tmp_path / "nope.jsonl"),
            "--model", str(tmp_path / "x.json"), "--dimension", "tense",
        ])
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_same_seed_same_bundle(self, corpus_dir, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert run(train_args(
                "span-cnn", corpus_dir, path, "--dimension", "tense",
                "--seed", "5", *TINY_CLASSIFIER,
            )) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


    @pytest.mark.parametrize("arch, flag, value, message", [
        ("span-cnn", "--batch-size", "0", "batch_size"),
        ("span-cnn", "--lr", "0", "learning_rate"),
        ("span-cnn", "--embedding-dim", "0", "embedding"),
        ("feature-tagger-cascaded", "--boundary-dim", "0", "boundary_dim"),
    ])
    def test_explicit_zero_is_not_replaced_by_default(
        self, corpus_dir, tmp_path, capsys, arch, flag, value, message
    ):
        model_path = tmp_path / "x.json"
        code = run(train_args(arch, corpus_dir, model_path, "--dimension", "tense", flag, value, "--epochs", "1"))
        assert code == 1
        assert message in capsys.readouterr().err
        assert not model_path.exists()

    @pytest.mark.parametrize("arch, value", [("span-cnn", "nan"), ("span-cnn", "-inf"), ("intent-tagger", "inf")])
    def test_non_finite_learning_rate_rejected_before_training(self, corpus_dir, tmp_path, capsys, arch, value):
        model_path = tmp_path / "x.json"
        dimension = [] if arch == "intent-tagger" else ["--dimension", "tense"]
        code = run(train_args(arch, corpus_dir, model_path, *dimension, f"--lr={value}", "--epochs", "1"))
        assert code == 1
        err = capsys.readouterr().err
        assert "learning_rate must be a finite number" in err and "loss" not in err
        assert not model_path.exists()

    @pytest.mark.parametrize("arch", ["intent-tagger", "span-cnn"])
    @pytest.mark.parametrize("spanless", [False, True])
    def test_dev_file_without_spans_rejected_before_training(
        self, corpus_dir, tmp_path, capsys, monkeypatch, arch, spanless
    ):
        # an empty dev file, or one whose utterances hold no spans, would
        # give a dev metric of 0 every epoch and keep epoch 1's parameters
        dev_path = tmp_path / "dev.jsonl"
        utterances = load_corpus(corpus_dir / "dev.jsonl")[:3] if spanless else []
        dev_path.write_text("".join(
            json.dumps({"tokens": u.tokens, "spans": []}) + "\n" for u in utterances
        ))

        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr("spanfeat.cli.train", no_training)
        model_path = tmp_path / "x.json"
        dimension = [] if arch == "intent-tagger" else ["--dimension", "tense"]
        code = run(train_args(arch, corpus_dir, model_path, *dimension, "--dev", str(dev_path), "--epochs", "1"))
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: no {'intent spans' if spanless else 'utterances'} in {dev_path}\n"
        assert not model_path.exists()

    @pytest.mark.parametrize("arch, flag", [
        ("intent-tagger", "--filters"),
        ("intent-tagger", "--embedding-dim"),
        ("span-cnn", "--word-dim"),
        ("global-local", "--lstm-hidden"),
    ])
    def test_flag_of_other_architecture_rejected(self, corpus_dir, tmp_path, capsys, arch, flag):
        dimension = [] if arch == "intent-tagger" else ["--dimension", "tense"]
        code = run(train_args(arch, corpus_dir, tmp_path / "x.json", *dimension, flag, "12"))
        assert code == 1
        assert f"{flag} applies to" in capsys.readouterr().err


class TestConfigFile:
    def test_file_supplies_defaults_flags_win(self, corpus_dir, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("epochs = 5\nfilters = 3\nembedding-dim = 12  # inline note\n")
        model_path, history_path = tmp_path / "m.json", tmp_path / "h.txt"
        code = run(train_args(
            "span-cnn", corpus_dir, model_path, "--dimension", "tense",
            "--config", str(config), "--epochs", "1", "--history", str(history_path),
        ))
        assert code == 0
        # explicit --epochs 1 beat the file's 5
        assert len(history_path.read_text().splitlines()) == 1
        # the file's embedding size reached the model
        assert load_model(model_path).config.embedding_dim == 12

    def test_non_finite_learning_rate_rejected(self, corpus_dir, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("lr = nan\n")
        model_path = tmp_path / "m.json"
        code = run(train_args(
            "span-cnn", corpus_dir, model_path, "--dimension", "tense", "--config", str(config),
        ))
        assert code == 1
        assert "learning_rate must be a finite number, got nan" in capsys.readouterr().err
        assert not model_path.exists()

    def test_unknown_key_rejected(self, corpus_dir, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("learning_rate_warmup = 5\n")
        code = run(train_args(
            "span-cnn", corpus_dir, tmp_path / "m.json", "--dimension", "tense",
            "--config", str(config),
        ))
        assert code == 1
        assert "learning_rate_warmup" in capsys.readouterr().err

    def test_hash_inside_value_is_kept(self, corpus_dir, tmp_path):
        history_path = tmp_path / "run#1.txt"
        config = tmp_path / "run.cfg"
        config.write_text(f"history = {history_path}\n")
        assert run(train_args(
            "span-cnn", corpus_dir, tmp_path / "m.json", "--dimension", "tense",
            "--config", str(config), *TINY_CLASSIFIER,
        )) == 0
        assert len(history_path.read_text().splitlines()) == 1

    def test_comment_after_whitespace_is_cut(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("# header\nlr = 0.1  # note\n")
        assert _read_config_file(str(config)) == {"lr": (2, 0.1)}

    def test_deeply_nested_value_reads_as_text(self, tmp_path):
        # like any value that is not JSON, it is left for the flag's type to judge
        config = tmp_path / "run.cfg"
        config.write_text(f"dimension = {DEEP_LIST}\n")
        assert _read_config_file(str(config)) == {"dimension": (1, DEEP_LIST)}

    @settings(max_examples=100, deadline=None)
    @given(entries=st.dictionaries(
        st.from_regex(r"[a-z][a-z_]{0,8}", fullmatch=True),
        st.one_of(
            st.integers(), st.booleans(), st.floats(allow_nan=False, allow_infinity=False),
            st.from_regex(r"[abcxyz][abcxyz0-9#/._=-]{0,10}", fullmatch=True),
        ),
        max_size=6,
    ), comments=st.lists(st.booleans(), min_size=6, max_size=6))
    def test_written_values_read_back(self, entries, comments):
        lines = ["# written by the test"]
        for (key, value), comment in zip(entries.items(), comments):
            text = value if isinstance(value, str) else json.dumps(value)
            lines.append(f"{key} = {text}" + ("  # note" if comment else ""))
        with tempfile.TemporaryDirectory() as root:
            path = Path(root) / "run.cfg"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            assert {key: value for key, (_, value) in _read_config_file(str(path)).items()} == entries

    @pytest.mark.parametrize("key, text, message", [
        ("epochs", "2.5", "invalid int value '2.5'"),
        ("epochs", "true", "invalid int value 'true'"),
        ("embedding_dim", "[3]", "invalid int value '[3]'"),
        ("dimension", "Tense", "'Tense' is not one of"),
        ("no_global_context", '"false"', "expected true or false, got 'false'"),
    ])
    def test_value_that_does_not_fit_its_flag_rejected(self, corpus_dir, tmp_path, capsys, key, text, message):
        config = tmp_path / "run.cfg"
        config.write_text(f"# sizes\n{key} = {text}\n")
        model_path = tmp_path / "m.json"
        code = run(train_args("global-local", corpus_dir, model_path, "--config", str(config), *TINY_CLASSIFIER))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}:2: {key}: {message}") and err.count("\n") == 1
        assert not model_path.exists()

    def test_switch_takes_json_booleans(self, corpus_dir, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        model_path = tmp_path / "m.json"
        config.write_text('constrain_training = "false"\n')
        assert run(train_args("intent-tagger", corpus_dir, model_path, "--config", str(config), *TINY_TAGGER)) == 1
        assert "constrain_training: expected true or false" in capsys.readouterr().err
        config.write_text("constrain_training = true\n")
        assert run(train_args("intent-tagger", corpus_dir, model_path, "--config", str(config), *TINY_TAGGER)) == 0
        assert load_model(model_path).constrain_training is True

    @pytest.mark.parametrize("text, flags, expected", [
        ("tense", [], ["tense"]),
        ('["tense", "negation"]', [], ["negation", "tense"]),
        ('["tense", "negation"]', ["--dimension", "negation"], ["negation"]),
    ])
    def test_repeatable_flag_takes_a_string_or_a_list(self, corpus_dir, tmp_path, text, flags, expected):
        # the flags given on the command line replace the file's list
        config, out_path = tmp_path / "run.cfg", tmp_path / "table.json"
        config.write_text(f"dimension = {text}\n")
        run([
            "ablate", "--train", str(corpus_dir / "train.jsonl"), "--test", str(corpus_dir / "test.jsonl"),
            "--config", str(config), *flags, *TINY_CLASSIFIER, "--out", str(out_path),
        ])
        assert sorted(json.loads(out_path.read_text())["micro_f1"]) == expected

    def test_malformed_line_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("just some words\n")
        assert run(["gen-data", "--out-dir", str(tmp_path), "--config", str(config)]) == 1
        assert "key = value" in capsys.readouterr().err

    def test_line_that_is_not_utf8_names_file_and_line(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_bytes(b"seed = 1\n\xff\n")
        assert run(["gen-data", "--out-dir", str(tmp_path), "--config", str(config)]) == 1
        assert capsys.readouterr().err == (
            f"error: {config}:2: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
        )


@pytest.fixture(scope="module")
def trained(corpus_dir, tmp_path_factory):
    root = tmp_path_factory.mktemp("models")
    intent, cnn = root / "intent.json", root / "cnn.json"
    assert run(train_args("intent-tagger", corpus_dir, intent, *TINY_TAGGER)) == 0
    assert run(train_args(
        "span-cnn", corpus_dir, cnn, "--dimension", "tense", *TINY_CLASSIFIER,
    )) == 0
    return {"intent": intent, "cnn": cnn}


class TestEval:
    def test_intent_report_text(self, corpus_dir, trained, capsys):
        code = run([
            "eval", "--model", str(trained["intent"]),
            "--corpus", str(corpus_dir / "test.jsonl"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "spans: P=" in out and "boundary-disagreement:" in out

    def test_feature_report_with_json_out(self, corpus_dir, trained, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code = run([
            "eval", "--model", str(trained["cnn"]),
            "--corpus", str(corpus_dir / "test.jsonl"), "--out", str(out_path),
        ])
        assert code == 0
        assert "micro-F1" in capsys.readouterr().out
        blob = json.loads(out_path.read_text())
        assert blob["span_mode"] == "gold"
        assert "tense" in blob["dimensions"]

    def test_pipeline_mode(self, corpus_dir, trained, capsys):
        code = run([
            "eval", "--model", str(trained["cnn"]),
            "--corpus", str(corpus_dir / "test.jsonl"),
            "--pipeline", "--intent-model", str(trained["intent"]),
        ])
        assert code == 0
        assert "spans=pipeline" in capsys.readouterr().out

    def test_pipeline_needs_intent_model(self, corpus_dir, trained, capsys):
        code = run([
            "eval", "--model", str(trained["cnn"]),
            "--corpus", str(corpus_dir / "test.jsonl"), "--pipeline",
        ])
        assert code == 1
        assert "--intent-model" in capsys.readouterr().err

    def test_intent_model_needs_pipeline(self, corpus_dir, trained, tmp_path, capsys):
        # refused before any model loads, so a missing file is not reached
        code = run([
            "eval", "--model", str(trained["cnn"]),
            "--corpus", str(corpus_dir / "test.jsonl"), "--intent-model", str(tmp_path / "missing.json"),
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: --intent-model applies only with --pipeline"]

    def test_pipeline_rejects_intent_tagger_target(self, corpus_dir, trained, capsys):
        code = run([
            "eval", "--model", str(trained["intent"]),
            "--corpus", str(corpus_dir / "test.jsonl"),
            "--pipeline", "--intent-model", str(trained["intent"]),
        ])
        assert code == 1
        assert "feature models" in capsys.readouterr().err

    def test_intent_model_must_be_tagger(self, corpus_dir, trained, capsys):
        code = run([
            "eval", "--model", str(trained["cnn"]),
            "--corpus", str(corpus_dir / "test.jsonl"),
            "--pipeline", "--intent-model", str(trained["cnn"]),
        ])
        assert code == 1
        assert "intent-tagger" in capsys.readouterr().err


class TestPredict:
    def _feed(self, monkeypatch, corpus):
        text = "".join(json.dumps(utterance_to_json(u)) + "\n" for u in corpus)
        monkeypatch.setattr("sys.stdin", io.StringIO(text))

    def test_intent_output_reparses_with_full_features(
        self, corpus_dir, trained, tmp_path, monkeypatch, capsys
    ):
        corpus = load_corpus(corpus_dir / "test.jsonl")[:3]
        self._feed(monkeypatch, corpus)
        assert run(["predict", "--model", str(trained["intent"])]) == 0
        out_path = tmp_path / "predicted.jsonl"
        out_path.write_text(capsys.readouterr().out)
        rows = load_corpus(out_path)  # require_features=True: schema closure
        assert len(rows) == 3
        for u in rows:
            for s in u.spans:
                assert set(s.features) == set(DEFAULT_FEATURE_VALUES)

    def test_feature_model_fills_dimension(
        self, corpus_dir, trained, tmp_path, monkeypatch, capsys
    ):
        corpus = load_corpus(corpus_dir / "test.jsonl")[:2]
        stripped = [
            {"tokens": u.tokens,
             "spans": [{"start": s.start, "end": s.end, "intent": s.intent} for s in u.spans]}
            for u in corpus
        ]
        text = "".join(json.dumps(row) + "\n" for row in stripped)
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert run(["predict", "--model", str(trained["cnn"])]) == 0
        out_path = tmp_path / "predicted.jsonl"
        out_path.write_text(capsys.readouterr().out)
        rows = load_corpus(out_path)
        assert [len(u.spans) for u in rows] == [len(u.spans) for u in corpus]

    def test_blank_lines_skipped(self, trained, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO("\n\n"))
        assert run(["predict", "--model", str(trained["intent"])]) == 0
        assert capsys.readouterr().out == ""

    def test_empty_token_names_line(self, trained, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO(
            '{"tokens": ["hi"], "spans": []}\n{"tokens": ["a", ""], "spans": []}\n'
        ))
        assert run(["predict", "--model", str(trained["intent"])]) == 1
        assert "stdin:2: token 1 is an empty string" in capsys.readouterr().err

    def test_empty_intent_names_line(self, trained, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO(
            '{"tokens": ["hi"], "spans": []}\n{"tokens": ["a"], "spans": [{"start": 0, "end": 1, "intent": ""}]}\n'
        ))
        assert run(["predict", "--model", str(trained["cnn"])]) == 1
        assert capsys.readouterr().err == "error: stdin:2: span intent must be a non-empty string\n"

    def test_bad_json_names_line(self, trained, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO('{"tokens": ["hi"], "spans": []}\nnot json\n'))
        assert run(["predict", "--model", str(trained["intent"])]) == 1
        assert "stdin:2" in capsys.readouterr().err


    def _malformed_among_good(self, corpus_dir, monkeypatch):
        corpus = load_corpus(corpus_dir / "test.jsonl")[:3]
        lines = [json.dumps(utterance_to_json(u)) + "\n" for u in corpus]
        lines.insert(1, '{"tokens": ["a"], "spans": [\n')
        monkeypatch.setattr("sys.stdin", io.StringIO("".join(lines)))
        return corpus

    def test_on_error_fail_stops_at_the_malformed_line(self, corpus_dir, trained, monkeypatch, capsys):
        corpus = self._malformed_among_good(corpus_dir, monkeypatch)
        assert run(["predict", "--model", str(trained["intent"]), "--on-error", "fail"]) == 1
        captured = capsys.readouterr()
        written = captured.out.splitlines()
        assert len(written) == 1 and json.loads(written[0])["tokens"] == corpus[0].tokens
        assert "error: stdin:2:" in captured.err

    def test_on_error_skip_writes_the_good_lines_and_reports(
        self, corpus_dir, trained, monkeypatch, capsys
    ):
        corpus = self._malformed_among_good(corpus_dir, monkeypatch)
        assert run(["predict", "--model", str(trained["intent"]), "--on-error", "skip"]) == 0
        captured = capsys.readouterr()
        assert [json.loads(line)["tokens"] for line in captured.out.splitlines()] == [
            u.tokens for u in corpus
        ]
        err = captured.err.splitlines()
        assert err[0] == "skipped 1 of 4 lines"
        assert len(err) == 2 and err[1].startswith("stdin:2: ")

    @pytest.mark.parametrize("on_error, code, line", [
        ("fail", 1, "error: stdin:2: nested too deeply"),
        ("skip", 0, "stdin:2: nested too deeply"),
    ])
    def test_deeply_nested_line_is_malformed(self, trained, monkeypatch, capsys, on_error, code, line):
        good = '{"tokens": ["hi"], "spans": []}\n'
        deep = '{"tokens": ' + DEEP_LIST + ', "spans": []}\n'
        monkeypatch.setattr("sys.stdin", io.StringIO(good + deep + good))
        assert run(["predict", "--model", str(trained["intent"]), "--on-error", on_error]) == code
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == (1 if on_error == "fail" else 2)
        assert line in captured.err.splitlines()[-1]

    # stdin as Python opens it under a C locale, and under PYTHONIOENCODING=utf-8:strict
    @pytest.mark.parametrize("errors", ["surrogateescape", "strict"])
    @pytest.mark.parametrize("on_error, code", [("fail", 1), ("skip", 0)])
    def test_line_that_is_not_utf8_is_malformed(
        self, corpus_dir, trained, tmp_path, monkeypatch, capsys, errors, on_error, code
    ):
        corpus = load_corpus(corpus_dir / "test.jsonl")[:2]
        good = [json.dumps(utterance_to_json(u)).encode() + b"\n" for u in corpus]
        data = good[0] + b'{"tokens": ["h\xffi"], "spans": []}\n' + good[1]
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors=errors))
        assert run(["predict", "--model", str(trained["cnn"]), "--on-error", on_error]) == code
        captured = capsys.readouterr()
        reason = "stdin:2: 'utf-8' codec can't decode byte 0xff in position 14: invalid start byte"
        assert captured.err.splitlines()[-1] == (f"error: {reason}" if on_error == "fail" else reason)
        out_path = tmp_path / "predicted.jsonl"
        out_path.write_text(captured.out, encoding="utf-8")
        kept = corpus[:1] if on_error == "fail" else corpus
        assert [u.tokens for u in load_corpus(out_path)] == [u.tokens for u in kept]

    def test_lone_surrogate_in_a_text_stream_is_malformed(self, trained, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO('{"tokens": ["h\udcffi"], "spans": []}\n'))
        assert run(["predict", "--model", str(trained["cnn"])]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "error: stdin:1: 'utf-8' codec can't decode byte 0xff" in captured.err

    def test_on_error_skip_fails_when_nothing_is_written(self, trained, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO('not json\n{"tokens": ["a", ""], "spans": []}\n'))
        assert run(["predict", "--model", str(trained["intent"]), "--on-error", "skip"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[0] == "skipped 2 of 2 lines"
        assert "stdin:2: token 1 is an empty string" in captured.err


class TestAblate:
    def test_runs_and_reports_verdict(self, corpus_dir, tmp_path, capsys):
        out_path = tmp_path / "table.json"
        code = run([
            "ablate", "--train", str(corpus_dir / "train.jsonl"),
            "--test", str(corpus_dir / "test.jsonl"), "--dimension", "negation",
            "--epochs", "1", "--embedding-dim", "12", "--filters", "3",
            "--out", str(out_path),
        ])
        out = capsys.readouterr().out
        assert "ordering verdict:" in out
        blob = json.loads(out_path.read_text())
        assert set(blob["micro_f1"]["negation"]) == {
            "global-local", "span-cnn", "no-global-context", "no-shared-embedding",
        }
        assert (code == 0) == (blob["verdict"] == "PASS")

    @pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
    def test_repeated_dimension_refused_before_any_work(self, tmp_path, capsys, via_config):
        # the corpus files do not exist, so a check made after loading them
        # would report them missing instead
        argv = ["ablate", "--train", str(tmp_path / "train.jsonl"), "--test", str(tmp_path / "test.jsonl")]
        if via_config:
            config = tmp_path / "run.cfg"
            config.write_text('dimension = ["tense", "negation", "tense"]\n')
            argv += ["--config", str(config)]
        else:
            argv += ["--dimension", "tense", "--dimension", "negation", "--dimension", "tense"]
        assert run(argv + ["--out", str(tmp_path / "table.json")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --dimension names 'tense' more than once\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == (["run.cfg"] if via_config else [])


class TestSeedsAndErrors:
    def test_env_seed_fallback(self, corpus_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("SPANFEAT_SEED", "77")
        model_path = tmp_path / "m.json"
        assert run(train_args(
            "span-cnn", corpus_dir, model_path, "--dimension", "tense", *TINY_CLASSIFIER,
        )) == 0
        assert json.loads(model_path.read_text())["config"]["seed"] == 77

    def test_flag_beats_env_seed(self, corpus_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("SPANFEAT_SEED", "77")
        model_path = tmp_path / "m.json"
        assert run(train_args(
            "span-cnn", corpus_dir, model_path, "--dimension", "tense",
            "--seed", "5", *TINY_CLASSIFIER,
        )) == 0
        assert json.loads(model_path.read_text())["config"]["seed"] == 5

    def test_bad_env_seed(self, corpus_dir, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SPANFEAT_SEED", "many")
        assert run(train_args(
            "span-cnn", corpus_dir, tmp_path / "m.json", "--dimension", "tense",
        )) == 1
        assert "SPANFEAT_SEED" in capsys.readouterr().err

    def test_unknown_command_exits_nonzero(self):
        with pytest.raises(SystemExit):
            run(["serve"])

    @pytest.mark.parametrize("command", [
        lambda corpus_dir, trained, out: train_args(
            "global-local", corpus_dir, out.parents[1] / "m.json", "--dimension", "tense",
            *TINY_CLASSIFIER, "--history", str(out),
        ),
        lambda corpus_dir, trained, out: [
            "eval", "--model", str(trained["cnn"]), "--corpus", str(corpus_dir / "test.jsonl"), "--out", str(out),
        ],
    ], ids=["train --history", "eval --out"])
    def test_output_directory_checked_before_any_work(self, corpus_dir, trained, tmp_path, capsys, command):
        # a missing directory is reported before a model is trained, saved
        # or evaluated, so the run leaves nothing behind and prints no report
        out = tmp_path / "nodir" / "out.txt"
        assert run(command(corpus_dir, trained, out)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: cannot write {out}: no directory {out.parent}"]
        assert list(tmp_path.iterdir()) == []

    # the argv, seed left out, of every command that takes a seed; train and
    # ablate name corpus files that do not exist, so a seed refused after a
    # file is read would be reported as the missing file instead
    SEEDED_COMMANDS = {
        "gen-data": lambda tmp: ["gen-data", "--out-dir", str(tmp / "out"), "--train-size", "3",
                                 "--dev-size", "1", "--test-size", "1"],
        "train": lambda tmp: train_args("span-cnn", tmp, tmp / "m.json", "--dimension", "tense"),
        "ablate": lambda tmp: ["ablate", "--train", str(tmp / "train.jsonl"), "--test", str(tmp / "test.jsonl")],
        "grad-check": lambda tmp: ["grad-check"],
    }

    @pytest.mark.parametrize("command", sorted(SEEDED_COMMANDS))
    def test_negative_seed_flag_refused_first(self, tmp_path, capsys, command):
        assert run(self.SEEDED_COMMANDS[command](tmp_path) + ["--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --seed must be a non-negative integer, got -1\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", sorted(SEEDED_COMMANDS))
    def test_negative_env_seed_refused_first(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setenv("SPANFEAT_SEED", "-3")
        assert run(self.SEEDED_COMMANDS[command](tmp_path)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: SPANFEAT_SEED must be a non-negative integer, got '-3'\n"
        assert list(tmp_path.iterdir()) == []

    def test_zero_seed_accepted(self, tmp_path, capsys):
        assert run(self.SEEDED_COMMANDS["gen-data"](tmp_path) + ["--seed", "0"]) == 0
        assert len(load_corpus(tmp_path / "out" / "train.jsonl")) == 3


@pytest.fixture(scope="module")
def tiny_inputs(tmp_path_factory):
    """A tiny corpus and a span-cnn bundle trained on it for one epoch."""
    root = tmp_path_factory.mktemp("tiny")
    assert run([
        "gen-data", "--out-dir", str(root), "--train-size", "8", "--dev-size", "2", "--test-size", "3", "--seed", "5",
    ]) == 0
    assert run(train_args("span-cnn", root, root / "cnn.json", "--dimension", "tense", *TINY_CLASSIFIER)) == 0
    return root


# every command that writes files: its argv, given the directory of the tiny
# inputs and an output directory, and the files it writes there
WRITING_COMMANDS = {
    "gen-data": (
        lambda inp, out: ["gen-data", "--out-dir", str(out), "--train-size", "4", "--dev-size", "2", "--test-size", "2"],
        ("train.jsonl", "dev.jsonl", "test.jsonl"),
    ),
    "train": (
        lambda inp, out: train_args(
            "span-cnn", inp, out / "model.json", "--dimension", "tense", *TINY_CLASSIFIER,
            "--history", str(out / "history.txt"),
        ),
        ("model.json", "history.txt"),
    ),
    "eval": (
        lambda inp, out: [
            "eval", "--model", str(inp / "cnn.json"), "--corpus", str(inp / "test.jsonl"), "--out", str(out / "report.json"),
        ],
        ("report.json",),
    ),
    "ablate": (
        lambda inp, out: [
            "ablate", "--train", str(inp / "train.jsonl"), "--test", str(inp / "test.jsonl"), "--dimension", "tense",
            "--epochs", "1", "--embedding-dim", "8", "--filters", "2", "--out", str(out / "table.json"),
        ],
        ("table.json",),
    ),
}


def _run_with_fault(argv, fault, n):
    """``run(argv)`` with an OSError at the n-th write or the n-th rename of
    an output file when ``fault`` is "write" or "rename"; returns the exit
    code and stderr."""
    calls = {"write": 0, "rename": 0}
    real_open, real_replace = open, os.replace

    def count(kind):
        calls[kind] += 1
        if kind == fault and calls[kind] == n:
            raise OSError(errno.ENOSPC, f"injected {kind} failure")

    class Staged:  # the new file an output is written to before its rename
        def __init__(self, handle):
            self.handle = handle

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.handle.close()

        def write(self, text):
            count("write")
            return self.handle.write(text)

    def staging_open(file, mode="r", *args, **kwargs):
        handle = real_open(file, mode, *args, **kwargs)
        return Staged(handle) if mode == "x" else handle

    def replace(src, dst):
        count("rename")
        real_replace(src, dst)

    err = io.StringIO()
    with mock.patch.object(data, "open", staging_open, create=True), mock.patch.object(os, "replace", replace), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, err.getvalue()


@settings(max_examples=60, deadline=None)
@given(draw=st.data())
def test_a_failed_command_writes_none_of_its_outputs(tiny_inputs, draw):
    # a command that fails at a write or a rename of one of its outputs, or
    # on a malformed config file or corpus, exits 1 with one error line and
    # leaves its output directory as it was: no new file, and the files
    # already there, outputs it would have replaced included, byte for byte
    command = draw.draw(st.sampled_from(sorted(WRITING_COMMANDS)), label="command")
    argv_of, outputs = WRITING_COMMANDS[command]
    faults = [(kind, n) for kind in ("write", "rename") for n in range(1, len(outputs) + 1)] + [("config", 0)]
    if command != "gen-data":
        faults.append(("corpus", 0))
    fault, n = draw.draw(st.sampled_from(faults), label="fault")
    existing = draw.draw(st.lists(st.sampled_from(outputs), unique=True), label="existing outputs")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        (out / "other.txt").write_text("another file\n")
        for name in existing:
            (out / name).write_text(f"old {name}\n")
        argv = argv_of(tiny_inputs, out)
        if fault == "config":
            (out / "bad.cfg").write_text("a line with no value\n")
            argv += ["--config", str(out / "bad.cfg")]
        elif fault == "corpus":
            (out / "bad.jsonl").write_text('{"tokens": ["hi"], "spans": []}\n{not json\n')
            argv = [str(out / "bad.jsonl") if arg.endswith(".jsonl") else arg for arg in argv]
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        code, err = _run_with_fault(argv, fault, n)
        after = {p.name: p.read_bytes() for p in out.iterdir()}
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    # the error is the injected one, so the command reached it
    assert {"write": "injected write", "rename": "injected rename", "config": "bad.cfg", "corpus": "bad.jsonl"}[fault] in err
    assert after == before


# Runs the (name, argv, stdin file or None) commands of its JSON argument in
# one process, in the current directory, and asserts each exits 0; each
# command's stdout is kept in a file of its own.
HASH_SEED_CHILD = r"""
import contextlib, json, os, sys
from spanfeat.cli import run

for name, argv, stdin in json.loads(sys.argv[1]):
    with open(f"{name}.stdout", "w", encoding="utf-8") as stdout, \
            open(stdin or os.devnull, encoding="utf-8") as sys.stdin, contextlib.redirect_stdout(stdout):
        assert run(argv) == 0, name
"""


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    # criterion 8 compares two runs in one process, which share one string
    # hash seed; here two processes with different seeds must write the same
    # corpora, bundles, histories, predictions and reports
    here = Path(".")  # each child runs in its own directory
    steps = [
        ("gen-data", ["gen-data", "--out-dir", ".", "--train-size", "30", "--dev-size", "6",
                      "--test-size", "6", "--seed", "3"], None),
        ("train-intent", train_args("intent-tagger", here, "intent.json", "--dev", "dev.jsonl",
                                    "--history", "intent.history", *TINY_TAGGER), None),
        ("train-global-local", train_args("global-local", here, "gl.json", "--dimension", "tense",
                                          "--history", "gl.history", *TINY_CLASSIFIER), None),
    ]
    for name in ("intent", "gl"):
        steps.append((f"predict-{name}", ["predict", "--model", f"{name}.json"], "test.jsonl"))
        steps.append((f"eval-{name}", ["eval", "--model", f"{name}.json", "--corpus", "test.jsonl",
                                       "--out", f"eval-{name}.json"], None))
    children = {}
    for hash_seed in ("1", "2"):
        out = tmp_path / f"hash-seed-{hash_seed}"
        out.mkdir()
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": str(Path(spanfeat.__file__).parents[1])}
        children[out] = subprocess.Popen(
            [sys.executable, "-c", HASH_SEED_CHILD, json.dumps(steps)], cwd=out, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
    outputs = []
    for out, child in children.items():
        log, _ = child.communicate(timeout=120)
        assert child.returncode == 0, log
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert len(outputs[0]) == 16
    assert outputs[0] == outputs[1]
