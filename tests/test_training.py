import numpy as np
import pytest

from spanfeat.data import MaskedExample, Vocabulary, build_vocabularies, masked_examples
from spanfeat.evaluation import classifier_accuracy
from spanfeat.encoders import EncoderConfig
from spanfeat.models import GlobalLocalClassifier, GlobalLocalConfig, IntentTagger, load_model, serialize_model
from spanfeat.synthetic import SyntheticConfig, generate_synthetic
from spanfeat.tensor import Tensor
from spanfeat.training import (
    ADADELTA_EPSILON,
    ADADELTA_RHO,
    MOMENTUM,
    Adadelta,
    AdadeltaConfig,
    EpochRecord,
    SgdMomentum,
    SgdMomentumConfig,
    TrainingError,
    history_lines,
    recipe_for,
    train,
)


class TestSgdMomentum:
    def test_zero_grad_no_change(self):
        t = Tensor([1.0, 2.0])
        opt = SgdMomentum({"t": t}, SgdMomentumConfig(learning_rate=0.1))
        opt.step()
        assert t.values.tolist() == [1.0, 2.0]

    def test_first_step_is_plain_sgd(self):
        t = Tensor([1.0])
        t.grad[...] = 2.0
        opt = SgdMomentum({"t": t}, SgdMomentumConfig(learning_rate=0.1))
        opt.step()
        assert t.values.tolist() == [1.0 - 0.1 * 2.0]

    def test_two_steps_match_hand_unrolled(self):
        t = Tensor([0.0])
        opt = SgdMomentum({"t": t}, SgdMomentumConfig(learning_rate=0.1))
        t.grad[...] = 1.0
        opt.step()  # v=1, theta=-0.1
        t.grad[...] = 1.0
        opt.step()  # v=0.9*1+1=1.9, theta=-0.29
        assert t.values.tolist() == pytest.approx([-0.29], abs=1e-15)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SgdMomentumConfig(learning_rate=0.0)
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="learning_rate must be a finite number"):
                SgdMomentumConfig(learning_rate=value)


class TestAdadelta:
    def test_zero_grad_no_change(self):
        t = Tensor([3.0])
        opt = Adadelta({"t": t}, AdadeltaConfig())
        opt.step()
        assert t.values.tolist() == [3.0]

    def test_constants_are_zeilers(self):
        # ADADELTA (Zeiler 2012, arXiv:1212.5701) sets rho 0.95 and epsilon 1e-6
        assert (ADADELTA_RHO, ADADELTA_EPSILON) == (0.95, 1e-6)

    def test_first_step_magnitude(self):
        lr, rho, eps, g = 1.0, ADADELTA_RHO, ADADELTA_EPSILON, 2.0
        t = Tensor([0.0])
        t.grad[...] = g
        opt = Adadelta({"t": t}, AdadeltaConfig(learning_rate=lr))
        opt.step()
        expected = -lr * g * np.sqrt(eps) / np.sqrt((1 - rho) * g * g + eps)
        assert t.values.tolist() == pytest.approx([expected], rel=1e-12)

    def test_delta_accumulator_updated_after_step(self):
        lr, rho, eps, g = 0.5, ADADELTA_RHO, ADADELTA_EPSILON, 2.0
        t = Tensor([0.0])
        t.grad[...] = g
        opt = Adadelta({"t": t}, AdadeltaConfig(learning_rate=lr))
        opt.step()
        first_delta = t.values[0]
        assert opt.delta_sq["t"][0] == pytest.approx((1 - rho) * first_delta**2, rel=1e-12)
        # second step must use the updated delta accumulator
        t.grad[...] = g
        opt.step()
        g2 = rho * ((1 - rho) * g * g) + (1 - rho) * g * g
        d2 = (1 - rho) * first_delta**2
        expected_second = -lr * g * np.sqrt((d2 + eps) / (g2 + eps))
        assert (t.values[0] - first_delta) == pytest.approx(expected_second, rel=1e-9)

    def test_update_sign_opposite_gradient(self):
        rng = np.random.default_rng(0)
        t = Tensor(rng.normal(size=8))
        before = t.values.copy()
        t.grad[...] = rng.normal(size=8)
        opt = Adadelta({"t": t}, AdadeltaConfig())
        opt.step()
        moved = t.values - before
        nz = t.grad != 0
        assert np.all(np.sign(moved[nz]) == -np.sign(t.grad[nz]))

    def test_config_validation(self):
        with pytest.raises(ValueError, match="learning_rate must be positive"):
            AdadeltaConfig(learning_rate=-1.0)
        with pytest.raises(ValueError, match="batch_size and epochs must be at least 1"):
            AdadeltaConfig(batch_size=0)
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="learning_rate must be a finite number"):
                AdadeltaConfig(learning_rate=value)


class _QuadraticModel:
    """Minimise (x - target)^2; lets loop tests run without a real network."""

    def __init__(self, target):
        self.x = Tensor(np.zeros_like(np.asarray(target, dtype=np.float64)))
        self.target = np.asarray(target, dtype=np.float64)

    def parameters(self):
        return {"x": self.x}

    def loss(self, example):
        from spanfeat.tensor import Tensor as T, _record

        diff = self.x.values - self.target
        out = T((diff * diff).sum())

        def backward():
            self.x.grad += 2.0 * diff * float(out.grad)

        _record(backward)
        return out

    def batch_loss(self, batch):
        from spanfeat.tensor import add, scale

        total = self.loss(batch[0])
        for example in batch[1:]:
            total = add(total, self.loss(example))
        return scale(total, 1.0 / len(batch))


class TestTrainLoop:
    def test_history_length_and_determinism(self):
        def run():
            model = _QuadraticModel([1.0, -2.0])
            history = train(model, [0, 1, 2], SgdMomentumConfig(learning_rate=0.05, epochs=7, seed=3))
            return history, model.x.values.copy()

        h1, x1 = run()
        h2, x2 = run()
        assert len(h1) == 7
        assert h1 == h2
        assert np.array_equal(x1, x2)
        assert history_lines(h1) == history_lines(h2)

    def test_loss_decreases_on_quadratic(self):
        model = _QuadraticModel([1.0, -2.0])
        history = train(model, [0, 1], SgdMomentumConfig(learning_rate=0.1, epochs=10, seed=0))
        assert history[-1].train_loss < history[0].train_loss

    def test_empty_corpus_rejected(self):
        with pytest.raises(TrainingError, match="empty"):
            train(_QuadraticModel([0.0]), [], SgdMomentumConfig())

    def test_empty_dev_set_with_metric_rejected(self):
        model = _QuadraticModel([4.0])
        with pytest.raises(TrainingError, match="dev set is empty"):
            train(model, [0], SgdMomentumConfig(epochs=2), dev_examples=[], metric=lambda m, dev: 0.0)
        assert model.x.values[0] == 0.0  # rejected before the first step

    def test_nan_loss_aborts_with_location(self):
        class ExplodingModel(_QuadraticModel):
            def loss(self, example):
                self.x.values[...] = np.nan
                return super().loss(example)

        with pytest.raises(TrainingError, match="epoch 1"):
            train(ExplodingModel([1.0]), [0], SgdMomentumConfig())

    def test_dev_best_parameters_restored(self):
        # metric peaks then collapses; train() must keep the peak snapshot
        model = _QuadraticModel([4.0])
        calls = {"n": 0}

        def metric(m, dev):
            calls["n"] += 1
            return 1.0 if calls["n"] == 2 else 0.0

        train(
            model, [0], SgdMomentumConfig(learning_rate=0.1, epochs=5, seed=1),
            dev_examples=[0], metric=metric,
        )
        # snapshot was taken at the end of epoch 2; rerun without dev tracking
        twin = _QuadraticModel([4.0])
        train(twin, [0], SgdMomentumConfig(learning_rate=0.1, epochs=2, seed=1))
        assert np.allclose(model.x.values, twin.x.values)

    def test_no_dev_keeps_final(self):
        model = _QuadraticModel([4.0])
        train(model, [0], SgdMomentumConfig(learning_rate=0.1, epochs=5, seed=1))
        twin = _QuadraticModel([4.0])
        train(twin, [0], SgdMomentumConfig(learning_rate=0.1, epochs=5, seed=1))
        assert np.array_equal(model.x.values, twin.x.values)

    def test_history_lines_format(self):
        text = history_lines([EpochRecord(1, 0.5, 0.25), EpochRecord(2, 0.25, None)])
        lines = text.splitlines()
        assert lines[0] == "epoch=1 train_loss=0.5 dev_metric=0.25"
        assert lines[1] == "epoch=2 train_loss=0.25"

    def test_batch_mean_matches_full_batch_gradient(self):
        # one batch of 4 identical examples must take exactly one plain SGD
        # step with the mean gradient (the first step has no velocity yet)
        model = _QuadraticModel([2.0])
        train(model, [0, 0, 0, 0], SgdMomentumConfig(learning_rate=0.1, epochs=1, batch_size=4, seed=0))
        # grad of (x-2)^2 at x=0 is -4; mean over batch still -4; step +0.4
        assert model.x.values.tolist() == pytest.approx([0.4])
        # a second epoch steps by the velocity MOMENTUM * 4 + 3.2, the gradient at 0.4 being -3.2
        model = _QuadraticModel([2.0])
        train(model, [0, 0, 0, 0], SgdMomentumConfig(learning_rate=0.1, epochs=2, batch_size=4, seed=0))
        assert model.x.values.tolist() == pytest.approx([0.4 + 0.1 * (MOMENTUM * 4.0 + 3.2)])


class TestRecipes:
    def test_tagger_recipe(self):
        config, clip = recipe_for("intent-tagger", epochs=5, seed=2)
        assert isinstance(config, SgdMomentumConfig)
        assert config == SgdMomentumConfig(learning_rate=0.0015, batch_size=10, epochs=5, seed=2)
        assert clip == 5.0

    def test_classifier_recipe(self):
        config, clip = recipe_for("global-local")
        assert isinstance(config, AdadeltaConfig)
        assert config.learning_rate == 1.0
        assert config.batch_size == 50
        assert clip is None

    def test_unknown_architecture(self):
        with pytest.raises(ValueError):
            recipe_for("perceptron")


class TestEndToEndSmoke:
    def test_classifier_learns_cue(self):
        # tiny separable task: the cue word determines the label
        word = Vocabulary(["go", "yes", "no"])
        model = GlobalLocalClassifier(
            word, "negation", GlobalLocalConfig(embedding_dim=6, filters_per_width=3), seed=0
        )
        examples = []
        for gold, cue in ((0, "yes"), (1, "no")):
            for _ in range(10):
                examples.append(MaskedExample(tokens=["go", cue], mask=[1, 1], gold=gold))
        history = train(model, examples, AdadeltaConfig(epochs=12, batch_size=4, seed=0))
        assert history[-1].train_loss < history[0].train_loss
        correct = sum(model.classify(e) == e.gold for e in examples)
        assert correct == len(examples)

    def test_tagger_loss_goes_down(self):
        train_set, _, _ = generate_synthetic(SyntheticConfig(train_size=12, dev_size=1, test_size=1))
        word, char = build_vocabularies(train_set)
        intents = sorted({s.intent for u in train_set for s in u.spans})
        model = IntentTagger(
            word, char, intents,
            EncoderConfig(word_embedding_dims=[8], char_embedding_dim=4, char_filters=4, lstm_hidden=6),
        )
        config, clip = recipe_for("intent-tagger", epochs=4, seed=5)
        history = train(model, train_set, config, grad_clip=clip)
        assert history[-1].train_loss < history[0].train_loss


def test_training_steps_after_each_dev_metric_pass():
    # the metric labels the dev set in a fixed block, which hands the
    # parameters back writable, so the next epoch's steps move them
    train_set, dev_set, _ = generate_synthetic(SyntheticConfig(train_size=12, dev_size=4, test_size=1))
    word, _ = build_vocabularies(train_set)
    model = GlobalLocalClassifier(word, "tense", GlobalLocalConfig(embedding_dim=6, filters_per_width=3), seed=0)
    params = model.parameters()
    snapshots = []

    def metric(model, examples):
        value = classifier_accuracy(model, examples)
        assert all(t.values.flags.writeable for t in params.values())
        snapshots.append({name: t.values.copy() for name, t in params.items()})
        return value

    history = train(model, masked_examples(train_set, "tense"), AdadeltaConfig(epochs=3, batch_size=4, seed=0),
                    masked_examples(dev_set, "tense"), metric)
    assert [r.dev_metric is not None for r in history] == [True] * 3
    for before, after in zip(snapshots, snapshots[1:]):
        assert any(not np.array_equal(before[name], after[name]) for name in before)


def test_train_refuses_a_loaded_model_before_its_first_batch(tmp_path):
    # a loaded model's values are read-only for good, so the first optimizer
    # step could not write them
    train_set, _, _ = generate_synthetic(SyntheticConfig(train_size=12, dev_size=1, test_size=1))
    word, _ = build_vocabularies(train_set)
    serialize_model(GlobalLocalClassifier(word, "tense", GlobalLocalConfig(embedding_dim=6, filters_per_width=3)),
                    tmp_path / "m.json")
    model = load_model(tmp_path / "m.json")
    first = next(iter(model.parameters()))

    def batch_loss(batch):
        raise AssertionError("a batch ran")

    model.batch_loss = batch_loss
    with pytest.raises(TrainingError, match=f"parameter '{first}' is read-only, so the model cannot be trained"):
        train(model, masked_examples(train_set, "tense"), AdadeltaConfig(epochs=1, batch_size=4))
