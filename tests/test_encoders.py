import itertools

import numpy as np
import pytest

from spanfeat import tensor as T
from spanfeat.data import Vocabulary
from spanfeat.encoders import BiLstm, EncoderConfig, TokenEncoder
from spanfeat.tensor import Tape, Tensor


def small_encoder(seed=0, **config_kwargs):
    config = EncoderConfig(
        word_embedding_dims=config_kwargs.pop("word_embedding_dims", [6]),
        char_embedding_dim=4,
        char_filters=5,
        lstm_hidden=3,
        **config_kwargs,
    )
    words = Vocabulary(["install", "the", "printer", "please"])
    chars = Vocabulary(list("abcdefghijklmnopqrstuvwxyz"))
    return TokenEncoder(words, chars, config, np.random.default_rng(seed))


class TestConfig:
    def test_token_dim_sums_tables_and_char_filters(self):
        config = EncoderConfig(word_embedding_dims=[100, 50], char_filters=30)
        assert config.token_dim == 180

    def test_rejects_empty_table_list(self):
        with pytest.raises(ValueError):
            EncoderConfig(word_embedding_dims=[])

    def test_rejects_nonpositive_dim(self):
        with pytest.raises(ValueError):
            EncoderConfig(lstm_hidden=0)

    def test_defaults(self):
        config = EncoderConfig()
        assert config.word_embedding_dims == [100]
        assert config.char_embedding_dim == 30
        assert config.char_filters == 30
        assert config.char_filter_width == 3
        assert config.lstm_hidden == 32


class TestTokenEncoder:
    def test_output_shape(self):
        enc = small_encoder()
        table, ids = enc.encode(["install", "the", "printer"])
        assert table.shape == (3, enc.config.token_dim)
        assert ids.tolist() == [0, 1, 2]

    def test_repeated_tokens_embed_identically(self):
        enc = small_encoder()
        table, ids = enc.encode(["the", "printer", "the"])
        assert table.shape[0] == 2 and ids.tolist() == [0, 1, 0]

    def test_unknown_word_uses_unk_row(self):
        enc = small_encoder()
        d = enc.config.word_embedding_dims[0]
        out = enc.encode(["zzzz"])[0].values
        assert np.array_equal(out[0, :d], enc.word_tables[0].values[Vocabulary.UNK])

    def test_word_lookup_case_insensitive_char_path_not(self):
        enc = small_encoder()
        d = enc.config.word_embedding_dims[0]
        lower = enc.encode(["printer"])[0].values
        upper = enc.encode(["PRINTER"])[0].values
        assert np.array_equal(lower[0, :d], upper[0, :d])
        assert not np.array_equal(lower[0, d:], upper[0, d:])  # unknown chars differ

    def test_single_char_token_defined(self):
        enc = small_encoder()
        vec = enc.char_cnn(["a"])
        assert vec.shape == (1, enc.config.char_filters)
        assert np.all(np.isfinite(vec.values))

    def test_empty_token_rejected(self):
        enc = small_encoder()
        with pytest.raises(ValueError, match="empty token"):
            enc.char_cnn(["a", ""])
        with pytest.raises(ValueError, match="empty utterance"):
            enc.encode([])

    def test_gradient_reaches_all_parameter_groups(self):
        enc = small_encoder()
        params = enc.parameters()
        for t in params.values():
            t.zero_grad()
        with Tape() as tape:
            out, _ = enc.encode(["install", "printer"])
            loss = T.index_sum(out, [0, 1], [0, enc.config.token_dim - 1])
        tape.backward(loss)
        for name in ("word_table_0", "char_table", "char_conv_filters"):
            assert np.any(params[name].grad != 0.0), name

    def test_gradient_matches_finite_differences(self):
        enc = small_encoder()
        targets = [enc.word_tables[0], enc.char_table, enc.char_conv_filters, enc.char_conv_bias]

        def f():
            out, _ = enc.encode(["install", "xs"])
            n, d = out.shape
            total = T.index_sum(out, [i for i in range(n) for _ in range(d)], list(range(d)) * n)
            return total

        assert T.grad_check(f, targets) < 1e-6

    def test_interior_permutation_changes_output(self):
        enc = small_encoder()
        a = enc.char_cnn(["abcde"]).values[0]
        b = enc.char_cnn(["acbde"]).values[0]
        assert not np.allclose(a, b)

    def test_palindrome_reversal_identical(self):
        enc = small_encoder()
        a = enc.char_cnn(["abcba"]).values[0]
        b = enc.char_cnn(["abcba"[::-1]]).values[0]
        assert np.array_equal(a, b)

    def test_table_holds_one_row_per_distinct_spelling(self):
        # a repeat, a case variant that shares a word row but not a char
        # row, and an unknown word; two word tables
        enc = small_encoder(word_embedding_dims=[6, 2])
        tokens = ["the", "printer", "The", "the", "zzzz", "printer", "the"]
        table, ids = enc.encode(tokens)
        assert ids.tolist() == [0, 1, 2, 0, 3, 1, 0]
        assert table.shape == (4, enc.config.token_dim)
        words = enc.word_vocab.encode([t.lower() for t in tokens])
        per_position = np.concatenate(
            [t.values[words] for t in enc.word_tables] + [enc.char_cnn(tokens).values], axis=1
        )
        assert np.array_equal(table.values[ids], per_position)



def char_window_responses(enc, token):
    """Per-window linear+ReLU responses of the char conv, computed by hand."""
    ids = enc.char_vocab.encode(token)
    emb = enc.char_table.values[ids]
    w = enc.config.char_filter_width
    left = w // 2
    padded = np.zeros((len(token) + w - 1, emb.shape[1]))
    padded[left : left + len(token)] = emb
    responses = []
    for pos in range(len(token)):
        window = padded[pos : pos + w]
        lin = enc.char_conv_bias.values.copy()
        for j in range(w):
            lin = lin + window[j] @ enc.char_conv_filters.values[j]
        responses.append(np.maximum(lin, 0.0))
    return np.stack(responses)


def test_char_cnn_is_max_of_window_responses():
    enc = small_encoder()
    tokens = ["a", "ab", "abca", "printer"]
    out = enc.char_cnn(tokens).values
    for row, token in enumerate(tokens):
        expected = char_window_responses(enc, token).max(axis=0)
        assert np.allclose(out[row], expected, atol=1e-12)


def test_batched_char_cnn_matches_per_token_pipeline():
    # ragged batch, its characters packed end to end: length 1, shorter than
    # the width-3 filter, longer, and a repeated letter whose identical
    # windows tie for a positive maximum in two channels at this seed
    enc = small_encoder(seed=0)
    tokens = ["a", "ab", "printer", "aaaaa"]
    params = [enc.char_table, enc.char_conv_filters, enc.char_conv_bias]
    probe = np.random.default_rng(9).normal(size=(len(tokens), enc.config.char_filters))

    def per_token(token):
        chars = T.gather_rows(enc.char_table, enc.char_vocab.encode(token))
        return T.max_over_time(T.relu(T.conv1d_same(chars, enc.char_conv_filters, enc.char_conv_bias)))

    def grads(function):
        for t in params:
            t.zero_grad()
        with Tape() as tape:
            out = function()
            loss = Tensor((out.values * probe).sum())

            def backward():
                out.grad += loss.grad * probe

            T._record(backward)
        tape.backward(loss)
        return out.values, [t.grad.copy() for t in params]

    batched, batched_grads = grads(lambda: enc.char_cnn(tokens))
    single, single_grads = grads(lambda: T.stack_rows([per_token(t) for t in tokens]))
    assert np.max(np.abs(batched - single)) < 1e-12
    for got, want in zip(batched_grads, single_grads):
        assert np.max(np.abs(got - want)) < 1e-12


def test_extension_changes_output_only_when_tail_maxima_beat_shared():
    # over all strings on {a,b,c} up to length 3 plus a one-char extension:
    # windows before the last position are unchanged by the extension, so the
    # output moves exactly on channels where the tail windows exceed them
    enc = small_encoder(seed=3)
    alphabet = "abc"
    changed_anywhere = False
    for n in (1, 2, 3):
        for letters in itertools.product(alphabet, repeat=n):
            s = "".join(letters)
            base = char_window_responses(enc, s)
            shared = base[: n - 1]
            for c in alphabet:
                ext = char_window_responses(enc, s + c)
                assert np.allclose(ext[: n - 1], shared, atol=1e-12)
                out_s = enc.char_cnn([s]).values[0]
                out_ext = enc.char_cnn([s + c]).values[0]
                if shared.size:
                    shared_max = shared.max(axis=0)
                    tail_max = np.maximum(base[n - 1], ext[n - 1 :].max(axis=0))
                    persists = (tail_max <= shared_max) & (ext[n - 1 :].max(axis=0) <= shared_max)
                    assert np.allclose(out_ext[persists], out_s[persists], atol=1e-12)
                if not np.allclose(out_s, out_ext):
                    changed_anywhere = True
    assert changed_anywhere


class TestBiLstm:
    def test_output_shape_and_n1(self):
        rng = np.random.default_rng(1)
        net = BiLstm(4, 3, rng)
        seq = Tensor(rng.normal(size=(1, 4)))
        out = net.encode(seq, [0])
        assert out.shape == (1, 6)
        # n=1: both halves are a single step over the same token
        zero = Tensor(np.zeros(3))
        x = Tensor(seq.values[0])
        h_f, _ = T.lstm_cell(x, zero, zero, net.fwd.wx, net.fwd.wh, net.fwd.b)
        h_b, _ = T.lstm_cell(x, zero, zero, net.bwd.wx, net.bwd.wh, net.bwd.b)
        assert np.allclose(out.values[0, :3], h_f.values)
        assert np.allclose(out.values[0, 3:], h_b.values)

    def test_encode_is_one_tape_node(self):
        rng = np.random.default_rng(9)
        net = BiLstm(4, 3, rng)
        for lengths in (None, [2, 3]):
            with Tape() as tape:
                net.encode(Tensor(rng.normal(size=(3, 4))), [0, 2, 1, 2, 0], lengths)
            assert [step.__qualname__.split(".")[0] for step in tape._steps] == ["lstm_sequence"]

    def test_dim_mismatch_rejected(self):
        net = BiLstm(4, 3, np.random.default_rng(2))
        with pytest.raises(ValueError, match="input dim"):
            net.encode(Tensor(np.zeros((2, 5))), [0, 1])

    def test_reversal_with_swapped_directions(self):
        rng = np.random.default_rng(3)
        net = BiLstm(4, 3, rng)
        twin = BiLstm(4, 3, rng)
        twin.fwd, twin.bwd = net.bwd, net.fwd
        seq_values = np.random.default_rng(4).normal(size=(5, 4))
        out = net.encode(Tensor(seq_values), range(5)).values
        rev = twin.encode(Tensor(seq_values), range(4, -1, -1)).values
        swapped = np.concatenate([rev[::-1, 3:], rev[::-1, :3]], axis=1)
        assert np.allclose(out, swapped, atol=1e-12)

    def test_directional_dependence(self):
        rng = np.random.default_rng(5)
        net = BiLstm(3, 2, rng)
        base = np.random.default_rng(6).normal(size=(4, 3))
        out = net.encode(Tensor(base), range(4)).values
        bumped = base.copy()
        bumped[2] += 1.0
        out2 = net.encode(Tensor(bumped), range(4)).values
        # forward half at positions before the bump unchanged
        assert np.allclose(out[:2, :2], out2[:2, :2])
        # backward half after the bump unchanged
        assert np.allclose(out[3:, 2:], out2[3:, 2:])
        # and the bump is visible at its own position
        assert not np.allclose(out[2], out2[2])

    def test_forget_bias_initialised_open(self):
        net = BiLstm(3, 4, np.random.default_rng(7))
        for direction in (net.fwd, net.bwd):
            assert np.all(direction.b.values[4:8] == 1.0)
            assert np.all(direction.b.values[:4] == 0.0)

    def test_gradient_through_sequence(self):
        rng = np.random.default_rng(8)
        net = BiLstm(3, 2, rng)
        seq = Tensor(rng.normal(size=(3, 3)))
        targets = [seq, *net.parameters().values()]

        def f():
            out = net.encode(seq, [2, 0, 2, 1])
            n, d = out.shape
            return T.index_sum(out, [i for i in range(n) for _ in range(d)], list(range(d)) * n)

        assert T.grad_check(f, targets) < 1e-5
