import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanfeat import tensor as T
from spanfeat.tensor import Tape, Tensor


def finite_diff(function, inputs, epsilon=1e-5):
    """Central-difference gradients of a scalar closure, one array per input."""
    grads = []
    for t in inputs:
        flat = t.values.reshape(-1)
        g = np.zeros_like(flat)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + epsilon
            up = function().item()
            flat[k] = orig - epsilon
            down = function().item()
            flat[k] = orig
            g[k] = (up - down) / (2.0 * epsilon)
        grads.append(g.reshape(t.values.shape))
    return grads


def run_backward(function, inputs):
    for t in inputs:
        t.zero_grad()
    with Tape() as tape:
        out = function()
    tape.backward(out)
    return out


def assert_matches_fd(function, inputs, tol=1e-6):
    run_backward(function, inputs)
    numeric = finite_diff(function, inputs)
    for t, num in zip(inputs, numeric):
        err = np.abs(t.grad - num) / np.maximum.reduce([np.abs(t.grad), np.abs(num), np.full_like(num, 1e-8)])
        assert err.max() < tol, f"gradient mismatch: {err.max()}"


class TestForwardValues:
    def test_matmul_identity(self):
        a = Tensor(np.eye(3))
        b = Tensor(np.arange(9.0).reshape(3, 3))
        assert np.array_equal(T.matmul(a, b).values, b.values)

    def test_matmul_1x2_2x1(self):
        a = Tensor([[1.0, 2.0]])
        b = Tensor([[3.0], [4.0]])
        assert T.matmul(a, b).values.tolist() == [[11.0]]

    def test_matmul_shape_error_names_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 2\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_conv_same_ones_filter(self):
        # width-3 all-ones filter over [1, 2, 3] keeps length 3: [3, 6, 5]
        seq = Tensor([[1.0], [2.0], [3.0]])
        filt = Tensor(np.ones((3, 1, 1)))
        bias = Tensor(np.zeros(1))
        out = T.conv1d_same(seq, filt, bias)
        assert out.values[:, 0].tolist() == [3.0, 6.0, 5.0]

    def test_conv_even_width_pads_left_heavy(self):
        seq = Tensor([[1.0], [10.0], [100.0]])
        filt = Tensor(np.ones((2, 1, 1)))
        bias = Tensor(np.zeros(1))
        out = T.conv1d_same(seq, filt, bias)
        # left pad 1, right pad 0: windows (0,1), (1,10), (10,100)
        assert out.values[:, 0].tolist() == [1.0, 11.0, 110.0]

    def test_max_over_time_tie_breaks_low_index(self):
        seq = Tensor([[5.0, 1.0], [5.0, 2.0], [3.0, 2.0]])
        out = run_backward(lambda: T.index_sum(_as_matrix(T.max_over_time(seq)), [0, 0], [0, 1]), [seq])
        assert out.item() == 7.0
        # channel 0 ties rows 0 and 1 at 5.0; gradient must land on row 0,
        # channel 1 ties rows 1 and 2 at 2.0; gradient must land on row 1
        assert seq.grad.tolist() == [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]

    def test_cross_entropy_uniform_two_way(self):
        logits = Tensor([[0.0, 0.0]])
        assert T.softmax_cross_entropy(logits, [0]).item() == pytest.approx(np.log(2.0), abs=1e-12)

    def test_cross_entropy_gold_range(self):
        with pytest.raises(ValueError, match="out of range"):
            T.softmax_cross_entropy(Tensor([[0.0, 0.0]]), [2])

    @pytest.mark.parametrize("gold", [[1.7], [True], [0, np.True_], np.array([1.0]), [-1]])
    def test_cross_entropy_refuses_a_label_that_is_not_an_integer_class(self, gold):
        # numpy would read 1.7 and True as class 1; the first bad label is named
        bad = [g for g in gold if type(g) not in (int, np.int64) or g < 0][0]
        with pytest.raises(ValueError, match=rf"^gold label {re.escape(repr(bad))} out of range for 3 classes"):
            T.softmax_cross_entropy(Tensor(np.zeros((len(gold), 3))), gold)

    def test_lstm_zero_inputs_forget_bias(self):
        hd = 4
        x = Tensor(np.zeros(3))
        h = Tensor(np.zeros(hd))
        c = Tensor(np.ones(hd))
        wx = Tensor(np.zeros((3, 4 * hd)))
        wh = Tensor(np.zeros((hd, 4 * hd)))
        b_values = np.zeros(4 * hd)
        b_values[hd : 2 * hd] = 1.0
        b = Tensor(b_values)
        h2, c2 = T.lstm_cell(x, h, c, wx, wh, b)
        # forget gate sigmoid(1), input gate sigmoid(0)=0.5, candidate tanh(0)=0
        assert np.allclose(c2.values, 1.0 / (1.0 + np.exp(-1.0)))
        assert np.allclose(h2.values, 0.5 * np.tanh(c2.values))


def _as_matrix(v):
    # reuse a (f,) vector as a (1, f) matrix for index_sum row/col addressing
    out = Tensor(v.values[None, :])

    def backward():
        v.grad += out.grad[0]

    T._record(backward)
    return out


def _sum_all(t):
    out = Tensor(t.values.sum())

    def backward():
        t.grad += out.grad

    T._record(backward)
    return out


class TestBackwardAgainstFiniteDifferences:
    def test_matmul(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.normal(size=(4, 2)))
        assert_matches_fd(lambda: _sum_all(T.matmul(a, b)), [a, b])

    def test_add_bias_broadcast(self):
        rng = np.random.default_rng(2)
        a = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.normal(size=4))
        assert_matches_fd(lambda: _sum_all(T.add(a, b)), [a, b])

    def test_sub_scale_relu(self):
        rng = np.random.default_rng(3)
        a = Tensor(rng.normal(size=(5,)))
        b = Tensor(rng.normal(size=(5,)))
        assert_matches_fd(lambda: _sum_all(T.relu(T.scale(T.sub(a, b), 1.7))), [a, b])

    def test_concat_and_stack(self):
        rng = np.random.default_rng(4)
        a = Tensor(rng.normal(size=(2, 3)))
        b = Tensor(rng.normal(size=(2, 2)))
        assert_matches_fd(lambda: _sum_all(T.concat([a, b])), [a, b])
        rows = [Tensor(rng.normal(size=3)) for _ in range(3)]
        assert_matches_fd(lambda: _sum_all(T.stack_rows(rows)), rows)

    def test_gather_repeated_rows_accumulate(self):
        table = Tensor(np.ones((4, 2)))
        run_backward(lambda: _sum_all(T.gather_rows(table, [1, 1, 3])), [table])
        assert table.grad.tolist() == [[0, 0], [2, 2], [0, 0], [1, 1]]

    def test_conv1d(self):
        rng = np.random.default_rng(5)
        seq = Tensor(rng.normal(size=(5, 3)))
        filters = Tensor(rng.normal(size=(3, 3, 4)))
        bias = Tensor(rng.normal(size=4))
        assert_matches_fd(lambda: _sum_all(T.conv1d_same(seq, filters, bias)), [seq, filters, bias])

    def test_max_over_time(self):
        rng = np.random.default_rng(6)
        seq = Tensor(rng.normal(size=(6, 3)))
        assert_matches_fd(lambda: _sum_all(T.max_over_time(seq)), [seq])

    def test_lstm_cell(self):
        rng = np.random.default_rng(7)
        e, hd = 3, 4
        x = Tensor(rng.normal(size=e))
        h = Tensor(rng.normal(size=hd))
        c = Tensor(rng.normal(size=hd))
        wx = Tensor(rng.normal(size=(e, 4 * hd)) * 0.5)
        wh = Tensor(rng.normal(size=(hd, 4 * hd)) * 0.5)
        b = Tensor(rng.normal(size=4 * hd) * 0.5)

        def f():
            h2, c2 = T.lstm_cell(x, h, c, wx, wh, b)
            return T.add(_sum_all(h2), _sum_all(c2))

        assert_matches_fd(f, [x, h, c, wx, wh, b], tol=1e-5)

    def test_cross_entropy(self):
        rng = np.random.default_rng(8)
        logits = Tensor(rng.normal(size=(1, 5)))
        assert_matches_fd(lambda: T.softmax_cross_entropy(logits, [3]), [logits])

    def test_batched_cross_entropy_is_mean_of_rows(self):
        rng = np.random.default_rng(9)
        batch = Tensor(rng.normal(size=(4, 3)) * 3.0)
        gold = [2, 0, 0, 1]
        assert_matches_fd(lambda: T.softmax_cross_entropy(batch, gold), [batch])
        mean = run_backward(lambda: T.softmax_cross_entropy(batch, gold), [batch])
        batched_grad = batch.grad.copy()
        for row, label in enumerate(gold):
            logits = Tensor(batch.values[row : row + 1])
            run_backward(lambda: T.softmax_cross_entropy(logits, [label]), [logits])
            assert np.max(np.abs(batched_grad[row] - logits.grad[0] / len(gold))) < 1e-15
        rows = [T.softmax_cross_entropy(Tensor(batch.values[r : r + 1]), [g]).item() for r, g in enumerate(gold)]
        assert abs(mean.item() - np.mean(rows)) < 1e-15
        with pytest.raises(ValueError, match="gold labels"):
            T.softmax_cross_entropy(batch, [0, 1])

    def test_index_sum(self):
        rng = np.random.default_rng(9)
        m = Tensor(rng.normal(size=(4, 4)))
        assert_matches_fd(lambda: T.index_sum(m, [0, 2, 2], [1, 3, 3]), [m])


def _weighted_sum(t, weights):
    """Scalar sum(t * weights); its backward seeds t.grad with the weights."""
    out = Tensor((t.values * weights).sum())

    def backward():
        t.grad += out.grad * weights

    T._record(backward)
    return out


def _lstm_cell_loop(xs, wx, wh, b, reverse):
    """Reference for lstm_sequence: one lstm_cell node per step over the
    list of row tensors ``xs``."""
    hd = wh.shape[0]
    h, c = Tensor(np.zeros(hd)), Tensor(np.zeros(hd))
    states = [None] * len(xs)
    for t in (range(len(xs) - 1, -1, -1) if reverse else range(len(xs))):
        h, c = T.lstm_cell(xs[t], h, c, wx, wh, b)
        states[t] = h
    return T.stack_rows(states)


def _lstm_triple(rng, e, hd):
    """One direction's (wx, wh, b) for lstm_sequence."""
    return tuple(Tensor(rng.normal(size=shape) * 0.5) for shape in ((e, 4 * hd), (hd, 4 * hd), (4 * hd,)))


def _assert_lstm_sequence_matches_cell_loops(rng, ids, table_rows, e, hd, lengths):
    """lstm_sequence over a (table_rows, e) table read by the packed ``ids``
    against, row by row, one _lstm_cell_loop forward with ``fwd`` and one
    reversed with ``bwd`` over the rows table[ids], joined by concat: the
    values and all seven gradients, the table's included, to 1e-12. The
    loops read the table through unstack_rows, so a repeated id sums its
    gradient in lstm_cell's backward, not in a row lookup's."""
    table = Tensor(rng.normal(size=(table_rows, e)))
    fwd, bwd = _lstm_triple(rng, e, hd), _lstm_triple(rng, e, hd)
    n = len(ids)
    probe = rng.normal(size=(n, 2 * hd))
    inputs = [table, *fwd, *bwd]
    row_lengths = [n] if lengths is None else lengths
    starts = np.cumsum(row_lengths) - row_lengths

    def rows():
        vectors = T.unstack_rows(table)
        return [
            T.concat([_lstm_cell_loop(row, *fwd, False), _lstm_cell_loop(row, *bwd, True)])
            for row in ([vectors[i] for i in ids[a : a + m]] for a, m in zip(starts, row_lengths))
        ]

    def looped():
        total = None
        for states, a, m in zip(rows(), starts, row_lengths):
            part = _weighted_sum(states, probe[a : a + m])
            total = part if total is None else T.add(total, part)
        return total

    fused = run_backward(lambda: _weighted_sum(T.lstm_sequence(table, ids, fwd, bwd, lengths), probe), inputs)
    fused_grads = [t.grad.copy() for t in inputs]
    reference = run_backward(looped, inputs)
    assert abs(fused.item() - reference.item()) < 1e-12
    for got, t in zip(fused_grads, inputs):
        assert np.max(np.abs(got - t.grad)) < 1e-12
    states = T.lstm_sequence(table, ids, fwd, bwd, lengths).values
    for row, a, m in zip(rows(), starts, row_lengths):
        assert np.max(np.abs(states[a : a + m] - row.values)) < 1e-12


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(st.none(), st.lists(st.integers(1, 9), min_size=1, max_size=6)),
    st.integers(1, 9),
    st.integers(1, 5),
    st.integers(1, 5),
    st.integers(0, 2 ** 31 - 1),
)
def test_lstm_sequence_matches_two_cell_loops_on_random_batches(lengths, n, e, hd, seed):
    # lengths None is one row of n positions; a drawn list of one length is
    # the list form of one row, and longer lists are packed batches. The
    # table has from 1 to n + 2 rows, so ids repeat or rows go unread.
    rng = np.random.default_rng(seed)
    n = n if lengths is None else sum(lengths)
    table_rows = int(rng.integers(1, n + 3))
    ids = rng.integers(0, table_rows, size=n)
    _assert_lstm_sequence_matches_cell_loops(rng, ids, table_rows, e, hd, lengths)


def _conv_relu_max_per_row(table, ids, filters, biases, lengths):
    """Reference for conv_relu_max: gather, conv, ReLU and max per row and bank."""
    starts = np.cumsum(lengths) - lengths
    embedded = [T.gather_rows(table, ids[a : a + n]) for a, n in zip(starts, lengths)]
    return T.concat([
        T.stack_rows([T.max_over_time(T.relu(T.conv1d_same(row, f, b))) for row in embedded])
        for f, b in zip(filters, biases)
    ])


def _conv_relu_max_per_bank(tv, ids, filters, biases, lengths, grad):
    """conv_relu_max's arithmetic one filter bank at a time, in plain numpy
    over the arrays of its tensors: the pooled (B, sum of f) values and the
    table, filter and bias gradients that the output gradient ``grad``
    adds to zeros. Each bank's responses are shifted and summed in its own
    (w, N, f) array, and its maximum, argmax and bias add are its own."""
    rows, e = tv.shape
    idx = np.asarray(ids, dtype=np.intp)
    total = idx.size
    lens = np.asarray(lengths, dtype=np.intp)
    starts = np.cumsum(lens) - lens
    if rows <= total:
        source, picked, slots = tv, None, idx
    else:
        source, picked, slots = tv[idx], idx, None
    pos = np.arange(total) - np.repeat(starts, lens)
    rest = np.repeat(lens - 1, lens) - pos
    parts, argmaxes = [], []
    for filt, bias in zip(filters, biases):
        w = filt.shape[0]
        left = w // 2
        responses = np.matmul(source, filt)
        if slots is not None:
            responses = responses.take(slots, axis=1)
        pre = responses[left]
        for j in range(max(0, left - total + 1), min(w, left + total)):
            s = j - left
            if lens.size > 1 and s != 0:
                responses[j, pos < s if s > 0 else rest < -s] = 0.0
            if s > 0:
                pre[:-s] += responses[j, s:]
            elif s < 0:
                pre[-s:] += responses[j, :s]
        part = np.maximum.reduceat(pre, starts, axis=0)
        at_max = np.where(pre == np.repeat(part, lens, axis=0), np.arange(total)[:, None], total)
        argmaxes.append(np.minimum.reduceat(at_max, starts, axis=0))
        part += bias
        parts.append(part)
    out = np.maximum(np.concatenate(parts, axis=1), 0.0)

    g = grad * (out > 0.0)
    widths, sizes = [f.shape[0] for f in filters], [f.shape[-1] for f in filters]
    bias_grads, reads, columns = [], [], []
    offset = column = 0
    for argmax, w, f in zip(argmaxes, widths, sizes):
        bias_grads.append(np.zeros(f))
        bias_grads[-1] += g[:, offset : offset + f].sum(axis=0)
        reads.append((argmax[:, :, None] + (np.arange(w) - w // 2)).reshape(lens.size, f * w))
        columns.append((column + np.arange(w) * f + np.arange(f)[:, None]).reshape(f * w))
        offset += f
        column += w * f
    reads = np.concatenate(reads, axis=1)
    keep = (reads >= starts[:, None]) & (reads < (starts + lens)[:, None])
    read = reads[keep]
    cells = (read if slots is None else slots[read]) * column
    cells += np.broadcast_to(np.concatenate(columns), reads.shape)[keep]
    values = np.repeat(g, np.repeat(widths, sizes), axis=1)[keep]
    dresp = np.bincount(cells, values, minlength=source.shape[0] * column).reshape(-1, column)
    kernel = np.concatenate([filt.transpose(0, 2, 1).reshape(w * f, e) for filt, w, f in zip(filters, widths, sizes)])
    table_grad = np.zeros_like(tv)
    if picked is None:
        table_grad += dresp @ kernel
    else:
        keys, sums = T._sum_by_id(picked, dresp @ kernel)
        table_grad[keys] += sums
    dfilt = dresp.T @ source
    filter_grads = []
    column = 0
    for w, f in zip(widths, sizes):
        filter_grads.append(np.zeros((w, e, f)))
        filter_grads[-1] += dfilt[column : column + w * f].reshape(w, f, e).transpose(0, 2, 1)
        column += w * f
    return out, [table_grad] + filter_grads + bias_grads


class TestFusedKernels:
    @pytest.mark.parametrize("widths", [(3, 4, 5), (5, 3, 4), (2, 4), (1, 3, 2), (4, 4, 4), (6,)])
    def test_conv_relu_max_is_the_per_bank_arithmetic_bit_for_bit(self, widths):
        # all banks share one shift-major buffer, so the shifts one bank does
        # not read add zeros to its columns: values and gradients must still
        # be the per-bank node's bytes, for unsorted, even, width-1 and equal
        # widths, one row and packed rows (some shorter than the widest
        # window), and tables with fewer and more rows than positions
        rng = np.random.default_rng(sum(widths) * 10 + len(widths))
        e = 4
        filters = [Tensor(rng.normal(size=(w, e, int(rng.integers(1, 4))))) for w in widths]
        biases = [Tensor(rng.normal(size=f.shape[-1]) * 0.5) for f in filters]
        for lengths in ([7], [2], [1], [3, 1, 6, 2], [1, 2, 9, 4]):
            total = sum(lengths)
            for rows in (max(1, total // 2), total + 5):
                table = Tensor(rng.normal(size=(rows, e)))
                ids = rng.integers(0, rows, size=total)
                params = [table] + filters + biases
                probe = rng.normal(size=(len(lengths), sum(f.shape[-1] for f in filters)))
                out = run_backward(lambda: _weighted_sum(
                    T.conv_relu_max(table, ids, filters, biases, lengths), probe), params)
                pooled = T.conv_relu_max(table, ids, filters, biases, lengths).values
                expected, grads = _conv_relu_max_per_bank(
                    table.values, ids, [f.values for f in filters], [b.values for b in biases], lengths, probe
                )
                assert pooled.tobytes() == expected.tobytes()
                assert out.values.tobytes() == (expected * probe).sum().tobytes()
                assert [t.grad.tobytes() for t in params] == [g.tobytes() for g in grads]

    @pytest.mark.parametrize("n", [1, 7])
    @pytest.mark.parametrize("listed", [False, True])
    def test_lstm_sequence_matches_cell_loop(self, n, listed):
        # one row, its lengths given as None or as [n]; seven positions read
        # a 4-row table, id 2 three times and id 0 twice, and row 3 never
        rng = np.random.default_rng(20 + n)
        ids = [2, 0, 2, 1, 2, 0, 1][:n]
        _assert_lstm_sequence_matches_cell_loops(rng, ids, 4, 3, 4, [n] if listed else None)

    def test_lstm_sequence_one_tape_node(self):
        rng = np.random.default_rng(25)
        table = Tensor(rng.normal(size=(4, 2)))
        triple = Tensor(np.zeros((2, 12))), Tensor(np.zeros((3, 12))), Tensor(np.zeros(12))
        for lengths in (None, [6]):
            with Tape() as tape:
                T.lstm_sequence(table, [0, 1, 3, 1, 2, 0], triple, triple, lengths)
            assert len(tape) == 1

    @pytest.mark.parametrize("reverse", [False, True])
    def test_packed_lstm_sequence_matches_cell_loop_per_row(self, reverse):
        # rows of lengths 1, 2, 7 and 4 (or the reverse), so the running rows
        # are not in batch order; 14 ids read 6 table rows of 8, id 3 three
        # times in the longest row and once in each other row, id 5 in two
        lengths = [1, 2, 7, 4]
        ids = [3, 5, 3, 0, 3, 1, 3, 6, 3, 2, 5, 0, 1, 3]
        if reverse:
            lengths, ids = lengths[::-1], [1, 3, 5, 0, 3, 1, 3, 6, 3, 2, 0, 5, 3, 3]
        _assert_lstm_sequence_matches_cell_loops(np.random.default_rng(28), ids, 8, 3, 4, lengths)

    def test_packed_lstm_sequence_one_tape_node_and_lengths_validated(self):
        rng = np.random.default_rng(29)
        triple = Tensor(np.zeros((2, 12))), Tensor(np.zeros((3, 12))), Tensor(np.zeros(12))
        table = Tensor(rng.normal(size=(5, 2)))
        ids = [4, 0, 0, 2, 4]
        with Tape() as tape:
            T.lstm_sequence(table, ids, triple, triple, [2, 3])
        assert len(tape) == 1
        for lengths in ([], [0, 5], [-1, 6], [2, 2], [6], [2.5, 2.5], [2.0, 3.0], [True] * 5):
            with pytest.raises(ValueError, match=re.escape(f"got {lengths}")):
                T.lstm_sequence(table, ids, triple, triple, lengths)

    def test_lstm_sequence_rejects_ids_that_name_no_table_row(self):
        table = Tensor(np.zeros((5, 2)))
        triple = Tensor(np.zeros((2, 12))), Tensor(np.zeros((3, 12))), Tensor(np.zeros(12))
        for ids, named in (
            ([1.5, 0, 2], "1.5"),
            ([0.0, 1.0], "0.0"),
            ([True, False], "True"),
            ([0, -1, 2], "-1"),
            ([0, 5, 2], "5"),
        ):
            for lengths in (None, [1, len(ids) - 1]):
                with pytest.raises(ValueError, match=rf"row id {re.escape(named)} .*table of 5 rows"):
                    T.lstm_sequence(table, ids, triple, triple, lengths)

    def test_lstm_sequence_names_the_direction_whose_shapes_disagree(self):
        table = Tensor(np.zeros((3, 2)))
        ids = [0, 2, 1, 2, 0]
        good = Tensor(np.zeros((2, 12))), Tensor(np.zeros((3, 12))), Tensor(np.zeros(12))
        for k, shape in enumerate([(3, 12), (3, 8), (8,)]):
            bad = tuple(Tensor(np.zeros(shape)) if j == k else t for j, t in enumerate(good))
            for direction, fwd, bwd in (("fwd", bad, good), ("bwd", good, bad)):
                with pytest.raises(ValueError, match=f"lstm_sequence {direction} parameter shapes"):
                    T.lstm_sequence(table, ids, fwd, bwd)
        with pytest.raises(ValueError, match="non-empty"):
            T.lstm_sequence(table, [], good, good)
        with pytest.raises(ValueError, match="non-empty"):
            T.lstm_sequence(table, [[0, 1], [2, 0]], good, good)
        with pytest.raises(ValueError, match="token table"):
            T.lstm_sequence(Tensor(np.zeros((3, 2, 1))), ids, good, good)

    def test_lstm_sequence_row_does_not_depend_on_its_batch_mates(self):
        rng = np.random.default_rng(31)
        lengths = [3, 6, 2, 6]
        e, hd = 3, 2
        fwd, bwd = _lstm_triple(rng, e, hd), _lstm_triple(rng, e, hd)
        table = Tensor(rng.normal(size=(9, e)))
        ids = rng.integers(0, 6, size=sum(lengths))
        mates = ids.copy()
        mates[:3] = rng.integers(6, 9, size=3)
        mates[9:] = rng.integers(6, 9, size=8)
        row = slice(3, 9)
        alone = T.lstm_sequence(table, ids[row], fwd, bwd).values
        for batch in (ids, mates):
            states = T.lstm_sequence(table, batch, fwd, bwd, lengths).values
            assert np.max(np.abs(states[row] - alone)) < 1e-12
        assert np.array_equal(
            T.lstm_sequence(table, ids, fwd, bwd, lengths).values[row],
            T.lstm_sequence(table, mates, fwd, bwd, lengths).values[row],
        )

    def test_lengths_validated(self):
        bank, bias = [Tensor(np.zeros((3, 1, 1)))], [Tensor(np.zeros(1))]
        table = Tensor(np.zeros((5, 1)))
        # a zero length, negative lengths, and lengths that do not sum to N
        for lengths in ([0, 5], [-1, 6], [7, -2], [2, 2], [3, 3], [], [2.5, 2.5], [2.0, 3.0], [True] * 5):
            with pytest.raises(ValueError, match=rf"lengths.*got {re.escape(str(lengths))}"):
                T.conv_relu_max(table, [0, 1, 2, 3, 4], bank, bias, lengths)
        # one-row lengths: a count other than N, a bool and a float, each as
        # a list and as an array
        for lengths, ids in (([4], [0] * 5), ([6], [0] * 5), ([True], [0]), ([3.0], [0, 1, 2])):
            for given in (lengths, np.array(lengths)):
                with pytest.raises(ValueError, match=rf"lengths.*got {re.escape(str(list(given)))}"):
                    T.conv_relu_max(table, ids, bank, bias, given)
        for given in ([5], np.array([5]), [np.int64(5)], None):
            lens, starts = T._packed_rows(given, 5)
            assert lens.tolist() == [5] and starts.tolist() == [0]
        with pytest.raises(ValueError, match="embedding table"):
            T.conv_relu_max(Tensor(np.zeros((1, 5, 1))), [0, 0, 0, 0, 0], bank, bias, [5])
        with pytest.raises(ValueError, match="flat array of packed ids"):
            T.conv_relu_max(table, [[0, 1], [2, 3]], bank, bias, [4])
        with pytest.raises(ValueError, match="flat array of packed ids"):
            T.conv_relu_max(table, [], bank, bias, [])

    @pytest.mark.parametrize("seed", [27, 28])
    def test_conv_relu_max_matches_conv_relu_max_over_time_per_width(self, seed):
        # packed rows: lengths 1 and 2 next to banks of every width from 1 to
        # 5; ids repeated within and across rows; a row of one repeated id,
        # whose interior windows tie for the maximum; and a short row between
        # two rows whose ids next to it read a large table row, so that a
        # shift leaking across a row boundary would set its maximum; one
        # channel's bias keeps it negative everywhere. The table has fewer
        # rows than the batch has positions (every row convolved) or more
        # (the row of each position convolved).
        rng = np.random.default_rng(seed)
        lengths = [1, 2, 7, 4, 2, 3]
        filters = [Tensor(rng.normal(size=(w, 3, 2))) for w in range(1, 6)]
        biases = [Tensor(rng.normal(size=2)) for _ in filters]
        biases[2].values[1] = -1e3
        probe = rng.normal(size=(len(lengths), 10))
        for rows in (12, 40):
            table = Tensor(rng.normal(size=(rows, 3)) * 2.0)
            table.values[11] = 40.0
            ids = rng.integers(0, 11, size=sum(lengths))
            ids[3:10] = ids[3]
            ids[[0, 11, 17]] = ids[1]
            ids[13] = ids[16] = 11
            params = [table] + filters + biases
            fused = run_backward(
                lambda: _weighted_sum(T.conv_relu_max(table, ids, filters, biases, lengths), probe), params
            )
            fused_grads = [t.grad.copy() for t in params]
            pooled = T.conv_relu_max(table, ids, filters, biases, lengths).values
            assert np.all(pooled[:, 5] == 0.0)

            looped = run_backward(
                lambda: _weighted_sum(_conv_relu_max_per_row(table, ids, filters, biases, lengths), probe), params
            )
            assert np.max(np.abs(pooled - _conv_relu_max_per_row(table, ids, filters, biases, lengths).values)) < 1e-12
            assert abs(fused.item() - looped.item()) < 1e-12
            for got, t in zip(fused_grads, params):
                assert np.max(np.abs(got - t.grad)) < 1e-12
            assert fused_grads[1 + len(filters) + 2][1] == 0.0  # the negative channel
            assert np.all(fused_grads[0][np.setdiff1d(np.arange(rows), ids)] == 0.0)  # rows no id reads

            # convolved together with its neighbours, as a shift leaking
            # across its boundaries would do, row 4 would pool to other maxima
            joined = T.gather_rows(table, ids[10:19])
            spilled = np.concatenate([
                T.relu(T.conv1d_same(joined, f, b)).values[4:6].max(axis=0) for f, b in zip(filters, biases)
            ])
            assert np.max(np.abs(spilled - pooled[4])) > 1.0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_conv_relu_max_matches_gather_and_conv_on_random_batches(self, seed):
        # random tables smaller or larger than the batch, ragged rows that may
        # be shorter than the widest filter, and ids drawn with repeats
        rng = np.random.default_rng(seed)
        rows, e = int(rng.integers(1, 30)), int(rng.integers(1, 5))
        lengths = [int(n) for n in rng.integers(1, 9, size=int(rng.integers(1, 6)))]
        ids = rng.integers(0, rows, size=sum(lengths))
        table = Tensor(rng.normal(size=(rows, e)))
        filters = [Tensor(rng.normal(size=(int(w), e, int(rng.integers(1, 4))))) for w in rng.integers(1, 6, size=2)]
        biases = [Tensor(rng.normal(size=f.shape[-1])) for f in filters]
        probe = rng.normal(size=(len(lengths), sum(f.shape[-1] for f in filters)))
        params = [table] + filters + biases

        fused = run_backward(lambda: _weighted_sum(T.conv_relu_max(table, ids, filters, biases, lengths), probe), params)
        fused_grads = [t.grad.copy() for t in params]
        looped = run_backward(
            lambda: _weighted_sum(_conv_relu_max_per_row(table, ids, filters, biases, lengths), probe), params
        )
        assert abs(fused.item() - looped.item()) < 1e-12
        for got, t in zip(fused_grads, params):
            assert np.max(np.abs(got - t.grad)) < 1e-12

    def test_conv_relu_max_one_row_matches_its_row_in_a_batch(self):
        # an 8-row table: the batch convolves every table row, each row alone
        # convolves its own positions
        rng = np.random.default_rng(30)
        table = Tensor(rng.normal(size=(8, 3)))
        rows = [rng.integers(0, 8, size=n) for n in (4, 6, 2)]
        filters = [Tensor(rng.normal(size=(w, 3, 2))) for w in (2, 3, 5)]
        biases = [Tensor(rng.normal(size=2)) for _ in filters]
        batch = T.conv_relu_max(table, np.concatenate(rows), filters, biases, [4, 6, 2]).values
        for b, row in enumerate(rows):
            alone = T.conv_relu_max(table, row, filters, biases, [len(row)]).values
            with Tape():
                taped = T.conv_relu_max(table, row, filters, biases, [len(row)]).values
            reference = np.concatenate([
                T.max_over_time(T.relu(T.conv1d_same(Tensor(table.values[row]), f, bias))).values
                for f, bias in zip(filters, biases)
            ])
            assert alone.shape == (1, 6)
            assert np.array_equal(alone, taped)
            assert np.max(np.abs(alone[0] - batch[b])) < 1e-12
            assert np.max(np.abs(alone[0] - reference)) < 1e-12

    def test_conv_relu_max_same_bytes_on_and_off_the_tape(self):
        # off a tape the node runs its forward alone; the values must not
        # depend on it, for one row and for packed rows, with a table that
        # has fewer rows than the call has positions and one that has more
        rng = np.random.default_rng(32)
        filters = [Tensor(rng.normal(size=(w, 3, 4))) for w in (1, 2, 3, 5)]
        biases = [Tensor(rng.normal(size=4)) for _ in filters]
        for rows in (4, 40):
            table = Tensor(rng.normal(size=(rows, 3)))
            for lengths in ([7], [3, 1, 6, 2]):
                ids = rng.integers(0, rows, size=sum(lengths))
                off = T.conv_relu_max(table, ids, filters, biases, lengths).values
                with Tape() as tape:
                    on = T.conv_relu_max(table, ids, filters, biases, lengths).values
                assert len(tape) == 1
                assert off.shape == (len(lengths), 16) and off.tobytes() == on.tobytes()

    def test_lstm_sequence_same_bytes_on_and_off_the_tape(self):
        # off a tape a lone row runs by a slice, and on a tape by the step
        # schedule, as packed rows always do; the values must not depend on it
        rng = np.random.default_rng(33)
        table = Tensor(rng.normal(size=(6, 3)))
        fwd, bwd = ((Tensor(rng.normal(size=(3, 8))), Tensor(rng.normal(size=(2, 8))), Tensor(rng.normal(size=8)))
                    for _ in range(2))
        for lengths in (None, [9], [3, 1, 5]):
            ids = rng.integers(0, 6, size=9)
            off = T.lstm_sequence(table, ids, fwd, bwd, lengths).values
            with Tape() as tape:
                on = T.lstm_sequence(table, ids, fwd, bwd, lengths).values
            assert len(tape) == 1
            assert off.shape == (9, 4) and off.tobytes() == on.tobytes()

    def test_conv_relu_max_needs_one_bias_per_bank(self):
        table = Tensor(np.zeros((5, 2)))
        bank, bias = Tensor(np.zeros((2, 2, 1))), Tensor(np.zeros(1))
        for filters, biases in (([], []), ([bank], []), ([], [bias]), ([bank, bank], [bias])):
            counts = rf"got {len(filters)} filter banks and {len(biases)} biases"
            with pytest.raises(ValueError, match=rf"conv_relu_max needs .*{counts}"):
                T.conv_relu_max(table, [0, 1, 2], filters, biases, [3])

    def test_conv_relu_max_one_tape_node(self):
        rng = np.random.default_rng(29)
        for rows in (3, 9):  # fewer and more table rows than positions
            with Tape() as tape:
                T.conv_relu_max(Tensor(rng.normal(size=(rows, 3))), [0, 2, 2, 1, 0], [Tensor(np.ones((2, 3, 1)))] * 2,
                                [Tensor(np.zeros(1))] * 2, [4, 1])
            assert len(tape) == 1

    @pytest.mark.parametrize("ids", [
        [0, -1, 2], [0, 5, 1], [True, False, True], [0.0, 1.0, 2.0], ["a", "b", "c"],
        # two bad ids, the larger or the smaller first; and lists longer than
        # the ones range-checked in Python
        [1, 7, -2, 0], [4, -3, 9], [0] * 40 + [6, -1], [3] * 40 + [-4, 8],
        # a valid id before the first that is not an integer
        [0, 1.5], [2, "a"],
        # integers beyond int64 (numpy makes an object array of them, or a
        # uint64 one that intp cannot hold), alone or after a valid id
        [2**70], [3, 2**64], [2**63], [4, -1, 2**70],
    ])
    def test_bad_ids_rejected_naming_the_id_and_the_row_count(self, ids):
        # the first bad id in order is named, whether the ids come as a list
        # or as an array; ids of mixed types come only as a list, since an
        # array gives every element its one dtype
        table = Tensor(np.zeros((5, 2)))
        bank, bias = [Tensor(np.zeros((2, 2, 1)))], [Tensor(np.zeros(1))]
        bad = next((i for i in ids if type(i) is not int or not 0 <= i < 5), ids[0])
        named = rf"row id {re.escape(repr(bad))} .* 5 rows"
        if all(type(i) is int for i in ids):  # integer ids are named as out of range
            named = rf"^row id {bad} is outside \[0, 5\) for a table of 5 rows$"
        for given in (ids, np.array(ids)) if len(set(map(type, ids))) == 1 else (ids,):
            with pytest.raises(ValueError, match=named):
                T.gather_rows(table, given)
            with pytest.raises(ValueError, match=named):
                T.conv_relu_max(table, given, bank, bias, [len(ids)])
        assert T.gather_rows(table, np.array([4, 0], dtype=np.uint8)).shape == (2, 2)
        # numpy integer scalars in a list, and ids at both ends of the table;
        # valid integer ids that numpy gives no integer dtype (signed and
        # unsigned 64-bit scalars together, or an object array)
        for good in ([np.int64(4), np.uint8(0), np.int32(2)], [0, 4] * 3, [4, 0] * 30,
                     [np.uint64(4), np.int64(0)], np.array([1, 4], dtype=object)):
            assert np.array_equal(T.gather_rows(table, good).values, table.values[np.array(good, dtype=np.intp)])
            assert T.conv_relu_max(table, good, bank, bias, [len(good)]).shape == (1, 1)

    def test_a_bool_among_integer_ids_is_rejected(self):
        # numpy reads [0, True] as the integers [0, 1]; a sequence that mixes
        # a bool into integer ids is refused naming its first bool, as an
        # array of bools is, however long it is
        table = Tensor(np.zeros((5, 2)))
        bank, bias = [Tensor(np.zeros((2, 2, 1)))], [Tensor(np.zeros(1))]
        triple = Tensor(np.zeros((2, 4))), Tensor(np.zeros((1, 4))), Tensor(np.zeros(4))
        for ids, named in (
            ([0, True], "True"), ((3, 1, False, True), "False"), ([2, np.True_], "True"), ([0] * 40 + [False], "False"),
        ):
            message = rf"^row id {named} is not an integer \(bool\) for a table of 5 rows$"
            with pytest.raises(ValueError, match=message):
                T.gather_rows(table, ids)
            with pytest.raises(ValueError, match=message):
                T.conv_relu_max(table, ids, bank, bias, [len(ids)])
            with pytest.raises(ValueError, match=message):
                T.lstm_sequence(table, ids, triple, triple)

    def test_gather_rows_backward_matches_add_at(self):
        rng = np.random.default_rng(31)
        table = Tensor(rng.normal(size=(7, 3)))
        idx = rng.integers(0, 7, size=40)
        idx[:3] = 5  # a row gathered several times
        probe = rng.normal(size=(40, 3))
        table.grad[...] = rng.normal(size=(7, 3))  # gradient accumulates onto what is there
        expected = table.grad.copy()
        np.add.at(expected, idx, probe)
        with Tape() as tape:
            out = _weighted_sum(T.gather_rows(table, idx), probe)
        tape.backward(out)
        assert np.max(np.abs(table.grad - expected)) < 1e-12

    def test_ops_take_one_layout(self):
        # the batched and 1-D forms no model runs are rejected, not read
        # another way
        row, bank, bias = Tensor(np.zeros((1, 3, 2))), Tensor(np.zeros((3, 2, 1))), Tensor(np.zeros(1))
        vector, matrix = Tensor(np.zeros(2)), Tensor(np.zeros((2, 2)))
        for a, b in ((vector, matrix), (matrix, vector), (vector, vector)):
            with pytest.raises(ValueError, match=r"\(m, p\) and \(p, q\) matrices"):
                T.matmul(a, b)
        with pytest.raises(ValueError, match=r"\(n, e\) input"):
            T.conv1d_same(row, bank, bias)
        with pytest.raises(ValueError, match=r"\(n, f\) input"):
            T.max_over_time(row)
        with pytest.raises(ValueError, match=r"\(B, c\) logits"):
            T.softmax_cross_entropy(Tensor(np.zeros(3)), 0)
        with pytest.raises(ValueError, match="flat array of 1 gold labels"):
            T.softmax_cross_entropy(Tensor(np.zeros((1, 3))), 0)
        with pytest.raises(ValueError, match=r"\(n, d\) matrices"):
            T.concat([Tensor(np.zeros(2)), Tensor(np.zeros(3))])
        with pytest.raises(ValueError, match=r"\(n, d\) matrices"):
            T.concat([Tensor(np.zeros((2, 1))), Tensor(np.zeros((3, 1)))])
        table = Tensor(np.zeros((4, 2)))
        for ids in ([[0, 1], [2, 3]], []):
            with pytest.raises(ValueError, match="non-empty flat array of row ids"):
                T.gather_rows(table, ids)


class TestTapeSemantics:
    def test_reuse_accumulates_double_gradient(self):
        x = Tensor(np.array([1.0, 2.0]))
        run_backward(lambda: _sum_all(T.add(x, x)), [x])
        assert x.grad.tolist() == [2.0, 2.0]

    def test_no_tape_records_nothing(self):
        x = Tensor(np.array([1.0]))
        T.scale(x, 2.0)
        with Tape() as tape:
            pass
        assert len(tape) == 0

    def test_backward_seed_scales(self):
        x = Tensor(np.array([3.0]))
        x.zero_grad()
        with Tape() as tape:
            y = T.scale(x, 2.0)
        tape.backward(y, seed=0.25)
        assert x.grad.tolist() == [0.5]

    def test_backward_rejects_non_scalar(self):
        x = Tensor(np.array([1.0, 2.0]))
        with Tape() as tape:
            y = T.scale(x, 2.0)
        with pytest.raises(ValueError, match="scalar"):
            tape.backward(y)

    def test_grad_check_helper_passes_on_composite(self):
        rng = np.random.default_rng(10)
        a = Tensor(rng.normal(size=(3, 3)))
        b = Tensor(rng.normal(size=(3, 3)))

        def f():
            return _sum_all(T.relu(T.matmul(a, b)))

        assert T.grad_check(f, [a, b]) < 1e-6

    def test_grad_check_detects_wrong_gradient(self):
        x = Tensor(np.array([1.0, -2.0]))

        def broken():
            out = Tensor((x.values ** 2).sum())

            def backward():
                x.grad += out.grad * x.values  # missing factor 2

            T._record(backward)
            return out

        assert T.grad_check(broken, [x]) > 0.3


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 5), st.integers(1, 4), st.integers(1, 4), st.integers(0, 2 ** 31 - 1))
def test_conv_matches_fd_on_random_shapes(n, e, f, seed):
    rng = np.random.default_rng(seed)
    seq = Tensor(rng.normal(size=(n, e)))
    filters = Tensor(rng.normal(size=(3, e, f)))
    bias = Tensor(rng.normal(size=f))
    assert_matches_fd(lambda: _sum_all(T.conv1d_same(seq, filters, bias)), [seq, filters, bias], tol=1e-5)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 9), min_size=1, max_size=8))
def test_time_major_schedule(lengths):
    total = sum(lengths)
    index, reverse, bounds, last, previous = T._time_major(lengths, total)
    starts = np.cumsum(lengths) - lengths
    assert sorted(index.tolist()) == sorted(reverse.tolist()) == list(range(total))
    longest_first = sorted(range(len(lengths)), key=lambda row: -lengths[row])  # stable: ties in batch order
    assert len(bounds) == max(lengths) + 1 and bounds[0] == 0
    held = {}  # slot -> (batch row, step)
    for t in range(max(lengths)):
        running = [row for row in longest_first if lengths[row] > t]
        slots = range(bounds[t], bounds[t + 1])
        assert index[bounds[t] : bounds[t + 1]].tolist() == [starts[row] + t for row in running]
        assert reverse[bounds[t] : bounds[t + 1]].tolist() == [starts[row] + lengths[row] - 1 - t for row in running]
        held.update((p, (row, t)) for p, row in zip(slots, running, strict=True))
    for r, row in enumerate(longest_first):
        assert index[last[r]] == starts[row] + lengths[row] - 1
        assert reverse[last[r]] == starts[row]
    assert len(previous) == total - bounds[1]
    for p in range(bounds[1], total):
        row, t = held[p]
        assert held[previous[p - bounds[1]]] == (row, t - 1)


def test_determinism_same_ops_same_bits():
    rng = np.random.default_rng(11)
    a_values = rng.normal(size=(4, 4))

    def run():
        a = Tensor(a_values)
        with Tape() as tape:
            out = _sum_all(T.relu(T.matmul(a, a)))
        tape.backward(out)
        return out.item(), a.grad.copy()

    v1, g1 = run()
    v2, g2 = run()
    assert v1 == v2
    assert np.array_equal(g1, g2)


def _conv_bank(rng, rows=9, e=4, widths=(2, 3)):
    table = Tensor(rng.normal(size=(rows, e)))
    filters = [Tensor(rng.normal(size=(w, e, 3))) for w in widths]
    biases = [Tensor(rng.normal(size=3)) for _ in widths]
    return table, filters, biases


class TestFixedBlock:
    def test_values_read_only_inside(self):
        t = Tensor(np.ones(3))
        with T.fixed([t]):
            with pytest.raises(ValueError, match="read-only"):
                t.values += 1.0
            t.grad += 1.0  # gradients stay writable
        t.values += 1.0
        assert t.values.tolist() == [2.0, 2.0, 2.0] and t.grad.tolist() == [1.0, 1.0, 1.0]

    def test_flags_restored_also_when_the_body_raises(self):
        writable, read_only = Tensor(np.ones(2)), Tensor(np.ones(2))
        read_only.values.flags.writeable = False
        with pytest.raises(RuntimeError, match="labelling failed"):
            with T.fixed([writable, read_only, writable]):
                assert not writable.values.flags.writeable
                raise RuntimeError("labelling failed")
        assert writable.values.flags.writeable and not read_only.values.flags.writeable
        assert T._FIXED == []

    def test_nested_blocks_restore_in_order(self):
        a, b, c = (Tensor(np.zeros(2)) for _ in range(3))
        with T.fixed([a, b]):
            with T.fixed([b, c]):
                assert not any(t.values.flags.writeable for t in (a, b, c))
            # b stays fixed by the outer block
            assert [t.values.flags.writeable for t in (a, b, c)] == [False, False, True]
        assert all(t.values.flags.writeable for t in (a, b, c))

    def test_memo_never_outlives_its_block(self):
        table, filters, biases = _conv_bank(np.random.default_rng(3))
        with T.fixed([table, *filters, *biases]):
            T.conv_relu_max(table, [0, 1, 2], filters, biases, [3])
            assert len(T._FIXED[-1][1]) == 1
            with T.fixed([]):  # an inner block makes its own memo, which goes with it
                T.conv_relu_max(table, [3, 4], filters, biases, [2])
            assert len(T._FIXED[-1][1]) == 1
        assert T._FIXED == []

    def test_next_pass_sees_changed_parameters(self):
        table, filters, biases = _conv_bank(np.random.default_rng(6))
        params = [table, *filters, *biases]
        ids = [0, 3, 3, 5]

        def labelling_pass():
            with T.fixed(params):
                return T.conv_relu_max(table, ids, filters, biases, [4]).values

        first = labelling_pass()
        for t in params:
            t.values *= 1.5  # as an optimizer step does, in place
        second = labelling_pass()
        assert not np.array_equal(first, second)
        assert np.array_equal(second, T.conv_relu_max(table, ids, filters, biases, [4]).values)

    def test_unfixed_banks_make_no_memo(self):
        table, filters, biases = _conv_bank(np.random.default_rng(4))
        with T.fixed([table, *filters]):  # the biases may still change
            T.conv_relu_max(table, [0, 1, 2], filters, biases, [3])
            assert T._FIXED[-1][1] == {}

    def test_taped_call_neither_reads_nor_fills_a_memo(self):
        rng = np.random.default_rng(5)
        table, filters, biases = _conv_bank(rng)
        ids, lengths = [0, 4, 4, 1, 7, 2], [4, 2]
        params = [table, *filters, *biases]

        def taped_grads():
            for t in params:
                t.zero_grad()
            out = run_backward(lambda: _weighted_sum(T.conv_relu_max(table, ids, filters, biases, lengths),
                                                     np.arange(12.0).reshape(2, 6)), params)
            return out.values, [t.grad.copy() for t in params]

        expected, expected_grads = taped_grads()
        with T.fixed(params):
            got, grads = taped_grads()
            assert T._FIXED[-1][1] == {}  # not filled
            T.conv_relu_max(table, [5, 6], filters, biases, [2])
            [(responses, _)] = T._FIXED[-1][1].values()
            responses[...] = 0.0  # so that a taped call reading the memo would go wrong
            got, grads = taped_grads()
        assert np.array_equal(got, expected)
        assert all(np.array_equal(g, e) for g, e in zip(grads, expected_grads))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 11), min_size=1, max_size=6), min_size=1, max_size=5),
           st.integers(0, 2 ** 31 - 1))
    def test_memo_values_match_per_call_whatever_the_order(self, calls, seed):
        # every call's values match the per-call node's, to the last bit
        # but for a one-position call, whichever call made the memo: the
        # calls run in one order in one block and in the reverse order in
        # another
        table, filters, biases = _conv_bank(np.random.default_rng(seed), rows=12, e=5, widths=(1, 3, 4))
        per_call = [T.conv_relu_max(table, ids, filters, biases, [len(ids)]).values for ids in calls]
        params = [table, *filters, *biases]
        with T.fixed(params):
            forward = [T.conv_relu_max(table, ids, filters, biases, [len(ids)]).values for ids in calls]
        with T.fixed(params):
            backward = [T.conv_relu_max(table, ids, filters, biases, [len(ids)]).values for ids in calls[::-1]]
        for ids, alone, a, b in zip(calls, per_call, forward, backward[::-1]):
            assert np.array_equal(a, b)
            np.testing.assert_allclose(a, alone, rtol=1e-12, atol=1e-300)
            if len(ids) > 1:
                assert np.array_equal(a, alone)
