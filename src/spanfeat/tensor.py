"""Dense float64 tensors with reverse-mode gradient accumulation.

Every operation computes its result eagerly with numpy and, when a Tape is
active, records a backward closure. ``Tape.backward`` replays the closures in
exact reverse execution order, accumulating (never overwriting) gradients, so
parameters that appear several times in one forward pass receive summed
gradients.

The two fused nodes, ``conv_relu_max`` and ``lstm_sequence``, take one
input form: a (D, e) table of row vectors and a flat array of N packed row
ids, row b of the batch the next ``lengths[b]`` ids. The lookup is part of
the node, so work that depends on a row alone (a convolution's products
with each filter bank, an LSTM's input projection) is done once per table
row, not once per position, and the backward sums the gradients of the
positions that read a row (``_sum_by_id``, which ``gather_rows`` also
uses). In a ten-utterance tagger training batch of the synthetic corpus,
73 % of the positions repeat a token that an earlier position reads; in a
decoded utterance, 18 %.

Labelling holds the parameters still, and ``fixed(tensors)`` says so: a
``with`` block in which the given tensors' values are read-only. While a
block is open, an off-tape ``conv_relu_max`` call whose table, filters and
biases are all fixed reads the whole table's responses to the banks from a
memo of the block, convolved at the first such call, so a labelling pass
convolves the table once (the per-vocabulary precomputation of Devlin et
al. 2014, "Fast and Robust Neural Network Joint Models for SMT", across
calls). The memos go when the block closes.

No model runs ``relu``, ``stack_rows``, ``unstack_rows``, ``conv1d_same``,
``max_over_time`` or ``lstm_cell``: they are the per-row references the
fused nodes are tested against, and grad-check does not audit them.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "fixed",
    "matmul",
    "add",
    "sub",
    "scale",
    "relu",
    "concat",
    "stack_rows",
    "unstack_rows",
    "gather_rows",
    "conv1d_same",
    "max_over_time",
    "conv_relu_max",
    "lstm_cell",
    "lstm_sequence",
    "softmax_cross_entropy",
    "index_sum",
    "grad_check",
    "glorot_uniform",
    "uniform_init",
]


class Tensor:
    """A dense float64 array plus an accumulated-gradient buffer of the same shape."""

    __slots__ = ("values", "_grad")

    def __init__(self, values) -> None:
        v = np.asarray(values, dtype=np.float64)
        # ascontiguousarray would promote 0-d scalars to shape (1,)
        self.values = v if v.flags["C_CONTIGUOUS"] else np.ascontiguousarray(v)
        self._grad: np.ndarray | None = None

    @property
    def grad(self) -> np.ndarray:
        """The accumulated gradient; zeros are allocated on first use, so a
        tensor no backward pass reaches never holds a buffer."""
        if self._grad is None:
            self._grad = np.zeros_like(self.values)
        return self._grad

    @grad.setter
    def grad(self, value: np.ndarray) -> None:
        self._grad = value

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def item(self) -> float:
        if self.values.size != 1:
            raise ValueError(f"item() needs a scalar tensor, got shape {self.shape}")
        return float(self.values.reshape(()))

    def zero_grad(self) -> None:
        if self._grad is not None:
            self._grad[...] = 0.0

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


# Stack of active tapes; ops record onto the innermost one. Single-threaded by
# design: a tape is built and replayed on one thread.
_TAPES: list["Tape"] = []


class Tape:
    """Ordered record of executed primitives for one backward pass."""

    def __init__(self) -> None:
        self._steps: list[Callable[[], None]] = []

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _TAPES.pop()
        return False

    def __len__(self) -> int:
        return len(self._steps)

    def backward(self, loss: Tensor, seed: float = 1.0) -> None:
        """Seed the loss gradient and replay recorded steps in reverse order.

        Each step is dropped once it has run, so the arrays only it kept
        alive are freed during the pass; a tape replays once.
        """
        if loss.values.size != 1:
            raise ValueError(f"backward() needs a scalar loss, got shape {loss.shape}")
        loss.grad += seed
        steps = self._steps
        while steps:
            steps.pop()()


def _record(step: Callable[[], None]) -> None:
    if _TAPES:
        _TAPES[-1]._steps.append(step)


# Stack of open ``fixed`` blocks, innermost last: the ids of the arrays each
# made read-only, and its conv memos (``_conv_memo``) by their number of
# banks and the ids of their table, filter and bias arrays. The blocks that
# fix those arrays keep them and close after the memo's block, so the ids
# name them while the memo lives.
_FIXED: list[tuple[frozenset[int], dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]]]] = []


@contextlib.contextmanager
def fixed(tensors: Iterable[Tensor]) -> Iterator[None]:
    """A block in which the values of ``tensors`` are read-only, so that
    work that depends on them alone can be kept for the block's later
    calls: an off-tape ``conv_relu_max`` whose table and banks are all fixed
    reads its responses from a memo of the block.

    The labelling passes of ``evaluation`` (``eval``, ``ablate``, every dev
    metric) and ``predict``'s stdin loop each open one block over the
    models they read. Each tensor's ``values`` gets ``flags.writeable =
    False``; gradients are not touched. On exit, however the block ends,
    every flag is restored to what it was, last set first, and the block's
    memos are dropped. Blocks nest; an inner block's memos go when it
    closes.
    """
    arrays = list({id(t.values): t.values for t in tensors}.values())
    flags = [a.flags.writeable for a in arrays]
    for a in arrays:
        a.flags.writeable = False
    _FIXED.append((frozenset(map(id, arrays)), {}))
    try:
        yield
    finally:
        _FIXED.pop()
        for a, flag in zip(reversed(arrays), reversed(flags)):
            a.flags.writeable = flag


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product (m, p) @ (p, q). Backward: dA = dC.B^T, dB = A^T.dC."""
    if a.values.ndim != 2 or b.values.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul needs (m, p) and (p, q) matrices, got {a.shape} and {b.shape}")
    out = Tensor(a.values @ b.values)

    def backward() -> None:
        a.grad += out.grad @ b.values.T
        b.grad += a.values.T @ out.grad

    _record(backward)
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; also allows adding a 1-D bias to every row of a matrix."""
    if a.shape == b.shape:
        out = Tensor(a.values + b.values)

        def backward() -> None:
            a.grad += out.grad
            b.grad += out.grad

    elif a.values.ndim == 2 and b.values.ndim == 1 and a.shape[1] == b.shape[0]:
        out = Tensor(a.values + b.values[None, :])

        def backward() -> None:
            a.grad += out.grad
            b.grad += out.grad.sum(axis=0)

    else:
        raise ValueError(f"add shapes disagree: {a.shape} vs {b.shape}")
    _record(backward)
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"sub shapes disagree: {a.shape} vs {b.shape}")
    out = Tensor(a.values - b.values)

    def backward() -> None:
        a.grad += out.grad
        b.grad -= out.grad

    _record(backward)
    return out


def scale(a: Tensor, k: float) -> Tensor:
    out = Tensor(a.values * k)

    def backward() -> None:
        a.grad += out.grad * k

    _record(backward)
    return out


def relu(x: Tensor) -> Tensor:
    mask = x.values > 0.0
    out = Tensor(np.where(mask, x.values, 0.0))

    def backward() -> None:
        x.grad += out.grad * mask

    _record(backward)
    return out


def concat(parts: Sequence[Tensor]) -> Tensor:
    """Join (n, d_k) matrices column-wise into one (n, sum of d_k) matrix."""
    if not parts or any(p.values.ndim != 2 or p.shape[0] != parts[0].shape[0] for p in parts):
        raise ValueError(f"concat needs (n, d) matrices with one n, got {[p.shape for p in parts]}")
    out = Tensor(np.concatenate([p.values for p in parts], axis=1))

    def backward() -> None:
        offset = 0
        for p in parts:
            size = p.shape[1]
            p.grad += out.grad[:, offset : offset + size]
            offset += size

    _record(backward)
    return out


def stack_rows(rows: Sequence[Tensor]) -> Tensor:
    """Stack n vectors of equal length into an (n, d) matrix."""
    if not rows:
        raise ValueError("stack_rows needs at least one row")
    out = Tensor(np.stack([r.values for r in rows], axis=0))

    def backward() -> None:
        for i, r in enumerate(rows):
            r.grad += out.grad[i]

    _record(backward)
    return out


def unstack_rows(mat: Tensor) -> list[Tensor]:
    """Split an (n, d) matrix into n vectors; inverse of stack_rows."""
    if mat.values.ndim != 2:
        raise ValueError(f"unstack_rows needs a matrix, got {mat.shape}")
    rows = []
    for i in range(mat.shape[0]):
        row = Tensor(mat.values[i])

        def backward(i=i, row=row) -> None:
            mat.grad[i] += row.grad

        _record(backward)
        rows.append(row)
    return rows


# ndarray.max without its Python wrapper, the longest list of ids that
# ``_row_ids`` range-checks in Python (past about 40 ids numpy is faster),
# and the types of the bools it looks for among integer ids
_max = np.maximum.reduce
_SHORT = 32
_BOOLS = frozenset((bool, np.bool_))


def _row_ids(indices, rows: int, op: str, what: str) -> np.ndarray:
    """``indices`` as a flat intp array of row ids of a table with ``rows``
    rows. An empty or not flat array, a non-integer id (bools included) or
    one outside [0, rows) raises ValueError naming ``op`` and what its ids
    are, so that no id silently reads another row."""
    idx = np.asarray(indices)
    if idx.ndim != 1 or idx.size < 1:
        raise ValueError(f"{op} needs a non-empty flat array of {what}, got shape {idx.shape}")
    if idx.dtype.kind in "iu" and not isinstance(indices, np.ndarray) and not _BOOLS.isdisjoint(map(type, indices)):
        # numpy reads a bool among integers as 0 or 1: name the first bool
        idx = np.array([i for i in indices if type(i) in _BOOLS])
    if idx.dtype.kind not in "iu" and (isinstance(indices, (list, tuple)) or idx.dtype == object):
        # a list, a tuple or an object array names its first id that is not
        # an integer; if all are, numpy found no integer dtype for them all
        # (an id beyond int64, or numpy scalars of mixed signedness), and
        # they are range-checked one by one
        items = indices if isinstance(indices, (list, tuple)) else idx.tolist()
        bad = [i for i in items if type(i) in _BOOLS or not isinstance(i, (int, np.integer))]
        if bad:
            raise _not_integer(np.asarray(bad[0]).tolist(), idx.dtype, rows)  # a numpy scalar as its Python value
        bad = [i for i in items if not 0 <= i < rows]
        if bad:
            raise _outside(bad[0], rows)
        idx = np.array(items, dtype=np.intp)
    if idx.dtype.kind not in "iu":
        # every element of a typed array has its dtype, so it names its first
        raise _not_integer(idx[:1].tolist()[0], idx.dtype, rows)
    ids = idx.astype(np.intp, copy=False)
    if type(indices) is list and len(indices) <= _SHORT:
        # Python's min and max scan a short list faster than a ufunc
        # reduction sets up; its integer dtype says they compare as integers
        in_range = min(indices) >= 0 and max(indices) < rows
    else:
        in_range = _max(ids.view(np.uintp)) < rows  # one pass: a negative id reads as a huge unsigned one
    if not in_range:
        # named from the ids as given: an unsigned id past the intp range
        # turns negative in ``ids``
        raise _outside(idx[(idx < 0) | (idx >= rows)][0], rows)
    return ids


def _not_integer(bad, dtype, rows: int) -> ValueError:
    return ValueError(f"row id {bad!r} is not an integer ({dtype}) for a table of {rows} rows")


def _outside(bad, rows: int) -> ValueError:
    return ValueError(f"row id {bad} is outside [0, {rows}) for a table of {rows} rows")


def _sum_by_id(ids: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``ids`` in increasing order and, for each, the sum of the
    rows of the (len(ids), w) ``values`` that carry it: the scatter-add of a
    row lookup's backward, repeats accumulated. One ``np.unique`` numbers
    the distinct ids and one ``np.bincount`` sums every (id, column) cell,
    the rows of an id in the order they come."""
    keys, inverse = np.unique(ids, return_inverse=True)
    width = values.shape[1]
    cells = (inverse * width)[:, None] + np.arange(width)
    sums = np.bincount(cells.reshape(-1), values.reshape(-1), minlength=keys.size * width)
    return keys, sums.reshape(keys.size, width)


def gather_rows(table: Tensor, indices) -> Tensor:
    """Select rows table[indices] for a non-empty flat array of row ids;
    backward scatter-adds (repeats accumulate) through ``_sum_by_id``."""
    idx = _row_ids(indices, table.shape[0], "gather_rows", "row ids")
    out = Tensor(table.values[idx])

    def backward() -> None:
        keys, sums = _sum_by_id(idx, out.grad)
        table.grad[keys] += sums

    _record(backward)
    return out


def conv1d_same(seq: Tensor, filters: Tensor, bias: Tensor) -> Tensor:
    """1-D convolution over an (n, e) sequence with (w, e, f) filters.

    Zero padding keeps the output length at n; for even widths the extra pad
    column goes on the left. Returns the linear response (no activation).
    The forward pass is one im2col matmul.
    """
    if seq.values.ndim != 2:
        raise ValueError(f"conv1d_same needs an (n, e) input, got {seq.shape}")
    n, e = seq.shape
    w, ef, f = filters.shape
    if ef != e:
        raise ValueError(f"conv1d_same channel mismatch: seq {seq.shape} vs filters {filters.shape}")
    if bias.shape != (f,):
        raise ValueError(f"conv1d_same bias shape {bias.shape} != ({f},)")
    left = w // 2
    padded = np.zeros((n + w - 1, e))
    padded[left : left + n] = seq.values
    cols = np.empty((n, w * e))
    for j in range(w):
        cols[:, j * e : (j + 1) * e] = padded[j : j + n]
    kernel = filters.values.reshape(w * e, f)
    out = Tensor(cols @ kernel + bias.values)

    def backward() -> None:
        g = out.grad
        bias.grad += g.sum(axis=0)
        filters.grad += (cols.T @ g).reshape(w, e, f)
        dcols = g @ kernel.T
        dpad = np.zeros_like(padded)
        for j in range(w):
            dpad[j : j + n] += dcols[:, j * e : (j + 1) * e]
        seq.grad += dpad[left : left + n]

    _record(backward)
    return out


def max_over_time(seq: Tensor) -> Tensor:
    """Per-channel maximum over the positions of an (n, f) sequence, giving
    (f,). Backward routes each channel's gradient to its argmax position
    only; ties go to the lowest position index."""
    if seq.values.ndim != 2 or seq.shape[0] < 1:
        raise ValueError(f"max_over_time needs a non-empty (n, f) input, got {seq.shape}")
    out = Tensor(seq.values.max(axis=0))

    def backward() -> None:
        seq.grad[seq.values.argmax(axis=0), np.arange(seq.shape[1])] += out.grad

    _record(backward)
    return out


def _packed_rows(lengths, total: int) -> tuple[np.ndarray, np.ndarray]:
    """Lengths and start offsets of the rows of a packed batch: ``lengths``
    must hold at least one positive count, and the counts must sum to the
    ``total`` packed positions. None is one row of all of them."""
    if lengths is None:
        lengths = [total]
    if type(lengths) is list and len(lengths) == 1 and type(lengths[0]) is int and lengths[0] == total > 0:
        # the one-row calls of classify and decode, checked without numpy
        return np.array(lengths, dtype=np.intp), np.zeros(1, dtype=np.intp)
    lens = np.asarray(lengths)
    if lens.dtype.kind not in "iu" or len(lengths) == 0 or min(lengths) < 1 or sum(lengths) != total:
        raise ValueError(
            f"lengths must be positive and sum to the {total} packed positions, got {list(lengths)}"
        )
    lens = lens.astype(np.intp, copy=False)
    return lens, np.cumsum(lens) - lens


def _time_major(lengths, total: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The step schedule of a packed batch (see ``_packed_rows``), the layout
    of cuDNN's packed variable-length sequences (Appleyard et al. 2016,
    arXiv:1604.01946). Every recursion over packed rows runs by it.

    Rows are taken longest first, ties in batch order, so the rows still
    running at step t are a prefix of that order, and row r of it holds
    slot ``bounds[t] + r`` at step t. Returns ``(index, reverse, bounds,
    last, previous)``: slots ``bounds[t]:bounds[t + 1]`` hold step t of each
    running row; slot p reads packed position ``index[p]`` when each row
    runs from its first position to its last, and ``reverse[p]`` when it
    runs from its last to its first (both permutations); ``last[r]`` is row
    r's final slot; and ``previous[p - bounds[1]]`` is the slot that slot
    p's row held one step earlier, for every slot after step 0.
    """
    lens, starts = _packed_rows(lengths, total)
    order = np.argsort(-lens, kind="stable")
    lens, starts = lens[order], starts[order]
    sizes = np.count_nonzero(lens > np.arange(lens[0])[:, None], axis=1)  # rows running per step
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    step = np.repeat(np.arange(sizes.size), sizes)
    row = np.arange(total) - bounds[step]
    index = starts[row] + step
    reverse = starts[row] + lens[row] - 1 - step
    last = bounds[lens - 1] + np.arange(lens.size)
    previous = np.arange(sizes[0], total) - np.repeat(sizes[:-1], sizes[1:])
    return index, reverse, bounds, last, previous


def _banks(
    table: Tensor, filters: Sequence[Tensor], biases: Sequence[Tensor]
) -> tuple[list[int], list[int], np.ndarray]:
    """The width w and filter count f of each (w, e, f) bank, which must fit
    the (rows, e) table and carry an (f,) bias, and the biases end to end."""
    if not filters or len(filters) != len(biases):
        raise ValueError(
            f"conv_relu_max needs at least one filter bank and one bias per bank, "
            f"got {len(filters)} filter banks and {len(biases)} biases"
        )
    e = table.values.shape[1]
    widths, sizes = [], []
    for filt, bias in zip(filters, biases):
        w, f = filt.values.shape[0], filt.values.shape[-1]
        if filt.values.shape != (w, e, f) or bias.values.shape != (f,):
            raise ValueError(
                f"conv_relu_max filters {filt.shape} and bias {bias.shape} do not fit the table {table.shape}"
            )
        widths.append(w)
        sizes.append(f)
    return widths, sizes, np.concatenate([b.values for b in biases]) if len(biases) > 1 else biases[0].values


def _bank_responses(
    source: np.ndarray, filters: Sequence[Tensor], widths: list[int], sizes: list[int]
) -> np.ndarray:
    """The (W, source rows, sum of f) shift-major responses of the rows of
    ``source`` to the banks, W the widest width, one product per bank: row
    lead + s, lead = W // 2, holds each bank's response to shift s in the
    bank's own columns (output position t reads input t + s), and zeros
    where the bank does not read s; bank w's offset j is shift j - w // 2."""
    widest = max(widths)
    lead = widest // 2
    out = (np.empty if min(widths) == widest else np.zeros)((widest, source.shape[0], sum(sizes)))
    column = 0
    for filt, w, f in zip(filters, widths, sizes):
        first = lead - w // 2
        np.matmul(source, filt.values, out=out[first : first + w, :, column : column + f])
        column += f
    return out


def _conv_memo(
    table: Tensor, filters: Sequence[Tensor], biases: Sequence[Tensor]
) -> tuple[np.ndarray, np.ndarray] | None:
    """The memo of an open ``fixed`` block for this table and these banks:
    the whole table's responses (``_bank_responses``) and the banks' biases
    end to end, made in the innermost block at the first call that reads
    it; None when any of them is not fixed."""
    key = (len(filters), id(table.values), *[id(t.values) for t in filters], *[id(t.values) for t in biases])
    for _, memos in _FIXED:
        memo = memos.get(key)
        if memo is not None:
            return memo
    if not all(any(k in frozen for frozen, _ in _FIXED) for k in key[1:]):
        return None
    widths, sizes, bias = _banks(table, filters, biases)
    memo = _FIXED[-1][1][key] = (_bank_responses(table.values, filters, widths, sizes), bias)
    return memo


def conv_relu_max(
    table: Tensor, ids, filters: Sequence[Tensor], biases: Sequence[Tensor], lengths
) -> Tensor:
    """Kim's conv block as one node over a packed batch of embedded rows:
    for each (w, e, f) filter bank in turn, ``max_over_time(relu(
    conv1d_same(gather_rows(table, row_ids), filters, bias)))`` of every
    row, concatenated by bank into (B, sum of f).

    Packed means the B rows are concatenated into one flat array of N table
    row ids: row b is the next ``lengths[b]`` ids, N is the sum of the
    lengths, and no position is padding. The embedding lookup is part of
    the node: when the table has no more rows than the batch has positions,
    every table row is convolved once however often it occurs, and
    otherwise the row of each position is convolved.

    The convolution is shift-and-add ("kn2row", Vasudevan et al. 2017,
    arXiv:1704.04428), all banks in one pass. Output position t of a bank
    of width w reads input t + s for the shifts s from -(w // 2) to
    w - 1 - w // 2, so the widest width W spans every shift any bank reads.
    One product of the source rows with each bank as stored writes its w
    offset responses into the bank's own column block of one (W, source
    rows, sum of f) buffer, each at the row of its shift. A shift that a
    bank does not read stays zero in its columns; banks of one width, such
    as the char-CNN's one bank, write every cell, and the buffer is not
    zeroed for them. The rest runs once per call, not once per bank. Each
    shift's responses are read back by position as they are added, with
    the responses it would carry across a row boundary zeroed first, so
    that every row reads zeros past its ends: W - 1 contiguous (N, sum of
    f) adds, 4 for widths 3, 4 and 5 where one bank at a time took 9.
    Adding 0.0 leaves every sum as it was but a -0.0 one, so values and
    gradients are the banks' own, one at a time, bit for bit but for the
    sign of a zero. The bias is constant over positions, so it is added
    after the maximum, and ReLU commutes with the maximum, so it is
    applied to the pooled values alone. The per-row maxima are one
    ``np.maximum.reduceat``; the forward of a batch of one row needs
    neither the zeroing nor the reduceat.

    Inside a ``fixed`` block that fixes the table, the filters and the
    biases, an off-tape call reads the whole table's responses from the
    block's memo (``_conv_memo``), made at the first call and dropped with
    the block, and every position reads its row's responses by id, as when
    the table is convolved whole; a memo hit skips the bank checks its
    creation made. The memo holds W * sum of f floats per table row, 3
    times the row's embedding at the classifiers' default sizes. A call's
    values are the per-call ones bit for bit, but for a one-position
    call's, whose per-call product is numpy's one-row path (to the last
    bit, about 1e-16).

    Off a tape the node is that forward alone: the argmax windows are
    found, and the backward defined, only while a tape records. Backward
    reads the argmax windows only, bank by bank as column blocks: each
    positive pooled (row, channel) sends its gradient to the w (offset,
    source row) responses its argmax position (lowest index on ties) read,
    one ``np.bincount`` sums them into a (source rows, sum of w*f) response
    gradient, and the table and filter gradients are one product each.
    """
    tv = table.values
    if tv.ndim != 2:
        raise ValueError(f"conv_relu_max needs a (rows, e) embedding table, got {table.shape}")
    rows, e = tv.shape
    idx = _row_ids(ids, rows, "conv_relu_max", "packed ids")
    total = idx.size
    lens, starts = _packed_rows(lengths, total)
    bsz = lens.size
    taping = bool(_TAPES)
    memo = _conv_memo(table, filters, biases) if _FIXED and not taping else None
    # source: the rows convolved; picked: their table rows (None: all of
    # them, in order); slots: the source row of each position (None: the
    # position's own)
    if memo is not None:
        (responses, bias), slots = memo, idx
    else:
        widths, sizes, bias = _banks(table, filters, biases)
        if rows <= total:
            source, picked, slots = tv, None, idx
        else:
            source, picked, slots = tv[idx], idx, None
        responses = _bank_responses(source, filters, widths, sizes)
    widest = responses.shape[0]
    lead = widest // 2
    pre = responses[lead] if slots is None else responses[lead].take(slots, axis=0)
    if bsz > 1:
        pos = np.arange(total) - np.repeat(starts, lens)  # position within its row
        rest = np.repeat(lens - 1, lens) - pos  # positions after it in its row
    for s in range(max(-lead, 1 - total), min(widest - lead, total)):
        if s == 0:
            continue
        # one shift's responses by position, gathered as it is added
        shifted = responses[lead + s] if slots is None else responses[lead + s].take(slots, axis=0)
        if bsz > 1:  # so that each row reads zeros past its ends
            shifted[pos < s if s > 0 else rest < -s] = 0.0
        if s > 0:
            pre[:-s] += shifted[s:]
        else:
            pre[-s:] += shifted[:s]
        del shifted
    del responses  # before the argmax pass allocates its own arrays
    pooled = _max(pre, axis=0, keepdims=True) if bsz == 1 else np.maximum.reduceat(pre, starts, axis=0)
    if taping:  # backward needs only where each maximum sits
        at_max = np.where(pre == np.repeat(pooled, lens, axis=0), np.arange(total)[:, None], total)
        argmax = np.minimum.reduceat(at_max, starts, axis=0)
    pooled += bias
    out = Tensor(np.maximum(pooled, 0.0, out=pooled))
    if not taping:
        return out
    banks = list(zip(filters, biases))

    def backward() -> None:
        g = out.grad * (out.values > 0.0)
        # Column (bank, j, c) of the (source rows, sum of w*f) response
        # gradient holds the gradient of offset j's response in channel c.
        # Each pooled (row, channel) reads the w inputs around its argmax
        # output, leaving out those past either end of the row.
        reads, columns = [], []
        offset = column = 0
        for (_, bias), w, f in zip(banks, widths, sizes):
            bias.grad += g[:, offset : offset + f].sum(axis=0)
            reads.append((argmax[:, offset : offset + f, None] + (np.arange(w) - w // 2)).reshape(bsz, f * w))
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
        kernel = np.concatenate(
            [filt.values.transpose(0, 2, 1).reshape(w * f, e) for (filt, _), w, f in zip(banks, widths, sizes)]
        )
        if picked is None:
            table.grad += dresp @ kernel
        else:
            keys, sums = _sum_by_id(picked, dresp @ kernel)
            table.grad[keys] += sums
        dfilt = dresp.T @ source
        column = 0
        for (filt, _), w, f in zip(banks, widths, sizes):
            filt.grad += dfilt[column : column + w * f].reshape(w, f, e).transpose(0, 2, 1)
            column += w * f

    _record(backward)
    return out


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def lstm_cell(
    x: Tensor,
    h_prev: Tensor,
    c_prev: Tensor,
    wx: Tensor,
    wh: Tensor,
    b: Tensor,
) -> tuple[Tensor, Tensor]:
    """One LSTM step: sigmoid input/forget/output gates, tanh candidate, no peepholes.

    Gate blocks in ``wx``/``wh``/``b`` are ordered [input, forget, candidate,
    output]; the forget block of ``b`` is the one initialised to 1.
    """
    e = x.shape[0]
    hd = h_prev.shape[0]
    if wx.shape != (e, 4 * hd) or wh.shape != (hd, 4 * hd) or b.shape != (4 * hd,):
        raise ValueError(
            f"lstm_cell parameter shapes disagree with x {x.shape}, h {h_prev.shape}: "
            f"wx {wx.shape}, wh {wh.shape}, b {b.shape}"
        )
    z = x.values @ wx.values + h_prev.values @ wh.values + b.values
    i = _sigmoid(z[:hd])
    f = _sigmoid(z[hd : 2 * hd])
    g = np.tanh(z[2 * hd : 3 * hd])
    o = _sigmoid(z[3 * hd :])
    c_new = f * c_prev.values + i * g
    tc = np.tanh(c_new)
    h_out = Tensor(o * tc)
    c_out = Tensor(c_new)

    def backward() -> None:
        dh = h_out.grad
        dc = c_out.grad + dh * o * (1.0 - tc * tc)
        dz = np.concatenate(
            [
                dc * g * i * (1.0 - i),
                dc * c_prev.values * f * (1.0 - f),
                dc * i * (1.0 - g * g),
                dh * tc * o * (1.0 - o),
            ]
        )
        c_prev.grad += dc * f
        x.grad += wx.values @ dz
        h_prev.grad += wh.values @ dz
        wx.grad += np.outer(x.values, dz)
        wh.grad += np.outer(h_prev.values, dz)
        b.grad += dz

    _record(backward)
    return h_out, c_out


def _block_diagonal(wh_fwd: np.ndarray, wh_bwd: np.ndarray, scale) -> np.ndarray:
    """The (2h, 8h) recurrent weight of both directions in the gate layout
    of ``lstm_sequence``, each gate block times its entry of ``scale``: the
    state [h_fwd h_bwd] times it gives each direction's gates from its own
    state only."""
    hd = wh_fwd.shape[0]
    out = np.zeros((2, hd, 4, 2, hd))
    np.multiply(wh_fwd.reshape(hd, 4, hd), scale, out=out[0, :, :, 0])
    np.multiply(wh_bwd.reshape(hd, 4, hd), scale, out=out[1, :, :, 1])
    return out.reshape(2 * hd, 8 * hd)


def lstm_sequence(table: Tensor, ids, fwd: Sequence[Tensor], bwd: Sequence[Tensor], lengths=None) -> Tensor:
    """Both directions of a BiLSTM over every row of a packed batch of
    token-table rows, from zero states, as one tape node; returns the
    (N, 2h) hidden states by packed position, the forward direction's h
    columns first.

    The input is the one ``conv_relu_max`` takes: a (D, e) table of token
    vectors and a flat array of N packed row ids, row b the next
    ``lengths[b]`` ids (one row of all N when lengths is None); position p
    reads ``table[ids[p]]``. ``fwd`` and ``bwd`` are the directions'
    ``(wx, wh, b)`` triples, of shapes (e, 4h), (h, 4h) and (4h,), their
    gate blocks ordered [input, forget, candidate, output] as in
    ``lstm_cell``. The forward direction runs each row from its first
    position, the backward one from its last.

    The two directions run as one LSTM of hidden size 2h, as cuDNN's
    bidirectional mode does (Appleyard et al. 2016, arXiv:1604.01946). Its
    state row is [h_fwd h_bwd], its gate columns are interleaved by gate,
    [i_fwd i_bwd | f_fwd f_bwd | g_fwd g_bwd | o_fwd o_bwd], and its
    recurrent weight is the block-diagonal (2h, 8h) matrix of the two
    ``wh``, so neither direction reads the other's state. The steps run by
    the schedule of ``_time_major``: step t is one (b_t, 2h) @ (2h, 8h)
    product over the b_t rows still running, with no padding and no
    masking, and its slot p reads packed position ``index[p]`` in the
    forward direction and ``reverse[p]`` in the backward one. Off a tape
    the node is its forward alone, as ``conv_relu_max`` is, and a lone row
    runs its positions by a slice; a taped call always runs the schedule.

    The input projection does not depend on the step, so it is lifted out
    of the recurrence (Appleyard et al. 2016) and made once per table row,
    not once per position: one (D, e) @ (e, 4h) product per direction, whose
    rows each slot reads through ``ids``, as a network's hidden layer is
    pre-computed per vocabulary item in Devlin et al. 2014 ("Fast and
    Robust Neural Network Joint Models for SMT"). The hand-written BPTT
    writes the gate gradients of every step over the gate activations as it
    consumes them, puts each direction's in packed-position order, and sums
    them by id (``_sum_by_id``) into a (D, 4h) matrix, from which that
    direction's share of the table gradient and its ``wx`` gradient are one
    product each; its ``wh`` gradient is one product over the N positions.
    The saving grows with the share of positions that repeat a table row:
    73 % in a ten-utterance tagger training batch of the synthetic corpus,
    where it raised training throughput by about a sixth (README, design
    notes), and 18 % in a decoded utterance.
    """
    tv = table.values
    if tv.ndim != 2:
        raise ValueError(f"lstm_sequence needs a (rows, e) token table, got {table.shape}")
    d, e = tv.shape
    idx = _row_ids(ids, d, "lstm_sequence", "packed ids")
    n = idx.size
    hd = fwd[1].shape[0]
    for name, (wx, wh, b) in (("fwd", fwd), ("bwd", bwd)):
        if wx.shape != (e, 4 * hd) or wh.shape != (hd, 4 * hd) or b.shape != (4 * hd,):
            raise ValueError(
                f"lstm_sequence {name} parameter shapes disagree with table {table.shape} and hidden size {hd}: "
                f"wx {wx.shape}, wh {wh.shape}, b {b.shape}"
            )
    taping = bool(_TAPES)
    lone = not taping and (lengths is None or len(lengths) == 1)
    if lone:
        # one row off a tape: its steps are its positions, and slices order them
        _packed_rows(lengths, n)
        index, reverse, rows = slice(None), slice(None, None, -1), 1
    else:
        index, reverse, bounds, _, previous = _time_major(lengths, n)
        rows = int(bounds[1])
        # (first slot, end slot, first state row it starts from) of each step
        spans = list(zip(bounds[:-1].tolist(), bounds[1:].tolist(), [0] + (rows + bounds[:-2]).tolist()))
    width = 2 * hd  # of the joint state
    # Every array below is indexed by slot, i.e. in the order the steps run.
    # The gates use sigmoid(z) = tanh(z / 2) / 2 + 1/2, so one tanh over the
    # whole gate vector serves all four gates. Halving is exact in floating
    # point, so it is folded into the input projections and the recurrent
    # weight ahead of the loop.
    block_scale = np.array([[0.5], [0.5], [1.0], [0.5]])  # the candidate gate is a plain tanh
    scale = np.repeat(block_scale, width)
    offset = 1.0 - scale
    xz = np.empty((n, 4, 2, hd))
    for k, ((wx, _, b), slots) in enumerate(((fwd, index), (bwd, reverse))):
        projected = tv @ wx.values
        projected += b.values
        projected = projected.reshape(d, 4, hd)
        projected *= block_scale
        xz[:, :, k] = projected[idx[slots]]  # the table row each slot reads
    xz = xz.reshape(n, 4 * width)
    wh_scaled = _block_diagonal(fwd[1].values, bwd[1].values, block_scale)
    gates = np.empty((n, 4 * width))  # sigmoid of input/forget/output, tanh of candidate
    # rows of zero initial states, then the state after each slot: slot p
    # leaves its state in row rows + p
    h_all = np.zeros((rows + n, width))
    c_all = np.zeros((rows + n, width))
    tc_all = np.empty((n, width))  # tanh of the new cell state
    # a step's arrays are rows of these for a lone row, blocks of rows otherwise
    lead = () if lone else (slice(None),)
    in_cols, forget_cols, cand_cols, out_cols = (lead + (slice(k * width, (k + 1) * width),) for k in range(4))
    if lone:
        steps = zip(gates, xz, h_all, h_all[1:], c_all, c_all[1:], tc_all)
    else:
        steps = (
            (gates[lo:hi], xz[lo:hi], h_all[prev : prev + hi - lo], h_all[rows + lo : rows + hi],
             c_all[prev : prev + hi - lo], c_all[rows + lo : rows + hi], tc_all[lo:hi])
            for lo, hi, prev in spans
        )
    for act, xz_t, h_prev, h_new, c_prev, c_new, tc in steps:
        np.dot(h_prev, wh_scaled, out=act)
        act += xz_t
        np.tanh(act, out=act)
        act *= scale
        act += offset
        np.multiply(act[forget_cols], c_prev, out=c_new)
        c_new += act[in_cols] * act[cand_cols]
        np.tanh(c_new, out=tc)
        np.multiply(act[out_cols], tc, out=h_new)
    out_values = np.empty((n, width))
    out_values[index, :hd] = h_all[rows:, :hd]
    out_values[reverse, hd:] = h_all[rows:, hd:]
    out = Tensor(out_values)
    if not taping:
        return out

    def backward() -> None:
        # the state row each slot starts from: zero row r at step 0, else
        # the state its row left one step earlier
        prev = np.concatenate((np.arange(rows), rows + previous))
        i, f, g, o = (gates[:, k * width : (k + 1) * width] for k in range(4))
        # dz of slot p is [dc*gate_scale[p, 0:3], dh*out_scale[p]] block by block
        gate_scale = np.stack(
            [g * i * (1.0 - i), c_all[prev] * f * (1.0 - f), i * (1.0 - g * g)], axis=1
        )
        out_scale = tc_all * o * (1.0 - o)
        cell_scale = o * (1.0 - tc_all * tc_all)
        dh_out = np.empty((n, width))
        dh_out[:, :hd] = out.grad[index, :hd]
        dh_out[:, hd:] = out.grad[reverse, hd:]
        dz = gates  # each step's gate gradients overwrite its gates once read
        dz_blocks = dz.reshape(n, 4, width)
        wh_t = np.ascontiguousarray(_block_diagonal(fwd[1].values, bwd[1].values, 1.0).T)
        # the gradients reaching each row's previous state; going backwards,
        # a row that has not started yet keeps zeros
        dh_next = np.zeros((rows, width))
        dc_next = np.zeros((rows, width))
        views = [
            (dz[lo:hi], dz_blocks[lo:hi], dh_out[lo:hi], cell_scale[lo:hi], gate_scale[lo:hi],
             out_scale[lo:hi], f[lo:hi], dh_next[: hi - lo], dc_next[: hi - lo])
            for lo, hi, _ in spans
        ]
        for dz_t, dz_t_blocks, dh_t, cell_t, gate_t, out_t, f_t, dh_prev, dc_prev in reversed(views):
            dh = dh_t + dh_prev
            dc = dh * cell_t
            dc += dc_prev
            np.multiply(dc, f_t, out=dc_prev)  # before dz_t overwrites f_t
            np.multiply(dc[:, None], gate_t, out=dz_t_blocks[:, :3])
            np.multiply(dh, out_t, out=dz_t_blocks[:, 3])
            np.dot(dz_t, wh_t, out=dh_prev)
        # free the step inputs before the gradient products below
        del views, gate_scale, out_scale, cell_scale, dh_out, dh_t, cell_t, gate_t, out_t
        # each direction's gate gradients and previous states by packed
        # position, then its gate gradients summed by table row
        dz_pos = np.empty((n, 4, hd))
        h_pos = np.empty((n, hd))
        for k, ((wx, wh, b), slots) in enumerate(((fwd, index), (bwd, reverse))):
            dz_pos[slots] = dz.reshape(n, 4, 2, hd)[:, :, k]
            h_pos[slots] = h_all[prev, k * hd : (k + 1) * hd]
            dzk = dz_pos.reshape(n, 4 * hd)
            wh.grad += h_pos.T @ dzk
            keys, dz_rows = _sum_by_id(idx, dzk)
            table.grad[keys] += dz_rows @ wx.values.T
            wx.grad += tv[keys].T @ dz_rows
            b.grad += dz_rows.sum(axis=0)

    _record(backward)
    return out


def softmax_cross_entropy(logits: Tensor, gold) -> Tensor:
    """Mean over the B rows of (B, c) logits of -log softmax(row b)[gold[b]],
    each by a shifted log-sum-exp. Gradient (softmax - onehot) / B."""
    v = logits.values
    if v.ndim != 2:
        raise ValueError(f"softmax_cross_entropy needs (B, c) logits, got {logits.shape}")
    bsz, c = v.shape
    golds = np.asarray(gold, dtype=np.intp)
    if golds.shape != (bsz,):
        raise ValueError(f"softmax_cross_entropy needs a flat array of {bsz} gold labels, got {gold!r}")
    if golds.min() < 0 or golds.max() >= c:
        raise ValueError(f"gold label {gold} out of range for {c} classes")
    rows = np.arange(bsz)
    m = v.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(v - m).sum(axis=1, keepdims=True))
    out = Tensor((lse[:, 0] - v[rows, golds]).sum() / bsz)
    probs = np.exp(v - lse)

    def backward() -> None:
        g = float(out.grad) / bsz
        dlogits = g * probs
        dlogits[rows, golds] -= g
        logits.grad += dlogits

    _record(backward)
    return out


def index_sum(t: Tensor, rows, cols) -> Tensor:
    """Sum of t[rows[k], cols[k]] over k; backward scatter-adds into those cells."""
    r = np.asarray(rows, dtype=np.intp)
    c = np.asarray(cols, dtype=np.intp)
    if r.shape != c.shape or r.ndim != 1:
        raise ValueError("index_sum needs matching flat row/col index lists")
    out = Tensor(t.values[r, c].sum())

    def backward() -> None:
        np.add.at(t.grad, (r, c), float(out.grad))

    _record(backward)
    return out


# ---------------------------------------------------------------------------
# verification and initialisation helpers
# ---------------------------------------------------------------------------


def grad_check(
    function: Callable[[], Tensor],
    inputs: Sequence[Tensor],
    epsilon: float = 1e-5,
) -> float:
    """Compare tape gradients against central finite differences.

    ``function`` must be a deterministic scalar-valued closure over ``inputs``.
    Returns max over all input elements of
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).
    """
    for t in inputs:
        t.zero_grad()
    with Tape() as tape:
        out = function()
    if out.values.size != 1:
        raise ValueError(f"grad_check needs a scalar-valued function, got shape {out.shape}")
    tape.backward(out)
    analytic = [t.grad.copy() for t in inputs]

    worst = 0.0
    for t, ana in zip(inputs, analytic):
        flat = t.values.reshape(-1)
        ana_flat = ana.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + epsilon
            up = function().item()
            flat[k] = orig - epsilon
            down = function().item()
            flat[k] = orig
            numeric = (up - down) / (2.0 * epsilon)
            denom = max(abs(ana_flat[k]), abs(numeric), 1e-8)
            worst = max(worst, abs(ana_flat[k] - numeric) / denom)
    return worst


def glorot_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int) -> Tensor:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-bound, bound, size=shape))


def uniform_init(rng: np.random.Generator, shape: tuple[int, ...], bound: float) -> Tensor:
    return Tensor(rng.uniform(-bound, bound, size=shape))
