"""Token representation: word-embedding tables, character CNN, BiLSTM context.

``TokenEncoder.encode`` embeds each distinct spelling once: it returns a
table of one token vector per distinct spelling (word-table rows, then the
char-CNN row) and the row of each position, and ``BiLstm.encode`` reads
that table by those ids inside its one ``lstm_sequence`` node, as
``conv_relu_max`` reads an embedding table. So the word lookups, the
char-CNN and the BiLSTM's input projection all run once per distinct
token: about 47 rows for the 175 positions of a ten-utterance training
batch of the synthetic corpus, and 14 for the 17 of a decoded utterance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .data import Vocabulary
from .tensor import (
    Tensor,
    concat,
    conv_relu_max,
    gather_rows,
    glorot_uniform,
    lstm_sequence,
    uniform_init,
)

__all__ = ["EncoderConfig", "TokenEncoder", "BiLstm"]

EMBEDDING_INIT_BOUND = 0.25


@dataclass
class EncoderConfig:
    """Sizes for the shared token representation.

    ``word_embedding_dims`` holds one entry per word table; the tables'
    rows are concatenated.
    """

    word_embedding_dims: list[int] = field(default_factory=lambda: [100])
    char_embedding_dim: int = 30
    char_filters: int = 30
    char_filter_width: int = 3
    lstm_hidden: int = 32

    def __post_init__(self) -> None:
        dims = list(self.word_embedding_dims)
        if not dims or min(dims) < 1:
            raise ValueError("word_embedding_dims needs at least one positive entry")
        for name in ("char_embedding_dim", "char_filters", "char_filter_width", "lstm_hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        self.word_embedding_dims = dims

    @property
    def token_dim(self) -> int:
        return sum(self.word_embedding_dims) + self.char_filters


class TokenEncoder:
    """Embeds tokens as word-table lookups concatenated with a char-CNN vector.

    Word lookup is case-insensitive; the character path sees the original
    spelling, so casing stays visible as a subword cue.
    """

    def __init__(
        self,
        word_vocab: Vocabulary,
        char_vocab: Vocabulary,
        config: EncoderConfig,
        rng: np.random.Generator,
    ) -> None:
        self.word_vocab = word_vocab
        self.char_vocab = char_vocab
        self.config = config
        self.word_tables = [
            uniform_init(rng, (len(word_vocab), dim), EMBEDDING_INIT_BOUND)
            for dim in config.word_embedding_dims
        ]
        self.char_table = uniform_init(
            rng, (len(char_vocab), config.char_embedding_dim), EMBEDDING_INIT_BOUND
        )
        w, ce, f = config.char_filter_width, config.char_embedding_dim, config.char_filters
        self.char_conv_filters = glorot_uniform(rng, (w, ce, f), fan_in=w * ce, fan_out=f)
        self.char_conv_bias = Tensor(np.zeros(f))

    def parameters(self) -> dict[str, Tensor]:
        params = {f"word_table_{i}": t for i, t in enumerate(self.word_tables)}
        params["char_table"] = self.char_table
        params["char_conv_filters"] = self.char_conv_filters
        params["char_conv_bias"] = self.char_conv_bias
        return params

    def char_cnn(self, tokens: list[str]) -> Tensor:
        """(len(tokens), char_filters) matrix: for each token, convolve the
        filters over its character embeddings, ReLU, then take the per-filter
        maximum over its positions. All tokens run as one ``conv_relu_max``
        node, their character ids packed end to end and read from the char
        table inside it, so each distinct character is convolved once."""
        if any(not t for t in tokens):
            raise ValueError("cannot embed an empty token")
        return conv_relu_max(
            self.char_table, self.char_vocab.encode("".join(tokens)),
            [self.char_conv_filters], [self.char_conv_bias], [len(t) for t in tokens],
        )

    def embed(self, spellings: list[str], extra: Sequence[Tensor] = ()) -> Tensor:
        """(len(spellings), token_dim + the widths of ``extra``) table: each
        spelling's word-table rows, then its char-CNN row, then its row of
        each ``extra`` matrix, joined by one ``concat``."""
        if not spellings:
            raise ValueError("cannot encode an empty utterance")
        word_ids = self.word_vocab.encode([t.lower() for t in spellings])
        word_parts = [gather_rows(table, word_ids) for table in self.word_tables]
        return concat(word_parts + [self.char_cnn(spellings), *extra])

    def encode(self, tokens: list[str]) -> tuple[Tensor, np.ndarray]:
        """``(table, ids)``: a table of one token vector per distinct
        spelling, in order of first occurrence, and each position's row of
        it, the input ``BiLstm.encode`` takes."""
        distinct = {t: row for row, t in enumerate(dict.fromkeys(tokens))}
        return self.embed(list(distinct)), np.array([distinct[t] for t in tokens], dtype=np.intp)


class _LstmDirection:
    def __init__(self, input_dim: int, hidden: int, rng: np.random.Generator) -> None:
        self.wx = glorot_uniform(rng, (input_dim, 4 * hidden), fan_in=input_dim, fan_out=4 * hidden)
        self.wh = glorot_uniform(rng, (hidden, 4 * hidden), fan_in=hidden, fan_out=4 * hidden)
        bias = np.zeros(4 * hidden)
        bias[hidden : 2 * hidden] = 1.0  # open the forget gate at the start of training
        self.b = Tensor(bias)


class BiLstm:
    """Forward and backward LSTM over a sequence, outputs concatenated per position."""

    def __init__(self, input_dim: int, hidden: int, rng: np.random.Generator) -> None:
        self.input_dim = input_dim
        self.hidden = hidden
        self.fwd = _LstmDirection(input_dim, hidden, rng)
        self.bwd = _LstmDirection(input_dim, hidden, rng)

    def parameters(self) -> dict[str, Tensor]:
        return {
            "fwd_wx": self.fwd.wx, "fwd_wh": self.fwd.wh, "fwd_b": self.fwd.b,
            "bwd_wx": self.bwd.wx, "bwd_wh": self.bwd.wh, "bwd_b": self.bwd.b,
        }

    def encode(self, table: Tensor, ids, lengths=None) -> Tensor:
        """(N, 2*hidden) states of a packed batch of token-table rows:
        position p reads ``table[ids[p]]``, and row b is the next
        ``lengths[b]`` positions (one row of all N when lengths is None).
        Both directions start every row from zero states and run as one
        ``lstm_sequence`` node over the whole batch, whose output already
        holds each position's forward state before its backward one."""
        if table.values.ndim != 2 or table.shape[1] != self.input_dim:
            raise ValueError(f"token table shape {table.shape} does not match encoder input dim {self.input_dim}")
        fwd, bwd = self.fwd, self.bwd
        return lstm_sequence(table, ids, (fwd.wx, fwd.wh, fwd.b), (bwd.wx, bwd.wh, bwd.b), lengths)
