"""Computations made apart from the program, and the checks that use them.

Nothing here calls spanfeat code: the forward passes, the CRF enumeration,
Viterbi and the IOBES rules are written from the method's definition in plain
numpy. They read only the parameter arrays, vocabularies and tag strings of a
model. Each ``check_*`` function returns a list of problems, empty when the
output is right.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# The six feature dimensions and their values, as the corpus format defines them.
FEATURE_VALUES = {
    "communicative_function": ("inform", "issue", "request-action", "request-confirm", "request-info"),
    "attr_cf": ("self", "other"),
    "attr_ev": ("self", "other"),
    "negation": ("positive", "negative"),
    "tense": ("past", "present", "future"),
    "modality": ("modal-poss", "modal-try", "other"),
}

UNK = 1  # vocabulary index of unknown tokens
LOGIT_TOLERANCE = 1e-9
CRF_TOLERANCE = 1e-9


# ---------------------------------------------------------------------------
# IOBES rules, from the tag strings
# ---------------------------------------------------------------------------


def _split(tag: str) -> tuple[str, str | None]:
    if tag == "O":
        return "O", None
    if len(tag) > 2 and tag[1] == "-" and tag[0] in "BIES":
        return tag[0], tag[2:]
    raise ValueError(f"not an IOBES tag: {tag!r}")


def may_follow(prev: str | None, tag: str | None) -> bool:
    """May ``tag`` follow ``prev``? None stands for the start (prev) or end (tag)."""
    pk, pl = ("O", None) if prev is None else _split(prev)
    if tag is None:
        return pk in ("O", "E", "S")
    tk, tl = _split(tag)
    if pk in ("B", "I"):
        return tk in ("I", "E") and tl == pl
    return tk in ("O", "B", "S")


def iobes_legal(tags) -> bool:
    path = [None, *tags, None]
    return all(may_follow(a, b) for a, b in zip(path[:-1], path[1:]))


def legal_matrix(tags) -> np.ndarray:
    """(K+2, K+2) permitted transitions; rows/cols K and K+1 are start and end."""
    k = len(tags)
    allowed = np.zeros((k + 2, k + 2), dtype=bool)
    for i, a in enumerate(tags):
        for j, b in enumerate(tags):
            allowed[i, j] = may_follow(a, b)
        allowed[k, i] = may_follow(None, a)
        allowed[i, k + 1] = may_follow(a, None)
    return allowed


def spans_from_tags(tags) -> list[tuple[int, int, str]]:
    """(start, end, label) of each span in a legal tag sequence."""
    spans, start = [], None
    for i, tag in enumerate(tags):
        kind, label = _split(tag)
        if kind == "S":
            spans.append((i, i + 1, label))
        elif kind == "B":
            start = i
        elif kind == "E":
            spans.append((start, i + 1, label))
    return spans


def gold_tags(length: int, spans) -> list[str]:
    """IOBES tags of (start, end, label) spans."""
    tags = ["O"] * length
    for start, end, label in spans:
        if end - start == 1:
            tags[start] = f"S-{label}"
        else:
            tags[start] = f"B-{label}"
            tags[start + 1 : end - 1] = [f"I-{label}"] * (end - start - 2)
            tags[end - 1] = f"E-{label}"
    return tags


# ---------------------------------------------------------------------------
# linear-chain CRF by enumeration and by Viterbi
# ---------------------------------------------------------------------------


def _logsumexp(x: np.ndarray) -> float:
    m = x.max()
    return float(m + np.log(np.exp(x - m).sum()))


def path_scores(emissions: np.ndarray, transitions: np.ndarray) -> np.ndarray:
    """Score of every tag path, as an array with one axis per position."""
    n, k = emissions.shape
    start, end = k, k + 1
    scores = transitions[start, :k] + emissions[0]
    for t in range(1, n):
        scores = scores[..., None] + transitions[:k, :k] + emissions[t]
    return scores + transitions[:k, end]


def path_legality(tags, n: int) -> np.ndarray:
    """Boolean array over all paths of length n: is the path IOBES-legal?"""
    k = len(tags)
    allowed = legal_matrix(tags)
    legal = allowed[k, :k]
    for _ in range(1, n):
        legal = legal[..., None] & allowed[:k, :k]
    return legal & allowed[:k, k + 1]


def enumerate_crf(emissions, transitions, tags, gold_ids):
    """(unconstrained NLL of the gold path, constrained log Z, best legal path)."""
    scores = path_scores(emissions, transitions)
    legal = path_legality(tags, emissions.shape[0])
    gold = scores[tuple(gold_ids)]
    best = np.unravel_index(np.where(legal, scores, -np.inf).argmax(), scores.shape)
    return _logsumexp(scores) - gold, _logsumexp(scores[legal]), [int(i) for i in best]


def viterbi(emissions: np.ndarray, transitions: np.ndarray, tags) -> list[int]:
    """Best IOBES-legal path; illegal transitions are excluded outright."""
    n, k = emissions.shape
    masked = np.where(legal_matrix(tags), transitions, -np.inf)
    best = masked[k, :k] + emissions[0]
    back = np.zeros((n, k), dtype=int)
    for t in range(1, n):
        scores = best[:, None] + masked[:k, :k]
        back[t] = scores.argmax(axis=0)
        best = scores.max(axis=0) + emissions[t]
    path = [int((best + masked[:k, k + 1]).argmax())]
    for t in range(n - 1, 0, -1):
        path.append(int(back[t, path[-1]]))
    return path[::-1]


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------


def conv_same(seq: np.ndarray, filters: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Zero-padded 1-D convolution keeping length n; an even width pads one more on the left."""
    w = filters.shape[0]
    left = w // 2
    padded = np.pad(seq, ((left, w - 1 - left), (0, 0)))
    windows = sliding_window_view(padded, w, axis=0)  # (n, e, w)
    return np.einsum("new,wef->nf", windows, filters) + bias


def conv_pool(matrix: np.ndarray, params: dict, prefix: str, widths) -> np.ndarray:
    """Parallel widths, ReLU, max over positions, concatenated by width."""
    pooled = []
    for w in widths:
        response = conv_same(matrix, params[f"{prefix}.width{w}.filters"], params[f"{prefix}.width{w}.bias"])
        pooled.append(np.maximum(response, 0.0).max(axis=0))
    return np.concatenate(pooled)


def _ids(vocab: dict, tokens) -> list[int]:
    return [vocab.get(t, UNK) for t in tokens]


def global_local_logits(params: dict, vocab: dict, widths, tokens, mask) -> np.ndarray:
    """Global-local classifier with a shared embedding: pool the utterance, pool the span, project."""
    emb = params["embedding"][_ids(vocab, [t.lower() for t in tokens])]
    span = emb[[i for i, bit in enumerate(mask) if bit]]
    joint = np.concatenate([conv_pool(emb, params, "global_pool", widths), conv_pool(span, params, "local_pool", widths)])
    return joint @ params["projection.weight"] + params["projection.bias"]


def span_cnn_logits(params: dict, vocab: dict, widths, tokens, mask) -> np.ndarray:
    """Span-only CNN: embed the span tokens, pool, project."""
    span = [t.lower() for t, bit in zip(tokens, mask) if bit]
    pooled = conv_pool(params["embedding"][_ids(vocab, span)], params, "pool", widths)
    return pooled @ params["projection.weight"] + params["projection.bias"]


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _lstm(xs: np.ndarray, wx, wh, b) -> np.ndarray:
    hidden = wh.shape[0]
    h, c = np.zeros(hidden), np.zeros(hidden)
    out = []
    for x in xs:
        z = x @ wx + h @ wh + b
        i, f, g, o = (z[j * hidden : (j + 1) * hidden] for j in range(4))
        c = _sigmoid(f) * c + _sigmoid(i) * np.tanh(g)
        h = _sigmoid(o) * np.tanh(c)
        out.append(h)
    return np.array(out)


def tagger_emissions(params: dict, word_vocab: dict, char_vocab: dict, tokens) -> np.ndarray:
    """Word tables + char-CNN token vectors, BiLSTM, projection to tag scores."""
    words = _ids(word_vocab, [t.lower() for t in tokens])
    parts = []
    i = 0
    while f"encoder.word_table_{i}" in params:
        parts.append(params[f"encoder.word_table_{i}"][words])
        i += 1
    chars = []
    for token in tokens:
        emb = params["encoder.char_table"][_ids(char_vocab, token)]
        response = conv_same(emb, params["encoder.char_conv_filters"], params["encoder.char_conv_bias"])
        chars.append(np.maximum(response, 0.0).max(axis=0))
    x = np.concatenate(parts + [np.array(chars)], axis=1)
    fwd = _lstm(x, params["bilstm.fwd_wx"], params["bilstm.fwd_wh"], params["bilstm.fwd_b"])
    bwd = _lstm(x[::-1], params["bilstm.bwd_wx"], params["bilstm.bwd_wh"], params["bilstm.bwd_b"])[::-1]
    return np.concatenate([fwd, bwd], axis=1) @ params["projection.weight"] + params["projection.bias"]


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_logits(program: np.ndarray, reference: np.ndarray, what: str) -> list[str]:
    diff = float(np.max(np.abs(np.asarray(program) - reference)))
    if not diff <= LOGIT_TOLERANCE:
        return [f"{what}: logits differ from the reference by {diff:.3g}"]
    return []


def check_label(predicted: int, reference_logits: np.ndarray, what: str) -> list[str]:
    expected = int(np.argmax(reference_logits))
    if predicted != expected:
        return [f"{what}: predicted class {predicted}, reference argmax is {expected}"]
    return []


def check_crf_value(program: float, reference: float, what: str) -> list[str]:
    if not abs(program - reference) <= CRF_TOLERANCE:
        return [f"{what}: program {program!r} vs enumeration {reference!r}"]
    return []


def check_path(path, tags, what: str, reference=None) -> list[str]:
    """A decoded path must be IOBES-legal and, if given, equal the reference path."""
    problems = []
    names = [tags[i] for i in path]
    if not iobes_legal(names):
        problems.append(f"{what}: illegal tag path {names}")
    if reference is not None and list(path) != list(reference):
        problems.append(f"{what}: path {list(path)} differs from reference {list(reference)}")
    return problems


def check_features(features: dict, what: str) -> list[str]:
    if set(features) != set(FEATURE_VALUES):
        return [f"{what}: feature dimensions {sorted(features)}"]
    return [
        f"{what}: illegal value {value!r} for {dim}"
        for dim, value in features.items()
        if value not in FEATURE_VALUES[dim]
    ]


def accuracy_margin(ceiling: float, n: int) -> float:
    """Three binomial standard errors at the ceiling: the sampling error allowed."""
    return 3.0 * float(np.sqrt(ceiling * (1.0 - ceiling) / n))
