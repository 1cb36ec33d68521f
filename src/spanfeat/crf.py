"""Linear-chain CRF: log-partition, gold-path score, constrained Viterbi.

Scores live in log space throughout. Transition constraints are applied by
masking forbidden entries to -inf, so no emission score, however large, can
make an illegal path win or count. Log-sum-exp treats a column that is -inf
throughout (a tag no legal path reaches at that position) as exactly -inf,
and the backward pass gives it exactly zero weight, so values and gradients
stay finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, _record, add, index_sum, sub

__all__ = [
    "NEG_INF",
    "CrfParams",
    "ConstraintMask",
    "build_iobes_constraints",
    "log_partition",
    "gold_score",
    "crf_nll",
    "viterbi",
]

NEG_INF = -np.inf


class CrfParams:
    """Transition scores over K tags plus synthetic start/end states.

    Row = source tag, column = target tag. The last two indices are the
    start and end states; emissions never score them.
    """

    def __init__(self, num_tags: int) -> None:
        if num_tags < 1:
            raise ValueError("CRF needs at least one tag")
        self.num_tags = num_tags
        self.start_index = num_tags
        self.end_index = num_tags + 1
        self.transitions = Tensor(np.zeros((num_tags + 2, num_tags + 2)))


@dataclass(frozen=True)
class ConstraintMask:
    """Boolean matrix of permitted transitions, aligned with CrfParams rows/cols."""

    allowed: np.ndarray

    def __post_init__(self) -> None:
        a = self.allowed
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.dtype != np.bool_:
            raise ValueError("constraint mask must be a square boolean matrix")

    @property
    def num_tags(self) -> int:
        return self.allowed.shape[0] - 2

    def is_legal(self, tag_ids: list[int]) -> bool:
        start, end = self.num_tags, self.num_tags + 1
        path = [start] + list(tag_ids) + [end]
        return all(self.allowed[a, b] for a, b in zip(path, path[1:]))


def build_iobes_constraints(tags: list[str]) -> ConstraintMask:
    """Permitted-transition matrix for an IOBES tag list (O plus B/I/E/S per label).

    Inside a span the label may not change; spans may only begin at B or S and
    only end at E or S; the start state behaves like O for outgoing edges, the
    end state like O for incoming ones.
    """
    kinds: list[tuple[str, str | None]] = []
    for tag in tags:
        if tag == "O":
            kinds.append(("O", None))
        elif len(tag) > 2 and tag[1] == "-" and tag[0] in "BIES":
            kinds.append((tag[0], tag[2:]))
        else:
            raise ValueError(f"not an IOBES tag: {tag!r}")

    k = len(tags)
    start, end = k, k + 1
    allowed = np.zeros((k + 2, k + 2), dtype=bool)

    def may_follow(src: tuple[str, str | None], dst: tuple[str, str | None]) -> bool:
        sp, sl = src
        dp, dl = dst
        if sp in ("O", "START"):
            return dp in ("O", "B", "S") or dp == "END"
        if sp in ("B", "I"):
            return dp in ("I", "E") and dl == sl
        if sp in ("E", "S"):
            return dp in ("O", "B", "S") or dp == "END"
        raise AssertionError(sp)

    for i, src in enumerate(kinds):
        for j, dst in enumerate(kinds):
            allowed[i, j] = may_follow(src, dst)
        allowed[i, end] = may_follow(src, ("END", None))
        allowed[start, i] = may_follow(("START", None), kinds[i])
    return ConstraintMask(allowed=allowed)


def _masked_transitions(params: CrfParams, constraints: ConstraintMask | None) -> np.ndarray:
    t = params.transitions.values
    if constraints is None:
        return t
    if constraints.allowed.shape != t.shape:
        raise ValueError(
            f"constraint mask shape {constraints.allowed.shape} "
            f"does not match transitions {t.shape}"
        )
    return np.where(constraints.allowed, t, NEG_INF)


# Stands in for a column maximum of -inf: that column's shifted scores stay
# -inf, exp gives 0, and the log gives exactly -inf.
_LOWEST = np.finfo(np.float64).min


def _logsumexp(scores: np.ndarray) -> np.ndarray:
    """log(sum(exp(scores))) over axis 0; exactly -inf where every entry is -inf."""
    m = np.maximum(scores.max(axis=0), _LOWEST)
    with np.errstate(divide="ignore"):
        return m + np.log(np.exp(scores - m).sum(axis=0))


def log_partition(
    emissions: Tensor,
    params: CrfParams,
    constraints: ConstraintMask | None = None,
) -> Tensor:
    """Log of the summed exp-score over all (permitted) tag sequences.

    Forward recursion over per-position alphas; the backward pass replays the
    recursion with per-step softmax weights, so this whole routine is one tape
    node.
    """
    if emissions.values.ndim != 2:
        raise ValueError(f"emissions must be (positions, tags), got {emissions.shape}")
    n, k = emissions.shape
    if k != params.num_tags:
        raise ValueError(f"emissions have {k} tags but CRF has {params.num_tags}")
    start, end = params.start_index, params.end_index
    masked = _masked_transitions(params, constraints)
    em = emissions.values

    alphas = np.empty((n, k))
    pres = np.empty((n, k))  # alpha before adding the emission row
    pres[0] = masked[start, :k]
    alphas[0] = pres[0] + em[0]
    for t in range(1, n):
        pres[t] = _logsumexp(alphas[t - 1][:, None] + masked[:k, :k])
        alphas[t] = pres[t] + em[t]
    final = alphas[n - 1] + masked[:k, end]
    logz = float(_logsumexp(final))
    out = Tensor(logz)
    # unreachable tags have pres == -inf and zero weight; shifting them by 0
    # keeps their weights exp(-inf) = 0 rather than exp(nan)
    shift = np.where(np.isfinite(pres), pres, 0.0)

    def backward() -> None:
        g = float(out.grad)
        dtrans = np.zeros_like(masked)
        dem = np.zeros_like(em)
        dalpha = g * np.exp(final - logz)
        dtrans[:k, end] += dalpha
        for t in range(n - 1, 0, -1):
            dem[t] += dalpha
            weights = np.exp(alphas[t - 1][:, None] + masked[:k, :k] - shift[t][None, :])
            contrib = weights * dalpha[None, :]
            dtrans[:k, :k] += contrib
            dalpha = contrib.sum(axis=1)
        dem[0] += dalpha
        dtrans[start, :k] += dalpha
        if constraints is not None:
            dtrans[~constraints.allowed] = 0.0
        params.transitions.grad += dtrans
        emissions.grad += dem

    _record(backward)
    return out


def gold_score(emissions: Tensor, params: CrfParams, tag_ids: list[int]) -> Tensor:
    """Path score of one tag sequence: its emissions plus its transitions."""
    n, k = emissions.shape
    if len(tag_ids) != n:
        raise ValueError(f"{len(tag_ids)} tags for {n} positions")
    if any(not 0 <= t < k for t in tag_ids):
        raise ValueError(f"tag id out of range for {k} tags: {tag_ids}")
    em_part = index_sum(emissions, list(range(n)), tag_ids)
    rows = [params.start_index] + list(tag_ids)
    cols = list(tag_ids) + [params.end_index]
    tr_part = index_sum(params.transitions, rows, cols)
    return add(em_part, tr_part)


def crf_nll(
    emissions: Tensor,
    params: CrfParams,
    tag_ids: list[int],
    constraints: ConstraintMask | None = None,
) -> Tensor:
    """Negative log-likelihood of the gold path: log Z minus the gold score."""
    if constraints is not None and not constraints.is_legal(tag_ids):
        raise ValueError(f"gold tag sequence violates the transition constraints: {tag_ids}")
    return sub(log_partition(emissions, params, constraints), gold_score(emissions, params, tag_ids))


def viterbi(
    emissions: np.ndarray,
    params: CrfParams,
    constraints: ConstraintMask | None = None,
) -> list[int]:
    """Highest-scoring tag sequence; score ties go to the lowest tag index.

    With constraints, each argmax runs over legal predecessors only: the
    -inf mask leaves an illegal one below every legal score.
    """
    em = np.asarray(emissions, dtype=np.float64)
    if em.ndim != 2:
        raise ValueError(f"emissions must be (positions, tags), got {em.shape}")
    n, k = em.shape
    if k != params.num_tags:
        raise ValueError(f"emissions have {k} tags but CRF has {params.num_tags}")
    start, end = params.start_index, params.end_index
    masked = _masked_transitions(params, constraints)

    best = masked[start, :k] + em[0]
    back = np.empty((n, k), dtype=np.intp)
    for t in range(1, n):
        scores = best[:, None] + masked[:k, :k]
        back[t] = scores.argmax(axis=0)
        best = scores[back[t], np.arange(k)] + em[t]
    final = best + masked[:k, end]
    tag = int(final.argmax())
    path = [tag]
    for t in range(n - 1, 0, -1):
        tag = int(back[t, tag])
        path.append(tag)
    path.reverse()
    return path
