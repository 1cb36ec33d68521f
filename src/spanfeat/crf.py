"""Linear-chain CRF: log-partition, gold-path score, constrained Viterbi.

Transition constraints (for IOBES tags, the grammar ``data.may_follow``
states) are applied by masking forbidden entries to -inf, so no emission
score, however large, can make an illegal path win or count. Viterbi and
the gold score work in log space. Without constraints the log-partition
runs its forward-backward in scaled probability space:
each position's emissions are shifted by their largest entry and
exponentiated, and each step's alphas are renormalised, the logs of the
normalisers adding up to log Z. A guard sends any batch whose scaled
quantities could underflow or overflow to the log-space recursion, which
also takes every constrained batch. Its log-sum-exp treats a column that
is -inf throughout (a tag no legal path reaches at that position) as
exactly -inf and gives it exactly zero weight in the backward pass, so
values and gradients stay finite either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import _CLOSED, _split_tag, may_follow
from .tensor import Tensor, _check_labels, _packed_rows, _record, _time_major, add, index_sum, sub

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

    Each entry is ``data.may_follow`` of the two tags' parsed kinds, the
    start and end states being the closed kind O, so the mask and
    ``decode_iobes``'s repair count read one grammar. The start state never
    reaches the end state: a path has at least one tag.
    """
    kinds = [_split_tag(tag) for tag in tags]
    k = len(kinds)
    start, end = k, k + 1
    allowed = np.zeros((k + 2, k + 2), dtype=bool)
    for i, src in enumerate(kinds):
        for j, dst in enumerate(kinds):
            allowed[i, j] = may_follow(src, dst)
        allowed[i, end] = may_follow(src, _CLOSED)
        allowed[start, i] = may_follow(_CLOSED, src)
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


def _logsumexp(scores: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(scores))) over ``axis``; exactly -inf where every entry is -inf."""
    m = np.maximum(scores.max(axis=axis, keepdims=True), _LOWEST)
    with np.errstate(divide="ignore"):
        return np.squeeze(m, axis) + np.log(np.exp(scores - m).sum(axis=axis))


def _checked_emissions(emissions: np.ndarray, params: CrfParams) -> tuple[int, int]:
    if emissions.ndim != 2 or emissions.shape[0] < 1:
        raise ValueError(f"emissions must be a non-empty (positions, tags) matrix, got {emissions.shape}")
    n, k = emissions.shape
    if k != params.num_tags:
        raise ValueError(f"emissions have {k} tags but CRF has {params.num_tags}")
    return n, k


# The scaled recursion's guard. Transitions enter exp as they are, so a
# transition beyond this bound sends the batch to the log-space recursion:
# exp(transitions) then lies in [e^-600, e^600], where no product of a
# weight that underflows (below 2.2e-308) with a transition weight can
# carry measurable probability mass.
_MAX_TRANSITION = 600.0
# every unnormalised and normalised alpha, and every row's end sum, stays
# at or above this, so the terms a product loses to underflow are below
# 1e-26 of the sum they belong to
_FLOOR = 1e-280
_TINY = np.finfo(np.float64).tiny


def log_partition(
    emissions: Tensor,
    params: CrfParams,
    constraints: ConstraintMask | None = None,
    lengths=None,
) -> Tensor:
    """Log of the summed exp-score over all (permitted) tag sequences, summed
    over the rows of a packed batch.

    The rows are concatenated into one (N, k) matrix, packed as
    ``conv_relu_max`` packs its ids: row b is the next ``lengths[b]``
    positions (one row of all N when lengths is None). The recursion runs
    by the schedule of ``_time_major``, so step t works on the b_t rows
    still running, and this whole routine is one tape node.

    Without constraints the recursion runs in scaled probability space
    (Rabiner 1989, section V.A; Sutton and McCallum 2012, section 4.3).
    Each slot's emissions are shifted by their largest entry and
    exponentiated once for the batch. Step t is one (b_t, k) @ (k, k)
    product of the previous alphas with exp(transitions), a multiply by the
    emission weights and a renormalisation of each row; the logs of the
    normalisers, the shifts and the log of each row's end sum add up to
    log Z. The backward pass is the scaled beta recursion, one
    (b_t, k) @ (k, k) product per step: the emission gradient is
    alpha * beta, and the transition gradient is one (k, N) @ (N, k)
    product times exp(transitions).

    ``_log_space_partition``, the log-sum-exp recursion, takes every
    constrained batch, and every batch the guard refuses: one with a
    non-finite emission, a transition beyond +-600, an emission weight
    that is not a normal number, or an alpha, before or after
    renormalising, or an end sum below 1e-280. Within those bounds every
    quantity the scaled pass multiplies, forward and backward, is a finite
    normal number and the terms underflow drops are negligible, so the
    value and the gradients agree with the log-space recursion to rounding.
    """
    if constraints is not None:
        return _log_space_partition(emissions, params, constraints, lengths)
    n, k = _checked_emissions(emissions.values, params)
    start, end = params.start_index, params.end_index
    transitions = params.transitions.values
    index, _, bounds, last, previous = _time_major(lengths, n)
    em = emissions.values[index]  # by slot, i.e. in the order the steps run
    refused = not (
        np.isfinite(em).all()
        and np.all(np.abs(transitions[:end, :k]) <= _MAX_TRANSITION)
        and np.all(np.abs(transitions[:k, end]) <= _MAX_TRANSITION)
    )
    if not refused:
        shift = em.max(axis=1)
        weights = np.exp(em - shift[:, None])
        refused = not np.all(weights >= _TINY)
    if refused:
        return _log_space_partition(emissions, params, None, lengths)

    rows, steps = int(bounds[1]), bounds.size - 1
    trans = np.exp(transitions[:k, :k])
    ends = np.exp(transitions[:k, end])
    unnormed = np.empty((n, k))
    alphas = np.empty((n, k))
    norms = np.empty(n)
    spans = bounds.tolist()
    # a normaliser that underflows to 0 gives 0/0 here; the guard below refuses it
    with np.errstate(divide="ignore", invalid="ignore"):
        np.multiply(weights[:rows], np.exp(transitions[start, :k]), out=unnormed[:rows])
        for t in range(steps):
            lo, hi = spans[t], spans[t + 1]
            if t:
                before = spans[t - 1]
                np.matmul(alphas[before : before + hi - lo], trans, out=unnormed[lo:hi])
                unnormed[lo:hi] *= weights[lo:hi]
            np.add.reduce(unnormed[lo:hi], axis=1, out=norms[lo:hi])
            np.divide(unnormed[lo:hi], norms[lo:hi, None], out=alphas[lo:hi])
        totals = alphas[last] @ ends
    if not (np.all(unnormed >= _FLOOR * np.maximum(norms, 1.0)[:, None]) and np.all(totals >= _FLOOR)):
        return _log_space_partition(emissions, params, None, lengths)
    out = Tensor(float(np.log(norms).sum() + shift.sum() + np.log(totals).sum()))

    def backward() -> None:
        # alpha * beta is a marginal, at most 1, so with every alpha and
        # unnormalised alpha at or above 1e-280 no beta, beta / norm or
        # transition gradient can overflow
        g = float(out.grad)
        betas = np.empty((n, k))
        betas[last] = ends / totals[:, None]
        carried = np.empty((n, k))  # weight * beta / norm: what step t hands step t - 1
        for t in range(steps - 1, 0, -1):
            lo, hi, before = spans[t], spans[t + 1], spans[t - 1]
            np.divide(betas[lo:hi], norms[lo:hi, None], out=carried[lo:hi])
            carried[lo:hi] *= weights[lo:hi]
            np.matmul(carried[lo:hi], trans.T, out=betas[before : before + hi - lo])
        marginals = alphas * betas
        dtrans = np.zeros_like(transitions)
        dtrans[:k, :k] = g * trans * (alphas[previous].T @ carried[rows:])
        dtrans[start, :k] = g * marginals[:rows].sum(axis=0)
        dtrans[:k, end] = g * marginals[last].sum(axis=0)
        params.transitions.grad += dtrans
        emissions.grad[index] += g * marginals  # index is a permutation

    _record(backward)
    return out


def _log_space_partition(
    emissions: Tensor,
    params: CrfParams,
    constraints: ConstraintMask | None = None,
    lengths=None,
) -> Tensor:
    """``log_partition`` by log-sum-exp: the recursion for constrained
    batches and for those the scaled pass refuses.

    Step t is one (b_t, k, k) log-sum-exp over the b_t rows still running.
    The backward pass replays the recursion with per-step softmax weights,
    so this whole routine is one tape node. It runs by the batch's
    ``_time_major`` schedule, which it computes itself.
    """
    n, k = _checked_emissions(emissions.values, params)
    start, end = params.start_index, params.end_index
    masked = _masked_transitions(params, constraints)
    trans = masked[:k, :k]
    index, _, bounds, last, _ = _time_major(lengths, n)
    rows = int(bounds[1])
    em = emissions.values[index]  # by slot, i.e. in the order the steps run

    alphas = np.empty((n, k))
    pres = np.empty((n, k))  # alpha before adding the emission row
    pres[:rows] = masked[start, :k]
    alphas[:rows] = pres[:rows] + em[:rows]
    for before, lo, hi in zip(bounds[:-2], bounds[1:-1], bounds[2:]):
        pres[lo:hi] = _logsumexp(alphas[before : before + hi - lo, :, None] + trans, axis=1)
        alphas[lo:hi] = pres[lo:hi] + em[lo:hi]
    final = alphas[last] + masked[:k, end]
    logz = _logsumexp(final, axis=1)
    out = Tensor(float(logz.sum()))
    # unreachable tags have pres == -inf and zero weight; shifting them by 0
    # keeps their weights exp(-inf) = 0 rather than exp(nan)
    shift = np.where(np.isfinite(pres), pres, 0.0)

    def backward() -> None:
        g = float(out.grad)
        dtrans = np.zeros_like(masked)
        dfinal = g * np.exp(final - logz[:, None])
        dtrans[:k, end] += dfinal.sum(axis=0)
        # dem[p] is slot p's alpha gradient: its row's final gradient at the
        # row's last slot, else what the row's next step hands back
        dem = np.zeros_like(em)
        dem[last] = dfinal
        for before, lo, hi in reversed(list(zip(bounds[:-2], bounds[1:-1], bounds[2:]))):
            weights = np.exp(alphas[before : before + hi - lo, :, None] + trans - shift[lo:hi, None, :])
            contrib = weights * dem[lo:hi, None, :]
            dtrans[:k, :k] += contrib.sum(axis=0)
            dem[before : before + hi - lo] = contrib.sum(axis=2)
        dtrans[start, :k] += dem[:rows].sum(axis=0)
        if constraints is not None:
            dtrans[~constraints.allowed] = 0.0
        params.transitions.grad += dtrans
        emissions.grad[index] += dem  # index is a permutation

    _record(backward)
    return out


def gold_score(emissions: Tensor, params: CrfParams, tag_ids: list[int], lengths=None) -> Tensor:
    """Path score of one tag sequence per row of a packed batch (see
    ``log_partition``), summed: its emissions plus its transitions."""
    n, k = _checked_emissions(emissions.values, params)
    if len(tag_ids) != n:
        raise ValueError(f"{len(tag_ids)} tags for {n} positions")
    _check_labels(tag_ids, k, "tag id", "tags")
    lens, starts = _packed_rows(lengths, n)
    tags = np.asarray(tag_ids, dtype=np.intp)
    em_part = index_sum(emissions, np.arange(n), tags)
    # each row's path runs from the start state through its tags to the end state
    rows = np.insert(tags, starts, params.start_index)
    cols = np.insert(tags, starts + lens, params.end_index)
    tr_part = index_sum(params.transitions, rows, cols)
    return add(em_part, tr_part)


def crf_nll(
    emissions: Tensor,
    params: CrfParams,
    tag_ids: list[int],
    constraints: ConstraintMask | None = None,
    lengths=None,
) -> Tensor:
    """Negative log-likelihood of the gold paths, log Z minus the gold score,
    summed over the rows of a packed batch (see ``log_partition``)."""
    if constraints is not None:
        lens, starts = _packed_rows(lengths, len(tag_ids))
        for a, size in zip(starts.tolist(), lens.tolist()):
            if not constraints.is_legal(tag_ids[a : a + size]):
                raise ValueError(
                    f"gold tag sequence violates the transition constraints: {list(tag_ids[a : a + size])}"
                )
    return sub(
        log_partition(emissions, params, constraints, lengths),
        gold_score(emissions, params, tag_ids, lengths),
    )


def viterbi(
    emissions: np.ndarray,
    params: CrfParams,
    constraints: ConstraintMask | None = None,
) -> list[int]:
    """Highest-scoring tag sequence; score ties go to the lowest tag index.

    With constraints, each argmax runs over legal predecessors only: the
    -inf mask leaves an illegal one below every legal score. A NaN or +inf
    score (from non-finite inputs or a sum that overflows) spreads to every
    later position and wins the final argmax, so when no path has a finite
    score the call raises ValueError instead of returning one.
    """
    em = np.asarray(emissions, dtype=np.float64)
    n, k = _checked_emissions(em, params)
    start, end = params.start_index, params.end_index
    masked = _masked_transitions(params, constraints)

    with np.errstate(over="ignore", invalid="ignore"):
        best = masked[start, :k] + em[0]
        back = np.empty((n, k), dtype=np.intp)
        for t in range(1, n):
            scores = best[:, None] + masked[:k, :k]
            back[t] = scores.argmax(axis=0)
            best = scores[back[t], np.arange(k)] + em[t]
        final = best + masked[:k, end]
    tag = int(final.argmax())
    if not math.isfinite(final[tag]):
        raise ValueError("no tag path has a finite score: a score is not finite or a path's sum overflows")
    path = [tag]
    for t in range(n - 1, 0, -1):
        tag = int(back[t, tag])
        path.append(tag)
    path.reverse()
    return path
