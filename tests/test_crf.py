import itertools
import re

import numpy as np
import pytest

from spanfeat import crf
from spanfeat import tensor as T
from spanfeat.crf import (
    ConstraintMask,
    CrfParams,
    build_iobes_constraints,
    crf_nll,
    gold_score,
    log_partition,
    viterbi,
)
from spanfeat.data import decode_iobes, iobes_tag_set
from spanfeat.tensor import Tape, Tensor


def brute_force_scores(em, trans, k, constraints=None):
    """Score every tag sequence by explicit summation; skip illegal ones."""
    n = em.shape[0]
    start, end = k, k + 1
    scored = []
    for path in itertools.product(range(k), repeat=n):
        if constraints is not None and not constraints.is_legal(list(path)):
            continue
        s = trans[start, path[0]] + em[0, path[0]]
        for t in range(1, n):
            s += trans[path[t - 1], path[t]] + em[t, path[t]]
        s += trans[path[-1], end]
        scored.append((s, path))
    return scored


def logsumexp(values):
    values = np.asarray(values)
    m = values.max()
    return m + np.log(np.exp(values - m).sum())


def random_crf(rng, n, k):
    em = Tensor(rng.normal(size=(n, k)))
    params = CrfParams(k)
    params.transitions.values[...] = rng.normal(size=(k + 2, k + 2))
    return em, params


class TestLogPartition:
    def test_matches_enumeration(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n, k = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            em, params = random_crf(rng, n, k)
            expected = logsumexp([s for s, _ in brute_force_scores(em.values, params.transitions.values, k)])
            assert abs(log_partition(em, params).item() - expected) < 1e-10

    def test_single_position_single_tag(self):
        em = Tensor([[2.0]])
        params = CrfParams(1)
        params.transitions.values[...] = 0.5
        # one path: start -> tag0 -> end
        assert log_partition(em, params).item() == pytest.approx(3.0, abs=1e-12)

    def test_always_at_least_gold(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n, k = int(rng.integers(1, 6)), int(rng.integers(2, 5))
            em, params = random_crf(rng, n, k)
            path = [int(t) for t in rng.integers(0, k, size=n)]
            assert log_partition(em, params).item() >= gold_score(em, params, path).item()

    def test_constrained_matches_legal_enumeration(self):
        rng = np.random.default_rng(2)
        tags = iobes_tag_set(["a"])
        constraints = build_iobes_constraints(tags)
        k = len(tags)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            em, params = random_crf(rng, n, k)
            legal = brute_force_scores(em.values, params.transitions.values, k, constraints)
            assert legal, "O-only path should always be legal"
            expected = logsumexp([s for s, _ in legal])
            assert abs(log_partition(em, params, constraints).item() - expected) < 1e-10

    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(3)
        em, params = random_crf(rng, 4, 3)
        err = T.grad_check(lambda: log_partition(em, params), [em, params.transitions])
        assert err < 1e-6

    def test_constrained_gradient_zero_on_masked_entries(self):
        rng = np.random.default_rng(4)
        tags = iobes_tag_set(["a"])
        constraints = build_iobes_constraints(tags)
        em, params = random_crf(rng, 3, len(tags))
        with Tape() as tape:
            out = log_partition(em, params, constraints)
        tape.backward(out)
        assert np.all(params.transitions.grad[~constraints.allowed] == 0.0)

    def test_constrained_gradient_against_finite_differences(self):
        rng = np.random.default_rng(5)
        tags = iobes_tag_set(["a"])
        constraints = build_iobes_constraints(tags)
        em, params = random_crf(rng, 3, len(tags))
        err = T.grad_check(
            lambda: log_partition(em, params, constraints), [em, params.transitions]
        )
        assert err < 1e-6


class TestNll:
    def test_nonnegative_and_zero_only_in_limit(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n, k = int(rng.integers(1, 5)), int(rng.integers(2, 4))
            em, params = random_crf(rng, n, k)
            path = [int(t) for t in rng.integers(0, k, size=n)]
            assert crf_nll(em, params, path).item() > 0.0

    def test_probabilities_normalise(self):
        rng = np.random.default_rng(7)
        em, params = random_crf(rng, 3, 3)
        logz = log_partition(em, params).item()
        total = sum(
            np.exp(s - logz) for s, _ in brute_force_scores(em.values, params.transitions.values, 3)
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(8)
        em, params = random_crf(rng, 4, 3)
        err = T.grad_check(lambda: crf_nll(em, params, [2, 0, 1, 1]), [em, params.transitions])
        assert err < 1e-6

    def test_rejects_illegal_gold_when_constrained(self):
        tags = iobes_tag_set(["a"])
        constraints = build_iobes_constraints(tags)
        em = Tensor(np.zeros((2, len(tags))))
        params = CrfParams(len(tags))
        b_a = tags.index("B-a")
        with pytest.raises(ValueError, match="constraints"):
            crf_nll(em, params, [b_a, b_a], constraints)

    def test_rejects_out_of_range_tags(self):
        em = Tensor(np.zeros((2, 3)))
        params = CrfParams(3)
        with pytest.raises(ValueError, match="out of range"):
            gold_score(em, params, [0, 3])
        # a float or a bool would be read as the tag it truncates to
        for tags, bad in (([1.5, 0], "1.5"), ([0, True], "True")):
            with pytest.raises(ValueError, match=rf"^tag id {bad} out of range for 3 tags"):
                gold_score(em, params, tags)

    def test_nll_shrinks_along_gradient_step(self):
        rng = np.random.default_rng(9)
        em, params = random_crf(rng, 4, 3)
        path = [0, 2, 1, 0]

        def nll_value():
            return crf_nll(em, params, path).item()

        before = nll_value()
        em.zero_grad()
        params.transitions.zero_grad()
        with Tape() as tape:
            loss = crf_nll(em, params, path)
        tape.backward(loss)
        em.values -= 0.05 * em.grad
        params.transitions.values -= 0.05 * params.transitions.grad
        assert nll_value() < before


def marginals(em, trans, k, constraints=None):
    """(n, k) posterior tag probabilities by enumeration: d log Z / d emissions."""
    scored = brute_force_scores(em, trans, k, constraints)
    logz = logsumexp([s for s, _ in scored])
    out = np.zeros(em.shape)
    for s, path in scored:
        out[np.arange(len(path)), list(path)] += np.exp(s - logz)
    return out


class TestPackedBatch:
    """Rows concatenated end to end with ``lengths``; every value and gradient
    must be the sum of the rows' own, row by row."""

    LENGTHS = [3, 1, 4, 2]  # a length-1 row, rows not in length order

    def _batch(self, seed, constrained):
        rng = np.random.default_rng(seed)
        tags = iobes_tag_set(["a", "b"])
        k = len(tags)
        em, params = random_crf(rng, sum(self.LENGTHS), k)
        constraints = build_iobes_constraints(tags) if constrained else None
        starts = np.cumsum([0] + self.LENGTHS[:-1])
        return em, params, constraints, k, [(int(a), n) for a, n in zip(starts, self.LENGTHS)]

    @pytest.mark.parametrize("constrained", [False, True])
    def test_log_partition_matches_rows_and_enumeration_row_by_row(self, constrained):
        em, params, constraints, k, rows = self._batch(30, constrained)
        trans = params.transitions.values
        with Tape() as tape:
            batched = log_partition(em, params, constraints, self.LENGTHS)
        tape.backward(batched)
        batch_em_grad, batch_trans_grad = em.grad.copy(), params.transitions.grad.copy()
        em.zero_grad()
        params.transitions.zero_grad()
        total = 0.0
        for a, n in rows:
            row = Tensor(em.values[a : a + n])
            with Tape() as tape:
                alone = log_partition(row, params, constraints)
            tape.backward(alone)
            expected = logsumexp([s for s, _ in brute_force_scores(row.values, trans, k, constraints)])
            assert abs(alone.item() - expected) < 1e-12
            total += alone.item()
            assert np.max(np.abs(batch_em_grad[a : a + n] - row.grad)) < 1e-12
            assert np.max(np.abs(row.grad - marginals(row.values, trans, k, constraints))) < 1e-12
        assert abs(batched.item() - total) < 1e-12
        assert np.max(np.abs(batch_trans_grad - params.transitions.grad)) < 1e-12

    @pytest.mark.parametrize("constrained", [False, True])
    def test_nll_and_gold_score_are_sums_over_rows(self, constrained):
        em, params, constraints, k, rows = self._batch(31, constrained)
        tags = iobes_tag_set(["a", "b"])
        o, s_b, b_a, e_a = tags.index("O"), tags.index("S-b"), tags.index("B-a"), tags.index("E-a")
        golds = [[b_a, e_a, o], [s_b], [o, s_b, b_a, e_a], [s_b, o]]
        flat = [t for g in golds for t in g]
        batched_gold = gold_score(em, params, flat, self.LENGTHS).item()
        batched_nll = crf_nll(em, params, flat, constraints, self.LENGTHS).item()
        row_gold = row_nll = 0.0
        for (a, n), gold in zip(rows, golds):
            row = Tensor(em.values[a : a + n])
            row_gold += gold_score(row, params, gold).item()
            row_nll += crf_nll(row, params, gold, constraints).item()
        assert abs(batched_gold - row_gold) < 1e-12
        assert abs(batched_nll - row_nll) < 1e-12

    def test_illegal_row_is_named(self):
        tags = iobes_tag_set(["a"])
        em = Tensor(np.zeros((3, len(tags))))
        b_a = tags.index("B-a")
        with pytest.raises(ValueError, match=re.escape(f"[{b_a}]")):
            crf_nll(em, CrfParams(len(tags)), [0, 0, b_a], build_iobes_constraints(tags), [2, 1])

    @pytest.mark.parametrize("lengths", [[], [0, 4], [-1, 5], [2, 1], [5], [2.5, 1.5], [2.0, 2.0], [True] * 4])
    def test_lengths_validated(self, lengths):
        em, params = random_crf(np.random.default_rng(33), 4, 3)
        message = re.escape(f"got {lengths}")
        with pytest.raises(ValueError, match=message):
            log_partition(em, params, None, lengths)
        with pytest.raises(ValueError, match=message):
            gold_score(em, params, [0, 1, 2, 0], lengths)
        with pytest.raises(ValueError, match=message):
            crf_nll(em, params, [0, 1, 2, 0], None, lengths)

    def test_empty_emissions_fail_naming_the_shape(self):
        params = CrfParams(3)
        em = Tensor(np.zeros((0, 3)))
        for call in (
            lambda: log_partition(em, params),
            lambda: gold_score(em, params, []),
            lambda: crf_nll(em, params, []),
            lambda: viterbi(em.values, params),
        ):
            with pytest.raises(ValueError, match=re.escape("(0, 3)")):
                call()


class TestViterbi:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(10)
        for _ in range(40):
            n, k = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            em, params = random_crf(rng, n, k)
            scored = brute_force_scores(em.values, params.transitions.values, k)
            best = max(scored, key=lambda sp: sp[0])
            assert viterbi(em.values, params) == list(best[1])

    def test_constrained_matches_legal_brute_force(self):
        rng = np.random.default_rng(11)
        tags = iobes_tag_set(["a"])
        constraints = build_iobes_constraints(tags)
        k = len(tags)
        for _ in range(40):
            n = int(rng.integers(1, 5))
            em, params = random_crf(rng, n, k)
            legal = brute_force_scores(em.values, params.transitions.values, k, constraints)
            best = max(legal, key=lambda sp: sp[0])
            assert viterbi(em.values, params, constraints) == list(best[1])

    def test_tie_breaks_to_lowest_index(self):
        em = np.zeros((2, 3))
        params = CrfParams(3)
        assert viterbi(em, params) == [0, 0]

    def test_constrained_decode_is_always_valid_iobes(self):
        rng = np.random.default_rng(12)
        tags = iobes_tag_set(["install", "cancel"])
        constraints = build_iobes_constraints(tags)
        params = CrfParams(len(tags))
        params.transitions.values[...] = rng.normal(size=params.transitions.shape)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            em = rng.normal(size=(n, len(tags))) * 5.0
            path = viterbi(em, params, constraints)
            _, repairs = decode_iobes([tags[i] for i in path])
            assert repairs == 0


class TestLargeEmissions:
    """Masking must hold for any emission scale, not only below some constant."""

    def test_one_token_inside_tag_cannot_escape_the_mask(self):
        tags = iobes_tag_set(["x"])
        em = np.zeros((1, len(tags)))
        em[0, tags.index("I-x")] = 3e4
        path = viterbi(em, CrfParams(len(tags)), build_iobes_constraints(tags))
        _, repairs = decode_iobes([tags[i] for i in path])
        assert repairs == 0

    def test_log_partition_counts_legal_paths_only(self):
        tags = iobes_tag_set(["x"])
        constraints = build_iobes_constraints(tags)
        params = CrfParams(len(tags))
        em = Tensor(np.zeros((2, len(tags))))
        em.values[0, tags.index("I-x")] = 3e4
        legal = brute_force_scores(em.values, params.transitions.values, len(tags), constraints)
        with Tape() as tape:
            logz = log_partition(em, params, constraints)
        tape.backward(logz)
        # O-O, O-S, S-O, S-S and B-E, all scoring 0
        assert logz.item() == pytest.approx(logsumexp([s for s, _ in legal]), abs=1e-12)
        assert logz.item() == pytest.approx(np.log(5.0), abs=1e-12)
        assert np.all(np.isfinite(em.grad)) and np.all(np.isfinite(params.transitions.grad))
        assert em.grad[0, tags.index("I-x")] == 0.0

    @pytest.mark.parametrize("scale", [1e2, 1e4, 1e6])
    def test_viterbi_matches_legal_brute_force_at_scale(self, scale):
        rng = np.random.default_rng(14)
        tags = iobes_tag_set(["a", "b"])
        constraints = build_iobes_constraints(tags)
        k = len(tags)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            em, params = random_crf(rng, n, k)
            em.values *= scale
            legal = brute_force_scores(em.values, params.transitions.values, k, constraints)
            best = max(legal, key=lambda sp: sp[0])
            assert viterbi(em.values, params, constraints) == list(best[1])


def value_and_gradients(function, em, params, constraints, lengths):
    em.zero_grad()
    params.transitions.zero_grad()
    with Tape() as tape:
        out = function(em, params, constraints, lengths)
    tape.backward(out)
    return out.item(), em.grad.copy(), params.transitions.grad.copy()


class TestScaledRecursion:
    """Without constraints ``log_partition`` runs the forward-backward in
    scaled probability space unless its guard refuses the batch, and then it
    must agree with the log-space recursion. A refused batch, and every
    constrained one, gets exactly the log-space recursion's value and
    gradients."""

    @pytest.mark.parametrize("constrained", [False, True])
    def test_agrees_with_log_space_recursion_at_every_scale(self, constrained, monkeypatch):
        rng = np.random.default_rng(40 + constrained)
        tags = iobes_tag_set([f"x{i}" for i in range(6)])  # 25 tags, as in the intent tagger
        k = len(tags)
        constraints = build_iobes_constraints(tags) if constrained else None
        reference = crf._log_space_partition
        fallbacks = []
        monkeypatch.setattr(crf, "_log_space_partition", lambda *args: fallbacks.append(args) or reference(*args))
        taken = {"scaled": 0, "refused": 0}
        for scale in (1, 3, 30, 100, 300, 1000, 3e4):
            for spread in (1, 10, 100, 800):
                for _ in range(3):
                    lengths = [int(n) for n in rng.integers(1, 32, size=int(rng.integers(1, 7)))]
                    em = Tensor(rng.normal(size=(sum(lengths), k)) * scale)
                    params = CrfParams(k)
                    params.transitions.values[...] = rng.uniform(-spread, spread, size=params.transitions.shape)
                    em.zero_grad()
                    params.transitions.zero_grad()
                    before = len(fallbacks)
                    with Tape() as tape:
                        out = log_partition(em, params, constraints, lengths)
                    refused = len(fallbacks) > before
                    tape.backward(out)
                    value, em_grad, trans_grad = out.item(), em.grad.copy(), params.transitions.grad.copy()
                    ref_value, ref_em_grad, ref_trans_grad = value_and_gradients(
                        reference, em, params, constraints, lengths
                    )
                    what = f"scale {scale}, transitions up to {spread}, lengths {lengths}"
                    if refused:
                        taken["refused"] += 1
                        assert value == ref_value, what
                        assert np.array_equal(em_grad, ref_em_grad), what
                        assert np.array_equal(trans_grad, ref_trans_grad), what
                        continue
                    taken["scaled"] += 1
                    assert np.isfinite(value), what
                    assert np.isfinite(em_grad).all() and np.isfinite(trans_grad).all(), what
                    assert abs(value - ref_value) <= 1e-10 * abs(ref_value), what
                    assert np.max(np.abs(em_grad - ref_em_grad)) <= 1e-10, what
                    assert np.max(np.abs(trans_grad - ref_trans_grad)) <= 1e-10, what
        if constrained:
            assert taken["scaled"] == 0, taken
        else:
            assert taken["scaled"] > 0 and taken["refused"] > 0, taken


class TestIobesConstraints:
    def test_allowed_count_closed_form(self):
        # per label set of size L: 4L^2 + 12L + 3 permitted transitions
        for n_labels in (1, 2, 3):
            labels = [f"x{i}" for i in range(n_labels)]
            mask = build_iobes_constraints(iobes_tag_set(labels))
            expected = 4 * n_labels**2 + 12 * n_labels + 3
            assert int(mask.allowed.sum()) == expected

    def test_specific_rules(self):
        tags = iobes_tag_set(["a", "b"])
        mask = build_iobes_constraints(tags)
        idx = {t: i for i, t in enumerate(tags)}
        start, end = len(tags), len(tags) + 1
        assert mask.allowed[start, idx["O"]]
        assert mask.allowed[start, idx["B-a"]]
        assert not mask.allowed[start, idx["I-a"]]
        assert not mask.allowed[start, idx["E-a"]]
        assert mask.allowed[idx["B-a"], idx["I-a"]]
        assert mask.allowed[idx["B-a"], idx["E-a"]]
        assert not mask.allowed[idx["B-a"], idx["I-b"]]
        assert not mask.allowed[idx["B-a"], idx["O"]]
        assert not mask.allowed[idx["B-a"], end]
        assert mask.allowed[idx["I-a"], idx["E-a"]]
        assert not mask.allowed[idx["I-a"], idx["B-a"]]
        assert mask.allowed[idx["E-a"], idx["B-b"]]
        assert mask.allowed[idx["E-a"], end]
        assert mask.allowed[idx["S-a"], idx["S-b"]]
        assert mask.allowed[idx["O"], end]
        assert not mask.allowed[idx["O"], idx["I-b"]]

    def test_legality_matches_decoder(self):
        # decode_iobes counts one repair for each transition the mask forbids
        # along start -> tags -> end, so a sequence the mask accepts decodes
        # with zero repairs and back
        rng = np.random.default_rng(13)
        tags = iobes_tag_set(["a", "b"])
        mask = build_iobes_constraints(tags)
        start, end = len(tags), len(tags) + 1
        agree = 0
        counts = set()
        for _ in range(300):
            n = int(rng.integers(1, 6))
            ids = [int(i) for i in rng.integers(0, len(tags), size=n)]
            path = [start] + ids + [end]
            forbidden = sum(not mask.allowed[a, b] for a, b in zip(path, path[1:]))
            legal = mask.is_legal(ids)
            _, repairs = decode_iobes([tags[i] for i in ids])
            assert repairs == forbidden
            assert legal == (repairs == 0)
            agree += legal
            counts.add(repairs)
        assert 0 < agree < 300  # both outcomes exercised
        assert len(counts) > 2  # and more than one repair in a sequence

    def test_rejects_non_iobes_tag(self):
        with pytest.raises(ValueError, match="not an IOBES tag"):
            build_iobes_constraints(["O", "Z-a"])

    def test_mask_requires_square_bool(self):
        with pytest.raises(ValueError):
            ConstraintMask(allowed=np.zeros((2, 3), dtype=bool))
