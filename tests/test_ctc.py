import math
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ctctag as c
from ctctag import ctc
from ctctag.ctc import min_frames
from ctctag.formats import EMISSION_KIND_PROBS

UNIFORM_2x3 = c.EmissionMatrix(np.full((2, 3), 1.0 / 3.0))


def one_hot(path, v_total):
    mat = np.zeros((len(path), v_total))
    mat[np.arange(len(path)), path] = 1.0
    return c.EmissionMatrix(mat)


def random_emissions(rng, t_frames, v_total):
    return c.EmissionMatrix.from_unnormalized(rng.random((t_frames, v_total)) + 1e-3)


def all_label_sequences(v_total, max_len):
    non_blank = range(v_total - 1)
    for length in range(max_len + 1):
        yield from (list(seq) for seq in product(non_blank, repeat=length))


class TestEmissionMatrix:
    def test_shape_and_value_validation(self):
        with pytest.raises(c.ShapeError):
            c.EmissionMatrix(np.ones(3))
        with pytest.raises(c.ShapeError):
            c.EmissionMatrix(np.ones((2, 1)))
        with pytest.raises(ValueError):
            c.EmissionMatrix(np.array([[1.2, -0.2]]))
        # every entry at most 1 and the row sums to 1: only the lower bound refuses it
        with pytest.raises(c.InvalidValue, match="entries must lie in"):
            c.EmissionMatrix(np.array([[-0.5, 0.75, 0.75]]))
        with pytest.raises(ValueError):
            c.EmissionMatrix(np.array([[0.5, 0.4]]))  # row sums to 0.9

    def test_row_sum_tolerance_boundary(self):
        ok = np.array([[0.5, 0.5 + 0.9e-9]])
        assert c.EmissionMatrix(ok).t_frames == 1
        with pytest.raises(ValueError):
            c.EmissionMatrix(np.array([[0.5, 0.5 + 1e-6]]))

    def test_accessors_and_readonly(self):
        m = UNIFORM_2x3
        assert (m.t_frames, m.v_total, m.blank_id) == (2, 3, 2)
        with pytest.raises(ValueError):
            m.probs[0, 0] = 0.0

    def test_from_logits_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        m = c.EmissionMatrix.from_logits(rng.normal(size=(7, 5)) * 30)
        np.testing.assert_allclose(m.probs.sum(axis=1), 1.0, atol=1e-12)

    def test_from_unnormalized_rejects_nonpositive_rows(self):
        with pytest.raises(ValueError):
            c.EmissionMatrix.from_unnormalized(np.zeros((2, 3)))

    def test_from_unnormalized_refuses_negative_entries_and_bad_shapes(self):
        # [2, -1] sums to 1, so dividing by the sum keeps the -1: refused, not
        # clipped; an infinite, overflowing or NaN sum is refused unwarned
        for rows in ([[2.0, -1.0]], [[np.inf, 1.0]], [[np.nan, 1.0]], [[np.inf, -np.inf]],
                     [[1e308, 1e308]]):
            with pytest.raises(c.InvalidValue):
                c.EmissionMatrix.from_unnormalized(np.array(rows))
        for rows in (np.zeros((0, 3)), np.ones(3)):
            with pytest.raises(c.ShapeError):
                c.EmissionMatrix.from_unnormalized(rows)

    @pytest.mark.parametrize("source", ["probabilities", "logits", "ctcl"])
    def test_nan_is_rejected(self, source, tmp_path):
        rows = np.array([[0.5, 0.5], [np.nan, 0.5]])
        with pytest.raises(ValueError):
            if source == "probabilities":
                c.EmissionMatrix(rows)
            elif source == "logits":
                c.EmissionMatrix.from_logits(rows)
            else:
                path = tmp_path / "nan.ctcl"
                c.write_emission_file(path, rows, EMISSION_KIND_PROBS)
                c.load_emission_matrix(path)

    @pytest.mark.parametrize("bad", ["plus_inf", "all_minus_inf", "nan"])
    def test_non_finite_logits_are_rejected_without_a_warning(self, bad, recwarn):
        logits = np.zeros((3, 4))
        if bad == "plus_inf":
            logits[1, 2] = np.inf
        elif bad == "all_minus_inf":
            logits[2] = -np.inf
        else:
            logits[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite logits"):
            c.EmissionMatrix.from_logits(logits)
        assert len(recwarn) == 0

    def test_minus_inf_logits_beside_a_finite_one_are_zero_probabilities(self):
        m = c.EmissionMatrix.from_logits(np.array([[0.0, -np.inf, 0.0]]))
        np.testing.assert_array_equal(m.probs, [[0.5, 0.0, 0.5]])


class TestPathProbability:
    def test_uniform_paths_are_one_ninth(self):
        for path in product(range(3), repeat=2):
            assert c.path_probability(UNIFORM_2x3, path) == pytest.approx(1.0 / 9.0)

    def test_one_hot_paths(self):
        m = one_hot([0, 2, 1], 4)
        assert c.path_probability(m, [0, 2, 1]) == 1.0
        assert c.path_probability(m, [0, 2, 2]) == 0.0

    def test_hand_product(self):
        rng = np.random.default_rng(7)
        m = random_emissions(rng, 5, 4)
        path = [3, 0, 2, 2, 1]
        expected = 1.0
        for t, k in enumerate(path):
            expected *= m.probs[t, k]
        assert c.path_probability(m, path) == pytest.approx(expected, rel=1e-15)

    def test_errors(self):
        with pytest.raises(c.ShapeError):
            c.path_probability(UNIFORM_2x3, [0])
        with pytest.raises(c.UnknownToken):
            c.path_probability(UNIFORM_2x3, [0, 3])


class TestCollapse:
    def test_worked_examples(self):
        assert c.collapse([3, 3, 3], 3) == []
        assert c.collapse([0, 0, 3, 0], 3) == [0, 0]
        assert c.collapse([0, 3, 1, 1, 2], 3) == [0, 1, 2]

    def test_blank_separates_repeats(self):
        assert c.collapse([1, 1, 1], 3) == [1]
        assert c.collapse([1, 3, 1], 3) == [1, 1]

    @given(st.lists(st.integers(min_value=0, max_value=4), max_size=30))
    def test_output_never_contains_blank(self, path):
        assert 4 not in c.collapse(path, 4)

    @given(st.lists(st.integers(min_value=0, max_value=3), max_size=30))
    def test_fixed_point_on_repeat_free_blank_free_input(self, seq):
        seq = [k for k, prev in zip(seq, [None] + seq) if k != prev]
        assert c.collapse(seq, 4) == seq

    @given(st.lists(st.integers(min_value=0, max_value=4), max_size=30))
    def test_never_longer_than_input(self, path):
        assert len(c.collapse(path, 4)) <= len(path)


class TestBruteForce:
    def test_single_frame(self):
        m = c.EmissionMatrix(np.array([[0.7, 0.3]]))
        assert c.sequence_probability_bruteforce(m, [0]) == pytest.approx(0.7)
        assert c.sequence_probability_bruteforce(m, []) == pytest.approx(0.3)

    def test_three_path_hand_formula(self):
        # T=2, V=2: the paths collapsing to [a] are aa, a-, -a
        m = c.EmissionMatrix(np.array([[0.6, 0.4], [0.1, 0.9]]))
        y = m.probs
        expected = y[0, 0] * y[1, 0] + y[0, 0] * y[1, 1] + y[0, 1] * y[1, 0]
        assert c.sequence_probability_bruteforce(m, [0]) == pytest.approx(expected, rel=1e-15)

    def test_infeasible_labels_get_zero_mass(self):
        assert c.sequence_probability_bruteforce(UNIFORM_2x3, [0, 0]) == 0.0

    def test_oracle_guard(self):
        big = c.EmissionMatrix.from_unnormalized(np.ones((30, 10)))
        with pytest.raises(c.TooLargeForOracle):
            c.sequence_probability_bruteforce(big, [0])

    def test_distributes_all_mass(self):
        rng = np.random.default_rng(3)
        m = random_emissions(rng, 3, 3)
        total = sum(
            c.sequence_probability_bruteforce(m, labels)
            for labels in all_label_sequences(3, 3)
        )
        assert total == pytest.approx(1.0, abs=1e-12)


class TestNegLogLikelihood:
    def test_one_hot_spelling_gives_zero_loss(self):
        m = one_hot([0, 2, 1], 4)
        assert c.ctc_neg_log_likelihood(m, [0, 2, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            t_frames = int(rng.integers(1, 6))
            v_total = int(rng.integers(2, 5))
            m = random_emissions(rng, t_frames, v_total)
            n_labels = int(rng.integers(0, t_frames + 1))
            labels = list(rng.integers(0, v_total - 1, size=n_labels))
            oracle = c.sequence_probability_bruteforce(m, labels)
            try:
                nll = c.ctc_neg_log_likelihood(m, labels)
            except c.InfeasibleAlignment:
                assert oracle == 0.0
                continue
            assert math.exp(-nll) == pytest.approx(oracle, abs=1e-12)

    def test_feasibility_boundary(self):
        # [a, a] needs a separating blank frame: T=3 works, T=2 does not
        m3 = c.EmissionMatrix(np.full((3, 3), 1.0 / 3.0))
        assert math.isfinite(c.ctc_neg_log_likelihood(m3, [0, 0]))
        with pytest.raises(c.InfeasibleAlignment):
            c.ctc_neg_log_likelihood(UNIFORM_2x3, [0, 0])
        with pytest.raises(c.InfeasibleAlignment):
            c.ctc_neg_log_likelihood(UNIFORM_2x3, [0, 1, 0])

    def test_zero_probability_feasible_case_is_inf(self):
        m = c.EmissionMatrix(np.array([[0.0, 1.0]]))
        assert c.ctc_neg_log_likelihood(m, [0]) == math.inf

    def test_label_validation(self):
        with pytest.raises(c.BlankInLabelSequence):
            c.ctc_neg_log_likelihood(UNIFORM_2x3, [2])
        with pytest.raises(c.UnknownToken):
            c.ctc_neg_log_likelihood(UNIFORM_2x3, [3])

    def test_empty_labels_probability(self):
        rng = np.random.default_rng(5)
        m = random_emissions(rng, 4, 3)
        expected = float(np.prod(m.probs[:, 2]))
        assert math.exp(-c.ctc_neg_log_likelihood(m, [])) == pytest.approx(expected, rel=1e-12)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_total_mass_is_one(self, seed):
        rng = np.random.default_rng(seed)
        t_frames = int(rng.integers(1, 5))
        v_total = int(rng.integers(2, 4))
        m = random_emissions(rng, t_frames, v_total)
        total = 0.0
        for labels in all_label_sequences(v_total, t_frames):
            try:
                total += math.exp(-c.ctc_neg_log_likelihood(m, labels))
            except c.InfeasibleAlignment:
                pass
        assert total == pytest.approx(1.0, abs=1e-9)


def finite_difference_gradient(logits, labels, h=1e-5):
    grad = np.zeros_like(logits)
    for t in range(logits.shape[0]):
        for k in range(logits.shape[1]):
            bumped = logits.copy()
            bumped[t, k] += h
            up = c.ctc_neg_log_likelihood(c.EmissionMatrix.from_logits(bumped), labels)
            bumped[t, k] -= 2 * h
            down = c.ctc_neg_log_likelihood(c.EmissionMatrix.from_logits(bumped), labels)
            grad[t, k] = (up - down) / (2 * h)
    return grad


class TestGradient:
    def test_nll_agrees_with_forward_pass(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(6, 4))
        nll, _ = c.nll_and_gradient(logits, [0, 2, 1])
        direct = c.ctc_neg_log_likelihood(c.EmissionMatrix.from_logits(logits), [0, 2, 1])
        assert nll == pytest.approx(direct, rel=1e-12)

    def test_rows_sum_to_zero(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(7, 5))
        grad = c.ctc_gradient(logits, [1, 3, 1])
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-12)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            t_frames = int(rng.integers(3, 7))
            v_total = int(rng.integers(3, 5))
            logits = rng.normal(size=(t_frames, v_total))
            n_labels = int(rng.integers(1, 3))
            labels = list(rng.integers(0, v_total - 1, size=n_labels))
            if t_frames < n_labels + sum(a == b for a, b in zip(labels, labels[1:])):
                continue
            grad = c.ctc_gradient(logits, labels)
            fd = finite_difference_gradient(logits, labels)
            assert np.max(np.abs(grad - fd)) <= 1e-6
        # edges of the reversed (beta) lattice: no labels, one frame, a repeat
        # at one end only (so reversing the labels moves it) in exactly its
        # minimum frame count, and a target filling every frame
        for t_frames, labels in ((4, []), (1, []), (1, [0]), (4, [1, 1, 0]), (4, [0, 2, 1, 2])):
            logits = rng.normal(size=(t_frames, 4))
            grad = c.ctc_gradient(logits, labels)
            fd = finite_difference_gradient(logits, labels)
            assert np.max(np.abs(grad - fd)) <= 1e-6

    def test_vanishes_at_near_delta_optimum(self):
        labels = [0, 2, 1]
        logits = np.zeros((3, 4))
        logits[np.arange(3), labels] = 50.0
        grad = c.ctc_gradient(logits, labels)
        assert np.max(np.abs(grad)) <= 1e-6

    def test_infeasible_and_validation_errors(self):
        logits = np.zeros((2, 3))
        with pytest.raises(c.InfeasibleAlignment):
            c.nll_and_gradient(logits, [0, 0])
        with pytest.raises(c.BlankInLabelSequence):
            c.nll_and_gradient(logits, [2])
        with pytest.raises(c.ShapeError):
            c.nll_and_gradient(np.zeros(3), [0])

    def test_non_finite_loss_is_an_error(self):
        # a NaN logit, or a target every path gives probability zero, would
        # otherwise return a NaN gradient
        for logits in ([[np.nan, 0.0]], [[-np.inf, 0.0]]):
            with pytest.raises(ValueError):
                c.nll_and_gradient(np.array(logits), [0])

    def test_non_finite_gradient_is_an_error(self):
        # log p is finite near 1e31, but the occupancies cancel alpha + beta
        # against log p at a spacing near 1e15, so one can overflow
        logits = np.random.default_rng(11).normal(size=(8, 4)) * 1e31
        with pytest.raises(c.InvalidValue, match="^CTC gradient is not finite"):
            c.nll_and_gradient(logits, [0, 1, 2])
        with pytest.raises(c.InvalidValue, match="^utterance 1: CTC gradient is not finite"):
            c.nll_and_gradient(np.vstack([np.zeros((2, 4)), logits]), [[0], [0, 1, 2]], [2, 8])

    def test_descent_direction(self):
        # one small step against the gradient must not increase the loss
        rng = np.random.default_rng(13)
        logits = rng.normal(size=(8, 4))
        labels = [0, 1, 2, 1]
        nll, grad = c.nll_and_gradient(logits, labels)
        stepped = logits - 1e-3 * grad
        nll_after = c.ctc_neg_log_likelihood(c.EmissionMatrix.from_logits(stepped), labels)
        assert nll_after < nll


def log_domain_reference(logits, labels):
    """NLL and gradient by a per-frame log-space forward-backward over one
    utterance's extended sequence, written out independently of the package
    (Graves et al. 2006, eqs. 6-16): the exact reference of the accuracy
    contract, valid for logits far beyond what probabilities can hold."""
    logits = np.asarray(logits, dtype=np.float64)
    t_frames, v_total = logits.shape
    row_max = logits.max(axis=1, keepdims=True)
    log_probs = logits - row_max - np.log(np.exp(logits - row_max).sum(axis=1, keepdims=True))
    blank = v_total - 1
    ext = [blank]
    for k in labels:
        ext += [k, blank]
    n_states = len(ext)
    emit = log_probs[:, ext]  # labels and blank: never -inf below
    skip_into = np.array([s >= 2 and ext[s] != ext[s - 2] for s in range(n_states)])
    skip_out = np.append(skip_into[2:], [False, False])  # from s to s + 2

    alpha = np.full((t_frames, n_states), -np.inf)
    alpha[0, :2] = emit[0, :2]
    for t in range(1, t_frames):
        prev = alpha[t - 1]
        mass = prev.copy()
        mass[1:] = np.logaddexp(mass[1:], prev[:-1])
        mass[2:] = np.where(skip_into[2:], np.logaddexp(mass[2:], prev[:-2]), mass[2:])
        alpha[t] = mass + emit[t]
    beta = np.full((t_frames, n_states), -np.inf)
    beta[-1, -2:] = emit[-1, -2:]
    for t in range(t_frames - 2, -1, -1):
        nxt = beta[t + 1]
        mass = nxt.copy()
        mass[:-1] = np.logaddexp(mass[:-1], nxt[1:])
        mass[:-2] = np.where(skip_out[:-2], np.logaddexp(mass[:-2], nxt[2:]), mass[:-2])
        beta[t] = mass + emit[t]
    log_p = np.logaddexp.reduce(alpha[-1, -2:])
    occupancy = np.exp(alpha + beta - emit - log_p)
    grad = np.exp(log_probs)
    for s, k in enumerate(ext):
        grad[:, k] -= occupancy[:, s]
    return -log_p, grad


def draw_utterance(rng, scale, t_frames, v_total, off_path):
    """Logits (T, V) at `scale` and labels that fit T frames; with off_path,
    a token outside the labels gets -inf logits."""
    labels = [int(k) for k in rng.integers(0, v_total - 1, size=int(rng.integers(0, t_frames + 1)))]
    while min_frames(labels) > t_frames:
        labels.pop()
    logits = rng.normal(size=(t_frames, v_total)) * scale
    unused = [k for k in range(v_total - 1) if k not in labels]
    if off_path and unused:
        logits[:, rng.choice(unused)] = -np.inf
    return logits, labels


class TestAccuracyContract:
    """nll_and_gradient against the log-space reference: NLL within 1e-12
    relative (absolute below 1), gradient within 1e-8, at logit scales from
    where the probability-domain lattice always holds to where it falls back
    to the log domain."""

    @given(st.sampled_from([1, 10, 30, 60, 100, 300, 1000]), st.integers(1, 100),
           st.integers(2, 50), st.booleans(), st.integers(0, 2**32 - 1))
    # underflowed emissions hide the likeliest paths from both directions
    # alike, so the occupancies still sum to 1 (NLL off by 297 unchecked)
    @example(scale=300, t_frames=12, v_total=20, off_path=False, seed=8776)
    @settings(max_examples=80, deadline=None)
    def test_matches_the_log_domain_reference(self, scale, t_frames, v_total, off_path, seed):
        logits, labels = draw_utterance(np.random.default_rng(seed), scale, t_frames, v_total, off_path)
        nll, grad = c.nll_and_gradient(logits, labels)
        ref_nll, ref_grad = log_domain_reference(logits, labels)
        assert abs(nll - ref_nll) <= 1e-12 * max(1.0, abs(ref_nll))
        assert np.max(np.abs(grad - ref_grad)) <= 1e-8

    def test_falls_back_only_when_a_result_cannot_be_trusted(self, monkeypatch):
        log_domain_calls = []  # one per utterance sent to the log domain
        occupancy_log = ctc._occupancy_log

        def counted(*args):
            log_domain_calls.append(args[0].shape)
            return occupancy_log(*args)

        monkeypatch.setattr(ctc, "_occupancy_log", counted)
        rng = np.random.default_rng(5)
        batch = [draw_utterance(rng, 3, int(rng.integers(10, 60)), 20, False) for _ in range(16)]
        c.nll_and_gradient(np.vstack([x for x, _ in batch]), [y for _, y in batch],
                           [len(x) for x, _ in batch])
        assert log_domain_calls == []
        # the likeliest paths start with a token of probability e^-750, which
        # is 0 in float64, so the probability domain alone would give the
        # NLL of the one path left (about 801.4); the check sends it back
        logits = np.array([[-750.0, 0.0, -700.0], [-100.0, 0.0, 0.0], [-1000.0, 0.0, 0.0]])
        nll, grad = c.nll_and_gradient(logits, [0, 1])
        assert len(log_domain_calls) == 1
        assert nll == pytest.approx(750 + 2 * math.log(2) - math.log(3), rel=1e-12)
        assert np.max(np.abs(grad - log_domain_reference(logits, [0, 1])[1])) <= 1e-8


# one utterance of a batch: label ids (below the blank), frames beyond the
# fewest its labels need, whether a token off its path gets -inf logits, and
# the scale of its logits (the largest ones make the probability-domain
# lattice fall back to the log domain)
utterances = st.tuples(
    st.lists(st.integers(min_value=0, max_value=3), max_size=4),
    st.integers(min_value=0, max_value=3),
    st.booleans(),
    st.sampled_from([1, 3, 30, 300, 1000]),
)


class TestBatch:
    @given(st.lists(utterances, min_size=1, max_size=6), st.integers(0, 2**32 - 1))
    @example([([], 0, False, 3), ([1, 1, 0], 0, True, 3), ([2], 3, False, 3)], 0)  # T=1, one-sided repeat
    @example([([0, 0], 0, False, 3)], 1)  # a batch of one, at its fewest frames
    @example([([0, 1], 5, False, 3), ([1, 2, 3], 2, True, 1000), ([], 4, False, 1)], 2)
    # both scale-1000 utterances fall back to the log domain (two calls, counted
    # once); the NaN their scaled occupancies hold past their own frames and
    # states must stay in the bins the gradient drops
    @example([([0], 3, False, 1000), ([1, 2, 3], 0, False, 1000), ([2], 0, False, 1)], 3)
    @settings(max_examples=60, deadline=None)
    def test_equals_the_per_utterance_calls_bitwise(self, batch, seed):
        rng = np.random.default_rng(seed)
        v_total = 6  # labels stop at 3, so token 4 is always off the path
        logits, labels = [], []
        for target, extra, off_path, scale in batch:
            frames = max(1, min_frames(target) + extra)
            rows = rng.normal(size=(frames, v_total)) * scale
            if off_path:
                unused = [k for k in range(v_total - 1) if k not in target]
                rows[:, rng.choice(unused)] = -np.inf
            logits.append(rows)
            labels.append(target)
        nll, grad = c.nll_and_gradient(np.vstack(logits), labels, [len(x) for x in logits])
        singles = [c.nll_and_gradient(x, y) for x, y in zip(logits, labels)]
        assert nll == sum(one for one, _ in singles)
        assert grad.tobytes() == np.vstack([g for _, g in singles]).tobytes()

    @pytest.mark.parametrize("rows, counts", [
        (5, [3, 3]),  # sum is not the number of rows
        (6, [2, 3, 1]),  # three counts for two sequences
        (6, [6]),  # one count for two sequences
        (6, [0, 6]),  # an empty utterance
    ])
    def test_frame_counts_must_cover_the_logits_one_per_sequence(self, rows, counts):
        with pytest.raises(c.ShapeError):
            c.nll_and_gradient(np.zeros((rows, 3)), [[0], [1]], counts)

    @pytest.mark.parametrize("bad, error", [
        ([5], c.UnknownToken),
        ([2], c.BlankInLabelSequence),
        ([0, 0, 0], c.InfeasibleAlignment),
        ("nan", ValueError),
        ("zero", ValueError),
    ])
    def test_errors_name_the_utterance(self, bad, error):
        logits = np.zeros((6, 3))
        labels = [[0], [1], [0]]
        if bad == "nan":
            logits[3, 1] = np.nan
        elif bad == "zero":
            logits[2:4, 1] = -np.inf
        else:
            labels[1] = bad
        with pytest.raises(error, match="^utterance 1: "):
            c.nll_and_gradient(logits, labels, [2, 2, 2])
