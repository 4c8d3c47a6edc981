import math
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ctctag as c
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

    def test_descent_direction(self):
        # one small step against the gradient must not increase the loss
        rng = np.random.default_rng(13)
        logits = rng.normal(size=(8, 4))
        labels = [0, 1, 2, 1]
        nll, grad = c.nll_and_gradient(logits, labels)
        stepped = logits - 1e-3 * grad
        nll_after = c.ctc_neg_log_likelihood(c.EmissionMatrix.from_logits(stepped), labels)
        assert nll_after < nll


# one utterance of a batch: label ids (below the blank), frames beyond the
# fewest its labels need, and whether a token off its path gets -inf logits
utterances = st.tuples(
    st.lists(st.integers(min_value=0, max_value=3), max_size=4),
    st.integers(min_value=0, max_value=3),
    st.booleans(),
)


class TestBatch:
    @given(st.lists(utterances, min_size=1, max_size=6), st.integers(0, 2**32 - 1))
    @example([([], 0, False), ([1, 1, 0], 0, True), ([2], 3, False)], 0)  # T=1, one-sided repeat
    @example([([0, 0], 0, False)], 1)  # a batch of one, at its fewest frames
    @settings(max_examples=60, deadline=None)
    def test_equals_the_per_utterance_calls_bitwise(self, batch, seed):
        rng = np.random.default_rng(seed)
        v_total = 6  # labels stop at 3, so token 4 is always off the path
        logits, labels = [], []
        for target, extra, off_path in batch:
            frames = max(1, min_frames(target) + extra)
            rows = rng.normal(size=(frames, v_total)) * 3
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
