import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctctag as c


def one_hot(path, v_total):
    mat = np.zeros((len(path), v_total))
    mat[np.arange(len(path)), path] = 1.0
    return c.EmissionMatrix(mat)


def random_emissions(rng, t_frames, v_total):
    return c.EmissionMatrix.from_unnormalized(rng.random((t_frames, v_total)) + 1e-3)


class TestGreedyDecode:
    def test_one_hot_recovers_path(self):
        m = one_hot([0, 0, 3, 1, 3, 1], 4)
        result = c.greedy_decode(m)
        assert result.path == (0, 0, 3, 1, 3, 1)
        assert result.labels == (0, 1, 1)
        assert result.frame_spans == ((0, 1), (3, 3), (5, 5))

    def test_uniform_ties_break_to_lowest_id(self):
        m = c.EmissionMatrix(np.full((3, 4), 0.25))
        result = c.greedy_decode(m)
        assert result.path == (0, 0, 0)
        assert result.labels == (0,)
        assert result.frame_spans == ((0, 2),)

    def test_blank_splits_spans(self):
        m = one_hot([0, 3, 0], 4)
        result = c.greedy_decode(m)
        assert result.labels == (0, 0)
        assert result.frame_spans == ((0, 0), (2, 2))

    def test_labels_match_collapse_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            t_frames = int(rng.integers(1, 40))
            v_total = int(rng.integers(3, 9))
            m = random_emissions(rng, t_frames, v_total)
            result = c.greedy_decode(m)
            argmax_path = [int(k) for k in np.argmax(m.probs, axis=1)]
            assert list(result.path) == argmax_path
            assert list(result.labels) == c.collapse(argmax_path, m.blank_id)

    def test_span_soundness(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            m = random_emissions(rng, int(rng.integers(2, 30)), 5)
            result = c.greedy_decode(m)
            covered = set()
            prev_last = -1
            for label, (first, last) in zip(result.labels, result.frame_spans):
                assert 0 <= first <= last < m.t_frames
                assert first > prev_last
                prev_last = last
                for t in range(first, last + 1):
                    assert result.path[t] == label
                    covered.add(t)
            for t in range(m.t_frames):
                if t not in covered:
                    assert result.path[t] == m.blank_id


class TestStreamingDecoder:
    def test_matches_batch_decode(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            m = random_emissions(rng, int(rng.integers(1, 40)), int(rng.integers(3, 9)))
            stream = c.StreamingDecoder()
            for row in m.probs:
                stream.push(row)
            batch = c.greedy_decode(m)
            assert stream.result() == batch

    def test_committed_is_stable_prefix(self):
        rng = np.random.default_rng(24)
        m = random_emissions(rng, 60, 4)
        stream = c.StreamingDecoder()
        seen: list = []
        for t, row in enumerate(m.probs):
            seen.extend(stream.push(row))
            assert stream.committed == seen
            live = stream.result()
            assert list(live.labels[: len(seen)]) == [label for label, _ in seen]
            prefix = c.greedy_decode(c.EmissionMatrix(m.probs[: t + 1]))
            assert live == prefix

    def test_single_frame_emits_at_most_one_label(self):
        stream = c.StreamingDecoder()
        assert stream.push(np.array([0.9, 0.1])) == []
        result = stream.result()
        assert result.labels == (0,)
        assert result.frame_spans == ((0, 0),)

    def test_commit_happens_when_run_ends(self):
        stream = c.StreamingDecoder()
        assert stream.push(np.array([0.8, 0.1, 0.1])) == []
        assert stream.push(np.array([0.8, 0.1, 0.1])) == []
        assert stream.push(np.array([0.1, 0.1, 0.8])) == [(0, (0, 1))]
        assert stream.push(np.array([0.1, 0.8, 0.1])) == []
        assert stream.result().labels == (0, 1)

    def test_width_is_locked_by_first_row(self):
        stream = c.StreamingDecoder()
        stream.push(np.array([0.5, 0.5, 0.0]))
        with pytest.raises(c.ShapeError):
            stream.push(np.array([0.5, 0.5]))

    def test_declared_width_is_enforced(self):
        stream = c.StreamingDecoder(v_total=4)
        with pytest.raises(c.ShapeError):
            stream.push(np.array([0.5, 0.5]))

    def test_rejects_bad_rows(self):
        stream = c.StreamingDecoder()
        with pytest.raises(c.ShapeError):
            stream.push(np.array([[0.5, 0.5]]))
        with pytest.raises(c.ShapeError):
            stream.push(np.array([1.0]))

    def test_nan_row_is_an_error_and_is_not_taken_in(self):
        stream = c.StreamingDecoder(3)
        stream.push(np.array([0.1, 0.8, 0.1]))
        for row in ([np.nan, 0.5, 0.5], [0.2, 0.3, np.nan]):
            with pytest.raises(ValueError, match="NaN"):
                stream.push(np.array(row))
        assert stream.result() == c.greedy_decode(c.EmissionMatrix([[0.1, 0.8, 0.1]]))
        assert stream.committed == []

    def test_empty_stream(self):
        stream = c.StreamingDecoder()
        result = stream.result()
        assert result.path == ()
        assert result.labels == ()


@st.composite
def emission_rows(draw):
    """Up to 120 rows of width 2-8 from a few levels, so argmax ties are
    common, with the blank boosted in long runs."""
    v_total = draw(st.integers(2, 8))
    t_frames = draw(st.integers(1, 120))
    levels = st.sampled_from([0.0, 1.0, 1.0, 2.0, 3.0])
    raw = np.array(draw(st.lists(st.lists(levels, min_size=v_total, max_size=v_total),
                                 min_size=t_frames, max_size=t_frames)))
    run_start = draw(st.integers(0, t_frames - 1))
    run_length = draw(st.integers(0, t_frames))
    raw[run_start : run_start + run_length, -1] = 4.0
    raw[raw.sum(axis=1) == 0] = 1.0
    return raw / raw.sum(axis=1, keepdims=True)


@given(probs=emission_rows())
@settings(max_examples=200, deadline=None)
def test_every_streaming_partial_is_the_greedy_decode_of_its_prefix(probs):
    stream = c.StreamingDecoder()
    for t, row in enumerate(probs):
        stream.push(row)
        partial = stream.result()
        assert partial == c.greedy_decode(c.EmissionMatrix(probs[: t + 1]))
        committed = stream.committed
        assert [label for label, _ in committed] == list(partial.labels[: len(committed)])
        assert [span for _, span in committed] == list(partial.frame_spans[: len(committed)])


class TestTimeline:
    def test_rows_cover_every_frame(self, calendar_registry):
        vocab = calendar_registry.vocab
        rng = np.random.default_rng(25)
        m = random_emissions(rng, 12, vocab.v_total)
        rows = c.emit_timeline(m, vocab)
        assert [r.t for r in rows] == list(range(12))
        for row in rows:
            assert row.prob == pytest.approx(float(m.probs[row.t, row.token_id]))
            assert row.is_blank == (row.token_id == vocab.blank_id)
            assert row.surface

    def test_one_hot_probs_and_blank_flags(self, calendar_registry):
        vocab = calendar_registry.vocab
        word = vocab.id_of("put")
        m = one_hot([word, vocab.blank_id], vocab.v_total)
        rows = c.emit_timeline(m, vocab)
        assert rows[0].surface == "put"
        assert rows[0].prob == 1.0
        assert not rows[0].is_blank
        assert rows[1].is_blank
        assert rows[1].surface == c.BLANK_SURFACE

    def test_registry_resolves_tag_surfaces(self, calendar_registry):
        vocab = calendar_registry.vocab
        tag_id = calendar_registry.binding_for_surface("!END!").token_id
        m = one_hot([tag_id], vocab.v_total)
        with_registry = c.emit_timeline(m, vocab, calendar_registry)
        without = c.emit_timeline(m, vocab)
        assert with_registry[0].surface == "!END!"
        assert without[0].surface.startswith("<unused_")

    def test_width_mismatch(self, calendar_registry):
        m = c.EmissionMatrix(np.full((2, 3), 1.0 / 3.0))
        with pytest.raises(c.ShapeError):
            c.emit_timeline(m, calendar_registry.vocab)


def test_blank_fraction():
    m = one_hot([0, 3, 3, 1], 4)
    assert c.blank_fraction(m) == pytest.approx(0.5)
    assert c.blank_fraction(one_hot([0, 1], 4)) == 0.0
