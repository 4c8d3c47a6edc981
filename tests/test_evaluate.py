from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctctag as c


def transcript(words=(), entities=(), intent=None):
    ents = tuple(
        c.Entity(entity_type, phrase, (0, 0)) for entity_type, phrase in entities
    )
    return c.StructuredTranscript(intent, tuple(words), ents, (), ())


class TestToTuples:
    def test_listing(self, calendar_registry, listing_labels):
        t = c.parse(listing_labels, calendar_registry)
        assert c.to_tuples(t) == Counter(
            {
                ("EVENT_NAME", "meeting"): 1,
                ("PERSON", "paul"): 1,
                ("DATE", "tomorrow"): 1,
                ("TIME", "ten am"): 1,
            }
        )

    def test_empty(self):
        assert c.to_tuples(transcript()) == Counter()

    def test_duplicates_accumulate(self):
        t = transcript(entities=[("PERSON", "paul"), ("PERSON", "paul")])
        assert c.to_tuples(t) == Counter({("PERSON", "paul"): 2})


class TestNerPrf:
    def test_identical_scores_one(self):
        tuples = [Counter({("PERSON", "paul"): 1, ("DATE", "monday"): 2})]
        report = c.ner_prf(tuples, tuples)
        assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)
        assert report.totals == c.Totals(3, 3, 3)

    def test_half_overlap(self):
        ref = [Counter({("PERSON", "paul"): 1, ("DATE", "monday"): 1})]
        hyp = [Counter({("PERSON", "paul"): 1, ("DATE", "tuesday"): 1})]
        report = c.ner_prf(ref, hyp)
        assert (report.precision, report.recall, report.f1) == (0.5, 0.5, 0.5)

    def test_empty_hypothesis_scores_zero(self):
        ref = [Counter({("PERSON", "paul"): 1})]
        report = c.ner_prf(ref, [Counter()])
        assert (report.precision, report.recall, report.f1) == (0.0, 0.0, 0.0)

    def test_both_empty_scores_one(self):
        report = c.ner_prf([Counter()], [Counter()])
        assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)

    def test_frequency_overlap_uses_min(self):
        ref = [Counter({("PERSON", "paul"): 2})]
        hyp = [Counter({("PERSON", "paul"): 3})]
        report = c.ner_prf(ref, hyp)
        assert report.totals == c.Totals(2, 3, 2)
        assert report.recall == 1.0
        assert report.precision == pytest.approx(2 / 3)

    def test_matching_is_per_utterance_not_global(self):
        ref = [Counter({("PERSON", "paul"): 1}), Counter()]
        hyp = [Counter(), Counter({("PERSON", "paul"): 1})]
        report = c.ner_prf(ref, hyp)
        assert report.totals.total_correct == 0
        assert report.f1 == 0.0

    def test_per_type_breakdown(self):
        ref = [Counter({("PERSON", "paul"): 1, ("DATE", "monday"): 1})]
        hyp = [Counter({("PERSON", "paul"): 1, ("DATE", "tuesday"): 1})]
        per_type = c.ner_prf(ref, hyp).per_type
        assert per_type["PERSON"] == c.TypeScores(1.0, 1.0, 1.0)
        assert per_type["DATE"] == c.TypeScores(0.0, 0.0, 0.0)
        assert list(per_type) == sorted(per_type)

    def test_alignment_error(self):
        with pytest.raises(c.AlignmentError):
            c.ner_prf([Counter()], [Counter(), Counter()])


entity_tuples = st.lists(
    st.tuples(st.sampled_from(["PERSON", "DATE"]), st.sampled_from(["a", "b", "c"])),
    max_size=4,
).map(Counter)


class TestNerProperties:
    @given(st.lists(st.tuples(entity_tuples, entity_tuples), min_size=1, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_swap_exchanges_precision_and_recall(self, pairs):
        ref = [r for r, _ in pairs]
        hyp = [h for _, h in pairs]
        forward = c.ner_prf(ref, hyp)
        backward = c.ner_prf(hyp, ref)
        assert forward.precision == pytest.approx(backward.recall)
        assert forward.recall == pytest.approx(backward.precision)
        assert forward.f1 == pytest.approx(backward.f1)

    @given(st.lists(st.tuples(entity_tuples, entity_tuples), min_size=1, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_scores_are_bounded(self, pairs):
        report = c.ner_prf([r for r, _ in pairs], [h for _, h in pairs])
        for value in (report.precision, report.recall, report.f1):
            assert 0.0 <= value <= 1.0
        assert report.totals.total_correct <= min(
            report.totals.total_reference, report.totals.total_system
        )
        if report.precision > 0 and report.recall > 0:
            assert min(report.precision, report.recall) - 1e-12 <= report.f1
            assert report.f1 <= max(report.precision, report.recall) + 1e-12

    @given(entity_tuples)
    @settings(max_examples=100, deadline=None)
    def test_self_comparison_is_perfect(self, tuples):
        report = c.ner_prf([tuples], [tuples])
        assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)


def test_f1_score_degenerate_and_hand_values():
    assert c.f1_score(0.0, 0.0) == 0.0
    assert c.f1_score(1.0, 1.0) == 1.0
    assert c.f1_score(0.5, 0.5) == 0.5
    assert c.f1_score(1.0, 0.5) == pytest.approx(2 / 3)


class TestWer:
    def test_identical_is_zero(self):
        assert c.wer(["put", "meeting"], ["put", "meeting"]) == 0.0

    def test_one_substitution_in_four(self):
        ref = "put meeting with paul".split()
        hyp = "put meeting with mary".split()
        assert c.wer(ref, hyp) == pytest.approx(0.25)

    def test_can_exceed_one(self):
        assert c.wer(["put"], ["when", "is"]) == pytest.approx(2.0)

    def test_unit_operations(self):
        assert c.wer(["a", "b"], ["a"]) == pytest.approx(0.5)  # deletion
        assert c.wer(["a", "b"], ["a", "x", "b"]) == pytest.approx(0.5)  # insertion
        assert c.wer(["a", "b"], ["a", "x"]) == pytest.approx(0.5)  # substitution

    def test_empty_reference(self):
        with pytest.raises(c.EmptyReference):
            c.wer([], ["put"])

    def test_empty_hypothesis_deletes_everything(self):
        assert c.wer(["a", "b", "c"], []) == pytest.approx(1.0)


words = st.lists(st.sampled_from(["a", "b", "c"]), max_size=8)


class TestEditDistance:
    def test_hand_values(self):
        assert c.edit_distance([], []) == 0
        assert c.edit_distance(["a"], []) == 1
        assert c.edit_distance(["a", "b", "c"], ["a", "x", "c"]) == 1
        assert c.edit_distance(["a", "b"], ["b", "a"]) == 2

    @given(words, words)
    @settings(max_examples=200, deadline=None)
    def test_symmetry_and_identity(self, x, y):
        assert c.edit_distance(x, y) == c.edit_distance(y, x)
        assert c.edit_distance(x, x) == 0
        assert c.edit_distance(x, y) <= max(len(x), len(y))

    @given(words, words, words)
    @settings(max_examples=200, deadline=None)
    def test_triangle_inequality(self, x, y, z):
        assert c.edit_distance(x, z) <= c.edit_distance(x, y) + c.edit_distance(y, z)

    @given(words, words, words, words)
    @settings(max_examples=300, deadline=None)
    def test_equals_the_full_table(self, prefix, ref_core, hyp_core, suffix):
        # a shared prefix and suffix around cores that may share words with
        # them, so the trimmed core can end inside a shared part
        ref, hyp = prefix + ref_core + suffix, prefix + hyp_core + suffix
        assert c.edit_distance(ref, hyp) == full_table_distance(ref, hyp)
        assert c.edit_distance(ref_core, hyp_core) == full_table_distance(ref_core, hyp_core)


def full_table_distance(ref, hyp):
    """The unit-cost edit distance by the plain O(n·m) table over both whole
    sequences."""
    table = [[i + j if i == 0 or j == 0 else 0 for j in range(len(hyp) + 1)]
             for i in range(len(ref) + 1)]
    for i in range(1, len(ref) + 1):
        for j in range(1, len(hyp) + 1):
            table[i][j] = min(table[i - 1][j] + 1, table[i][j - 1] + 1,
                              table[i - 1][j - 1] + (ref[i - 1] != hyp[j - 1]))
    return table[-1][-1]


class TestCorpusWer:
    def test_micro_aggregation(self):
        ref = [["a", "b", "c"], ["d"]]
        hyp = [["a", "b", "c"], ["x"]]
        # 1 edit over 4 reference words, not the mean of 0 and 1
        assert c.corpus_wer(ref, hyp) == pytest.approx(0.25)

    def test_errors(self):
        with pytest.raises(c.AlignmentError):
            c.corpus_wer([["a"]], [])
        with pytest.raises(c.EmptyReference):
            c.corpus_wer([[], []], [["a"], []])


class TestIntentAccuracy:
    def test_hand_values(self):
        assert c.intent_accuracy(["A", "B"], ["A", "B"]) == 1.0
        assert c.intent_accuracy(["A", "B"], ["A", "A"]) == 0.5
        assert c.intent_accuracy(["A"], [None]) == 0.0

    def test_errors(self):
        with pytest.raises(c.AlignmentError):
            c.intent_accuracy(["A"], ["A", "B"])
        with pytest.raises(c.AlignmentError):
            c.intent_accuracy([None], ["A"])
        with pytest.raises(c.EmptyReference):
            c.intent_accuracy([], [])


class TestEvaluateCorpus:
    def test_identical_corpora(self, small_corpus):
        _, registry, items = small_corpus
        transcripts = [c.parse(labels, registry) for _, labels, _ in items[:20]]
        report = c.evaluate_corpus(transcripts, transcripts)
        assert report.f1 == 1.0
        assert report.wer == 0.0
        assert report.intent_accuracy == 1.0

    def test_mixed_hand_case(self):
        ref = [
            transcript(
                words=["put", "meeting", "with", "paul"],
                entities=[("PERSON", "paul")],
                intent="CALENDER_SET",
            ),
            transcript(words=["when"], entities=[("DATE", "monday")], intent="CALENDER_QUERY"),
        ]
        hyp = [
            transcript(
                words=["put", "meeting", "with", "mary"],
                entities=[("PERSON", "mary")],
                intent="CALENDER_SET",
            ),
            transcript(words=["when"], entities=[("DATE", "monday")], intent="REMINDER_SET"),
        ]
        report = c.evaluate_corpus(ref, hyp)
        assert report.precision == 0.5
        assert report.recall == 0.5
        assert report.f1 == 0.5
        assert report.wer == pytest.approx(1 / 5)
        assert report.intent_accuracy == 0.5
        assert report.totals == c.Totals(2, 2, 1)

    def test_alignment_error(self):
        with pytest.raises(c.AlignmentError):
            c.evaluate_corpus([transcript(words=["a"])], [])
