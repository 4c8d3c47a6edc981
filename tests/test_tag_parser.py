import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctctag as c


def ids_of(registry, text):
    return c.encode_tagged_text(registry, text)


class TestParseWellFormed:
    def test_calendar_listing(self, calendar_registry, listing_labels):
        t = c.parse(listing_labels, calendar_registry)
        assert t.intent == "CALENDER_SET"
        assert t.words == ("put", "meeting", "with", "paul", "for", "tomorrow", "ten", "am")
        assert [(e.entity_type, e.phrase, e.word_span) for e in t.entities] == [
            ("EVENT_NAME", "meeting", (1, 2)),
            ("PERSON", "paul", (3, 4)),
            ("DATE", "tomorrow", (5, 6)),
            ("TIME", "ten am", (6, 8)),
        ]
        assert t.speaker_turns == ()
        assert t.anomalies == ()

    def test_untagged_words(self, calendar_registry):
        t = c.parse(ids_of(calendar_registry, "put meeting"), calendar_registry)
        assert t.intent is None
        assert t.words == ("put", "meeting")
        assert t.entities == ()
        assert t.anomalies == ()

    def test_empty_sequence(self, calendar_registry):
        t = c.parse([], calendar_registry)
        assert t == c.StructuredTranscript(None, (), (), (), ())

    def test_speaker_turns_are_word_indices(self, calendar_registry):
        t = c.parse(ids_of(calendar_registry, "<SPK> put with <SPK> paul"), calendar_registry)
        assert t.words == ("put", "with", "paul")
        assert t.speaker_turns == (0, 2)
        assert t.anomalies == ()

    def test_empty_entity(self, calendar_registry):
        t = c.parse(ids_of(calendar_registry, "!PERSON! !END! put"), calendar_registry)
        assert t.entities == (c.Entity("PERSON", "", (0, 0)),)
        assert t.anomalies == ()


class TestParseAnomalies:
    def test_end_without_begin(self, calendar_registry):
        t = c.parse(ids_of(calendar_registry, "!END! put"), calendar_registry)
        assert t.words == ("put",)
        assert t.entities == ()
        assert t.anomalies == (c.Anomaly(c.AnomalyKind.END_WITHOUT_BEGIN, 0),)

    def test_unclosed_entity_at_end(self, calendar_registry):
        t = c.parse(ids_of(calendar_registry, "put !PERSON! paul"), calendar_registry)
        assert t.entities == (c.Entity("PERSON", "paul", (1, 2)),)
        assert t.anomalies == (c.Anomaly(c.AnomalyKind.UNCLOSED_ENTITY_AT_END, 1),)

    def test_nested_begin_auto_closed(self, calendar_registry):
        text = "!PERSON! paul !DATE! monday !END!"
        t = c.parse(ids_of(calendar_registry, text), calendar_registry)
        assert [(e.entity_type, e.phrase) for e in t.entities] == [
            ("PERSON", "paul"),
            ("DATE", "monday"),
        ]
        assert t.anomalies == (c.Anomaly(c.AnomalyKind.NESTED_BEGIN_AUTO_CLOSED, 2),)

    def test_first_intent_wins(self, calendar_registry):
        text = "@CALENDER_SET@ put @CALENDER_QUERY@ meeting"
        t = c.parse(ids_of(calendar_registry, text), calendar_registry)
        assert t.intent == "CALENDER_SET"
        assert t.anomalies == (c.Anomaly(c.AnomalyKind.DUPLICATE_INTENT_IGNORED, 2),)

    def test_intent_not_at_start(self, calendar_registry):
        t = c.parse(ids_of(calendar_registry, "put @CALENDER_SET@"), calendar_registry)
        assert t.intent == "CALENDER_SET"
        assert t.anomalies == (c.Anomaly(c.AnomalyKind.INTENT_NOT_AT_START, 1),)

    def test_anomaly_positions_index_tokens_not_words(self, calendar_registry):
        text = "put with paul !END!"
        t = c.parse(ids_of(calendar_registry, text), calendar_registry)
        assert t.anomalies == (c.Anomaly(c.AnomalyKind.END_WITHOUT_BEGIN, 3),)


class TestParseValidation:
    def test_blank_rejected(self, calendar_registry):
        with pytest.raises(c.BlankInLabelSequence):
            c.parse([calendar_registry.vocab.blank_id], calendar_registry)

    def test_out_of_range_rejected(self, calendar_registry):
        with pytest.raises(c.UnknownToken):
            c.parse([calendar_registry.vocab.v_total], calendar_registry)

    def test_frame_span_length_mismatch(self, calendar_registry):
        labels = ids_of(calendar_registry, "put meeting")
        with pytest.raises(c.ShapeError):
            c.parse(labels, calendar_registry, frame_spans=[(0, 1)])


class TestFrameSpans:
    def test_entity_span_covers_first_to_last_word_frame(self, calendar_registry):
        labels = ids_of(calendar_registry, "@CALENDER_SET@ put !TIME! ten am !END!")
        spans = [(0, 0), (1, 3), (4, 4), (5, 7), (8, 9), (10, 10)]
        t = c.parse(labels, calendar_registry, frame_spans=spans)
        assert t.entities[0].frame_span == (5, 9)

    def test_empty_entity_has_no_frame_span(self, calendar_registry):
        labels = ids_of(calendar_registry, "!PERSON! !END!")
        t = c.parse(labels, calendar_registry, frame_spans=[(0, 1), (2, 3)])
        assert t.entities[0].frame_span is None

    def test_spans_default_to_none(self, calendar_registry, listing_labels):
        t = c.parse(listing_labels, calendar_registry)
        assert all(e.frame_span is None for e in t.entities)


class TestStripTags:
    def test_listing(self, calendar_registry, listing_labels):
        words = c.strip_tags(listing_labels, calendar_registry)
        assert words == ["put", "meeting", "with", "paul", "for", "tomorrow", "ten", "am"]

    def test_matches_parse_words_on_corpus(self, small_corpus):
        _, registry, items = small_corpus
        for _, labels, _ in items:
            assert c.strip_tags(labels, registry) == list(c.parse(labels, registry).words)

    def test_blank_rejected(self, calendar_registry):
        with pytest.raises(c.BlankInLabelSequence):
            c.strip_tags([calendar_registry.vocab.blank_id], calendar_registry)


class TestRender:
    def test_listing_round_trip(self, calendar_registry, listing_text, listing_labels):
        t = c.parse(listing_labels, calendar_registry)
        assert c.render(t, calendar_registry) == listing_text

    def test_corpus_round_trip(self, small_corpus):
        _, registry, items = small_corpus
        for text, labels, _ in items:
            assert c.render(c.parse(labels, registry), registry) == text

    def test_parse_after_render_is_identity(self, calendar_registry):
        for text in [
            "",
            "put",
            "@CALENDER_QUERY@ when with !DATE! monday !END!",
            "!PERSON! !END! put",
            "<SPK> put <SPK> with paul",
            "@REMINDER_SET@ remind !PERSON! paul !END! !DATE! monday !END!",
        ]:
            t = c.parse(ids_of(calendar_registry, text), calendar_registry)
            assert t.anomalies == ()
            rendered = c.render(t, calendar_registry)
            assert c.parse(ids_of(calendar_registry, rendered), calendar_registry) == t

    def test_empty_transcript(self, calendar_registry):
        assert c.render(c.StructuredTranscript(None, (), (), (), ()), calendar_registry) == ""

    def test_anomalous_transcript_rejected(self, calendar_registry):
        t = c.parse(ids_of(calendar_registry, "!END! put"), calendar_registry)
        with pytest.raises(c.NotCanonical):
            c.render(t, calendar_registry)

    def test_unbound_names_rejected(self, calendar_registry):
        t = c.StructuredTranscript("NO_SUCH_INTENT", ("put",), (), (), ())
        with pytest.raises(c.UnknownToken):
            c.render(t, calendar_registry)
        t = c.StructuredTranscript(
            None, ("put",), (c.Entity("NO_SUCH_TYPE", "put", (0, 1)),), (), ()
        )
        with pytest.raises(c.UnknownToken):
            c.render(t, calendar_registry)
        # a registry binding no tag at all
        unbound = c.TagRegistry(calendar_registry.vocab)
        t = c.StructuredTranscript(None, ("paul",), (c.Entity("PERSON", "paul", (0, 1)),), (), ())
        with pytest.raises(c.UnknownToken, match="no shared entity-end tag"):
            c.render(t, unbound)
        t = c.StructuredTranscript(None, ("put", "paul"), (), (1,), ())
        with pytest.raises(c.UnknownToken, match="no speaker-change tag"):
            c.render(t, unbound)


@st.composite
def tag_soup(draw, registry):
    word_ids = [
        i
        for i in range(registry.vocab.l_count)
        if registry.vocab.role_of(i) is c.TokenRole.TRANSCRIPTION
    ]
    tag_ids = [b.token_id for b in registry.bindings]
    pool = word_ids + tag_ids
    return draw(st.lists(st.sampled_from(pool), max_size=25))


class TestTagSoupInvariants:
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_parser_repairs_anything(self, data, calendar_registry):
        registry = calendar_registry
        labels = data.draw(tag_soup(registry))
        t = c.parse(labels, registry)

        expected_words = [
            registry.vocab.surface_of(i)
            for i in labels
            if registry.binding_for_id(i) is None
        ]
        assert list(t.words) == expected_words

        prev_end = 0
        for entity in t.entities:
            start, end = entity.word_span
            assert 0 <= start <= end <= len(t.words)
            assert start >= prev_end
            prev_end = end
            assert entity.phrase == " ".join(t.words[start:end])

        for turn in t.speaker_turns:
            assert 0 <= turn <= len(t.words)

        if not t.anomalies:
            rendered = c.render(t, registry)
            assert c.parse(c.encode_tagged_text(registry, rendered), registry) == t

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_to_dict_is_json_ready(self, data, calendar_registry):
        labels = data.draw(tag_soup(calendar_registry))
        doc = c.transcript_to_dict(c.parse(labels, calendar_registry))
        parsed = json.loads(json.dumps(doc))
        assert set(parsed) == {"intent", "words", "entities", "speaker_turns", "anomalies"}
