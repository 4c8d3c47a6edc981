"""Parse collapsed token sequences into structured transcripts.

The tag scheme is flat: an entity-begin tag opens a typed region that the
shared end tag closes, the intent tag names the whole utterance, and
speaker-change tags mark zero-width transitions between words. Decoded
output can be arbitrarily malformed, so the parser never fails on tag soup;
it repairs the structure and reports each repair as an anomaly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import NotCanonical, ShapeError, UnknownToken
from .vocab import TagKind, TagRegistry, check_label_ids


class AnomalyKind(Enum):
    END_WITHOUT_BEGIN = "end_without_begin"
    UNCLOSED_ENTITY_AT_END = "unclosed_entity_at_end"
    NESTED_BEGIN_AUTO_CLOSED = "nested_begin_auto_closed"
    DUPLICATE_INTENT_IGNORED = "duplicate_intent_ignored"
    INTENT_NOT_AT_START = "intent_not_at_start"


@dataclass(frozen=True)
class Anomaly:
    kind: AnomalyKind
    position: int  # token index into the parsed label sequence


@dataclass(frozen=True)
class Entity:
    entity_type: str
    phrase: str
    word_span: tuple[int, int]  # [start, end) into words
    frame_span: tuple[int, int] | None = None


@dataclass(frozen=True)
class StructuredTranscript:
    intent: str | None
    words: tuple[str, ...]
    entities: tuple[Entity, ...]
    speaker_turns: tuple[int, ...]
    anomalies: tuple[Anomaly, ...]


def parse(
    labels,
    registry: TagRegistry,
    frame_spans=None,
) -> StructuredTranscript:
    """Build a structured transcript from a blank-free label sequence.

    `frame_spans`, when given, must carry one [first, last] frame pair per
    label (as produced by the decoder); entity frame spans cover the first
    to last frame of the entity's words.
    """
    labels = check_label_ids(labels, registry.vocab.v_total)
    if frame_spans is not None:
        frame_spans = list(frame_spans)
        if len(frame_spans) != len(labels):
            raise ShapeError(
                f"{len(frame_spans)} frame spans for {len(labels)} labels"
            )

    words: list[str] = []
    word_spans: list[tuple[int, int] | None] = []
    entities: list[Entity] = []
    speaker_turns: list[int] = []
    anomalies: list[Anomaly] = []
    intent: str | None = None
    open_entity: tuple[str, int, int] | None = None  # (type, word start, token index)

    def close_entity() -> None:
        entity_type, start, _ = open_entity
        end = len(words)
        phrase = " ".join(words[start:end])
        frame_span = None
        if frame_spans is not None and end > start:
            firsts = word_spans[start]
            lasts = word_spans[end - 1]
            if firsts is not None and lasts is not None:
                frame_span = (firsts[0], lasts[1])
        entities.append(Entity(entity_type, phrase, (start, end), frame_span))

    for i, token_id in enumerate(labels):
        binding = registry.binding_for_id(token_id)
        if binding is None:
            words.append(registry.surfaces[token_id])
            word_spans.append(tuple(frame_spans[i]) if frame_spans is not None else None)
        elif binding.kind is TagKind.INTENT:
            if intent is None:
                intent = binding.name
                if i != 0:
                    anomalies.append(Anomaly(AnomalyKind.INTENT_NOT_AT_START, i))
            else:
                anomalies.append(Anomaly(AnomalyKind.DUPLICATE_INTENT_IGNORED, i))
        elif binding.kind is TagKind.ENTITY_BEGIN:
            if open_entity is not None:
                close_entity()
                anomalies.append(Anomaly(AnomalyKind.NESTED_BEGIN_AUTO_CLOSED, i))
            open_entity = (binding.entity_type, len(words), i)
        elif binding.kind is TagKind.ENTITY_END:
            if open_entity is None:
                anomalies.append(Anomaly(AnomalyKind.END_WITHOUT_BEGIN, i))
            else:
                close_entity()
                open_entity = None
        else:  # speaker change
            speaker_turns.append(len(words))

    if open_entity is not None:
        close_entity()
        anomalies.append(Anomaly(AnomalyKind.UNCLOSED_ENTITY_AT_END, open_entity[2]))

    return StructuredTranscript(
        intent=intent,
        words=tuple(words),
        entities=tuple(entities),
        speaker_turns=tuple(speaker_turns),
        anomalies=tuple(anomalies),
    )


def strip_tags(labels, registry: TagRegistry) -> list[str]:
    """Transcription-word surfaces only, order preserved (for WER scoring)."""
    return list(parse(labels, registry).words)


def render(transcript: StructuredTranscript, registry: TagRegistry) -> str:
    """Serialize an anomaly-free transcript back to canonical tagged text.

    At one word boundary the canonical order is: close of the preceding
    entity, speaker-change tags, entity opens (an empty entity closes right
    after its open). Parsing collapses any same-boundary reordering onto this
    canonical form, so parse(render(t)) == t for every valid transcript.
    """
    if transcript.anomalies:
        raise NotCanonical(f"transcript has {len(transcript.anomalies)} anomalies")
    end_binding = registry.end_binding
    if transcript.entities and end_binding is None:
        raise UnknownToken("no shared entity-end tag is bound")

    pieces: list[str] = []
    if transcript.intent is not None:
        intent_binding = registry.intent_binding(transcript.intent)
        if intent_binding is None:
            raise UnknownToken(f"no intent tag bound for {transcript.intent!r}")
        pieces.append(intent_binding.surface)

    spk = registry.speaker_change_binding()
    if transcript.speaker_turns and spk is None:
        raise UnknownToken("no speaker-change tag is bound")

    next_entity = 0
    open_end: int | None = None
    n_words = len(transcript.words)
    for boundary in range(n_words + 1):
        if open_end == boundary:
            pieces.append(end_binding.surface)
            open_end = None
        for turn in transcript.speaker_turns:
            if turn == boundary:
                pieces.append(spk.surface)
        while (
            next_entity < len(transcript.entities)
            and transcript.entities[next_entity].word_span[0] == boundary
        ):
            entity = transcript.entities[next_entity]
            pieces.append(registry.begin_binding_for_type(entity.entity_type).surface)
            if entity.word_span[1] == boundary:
                pieces.append(end_binding.surface)
            else:
                open_end = entity.word_span[1]
            next_entity += 1
        if boundary < n_words:
            pieces.append(transcript.words[boundary])
    return " ".join(pieces)


def transcript_to_dict(transcript: StructuredTranscript) -> dict:
    """JSON-ready view of a transcript (the CLI's serialization)."""
    return {
        "intent": transcript.intent,
        "words": list(transcript.words),
        "entities": [
            {
                "type": e.entity_type,
                "phrase": e.phrase,
                "word_span": list(e.word_span),
                "frame_span": list(e.frame_span) if e.frame_span is not None else None,
            }
            for e in transcript.entities
        ],
        "speaker_turns": list(transcript.speaker_turns),
        "anomalies": [
            {"kind": a.kind.value, "position": a.position} for a in transcript.anomalies
        ],
    }
