"""SLU-style scoring: tuple-matching NER P/R/F1, WER, intent accuracy.

Entity occurrences are reduced to (type, phrase) tuples with frequencies;
an utterance's correct count is the frequency overlap between reference and
system tuples. Corpus scores are micro-aggregated (total-correct over
total-reference / total-system); per-type numbers are reported for
diagnostics. WER is computed on words with all event tags stripped.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import AlignmentError, EmptyReference
from .tag_parser import StructuredTranscript

EntityTupleSet = Counter  # (entity_type, phrase) -> frequency


def to_tuples(transcript: StructuredTranscript) -> EntityTupleSet:
    """Count (type, phrase) pairs; duplicate occurrences accumulate."""
    return Counter((e.entity_type, e.phrase) for e in transcript.entities)


@dataclass(frozen=True)
class Totals:
    total_reference: int
    total_system: int
    total_correct: int


@dataclass(frozen=True)
class TypeScores:
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class NerReport:
    precision: float
    recall: float
    f1: float
    per_type: dict[str, TypeScores]
    totals: Totals


@dataclass(frozen=True)
class EvalReport(NerReport):
    wer: float
    intent_accuracy: float


def f1_score(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _ratio(correct: int, total: int, other_total: int) -> float:
    # a side with nothing to match scores 1 only vacuously (both sides empty)
    if total == 0:
        return 1.0 if other_total == 0 else 0.0
    return correct / total


def ner_prf(ref: list[EntityTupleSet], hyp: list[EntityTupleSet]) -> NerReport:
    """Micro-aggregated tuple precision/recall/F1 with a per-type breakdown.

    Utterances are aligned by position; per utterance, the correct count for
    a tuple key is min(reference frequency, system frequency).
    """
    if len(ref) != len(hyp):
        raise AlignmentError(f"{len(ref)} reference vs {len(hyp)} system utterances")
    by_type: dict[str, list[int]] = {}  # type -> [reference, system, correct]
    for r, h in zip(ref, hyp):
        for key in r.keys() | h.keys():
            n_ref, n_sys = r.get(key, 0), h.get(key, 0)
            counts = by_type.setdefault(key[0], [0, 0, 0])
            counts[0] += n_ref
            counts[1] += n_sys
            counts[2] += min(n_ref, n_sys)

    # column sums; the zero row gives zeros when no utterance has an entity
    totals = Totals(*map(sum, zip([0, 0, 0], *by_type.values())))
    precision = _ratio(totals.total_correct, totals.total_system, totals.total_reference)
    recall = _ratio(totals.total_correct, totals.total_reference, totals.total_system)
    per_type = {}
    for entity_type, (t_ref, t_sys, t_corr) in sorted(by_type.items()):
        p = _ratio(t_corr, t_sys, t_ref)
        r = _ratio(t_corr, t_ref, t_sys)
        per_type[entity_type] = TypeScores(p, r, f1_score(p, r))
    return NerReport(precision, recall, f1_score(precision, recall), per_type, totals)


def edit_distance(ref: list[str], hyp: list[str]) -> int:
    """Minimum edits (substitution/insertion/deletion, unit cost) between
    two word sequences.

    A common prefix or suffix is matched in some optimal alignment (Ukkonen
    1985), so the O(n·m) table runs on the differing core only.
    """
    start, n, m = 0, len(ref), len(hyp)
    while start < n and start < m and ref[start] == hyp[start]:
        start += 1
    while n > start and m > start and ref[n - 1] == hyp[m - 1]:
        n -= 1
        m -= 1
    ref, hyp = ref[start:n], hyp[start:m]
    previous = list(range(len(hyp) + 1))
    for i, ref_word in enumerate(ref, start=1):
        current = [i]
        for j, hyp_word in enumerate(hyp, start=1):
            if ref_word == hyp_word:
                current.append(previous[j - 1])
            else:
                current.append(1 + min(previous[j - 1], previous[j], current[-1]))
        previous = current
    return previous[-1]


def wer(ref_words: list[str], hyp_words: list[str]) -> float:
    """Edit distance divided by reference length."""
    return corpus_wer([ref_words], [hyp_words])


def corpus_wer(ref_word_lists: list[list[str]], hyp_word_lists: list[list[str]]) -> float:
    """Micro WER: summed edit distance over summed reference length."""
    if len(ref_word_lists) != len(hyp_word_lists):
        raise AlignmentError(
            f"{len(ref_word_lists)} reference vs {len(hyp_word_lists)} system utterances"
        )
    total_ref = sum(len(r) for r in ref_word_lists)
    if total_ref == 0:
        raise EmptyReference("corpus WER needs at least one reference word")
    total_edits = sum(
        edit_distance(list(r), list(h)) for r, h in zip(ref_word_lists, hyp_word_lists)
    )
    return total_edits / total_ref


def intent_accuracy(ref_intents: list[str], hyp_intents: list[str | None]) -> float:
    """Fraction of exact intent matches; a missing hypothesis intent is wrong."""
    if len(ref_intents) != len(hyp_intents):
        raise AlignmentError(f"{len(ref_intents)} reference vs {len(hyp_intents)} system intents")
    if not ref_intents:
        raise EmptyReference("intent accuracy needs at least one utterance")
    if any(r is None for r in ref_intents):
        raise AlignmentError("reference intents must all be present")
    return sum(1 for r, h in zip(ref_intents, hyp_intents) if h == r) / len(ref_intents)


def evaluate_corpus(
    ref: list[StructuredTranscript], hyp: list[StructuredTranscript]
) -> EvalReport:
    """Full report over aligned reference/hypothesis transcripts."""
    if len(ref) != len(hyp):
        raise AlignmentError(f"{len(ref)} reference vs {len(hyp)} system transcripts")
    ner = ner_prf([to_tuples(t) for t in ref], [to_tuples(t) for t in hyp])
    return EvalReport(
        **vars(ner),
        wer=corpus_wer([list(t.words) for t in ref], [list(t.words) for t in hyp]),
        intent_accuracy=intent_accuracy([t.intent for t in ref], [t.intent for t in hyp]),
    )
