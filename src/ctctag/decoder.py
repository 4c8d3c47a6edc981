"""Greedy decoding, streaming decoding, and per-frame timelines.

Greedy decoding is frame-local: take each row's argmax (ties go to the
lowest id), then collapse. Batch and streaming decoding run one collapse
step, so they agree by construction; a label is committed the moment its
argmax run ends and never retracts. The streaming decoder keeps the labels
and spans it reports (the open run last), so a partial result is a copy, not
a rebuild.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ctc import ROW_SUM_TOL, EmissionMatrix
from .errors import InvalidValue, ShapeError
from .vocab import TagRegistry, Vocabulary


@dataclass(frozen=True)
class DecodeResult:
    """Argmax path, its collapsed labels, and one [first, last] frame span
    per label (spans never merge across blanks)."""

    path: tuple[int, ...]
    labels: tuple[int, ...]
    frame_spans: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class TimelineRow:
    t: int
    token_id: int
    surface: str
    prob: float
    is_blank: bool


def _collapse(path: list[int], labels: list[int], spans: list[tuple[int, int]],
              ids: list[int], blank_id: int) -> list[tuple[int, tuple[int, int]]]:
    """Extend a decode's path, labels and spans by the argmax ids of the next
    frames; return the (label, span) of each run those ids ended."""
    ended = []
    prev = path[-1] if path else blank_id
    for t, value in enumerate(ids, len(path)):
        if value == prev:
            if value != blank_id:
                spans[-1] = (spans[-1][0], t)
            continue
        if prev != blank_id:
            ended.append((prev, spans[-1]))
        if value != blank_id:
            labels.append(value)
            spans.append((t, t))
        prev = value
    path.extend(ids)
    return ended


def greedy_decode(emissions: EmissionMatrix) -> DecodeResult:
    """Per-frame argmax followed by CTC collapse, with frame spans."""
    path, labels, spans = [], [], []
    _collapse(path, labels, spans, np.argmax(emissions.probs, axis=1).tolist(), emissions.blank_id)
    return DecodeResult(tuple(path), tuple(labels), tuple(spans))


class StreamingDecoder:
    """Incremental greedy decoder over probability rows of its vocabulary's width.

    Feed rows with `push`; each call returns the labels committed by that frame
    (a run is committed once a different argmax value arrives). A row not of
    shape (v_total,) raises ShapeError, and one that EmissionMatrix would refuse
    (an entry outside [0, 1], NaN, or a sum off 1 by more than ROW_SUM_TOL,
    summed left to right) InvalidValue; neither is taken in. `result()` is
    `greedy_decode` of all rows seen so far, open run included. One instance
    belongs to one stream; not thread-safe.
    """

    def __init__(self, v_total: int):
        if v_total < 2:
            raise ShapeError(f"stream width {v_total} must be at least 2")
        self._v_total = v_total
        self.blank_id = v_total - 1
        self._path: list[int] = []
        # the result's labels and spans; the open run is last while it is
        # not blank, and its span grows with it
        self._labels: list[int] = []
        self._spans: list[tuple[int, int]] = []

    @property
    def committed(self) -> list[tuple[int, tuple[int, int]]]:
        open_run = bool(self._path) and self._path[-1] != self.blank_id
        return list(zip(self._labels, self._spans))[: len(self._labels) - open_run]

    def push(self, row: np.ndarray) -> list[tuple[int, tuple[int, int]]]:
        row = np.asarray(row, dtype=np.float64)
        if row.shape != (self._v_total,):
            raise ShapeError(f"stream rows must have shape ({self._v_total},), got {row.shape}")

        values = row.tolist()
        top = max(values)
        # EmissionMatrix's rule, in Python floats; NaN and +-inf fail the sum
        if not (min(values) >= 0.0 and top <= 1.0 and abs(sum(values) - 1.0) <= ROW_SUM_TOL):
            raise InvalidValue(f"stream row {len(self._path)} is refused: entries must lie in "
                               f"[0, 1], not NaN, and sum to 1 within {ROW_SUM_TOL}")
        value = values.index(top)  # the first maximum, as np.argmax takes
        return _collapse(self._path, self._labels, self._spans, [value], self.blank_id)

    def result(self) -> DecodeResult:
        """Decode state over all frames seen so far, open run included."""
        return DecodeResult(tuple(self._path), tuple(self._labels), tuple(self._spans))


def check_width(emissions: EmissionMatrix, vocab: Vocabulary) -> EmissionMatrix:
    """The emissions (or a model, whose predictions they would be), which
    must have one column per vocabulary token; otherwise their ids (the
    blank's included) mean different tokens."""
    if vocab.v_total != emissions.v_total:
        raise ShapeError(
            f"vocabulary width {vocab.v_total} != emission width {emissions.v_total}"
        )
    return emissions


def emit_timeline(emissions: EmissionMatrix, registry: TagRegistry) -> list[TimelineRow]:
    """One row per frame of emissions over `registry.vocab`: argmax token, its
    surface (a bound tag's, or an unbound placeholder's auto-name) and its
    probability."""
    check_width(emissions, registry.vocab)
    surfaces, probs = registry.surfaces, emissions.probs
    return [
        TimelineRow(t=t, token_id=k, surface=surfaces[k], prob=float(probs[t, k]),
                    is_blank=k == emissions.blank_id)
        for t, k in enumerate(np.argmax(probs, axis=1).tolist())
    ]


def blank_fraction(emissions: EmissionMatrix) -> float:
    """Fraction of frames whose greedy argmax is the blank token."""
    path = np.argmax(emissions.probs, axis=1)
    return float(np.mean(path == emissions.blank_id))
