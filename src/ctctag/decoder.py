"""Greedy decoding, its streaming twin, and per-frame timelines.

Greedy decoding is frame-local: take the argmax token of every row (ties go
to the lowest id), then collapse. That locality is what makes the streaming
variant exact — a label can be committed the moment its argmax run ends,
and committed labels never retract. The streaming decoder keeps the labels
and spans it reports (the open run last), so a partial result is a copy,
not a rebuild.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ctc import EmissionMatrix
from .errors import ShapeError
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


def greedy_decode(emissions: EmissionMatrix) -> DecodeResult:
    """Per-frame argmax followed by CTC collapse, with frame spans."""
    path = np.argmax(emissions.probs, axis=1).tolist()
    blank_id = emissions.blank_id
    labels: list[int] = []
    spans: list[tuple[int, int]] = []
    prev = blank_id
    for t, value in enumerate(path):
        if value != blank_id:
            if value == prev:
                spans[-1] = (spans[-1][0], t)
            else:
                labels.append(value)
                spans.append((t, t))
        prev = value
    return DecodeResult(tuple(path), tuple(labels), tuple(spans))


class StreamingDecoder:
    """Incremental greedy decoder over probability rows of fixed width.

    Feed rows with `push`; each call returns the labels committed by that
    frame (a run is committed once a different argmax value arrives); a row
    with a NaN entry raises ValueError and is not taken in. `result()`
    matches `greedy_decode` of all rows seen so far, including the
    still-open run. One instance belongs to one stream; not thread-safe.
    """

    def __init__(self, v_total: int | None = None):
        self._v_total = v_total
        self._path: list[int] = []
        # the result's labels and spans; the open run is last while it is
        # not blank, and its span grows with it
        self._labels: list[int] = []
        self._spans: list[tuple[int, int]] = []

    @property
    def blank_id(self) -> int:
        if self._v_total is None:
            raise ShapeError("no frames pushed yet; width unknown")
        return self._v_total - 1

    @property
    def committed(self) -> list[tuple[int, tuple[int, int]]]:
        open_run = bool(self._path) and self._path[-1] != self.blank_id
        return list(zip(self._labels, self._spans))[: len(self._labels) - open_run]

    def push(self, row: np.ndarray) -> list[tuple[int, tuple[int, int]]]:
        row = np.asarray(row, dtype=np.float64)
        if row.ndim != 1:
            raise ShapeError(f"stream rows must be 1-D, got shape {row.shape}")
        if self._v_total is None:
            if row.shape[0] < 2:
                raise ShapeError("stream rows need at least 2 entries")
            self._v_total = row.shape[0]
        elif row.shape[0] != self._v_total:
            raise ShapeError(f"row width {row.shape[0]} != stream width {self._v_total}")

        value = int(np.argmax(row))
        t = len(self._path)
        if row[value] != row[value]:  # argmax stops at the first NaN
            raise ValueError(f"stream row {t} contains NaN")
        blank_id = self._v_total - 1
        prev = self._path[-1] if t else blank_id
        self._path.append(value)
        if value == prev:
            if value != blank_id:
                self._spans[-1] = (self._spans[-1][0], t)
            return []
        committed = [(prev, self._spans[-1])] if prev != blank_id else []
        if value != blank_id:
            self._labels.append(value)
            self._spans.append((t, t))
        return committed

    def result(self) -> DecodeResult:
        """Decode state over all frames seen so far, open run included."""
        return DecodeResult(tuple(self._path), tuple(self._labels), tuple(self._spans))


def check_width(emissions: EmissionMatrix, vocab: Vocabulary) -> None:
    """Emissions must have one column per vocabulary token; otherwise their
    ids (the blank's included) mean different tokens."""
    if vocab.v_total != emissions.v_total:
        raise ShapeError(
            f"vocabulary width {vocab.v_total} != emission width {emissions.v_total}"
        )


def emit_timeline(
    emissions: EmissionMatrix,
    vocab: Vocabulary,
    registry: TagRegistry | None = None,
) -> list[TimelineRow]:
    """One row per frame: argmax token, its surface, and its probability.

    Bound tag surfaces are used when a registry is supplied; otherwise
    placeholders show their vocabulary auto-names.
    """
    check_width(emissions, vocab)
    surfaces = (registry if registry is not None else TagRegistry(vocab)).surfaces
    probs = emissions.probs
    return [
        TimelineRow(t=t, token_id=k, surface=surfaces[k], prob=float(probs[t, k]),
                    is_blank=k == emissions.blank_id)
        for t, k in enumerate(np.argmax(probs, axis=1).tolist())
    ]


def blank_fraction(emissions: EmissionMatrix) -> float:
    """Fraction of frames whose greedy argmax is the blank token."""
    path = np.argmax(emissions.probs, axis=1)
    return float(np.mean(path == emissions.blank_id))
