"""Greedy decoding, its streaming twin, and per-frame timelines.

Greedy decoding is frame-local: take the argmax token of every row (ties go
to the lowest id), then collapse. That locality is what makes the streaming
variant exact — a label can be committed the moment its argmax run ends,
and committed labels never retract.
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


def _runs(path: list[int]) -> list[tuple[int, int, int]]:
    """Maximal constant runs of a path as (value, first, last)."""
    runs = []
    for t, value in enumerate(path):
        if runs and runs[-1][0] == value:
            runs[-1] = (value, runs[-1][1], t)
        else:
            runs.append((value, t, t))
    return runs


def greedy_decode(emissions: EmissionMatrix) -> DecodeResult:
    """Per-frame argmax followed by CTC collapse, with frame spans."""
    path = [int(k) for k in np.argmax(emissions.probs, axis=1)]
    blank_id = emissions.blank_id
    labels: list[int] = []
    spans: list[tuple[int, int]] = []
    for value, first, last in _runs(path):
        if value != blank_id:
            labels.append(value)
            spans.append((first, last))
    return DecodeResult(tuple(path), tuple(labels), tuple(spans))


class StreamingDecoder:
    """Incremental greedy decoder over probability rows of fixed width.

    Feed rows with `push`; each call returns the labels committed by that
    frame (a run is committed once a different argmax value arrives).
    `result()` matches `greedy_decode` of all rows seen so far, including the
    still-open run. One instance belongs to one stream; not thread-safe.
    """

    def __init__(self, v_total: int | None = None):
        self._v_total = v_total
        self._path: list[int] = []
        self._run: tuple[int, int, int] | None = None  # (value, first, last)
        self._committed: list[tuple[int, tuple[int, int]]] = []

    @property
    def blank_id(self) -> int:
        if self._v_total is None:
            raise ShapeError("no frames pushed yet; width unknown")
        return self._v_total - 1

    @property
    def committed(self) -> list[tuple[int, tuple[int, int]]]:
        return list(self._committed)

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

        t = len(self._path)
        value = int(np.argmax(row))
        self._path.append(value)
        committed: list[tuple[int, tuple[int, int]]] = []
        if self._run is not None and self._run[0] == value:
            self._run = (value, self._run[1], t)
        else:
            if self._run is not None and self._run[0] != self.blank_id:
                committed.append((self._run[0], (self._run[1], self._run[2])))
            self._run = (value, t, t)
        self._committed.extend(committed)
        return committed

    def result(self) -> DecodeResult:
        """Decode state over all frames seen so far, open run included."""
        labels = [label for label, _ in self._committed]
        spans = [span for _, span in self._committed]
        if self._run is not None and self._run[0] != self.blank_id:
            value, first, last = self._run
            labels.append(value)
            spans.append((first, last))
        return DecodeResult(tuple(self._path), tuple(labels), tuple(spans))


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
    rows = []
    for t in range(emissions.t_frames):
        token_id = int(np.argmax(emissions.probs[t]))
        binding = registry.binding_for_id(token_id) if registry is not None else None
        surface = binding.surface if binding is not None else vocab.surface_of(token_id)
        rows.append(
            TimelineRow(
                t=t,
                token_id=token_id,
                surface=surface,
                prob=float(emissions.probs[t, token_id]),
                is_blank=token_id == emissions.blank_id,
            )
        )
    return rows


def blank_fraction(emissions: EmissionMatrix) -> float:
    """Fraction of frames whose greedy argmax is the blank token."""
    path = np.argmax(emissions.probs, axis=1)
    return float(np.mean(path == emissions.blank_id))
