"""Bit-exact binary files for emissions and acoustic features.

Both formats are little-endian with float32 row-major payloads; compute
stays 64-bit, so writing narrows and reading widens. Emission files carry a
kind byte: 0 for probabilities (rows must sum to 1 within the 32-bit storage
tolerance), 1 for raw logits.

    emission: "CTCL" | version u16 | kind u8 | reserved u8 | T u32 | V u32 | payload
    feature:  "CTCF" | version u16 | T u32 | m u32 | payload
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .ctc import EmissionMatrix, rows_sum_to_one
from .errors import FormatError, ShapeError, TruncatedFile, UnsupportedVersion

EMISSION_MAGIC = b"CTCL"
FEATURE_MAGIC = b"CTCF"
FORMAT_VERSION = 1
EMISSION_KIND_PROBS = 0
EMISSION_KIND_LOGITS = 1

_EMISSION_HEADER = struct.Struct("<4sHBBII")
_FEATURE_HEADER = struct.Struct("<4sHII")

STORED_ROW_SUM_TOL = 1e-4  # 32-bit storage tolerance


def _as_2d(array: np.ndarray, what: str) -> np.ndarray:
    arr = np.asarray(array, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ShapeError(f"{what} must be a non-empty 2-D array, got shape {arr.shape}")
    return arr


def write_emission_file(path: str | Path, array: np.ndarray, kind: int) -> None:
    """Write probabilities (kind 0) or logits (kind 1), narrowed to float32."""
    if kind not in (EMISSION_KIND_PROBS, EMISSION_KIND_LOGITS):
        raise ValueError(f"unknown emission kind {kind}")
    arr = _as_2d(array, "emissions")
    if arr.shape[1] < 2:
        raise ShapeError(f"emissions need V_total >= 2, got {arr.shape}")
    narrowed = arr.astype("<f4")
    if kind == EMISSION_KIND_PROBS:
        if not rows_sum_to_one(narrowed.astype(np.float64), STORED_ROW_SUM_TOL):
            raise ValueError("probability rows must sum to 1 within the storage tolerance")
    header = _EMISSION_HEADER.pack(
        EMISSION_MAGIC, FORMAT_VERSION, kind, 0, arr.shape[0], arr.shape[1]
    )
    Path(path).write_bytes(header + narrowed.tobytes())


def _read_rows(path, layout: struct.Struct, magic: bytes, what: str, width_name: str,
               min_width: int, check_fields=None) -> tuple[list, np.ndarray]:
    """Validate a header and payload shared by both formats.

    Returns the header fields between version and dimensions, passed first to
    `check_fields(path, *fields)` when given, and the payload as a float64
    (T, width) array.
    """
    buf = Path(path).read_bytes()
    if len(buf) < layout.size:
        raise TruncatedFile(f"{path}: shorter than the {what} header")
    found, version, *fields, t_frames, width = layout.unpack_from(buf)
    if found != magic:
        raise FormatError(f"{path}: bad magic {found!r}")
    if version != FORMAT_VERSION:
        raise UnsupportedVersion(f"{path}: {what} file version {version}")
    if check_fields is not None:
        check_fields(path, *fields)
    if t_frames < 1 or width < min_width:
        raise FormatError(f"{path}: bad dimensions T={t_frames}, {width_name}={width}")
    expected = t_frames * width * 4
    payload = len(buf) - layout.size
    if payload < expected:
        raise TruncatedFile(f"{path}: payload has {payload} of {expected} bytes")
    if payload > expected:
        raise FormatError(f"{path}: {payload - expected} trailing bytes")
    arr = np.frombuffer(buf, dtype="<f4", offset=layout.size).reshape(t_frames, width)
    return fields, arr.astype(np.float64)


def _check_emission_fields(path, kind: int, reserved: int) -> None:
    if reserved != 0:
        raise FormatError(f"{path}: reserved byte is {reserved}")
    if kind not in (EMISSION_KIND_PROBS, EMISSION_KIND_LOGITS):
        raise FormatError(f"{path}: unknown emission kind {kind}")


def read_emission_file(path: str | Path) -> tuple[np.ndarray, int]:
    """Read an emission file; returns (float64 array, kind)."""
    (kind, _), arr = _read_rows(path, _EMISSION_HEADER, EMISSION_MAGIC, "emission",
                                "V_total", 2, _check_emission_fields)
    if kind == EMISSION_KIND_PROBS:
        if not rows_sum_to_one(arr, STORED_ROW_SUM_TOL):
            raise FormatError(f"{path}: probability rows do not sum to 1")
    return arr, kind


def load_emission_matrix(path: str | Path) -> EmissionMatrix:
    """Read an emission file as a validated EmissionMatrix.

    Probability rows are renormalized to undo the 32-bit narrowing; logits
    go through the softmax.
    """
    arr, kind = read_emission_file(path)
    if kind == EMISSION_KIND_PROBS:
        return EmissionMatrix.from_unnormalized(arr)
    return EmissionMatrix.from_logits(arr)


def write_feature_file(path: str | Path, array: np.ndarray) -> None:
    arr = _as_2d(array, "features")
    header = _FEATURE_HEADER.pack(FEATURE_MAGIC, FORMAT_VERSION, arr.shape[0], arr.shape[1])
    Path(path).write_bytes(header + arr.astype("<f4").tobytes())


def read_feature_file(path: str | Path) -> np.ndarray:
    _, arr = _read_rows(path, _FEATURE_HEADER, FEATURE_MAGIC, "feature", "m", 1)
    return arr
