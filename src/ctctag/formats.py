"""Bit-exact binary files for emissions and acoustic features.

Both formats are little-endian with float32 row-major payloads; compute
stays 64-bit, so writing narrows and reading widens. Emission files carry a
kind byte: 0 for probabilities, 1 for raw logits.

    emission: "CTCL" | version u16 | kind u8 | reserved u8 | T u32 | V u32 | payload
    feature:  "CTCF" | version u16 | T u32 | m u32 | payload

Each format has one rule that its reader runs on the rows it read and its
writer on the narrowed rows, so a writer refuses (ShapeError, InvalidValue)
any file its reader would refuse: T >= 1 rows of m >= 1 finite features;
T >= 1 rows of V >= 2 probabilities that sum to 1 within the 32-bit storage
tolerance and, renormalized, lie in [0, 1]; or of V >= 2 logits, each row's
maximum finite (-inf beside a finite logit is probability 0).
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .ctc import EmissionMatrix, as_rows, rows_sum_to_one
from .errors import FormatError, InvalidValue, TruncatedFile, UnsupportedVersion, named

EMISSION_MAGIC = b"CTCL"
FEATURE_MAGIC = b"CTCF"
FORMAT_VERSION = 1
EMISSION_KIND_PROBS = 0
EMISSION_KIND_LOGITS = 1

_EMISSION_HEADER = struct.Struct("<4sHBBII")
_FEATURE_HEADER = struct.Struct("<4sHII")

STORED_ROW_SUM_TOL = 1e-4  # 32-bit storage tolerance

_TO_EMISSIONS = {
    EMISSION_KIND_PROBS: EmissionMatrix.from_unnormalized,
    EMISSION_KIND_LOGITS: EmissionMatrix.from_logits,
}


def _cast(arr: np.ndarray, dtype) -> np.ndarray:
    # narrowing turns a value beyond the float32 range into inf and a cast
    # either way quiets a signaling NaN, unwarned: the format's rule refuses both
    with np.errstate(over="ignore", invalid="ignore"):
        return arr.astype(dtype)


def _check_sums(arr: np.ndarray, kind: int, error: type, path) -> None:
    if kind == EMISSION_KIND_PROBS and not rows_sum_to_one(arr, STORED_ROW_SUM_TOL):
        raise error(f"{path}: probability rows do not sum to 1 within the storage tolerance")


def write_emission_file(path: str | Path, array: np.ndarray, kind: int) -> None:
    """Write probabilities (kind 0) or logits (kind 1), narrowed to float32;
    InvalidValue for a file that `load_emission_matrix` would refuse."""
    if kind not in _TO_EMISSIONS:
        raise ValueError(f"unknown emission kind {kind}")
    narrowed = _cast(named(f"{path}: ", as_rows, array, "emissions", 2), "<f4")
    stored = narrowed.astype(np.float64)
    _check_sums(stored, kind, InvalidValue, path)
    named(f"{path}: ", _TO_EMISSIONS[kind], stored)
    header = _EMISSION_HEADER.pack(EMISSION_MAGIC, FORMAT_VERSION, kind, 0, *narrowed.shape)
    Path(path).write_bytes(header + narrowed.tobytes())


def _read_rows(path, layout: struct.Struct, magic: bytes, what: str, width_name: str,
               min_width: int, check_fields=None) -> tuple[list, np.ndarray]:
    """Validate a header and payload shared by both formats.

    Returns the header fields between version and dimensions, passed first to
    `check_fields(path, *fields)` when given, and the payload as a float64
    (T, width) array.
    """
    with open(path, "rb") as f:
        buf = f.read()
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
    return fields, _cast(arr, np.float64)


def _check_emission_fields(path, kind: int, reserved: int) -> None:
    if reserved != 0:
        raise FormatError(f"{path}: reserved byte is {reserved}")
    if kind not in _TO_EMISSIONS:
        raise FormatError(f"{path}: unknown emission kind {kind}")


def read_emission_file(path: str | Path) -> tuple[np.ndarray, int]:
    """Read an emission file; returns (float64 array, kind)."""
    (kind, _), arr = _read_rows(path, _EMISSION_HEADER, EMISSION_MAGIC, "emission",
                                "V_total", 2, _check_emission_fields)
    _check_sums(arr, kind, FormatError, path)
    return arr, kind


def load_emission_matrix(path: str | Path) -> EmissionMatrix:
    """Read an emission file as a validated EmissionMatrix: probability rows
    renormalized to undo the 32-bit narrowing, logits through the softmax."""
    arr, kind = read_emission_file(path)
    return named(f"{path}: ", _TO_EMISSIONS[kind], arr)


def check_finite(error: type, path, what: str, *arrays: np.ndarray) -> None:
    """`error` naming `path` unless every value is finite: a writer's and its reader's rule."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise error(f"{path}: {what} must be finite numbers")


def _narrow_features(path, array: np.ndarray) -> np.ndarray:
    """The features as stored, float32 (an array that already is one is used
    as it is); InvalidValue naming `path` if one is NaN or beyond the float32
    range."""
    narrowed = np.asarray(array)
    if narrowed.dtype != "<f4" or narrowed.ndim != 2 or 0 in narrowed.shape:
        narrowed = _cast(as_rows(narrowed, "features", 1), "<f4")
    check_finite(InvalidValue, path, "features", narrowed)
    return narrowed


def write_feature_file(path: str | Path, array: np.ndarray) -> None:
    """InvalidValue if a feature is NaN or beyond the float32 range."""
    narrowed = _narrow_features(path, array)
    header = _FEATURE_HEADER.pack(FEATURE_MAGIC, FORMAT_VERSION, *narrowed.shape)
    Path(path).write_bytes(header + narrowed.tobytes())


def read_feature_file(path: str | Path) -> np.ndarray:
    """Read a feature file; FormatError if a feature is NaN or infinite."""
    _, arr = _read_rows(path, _FEATURE_HEADER, FEATURE_MAGIC, "feature", "m", 1)
    check_finite(FormatError, path, "features", arr)
    return arr
