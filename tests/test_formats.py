import struct

import numpy as np
import pytest

import ctctag as c
from ctctag.formats import (
    EMISSION_KIND_LOGITS,
    EMISSION_KIND_PROBS,
    STORED_ROW_SUM_TOL,
)


def normalized_rows(rng, t_frames, v_total):
    raw = rng.random((t_frames, v_total)) + 1e-3
    return raw / raw.sum(axis=1, keepdims=True)


class TestEmissionRoundTrip:
    def test_write_read_write_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(31)
        probs = normalized_rows(rng, 9, 5)
        first = tmp_path / "a.ctcl"
        second = tmp_path / "b.ctcl"
        c.write_emission_file(first, probs, EMISSION_KIND_PROBS)
        arr, kind = c.read_emission_file(first)
        assert kind == EMISSION_KIND_PROBS
        c.write_emission_file(second, arr, kind)
        assert first.read_bytes() == second.read_bytes()

    def test_read_matches_input_within_float32(self, tmp_path):
        rng = np.random.default_rng(32)
        logits = rng.normal(size=(6, 4)) * 10
        path = tmp_path / "l.ctcl"
        c.write_emission_file(path, logits, EMISSION_KIND_LOGITS)
        arr, kind = c.read_emission_file(path)
        assert kind == EMISSION_KIND_LOGITS
        np.testing.assert_array_equal(arr, logits.astype(np.float32).astype(np.float64))

    def test_header_layout_is_sixteen_bytes(self, tmp_path):
        path = tmp_path / "h.ctcl"
        c.write_emission_file(path, np.full((2, 3), 1 / 3), EMISSION_KIND_PROBS)
        buf = path.read_bytes()
        assert len(buf) == 16 + 2 * 3 * 4
        magic, version, kind, reserved, t_frames, v_total = struct.unpack_from(
            "<4sHBBII", buf
        )
        assert (magic, version, kind, reserved) == (b"CTCL", 1, 0, 0)
        assert (t_frames, v_total) == (2, 3)

    def test_payload_is_little_endian_float32_row_major(self, tmp_path):
        path = tmp_path / "p.ctcl"
        rows = np.array([[0.25, 0.75], [1.0, 0.0]])
        c.write_emission_file(path, rows, EMISSION_KIND_PROBS)
        payload = path.read_bytes()[16:]
        assert payload == rows.astype("<f4").tobytes()


class TestEmissionWriteValidation:
    def test_rejects_unknown_kind(self, tmp_path):
        with pytest.raises(ValueError):
            c.write_emission_file(tmp_path / "x.ctcl", np.full((1, 2), 0.5), 2)

    def test_rejects_bad_shapes(self, tmp_path):
        with pytest.raises(c.ShapeError):
            c.write_emission_file(tmp_path / "x.ctcl", np.ones(4), EMISSION_KIND_PROBS)
        with pytest.raises(c.ShapeError):
            c.write_emission_file(
                tmp_path / "x.ctcl", np.ones((2, 1)), EMISSION_KIND_PROBS
            )

    def test_rejects_unnormalized_probability_rows(self, tmp_path):
        for rows in ([[0.5, 0.6]], [[np.nan, 0.5]]):
            with pytest.raises(ValueError):
                c.write_emission_file(tmp_path / "x.ctcl", np.array(rows), EMISSION_KIND_PROBS)

    def test_logits_rows_are_unconstrained(self, tmp_path):
        c.write_emission_file(
            tmp_path / "x.ctcl", np.array([[100.0, -50.0]]), EMISSION_KIND_LOGITS
        )


class TestEmissionReadErrors:
    def make_file(self, tmp_path):
        path = tmp_path / "base.ctcl"
        c.write_emission_file(path, np.full((10, 3), 1 / 3), EMISSION_KIND_PROBS)
        return path

    def test_bad_magic(self, tmp_path):
        path = self.make_file(tmp_path)
        buf = bytearray(path.read_bytes())
        buf[:4] = b"XXXX"
        path.write_bytes(bytes(buf))
        with pytest.raises(c.FormatError):
            c.read_emission_file(path)

    def test_short_header(self, tmp_path):
        path = tmp_path / "short.ctcl"
        path.write_bytes(b"CTCL")
        with pytest.raises(c.TruncatedFile):
            c.read_emission_file(path)

    def test_truncated_payload(self, tmp_path):
        path = self.make_file(tmp_path)
        buf = path.read_bytes()
        path.write_bytes(buf[: 16 + 9 * 3 * 4])  # drop the last row
        with pytest.raises(c.TruncatedFile):
            c.read_emission_file(path)

    def test_trailing_bytes(self, tmp_path):
        path = self.make_file(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(c.FormatError):
            c.read_emission_file(path)

    def test_unsupported_version(self, tmp_path):
        path = self.make_file(tmp_path)
        buf = bytearray(path.read_bytes())
        struct.pack_into("<H", buf, 4, 9)
        path.write_bytes(bytes(buf))
        with pytest.raises(c.UnsupportedVersion):
            c.read_emission_file(path)

    def test_nonzero_reserved_byte(self, tmp_path):
        path = self.make_file(tmp_path)
        buf = bytearray(path.read_bytes())
        buf[7] = 1
        path.write_bytes(bytes(buf))
        with pytest.raises(c.FormatError):
            c.read_emission_file(path)

    def test_unknown_kind_byte(self, tmp_path):
        path = self.make_file(tmp_path)
        buf = bytearray(path.read_bytes())
        buf[6] = 7
        path.write_bytes(bytes(buf))
        with pytest.raises(c.FormatError):
            c.read_emission_file(path)

    def test_zero_dimension(self, tmp_path):
        path = tmp_path / "dims.ctcl"
        path.write_bytes(struct.pack("<4sHBBII", b"CTCL", 1, 0, 0, 0, 3))
        with pytest.raises(c.FormatError):
            c.read_emission_file(path)
        path.write_bytes(struct.pack("<4sHBBII", b"CTCL", 1, 0, 0, 2, 1) + b"\x00" * 8)
        with pytest.raises(c.FormatError):
            c.read_emission_file(path)

    def test_header_claiming_the_largest_frame_count(self, tmp_path):
        path = tmp_path / "huge.ctcl"
        path.write_bytes(struct.pack("<4sHBBII", b"CTCL", 1, 0, 0, 2**32 - 1, 3) + b"\x00" * 12)
        with pytest.raises(c.TruncatedFile):
            c.read_emission_file(path)

    def test_probability_rows_checked_on_read(self, tmp_path):
        path = tmp_path / "sums.ctcl"
        for rows in ([[0.9, 0.9]], [[np.nan, 0.5]], [[np.inf, 0.0]]):
            bad = np.array(rows, dtype="<f4")
            path.write_bytes(struct.pack("<4sHBBII", b"CTCL", 1, 0, 0, 1, 2) + bad.tobytes())
            with pytest.raises(c.FormatError):
                c.read_emission_file(path)


class TestLoadEmissionMatrix:
    def test_probability_kind_renormalizes_storage_error(self, tmp_path):
        # rows off by just under the storage tolerance still load exactly
        path = tmp_path / "near.ctcl"
        rows = np.array([[0.5, 0.5 + STORED_ROW_SUM_TOL * 0.5]], dtype=np.float64)
        c.write_emission_file(path, rows, EMISSION_KIND_PROBS)
        m = c.load_emission_matrix(path)
        np.testing.assert_allclose(m.probs.sum(axis=1), 1.0, atol=1e-15)

    def test_logit_kind_applies_softmax(self, tmp_path):
        path = tmp_path / "soft.ctcl"
        logits = np.array([[2.0, 0.0, -1.0]])
        c.write_emission_file(path, logits, EMISSION_KIND_LOGITS)
        m = c.load_emission_matrix(path)
        expected = c.softmax_rows(logits.astype(np.float32).astype(np.float64))
        np.testing.assert_allclose(m.probs, expected, atol=1e-15)

    def test_logit_kind_with_infinite_logits_is_rejected(self, tmp_path):
        path = tmp_path / "inf.ctcl"
        c.write_emission_file(path, np.array([[0.0, 1.0], [np.inf, 0.0]]), EMISSION_KIND_LOGITS)
        with pytest.raises(ValueError, match="non-finite logits"):
            c.load_emission_matrix(path)

    def test_round_trip_preserves_greedy_decode(self, tmp_path):
        rng = np.random.default_rng(33)
        m = c.EmissionMatrix(normalized_rows(rng, 20, 6))
        path = tmp_path / "dec.ctcl"
        c.write_emission_file(path, m.probs, EMISSION_KIND_PROBS)
        loaded = c.load_emission_matrix(path)
        assert c.greedy_decode(loaded).labels == c.greedy_decode(m).labels


class TestFeatureFiles:
    def test_write_read_write_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(34)
        feats = rng.normal(size=(12, 16))
        first = tmp_path / "a.ctcf"
        second = tmp_path / "b.ctcf"
        c.write_feature_file(first, feats)
        c.write_feature_file(second, c.read_feature_file(first))
        assert first.read_bytes() == second.read_bytes()

    def test_header_layout_is_fourteen_bytes(self, tmp_path):
        path = tmp_path / "h.ctcf"
        c.write_feature_file(path, np.zeros((3, 2)))
        buf = path.read_bytes()
        assert len(buf) == 14 + 3 * 2 * 4
        magic, version, t_frames, dim = struct.unpack_from("<4sHII", buf)
        assert (magic, version, t_frames, dim) == (b"CTCF", 1, 3, 2)

    def test_read_widens_to_float64(self, tmp_path):
        path = tmp_path / "w.ctcf"
        c.write_feature_file(path, np.ones((2, 2)))
        arr = c.read_feature_file(path)
        assert arr.dtype == np.float64

    def test_error_ladder(self, tmp_path):
        short = tmp_path / "short.ctcf"
        short.write_bytes(b"CTCF")
        with pytest.raises(c.TruncatedFile):
            c.read_feature_file(short)

        bad_magic = tmp_path / "magic.ctcf"
        bad_magic.write_bytes(struct.pack("<4sHII", b"NOPE", 1, 1, 1) + b"\x00" * 4)
        with pytest.raises(c.FormatError):
            c.read_feature_file(bad_magic)

        versioned = tmp_path / "v.ctcf"
        versioned.write_bytes(struct.pack("<4sHII", b"CTCF", 2, 1, 1) + b"\x00" * 4)
        with pytest.raises(c.UnsupportedVersion):
            c.read_feature_file(versioned)

        truncated = tmp_path / "trunc.ctcf"
        truncated.write_bytes(struct.pack("<4sHII", b"CTCF", 1, 2, 2) + b"\x00" * 4)
        with pytest.raises(c.TruncatedFile):
            c.read_feature_file(truncated)

        trailing = tmp_path / "trail.ctcf"
        trailing.write_bytes(struct.pack("<4sHII", b"CTCF", 1, 1, 1) + b"\x00" * 8)
        with pytest.raises(c.FormatError):
            c.read_feature_file(trailing)

        for t_frames, dim in [(0, 2), (2, 0)]:
            zero = tmp_path / f"zero_{t_frames}_{dim}.ctcf"
            zero.write_bytes(struct.pack("<4sHII", b"CTCF", 1, t_frames, dim))
            with pytest.raises(c.FormatError):
                c.read_feature_file(zero)

    def test_rejects_bad_shape(self, tmp_path):
        with pytest.raises(c.ShapeError):
            c.write_feature_file(tmp_path / "x.ctcf", np.ones(5))
