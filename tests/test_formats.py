import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        for shape in [(0, 3), (2, 3, 1)]:
            for kind in (EMISSION_KIND_PROBS, EMISSION_KIND_LOGITS):
                with pytest.raises(c.ShapeError, match="x.ctcl: "):
                    c.write_emission_file(tmp_path / "x.ctcl", np.ones(shape), kind)
        assert not (tmp_path / "x.ctcl").exists()

    def test_rejects_unnormalized_probability_rows(self, tmp_path):
        # [2, -1] sums to 1 but is no distribution; 1e39 is inf in float32
        for rows in ([[0.5, 0.6]], [[np.nan, 0.5]], [[2.0, -1.0]], [[1.0, 0.0], [0.5, -1e-3]],
                     [[np.inf, 0.0]], [[1e39, 0.0]]):
            with pytest.raises(c.InvalidValue, match="x.ctcl: "):
                c.write_emission_file(tmp_path / "x.ctcl", np.array(rows), EMISSION_KIND_PROBS)
        assert not (tmp_path / "x.ctcl").exists()

    def test_logits_rows_are_unconstrained(self, tmp_path):
        c.write_emission_file(
            tmp_path / "x.ctcl", np.array([[100.0, -50.0]]), EMISSION_KIND_LOGITS
        )
        # unconstrained by any row sum, but the softmax needs a finite maximum
        # per row, as load_emission_matrix does
        for rows in ([[np.nan, 0.0]], [[np.inf, 0.0]], [[-np.inf, -np.inf]], [[1e39, 0.0]]):
            with pytest.raises(c.InvalidValue, match="y.ctcl: "):
                c.write_emission_file(tmp_path / "y.ctcl", np.array(rows), EMISSION_KIND_LOGITS)
        assert not (tmp_path / "y.ctcl").exists()


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
        with pytest.raises(c.FormatError, match=": 1 trailing bytes$"):
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
        logits = np.array([[0.0, 1.0], [np.inf, 0.0]])
        # laid out by hand: write_emission_file refuses the infinite logit
        header = struct.pack("<4sHBBII", b"CTCL", 1, EMISSION_KIND_LOGITS, 0, *logits.shape)
        path.write_bytes(header + logits.astype("<f4").tobytes())
        with pytest.raises(ValueError, match="inf.ctcl: non-finite logits"):
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
        with pytest.raises(c.FormatError, match=": 4 trailing bytes$"):
            c.read_feature_file(trailing)

        for t_frames, dim in [(0, 2), (2, 0)]:
            zero = tmp_path / f"zero_{t_frames}_{dim}.ctcf"
            zero.write_bytes(struct.pack("<4sHII", b"CTCF", 1, t_frames, dim))
            with pytest.raises(c.FormatError):
                c.read_feature_file(zero)

    def test_rejects_bad_shape(self, tmp_path):
        with pytest.raises(c.ShapeError):
            c.write_feature_file(tmp_path / "x.ctcf", np.ones(5))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e39, -1e300])
    def test_rejects_what_the_reader_refuses(self, tmp_path, value):
        # beyond the float32 range a feature would be stored as infinite
        feats = np.zeros((2, 3))
        feats[1, 2] = value
        with pytest.raises(c.InvalidValue, match="x.ctcf"):
            c.write_feature_file(tmp_path / "x.ctcf", feats)
        assert not (tmp_path / "x.ctcf").exists()


#: float32 bit patterns: a signaling NaN (numpy warns when widening it),
#: a quiet NaN, +inf and -inf
SIGNALING_NAN, QUIET_NAN, POS_INF, NEG_INF = 0x7FA00000, 0x7FC00000, 0x7F800000, 0xFF800000


def _feature_file(path, bits: int):
    """A 2x2 feature file whose last value has the given float32 bits."""
    payload = struct.pack("<3fI", 0.5, -1.0, 2.0, bits)
    path.write_bytes(struct.pack("<4sHII", b"CTCF", 1, 2, 2) + payload)
    return path


def _emission_file(path, kind: int, bits: int):
    """A 2x3 emission file of uniform rows whose last value has the given
    float32 bits."""
    payload = struct.pack("<5fI", *[1 / 3] * 5, bits)
    path.write_bytes(struct.pack("<4sHBBII", b"CTCL", 1, kind, 0, 2, 3) + payload)
    return path


class TestNonFiniteValues:
    @pytest.mark.parametrize("bits", [SIGNALING_NAN, QUIET_NAN, POS_INF, NEG_INF],
                             ids=["snan", "qnan", "inf", "-inf"])
    def test_feature_file_with_a_non_finite_value_is_a_format_error(self, tmp_path, bits):
        path = _feature_file(tmp_path / "f.ctcf", bits)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(c.FormatError, match="f.ctcf"):
                c.read_feature_file(path)

    @pytest.mark.parametrize("kind", [EMISSION_KIND_PROBS, EMISSION_KIND_LOGITS])
    def test_signaling_nan_in_an_emission_file_raises_without_a_warning(self, tmp_path, kind):
        path = _emission_file(tmp_path / "e.ctcl", kind, SIGNALING_NAN)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(c.CtcTagError):
                c.load_emission_matrix(path)

    def test_logits_may_hold_minus_infinity_beside_a_finite_value(self, tmp_path):
        path = _emission_file(tmp_path / "e.ctcl", EMISSION_KIND_LOGITS, NEG_INF)
        emissions = c.load_emission_matrix(path)
        assert emissions.probs[1, 2] == 0.0
        np.testing.assert_allclose(emissions.probs[1], [0.5, 0.5, 0.0])


def _fuzzed(data, seed: bytes, header_size: int) -> bytes:
    """`seed` truncated, with some bytes overwritten, or with a header u32
    field replaced."""
    buf = bytearray(seed)
    action = data.draw(st.sampled_from(["truncate", "overwrite", "splice"]))
    if action == "truncate":
        return bytes(buf[: data.draw(st.integers(0, len(buf) - 1))])
    if action == "overwrite":
        for _ in range(data.draw(st.integers(1, 4))):
            at = data.draw(st.integers(0, len(buf) - 1))
            buf[at] = data.draw(st.integers(0, 255))
        return bytes(buf)
    # T and the width are the last two u32 fields of either header
    offset = data.draw(st.sampled_from([header_size - 8, header_size - 4]))
    value = data.draw(st.one_of(st.integers(0, 8), st.integers(0, 2**32 - 1)))
    struct.pack_into("<I", buf, offset, value)
    return bytes(buf)


@pytest.fixture(scope="module")
def fuzz_seeds(tmp_path_factory):
    """(path, valid contents, header size, loader) for each file kind."""
    tmp = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(7)
    c.write_feature_file(tmp / "f.ctcf", rng.normal(size=(3, 4)))
    c.write_emission_file(tmp / "p.ctcl", normalized_rows(rng, 3, 4), EMISSION_KIND_PROBS)
    c.write_emission_file(tmp / "l.ctcl", rng.normal(size=(3, 4)), EMISSION_KIND_LOGITS)
    return [
        (tmp / "f.ctcf", (tmp / "f.ctcf").read_bytes(), 14, c.read_feature_file),
        (tmp / "p.ctcl", (tmp / "p.ctcl").read_bytes(), 16, c.load_emission_matrix),
        (tmp / "l.ctcl", (tmp / "l.ctcl").read_bytes(), 16, c.load_emission_matrix),
    ]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_reader_fuzz_loads_or_raises_a_package_error(fuzz_seeds, data):
    """Every damaged .ctcf or .ctcl file either loads or raises a
    CtcTagError, and never warns."""
    path, seed, header_size, load = data.draw(st.sampled_from(fuzz_seeds))
    path.write_bytes(_fuzzed(data, seed, header_size))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            load(path)
        except c.CtcTagError:
            pass


#: values that probe each rule: NaN, both infinities, the float32 range
#: edge, beyond it, and negative entries
_EDGE_VALUES = [np.nan, np.inf, -np.inf, 3.4e38, 3.5e38, 1e300, -1e39, -1.0, -1e-3, 0.0, 2.0]


@st.composite
def _rows(draw):
    """An array for a writer: usually (T, width) rows, half of them made to
    sum to 1, with a few entries replaced by edge values; sometimes one
    column, an empty axis or the wrong rank."""
    shape = draw(st.sampled_from([(1, 2), (2, 3), (3, 4), (4, 5), (2, 2), (3, 1), (0, 3), (2, 0),
                                  (4,), (2, 2, 2)]))
    arr = np.array(draw(st.lists(
        st.floats(-5.0, 5.0) | st.floats(allow_nan=True, allow_infinity=True),
        min_size=int(np.prod(shape)), max_size=int(np.prod(shape)),
    ))).reshape(shape)
    if arr.ndim == 2 and arr.size and draw(st.booleans()):
        arr = np.clip(np.abs(np.nan_to_num(arr)), 1e-3, 5.0)
        arr /= arr.sum(axis=1, keepdims=True)
    for _ in range(draw(st.integers(0, 2)) if arr.size else 0):
        index = tuple(draw(st.integers(0, n - 1)) for n in arr.shape)
        arr[index] = draw(st.sampled_from(_EDGE_VALUES))
    return arr


@pytest.fixture(scope="module")
def agreement_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("agreement")


def _writer_refuses_or_reader_accepts(path, write, read):
    path.unlink(missing_ok=True)
    try:
        write(path)
    except c.CtcTagError:
        assert not path.exists()
        return
    read(path)


@settings(max_examples=400, deadline=None)
@given(rows=_rows(), fmt=st.sampled_from(["ctcf", "probs", "logits"]))
def test_a_writer_refuses_every_file_its_reader_would_refuse(agreement_dir, rows, fmt):
    """Each .ctcf and .ctcl writer either raises a CtcTagError and writes
    nothing, or writes a file that its reader accepts."""
    path = agreement_dir / f"x.{fmt}"
    if fmt == "ctcf":
        _writer_refuses_or_reader_accepts(
            path, lambda p: c.write_feature_file(p, rows), c.read_feature_file)
    else:
        kind = EMISSION_KIND_PROBS if fmt == "probs" else EMISSION_KIND_LOGITS
        _writer_refuses_or_reader_accepts(
            path, lambda p: c.write_emission_file(p, rows, kind), c.load_emission_matrix)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_save_model_refuses_every_model_load_model_would_refuse(agreement_dir, data):
    """A model whose weights hold NaN, an infinity or an extreme float is
    refused by save_model, writing nothing, or loads back."""
    model = c.ToyModel.init(2, 3, np.random.default_rng(data.draw(st.integers(0, 9))),
                            receptive_field=1, hidden_width=2)
    for name in data.draw(st.lists(st.sampled_from(["w1", "b1", "w2", "b2"]), max_size=3)):
        weight = getattr(model, name)
        index = tuple(data.draw(st.integers(0, n - 1)) for n in weight.shape)
        weight[index] = data.draw(
            st.sampled_from(_EDGE_VALUES) | st.floats(allow_nan=True, allow_infinity=True))
    _writer_refuses_or_reader_accepts(
        agreement_dir / "model.json", lambda p: c.save_model(model, p), c.load_model)
