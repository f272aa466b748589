import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ftaseg.errors import DataError
from ftaseg.model import ModelShape, PatchMLP
from ftaseg.pipeline import _load_windowed
from ftaseg.preprocess import WindowSpec
from ftaseg.ssl import predict_volume
from ftaseg.volume import (
    MaskVolume,
    Volume,
    load_mask,
    load_volume,
    save_mask,
    save_volume,
)

from oracles import count_nonzero_scan


def random_volume(rng, dims):
    return Volume(rng.random(dims, dtype=np.float32) * 100.0)


def random_mask(rng, dims):
    return MaskVolume((rng.random(dims) < 0.4).astype(np.uint8))


def vol1(code, dims, payload):
    """A VOL1 file's bytes, built by hand: header, then the payload as given."""
    return struct.pack("<4sBIII", b"VOL1", code, *dims) + bytes(payload)


def packed_bits(data):
    """The bytes of a code-3 payload: voxel i is bit i % 8 of byte i // 8."""
    flat = np.ravel(data)
    out = bytearray(-(-flat.size // 8))
    for i in np.flatnonzero(flat):
        out[i // 8] |= 1 << (i % 8)
    return bytes(out)


class TestVolumeInvariants:
    def test_dims_and_length(self):
        v = Volume(np.zeros((2, 3, 5), dtype=np.float32))
        assert v.dims == (2, 3, 5)
        assert v.data.size == 30

    def test_zero_dim_rejected(self):
        with pytest.raises(DataError):
            Volume(np.zeros((0, 3, 3), dtype=np.float32))

    def test_immutable(self):
        v = Volume(np.zeros((2, 2, 2), dtype=np.float32))
        with pytest.raises(ValueError):
            v.data[0, 0, 0] = 1.0

    def test_does_not_mutate_caller_array(self):
        arr = np.zeros((2, 2, 2), dtype=np.float32)
        Volume(arr)
        arr[0, 0, 0] = 7.0  # still writable

    def test_mask_values_enforced(self):
        MaskVolume(np.ones((2, 2, 2), dtype=np.uint8))
        with pytest.raises(DataError, match=r"mask values must be in \{0, 1\}"):
            MaskVolume(np.full((2, 2, 2), 2, dtype=np.uint8))
        with pytest.raises(DataError, match=r"mask values must be in \{0, 1\}"):
            MaskVolume(np.full((2, 2, 2), 0.5))

    def test_loaded_and_predicted_masks_skip_the_value_scan(
        self, tmp_path, monkeypatch
    ):
        # The loader has checked or unpacked a mask's values to {0, 1}, and a
        # prediction thresholds them there, so neither runs the public
        # constructor's scan; their masks are read-only like its masks.
        data = (np.random.default_rng(9).random((3, 4, 5)) < 0.5).astype(np.uint8)
        packed, bytewise = tmp_path / "packed.vol", tmp_path / "bytewise.vol"
        save_mask(MaskVolume(data), packed)
        bytewise.write_bytes(vol1(2, data.shape, data.tobytes()))
        model = PatchMLP.init_random(ModelShape(3, 4, 3), 0)
        vol = Volume(np.random.default_rng(10).random((3, 6, 5), dtype=np.float32))

        def no_scan(self):
            pytest.fail("a known-binary mask was scanned")

        monkeypatch.setattr(MaskVolume, "__post_init__", no_scan)
        masks = [load_mask(packed), load_mask(bytewise), predict_volume(model, vol)]
        monkeypatch.undo()
        for m in masks:
            assert type(m) is MaskVolume and m.data.dtype == np.uint8
            assert not m.data.flags.writeable
        assert masks[0].data.tobytes() == masks[1].data.tobytes() == data.tobytes()
        assert masks[2].data.tobytes() == MaskVolume(masks[2].data).data.tobytes()


class TestVol1RoundTrip:
    def test_volume_round_trip_bytes_and_values(self, tmp_path):
        rng = np.random.default_rng(0)
        v = random_volume(rng, (4, 4, 4))
        p1, p2 = tmp_path / "a.vol", tmp_path / "b.vol"
        save_volume(v, p1)
        loaded = load_volume(p1)
        assert np.array_equal(loaded.data, v.data)
        save_volume(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_save_deterministic(self, tmp_path):
        v = random_volume(np.random.default_rng(1), (3, 2, 5))
        save_volume(v, tmp_path / "a.vol")
        save_volume(v, tmp_path / "b.vol")
        assert (tmp_path / "a.vol").read_bytes() == (tmp_path / "b.vol").read_bytes()

    def test_minimal_payload_is_one_float(self, tmp_path):
        v = Volume(np.full((1, 1, 1), 0.5, dtype=np.float32))
        path = tmp_path / "one.vol"
        save_volume(v, path)
        blob = path.read_bytes()
        assert len(blob) == 21  # 17-byte header + one f32
        assert np.frombuffer(blob[17:], dtype="<f4")[0] == 0.5

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.vol"
        path.write_bytes(b"XXXX" + bytes(13))
        with pytest.raises(DataError, match="VOL1"):
            load_volume(path)

    def test_truncated_payload(self, tmp_path):
        v = random_volume(np.random.default_rng(2), (2, 3, 5))
        path = tmp_path / "t.vol"
        save_volume(v, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-4])
        with pytest.raises(DataError, match="length"):
            load_volume(path)

    def test_length_arithmetic_on_load(self, tmp_path):
        v = random_volume(np.random.default_rng(3), (2, 3, 5))
        path = tmp_path / "v.vol"
        save_volume(v, path)
        assert load_volume(path).data.size == 30

    def test_zero_dim_header(self, tmp_path):
        import struct

        path = tmp_path / "z.vol"
        path.write_bytes(struct.pack("<4sBIII", b"VOL1", 1, 0, 3, 3))
        with pytest.raises(DataError, match="zero dimension"):
            load_volume(path)

    def test_mask_round_trip(self, tmp_path):
        m = random_mask(np.random.default_rng(4), (3, 3, 3))
        path = tmp_path / "m.vol"
        save_mask(m, path)
        assert np.array_equal(load_mask(path).data, m.data)

    def test_mask_payload_byte_outside_binary(self, tmp_path):
        path = tmp_path / "m.vol"
        path.write_bytes(vol1(2, (2, 2, 2), [0] * 7 + [2]))
        with pytest.raises(DataError, match="outside"):
            load_mask(path)

    def test_all_zero_mask_loads(self, tmp_path):
        m = MaskVolume(np.zeros((2, 2, 2), dtype=np.uint8))
        path = tmp_path / "m.vol"
        save_mask(m, path)
        loaded = load_mask(path)
        assert loaded.voxel_count() == 0
        assert loaded.data.size == 8

    def test_dtype_mismatch(self, tmp_path):
        v = random_volume(np.random.default_rng(5), (2, 2, 2))
        path = tmp_path / "v.vol"
        save_volume(v, path)
        with pytest.raises(DataError):
            load_mask(path)

    @settings(max_examples=25, deadline=None)
    @given(
        d=st.integers(1, 5), h=st.integers(1, 5), w=st.integers(1, 5),
        seed=st.integers(0, 10**6),
    )
    def test_round_trip_property(self, d, h, w, seed):
        rng = np.random.default_rng(seed)
        with tempfile.TemporaryDirectory() as tmp_str:
            tmp = Path(tmp_str)
            v = random_volume(rng, (d, h, w))
            save_volume(v, tmp / "v.vol")
            assert np.array_equal(load_volume(tmp / "v.vol").data, v.data)
            m = random_mask(rng, (d, h, w))
            save_mask(m, tmp / "m.vol")
            assert np.array_equal(load_mask(tmp / "m.vol").data, m.data)


class TestBitPackedMasks:
    """Masks are saved with dtype code 3, one bit per voxel; code 2, one
    byte per voxel, is still read."""

    @settings(max_examples=40, deadline=None)
    @given(
        dims=st.one_of(
            st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
            # Several chunks of packing, the last one short.
            st.tuples(st.integers(1, 3), st.integers(60, 90), st.integers(60, 90)),
        ),
        density=st.sampled_from([0.0, 0.4, 1.0]),
        seed=st.integers(0, 10**6),
    )
    def test_round_trip_with_padding(self, dims, density, seed):
        assume(np.prod(dims) % 8 != 0)
        data = (np.random.default_rng(seed).random(dims) < density).astype(np.uint8)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.vol"
            save_mask(MaskVolume(data), path)
            assert path.read_bytes() == vol1(3, dims, packed_bits(data))
            loaded = load_mask(path)
        assert loaded.data.dtype == np.uint8
        assert loaded.data.tobytes() == data.tobytes()

    def test_bit_order_is_little(self, tmp_path):
        # Voxel 0 is bit 0 of byte 0; voxel 9 is bit 1 of byte 1; the
        # 6 padding bits of byte 1 are zero.
        data = np.zeros((1, 1, 10), np.uint8)
        data[0, 0, [0, 9]] = 1
        save_mask(MaskVolume(data), tmp_path / "m.vol")
        assert (tmp_path / "m.vol").read_bytes()[17:] == bytes([0b1, 0b10])

    def test_non_contiguous_mask_saves_its_voxels(self, tmp_path):
        data = (np.random.default_rng(6).random((4, 6, 7)) < 0.5).astype(np.uint8)
        view = data[:, 1:5, ::2]
        save_mask(MaskVolume(view), tmp_path / "m.vol")
        assert np.array_equal(load_mask(tmp_path / "m.vol").data, view)

    @pytest.mark.parametrize("bit", range(3, 8))
    def test_set_padding_bit_rejected(self, tmp_path, bit):
        # 3 x 1 x 1 voxels: bits 3..7 of the only byte are padding.
        path = tmp_path / "m.vol"
        path.write_bytes(vol1(3, (3, 1, 1), [0b101 | 1 << bit]))
        with pytest.raises(DataError, match="padding") as err:
            load_mask(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_wrong_payload_length_rejected(self, tmp_path, extra):
        # 4 x 5 x 3 = 60 voxels take 8 bytes.
        path = tmp_path / "m.vol"
        path.write_bytes(vol1(3, (4, 5, 3), bytes(8 + extra)))
        with pytest.raises(DataError, match="payload length") as err:
            load_mask(path)
        assert str(path) in str(err.value)

    def test_load_volume_rejects_a_packed_mask(self, tmp_path):
        path = tmp_path / "m.vol"
        save_mask(MaskVolume(np.ones((2, 2, 2), np.uint8)), path)
        with pytest.raises(DataError, match="expected float32 volume, found dtype 3"):
            load_volume(path)

    def test_byte_per_voxel_mask_still_loads(self, tmp_path):
        data = (np.random.default_rng(7).random((3, 4, 5)) < 0.5).astype(np.uint8)
        path = tmp_path / "m.vol"
        path.write_bytes(vol1(2, data.shape, data.tobytes()))
        assert load_mask(path).data.tobytes() == data.tobytes()


class TestLoadMemory:
    """A load reads the payload into the array it returns, once or, for a
    packed mask, a bounded chunk at a time: the traced peak of one load of a
    48^3 file stays near the size of the array it returns."""

    DIMS = (48, 48, 48)

    @staticmethod
    def peak_ratio(load, path, payload_bytes):
        load(path)  # first-call allocations (imports, caches) are not the load's
        tracemalloc.start()
        try:
            load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / payload_bytes

    def test_load_volume_holds_one_payload(self, tmp_path):
        path = tmp_path / "v.vol"
        save_volume(random_volume(np.random.default_rng(0), self.DIMS), path)
        assert self.peak_ratio(load_volume, path, 4 * 48**3) <= 1.05

    def test_load_mask_holds_one_payload(self, tmp_path):
        path = tmp_path / "m.vol"
        save_mask(random_mask(np.random.default_rng(1), self.DIMS), path)
        assert self.peak_ratio(load_mask, path, 48**3) <= 1.05

    def test_windowed_load_windows_in_place(self, tmp_path):
        # The finite-voxel check's boolean temporary is the only extra.
        path = tmp_path / "v.vol"
        save_volume(random_volume(np.random.default_rng(2), self.DIMS), path)
        windowed = lambda p: _load_windowed(p, WindowSpec())  # noqa: E731
        assert self.peak_ratio(windowed, path, 4 * 48**3) <= 1.3


class TestSaveMemory:
    """A save writes the array's own buffer, or packs it a bounded chunk at
    a time: one save of a 48^3 volume or mask allocates no payload copy."""

    DIMS = TestLoadMemory.DIMS

    def test_save_volume_copies_no_payload(self, tmp_path):
        v = random_volume(np.random.default_rng(3), self.DIMS)
        save = lambda p: save_volume(v, p)  # noqa: E731
        assert TestLoadMemory.peak_ratio(save, tmp_path / "v.vol", 4 * 48**3) <= 0.05

    def test_save_mask_copies_no_payload(self, tmp_path):
        m = random_mask(np.random.default_rng(4), self.DIMS)
        save = lambda p: save_mask(m, p)  # noqa: E731
        assert TestLoadMemory.peak_ratio(save, tmp_path / "m.vol", 48**3) <= 0.1


class TestVoxelSet:
    """The foreground voxel set of a mask, counted by MaskVolume.voxel_count."""

    def test_cardinality_matches_scan_oracle(self):
        rng = np.random.default_rng(11)
        m = random_mask(rng, (4, 4, 4))
        assert m.voxel_count() == count_nonzero_scan(m.data)

    def test_cardinality_equals_mask_sum_property(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            m = random_mask(rng, tuple(rng.integers(1, 6, 3)))
            assert m.voxel_count() == int(m.data.sum())
