import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftaseg.errors import DataError
from ftaseg.pipeline import _load_windowed
from ftaseg.preprocess import WindowSpec
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
        with pytest.raises(DataError):
            MaskVolume(np.full((2, 2, 2), 2, dtype=np.uint8))
        with pytest.raises(DataError):
            MaskVolume(np.full((2, 2, 2), 0.5))


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
        m = MaskVolume(np.zeros((2, 2, 2), dtype=np.uint8))
        path = tmp_path / "m.vol"
        save_mask(m, path)
        blob = bytearray(path.read_bytes())
        blob[-1] = 2
        path.write_bytes(bytes(blob))
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
        import tempfile
        from pathlib import Path

        rng = np.random.default_rng(seed)
        with tempfile.TemporaryDirectory() as tmp_str:
            tmp = Path(tmp_str)
            v = random_volume(rng, (d, h, w))
            save_volume(v, tmp / "v.vol")
            assert np.array_equal(load_volume(tmp / "v.vol").data, v.data)
            m = random_mask(rng, (d, h, w))
            save_mask(m, tmp / "m.vol")
            assert np.array_equal(load_mask(tmp / "m.vol").data, m.data)


class TestLoadMemory:
    """A load reads the payload once into the array it returns: the traced
    peak of one load of a 48^3 file stays near the payload's size."""

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
    """A save writes the array's own buffer: one save of a 48^3 volume or
    mask allocates only the file object's fixed buffers, no payload copy."""

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
