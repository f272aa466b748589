import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftaseg.errors import ConfigError, DataError
from ftaseg.preprocess import (
    ManifestEntry,
    SliceManifest,
    WindowSpec,
    build_manifest,
    plane,
    read_manifest,
    slice_filename,
    slice_volume,
    split_train_val,
    window_normalize,
    write_manifest,
)
from ftaseg.volume import NORMALIZED, RAW, Volume


def vol_of(values):
    return Volume(np.asarray(values, dtype=np.float32), RAW)


class TestWindowNormalize:
    def test_lower_bound_maps_to_zero(self):
        v = window_normalize(vol_of([[[500.0]]]), WindowSpec(500, 2000))
        assert v.data[0, 0, 0] == 0.0
        assert v.value_unit == NORMALIZED

    def test_linear_midpoint(self):
        v = window_normalize(vol_of([[[1250.0]]]), WindowSpec(500, 2000))
        assert v.data[0, 0, 0] == 0.5

    def test_clamps_above_top(self):
        v = window_normalize(vol_of([[[2500.0]]]), WindowSpec(500, 2000))
        assert v.data[0, 0, 0] == 1.0

    def test_clamps_below_bottom(self):
        v = window_normalize(vol_of([[[-200.0]]]), WindowSpec(500, 2000))
        assert v.data[0, 0, 0] == 0.0

    def test_default_window_is_500_2000(self):
        assert WindowSpec() == WindowSpec(500.0, 2000.0)
        v = window_normalize(vol_of([[[1250.0]]]))
        assert v.data[0, 0, 0] == 0.5

    def test_bad_window_rejected(self):
        with pytest.raises(ConfigError):
            WindowSpec(2000, 500)
        with pytest.raises(ConfigError):
            WindowSpec(700, 700)

    def test_requires_raw_volume(self):
        normalized = Volume(np.zeros((1, 1, 1), dtype=np.float32), NORMALIZED)
        with pytest.raises(DataError):
            window_normalize(normalized)

    def test_monotone_and_in_range(self):
        rng = np.random.default_rng(0)
        xs = np.sort(rng.uniform(-500, 3000, 64)).astype(np.float32)
        v = window_normalize(vol_of(xs.reshape(1, 1, -1)))
        out = v.data[0, 0]
        assert (np.diff(out) >= 0).all()
        assert out.min() >= 0.0 and out.max() <= 1.0


class TestSliceVolume:
    def test_paper_slice_count(self):
        # 640 + 640 + 400 per the three slicing planes
        v = Volume(np.zeros((640, 640, 400), dtype=np.float32))
        assert len(slice_volume(v)) == 1680

    def test_minimal_volume(self):
        v = vol_of([[[3.5]]])
        slices = slice_volume(v)
        assert len(slices) == 3
        assert {axis for axis, _, _ in slices} == {"x", "y", "z"}
        assert all(u.shape == (1, 1) and u[0, 0] == 3.5 for _, _, u in slices)

    def test_z_reassembly_identity(self):
        rng = np.random.default_rng(5)
        v = Volume(rng.random((5, 6, 7), dtype=np.float32))
        z_slices = [(i, u) for axis, i, u in slice_volume(v) if axis == "z"]
        stacked = np.stack([u for _, u in sorted(z_slices, key=lambda s: s[0])])
        assert np.array_equal(stacked, v.data)

    def test_slice_shapes_per_axis(self):
        v = Volume(np.zeros((2, 3, 4), dtype=np.float32))
        shapes = {axis: u.shape for axis, _, u in slice_volume(v)}
        assert shapes["x"] == (2, 3)  # fix x -> depth x height
        assert shapes["y"] == (2, 4)
        assert shapes["z"] == (3, 4)

    def test_plane_is_the_indexed_view(self):
        data = np.arange(2 * 3 * 4, dtype=np.float32).reshape(2, 3, 4)
        assert np.array_equal(plane(data, "x", 3), data[:, :, 3])
        assert np.array_equal(plane(data, "y", 1), data[:, 1, :])
        assert np.array_equal(plane(data, "z", 0), data[0])
        assert np.shares_memory(plane(data, "y", 1), data)
        for axis, index in (("x", 4), ("y", 3), ("z", 2), ("z", -1)):
            with pytest.raises(DataError):
                plane(data, axis, index)

    def test_ordering_by_axis_then_index(self):
        v = Volume(np.zeros((2, 2, 2), dtype=np.float32))
        tags = [(axis, i) for axis, i, _ in slice_volume(v)]
        assert tags == sorted(tags)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 8))
    def test_count_identity_property(self, d, h, w):
        v = Volume(np.zeros((d, h, w), dtype=np.float32))
        assert len(slice_volume(v)) == d + h + w


class TestManifestAndSplit:
    def make_manifest(self, n, source="v0"):
        entries = [
            ManifestEntry(slice_filename(source, i, "z"), "z", i, source)
            for i in range(n)
        ]
        return SliceManifest(tuple(entries))

    def test_filename_suffix_convention(self):
        # Planes scored on their own are named after source, index and axis.
        assert slice_filename("vol7", 12, "x") == "vol7_12_x.vol"

    @pytest.mark.parametrize(
        "axis,index,split", [("w", 0, "train"), ("x", -1, "train"), ("x", 0, "test")]
    )
    def test_entry_rejects_bad_axis_index_and_split(self, axis, index, split):
        with pytest.raises(DataError):
            ManifestEntry("vol7.vol", axis, index, "vol7", split)

    def test_split_floor_arithmetic_paper_count(self):
        m = self.make_manifest(1680)
        out = split_train_val(m, 0.10, seed=1)
        assert len(out.subset("val")) == 168
        assert len(out.subset("train")) == 1512

    def test_split_floor_small(self):
        out = split_train_val(self.make_manifest(10), 0.10, seed=0)
        assert len(out.subset("val")) == 1

    def test_split_deterministic_per_seed(self):
        m = self.make_manifest(50)
        a = split_train_val(m, 0.2, seed=42)
        b = split_train_val(m, 0.2, seed=42)
        assert a == b
        c = split_train_val(m, 0.2, seed=43)
        assert a != c

    def test_split_partitions(self):
        m = self.make_manifest(37)
        out = split_train_val(m, 0.25, seed=9)
        train, val = set(out.subset("train")), set(out.subset("val"))
        assert len(train) + len(val) == 37
        assert not {e.file for e in train} & {e.file for e in val}

    def test_split_rejects_bad_fraction(self):
        m = self.make_manifest(5)
        for frac in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ConfigError):
                split_train_val(m, frac, seed=0)

    def test_split_rejects_empty_manifest(self):
        with pytest.raises(DataError):
            split_train_val(SliceManifest(()), 0.1, seed=0)

    def test_split_by_volume_keeps_volumes_whole(self):
        entries = []
        for source in ("a", "b", "c", "d"):
            for i in range(6):
                entries.append(
                    ManifestEntry(slice_filename(source, i, "z"), "z", i, source)
                )
        out = split_train_val(SliceManifest(tuple(entries)), 0.25, seed=3,
                              by_volume=True)
        val_sources = {e.source_id for e in out.subset("val")}
        assert len(val_sources) == 1
        assert all(
            e.split == ("val" if e.source_id in val_sources else "train")
            for e in out.entries
        )

    def test_manifest_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        v = Volume(rng.random((2, 3, 4), dtype=np.float32))
        m = split_train_val(
            build_manifest(slice_volume(v), "vv", mask_file="vv_mask.vol"), 0.2, seed=0
        )
        path = tmp_path / "manifest.csv"
        write_manifest(m, path)
        assert read_manifest(path) == m
        assert {(e.file, e.mask_file) for e in m.entries} == {("vv.vol", "vv_mask.vol")}
        header = path.read_text().splitlines()[0]
        assert header == "file,mask_file,axis,index,source_id,split"

    def test_manifest_rejects_non_integer_index(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text(
            "file,mask_file,axis,index,source_id,split\nv.vol,,x,one,v,train\n"
        )
        with pytest.raises(DataError):
            read_manifest(path)

    def test_manifest_entry_count_identity(self):
        v = Volume(np.zeros((3, 4, 5), dtype=np.float32))
        m = build_manifest(slice_volume(v), "s")
        assert len(m) == 3 + 4 + 5
