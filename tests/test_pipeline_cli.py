import dataclasses
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ftaseg
from ftaseg.cli import build_parser, main
from ftaseg.errors import ConfigError, DataError
from ftaseg.fourier import FtaConfig
from ftaseg.model import ModelShape, TrainSchedule
from ftaseg.pipeline import (
    BenchmarkSpec,
    PipelineConfig,
    flat_keys,
    generate_benchmark,
    load_train_slices,
    load_unlabeled_slices,
    parse_pipeline_config,
    render_overlay,
    run_pipeline,
    score_files,
    slice_dir,
    train_stage1_files,
    window_dir,
    write_kv_config,
)
from ftaseg.preprocess import (
    SliceManifest,
    WindowSpec,
    read_manifest,
    slice_volume,
    write_manifest,
)
from ftaseg.ssl import StageConfig, evaluate_volumes
from ftaseg.volume import (
    MaskVolume,
    Volume,
    load_mask,
    load_volume,
    save_mask,
    save_volume,
)

from test_ssl import fail_in_supervised_lane

FAST = dict(
    synth_dim=12,
    synth_labeled=2,
    synth_unlabeled=3,
    synth_val=1,
    synth_ellipsoids=1,
    synth_radius_min=2.0,
    synth_radius_max=3.0,
    stage1_epochs=1,
    stage1_pseudo_count=1,
    stage2_iters=6,
    val_points=2,
)


# Settings that parse as numbers but that no run can use, with the start of
# the error each one raises.
UNUSABLE_SETTINGS = (
    ("lr", "nan", "base_lr must be finite"),
    ("lr", "inf", "base_lr must be finite"),
    ("unsup_weight", "nan", "unsup_weight must be finite"),
    ("pseudo_weight", "inf", "pseudo_weight must be finite"),
    ("synth_labeled", "-1", "volume counts must be >= 0"),
    ("shift_gain", "0", "shift_gain must be > 0"),
    ("shift_gamma", "-1", "shift_gamma must be > 0"),
    ("shift_field", "-5", "shift_field must be >= 0"),
    ("shift_bias", "inf", "shift_bias must be finite"),
    ("synth_fg_mean", "nan", "fg_mean must be finite"),
    ("synth_bg_std", "-40", "bg_std must be >= 0"),
    ("synth_radius_min", "0", "radius range must satisfy 0 < radius_min"),
    ("synth_radius_max", "6.5", "radius_max 6.5 does not fit in dim 12"),
    ("synth_ellipsoids", "-1", "ellipsoids must be >= 0"),
    ("synth_dim", "0", "dim must be >= 1"),
    ("val_fraction", "nan", "val_fraction must be in"),
    ("window_top", "inf", "window bounds must be finite"),
)

# Every float key, optional or not: each must reject NaN and +-inf when the
# config is built.
FLOAT_KEYS = tuple(
    f.name for f in dataclasses.fields(PipelineConfig) if "float" in f.type
)


def fast_config(**kw):
    return PipelineConfig(**{**FAST, **kw})


def vol_depth(path):
    # D from the VOL1 header: magic (4 bytes), dtype code (1), then D, H, W.
    return int(np.frombuffer(path.read_bytes()[5:9], dtype="<u4")[0])


class TestConfig:
    def test_round_trip(self, tmp_path):
        cfg = fast_config(seed=9, fta_mode="standard-fda", fta_lambda=0.5)
        path = tmp_path / "cfg.txt"
        write_kv_config(cfg, path)
        assert parse_pipeline_config(path) == cfg

    def test_empty_config_is_runnable_defaults(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        assert parse_pipeline_config(path) == PipelineConfig()

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not_a_field = 3\n")
        with pytest.raises(ConfigError):
            parse_pipeline_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        # On top of the fast config, whose 12-cube some settings do not fit.
        write_kv_config(fast_config(), path)
        fast = path.read_text()
        for key, raw, msg in (
            ("stage2_iters", "many", "bad value for stage2_iters"),
            ("fta_lambda", "0.x", "bad value for fta_lambda"),
            *UNUSABLE_SETTINGS,
        ):
            path.write_text(f"{fast}{key} = {raw}\n")
            with pytest.raises(ConfigError, match=msg):
                parse_pipeline_config(path)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# a comment\n\nseed = 4\n")
        assert parse_pipeline_config(path).seed == 4

    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig(fta_mode="nope")

    # The flat keys in config.txt's order.
    KEYS = (
        "labeled_dir", "unlabeled_dir", "val_dir", "seed", "window_bottom",
        "window_top", "val_fraction", "split_by_volume", "fta_lambda",
        "fta_lambda_max", "fta_beta", "fta_mode", "stage1_epochs",
        "stage1_pseudo_count", "stage2_iters", "batch_size", "lr", "patch",
        "hidden1", "hidden2", "perturb_rate", "threshold_momentum",
        "pseudo_weight", "unsup_weight", "supervised_only", "val_points",
        "synth_dim", "synth_labeled", "synth_unlabeled", "synth_val",
        "synth_ellipsoids", "synth_radius_min", "synth_radius_max",
        "synth_fg_mean", "synth_fg_spread", "synth_fg_std", "synth_bg_mean",
        "synth_bg_std", "shift_gain", "shift_bias", "shift_gamma", "shift_field",
    )
    SUB_CONFIGS = (
        WindowSpec, FtaConfig, StageConfig, ModelShape, TrainSchedule, BenchmarkSpec,
    )

    def test_keys_in_config_file_order(self):
        assert tuple(f.name for f in dataclasses.fields(PipelineConfig)) == self.KEYS
        assert len(FLOAT_KEYS) == 22

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "bin.txt"
        path.write_bytes(b"\xff\xfe\x00bad")
        with pytest.raises(ConfigError, match=re.escape(f"config file {path} is not")):
            parse_pipeline_config(path)

    # Arbitrary bytes, and lines of known keys with arbitrary values.
    CONFIG_BYTES = st.one_of(
        st.binary(max_size=64),
        st.lists(
            st.tuples(st.sampled_from(KEYS), st.text(max_size=8)), max_size=4
        ).map(lambda kv: "".join(f"{k} = {v}\n" for k, v in kv).encode("utf-8")),
    )

    @settings(max_examples=200, deadline=None)
    @given(blob=CONFIG_BYTES)
    def test_any_bytes_parse_or_raise_config_error(self, blob):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cfg.txt"
            path.write_bytes(blob)
            try:  # any other exception fails the test
                parse_pipeline_config(path)
            except ConfigError:
                pass

    @pytest.mark.parametrize("key", FLOAT_KEYS)
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_float_keys_reject_non_finite_values(self, key, value):
        with pytest.raises(ConfigError):
            PipelineConfig(**{key: value})

    def test_flat_defaults_are_the_sub_config_defaults(self):
        cfg = PipelineConfig()
        backed = set()
        for cls in self.SUB_CONFIGS:
            defaults = {f.name: f.default for f in dataclasses.fields(cls)}
            for name, key in flat_keys(cls).items():
                assert getattr(cfg, key) == defaults[name], (cls.__name__, name)
                backed.add(key)
        # Every key but the data paths, val_fraction, split_by_volume,
        # supervised_only and val_points.
        assert len(backed) == 35

    def test_builders_give_the_default_sub_configs(self):
        cfg = PipelineConfig()
        assert cfg.window() == WindowSpec()
        assert cfg.fta_config() == FtaConfig()
        assert cfg.stage_config() == StageConfig()
        assert cfg.model_shape() == ModelShape()
        assert cfg.train_schedule() == TrainSchedule()
        assert cfg.benchmark_spec() == BenchmarkSpec()

    # Each subcommand that takes settings, with its path flags; fta writes
    # to --out-a and --out-b in place of --out.
    SETTINGS_ARGV = {
        "synth": ["--out", "{out}"],
        "window": ["--in", "raw", "--out", "{out}"],
        "slice": ["--in", "raw", "--out", "{out}"],
        "fta": ["--a", "a.vol", "--b", "b.vol", "--out-a", "{out}",
                "--out-b", "{out}/b.vol"],
        "train-stage1": ["--slices", "s", "--out", "{out}"],
        "train-stage2": ["--slices", "s", "--init", "c.seg", "--out", "{out}"],
        "score-dir": ["--checkpoint", "c.seg", "--val", "v", "--out", "{out}"],
        "pipeline": ["--quiet", "--out", "{out}"],
    }

    @pytest.mark.parametrize("case, msg", [
        ("unknown-key", "unknown config key 'nosuch'"),
        ("malformed-set", "--set expects key=value, got 'seed'"),
        ("bad-config-value", "bad value for stage2_iters: 'many'"),
    ])
    @pytest.mark.parametrize("cmd", list(SETTINGS_ARGV))
    def test_settings_rejected_exit_2(self, tmp_path, capsys, cmd, case, msg):
        # Every setting is a PipelineConfig key, read through --config and
        # --set; a bad one fails before the subcommand creates its output.
        cfg, out = tmp_path / "cfg.txt", tmp_path / "out"
        cfg.write_text("stage2_iters = many\n")
        extra = {
            "unknown-key": ["--set", "nosuch=1"],
            "malformed-set": ["--set", "seed"],
            "bad-config-value": ["--config", str(cfg)],
        }[case]
        argv = [a.format(out=out) for a in self.SETTINGS_ARGV[cmd]]
        assert main([cmd, *argv, *extra]) == 2
        assert capsys.readouterr().err == f"config error: {msg}\n"
        assert not out.exists()

    @pytest.mark.parametrize("cmd", list(SETTINGS_ARGV))
    def test_help_lists_every_config_key(self, cmd):
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        parser = sub.choices[cmd]
        keys = [f.name for f in dataclasses.fields(PipelineConfig)]
        assert ", ".join(keys) in " ".join(parser.format_help().split())
        # No flag spells a key: --config and --set carry every setting.
        assert not {a.dest for a in parser._actions} & set(keys)


class TestBenchmark:
    def test_layout_and_masks(self, tmp_path):
        spec = BenchmarkSpec(dim=10, labeled=2, unlabeled=3, val=1, ellipsoids=1,
                             radius_min=2.0, radius_max=3.0, seed=0)
        generate_benchmark(spec, tmp_path)
        labeled = sorted((tmp_path / "labeled").glob("*.vol"))
        assert len(labeled) == 4  # 2 volumes + 2 masks
        assert len(list((tmp_path / "unlabeled").glob("*.vol"))) == 3  # no masks
        assert len(list((tmp_path / "val").glob("*.vol"))) == 2
        assert (tmp_path / "benchmark.csv").exists()

    def test_deterministic(self, tmp_path):
        spec = BenchmarkSpec(dim=10, labeled=1, unlabeled=1, val=1, ellipsoids=1,
                             radius_min=2.0, radius_max=3.0, seed=5)
        generate_benchmark(spec, tmp_path / "a")
        generate_benchmark(spec, tmp_path / "b")
        for rel in ("labeled/lab_000.vol", "unlabeled/unl_000.vol", "val/val_000.vol"):
            assert (tmp_path / "a" / rel).read_bytes() == (
                tmp_path / "b" / rel
            ).read_bytes()

    def test_unlabeled_and_val_are_shifted(self, tmp_path):
        spec = BenchmarkSpec(dim=10, labeled=1, unlabeled=1, val=1, ellipsoids=0,
                             shift_gain=2.0, shift_bias=0.0, shift_field=0.0, seed=1)
        generate_benchmark(spec, tmp_path)
        lab = load_volume(tmp_path / "labeled" / "lab_000.vol")
        unl = load_volume(tmp_path / "unlabeled" / "unl_000.vol")
        assert float(unl.data.mean()) > 1.5 * float(lab.data.mean())


    def test_two_lanes_keep_rows_and_bytes_of_one_lane(self, tmp_path, monkeypatch):
        spec = BenchmarkSpec(dim=10, labeled=2, unlabeled=3, val=2, ellipsoids=1,
                             radius_min=2.0, radius_max=3.0, seed=7)
        save = ftaseg.pipeline.save_volume
        on_main = {}

        def saving(vol, path):
            on_main[Path(path).stem] = (
                threading.current_thread() is threading.main_thread()
            )
            save(vol, path)

        monkeypatch.setattr("ftaseg.pipeline.save_volume", saving)
        threads = threading.active_count()
        # A short switch interval makes the lanes interleave finely; both
        # create the unlabeled/ directory.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            generate_benchmark(spec, tmp_path / "two")
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == threads
        ids = ["lab_000", "lab_001", "unl_000", "unl_001", "unl_002",
               "val_000", "val_001"]
        # The calling thread builds the first half of the volumes.
        assert on_main == {vid: k < 4 for k, vid in enumerate(ids)}
        assert (tmp_path / "two" / "benchmark.csv").read_text().splitlines() == [
            "id,split,file,mask_file",
            "lab_000,labeled,lab_000.vol,lab_000_mask.vol",
            "lab_001,labeled,lab_001.vol,lab_001_mask.vol",
            "unl_000,unlabeled,unl_000.vol,",
            "unl_001,unlabeled,unl_001.vol,",
            "unl_002,unlabeled,unl_002.vol,",
            "val_000,val,val_000.vol,val_000_mask.vol",
            "val_001,val,val_001.vol,val_001_mask.vol",
        ]
        # Each volume has its own seeds: a loop over the volumes in one lane
        # writes the same bytes.
        monkeypatch.setattr("ftaseg.pipeline.in_two_lanes",
                            lambda fn, items, *_: [fn(x, None) for x in items])
        generate_benchmark(spec, tmp_path / "one")
        files = sorted(p.relative_to(tmp_path / "one")
                       for p in (tmp_path / "one").rglob("*") if p.is_file())
        assert len(files) == 12
        for rel in files:
            assert (tmp_path / "two" / rel).read_bytes() == (
                tmp_path / "one" / rel).read_bytes()

    def test_unplaceable_spec_raises_the_placement_error(self, tmp_path):
        spec = BenchmarkSpec(dim=16, labeled=2, unlabeled=2, val=1, ellipsoids=30,
                             radius_min=3.0, radius_max=3.0)
        threads = threading.active_count()
        with pytest.raises(DataError, match="^could not place 30 non-overlapping "
                                            "ellipsoids after 1000 attempts$"):
            generate_benchmark(spec, tmp_path)
        assert threading.active_count() == threads
        assert not (tmp_path / "benchmark.csv").exists()

    @pytest.mark.parametrize(
        "bad, first",
        [
            ({"lab_001"}, "lab_001"),  # the calling thread's lane (lab_*, unl_000)
            ({"val_000"}, "val_000"),  # the worker lane (unl_001, val_000)
            ({"unl_000", "unl_001"}, "unl_000"),  # both lanes: the earlier volume
        ],
        ids=["calling-lane", "worker-lane", "both-lanes"],
    )
    def test_first_failing_volume_surfaces_from_either_lane(
        self, tmp_path, monkeypatch, bad, first
    ):
        spec = BenchmarkSpec(dim=10, labeled=2, unlabeled=2, val=1, ellipsoids=1,
                             radius_min=2.0, radius_max=3.0, seed=3)
        save = ftaseg.pipeline.save_volume
        saved = []

        def saving(vol, path):
            vid = Path(path).stem
            if threading.current_thread() is not threading.main_thread():
                time.sleep(0.02)  # the worker lane lags behind
            if vid in bad:
                raise DataError(f"cannot write {vid}")
            save(vol, path)
            saved.append(vid)

        def upto_first_bad(lane):
            return set(lane[:next((k for k, v in enumerate(lane) if v in bad),
                                  len(lane))])

        monkeypatch.setattr("ftaseg.pipeline.save_volume", saving)
        threads = threading.active_count()
        with pytest.raises(DataError, match=f"^cannot write {first}$"):
            generate_benchmark(spec, tmp_path)
        # Each lane stopped at its first failure, and the worker lane had
        # finished before the error was raised.
        assert set(saved) == (upto_first_bad(["lab_000", "lab_001", "unl_000"])
                              | upto_first_bad(["unl_001", "val_000"]))
        assert threading.active_count() == threads
        assert not (tmp_path / "benchmark.csv").exists()


class TestWindowSliceDirs:
    def make_raw_dir(self, tmp_path, n=2, dims=(4, 5, 6)):
        rng = np.random.default_rng(0)
        src = tmp_path / "raw"
        src.mkdir()
        for i in range(n):
            vol = Volume(rng.uniform(0, 2500, dims).astype(np.float32))
            save_volume(vol, src / f"v{i}.vol")
            mask = MaskVolume((rng.random(dims) < 0.3).astype(np.uint8))
            save_mask(mask, src / f"v{i}_mask.vol")
        return src

    def test_window_dir_outputs_normalized_and_copies_masks(self, tmp_path):
        src = self.make_raw_dir(tmp_path)
        out = tmp_path / "win"
        count = window_dir(src, out, WindowSpec(500, 2000))
        assert count == 2
        v = load_volume(out / "v0.vol")
        assert v.data.min() >= 0.0 and v.data.max() <= 1.0
        assert (out / "v0_mask.vol").read_bytes() == (src / "v0_mask.vol").read_bytes()

    def test_slice_dir_counts_and_mask_slices(self, tmp_path):
        src = self.make_raw_dir(tmp_path, n=1)
        out = tmp_path / "slices"
        manifest = slice_dir(src, out, fast_config(val_fraction=0.2, seed=3))
        assert len(manifest) == 4 + 5 + 6
        assert len(manifest.subset("val")) == 3  # floor(0.2 * 15)
        # Every row points back at the raw volume and the mask beside it;
        # the slice directory holds nothing but the manifest.
        for entry in manifest.entries:
            assert (out / entry.file).resolve() == (src / "v0.vol").resolve()
            assert (out / entry.mask_file).resolve() == (src / "v0_mask.vol").resolve()
        assert [p.name for p in out.iterdir()] == ["manifest.csv"]
        reread = read_manifest(out / "manifest.csv")
        assert reread == manifest

    def test_loaded_planes_match_slice_volume(self, tmp_path):
        # The loaders window the raw volumes as they read them; the planes
        # carry the bytes of ``ftaseg window``'s output for the same window.
        src, win = self.make_raw_dir(tmp_path, n=3), tmp_path / "win"
        w = WindowSpec(400, 1900)
        window_dir(src, win, w)
        out = tmp_path / "slices"
        manifest = slice_dir(src, out, fast_config(val_fraction=0.2, seed=1))
        expected = {}
        for vid in ("v0", "v1", "v2"):
            vol = load_volume(win / f"{vid}.vol")
            assert vol.data.min() >= 0.0 and vol.data.max() <= 1.0
            mask = Volume(load_mask(win / f"{vid}_mask.vol").data.astype(np.float32))
            for (axis, i, image), (_, _, target) in zip(
                slice_volume(vol), slice_volume(mask)
            ):
                expected[(vid, axis, i)] = (image, target)

        def key(e):
            return (e.source_id, e.axis, e.index)

        for split in ("train", "val"):
            loaded = load_train_slices(out, manifest, w, split)
            rows = manifest.subset(split)
            assert len(loaded) == len(rows)
            for ts, e in zip(loaded, rows):
                image, target = expected[key(e)]
                assert ts.image.tobytes() == image.tobytes()
                assert np.array_equal(ts.target, target)
        # The masks of v2 and v0 as pseudo masks: their planes come in id
        # order, and v1 alone forms the pool.
        pseudo, pool = load_unlabeled_slices(
            src, {"v2": src / "v2_mask.vol", "v0": src / "v0_mask.vol"}, w, 0.5
        )

        def planes_of(vid):  # in slice_volume order
            return [planes for k, planes in expected.items() if k[0] == vid]

        assert len(pseudo) == len(planes_of("v0")) + len(planes_of("v2"))
        for ts, (image, target) in zip(pseudo, planes_of("v0") + planes_of("v2")):
            assert ts.image.tobytes() == image.tobytes()
            assert np.array_equal(ts.target, target)
            assert ts.weight == 0.5
        assert len(pool) == len(planes_of("v1"))
        for u, (image, _) in zip(pool, planes_of("v1")):
            assert u.tobytes() == image.tobytes()

    @pytest.mark.parametrize(
        "field,value",
        [("index", 6), ("file", "gone.vol"), ("mask_file", "gone_mask.vol"),
         ("mask_file", "")],
    )
    def test_bad_manifest_row_is_a_data_error(self, tmp_path, field, value):
        src = self.make_raw_dir(tmp_path, n=1)
        out = tmp_path / "slices"
        # Sliced at a real split; the corrupted row is a train row, which
        # every stage loads.
        manifest = slice_dir(src, out, fast_config(val_fraction=0.2, seed=0))
        first = manifest.entries[0]
        assert manifest.subset("val")
        # x planes run 0..5
        assert (first.axis, first.index, first.split) == ("x", 0, "train")
        bad = dataclasses.replace(first, **{field: value})
        write_manifest(
            SliceManifest((bad,) + manifest.entries[1:]), out / "manifest.csv"
        )
        with pytest.raises(DataError):
            load_train_slices(out, read_manifest(out / "manifest.csv"), WindowSpec())
        if field == "file":  # unlabeled volumes are found by a mask's id
            with pytest.raises(DataError, match="gone.vol"):
                load_unlabeled_slices(src, {"gone": src / "v0_mask.vol"}, WindowSpec())
        rc = main(["train-stage1", "--slices", str(out), "--out", str(tmp_path / "s1"),
                   "--set", "stage1_epochs=1", "--set", "stage1_pseudo_count=0"])
        assert rc == 3

    def test_missing_dir_raises(self, tmp_path):
        with pytest.raises(DataError):
            window_dir(tmp_path / "nope", tmp_path / "o", WindowSpec())


class TestStage1Files:
    def test_reads_only_the_unlabeled_volumes_it_picks(self, tmp_path):
        cfg = fast_config(synth_unlabeled=6, stage1_pseudo_count=2, seed=6)
        data, slc = tmp_path / "data", tmp_path / "slices"
        generate_benchmark(cfg.benchmark_spec(), data)
        slice_dir(data / "labeled", slc, cfg)

        def stage1(out):
            return train_stage1_files(slc, data / "unlabeled", tmp_path / out, cfg)

        ckpt_a, picked, _ = stage1("a")
        assert len(picked) == 2
        manifest = (tmp_path / "a" / "manifest.txt").read_text()
        assert f"pseudo_selected = {','.join(sorted(picked))}\n" in manifest
        others = [p for p in (data / "unlabeled").glob("*.vol") if p.stem not in picked]
        assert len(others) == 4
        for path in others:  # unreadable unless stage 1 skips them
            path.write_bytes(path.read_bytes()[:-4])

        # A mask an earlier run left behind would train stage 2.
        (tmp_path / "b" / "pseudo").mkdir(parents=True)
        save_mask(MaskVolume(np.zeros((2, 2, 2), np.uint8)),
                  tmp_path / "b" / "pseudo" / "stale_mask.vol")
        ckpt_b, picked_b, _ = stage1("b")
        assert picked_b == picked
        assert ckpt_b.read_bytes() == ckpt_a.read_bytes()
        pseudo_a = sorted(p.name for p in (tmp_path / "a" / "pseudo").iterdir())
        assert pseudo_a == sorted(p.name for p in (tmp_path / "b" / "pseudo").iterdir())
        assert pseudo_a == sorted(f"{vid}_mask.vol" for vid in picked)
        for name in pseudo_a:
            assert (tmp_path / "b" / "pseudo" / name).read_bytes() == (
                tmp_path / "a" / "pseudo" / name
            ).read_bytes()


class TestOverlay:
    def test_empty_masks_pure_grayscale(self, tmp_path):
        rng = np.random.default_rng(1)
        slc = rng.random((3, 4), dtype=np.float32)
        empty = np.zeros((3, 4), dtype=np.uint8)
        path = tmp_path / "o.ppm"
        render_overlay(slc, empty, empty, path)
        blob = path.read_bytes()
        assert blob.startswith(b"P6\n4 3\n255\n")
        rgb = np.frombuffer(blob.split(b"255\n", 1)[1], dtype=np.uint8).reshape(3, 4, 3)
        assert np.array_equal(rgb[..., 0], rgb[..., 1])
        assert np.array_equal(rgb[..., 1], rgb[..., 2])

    def test_agreement_shows_only_overlap_tint(self, tmp_path):
        slc = np.full((2, 2), 0.5, dtype=np.float32)
        mask = np.array([[1, 0], [0, 1]], dtype=np.uint8)
        path = tmp_path / "o.ppm"
        render_overlay(slc, mask, mask, path)
        rgb = np.frombuffer(
            path.read_bytes().split(b"255\n", 1)[1], dtype=np.uint8
        ).reshape(2, 2, 3)
        overlap = rgb[mask.astype(bool)]
        assert np.all(overlap[:, 2] == 255)  # blue channel saturated
        assert np.all(overlap[:, 0] < 255) and np.all(overlap[:, 1] < 255)
        plain = rgb[~mask.astype(bool)]
        assert np.all(plain[:, 0] == plain[:, 1])

    def test_deterministic_bytes(self, tmp_path):
        rng = np.random.default_rng(2)
        slc = rng.random((5, 5), dtype=np.float32)
        pred = (rng.random((5, 5)) < 0.3).astype(np.uint8)
        gt = (rng.random((5, 5)) < 0.3).astype(np.uint8)
        render_overlay(slc, pred, gt, tmp_path / "a.ppm")
        render_overlay(slc, pred, gt, tmp_path / "b.ppm")
        assert (tmp_path / "a.ppm").read_bytes() == (tmp_path / "b.ppm").read_bytes()

    def test_shape_mismatch(self, tmp_path):
        slc = np.zeros((2, 2), dtype=np.float32)
        with pytest.raises(DataError):
            render_overlay(slc, np.zeros((3, 3)), np.zeros((2, 2)), tmp_path / "x.ppm")


class TestRunPipeline:
    def test_completes_and_scores_in_range(self, tmp_path):
        paths = run_pipeline(fast_config(seed=1), tmp_path / "run")
        lines = paths.scores_csv.read_text().strip().splitlines()
        assert lines[0] == "case,dice,iou,hd_raw,hd_norm,score"
        for line in lines[1:]:
            score = float(line.split(",")[-1])
            assert 0.0 <= score <= 1.0
        assert (tmp_path / "run" / "config.txt").exists()
        assert (tmp_path / "run" / "run.log").exists()
        assert (tmp_path / "run" / "stage1" / "manifest.txt").exists()
        assert (tmp_path / "run" / "stage2" / "manifest.txt").exists()
        # Training planes are cut from the volumes in memory, never written.
        vols = list((tmp_path / "run").rglob("*.vol"))
        assert vols and all(vol_depth(p) > 1 for p in vols)

    def test_metrics_csv_header(self, tmp_path):
        paths = run_pipeline(fast_config(seed=2), tmp_path / "run")
        lines = paths.stage2_metrics.read_text().strip().splitlines()
        assert lines[0] == "epoch,split,dice,iou,hd_norm,score,tau"
        assert len(lines) == 1 + 2  # val_points rows

    def test_validates_once_per_point_and_scores_the_last(self, tmp_path, monkeypatch):
        # scores.csv comes from stage 2's last validation, which runs on the
        # checkpoint's parameters: nothing predicts the volumes again.
        calls = []

        def counting(model, ids, load, *args):
            calls.append(len(ids))
            return evaluate_volumes(model, ids, load, *args)

        monkeypatch.setattr("ftaseg.ssl.evaluate_volumes", counting)
        cfg = fast_config(seed=8, synth_val=3, val_points=3)
        paths = run_pipeline(cfg, tmp_path / "run")
        assert calls == [3] * cfg.val_points
        # metrics.csv: epoch,split,dice,iou,hd_norm,score,tau;
        # scores.csv: case,dice,iou,hd_raw,hd_norm,score.
        last = paths.stage2_metrics.read_text().splitlines()[-1].split(",")
        mean = paths.scores_csv.read_text().splitlines()[-1].split(",")
        assert mean[0] == "mean"
        assert last[2:6] == [mean[1], mean[2], mean[4], mean[5]]
        score_files(paths.stage2_ckpt, tmp_path / "run" / "data" / "val",
                    tmp_path / "rescored.csv", cfg.window())
        assert (tmp_path / "rescored.csv").read_text() == paths.scores_csv.read_text()

    def test_missing_labeled_dir_fails_in_preprocess(self, tmp_path):
        cfg = fast_config(labeled_dir=str(tmp_path / "missing"))
        with pytest.raises(DataError, match=r"\[preprocess\]"):
            run_pipeline(cfg, tmp_path / "run")
        log = (tmp_path / "run" / "run.log").read_text()
        assert "preprocess failed" in log

    def test_run_log_has_one_lane_time_line_and_outputs_keep_their_bytes(
        self, tmp_path
    ):
        # Stage 2's lane times go to run.log alone: two runs of one config
        # differ in their timings but in no other file.
        for run in ("a", "b"):
            run_pipeline(fast_config(seed=5), tmp_path / run)
        lanes = re.findall(
            r"^\S+ stage2 lanes: calling (\d+\.\d{3}) s busy, worker "
            r"(\d+\.\d{3}) s busy, calling waited (\d+\.\d{3}) s$",
            (tmp_path / "a" / "run.log").read_text(), re.M,
        )
        assert len(lanes) == 1 and float(lanes[0][1]) > 0
        files = sorted(p.relative_to(tmp_path / "a")
                       for p in (tmp_path / "a").rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(tmp_path / "b")
                               for p in (tmp_path / "b").rglob("*") if p.is_file())
        for f in files:
            if f.name not in ("run.log", "config.txt"):
                text = (tmp_path / "a" / f).read_bytes()
                assert text == (tmp_path / "b" / f).read_bytes(), f
                assert b"lanes" not in text

    def test_run_log_has_a_lane_time_line_per_training_stage(self, tmp_path):
        # On 32^3 volumes a batch of 32 x 32 planes splits across the lanes,
        # in stage 1 and in the supervised-only branch of stage 2, so both
        # stages' workers were busy.
        run_pipeline(fast_config(seed=5, synth_dim=32, supervised_only=True),
                     tmp_path / "run")
        log = (tmp_path / "run" / "run.log").read_text()
        lanes = re.findall(
            r"^\S+ (stage\d) lanes: calling (\d+\.\d{3}) s busy, worker "
            r"(\d+\.\d{3}) s busy, calling waited (\d+\.\d{3}) s$",
            log, re.M,
        )
        assert [stage for stage, *_ in lanes] == ["stage1", "stage2"]
        assert all(float(worker) > 0 for _, _, worker, _ in lanes)
        assert log.index("stage stage1 finished") < log.index("stage1 lanes") < (
            log.index("stage stage2 started"))

    def test_lane_lines_count_pseudo_annotation_and_validation(self, tmp_path):
        # Batches of four 24 x 24 planes are too small to split, and stage 1
        # pseudo-annotates the whole pool, so stage 2 trains supervised-only:
        # each stage's worker ran only the second lane of its inference.
        cfg = fast_config(seed=5, synth_dim=24, synth_unlabeled=4, synth_val=4,
                          stage1_pseudo_count=4, batch_size=4)
        run_pipeline(cfg, tmp_path / "run")
        assert "warning = empty unlabeled pool" in (
            tmp_path / "run" / "stage2" / "manifest.txt").read_text()
        lanes = re.findall(
            r"^\S+ (stage\d) lanes: calling \d+\.\d{3} s busy, worker "
            r"(\d+\.\d{3}) s busy, calling waited \d+\.\d{3} s$",
            (tmp_path / "run" / "run.log").read_text(), re.M,
        )
        assert [stage for stage, _ in lanes] == ["stage1", "stage2"]
        assert all(float(worker) > 0 for _, worker in lanes)

    def test_stage_end_lines_give_elapsed_seconds(self, tmp_path):
        # "<timestamp> stage <name> finished (<seconds> s)", and a failure's
        # message before the seconds.
        def ends(run):
            log = (tmp_path / run / "run.log").read_text()
            end = r"^\S+ stage (\w+) (finished|failed: .*) \(\d+\.\d{3} s\)$"
            return re.findall(end, log, re.M)

        run_pipeline(fast_config(seed=5), tmp_path / "ok")
        assert ends("ok") == [
            (name, "finished")
            for name in ("synth", "preprocess", "stage1", "stage2", "score")
        ]
        missing = tmp_path / "missing"
        with pytest.raises(DataError):
            run_pipeline(fast_config(labeled_dir=str(missing)), tmp_path / "bad")
        assert ends("bad") == [
            ("preprocess", f"failed: labeled directory {missing} does not exist")
        ]

    def test_merged_volume_arithmetic(self, tmp_path):
        run_pipeline(fast_config(seed=3), tmp_path / "run")
        manifest = (tmp_path / "run" / "stage1" / "manifest.txt").read_text()
        assert "merged_volume_count = 3" in manifest  # 2 labeled + 1 pseudo

    @pytest.mark.parametrize("supervised_only", [False, True])
    def test_run_dir_layout(self, tmp_path, supervised_only):
        # Only the labeled set has a slice manifest; stage 2 finds the
        # unlabeled volumes and stage 1's pseudo masks by file name. The
        # stages window the volumes as they load them, so the run writes no
        # volume of its own but the pseudo masks.
        cfg = fast_config(seed=3, supervised_only=supervised_only)
        data, run = tmp_path / "data", tmp_path / "run"
        generate_benchmark(cfg.benchmark_spec(), data)
        run_pipeline(dataclasses.replace(
            cfg, labeled_dir=str(data / "labeled"),
            unlabeled_dir=str(data / "unlabeled"), val_dir=str(data / "val"),
        ), run)
        assert not (run / "windowed").exists()
        assert [p.relative_to(run) for p in run.rglob("manifest.csv")] == [
            Path("slices", "labeled", "manifest.csv")
        ]
        vols = sorted(p.relative_to(run) for p in run.rglob("*.vol"))
        assert all(p.parent == Path("stage1", "pseudo") for p in vols)
        assert bool(vols) != supervised_only
        manifest = (run / "stage1" / "manifest.txt").read_text().splitlines()
        picked = dict(line.split(" = ", 1) for line in manifest)["pseudo_selected"]
        ids = [vid for vid in picked.split(",") if vid]
        assert len(ids) == (0 if supervised_only else FAST["stage1_pseudo_count"])
        assert sorted(p.name for p in (run / "stage1" / "pseudo").iterdir()) == [
            f"{vid}_mask.vol" for vid in sorted(ids)
        ]

    def test_pseudo_mask_without_its_volume_fails_in_stage2(self, tmp_path, monkeypatch):
        # A pseudo-annotated volume gone between the stages: stage 2 cannot
        # pair the mask with it, and the error names the stage and the file.
        def stage1_then_drop(slices, unlabeled, *args):
            ckpt, picked, lanes = train_stage1_files(slices, unlabeled, *args)
            for vid in picked:
                (unlabeled / f"{vid}.vol").unlink()
            return ckpt, picked, lanes

        monkeypatch.setattr("ftaseg.pipeline.train_stage1_files", stage1_then_drop)
        with pytest.raises(DataError, match=r"^\[stage2\] cannot read .*unl_\d+\.vol "):
            run_pipeline(fast_config(seed=3), tmp_path / "run")
        assert "stage stage2 failed" in (tmp_path / "run" / "run.log").read_text()

    def test_supervised_only_skips_pseudo_and_unlabeled(self, tmp_path):
        run_pipeline(fast_config(seed=4, supervised_only=True), tmp_path / "run")
        manifest = (tmp_path / "run" / "stage1" / "manifest.txt").read_text()
        assert "pseudo_selected = \n" in manifest
        stage2 = (tmp_path / "run" / "stage2" / "manifest.txt").read_text()
        assert "unlabeled_slices = 0" in stage2
        assert "supervised-only" in stage2
        # Neither stage reads the unlabeled set, so it is not preprocessed.
        assert not (tmp_path / "run" / "windowed" / "unlabeled").exists()
        assert not (tmp_path / "run" / "slices" / "unlabeled").exists()

    def test_supervised_only_still_checks_the_unlabeled_dir(self, tmp_path):
        cfg = fast_config(supervised_only=True)
        generate_benchmark(cfg.benchmark_spec(), tmp_path / "data")
        cfg = dataclasses.replace(cfg, labeled_dir=str(tmp_path / "data" / "labeled"),
                                  unlabeled_dir=str(tmp_path / "missing"))
        with pytest.raises(DataError, match="unlabeled directory"):
            run_pipeline(cfg, tmp_path / "run")

    def test_without_val_dir_scores_held_out_labeled_slices(self, tmp_path):
        cfg = fast_config(seed=5)
        data = tmp_path / "data"
        generate_benchmark(cfg.benchmark_spec(), data)
        run = tmp_path / "run"
        paths = run_pipeline(
            dataclasses.replace(cfg, labeled_dir=str(data / "labeled"),
                                unlabeled_dir=str(data / "unlabeled")),
            run,
        )
        manifest = read_manifest(run / "slices" / "labeled" / "manifest.csv")
        held_out = sorted(
            manifest.subset("val"), key=lambda e: (e.source_id, e.axis, e.index)
        )
        assert held_out
        lines = paths.scores_csv.read_text().strip().splitlines()
        assert lines[0] == "case,dice,iou,hd_raw,hd_norm,score"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == [
            f"{e.source_id}_{e.index}_{e.axis}.vol" for e in held_out
        ] + ["mean"]
        extent = 2 * (cfg.synth_dim - 1)  # L1 extent of a 1 x dim x dim plane
        for r in rows:
            dice_, iou_, hd_raw, hd_norm, score = map(float, r[1:])
            assert all(0.0 <= v <= 1.0 for v in (dice_, iou_, hd_norm, score))
            assert 0.0 <= hd_raw <= extent


class TestCli:
    def run_cli(self, *args):
        return main(list(args))

    def test_score_subcommand_csv_row(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        pred = MaskVolume((rng.random((3, 3, 3)) < 0.4).astype(np.uint8))
        gt = MaskVolume((rng.random((3, 3, 3)) < 0.4).astype(np.uint8))
        save_mask(pred, tmp_path / "p.vol")
        save_mask(gt, tmp_path / "g.vol")
        rc = self.run_cli(
            "score", "--pred", str(tmp_path / "p.vol"), "--gt", str(tmp_path / "g.vol"),
            "--case", "k7",
        )
        assert rc == 0
        out = capsys.readouterr().out.strip()
        fields = out.split(",")
        assert fields[0] == "k7"
        assert len(fields) == 6
        assert all("." in f and len(f.split(".")[1]) == 6 for f in fields[1:])

    def test_score_missing_file_exit_3(self, tmp_path, capsys):
        rc = self.run_cli("score", "--pred", str(tmp_path / "no.vol"),
                          "--gt", str(tmp_path / "no.vol"))
        assert rc == 3

    def test_pipeline_bad_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.txt"
        # From the fast config, so that a regression fails in seconds.
        write_kv_config(fast_config(), cfg)
        fast = cfg.read_text()
        unusable = [
            case
            for key, raw, msg in UNUSABLE_SETTINGS
            for case in (
                (f"{fast}{key} = {raw}\n", [], msg),
                (fast, ["--set", f"{key}={raw}"], msg),
            )
        ]
        for text, extra, msg in (
            ("window_bottom = 3000\n", [], "window bottom"),  # bottom >= top
            ("fta_lambda = 0.x\n", [], "bad value for fta_lambda"),
            ("", ["--set", "fta_lambda=abc"], "bad value for fta_lambda"),
            *unusable,
        ):
            cfg.write_text(text)
            rc = self.run_cli("pipeline", "--config", str(cfg), "--out",
                              str(tmp_path / "run"), "--quiet", *extra)
            assert rc == 2
            assert f"config error: {msg}" in capsys.readouterr().err
            # Rejected at parse time: no stage started, so no run dir.
            assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("cmd", ["pipeline", "train-stage1"])
    def test_missing_config_file_exit_2(self, tmp_path, capsys, cmd):
        # A configuration error, not an i/o error, and nothing is created.
        cfg, out = tmp_path / "absent.txt", tmp_path / "out"
        argv = {"pipeline": ["--quiet"], "train-stage1": ["--slices", "s"]}[cmd]
        rc = self.run_cli(cmd, *argv, "--config", str(cfg), "--out", str(out))
        assert rc == 2
        assert capsys.readouterr().err == (
            f"config error: cannot read config file {cfg}: No such file or directory\n"
        )
        assert not out.exists()

    def test_non_utf8_config_exit_2(self, tmp_path, capsys):
        cfg, out = tmp_path / "bin.txt", tmp_path / "out"
        cfg.write_bytes(b"\xff\xfe\x00bad")
        rc = self.run_cli("pipeline", "--config", str(cfg), "--out", str(out), "--quiet")
        assert rc == 2
        assert capsys.readouterr().err == (
            f"config error: config file {cfg} is not UTF-8 text (byte 0)\n"
        )
        assert not out.exists()

    def test_pipeline_unknown_key_exit_2(self, tmp_path, capsys):
        # A key that is not a config field fails instead of being ignored.
        # The fast config keeps a run short should the key be accepted.
        out = str(tmp_path / "run")
        cfg = tmp_path / "cfg.txt"
        write_kv_config(fast_config(), cfg)
        rc = self.run_cli("pipeline", "--config", str(cfg), "--set",
                          "use_min_separation=true", "--out", out, "--quiet")
        assert rc == 2
        cfg.write_text(cfg.read_text() + "use_min_separation = true\n")
        rc = self.run_cli("pipeline", "--config", str(cfg), "--out", out, "--quiet")
        assert rc == 2
        assert "unknown config key 'use_min_separation'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("argv", [
        ["score", "--pred", "p.vol", "--gt", "g.vol"],
        ["score-dir", "--checkpoint", "c.seg", "--val", "v", "--out", "s.csv"],
        ["train-stage2", "--slices", "s", "--init", "c.seg", "--out", "o"],
    ], ids=lambda argv: argv[0])
    def test_min_separation_flag_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            self.run_cli(*argv, "--min-separation")
        assert exc.value.code == 2
        assert "unrecognized arguments: --min-separation" in capsys.readouterr().err

    def test_score_dir_rejects_checkpoint_with_moments_exit_3(self, tmp_path, capsys):
        # A payload that still carries both optimizer moments after the
        # params: 3 * n_params float32 values.
        val = tmp_path / "val"
        val.mkdir()
        rng = np.random.default_rng(6)
        data = rng.random((4, 4, 4)).astype(np.float32)
        save_volume(Volume(data), val / "v0.vol")
        save_mask(MaskVolume((data > 0.5).astype(np.uint8)), val / "v0_mask.vol")
        model = ftaseg.PatchMLP.init_random(ftaseg.ModelShape(), 0)
        ckpt = tmp_path / "old.seg"
        ftaseg.save_checkpoint(model, 3, ckpt)
        ckpt.write_bytes(ckpt.read_bytes() + bytes(8 * model.shape.n_params))
        rc = self.run_cli("score-dir", "--checkpoint", str(ckpt), "--val", str(val),
                          "--out", str(tmp_path / "scores.csv"))
        assert rc == 3
        assert "parameter payload" in capsys.readouterr().err
        assert not (tmp_path / "scores.csv").exists()

    @pytest.mark.parametrize(
        "offset, value", [(4, 4), (8, 0)], ids=["even-patch", "zero-hidden1"]
    )
    def test_score_dir_rejects_checkpoint_with_bad_shape_exit_3(
        self, tmp_path, capsys, offset, value
    ):
        # A header whose patch or hidden width ModelShape refuses is bad
        # file content, not a bad configuration.
        val = tmp_path / "val"
        val.mkdir()
        data = np.random.default_rng(7).random((4, 4, 4)).astype(np.float32)
        save_volume(Volume(data), val / "v0.vol")
        save_mask(MaskVolume((data > 0.5).astype(np.uint8)), val / "v0_mask.vol")
        ckpt = tmp_path / "bad.seg"
        model = ftaseg.PatchMLP.init_random(ftaseg.ModelShape(), 0)
        ftaseg.save_checkpoint(model, 3, ckpt)
        blob = bytearray(ckpt.read_bytes())
        blob[offset:offset + 4] = value.to_bytes(4, "little")
        ckpt.write_bytes(bytes(blob))
        rc = self.run_cli("score-dir", "--checkpoint", str(ckpt), "--val", str(val),
                          "--out", str(tmp_path / "scores.csv"))
        assert rc == 3
        assert f"data error: {ckpt}: bad model shape" in capsys.readouterr().err
        assert not (tmp_path / "scores.csv").exists()

    def test_pipeline_rejects_thin_volume_in_preprocess_exit_3(self, tmp_path, capsys):
        # A 32 x 32 x 2 unlabeled volume cuts planes 2 pixels wide, too
        # narrow for the 5 x 5 patch: preprocess fails before stage 1 trains.
        cfg = fast_config()
        data = tmp_path / "data"
        generate_benchmark(cfg.benchmark_spec(), data)
        thin = np.full((32, 32, 2), 800.0, dtype=np.float32)
        save_volume(Volume(thin), data / "unlabeled" / "thin.vol")
        path = tmp_path / "cfg.txt"
        write_kv_config(
            dataclasses.replace(
                cfg, labeled_dir=str(data / "labeled"),
                unlabeled_dir=str(data / "unlabeled"), val_dir=str(data / "val"),
            ),
            path,
        )
        run = tmp_path / "run"
        rc = self.run_cli("pipeline", "--config", str(path), "--out", str(run), "--quiet")
        assert rc == 3
        err = capsys.readouterr().err
        assert "data error: [preprocess]" in err
        assert "thin.vol" in err
        assert not (run / "stage1").exists()

    def stage_inputs(self, tmp_path, thin=True):
        # Fast-benchmark sets and the labeled slice manifest; with ``thin``,
        # the unlabeled and validation sets hold one extra 32 x 32 x 2
        # volume (and mask).
        cfg = fast_config()
        data = tmp_path / "data"
        generate_benchmark(cfg.benchmark_spec(), data)
        thin_vol = np.full((32, 32, 2), 800.0, dtype=np.float32)
        for sub in ("unlabeled", "val") if thin else ():
            save_volume(Volume(thin_vol), data / sub / "thin.vol")
            save_mask(MaskVolume(np.zeros(thin_vol.shape, np.uint8)),
                      data / sub / "thin_mask.vol")
        slice_dir(data / "labeled", tmp_path / "slices", cfg)
        return data, tmp_path / "slices"

    @staticmethod
    def init_checkpoint(tmp_path):
        init = tmp_path / "init.seg"
        ftaseg.save_checkpoint(
            ftaseg.PatchMLP.init_random(ftaseg.ModelShape(), 0), 0, init
        )
        return init

    @pytest.mark.parametrize("stage", ["train-stage1", "train-stage2"])
    def test_stage_rejects_thin_labeled_volume_exit_3(
        self, tmp_path, capsys, monkeypatch, stage
    ):
        # A 12 x 12 x 2 labeled volume passes slice, but its planes cut
        # along the 2-deep axis are too narrow for the 5 x 5 patch: each
        # stage checks its slice manifest's volumes first.
        data, slices = tmp_path / "data", tmp_path / "slices"
        generate_benchmark(fast_config().benchmark_spec(), data)
        thin = np.full((12, 12, 2), 800.0, dtype=np.float32)
        save_volume(Volume(thin), data / "labeled" / "thin.vol")
        save_mask(MaskVolume(np.zeros(thin.shape, np.uint8)),
                  data / "labeled" / "thin_mask.vol")
        rc = self.run_cli("slice", "--in", str(data / "labeled"), "--out", str(slices))
        assert rc == 0
        capsys.readouterr()
        for fn in ("run_stage1", "run_stage2"):
            monkeypatch.setattr(f"ftaseg.pipeline.{fn}",
                                lambda *args, **kw: pytest.fail("a stage trained"))
        init = self.init_checkpoint(tmp_path)
        extra = ["--init", str(init)] if stage == "train-stage2" else []
        out = tmp_path / "out"
        rc = self.run_cli(stage, "--slices", str(slices), "--out", str(out), *extra)
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ")
        assert "thin.vol: dims 12x12x2" in err
        assert not (out / "checkpoint.seg").exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_window_rejects_non_finite_raw_volume_exit_3(self, tmp_path, capsys, bad):
        raw = tmp_path / "raw"
        raw.mkdir()
        data = np.full((4, 5, 6), 800.0, dtype=np.float32)
        data[1, 2, 3] = bad
        save_volume(Volume(data), raw / "v.vol")
        rc = self.run_cli("window", "--in", str(raw), "--out", str(tmp_path / "win"))
        assert rc == 3
        assert capsys.readouterr().err == (
            f"data error: {raw / 'v.vol'}: raw volume has NaN or infinite values\n"
        )

    @staticmethod
    def poison(path, bad):
        # One voxel of the raw volume at ``path`` set to ``bad``.
        data = load_volume(path).data.copy()
        data[1, 2, 3] = bad
        save_volume(Volume(data), path)

    @staticmethod
    def non_finite_error(prefix, path):
        # The error line of a volume with a non-finite voxel. The unlabeled
        # and validation volumes are named by the path given for their
        # directory, labeled ones by their resolved path; under the resolved
        # tmp_path the two agree.
        return f"{prefix}{path}: raw volume has NaN or infinite values\n"

    @pytest.mark.parametrize("sub, vid, pseudo_count, stage, bad", [
        ("labeled", "lab_001", 1, "stage1", np.nan),
        # Stage 1 reads only the unlabeled volumes it pseudo-annotates; with
        # none picked, stage 2 reads them first, as its pool.
        ("unlabeled", "unl_000", 3, "stage1", np.inf),
        ("unlabeled", "unl_000", 0, "stage2", np.nan),
        ("val", "val_000", 1, "stage2", -np.inf),
    ])
    def test_pipeline_rejects_non_finite_volume_where_first_read_exit_3(
        self, tmp_path, capsys, monkeypatch, sub, vid, pseudo_count, stage, bad
    ):
        # Every case fails before stage 2 trains: stage 2 reads the
        # validation volumes one at a time as it validates, but checks them
        # all first.
        cfg = fast_config(stage1_pseudo_count=pseudo_count)
        data = tmp_path / "data"
        generate_benchmark(cfg.benchmark_spec(), data)
        self.poison(data / sub / f"{vid}.vol", bad)
        monkeypatch.setattr("ftaseg.pipeline.run_stage2",
                            lambda *args: pytest.fail("stage 2 trained"))
        path = tmp_path / "cfg.txt"
        write_kv_config(dataclasses.replace(
            cfg, labeled_dir=str(data / "labeled"),
            unlabeled_dir=str(data / "unlabeled"), val_dir=str(data / "val"),
        ), path)
        run = tmp_path / "run"
        rc = self.run_cli("pipeline", "--config", str(path), "--out", str(run), "--quiet")
        assert rc == 3
        assert capsys.readouterr().err == self.non_finite_error(
            f"data error: [{stage}] ", data / sub / f"{vid}.vol"
        )
        assert not (run / "stage2" / "checkpoint.seg").exists()
        assert not (run / "scores.csv").exists()

    @pytest.mark.parametrize("cmd, sub, bad", [
        ("train-stage1", "labeled", np.nan),
        ("train-stage1", "unlabeled", np.inf),
        ("train-stage2", "labeled", -np.inf),
        ("train-stage2", "unlabeled", np.nan),
        ("train-stage2", "val", np.inf),
        ("score-dir", "val", np.nan),
    ])
    def test_stage_rejects_non_finite_volume_exit_3(
        self, tmp_path, capsys, monkeypatch, cmd, sub, bad
    ):
        # The stages window each raw volume as they load it; a NaN or
        # infinite voxel fails before anything is written.
        data, slices = self.stage_inputs(tmp_path, thin=False)
        bad_file = sorted((data / sub).glob("*_000.vol"))[0]
        self.poison(bad_file, bad)
        monkeypatch.setattr("ftaseg.pipeline.run_stage2",
                            lambda *args: pytest.fail("stage 2 trained"))
        init, out = str(self.init_checkpoint(tmp_path)), tmp_path / "out"
        argv = {
            "train-stage1": ["--slices", str(slices), "--unlabeled",
                             str(data / "unlabeled"), "--out", str(out),
                             "--set", "stage1_epochs=1",
                             "--set", "stage1_pseudo_count=3"],
            "train-stage2": ["--slices", str(slices), "--unlabeled",
                             str(data / "unlabeled"), "--val", str(data / "val"),
                             "--init", init, "--out", str(out),
                             "--set", "stage2_iters=2"],
            "score-dir": ["--checkpoint", init, "--val", str(data / "val"),
                          "--out", str(out / "scores.csv")],
        }[cmd]
        assert self.run_cli(cmd, *argv) == 3
        assert capsys.readouterr().err == self.non_finite_error(
            "data error: ", bad_file
        )
        assert not (out / "checkpoint.seg").exists()
        assert not (out / "scores.csv").exists()

    def test_train_stage1_rejects_thin_unlabeled_volume_exit_3(
        self, tmp_path, capsys, monkeypatch
    ):
        # Planes cut along the 2-deep axis are 2 pixels wide, too narrow
        # for the 5 x 5 patch: the check runs before stage 1 trains.
        data, slices = self.stage_inputs(tmp_path)
        monkeypatch.setattr("ftaseg.pipeline.run_stage1",
                            lambda *args: pytest.fail("stage 1 trained"))
        out = tmp_path / "stage1"
        rc = self.run_cli("train-stage1", "--slices", str(slices),
                          "--unlabeled", str(data / "unlabeled"), "--out", str(out),
                          "--set", "stage1_epochs=1", "--set", "stage1_pseudo_count=1")
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ")
        assert str(data / "unlabeled" / "thin.vol") in err
        assert not (out / "checkpoint.seg").exists()

    def test_train_stage2_rejects_thin_val_volume_exit_3(
        self, tmp_path, capsys, monkeypatch
    ):
        # Validation volumes are predicted along z, so their W of 2 is a
        # plane side; the check runs before stage 2 trains.
        data, slices = self.stage_inputs(tmp_path)
        monkeypatch.setattr("ftaseg.pipeline.run_stage2",
                            lambda *args: pytest.fail("stage 2 trained"))
        init = self.init_checkpoint(tmp_path)
        out = tmp_path / "stage2"
        rc = self.run_cli("train-stage2", "--slices", str(slices),
                          "--val", str(data / "val"), "--init", str(init),
                          "--out", str(out), "--set", "stage2_iters=2",
                          "--set", "val_points=1")
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ")
        assert str(data / "val" / "thin.vol") in err
        assert not (out / "checkpoint.seg").exists()

    @pytest.mark.parametrize("val_points", ["0", "-3"])
    def test_train_stage2_rejects_val_points_below_one_exit_2(
        self, tmp_path, capsys, val_points
    ):
        # Rejected as by the pipeline, not clamped to one validation.
        data, slices = self.stage_inputs(tmp_path, thin=False)
        out = tmp_path / "stage2"
        rc = self.run_cli("train-stage2", "--slices", str(slices),
                          "--val", str(data / "val"),
                          "--init", str(self.init_checkpoint(tmp_path)),
                          "--out", str(out), "--set", "stage2_iters=2",
                          "--set", f"val_points={val_points}")
        assert rc == 2
        assert capsys.readouterr().err == (
            "config error: stage2_iters and val_points must be >= 1\n"
        )
        assert not out.exists()

    def test_train_stage2_rejects_thin_unlabeled_volume_exit_3(
        self, tmp_path, capsys, monkeypatch
    ):
        # Unlabeled planes are cut along all three axes, as in stage 1.
        data, slices = self.stage_inputs(tmp_path)
        monkeypatch.setattr("ftaseg.pipeline.run_stage2",
                            lambda *args: pytest.fail("stage 2 trained"))
        out = tmp_path / "stage2"
        rc = self.run_cli("train-stage2", "--slices", str(slices),
                          "--unlabeled", str(data / "unlabeled"),
                          "--init", str(self.init_checkpoint(tmp_path)),
                          "--out", str(out), "--set", "stage2_iters=2")
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ")
        assert str(data / "unlabeled" / "thin.vol") in err
        assert not (out / "checkpoint.seg").exists()

    @pytest.mark.parametrize(
        "case", ["missing-dir", "without-unlabeled", "missing-volume", "dims"]
    )
    def test_train_stage2_rejects_bad_pseudo_mask_exit_3(
        self, tmp_path, capsys, monkeypatch, case
    ):
        # A pseudo mask <id>_mask.vol pairs with the volume <id>.vol in
        # --unlabeled; each failure names the file.
        data, slices = self.stage_inputs(tmp_path, thin=False)
        monkeypatch.setattr("ftaseg.pipeline.run_stage2",
                            lambda *args: pytest.fail("stage 2 trained"))
        pseudo, volume = tmp_path / "pseudo", data / "unlabeled" / "unl_000.vol"
        mask = pseudo / "unl_000_mask.vol"
        pseudo.mkdir()
        d, h, w = load_volume(volume).dims
        save_mask(MaskVolume(np.zeros((d, h, w), np.uint8)), mask)
        unlabeled = ["--unlabeled", str(data / "unlabeled")]
        named = mask
        if case == "missing-dir":
            shutil.rmtree(pseudo)
            named = pseudo
        elif case == "without-unlabeled":
            unlabeled = []
        elif case == "missing-volume":
            volume.unlink()
            named = volume
        else:
            save_mask(MaskVolume(np.zeros((d, h, w - 1), np.uint8)), mask)
        out = tmp_path / "stage2"
        rc = self.run_cli("train-stage2", "--slices", str(slices),
                          "--pseudo", str(pseudo), *unlabeled,
                          "--init", str(self.init_checkpoint(tmp_path)),
                          "--out", str(out), "--set", "stage2_iters=2")
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ")
        assert str(named) in err
        assert not (out / "checkpoint.seg").exists()

    @pytest.mark.parametrize("cmd", ["train-stage2", "score-dir"])
    def test_val_mask_dims_differ_exit_3(self, tmp_path, capsys, monkeypatch, cmd):
        # A validation mask is checked against its volume's dims with the
        # other validation checks: stage 2 fails before its first step and
        # score-dir before it predicts, and the error names the mask.
        data, slices = self.stage_inputs(tmp_path, thin=False)
        mask = data / "val" / "val_000_mask.vol"
        d, h, w = load_mask(mask).dims
        save_mask(MaskVolume(np.zeros((d, h, w - 1), np.uint8)), mask)
        monkeypatch.setattr("ftaseg.pipeline.run_stage2",
                            lambda *args: pytest.fail("stage 2 trained"))
        monkeypatch.setattr("ftaseg.ssl.evaluate_volumes",
                            lambda *args: pytest.fail("score-dir predicted"))
        init, out = str(self.init_checkpoint(tmp_path)), tmp_path / "out"
        argv = {
            "train-stage2": ["--slices", str(slices), "--val", str(data / "val"),
                             "--init", init, "--out", str(out),
                             "--set", "stage2_iters=2"],
            "score-dir": ["--checkpoint", init, "--val", str(data / "val"),
                          "--out", str(out / "scores.csv")],
        }[cmd]
        assert self.run_cli(cmd, *argv) == 3
        assert capsys.readouterr().err == (
            f"data error: {mask}: dims {(d, h, w - 1)} differ from "
            f"{data / 'val' / 'val_000.vol'}'s {(d, h, w)}\n"
        )
        assert not (out / "checkpoint.seg").exists()
        assert not (out / "scores.csv").exists()

    def test_pipeline_numeric_error_in_supervised_lane_exit_4(
        self, tmp_path, capsys, monkeypatch
    ):
        fail_in_supervised_lane(monkeypatch)
        path = tmp_path / "cfg.txt"
        write_kv_config(fast_config(), path)
        rc = self.run_cli(
            "pipeline", "--config", str(path), "--out", str(tmp_path / "run"), "--quiet"
        )
        assert rc == 4
        assert "numeric error: [stage2]" in capsys.readouterr().err

    def test_pipeline_missing_labeled_exit_3(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        write_kv_config(fast_config(labeled_dir=str(tmp_path / "nope")), cfg)
        rc = self.run_cli("pipeline", "--config", str(cfg), "--out",
                          str(tmp_path / "run"), "--quiet")
        assert rc == 3

    @pytest.mark.parametrize("case", ["dims", "missing"])
    def test_pipeline_bad_val_mask_fails_in_preprocess_exit_3(
        self, tmp_path, capsys, case
    ):
        # A validation mask is checked with the other inputs, before stage 1
        # trains or writes anything.
        cfg = fast_config()
        data = tmp_path / "data"
        generate_benchmark(cfg.benchmark_spec(), data)
        mask = data / "val" / "val_000_mask.vol"
        d, h, w = load_mask(mask).dims
        if case == "dims":
            save_mask(MaskVolume(np.zeros((d, h, w - 1), np.uint8)), mask)
            named = str(mask)
        else:
            mask.unlink()
            named = "val_000.vol"
        path, run = tmp_path / "cfg.txt", tmp_path / "run"
        write_kv_config(dataclasses.replace(
            cfg, labeled_dir=str(data / "labeled"),
            unlabeled_dir=str(data / "unlabeled"), val_dir=str(data / "val"),
        ), path)
        rc = self.run_cli("pipeline", "--config", str(path), "--out", str(run),
                          "--quiet")
        assert rc == 3
        assert capsys.readouterr().err.startswith("data error: [preprocess] ")
        failed = [line for line in (run / "run.log").read_text().splitlines()
                  if "stage preprocess failed" in line]
        assert len(failed) == 1 and named in failed[0]
        assert not (run / "stage1").exists()

    def test_fta_subcommand(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        for name in ("a", "b"):
            data = rng.random((1, 6, 6)).astype(np.float32)
            save_volume(Volume(data), tmp_path / f"{name}.vol")
        rc = self.run_cli(
            "fta", "--a", str(tmp_path / "a.vol"), "--b", str(tmp_path / "b.vol"),
            "--out-a", str(tmp_path / "za.vol"), "--out-b", str(tmp_path / "zb.vol"),
            "--set", "fta_lambda=0.0", "--set", "fta_mode=standard-fda",
            "--set", "fta_beta=0.5",
        )
        assert rc == 0
        za = load_volume(tmp_path / "za.vol")
        a = load_volume(tmp_path / "a.vol")
        assert np.abs(za.data - a.data).max() < 1e-5  # identity at lambda 0

    def test_fta_draws_lambda_from_the_seed(self, tmp_path, capsys):
        rng = np.random.default_rng(7)
        for name in ("a", "b"):
            data = rng.random((1, 6, 6)).astype(np.float32)
            save_volume(Volume(data), tmp_path / f"{name}.vol")
        rc = self.run_cli(
            "fta", "--a", str(tmp_path / "a.vol"), "--b", str(tmp_path / "b.vol"),
            "--out-a", str(tmp_path / "za.vol"), "--out-b", str(tmp_path / "zb.vol"),
            "--set", "seed=5", "--set", "fta_lambda_max=0.7",
        )
        assert rc == 0
        lam = np.random.default_rng(5).uniform(0.0, 0.7)
        out = capsys.readouterr().out
        assert out.startswith(f"lambda={lam:.6f} beta=0.25 residue=")

    def test_overlay_subcommand(self, tmp_path):
        rng = np.random.default_rng(5)
        save_volume(
            Volume(rng.random((1, 4, 4)).astype(np.float32)),
            tmp_path / "s.vol",
        )
        mask = MaskVolume((rng.random((1, 4, 4)) < 0.4).astype(np.uint8))
        save_mask(mask, tmp_path / "m.vol")
        rc = self.run_cli(
            "overlay", "--slice", str(tmp_path / "s.vol"), "--pred",
            str(tmp_path / "m.vol"), "--gt", str(tmp_path / "m.vol"),
            "--out", str(tmp_path / "o.ppm"),
        )
        assert rc == 0
        assert (tmp_path / "o.ppm").read_bytes().startswith(b"P6\n")

    @pytest.mark.parametrize("flag", ["--pred", "--gt"])
    def test_overlay_rejects_a_multi_plane_mask_exit_3(self, tmp_path, capsys, flag):
        # Only one plane of a deeper mask would be drawn; it is a data error
        # naming the file, and nothing is written.
        save_volume(Volume(np.full((1, 4, 4), 0.5, np.float32)), tmp_path / "s.vol")
        save_mask(MaskVolume(np.zeros((1, 4, 4), np.uint8)), tmp_path / "m.vol")
        save_mask(MaskVolume(np.ones((2, 4, 4), np.uint8)), tmp_path / "deep.vol")
        paths = {"--pred": str(tmp_path / "m.vol"), "--gt": str(tmp_path / "m.vol")}
        paths[flag] = str(tmp_path / "deep.vol")
        out = tmp_path / "o.ppm"
        rc = self.run_cli(
            "overlay", "--slice", str(tmp_path / "s.vol"), "--pred", paths["--pred"],
            "--gt", paths["--gt"], "--out", str(out),
        )
        assert rc == 3
        assert capsys.readouterr().err == (
            f"data error: {tmp_path / 'deep.vol'}: expected a slice file (depth 1), "
            "got (2, 4, 4)\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("cmd", ["fta", "overlay"])
    @pytest.mark.parametrize("bad", [1.5, -0.25, np.nan])
    def test_slice_outside_unit_range_exit_3(self, tmp_path, capsys, cmd, bad):
        # fta and overlay read windowed slices: a voxel outside [0, 1] (or
        # NaN) is a data error, and nothing is written.
        ok = np.full((1, 4, 4), 0.5, dtype=np.float32)
        bad_data = ok.copy()
        bad_data[0, 1, 2] = bad
        save_volume(Volume(ok), tmp_path / "ok.vol")
        save_volume(Volume(bad_data), tmp_path / "bad.vol")
        save_mask(MaskVolume(np.zeros((1, 4, 4), np.uint8)), tmp_path / "m.vol")
        bad_path, ok_path, out = (
            str(tmp_path / "bad.vol"), str(tmp_path / "ok.vol"), tmp_path / "out")
        argv = {
            "fta": ["--a", ok_path, "--b", bad_path, "--out-a", str(out),
                    "--out-b", str(out)],
            "overlay": ["--slice", bad_path, "--pred", str(tmp_path / "m.vol"),
                        "--gt", str(tmp_path / "m.vol"), "--out", str(out)],
        }[cmd]
        rc = self.run_cli(cmd, *argv)
        assert rc == 3
        assert capsys.readouterr().err == (
            "data error: normalized volume has values outside [0, 1]\n"
        )
        assert not out.exists()

    @staticmethod
    def _child(*args: str, blas_threads: str | None = None):
        # The child imports the same package as this test, installed or not.
        # ``blas_threads`` sets its OPENBLAS_NUM_THREADS; by default it has none.
        src = str(Path(ftaseg.__file__).parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        env = {**os.environ, "PYTHONPATH": path}
        env.pop("OPENBLAS_NUM_THREADS", None)
        if blas_threads is not None:
            env["OPENBLAS_NUM_THREADS"] = blas_threads
        return subprocess.run(
            [sys.executable, *args], capture_output=True, text=True, env=env,
        )

    def test_console_entrypoint(self):
        proc = self._child("-m", "ftaseg.cli", "--help")
        assert proc.returncode == 0
        for cmd in ("synth", "window", "slice", "fta", "train-stage1",
                    "train-stage2", "score", "overlay", "pipeline"):
            assert cmd in proc.stdout

    def test_imports_no_scipy(self):
        # numpy and the standard library are the only runtime dependencies.
        proc = self._child("-c", "import sys, ftaseg, ftaseg.pipeline, ftaseg.cli; print("
                           "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    # Prints the child's OPENBLAS_NUM_THREADS after importing the CLI, then
    # OpenBLAS's own thread count, or -1 where no get_num_threads symbol of a
    # loaded OpenBLAS resolves.
    BLAS_PROBE = """
import ctypes, os, ftaseg.cli
threads = -1
try:
    with open("/proc/self/maps", encoding="utf-8") as f:
        libs = sorted({ln.split()[-1] for ln in f if "openblas" in ln.lower()})
except OSError:
    libs = []
for lib in libs:
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(ctypes.CDLL(lib), sym, None)
        if fn is not None and threads == -1:
            fn.argtypes, fn.restype = [], ctypes.c_int
            threads = fn()
print(os.environ["OPENBLAS_NUM_THREADS"], threads)
"""

    @pytest.mark.parametrize("user_value", [None, "2"])
    def test_blas_runs_one_thread_unless_the_user_sets_it(self, user_value):
        proc = self._child("-c", self.BLAS_PROBE, blas_threads=user_value)
        assert proc.returncode == 0, proc.stderr
        value, threads = proc.stdout.split()
        assert value == (user_value or "1")
        if threads != "-1":
            # OpenBLAS caps its pool at the cores this process may use.
            cores = len(os.sched_getaffinity(0))
            assert int(threads) == min(int(value), cores)


class TestComposability:
    # Keys away from their defaults, so that a stage that ignores its config
    # writes other bytes: the window reaches every loader, the FTA mode and
    # the perturbation rate reach stage 2.
    CFG = dict(seed=11, window_bottom=400.0, window_top=1900.0,
               fta_mode="standard-fda", perturb_rate=0.2)

    def reproduce(self, tmp_path, supervised_only):
        cfg = fast_config(**self.CFG, supervised_only=supervised_only)
        run = tmp_path / "run"
        run_pipeline(cfg, run)

        # The same stages through the CLI, file by file, each reading the
        # run's own config.txt. --unlabeled is given in both arms: under
        # supervised_only the training stages must not read it.
        c = tmp_path / "cli"
        data, slc = c / "data", c / "slices" / "labeled"
        conf = ["--config", str(run / "config.txt")]
        assert main(["synth", "--out", str(data), *conf]) == 0
        assert main(["slice", "--in", str(data / "labeled"), "--out", str(slc),
                     *conf]) == 0
        assert main(["train-stage1", "--slices", str(slc),
                     "--unlabeled", str(data / "unlabeled"),
                     "--out", str(c / "stage1"), *conf]) == 0
        assert main(["train-stage2", "--slices", str(slc),
                     "--pseudo", str(c / "stage1" / "pseudo"),
                     "--unlabeled", str(data / "unlabeled"), "--val", str(data / "val"),
                     "--init", str(c / "stage1" / "checkpoint.seg"),
                     "--out", str(c / "stage2"), *conf]) == 0
        assert main(["score-dir", "--checkpoint", str(c / "stage2" / "checkpoint.seg"),
                     "--val", str(data / "val"), "--out", str(c / "scores.csv"),
                     *conf]) == 0

        def pseudo(root):
            return sorted(p.relative_to(root)
                          for p in (root / "stage1" / "pseudo").iterdir())

        masks = pseudo(run)
        assert pseudo(c) == masks
        assert len(masks) == (0 if supervised_only else FAST["stage1_pseudo_count"])
        for rel in ("stage1/checkpoint.seg", "stage1/manifest.txt",
                    "stage2/checkpoint.seg", "stage2/manifest.txt",
                    "stage2/metrics.csv", "scores.csv", *masks):
            assert (c / rel).read_bytes() == (run / rel).read_bytes(), rel

    def test_subcommands_reproduce_pipeline(self, tmp_path):
        self.reproduce(tmp_path, supervised_only=False)

    def test_subcommands_reproduce_supervised_only_pipeline(self, tmp_path):
        self.reproduce(tmp_path, supervised_only=True)
