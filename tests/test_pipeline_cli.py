import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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
    NORMALIZED,
    RAW,
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

    FTA_FLAGS = {
        "lam": "fta_lambda", "lambda_max": "fta_lambda_max", "beta": "fta_beta",
        "mode": "fta_mode", "seed": "seed",
    }

    @pytest.mark.parametrize("argv,flags", [
        (["window", "--in", "i", "--out", "o"],
         {"bottom": "window_bottom", "top": "window_top"}),
        (["fta", "--a", "a", "--b", "b", "--out-a", "x", "--out-b", "y"], FTA_FLAGS),
        (["train-stage1", "--slices", "s", "--out", "o"],
         {"epochs": "stage1_epochs", "pseudo_count": "stage1_pseudo_count",
          "lr": "lr", "batch": "batch_size", "patch": "patch",
          "hidden1": "hidden1", "hidden2": "hidden2", "seed": "seed"}),
        (["train-stage2", "--slices", "s", "--init", "i", "--out", "o"],
         {**FTA_FLAGS, "iters": "stage2_iters", "lr": "lr", "batch": "batch_size",
          "perturb": "perturb_rate", "momentum": "threshold_momentum",
          "pseudo_weight": "pseudo_weight", "unsup_weight": "unsup_weight",
          "val_points": "val_points"}),
    ])
    def test_cli_defaults_are_the_config_defaults(self, argv, flags):
        args = build_parser().parse_args(argv)
        cfg = PipelineConfig()
        assert {dest: getattr(args, dest) for dest in flags} == {
            dest: getattr(cfg, key) for dest, key in flags.items()
        }


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


class TestWindowSliceDirs:
    def make_raw_dir(self, tmp_path, n=2, dims=(4, 5, 6)):
        rng = np.random.default_rng(0)
        src = tmp_path / "raw"
        src.mkdir()
        for i in range(n):
            vol = Volume(rng.uniform(0, 2500, dims).astype(np.float32), RAW)
            save_volume(vol, src / f"v{i}.vol")
            mask = MaskVolume((rng.random(dims) < 0.3).astype(np.uint8))
            save_mask(mask, src / f"v{i}_mask.vol")
        return src

    def test_window_dir_outputs_normalized_and_copies_masks(self, tmp_path):
        src = self.make_raw_dir(tmp_path)
        out = tmp_path / "win"
        count = window_dir(src, out, WindowSpec(500, 2000))
        assert count == 2
        v = load_volume(out / "v0.vol", NORMALIZED)
        assert v.data.min() >= 0.0 and v.data.max() <= 1.0
        assert (out / "v0_mask.vol").read_bytes() == (src / "v0_mask.vol").read_bytes()

    def test_slice_dir_counts_and_mask_slices(self, tmp_path):
        src = self.make_raw_dir(tmp_path, n=1)
        win = tmp_path / "win"
        window_dir(src, win, WindowSpec())
        out = tmp_path / "slices"
        manifest = slice_dir(win, out, val_fraction=0.2, seed=3)
        assert len(manifest) == 4 + 5 + 6
        assert len(manifest.subset("val")) == 3  # floor(0.2 * 15)
        # Every row points back at the windowed volume and its mask; the
        # slice directory holds nothing but the manifest.
        for entry in manifest.entries:
            assert (out / entry.file).resolve() == (win / "v0.vol").resolve()
            assert (out / entry.mask_file).resolve() == (win / "v0_mask.vol").resolve()
        assert [p.name for p in out.iterdir()] == ["manifest.csv"]
        reread = read_manifest(out / "manifest.csv")
        assert reread == manifest

    def test_loaded_planes_match_slice_volume(self, tmp_path):
        win = tmp_path / "win"
        window_dir(self.make_raw_dir(tmp_path), win, WindowSpec())
        out = tmp_path / "slices"
        manifest = slice_dir(win, out, val_fraction=0.2, seed=1)
        expected = {}
        for vid in ("v0", "v1"):
            vol = load_volume(win / f"{vid}.vol", NORMALIZED)
            mask = Volume(load_mask(win / f"{vid}_mask.vol").data.astype(np.float32))
            for (axis, i, image), (_, _, target) in zip(
                slice_volume(vol), slice_volume(mask)
            ):
                expected[(vid, axis, i)] = (image, target)

        def key(e):
            return (e.source_id, e.axis, e.index)

        for split in ("train", "val"):
            loaded = load_train_slices(out, manifest, split)
            rows = manifest.subset(split)
            assert len(loaded) == len(rows)
            for ts, e in zip(loaded, rows):
                image, target = expected[key(e)]
                assert np.array_equal(ts.image, image)
                assert np.array_equal(ts.target, target)
        unlabeled = load_unlabeled_slices(out, manifest, exclude_ids=frozenset({"v1"}))
        rows = [e for e in manifest.entries if e.source_id == "v0"]
        assert len(unlabeled) == len(rows)
        for u, e in zip(unlabeled, rows):
            assert np.array_equal(u, expected[key(e)][0])

    @pytest.mark.parametrize(
        "field,value",
        [("index", 6), ("file", "gone.vol"), ("mask_file", "gone_mask.vol"),
         ("mask_file", "")],
    )
    def test_bad_manifest_row_is_a_data_error(self, tmp_path, field, value):
        win = tmp_path / "win"
        window_dir(self.make_raw_dir(tmp_path, n=1), win, WindowSpec())
        out = tmp_path / "slices"
        manifest = slice_dir(win, out)
        first = manifest.entries[0]
        assert (first.axis, first.index) == ("x", 0)  # x planes run 0..5
        bad = dataclasses.replace(first, **{field: value})
        write_manifest(
            SliceManifest((bad,) + manifest.entries[1:]), out / "manifest.csv"
        )
        with pytest.raises(DataError):
            load_train_slices(out, read_manifest(out / "manifest.csv"))
        if field != "mask_file":  # unlabeled loading reads no masks
            with pytest.raises(DataError):
                load_unlabeled_slices(out, read_manifest(out / "manifest.csv"))
        rc = main(["train-stage1", "--slices", str(out), "--out", str(tmp_path / "s1"),
                   "--epochs", "1", "--pseudo-count", "0"])
        assert rc == 3

    def test_missing_dir_raises(self, tmp_path):
        with pytest.raises(DataError):
            window_dir(tmp_path / "nope", tmp_path / "o", WindowSpec())


class TestStage1Files:
    def test_reads_only_the_unlabeled_volumes_it_picks(self, tmp_path):
        cfg = fast_config(synth_unlabeled=6, stage1_pseudo_count=2, seed=6)
        generate_benchmark(cfg.benchmark_spec(), tmp_path / "data")
        win, slc = tmp_path / "win", tmp_path / "slices"
        for sub in ("labeled", "unlabeled"):
            window_dir(tmp_path / "data" / sub, win / sub, cfg.window())
        slice_dir(win / "labeled", slc, cfg.val_fraction, cfg.seed)

        def stage1(out):
            return train_stage1_files(slc, win / "unlabeled", tmp_path / out,
                                      cfg.stage_config(), cfg.model_shape(), cfg.lr)

        ckpt_a, picked = stage1("a")
        assert len(picked) == 2
        manifest = (tmp_path / "a" / "manifest.txt").read_text()
        assert f"pseudo_selected = {','.join(sorted(picked))}\n" in manifest
        others = [p for p in (win / "unlabeled").glob("*.vol") if p.stem not in picked]
        assert len(others) == 4
        for path in others:  # unreadable unless stage 1 skips them
            path.write_bytes(path.read_bytes()[:-4])

        ckpt_b, picked_b = stage1("b")
        assert picked_b == picked
        assert ckpt_b.read_bytes() == ckpt_a.read_bytes()
        pseudo_a = sorted(p.name for p in (tmp_path / "a" / "pseudo").iterdir())
        assert pseudo_a == sorted(p.name for p in (tmp_path / "b" / "pseudo").iterdir())
        assert len(pseudo_a) == 3  # manifest.csv and two masks
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
        # Training planes are cut from the windowed volumes, never written.
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

        def counting(model, cases):
            calls.append(len(cases))
            return evaluate_volumes(model, cases)

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
        score_files(paths.stage2_ckpt, tmp_path / "run" / "windowed" / "val",
                    tmp_path / "rescored.csv")
        assert (tmp_path / "rescored.csv").read_text() == paths.scores_csv.read_text()

    def test_missing_labeled_dir_fails_in_preprocess(self, tmp_path):
        cfg = fast_config(labeled_dir=str(tmp_path / "missing"))
        with pytest.raises(DataError, match=r"\[preprocess\]"):
            run_pipeline(cfg, tmp_path / "run")
        log = (tmp_path / "run" / "run.log").read_text()
        assert "preprocess failed" in log

    def test_merged_volume_arithmetic(self, tmp_path):
        run_pipeline(fast_config(seed=3), tmp_path / "run")
        manifest = (tmp_path / "run" / "stage1" / "manifest.txt").read_text()
        assert "merged_volume_count = 3" in manifest  # 2 labeled + 1 pseudo

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
        save_volume(Volume(data, NORMALIZED), val / "v0.vol")
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
        save_volume(Volume(data, NORMALIZED), val / "v0.vol")
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
        save_volume(Volume(thin, RAW), data / "unlabeled" / "thin.vol")
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

    def thin_stage_inputs(self, tmp_path):
        # Windowed fast-benchmark sets, the unlabeled and validation ones
        # with one extra 32 x 32 x 2 volume (and mask), and the labeled
        # slice manifest.
        cfg = fast_config()
        data, win = tmp_path / "data", tmp_path / "win"
        generate_benchmark(cfg.benchmark_spec(), data)
        thin = np.full((32, 32, 2), 800.0, dtype=np.float32)
        for sub in ("unlabeled", "val"):
            save_volume(Volume(thin, RAW), data / sub / "thin.vol")
            save_mask(MaskVolume(np.zeros(thin.shape, np.uint8)),
                      data / sub / "thin_mask.vol")
        for sub in ("labeled", "unlabeled", "val"):
            window_dir(data / sub, win / sub, cfg.window())
        slice_dir(win / "labeled", tmp_path / "slices", cfg.val_fraction, cfg.seed)
        return win, tmp_path / "slices"

    @pytest.mark.parametrize("stage", ["train-stage1", "train-stage2"])
    def test_stage_rejects_thin_labeled_volume_exit_3(
        self, tmp_path, capsys, monkeypatch, stage
    ):
        # A 12 x 12 x 2 labeled volume passes window and slice, but its
        # planes cut along the 2-deep axis are too narrow for the 5 x 5
        # patch: each stage checks its slice manifest's volumes first.
        data, win, slices = tmp_path / "data", tmp_path / "win", tmp_path / "slices"
        generate_benchmark(fast_config().benchmark_spec(), data)
        thin = np.full((12, 12, 2), 800.0, dtype=np.float32)
        save_volume(Volume(thin, RAW), data / "labeled" / "thin.vol")
        save_mask(MaskVolume(np.zeros(thin.shape, np.uint8)),
                  data / "labeled" / "thin_mask.vol")
        assert self.run_cli("window", "--in", str(data / "labeled"), "--out", str(win)) == 0
        assert self.run_cli("slice", "--in", str(win), "--out", str(slices)) == 0
        capsys.readouterr()
        for fn in ("run_stage1", "run_stage2"):
            monkeypatch.setattr(f"ftaseg.pipeline.{fn}",
                                lambda *args, **kw: pytest.fail("a stage trained"))
        init = tmp_path / "init.seg"
        ftaseg.save_checkpoint(
            ftaseg.PatchMLP.init_random(ftaseg.ModelShape(), 0), 0, init
        )
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
        save_volume(Volume(data, RAW), raw / "v.vol")
        rc = self.run_cli("window", "--in", str(raw), "--out", str(tmp_path / "win"))
        assert rc == 3
        assert capsys.readouterr().err == (
            f"data error: {raw / 'v.vol'}: raw volume has NaN or infinite values\n"
        )

    def test_train_stage1_rejects_thin_unlabeled_volume_exit_3(
        self, tmp_path, capsys, monkeypatch
    ):
        # Planes cut along the 2-deep axis are 2 pixels wide, too narrow
        # for the 5 x 5 patch: the check runs before stage 1 trains.
        win, slices = self.thin_stage_inputs(tmp_path)
        monkeypatch.setattr("ftaseg.pipeline.run_stage1",
                            lambda *args: pytest.fail("stage 1 trained"))
        out = tmp_path / "stage1"
        rc = self.run_cli("train-stage1", "--slices", str(slices),
                          "--unlabeled", str(win / "unlabeled"), "--out", str(out),
                          "--epochs", "1", "--pseudo-count", "1")
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ")
        assert str(win / "unlabeled" / "thin.vol") in err
        assert not (out / "checkpoint.seg").exists()

    def test_train_stage2_rejects_thin_val_volume_exit_3(
        self, tmp_path, capsys, monkeypatch
    ):
        # Validation volumes are predicted along z, so their W of 2 is a
        # plane side; the check runs before stage 2 trains.
        win, slices = self.thin_stage_inputs(tmp_path)
        monkeypatch.setattr("ftaseg.pipeline.run_stage2",
                            lambda *args: pytest.fail("stage 2 trained"))
        init = tmp_path / "init.seg"
        ftaseg.save_checkpoint(
            ftaseg.PatchMLP.init_random(ftaseg.ModelShape(), 0), 0, init
        )
        out = tmp_path / "stage2"
        rc = self.run_cli("train-stage2", "--slices", str(slices),
                          "--val", str(win / "val"), "--init", str(init),
                          "--out", str(out), "--iters", "2", "--val-points", "1")
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ")
        assert str(win / "val" / "thin.vol") in err
        assert not (out / "checkpoint.seg").exists()

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

    def test_fta_subcommand(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        for name in ("a", "b"):
            data = rng.random((1, 6, 6)).astype(np.float32)
            save_volume(Volume(data, NORMALIZED), tmp_path / f"{name}.vol")
        rc = self.run_cli(
            "fta", "--a", str(tmp_path / "a.vol"), "--b", str(tmp_path / "b.vol"),
            "--out-a", str(tmp_path / "za.vol"), "--out-b", str(tmp_path / "zb.vol"),
            "--lambda", "0.0", "--mode", "standard-fda", "--beta", "0.5",
        )
        assert rc == 0
        za = load_volume(tmp_path / "za.vol")
        a = load_volume(tmp_path / "a.vol")
        assert np.abs(za.data - a.data).max() < 1e-5  # identity at lambda 0

    def test_fta_draws_lambda_from_the_seed(self, tmp_path, capsys):
        rng = np.random.default_rng(7)
        for name in ("a", "b"):
            data = rng.random((1, 6, 6)).astype(np.float32)
            save_volume(Volume(data, NORMALIZED), tmp_path / f"{name}.vol")
        rc = self.run_cli(
            "fta", "--a", str(tmp_path / "a.vol"), "--b", str(tmp_path / "b.vol"),
            "--out-a", str(tmp_path / "za.vol"), "--out-b", str(tmp_path / "zb.vol"),
            "--seed", "5", "--lambda-max", "0.7",
        )
        assert rc == 0
        lam = np.random.default_rng(5).uniform(0.0, 0.7)
        out = capsys.readouterr().out
        assert out.startswith(f"lambda={lam:.6f} beta=0.25 residue=")

    def test_overlay_subcommand(self, tmp_path):
        rng = np.random.default_rng(5)
        save_volume(
            Volume(rng.random((1, 4, 4)).astype(np.float32), NORMALIZED),
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

    def test_console_entrypoint(self):
        # The child imports the same package as this test, installed or not.
        src = str(Path(ftaseg.__file__).parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "ftaseg.cli", "--help"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        for cmd in ("synth", "window", "slice", "fta", "train-stage1",
                    "train-stage2", "score", "overlay", "pipeline"):
            assert cmd in proc.stdout


class TestComposability:
    def test_subcommands_reproduce_pipeline(self, tmp_path):
        seed = 11
        cfg = fast_config(seed=seed)
        run = tmp_path / "run"
        paths = run_pipeline(cfg, run)

        # same stages through the CLI, file by file
        c = tmp_path / "cli"
        spec = c / "spec.txt"
        c.mkdir()
        bench = cfg.benchmark_spec()
        lines = [f"{f.name} = {getattr(bench, f.name)}"
                 for f in dataclasses.fields(bench)]
        spec.write_text("\n".join(lines) + "\n")
        data, win, slc = c / "data", c / "win", c / "slices"
        assert main(["synth", "--spec", str(spec), "--out", str(data)]) == 0
        for sub in ("labeled", "unlabeled", "val"):
            rc = main(["window", "--in", str(data / sub), "--out", str(win / sub),
                       "--bottom", str(cfg.window_bottom),
                       "--top", str(cfg.window_top)])
            assert rc == 0
        assert main(["slice", "--in", str(win / "labeled"), "--out",
                     str(slc / "labeled"), "--val-fraction", str(cfg.val_fraction),
                     "--seed", str(seed)]) == 0
        assert main(["slice", "--in", str(win / "unlabeled"), "--out",
                     str(slc / "unlabeled")]) == 0
        assert main(["train-stage1", "--slices", str(slc / "labeled"),
                     "--unlabeled", str(win / "unlabeled"),
                     "--out", str(c / "stage1"),
                     "--epochs", str(cfg.stage1_epochs),
                     "--pseudo-count", str(cfg.stage1_pseudo_count),
                     "--lr", str(cfg.lr), "--batch", str(cfg.batch_size),
                     "--seed", str(seed)]) == 0
        assert main(["train-stage2", "--slices", str(slc / "labeled"),
                     "--pseudo-slices", str(c / "stage1" / "pseudo"),
                     "--unlabeled-slices", str(slc / "unlabeled"),
                     "--val", str(win / "val"),
                     "--init", str(c / "stage1" / "checkpoint.seg"),
                     "--out", str(c / "stage2"),
                     "--iters", str(cfg.stage2_iters), "--lr", str(cfg.lr),
                     "--batch", str(cfg.batch_size),
                     "--val-points", str(cfg.val_points),
                     "--seed", str(seed)]) == 0
        assert main(["score-dir", "--checkpoint", str(c / "stage2" / "checkpoint.seg"),
                     "--val", str(win / "val"),
                     "--out", str(c / "scores.csv")]) == 0

        assert (c / "stage1" / "checkpoint.seg").read_bytes() == \
            paths.stage1_ckpt.read_bytes()
        assert (c / "stage2" / "checkpoint.seg").read_bytes() == \
            paths.stage2_ckpt.read_bytes()
        assert (c / "stage2" / "metrics.csv").read_text() == \
            paths.stage2_metrics.read_text()
        assert (c / "scores.csv").read_text() == paths.scores_csv.read_text()
