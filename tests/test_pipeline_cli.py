import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ftaseg
from ftaseg.cli import main
from ftaseg.errors import ConfigError, DataError
from ftaseg.pipeline import (
    BenchmarkSpec,
    PipelineConfig,
    generate_benchmark,
    load_train_slices,
    load_unlabeled_slices,
    parse_pipeline_config,
    render_overlay,
    run_pipeline,
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
        for key, raw in (("stage2_iters", "many"), ("fta_lambda", "0.x")):
            path.write_text(f"{key} = {raw}\n")
            with pytest.raises(ConfigError, match=f"bad value for {key}"):
                parse_pipeline_config(path)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# a comment\n\nseed = 4\n")
        assert parse_pipeline_config(path).seed == 4

    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig(fta_mode="nope")


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
        for text, extra, msg in (
            ("window_bottom = 3000\n", [], "window bottom"),  # bottom >= top
            ("fta_lambda = 0.x\n", [], "bad value for fta_lambda"),
            ("", ["--set", "fta_lambda=abc"], "bad value for fta_lambda"),
        ):
            cfg.write_text(text)
            rc = self.run_cli("pipeline", "--config", str(cfg), "--out",
                              str(tmp_path / "run"), "--quiet", *extra)
            assert rc == 2
            assert f"config error: {msg}" in capsys.readouterr().err

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
