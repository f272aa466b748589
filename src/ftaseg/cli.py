"""Command-line driver.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, FtasegError, NumericError
from .fourier import MODE_PAPER, MODES, FtaConfig, fta_augment_pair
from .metrics import evaluate_masks
from .model import ModelShape, TrainSchedule
from .pipeline import (
    BenchmarkSpec,
    PipelineConfig,
    coerce_fields,
    generate_benchmark,
    parse_benchmark_spec,
    parse_pipeline_config,
    render_overlay,
    run_pipeline,
    score_files,
    slice_dir,
    train_stage1_files,
    train_stage2_files,
    window_dir,
)
from .preprocess import WindowSpec
from .ssl import StageConfig
from .volume import RAW, NORMALIZED, Volume, load_mask, load_volume, save_volume


def _load_slice(path: str, value_unit: str = NORMALIZED) -> np.ndarray:
    vol = load_volume(path, value_unit)
    if vol.dims[0] != 1:
        raise DataError(f"{path}: expected a slice file (depth 1), got {vol.dims}")
    return vol.data[0]


def _cmd_synth(args: argparse.Namespace) -> None:
    spec = parse_benchmark_spec(args.spec) if args.spec else BenchmarkSpec()
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    generate_benchmark(spec, args.out)
    print(f"benchmark written to {args.out}")


def _cmd_window(args: argparse.Namespace) -> None:
    count = window_dir(args.input, args.out, WindowSpec(args.bottom, args.top))
    print(f"windowed {count} volumes into {args.out}")


def _cmd_slice(args: argparse.Namespace) -> None:
    manifest = slice_dir(
        args.input, args.out, args.val_fraction, args.seed, args.by_volume
    )
    print(f"listed {len(manifest)} slices in {Path(args.out) / 'manifest.csv'}")


def _cmd_fta(args: argparse.Namespace) -> None:
    cfg = FtaConfig(
        lambda_value=args.lam,
        lambda_max=args.lambda_max,
        mask_fraction=args.beta,
        mode=args.mode,
    )
    lam = cfg.draw_lambda(np.random.default_rng(args.seed))
    pair = fta_augment_pair(_load_slice(args.a), _load_slice(args.b), lam, cfg)
    for plane, path in ((pair.z_w, args.out_a), (pair.z_u, args.out_b)):
        save_volume(Volume(plane[np.newaxis], RAW), path)
    print(
        f"lambda={lam:.6f} beta={cfg.mask_fraction} "
        f"residue={pair.imag_residue:.2e}"
    )


def _cmd_train_stage1(args: argparse.Namespace) -> None:
    cfg = StageConfig(
        stage1_epochs=args.epochs,
        stage1_pseudo_count=args.pseudo_count,
        batch_size=args.batch,
        seed=args.seed,
    )
    shape = ModelShape(args.patch, args.hidden1, args.hidden2)
    ckpt, pseudo_ids = train_stage1_files(
        args.slices, args.unlabeled, args.out, cfg, shape, args.lr
    )
    print(f"checkpoint {ckpt}; pseudo-annotated: {','.join(sorted(pseudo_ids)) or '-'}")


def _cmd_train_stage2(args: argparse.Namespace) -> None:
    cfg = StageConfig(
        stage1_epochs=1,
        stage1_pseudo_count=0,
        perturb_rate=args.perturb,
        batch_size=args.batch,
        pseudo_weight=args.pseudo_weight,
        unsup_weight=args.unsup_weight,
        threshold_momentum=args.momentum,
        seed=args.seed,
    )
    fta_cfg = FtaConfig(
        lambda_value=args.lam,
        lambda_max=args.lambda_max,
        mask_fraction=args.beta,
        mode=args.mode,
    )
    ckpt = train_stage2_files(
        args.slices, args.pseudo_slices, args.unlabeled_slices, args.val,
        args.init, args.out, cfg,
        TrainSchedule(args.lr, args.iters), fta_cfg,
        val_points=args.val_points,
    )
    print(f"checkpoint {ckpt}")


def _cmd_score(args: argparse.Namespace) -> None:
    pred = load_mask(args.pred)
    gt = load_mask(args.gt)
    report = evaluate_masks(pred, gt)
    case = args.case or Path(args.pred).stem
    print(report.csv_row(case))


def _cmd_score_dir(args: argparse.Namespace) -> None:
    score_files(args.checkpoint, args.val, args.out)
    print(f"scores written to {args.out}")


def _cmd_overlay(args: argparse.Namespace) -> None:
    pred = load_mask(args.pred).data[0]
    gt = load_mask(args.gt).data[0]
    render_overlay(_load_slice(args.slice), pred, gt, args.out)
    print(f"overlay written to {args.out}")


def _cmd_pipeline(args: argparse.Namespace) -> None:
    cfg = parse_pipeline_config(args.config) if args.config else PipelineConfig()
    overrides: dict[str, str] = {}
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, val = item.partition("=")
        overrides[key.strip()] = val.strip()
    if overrides:
        cfg = dataclasses.replace(cfg, **coerce_fields(PipelineConfig, overrides))
    paths = run_pipeline(cfg, args.out, echo=not args.quiet)
    print(f"scores: {paths.scores_csv}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ftaseg",
        description="Semi-supervised volumetric segmentation pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate the synthetic benchmark")
    p.add_argument("--spec", help="key = value benchmark spec file")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("window", help="window-normalize raw volumes")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--bottom", type=float, default=500.0)
    p.add_argument("--top", type=float, default=2000.0)
    p.set_defaults(fn=_cmd_window)

    p = sub.add_parser("slice", help="list all planes of each volume in a manifest")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--val-fraction", type=float, default=None)
    p.add_argument("--by-volume", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_slice)

    p = sub.add_parser("fta", help="spectrally augment a slice pair")
    p.add_argument("--a", required=True, help="first slice file")
    p.add_argument("--b", required=True, help="second slice file")
    p.add_argument("--out-a", required=True)
    p.add_argument("--out-b", required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--lambda-max", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=0.25)
    p.add_argument("--mode", choices=MODES, default=MODE_PAPER)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_fta)

    p = sub.add_parser("train-stage1", help="supervised bootstrap + pseudo-labels")
    p.add_argument("--slices", required=True, help="labeled slices directory")
    p.add_argument("--unlabeled", default=None, help="windowed unlabeled volumes")
    p.add_argument("--out", required=True, help="also receives pseudo/ masks")
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--pseudo-count", type=int, default=10)
    p.add_argument("--lr", type=float, default=1e-4)
    p.add_argument("--batch", type=int, default=8)
    p.add_argument("--patch", type=int, default=5)
    p.add_argument("--hidden1", type=int, default=32)
    p.add_argument("--hidden2", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_train_stage1)

    p = sub.add_parser("train-stage2", help="consistency training")
    p.add_argument("--slices", required=True, help="labeled slices directory")
    p.add_argument("--pseudo-slices", default=None, help="stage-1 pseudo directory")
    p.add_argument("--unlabeled-slices", default=None)
    p.add_argument("--val", default=None, help="windowed validation volumes")
    p.add_argument("--init", required=True, help="stage-1 checkpoint")
    p.add_argument("--out", required=True)
    p.add_argument("--iters", type=int, default=1500)
    p.add_argument("--lr", type=float, default=1e-4)
    p.add_argument("--batch", type=int, default=8)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--lambda-max", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=0.25)
    p.add_argument("--mode", choices=MODES, default=MODE_PAPER)
    p.add_argument("--perturb", type=float, default=0.1)
    p.add_argument("--momentum", type=float, default=0.999)
    p.add_argument("--pseudo-weight", type=float, default=1.0)
    p.add_argument("--unsup-weight", type=float, default=0.5)
    p.add_argument("--val-points", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_train_stage2)

    p = sub.add_parser("score", help="score one predicted mask against truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--case", default=None)
    p.set_defaults(fn=_cmd_score)

    p = sub.add_parser("score-dir", help="score a checkpoint on validation volumes")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--val", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_score_dir)

    p = sub.add_parser("overlay", help="render prediction/truth overlay as PPM")
    p.add_argument("--slice", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_overlay)

    p = sub.add_parser("pipeline", help="run the full multi-stage pipeline")
    p.add_argument("--config", default=None, help="key = value config file")
    p.add_argument("--out", required=True, help="run directory")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config field")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(fn=_cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4
    except (DataError, FtasegError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
