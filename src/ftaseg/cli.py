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
from .fourier import fta_augment_pair
from .metrics import evaluate_masks
from .pipeline import (
    PipelineConfig,
    coerce_fields,
    generate_benchmark,
    parse_pipeline_config,
    render_overlay,
    run_pipeline,
    score_files,
    slice_dir,
    train_stage1_files,
    train_stage2_files,
    window_dir,
)
from .volume import Volume, load_mask, load_volume, save_volume


def _load_slice(path: str, mask: bool = False) -> np.ndarray:
    # A slice file holds one plane: windowed intensities in [0, 1], or labels.
    data = (load_mask if mask else load_volume)(path).data
    if not mask and not bool(((data >= 0.0) & (data <= 1.0)).all()):
        raise DataError("normalized volume has values outside [0, 1]")
    if data.shape[0] != 1:
        raise DataError(f"{path}: expected a slice file (depth 1), got {data.shape}")
    return data[0]


def _config(args: argparse.Namespace) -> PipelineConfig:
    """The ``--config`` file, or the defaults, with each ``--set`` applied."""
    cfg = PipelineConfig()
    if args.config:
        try:
            cfg = parse_pipeline_config(args.config)
        except OSError as exc:
            raise ConfigError(
                f"cannot read config file {args.config}: {exc.strerror}"
            ) from exc
    overrides: dict[str, str] = {}
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, val = item.partition("=")
        overrides[key.strip()] = val.strip()
    if overrides:
        cfg = dataclasses.replace(cfg, **coerce_fields(PipelineConfig, overrides))
    return cfg


def _cmd_synth(args: argparse.Namespace) -> None:
    generate_benchmark(_config(args).benchmark_spec(), args.out)
    print(f"benchmark written to {args.out}")


def _cmd_window(args: argparse.Namespace) -> None:
    count = window_dir(args.input, args.out, _config(args).window())
    print(f"windowed {count} volumes into {args.out}")


def _cmd_slice(args: argparse.Namespace) -> None:
    manifest = slice_dir(args.input, args.out, _config(args))
    print(f"listed {len(manifest)} slices in {Path(args.out) / 'manifest.csv'}")


def _cmd_fta(args: argparse.Namespace) -> None:
    cfg = _config(args)
    fta_cfg = cfg.fta_config()
    lam = fta_cfg.draw_lambda(np.random.default_rng(cfg.seed))
    pair = fta_augment_pair(_load_slice(args.a), _load_slice(args.b), lam, fta_cfg)
    for plane, path in ((pair.z_w, args.out_a), (pair.z_u, args.out_b)):
        save_volume(Volume(plane[np.newaxis]), path)
    print(
        f"lambda={lam:.6f} beta={fta_cfg.mask_fraction} "
        f"residue={pair.imag_residue:.2e}"
    )


def _cmd_train_stage1(args: argparse.Namespace) -> None:
    ckpt, pseudo_ids, _ = train_stage1_files(
        args.slices, args.unlabeled, args.out, _config(args)
    )
    print(f"checkpoint {ckpt}; pseudo-annotated: {','.join(sorted(pseudo_ids)) or '-'}")


def _cmd_train_stage2(args: argparse.Namespace) -> None:
    ckpt, _, _ = train_stage2_files(
        args.slices, args.pseudo, args.unlabeled, args.val, args.init, args.out,
        _config(args),
    )
    print(f"checkpoint {ckpt}")


def _cmd_score(args: argparse.Namespace) -> None:
    pred = load_mask(args.pred)
    gt = load_mask(args.gt)
    report = evaluate_masks(pred, gt)
    case = args.case or Path(args.pred).stem
    print(report.csv_row(case))


def _cmd_score_dir(args: argparse.Namespace) -> None:
    score_files(args.checkpoint, args.val, args.out, _config(args).window())
    print(f"scores written to {args.out}")


def _cmd_overlay(args: argparse.Namespace) -> None:
    pred, gt = _load_slice(args.pred, mask=True), _load_slice(args.gt, mask=True)
    render_overlay(_load_slice(args.slice), pred, gt, args.out)
    print(f"overlay written to {args.out}")


def _cmd_pipeline(args: argparse.Namespace) -> None:
    paths = run_pipeline(_config(args), args.out, echo=not args.quiet)
    print(f"scores: {paths.scores_csv}")


def _add_config_args(p: argparse.ArgumentParser) -> None:
    keys = ", ".join(f.name for f in dataclasses.fields(PipelineConfig))
    p.add_argument("--config", default=None, metavar="FILE",
                   help="key = value config file, such as a run's config.txt")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help=f"override a config key, one of: {keys}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ftaseg",
        description="Semi-supervised volumetric segmentation pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate the synthetic benchmark")
    p.add_argument("--out", required=True)
    _add_config_args(p)
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("window", help="write window-normalized copies of raw volumes")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    _add_config_args(p)
    p.set_defaults(fn=_cmd_window)

    p = sub.add_parser("slice", help="list all planes of each volume in a manifest")
    p.add_argument("--in", dest="input", required=True, help="raw labeled volumes")
    p.add_argument("--out", required=True)
    _add_config_args(p)
    p.set_defaults(fn=_cmd_slice)

    p = sub.add_parser("fta", help="spectrally augment a slice pair")
    p.add_argument("--a", required=True, help="first slice file")
    p.add_argument("--b", required=True, help="second slice file")
    p.add_argument("--out-a", required=True)
    p.add_argument("--out-b", required=True)
    _add_config_args(p)
    p.set_defaults(fn=_cmd_fta)

    p = sub.add_parser("train-stage1", help="supervised bootstrap + pseudo-labels")
    p.add_argument("--slices", required=True, help="labeled slices directory")
    p.add_argument("--unlabeled", default=None, help="raw unlabeled volumes")
    p.add_argument("--out", required=True, help="also receives pseudo/ masks")
    _add_config_args(p)
    p.set_defaults(fn=_cmd_train_stage1)

    p = sub.add_parser("train-stage2", help="consistency training")
    p.add_argument("--slices", required=True, help="labeled slices directory")
    p.add_argument("--pseudo", default=None, help="stage-1 pseudo mask directory")
    p.add_argument("--unlabeled", default=None, help="raw unlabeled volumes")
    p.add_argument("--val", default=None, help="raw validation volumes")
    p.add_argument("--init", required=True, help="stage-1 checkpoint")
    p.add_argument("--out", required=True)
    _add_config_args(p)
    p.set_defaults(fn=_cmd_train_stage2)

    p = sub.add_parser("score", help="score one predicted mask against truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--case", default=None)
    p.set_defaults(fn=_cmd_score)

    p = sub.add_parser("score-dir", help="score a checkpoint on validation volumes")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--val", required=True, help="raw validation volumes")
    p.add_argument("--out", required=True)
    _add_config_args(p)
    p.set_defaults(fn=_cmd_score_dir)

    p = sub.add_parser("overlay", help="render prediction/truth overlay as PPM")
    p.add_argument("--slice", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_overlay)

    p = sub.add_parser("pipeline", help="run the full multi-stage pipeline")
    p.add_argument("--out", required=True, help="run directory")
    _add_config_args(p)
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
