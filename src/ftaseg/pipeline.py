"""File-level pipeline: config, stage orchestration, and result rendering.

Every stage reads and writes the on-disk formats (VOL1 volumes, slice
manifests, SEG1 checkpoints, CSV metrics) and takes the run's
``PipelineConfig``, so composing the CLI subcommands through files, each
given the run's ``config.txt``, reproduces ``run_pipeline`` byte for byte.
A run directory holds the resolved config snapshot, the run log, the labeled
slice manifest, the stage manifests, the pseudo masks and the metrics/scores
CSVs; the stages window the raw volumes as they load them and cut planes in
memory.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import time
from dataclasses import dataclass, replace
from datetime import datetime
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import ConfigError, DataError, FtasegError
from .fourier import FtaConfig
from .metrics import CSV_HEADER, MetricsReport, evaluate_masks, mean_report
from .model import (
    LaneTimes,
    ModelShape,
    TrainSchedule,
    in_two_lanes,
    load_checkpoint,
    save_checkpoint,
)
from .phantom import BenchmarkSpec, apply_domain_shift, gen_phantom
from .preprocess import (
    ManifestEntry,
    SliceManifest,
    WindowSpec,
    build_manifest,
    plane,
    plane_keys,
    read_manifest,
    slice_filename,
    slice_volume,
    split_train_val,
    window_in_place,
    window_normalize,
    write_manifest,
)
from .ssl import (
    HISTORY_HEADER,
    StageConfig,
    TrainSlice,
    run_stage1,
    run_stage2,
)
from .volume import (
    MaskVolume,
    Volume,
    load_mask,
    load_volume,
    read_dims,
    save_mask,
    save_volume,
)

MASK_SUFFIX = "_mask"


# ---------------------------------------------------------------------------
# Flat key = value configs


def _parse_kv(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        out[key.strip()] = val.strip()
    return out


def _coerce(name: str, raw: str, default) -> object:
    # A field whose default is None is an optional float; empty means None.
    try:
        if default is None:
            return None if raw == "" else float(raw)
        if isinstance(default, bool):
            low = raw.lower()
            if low in ("true", "1", "yes"):
                return True
            if low in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {name}: {raw!r}") from exc


def coerce_fields(cls, kv: dict[str, str]) -> dict:
    """Field values of dataclass ``cls`` parsed from strings, each by the
    type of its field's default; an unknown key is a ConfigError."""
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    values = {}
    for key, raw in kv.items():
        if key not in defaults:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = _coerce(key, raw, defaults[key])
    return values


def _format_kv(cfg) -> str:
    lines = []
    for f in dataclasses.fields(cfg):
        val = getattr(cfg, f.name)
        if val is None:
            val = ""
        elif isinstance(val, bool):
            val = "true" if val else "false"
        lines.append(f"{f.name} = {val}")
    return "\n".join(lines) + "\n"


# Each sub-config's flat keys: its field names behind a prefix, except the
# renamed ones.
_FLAT_KEYS: dict[type, tuple[str, dict[str, str]]] = {
    WindowSpec: ("window_", {}),
    FtaConfig: ("fta_", {"lambda_value": "fta_lambda", "mask_fraction": "fta_beta"}),
    StageConfig: ("", {}),
    ModelShape: ("", {}),
    TrainSchedule: ("", {"base_lr": "lr", "total_iters": "stage2_iters"}),
    BenchmarkSpec: ("synth_", {
        "shift_gain": "shift_gain", "shift_bias": "shift_bias",
        "shift_gamma": "shift_gamma", "shift_field": "shift_field", "seed": "seed",
    }),
}


def flat_keys(cls: type) -> dict[str, str]:
    """Field name -> ``PipelineConfig`` key of each keyed field of ``cls``."""
    prefix, renames = _FLAT_KEYS[cls]
    return {f.name: renames.get(f.name, prefix + f.name)
            for f in dataclasses.fields(cls)}


@dataclass(frozen=True)
class PipelineConfig:
    """Full pipeline configuration; every field has a runnable default.

    The fields are the flat ``key = value`` keys, in ``config.txt``'s order.
    A field backed by a sub-config takes that sub-config's default.
    Empty ``labeled_dir`` synthesizes the bundled benchmark into the run
    directory first.
    """

    labeled_dir: str = ""
    unlabeled_dir: str = ""
    val_dir: str = ""
    seed: int = StageConfig.seed
    window_bottom: float = WindowSpec.bottom
    window_top: float = WindowSpec.top
    val_fraction: float = 0.1
    split_by_volume: bool = False
    fta_lambda: float | None = FtaConfig.lambda_value
    fta_lambda_max: float = FtaConfig.lambda_max
    fta_beta: float = FtaConfig.mask_fraction
    fta_mode: str = FtaConfig.mode
    stage1_epochs: int = StageConfig.stage1_epochs
    stage1_pseudo_count: int = StageConfig.stage1_pseudo_count
    stage2_iters: int = TrainSchedule.total_iters
    batch_size: int = StageConfig.batch_size
    lr: float = TrainSchedule.base_lr
    patch: int = ModelShape.patch
    hidden1: int = ModelShape.hidden1
    hidden2: int = ModelShape.hidden2
    perturb_rate: float = StageConfig.perturb_rate
    threshold_momentum: float = StageConfig.threshold_momentum
    pseudo_weight: float = StageConfig.pseudo_weight
    unsup_weight: float = StageConfig.unsup_weight
    supervised_only: bool = False
    val_points: int = 10
    synth_dim: int = BenchmarkSpec.dim
    synth_labeled: int = BenchmarkSpec.labeled
    synth_unlabeled: int = BenchmarkSpec.unlabeled
    synth_val: int = BenchmarkSpec.val
    synth_ellipsoids: int = BenchmarkSpec.ellipsoids
    synth_radius_min: float = BenchmarkSpec.radius_min
    synth_radius_max: float = BenchmarkSpec.radius_max
    synth_fg_mean: float = BenchmarkSpec.fg_mean
    synth_fg_spread: float = BenchmarkSpec.fg_spread
    synth_fg_std: float = BenchmarkSpec.fg_std
    synth_bg_mean: float = BenchmarkSpec.bg_mean
    synth_bg_std: float = BenchmarkSpec.bg_std
    shift_gain: float = BenchmarkSpec.shift_gain
    shift_bias: float = BenchmarkSpec.shift_bias
    shift_gamma: float = BenchmarkSpec.shift_gamma
    shift_field: float = BenchmarkSpec.shift_field

    def __post_init__(self) -> None:
        if self.stage2_iters < 1 or self.val_points < 1:
            raise ConfigError("stage2_iters and val_points must be >= 1")
        if not 0.0 < self.val_fraction < 1.0:
            raise ConfigError(
                f"val_fraction must be in (0, 1), got {self.val_fraction}"
            )
        # Build every sub-config so bad values fail at parse time.
        for cls in _FLAT_KEYS:
            self._build(cls)

    def _build(self, cls: type):
        return cls(**{name: getattr(self, key) for name, key in flat_keys(cls).items()})

    def window(self) -> WindowSpec:
        return self._build(WindowSpec)

    def fta_config(self) -> FtaConfig:
        return self._build(FtaConfig)

    def stage_config(self) -> StageConfig:
        # The supervised-only baseline pseudo-annotates nothing.
        cfg = self._build(StageConfig)
        return replace(cfg, stage1_pseudo_count=0) if self.supervised_only else cfg

    def model_shape(self) -> ModelShape:
        return self._build(ModelShape)

    def train_schedule(self) -> TrainSchedule:
        return self._build(TrainSchedule)

    def benchmark_spec(self) -> BenchmarkSpec:
        return self._build(BenchmarkSpec)


def parse_pipeline_config(path: Path | str) -> PipelineConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"config file {path} is not UTF-8 text (byte {exc.start})"
        ) from exc
    return PipelineConfig(**coerce_fields(PipelineConfig, _parse_kv(text)))


def write_kv_config(cfg, path: Path | str) -> None:
    Path(path).write_text(_format_kv(cfg), encoding="utf-8")


# ---------------------------------------------------------------------------
# Run logging


class RunLog:
    """Line-oriented UTF-8 log with ISO-8601 timestamps."""

    def __init__(self, path: Path, echo: bool = False):
        self.path = path
        self.echo = echo
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("", encoding="utf-8")

    def __call__(self, msg: str) -> None:
        line = f"{datetime.now().isoformat(timespec='seconds')} {msg}"
        with open(self.path, "a", encoding="utf-8") as f:
            f.write(line + "\n")
        if self.echo:
            print(line)


# ---------------------------------------------------------------------------
# Synthetic benchmark generation


def generate_benchmark(spec: BenchmarkSpec, out_dir: Path | str) -> None:
    """Write labeled/, unlabeled/ and val/ volume sets plus a manifest.

    Each volume's seeds are drawn up front, in volume order, so its bytes do
    not depend on which of the two lanes (see ``in_two_lanes``) builds it.
    The manifest rows keep volume order. If a volume fails, the first
    failing volume's error is raised and no manifest is written.
    """
    out = Path(out_dir)
    children = np.random.SeedSequence(spec.seed).spawn(
        spec.labeled + 2 * (spec.unlabeled + spec.val)
    )
    seeds = (int(c.generate_state(1)[0]) for c in children)
    jobs = []  # (split, index, phantom seed, shift seed or None, with mask)
    for split, count, shifted, with_mask in (
        ("labeled", spec.labeled, False, True),
        ("unlabeled", spec.unlabeled, True, False),
        ("val", spec.val, True, True),
    ):
        for i in range(count):
            jobs.append((split, i, next(seeds), next(seeds) if shifted else None,
                         with_mask))

    def emit(job: tuple, _ws) -> str:
        split, idx, seed, shift_seed, with_mask = job
        vid = f"{split[:3]}_{idx:03d}"
        vol, mask = gen_phantom(spec, seed)
        if shift_seed is not None:
            vol = apply_domain_shift(vol, spec, shift_seed)
        sub = out / split
        sub.mkdir(parents=True, exist_ok=True)
        save_volume(vol, sub / f"{vid}.vol")
        mask_name = ""
        if with_mask:
            mask_name = f"{vid}{MASK_SUFFIX}.vol"
            save_mask(mask, sub / mask_name)
        return f"{vid},{split},{vid}.vol,{mask_name}"

    rows = ["id,split,file,mask_file", *in_two_lanes(emit, jobs, None)]
    (out / "benchmark.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Windowing and slicing over directories


def _volume_files(directory: Path) -> list[Path]:
    files = sorted(
        p for p in directory.glob("*.vol") if not p.stem.endswith(MASK_SUFFIX)
    )
    if not files:
        raise DataError(f"no volumes found in {directory}")
    return files


def _mask_path(vol_path: Path) -> Path:
    return vol_path.with_name(f"{vol_path.stem}{MASK_SUFFIX}.vol")


def _check_plane_dims(paths: list[Path], patch: int, along_z_only: bool) -> None:
    # Reflect padding needs every side of a plane longer than patch // 2.
    # Training planes are cut along all three axes; validation volumes are
    # predicted along z only, so only their H and W are plane sides.
    pad = patch // 2
    for path in paths:
        dims = read_dims(path)
        sides = dims[1:] if along_z_only else dims
        if min(sides) <= pad:
            raise DataError(
                f"{path}: dims {'x'.join(map(str, dims))} cut planes with a side "
                f"<= {pad}, too small for patch {patch}"
            )


def _check_val_masks(paths: list[Path]) -> None:
    # Each validation volume needs a mask of its dims; headers only.
    for path in paths:
        mask = _mask_path(path)
        if not mask.exists():
            raise DataError(f"validation volume {path.name} has no mask")
        dims, mask_dims = read_dims(path), read_dims(mask)
        if mask_dims != dims:
            raise DataError(f"{mask}: dims {mask_dims} differ from {path}'s {dims}")


def _load_raw(path: Path) -> Volume:
    vol = load_volume(path)
    if not np.isfinite(vol.data).all():
        raise DataError(f"{path}: raw volume has NaN or infinite values")
    return vol


def window_dir(in_dir: Path | str, out_dir: Path | str, w: WindowSpec) -> int:
    """Window-normalize every volume; companion masks are copied verbatim.
    A raw volume with a NaN or infinite voxel is a DataError."""
    in_dir, out_dir = Path(in_dir), Path(out_dir)
    if not in_dir.is_dir():
        raise DataError(f"input directory {in_dir} does not exist")
    out_dir.mkdir(parents=True, exist_ok=True)
    count = 0
    for path in _volume_files(in_dir):
        save_volume(window_normalize(_load_raw(path), w), out_dir / path.name)
        mask = _mask_path(path)
        if mask.exists():
            shutil.copyfile(mask, out_dir / mask.name)
        count += 1
    return count


def _relpath(path: Path, start: Path) -> str:
    return os.path.relpath(path.resolve(), start.resolve())


def slice_dir(
    in_dir: Path | str, out_dir: Path | str, cfg: PipelineConfig
) -> SliceManifest:
    """Manifest every plane along all three axes of each raw volume in
    ``in_dir``; rows point at the volume and its companion mask, and a
    seeded ``val_fraction`` of them (of whole volumes with
    ``split_by_volume``) is marked as the validation split.
    """
    in_dir, out_dir = Path(in_dir), Path(out_dir)
    if not in_dir.is_dir():
        raise DataError(f"input directory {in_dir} does not exist")
    out_dir.mkdir(parents=True, exist_ok=True)
    entries: list[ManifestEntry] = []
    for path in _volume_files(in_dir):
        mask = _mask_path(path)
        entries += build_manifest(
            slice_volume(load_volume(path)),
            path.stem,
            file=_relpath(path, out_dir),
            mask_file=_relpath(mask, out_dir) if mask.exists() else "",
        ).entries
    manifest = split_train_val(
        SliceManifest(tuple(entries)), cfg.val_fraction, cfg.seed, cfg.split_by_volume
    )
    write_manifest(manifest, out_dir / "manifest.csv")
    return manifest


# ---------------------------------------------------------------------------
# Slice set loading


def _load_windowed(path: Path, w: WindowSpec) -> Volume:
    """The raw volume at ``path`` as ``window_normalize`` windows it, windowed
    in place in the array it was read into."""
    data = _load_raw(path).data
    data.flags.writeable = True  # the dropped raw Volume's own buffer
    return Volume(window_in_place(data, w))


def _cut(e: ManifestEntry, root: Path, name: str, load, cache: dict) -> np.ndarray:
    # Manifest rows come grouped by volume, so keeping only the last file
    # loaded into ``cache``, keyed by name, reads every volume and mask once.
    # Errors name the file by its resolved path.
    if name not in cache:
        cache.clear()
        path = (root / name).resolve()
        try:
            cache[name] = load(path).data
        except OSError as exc:  # also an empty mask_file, which names the dir
            raise DataError(f"cannot read {path} from the slice manifest") from exc
    try:
        return plane(cache[name], e.axis, e.index)
    except DataError as exc:
        raise DataError(f"{(root / name).resolve()}: {exc}") from exc


def load_train_slices(
    slices_dir: Path | str,
    manifest: SliceManifest,
    w: WindowSpec,
    split: str = "train",
) -> list[TrainSlice]:
    """The ``split`` rows of a manifest in ``slices_dir`` as image and mask
    planes, in manifest order; the images are windowed by ``w``."""
    slices_dir = Path(slices_dir)
    volumes: dict = {}
    masks: dict = {}
    out: list[TrainSlice] = []
    for e in manifest.entries:
        if e.split != split:
            continue
        out.append(
            TrainSlice(
                image=_cut(e, slices_dir, e.file,
                           lambda p: _load_windowed(p, w), volumes),
                target=_cut(e, slices_dir, e.mask_file, load_mask, masks),
            )
        )
    return out


def load_unlabeled_slices(
    unlabeled_dir: Path | str,
    pseudo_masks: dict[str, Path],
    w: WindowSpec,
    pseudo_weight: float = 1.0,
) -> tuple[list[TrainSlice], list[np.ndarray]]:
    """Planes of the volumes in ``unlabeled_dir``, each read once and
    windowed by ``w``: image and mask planes of weight ``pseudo_weight`` for
    each id with a mask in ``pseudo_masks`` (id -> path), in id order, then
    the pool's image planes, in file order. A volume's planes come in
    ``plane_keys`` order."""
    udir = Path(unlabeled_dir)
    pseudo: list[TrainSlice] = []
    for vid, mask_path in sorted(pseudo_masks.items()):
        path = udir / f"{vid}.vol"
        try:
            image = _load_windowed(path, w).data
        except OSError as exc:
            raise DataError(f"cannot read {path} for pseudo mask {mask_path}") from exc
        target = load_mask(mask_path).data
        if target.shape != image.shape:
            raise DataError(f"{mask_path}: dims {target.shape} differ from "
                            f"{path}'s {image.shape}")
        pseudo += [TrainSlice(plane(image, *k), plane(target, *k), pseudo_weight)
                   for k in plane_keys(image.shape)]
    pool: list[np.ndarray] = []
    for path in _volume_files(udir):
        if path.stem not in pseudo_masks:
            image = _load_windowed(path, w).data
            pool += [plane(image, *k) for k in plane_keys(image.shape)]
    return pseudo, pool


def load_val_cases(
    val_dir: Path | str, w: WindowSpec
) -> tuple[list[str], Callable[[str], tuple[Volume, MaskVolume]]]:
    """Validation ids and a loader of one case, the volume windowed by ``w``
    and its mask; each mask's header is checked against its volume's, and
    each volume is read once here to check it, then dropped."""
    files = _volume_files(Path(val_dir))
    _check_val_masks(files)
    for path in files:
        _load_raw(path)  # finite voxels

    def load(cid: str) -> tuple[Volume, MaskVolume]:
        path = Path(val_dir) / f"{cid}.vol"
        return _load_windowed(path, w), load_mask(_mask_path(path))

    return [path.stem for path in files], load


# ---------------------------------------------------------------------------
# Training stages over files


def _train_planes(
    slices_dir: Path, w: WindowSpec, patch: int
) -> tuple[SliceManifest, list[TrainSlice]]:
    # The slice manifest and its train planes; every volume it names is cut
    # along all three axes, so their plane sides are checked.
    manifest = read_manifest(slices_dir / "manifest.csv")
    labeled = load_train_slices(slices_dir, manifest, w, "train")
    files = [(slices_dir / f).resolve()
             for f in dict.fromkeys(e.file for e in manifest.entries)]
    _check_plane_dims(files, patch, along_z_only=False)
    return manifest, labeled


def _unlabeled_files(
    cfg: PipelineConfig, unlabeled_dir: Path | str | None, patch: int
) -> list[Path] | None:
    # The unlabeled volumes a stage trains on, their plane sides checked;
    # None without a directory, and for the supervised-only baseline, which
    # reads no unlabeled data.
    if unlabeled_dir is None or cfg.supervised_only:
        return None
    files = _volume_files(Path(unlabeled_dir))
    _check_plane_dims(files, patch, along_z_only=False)
    return files


def train_stage1_files(
    slices_dir: Path | str,
    unlabeled_dir: Path | str | None,
    out_dir: Path | str,
    cfg: PipelineConfig,
) -> tuple[Path, frozenset[str], LaneTimes]:
    """Train on labeled slices and pseudo-annotate unlabeled volumes, each
    windowed by ``cfg.window()`` as it is read.

    Only the unlabeled volumes picked for pseudo-annotation are read; the
    headers of all of them, and of the labeled volumes, are checked for
    plane size before training. The pseudo masks, stage 2's second training
    source, replace any in ``out_dir/pseudo`` as ``<id>_mask.vol``. Returns
    the checkpoint path, the pseudo-annotated volume ids, and the busy and
    wait times of the two lanes of training and pseudo-annotation.
    """
    slices_dir, out_dir = Path(slices_dir), Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    w = cfg.window()
    manifest, labeled = _train_planes(slices_dir, w, cfg.patch)
    ufiles = _unlabeled_files(cfg, unlabeled_dir, cfg.patch) or []
    unlabeled_ids = [path.stem for path in ufiles]

    def load(vid: str) -> Volume:
        return _load_windowed(Path(unlabeled_dir) / f"{vid}.vol", w)

    result = run_stage1(
        labeled, unlabeled_ids, load, cfg.stage_config(), cfg.model_shape(), cfg.lr
    )
    ckpt = out_dir / "checkpoint.seg"
    save_checkpoint(result.model, result.step, ckpt)

    pseudo_dir = out_dir / "pseudo"
    pseudo_dir.mkdir(exist_ok=True)
    for stale in pseudo_dir.glob(f"*{MASK_SUFFIX}.vol"):
        stale.unlink()
    for p in result.pseudo:
        save_mask(MaskVolume._of_binary(p.mask),
                  pseudo_dir / f"{p.source_id}{MASK_SUFFIX}.vol")

    labeled_ids = {e.source_id for e in manifest.entries}
    lines = [
        "stage = stage1",
        f"seed = {cfg.seed}",
        f"epochs = {cfg.stage1_epochs}",
        f"batch_size = {cfg.batch_size}",
        f"base_lr = {cfg.lr}",
        f"labeled_volumes = {','.join(sorted(labeled_ids))}",
        f"unlabeled_volumes = {','.join(unlabeled_ids)}",
        f"pseudo_selected = {','.join(result.selected_ids)}",
        f"merged_volume_count = {len(labeled_ids) + len(result.selected_ids)}",
        f"final_epoch_loss = {result.epoch_losses[-1]:.6f}",
    ]
    lines += [f"warning = {w}" for w in result.warnings]
    (out_dir / "manifest.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return ckpt, frozenset(result.selected_ids), result.lanes


def train_stage2_files(
    slices_dir: Path | str,
    pseudo_dir: Path | str | None,
    unlabeled_dir: Path | str | None,
    val_dir: Path | str | None,
    init_checkpoint: Path | str,
    out_dir: Path | str,
    cfg: PipelineConfig,
) -> tuple[Path, list[tuple[str, MetricsReport]], LaneTimes]:
    """Consistency training from files; writes checkpoint, metrics history,
    and the stage manifest. Returns the checkpoint path, the last
    validation's per-case reports, which are the checkpoint's scores on
    ``val_dir`` (empty without one), and the busy and wait times of the
    two lanes of training and validation. Volumes are windowed by
    ``cfg.window()`` on load.

    Each ``<id>_mask.vol`` in stage 1's ``pseudo_dir`` pairs with ``<id>.vol``
    in ``unlabeled_dir``; its other volumes form the unlabeled pool.
    The plane size of the validation and unlabeled volumes, and of every
    volume the slice manifest names, is checked before training.
    """
    slices_dir, out_dir = Path(slices_dir), Path(out_dir)
    model, _ = load_checkpoint(init_checkpoint)
    patch = model.shape.patch
    if val_dir is not None:
        _check_plane_dims(_volume_files(Path(val_dir)), patch, along_z_only=True)
    out_dir.mkdir(parents=True, exist_ok=True)

    w = cfg.window()
    _, labeled = _train_planes(slices_dir, w, patch)
    pseudo_masks: dict[str, Path] = {}
    if pseudo_dir is not None:
        # Stage 1 writes one <id>_mask.vol per pseudo-annotated volume.
        if not Path(pseudo_dir).is_dir():
            raise DataError(f"pseudo directory {pseudo_dir} does not exist")
        masks = Path(pseudo_dir).glob(f"*{MASK_SUFFIX}.vol")
        pseudo_masks = {p.stem[:-len(MASK_SUFFIX)]: p for p in masks}
    unlabeled: list[np.ndarray] = []
    if _unlabeled_files(cfg, unlabeled_dir, patch) is not None:
        pseudo, unlabeled = load_unlabeled_slices(
            unlabeled_dir, pseudo_masks, w, cfg.pseudo_weight
        )
        labeled += pseudo
    elif pseudo_masks:
        raise DataError(f"{min(pseudo_masks.values())}: pseudo masks given "
                        "without their unlabeled volumes")

    val_ids, load_val = ([], None) if val_dir is None else load_val_cases(val_dir, w)

    result = run_stage2(
        model, labeled, unlabeled, val_ids, load_val, cfg.stage_config(),
        cfg.train_schedule(), cfg.fta_config(), cfg.val_points,
    )

    ckpt = out_dir / "checkpoint.seg"
    save_checkpoint(result.model, result.step, ckpt)
    history = [HISTORY_HEADER] + [row.csv_row() for row in result.history]
    (out_dir / "metrics.csv").write_text("\n".join(history) + "\n", encoding="utf-8")

    lines = [
        "stage = stage2",
        f"seed = {cfg.seed}",
        f"iterations = {cfg.stage2_iters}",
        f"base_lr = {cfg.lr}",
        f"batch_size = {cfg.batch_size}",
        f"fta_mode = {cfg.fta_mode}",
        f"fta_beta = {cfg.fta_beta}",
        f"labeled_slices = {len(labeled)}",
        f"unlabeled_slices = {len(unlabeled)}",
        f"pseudo_ids = {','.join(sorted(pseudo_masks))}",
        f"val_split_source = original labeled set only",
        f"final_tau = {result.threshold.tau:.6f}",
    ]
    lines += [f"warning = {w}" for w in result.warnings]
    (out_dir / "manifest.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return ckpt, result.val_reports, result.lanes


def write_scores(
    per_case: list[tuple[str, MetricsReport]], out_csv: Path | str
) -> None:
    """Per-case metric rows plus their mean row, as a scores CSV."""
    rows = [CSV_HEADER]
    rows += [report.csv_row(cid) for cid, report in per_case]
    rows.append(mean_report([report for _, report in per_case]).csv_row("mean"))
    Path(out_csv).write_text("\n".join(rows) + "\n", encoding="utf-8")


def score_files(
    model_ckpt: Path | str,
    val_dir: Path | str,
    out_csv: Path | str,
    w: WindowSpec,
) -> None:
    """Per-case metric rows plus a mean row for every validation volume,
    windowed by ``w``."""
    from .ssl import evaluate_volumes

    model, _ = load_checkpoint(model_ckpt)
    _, per_case = evaluate_volumes(model, *load_val_cases(val_dir, w))
    write_scores(per_case, out_csv)


# ---------------------------------------------------------------------------
# Overlay rendering


def render_overlay(
    plane: np.ndarray, pred: np.ndarray, gt: np.ndarray, path: Path | str
) -> None:
    """Binary PPM (P6) of a 2D plane: grayscale base; prediction, ground
    truth and their overlap tinted in red, green and blue respectively."""
    pred = np.asarray(pred, dtype=bool)
    gt = np.asarray(gt, dtype=bool)
    if pred.shape != plane.shape or gt.shape != plane.shape:
        raise DataError(
            f"overlay shapes differ: slice {plane.shape}, pred {pred.shape}, "
            f"gt {gt.shape}"
        )
    g = np.round(np.clip(plane, 0.0, 1.0) * 255.0).astype(np.uint8)
    rgb = np.stack([g, g, g], axis=-1)
    half = (g // 2).astype(np.uint8)
    for tint, region in (
        (0, pred & ~gt),
        (1, gt & ~pred),
        (2, pred & gt),
    ):
        for ch in range(3):
            rgb[..., ch] = np.where(region, 255 if ch == tint else half, rgb[..., ch])
    h, w = g.shape
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(rgb.tobytes())


# ---------------------------------------------------------------------------
# End-to-end pipeline


@dataclass
class PipelinePaths:
    out: Path
    scores_csv: Path
    stage2_metrics: Path
    stage1_ckpt: Path
    stage2_ckpt: Path


def run_pipeline(cfg: PipelineConfig, out_dir: Path | str, echo: bool = False) -> PipelinePaths:
    """Preprocess -> stage 1 -> stage 2 -> final scoring, all through files.

    Raises ConfigError/DataError/NumericError with the failing stage named in
    the run log and in the exception message.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    log = RunLog(out / "run.log", echo=echo)
    write_kv_config(cfg, out / "config.txt")
    log(f"run started, seed={cfg.seed}")

    def stage(name: str, fn):
        # The timestamps have 1 s resolution, so each stage's end line also
        # gives its elapsed seconds.
        log(f"stage {name} started")
        start = time.perf_counter()
        try:
            result = fn()
        except FtasegError as exc:
            log(f"stage {name} failed: {exc} ({time.perf_counter() - start:.3f} s)")
            raise type(exc)(f"[{name}] {exc}") from exc
        log(f"stage {name} finished ({time.perf_counter() - start:.3f} s)")
        return result

    # Resolve data sources, synthesizing the bundled benchmark if needed.
    if cfg.labeled_dir:
        labeled_dir = Path(cfg.labeled_dir)
        unlabeled_dir = Path(cfg.unlabeled_dir) if cfg.unlabeled_dir else None
        val_dir = Path(cfg.val_dir) if cfg.val_dir else None
    else:
        data = out / "data"

        def synth():
            generate_benchmark(cfg.benchmark_spec(), data)

        stage("synth", synth)
        labeled_dir = data / "labeled"
        unlabeled_dir = data / "unlabeled"
        val_dir = data / "val"

    slices = out / "slices" / "labeled"

    def preprocess():
        for name, src in (
            ("labeled", labeled_dir),
            ("unlabeled", unlabeled_dir),
            ("val", val_dir),
        ):
            if src is None:
                continue
            if not src.is_dir():
                raise DataError(f"{name} directory {src} does not exist")
            if name == "unlabeled":
                _unlabeled_files(cfg, src, cfg.patch)
                continue
            files = _volume_files(src)
            _check_plane_dims(files, cfg.patch, along_z_only=name == "val")
            if name == "val":
                _check_val_masks(files)
        slice_dir(labeled_dir, slices, cfg)

    stage("preprocess", preprocess)
    stage1_ckpt, _, lanes = stage("stage1", lambda: train_stage1_files(
        slices, unlabeled_dir, out / "stage1", cfg
    ))
    log(str(lanes))
    stage2_ckpt, val_reports, lanes = stage("stage2", lambda: train_stage2_files(
        slices, out / "stage1" / "pseudo", unlabeled_dir, val_dir, stage1_ckpt,
        out / "stage2", cfg,
    ))
    log(str(lanes))

    scores_csv = out / "scores.csv"

    def score():
        # Stage 2's last validation ran on the checkpoint's parameters over
        # the same volumes, so its reports are the scores.
        if val_dir is not None:
            write_scores(val_reports, scores_csv)
        else:
            _score_on_slice_split(stage2_ckpt, slices, cfg.window(), scores_csv)

    stage("score", score)
    log("run finished")
    return PipelinePaths(
        out=out,
        scores_csv=scores_csv,
        stage2_metrics=out / "stage2" / "metrics.csv",
        stage1_ckpt=stage1_ckpt,
        stage2_ckpt=stage2_ckpt,
    )


def _score_on_slice_split(
    ckpt: Path, slices_dir: Path, w: WindowSpec, out_csv: Path
) -> None:
    # Fallback scorer when no validation volumes exist: every held-out slice
    # is treated as a 1-deep volume.
    model, _ = load_checkpoint(ckpt)
    manifest = read_manifest(slices_dir / "manifest.csv")
    val = load_train_slices(slices_dir, manifest, w, "val")
    if not val:
        raise DataError("no validation slices in the split")
    # load_train_slices keeps manifest order, so the val rows name the planes.
    cases = sorted(
        zip(manifest.subset("val"), val),
        key=lambda c: (c[0].source_id, c[0].axis, c[0].index),
    )
    reports = []
    rows = [CSV_HEADER]
    for e, ts in cases:
        probs = model.predict_probs(ts.image)
        pred = MaskVolume._of_binary(
            (probs >= 0.5).astype(np.uint8).reshape(1, *probs.shape)
        )
        gt = MaskVolume(ts.target.reshape(1, *ts.target.shape))
        report = evaluate_masks(pred, gt)
        rows.append(report.csv_row(slice_filename(e.source_id, e.index, e.axis)))
        reports.append(report)
    rows.append(mean_report(reports).csv_row("mean"))
    out_csv.write_text("\n".join(rows) + "\n", encoding="utf-8")
