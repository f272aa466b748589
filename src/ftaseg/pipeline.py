"""File-level pipeline: config, stage orchestration, and result rendering.

Every stage reads and writes the on-disk formats (VOL1 volumes, slice
manifests, SEG1 checkpoints, CSV metrics), so composing the CLI subcommands
through files reproduces ``run_pipeline`` byte for byte at equal seeds. A run
directory holds the resolved config snapshot, the run log, the windowed
volumes, all stage manifests, and the metrics/scores CSVs. Slice manifests
point into the windowed volumes; training planes are cut at load time.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
from dataclasses import dataclass, replace
from datetime import datetime
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, FtasegError
from .fourier import MODES, FtaConfig
from .metrics import CSV_HEADER, MetricsReport, evaluate_masks, mean_report
from .model import (
    ModelShape,
    TrainSchedule,
    load_checkpoint,
    save_checkpoint,
)
from .phantom import PhantomSpec, ShiftSpec, apply_domain_shift, gen_phantom
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
    NORMALIZED,
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


_OPTIONAL_FLOATS = {"fta_lambda"}


def _coerce(name: str, raw: str, default) -> object:
    try:
        if name in _OPTIONAL_FLOATS:
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


@dataclass(frozen=True)
class BenchmarkSpec:
    """Synthetic benchmark: source-domain labeled data, shifted-domain
    unlabeled and validation data."""

    dim: int = 32
    labeled: int = 12
    unlabeled: int = 40
    val: int = 10
    ellipsoids: int = 3
    radius_min: float = 3.0
    radius_max: float = 6.0
    fg_mean: float = 1400.0
    fg_spread: float = 0.0
    fg_std: float = 40.0
    bg_mean: float = 300.0
    bg_std: float = 40.0
    shift_gain: float = 0.82
    shift_bias: float = 150.0
    shift_gamma: float = 1.0
    shift_field: float = 140.0
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.labeled, self.unlabeled, self.val) < 0:
            raise ConfigError("volume counts must be >= 0")
        if self.fg_spread < 0:
            raise ConfigError("fg_spread must be >= 0")

    def phantom_spec(self, seed: int) -> PhantomSpec:
        # Per-volume foreground level drawn around fg_mean: each scan gets
        # its own contrast, so 12 labeled volumes undersample the range.
        r = (self.radius_min, self.radius_max)
        fg = self.fg_mean
        if self.fg_spread > 0:
            rng = np.random.default_rng(seed)
            fg = float(rng.uniform(fg - self.fg_spread, fg + self.fg_spread))
        return PhantomSpec(
            dims=(self.dim, self.dim, self.dim),
            ellipsoids=self.ellipsoids,
            radius_x=r, radius_y=r, radius_z=r,
            fg_mean=fg, fg_std=self.fg_std,
            bg_mean=self.bg_mean, bg_std=self.bg_std,
            seed=seed,
        )

    def shift_spec(self, seed: int) -> ShiftSpec:
        return ShiftSpec(
            gain=self.shift_gain, bias=self.shift_bias,
            gamma=self.shift_gamma, field_amplitude=self.shift_field,
            seed=seed,
        )


def parse_benchmark_spec(path: Path | str) -> BenchmarkSpec:
    kv = _parse_kv(Path(path).read_text())
    return BenchmarkSpec(**coerce_fields(BenchmarkSpec, kv))


@dataclass(frozen=True)
class PipelineConfig:
    """Full pipeline configuration; every field has a runnable default.

    Empty ``labeled_dir`` synthesizes the bundled benchmark into the run
    directory first.
    """

    labeled_dir: str = ""
    unlabeled_dir: str = ""
    val_dir: str = ""
    seed: int = 0
    window_bottom: float = 500.0
    window_top: float = 2000.0
    val_fraction: float = 0.1
    split_by_volume: bool = False
    fta_lambda: float | None = None
    fta_lambda_max: float = 1.0
    fta_beta: float = 0.25
    fta_mode: str = "paper-literal"
    stage1_epochs: int = 20
    stage1_pseudo_count: int = 10
    stage2_iters: int = 1500
    batch_size: int = 8
    lr: float = 1e-4
    patch: int = 5
    hidden1: int = 32
    hidden2: int = 16
    perturb_rate: float = 0.1
    threshold_momentum: float = 0.999
    pseudo_weight: float = 1.0
    unsup_weight: float = 0.5
    supervised_only: bool = False
    val_points: int = 10
    synth_dim: int = 32
    synth_labeled: int = 12
    synth_unlabeled: int = 40
    synth_val: int = 10
    synth_ellipsoids: int = 3
    synth_radius_min: float = 3.0
    synth_radius_max: float = 6.0
    synth_fg_mean: float = 1400.0
    synth_fg_spread: float = 0.0
    synth_fg_std: float = 40.0
    synth_bg_mean: float = 300.0
    synth_bg_std: float = 40.0
    shift_gain: float = 0.82
    shift_bias: float = 150.0
    shift_gamma: float = 1.0
    shift_field: float = 140.0

    def __post_init__(self) -> None:
        if self.fta_mode not in MODES:
            raise ConfigError(f"fta_mode must be one of {MODES}")
        if self.stage2_iters < 1 or self.val_points < 1:
            raise ConfigError("stage2_iters and val_points must be >= 1")
        # Construct the derived configs so bad values fail at parse time.
        self.window()
        self.fta_config()
        self.stage_config()
        self.model_shape()
        TrainSchedule(self.lr, self.stage2_iters)
        self.benchmark_spec()

    def window(self) -> WindowSpec:
        return WindowSpec(self.window_bottom, self.window_top)

    def fta_config(self) -> FtaConfig:
        return FtaConfig(
            lambda_value=self.fta_lambda,
            lambda_max=self.fta_lambda_max,
            mask_fraction=self.fta_beta,
            mode=self.fta_mode,
        )

    def stage_config(self) -> StageConfig:
        return StageConfig(
            stage1_epochs=self.stage1_epochs,
            stage1_pseudo_count=self.stage1_pseudo_count,
            perturb_rate=self.perturb_rate,
            batch_size=self.batch_size,
            pseudo_weight=self.pseudo_weight,
            unsup_weight=self.unsup_weight,
            threshold_momentum=self.threshold_momentum,
            seed=self.seed,
        )

    def model_shape(self) -> ModelShape:
        return ModelShape(self.patch, self.hidden1, self.hidden2)

    def benchmark_spec(self) -> BenchmarkSpec:
        return BenchmarkSpec(
            dim=self.synth_dim,
            labeled=self.synth_labeled,
            unlabeled=self.synth_unlabeled,
            val=self.synth_val,
            ellipsoids=self.synth_ellipsoids,
            radius_min=self.synth_radius_min,
            radius_max=self.synth_radius_max,
            fg_mean=self.synth_fg_mean,
            fg_spread=self.synth_fg_spread,
            fg_std=self.synth_fg_std,
            bg_mean=self.synth_bg_mean,
            bg_std=self.synth_bg_std,
            shift_gain=self.shift_gain,
            shift_bias=self.shift_bias,
            shift_gamma=self.shift_gamma,
            shift_field=self.shift_field,
            seed=self.seed,
        )


def parse_pipeline_config(path: Path | str) -> PipelineConfig:
    kv = _parse_kv(Path(path).read_text())
    return PipelineConfig(**coerce_fields(PipelineConfig, kv))


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
    """Write labeled/, unlabeled/ and val/ volume sets plus a manifest."""
    out = Path(out_dir)
    children = np.random.SeedSequence(spec.seed).spawn(
        spec.labeled + 2 * (spec.unlabeled + spec.val)
    )
    seeds = [int(c.generate_state(1)[0]) for c in children]
    rows = ["id,split,file,mask_file"]

    def emit(split: str, idx: int, shifted: bool, with_mask: bool, si: int) -> int:
        vid = f"{split[:3]}_{idx:03d}"
        vol, mask = gen_phantom(spec.phantom_spec(seeds[si]))
        si += 1
        if shifted:
            vol = apply_domain_shift(vol, spec.shift_spec(seeds[si]))
            si += 1
        sub = out / split
        sub.mkdir(parents=True, exist_ok=True)
        save_volume(vol, sub / f"{vid}.vol")
        mask_name = ""
        if with_mask:
            mask_name = f"{vid}{MASK_SUFFIX}.vol"
            save_mask(mask, sub / mask_name)
        rows.append(f"{vid},{split},{vid}.vol,{mask_name}")
        return si

    si = 0
    for i in range(spec.labeled):
        si = emit("labeled", i, shifted=False, with_mask=True, si=si)
    for i in range(spec.unlabeled):
        si = emit("unlabeled", i, shifted=True, with_mask=False, si=si)
    for i in range(spec.val):
        si = emit("val", i, shifted=True, with_mask=True, si=si)
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


def _check_plane_dims(directory: Path, patch: int, along_z_only: bool) -> None:
    # Reflect padding needs every side of a plane longer than patch // 2.
    # Training planes are cut along all three axes; validation volumes are
    # predicted along z only, so only their H and W are plane sides.
    pad = patch // 2
    for path in _volume_files(directory):
        dims = read_dims(path)
        sides = dims[1:] if along_z_only else dims
        if min(sides) <= pad:
            raise DataError(
                f"{path}: dims {'x'.join(map(str, dims))} cut planes with a side "
                f"<= {pad}, too small for patch {patch}"
            )


def window_dir(in_dir: Path | str, out_dir: Path | str, w: WindowSpec) -> int:
    """Window-normalize every volume; companion masks are copied verbatim."""
    in_dir, out_dir = Path(in_dir), Path(out_dir)
    if not in_dir.is_dir():
        raise DataError(f"input directory {in_dir} does not exist")
    out_dir.mkdir(parents=True, exist_ok=True)
    count = 0
    for path in _volume_files(in_dir):
        save_volume(window_normalize(load_volume(path), w), out_dir / path.name)
        mask = _mask_path(path)
        if mask.exists():
            shutil.copyfile(mask, out_dir / mask.name)
        count += 1
    return count


def _relpath(path: Path, start: Path) -> str:
    return os.path.relpath(path.resolve(), start.resolve())


def slice_dir(
    in_dir: Path | str,
    out_dir: Path | str,
    val_fraction: float | None = None,
    seed: int = 0,
    by_volume: bool = False,
) -> SliceManifest:
    """Manifest every plane along all three axes of each windowed volume in
    ``in_dir``; rows point at the volume and its companion mask.

    ``val_fraction`` marks a seeded validation split in the manifest; None
    leaves every slice in the train split.
    """
    in_dir, out_dir = Path(in_dir), Path(out_dir)
    if not in_dir.is_dir():
        raise DataError(f"input directory {in_dir} does not exist")
    out_dir.mkdir(parents=True, exist_ok=True)
    entries: list[ManifestEntry] = []
    for path in _volume_files(in_dir):
        mask = _mask_path(path)
        entries += build_manifest(
            slice_volume(load_volume(path, NORMALIZED)),
            path.stem,
            file=_relpath(path, out_dir),
            mask_file=_relpath(mask, out_dir) if mask.exists() else "",
        ).entries
    manifest = SliceManifest(tuple(entries))
    if val_fraction is not None:
        manifest = split_train_val(manifest, val_fraction, seed, by_volume)
    write_manifest(manifest, out_dir / "manifest.csv")
    return manifest


# ---------------------------------------------------------------------------
# Slice set loading


def _load_normalized(path: Path) -> Volume:
    return load_volume(path, NORMALIZED)


def _cut(e: ManifestEntry, path: Path, load, cache: dict) -> np.ndarray:
    # Manifest rows come grouped by volume, so keeping only the last file
    # loaded into ``cache`` reads every volume and mask once.
    if path not in cache:
        cache.clear()
        try:
            cache[path] = load(path).data
        except OSError as exc:  # also an empty mask_file, which names the dir
            raise DataError(f"cannot read {path} from the slice manifest") from exc
    try:
        return plane(cache[path], e.axis, e.index)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def load_train_slices(
    slices_dir: Path | str,
    manifest: SliceManifest,
    split: str = "train",
    weight: float = 1.0,
) -> list[TrainSlice]:
    """The ``split`` rows of a manifest in ``slices_dir`` as image and mask
    planes with loss weight ``weight``, in manifest order."""
    slices_dir = Path(slices_dir)
    volumes: dict = {}
    masks: dict = {}
    out: list[TrainSlice] = []
    for e in manifest.entries:
        if e.split != split:
            continue
        out.append(
            TrainSlice(
                image=_cut(e, slices_dir / e.file, _load_normalized, volumes),
                target=_cut(e, slices_dir / e.mask_file, load_mask, masks),
                weight=weight,
            )
        )
    return out


def load_unlabeled_slices(
    slices_dir: Path | str,
    manifest: SliceManifest,
    exclude_ids: frozenset[str] = frozenset(),
) -> list[np.ndarray]:
    """Image planes of every manifest row outside ``exclude_ids``, in order."""
    slices_dir = Path(slices_dir)
    volumes: dict = {}
    return [
        _cut(e, slices_dir / e.file, _load_normalized, volumes)
        for e in manifest.entries
        if e.source_id not in exclude_ids
    ]


def load_val_cases(
    windowed_dir: Path | str,
) -> list[tuple[str, Volume, MaskVolume]]:
    """Validation volumes with ground-truth masks from a windowed directory."""
    windowed_dir = Path(windowed_dir)
    cases = []
    for path in _volume_files(windowed_dir):
        mask = _mask_path(path)
        if not mask.exists():
            raise DataError(f"validation volume {path.name} has no mask")
        cases.append((path.stem, load_volume(path, NORMALIZED), load_mask(mask)))
    return cases


# ---------------------------------------------------------------------------
# Training stages over files


def train_stage1_files(
    slices_dir: Path | str,
    unlabeled_windowed_dir: Path | str | None,
    out_dir: Path | str,
    cfg: StageConfig,
    shape: ModelShape,
    base_lr: float,
) -> tuple[Path, frozenset[str]]:
    """Train on labeled slices and pseudo-annotate unlabeled volumes.

    Only the unlabeled volumes picked for pseudo-annotation are read; the
    headers of all of them are checked for plane size before training. The
    pseudo masks and their slice manifest, stage 2's second training
    source, go to ``out_dir/pseudo``. Returns the checkpoint path and the
    pseudo-annotated volume ids.
    """
    slices_dir, out_dir = Path(slices_dir), Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = read_manifest(slices_dir / "manifest.csv")
    labeled = load_train_slices(slices_dir, manifest, "train")

    unlabeled_ids: list[str] = []
    if unlabeled_windowed_dir is not None:
        udir = Path(unlabeled_windowed_dir)
        _check_plane_dims(udir, shape.patch, along_z_only=False)
        unlabeled_ids = [path.stem for path in _volume_files(udir)]

    def load(vid: str) -> Volume:
        return _load_normalized(udir / f"{vid}.vol")

    result = run_stage1(labeled, unlabeled_ids, load, cfg, shape, base_lr)
    ckpt = out_dir / "checkpoint.seg"
    save_checkpoint(result.model, result.step, ckpt)

    pseudo_dir = out_dir / "pseudo"
    pseudo_dir.mkdir(exist_ok=True)
    entries: list[ManifestEntry] = []
    for p in sorted(result.pseudo, key=lambda label: label.source_id):
        mask_name = f"{p.source_id}{MASK_SUFFIX}.vol"
        save_mask(MaskVolume(p.mask), pseudo_dir / mask_name)
        file = _relpath(udir / f"{p.source_id}.vol", pseudo_dir)
        entries += [
            ManifestEntry(file, axis, i, p.source_id, mask_file=mask_name)
            for axis, i in plane_keys(p.mask.shape)
        ]
    write_manifest(SliceManifest(tuple(entries)), pseudo_dir / "manifest.csv")

    labeled_ids = {e.source_id for e in manifest.entries}
    lines = [
        "stage = stage1",
        f"seed = {cfg.seed}",
        f"epochs = {cfg.stage1_epochs}",
        f"batch_size = {cfg.batch_size}",
        f"base_lr = {base_lr}",
        f"labeled_volumes = {','.join(sorted(labeled_ids))}",
        f"unlabeled_volumes = {','.join(unlabeled_ids)}",
        f"pseudo_selected = {','.join(result.selected_ids)}",
        f"merged_volume_count = {len(labeled_ids) + len(result.selected_ids)}",
        f"final_epoch_loss = {result.epoch_losses[-1]:.6f}",
    ]
    lines += [f"warning = {w}" for w in result.warnings]
    (out_dir / "manifest.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return ckpt, frozenset(result.selected_ids)


def train_stage2_files(
    slices_dir: Path | str,
    pseudo_slices_dir: Path | str | None,
    unlabeled_slices_dir: Path | str | None,
    val_windowed_dir: Path | str | None,
    init_checkpoint: Path | str,
    out_dir: Path | str,
    cfg: StageConfig,
    sched: TrainSchedule,
    fta_cfg: FtaConfig,
    val_points: int = 10,
) -> tuple[Path, list[tuple[str, MetricsReport]]]:
    """Consistency training from files; writes checkpoint, metrics history,
    and the stage manifest. Returns the checkpoint path and the last
    validation's per-case reports, which are the checkpoint's scores on
    ``val_windowed_dir`` (empty without one).

    The pseudo-annotated volume ids come from stage 1's pseudo slice
    manifest; those volumes are excluded from the unlabeled pool. The
    validation volumes' plane size is checked before training.
    """
    slices_dir, out_dir = Path(slices_dir), Path(out_dir)
    model, _ = load_checkpoint(init_checkpoint)
    if val_windowed_dir is not None:
        _check_plane_dims(
            Path(val_windowed_dir), model.shape.patch, along_z_only=True
        )
    out_dir.mkdir(parents=True, exist_ok=True)

    manifest = read_manifest(slices_dir / "manifest.csv")
    labeled = load_train_slices(slices_dir, manifest, "train")
    pseudo_ids: frozenset[str] = frozenset()
    if pseudo_slices_dir is not None:
        pdir = Path(pseudo_slices_dir)
        pmanifest = read_manifest(pdir / "manifest.csv")
        pseudo_ids = frozenset(pmanifest.source_ids())
        labeled += load_train_slices(pdir, pmanifest, "train", cfg.pseudo_weight)

    unlabeled: list[np.ndarray] = []
    if unlabeled_slices_dir is not None:
        udir = Path(unlabeled_slices_dir)
        umanifest = read_manifest(udir / "manifest.csv")
        unlabeled = load_unlabeled_slices(udir, umanifest, exclude_ids=pseudo_ids)

    val_cases = [] if val_windowed_dir is None else load_val_cases(val_windowed_dir)

    result = run_stage2(
        model, labeled, unlabeled, val_cases, cfg, sched, fta_cfg, val_points
    )

    ckpt = out_dir / "checkpoint.seg"
    save_checkpoint(result.model, result.step, ckpt)
    history = [HISTORY_HEADER] + [row.csv_row() for row in result.history]
    (out_dir / "metrics.csv").write_text("\n".join(history) + "\n", encoding="utf-8")

    lines = [
        "stage = stage2",
        f"seed = {cfg.seed}",
        f"iterations = {sched.total_iters}",
        f"base_lr = {sched.base_lr}",
        f"batch_size = {cfg.batch_size}",
        f"fta_mode = {fta_cfg.mode}",
        f"fta_beta = {fta_cfg.mask_fraction}",
        f"labeled_slices = {len(labeled)}",
        f"unlabeled_slices = {len(unlabeled)}",
        f"pseudo_ids = {','.join(sorted(pseudo_ids))}",
        f"val_split_source = original labeled set only",
        f"final_tau = {result.threshold.tau:.6f}",
    ]
    lines += [f"warning = {w}" for w in result.warnings]
    (out_dir / "manifest.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return ckpt, result.val_reports


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
    val_windowed_dir: Path | str,
    out_csv: Path | str,
) -> None:
    """Per-case metric rows plus a mean row for every validation volume."""
    from .ssl import evaluate_volumes

    model, _ = load_checkpoint(model_ckpt)
    _, per_case = evaluate_volumes(model, load_val_cases(val_windowed_dir))
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
        log(f"stage {name} started")
        try:
            result = fn()
        except FtasegError as exc:
            log(f"stage {name} failed: {exc}")
            raise type(exc)(f"[{name}] {exc}") from exc
        log(f"stage {name} finished")
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

    windowed = out / "windowed"
    slices = out / "slices"
    # The supervised-only baseline reads no unlabeled data in either stage.
    use_unlabeled = unlabeled_dir is not None and not cfg.supervised_only

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
            if name != "unlabeled" or use_unlabeled:
                _check_plane_dims(src, cfg.patch, along_z_only=name == "val")
                window_dir(src, windowed / name, cfg.window())
        slice_dir(
            windowed / "labeled", slices / "labeled",
            cfg.val_fraction, cfg.seed, cfg.split_by_volume,
        )
        if use_unlabeled:
            slice_dir(windowed / "unlabeled", slices / "unlabeled")

    stage("preprocess", preprocess)

    stage_cfg = cfg.stage_config()
    if cfg.supervised_only:
        stage_cfg = replace(stage_cfg, stage1_pseudo_count=0)

    def stage1():
        return train_stage1_files(
            slices / "labeled",
            (windowed / "unlabeled") if use_unlabeled else None,
            out / "stage1",
            stage_cfg,
            cfg.model_shape(),
            cfg.lr,
        )[0]

    stage1_ckpt = stage("stage1", stage1)

    def stage2():
        return train_stage2_files(
            slices / "labeled",
            out / "stage1" / "pseudo",
            (slices / "unlabeled") if use_unlabeled else None,
            (windowed / "val") if val_dir is not None else None,
            stage1_ckpt,
            out / "stage2",
            stage_cfg,
            TrainSchedule(cfg.lr, cfg.stage2_iters),
            cfg.fta_config(),
            val_points=cfg.val_points,
        )

    stage2_ckpt, val_reports = stage("stage2", stage2)

    scores_csv = out / "scores.csv"

    def score():
        # Stage 2's last validation ran on the checkpoint's parameters over
        # the same volumes, so its reports are the scores.
        if val_dir is not None:
            write_scores(val_reports, scores_csv)
        else:
            _score_on_slice_split(stage2_ckpt, slices / "labeled", scores_csv)

    stage("score", score)
    log("run finished")
    return PipelinePaths(
        out=out,
        scores_csv=scores_csv,
        stage2_metrics=out / "stage2" / "metrics.csv",
        stage1_ckpt=stage1_ckpt,
        stage2_ckpt=stage2_ckpt,
    )


def _score_on_slice_split(ckpt: Path, slices_dir: Path, out_csv: Path) -> None:
    # Fallback scorer when no validation volumes exist: every held-out slice
    # is treated as a 1-deep volume.
    model, _ = load_checkpoint(ckpt)
    manifest = read_manifest(slices_dir / "manifest.csv")
    val = load_train_slices(slices_dir, manifest, "val")
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
        pred = MaskVolume((probs >= 0.5).astype(np.uint8).reshape(1, *probs.shape))
        gt = MaskVolume(ts.target.reshape(1, *ts.target.shape))
        report = evaluate_masks(pred, gt)
        rows.append(report.csv_row(slice_filename(e.source_id, e.index, e.axis)))
        reports.append(report)
    rows.append(mean_report(reports).csv_row("mean"))
    out_csv.write_text("\n".join(rows) + "\n", encoding="utf-8")
