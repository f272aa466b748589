"""Intensity windowing, 3-axis slicing, and the train/validation split.

Planes are tagged ``x`` (fix x, shape D x H), ``y`` (fix y, shape D x W) or
``z`` (fix z, shape H x W). A slice manifest row names a plane by its volume
file, axis and index; planes are cut from the volume when it is loaded, and a
plane scored on its own is named ``<source_id>_<index>_<axis>.vol``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import ConfigError, DataError
from .volume import Volume

AXES = ("x", "y", "z")
SPLITS = ("train", "val")
MANIFEST_HEADER = ["file", "mask_file", "axis", "index", "source_id", "split"]

# Grid dimension each axis tag fixes in a z-major (D, H, W) array.
_AXIS_DIM = {"x": 2, "y": 1, "z": 0}


@dataclass(frozen=True)
class WindowSpec:
    """Intensity window [bottom, top] mapped linearly onto [0, 1]."""

    bottom: float = 500.0
    top: float = 2000.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.bottom) and math.isfinite(self.top)):
            raise ConfigError(
                f"window bounds must be finite, got [{self.bottom}, {self.top}]"
            )
        if not self.bottom < self.top:
            raise ConfigError(f"window bottom {self.bottom} must be < top {self.top}")


@dataclass(frozen=True)
class ManifestEntry:
    """Plane ``index`` along ``axis`` of the volume in ``file``; ``mask_file``
    holds its label volume, empty for unlabeled data. Both paths are relative
    to the manifest's directory."""

    file: str
    axis: str
    index: int
    source_id: str
    split: str = "train"
    mask_file: str = ""

    def __post_init__(self) -> None:
        if self.axis not in AXES:
            raise DataError(f"bad axis {self.axis!r} in manifest entry")
        if self.split not in SPLITS:
            raise DataError(f"bad split {self.split!r} in manifest entry")
        if self.index < 0:
            raise DataError(f"bad plane index {self.index} in manifest entry")


@dataclass(frozen=True)
class SliceManifest:
    entries: tuple[ManifestEntry, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))

    def __len__(self) -> int:
        return len(self.entries)

    def subset(self, split: str) -> tuple[ManifestEntry, ...]:
        return tuple(e for e in self.entries if e.split == split)

    def source_ids(self) -> tuple[str, ...]:
        return tuple(sorted({e.source_id for e in self.entries}))


def window_normalize(v: Volume, w: WindowSpec = WindowSpec()) -> Volume:
    """Clamp raw intensities to the window and rescale onto [0, 1]."""
    return Volume(window_in_place(np.array(v.data), w))


def window_in_place(data: np.ndarray, w: WindowSpec) -> np.ndarray:
    """``window_normalize``'s arithmetic on a float32 array, overwriting it."""
    data -= np.float32(w.bottom)
    data /= np.float32(w.top - w.bottom)
    return np.clip(data, 0.0, 1.0, out=data)


def plane(data: np.ndarray, axis: str, index: int) -> np.ndarray:
    """View of plane ``index`` along ``axis`` of a z-major (D, H, W) grid."""
    dim = _AXIS_DIM[axis]
    if not 0 <= index < data.shape[dim]:
        raise DataError(f"no {axis} plane {index} in a grid of dims {data.shape}")
    return data[(slice(None),) * dim + (index,)]


def plane_keys(dims: tuple[int, ...]) -> list[tuple[str, int]]:
    """(axis, index) of all D + H + W planes of a (D, H, W) grid, axis x<y<z."""
    return [(axis, i) for axis in AXES for i in range(dims[_AXIS_DIM[axis]])]


def slice_volume(v: Volume) -> list[tuple[str, int, np.ndarray]]:
    """``(axis, index, plane)`` for all planes of a volume, in ``plane_keys``
    order; each plane is a read-only view of the volume."""
    return [(axis, i, plane(v.data, axis, i)) for axis, i in plane_keys(v.data.shape)]


def slice_filename(source_id: str, index: int, axis: str) -> str:
    return f"{source_id}_{index}_{axis}.vol"


def build_manifest(
    planes: Iterable[tuple[str, int, np.ndarray]],
    source_id: str,
    split: str = "train",
    file: str | None = None,
    mask_file: str = "",
) -> SliceManifest:
    """Rows for ``slice_volume`` planes of the volume ``source_id`` stored at
    ``file`` (by default ``<source_id>.vol``)."""
    file = f"{source_id}.vol" if file is None else file
    return SliceManifest(tuple(
        ManifestEntry(file, axis, i, source_id, split, mask_file)
        for axis, i, _ in planes
    ))


def split_train_val(
    manifest: SliceManifest,
    val_fraction: float,
    seed: int = 0,
    by_volume: bool = False,
) -> SliceManifest:
    """Mark floor(val_fraction * N) entries as validation via a seeded shuffle.

    With ``by_volume`` the unit of selection is the source volume instead of
    the slice (leakage-free split): floor(val_fraction * V) volumes, at least
    one, are held out entirely.
    """
    if not 0.0 < val_fraction < 1.0:
        raise ConfigError(f"val_fraction must be in (0, 1), got {val_fraction}")
    n = len(manifest)
    if n == 0:
        raise DataError("cannot split an empty manifest")
    rng = np.random.default_rng(seed)
    if by_volume:
        ids = list(manifest.source_ids())
        n_val_vols = max(1, int(np.floor(val_fraction * len(ids))))
        val_ids = {ids[i] for i in rng.permutation(len(ids))[:n_val_vols]}
        return SliceManifest(
            tuple(
                replace(e, split="val" if e.source_id in val_ids else "train")
                for e in manifest.entries
            )
        )
    n_val = int(np.floor(val_fraction * n))
    val_idx = set(rng.permutation(n)[:n_val].tolist())
    return SliceManifest(
        tuple(
            replace(e, split="val" if i in val_idx else "train")
            for i, e in enumerate(manifest.entries)
        )
    )


def write_manifest(manifest: SliceManifest, path: Path | str) -> None:
    """UTF-8 CSV with header ``file,mask_file,axis,index,source_id,split``."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(MANIFEST_HEADER)
        for e in manifest.entries:
            writer.writerow([e.file, e.mask_file, e.axis, e.index, e.source_id, e.split])


def read_manifest(path: Path | str) -> SliceManifest:
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames != MANIFEST_HEADER:
            raise DataError(f"{path}: unexpected manifest header {reader.fieldnames}")
        try:
            entries = [ManifestEntry(**{**row, "index": int(row["index"])})
                       for row in reader]
        except (TypeError, ValueError) as exc:
            raise DataError(f"{path}: malformed manifest row: {exc}") from exc
    return SliceManifest(tuple(entries))
