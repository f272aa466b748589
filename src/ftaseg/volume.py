"""Volumetric data model and the VOL1 on-disk format.

Grids are z-major with x fastest: ``data[z, y, x]``, dims ``(D, H, W)``.
Voxel coordinates are ``(x, y, z)`` triples.

VOL1 layout (all integers little-endian):

    magic "VOL1" (4 bytes) | dtype code u8 | D u32 | H u32 | W u32 | payload

dtype code 1 = float32-LE intensities, 2 = uint8 binary labels. The payload
holds D*H*W elements in z-major order.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError

MAGIC = b"VOL1"
DTYPE_F32 = 1
DTYPE_U8 = 2

RAW = "raw"
NORMALIZED = "normalized"

_HEADER = struct.Struct("<4sBIII")


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Volume:
    """Immutable 3D scalar intensity grid with float32 semantics."""

    data: np.ndarray
    value_unit: str = RAW

    def __post_init__(self) -> None:
        arr = np.array(self.data, dtype=np.float32, copy=True)
        if arr.ndim != 3:
            raise DataError(f"volume data must be 3D, got ndim={arr.ndim}")
        if min(arr.shape) < 1:
            raise DataError(f"volume dims must all be >= 1, got {arr.shape}")
        if self.value_unit not in (RAW, NORMALIZED):
            raise DataError(f"unknown value_unit {self.value_unit!r}")
        if self.value_unit == NORMALIZED:
            if not bool(((arr >= 0.0) & (arr <= 1.0)).all()):
                raise DataError("normalized volume has values outside [0, 1]")
        object.__setattr__(self, "data", _freeze(arr))

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape  # type: ignore[return-value]


@dataclass(frozen=True)
class MaskVolume:
    """Immutable 3D binary label grid, one uint8 per voxel in {0, 1}."""

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.data, copy=True)
        if arr.ndim != 3:
            raise DataError(f"mask data must be 3D, got ndim={arr.ndim}")
        if min(arr.shape) < 1:
            raise DataError(f"mask dims must all be >= 1, got {arr.shape}")
        if arr.dtype != np.uint8:
            if not bool(np.isin(arr, (0, 1)).all()):
                raise DataError("mask values must be in {0, 1}")
            arr = arr.astype(np.uint8)
        elif arr.max(initial=0) > 1:
            raise DataError("mask values must be in {0, 1}")
        object.__setattr__(self, "data", _freeze(arr))

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape  # type: ignore[return-value]

    def voxel_count(self) -> int:
        return int(np.count_nonzero(self.data))


def _check_volume(v: Volume) -> None:
    # Re-run the range invariant: instances forged around the constructor
    # must not reach disk.
    if v.value_unit == NORMALIZED:
        if not bool(((v.data >= 0.0) & (v.data <= 1.0)).all()):
            raise DataError("normalized volume has values outside [0, 1]")


def _write(path: Path | str, dtype_code: int, arr: np.ndarray) -> None:
    d, h, w = arr.shape
    with open(path, "wb") as f:
        f.write(_HEADER.pack(MAGIC, dtype_code, d, h, w))
        f.write(np.ascontiguousarray(arr).tobytes())


def _read(path: Path | str) -> tuple[int, tuple[int, int, int], memoryview]:
    blob = Path(path).read_bytes()
    if len(blob) < _HEADER.size or blob[:4] != MAGIC:
        raise DataError(f"{path}: not a VOL1 file")
    _, dtype_code, d, h, w = _HEADER.unpack_from(blob)
    if min(d, h, w) < 1:
        raise DataError(f"{path}: zero dimension in header ({d}x{h}x{w})")
    if dtype_code not in (DTYPE_F32, DTYPE_U8):
        raise DataError(f"{path}: unknown dtype code {dtype_code}")
    elem = 4 if dtype_code == DTYPE_F32 else 1
    expected = _HEADER.size + d * h * w * elem
    if len(blob) != expected:
        raise DataError(
            f"{path}: payload length {len(blob) - _HEADER.size} does not match "
            f"dims {d}x{h}x{w}"
        )
    # A view, not a slice: a copy of the payload would double each load.
    return dtype_code, (d, h, w), memoryview(blob)[_HEADER.size:]


def read_dims(path: Path | str) -> tuple[int, int, int]:
    """The (D, H, W) dims of a VOL1 file, read from its header alone."""
    with open(path, "rb") as f:
        head = f.read(_HEADER.size)
    if len(head) < _HEADER.size or head[:4] != MAGIC:
        raise DataError(f"{path}: not a VOL1 file")
    _, _, d, h, w = _HEADER.unpack(head)
    return d, h, w


def save_volume(v: Volume, path: Path | str) -> None:
    """Write an intensity volume as VOL1 (deterministic bytes)."""
    _check_volume(v)
    _write(path, DTYPE_F32, v.data.astype("<f4", copy=False))


def load_volume(path: Path | str, value_unit: str = RAW) -> Volume:
    """Read a VOL1 intensity volume.

    The format does not persist the value unit; callers that know the
    provenance pass ``value_unit`` explicitly.
    """
    dtype_code, dims, payload = _read(path)
    if dtype_code != DTYPE_F32:
        raise DataError(f"{path}: expected float32 volume, found dtype {dtype_code}")
    data = np.frombuffer(payload, dtype="<f4").reshape(dims)
    return Volume(data, value_unit)


def save_mask(m: MaskVolume, path: Path | str) -> None:
    """Write a binary mask as VOL1 with dtype code 2."""
    _write(path, DTYPE_U8, m.data)


def load_mask(path: Path | str) -> MaskVolume:
    """Read a VOL1 binary mask; any payload byte outside {0, 1} is rejected."""
    dtype_code, dims, payload = _read(path)
    if dtype_code != DTYPE_U8:
        raise DataError(f"{path}: expected uint8 mask, found dtype {dtype_code}")
    data = np.frombuffer(payload, dtype=np.uint8)
    if data.max(initial=0) > 1:
        raise DataError(f"{path}: mask payload byte outside {{0, 1}}")
    return MaskVolume(data.reshape(dims))
