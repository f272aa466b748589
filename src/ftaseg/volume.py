"""Volumetric data model and the VOL1 on-disk format.

Grids are z-major with x fastest: ``data[z, y, x]``, dims ``(D, H, W)``.
Voxel coordinates are ``(x, y, z)`` triples.

VOL1 layout (all integers little-endian):

    magic "VOL1" (4 bytes) | dtype code u8 | D u32 | H u32 | W u32 | payload

dtype code 1 = float32-LE intensities, 2 = uint8 binary labels. The payload
holds D*H*W elements in z-major order.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError

MAGIC = b"VOL1"
DTYPE_F32 = 1
DTYPE_U8 = 2

_HEADER = struct.Struct("<4sBIII")


def _check_dims(arr: np.ndarray, kind: str) -> None:
    if arr.ndim != 3:
        raise DataError(f"{kind} data must be 3D, got ndim={arr.ndim}")
    if min(arr.shape) < 1:
        raise DataError(f"{kind} dims must all be >= 1, got {arr.shape}")


def _frozen_view(arr: np.ndarray) -> np.ndarray:
    view = arr.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class Volume:
    """3D scalar intensity grid, float32.

    ``data`` is a read-only view of the array given, not a copy, unless that
    array had to be converted to float32. The caller must not write to the
    array after wrapping it.
    """

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.data, dtype=np.float32)
        _check_dims(arr, "volume")
        object.__setattr__(self, "data", _frozen_view(arr))

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape  # type: ignore[return-value]


@dataclass(frozen=True)
class MaskVolume:
    """3D binary label grid, one uint8 per voxel in {0, 1}; like ``Volume``,
    a read-only view of the array given unless it had to be converted."""

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.data)
        _check_dims(arr, "mask")
        if arr.dtype != np.uint8:
            if not bool(np.isin(arr, (0, 1)).all()):
                raise DataError("mask values must be in {0, 1}")
            arr = arr.astype(np.uint8)
        elif arr.max(initial=0) > 1:
            raise DataError("mask values must be in {0, 1}")
        object.__setattr__(self, "data", _frozen_view(arr))

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape  # type: ignore[return-value]

    def voxel_count(self) -> int:
        return int(np.count_nonzero(self.data))


def _write(path: Path | str, dtype_code: int, arr: np.ndarray) -> None:
    d, h, w = arr.shape
    with open(path, "wb") as f:
        f.write(_HEADER.pack(MAGIC, dtype_code, d, h, w))
        f.write(np.ascontiguousarray(arr))  # the array's own buffer, no copy


def _header(f, path: Path | str) -> tuple[int, int, int, int]:
    head = f.read(_HEADER.size)
    if len(head) < _HEADER.size or head[:4] != MAGIC:
        raise DataError(f"{path}: not a VOL1 file")
    return _HEADER.unpack(head)[1:]


def _read(path: Path | str, dtype_code: int) -> np.ndarray:
    # The payload is read once, straight into the array returned: a buffer
    # of the header's size leaves nothing to read ahead past it.
    with open(path, "rb", buffering=_HEADER.size) as f:
        code, d, h, w = _header(f, path)
        if min(d, h, w) < 1:
            raise DataError(f"{path}: zero dimension in header ({d}x{h}x{w})")
        if code not in (DTYPE_F32, DTYPE_U8):
            raise DataError(f"{path}: unknown dtype code {code}")
        dtype = np.dtype("<f4" if code == DTYPE_F32 else np.uint8)
        length = os.fstat(f.fileno()).st_size - _HEADER.size
        if length != d * h * w * dtype.itemsize:
            raise DataError(
                f"{path}: payload length {length} does not match dims {d}x{h}x{w}"
            )
        if code != dtype_code:
            kind = "float32 volume" if dtype_code == DTYPE_F32 else "uint8 mask"
            raise DataError(f"{path}: expected {kind}, found dtype {code}")
        data = np.empty((d, h, w), dtype)
        if f.readinto(data) != length:
            raise DataError(f"{path}: file ended inside its payload")
    return data


def read_dims(path: Path | str) -> tuple[int, int, int]:
    """The (D, H, W) dims of a VOL1 file, read from its header alone."""
    with open(path, "rb") as f:
        return _header(f, path)[1:]


def save_volume(v: Volume, path: Path | str) -> None:
    """Write an intensity volume as VOL1 (deterministic bytes)."""
    _write(path, DTYPE_F32, v.data.astype("<f4", copy=False))


def load_volume(path: Path | str) -> Volume:
    """Read a VOL1 intensity volume."""
    return Volume(_read(path, DTYPE_F32))


def save_mask(m: MaskVolume, path: Path | str) -> None:
    """Write a binary mask as VOL1 with dtype code 2."""
    _write(path, DTYPE_U8, m.data)


def load_mask(path: Path | str) -> MaskVolume:
    """Read a VOL1 binary mask; any payload byte outside {0, 1} is rejected."""
    data = _read(path, DTYPE_U8)
    if data.max(initial=0) > 1:
        raise DataError(f"{path}: mask payload byte outside {{0, 1}}")
    return MaskVolume(data)
