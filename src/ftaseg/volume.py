"""Volumetric data model and the VOL1 on-disk format.

Grids are z-major with x fastest: ``data[z, y, x]``, dims ``(D, H, W)``.
Voxel coordinates are ``(x, y, z)`` triples.

VOL1 layout (all integers little-endian):

    magic "VOL1" (4 bytes) | dtype code u8 | D u32 | H u32 | W u32 | payload

dtype code 1 = float32-LE intensities, 3 = bit-packed binary labels, and
2 = uint8 binary labels (read, never written). The payload holds D*H*W
elements in z-major order. With code 3 it is ceil(D*H*W / 8) bytes: voxel i
is bit i % 8 of byte i // 8 (bit 0 first), and the padding bits of the last
byte are zero.

A volume load reads its payload once, straight into the array it returns,
and a save writes the array's own buffer. Masks are packed and unpacked a
bounded chunk of voxels at a time, straight from and into those buffers, so
neither copies a payload.
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
DTYPE_BITS = 3

_HEADER = struct.Struct("<4sBIII")

# Voxels per chunk of mask packing and unpacking, a multiple of 8: 2 KiB of
# packed bytes, small next to a mask's payload.
_BITS_CHUNK = 16384
# Unpacking widens packed byte b to a little-endian uint64, copies it to
# every byte (* _SPREAD) and keeps bit j in byte j (& _BIT_OF_BYTE); a byte
# is then nonzero exactly when its voxel is set.
_SPREAD = np.uint64(0x0101010101010101)
_BIT_OF_BYTE = np.uint64(0x8040201008040201)


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

    @classmethod
    def _of_binary(cls, arr: np.ndarray) -> "MaskVolume":
        # A mask over a 3D uint8 array whose maker already holds it to
        # {0, 1}, such as a loaded or a thresholded one: no pass rescans it.
        mask = object.__new__(cls)
        object.__setattr__(mask, "data", _frozen_view(arr))
        return mask

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape  # type: ignore[return-value]

    def voxel_count(self) -> int:
        return int(np.count_nonzero(self.data))


def _write(path: Path | str, dtype_code: int, arr: np.ndarray) -> None:
    d, h, w = arr.shape
    arr = np.ascontiguousarray(arr)  # the array's own buffer, no copy
    # Writes go straight to the file: a buffer of the header's size holds
    # nothing past it.
    with open(path, "wb", buffering=_HEADER.size) as f:
        f.write(_HEADER.pack(MAGIC, dtype_code, d, h, w))
        if dtype_code != DTYPE_BITS:
            f.write(arr)
            return
        flat = arr.reshape(-1)
        for v0 in range(0, flat.size, _BITS_CHUNK):
            f.write(np.packbits(flat[v0:v0 + _BITS_CHUNK], bitorder="little"))


def _header(f, path: Path | str) -> tuple[int, int, int, int]:
    head = f.read(_HEADER.size)
    if len(head) < _HEADER.size or head[:4] != MAGIC:
        raise DataError(f"{path}: not a VOL1 file")
    return _HEADER.unpack(head)[1:]


def _payload_length(code: int, voxels: int) -> int:
    if code == DTYPE_BITS:
        return -(-voxels // 8)
    return voxels * (4 if code == DTYPE_F32 else 1)


def _read_into(f, path: Path | str, buf: np.ndarray) -> None:
    if f.readinto(buf) != buf.nbytes:
        raise DataError(f"{path}: file ended inside its payload")


def _unpack_bits(f, path: Path | str, data: np.ndarray) -> None:
    # Fills data from a code-3 payload, a chunk of packed bytes at a time,
    # each byte widened in place into the 8 voxels it holds.
    flat = data.reshape(-1)
    whole, rest = divmod(flat.size, 8)
    words = flat[:8 * whole].view("<u8")
    packed = np.empty(_BITS_CHUNK // 8, np.uint8)
    for b0 in range(0, whole, packed.size):
        word = words[b0:b0 + packed.size]
        chunk = packed[:word.size]
        _read_into(f, path, chunk)
        np.copyto(word, chunk)
        word *= _SPREAD
        word &= _BIT_OF_BYTE
        voxels = flat[8 * b0:8 * (b0 + word.size)]
        np.not_equal(voxels, 0, out=voxels.view(bool))
    if rest:
        last = packed[:1]
        _read_into(f, path, last)
        if int(last[0]) >> rest:
            raise DataError(f"{path}: mask padding bit set")
        flat[8 * whole:] = np.unpackbits(last, count=rest, bitorder="little")


def _read(path: Path | str, codes: tuple[int, ...]) -> np.ndarray:
    # The payload of a file with one of the dtype codes in codes, read once
    # straight into the array returned (a buffer of the header's size leaves
    # nothing to read ahead past it), or a chunk at a time when packed.
    with open(path, "rb", buffering=_HEADER.size) as f:
        code, d, h, w = _header(f, path)
        if min(d, h, w) < 1:
            raise DataError(f"{path}: zero dimension in header ({d}x{h}x{w})")
        if code not in (DTYPE_F32, DTYPE_U8, DTYPE_BITS):
            raise DataError(f"{path}: unknown dtype code {code}")
        length = os.fstat(f.fileno()).st_size - _HEADER.size
        if length != _payload_length(code, d * h * w):
            raise DataError(
                f"{path}: payload length {length} does not match dims {d}x{h}x{w}"
            )
        if code not in codes:
            kind = "float32 volume" if DTYPE_F32 in codes else "mask"
            raise DataError(f"{path}: expected {kind}, found dtype {code}")
        data = np.empty((d, h, w), "<f4" if code == DTYPE_F32 else np.uint8)
        if code == DTYPE_BITS:
            _unpack_bits(f, path, data)
        else:
            _read_into(f, path, data)
    if code == DTYPE_U8 and data.max(initial=0) > 1:
        raise DataError(f"{path}: mask payload byte outside {{0, 1}}")
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
    return Volume(_read(path, (DTYPE_F32,)))


def save_mask(m: MaskVolume, path: Path | str) -> None:
    """Write a binary mask as VOL1 with dtype code 3, one bit per voxel."""
    _write(path, DTYPE_BITS, m.data)


def load_mask(path: Path | str) -> MaskVolume:
    """Read a VOL1 binary mask, bit-packed (code 3) or one byte per voxel
    (code 2); a set padding bit, or a code-2 byte outside {0, 1}, is
    rejected."""
    return MaskVolume._of_binary(_read(path, (DTYPE_BITS, DTYPE_U8)))
