"""Seeded tooth-phantom volumes and a device-style domain-shift simulator.

One ``BenchmarkSpec`` describes the synthetic benchmark: its volume counts,
the phantoms and the shift applied to the unlabeled and validation sets.
Phantoms are K non-overlapping axis-aligned ellipsoids of foreground
intensity on a constant background plus Gaussian noise; the mask is the
exact analytic ellipsoid membership, so brute-force voxel counting can
serve as ground truth in tests. Domain shift rescales intensities
(gain/bias/gamma) and adds a smooth low-frequency bias field; it never
touches masks.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .volume import RAW, MaskVolume, Volume

PLACEMENT_ATTEMPTS = 1000


@dataclass(frozen=True)
class BenchmarkSpec:
    """Synthetic benchmark: source-domain labeled data, shifted-domain
    unlabeled and validation data, all ``dim``-cubes. Construction rejects
    every value ``gen_phantom`` or ``apply_domain_shift`` cannot use."""

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
        for f in dataclasses.fields(self):
            val = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(val):
                raise ConfigError(f"{f.name} must be finite, got {val}")
        if min(self.labeled, self.unlabeled, self.val) < 0:
            raise ConfigError("volume counts must be >= 0")
        if self.dim < 1:
            raise ConfigError(f"dim must be >= 1, got {self.dim}")
        if self.ellipsoids < 0:
            raise ConfigError(f"ellipsoids must be >= 0, got {self.ellipsoids}")
        if not 0 < self.radius_min <= self.radius_max:
            raise ConfigError("radius range must satisfy 0 < radius_min <= radius_max")
        if self.ellipsoids > 0 and 2 * self.radius_max >= self.dim:
            raise ConfigError(
                f"radius_max {self.radius_max} does not fit in dim {self.dim}"
            )
        for name in ("fg_spread", "fg_std", "bg_std", "shift_field"):
            if (val := getattr(self, name)) < 0:
                raise ConfigError(f"{name} must be >= 0, got {val}")
        for name in ("shift_gain", "shift_gamma"):
            if (val := getattr(self, name)) <= 0:
                raise ConfigError(f"{name} must be > 0, got {val}")


def _place_ellipsoids(spec: BenchmarkSpec, rng: np.random.Generator) -> list[tuple]:
    placed: list[tuple] = []  # (center xyz, radii xyz)
    attempts = 0
    while len(placed) < spec.ellipsoids:
        if attempts >= PLACEMENT_ATTEMPTS:
            raise DataError(
                f"could not place {spec.ellipsoids} non-overlapping ellipsoids "
                f"after {PLACEMENT_ATTEMPTS} attempts"
            )
        attempts += 1
        radii = rng.uniform(spec.radius_min, spec.radius_max, 3)
        center = rng.uniform(radii, spec.dim - 1 - radii)
        # Bounding-sphere test keeps the membership masks disjoint.
        r_max = radii.max()
        ok = all(
            np.linalg.norm(center - c) > r_max + np.max(r)
            for c, r in placed
        )
        if ok:
            placed.append((center, radii))
    return placed


def ellipsoid_mask(
    dims: tuple[int, int, int],
    center: tuple[float, float, float],
    radii: tuple[float, float, float],
) -> MaskVolume:
    """Exact membership mask of one axis-aligned ellipsoid.

    ``center`` and ``radii`` are (x, y, z) triples; a voxel belongs to the
    ellipsoid when the normalized squared offsets sum to at most 1.
    """
    d, h, w = dims
    zz, yy, xx = np.ogrid[:d, :h, :w]
    cx, cy, cz = center
    rx, ry, rz = radii
    inside = (
        ((xx - cx) / rx) ** 2 + ((yy - cy) / ry) ** 2 + ((zz - cz) / rz) ** 2
    ) <= 1.0
    return MaskVolume(inside.astype(np.uint8))


def gen_phantom(spec: BenchmarkSpec, seed: int) -> tuple[Volume, MaskVolume]:
    """Deterministic (volume, mask) pair for a spec and a per-volume seed;
    the mask is exact membership. ``spec.seed`` is not read."""
    dims = (spec.dim,) * 3
    fg = spec.fg_mean
    if spec.fg_spread > 0:
        # Per-volume foreground level drawn around fg_mean: each scan gets
        # its own contrast, so 12 labeled volumes undersample the range.
        rng = np.random.default_rng(seed)
        fg = float(rng.uniform(fg - spec.fg_spread, fg + spec.fg_spread))
    rng = np.random.default_rng(seed)
    mask = np.zeros(dims, dtype=np.uint8)
    for center, radii in _place_ellipsoids(spec, rng):
        mask |= ellipsoid_mask(dims, tuple(center), tuple(radii)).data
    noise = rng.standard_normal(dims)
    std = np.where(mask == 1, spec.fg_std, spec.bg_std)
    data = np.where(mask == 1, fg, spec.bg_mean) + std * noise
    return Volume(data.astype(np.float32), RAW), MaskVolume(mask)


def smooth_bias_field(
    dims: tuple[int, int, int], amplitude: float, rng: np.random.Generator
) -> np.ndarray:
    """Low-frequency field whose adjacent-voxel step stays under 10% of amplitude.

    Sum of two plane-wave cosines at amplitude/2 each; the per-axis phase
    increment is capped at 0.045 rad per wave, bounding any single-voxel step
    by 2 * (A/2) * 0.045 = 0.09 * A.
    """
    if amplitude == 0.0:
        return np.zeros(dims)
    d, h, w = dims
    coords = np.ogrid[:d, :h, :w]
    field = np.zeros(dims)
    for _ in range(2):
        phase = rng.uniform(0.0, 2.0 * np.pi)
        total = phase
        for axis_coord, n in zip(coords, dims):
            step = min(0.045, np.pi / (n - 1)) if n > 1 else 0.0
            total = total + rng.choice((-1.0, 1.0)) * step * axis_coord
        field += 0.5 * amplitude * np.cos(total)
    return field


def apply_domain_shift(v: Volume, spec: BenchmarkSpec, seed: int) -> Volume:
    """shift_gain * v**shift_gamma + shift_bias + a smooth bias field of
    amplitude shift_field drawn from ``seed``; ground truth is unaffected."""
    if v.value_unit != RAW:
        raise DataError("domain shift applies to raw-intensity volumes")
    rng = np.random.default_rng(seed)
    base = v.data.astype(np.float64)
    if spec.shift_gamma != 1.0:  # fractional powers need a non-negative base
        base = np.power(np.maximum(base, 0.0), spec.shift_gamma)
    shifted = spec.shift_gain * base + spec.shift_bias
    shifted = shifted + smooth_bias_field(v.dims, spec.shift_field, rng)
    return Volume(shifted.astype(np.float32), RAW)
