"""Seeded tooth-phantom volumes and a device-style domain-shift simulator.

Phantoms are K non-overlapping axis-aligned ellipsoids of foreground
intensity on a constant background plus Gaussian noise; the mask is the
exact analytic ellipsoid membership, so brute-force voxel counting can
serve as ground truth in tests. Domain shift rescales intensities
(gain/bias/gamma) and adds a smooth low-frequency bias field; it never
touches masks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .volume import RAW, MaskVolume, Volume

PLACEMENT_ATTEMPTS = 1000


@dataclass(frozen=True)
class BenchmarkSpec:
    """Synthetic benchmark: source-domain labeled data, shifted-domain
    unlabeled and validation data. Its phantom values are also
    ``PhantomSpec``'s defaults."""

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
            dims=(self.dim,) * 3, ellipsoids=self.ellipsoids,
            radius_x=r, radius_y=r, radius_z=r, fg_mean=fg, fg_std=self.fg_std,
            bg_mean=self.bg_mean, bg_std=self.bg_std, seed=seed,
        )

    def shift_spec(self, seed: int) -> ShiftSpec:
        return ShiftSpec(
            gain=self.shift_gain, bias=self.shift_bias,
            gamma=self.shift_gamma, field_amplitude=self.shift_field,
            seed=seed,
        )


@dataclass(frozen=True)
class PhantomSpec:
    dims: tuple[int, int, int] = (BenchmarkSpec.dim,) * 3
    ellipsoids: int = BenchmarkSpec.ellipsoids
    radius_x: tuple[float, float] = (
        BenchmarkSpec.radius_min, BenchmarkSpec.radius_max
    )
    radius_y: tuple[float, float] = radius_x
    radius_z: tuple[float, float] = radius_x
    fg_mean: float = BenchmarkSpec.fg_mean
    fg_std: float = BenchmarkSpec.fg_std
    bg_mean: float = BenchmarkSpec.bg_mean
    bg_std: float = BenchmarkSpec.bg_std
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims", tuple(int(n) for n in self.dims))
        if min(self.dims) < 1:
            raise ConfigError(f"dims must all be >= 1, got {self.dims}")
        if self.ellipsoids < 0:
            raise ConfigError("ellipsoid count must be >= 0")
        d, h, w = self.dims
        for (lo, hi), extent, name in (
            (self.radius_x, w, "radius_x"),
            (self.radius_y, h, "radius_y"),
            (self.radius_z, d, "radius_z"),
        ):
            if not 0 < lo <= hi:
                raise ConfigError(f"{name} range must satisfy 0 < lo <= hi")
            if self.ellipsoids > 0 and 2 * hi >= extent:
                raise ConfigError(f"{name} upper bound {hi} does not fit in {extent}")


@dataclass(frozen=True)
class ShiftSpec:
    gain: float = 1.0
    bias: float = 0.0
    gamma: float = 1.0
    field_amplitude: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.gain <= 0:
            raise ConfigError(f"gain must be > 0, got {self.gain}")
        if self.gamma <= 0:
            raise ConfigError(f"gamma must be > 0, got {self.gamma}")
        if self.field_amplitude < 0:
            raise ConfigError("field_amplitude must be >= 0")


def _place_ellipsoids(spec: PhantomSpec, rng: np.random.Generator) -> list[tuple]:
    d, h, w = spec.dims
    ranges = (spec.radius_x, spec.radius_y, spec.radius_z)
    extents = (w, h, d)
    placed: list[tuple] = []  # (center xyz, radii xyz)
    attempts = 0
    while len(placed) < spec.ellipsoids:
        if attempts >= PLACEMENT_ATTEMPTS:
            raise DataError(
                f"could not place {spec.ellipsoids} non-overlapping ellipsoids "
                f"after {PLACEMENT_ATTEMPTS} attempts"
            )
        attempts += 1
        radii = np.array([rng.uniform(lo, hi) for lo, hi in ranges])
        center = np.array(
            [rng.uniform(r, ext - 1 - r) for r, ext in zip(radii, extents)]
        )
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


def gen_phantom(spec: PhantomSpec) -> tuple[Volume, MaskVolume]:
    """Deterministic (volume, mask) pair for a spec; mask is exact membership."""
    d, h, w = spec.dims
    rng = np.random.default_rng(spec.seed)
    mask = np.zeros((d, h, w), dtype=np.uint8)
    if spec.ellipsoids > 0:
        for center, radii in _place_ellipsoids(spec, rng):
            mask |= ellipsoid_mask(spec.dims, tuple(center), tuple(radii)).data
    noise = rng.standard_normal((d, h, w))
    std = np.where(mask == 1, spec.fg_std, spec.bg_std)
    data = np.where(mask == 1, spec.fg_mean, spec.bg_mean) + std * noise
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


def apply_domain_shift(v: Volume, s: ShiftSpec) -> Volume:
    """gain * v**gamma + bias + smooth bias field; ground truth is unaffected."""
    if v.value_unit != RAW:
        raise DataError("domain shift applies to raw-intensity volumes")
    rng = np.random.default_rng(s.seed)
    base = v.data.astype(np.float64)
    if s.gamma != 1.0:  # fractional powers need a non-negative base
        base = np.power(np.maximum(base, 0.0), s.gamma)
    shifted = s.gain * base + s.bias
    shifted = shifted + smooth_bias_field(v.dims, s.field_amplitude, rng)
    return Volume(shifted.astype(np.float32), RAW)
