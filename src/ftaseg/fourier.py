"""Spectral decomposition of 2D planes and low-frequency amplitude exchange.

A plane pair is augmented by blending the amplitude spectra inside a
centered low-frequency region while each image keeps its own phase, then
transforming back. Spectra use the center-shifted layout with the DC bin at
(H//2, W//2).

Two blend modes are provided:

* ``paper-literal``:  A_w' = (1-l) * A_w * (1-M) + l * A_u * M
* ``standard-fda``:   A_w' = A_w * (1-M) + ((1-l) * A_w + l * A_u) * M

``paper-literal`` attenuates the unmasked band by (1-l) and so is not the
identity at l=0; ``standard-fda`` only touches the masked center and reduces
to the identity at l=0. Both compute the mirrored blend for the second image
in the same call. A call takes one pair of planes, or a stack of pairs of
equal shape with one l per pair; transforms run over the last two axes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError

MODE_PAPER = "paper-literal"
MODE_FDA = "standard-fda"
MODES = (MODE_PAPER, MODE_FDA)

@dataclass(frozen=True)
class FtaConfig:
    """Mixing policy: fixed lambda or a uniform draw in [0, lambda_max]."""

    lambda_value: float | None = None
    lambda_max: float = 1.0
    mask_fraction: float = 0.25
    mode: str = MODE_PAPER

    def __post_init__(self) -> None:
        for name in ("lambda_value", "lambda_max", "mask_fraction"):
            val = getattr(self, name)
            if val is None:
                continue
            if not 0.0 <= val <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {val}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")

    def draw_lambda(self, rng: np.random.Generator) -> float:
        """The fixed lambda, or a uniform draw from ``rng``."""
        if self.lambda_value is not None:
            return float(self.lambda_value)
        return float(rng.uniform(0.0, self.lambda_max))


@dataclass(frozen=True)
class AugmentedPair:
    """The two augmented planes or plane stacks (float32) and the largest
    imaginary residue of their reconstructions."""

    z_w: np.ndarray
    z_u: np.ndarray
    imag_residue: float


def dft2_forward(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized forward 2D DFT over the last two axes as (amplitude,
    phase), center-shifted."""
    spec = np.fft.fftshift(np.fft.fft2(u.astype(np.float64)), axes=(-2, -1))
    return np.abs(spec), np.angle(spec)


def _reconstruct(amplitude: np.ndarray, phase: np.ndarray) -> tuple[np.ndarray, float]:
    # Inverse of dft2_forward: the real part and the max-abs imaginary residue.
    spec = amplitude * np.exp(1j * phase)
    z = np.fft.ifft2(np.fft.ifftshift(spec, axes=(-2, -1)))
    return z.real, float(np.abs(z.imag).max())


def make_center_mask(h: int, w: int, mask_fraction: float) -> np.ndarray:
    """Centered rectangle of ones, side round(fraction * dim) per axis."""
    if not 0.0 <= mask_fraction <= 1.0:
        raise ConfigError(f"mask_fraction must be in [0, 1], got {mask_fraction}")
    mask = np.zeros((h, w), dtype=np.float64)
    sh = int(np.floor(mask_fraction * h + 0.5))  # round half up
    sw = int(np.floor(mask_fraction * w + 0.5))
    if sh > 0 and sw > 0:
        r0 = h // 2 - sh // 2
        c0 = w // 2 - sw // 2
        mask[r0:r0 + sh, c0:c0 + sw] = 1.0
    return mask


def _conjugate_mirror_index(n: int) -> np.ndarray:
    # Position of the -f bin for each +f bin in the shifted layout.
    return (2 * (n // 2) - np.arange(n)) % n


def symmetrize_mask(mask: np.ndarray) -> np.ndarray:
    """Union of a mask with its conjugate mirror about the DC bin.

    Amplitude blending under a mask only keeps the spectrum Hermitian (and
    the reconstruction real) when the mask treats +-f bins alike; even-sided
    center rectangles are not symmetric on their own, so the augmentation
    path always blends under the symmetrized mask.
    """
    h, w = mask.shape
    mirrored = mask[np.ix_(_conjugate_mirror_index(h), _conjugate_mirror_index(w))]
    return np.maximum(mask, mirrored)


def fta_augment_pair(
    x_w: np.ndarray, x_u: np.ndarray, lam, cfg: FtaConfig
) -> AugmentedPair:
    """Blend low-frequency amplitudes of two planes with weight ``lam``, both
    directions at once; ``cfg`` gives the mask and the blend mode.

    ``x_w`` and ``x_u`` are two (h, w) planes with a scalar ``lam``, or two
    (n, h, w) stacks paired by index with one ``lam`` per pair. Inputs must
    share dims and hold normalized [0, 1] intensities. Outputs keep each
    input's phase; values may exit [0, 1] slightly since the amplitude blend
    does not preserve range.
    """
    lam = np.asarray(lam, dtype=np.float64)
    if not bool(((lam >= 0.0) & (lam <= 1.0)).all()):
        raise ConfigError(f"lambda must be in [0, 1], got {lam}")
    if x_w.shape != x_u.shape:
        raise DataError(f"plane dims differ: {x_w.shape} vs {x_u.shape}")
    if lam.shape != x_w.shape[:-2]:
        raise DataError(f"{lam.size} lambdas for planes of shape {x_w.shape}")
    for name, u in (("x_w", x_w), ("x_u", x_u)):
        if bool((u < 0.0).any()) or bool((u > 1.0).any()):
            raise DataError(f"{name} is not normalized to [0, 1]")
    amp_w, phase_w = dft2_forward(x_w)
    amp_u, phase_u = dft2_forward(x_u)
    h, w = x_w.shape[-2:]
    lam = lam[..., None, None]
    mask = symmetrize_mask(make_center_mask(h, w, cfg.mask_fraction))
    inv = 1.0 - mask
    if cfg.mode == MODE_PAPER:
        a_w = (1.0 - lam) * amp_w * inv + lam * amp_u * mask
        a_u = (1.0 - lam) * amp_u * inv + lam * amp_w * mask
    else:
        a_w = amp_w * inv + ((1.0 - lam) * amp_w + lam * amp_u) * mask
        a_u = amp_u * inv + ((1.0 - lam) * amp_u + lam * amp_w) * mask
    z_w, res_w = _reconstruct(a_w, phase_w)
    z_u, res_u = _reconstruct(a_u, phase_u)
    return AugmentedPair(
        z_w.astype(np.float32), z_u.astype(np.float32), max(res_w, res_u)
    )
