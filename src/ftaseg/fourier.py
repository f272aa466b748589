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
Given a ``Workspace``, a call computes in its buffers, which stop growing
after the first call of the largest stack; stacks go through in chunks of at
most ``ROW_CHUNK`` pixels, so only the output buffers grow with the stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .model import ROW_CHUNK, Workspace

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
    imaginary residue of their reconstructions. The planes view the
    workspace of the call that made them."""

    z_w: np.ndarray
    z_u: np.ndarray
    imag_residue: float


def _roll2(src: np.ndarray, dst: np.ndarray, tmp: np.ndarray, shift: int) -> np.ndarray:
    # dst = np.roll(src, (shift * (h // 2), shift * (w // 2)), axes=(-2, -1)),
    # through tmp: fftshift for shift = 1, ifftshift for -1. take() with
    # in-range indices and mode="wrap" writes straight to its out array.
    h, w = src.shape[-2:]
    cols = (np.arange(w) - shift * (w // 2)) % w
    rows = (np.arange(h) - shift * (h // 2)) % h
    np.take(src, cols, axis=-1, out=tmp, mode="wrap")
    return np.take(tmp, rows, axis=-2, out=dst, mode="wrap")


def _spectrum(u: np.ndarray, ws: Workspace, name: str) -> tuple[np.ndarray, np.ndarray]:
    # Center-shifted forward DFT of u as (amplitude, phase) in the buffers
    # name_amp and name_phase. The 2D transform is the axis -1 then axis -2
    # pair of 1D transforms that np.fft.fft2 runs, here between two complex
    # buffers, and the phase is np.angle's arctan2(imag, real).
    c = ws.take("fta_c", u.shape, np.complex128)
    d = ws.take("fta_d", u.shape, np.complex128)
    c[...] = u
    np.fft.fft(c, axis=-1, out=d)
    np.fft.fft(d, axis=-2, out=c)
    spec = _roll2(c, c, d, 1)
    amp = np.abs(spec, out=ws.take(f"{name}_amp", u.shape, np.float64))
    phase = np.arctan2(
        spec.imag, spec.real, out=ws.take(f"{name}_phase", u.shape, np.float64)
    )
    return amp, phase


def _inverse(
    amplitude: np.ndarray, phase: np.ndarray, ws: Workspace
) -> tuple[np.ndarray, float]:
    # Inverse of _spectrum: the complex result, which views ws's buffer
    # fta_c, and the max-abs imaginary residue.
    c = ws.take("fta_c", phase.shape, np.complex128)
    d = ws.take("fta_d", phase.shape, np.complex128)
    np.multiply(1j, phase, out=c)
    np.exp(c, out=c)
    np.multiply(amplitude, c, out=c)
    _roll2(c, c, d, -1)
    np.fft.ifft(c, axis=-1, out=d)
    z = np.fft.ifft(d, axis=-2, out=c)
    residue = np.abs(z.imag, out=ws.take("fta_residue", z.shape, np.float64))
    return z, float(residue.max())


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
    x_w: np.ndarray, x_u: np.ndarray, lam, cfg: FtaConfig,
    ws: Workspace | None = None,
) -> AugmentedPair:
    """Blend low-frequency amplitudes of two planes with weight ``lam``, both
    directions at once; ``cfg`` gives the mask and the blend mode.

    ``x_w`` and ``x_u`` are two (h, w) planes with a scalar ``lam``, or two
    (n, h, w) stacks paired by index with one ``lam`` per pair. Inputs must
    share dims and hold normalized [0, 1] intensities. Outputs keep each
    input's phase; values may exit [0, 1] slightly since the amplitude blend
    does not preserve range. The transforms and the outputs use the
    buffers of ``ws`` (fresh when None), so the outputs are valid until the
    next call on ``ws``.
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
    ws = Workspace() if ws is None else ws
    h, w = x_w.shape[-2:]
    mask = symmetrize_mask(make_center_mask(h, w, cfg.mask_fraction))
    inv = 1.0 - mask

    def blend(own, other, lam, name):
        # The operations, in their order, of
        #   paper-literal: (1 - l) * own * inv + l * other * mask
        #   standard-fda:  own * inv + ((1 - l) * own + l * other) * mask
        keep = 1.0 - lam
        out = ws.take(name, own.shape, np.float64)
        term = ws.take("fta_term", own.shape, np.float64)
        if cfg.mode == MODE_PAPER:
            np.multiply(keep, own, out=out)
            out *= inv
            np.multiply(lam, other, out=term)
        else:
            np.multiply(own, inv, out=out)
            np.multiply(keep, own, out=term)
            term += np.multiply(
                lam, other, out=ws.take("fta_term2", own.shape, np.float64)
            )
        term *= mask
        out += term
        return out

    # A single pair is a stack of one. Pairs are independent, so the stack
    # goes through in chunks of at most ROW_CHUNK pixels (or one pair),
    # which bounds every buffer but the outputs.
    z_w = ws.take("fta_z_w", x_w.shape, np.float32)
    z_u = ws.take("fta_z_u", x_w.shape, np.float32)
    stacks = [a.reshape(-1, h, w) for a in (x_w, x_u, z_w, z_u)]
    lams = lam.reshape(-1, 1, 1)
    step = max(1, ROW_CHUNK // (h * w))
    res_w, res_u = [], []
    for i in range(0, len(lams), step):
        x_w_c, x_u_c, z_w_c, z_u_c = (a[i:i + step] for a in stacks)
        amp_w, phase_w = _spectrum(x_w_c, ws, "fta_w")
        amp_u, phase_u = _spectrum(x_u_c, ws, "fta_u")
        a_w = blend(amp_w, amp_u, lams[i:i + step], "fta_a_w")
        a_u = blend(amp_u, amp_w, lams[i:i + step], "fta_a_u")
        z, residue = _inverse(a_w, phase_w, ws)
        z_w_c[...] = z.real
        res_w.append(residue)
        z, residue = _inverse(a_u, phase_u, ws)
        z_u_c[...] = z.real
        res_u.append(residue)
    return AugmentedPair(z_w, z_u, max(float(np.max(res_w)), float(np.max(res_u))))
