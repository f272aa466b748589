"""Trainable segmenter contract: reference patch-MLP, AdamW, poly LR schedule.

The reference model maps each pixel's k x k neighborhood (reflect-padded,
intensities affinely mapped to [-1, 1]) through two SELU hidden layers to a
sigmoid foreground probability. Backpropagation is exact and framework-free.
The training engine calls forward_cache_multi, then grad_from_logit_grad or
grad_from_prob_grad, then adamw_step; inference calls predict_probs. A
perturbed forward pass also returns the unperturbed probabilities of the
same rows, and a backward pass consumes the cache it reads.

A model computes in the dtype of its parameters: float32 from
``init_random``, ``adamw_step`` and ``load_checkpoint``, the precision a
checkpoint stores. Patches, activations and weight gradients are in that
dtype; the output logits are widened to float64, so probabilities, losses
and the gradient a backward pass returns are float64, and AdamW updates in
float64 before rounding the parameters back.

SEG1 checkpoint layout (little-endian), 28 + 4 * n_params bytes:

    magic "SEG1" | patch u32 | hidden1 u32 | hidden2 u32 | n_params u32 |
    step u64 | params f32[n]

``step`` counts the optimizer steps taken. The optimizer moments are not
stored: every training stage starts from fresh ones.
"""

from __future__ import annotations

import itertools
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, NumericError

SELU_SCALE = 1.0507009873554805
SELU_ALPHA = 1.6732632423543772
# Negative saturation value that self-normalizing dropout resets units to.
SELU_SATURATION = -SELU_SCALE * SELU_ALPHA

# Rows per chunk of the elementwise SELU and SELU-gradient passes, so their
# temporaries stay this many rows tall whatever the number of rows.
ROW_CHUNK = 4096

CHECKPOINT_MAGIC = b"SEG1"
_CKPT_HEADER = struct.Struct("<4sIIIIQ")


# Exponent of the polynomial learning-rate decay.
LR_POWER = 0.9


@dataclass(frozen=True)
class TrainSchedule:
    """Polynomial decay: lr = base_lr * (1 - i / total_iters) ** LR_POWER."""

    base_lr: float = 1e-4
    total_iters: int = 1500

    def __post_init__(self) -> None:
        if not (math.isfinite(self.base_lr) and self.base_lr > 0):
            raise ConfigError(f"base_lr must be finite and > 0, got {self.base_lr}")
        if self.total_iters < 1:
            raise ConfigError(f"total_iters must be >= 1, got {self.total_iters}")


def poly_lr(sched: TrainSchedule, i: int) -> float:
    """Learning rate at iteration i; exact at both endpoints."""
    if not 0 <= i <= sched.total_iters:
        raise ConfigError(
            f"iteration {i} outside schedule [0, {sched.total_iters}]"
        )
    return sched.base_lr * (1.0 - i / sched.total_iters) ** LR_POWER


def _selu_(z: np.ndarray, scratch: "Workspace") -> np.ndarray:
    # SELU written over z a chunk of rows at a time, with a chunk-sized
    # scratch buffer: one transcendental, no boolean select.
    for r0 in range(0, len(z), ROW_CHUNK):
        zc = z[r0:r0 + ROW_CHUNK]
        tmp = scratch.take("selu", zc.shape, z.dtype)
        np.minimum(zc, 0.0, out=tmp)
        np.expm1(tmp, out=tmp)
        tmp *= SELU_ALPHA
        np.maximum(zc, 0.0, out=zc)
        zc += tmp
        zc *= SELU_SCALE
    return z


def _selu_grad_(a: np.ndarray, scratch: "Workspace") -> np.ndarray:
    # a = selu(z) before any perturbation. selu is strictly increasing with
    # selu(0) = 0, so the branch test works on a itself, and for z <= 0 the
    # derivative equals a + scale*alpha: no exponential in the backward pass.
    # The branches are blended as out - out*mask + scale*mask with a 0/1
    # mask, which is exact for finite a and cheaper than a masked copy.
    out = scratch.take("selu", a.shape, a.dtype)
    mask = scratch.take("selu_mask", a.shape, a.dtype)
    prod = scratch.take("selu_prod", a.shape, a.dtype)
    np.add(a, SELU_SCALE * SELU_ALPHA, out=out)
    np.greater(a, 0.0, out=mask)
    np.multiply(out, mask, out=prod)
    out -= prod
    mask *= SELU_SCALE
    out += mask
    return out


def sigmoid(z: np.ndarray) -> np.ndarray:
    # exp(-|z|) never overflows; each side divides the same terms as the
    # split form 1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z))
    # below, so the bytes match it without boolean indexing.
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


@dataclass(frozen=True)
class ModelShape:
    """Layer descriptors of the reference model."""

    patch: int = 5
    hidden1: int = 32
    hidden2: int = 16

    def __post_init__(self) -> None:
        if self.patch < 1 or self.patch % 2 == 0:
            raise ConfigError(f"patch must be odd and >= 1, got {self.patch}")
        if self.hidden1 < 1 or self.hidden2 < 1:
            raise ConfigError("hidden widths must be >= 1")

    @property
    def n_inputs(self) -> int:
        return self.patch * self.patch

    @property
    def n_params(self) -> int:
        k2 = self.n_inputs
        return (
            self.hidden1 * k2 + self.hidden1
            + self.hidden2 * self.hidden1 + self.hidden2
            + self.hidden2 + 1
        )


@dataclass(frozen=True)
class Perturbation:
    """Self-normalizing dropout applied to both hidden activation layers."""

    rate: float
    seed: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate < 1.0:
            raise ConfigError(f"perturbation rate must be in [0, 1), got {self.rate}")


def _alpha_dropout_(
    a: np.ndarray,
    rate: float,
    rng: np.random.Generator,
    out: np.ndarray,
    keep: np.ndarray,
    draws: np.ndarray,
) -> float:
    # Writes the dropped-out activations to out and the kept units to keep.
    # The uniforms are float64 draws into ``draws`` whatever the dtype of a,
    # so the keep mask depends only on the generator. The units are blended
    # as keep*a + drop*saturation, exact for finite a and cheaper than a
    # masked copy. Returns the rescaling factor.
    rng.random(out=draws)
    np.greater_equal(draws, rate, out=keep)
    np.less(draws, rate, out=draws)
    draws *= SELU_SATURATION
    np.multiply(keep, a, out=out)
    out += draws
    q = 1.0 - rate
    scale = (q + SELU_SATURATION**2 * rate * q) ** -0.5
    shift = -scale * rate * SELU_SATURATION
    out *= scale
    out += shift
    return scale


class Workspace:
    """Grow-only named buffers for forward and backward passes.

    ``take`` returns a view of the named buffer in the dtype the pass asks
    for: the model parameters' dtype for patches, activations and deltas,
    bool for keep masks and float64 for dropout's uniform draws. It
    allocates only when a pass needs more elements than the buffer holds or
    another dtype, so repeated passes of the same or a smaller size
    allocate nothing. The arrays a backward pass
    reads (patches, activations, keep masks) live in the workspace of their
    role; temporaries live in ``scratch``, which several workspaces may
    share as long as their passes never run at the same time. A cache
    returned by a forward pass views these buffers, so it is valid only
    until the next forward pass on the same workspace, and a backward pass
    consumes it.
    """

    def __init__(self, scratch: "Workspace | None" = None):
        self._flat: dict[str, np.ndarray] = {}
        self._scratch = scratch

    @property
    def scratch(self) -> "Workspace":
        # Not stored as self: a reference cycle would keep the buffers
        # alive until the cyclic garbage collector happens to run.
        return self if self._scratch is None else self._scratch

    def take(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        size = math.prod(shape)
        buf = self._flat.get(name)
        if buf is None or buf.size < size or buf.dtype != dtype:
            buf = self._flat[name] = np.empty(size, dtype=dtype)
        return buf[:size].reshape(shape)


class PatchMLP:
    """Reference segmenter over k x k patch features with a flat param vector.

    It computes in the dtype of its parameters: float32 or float64 as
    given, other dtypes promoted to at least float32.
    """

    def __init__(self, shape: ModelShape, params: np.ndarray):
        params = np.asarray(params)
        params = params.astype(np.promote_types(params.dtype, np.float32)).ravel()
        if params.size != shape.n_params:
            raise DataError(
                f"parameter count {params.size} does not match shape "
                f"{shape} ({shape.n_params})"
            )
        self.shape = shape
        self.params = params

    @classmethod
    def init_random(cls, shape: ModelShape, seed: int) -> "PatchMLP":
        # Variance 1/fan_in keeps SELU activations near unit variance.
        rng = np.random.default_rng(seed)
        k2, h1, h2 = shape.n_inputs, shape.hidden1, shape.hidden2
        parts = [
            rng.normal(0.0, k2**-0.5, h1 * k2),
            np.zeros(h1),
            rng.normal(0.0, h1**-0.5, h2 * h1),
            np.zeros(h2),
            rng.normal(0.0, h2**-0.5, h2),
            np.zeros(1),
        ]
        return cls(shape, np.concatenate(parts).astype(np.float32))

    def _unpack(
        self, vec: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
        k2, h1, h2 = self.shape.n_inputs, self.shape.hidden1, self.shape.hidden2
        o = 0
        w1 = vec[o:o + h1 * k2].reshape(h1, k2); o += h1 * k2
        b1 = vec[o:o + h1]; o += h1
        w2 = vec[o:o + h2 * h1].reshape(h2, h1); o += h2 * h1
        b2 = vec[o:o + h2]; o += h2
        w3 = vec[o:o + h2]; o += h2
        b3 = vec[o]
        return w1, b1, w2, b2, w3, b3

    def _build_patches(self, planes: list[np.ndarray], ws: Workspace) -> np.ndarray:
        # Each plane's k x k reflect-padded windows, mapped from [0, 1]
        # intensities to [-1, 1] features, written straight into the
        # workspace's patch rows in plane order. Each run of equal-shape
        # planes is stacked, padded and windowed once.
        k = self.shape.patch
        pad = k // 2
        dtype = self.params.dtype
        rows = ws.take("patches", (sum(u.size for u in planes), k * k), dtype)
        o = 0
        for (h, w), run in itertools.groupby(planes, key=lambda u: u.shape):
            data = np.array(list(run), dtype=dtype)
            if pad > 0:
                if min(h, w) <= pad:
                    raise DataError(
                        f"plane {(h, w)} too small for reflect padding of {pad}"
                    )
                data = np.pad(data, ((0, 0), (pad, pad), (pad, pad)), mode="reflect")
            windows = np.lib.stride_tricks.sliding_window_view(
                data, (k, k), axis=(1, 2)
            )
            n = len(data) * h * w
            dst = rows[o:o + n].reshape(windows.shape)
            np.multiply(windows, 2.0, out=dst)
            dst -= 1.0
            o += n
        return rows

    def _forward_rows(
        self,
        p: np.ndarray,
        perturb: Perturbation | None,
        ws: Workspace,
        sizes: list[int],
    ) -> dict:
        # Rows are independent pixels, so any number of planes can share one
        # forward pass once their patch rows are stacked; ``sizes`` gives
        # each plane's row count.
        if not np.all(np.isfinite(self.params)):
            raise NumericError("model parameters contain non-finite values")
        w1, b1, w2, b2, w3, b3 = self._unpack(self.params)
        n, h1, h2 = len(p), self.shape.hidden1, self.shape.hidden2
        dtype = self.params.dtype
        tmp = ws.scratch
        ends = np.cumsum(sizes)

        def dense_selu(x, w, b, name, width):
            z = np.matmul(x, w.T, out=ws.take(name, (n, width), dtype))
            z += b
            return _selu_(z, tmp)

        def dropout(a, rng, name, keep_name):
            out = ws.take(name, a.shape, dtype)
            keep = ws.take(keep_name, a.shape, bool)
            draws = tmp.take("draws", a.shape, np.float64)
            return out, keep, _alpha_dropout_(a, perturb.rate, rng, out, keep, draws)

        def head(a):
            # One matrix-vector product per plane, as a pass over that plane
            # alone computes it: the product can round a row differently
            # with the number of rows it is given, so one product over all
            # planes would not give each plane's bytes. The logits are
            # widened to float64 before the sigmoid.
            z = np.empty(n, dtype)
            for m, e in zip(sizes, ends):
                np.matmul(a[e - m:e], w3, out=z[e - m:e])
            z += b3
            return sigmoid(z.astype(np.float64))

        a1_pre = dense_selu(p, w1, b1, "a1_pre", h1)
        cache: dict = {}
        if perturb is not None:
            # The unperturbed view of the same rows, forward only: layer 2
            # over a1_pre, in the buffer that the perturbed layer 2
            # overwrites next, then the head.
            weak_a2 = dense_selu(a1_pre, w2, b2, "a2_pre", h2)
            cache["weak_probs"] = np.clip(head(weak_a2), 1e-15, 1.0 - 1e-15)
        a1 = a1_pre
        keep1 = keep2 = None
        scale = 1.0
        if perturb is not None and perturb.rate > 0.0:
            rng = np.random.default_rng(perturb.seed)
            a1, keep1, scale = dropout(a1_pre, rng, "a1", "keep1")
        a2_pre = dense_selu(a1, w2, b2, "a2_pre", h2)
        a2 = a2_pre
        if perturb is not None and perturb.rate > 0.0:
            a2, keep2, _ = dropout(a2_pre, rng, "a2", "keep2")
        probs = head(a2)
        cache.update(
            patches=p, a1_pre=a1_pre, a1=a1, a2_pre=a2_pre, a2=a2, probs=probs,
            keep1=keep1, keep2=keep2, scale=scale, ws=ws,
        )
        return cache

    def forward_cache(
        self,
        plane: np.ndarray,
        perturb: Perturbation | None = None,
        ws: Workspace | None = None,
    ) -> dict:
        """One forward pass over a 2D plane. The cache views ``ws`` (a fresh
        workspace when None) and is valid until its next forward pass."""
        ws = Workspace() if ws is None else ws
        return self._forward_rows(
            self._build_patches([plane], ws), perturb, ws, [plane.size]
        )

    def forward_cache_multi(
        self,
        planes: list[np.ndarray],
        perturb: Perturbation | None = None,
        ws: Workspace | None = None,
    ) -> dict:
        """One forward pass over several 2D planes; probabilities stay
        stacked in plane order. The cache is valid until the next forward
        pass on ``ws``. With ``perturb``, ``"weak_probs"`` also holds the
        unperturbed probabilities of the same rows, clipped like
        ``predict_probs``."""
        ws = Workspace() if ws is None else ws
        return self._forward_rows(
            self._build_patches(planes, ws), perturb, ws, [u.size for u in planes]
        )

    def predict_probs(
        self,
        plane: np.ndarray,
        perturb: Perturbation | None = None,
        ws: Workspace | None = None,
    ) -> np.ndarray:
        """Per-pixel foreground probability map in the open interval (0, 1)."""
        probs = self.forward_cache(plane, perturb, ws)["probs"].reshape(plane.shape)
        return np.clip(probs, 1e-15, 1.0 - 1e-15)

    def grad_from_logit_grad(self, cache: dict, dz3: np.ndarray) -> np.ndarray:
        """Parameter gradient (float64) from a per-row gradient on the
        output logits.

        The pass runs in the parameters' dtype and consumes its cache: its
        deltas overwrite the cache's ``a2_pre`` and ``a1_pre`` (and
        ``a2``/``a1`` when they are the same buffers), so each cache serves
        one backward pass. Its temporaries live in the scratch of the
        cache's workspace.
        """
        w1, b1, w2, b2, w3, b3 = self._unpack(self.params)
        a2, a1, p = cache["a2"], cache["a1"], cache["patches"]
        tmp = cache["ws"].scratch
        dtype = self.params.dtype
        dz3 = np.asarray(dz3, dtype=dtype)

        def backprop_selu(a_pre, keep, upstream):
            # Overwrites a_pre, a chunk of rows at a time, with the delta
            # upstream * keep*scale (dropout) * selu'(z); each chunk's
            # derivative is taken before its rows are overwritten.
            for r0 in range(0, len(a_pre), ROW_CHUNK):
                rows = slice(r0, r0 + ROW_CHUNK)
                d = a_pre[rows]
                g = _selu_grad_(d, tmp)
                upstream(rows, d)
                if keep is not None:
                    d *= np.multiply(
                        keep[rows], cache["scale"],
                        out=tmp.take("keep_scale", d.shape, dtype),
                    )
                d *= g
            return a_pre

        # Each weight gradient is formed before the deltas overwrite the
        # activations it reads.
        gw3 = a2.T @ dz3
        gb3 = dz3.sum()
        dz3_col = dz3.reshape(-1, 1)
        dz2 = backprop_selu(
            cache["a2_pre"], cache["keep2"],
            lambda rows, out: np.multiply(dz3_col[rows], w3, out=out),
        )
        gw2 = dz2.T @ a1
        gb2 = dz2.sum(axis=0)
        dz1 = backprop_selu(
            cache["a1_pre"], cache["keep1"],
            lambda rows, out: np.matmul(dz2[rows], w2, out=out),
        )
        gw1 = dz1.T @ p
        gb1 = dz1.sum(axis=0)
        return np.concatenate(
            [gw1.ravel(), gb1, gw2.ravel(), gb2, gw3, np.array([gb3])],
            dtype=np.float64,
        )

    def grad_from_prob_grad(self, cache: dict, dloss_dprobs: np.ndarray) -> np.ndarray:
        """Parameter gradient from a per-pixel gradient on output probabilities."""
        probs = cache["probs"]
        dz3 = dloss_dprobs.ravel() * probs * (1.0 - probs)
        return self.grad_from_logit_grad(cache, dz3)


@dataclass
class AdamWState:
    """First/second moments and step counter for decoupled weight decay."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 1e-4

    def __post_init__(self) -> None:
        self.m = np.asarray(self.m, dtype=np.float64)
        self.v = np.asarray(self.v, dtype=np.float64)
        if self.m.shape != self.v.shape:
            raise DataError("moment vectors must have equal length")
        if bool((self.v < 0).any()):
            raise DataError("second moments must be non-negative")

    @classmethod
    def fresh(cls, n_params: int, **hyper) -> "AdamWState":
        """Zero moments at step 0; ``hyper`` overrides hyper-parameters."""
        return cls(np.zeros(n_params), np.zeros(n_params), **hyper)


def adamw_step(
    params: np.ndarray, grads: np.ndarray, state: AdamWState, lr: float
) -> tuple[np.ndarray, AdamWState]:
    """One decoupled-weight-decay Adam update; returns new params and state.

    The update is computed in float64; the new parameters keep the dtype of
    ``params``.
    """
    grads = np.asarray(grads, dtype=np.float64)
    if grads.shape != params.shape:
        raise DataError("params and grads must have equal length")
    if not np.all(np.isfinite(grads)):
        raise NumericError("non-finite gradient")
    t = state.step + 1
    m = state.beta1 * state.m + (1.0 - state.beta1) * grads
    v = state.beta2 * state.v + (1.0 - state.beta2) * grads * grads
    m_hat = m / (1.0 - state.beta1**t)
    v_hat = v / (1.0 - state.beta2**t)
    new_params = np.asarray(params, dtype=np.float64) * (
        1.0 - lr * state.weight_decay
    ) - lr * m_hat / (np.sqrt(v_hat) + state.eps)
    new_state = AdamWState(
        m, v, t, state.beta1, state.beta2, state.eps, state.weight_decay
    )
    return new_params.astype(params.dtype, copy=False), new_state


def save_checkpoint(model: PatchMLP, step: int, path: Path | str) -> None:
    """Serialize the model and its optimizer step count as SEG1
    (deterministic bytes).

    The bytes go to a sibling temporary file that then replaces ``path``,
    so a write that fails leaves any previous checkpoint intact and no
    temporary file behind.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    s = model.shape
    try:
        with open(tmp, "wb") as f:
            f.write(
                _CKPT_HEADER.pack(
                    CHECKPOINT_MAGIC, s.patch, s.hidden1, s.hidden2, s.n_params, step
                )
            )
            f.write(model.params.astype("<f4").tobytes())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path: Path | str) -> tuple[PatchMLP, int]:
    """The model and optimizer step count stored in a SEG1 checkpoint."""
    blob = Path(path).read_bytes()
    if len(blob) < _CKPT_HEADER.size or blob[:4] != CHECKPOINT_MAGIC:
        raise DataError(f"{path}: not a SEG1 checkpoint")
    _, patch, h1, h2, n_params, step = _CKPT_HEADER.unpack_from(blob)
    try:
        shape = ModelShape(patch, h1, h2)
    except ConfigError as exc:
        raise DataError(f"{path}: bad model shape in header: {exc}") from exc
    if shape.n_params != n_params:
        raise DataError(f"{path}: parameter count mismatch in header")
    payload = len(blob) - _CKPT_HEADER.size
    if payload != 4 * n_params:
        raise DataError(
            f"{path}: expected a {4 * n_params}-byte parameter payload, "
            f"found {payload} bytes"
        )
    params = np.frombuffer(blob, dtype="<f4", offset=_CKPT_HEADER.size)
    return PatchMLP(shape, params), step
