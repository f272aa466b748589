"""Trainable segmenter contract: reference patch-MLP, AdamW, poly LR schedule.

The reference model maps each pixel's k x k neighborhood (reflect-padded,
intensities affinely mapped to [-1, 1]) through two SELU hidden layers to a
sigmoid foreground probability. Backpropagation is exact and framework-free.
The training engine calls forward_cache_multi, then grad_from_logit_grad or
grad_from_prob_grad, then adamw_step; inference calls predict_probs.

SEG1 checkpoint layout (little-endian), 28 + 4 * n_params bytes:

    magic "SEG1" | patch u32 | hidden1 u32 | hidden2 u32 | n_params u32 |
    step u64 | params f32[n]

``step`` counts the optimizer steps taken. The optimizer moments are not
stored: every training stage starts from fresh ones.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, NumericError

SELU_SCALE = 1.0507009873554805
SELU_ALPHA = 1.6732632423543772
# Negative saturation value that self-normalizing dropout resets units to.
SELU_SATURATION = -SELU_SCALE * SELU_ALPHA

CHECKPOINT_MAGIC = b"SEG1"
_CKPT_HEADER = struct.Struct("<4sIIIIQ")


@dataclass(frozen=True)
class TrainSchedule:
    """Polynomial decay: lr = base_lr * (1 - i / total_iters) ** power."""

    base_lr: float = 1e-4
    total_iters: int = 1000
    power: float = 0.9

    def __post_init__(self) -> None:
        if self.base_lr <= 0:
            raise ConfigError(f"base_lr must be > 0, got {self.base_lr}")
        if self.total_iters < 1:
            raise ConfigError(f"total_iters must be >= 1, got {self.total_iters}")


def poly_lr(sched: TrainSchedule, i: int) -> float:
    """Learning rate at iteration i; exact at both endpoints."""
    if not 0 <= i <= sched.total_iters:
        raise ConfigError(
            f"iteration {i} outside schedule [0, {sched.total_iters}]"
        )
    return sched.base_lr * (1.0 - i / sched.total_iters) ** sched.power


def _selu_(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    # SELU written over z, with tmp (z's shape) as scratch: one
    # transcendental, no boolean select.
    np.minimum(z, 0.0, out=tmp)
    np.expm1(tmp, out=tmp)
    tmp *= SELU_ALPHA
    np.maximum(z, 0.0, out=z)
    z += tmp
    z *= SELU_SCALE
    return z


def _selu_grad_(a: np.ndarray, out: np.ndarray, mask: np.ndarray) -> np.ndarray:
    # a = selu(z) before any perturbation. selu is strictly increasing with
    # selu(0) = 0, so the branch test works on a itself, and for z <= 0 the
    # derivative equals a + scale*alpha: no exponential in the backward pass.
    np.add(a, SELU_SCALE * SELU_ALPHA, out=out)
    np.greater(a, 0.0, out=mask)
    np.copyto(out, SELU_SCALE, where=mask)
    return out


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


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
    rand: np.ndarray,
) -> float:
    # Writes the dropped-out activations to out and the kept units to keep;
    # rand (a's shape) is scratch. Returns the rescaling factor.
    rng.random(out=rand)
    np.greater_equal(rand, rate, out=keep)
    q = 1.0 - rate
    scale = (q + SELU_SATURATION**2 * rate * q) ** -0.5
    shift = -scale * rate * SELU_SATURATION
    np.copyto(out, SELU_SATURATION)
    np.copyto(out, a, where=keep)
    out *= scale
    out += shift
    return scale


class Workspace:
    """Grow-only named float64 and bool buffers for forward and backward passes.

    ``take`` returns a view of the named buffer and allocates only when a
    pass needs more elements than the buffer holds, so repeated passes of
    the same or a smaller size allocate nothing. The arrays a backward pass
    reads (patches, activations, keep masks) live in the workspace of their
    role; temporaries live in ``scratch``, which several workspaces may
    share. A cache returned by a forward pass views these buffers, so it is
    valid only until the next forward pass on the same workspace.
    """

    def __init__(self, scratch: "Workspace | None" = None):
        self._flat: dict[str, np.ndarray] = {}
        self._scratch = scratch

    @property
    def scratch(self) -> "Workspace":
        # Not stored as self: a reference cycle would keep the buffers
        # alive until the cyclic garbage collector happens to run.
        return self if self._scratch is None else self._scratch

    def take(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        size = math.prod(shape)
        buf = self._flat.get(name)
        if buf is None or buf.size < size or buf.dtype != dtype:
            buf = self._flat[name] = np.empty(size, dtype=dtype)
        return buf[:size].reshape(shape)


class PatchMLP:
    """Reference segmenter over k x k patch features with a flat param vector."""

    def __init__(self, shape: ModelShape, params: np.ndarray):
        params = np.array(params, dtype=np.float64, copy=True).ravel()
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
        return cls(shape, np.concatenate(parts))

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
        # workspace's patch rows in plane order.
        k = self.shape.patch
        pad = k // 2
        rows = ws.take("patches", (sum(u.size for u in planes), k * k))
        o = 0
        for u in planes:
            h, w = u.shape
            data = u.astype(np.float64)
            if pad > 0:
                if min(data.shape) <= pad:
                    raise DataError(
                        f"plane {data.shape} too small for reflect padding of {pad}"
                    )
                data = np.pad(data, pad, mode="reflect")
            windows = np.lib.stride_tricks.sliding_window_view(data, (k, k))
            dst = rows[o:o + h * w].reshape(h, w, k, k)
            np.multiply(windows, 2.0, out=dst)
            dst -= 1.0
            o += h * w
        return rows

    def _forward_rows(
        self, p: np.ndarray, perturb: Perturbation | None, ws: Workspace
    ) -> dict:
        # Rows are independent pixels, so any number of planes can share one
        # forward pass once their patch rows are stacked.
        if not np.all(np.isfinite(self.params)):
            raise NumericError("model parameters contain non-finite values")
        w1, b1, w2, b2, w3, b3 = self._unpack(self.params)
        n, h1, h2 = len(p), self.shape.hidden1, self.shape.hidden2
        tmp = ws.scratch

        def dense_selu(x, w, b, name, width):
            z = np.matmul(x, w.T, out=ws.take(name, (n, width)))
            z += b
            return _selu_(z, tmp.take("selu", (n, width)))

        def dropout(a, rng, name, keep_name):
            out = ws.take(name, a.shape)
            keep = ws.take(keep_name, a.shape, bool)
            scale = _alpha_dropout_(
                a, perturb.rate, rng, out, keep, tmp.take("rand", a.shape)
            )
            return out, keep, scale

        a1_pre = dense_selu(p, w1, b1, "a1_pre", h1)
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
        probs = sigmoid(a2 @ w3 + b3)
        return {
            "patches": p, "a1_pre": a1_pre, "a1": a1, "a2_pre": a2_pre, "a2": a2,
            "probs": probs, "keep1": keep1, "keep2": keep2, "scale": scale,
            "ws": ws,
        }

    def forward_cache(
        self,
        plane: np.ndarray,
        perturb: Perturbation | None = None,
        ws: Workspace | None = None,
    ) -> dict:
        """One forward pass over a 2D plane. The cache views ``ws`` (a fresh
        workspace when None) and is valid until its next forward pass."""
        ws = Workspace() if ws is None else ws
        return self._forward_rows(self._build_patches([plane], ws), perturb, ws)

    def forward_cache_multi(
        self,
        planes: list[np.ndarray],
        perturb: Perturbation | None = None,
        ws: Workspace | None = None,
    ) -> dict:
        """One forward pass over several 2D planes; probabilities stay
        stacked in plane order. The cache is valid until the next forward
        pass on ``ws``."""
        ws = Workspace() if ws is None else ws
        return self._forward_rows(self._build_patches(planes, ws), perturb, ws)

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
        """Parameter gradient from a per-row gradient on the output logits;
        its deltas live in the scratch of the cache's workspace."""
        w1, b1, w2, b2, w3, b3 = self._unpack(self.params)
        a2, a1, p = cache["a2"], cache["a1"], cache["patches"]
        tmp = cache["ws"].scratch

        def backprop_selu(d, keep, a_pre):
            # d *= keep*scale (dropout), then d *= selu'(z). Passes never
            # overlap, so the forward SELU temporary serves here as well.
            g = tmp.take("selu", d.shape)
            if keep is not None:
                d *= np.multiply(keep, cache["scale"], out=g)
            d *= _selu_grad_(a_pre, g, tmp.take("grad_mask", d.shape, bool))
            return d

        gw3 = a2.T @ dz3
        gb3 = dz3.sum()
        dz2 = np.multiply(dz3.reshape(-1, 1), w3, out=tmp.take("d2", a2.shape))
        backprop_selu(dz2, cache["keep2"], cache["a2_pre"])
        gw2 = dz2.T @ a1
        gb2 = dz2.sum(axis=0)
        dz1 = np.matmul(dz2, w2, out=tmp.take("d1", a1.shape))
        backprop_selu(dz1, cache["keep1"], cache["a1_pre"])
        gw1 = dz1.T @ p
        gb1 = dz1.sum(axis=0)
        return np.concatenate(
            [gw1.ravel(), gb1, gw2.ravel(), gb2, gw3, np.array([gb3])]
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
    def fresh(cls, n_params: int, weight_decay: float = 1e-4) -> "AdamWState":
        return cls(np.zeros(n_params), np.zeros(n_params), weight_decay=weight_decay)


def adamw_step(
    params: np.ndarray, grads: np.ndarray, state: AdamWState, lr: float
) -> tuple[np.ndarray, AdamWState]:
    """One decoupled-weight-decay Adam update; returns new params and state."""
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
    new_params = params * (1.0 - lr * state.weight_decay) - lr * m_hat / (
        np.sqrt(v_hat) + state.eps
    )
    new_state = AdamWState(
        m, v, t, state.beta1, state.beta2, state.eps, state.weight_decay
    )
    return new_params, new_state


def save_checkpoint(model: PatchMLP, step: int, path: Path | str) -> None:
    """Serialize the model and its optimizer step count as SEG1
    (deterministic bytes)."""
    s = model.shape
    with open(path, "wb") as f:
        f.write(
            _CKPT_HEADER.pack(
                CHECKPOINT_MAGIC, s.patch, s.hidden1, s.hidden2, s.n_params, step
            )
        )
        f.write(model.params.astype("<f4").tobytes())


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
    return PatchMLP(shape, params.astype(np.float64)), step
