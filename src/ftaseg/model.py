"""Trainable segmenter contract: reference patch-MLP, AdamW, poly LR schedule.

The reference model maps each pixel's k x k neighborhood (reflect-padded,
intensities affinely mapped to [-1, 1]) through two SELU hidden layers to a
sigmoid foreground probability. Backpropagation is exact and framework-free.
The training engine calls forward_cache_multi, then grad_from_logit_grad or
grad_from_prob_grad, then adamw_step; inference calls forward_cache_multi
alone. A perturbed forward pass also returns the unperturbed probabilities
of the same rows, and a backward pass consumes the cache it reads.

Two-lane work goes through a ``Lane``, the one place the package starts a
thread: a one-worker thread, the scratch workspace of the passes it runs,
and both lanes' busy and wait seconds while it is open. ``in_two_lanes``
maps items across the calling thread and a lane, and ``Lane.submit`` hands
the worker one call. Given a lane, an unperturbed forward pass splits its
planes at the plane boundary nearest half the rows, if that leaves each
lane at least ``SPLIT_ROWS`` rows: the calling thread runs the first planes
end to end while the lane's worker runs the rest, each lane writing its own
rows of the workspace's buffers and taking its temporaries from its own
scratch. A backward pass given the lane splits its row-wise delta passes at
the same cut; its weight-gradient reductions stay whole on the calling
thread, since two half sums would round differently. A row of a layer's
product has the same bytes in any block of at least that many rows
(tests/test_model.py checks the default layer shapes under the BLAS it runs
on), so a split pass has the bytes of a pass in one lane.

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
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, TypeVar

import numpy as np

from .errors import ConfigError, DataError, NumericError

SELU_SCALE = 1.0507009873554805
SELU_ALPHA = 1.6732632423543772
# Negative saturation value that self-normalizing dropout resets units to.
SELU_SATURATION = -SELU_SCALE * SELU_ALPHA

# Rows per chunk of the elementwise SELU, SELU-gradient and dropout passes,
# whose temporaries stay this tall.
ROW_CHUNK = 4096

# The fewest rows each lane of a split pass gets. Below it the hand-off to
# the worker costs more than the lane saves: on a 2-core machine a split
# supervised batch took 1.1-1.5x the time of one lane at 1,024 rows per
# lane, 0.9-1.2x at 2,048 and 0.75x at 4,096. Blocks this tall also keep
# each layer's product on the BLAS path of the whole pass (see
# tests/test_model.py's row-block test).
SPLIT_ROWS = ROW_CHUNK // 2

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


# Read-only blocks of zeros, ROW_CHUNK rows tall, one per (row width, dtype),
# shared by every lane. Nothing writes them, so two lanes that race to make
# one only make a duplicate.
_ZEROS: dict[tuple[int, np.dtype], np.ndarray] = {}


def _zeros(width: int, dtype: np.dtype) -> np.ndarray:
    zeros = _ZEROS.get((width, dtype))
    if zeros is None:
        zeros = np.zeros((ROW_CHUNK, width), dtype)
        zeros.flags.writeable = False
        _ZEROS[(width, dtype)] = zeros
    return zeros


def _selu_(z: np.ndarray, scratch: "Workspace") -> np.ndarray:
    # SELU written over the 2D array z a chunk of rows at a time, with a
    # chunk-sized scratch buffer: one transcendental, no boolean select. The
    # min and max take a block of zeros, not the scalar 0.0: numpy's loop
    # for a scalar operand ran about 3x slower than the one for two arrays
    # of one shape, for the same values.
    zeros = _zeros(z.shape[1], z.dtype)
    for r0 in range(0, len(z), ROW_CHUNK):
        zc = z[r0:r0 + ROW_CHUNK]
        zero = zeros[:len(zc)]
        tmp = scratch.take("selu", zc.shape, z.dtype)
        np.minimum(zc, zero, out=tmp)
        np.expm1(tmp, out=tmp)
        tmp *= SELU_ALPHA
        np.maximum(zc, zero, out=zc)
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


def _sigmoid_(z: np.ndarray, scratch: "Workspace") -> np.ndarray:
    # Sigmoid written over the 1D array z a chunk of rows at a time, with
    # chunk-sized scratch buffers. exp(-|z|) never overflows; each side
    # divides the same terms as the split form 1 / (1 + exp(-z)) for z >= 0
    # and exp(z) / (1 + exp(z)) below, so the bytes match it without
    # boolean indexing.
    for r0 in range(0, len(z), ROW_CHUNK):
        zc = z[r0:r0 + ROW_CHUNK]
        e = scratch.take("sigmoid_e", zc.shape, z.dtype)
        d = scratch.take("sigmoid_d", zc.shape, z.dtype)
        pos = scratch.take("sigmoid_pos", zc.shape, bool)
        np.greater_equal(zc, 0, out=pos)
        np.abs(zc, out=e)
        np.negative(e, out=e)
        np.exp(e, out=e)
        np.add(1.0, e, out=d)
        np.divide(e, d, out=zc)
        np.divide(1.0, d, out=d)
        np.copyto(zc, d, where=pos)
    return z


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
        if not 0.0 < self.rate < 1.0:
            raise ConfigError(f"perturbation rate must be in (0, 1), got {self.rate}")


def _alpha_dropout_(
    a: np.ndarray,
    rate: float,
    rng: np.random.Generator,
    out: np.ndarray,
    keep: np.ndarray,
    scratch: "Workspace",
) -> float:
    # Writes the dropped-out activations to out and the kept units to keep;
    # returns the rescaling factor. The uniforms are float64 draws whatever
    # a's dtype, so keep depends only on the generator; they are drawn a
    # chunk of rows at a time, in order, which takes the generator's stream
    # as one draw over a would. The units blend as keep*a + drop*saturation
    # in a's dtype, exact for finite a and cheaper than a masked copy, in the
    # SELU buffer (idle between layers).
    for r0 in range(0, len(a), ROW_CHUNK):
        rows = slice(r0, r0 + ROW_CHUNK)
        d = rng.random(out=scratch.take("draws", a[rows].shape, np.float64))
        np.greater_equal(d, rate, out=keep[rows])
        np.multiply(keep[rows], a[rows], out=out[rows])
        drop = np.less(d, rate, out=scratch.take("selu", d.shape, a.dtype))
        drop *= SELU_SATURATION
        out[rows] += drop
    q = 1.0 - rate
    scale = (q + SELU_SATURATION**2 * rate * q) ** -0.5
    shift = -scale * rate * SELU_SATURATION
    out *= scale
    out += shift
    return scale


def _column_sums(a: np.ndarray) -> np.ndarray:
    # The bits of a.sum(axis=0) for a C-contiguous 2D array. einsum adds the
    # rows in order, as sum does at width >= 2, several times faster; at
    # width 1 sum adds pairwise, so it keeps that case.
    return np.einsum("ij->j", a) if a.shape[1] > 1 else a.sum(axis=0)


def _windows(planes: np.ndarray, k: int) -> np.ndarray:
    # The read-only k x k windows of a stack of planes, shape (n, h - k + 1,
    # w - k + 1, k, k): the view sliding_window_view(planes, (k, k),
    # axis=(1, 2)) makes, strided straight over the stack's buffer without
    # that function's argument checks.
    n, h, w = planes.shape
    s0, s1, s2 = planes.strides
    return np.lib.stride_tricks.as_strided(
        planes, (n, h - k + 1, w - k + 1, k, k), (s0, s1, s2, s1, s2),
        writeable=False,
    )


class Workspace:
    """Grow-only named buffers for forward and backward passes.

    ``take`` returns a view of the named buffer in the dtype the pass asks
    for: the model parameters' dtype for patches, activations and deltas,
    bool for keep masks, float64 for probabilities and dropout's uniform
    draws. It allocates only when a pass needs more elements than the
    buffer holds or another dtype, so repeated passes of the same or a
    smaller size allocate nothing. The arrays a backward pass reads
    (patches, activations, keep masks) and the probabilities live in the
    workspace of their role; temporaries live in ``scratch``, which several
    workspaces may share as long as their passes never run at the same
    time, or in the scratch a backward pass is given. A split pass's worker
    half takes its temporaries from its ``Lane``'s scratch instead. A cache
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


T = TypeVar("T")
R = TypeVar("R")


@dataclass
class LaneTimes:
    """Seconds a ``Lane`` was open: the calling thread's time outside its
    waits on the worker, the worker's busy time, and those waits."""

    stage: str
    calling_s: float = 0.0
    worker_s: float = 0.0
    wait_s: float = 0.0

    def __str__(self) -> str:
        return (f"{self.stage} lanes: calling {self.calling_s:.3f} s busy, worker "
                f"{self.worker_s:.3f} s busy, calling waited {self.wait_s:.3f} s")


class Lane:
    """A one-worker thread that the calling thread hands work to, the
    ``scratch`` workspace of the passes it runs, and the ``times`` of both
    lanes while it is open (``with Lane() as lane:``; closing waits for the
    worker). Each field of ``times`` has one writing thread."""

    def __init__(self, stage: str = "lane"):
        self.scratch = Workspace()
        self.times = LaneTimes(stage)

    def __enter__(self) -> "Lane":
        self._worker = ThreadPoolExecutor(max_workers=1)
        self._opened = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._worker.shutdown()
        self.times.calling_s = time.perf_counter() - self._opened - self.times.wait_s

    def submit(self, fn: Callable[..., R], /, *args) -> Future:
        """Run ``fn(*args)`` on the worker after what it runs already,
        counting the worker's busy time."""
        def timed() -> R:
            start = time.perf_counter()
            try:
                return fn(*args)
            finally:
                self.times.worker_s += time.perf_counter() - start

        return self._worker.submit(timed)

    def wait(self, future: Future) -> Future:
        """``future`` once it is done, the wait counted as the calling
        thread's."""
        start = time.perf_counter()
        future.exception()
        self.times.wait_s += time.perf_counter() - start
        return future


def in_two_lanes(
    fn: Callable[[T, Workspace | None], R],
    items: list[T],
    ws: Workspace | None,
    lane: Lane | None = None,
) -> list[R]:
    """``[fn(x, ws) for x in items]`` in two lanes: the calling thread maps
    the first half of ``items`` with ``ws`` while ``lane`` (a fresh one when
    None) maps the rest with its scratch.

    Results keep the order of ``items``. The lane is waited for before this
    returns or raises. Each lane stops at its first error, and the calling
    thread's error wins, so the error raised is the one of the first failing
    item, as in a loop over ``items``. With fewer than two items nothing is
    submitted.
    """
    if len(items) < 2:
        return [fn(x, ws) for x in items]
    if lane is None:
        with Lane() as own:
            return in_two_lanes(fn, items, ws, own)
    half = (len(items) + 1) // 2
    rest = lane.submit(lambda: [fn(x, lane.scratch) for x in items[half:]])
    try:
        first = [fn(x, ws) for x in items[:half]]
    finally:
        lane.wait(rest)  # an error of the calling thread wins
    return first + rest.result()


def _spans(n: int, cut: int, lane: Lane | None) -> list[tuple[int, int]]:
    # [0, n) split at cut for a lane when 0 < cut < n, else whole.
    return [(0, cut), (cut, n)] if lane is not None and 0 < cut < n else [(0, n)]


def _cut(sizes: list[int]) -> int:
    # The number of planes before the plane boundary nearest half the rows,
    # the earlier boundary on a tie; len(sizes) when there is none or it
    # leaves a lane fewer than SPLIT_ROWS rows.
    ends = [0, *itertools.accumulate(sizes)]
    n = ends[-1]
    j = min(range(1, len(sizes)), key=lambda j: abs(2 * ends[j] - n), default=0)
    return j if min(ends[j], n - ends[j]) >= SPLIT_ROWS else len(sizes)


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

    def _build_patches(
        self, planes: list[np.ndarray], rows: np.ndarray, scratch: Workspace
    ) -> None:
        # Each plane's k x k reflect-padded windows, mapped from [0, 1]
        # intensities to [-1, 1] features, written straight into ``rows`` in
        # plane order. Each run of equal-shape planes is stacked into a
        # scratch buffer, padded there and windowed once. The padding copies
        # rows, then columns over the padded height, as
        # np.pad(mode="reflect") does.
        k = self.shape.patch
        pad = k // 2
        dtype = self.params.dtype
        o = 0
        for (h, w), run in itertools.groupby(planes, key=lambda u: u.shape):
            if pad > 0 and min(h, w) <= pad:
                raise DataError(
                    f"plane {(h, w)} too small for reflect padding of {pad}"
                )
            run = list(run)
            data = scratch.take(
                "padded", (len(run), h + 2 * pad, w + 2 * pad), dtype
            )
            cols = slice(pad, pad + w)
            np.stack(run, out=data[:, pad:pad + h, cols])
            for i in range(1, pad + 1):
                data[:, pad - i, cols] = data[:, pad + i, cols]
                data[:, pad + h - 1 + i, cols] = data[:, pad + h - 1 - i, cols]
            for i in range(1, pad + 1):
                data[:, :, pad - i] = data[:, :, pad + i]
                data[:, :, pad + w - 1 + i] = data[:, :, pad + w - 1 - i]
            windows = _windows(data, k)
            n = len(data) * h * w
            dst = rows[o:o + n].reshape(windows.shape)
            np.multiply(windows, 2.0, out=dst)
            dst -= 1.0
            o += n

    def _forward(
        self,
        planes: list[np.ndarray],
        perturb: Perturbation | None,
        ws: Workspace,
        lane: Lane | None,
    ) -> dict:
        # Rows are independent pixels, so any number of planes can share one
        # forward pass once their patch rows are stacked, and any run of
        # whole planes can be computed apart from the others.
        if not np.all(np.isfinite(self.params)):
            raise NumericError("model parameters contain non-finite values")
        w1, b1, w2, b2, w3, b3 = self._unpack(self.params)
        sizes = [u.size for u in planes]
        starts = [0, *itertools.accumulate(sizes)]
        n, h1, h2 = starts[-1], self.shape.hidden1, self.shape.hidden2
        dtype = self.params.dtype
        p = ws.take("patches", (n, self.shape.n_inputs), dtype)
        a1_pre = ws.take("a1_pre", (n, h1), dtype)
        a2_pre = ws.take("a2_pre", (n, h2), dtype)
        # An unperturbed pass writes its probabilities; a perturbed one
        # first computes its unperturbed view of the same rows.
        clean = ws.take("probs" if perturb is None else "weak_probs", (n,), np.float64)

        def dense_selu(x, w, b, z, scratch):
            np.matmul(x, w.T, out=z)
            z += b
            return _selu_(z, scratch)

        def head(a, plane_sizes, probs, scratch):
            # One matrix-vector product per plane, as a pass over that plane
            # alone computes it: the product can round a row differently
            # with the number of rows it is given, so one product over all
            # planes would not give each plane's bytes. The logits are
            # widened to float64 into ``probs``, where the sigmoid
            # overwrites them with the probabilities.
            z = scratch.take("logits", (len(a),), dtype)
            o = 0
            for m in plane_sizes:
                np.matmul(a[o:o + m], w3, out=z[o:o + m])
                o += m
            z += b3
            probs[...] = z
            _sigmoid_(probs, scratch)

        def unperturbed(span, scratch):
            # Planes [i, j) end to end, into their own rows of the buffers.
            i, j = span
            rows = slice(starts[i], starts[j])
            self._build_patches(planes[i:j], p[rows], scratch)
            dense_selu(p[rows], w1, b1, a1_pre[rows], scratch)
            dense_selu(a1_pre[rows], w2, b2, a2_pre[rows], scratch)
            head(a2_pre[rows], sizes[i:j], clean[rows], scratch)

        # Dropout draws one generator stream in row order, so a perturbed
        # pass is not split.
        cut = len(planes) if perturb is not None else _cut(sizes)
        in_two_lanes(unperturbed, _spans(len(planes), cut, lane), ws.scratch, lane)
        cache = dict(patches=p, a1_pre=a1_pre, a2_pre=a2_pre, ws=ws, cut=starts[cut])
        if perturb is None:
            cache.update(a1=a1_pre, a2=a2_pre, probs=clean, keep1=None, keep2=None,
                         scale=1.0)
            return cache

        tmp = ws.scratch

        def dropout(a, rng, name, keep_name):
            out = ws.take(name, a.shape, dtype)
            keep = ws.take(keep_name, a.shape, bool)
            return out, keep, _alpha_dropout_(a, perturb.rate, rng, out, keep, tmp)

        cache["weak_probs"] = np.clip(clean, 1e-15, 1.0 - 1e-15, out=clean)
        rng = np.random.default_rng(perturb.seed)
        a1, keep1, scale = dropout(a1_pre, rng, "a1", "keep1")
        # Layer 2 again, over the dropped-out a1, in the buffer the
        # unperturbed view is done with.
        dense_selu(a1, w2, b2, a2_pre, tmp)
        a2, keep2, _ = dropout(a2_pre, rng, "a2", "keep2")
        probs = ws.take("probs", (n,), np.float64)
        head(a2, sizes, probs, tmp)
        cache.update(a1=a1, a2=a2, probs=probs, keep1=keep1, keep2=keep2, scale=scale)
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
        return self._forward([plane], perturb, ws, None)

    def forward_cache_multi(
        self,
        planes: list[np.ndarray],
        perturb: Perturbation | None = None,
        ws: Workspace | None = None,
        lane: Lane | None = None,
    ) -> dict:
        """One forward pass over several 2D planes; probabilities stay
        stacked in plane order. The cache is valid until the next forward
        pass on ``ws``. With ``perturb``, ``"weak_probs"`` also holds the
        unperturbed probabilities of the same rows, clipped like
        ``predict_probs``. With ``lane``, an unperturbed pass over two or
        more planes runs its later planes on the lane (see the module
        docstring); the bytes are those of a pass without it."""
        ws = Workspace() if ws is None else ws
        return self._forward(planes, perturb, ws, lane)

    def predict_probs(
        self,
        plane: np.ndarray,
        perturb: Perturbation | None = None,
        ws: Workspace | None = None,
    ) -> np.ndarray:
        """Per-pixel foreground probability map in the open interval (0, 1)."""
        probs = self.forward_cache(plane, perturb, ws)["probs"].reshape(plane.shape)
        return np.clip(probs, 1e-15, 1.0 - 1e-15)

    def grad_from_logit_grad(
        self,
        cache: dict,
        dz3: np.ndarray,
        scratch: Workspace | None = None,
        lane: Lane | None = None,
    ) -> np.ndarray:
        """Parameter gradient (float64) from a per-row gradient on the
        output logits.

        The pass runs in the parameters' dtype and consumes its cache: its
        deltas overwrite the cache's ``a2_pre`` and ``a1_pre`` (and
        ``a2``/``a1`` when they are the same buffers), so each cache serves
        one backward pass. Its temporaries live in ``scratch``, by default
        the scratch of the cache's workspace; a backward pass that runs on
        another thread than its forward pass passes its own thread's. With
        ``lane``, the row-wise delta passes of an unperturbed pass's later
        planes run on the lane, split where its forward pass splits them.
        """
        w1, b1, w2, b2, w3, b3 = self._unpack(self.params)
        a2, a1, p = cache["a2"], cache["a1"], cache["patches"]
        tmp = cache["ws"].scratch if scratch is None else scratch
        dtype = self.params.dtype
        scale = dtype.type(cache["scale"])
        dz3_in = dz3
        dz3 = tmp.take("dz3", np.shape(dz3_in), dtype)
        np.copyto(dz3, dz3_in)

        def backprop_selu(a_pre, keep, upstream):
            # Overwrites a_pre, a chunk of rows at a time, with the delta
            # upstream * keep*scale (dropout) * selu'(z); each chunk's
            # derivative is taken before its rows are overwritten.
            def delta(span, s):
                lo, hi = span
                for r0 in range(lo, hi, ROW_CHUNK):
                    rows = slice(r0, min(r0 + ROW_CHUNK, hi))
                    d = a_pre[rows]
                    g = _selu_grad_(d, s)
                    upstream(rows, d)
                    if keep is not None:
                        # keep*scale in the pass dtype: the same values as
                        # a float64 product cast down, without its casting
                        # loop.
                        keep_scale = s.take("keep_scale", d.shape, dtype)
                        np.copyto(keep_scale, keep[rows])
                        keep_scale *= scale
                        d *= keep_scale
                    d *= g

            in_two_lanes(delta, _spans(len(a_pre), cache["cut"], lane), tmp, lane)
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
        gb2 = _column_sums(dz2)
        dz1 = backprop_selu(
            cache["a1_pre"], cache["keep1"],
            lambda rows, out: np.matmul(dz2[rows], w2, out=out),
        )
        gw1 = dz1.T @ p
        gb1 = _column_sums(dz1)
        return np.concatenate(
            [gw1.ravel(), gb1, gw2.ravel(), gb2, gw3, np.array([gb3])],
            dtype=np.float64,
        )

    def grad_from_prob_grad(
        self,
        cache: dict,
        dloss_dprobs: np.ndarray,
        scratch: Workspace | None = None,
    ) -> np.ndarray:
        """Parameter gradient from a per-pixel gradient on output
        probabilities; ``scratch`` as for ``grad_from_logit_grad``."""
        probs = cache["probs"]
        tmp = cache["ws"].scratch if scratch is None else scratch
        dz3 = np.multiply(
            np.ravel(dloss_dprobs), probs,
            out=tmp.take("prob_dz3", probs.shape, np.float64),
        )
        dz3 *= np.subtract(
            1.0, probs, out=tmp.take("prob_slope", probs.shape, np.float64)
        )
        return self.grad_from_logit_grad(cache, dz3, tmp)


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
