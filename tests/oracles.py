"""Independent brute-force reference implementations used as test oracles.

Everything here is written the slow, obvious way (explicit loops, direct
summation) and must stay independent of the package code paths it checks.
"""

from __future__ import annotations

import math

import numpy as np

# The phantom oracles check no placement draw, so they share the package's.
from ftaseg.phantom import _place_ellipsoids


def dft2_direct(img: np.ndarray) -> np.ndarray:
    """O(n^4) forward DFT by direct double summation, unshifted layout."""
    h, w = img.shape
    out = np.zeros((h, w), dtype=complex)
    for ku in range(h):
        for kv in range(w):
            acc = 0.0 + 0.0j
            for m in range(h):
                for n in range(w):
                    angle = -2.0 * math.pi * (ku * m / h + kv * n / w)
                    acc += img[m, n] * complex(math.cos(angle), math.sin(angle))
            out[ku, kv] = acc
    return out


def idft2_direct(spec: np.ndarray) -> np.ndarray:
    """O(n^4) inverse DFT with 1/(h*w) normalization, unshifted layout."""
    h, w = spec.shape
    out = np.zeros((h, w), dtype=complex)
    for m in range(h):
        for n in range(w):
            acc = 0.0 + 0.0j
            for ku in range(h):
                for kv in range(w):
                    angle = 2.0 * math.pi * (ku * m / h + kv * n / w)
                    acc += spec[ku, kv] * complex(math.cos(angle), math.sin(angle))
            out[m, n] = acc / (h * w)
    return out


def shift_direct(arr: np.ndarray) -> np.ndarray:
    """Center-shift by explicit index remapping (DC moves to (h//2, w//2))."""
    h, w = arr.shape
    out = np.empty_like(arr)
    for p in range(h):
        for q in range(w):
            out[p, q] = arr[(p - h // 2) % h, (q - w // 2) % w]
    return out


def unshift_direct(arr: np.ndarray) -> np.ndarray:
    h, w = arr.shape
    out = np.empty_like(arr)
    for k in range(h):
        for l in range(w):
            out[k, l] = arr[(k + h // 2) % h, (l + w // 2) % w]
    return out


def fta_direct(
    x_w: np.ndarray,
    x_u: np.ndarray,
    lam: float,
    mask_shifted: np.ndarray,
    mode: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Amplitude-exchange augmentation via the direct-DFT transforms."""
    f_w = dft2_direct(x_w.astype(np.float64))
    f_u = dft2_direct(x_u.astype(np.float64))
    a_w, p_w = shift_direct(np.abs(f_w)), shift_direct(np.angle(f_w))
    a_u, p_u = shift_direct(np.abs(f_u)), shift_direct(np.angle(f_u))
    m = mask_shifted.astype(np.float64)
    if mode == "paper-literal":
        new_w = (1.0 - lam) * a_w * (1.0 - m) + lam * a_u * m
        new_u = (1.0 - lam) * a_u * (1.0 - m) + lam * a_w * m
    elif mode == "standard-fda":
        new_w = a_w * (1.0 - m) + ((1.0 - lam) * a_w + lam * a_u) * m
        new_u = a_u * (1.0 - m) + ((1.0 - lam) * a_u + lam * a_w) * m
    else:
        raise ValueError(mode)
    z_w = idft2_direct(unshift_direct(new_w * np.exp(1j * p_w)))
    z_u = idft2_direct(unshift_direct(new_u * np.exp(1j * p_u)))
    return z_w.real, z_u.real


def fta_numpy(x_w, x_u, lam, mask: np.ndarray, mode: str):
    """FTA pair through numpy's whole-array helpers (fft2, fftshift, angle,
    ifftshift, ifft2) and one expression per blend: the byte reference for
    the buffered transforms. Returns (z_w, z_u, imag_residue)."""

    def forward(u):
        spec = np.fft.fftshift(np.fft.fft2(u.astype(np.float64)), axes=(-2, -1))
        return np.abs(spec), np.angle(spec)

    def inverse(amplitude, phase):
        z = np.fft.ifft2(np.fft.ifftshift(amplitude * np.exp(1j * phase), axes=(-2, -1)))
        return z.real.astype(np.float32), float(np.abs(z.imag).max())

    amp_w, phase_w = forward(x_w)
    amp_u, phase_u = forward(x_u)
    lam = np.asarray(lam, dtype=np.float64)[..., None, None]
    inv = 1.0 - mask
    if mode == "paper-literal":
        a_w = (1.0 - lam) * amp_w * inv + lam * amp_u * mask
        a_u = (1.0 - lam) * amp_u * inv + lam * amp_w * mask
    else:
        a_w = amp_w * inv + ((1.0 - lam) * amp_w + lam * amp_u) * mask
        a_u = amp_u * inv + ((1.0 - lam) * amp_u + lam * amp_w) * mask
    (z_w, res_w), (z_u, res_u) = inverse(a_w, phase_w), inverse(a_u, phase_u)
    return z_w, z_u, max(res_w, res_u)


def mirror_mask(mask: np.ndarray) -> np.ndarray:
    """Union with the conjugate mirror, by explicit per-bin reflection."""
    h, w = mask.shape
    out = mask.copy()
    for p in range(h):
        for q in range(w):
            out[(2 * (h // 2) - p) % h, (2 * (w // 2) - q) % w] = max(
                out[(2 * (h // 2) - p) % h, (2 * (w // 2) - q) % w], mask[p, q]
            )
    return out


def count_nonzero_scan(mask: np.ndarray) -> int:
    """Triple-loop voxel count."""
    d, h, w = mask.shape
    total = 0
    for z in range(d):
        for y in range(h):
            for x in range(w):
                if mask[z, y, x]:
                    total += 1
    return total


def overlap_counts_scan(a: np.ndarray, b: np.ndarray) -> tuple[int, int, int, int]:
    """(intersection, |A|, |B|, union) by exhaustive voxel comparison."""
    inter = na = nb = union = 0
    d, h, w = a.shape
    for z in range(d):
        for y in range(h):
            for x in range(w):
                va, vb = bool(a[z, y, x]), bool(b[z, y, x])
                inter += va and vb
                na += va
                nb += vb
                union += va or vb
    return inter, na, nb, union


def hausdorff_l1_scan(
    a: list[tuple[int, int, int]], b: list[tuple[int, int, int]]
) -> int:
    def directed(src, dst):
        worst = 0
        for p in src:
            nearest = min(
                abs(p[0] - q[0]) + abs(p[1] - q[1]) + abs(p[2] - q[2]) for q in dst
            )
            worst = max(worst, nearest)
        return worst

    return max(directed(a, b), directed(b, a))


def mlp_forward_scalar(
    w1: np.ndarray, b1: np.ndarray, w2: np.ndarray, b2: np.ndarray,
    w3: np.ndarray, b3: float, features: np.ndarray,
) -> float:
    """One pixel's forward pass with explicit loops and scalar math."""
    scale, alpha = 1.0507009873554805, 1.6732632423543772

    def selu1(x: float) -> float:
        return scale * x if x > 0 else scale * alpha * (math.exp(x) - 1.0)

    h1 = [selu1(sum(w1[i][j] * features[j] for j in range(len(features))) + b1[i])
          for i in range(len(b1))]
    h2 = [selu1(sum(w2[i][j] * h1[j] for j in range(len(h1))) + b2[i])
          for i in range(len(b2))]
    z = sum(w3[i] * h2[i] for i in range(len(h2))) + b3
    return 1.0 / (1.0 + math.exp(-z))


def reflect_patch(img: np.ndarray, row: int, col: int, k: int) -> np.ndarray:
    """k x k patch around (row, col) with reflect padding, explicit indexing."""
    h, w = img.shape
    half = k // 2
    out = np.empty((k, k), dtype=np.float64)
    for dr in range(-half, half + 1):
        for dc in range(-half, half + 1):
            r, c = row + dr, col + dc
            if r < 0:
                r = -r
            if r >= h:
                r = 2 * (h - 1) - r
            if c < 0:
                c = -c
            if c >= w:
                c = 2 * (w - 1) - c
            out[dr + half, dc + half] = img[r, c]
    return out


def adam_plain(params, grads, m, v, step, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Textbook Adam (no weight decay), element-by-element."""
    new_params = params.copy()
    new_m = m.copy()
    new_v = v.copy()
    t = step + 1
    for i in range(len(params)):
        new_m[i] = beta1 * m[i] + (1 - beta1) * grads[i]
        new_v[i] = beta2 * v[i] + (1 - beta2) * grads[i] ** 2
        mh = new_m[i] / (1 - beta1**t)
        vh = new_v[i] / (1 - beta2**t)
        new_params[i] = params[i] - lr * mh / (math.sqrt(vh) + eps)
    return new_params, new_m, new_v


def finite_diff_grad(loss_fn, params: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar loss over a parameter vector."""
    out = np.zeros_like(params)
    for i in range(len(params)):
        plus = params.copy()
        plus[i] += h
        minus = params.copy()
        minus[i] -= h
        out[i] = (loss_fn(plus) - loss_fn(minus)) / (2.0 * h)
    return out


# ---------------------------------------------------------------------------
# Float64 reference of the patch-MLP forward and backward passes: the
# allocating form, one fresh array per intermediate. The package's in-place
# passes must match it byte for byte.

SELU_SCALE_REF = 1.0507009873554805
SELU_ALPHA_REF = 1.6732632423543772


def _selu_ref(z: np.ndarray) -> np.ndarray:
    out = np.expm1(np.minimum(z, 0.0))
    out *= SELU_ALPHA_REF
    out += np.maximum(z, 0.0)
    out *= SELU_SCALE_REF
    return out


def _selu_grad_ref(a: np.ndarray) -> np.ndarray:
    # A select by mask, computed in a's dtype.
    return np.where(a > 0, SELU_SCALE_REF, a + SELU_SCALE_REF * SELU_ALPHA_REF)


def sigmoid_ref(z: np.ndarray) -> np.ndarray:
    """Split-branch sigmoid: 1 / (1 + exp(-z)) for z >= 0, exp(z) / (1 + exp(z))
    below, each branch by boolean indexing."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _alpha_dropout_ref(activations: np.ndarray, rate: float, rng):
    # A select by mask from float64 uniform draws, taken in one draw over
    # the whole array and computed in the dtype of the activations.
    saturation = -SELU_SCALE_REF * SELU_ALPHA_REF
    keep = rng.random(activations.shape) >= rate
    q = 1.0 - rate
    scale = (q + saturation**2 * rate * q) ** -0.5
    shift = -scale * rate * saturation
    out = scale * np.where(keep, activations, saturation) + shift
    return out, keep, scale


def unpack_ref(vec: np.ndarray, patch: int, hidden1: int, hidden2: int):
    k2, h1, h2 = patch * patch, hidden1, hidden2
    o = 0
    w1 = vec[o:o + h1 * k2].reshape(h1, k2); o += h1 * k2
    b1 = vec[o:o + h1]; o += h1
    w2 = vec[o:o + h2 * h1].reshape(h2, h1); o += h2 * h1
    b2 = vec[o:o + h2]; o += h2
    w3 = vec[o:o + h2]; o += h2
    return w1, b1, w2, b2, w3, vec[o]


def patches_ref(img: np.ndarray, k: int) -> np.ndarray:
    """Reflect-padded k x k patch rows of one slice, mapped to [-1, 1]."""
    data = img.astype(np.float64)
    if k // 2 > 0:
        data = np.pad(data, k // 2, mode="reflect")
    windows = np.lib.stride_tricks.sliding_window_view(data, (k, k))
    return 2.0 * windows.reshape(-1, k * k) - 1.0


def mlp_forward_rows_ref(
    params, dims, p: np.ndarray, rate=None, seed=None, sizes=None
) -> dict:
    """Allocating forward pass over stacked patch rows; ``dims`` is
    (patch, hidden1, hidden2), and a rate > 0 applies alpha dropout to both
    hidden layers from one generator seeded with ``seed``. ``sizes`` gives
    each plane's row count (default: one plane); the head's matrix-vector
    product runs plane by plane, since it can round a row differently with
    the number of rows it is given."""
    w1, b1, w2, b2, w3, b3 = unpack_ref(params, *dims)
    a1_pre = _selu_ref(p @ w1.T + b1)
    a1 = a1_pre
    keep1 = keep2 = None
    scale = 1.0
    if rate:
        rng = np.random.default_rng(seed)
        a1, keep1, scale = _alpha_dropout_ref(a1_pre, rate, rng)
    a2_pre = _selu_ref(a1 @ w2.T + b2)
    a2 = a2_pre
    if rate:
        a2, keep2, _ = _alpha_dropout_ref(a2_pre, rate, rng)
    sizes = [len(p)] if sizes is None else sizes
    ends = np.cumsum(sizes)
    logits = np.concatenate([a2[e - m:e] @ w3 for m, e in zip(sizes, ends)])
    return {
        "patches": p, "a1_pre": a1_pre, "a1": a1, "a2_pre": a2_pre, "a2": a2,
        "probs": sigmoid_ref(logits + b3), "keep1": keep1, "keep2": keep2,
        "scale": scale,
    }


def mlp_grad_ref(params, dims, cache: dict, dz3: np.ndarray) -> np.ndarray:
    """Allocating backward pass from a per-row logit gradient."""
    w1, b1, w2, b2, w3, b3 = unpack_ref(params, *dims)
    a2, a1, p = cache["a2"], cache["a1"], cache["patches"]
    gw3 = a2.T @ dz3
    gb3 = dz3.sum()
    da2 = np.outer(dz3, w3)
    if cache["keep2"] is not None:
        da2 *= cache["scale"] * cache["keep2"]
    dz2 = da2
    dz2 *= _selu_grad_ref(cache["a2_pre"])
    gw2 = dz2.T @ a1
    gb2 = dz2.sum(axis=0)
    da1 = dz2 @ w2
    if cache["keep1"] is not None:
        da1 *= cache["scale"] * cache["keep1"]
    dz1 = da1
    dz1 *= _selu_grad_ref(cache["a1_pre"])
    gw1 = dz1.T @ p
    gb1 = dz1.sum(axis=0)
    return np.concatenate([gw1.ravel(), gb1, gw2.ravel(), gb2, gw3, np.array([gb3])])


def bce_ref(probs: np.ndarray, targets: np.ndarray, eps: float = 1e-7):
    """Mean binary cross-entropy over one slice's pixels, probabilities
    clipped to [eps, 1 - eps], and its gradient on the output logits; a
    clipped pixel gets none."""
    n = len(probs)
    loss = 0.0
    dz3 = np.zeros(n)
    for i in range(n):
        p = min(max(float(probs[i]), eps), 1.0 - eps)
        t = float(targets[i])
        loss -= t * math.log(p) + (1.0 - t) * math.log(1.0 - p)
        if eps < probs[i] < 1.0 - eps:
            dz3[i] = (probs[i] - t) / n
    return loss / n, dz3


def consistency_loss_ref(
    weak_probs: np.ndarray,
    views_probs: list[np.ndarray],
    tau: float,
    eps: float = 1e-7,
) -> tuple[float, list[np.ndarray]]:
    """Masked cross-entropy of each view of one plane against the weak
    view's hard labels, averaged over confident pixels and views, and the
    per-view gradient dL/dp; zero everywhere when no pixel is confident.
    Probabilities are clipped to [eps, 1 - eps] for the loss, and a clipped
    pixel gets no gradient."""
    weak = np.asarray(weak_probs, dtype=np.float64)
    views = [np.asarray(v, dtype=np.float64) for v in views_probs]
    labels = (weak >= 0.5).astype(np.float64)
    confident = np.maximum(weak, 1.0 - weak) >= tau
    n_conf = int(confident.sum())
    if n_conf == 0 or not views:
        return 0.0, [np.zeros_like(weak) for _ in views]
    denom = n_conf * len(views)
    total = 0.0
    grads: list[np.ndarray] = []
    for v in views:
        p = np.clip(v, eps, 1.0 - eps)
        ce = -(labels * np.log(p) + (1.0 - labels) * np.log1p(-p))
        total += float(ce[confident].sum())
        g = np.zeros_like(weak)
        inside = confident & (v > eps) & (v < 1.0 - eps)
        g[inside] = (v[inside] - labels[inside]) / (v[inside] * (1.0 - v[inside])) / denom
        grads.append(g)
    return total / denom, grads


def ellipsoid_mask_ref(dims, center, radii) -> np.ndarray:
    """uint8 membership of one axis-aligned ellipsoid, tested at every voxel
    of the grid; ``center`` and ``radii`` are (x, y, z) triples."""
    d, h, w = dims
    zz, yy, xx = np.ogrid[:d, :h, :w]
    cx, cy, cz = center
    rx, ry, rz = radii
    inside = (
        ((xx - cx) / rx) ** 2 + ((yy - cy) / ry) ** 2 + ((zz - cz) / rz) ** 2
    ) <= 1.0
    return inside.astype(np.uint8)


def gen_phantom_ref(spec, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(float32 volume, uint8 mask) of ``gen_phantom``, built with full-grid
    membership tests and ``np.where`` lookups."""
    dims = (spec.dim,) * 3
    fg = spec.fg_mean
    if spec.fg_spread > 0:
        rng = np.random.default_rng(seed)
        fg = float(rng.uniform(fg - spec.fg_spread, fg + spec.fg_spread))
    rng = np.random.default_rng(seed)
    mask = np.zeros(dims, dtype=np.uint8)
    for center, radii in _place_ellipsoids(spec, rng):
        mask |= ellipsoid_mask_ref(dims, tuple(center), tuple(radii))
    noise = rng.standard_normal(dims)
    std = np.where(mask == 1, spec.fg_std, spec.bg_std)
    data = np.where(mask == 1, fg, spec.bg_mean) + std * noise
    return data.astype(np.float32), mask


def smooth_bias_field_ref(dims, amplitude: float, rng) -> np.ndarray:
    """Two plane-wave cosines at amplitude/2 each, summed into zeros."""
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


def apply_domain_shift_ref(data: np.ndarray, spec, seed: int) -> np.ndarray:
    """float32 ``shift_gain * data**shift_gamma + shift_bias + field``, each
    step into a fresh array."""
    rng = np.random.default_rng(seed)
    base = data.astype(np.float64)
    if spec.shift_gamma != 1.0:
        base = np.power(np.maximum(base, 0.0), spec.shift_gamma)
    shifted = spec.shift_gain * base + spec.shift_bias
    shifted = shifted + smooth_bias_field_ref(data.shape, spec.shift_field, rng)
    return shifted.astype(np.float32)
