"""Two-stage semi-supervised training engine.

Stage 1 trains the segmenter on labeled slices only, then pseudo-annotates a
seeded selection of unlabeled volumes; the pseudo-annotated volumes join the
labeled set. Stage 2 continues training on the merged set while unlabeled
slices contribute a consistency loss: the confident pixels of a weak view
(identity or flip) supervise two spectrally-augmented strong views and one
feature-perturbed view, gated by a self-adaptive confidence threshold
tracked as an EMA of batch confidence.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import ConfigError, DataError
from .fourier import FtaConfig, fta_augment_pair
from .metrics import MetricsReport, evaluate_masks, mean_report
from .model import (
    AdamWState,
    ModelShape,
    PatchMLP,
    Perturbation,
    TrainSchedule,
    Workspace,
    adamw_step,
    poly_lr,
)
from .volume import MaskVolume, Volume


# Probability clip of the cross-entropy losses; clipped pixels get no gradient.
BCE_EPS = 1e-7

# Floor of the confidence threshold: 1/C for the binary task's C = 2 classes.
TAU_FLOOR = 0.5


@dataclass(frozen=True)
class ThresholdState:
    """Self-adaptive confidence threshold, clamped to [TAU_FLOOR, 1]."""

    tau: float = 0.5
    momentum: float = 0.999

    def __post_init__(self) -> None:
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if not TAU_FLOOR <= self.tau <= 1.0:
            raise ConfigError(f"tau must be in [{TAU_FLOOR}, 1], got {self.tau}")


def update_threshold(state: ThresholdState, confidences: np.ndarray) -> ThresholdState:
    """EMA step toward the batch mean confidence; empty batches are no-ops."""
    conf = np.asarray(confidences, dtype=np.float64).ravel()
    if conf.size == 0:
        return state
    if bool((conf < 0.0).any()) or bool((conf > 1.0).any()):
        raise DataError("confidences must lie in [0, 1]")
    tau = state.momentum * state.tau + (1.0 - state.momentum) * float(conf.mean())
    tau = min(1.0, max(TAU_FLOOR, tau))
    return replace(state, tau=tau)


@dataclass(frozen=True)
class PseudoLabel:
    """Pseudo-annotation of one unlabeled volume."""

    source_id: str
    mask: np.ndarray  # (D, H, W) uint8 argmax labels


def generate_pseudo_labels(
    model: PatchMLP,
    ids: list[str],
    load: Callable[[str], Volume],
    count: int,
    seed,
) -> list[PseudoLabel]:
    """Argmax pseudo-annotations for a seeded selection of volumes.

    Selection is uniform without replacement over ``ids``; ``load`` is
    called only for the selected ids, and the results keep the order of
    ``ids``.
    """
    if count > len(ids):
        raise DataError(
            f"requested {count} pseudo-labeled volumes, only {len(ids)} available"
        )
    if count == 0:
        return []
    rng = np.random.default_rng(seed)
    chosen = sorted(rng.choice(len(ids), size=count, replace=False).tolist())
    return [
        PseudoLabel(ids[i], predict_volume(model, load(ids[i])).data)
        for i in chosen
    ]


def consistency_loss(
    weak_probs: np.ndarray,
    views_probs: list[np.ndarray],
    tau: float,
    eps: float = BCE_EPS,
) -> tuple[float, list[np.ndarray]]:
    """Masked cross-entropy of each view against the weak view's hard labels.

    Averaged over confident pixels and views; returns the loss and the
    per-view gradient dL/dp. Zero everywhere when no pixel is confident.
    """
    weak = np.asarray(weak_probs, dtype=np.float64)
    views = [np.asarray(v, dtype=np.float64) for v in views_probs]
    for v in views:
        if v.shape != weak.shape:
            raise DataError(f"view shape {v.shape} does not match weak {weak.shape}")
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


# Spectrally-augmented strong views per unlabeled slice in stage 2.
STRONG_VIEWS = 2


@dataclass(frozen=True)
class StageConfig:
    """Knobs of the two-stage protocol."""

    stage1_epochs: int = 20
    stage1_pseudo_count: int = 10
    perturb_rate: float = 0.1
    batch_size: int = 8
    pseudo_weight: float = 1.0
    unsup_weight: float = 0.5
    threshold_momentum: float = 0.999
    seed: int = 0

    def __post_init__(self) -> None:
        if self.stage1_epochs < 1:
            raise ConfigError("stage1_epochs must be >= 1")
        if self.stage1_pseudo_count < 0:
            raise ConfigError("stage1_pseudo_count must be >= 0")
        if not 0.0 < self.perturb_rate < 1.0:
            raise ConfigError("perturb_rate must be in (0, 1)")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.pseudo_weight < 0 or self.unsup_weight < 0:
            raise ConfigError("pseudo_weight and unsup_weight must be >= 0")
        if not 0.0 <= self.threshold_momentum < 1.0:
            raise ConfigError("threshold_momentum must be in [0, 1)")


@dataclass(frozen=True)
class TrainSlice:
    """A supervised training plane: 2D image, binary target, loss weight."""

    image: np.ndarray
    target: np.ndarray
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.target.shape != self.image.shape:
            raise DataError(
                f"target shape {self.target.shape} does not match plane "
                f"{self.image.shape}"
            )


@dataclass(frozen=True)
class HistoryRow:
    epoch: int
    split: str
    dice: float
    iou: float
    hd_norm: float
    score: float
    tau: float

    def csv_row(self) -> str:
        return (
            f"{self.epoch},{self.split},{self.dice:.6f},{self.iou:.6f},"
            f"{self.hd_norm:.6f},{self.score:.6f},{self.tau:.6f}"
        )


HISTORY_HEADER = "epoch,split,dice,iou,hd_norm,score,tau"


@dataclass
class Stage1Result:
    model: PatchMLP
    step: int
    pseudo: list[PseudoLabel]
    epoch_losses: list[float]
    warnings: list[str]

    @property
    def selected_ids(self) -> list[str]:
        return sorted(p.source_id for p in self.pseudo)


@dataclass
class Stage2Result:
    model: PatchMLP
    step: int
    history: list[HistoryRow]
    threshold: ThresholdState
    iteration_losses: list[float]
    warnings: list[str]


def predict_volume(model: PatchMLP, v: Volume) -> MaskVolume:
    """Segment a volume plane by plane along z, one forward-only pass per
    plane, so only one plane's activations are alive at a time; the planes
    reuse one workspace."""
    ws = Workspace()
    mask = np.empty(v.dims, dtype=np.uint8)
    for z in range(v.dims[0]):
        mask[z] = model.predict_probs(v.data[z], ws=ws) >= 0.5
    return MaskVolume(mask)


def evaluate_volumes(
    model: PatchMLP,
    cases: list[tuple[str, Volume, MaskVolume]],
) -> tuple[MetricsReport, list[tuple[str, MetricsReport]]]:
    """Mean metrics over validation volumes, case reports in case-id order."""
    per_case = [
        (cid, evaluate_masks(predict_volume(model, vol), gt))
        for cid, vol, gt in sorted(cases, key=lambda c: c[0])
    ]
    return mean_report([r for _, r in per_case]), per_case


def _supervised_batch(
    model: PatchMLP, batch: list[TrainSlice], ws: Workspace | None = None
) -> tuple[float, np.ndarray]:
    # Mean of per-slice weighted BCE, computed in one stacked pass on ws.
    cache = model.forward_cache_multi([ts.image for ts in batch], ws=ws)
    probs = cache["probs"]
    targets = np.concatenate([ts.target.ravel() for ts in batch]).astype(np.float64)
    pixel_w = np.concatenate(
        [np.full(ts.target.size, ts.weight / ts.target.size) for ts in batch]
    )
    p = np.clip(probs, BCE_EPS, 1.0 - BCE_EPS)
    ce = -(targets * np.log(p) + (1.0 - targets) * np.log1p(-p))
    loss = float((pixel_w * ce).sum() / len(batch))
    inside = (probs > BCE_EPS) & (probs < 1.0 - BCE_EPS)
    dz3 = np.where(inside, probs - targets, 0.0) * pixel_w / len(batch)
    return loss, model.grad_from_logit_grad(cache, dz3)


def run_stage1(
    labeled: list[TrainSlice],
    unlabeled_ids: list[str],
    load: Callable[[str], Volume],
    cfg: StageConfig,
    shape: ModelShape = ModelShape(),
    base_lr: float = 1e-4,
) -> Stage1Result:
    """Supervised bootstrap followed by pseudo-annotation.

    ``load`` maps an unlabeled id to its volume and is called only for the
    ids picked for pseudo-annotation. The pseudo count is clamped to the
    available unlabeled volumes (with a warning), so the merged set always
    holds |labeled| + min(count, pool) volumes worth of annotations.
    """
    if not labeled:
        raise DataError("stage 1 requires a nonempty labeled set")
    init_ss, shuffle_ss, pseudo_ss = np.random.SeedSequence(cfg.seed).spawn(3)
    model = PatchMLP.init_random(shape, init_ss)
    opt = AdamWState.fresh(shape.n_params)
    shuffle_rng = np.random.default_rng(shuffle_ss)

    n = len(labeled)
    per_epoch = -(-n // cfg.batch_size)
    sched = TrainSchedule(base_lr, cfg.stage1_epochs * per_epoch)
    epoch_losses: list[float] = []
    ws = Workspace()
    it = 0
    for _ in range(cfg.stage1_epochs):
        order = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = [labeled[i] for i in order[start:start + cfg.batch_size]]
            loss, grad = _supervised_batch(model, batch, ws)
            model.params, opt = adamw_step(model.params, grad, opt, poly_lr(sched, it))
            epoch_loss += loss
            it += 1
        epoch_losses.append(epoch_loss / per_epoch)

    warnings: list[str] = []
    count = cfg.stage1_pseudo_count
    if count > len(unlabeled_ids):
        warnings.append(f"pseudo count clamped from {count} to {len(unlabeled_ids)}")
        count = len(unlabeled_ids)
    return Stage1Result(
        model=model,
        step=opt.step,
        pseudo=generate_pseudo_labels(model, unlabeled_ids, load, count, pseudo_ss),
        epoch_losses=epoch_losses,
        warnings=warnings,
    )


def _by_shape(shapes: list[tuple[int, int]]) -> dict[tuple[int, int], list[int]]:
    groups: dict[tuple[int, int], list[int]] = {}
    for i, s in enumerate(shapes):
        groups.setdefault(s, []).append(i)
    return groups


def run_stage2(
    model: PatchMLP,
    labeled: list[TrainSlice],
    unlabeled: list[np.ndarray],
    val_cases: list[tuple[str, Volume, MaskVolume]],
    cfg: StageConfig,
    sched: TrainSchedule,
    fta_cfg: FtaConfig,
    val_points: int = 10,
) -> Stage2Result:
    """Consistency training on spectrally-augmented views.

    Each iteration pairs a labeled batch with an unlabeled batch; every pair
    is augmented in both directions at once, the labeled half feeding the
    supervised loss and the unlabeled half serving as a strong view. With an
    empty unlabeled pool the loop degrades to supervised-only training and
    records a warning. Validation metrics are logged min(``val_points``,
    iterations) times at evenly spread iterations, the last one on the
    final model.
    """
    if not labeled:
        raise DataError("stage 2 requires a nonempty labeled set")
    warnings: list[str] = []
    supervised_only = not unlabeled
    if supervised_only:
        warnings.append("empty unlabeled pool: degrading to supervised-only training")

    streams = np.random.SeedSequence(cfg.seed).spawn(5)
    batch_rng = np.random.default_rng(streams[0])
    flip_rng = np.random.default_rng(streams[1])
    lam_rng = np.random.default_rng(streams[2])
    donor_rng = np.random.default_rng(streams[3])
    perturb_rng = np.random.default_rng(streams[4])

    opt = AdamWState.fresh(model.shape.n_params)
    tau_state = ThresholdState(momentum=cfg.threshold_momentum)
    n_lab, n_unl = len(labeled), len(unlabeled)
    labeled_by_shape = _by_shape([ts.image.shape for ts in labeled])
    unlabeled_by_shape = _by_shape([u.shape for u in unlabeled])

    def pick_donor(shape: tuple[int, int], exclude: int) -> np.ndarray | None:
        pool = labeled_by_shape.get(shape)
        if pool:
            return labeled[pool[int(donor_rng.integers(len(pool)))]].image
        pool = [i for i in unlabeled_by_shape.get(shape, []) if i != exclude]
        if pool:
            return unlabeled[pool[int(donor_rng.integers(len(pool)))]]
        return None

    history: list[HistoryRow] = []
    iteration_losses: list[float] = []
    # One workspace per view; their temporaries share one scratch set.
    scratch = Workspace()
    sup_ws, strong_ws, fp_ws, weak_ws = (Workspace(scratch) for _ in range(4))
    n_val = min(max(1, val_points), sched.total_iters)
    val_iters = {-(-k * sched.total_iters // n_val) for k in range(1, n_val + 1)}
    epoch = 0

    for it in range(sched.total_iters):
        lr = poly_lr(sched, it)
        l_idx = batch_rng.choice(n_lab, size=cfg.batch_size, replace=n_lab < cfg.batch_size)
        if supervised_only:
            loss, grad = _supervised_batch(model, [labeled[i] for i in l_idx], sup_ws)
            model.params, opt = adamw_step(model.params, grad, opt, lr)
            iteration_losses.append(loss)
        else:
            u_idx = batch_rng.choice(
                n_unl, size=cfg.batch_size, replace=n_unl < cfg.batch_size
            )
            flips = flip_rng.integers(0, 2, size=cfg.batch_size)
            weak_planes = [
                unlabeled[int(u)][:, ::-1] if f else unlabeled[int(u)]
                for u, f in zip(u_idx, flips)
            ]
            # The weak view is never back-propagated: forward-only, per plane.
            weak_probs = np.concatenate(
                [model.predict_probs(u, ws=weak_ws).ravel() for u in weak_planes]
            )
            tau_state = update_threshold(
                tau_state, np.maximum(weak_probs, 1.0 - weak_probs)
            )

            # Mutual spectral augmentation: the first strong view of each
            # unlabeled plane is produced by the same call that augments its
            # paired labeled plane, and that augmented labeled plane joins
            # the clean one in the supervised batch.
            sup_batch: list[TrainSlice] = [labeled[int(i)] for i in l_idx]
            strong_planes: list[np.ndarray] = []
            strong_owner: list[int] = []
            for j in range(cfg.batch_size):
                ts = labeled[int(l_idx[j])]
                weak = weak_planes[j]
                for v in range(STRONG_VIEWS):
                    lam = fta_cfg.draw_lambda(lam_rng)
                    if v == 0 and ts.image.shape == weak.shape:
                        donor = ts.image
                    else:
                        donor = pick_donor(weak.shape, int(u_idx[j]))
                    if donor is None:
                        continue
                    pair = fta_augment_pair(donor, weak, lam, fta_cfg)
                    if v == 0 and donor is ts.image:
                        sup_batch.append(replace(ts, image=pair.z_w))
                    strong_planes.append(pair.z_u)
                    strong_owner.append(j)

            perturb = Perturbation(cfg.perturb_rate, int(perturb_rng.integers(2**32)))
            fp_cache = model.forward_cache_multi(weak_planes, perturb, fp_ws)
            strong_cache = (
                model.forward_cache_multi(strong_planes, ws=strong_ws)
                if strong_planes else None
            )

            weak_off = np.cumsum([0] + [u.size for u in weak_planes])
            strong_off = np.cumsum([0] + [u.size for u in strong_planes])
            fp_grad_flat = np.zeros_like(fp_cache["probs"])
            strong_grad_flat = (
                np.zeros_like(strong_cache["probs"]) if strong_cache else None
            )
            unsup_loss = 0.0
            for j in range(cfg.batch_size):
                segs = [k for k, owner in enumerate(strong_owner) if owner == j]
                views = [
                    strong_cache["probs"][strong_off[k]:strong_off[k + 1]]
                    for k in segs
                ]
                lo, hi = weak_off[j], weak_off[j + 1]
                views.append(fp_cache["probs"][lo:hi])
                loss_j, view_grads = consistency_loss(
                    weak_probs[lo:hi], views, tau_state.tau
                )
                unsup_loss += loss_j
                for k, g in zip(segs, view_grads[:-1]):
                    strong_grad_flat[strong_off[k]:strong_off[k + 1]] = g
                fp_grad_flat[lo:hi] = view_grads[-1]

            sup_loss, grad = _supervised_batch(model, sup_batch, sup_ws)
            w_u = cfg.unsup_weight / cfg.batch_size
            grad += w_u * model.grad_from_prob_grad(fp_cache, fp_grad_flat)
            if strong_cache is not None:
                grad += w_u * model.grad_from_prob_grad(strong_cache, strong_grad_flat)
            model.params, opt = adamw_step(model.params, grad, opt, lr)
            iteration_losses.append(
                sup_loss + cfg.unsup_weight * unsup_loss / cfg.batch_size
            )

        if val_cases and it + 1 in val_iters:
            epoch += 1
            mean, _ = evaluate_volumes(model, val_cases)
            history.append(
                HistoryRow(
                    epoch, "val", mean.dice, mean.iou, mean.hd_norm,
                    mean.score, tau_state.tau,
                )
            )

    return Stage2Result(
        model=model,
        step=opt.step,
        history=history,
        threshold=tau_state,
        iteration_losses=iteration_losses,
        warnings=warnings,
    )
