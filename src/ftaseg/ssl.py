"""Two-stage semi-supervised training engine.

Stage 1 trains the segmenter on labeled slices only, then pseudo-annotates a
seeded selection of unlabeled volumes; the pseudo-annotated volumes join the
labeled set. Stage 2 continues training on the merged set while unlabeled
slices contribute a consistency loss: the confident pixels of a weak view
(identity or flip) supervise two spectrally-augmented strong views and one
feature-perturbed view, gated by a self-adaptive confidence threshold
tracked as an EMA of batch confidence.

Each stage opens one ``model.Lane``, whose worker serves its training steps
and its inference (pseudo-annotation, validation) and whose times cover
both. Each stage-2 step runs in two lanes: the worker takes the strong
views' forward pass and then the supervised batch, while the calling thread
takes the perturbed (and weak) pass and the threshold update, then the
consistency loss and the backward passes of the perturbed and strong views.
Each pass takes its temporaries from its own lane's scratch. Stage 1's
training steps, and stage 2's when it has no unlabeled planes, split each
supervised batch by planes across the two lanes (see ``model``). Inference
runs in two lanes over volumes, on the stage's lane and buffers.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import ConfigError, DataError
from .fourier import FtaConfig, fta_augment_pair
from .metrics import MetricsReport, evaluate_masks, mean_report
from .model import (
    ROW_CHUNK,
    AdamWState,
    Lane,
    LaneTimes,
    ModelShape,
    PatchMLP,
    Perturbation,
    TrainSchedule,
    Workspace,
    adamw_step,
    in_two_lanes,
    poly_lr,
)
from .volume import MaskVolume, Volume


# Probability clip of the cross-entropy losses; clipped pixels get no gradient.
BCE_EPS = 1e-7

# Floor of the confidence threshold: 1/C for the binary task's C = 2 classes.
TAU_FLOOR = 0.5


# Spectrally-augmented strong views per unlabeled slice in stage 2.
STRONG_VIEWS = 2

# The most rows an inference pass stacks. Two lanes of passes this tall
# overlap: most of each pass runs in numpy and BLAS calls that release the
# interpreter lock.
PREDICT_ROWS = 2 * ROW_CHUNK


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
        for name in ("pseudo_weight", "unsup_weight"):
            val = getattr(self, name)
            if not (math.isfinite(val) and val >= 0):
                raise ConfigError(f"{name} must be finite and >= 0, got {val}")
        if not 0.0 <= self.threshold_momentum < 1.0:
            raise ConfigError("threshold_momentum must be in [0, 1)")


@dataclass(frozen=True)
class ThresholdState:
    """Self-adaptive confidence threshold, clamped to [TAU_FLOOR, 1]."""

    tau: float = TAU_FLOOR
    momentum: float = StageConfig.threshold_momentum

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
    ws: Workspace | None = None,
    lane: Lane | None = None,
) -> list[PseudoLabel]:
    """Argmax pseudo-annotations for a seeded selection of volumes.

    Selection is uniform without replacement over ``ids``; ``load`` is
    called only for the selected ids, and the results keep the order of
    ``ids``. The volumes are predicted in two lanes (see ``in_two_lanes``),
    the calling thread's on ``ws`` (fresh when None).
    """
    if count > len(ids):
        raise DataError(
            f"requested {count} pseudo-labeled volumes, only {len(ids)} available"
        )
    if count == 0:
        return []
    rng = np.random.default_rng(seed)
    chosen = sorted(rng.choice(len(ids), size=count, replace=False).tolist())

    def annotate(i: int, ws: Workspace) -> PseudoLabel:
        return PseudoLabel(ids[i], predict_volume(model, load(ids[i]), ws).data)

    return in_two_lanes(annotate, chosen, Workspace() if ws is None else ws, lane)


def weak_confidence(weak_probs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """max(p, 1 - p) of each weak-view probability, written to ``out``
    (fresh when None)."""
    return np.maximum(weak_probs, np.subtract(1.0, weak_probs, out=out), out=out)


def consistency_loss(
    weak_probs: np.ndarray,
    perturbed_probs: np.ndarray,
    tau: float,
    strong_probs: np.ndarray,
    strong_owner: list[int],
    sizes: list[int],
    confidence: np.ndarray | None = None,
    out: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients dL/dp of the perturbed and the strong views of a batch of
    planes. L sums over planes the cross-entropy of each view of a plane
    against its weak view's hard labels on the plane's confident pixels
    (max(p, 1 - p) >= tau), over their count times the plane's view count;
    a pixel clipped by BCE_EPS gets no gradient.

    Plane j has ``sizes[j]`` rows, in plane order in the weak and perturbed
    views; strong view k holds a view of plane ``strong_owner[k]``.
    ``confidence`` is ``weak_confidence`` of the weak rows (computed when
    None). The gradients are written to ``out`` (fresh when None).
    """
    weak = np.asarray(weak_probs, dtype=np.float64)
    views = (np.asarray(perturbed_probs, dtype=np.float64),
             np.asarray(strong_probs, dtype=np.float64))
    sizes = np.asarray(sizes, dtype=np.intp)
    owners = (np.arange(sizes.size), np.asarray(strong_owner, dtype=np.intp))
    shapes = [a.shape for a in (weak, *views)]
    n, n_strong = sizes.sum(), sizes[owners[1]].sum()
    if sizes.min(initial=1) < 1 or shapes != [(n,), (n,), (n_strong,)]:
        raise DataError(f"weak, perturbed and strong view shapes {shapes} do not "
                        f"match planes of sizes {sizes.tolist()}")
    confidence = weak_confidence(weak) if confidence is None else confidence
    confident = np.greater_equal(confidence, tau)
    labels = weak >= 0.5
    starts = np.cumsum(sizes) - sizes
    denom = np.add.reduceat(confident, starts) * (
        1 + np.bincount(owners[1], minlength=sizes.size)
    )
    out = (np.empty_like(views[0]), np.empty_like(views[1])) if out is None else out
    # A chunk of rows at a time, so temporaries stay chunk-sized as in the model.
    for v, o, g in zip(views, owners, out):
        ends = np.cumsum(sizes[o])
        shift = starts[o] - ends + sizes[o]  # from a view's row to its weak row
        for r0 in range(0, v.size, ROW_CHUNK):
            rows = np.arange(r0, min(r0 + ROW_CHUNK, v.size))
            k = np.searchsorted(ends, rows, side="right")
            rows += shift[k]
            vc, gc = v[r0:r0 + ROW_CHUNK], g[r0:r0 + ROW_CHUNK]
            # Element by element, as a pass over one plane computes it.
            inside = confident[rows] & (vc > BCE_EPS) & (vc < 1.0 - BCE_EPS)
            gc.fill(0.0)
            np.subtract(vc, labels[rows], out=gc, where=inside)
            np.divide(gc, vc * (1.0 - vc), out=gc, where=inside)
            np.divide(gc, denom[o[k]], out=gc, where=inside)
    return out


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
    lanes: LaneTimes

    @property
    def selected_ids(self) -> list[str]:
        return sorted(p.source_id for p in self.pseudo)


@dataclass
class Stage2Result:
    model: PatchMLP
    step: int
    history: list[HistoryRow]
    threshold: ThresholdState
    warnings: list[str]
    # Per-case reports of the last validation, on the final model; empty
    # without validation cases.
    val_reports: list[tuple[str, MetricsReport]]
    lanes: LaneTimes


def predict_volume(
    model: PatchMLP, v: Volume, ws: Workspace | None = None
) -> MaskVolume:
    """Segment a volume on the calling thread in forward-only passes on ``ws``
    (fresh when None) over stacks of z planes of at most ``PREDICT_ROWS``
    rows, or one plane. The mask has the bytes of those stacked passes on
    any thread; they equal one-plane passes only on planes large enough that
    BLAS keeps one kernel (76 rows for the default shape under SkylakeX)."""
    depth, h, w = v.dims
    step = max(1, PREDICT_ROWS // (h * w))
    mask = np.empty(v.dims, dtype=np.uint8)
    ws = Workspace() if ws is None else ws
    for z in range(0, depth, step):
        probs = model.forward_cache_multi(list(v.data[z:z + step]), ws=ws)["probs"]
        mask[z:z + step] = probs.reshape(-1, h, w) >= 0.5
    return MaskVolume._of_binary(mask)


def evaluate_volumes(
    model: PatchMLP,
    ids: list[str],
    load: Callable[[str], tuple[Volume, MaskVolume]],
    ws: Workspace | None = None,
    lane: Lane | None = None,
) -> tuple[MetricsReport, list[tuple[str, MetricsReport]]]:
    """Mean metrics over validation cases, case reports in case-id order.

    ``load`` maps an id to its volume and mask. The cases are predicted in
    two lanes (see ``in_two_lanes``), the calling thread's on ``ws`` (fresh
    when None), and each lane holds one case at a time.
    """
    def report(cid: str, ws: Workspace) -> tuple[str, MetricsReport]:
        vol, gt = load(cid)
        return cid, evaluate_masks(predict_volume(model, vol, ws), gt)

    per_case = in_two_lanes(report, sorted(ids), Workspace() if ws is None else ws, lane)
    return mean_report([r for _, r in per_case]), per_case


def _supervised_batch(
    model: PatchMLP,
    batch: list[TrainSlice],
    ws: Workspace | None = None,
    lane: Lane | None = None,
) -> tuple[Callable[[], float], np.ndarray]:
    # Mean of per-slice weighted BCE over one stacked pass on ws (fresh when
    # None), its later planes' rows on lane when given: the parameter
    # gradient, and a function that computes the loss value of the same
    # pass when called before ws's next pass (stage 1 calls it; stage 2 has
    # no use for it). The terms live in buffers of ws's scratch and take the
    # same operations, so the same bytes, as
    #   ce = -(t * log(p) + (1 - t) * log1p(-p)),  loss = sum(w * ce) / B,
    #   dz3 = where(inside, probs - t, 0) * w / B.
    ws = Workspace() if ws is None else ws
    cache = model.forward_cache_multi([ts.image for ts in batch], ws=ws, lane=lane)
    probs = cache["probs"]
    n, tmp = len(probs), ws.scratch

    def buf(name, dtype=np.float64):
        return tmp.take(name, (n,), dtype)

    targets, pixel_w = buf("bce_targets"), buf("bce_weights")
    o = 0
    for ts in batch:
        m = ts.target.size
        targets[o:o + m] = ts.target.ravel()
        pixel_w[o:o + m] = ts.weight / m
        o += m

    def loss() -> float:
        p = np.clip(probs, BCE_EPS, 1.0 - BCE_EPS, out=buf("bce_p"))
        ce = np.log(p, out=buf("bce_ce"))
        ce *= targets
        np.log1p(np.negative(p, out=p), out=p)
        ce += np.multiply(np.subtract(1.0, targets, out=buf("bce_neg")), p, out=p)
        np.negative(ce, out=ce)
        ce *= pixel_w
        return float(ce.sum() / len(batch))

    inside = np.greater(probs, BCE_EPS, out=buf("bce_inside", bool))
    outside = np.less(probs, 1.0 - BCE_EPS, out=buf("bce_outside", bool))
    inside &= outside
    np.invert(inside, out=outside)
    dz3 = np.subtract(probs, targets, out=buf("bce_dz3"))
    np.copyto(dz3, 0.0, where=outside)
    dz3 *= pixel_w
    dz3 /= len(batch)
    return loss, model.grad_from_logit_grad(cache, dz3, lane=lane)


def run_stage1(
    labeled: list[TrainSlice],
    unlabeled_ids: list[str],
    load: Callable[[str], Volume],
    cfg: StageConfig,
    shape: ModelShape = ModelShape(),
    base_lr: float = TrainSchedule.base_lr,
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
    warnings: list[str] = []
    count = cfg.stage1_pseudo_count
    if count > len(unlabeled_ids):
        warnings.append(f"pseudo count clamped from {count} to {len(unlabeled_ids)}")
        count = len(unlabeled_ids)
    # The calling thread's passes take their temporaries from ws's scratch
    # and the worker's from the lane's, in training and in pseudo-annotation.
    ws = Workspace()
    it = 0
    with Lane("stage1") as lane:
        for _ in range(cfg.stage1_epochs):
            order = shuffle_rng.permutation(n)
            epoch_loss = 0.0
            for start in range(0, n, cfg.batch_size):
                batch = [labeled[i] for i in order[start:start + cfg.batch_size]]
                loss, grad = _supervised_batch(model, batch, ws, lane)
                epoch_loss += loss()
                model.params, opt = adamw_step(
                    model.params, grad, opt, poly_lr(sched, it)
                )
                it += 1
            epoch_losses.append(epoch_loss / per_epoch)
        pseudo = generate_pseudo_labels(
            model, unlabeled_ids, load, count, pseudo_ss, ws, lane
        )
    return Stage1Result(
        model=model,
        step=opt.step,
        pseudo=pseudo,
        epoch_losses=epoch_losses,
        warnings=warnings,
        lanes=lane.times,
    )


def _stacked(ws: Workspace, name: str, planes: list[np.ndarray]) -> np.ndarray:
    # np.stack(planes), written to ws's buffer ``name``.
    out = ws.take(name, (len(planes), *planes[0].shape), np.result_type(*planes))
    return np.stack(planes, out=out)


def _by_shape(shapes: list[tuple[int, int]]) -> dict[tuple[int, int], list[int]]:
    groups: dict[tuple[int, int], list[int]] = {}
    for i, s in enumerate(shapes):
        groups.setdefault(s, []).append(i)
    return groups


def run_stage2(
    model: PatchMLP,
    labeled: list[TrainSlice],
    unlabeled: list[np.ndarray],
    val_ids: list[str],
    load_val: Callable[[str], tuple[Volume, MaskVolume]] | None,
    cfg: StageConfig,
    sched: TrainSchedule,
    fta_cfg: FtaConfig,
    val_points: int,
) -> Stage2Result:
    """Consistency training on spectrally-augmented views.

    Each iteration pairs a labeled batch with an unlabeled batch; every pair
    is augmented in both directions at once, the labeled half feeding the
    supervised loss and the unlabeled half serving as a strong view. With an
    empty unlabeled pool the loop degrades to supervised-only training and
    records a warning. Validation over ``val_ids``, read by ``load_val``, is
    logged min(``val_points``, iterations) times at evenly spread
    iterations, the last one on the final model.
    """
    if val_points < 1:
        raise ConfigError(f"val_points must be >= 1, got {val_points}")
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
    val_reports: list[tuple[str, MetricsReport]] = []
    n_val = min(val_points, sched.total_iters)
    val_iters = {-(-k * sched.total_iters // n_val) for k in range(1, n_val + 1)}
    epoch = 0

    # The worker lane only reads model.params and the step's planes, and
    # writes only the strong and supervised workspaces and its rows of a
    # split pass; every random draw stays on this thread.
    with Lane("stage2") as lane:
        # One workspace per view. Each lane's passes take their temporaries
        # from that lane's scratch: the worker's is the supervised batch's
        # workspace ``sup_ws`` itself, which the strong views' forward pass
        # shares, and the calling thread's is ``scratch``, which the
        # perturbed pass and both consistency backward passes use. The
        # supervised-only branch trains on the perturbed workspace, its
        # worker half on ``sup_ws``. Validation's lanes run on the perturbed
        # and supervised workspaces, idle between steps. The augmented pairs
        # of each plane shape have a workspace of their own, since a step's
        # planes view them until the step ends.
        sup_ws, scratch = lane.scratch, Workspace()
        strong_ws, fp_ws = Workspace(sup_ws), Workspace(scratch)
        fta_ws: dict[tuple[int, int], Workspace] = defaultdict(Workspace)
        for it in range(sched.total_iters):
            lr = poly_lr(sched, it)
            l_idx = batch_rng.choice(
                n_lab, size=cfg.batch_size, replace=n_lab < cfg.batch_size
            )
            if supervised_only:
                _, grad = _supervised_batch(
                    model, [labeled[i] for i in l_idx], fp_ws, lane
                )
                model.params, opt = adamw_step(model.params, grad, opt, lr)
            else:
                u_idx = batch_rng.choice(
                    n_unl, size=cfg.batch_size, replace=n_unl < cfg.batch_size
                )
                flips = flip_rng.integers(0, 2, size=cfg.batch_size)
                weak_planes = [
                    unlabeled[int(u)][:, ::-1] if f else unlabeled[int(u)]
                    for u, f in zip(u_idx, flips)
                ]

                # Mutual spectral augmentation: the first strong view of each
                # unlabeled plane is produced by the same pair that augments
                # its paired labeled plane, and that augmented labeled plane
                # joins the clean one in the supervised batch. Lambdas and
                # donors are drawn view by view; the pairs are then augmented
                # in one call per plane shape.
                views: list[tuple[int, np.ndarray, float, bool]] = []
                for j in range(cfg.batch_size):
                    ts = labeled[int(l_idx[j])]
                    weak = weak_planes[j]
                    for v in range(STRONG_VIEWS):
                        lam = fta_cfg.draw_lambda(lam_rng)
                        if v == 0 and ts.image.shape == weak.shape:
                            donor = ts.image
                        else:
                            donor = pick_donor(weak.shape, int(u_idx[j]))
                        if donor is not None:
                            views.append((j, donor, lam, v == 0 and donor is ts.image))
                z_w = [None] * len(views)
                strong_planes = [None] * len(views)
                for shape, group in _by_shape([d.shape for _, d, _, _ in views]).items():
                    ws = fta_ws[shape]
                    weak_of = [weak_planes[views[k][0]] for k in group]
                    pair = fta_augment_pair(
                        _stacked(ws, "donors", [views[k][1] for k in group]),
                        _stacked(ws, "weak", weak_of),
                        np.array([views[k][2] for k in group]),
                        fta_cfg,
                        ws=ws,
                    )
                    for k, zw, zu in zip(group, pair.z_w, pair.z_u):
                        z_w[k], strong_planes[k] = zw, zu
                sup_batch = [labeled[int(i)] for i in l_idx] + [
                    replace(labeled[int(l_idx[j])], image=zw)
                    for (j, _, _, paired), zw in zip(views, z_w) if paired
                ]
                strong_owner = [j for j, _, _, _ in views]
                perturb = Perturbation(
                    cfg.perturb_rate, int(perturb_rng.integers(2**32))
                )
                # The worker lane: the strong views' forward pass, then the
                # supervised batch.
                strong = None
                if strong_planes:
                    strong = lane.submit(
                        model.forward_cache_multi, strong_planes, None, strong_ws
                    )
                sup = lane.submit(_supervised_batch, model, sup_batch, sup_ws)

                # The calling lane. The perturbed pass also yields the weak
                # view, which is never back-propagated.
                fp_cache = model.forward_cache_multi(weak_planes, perturb, fp_ws)
                weak_probs = fp_cache["weak_probs"]
                confidence = weak_confidence(
                    weak_probs, scratch.take("confidence", weak_probs.shape, np.float64)
                )
                tau_state = update_threshold(tau_state, confidence)
                strong_cache = lane.wait(strong).result() if strong else None

                strong_probs = strong_cache["probs"] if strong_cache else np.empty(0)
                fp_grad, strong_grad = consistency_loss(
                    weak_probs, fp_cache["probs"], tau_state.tau, strong_probs,
                    strong_owner, [u.size for u in weak_planes], confidence,
                    out=(fp_ws.take("prob_grad", weak_probs.shape, np.float64),
                         strong_ws.take("prob_grad", strong_probs.shape, np.float64)),
                )
                fp_grad = model.grad_from_prob_grad(fp_cache, fp_grad)
                if strong_cache is not None:
                    strong_grad = model.grad_from_prob_grad(
                        strong_cache, strong_grad, scratch
                    )

                # Join; the gradients add in a fixed order whichever lane
                # finished first.
                _, grad = lane.wait(sup).result()
                w_u = cfg.unsup_weight / cfg.batch_size
                grad += w_u * fp_grad
                if strong_cache is not None:
                    grad += w_u * strong_grad
                model.params, opt = adamw_step(model.params, grad, opt, lr)

            if val_ids and it + 1 in val_iters:
                epoch += 1
                mean, val_reports = evaluate_volumes(
                    model, val_ids, load_val, fp_ws, lane
                )
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
        warnings=warnings,
        val_reports=val_reports,
        lanes=lane.times,
    )
