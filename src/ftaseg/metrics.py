"""Overlap metrics, L1 Hausdorff distance, and the weighted challenge score.

score = 0.4 * Dice + 0.3 * IoU + 0.3 * (1 - normalized Hausdorff)

Distances are exact voxel-grid L1 values from a separable city-block
distance transform: one forward and one backward running-minimum pass per
axis (Rosenfeld & Pfaltz 1966). The empty-vs-empty convention is
Dice = IoU = 1 and distance 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError, UndefinedMetricError
from .volume import MaskVolume

W_DICE = 0.4
W_IOU = 0.3
W_HD = 0.3


@dataclass(frozen=True)
class MetricsReport:
    dice: float
    iou: float
    hd_raw: float
    hd_norm: float
    score: float

    def csv_row(self, case: str) -> str:
        return (
            f"{case},{self.dice:.6f},{self.iou:.6f},{self.hd_raw:.6f},"
            f"{self.hd_norm:.6f},{self.score:.6f}"
        )


CSV_HEADER = "case,dice,iou,hd_raw,hd_norm,score"


def _check_dims(a: MaskVolume, b: MaskVolume) -> None:
    if a.dims != b.dims:
        raise DataError(f"mask dims differ: {a.dims} vs {b.dims}")


def _overlap_counts(a: MaskVolume, b: MaskVolume) -> tuple[int, int, int]:
    _check_dims(a, b)
    inter = int(np.count_nonzero(a.data & b.data))
    return inter, a.voxel_count(), b.voxel_count()


def _dice(inter: int, na: int, nb: int) -> float:
    return 1.0 if na + nb == 0 else 2.0 * inter / (na + nb)


def _iou(inter: int, na: int, nb: int) -> float:
    union = na + nb - inter
    return 1.0 if union == 0 else inter / union


def dice(a: MaskVolume, b: MaskVolume) -> float:
    """2*|A intersect B| / (|A| + |B|); 1.0 when both masks are empty."""
    return _dice(*_overlap_counts(a, b))


def iou(a: MaskVolume, b: MaskVolume) -> float:
    """|A intersect B| / |A union B|; 1.0 when both masks are empty."""
    return _iou(*_overlap_counts(a, b))


def _l1_distance_to(targets: np.ndarray) -> np.ndarray:
    """Exact L1 distance from every voxel to the nearest True voxel of each
    ``(D, H, W)`` mask in the ``(k, D, H, W)`` stack ``targets``."""
    # sum(dims) exceeds every L1 distance in the grid, so it stands for "none
    # seen yet" and never wins a minimum against a real distance.
    none = np.int32(sum(targets.shape[1:]))
    d = np.where(targets, np.int32(0), none)
    for _ in range(3):
        n = d.shape[1]
        for i in range(1, n):
            np.minimum(d[:, i], d[:, i - 1] + 1, out=d[:, i])
        for i in range(n - 2, -1, -1):
            np.minimum(d[:, i], d[:, i + 1] + 1, out=d[:, i])
        # Rotate the next spatial axis to axis 1; after three turns the
        # original axis order is back.
        d = np.ascontiguousarray(np.moveaxis(d, 1, 3))
    return d


def hausdorff_l1(a: MaskVolume, b: MaskVolume) -> int:
    """Symmetric Hausdorff distance between the foreground voxels of two
    masks, with L1 ground distance."""
    _check_dims(a, b)
    in_a, in_b = a.data.astype(bool), b.data.astype(bool)
    if not in_a.any() or not in_b.any():
        raise UndefinedMetricError("hausdorff_l1 needs two nonempty masks")
    # Exact taxicab distance from every voxel to the nearest voxel of the
    # other mask: L1 geodesics stay inside the grid's box.
    to_a, to_b = _l1_distance_to(np.stack((in_a, in_b)))
    return int(max(to_b[in_a].max(), to_a[in_b].max()))


def max_l1_extent(dims: tuple[int, int, int]) -> int:
    d, h, w = dims
    return (d - 1) + (h - 1) + (w - 1)


def normalize_hd(hd_raw: float, dims: tuple[int, int, int]) -> float:
    """Distance over the maximum possible L1 distance in the grid, clamped."""
    if hd_raw < 0:
        raise DataError(f"hd_raw must be >= 0, got {hd_raw}")
    divisor = max_l1_extent(dims)
    if divisor == 0:
        if hd_raw == 0:
            return 0.0
        raise NumericError(f"cannot normalize distance {hd_raw} in a 1x1x1 grid")
    return float(np.clip(hd_raw / divisor, 0.0, 1.0))


def challenge_score(dice_val: float, iou_val: float, hd_norm: float) -> float:
    """Weighted sum 0.4*dice + 0.3*iou + 0.3*(1 - hd_norm)."""
    for name, val in (("dice", dice_val), ("iou", iou_val), ("hd_norm", hd_norm)):
        if not 0.0 <= val <= 1.0:
            raise DataError(f"{name} must be in [0, 1], got {val}")
    return W_DICE * dice_val + W_IOU * iou_val + W_HD * (1.0 - hd_norm)


def evaluate_masks(pred: MaskVolume, gt: MaskVolume) -> MetricsReport:
    """Full report for one case, with the L1 Hausdorff distance as the
    distance term. When exactly one mask is empty the distance is undefined
    and scored at the worst case (hd_norm = 1).
    """
    inter, np_, ng = _overlap_counts(pred, gt)
    d, j = _dice(inter, np_, ng), _iou(inter, np_, ng)
    if np_ == 0 and ng == 0:
        hd_raw, hd_norm = 0.0, 0.0
    elif np_ == 0 or ng == 0:
        hd_raw = float(max_l1_extent(pred.dims))
        hd_norm = 1.0
    else:
        hd_raw = float(hausdorff_l1(pred, gt))
        hd_norm = normalize_hd(hd_raw, pred.dims)
    return MetricsReport(d, j, hd_raw, hd_norm, challenge_score(d, j, hd_norm))


def mean_report(reports: list[MetricsReport]) -> MetricsReport:
    """Per-field mean across cases."""
    if not reports:
        raise DataError("mean_report needs at least one case")
    n = len(reports)
    return MetricsReport(
        dice=sum(r.dice for r in reports) / n,
        iou=sum(r.iou for r in reports) / n,
        hd_raw=sum(r.hd_raw for r in reports) / n,
        hd_norm=sum(r.hd_norm for r in reports) / n,
        score=sum(r.score for r in reports) / n,
    )
