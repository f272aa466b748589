import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftaseg.errors import DataError, NumericError, UndefinedMetricError
from ftaseg.metrics import (
    W_DICE,
    W_HD,
    W_IOU,
    MetricsReport,
    challenge_score,
    dice,
    evaluate_masks,
    hausdorff_l1,
    iou,
    mean_report,
    normalize_hd,
)
from ftaseg.volume import MaskVolume

from oracles import hausdorff_l1_scan, overlap_counts_scan

# Published leaderboard rows: (dice, iou, hd_norm) -> score
LEADERBOARD = [
    ((0.8442, 0.8661, 0.1595), 0.8497),
    ((0.8343, 0.8583, 0.1615), 0.8427),
    ((0.8058, 0.8376, 0.1599), 0.8256),
    ((0.8070, 0.8386, 0.1689), 0.8237),
    ((0.7932, 0.8290, 0.1708), 0.8147),
]


def mask_from(coords, dims=(4, 4, 4)):
    arr = np.zeros(dims, dtype=np.uint8)
    for x, y, z in coords:
        arr[z, y, x] = 1
    return MaskVolume(arr)


def random_mask(rng, dims, p=0.3):
    return MaskVolume((rng.random(dims) < p).astype(np.uint8))


class TestDiceIou:
    def test_identical_nonempty(self):
        m = mask_from([(0, 0, 0), (1, 1, 1)])
        assert dice(m, m) == 1.0
        assert iou(m, m) == 1.0

    def test_disjoint(self):
        a = mask_from([(0, 0, 0)])
        b = mask_from([(3, 3, 3)])
        assert dice(a, b) == 0.0
        assert iou(a, b) == 0.0

    def test_forced_arithmetic(self):
        a = mask_from([(0, 0, 0), (1, 0, 0), (2, 0, 0)])
        b = mask_from([(1, 0, 0), (2, 0, 0), (3, 0, 0)])
        assert dice(a, b) == pytest.approx(2 * 2 / 6)
        assert iou(a, b) == pytest.approx(2 / 4)

    def test_both_empty_convention(self):
        e = mask_from([])
        assert dice(e, e) == 1.0
        assert iou(e, e) == 1.0

    def test_dim_mismatch(self):
        a = mask_from([(0, 0, 0)], (2, 2, 2))
        b = mask_from([(0, 0, 0)], (3, 3, 3))
        for metric in (dice, iou, hausdorff_l1):
            with pytest.raises(DataError):
                metric(a, b)

    def test_counting_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            dims = tuple(rng.integers(1, 6, 3))
            a, b = random_mask(rng, dims), random_mask(rng, dims)
            inter, na, nb, union = overlap_counts_scan(a.data, b.data)
            expected_dice = 1.0 if na + nb == 0 else 2 * inter / (na + nb)
            expected_iou = 1.0 if union == 0 else inter / union
            assert dice(a, b) == expected_dice
            assert iou(a, b) == expected_iou

    def test_symmetry_and_order(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            a, b = random_mask(rng, (4, 4, 4)), random_mask(rng, (4, 4, 4))
            assert dice(a, b) == dice(b, a)
            assert iou(a, b) == iou(b, a)
            assert 0.0 <= iou(a, b) <= dice(a, b) <= 1.0


class TestDistances:
    def test_overlapping_sets_keep_a_distance(self):
        # A shared voxel does not make the Hausdorff distance 0.
        a = mask_from([(1, 1, 1), (2, 2, 2)])
        b = mask_from([(1, 1, 1), (3, 3, 3)])
        assert hausdorff_l1(a, b) == 3

    def test_single_pair_l1(self):
        a = mask_from([(0, 0, 0)])
        b = mask_from([(1, 2, 3)])
        assert hausdorff_l1(a, b) == 6

    def test_hausdorff_identity(self):
        a = mask_from([(0, 1, 2), (3, 2, 1)])
        assert hausdorff_l1(a, a) == 0

    def test_hausdorff_asymmetric_case(self):
        # a point inside a spread set: directed distances differ
        a = mask_from([(0, 0, 0)])
        b = mask_from([(0, 0, 0), (3, 3, 3)])
        assert hausdorff_l1(a, b) == 9

    def test_empty_set_undefined(self):
        empty = mask_from([])
        full = mask_from([(0, 0, 0)])
        with pytest.raises(UndefinedMetricError):
            hausdorff_l1(empty, full)
        with pytest.raises(UndefinedMetricError):
            hausdorff_l1(full, empty)

    def test_opposite_corners_of_a_flat_grid(self):
        # Non-cubic dims: a transform that rotates the wrong axis in gets a
        # different sum.
        dims = (48, 33, 7)
        a = mask_from([(0, 0, 0)], dims)
        b = mask_from([(6, 32, 47)], dims)
        assert hausdorff_l1(a, b) == 47 + 32 + 6

    def test_one_voxel_against_a_full_mask(self):
        # The voxel lies inside the full mask, so only the full mask's far
        # corner counts: from (z, y, x) = (1, 3, 0) in a (7, 4, 2) grid it
        # is (6, 0, 1).
        a = mask_from([(0, 3, 1)], (7, 4, 2))
        full = MaskVolume(np.ones((7, 4, 2), dtype=np.uint8))
        assert hausdorff_l1(a, full) == hausdorff_l1(full, a) == 5 + 3 + 1

    def test_brute_force_oracles(self):
        rng = np.random.default_rng(2)
        for _ in range(60):
            # Axes of length 1 and non-cubic grids included.
            dims = tuple(rng.integers(1, 10, 3))
            a = random_mask(rng, dims, 0.25)
            b = random_mask(rng, dims, 0.25)
            if a.voxel_count() == 0 or b.voxel_count() == 0:
                continue
            if a.voxel_count() > 50 or b.voxel_count() > 50:
                continue
            ca = [tuple(c) for c in np.argwhere(a.data)]
            cb = [tuple(c) for c in np.argwhere(b.data)]
            assert hausdorff_l1(a, b) == hausdorff_l1_scan(ca, cb)

    def test_peak_memory_of_a_48_cube_pair_stays_under_2_5_mib(self):
        # The distance transform starts from int32, not int64 cast down.
        rng = np.random.default_rng(4)
        a = random_mask(rng, (48, 48, 48), 0.05)
        b = random_mask(rng, (48, 48, 48), 0.05)
        hausdorff_l1(a, b)  # warm-up
        tracemalloc.start()
        try:
            hausdorff_l1(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 2**20, f"peak {peak / 2**20:.2f} MiB"

    def test_hausdorff_properties(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            a = random_mask(rng, (4, 4, 4), 0.3)
            b = random_mask(rng, (4, 4, 4), 0.3)
            if a.voxel_count() == 0 or b.voxel_count() == 0:
                continue
            assert hausdorff_l1(a, b) == hausdorff_l1(b, a)
            assert (hausdorff_l1(a, b) == 0) == np.array_equal(a.data, b.data)


class TestNormalizeAndScore:
    def test_zero_distance(self):
        assert normalize_hd(0.0, (4, 4, 4)) == 0.0

    def test_full_extent_is_one(self):
        assert normalize_hd(9.0, (4, 4, 4)) == 1.0

    def test_forced_arithmetic(self):
        assert normalize_hd(6.0, (4, 4, 4)) == pytest.approx(6 / 9)

    def test_clamped_above(self):
        assert normalize_hd(20.0, (4, 4, 4)) == 1.0

    def test_degenerate_dims(self):
        assert normalize_hd(0.0, (1, 1, 1)) == 0.0
        with pytest.raises(NumericError):
            normalize_hd(1.0, (1, 1, 1))

    def test_negative_rejected(self):
        with pytest.raises(DataError):
            normalize_hd(-1.0, (4, 4, 4))

    @pytest.mark.parametrize("triple,expected", LEADERBOARD)
    def test_leaderboard_score_reproduction(self, triple, expected):
        assert challenge_score(*triple) == pytest.approx(expected, abs=5e-4)

    def test_perfect_segmentation(self):
        assert challenge_score(1.0, 1.0, 0.0) == 1.0

    def test_out_of_range_rejected(self):
        with pytest.raises(DataError):
            challenge_score(1.2, 0.5, 0.5)
        with pytest.raises(DataError):
            challenge_score(0.5, 0.5, -0.1)

    def test_weights_sum_to_one(self):
        assert W_DICE + W_IOU + W_HD == 1.0

    def test_monotonicity(self):
        base = challenge_score(0.5, 0.5, 0.5)
        assert challenge_score(0.6, 0.5, 0.5) > base
        assert challenge_score(0.5, 0.6, 0.5) > base
        assert challenge_score(0.5, 0.5, 0.6) < base

    @settings(max_examples=50, deadline=None)
    @given(
        d=st.floats(0, 1), j=st.floats(0, 1), h=st.floats(0, 1),
    )
    def test_score_range_property(self, d, j, h):
        assert 0.0 <= challenge_score(d, j, h) <= 1.0


class TestEvaluateMasks:
    def test_report_consistency(self):
        rng = np.random.default_rng(4)
        pred = random_mask(rng, (5, 5, 5))
        gt = random_mask(rng, (5, 5, 5))
        r = evaluate_masks(pred, gt)
        assert r.dice == dice(pred, gt)
        assert r.iou == iou(pred, gt)
        assert r.score == pytest.approx(
            0.4 * r.dice + 0.3 * r.iou + 0.3 * (1 - r.hd_norm)
        )

    def test_distance_term_is_hausdorff(self):
        # The masks touch, so a minimum cross-pair distance would read 0.
        pred = mask_from([(0, 0, 0), (3, 3, 3)])
        gt = mask_from([(0, 0, 0)])
        assert evaluate_masks(pred, gt).hd_raw == 9.0

    def test_both_empty(self):
        e = mask_from([])
        r = evaluate_masks(e, e)
        assert (r.dice, r.iou, r.hd_raw, r.hd_norm, r.score) == (1, 1, 0, 0, 1)

    def test_one_empty_scores_worst_distance(self):
        r = evaluate_masks(mask_from([]), mask_from([(1, 1, 1)]))
        assert r.dice == 0.0 and r.hd_norm == 1.0

    def test_csv_row_format(self):
        r = MetricsReport(0.5, 0.25, 3.0, 0.125, 0.5375)
        assert r.csv_row("c1") == "c1,0.500000,0.250000,3.000000,0.125000,0.537500"

    def test_mean_report(self):
        a = MetricsReport(1.0, 1.0, 0.0, 0.0, 1.0)
        b = MetricsReport(0.0, 0.0, 2.0, 1.0, 0.0)
        m = mean_report([a, b])
        assert (m.dice, m.iou, m.hd_raw, m.hd_norm, m.score) == (0.5, 0.5, 1.0, 0.5, 0.5)
