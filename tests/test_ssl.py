import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftaseg.errors import ConfigError, DataError
from ftaseg.fourier import FtaConfig, fta_augment_pair
from ftaseg.model import (
    AdamWState,
    ModelShape,
    PatchMLP,
    TrainSchedule,
    Perturbation,
    Workspace,
    _alpha_dropout_,
    adamw_step,
    poly_lr,
)
from ftaseg.ssl import (
    STRONG_VIEWS,
    StageConfig,
    ThresholdState,
    TrainSlice,
    _supervised_batch,
    consistency_loss,
    evaluate_volumes,
    generate_pseudo_labels,
    predict_volume,
    run_stage1,
    run_stage2,
    update_threshold,
)
from ftaseg.volume import RAW, NORMALIZED, MaskVolume, Volume

from oracles import (
    bce_ref,
    finite_diff_grad,
    mlp_forward_rows_ref,
    mlp_grad_ref,
    patches_ref,
)


def make_train_set(rng, n=6, hw=8):
    out = []
    for i in range(n):
        img = rng.random((hw, hw), dtype=np.float32)
        target = (rng.random((hw, hw)) < 0.3).astype(np.uint8)
        out.append(TrainSlice(img, target))
    return out


def make_volumes(rng, n=5, dim=6):
    return [
        (f"u{i:02d}", Volume(rng.random((dim, dim, dim), dtype=np.float32), NORMALIZED))
        for i in range(n)
    ]


class TestThreshold:
    def test_initializes_at_class_floor(self):
        assert ThresholdState().tau == 0.5

    def test_ema_arithmetic(self):
        state = ThresholdState(tau=0.5, momentum=0.9)
        new = update_threshold(state, np.full(4, 0.9))
        assert new.tau == pytest.approx(0.54, abs=1e-12)

    def test_converges_to_constant_stream(self):
        state = ThresholdState(tau=0.5, momentum=0.9)
        c = 0.85
        for _ in range(100):  # 10 / (1 - m) updates
            state = update_threshold(state, np.full(3, c))
        assert abs(state.tau - c) < 1e-3

    def test_clamped_at_floor(self):
        state = ThresholdState(tau=0.5, momentum=0.9)
        assert update_threshold(state, np.full(8, 0.1)).tau == 0.5

    def test_empty_batch_is_noop(self):
        state = ThresholdState(tau=0.7)
        assert update_threshold(state, np.array([])) == state

    def test_out_of_range_confidence_rejected(self):
        with pytest.raises(DataError):
            update_threshold(ThresholdState(), np.array([1.5]))

    def test_state_validation(self):
        with pytest.raises(ConfigError):
            ThresholdState(tau=0.4)  # below 1/C
        with pytest.raises(ConfigError):
            ThresholdState(momentum=1.0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(st.floats(0, 1), min_size=0, max_size=6), min_size=1, max_size=30
        ),
        st.floats(0, 0.999),
    )
    def test_tau_bounded_under_fuzzed_updates(self, batches, momentum):
        state = ThresholdState(momentum=momentum)
        for batch in batches:
            state = update_threshold(state, np.array(batch))
            assert 0.5 <= state.tau <= 1.0


def ids_and_load(volumes):
    """The (ids, load) pair the pseudo-labelling API takes, over in-memory
    volumes; ``loaded`` records every id read."""
    loaded = []

    def load(vid):
        loaded.append(vid)
        return dict(volumes)[vid]

    return [vid for vid, _ in volumes], load, loaded


class TestPseudoLabels:
    def test_argmax_semantics(self):
        rng = np.random.default_rng(0)
        model = PatchMLP.init_random(ModelShape(3, 4, 3), 1)
        volumes = make_volumes(rng, 3)
        ids, load, loaded = ids_and_load(volumes)
        labels = generate_pseudo_labels(model, ids, load, 2, seed=0)
        assert len({p.source_id for p in labels}) == 2
        assert sorted(loaded) == sorted(p.source_id for p in labels)
        for p in labels:
            vol = dict(volumes)[p.source_id]
            probs = np.stack([model.predict_probs(u) for u in vol.data])
            assert p.mask.dtype == np.uint8
            assert np.array_equal(p.mask, (probs >= 0.5).astype(np.uint8))

    def test_zero_count_is_empty(self):
        model = PatchMLP.init_random(ModelShape(3, 4, 3), 1)
        assert generate_pseudo_labels(model, [], {}.__getitem__, 0, seed=0) == []

    def test_count_exceeding_pool_rejected(self):
        rng = np.random.default_rng(1)
        model = PatchMLP.init_random(ModelShape(3, 4, 3), 1)
        ids, load, _ = ids_and_load(make_volumes(rng, 2))
        with pytest.raises(DataError):
            generate_pseudo_labels(model, ids, load, 3, seed=0)

    def test_selection_deterministic_per_seed(self):
        rng = np.random.default_rng(2)
        model = PatchMLP.init_random(ModelShape(3, 4, 3), 1)
        volumes = make_volumes(rng, 8)
        ids, load = [vid for vid, _ in volumes], dict(volumes).__getitem__

        def picked(seed):
            labels = generate_pseudo_labels(model, ids, load, 3, seed)
            return {p.source_id for p in labels}

        assert picked(7) == picked(7)
        assert picked(7) != picked(8)


def alpha_dropout(acts, rate, seed):
    # The model's in-place dropout, written to fresh buffers.
    out = np.empty_like(acts)
    _alpha_dropout_(
        acts, rate, np.random.default_rng(seed), out,
        np.empty(acts.shape, dtype=bool), np.empty_like(acts),
    )
    return out


class TestFeaturePerturb:
    def test_zero_rate_identity(self):
        rng = np.random.default_rng(3)
        acts = rng.normal(size=(64, 8))
        assert np.array_equal(alpha_dropout(acts, 0.0, 0), acts)

    def test_moments_preserved(self):
        rng = np.random.default_rng(4)
        acts = rng.normal(size=100_000)
        out = alpha_dropout(acts, 0.1, seed=5)
        assert abs(float(out.mean()) - float(acts.mean())) < 0.02
        assert abs(float(out.var()) / float(acts.var()) - 1.0) < 0.02

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(5)
        acts = rng.normal(size=(32, 4))
        assert np.array_equal(
            alpha_dropout(acts, 0.2, 9), alpha_dropout(acts, 0.2, 9)
        )
        assert not np.array_equal(
            alpha_dropout(acts, 0.2, 9), alpha_dropout(acts, 0.2, 10)
        )

    def test_saturated_units_share_value(self):
        rng = np.random.default_rng(6)
        acts = rng.normal(size=1000) + 10.0  # all far from saturation
        out = alpha_dropout(acts, 0.3, seed=1)
        # dropped units all map to the same affine image of the saturation value
        changed = out < out.mean() - 3.0
        assert changed.any()
        assert np.unique(np.round(out[changed], 9)).size == 1


class TestConsistencyLoss:
    def test_hand_computed_masked_ce(self):
        weak = np.array([0.9, 0.6])
        view = np.array([0.8, 0.5])  # on the confident pixel: p(label=1) = 0.8
        loss, grads = consistency_loss(weak, [view], tau=0.7)
        assert loss == pytest.approx(-np.log(0.8), rel=1e-9)
        assert grads[0][1] == 0.0  # masked pixel contributes nothing

    def test_fully_masked_returns_zero(self):
        weak = np.array([0.6, 0.55])
        views = [np.array([0.1, 0.9])]
        loss, grads = consistency_loss(weak, views, tau=0.95)
        assert loss == 0.0
        assert np.array_equal(grads[0], np.zeros(2))

    def test_perfect_consistency_near_zero(self):
        weak = np.array([0.99, 0.01])
        views = [np.array([1.0 - 1e-7, 1e-7]), np.array([1.0 - 1e-7, 1e-7])]
        loss, _ = consistency_loss(weak, views, tau=0.9)
        assert loss == pytest.approx(0.0, abs=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            consistency_loss(np.zeros(3), [np.zeros(4)], 0.5)

    def test_nonnegative_and_averaged(self):
        rng = np.random.default_rng(7)
        weak = rng.random(50)
        views = [rng.random(50) for _ in range(3)]
        loss, grads = consistency_loss(weak, views, tau=0.5)
        assert loss >= 0.0
        assert len(grads) == 3

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        weak = rng.random(12)
        views = [rng.uniform(0.05, 0.95, 12) for _ in range(2)]
        _, grads = consistency_loss(weak, views, tau=0.6)
        for vi in range(2):
            def loss_at(v):
                vs = [view.copy() for view in views]
                vs[vi] = v
                return consistency_loss(weak, vs, tau=0.6)[0]

            fd = finite_diff_grad(loss_at, views[vi], h=1e-7)
            assert np.abs(grads[vi] - fd).max() < 1e-5


class TestUnsupervisedGradient:
    """The strong and the perturbed views train through grad_from_prob_grad
    on the consistency loss against a fixed weak view."""

    @pytest.mark.parametrize(
        "perturb", [None, Perturbation(0.3, 7)], ids=["strong", "perturbed"]
    )
    def test_matches_finite_differences(self, perturb):
        rng = np.random.default_rng(20)
        shape = ModelShape(3, 4, 3)
        model = PatchMLP.init_random(shape, 2)
        views = [rng.random((4, 5), dtype=np.float32) for _ in range(2)]
        weak = rng.random(40)

        def loss_at(params):
            cache = PatchMLP(shape, params).forward_cache_multi(views, perturb)
            return consistency_loss(weak, [cache["probs"]], tau=0.6)[0]

        cache = model.forward_cache_multi(views, perturb)
        _, (dloss_dprobs,) = consistency_loss(weak, [cache["probs"]], tau=0.6)
        grad = model.grad_from_prob_grad(cache, dloss_dprobs)
        fd = finite_diff_grad(loss_at, model.params)
        assert np.abs(fd).max() > 1e-3
        rel = np.abs(grad - fd) / np.maximum.reduce(
            [np.abs(grad), np.abs(fd), np.full_like(fd, 1e-6)]
        )
        assert rel.max() < 1e-4


class TestStage1:
    def test_requires_labeled_data(self):
        with pytest.raises(DataError):
            run_stage1([], [], {}.__getitem__, StageConfig(stage1_epochs=1))

    def test_merged_count_clamps_to_pool(self):
        rng = np.random.default_rng(9)
        labeled = make_train_set(rng, 4)
        volumes = make_volumes(rng, 3)
        cfg = StageConfig(stage1_epochs=1, stage1_pseudo_count=10, seed=0)
        ids, load, _ = ids_and_load(volumes)
        res = run_stage1(labeled, ids, load, cfg, ModelShape(3, 4, 3))
        assert len(res.selected_ids) == min(10, len(volumes)) == 3
        assert res.warnings

    def test_zero_pseudo_count_no_op(self):
        rng = np.random.default_rng(10)
        cfg = StageConfig(stage1_epochs=1, stage1_pseudo_count=0, seed=0)
        ids, load, loaded = ids_and_load(make_volumes(rng, 3))
        res = run_stage1(make_train_set(rng, 3), ids, load, cfg, ModelShape(3, 4, 3))
        assert res.selected_ids == []
        assert res.pseudo == []
        assert loaded == []

    def test_deterministic(self):
        def run():
            rng = np.random.default_rng(11)
            cfg = StageConfig(stage1_epochs=2, stage1_pseudo_count=2, seed=5)
            labeled = make_train_set(rng, 5)
            volumes = make_volumes(rng, 4)
            return run_stage1(
                labeled, [vid for vid, _ in volumes], dict(volumes).__getitem__,
                cfg, ModelShape(3, 4, 3),
            )

        a, b = run(), run()
        assert np.array_equal(a.model.params, b.model.params)
        assert a.selected_ids == b.selected_ids
        assert a.epoch_losses == b.epoch_losses
        for pa, pb in zip(a.pseudo, b.pseudo):
            assert np.array_equal(pa.mask, pb.mask)

    def test_epoch_losses_length_and_decrease(self):
        rng = np.random.default_rng(12)
        cfg = StageConfig(stage1_epochs=8, stage1_pseudo_count=0, seed=1)
        res = run_stage1(make_train_set(rng, 6), [], {}.__getitem__, cfg,
                         ModelShape(3, 4, 3), base_lr=1e-2)
        assert len(res.epoch_losses) == 8
        assert res.epoch_losses[-1] < res.epoch_losses[0]


class TestStage2:
    def val_cases(self, rng):
        vol = Volume(rng.random((4, 6, 6), dtype=np.float32), NORMALIZED)
        gt = MaskVolume((rng.random((4, 6, 6)) < 0.3).astype(np.uint8))
        return [("v0", vol, gt)]

    def test_empty_pool_equals_supervised_trajectory(self):
        rng = np.random.default_rng(13)
        labeled = make_train_set(rng, 5)
        model = PatchMLP.init_random(ModelShape(3, 4, 3), 2)
        cfg = StageConfig(seed=9, batch_size=3)
        sched = TrainSchedule(1e-3, 25)
        res = run_stage2(
            PatchMLP(model.shape, model.params), labeled, [], [], cfg, sched,
            FtaConfig(),
        )
        assert res.warnings and "supervised-only" in res.warnings[0]

        # independent supervised loop with the same seeded batch stream
        oracle = PatchMLP(model.shape, model.params.copy())
        streams = np.random.SeedSequence(cfg.seed).spawn(5)
        batch_rng = np.random.default_rng(streams[0])
        opt = AdamWState.fresh(model.shape.n_params)
        losses = []
        for it in range(sched.total_iters):
            lr = poly_lr(sched, it)
            idx = batch_rng.choice(len(labeled), size=cfg.batch_size, replace=False)
            loss, grad = _supervised_batch(oracle, [labeled[i] for i in idx])
            oracle.params, opt = adamw_step(oracle.params, grad, opt, lr)
            losses.append(loss)
        assert np.array_equal(res.model.params, oracle.params)
        assert res.iteration_losses == losses

    def test_supervised_batch_matches_per_slice_mean(self):
        rng = np.random.default_rng(14)
        batch = make_train_set(rng, 4)
        model = PatchMLP.init_random(ModelShape(3, 4, 3), 3)
        batch[1] = TrainSlice(batch[1].image, batch[1].target, 0.5)
        loss, grad = _supervised_batch(model, batch)
        dims = (3, 4, 3)
        want_loss, want_grad = 0.0, np.zeros(model.shape.n_params)
        for ts in batch:
            p = patches_ref(ts.image, 3)
            ref = mlp_forward_rows_ref(model.params, dims, p)
            l, dz3 = bce_ref(ref["probs"], ts.target.ravel())
            want_loss += ts.weight * l / 4
            want_grad += ts.weight * mlp_grad_ref(model.params, dims, ref, dz3) / 4
        assert loss == pytest.approx(want_loss, rel=1e-12)
        assert np.allclose(grad, want_grad, atol=1e-15)

    def test_reused_workspace_keeps_a_batch_under_4_mib(self):
        # 16 slices of 32 x 32 at the default shape: one (rows, hidden1)
        # float64 activation is 4 MiB, so any such temporary breaks the bound.
        rng = np.random.default_rng(16)
        batch = make_train_set(rng, 16, hw=32)
        model = PatchMLP.init_random(ModelShape(), 3)
        ws = Workspace()
        _supervised_batch(model, batch, ws)  # warm-up sizes the buffers
        tracemalloc.start()
        try:
            _supervised_batch(model, batch, ws)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, f"peak {peak / 2**20:.2f} MiB"

    def test_tau_bounded_and_history_logged(self):
        rng = np.random.default_rng(15)
        labeled = make_train_set(rng, 4)
        unlabeled = [ts.image for ts in make_train_set(rng, 6)]
        cfg = StageConfig(seed=3, batch_size=2, threshold_momentum=0.9)
        res = run_stage2(
            PatchMLP.init_random(ModelShape(3, 4, 3), 4), labeled, unlabeled,
            self.val_cases(rng), cfg, TrainSchedule(1e-3, 12), FtaConfig(),
            val_points=3,
        )
        assert 0.5 <= res.threshold.tau <= 1.0
        assert [row.epoch for row in res.history] == [1, 2, 3]
        assert all(row.split == "val" for row in res.history)
        assert all(0.5 <= row.tau <= 1.0 for row in res.history)

    @pytest.mark.parametrize(
        "iters,val_points",
        [(3, 2), (10, 4), (10, 3), (12, 3), (4, 1), (2, 5)],
    )
    def test_validates_val_points_times_ending_on_the_final_model(
        self, iters, val_points
    ):
        rng = np.random.default_rng(19)
        labeled = make_train_set(rng, 4)
        unlabeled = [ts.image for ts in make_train_set(rng, 4)]
        val_cases = self.val_cases(rng)
        res = run_stage2(
            PatchMLP.init_random(ModelShape(3, 4, 3), 7), labeled, unlabeled,
            val_cases, StageConfig(seed=2, batch_size=2, threshold_momentum=0.9),
            TrainSchedule(1e-2, iters), FtaConfig(), val_points=val_points,
        )
        n = min(val_points, iters)
        assert [row.epoch for row in res.history] == list(range(1, n + 1))
        final, _ = evaluate_volumes(res.model, val_cases)
        last = res.history[-1]
        assert (last.dice, last.iou, last.hd_norm, last.score) == (
            final.dice, final.iou, final.hd_norm, final.score
        )
        assert last.tau == res.threshold.tau  # tau moves every iteration

    def test_deterministic_full_run(self):
        def run():
            rng = np.random.default_rng(16)
            labeled = make_train_set(rng, 4)
            unlabeled = [ts.image for ts in make_train_set(rng, 5)]
            cfg = StageConfig(seed=6, batch_size=2)
            return run_stage2(
                PatchMLP.init_random(ModelShape(3, 4, 3), 5), labeled, unlabeled,
                [], cfg, TrainSchedule(1e-3, 10), FtaConfig(),
            )

        a, b = run(), run()
        assert np.array_equal(a.model.params, b.model.params)
        assert a.iteration_losses == b.iteration_losses

    def test_donor_fallbacks_on_mixed_plane_shapes(self, monkeypatch):
        # Labeled planes are all 8 x 8. A 6 x 9 weak view finds its donor in
        # the unlabeled pool (the other 6 x 9 plane); a 5 x 7 one has none,
        # so both of its strong views are skipped.
        shapes = [(8, 8), (6, 9), (6, 9), (5, 7)]
        cfg = StageConfig(seed=1, batch_size=4)
        sched = TrainSchedule(1e-3, 6)
        pairs = []

        def recording(a, b, lam, fta_cfg):
            pairs.append((a.shape, b.shape))
            return fta_augment_pair(a, b, lam, fta_cfg)

        monkeypatch.setattr("ftaseg.ssl.fta_augment_pair", recording)

        def run():
            rng = np.random.default_rng(21)
            labeled = make_train_set(rng, 4)
            unlabeled = [rng.random(s, dtype=np.float32) for s in shapes]
            before = [u.copy() for u in [ts.image for ts in labeled] + unlabeled]
            res = run_stage2(
                PatchMLP.init_random(ModelShape(3, 4, 3), 8), labeled, unlabeled,
                [], cfg, sched, FtaConfig(),
            )
            after = [ts.image for ts in labeled] + unlabeled
            assert all(np.array_equal(x, y) for x, y in zip(before, after))
            return res

        a = run()
        assert all(sw == su for sw, su in pairs)
        assert (6, 9) in {sw for sw, _ in pairs}
        # A batch of 4 from 4 planes draws each once per iteration, and 3 of
        # the 4 have a donor: 36 of the 48 strong views are made.
        n_views = STRONG_VIEWS * cfg.batch_size * sched.total_iters
        assert len(pairs) == STRONG_VIEWS * 3 * sched.total_iters == 36 < n_views

        pairs.clear()
        b = run()
        assert len(pairs) == 36
        assert np.array_equal(a.model.params, b.model.params)
        assert a.iteration_losses == b.iteration_losses

    def test_requires_labeled(self):
        with pytest.raises(DataError):
            run_stage2(
                PatchMLP.init_random(ModelShape(3, 4, 3), 0), [], [], [],
                StageConfig(), TrainSchedule(1e-4, 5), FtaConfig(),
            )


def _noisy_model(shape: ModelShape, seed: int, noise: float) -> PatchMLP:
    # Seeded noise on every parameter (biases included) moves the outputs
    # away from the all-zero-bias initialisation.
    model = PatchMLP.init_random(shape, seed)
    model.params += np.random.default_rng(seed).normal(0.0, noise, model.params.size)
    return model


class TestPredictVolume:
    @pytest.mark.parametrize(
        "dims, shape, noise",
        [
            ((3, 5, 5), ModelShape(3, 4, 3), 0.0),
            ((6, 9, 13), ModelShape(), 0.0),
            ((48, 48, 48), ModelShape(), 0.3),
        ],
        ids=["3x5x5", "6x9x13", "48-cube"],
    )
    def test_matches_per_slice_prediction(self, dims, shape, noise):
        # Reference: every z plane stacked into one forward_cache_multi pass.
        rng = np.random.default_rng(17)
        model = _noisy_model(shape, 6, noise)
        vol = Volume(rng.random(dims, dtype=np.float32), NORMALIZED)
        pred = predict_volume(model, vol)
        planes = [vol.data[z] for z in range(dims[0])]
        probs = model.forward_cache_multi(planes)["probs"].reshape(dims)
        assert pred.data.dtype == np.uint8
        assert pred.data.tobytes() == (probs >= 0.5).astype(np.uint8).tobytes()
        if noise:
            assert 0 < pred.voxel_count() < pred.data.size

    def test_peak_memory_of_a_48_cube_stays_under_8_mib(self):
        model = _noisy_model(ModelShape(), 6, 0.3)
        vol = Volume(
            np.random.default_rng(17).random((48, 48, 48), dtype=np.float32),
            NORMALIZED,
        )
        predict_volume(model, vol)  # warm-up
        tracemalloc.start()
        try:
            predict_volume(model, vol)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, f"peak {peak / 2**20:.2f} MiB"


class TestStageConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            StageConfig(stage1_epochs=0)
        with pytest.raises(ConfigError):
            StageConfig(perturb_rate=0.0)
        with pytest.raises(ConfigError):
            StageConfig(perturb_rate=1.0)
        with pytest.raises(ConfigError):
            StageConfig(stage1_pseudo_count=-1)
        with pytest.raises(ConfigError):
            StageConfig(threshold_momentum=1.0)
