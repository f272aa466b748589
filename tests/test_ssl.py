import sys
import threading
import time
import tracemalloc
import weakref
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftaseg import model as model_module
from ftaseg.errors import ConfigError, DataError, NumericError
from ftaseg.fourier import FtaConfig, fta_augment_pair
from ftaseg.metrics import evaluate_masks, mean_report
from ftaseg.model import (
    ROW_CHUNK,
    AdamWState,
    Lane,
    ModelShape,
    PatchMLP,
    TrainSchedule,
    Perturbation,
    Workspace,
    _alpha_dropout_,
    adamw_step,
    in_two_lanes,
    load_checkpoint,
    poly_lr,
    save_checkpoint,
)
from ftaseg.ssl import (
    BCE_EPS,
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
    weak_confidence,
)
from ftaseg.volume import MaskVolume, Volume

from oracles import (
    bce_ref,
    consistency_loss_ref,
    finite_diff_grad,
    mlp_forward_rows_ref,
    mlp_grad_ref,
    patches_ref,
)


def float64_model(shape: ModelShape, seed: int) -> PatchMLP:
    # init_random's parameters widened to float64: the same code then
    # computes in float64, the oracles' precision.
    return PatchMLP(shape, PatchMLP.init_random(shape, seed).params.astype(np.float64))


def make_train_set(rng, n=6, hw=8):
    out = []
    for i in range(n):
        img = rng.random((hw, hw), dtype=np.float32)
        target = (rng.random((hw, hw)) < 0.3).astype(np.uint8)
        out.append(TrainSlice(img, target))
    return out


def val_source(cases):
    # Validation ids and a loader over (id, volume, mask) cases held in memory.
    return [cid for cid, _, _ in cases], {c[0]: c[1:] for c in cases}.__getitem__


class InlineExecutor:
    """A stand-in for ``ThreadPoolExecutor`` that runs each submitted call
    at once on the calling thread."""

    def __init__(self, max_workers=None):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def shutdown(self):
        pass

    def submit(self, fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except BaseException as exc:  # noqa: BLE001 - handed to the caller
            future.set_exception(exc)
        return future


def fail_in_supervised_lane(monkeypatch) -> list:
    """Make stage 2's supervised batch run on non-finite parameters when it
    runs off the main thread; returns the list that collects the raised
    errors."""
    raised = []

    def batch(model, *args):
        if threading.current_thread() is not threading.main_thread():
            bad = PatchMLP(model.shape, np.full(model.shape.n_params, np.nan))
            try:
                return _supervised_batch(bad, *args)
            except NumericError as exc:
                raised.append(exc)
                raise
        return _supervised_batch(model, *args)

    monkeypatch.setattr("ftaseg.ssl._supervised_batch", batch)
    return raised


def make_volumes(rng, n=5, dim=6):
    return [
        (f"u{i:02d}", Volume(rng.random((dim, dim, dim), dtype=np.float32)))
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
        np.empty(acts.shape, dtype=bool), Workspace(),
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


def stacked_consistency(weak, views, tau):
    # The gradients of consistency_loss on one plane: views[:-1] are its
    # strong views, views[-1] its perturbed view; the same order as
    # consistency_loss_ref's gradients.
    strong = np.concatenate([np.empty(0), *views[:-1]])
    g_p, g_s = consistency_loss(
        weak, views[-1], tau, strong, [0] * (len(views) - 1), [len(weak)]
    )
    return [*np.split(g_s, len(views) - 1), g_p] if len(views) > 1 else [g_p]


_EDGE_PROBS = [0.0, BCE_EPS, 1.0 - BCE_EPS, 1.0, 0.5]


class TestConsistencyLoss:
    def test_hand_computed_masked_ce(self):
        weak = np.array([0.9, 0.6])
        view = np.array([0.8, 0.5])  # on the confident pixel: p(label=1) = 0.8
        (grad,) = stacked_consistency(weak, [view], tau=0.7)
        # d/dp of -log(p) over 1 confident pixel and 1 view.
        assert grad[0] == pytest.approx(-1.0 / 0.8, rel=1e-12)
        assert grad[1] == 0.0  # masked pixel contributes nothing

    def test_fully_masked_returns_zero(self):
        weak = np.array([0.6, 0.55])
        views = [np.array([0.1, 0.9])]
        grads = stacked_consistency(weak, views, tau=0.95)
        assert np.array_equal(grads[0], np.zeros(2))

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            consistency_loss(np.zeros(3), np.zeros(4), 0.5, np.empty(0), [], [3])
        with pytest.raises(DataError):
            consistency_loss(np.zeros(3), np.zeros(3), 0.5, np.zeros(2), [0], [3])
        with pytest.raises(DataError):
            consistency_loss(np.zeros(3), np.zeros(3), 0.5, np.empty(0), [], [2])
        with pytest.raises(DataError):  # a plane of no rows
            consistency_loss(np.zeros(3), np.zeros(3), 0.5, np.empty(0), [], [3, 0])

    def test_nonnegative_and_averaged(self):
        # Each gradient pulls its view toward the weak labels (its product
        # with 1 - 2 * label is nonnegative), and with 3 views each has a
        # third of the gradient that view would have alone.
        rng = np.random.default_rng(7)
        weak = rng.random(50)
        views = [rng.random(50) for _ in range(3)]
        grads = stacked_consistency(weak, views, tau=0.5)
        assert len(grads) == 3
        for v, g in zip(views, grads):
            assert (g * (1.0 - 2.0 * (weak >= 0.5)) >= 0.0).all()
            (alone,) = stacked_consistency(weak, [v], tau=0.5)
            np.testing.assert_allclose(g, alone / 3, rtol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        weak = rng.random(12)
        views = [rng.uniform(0.05, 0.95, 12) for _ in range(2)]
        grads = stacked_consistency(weak, views, tau=0.6)
        for vi in range(2):
            def loss_at(v):
                vs = [view.copy() for view in views]
                vs[vi] = v
                return consistency_loss_ref(weak, vs, tau=0.6)[0]

            fd = finite_diff_grad(loss_at, views[vi], h=1e-7)
            assert np.abs(grads[vi] - fd).max() < 1e-5

    def test_writes_into_out(self):
        rng = np.random.default_rng(9)
        weak, perturbed, strong = rng.random(6), rng.random(6), rng.random(6)
        args = (weak, perturbed, 0.6, strong, [1, 0], [4, 2])
        out = (np.full(6, np.nan), np.full(6, np.nan))
        got = consistency_loss(*args, out=out)
        assert got[0] is out[0] and got[1] is out[1]
        for g, fresh in zip(got, consistency_loss(*args)):
            assert g.tobytes() == fresh.tobytes()

    def test_reads_the_given_confidence(self):
        # run_stage2 passes the confidences it updated tau with: the
        # gradients equal those without them, and come from them.
        rng = np.random.default_rng(10)
        weak, perturbed, strong = rng.random(6), rng.random(6), rng.random(6)
        args = (weak, perturbed, 0.6, strong, [1, 0], [4, 2])
        conf = weak_confidence(weak, np.full(6, np.nan))
        assert conf.tobytes() == np.maximum(weak, 1.0 - weak).tobytes()
        for g, fresh in zip(consistency_loss(*args, conf), consistency_loss(*args)):
            assert g.tobytes() == fresh.tobytes()
        for g in consistency_loss(*args, np.zeros(6)):  # no confident pixel
            assert not g.any()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_stacked_gradients_are_the_per_plane_reference_bytes(self, data):
        # Mixed plane sizes, 0 to 2 strong views per plane in any order,
        # planes with no confident pixel, and probabilities at the clip
        # edges; each plane's rows must have the reference's bytes.
        sizes = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
        n_strong = [data.draw(st.integers(0, STRONG_VIEWS)) for _ in sizes]
        owner = data.draw(
            st.permutations([j for j, k in enumerate(n_strong) for _ in range(k)])
        )
        tau = data.draw(st.sampled_from([0.5, 1.0]) | st.floats(0.5, 1.0))
        prob = st.sampled_from(_EDGE_PROBS) | st.floats(0.0, 1.0)

        def probs(n):
            return np.array(data.draw(st.lists(prob, min_size=n, max_size=n)))

        weak, perturbed = probs(sum(sizes)), probs(sum(sizes))
        assert_per_plane_reference_bytes(
            weak, perturbed, tau, [probs(sizes[j]) for j in owner], owner, sizes
        )

    def test_views_across_row_chunks_are_the_per_plane_reference_bytes(self):
        # The rows are taken a ROW_CHUNK at a time; these views run across
        # chunk boundaries, and the strong views are out of plane order.
        rng = np.random.default_rng(10)
        sizes = [ROW_CHUNK - 5, 9, ROW_CHUNK + 3, 2 * ROW_CHUNK // 3]
        owner = [2, 0, 3, 2, 0]

        def probs(n):
            p = rng.random(n)
            edge = rng.random(n) < 0.05
            p[edge] = rng.choice(_EDGE_PROBS, size=edge.sum())
            return p

        weak, perturbed = probs(sum(sizes)), probs(sum(sizes))
        weak[:sizes[0]] = 0.55  # a plane with no confident pixel
        assert_per_plane_reference_bytes(
            weak, perturbed, 0.6, [probs(sizes[j]) for j in owner], owner, sizes
        )


def assert_per_plane_reference_bytes(weak, perturbed, tau, strong, owner, sizes):
    # One consistency_loss call over the stacked planes gives each plane's
    # rows the bytes of consistency_loss_ref over that plane alone.
    got_p, got_s = consistency_loss(
        weak, perturbed, tau, np.concatenate([np.empty(0), *strong]), owner, sizes
    )
    rows = np.cumsum([0, *sizes])
    strong_rows = np.cumsum([0, *(sizes[j] for j in owner)])
    for j in range(len(sizes)):
        mine = slice(rows[j], rows[j + 1])
        ks = [k for k, o in enumerate(owner) if o == j]
        _, want = consistency_loss_ref(
            weak[mine], [strong[k] for k in ks] + [perturbed[mine]], tau
        )
        assert got_p[mine].tobytes() == want[-1].tobytes()
        for k, g in zip(ks, want):
            assert got_s[strong_rows[k]:strong_rows[k + 1]].tobytes() == g.tobytes()


class TestUnsupervisedGradient:
    """The strong and the perturbed views train through grad_from_prob_grad
    on the consistency loss against a fixed weak view."""

    @pytest.mark.parametrize(
        "perturb", [None, Perturbation(0.3, 7)], ids=["strong", "perturbed"]
    )
    def test_matches_finite_differences(self, perturb):
        rng = np.random.default_rng(20)
        shape = ModelShape(3, 4, 3)
        model = float64_model(shape, 2)
        views = [rng.random((4, 5), dtype=np.float32) for _ in range(2)]
        weak = rng.random(40)

        def loss_at(params):
            probs = PatchMLP(shape, params).forward_cache_multi(views, perturb)["probs"]
            return sum(
                consistency_loss_ref(weak[rows], [probs[rows]], tau=0.6)[0]
                for rows in (slice(0, 20), slice(20, 40))
            )

        cache = model.forward_cache_multi(views, perturb)
        dloss_dprobs, _ = consistency_loss(
            weak, cache["probs"], 0.6, np.empty(0), [], [20, 20]
        )
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

    def test_split_steps_equal_one_lane(self, monkeypatch):
        # Batches of four 32 x 32 planes split across the lanes; with the
        # lane withheld each runs in one, with the same bytes.
        given = []  # per training pass: whether it was given the lane
        forward = PatchMLP.forward_cache_multi

        def recording_forward(self, planes, perturb=None, ws=None, lane=None):
            if planes[0].shape == (32, 32):
                given.append(lane is not None)
            return forward(self, planes, perturb, ws, lane)

        def run():
            given.clear()
            rng = np.random.default_rng(38)
            cfg = StageConfig(stage1_epochs=2, stage1_pseudo_count=2, seed=5,
                              batch_size=4)
            ids, load, _ = ids_and_load(make_volumes(rng, 3, dim=12))
            return run_stage1(make_train_set(rng, 10, hw=32), ids, load, cfg)

        monkeypatch.setattr(PatchMLP, "forward_cache_multi", recording_forward)
        two = run()
        assert given == [True] * 6

        def one_lane(model, batch, ws=None, lane=None):
            return _supervised_batch(model, batch, ws)

        monkeypatch.setattr("ftaseg.ssl._supervised_batch", one_lane)
        one = run()
        assert given == [False] * 6
        assert two.lanes.worker_s > 0
        assert two.model.params.tobytes() == one.model.params.tobytes()
        assert two.epoch_losses == one.epoch_losses
        assert [(p.source_id, p.mask.tobytes()) for p in two.pseudo] == [
            (p.source_id, p.mask.tobytes()) for p in one.pseudo
        ]

    def test_one_worker_serves_training_and_pseudo_annotation(self, monkeypatch):
        # Stage 1 makes one one-worker executor; its split training steps
        # and the pseudo-annotation's second lane both run on its thread.
        made, workers = [], set()

        class Counting(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                made.append(self)
                super().__init__(*args, **kwargs)

        def recording(a, scratch, fn=model_module._selu_):
            if threading.current_thread() is not threading.main_thread():
                workers.add(threading.get_ident())
            return fn(a, scratch)

        monkeypatch.setattr("ftaseg.model.ThreadPoolExecutor", Counting)
        monkeypatch.setattr(model_module, "_selu_", recording)
        rng = np.random.default_rng(39)
        cfg = StageConfig(stage1_epochs=1, stage1_pseudo_count=2, seed=5, batch_size=4)
        ids, load, loaded = ids_and_load(make_volumes(rng, 3, dim=12))
        res = run_stage1(make_train_set(rng, 4, hw=32), ids, load, cfg)
        assert res.lanes.worker_s > 0 and len(loaded) == 2
        assert len(made) == 1 and len(workers) == 1

    def test_model_equals_its_checkpoint(self, tmp_path):
        rng = np.random.default_rng(35)
        cfg = StageConfig(stage1_epochs=2, stage1_pseudo_count=1, seed=3)
        ids, load, _ = ids_and_load(make_volumes(rng, 2))
        res = run_stage1(make_train_set(rng, 5), ids, load, cfg, ModelShape(3, 4, 3))
        save_checkpoint(res.model, res.step, tmp_path / "stage1.seg")
        loaded, step = load_checkpoint(tmp_path / "stage1.seg")
        assert res.model.params.dtype == np.float32
        assert res.model.params.tobytes() == loaded.params.tobytes()
        assert step == res.step == 2
        (pseudo,) = res.pseudo
        want = predict_volume(loaded, load(pseudo.source_id)).data
        assert np.array_equal(pseudo.mask, want)

    def test_epoch_losses_length_and_decrease(self):
        rng = np.random.default_rng(12)
        cfg = StageConfig(stage1_epochs=8, stage1_pseudo_count=0, seed=1)
        res = run_stage1(make_train_set(rng, 6), [], {}.__getitem__, cfg,
                         ModelShape(3, 4, 3), base_lr=1e-2)
        assert len(res.epoch_losses) == 8
        assert res.epoch_losses[-1] < res.epoch_losses[0]


class TestStage2:
    def val_cases(self, rng):
        vol = Volume(rng.random((4, 6, 6), dtype=np.float32))
        gt = MaskVolume((rng.random((4, 6, 6)) < 0.3).astype(np.uint8))
        return [("v0", vol, gt)]

    def test_empty_pool_equals_supervised_trajectory(self):
        self.check_supervised_trajectory(ModelShape(3, 4, 3), 8, 3)

    def test_split_batches_equal_the_one_lane_trajectory(self):
        # Batches of four 32 x 32 planes split across the lanes; the
        # reference loop runs each in one.
        assert self.check_supervised_trajectory(ModelShape(), 32, 4).worker_s > 0

    @staticmethod
    def check_supervised_trajectory(shape, hw, batch_size):
        rng = np.random.default_rng(13)
        labeled = make_train_set(rng, 5, hw)
        model = PatchMLP.init_random(shape, 2)
        cfg = StageConfig(seed=9, batch_size=batch_size)
        sched = TrainSchedule(1e-3, 25)
        res = run_stage2(
            PatchMLP(model.shape, model.params), labeled, [], [], None, cfg, sched,
            FtaConfig(), val_points=1,
        )
        assert res.warnings and "supervised-only" in res.warnings[0]

        # independent supervised loop with the same seeded batch stream
        oracle = PatchMLP(model.shape, model.params.copy())
        streams = np.random.SeedSequence(cfg.seed).spawn(5)
        batch_rng = np.random.default_rng(streams[0])
        opt = AdamWState.fresh(model.shape.n_params)
        for it in range(sched.total_iters):
            lr = poly_lr(sched, it)
            idx = batch_rng.choice(len(labeled), size=cfg.batch_size, replace=False)
            _, grad = _supervised_batch(oracle, [labeled[i] for i in idx])
            oracle.params, opt = adamw_step(oracle.params, grad, opt, lr)
        assert res.model.params.tobytes() == oracle.params.tobytes()
        return res.lanes

    def test_supervised_batch_matches_per_slice_mean(self):
        rng = np.random.default_rng(14)
        batch = make_train_set(rng, 4)
        model = float64_model(ModelShape(3, 4, 3), 3)
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
        assert loss() == pytest.approx(want_loss, rel=1e-12)
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
            *val_source(self.val_cases(rng)), cfg, TrainSchedule(1e-3, 12),
            FtaConfig(),
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
            *val_source(val_cases),
            StageConfig(seed=2, batch_size=2, threshold_momentum=0.9),
            TrainSchedule(1e-2, iters), FtaConfig(), val_points=val_points,
        )
        n = min(val_points, iters)
        assert [row.epoch for row in res.history] == list(range(1, n + 1))
        final, _ = evaluate_volumes(res.model, *val_source(val_cases))
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
                [], None, cfg, TrainSchedule(1e-3, 10), FtaConfig(), val_points=1,
            )

        a, b = run(), run()
        assert np.array_equal(a.model.params, b.model.params)

    def test_donor_fallbacks_on_mixed_plane_shapes(self, monkeypatch):
        # Labeled planes are all 8 x 8. A 6 x 9 weak view finds its donor in
        # the unlabeled pool (the other 6 x 9 plane); a 5 x 7 one has none,
        # so both of its strong views are skipped.
        shapes = [(8, 8), (6, 9), (6, 9), (5, 7)]
        cfg = StageConfig(seed=1, batch_size=4)
        sched = TrainSchedule(1e-3, 6)
        pairs = []

        def recording(a, b, lam, fta_cfg, ws=None):
            # One call augments a stack of pairs; record each pair.
            pairs.extend((x.shape, y.shape) for x, y in zip(a, b))
            return fta_augment_pair(a, b, lam, fta_cfg, ws)

        monkeypatch.setattr("ftaseg.ssl.fta_augment_pair", recording)

        def run():
            rng = np.random.default_rng(21)
            labeled = make_train_set(rng, 4)
            unlabeled = [rng.random(s, dtype=np.float32) for s in shapes]
            before = [u.copy() for u in [ts.image for ts in labeled] + unlabeled]
            res = run_stage2(
                PatchMLP.init_random(ModelShape(3, 4, 3), 8), labeled, unlabeled,
                [], None, cfg, sched, FtaConfig(), val_points=1,
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

    def lanes_run(self, seed=31):
        rng = np.random.default_rng(seed)
        labeled = make_train_set(rng, 5)
        unlabeled = [ts.image for ts in make_train_set(rng, 6)]
        return run_stage2(
            PatchMLP.init_random(ModelShape(3, 4, 3), 6), labeled, unlabeled,
            *val_source(self.val_cases(rng)), StageConfig(seed=4, batch_size=3),
            TrainSchedule(1e-2, 8), FtaConfig(), val_points=2,
        )

    @staticmethod
    def record_passes(monkeypatch) -> dict[str, list]:
        """Record, on the calling thread or not, stage 2's supervised
        batches, its forward passes with their workspace and whether they
        are perturbed, and its backward passes from probabilities with the
        workspace of the cache they consume."""
        passes = {"supervised": [], "forward": [], "prob_backward": []}
        forward = PatchMLP.forward_cache_multi
        prob_backward = PatchMLP.grad_from_prob_grad

        def on_main():
            return threading.current_thread() is threading.main_thread()

        def supervised(*args):
            passes["supervised"].append(on_main())
            return _supervised_batch(*args)

        def recording_forward(self, planes, perturb=None, ws=None, lane=None):
            passes["forward"].append((on_main(), perturb is not None, ws))
            return forward(self, planes, perturb, ws, lane)

        def recording_prob_backward(self, cache, grad, scratch=None):
            passes["prob_backward"].append((on_main(), cache["ws"]))
            return prob_backward(self, cache, grad, scratch)

        monkeypatch.setattr("ftaseg.ssl._supervised_batch", supervised)
        monkeypatch.setattr(PatchMLP, "forward_cache_multi", recording_forward)
        monkeypatch.setattr(PatchMLP, "grad_from_prob_grad", recording_prob_backward)
        return passes

    def test_two_lanes_equal_one_inline_lane(self, monkeypatch):
        # The strong views' forward pass and the supervised batch run on a
        # worker thread, and both consistency backward passes on the calling
        # one; run inline, before the perturbed pass, they must give the
        # same bytes.
        threads = threading.active_count()
        passes = self.record_passes(monkeypatch)

        def strong_forwards():
            # The consistency caches are the perturbed pass's and the strong
            # views'; the strong views' pass is the unperturbed one.
            consistency = {id(ws) for _, ws in passes["prob_backward"]}
            perturbed = {id(ws) for _, p, ws in passes["forward"] if p}
            strong = consistency - perturbed
            assert len(strong) == len(perturbed) == 1
            return [main for main, _, ws in passes["forward"] if id(ws) in strong]

        # A short switch interval makes the lanes interleave finely.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            two = self.lanes_run()
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == threads
        assert passes["supervised"] and not any(passes["supervised"])
        assert len(strong_forwards()) == 8 and not any(strong_forwards())
        assert len(passes["prob_backward"]) == 16
        assert all(main for main, _ in passes["prob_backward"])

        monkeypatch.setattr("ftaseg.model.ThreadPoolExecutor", InlineExecutor)
        for seen in passes.values():
            seen.clear()
        one = self.lanes_run()
        assert passes["supervised"] and all(passes["supervised"])
        assert len(strong_forwards()) == 8 and all(strong_forwards())
        assert two.model.params.tobytes() == one.model.params.tobytes()
        assert two.history and two.history == one.history
        assert two.threshold == one.threshold

    def test_lanes_share_no_scratch_within_a_step(self, monkeypatch):
        # Every pass takes its temporaries from a scratch workspace: a
        # forward pass its workspace's, a backward pass the one it is given
        # or else its cache workspace's, and the worker half of a split pass
        # its lane's. They are recorded where SELU and its gradient take
        # them, on the thread that runs each half. Within a step (and the
        # validation or pseudo-annotation after it), no scratch that the
        # worker lane uses may be used by the calling thread: in stage 2
        # with unlabeled planes, in its supervised-only branch, whose
        # batches split across the lanes, and in stage 1.
        step, used = [0], []
        update = adamw_step

        def on_main():
            return threading.current_thread() is threading.main_thread()

        for name in ("_selu_", "_selu_grad_"):
            def recording(a, scratch, fn=getattr(model_module, name)):
                used.append((step[0], on_main(), id(scratch)))
                return fn(a, scratch)

            monkeypatch.setattr(model_module, name, recording)

        def counting_update(*args):
            step[0] += 1
            return update(*args)

        monkeypatch.setattr("ftaseg.ssl.adamw_step", counting_update)
        rng = np.random.default_rng(37)
        big = make_train_set(rng, 8, hw=32)  # a batch of 4 splits
        cases = lane_cases(rng, 2, dims=(2, 48, 48))
        runs = {
            "stage2": self.lanes_run,
            "supervised-only": lambda: run_stage2(
                PatchMLP.init_random(ModelShape(), 6), big, [], *val_source(cases),
                StageConfig(seed=4, batch_size=4), TrainSchedule(1e-2, 3),
                FtaConfig(), val_points=1,
            ),
            "stage1": lambda: run_stage1(
                big, *ids_and_load([(cid, vol) for cid, vol, _ in cases])[:2],
                StageConfig(stage1_epochs=1, stage1_pseudo_count=2, seed=4,
                            batch_size=4),
            ),
        }
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for name, run in runs.items():
                step[0] = 0
                used.clear()
                run()
                steps = {"stage2": 8, "supervised-only": 3, "stage1": 2}[name]
                assert step[0] == steps, name
                for s in range(steps + 1):
                    main = {tmp for i, m, tmp in used if i == s and m}
                    worker = {tmp for i, m, tmp in used if i == s and not m}
                    assert main.isdisjoint(worker), (name, s)
                    # After stage 2's last step only validation's one case
                    # runs, on the calling thread.
                    assert main and (worker or (name, s) == ("stage2", steps))
        finally:
            sys.setswitchinterval(interval)

    def test_lane_times_cover_the_training_steps(self):
        # Both lanes work in a step with unlabeled planes. In the
        # supervised-only branch and in stage 1 the worker runs half of each
        # batch too large for one lane, and no work for a smaller batch.
        lanes = self.lanes_run().lanes
        assert lanes.calling_s > 0 and lanes.worker_s > 0 and lanes.wait_s >= 0
        assert str(lanes).startswith("stage2 lanes: calling ")
        rng = np.random.default_rng(36)
        alone = run_stage2(
            PatchMLP.init_random(ModelShape(3, 4, 3), 6), make_train_set(rng, 5),
            [], [], None, StageConfig(seed=4, batch_size=3), TrainSchedule(1e-2, 4),
            FtaConfig(), val_points=1,
        ).lanes
        assert alone.calling_s > 0 and alone.worker_s == alone.wait_s == 0
        big = make_train_set(rng, 8, hw=32)
        split = run_stage2(
            PatchMLP.init_random(ModelShape(), 6), big, [], [], None,
            StageConfig(seed=4, batch_size=4), TrainSchedule(1e-2, 4), FtaConfig(),
            val_points=1,
        ).lanes
        assert split.calling_s > 0 and split.worker_s > 0 and split.wait_s >= 0
        cfg = StageConfig(stage1_epochs=1, stage1_pseudo_count=0, seed=4)
        for labeled, worker in ((big, True), (make_train_set(rng, 5), False)):
            stage1 = run_stage1(labeled, [], {}.__getitem__, cfg).lanes
            assert str(stage1).startswith("stage1 lanes: calling ")
            assert stage1.calling_s > 0 and (stage1.worker_s > 0) == worker
            assert stage1.wait_s >= 0

    def test_never_computes_the_supervised_loss(self, monkeypatch):
        # Stage 2 reads only the supervised gradient, on either branch.
        def gradient_only(*args):
            _, grad = _supervised_batch(*args)
            return lambda: pytest.fail("stage 2 computed the loss"), grad

        monkeypatch.setattr("ftaseg.ssl._supervised_batch", gradient_only)
        self.lanes_run()
        rng = np.random.default_rng(32)
        run_stage2(
            PatchMLP.init_random(ModelShape(3, 4, 3), 6), make_train_set(rng, 5), [],
            [], None, StageConfig(seed=4, batch_size=3), TrainSchedule(1e-2, 4),
            FtaConfig(), val_points=1,
        )

    def test_numeric_error_in_supervised_lane_surfaces_unchanged(self, monkeypatch):
        raised = fail_in_supervised_lane(monkeypatch)
        threads = threading.active_count()
        with pytest.raises(NumericError, match="non-finite") as info:
            self.lanes_run()
        assert info.value is raised[0]
        assert threading.active_count() == threads

    def test_final_model_and_validation_are_the_checkpoints(self, tmp_path):
        rng = np.random.default_rng(33)
        cases = self.val_cases(rng) + [
            (f"v{i}", Volume(rng.random((3, 7, 5), dtype=np.float32)),
             MaskVolume((rng.random((3, 7, 5)) < 0.3).astype(np.uint8)))
            for i in (1, 2)
        ]
        res = run_stage2(
            PatchMLP.init_random(ModelShape(3, 4, 3), 6), make_train_set(rng, 5),
            [ts.image for ts in make_train_set(rng, 6)], *val_source(cases),
            StageConfig(seed=4, batch_size=3), TrainSchedule(1e-2, 8), FtaConfig(),
            val_points=3,
        )
        path = tmp_path / "stage2.seg"
        save_checkpoint(res.model, res.step, path)
        loaded, _ = load_checkpoint(path)
        assert res.model.params.tobytes() == loaded.params.tobytes()
        assert len(res.history) == 3
        assert res.val_reports == evaluate_volumes(loaded, *val_source(cases))[1]
        assert [cid for cid, _ in res.val_reports] == ["v0", "v1", "v2"]
        mean = mean_report([r for _, r in res.val_reports])
        last = res.history[-1]
        assert (last.dice, last.iou, last.hd_norm, last.score) == (
            mean.dice, mean.iou, mean.hd_norm, mean.score
        )

    def test_validation_streams_one_case_per_lane(self):
        # The loader builds each case afresh and watches it, and its arrays,
        # through weak references: when a case loads, no case its lane
        # loaded earlier may still be alive, and at most the other lane's
        # case is, so at most two cases are alive. Stage 2 loads each case
        # once per validation point, on its own lane's thread.
        rng = np.random.default_rng(35)
        arrays = {cid: (rng.random((3, 7, 5), dtype=np.float32),
                        (rng.random((3, 7, 5)) < 0.3).astype(np.uint8))
                  for cid in ("v2", "v0", "v4", "v1", "v3")}
        refs, seen, loaded = [], [], {True: [], False: []}

        def load(cid):
            main = threading.current_thread() is threading.main_thread()
            alive = {(m, c) for m, c, r in list(refs) if r() is not None}
            seen.append((sum(m == main for m, _ in alive), len(alive)))
            loaded[main].append(cid)
            vol = Volume(arrays[cid][0])
            gt = MaskVolume(arrays[cid][1])
            refs.extend((main, cid, weakref.ref(x))
                        for x in (vol, gt, vol.data, gt.data))
            return vol, gt

        model = PatchMLP.init_random(ModelShape(3, 4, 3), 6)
        held = [(cid, Volume(v), MaskVolume(m))
                for cid, (v, m) in arrays.items()]
        _, per_case = evaluate_volumes(model, list(arrays), load)
        assert loaded == {True: ["v0", "v1", "v2"], False: ["v3", "v4"]}
        assert all(own == 0 and alive <= 1 for own, alive in seen)
        assert per_case == evaluate_volumes(model, *val_source(held))[1]

        seen.clear()
        loaded = {True: [], False: []}
        threads = threading.active_count()
        res = run_stage2(
            model, make_train_set(rng, 5), [ts.image for ts in make_train_set(rng, 6)],
            list(arrays), load, StageConfig(seed=4, batch_size=3),
            TrainSchedule(1e-2, 8), FtaConfig(), val_points=3,
        )
        assert threading.active_count() == threads
        assert loaded == {True: ["v0", "v1", "v2"] * 3, False: ["v3", "v4"] * 3}
        assert len(seen) == 15
        assert all(own == 0 and alive <= 1 for own, alive in seen)
        assert [cid for cid, _ in res.val_reports] == ["v0", "v1", "v2", "v3", "v4"]

    def test_without_val_cases_no_reports(self):
        rng = np.random.default_rng(34)
        res = run_stage2(
            PatchMLP.init_random(ModelShape(3, 4, 3), 6), make_train_set(rng, 5),
            [], [], None, StageConfig(seed=4, batch_size=3), TrainSchedule(1e-2, 3),
            FtaConfig(), val_points=1,
        )
        assert res.history == [] and res.val_reports == []

    def test_requires_labeled(self):
        with pytest.raises(DataError):
            run_stage2(
                PatchMLP.init_random(ModelShape(3, 4, 3), 0), [], [], [], None,
                StageConfig(), TrainSchedule(1e-4, 5), FtaConfig(), val_points=1,
            )

    @pytest.mark.parametrize("val_points", [0, -3])
    def test_val_points_below_one_rejected(self, val_points):
        # Rejected, not clamped to one validation, as PipelineConfig rejects it.
        rng = np.random.default_rng(35)
        with pytest.raises(ConfigError, match="val_points must be >= 1"):
            run_stage2(
                PatchMLP.init_random(ModelShape(3, 4, 3), 6), make_train_set(rng, 5),
                [], *val_source(self.val_cases(rng)), StageConfig(seed=4, batch_size=3),
                TrainSchedule(1e-2, 3), FtaConfig(), val_points=val_points,
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
        vol = Volume(rng.random(dims, dtype=np.float32))
        pred = predict_volume(model, vol)
        planes = [vol.data[z] for z in range(dims[0])]
        probs = model.forward_cache_multi(planes)["probs"].reshape(dims)
        assert pred.data.dtype == np.uint8
        assert pred.data.tobytes() == (probs >= 0.5).astype(np.uint8).tobytes()
        if noise:
            assert 0 < pred.voxel_count() < pred.data.size

    @pytest.mark.parametrize(
        "dims, stacks",
        [
            ((1, 6, 6), [1]),
            ((2, 6, 6), [2]),
            ((5, 6, 6), [5]),
            ((48, 6, 6), [48]),
            ((5, 9, 13), [5]),
            ((7, 16, 6), [7]),
            ((50, 12, 10), [50]),
            ((100, 12, 10), [68, 32]),  # 68 planes of 120 rows fit 8192
            ((3, 70, 70), [1, 1, 1]),  # two 4900-row planes exceed 8192
            ((2, 95, 90), [1, 1]),  # one 8550-row plane exceeds 8192
        ],
        ids=["D1", "D2", "D5", "D48", "5x9x13", "7x16x6", "50x12x10", "100x12x10",
             "3x70x70", "2x95x90"],
    )
    def test_stacked_passes_equal_per_plane_prediction(self, dims, stacks):
        rng = np.random.default_rng(19)
        model = _noisy_model(ModelShape(), 6, 0.3)
        vol = Volume(rng.random(dims, dtype=np.float32))
        passes = []
        forward = model.forward_cache_multi

        def recording(planes, *args, **kwargs):
            passes.append(
                (len(planes), threading.current_thread() is threading.main_thread())
            )
            return forward(planes, *args, **kwargs)

        model.forward_cache_multi = recording
        threads = threading.active_count()
        pred = predict_volume(model, vol)
        assert threading.active_count() == threads
        assert passes == [(n, True) for n in stacks]
        per_plane = np.stack([model.predict_probs(p) >= 0.5 for p in vol.data])
        assert pred.data.tobytes() == per_plane.astype(np.uint8).tobytes()

    def test_reused_training_workspace_gives_fresh_bytes(self):
        # Stage-2 validation predicts on the supervised batch's workspace,
        # whose buffers a larger forward and backward pass left dirty.
        rng = np.random.default_rng(29)
        model = _noisy_model(ModelShape(), 6, 0.3)
        vol = Volume(rng.random((9, 40, 40), dtype=np.float32))
        ws = Workspace()
        _supervised_batch(model, make_train_set(rng, n=8, hw=40), ws)
        reused = predict_volume(model, vol, ws)
        assert reused.data.tobytes() == predict_volume(model, vol).data.tobytes()

    def test_concurrent_calls_under_fine_switching(self):
        # Three callers predict at once: each keeps to its own mask and
        # workspace, and model.params is only read.
        model = _noisy_model(ModelShape(), 6, 0.3)
        vol = Volume(np.random.default_rng(23).random((9, 12, 10), dtype=np.float32))
        expected = predict_volume(model, vol).data.tobytes()
        results = []
        callers = [
            threading.Thread(
                target=lambda: results.append(predict_volume(model, vol).data.tobytes())
            )
            for _ in range(3)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert results == [expected] * 3

    def test_non_finite_params_raise_numeric_error(self):
        shape = ModelShape(3, 4, 3)
        model = PatchMLP(shape, np.full(shape.n_params, np.nan))
        vol = Volume(np.zeros((4, 5, 5), dtype=np.float32))
        threads = threading.active_count()
        with pytest.raises(NumericError, match="non-finite"):
            predict_volume(model, vol)
        assert threading.active_count() == threads

    def test_later_stack_error_surfaces_unchanged(self):
        # The first stack of planes succeeds; the second one fails.
        model = _noisy_model(ModelShape(3, 4, 3), 6, 0.3)
        bad = PatchMLP(model.shape, np.full(model.shape.n_params, np.nan))
        forward = model.forward_cache_multi
        passes, raised = [], []

        def second_fails(planes, *args, **kwargs):
            passes.append(len(planes))
            if len(passes) == 1:
                return forward(planes, *args, **kwargs)
            try:
                return bad.forward_cache_multi(planes, *args, **kwargs)
            except NumericError as exc:
                raised.append(exc)
                raise

        model.forward_cache_multi = second_fails
        vol = Volume(np.zeros((100, 12, 10), dtype=np.float32))
        threads = threading.active_count()
        with pytest.raises(NumericError) as info:
            predict_volume(model, vol)
        assert info.value is raised[0]
        assert passes == [68, 32]
        assert threading.active_count() == threads

    def test_peak_memory_of_a_48_cube_stays_under_8_mib(self):
        model = _noisy_model(ModelShape(), 6, 0.3)
        vol = Volume(
            np.random.default_rng(17).random((48, 48, 48), dtype=np.float32),
        )
        predict_volume(model, vol)  # warm-up
        tracemalloc.start()
        try:
            predict_volume(model, vol)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def lane_cases(rng, n, dims=(5, 9, 7)):
    # Validation cases v0..v{n-1} as (id, volume, mask), in reverse id order.
    return [
        (f"v{i}", Volume(rng.random(dims, dtype=np.float32)),
         MaskVolume((rng.random(dims) < 0.3).astype(np.uint8)))
        for i in reversed(range(n))
    ]


def one_lane_reports(model, cases):
    # Validation as a loop over the cases in id order, one fresh workspace each.
    return [(cid, evaluate_masks(predict_volume(model, vol), gt))
            for cid, vol, gt in sorted(cases, key=lambda c: c[0])]


class TestInferenceLanes:
    def test_split_order_and_workspaces(self, monkeypatch):
        ws = Workspace()

        class NoSubmit(InlineExecutor):
            def submit(self, fn, *args):
                raise AssertionError("submitted with fewer than two items")

        def pair(x, w):
            return x, w

        monkeypatch.setattr("ftaseg.model.ThreadPoolExecutor", NoSubmit)
        with Lane() as lane:
            assert in_two_lanes(pair, [], ws, lane) == []
            assert in_two_lanes(pair, [7], ws, lane) == [(7, ws)]
        monkeypatch.setattr("ftaseg.model.ThreadPoolExecutor", InlineExecutor)
        with Lane() as lane:
            assert in_two_lanes(pair, [1, 2], ws, lane) == [(1, ws), (2, lane.scratch)]
            assert in_two_lanes(pair, [1, 2, 3], ws, lane) == [
                (1, ws), (2, ws), (3, lane.scratch)
            ]
        # Without a lane, a fresh one maps the rest on its own scratch.
        first, rest = in_two_lanes(pair, [1, 2], ws)
        assert first == (1, ws) and rest[0] == 2
        assert isinstance(rest[1], Workspace) and rest[1] is not ws

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5])
    def test_two_lanes_equal_one_lane(self, n):
        rng = np.random.default_rng(41)
        model = _noisy_model(ModelShape(3, 4, 3), 6, 0.3)
        cases = lane_cases(rng, n)
        ids, load_case = val_source(cases)
        on_main = {}

        def load(cid):
            on_main[cid] = threading.current_thread() is threading.main_thread()
            return load_case(cid)[0]

        threads = threading.active_count()
        # Every id is picked, so the labels come in the order of ids.
        pseudo = generate_pseudo_labels(model, ids, load, n, seed=5)
        assert [(p.source_id, p.mask.tobytes()) for p in pseudo] == [
            (cid, predict_volume(model, vol).data.tobytes()) for cid, vol, _ in cases
        ]
        first_half = -(-n // 2)
        assert on_main == {cid: k < first_half for k, cid in enumerate(ids)}
        assert threading.active_count() == threads

        if n == 0:
            with pytest.raises(DataError, match="at least one case"):
                evaluate_volumes(model, ids, load_case)
            return
        on_main.clear()
        mean, per_case = evaluate_volumes(
            model, ids, lambda cid: (load(cid), load_case(cid)[1])
        )
        expected = one_lane_reports(model, cases)
        assert per_case == expected
        assert mean == mean_report([r for _, r in expected])
        assert on_main == {cid: k < first_half for k, cid in enumerate(sorted(ids))}
        assert threading.active_count() == threads

    @pytest.mark.parametrize(
        "bad, first",
        [
            ({"v1"}, "v1"),  # the calling thread's lane (v0-v2)
            ({"v4"}, "v4"),  # the worker lane (v3, v4)
            ({"v1", "v4"}, "v1"),  # both lanes: the earlier id
            ({"v3", "v4"}, "v3"),  # the worker lane's first failure
        ],
        ids=["calling-lane", "worker-lane", "both-lanes", "worker-lane-twice"],
    )
    def test_first_failing_case_surfaces_from_either_lane(self, bad, first):
        rng = np.random.default_rng(43)
        model = _noisy_model(ModelShape(3, 4, 3), 6, 0.3)
        ids, load_case = val_source(lane_cases(rng, 5))
        loaded = []

        def load(cid):
            if threading.current_thread() is not threading.main_thread():
                time.sleep(0.02)  # the worker lane lags behind
            loaded.append(cid)
            if cid in bad:
                raise DataError(f"cannot read {cid}")
            return load_case(cid)

        def upto_first_bad(lane):
            return set(lane[:next((k + 1 for k, c in enumerate(lane) if c in bad),
                                  len(lane))])

        threads = threading.active_count()
        with Lane() as lane:
            with pytest.raises(DataError) as info:
                evaluate_volumes(model, ids, load, Workspace(), lane)
            # Each lane stopped at its first failure, and the worker lane had
            # finished before the error was raised.
            assert set(loaded) == (
                upto_first_bad(["v0", "v1", "v2"]) | upto_first_bad(["v3", "v4"])
            )
        assert str(info.value) == f"cannot read {first}"
        assert threading.active_count() == threads

    def test_concurrent_callers_under_fine_switching(self):
        # Three callers pseudo-label and validate at once, each in two lanes:
        # six threads on a two-core machine share the model, which is only
        # read, and each lane keeps to its own workspace and case.
        rng = np.random.default_rng(47)
        model = _noisy_model(ModelShape(), 6, 0.3)
        cases = lane_cases(rng, 4, dims=(9, 12, 10))
        ids, load_case = val_source(cases)

        def call():
            pseudo = generate_pseudo_labels(
                model, ids, lambda cid: load_case(cid)[0], 3, seed=2
            )
            per_case = evaluate_volumes(model, ids, load_case)[1]
            return [(p.source_id, p.mask.tobytes()) for p in pseudo], per_case

        expected = call()
        assert expected[1] == one_lane_reports(model, cases)
        results = []
        callers = [threading.Thread(target=lambda: results.append(call()))
                   for _ in range(3)]
        threads = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert results == [expected] * 3
        assert threading.active_count() == threads


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
