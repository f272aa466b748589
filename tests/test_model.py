import math

import numpy as np
import pytest

from ftaseg.errors import ConfigError, DataError, NumericError
from ftaseg.model import (
    AdamWState,
    ModelShape,
    PatchMLP,
    Perturbation,
    TrainSchedule,
    Workspace,
    adamw_step,
    load_checkpoint,
    poly_lr,
    save_checkpoint,
)
from ftaseg.ssl import TrainSlice, _supervised_batch

from oracles import (
    adam_plain,
    finite_diff_grad,
    mlp_forward_rows_ref,
    mlp_forward_scalar,
    mlp_grad_ref,
    patches_ref,
    reflect_patch,
)


def rand_slice(rng, h=4, w=4):
    return rng.random((h, w), dtype=np.float32)


class TestPolyLr:
    def test_initial_rate(self):
        assert poly_lr(TrainSchedule(1e-4, 100), 0) == 1e-4

    def test_final_rate_zero(self):
        assert poly_lr(TrainSchedule(1e-4, 100), 100) == 0.0

    def test_midpoint_value(self):
        # 1e-4 * 0.5 ** 0.9, computed independently
        expected = 1e-4 * math.exp(0.9 * math.log(0.5))
        assert poly_lr(TrainSchedule(1e-4, 100), 50) == pytest.approx(expected, rel=1e-12)
        assert poly_lr(TrainSchedule(1e-4, 100), 50) == pytest.approx(5.359e-5, abs=1e-8)

    def test_strictly_decreasing(self):
        sched = TrainSchedule(1e-3, 64)
        rates = [poly_lr(sched, i) for i in range(65)]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_out_of_schedule(self):
        sched = TrainSchedule(1e-4, 10)
        with pytest.raises(ConfigError):
            poly_lr(sched, 11)
        with pytest.raises(ConfigError):
            poly_lr(sched, -1)

    def test_schedule_validation(self):
        with pytest.raises(ConfigError):
            TrainSchedule(0.0, 10)
        with pytest.raises(ConfigError):
            TrainSchedule(1e-4, 0)


class TestForward:
    def test_zero_params_give_half(self):
        shape = ModelShape(3, 4, 3)
        model = PatchMLP(shape, np.zeros(shape.n_params))
        probs = model.predict_probs(rand_slice(np.random.default_rng(0)))
        assert np.all(probs == 0.5)

    def test_deterministic(self):
        model = PatchMLP.init_random(ModelShape(3, 4, 3), 7)
        s = rand_slice(np.random.default_rng(1))
        assert np.array_equal(model.predict_probs(s), model.predict_probs(s))

    def test_probs_in_open_interval(self):
        model = PatchMLP.init_random(ModelShape(3, 4, 3), 7)
        model.params = model.params * 100.0  # force saturation
        probs = model.predict_probs(rand_slice(np.random.default_rng(2), 6, 6))
        assert np.all(probs > 0.0) and np.all(probs < 1.0)

    def test_3x3_matches_scalar_oracle(self):
        shape = ModelShape(3, 4, 3)
        model = PatchMLP.init_random(shape, 3)
        rng = np.random.default_rng(4)
        s = rand_slice(rng, 3, 3)
        probs = model.predict_probs(s)
        w1, b1, w2, b2, w3, b3 = model._unpack(model.params)
        for r in range(3):
            for c in range(3):
                patch = reflect_patch(s.astype(np.float64), r, c, 3)
                feats = 2.0 * patch.ravel() - 1.0
                want = mlp_forward_scalar(w1, b1, w2, b2, w3, float(b3), feats)
                assert probs[r, c] == pytest.approx(want, abs=1e-6)

    def test_non_finite_params_rejected(self):
        shape = ModelShape(3, 4, 3)
        model = PatchMLP(shape, np.zeros(shape.n_params))
        model.params[0] = np.nan
        with pytest.raises(NumericError):
            model.predict_probs(rand_slice(np.random.default_rng(5)))

    def test_param_count_validated(self):
        with pytest.raises(DataError):
            PatchMLP(ModelShape(3, 4, 3), np.zeros(10))

    def test_slice_too_small_for_padding(self):
        model = PatchMLP.init_random(ModelShape(5, 4, 3), 0)
        with pytest.raises(DataError):
            model.predict_probs(rand_slice(np.random.default_rng(6), 2, 8))

    @pytest.mark.parametrize(
        "shape, n, h, w",
        [(ModelShape(3, 4, 3), 3, 4, 5), (ModelShape(), 8, 32, 32)],
        ids=["3x4x5", "8x32x32-default"],
    )
    def test_multi_forward_matches_single(self, shape, n, h, w):
        # The second case is a stage-2 weak-view batch at the default shape.
        model = PatchMLP.init_random(shape, 9)
        rng = np.random.default_rng(7)
        slices = [rand_slice(rng, h, w) for _ in range(n)]
        multi = model.forward_cache_multi(slices)
        stacked = np.concatenate(
            [model.predict_probs(s).ravel() for s in slices]
        )
        clipped = np.clip(multi["probs"], 1e-15, 1 - 1e-15)
        assert np.abs(clipped - stacked).max() == 0.0

    def test_shape_validation(self):
        with pytest.raises(ConfigError):
            ModelShape(4, 4, 3)  # even patch
        with pytest.raises(ConfigError):
            ModelShape(3, 0, 3)


def _noisy(shape: ModelShape, seed: int) -> PatchMLP:
    model = PatchMLP.init_random(shape, seed)
    model.params += np.random.default_rng(seed).normal(0.0, 0.3, model.params.size)
    return model


def _dims(model: PatchMLP) -> tuple[int, int, int]:
    return model.shape.patch, model.shape.hidden1, model.shape.hidden2


def _ref_forward(model, slices, perturb=None) -> dict:
    p = np.vstack([patches_ref(s, model.shape.patch) for s in slices])
    if perturb is None:
        return mlp_forward_rows_ref(model.params, _dims(model), p)
    return mlp_forward_rows_ref(
        model.params, _dims(model), p, perturb.rate, perturb.seed
    )


def _check_backward(model, cache, ref, rng):
    # Byte equality of probabilities and of the gradient of a random logit
    # gradient, against the allocating reference.
    dz3 = rng.normal(size=ref["probs"].size)
    grad = model.grad_from_logit_grad(cache, dz3)
    assert cache["probs"].tobytes() == ref["probs"].tobytes()
    assert grad.tobytes() == mlp_grad_ref(model.params, _dims(model), ref, dz3).tobytes()


class TestWorkspacePasses:
    """The in-place passes reproduce the allocating reference byte for byte."""

    @pytest.mark.parametrize(
        "perturb", [None, Perturbation(0.1, 11)], ids=["clean", "perturbed"]
    )
    @pytest.mark.parametrize(
        "shape, hw", [(ModelShape(3, 4, 3), 8), (ModelShape(), 32)],
        ids=["3x4x3", "default"],
    )
    def test_one_workspace_reused_at_16_8_16_slices(self, shape, hw, perturb):
        model = _noisy(shape, 4)
        rng = np.random.default_rng(21)
        ws = Workspace()
        for n in (16, 8, 16):
            slices = [rand_slice(rng, hw, hw) for _ in range(n)]
            cache = model.forward_cache_multi(slices, perturb, ws)
            _check_backward(model, cache, _ref_forward(model, slices, perturb), rng)

    @pytest.mark.parametrize(
        "shape, hw", [(ModelShape(3, 4, 3), 8), (ModelShape(), 32)],
        ids=["3x4x3", "default"],
    )
    def test_roles_sharing_scratch_in_stage2_order(self, shape, hw):
        model = _noisy(shape, 5)
        rng = np.random.default_rng(22)
        scratch = Workspace()
        sup_ws, strong_ws, fp_ws, weak_ws = (Workspace(scratch) for _ in range(4))
        for it, n_strong in enumerate((16, 14)):
            weak = [rand_slice(rng, hw, hw) for _ in range(8)]
            strong = [rand_slice(rng, hw, hw) for _ in range(n_strong)]
            sup = [rand_slice(rng, hw, hw) for _ in range(16)]
            perturb = Perturbation(0.1, 100 + it)
            for s in weak:
                want = np.clip(_ref_forward(model, [s])["probs"], 1e-15, 1 - 1e-15)
                got = model.predict_probs(s, ws=weak_ws)
                assert got.tobytes() == want.reshape(hw, hw).tobytes()
            # All three forward passes run before the first backward pass.
            fp = model.forward_cache_multi(weak, perturb, fp_ws)
            strong_cache = model.forward_cache_multi(strong, None, strong_ws)
            sup_cache = model.forward_cache_multi(sup, None, sup_ws)
            _check_backward(model, sup_cache, _ref_forward(model, sup), rng)
            _check_backward(model, fp, _ref_forward(model, weak, perturb), rng)
            _check_backward(model, strong_cache, _ref_forward(model, strong), rng)


def train_slice(rng, h=4, w=4, weight=1.0):
    target = (rng.random((h, w)) < 0.4).astype(np.uint8)
    return TrainSlice(rand_slice(rng, h, w), target, weight)


class TestLoss:
    """The supervised loss the training engine runs: ``ssl._supervised_batch``."""

    def test_bce_at_half_is_ln2(self):
        shape = ModelShape(3, 4, 3)
        model = PatchMLP(shape, np.zeros(shape.n_params))
        batch = [train_slice(np.random.default_rng(i), 4, 3 + i) for i in range(3)]
        loss, _ = _supervised_batch(model, batch)
        assert loss == pytest.approx(math.log(2.0), rel=1e-12)

    def test_bce_perfect_prediction_near_zero(self):
        # Zero weights and an output bias of +-40 predict 1 or 0 everywhere;
        # clipped pixels contribute no gradient.
        shape = ModelShape(3, 4, 3)
        s = rand_slice(np.random.default_rng(0))
        for bias, label in ((40.0, 1), (-40.0, 0)):
            params = np.zeros(shape.n_params)
            params[-1] = bias
            batch = [TrainSlice(s, np.full((4, 4), label, dtype=np.uint8))]
            loss, grad = _supervised_batch(PatchMLP(shape, params), batch)
            assert loss == pytest.approx(0.0, abs=1e-6)
            assert not grad.any()

    def test_bce_shape_mismatch(self):
        # A target is checked against its slice before it reaches the loss.
        s = rand_slice(np.random.default_rng(0), 4, 4)
        with pytest.raises(DataError):
            TrainSlice(s, np.zeros((4, 5), dtype=np.uint8))

    def test_gradient_matches_finite_differences(self):
        shape = ModelShape(3, 4, 3)
        rng = np.random.default_rng(8)
        for trial in range(4):
            model = PatchMLP.init_random(shape, trial)
            # Labeled and pseudo-labeled slices carry different weights.
            batch = [
                train_slice(rng, 4, 4, 1.0),
                train_slice(rng, 4, 5, 0.5),
                train_slice(rng, 3, 4, 2.0),
            ]
            _, grad = _supervised_batch(model, batch)

            def loss_at(params):
                return _supervised_batch(PatchMLP(shape, params), batch)[0]

            fd = finite_diff_grad(loss_at, model.params)
            rel = np.abs(grad - fd) / np.maximum.reduce(
                [np.abs(grad), np.abs(fd), np.full_like(fd, 1e-6)]
            )
            assert rel.max() < 1e-4

    def test_weight_scales_loss_and_grad(self):
        model = PatchMLP.init_random(ModelShape(3, 4, 3), 1)
        rng = np.random.default_rng(9)
        batch = [train_slice(rng) for _ in range(2)]
        scaled = [TrainSlice(ts.image, ts.target, 0.25) for ts in batch]
        l1, g1 = _supervised_batch(model, batch)
        l2, g2 = _supervised_batch(model, scaled)
        assert l2 == pytest.approx(0.25 * l1)
        assert np.allclose(g2, 0.25 * g1)


class TestAdamW:
    def test_zero_gradient_pure_decay(self):
        params = np.array([1.0, -2.0, 0.5])
        state = AdamWState.fresh(3)
        lr = 0.01
        new, _ = adamw_step(params, np.zeros(3), state, lr)
        assert np.array_equal(new, params * (1.0 - lr * state.weight_decay))

    def test_hand_computed_first_step(self):
        params = np.array([1.0])
        grads = np.array([1.0])
        new, state = adamw_step(params, grads, AdamWState.fresh(1), 0.1)
        expected = 1.0 * (1.0 - 0.1 * 1e-4) - 0.1 * (1.0 / (1.0 + 1e-8))
        assert new[0] == pytest.approx(expected, rel=1e-12)
        assert new[0] == pytest.approx(0.899990001, abs=1e-9)
        assert state.step == 1

    def test_reduces_to_plain_adam_without_decay(self):
        rng = np.random.default_rng(10)
        params = rng.normal(size=6)
        state = AdamWState.fresh(6, weight_decay=0.0)
        ref_params = params.copy()
        m = np.zeros(6)
        v = np.zeros(6)
        ours = params.copy()
        for step in range(5):
            grads = rng.normal(size=6)
            ours, state = adamw_step(ours, grads, state, 0.05)
            ref_params, m, v = adam_plain(ref_params, grads, m, v, step, 0.05)
        assert np.allclose(ours, ref_params, rtol=1e-12, atol=1e-15)

    def test_non_finite_gradient_rejected(self):
        with pytest.raises(NumericError):
            adamw_step(np.zeros(2), np.array([1.0, np.inf]), AdamWState.fresh(2), 0.1)

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            adamw_step(np.zeros(2), np.zeros(3), AdamWState.fresh(2), 0.1)

    def test_bit_identical_trajectories(self):
        def run():
            rng = np.random.default_rng(3)
            params = rng.normal(size=8)
            state = AdamWState.fresh(8)
            for _ in range(20):
                params, state = adamw_step(params, rng.normal(size=8), state, 0.01)
            return params

        assert np.array_equal(run(), run())


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        model = PatchMLP.init_random(ModelShape(3, 4, 3), 0)
        path = tmp_path / "m.seg"
        save_checkpoint(model, 17, path)
        loaded, step = load_checkpoint(path)
        assert loaded.shape == model.shape
        assert np.array_equal(
            loaded.params, model.params.astype(np.float32).astype(np.float64)
        )
        assert step == 17

    def test_layout_is_header_then_params(self, tmp_path):
        model = PatchMLP.init_random(ModelShape(3, 4, 3), 3)
        path = tmp_path / "m.seg"
        save_checkpoint(model, 5, path)
        blob = path.read_bytes()
        assert len(blob) == 28 + 4 * model.shape.n_params
        assert blob[28:] == model.params.astype("<f4").tobytes()

    def test_deterministic_bytes(self, tmp_path):
        model = PatchMLP.init_random(ModelShape(3, 4, 3), 1)
        save_checkpoint(model, 0, tmp_path / "a.seg")
        save_checkpoint(model, 0, tmp_path / "b.seg")
        assert (tmp_path / "a.seg").read_bytes() == (tmp_path / "b.seg").read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.seg"
        path.write_bytes(b"XXXX" + bytes(100))
        with pytest.raises(DataError):
            load_checkpoint(path)

    def test_truncated(self, tmp_path):
        model = PatchMLP.init_random(ModelShape(3, 4, 3), 2)
        path = tmp_path / "t.seg"
        save_checkpoint(model, 0, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DataError):
            load_checkpoint(path)

    def test_layout_with_optimizer_moments_rejected(self, tmp_path):
        # A payload that still carries both optimizer moments after the
        # params: three float32 vectors of n_params each.
        model = PatchMLP.init_random(ModelShape(3, 4, 3), 4)
        n = model.shape.n_params
        path = tmp_path / "old.seg"
        save_checkpoint(model, 9, path)
        path.write_bytes(path.read_bytes() + bytes(2 * 4 * n))
        with pytest.raises(DataError, match=f"{4 * n}-byte .* found {12 * n} bytes"):
            load_checkpoint(path)


class TestTrainingSmoke:
    def test_learns_linearly_separable_slice(self):
        # bright blob on dark background: BCE < 0.1 well within 500 steps
        rng = np.random.default_rng(0)
        img = rng.uniform(0.0, 0.2, (8, 8)).astype(np.float32)
        img[2:6, 2:6] = rng.uniform(0.8, 1.0, (4, 4))
        target = np.zeros((8, 8), dtype=np.uint8)
        target[2:6, 2:6] = 1
        batch = [TrainSlice(img, target)]
        model = PatchMLP.init_random(ModelShape(3, 8, 4), 5)
        state = AdamWState.fresh(model.shape.n_params)
        sched = TrainSchedule(5e-3, 500)
        loss = None
        for i in range(500):
            loss, grad = _supervised_batch(model, batch)
            if loss < 0.1:
                break
            model.params, state = adamw_step(
                model.params, grad, state, poly_lr(sched, i)
            )
        assert loss < 0.1
