import ast
import math
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftaseg import model as model_module
from ftaseg.errors import ConfigError, DataError, NumericError
from ftaseg.model import (
    ROW_CHUNK,
    SELU_ALPHA,
    SELU_SCALE,
    SPLIT_ROWS,
    AdamWState,
    Lane,
    ModelShape,
    PatchMLP,
    Perturbation,
    TrainSchedule,
    Workspace,
    _alpha_dropout_,
    _column_sums,
    _selu_,
    _selu_grad_,
    _sigmoid_,
    _windows,
    _zeros,
    adamw_step,
    load_checkpoint,
    poly_lr,
    save_checkpoint,
)
from ftaseg.ssl import TrainSlice, _supervised_batch

from golden import blas_key
from oracles import (
    _alpha_dropout_ref,
    _selu_grad_ref,
    _selu_ref,
    adam_plain,
    finite_diff_grad,
    mlp_forward_rows_ref,
    mlp_forward_scalar,
    mlp_grad_ref,
    patches_ref,
    reflect_patch,
    sigmoid_ref,
)


def rand_slice(rng, h=4, w=4):
    return rng.random((h, w), dtype=np.float32)


def float64_model(shape: ModelShape, seed: int) -> PatchMLP:
    # init_random's parameters widened to float64: the same code then
    # computes in float64, the oracles' precision.
    return PatchMLP(shape, PatchMLP.init_random(shape, seed).params.astype(np.float64))


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


class TestSigmoid:
    # NaN is left out: the two forms return NaNs of different sign, and a
    # finite-parameter check runs before every forward pass.
    EDGES = [0.0, -0.0, 1e-300, -1e-300, 40.0, -40.0, 800.0, -800.0, np.inf, -np.inf]

    def test_edges_match_split_form_bytes(self):
        z = np.array(self.EDGES)
        assert _sigmoid_(z.copy(), Workspace()).tobytes() == sigmoid_ref(z).tobytes()

    @pytest.mark.parametrize("n", [1, 2304, 16384])
    def test_random_normals_match_split_form_bytes(self, n):
        z = np.random.default_rng(n).normal(0.0, 4.0, n)
        out = _sigmoid_(z.copy(), Workspace())
        assert out.dtype == np.float64 and out.shape == z.shape
        assert out.tobytes() == sigmoid_ref(z).tobytes()


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

    @pytest.mark.parametrize("patch", [1, 3, 5, 7])
    def test_patch_rows_match_np_pad_windows(self, patch):
        # Reflect padding is built in place in a scratch buffer; it must
        # give np.pad's bytes down to planes one pixel wider than the pad,
        # and a workspace reused across plane shapes must not leak rows.
        pad = patch // 2
        model = PatchMLP.init_random(ModelShape(patch, 4, 3), 0)
        rng = np.random.default_rng(patch)
        sides = [(pad + 1, pad + 1), (pad + 1, pad + 6), (pad + 6, pad + 2),
                 (pad + 3, pad + 4), (pad + 3, pad + 4)]
        planes = [rng.random(hw, dtype=np.float32) for hw in sides]
        ws = Workspace()
        for run in (planes, planes[::-1], planes[3:]):
            rows = ws.take("patches", (sum(u.size for u in run), patch**2), np.float32)
            model._build_patches(run, rows, ws)
            want = np.concatenate([
                np.lib.stride_tricks.sliding_window_view(
                    np.pad(u, pad, mode="reflect"), (patch, patch)
                ).reshape(-1, patch * patch) * np.float32(2.0) - np.float32(1.0)
                for u in run
            ])
            assert rows.dtype == np.float32
            assert rows.tobytes() == want.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(
        k=st.sampled_from([1, 3, 5, 7]),
        n=st.integers(1, 3),
        extra=st.tuples(st.integers(0, 6), st.integers(0, 6)),
        step=st.tuples(st.integers(1, 2), st.integers(1, 2)),
        dtype=st.sampled_from([np.float32, np.float64]),
    )
    def test_windows_equal_sliding_window_view(self, k, n, extra, step, dtype):
        # Also over a strided stack, whose rows and columns are not
        # adjacent in memory.
        h, w = k + extra[0], k + extra[1]
        base = np.arange(n * h * step[0] * w * step[1], dtype=dtype)
        planes = base.reshape(n, h * step[0], w * step[1])[:, ::step[0], ::step[1]]
        got = _windows(planes, k)
        want = np.lib.stride_tricks.sliding_window_view(planes, (k, k), axis=(1, 2))
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert not got.flags.writeable

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
        for rate in (0.0, 1.0):  # the dropout rate lies in (0, 1)
            with pytest.raises(ConfigError):
                Perturbation(rate, 0)


def _noisy(shape: ModelShape, seed: int) -> PatchMLP:
    model = float64_model(shape, seed)
    model.params += np.random.default_rng(seed).normal(0.0, 0.3, model.params.size)
    return model


def _dims(model: PatchMLP) -> tuple[int, int, int]:
    return model.shape.patch, model.shape.hidden1, model.shape.hidden2


def _ref_forward(model, slices, perturb=None) -> dict:
    p = np.vstack([patches_ref(s, model.shape.patch) for s in slices])
    sizes = [s.size for s in slices]
    if perturb is None:
        return mlp_forward_rows_ref(model.params, _dims(model), p, sizes=sizes)
    return mlp_forward_rows_ref(
        model.params, _dims(model), p, perturb.rate, perturb.seed, sizes
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


    @pytest.mark.parametrize(
        "shape, hw", [(ModelShape(3, 4, 3), 8), (ModelShape(), 32)],
        ids=["3x4x3", "default"],
    )
    def test_perturbed_pass_also_returns_the_weak_view(self, shape, hw):
        # Runs of mixed shapes and a flipped view, as stage 2 stacks them:
        # the weak view equals per-plane predict_probs, and the perturbed
        # pass and its gradient still equal the reference.
        model = _noisy(shape, 6)
        rng = np.random.default_rng(23)
        planes = [rand_slice(rng, hw, hw) for _ in range(3)]
        planes += [rand_slice(rng, hw - 2, hw + 1) for _ in range(2)]
        planes += [rand_slice(rng, hw, hw)[:, ::-1], rand_slice(rng, hw, hw)]
        perturb = Perturbation(0.1, 7)
        cache = model.forward_cache_multi(planes, perturb)
        want = np.concatenate([model.predict_probs(u).ravel() for u in planes])
        assert cache["weak_probs"].tobytes() == want.tobytes()
        _check_backward(model, cache, _ref_forward(model, planes, perturb), rng)


class CountingPool:
    """A one-worker thread pool that counts the calls submitted to it."""

    made: list["CountingPool"] = []

    def __init__(self, max_workers: int):
        self.pool, self.submitted = ThreadPoolExecutor(max_workers), 0
        CountingPool.made.append(self)

    def submit(self, fn, *args):
        self.submitted += 1
        return self.pool.submit(fn, *args)

    def shutdown(self):
        self.pool.shutdown()


class TestSplitPass:
    """A pass split across a lane has the bytes of a pass in one lane."""

    @pytest.mark.parametrize(
        "sides",
        [
            [(32, 32)] * 8,
            [(48, 48)] * 8,  # more than ROW_CHUNK rows per lane
            [(32, 32), (40, 27), (40, 27), (32, 32), (48, 40), (9, 9)],
            [(32, 36)] * 5,
            [(64, 64)],
            [(16, 16)] * 8,  # SPLIT_ROWS rows in all
        ],
        ids=["8x32x32", "8x48x48", "mixed", "odd", "one-plane", "too-few-rows"],
    )
    def test_split_forward_and_backward_keep_every_byte(self, sides, monkeypatch):
        model = PatchMLP.init_random(ModelShape(), 3)
        rng = np.random.default_rng(len(sides))
        model.params += rng.normal(0.0, 0.3, model.params.size).astype(np.float32)
        planes = [rand_slice(rng, h, w) for h, w in sides]
        dz3 = rng.normal(size=sum(u.size for u in planes))
        names = ("patches", "a1_pre", "a2_pre", "probs")

        def run(lane):
            cache = model.forward_cache_multi(planes, ws=Workspace(), lane=lane)
            forward = [cache[k].tobytes() for k in names]
            grad = model.grad_from_logit_grad(cache, dz3, lane=lane)
            return forward, [cache[k].tobytes() for k in names], grad.tobytes()

        one = run(None)
        # Each pass's temporaries, seen where SELU and its gradient take
        # them: by thread, the scratch workspaces used.
        used = {True: set(), False: set()}
        for name in ("_selu_", "_selu_grad_"):
            def recording(a, scratch, fn=getattr(model_module, name)):
                used[threading.current_thread() is threading.main_thread()].add(
                    id(scratch))
                return fn(a, scratch)

            monkeypatch.setattr(model_module, name, recording)
        monkeypatch.setattr(model_module, "ThreadPoolExecutor", CountingPool)
        CountingPool.made.clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with Lane() as lane:
                two = run(lane)
        finally:
            sys.setswitchinterval(interval)
        assert two == one
        (pool,) = CountingPool.made
        if len(planes) == 1 or sum(u.size for u in planes) < 2 * SPLIT_ROWS:
            assert pool.submitted == 0 and not used[False]
        else:
            # One forward half and two delta passes on the worker.
            assert pool.submitted == 3
            assert used[False] == {id(lane.scratch)}
            assert id(lane.scratch) not in used[True]

    def test_error_in_the_worker_half_surfaces_once_both_lanes_stop(
        self, monkeypatch
    ):
        # 2304, 2304 and 2400 rows: the boundary nearest half the rows falls
        # after the second plane, so the 2 x 1200 plane, too small for
        # reflect padding of 2, is the worker's. The calling lane is slower,
        # and it still finishes its planes before the worker's error is
        # raised.
        model = PatchMLP.init_random(ModelShape(5, 4, 3), 0)
        rng = np.random.default_rng(8)
        planes = [rand_slice(rng, 48, 48) for _ in range(2)]
        planes.append(rand_slice(rng, 2, 1200))
        raised, finished = [], []
        build, sigmoid = PatchMLP._build_patches, model_module._sigmoid_

        def recording_build(self, run, rows, scratch):
            try:
                return build(self, run, rows, scratch)
            except DataError as exc:
                raised.append((threading.current_thread(), exc))
                raise

        def slow_sigmoid(z, scratch):
            if threading.current_thread() is threading.main_thread():
                time.sleep(0.05)
                finished.append(len(raised))
            return sigmoid(z, scratch)

        monkeypatch.setattr(PatchMLP, "_build_patches", recording_build)
        monkeypatch.setattr(model_module, "_sigmoid_", slow_sigmoid)
        threads = threading.active_count()
        with Lane() as lane:
            with pytest.raises(DataError, match=r"plane \(2, 1200\) too small") as info:
                model.forward_cache_multi(planes, lane=lane)
        ((thread, exc),) = raised
        assert thread is not threading.main_thread() and info.value is exc
        assert finished == [1]
        assert threading.active_count() == threads

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows", [2 * SPLIT_ROWS, 8 * 1024, 6209, 16 * 2304 + 7])
    def test_row_blocks_of_a_layer_product_are_its_rows(self, rows, dtype):
        # What a split pass rests on: a row of each product of the default
        # model has the same bytes whether the product runs over all rows or
        # over a block of at least SPLIT_ROWS of them. The forward products
        # (patches by W1^T, a1 by W2^T) run over the whole pass or one block
        # per lane; dz2 by W2 runs in ROW_CHUNK chunks, from row 0 or from
        # each lane's first row. A BLAS whose kernel choice depends on the
        # block's height can break this; golden would then fail without
        # saying why, so this names the kernel.
        shape = ModelShape()
        k2, h1, h2 = shape.n_inputs, shape.hidden1, shape.hidden2
        rng = np.random.default_rng(rows)
        w1, w2 = rng.normal(0, 0.2, (h1, k2)), rng.normal(0, 0.2, (h2, h1))
        products = {
            "patches @ w1.T": (rng.uniform(-1, 1, (rows, k2)), w1.T, rows),
            "a1 @ w2.T": (rng.normal(0, 1, (rows, h1)), w2.T, rows),
            "dz2 @ w2": (rng.normal(0, 1e-3, (rows, h2)), w2, ROW_CHUNK),
        }

        def blocks(x, w, starts, height):
            out = np.empty((len(x), w.shape[1]), x.dtype)
            for lo, hi in zip(starts, [*starts[1:], len(x)]):
                for r0 in range(lo, hi, height):
                    r1 = min(r0 + height, hi)
                    np.matmul(x[r0:r1], w, out=out[r0:r1])
            return out.tobytes()

        cuts = range(SPLIT_ROWS, rows - SPLIT_ROWS + 1, 173)
        for name, (x, w, height) in products.items():
            x, w = x.astype(dtype), w.astype(dtype)
            one_lane = blocks(x, w, [0], height)
            for cut in [*cuts, rows - SPLIT_ROWS]:
                assert blocks(x, w, [0, cut], height) == one_lane, (
                    f"{name} ({np.dtype(dtype).name}) split at row {cut} of "
                    f"{rows} differs from one lane's under BLAS {blas_key()}"
                )


def train_slice(rng, h=4, w=4, weight=1.0):
    target = (rng.random((h, w)) < 0.4).astype(np.uint8)
    return TrainSlice(rand_slice(rng, h, w), target, weight)


class TestLane:
    def test_worker_counts_its_busy_time(self):
        with Lane() as lane:
            assert lane.wait(lane.submit(time.sleep, 0.02)).result() is None
        assert lane.times.worker_s >= 0.02

    def test_calling_thread_counts_its_waits_and_the_rest_of_the_open_time(self):
        start = time.perf_counter()
        with Lane("stage9") as lane:
            first = time.perf_counter()
            sleeping = lane.submit(time.sleep, 0.05)
            lane.wait(sleeping)
            waited = time.perf_counter() - first
            time.sleep(0.02)
            last = time.perf_counter()
        end = time.perf_counter()
        times = lane.times
        # The worker's sleep began before the wait did.
        assert 0.03 <= times.wait_s <= waited
        assert last - first <= times.calling_s + times.wait_s <= end - start
        assert times.calling_s >= 0.02
        assert str(times).startswith("stage9 lanes: calling ")

    def test_close_waits_for_the_worker_and_leaves_no_thread(self):
        threads = threading.active_count()
        with Lane() as lane:
            lane.submit(time.sleep, 0.02)
        assert lane.times.worker_s >= 0.02
        assert threading.active_count() == threads

        with pytest.raises(RuntimeError, match="body"):
            with Lane() as lane:
                lane.submit(time.sleep, 0.02)
                raise RuntimeError("body")
        assert threading.active_count() == threads

        def fail():
            raise DataError("worker")

        with pytest.raises(DataError, match="worker"):
            with Lane() as lane:
                lane.wait(lane.submit(fail)).result()
        with Lane() as lane:
            failed = lane.submit(fail)  # never read
        assert isinstance(failed.exception(), DataError)
        assert threading.active_count() == threads


def test_threads_start_only_in_lane():
    # Lane is the one place in the package that starts a thread.
    def starts(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name in ("ThreadPoolExecutor", "Thread"):
                    yield owner
            inner = child.name if isinstance(child, ast.ClassDef) else owner
            yield from starts(child, inner)

    package = Path(model_module.__file__).parent
    found = [
        (path.name, owner)
        for path in sorted(package.glob("*.py"))
        for owner in starts(ast.parse(path.read_text(encoding="utf-8")), None)
    ]
    assert found == [("model.py", "Lane")]


class TestLoss:
    """The supervised loss the training engine runs: ``ssl._supervised_batch``."""

    def test_bce_at_half_is_ln2(self):
        shape = ModelShape(3, 4, 3)
        model = PatchMLP(shape, np.zeros(shape.n_params))
        batch = [train_slice(np.random.default_rng(i), 4, 3 + i) for i in range(3)]
        loss, _ = _supervised_batch(model, batch)
        assert loss() == pytest.approx(math.log(2.0), rel=1e-12)

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
            assert loss() == pytest.approx(0.0, abs=1e-6)
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
            model = float64_model(shape, trial)
            # Labeled and pseudo-labeled slices carry different weights.
            batch = [
                train_slice(rng, 4, 4, 1.0),
                train_slice(rng, 4, 5, 0.5),
                train_slice(rng, 3, 4, 2.0),
            ]
            _, grad = _supervised_batch(model, batch)

            def loss_at(params):
                return _supervised_batch(PatchMLP(shape, params), batch)[0]()

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
        assert l2() == pytest.approx(0.25 * l1())
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
        assert loaded.params.dtype == np.float32
        assert loaded.params.tobytes() == model.params.tobytes()
        assert step == 17

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        # The second save fails after the header and half the payload are
        # written: the first checkpoint survives and no temporary file stays.
        path = tmp_path / "checkpoint.seg"
        save_checkpoint(PatchMLP.init_random(ModelShape(3, 4, 3), 0), 1, path)
        before = path.read_bytes()

        class FailingFile:
            def __init__(self, f):
                self.f, self.writes = f, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                self.writes += 1
                if self.writes == 2:
                    self.f.write(data[:len(data) // 2])
                    raise OSError("No space left on device")
                return self.f.write(data)

        monkeypatch.setattr(
            "ftaseg.model.open", lambda *a, **k: FailingFile(open(*a, **k)),
            raising=False,
        )
        with pytest.raises(OSError, match="No space"):
            save_checkpoint(PatchMLP.init_random(ModelShape(3, 4, 3), 1), 2, path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["checkpoint.seg"]

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


class TestSeluOperands:
    """``_selu_`` takes its min and max against a shared read-only block of
    zeros; it must give the bytes of the same operations against the scalar
    0.0 (``_selu_ref``)."""

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.one_of(
            st.integers(1, 5),
            st.builds(lambda k, off: k * ROW_CHUNK + off,
                      st.integers(1, 2), st.integers(-3, 3)),
        ),
        width=st.sampled_from([1, 3, ModelShape().hidden2, ModelShape().hidden1]),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 2**32 - 1),
        edges=st.lists(st.integers(0, 9), min_size=1, max_size=40),
    )
    def test_array_operands_match_scalar_operand_bytes(
        self, rows, width, dtype, seed, edges
    ):
        # Signed zeros, subnormals on both sides, and negatives far past
        # where expm1 saturates at -1, scattered over normals; row counts on
        # either side of a chunk boundary.
        info = np.finfo(dtype)
        special = np.array(
            [0.0, -0.0, info.smallest_subnormal, -info.smallest_subnormal,
             info.tiny / 2, -info.tiny / 2, -40.0, -1e4, -1e30, info.max / 4],
            dtype=dtype,
        )
        rng = np.random.default_rng(seed)
        z = rng.normal(0.0, 3.0, (rows, width)).astype(dtype)
        spots = rng.integers(0, z.size, len(edges))
        z.reshape(-1)[spots] = special[edges]
        got = _selu_(z.copy(), Workspace())
        assert got.dtype == dtype
        assert got.tobytes() == _selu_ref(z).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_shared_zeros_are_read_only_and_stay_zero(self, dtype):
        z = np.random.default_rng(7).normal(size=(ROW_CHUNK + 1, 4)).astype(dtype)
        _selu_(z, Workspace())
        zeros = _zeros(4, np.dtype(dtype))
        assert zeros.shape == (ROW_CHUNK, 4) and zeros.dtype == dtype
        assert zeros is _zeros(4, np.dtype(dtype))
        assert not zeros.any()
        with pytest.raises(ValueError, match="read-only"):
            zeros[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            np.maximum(z[:ROW_CHUNK], 1.0, out=zeros)


class TestBranchFreeMasks:
    """The 0/1 blends in the SELU gradient and in dropout give the bytes of
    a select by mask, in both dtypes."""

    @staticmethod
    def selu_outputs(dtype) -> np.ndarray:
        # SELU outputs at the edges: signed zeros, the smallest and largest
        # magnitudes of the dtype, both sides of 0 and the negative limit.
        info = np.finfo(dtype)
        edges = [0.0, -0.0, info.smallest_subnormal, info.tiny, 1e-30, 1.0,
                 1e30, info.max, -info.smallest_subnormal, -info.tiny, -1e-30,
                 -1.0, -SELU_SCALE * SELU_ALPHA]
        rng = np.random.default_rng(40)
        normals = rng.normal(0.0, 2.0, 64 * 8 - len(edges))
        a = np.concatenate([np.array(edges, dtype=dtype), normals.astype(dtype)])
        return np.maximum(a, dtype(-SELU_SCALE * SELU_ALPHA)).reshape(64, 8)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_selu_grad_matches_select(self, dtype):
        a = self.selu_outputs(dtype)
        got = _selu_grad_(a, Workspace())
        assert got.dtype == dtype
        assert got.tobytes() == _selu_grad_ref(a).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dropout_matches_select(self, dtype):
        a = self.selu_outputs(dtype)
        out, keep = np.empty_like(a), np.empty(a.shape, dtype=bool)
        scale = _alpha_dropout_(a, 0.3, np.random.default_rng(41), out, keep, Workspace())
        want, want_keep, want_scale = _alpha_dropout_ref(
            a, 0.3, np.random.default_rng(41)
        )
        assert 0 < keep.sum() < keep.size and scale == want_scale
        assert np.array_equal(keep, want_keep)
        assert out.dtype == dtype
        assert out.tobytes() == want.tobytes()

    def test_dropout_blends_across_row_chunks(self):
        # The saturation term is formed chunk by chunk: rows past the first
        # chunk and a short last chunk blend like the select.
        a = np.random.default_rng(42).normal(size=(2 * ROW_CHUNK + 5, 4))
        a = a.astype(np.float32)
        out, keep = np.empty_like(a), np.empty(a.shape, dtype=bool)
        _alpha_dropout_(a, 0.3, np.random.default_rng(43), out, keep, Workspace())
        want, want_keep, _ = _alpha_dropout_ref(a, 0.3, np.random.default_rng(43))
        assert np.array_equal(keep, want_keep)
        assert out.tobytes() == want.tobytes()


    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.one_of(
            st.integers(1, 3),
            st.builds(lambda k, off: k * ROW_CHUNK + off,
                      st.integers(1, 2), st.integers(-2, 2)),
        ),
        width=st.sampled_from([ModelShape().hidden1, ModelShape().hidden2]),
        rate=st.one_of(st.floats(0.0, 1e-3), st.floats(0.99, 0.9999)),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_chunked_draws_match_one_draw(self, rows, width, rate, dtype, seed):
        # The uniforms are drawn a chunk of rows at a time; the generator's
        # stream must come out as one draw over the whole array would, on
        # either side of a chunk boundary and at rates that keep or drop
        # almost every unit.
        a = np.random.default_rng(seed).normal(0.0, 2.0, (rows, width)).astype(dtype)
        out, keep = np.empty_like(a), np.empty(a.shape, dtype=bool)
        scale = _alpha_dropout_(
            a, rate, np.random.default_rng(seed), out, keep, Workspace()
        )
        want, want_keep, want_scale = _alpha_dropout_ref(
            a, rate, np.random.default_rng(seed)
        )
        assert keep.tobytes() == want_keep.tobytes()
        assert out.tobytes() == want.tobytes()
        assert np.float64(scale).tobytes() == np.float64(want_scale).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.one_of(
            st.integers(1, 5),
            st.builds(lambda k, off: k * ROW_CHUNK + off,
                      st.integers(1, 2), st.integers(-2, 2)),
        ),
        width=st.integers(1, 64),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_column_sums_match_sum(self, rows, width, dtype, seed):
        # The backward pass's bias gradients: the bytes of .sum(axis=0) at
        # every width, the one-unit layer included.
        a = np.random.default_rng(seed).normal(0.0, 2.0, (rows, width)).astype(dtype)
        got, want = _column_sums(a), a.sum(axis=0)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestFloat32:
    """Float32 parameters from every source, and a float32 model against
    the float64 model on the same parameters."""

    def test_every_source_gives_float32(self, tmp_path):
        model = PatchMLP.init_random(ModelShape(3, 4, 3), 0)
        assert model.params.dtype == np.float32
        grad = np.ones(model.shape.n_params)
        new, state = adamw_step(model.params, grad, AdamWState.fresh(grad.size), 0.1)
        assert new.dtype == np.float32
        assert state.m.dtype == state.v.dtype == np.float64
        save_checkpoint(model, 0, tmp_path / "m.seg")
        assert load_checkpoint(tmp_path / "m.seg")[0].params.dtype == np.float32

    def test_adamw_rounds_its_float64_update(self):
        params = np.random.default_rng(42).normal(size=16).astype(np.float32)
        grads = np.random.default_rng(43).normal(size=16)
        new, _ = adamw_step(params, grads, AdamWState.fresh(16), 0.05)
        want, _ = adamw_step(params.astype(np.float64), grads, AdamWState.fresh(16), 0.05)
        assert new.tobytes() == want.astype(np.float32).tobytes()

    @pytest.mark.parametrize(
        "perturb", [None, Perturbation(0.1, 11)], ids=["clean", "perturbed"]
    )
    def test_matches_float64_model_on_same_params(self, perturb):
        # Bounds from float32's epsilon (1.2e-7): a probability carries a
        # few roundings per layer, and each gradient entry sums 8,192 rows
        # whose terms each carry a few more.
        model = PatchMLP.init_random(ModelShape(), 12)
        model.params += np.random.default_rng(12).normal(0.0, 0.3, model.params.size)
        wide = PatchMLP(model.shape, model.params.astype(np.float64))
        rng = np.random.default_rng(24)
        planes = [rand_slice(rng, 32, 32) for _ in range(8)]
        cache = model.forward_cache_multi(planes, perturb)
        ref = wide.forward_cache_multi(planes, perturb)
        assert cache["probs"].dtype == np.float64
        assert np.abs(cache["probs"] - ref["probs"]).max() < 1e-5
        if perturb is not None:
            assert np.array_equal(cache["keep1"], ref["keep1"])
            assert np.array_equal(cache["keep2"], ref["keep2"])
            assert np.abs(cache["weak_probs"] - ref["weak_probs"]).max() < 1e-5
        dz3 = rng.normal(size=cache["probs"].size) / cache["probs"].size
        grad = model.grad_from_logit_grad(cache, dz3)
        want = wide.grad_from_logit_grad(ref, dz3)
        assert grad.dtype == np.float64
        assert np.abs(grad - want).max() < 1e-4 * np.abs(want).max()


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
            loss_of, grad = _supervised_batch(model, batch)
            loss = loss_of()
            if loss < 0.1:
                break
            model.params, state = adamw_step(
                model.params, grad, state, poly_lr(sched, i)
            )
        assert loss < 0.1
