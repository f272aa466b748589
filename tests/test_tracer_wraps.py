"""The benchmark harness in ``bench/`` must keep working against ``ftaseg``.

The harness is not edited alongside ``src/``, so these tests pin what it
uses of the program:

- every name the tracer wraps exists; ``bench/tracer.py`` skips a missing
  name with a printed warning, so a rename in ``src/`` would otherwise
  silently drop that layer's metrics;
- each pass counts once under the tracer's ``model.*`` wrappers, also when
  stage 2 runs its supervised passes on a worker thread;
- the ``ssl.consistency`` wrapper sees one call per stage-2 step, and its
  weak and confident pixel counts are those of the step's weak views;
- ``bench/checks.py`` loads every checkpoint with ``load_checkpoint``
  and unpacks a ``(model, _)`` pair, so a checkpoint that
  ``save_checkpoint`` writes must pass its check.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import checks  # noqa: E402
import numpy as np  # noqa: E402
import tracer  # noqa: E402

from ftaseg.fourier import FtaConfig  # noqa: E402
from ftaseg.model import (  # noqa: E402
    ModelShape,
    PatchMLP,
    TrainSchedule,
    save_checkpoint,
)
from ftaseg import ssl  # noqa: E402
from ftaseg.ssl import StageConfig, TrainSlice, run_stage2  # noqa: E402


def test_every_wrapped_name_resolves():
    missing = [
        f"{owner}.{attr}"
        for owner, attr, *_ in tracer.WRAPS
        if not callable(getattr(tracer._resolve(owner), attr, None))
    ]
    assert not missing, f"not found: {missing}"


def test_model_wraps_count_each_pass_once():
    # forward_cache and forward_cache_multi are both wrapped as
    # model.forward; if one called the other, its rows would count twice.
    rng = np.random.default_rng(0)
    planes = [rng.random((32, 32), dtype=np.float32) for _ in range(3)]
    model = PatchMLP.init_random(ModelShape(), 0)
    t = tracer.Tracer()
    t.install([w for w in tracer.WRAPS if w[2].startswith("model.")])
    try:
        model.predict_probs(planes[0])
        cache = model.forward_cache_multi(planes[1:])
        model.grad_from_logit_grad(cache, np.ones(cache["probs"].size))
    finally:
        t.restore()
    m = t.layer_metrics()
    assert m["model.forward.rows"] == 3072
    assert m["model.forward.calls"] == 2
    assert m["model.backward.rows"] == 2048


def test_model_wraps_count_rows_of_a_two_lane_stage2_run():
    # Per iteration at batch_size=2 on 8 x 8 planes: 4 supervised planes
    # (2 clean, 2 augmented) on the worker lane, 4 strong and 2 perturbed
    # on the calling one, 10 planes of 64 rows each way. The weak view
    # shares the perturbed pass and adds no forward rows.
    rng = np.random.default_rng(1)
    labeled = [
        TrainSlice(rng.random((8, 8), dtype=np.float32),
                   (rng.random((8, 8)) < 0.3).astype(np.uint8))
        for _ in range(4)
    ]
    unlabeled = [rng.random((8, 8), dtype=np.float32) for _ in range(4)]
    t = tracer.Tracer()
    t.install([w for w in tracer.WRAPS if w[2].startswith("model.")])
    try:
        run_stage2(
            PatchMLP.init_random(ModelShape(), 0), labeled, unlabeled, [], None,
            StageConfig(seed=0, batch_size=2), TrainSchedule(1e-3, 3), FtaConfig(),
            val_points=1,
        )
    finally:
        t.restore()
    m = t.layer_metrics()
    assert m["model.forward.rows"] == 3 * 640
    assert m["model.backward.rows"] == 3 * 640


def test_consistency_wrap_counts_one_call_and_the_weak_views_per_step(monkeypatch):
    # The weak views are read where the perturbed pass makes them and the
    # threshold where update_threshold returns it, not from the wrapped
    # call's arguments.
    weak_views, taus = [], []
    forward = PatchMLP.forward_cache_multi
    update = ssl.update_threshold

    def recording_forward(self, planes, perturb=None, ws=None, lane=None):
        cache = forward(self, planes, perturb, ws, lane)
        if perturb is not None:
            weak_views.append(cache["weak_probs"].copy())
        return cache

    def recording_update(state, confidences):
        state = update(state, confidences)
        taus.append(state.tau)
        return state

    monkeypatch.setattr(PatchMLP, "forward_cache_multi", recording_forward)
    monkeypatch.setattr(ssl, "update_threshold", recording_update)
    rng = np.random.default_rng(2)
    labeled = [
        TrainSlice(rng.random((8, 8), dtype=np.float32),
                   (rng.random((8, 8)) < 0.3).astype(np.uint8))
        for _ in range(4)
    ]
    unlabeled = [rng.random(s, dtype=np.float32) for s in [(8, 8), (6, 9), (6, 9)]]
    iters = 5
    t = tracer.Tracer()
    t.install([w for w in tracer.WRAPS if w[2] == "ssl.consistency"])
    try:
        run_stage2(
            PatchMLP.init_random(ModelShape(), 0), labeled, unlabeled, [], None,
            StageConfig(seed=0, batch_size=3, threshold_momentum=0.5),
            TrainSchedule(1e-3, iters), FtaConfig(), val_points=1,
        )
    finally:
        t.restore()
    m = t.layer_metrics()
    assert m["ssl.consistency.calls"] == len(weak_views) == len(taus) == iters
    assert m["ssl.weak_pixels"] == sum(w.size for w in weak_views)
    confident = sum(
        int(np.count_nonzero(np.maximum(w, 1.0 - w) >= tau))
        for w, tau in zip(weak_views, taus)
    )
    assert 0 < confident < m["ssl.weak_pixels"]
    assert t.counts["ssl.confident_pixels"] == confident


def test_checker_accepts_saved_checkpoints(tmp_path):
    model = PatchMLP.init_random(ModelShape(), 0)
    path = tmp_path / "checkpoint.seg"
    save_checkpoint(model, 12, path)
    assert checks.check_checkpoints([path]) == []
    path.write_bytes(path.read_bytes() + bytes(8 * model.shape.n_params))
    assert len(checks.check_checkpoints([path])) == 1
