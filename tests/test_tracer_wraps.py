"""The benchmark harness in ``bench/`` must keep working against ``ftaseg``.

The harness is not edited alongside ``src/``, so these tests pin what it
uses of the program:

- every name the tracer wraps exists; ``bench/tracer.py`` skips a missing
  name with a printed warning, so a rename in ``src/`` would otherwise
  silently drop that layer's metrics;
- each pass counts once under the tracer's ``model.*`` wrappers;
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

from ftaseg.model import ModelShape, PatchMLP, save_checkpoint  # noqa: E402
from ftaseg.preprocess import Slice2D  # noqa: E402


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
    planes = [
        Slice2D(rng.random((32, 32), dtype=np.float32), "z", i, "t") for i in range(3)
    ]
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


def test_checker_accepts_saved_checkpoints(tmp_path):
    model = PatchMLP.init_random(ModelShape(), 0)
    path = tmp_path / "checkpoint.seg"
    save_checkpoint(model, 12, path)
    assert checks.check_checkpoints([path]) == []
    path.write_bytes(path.read_bytes() + bytes(8 * model.shape.n_params))
    assert len(checks.check_checkpoints([path])) == 1
