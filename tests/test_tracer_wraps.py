"""Every name the benchmark tracer wraps must exist in ``ftaseg``.

``bench/tracer.py`` skips a missing name with a printed warning, so a
rename in ``src/`` would otherwise silently drop that layer's metrics.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import numpy as np  # noqa: E402
import tracer  # noqa: E402

from ftaseg.model import ModelShape, PatchMLP  # noqa: E402
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
