"""Every name the benchmark tracer wraps must exist in ``ftaseg``.

``bench/tracer.py`` skips a missing name with a printed warning, so a
rename in ``src/`` would otherwise silently drop that layer's metrics.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import tracer  # noqa: E402


def test_every_wrapped_name_resolves():
    missing = [
        f"{owner}.{attr}"
        for owner, attr, *_ in tracer.WRAPS
        if not callable(getattr(tracer._resolve(owner), attr, None))
    ]
    assert not missing, f"not found: {missing}"
