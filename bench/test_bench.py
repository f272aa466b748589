"""Tests of the benchmark's own logic: the tail-percentile rule, self time
of nested spans, wrapper installation, and the output checks."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


# -- tail percentile ----------------------------------------------------------


@pytest.mark.parametrize("n", [1, 5, 19, 20, 21, 39, 40, 99, 100, 199, 200, 999, 1000, 10000])
def test_tail_has_ten_samples_beyond_and_no_higher_rung_does(n):
    samples = np.random.default_rng(n).permutation(np.arange(n, dtype=float))
    q, value = tracer.tail_percentile(samples)
    if n < 20:
        assert (q, value) == (0.0, 0.0)
        return
    assert q in tracer.TAIL_LADDER
    assert np.count_nonzero(samples > value) >= tracer.MIN_BEYOND
    for higher in (r for r in tracer.TAIL_LADDER if r > q):
        above = np.count_nonzero(samples > np.percentile(samples, higher))
        assert above < tracer.MIN_BEYOND


def test_tail_counts_ties_as_not_beyond():
    samples = [1.0] * 95 + [2.0] * 5
    assert tracer.tail_percentile(samples) == (0.0, 0.0)


def test_tail_of_two_hundred_samples_is_p95():
    q, value = tracer.tail_percentile(np.arange(200.0))
    assert q == 95.0
    assert np.count_nonzero(np.arange(200.0) > value) == 10


# -- spans and self time ------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("root", 0, 100, -1),
        ("a", 10, 30, 0),
        ("b", 40, 70, 0),
        ("c", 50, 60, 2),
    ]
    assert tracer.self_times(spans) == [50, 20, 20, 10]


def test_self_time_counts_overlapping_children_once():
    spans = [("root", 0, 100, -1), ("a", 10, 50, 0), ("b", 30, 60, 0)]
    assert tracer.self_times(spans)[0] == 50


def test_nested_wrappers_record_parents_and_layer_time():
    t = tracer.Tracer()

    wrapped = {}

    def outer():
        return wrapped["inner"]() + wrapped["inner"]()

    wrapped["inner"] = t.span("pipeline.load_slices", lambda: 1)
    assert t.span("pipeline.stage1", outer)() == 2
    names = [s[0] for s in t.spans]
    parents = [s[3] for s in t.spans]
    assert names == ["pipeline.stage1", "pipeline.load_slices", "pipeline.load_slices"]
    assert parents == [-1, 0, 0]
    t.installed = {"pipeline.stage1", "pipeline.load_slices"}
    m = t.layer_metrics()
    children = sum(e - s for _, s, e, p in t.spans if p == 0) / 1e9
    assert m["pipeline.stage1.self_s"] == pytest.approx(m["pipeline.stage1.s"] - children)


def test_install_restores_originals_and_skips_missing_names(capsys):
    t = tracer.Tracer()
    original = json.dumps
    t.install([
        ("json", "dumps", "model.adamw", "span", None),
        ("json", "no_such_function", "model.checkpoint", "span", None),
        ("no_such_module", "f", "volume.save", "span", None),
    ])
    assert json.dumps is not original
    json.dumps({})
    t.restore()
    assert json.dumps is original
    assert "no_such_function" in capsys.readouterr().err
    assert t.installed == {"model.adamw"}
    m = t.layer_metrics()
    assert m["model.adamw.calls"] == 1
    assert "model.checkpoint.s" not in m


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    t = tracer.Tracer(installed={w[2] for w in tracer.WRAPS})
    assert set(t.layer_metrics()) | {"trace.overhead_frac"} == {
        m["name"] for m in spec["per_layer"]
    }
    fake = run.Run(traced=False)
    fake.result = {k: 1.0 for k in ("setup_s", "wall_s", "peak_rss_mb", "run_dir_files",
                                    "run_dir_mb", "score_mean", "dice_mean")}
    gated = {m["name"] for m in spec["end_to_end"]}
    assert set(run.end_to_end([fake], [])) == gated | (set(run.UNGATED) - {"failed_frac"})


# -- output checks ------------------------------------------------------------


def _scores_csv(rows: list[tuple[str, float, float, float]], dims=(32, 32, 32)) -> str:
    extent = sum(d - 1 for d in dims)
    vals = []
    for case, dice, iou, hd_raw in rows:
        hd_norm = hd_raw / extent
        vals.append((case, dice, iou, hd_raw, hd_norm, 0.4 * dice + 0.3 * iou + 0.3 * (1 - hd_norm)))
    mean = ("mean",) + tuple(float(np.mean([v[i] for v in vals])) for i in range(1, 6))
    lines = [checks.SCORES_HEADER]
    lines += [f"{v[0]}," + ",".join(f"{x:.6f}" for x in v[1:]) for v in vals + [mean]]
    return "\n".join(lines) + "\n"


CASES = ["val_000", "val_001", "val_002"]
GOOD = _scores_csv([("val_000", 0.9, 0.82, 2.0), ("val_001", 0.7, 0.54, 5.0),
                    ("val_002", 0.95, 0.9, 1.0)])


def test_checker_accepts_a_consistent_scores_csv():
    assert checks.check_scores(GOOD, CASES, (32, 32, 32)) == []


@pytest.mark.parametrize("old,new", [
    ("mean,0.850000", "mean,0.860000"),      # mean row is not the mean
    ("val_001,0.700000", "val_001,0.750000"),  # score no longer matches its terms
    ("val_002,0.950000", "val_002,1.050000"),  # dice out of range
    ("case,dice", "case,dsc"),                # header
])
def test_checker_rejects_a_tampered_scores_csv(old, new):
    assert old in GOOD
    assert checks.check_scores(GOOD.replace(old, new), CASES, (32, 32, 32))


def test_checker_rejects_missing_and_extra_rows():
    lines = GOOD.splitlines()
    assert checks.check_scores("\n".join(lines[:2] + lines[3:]), CASES, (32, 32, 32))
    assert checks.check_scores(GOOD, CASES + ["val_003"], (32, 32, 32))


def test_checker_rejects_a_truncated_checkpoint(tmp_path):
    bad = tmp_path / "checkpoint.seg"
    bad.write_bytes(b"SEG1" + bytes(10))
    assert checks.check_checkpoints([bad])
