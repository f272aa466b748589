"""Per-layer tracing from outside the program.

A ``Tracer`` replaces module- and class-level names of ``ftaseg`` with
timing wrappers, keeps every span in memory, and turns the spans and
counters into the per-layer metrics of the traced run. Each wrapper is
installed where the name is looked up at call time: ``from .x import y``
binds ``y`` in the importing module, so ``ftaseg.ssl.fta_augment_pair`` is
patched, not ``ftaseg.fourier.fta_augment_pair``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10
MB = 2**20


def tail_percentile(samples) -> tuple[float, float]:
    """Highest percentile on ``TAIL_LADDER`` with at least ``MIN_BEYOND``
    samples strictly above it, as ``(percentile, value)``.

    Returns ``(0.0, 0.0)`` when no percentile qualifies (fewer than about
    twenty samples).
    """
    arr = np.asarray(samples, dtype=np.float64)
    for q in TAIL_LADDER:
        if arr.size == 0:
            break
        value = float(np.percentile(arr, q))
        if int(np.count_nonzero(arr > value)) >= MIN_BEYOND:
            return q, value
    return 0.0, 0.0


def self_times(spans: list[tuple[str, int, int, int]]) -> list[int]:
    """Per span: its duration minus the part of it that its direct children
    cover. Spans are ``(name, start_ns, end_ns, parent_index)``, parent -1
    for a root."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, reach = 0, start
        for c0, c1 in sorted(children[i]):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append(end - start - covered)
    return out


@dataclass
class Tracer:
    """In-memory spans and counters of one traced run."""

    spans: list[tuple[str, int, int, int]] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    step_times: dict[str, list[int]] = field(default_factory=lambda: defaultdict(list))
    stage: str | None = None
    tau_final: float = 0.0
    installed: set[str] = field(default_factory=set)
    _stack: list[int] = field(default_factory=list)
    _restore: list[tuple[object, str, object]] = field(default_factory=list)

    # -- spans ---------------------------------------------------------------

    def span(self, name: str, fn, count=None):
        """Wrap ``fn`` so every call records a span named ``name``; ``count``
        runs after the span closes with ``(tracer, args, kwargs, result)``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((name, 0, 0, parent))
            self._stack.append(idx)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent)
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return wrapper

    def stage_marker(self, stage: str, fn, count=None):
        """Wrap ``fn`` so optimizer steps inside it are attributed to
        ``stage``; records no span of its own."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                count(self, args, kwargs, None)
            outer, self.stage = self.stage, stage
            try:
                return fn(*args, **kwargs)
            finally:
                self.stage = outer

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self, specs) -> None:
        """Patch every ``(owner, attr, layer, kind, count)`` spec; an owner
        or attribute that no longer exists is skipped with a warning."""
        for owner_path, attr, layer, kind, count in specs:
            owner = _resolve(owner_path)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                print(f"warning: {owner_path}.{attr} not found; "
                      f"{layer} metrics may be absent", file=sys.stderr)
                continue
            make = self.span if kind == "span" else self.stage_marker
            setattr(owner, attr, make(layer, original, count))
            self._restore.append((owner, attr, original))
            self.installed.add(layer)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans}), encoding="utf-8")

    # -- aggregation ---------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the run; layers that could not be installed
        are left out."""
        per: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "ns": 0, "self_ns": 0, "durations": []}
        )
        selfs = self_times(self.spans)
        for i, (name, start, end, parent) in enumerate(self.spans):
            agg = per[name]
            agg["calls"] += 1
            agg["self_ns"] += selfs[i]
            agg["durations"].append(end - start)
            if not _inside(self.spans, parent, name):
                agg["ns"] += end - start

        def secs(layer: str, key: str = "ns") -> float:
            return per[layer][key] / 1e9 if layer in per else 0.0

        def calls(layer: str) -> int:
            return per[layer]["calls"] if layer in per else 0

        c = self.counts
        m: dict[str, float] = {}
        want = self.installed.__contains__

        if want("phantom.gen_phantom"):
            m["phantom.gen_phantom.calls"] = calls("phantom.gen_phantom")
            m["phantom.gen_phantom.s"] = secs("phantom.gen_phantom")
        if want("phantom.apply_domain_shift"):
            m["phantom.apply_domain_shift.s"] = secs("phantom.apply_domain_shift")
        for op in ("save", "load"):
            layer = f"volume.{op}"
            if want(layer):
                m[f"{layer}.calls"] = calls(layer)
                m[f"{layer}.mb"] = c[f"{layer}.bytes"] / MB
                m[f"{layer}.s"] = secs(layer)
        if want("preprocess.window_normalize"):
            m["preprocess.window_normalize.s"] = secs("preprocess.window_normalize")
        if want("preprocess.slice_volume"):
            m["preprocess.slice_volume.calls"] = calls("preprocess.slice_volume")
            m["preprocess.slice_volume.s"] = secs("preprocess.slice_volume")
        if want("preprocess.manifest"):
            m["preprocess.manifest.s"] = secs("preprocess.manifest")
        for part in ("preprocess", "stage1", "stage2", "score", "load_slices"):
            layer = f"pipeline.{part}"
            if want(layer):
                m[f"{layer}.s"] = secs(layer)
                m[f"{layer}.self_s"] = secs(layer, "self_ns")
        if want("fourier.fta_pair"):
            ms = [d / 1e6 for d in per["fourier.fta_pair"]["durations"]] \
                if "fourier.fta_pair" in per else []
            tail_q, tail = tail_percentile(ms)
            iters = len(self.step_times["ssl.stage2"])
            m["fourier.fta_pair.calls"] = len(ms)
            m["fourier.fta_pair.s"] = secs("fourier.fta_pair")
            m["fourier.fta_pair.ms.p50"] = float(np.median(ms)) if ms else 0.0
            m["fourier.fta_pair.ms.tail"] = tail
            m["fourier.fta_pair.ms.tail_pct"] = tail_q
            m["fourier.fta_pair.per_iter"] = len(ms) / iters if iters else 0.0
        for op, rows_key in (("forward", "model.forward.rows"),
                             ("backward", "model.backward.rows")):
            layer = f"model.{op}"
            if want(layer):
                s = secs(layer)
                m[f"{layer}.calls"] = calls(layer)
                m[f"{layer}.rows"] = int(c[rows_key])
                m[f"{layer}.s"] = s
                m[f"{layer}.rows_per_s"] = c[rows_key] / s if s > 0 else 0.0
        if want("model.adamw"):
            m["model.adamw.calls"] = calls("model.adamw")
            m["model.adamw.s"] = secs("model.adamw")
        if want("model.checkpoint"):
            m["model.checkpoint.s"] = secs("model.checkpoint")
        for stage in ("stage1", "stage2"):
            if not want(f"ssl.{stage}"):
                continue
            steps = self.step_times[f"ssl.{stage}"]
            iter_ms = np.diff(np.asarray(steps, dtype=np.float64)) / 1e6
            tail_q, tail = tail_percentile(iter_ms)
            m[f"ssl.{stage}.iters"] = len(steps)
            m[f"ssl.{stage}.iter_ms.p50"] = (
                float(np.median(iter_ms)) if iter_ms.size else 0.0
            )
            m[f"ssl.{stage}.iter_ms.tail"] = tail
            m[f"ssl.{stage}.iter_ms.tail_pct"] = tail_q
        if want("ssl.consistency"):
            m["ssl.consistency.calls"] = calls("ssl.consistency")
            m["ssl.consistency.s"] = secs("ssl.consistency")
            weak = c["ssl.weak_pixels"]
            m["ssl.confident_frac"] = c["ssl.confident_pixels"] / weak if weak else 0.0
            m["ssl.weak_pixels"] = int(weak)
        if want("ssl.threshold"):
            m["ssl.threshold.s"] = secs("ssl.threshold")
            m["ssl.tau_final"] = self.tau_final
        if want("ssl.pseudo_label"):
            m["ssl.pseudo_label.s"] = secs("ssl.pseudo_label")
            m["ssl.pseudo_fg_rate"] = _rate(c, "ssl.pseudo")
        if want("ssl.stage1"):
            m["ssl.labeled_fg_rate"] = _rate(c, "ssl.labeled")
        if want("ssl.validate"):
            m["ssl.validate.calls"] = calls("ssl.validate")
            m["ssl.validate.s"] = secs("ssl.validate")
        if want("metrics.evaluate"):
            m["metrics.evaluate.calls"] = calls("metrics.evaluate")
            m["metrics.evaluate.s"] = secs("metrics.evaluate")
            m["metrics.evaluate.pred_voxels"] = int(c["metrics.evaluate.pred_voxels"])
        return m


def _resolve(path: str):
    # "module" or "module:Class"; None when it does not exist.
    module, _, tail = path.partition(":")
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    for part in filter(None, tail.split(".")):
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return owner


def _inside(spans, parent: int, name: str) -> bool:
    # True when an ancestor span has the same name, so the outer span
    # already holds this one's time.
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def _rate(c: dict, key: str) -> float:
    total = c[f"{key}_pixels"]
    return c[f"{key}_fg"] / total if total else 0.0


# ---------------------------------------------------------------------------
# Counters: run after a span closes, so their cost is not in the layer's time.


def _save_bytes(t: Tracer, args, kwargs, result) -> None:
    t.counts["volume.save.bytes"] += args[0].data.nbytes


def _load_bytes(t: Tracer, args, kwargs, result) -> None:
    t.counts["volume.load.bytes"] += result.data.nbytes


def _forward_rows(t: Tracer, args, kwargs, result) -> None:
    t.counts["model.forward.rows"] += result["probs"].size


def _backward_rows(t: Tracer, args, kwargs, result) -> None:
    t.counts["model.backward.rows"] += np.size(args[2])


def _step(t: Tracer, args, kwargs, result) -> None:
    if t.stage is not None:
        t.step_times[t.stage].append(time.perf_counter_ns())


def _confident(t: Tracer, args, kwargs, result) -> None:
    weak = np.asarray(args[0])
    tau = args[2] if len(args) > 2 else kwargs["tau"]
    t.counts["ssl.weak_pixels"] += weak.size
    t.counts["ssl.confident_pixels"] += int(
        np.count_nonzero(np.maximum(weak, 1.0 - weak) >= tau)
    )


def _tau(t: Tracer, args, kwargs, result) -> None:
    t.tau_final = float(result.tau)


def _pseudo_fg(t: Tracer, args, kwargs, result) -> None:
    for s in result:
        t.counts["ssl.pseudo_fg"] += int(np.count_nonzero(s.mask))
        t.counts["ssl.pseudo_pixels"] += s.mask.size


def _labeled_fg(t: Tracer, args, kwargs, result) -> None:
    for ts in args[0]:
        t.counts["ssl.labeled_fg"] += int(np.count_nonzero(ts.target))
        t.counts["ssl.labeled_pixels"] += ts.target.size


def _pred_voxels(t: Tracer, args, kwargs, result) -> None:
    t.counts["metrics.evaluate.pred_voxels"] += args[0].voxel_count()


P, S, M = "ftaseg.pipeline", "ftaseg.ssl", "ftaseg.model:PatchMLP"

# (owner, attribute, layer, kind, counter). ``owner`` is a module, or
# "module:Class" for methods.
WRAPS = (
    (P, "gen_phantom", "phantom.gen_phantom", "span", None),
    (P, "apply_domain_shift", "phantom.apply_domain_shift", "span", None),
    (P, "save_volume", "volume.save", "span", _save_bytes),
    (P, "save_mask", "volume.save", "span", _save_bytes),
    (P, "load_volume", "volume.load", "span", _load_bytes),
    (P, "load_mask", "volume.load", "span", _load_bytes),
    (P, "window_normalize", "preprocess.window_normalize", "span", None),
    (P, "slice_volume", "preprocess.slice_volume", "span", None),
    (P, "build_manifest", "preprocess.manifest", "span", None),
    (P, "split_train_val", "preprocess.manifest", "span", None),
    (P, "write_manifest", "preprocess.manifest", "span", None),
    (P, "read_manifest", "preprocess.manifest", "span", None),
    (P, "window_dir", "pipeline.preprocess", "span", None),
    (P, "slice_dir", "pipeline.preprocess", "span", None),
    (P, "train_stage1_files", "pipeline.stage1", "span", None),
    (P, "train_stage2_files", "pipeline.stage2", "span", None),
    (P, "score_files", "pipeline.score", "span", None),
    (P, "load_train_slices", "pipeline.load_slices", "span", None),
    (P, "load_unlabeled_slices", "pipeline.load_slices", "span", None),
    (P, "load_val_cases", "pipeline.load_slices", "span", None),
    (P, "save_checkpoint", "model.checkpoint", "span", None),
    (P, "load_checkpoint", "model.checkpoint", "span", None),
    (P, "run_stage1", "ssl.stage1", "stage", _labeled_fg),
    (P, "run_stage2", "ssl.stage2", "stage", None),
    (P, "evaluate_masks", "metrics.evaluate", "span", _pred_voxels),
    (S, "fta_augment_pair", "fourier.fta_pair", "span", None),
    (S, "adamw_step", "model.adamw", "span", _step),
    (S, "consistency_loss", "ssl.consistency", "span", _confident),
    (S, "update_threshold", "ssl.threshold", "span", _tau),
    (S, "generate_pseudo_labels", "ssl.pseudo_label", "span", _pseudo_fg),
    (S, "evaluate_volumes", "ssl.validate", "span", None),
    (S, "evaluate_masks", "metrics.evaluate", "span", _pred_voxels),
    (M, "forward_cache_multi", "model.forward", "span", _forward_rows),
    (M, "forward_cache", "model.forward", "span", _forward_rows),
    (M, "grad_from_logit_grad", "model.backward", "span", _backward_rows),
)
