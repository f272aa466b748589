"""Golden output digests: the arms ``tests/test_golden.py`` runs, and the
command that rewrites ``tests/golden.json``.

Each arm is a tiny ``run_pipeline`` config on the synthesized benchmark. A
run's digests are the SHA-256 of its scores, validation history, stage
manifests, labeled slice manifest, pseudo masks and checkpoints, and for
``DATA_ARM`` of every file the run synthesized under ``data/``. Checkpoint
bytes depend on the BLAS kernel (the OpenBLAS core type) and on the number
of threads BLAS runs, so their digests are kept per kernel and thread count
(see ``blas_key``); the other files are kept once. Each mask file
(``*_mask.vol``) also has the digest of the array it decodes to, kept under
``decoded_masks``: a change of mask encoding changes the file digests of
masks and nothing else.

Each spec in ``GENERATED`` is only synthesized, with ``generate_benchmark``,
and the digests of every file it writes are kept. Together they reach each
branch of the phantom generator: a per-volume foreground level
(``fg_spread > 0``), a gamma shift, no bias field (``shift_field = 0``),
and ellipsoids whose bounding boxes reach the border of the grid.

Rewrite the file after a change that is meant to change outputs, and name
each changed digest with the change:

    PYTHONPATH=src python tests/golden.py

This keeps the checkpoint digests of other kernels and thread counts as
they are, and prints each digest that changed, was added or was dropped.
``OPENBLAS_NUM_THREADS=1`` before the command writes the one-thread entry,
the count an ``ftaseg`` run uses.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from ftaseg.phantom import BenchmarkSpec
from ftaseg.pipeline import (
    MASK_SUFFIX,
    PipelineConfig,
    generate_benchmark,
    run_pipeline,
)
from ftaseg.volume import (
    MaskVolume,
    Volume,
    load_mask,
    load_volume,
    save_mask,
    save_volume,
)

GOLDEN = Path(__file__).with_name("golden.json")

_TINY = dict(
    synth_dim=16, synth_labeled=2, synth_unlabeled=4, synth_val=2,
    synth_radius_min=2.0, synth_radius_max=4.0, stage1_pseudo_count=2,
    stage1_epochs=1, stage2_iters=20, val_points=2, lr=1e-3,
)

NON_CUBIC = "non-cubic"
# Reads the synthesized labeled and unlabeled sets from data directories,
# with no validation set: the slice split holds one labeled volume out whole,
# and the score stage scores its planes.
BY_VOLUME = "by-volume"

ARMS = {
    "full": PipelineConfig(**_TINY),
    "standard-fda": PipelineConfig(**_TINY, fta_mode="standard-fda"),
    "supervised-only": PipelineConfig(**_TINY, supervised_only=True),
    NON_CUBIC: PipelineConfig(**_TINY),
    BY_VOLUME: PipelineConfig(**_TINY, split_by_volume=True),
}

# The arms share one benchmark spec, so one arm's data stands for all.
DATA_ARM = "full"

# The NON_CUBIC arm's dims, keyed by volume id or else by directory; a
# volume with neither keeps its synthesized 16^3. The pool keeps POOL_ID
# (stage 1 pseudo-annotates unl_001 and unl_003), and no labeled plane has
# the shapes of its planes, so their strong views take donors from the
# pool, unpaired with any labeled plane.
CROPS = {
    "labeled": (16, 14, 12),
    "val": (16, 14, 12),
    "unl_000": (10, 12, 12),
    "unl_002": (12, 16, 14),
}
POOL_ID = "unl_000"

GENERATED = {
    # Radii up to nearly half the grid: most ellipsoids touch its border.
    "border": BenchmarkSpec(
        dim=16, labeled=2, unlabeled=2, val=2, ellipsoids=2, radius_min=1.5,
        radius_max=7.5, fg_spread=150.0, shift_gamma=1.15, shift_field=60.0,
    ),
    "no-field": BenchmarkSpec(
        dim=12, labeled=1, unlabeled=1, val=1, ellipsoids=3, radius_min=1.5,
        radius_max=3.0, shift_field=0.0, seed=1,
    ),
}

CHECKPOINTS = ("stage1/checkpoint.seg", "stage2/checkpoint.seg")


def blas_key() -> str:
    """Name of the OpenBLAS kernel numpy's BLAS runs and the number of
    threads it runs with, as ``"<kernel>, threads=<n>"``: the key of the
    checkpoint digests. The kernel is ``"unknown"`` when numpy does not
    bundle scipy-openblas, and so is the count when the library cannot
    report it."""
    core, threads = "unknown", "unknown"
    libs = os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so*"))):
        handle = ctypes.CDLL(path)
        name = getattr(handle, "scipy_openblas_get_corename64_", None)
        if name is None:
            continue
        name.argtypes, name.restype = [], ctypes.c_char_p
        core = name().decode()
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            count = getattr(handle, sym, None)
            if count is not None:
                count.argtypes, count.restype = [], ctypes.c_int
                threads = str(count())
                break
        break
    return f"{core}, threads={threads}"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _decoded_masks(root: Path, files: list[str]) -> dict[str, str]:
    """SHA-256 of the decoded array of each mask among ``files``."""
    return {f: hashlib.sha256(load_mask(root / f).data.tobytes()).hexdigest()
            for f in files if f.endswith(f"{MASK_SUFFIX}.vol")}


def _tree(root: Path) -> list[str]:
    return sorted(p.relative_to(root).as_posix()
                  for p in root.rglob("*") if p.is_file())


def _cropped_data(out: Path) -> dict[str, str]:
    """Synthesize ``DATA_ARM``'s benchmark under ``out/synth`` and write its
    volumes, cropped to ``CROPS``, under ``out/data``; returns the data
    directory keys of a ``PipelineConfig``."""
    generate_benchmark(ARMS[DATA_ARM].benchmark_spec(), out / "synth")
    dirs = {}
    for sub in ("labeled", "unlabeled", "val"):
        (out / "data" / sub).mkdir(parents=True)
        for path in sorted((out / "synth" / sub).glob("*.vol")):
            vid = path.stem.removesuffix("_mask")
            d, h, w = CROPS.get(vid, CROPS.get(sub, (None,) * 3))
            dst = out / "data" / sub / path.name
            if path.stem.endswith("_mask"):
                save_mask(MaskVolume(load_mask(path).data[:d, :h, :w]), dst)
            else:
                save_volume(Volume(load_volume(path).data[:d, :h, :w]), dst)
        dirs[f"{sub}_dir"] = str(out / "data" / sub)
    return dirs


def run_arm(
    name: str, out: Path
) -> tuple[dict[str, str], dict[str, str], dict[str, str]]:
    """Run arm ``name`` into ``out``; returns the digests of its
    kernel-independent files, of its checkpoints and of its decoded masks,
    keyed by relative path."""
    cfg = ARMS[name]
    if name == NON_CUBIC:
        cfg = replace(cfg, **_cropped_data(out))
    elif name == BY_VOLUME:
        generate_benchmark(cfg.benchmark_spec(), out / "data")
        cfg = replace(cfg, labeled_dir=str(out / "data" / "labeled"),
                      unlabeled_dir=str(out / "data" / "unlabeled"))
    run_pipeline(cfg, out)
    files = ["scores.csv", "stage2/metrics.csv", "stage1/manifest.txt",
             "stage2/manifest.txt", "slices/labeled/manifest.csv"]
    files += sorted(p.relative_to(out).as_posix()
                    for p in (out / "stage1" / "pseudo").glob("*.vol"))
    if name == DATA_ARM:
        files += [f"data/{f}" for f in _tree(out / "data")]
    return ({f: _sha256(out / f) for f in files},
            {f: _sha256(out / f) for f in CHECKPOINTS},
            _decoded_masks(out, files))


def generate(name: str, out: Path) -> tuple[dict[str, str], dict[str, str]]:
    """Synthesize spec ``name`` of ``GENERATED`` into ``out``; returns the
    digests of every file written and of its decoded masks, keyed by
    relative path."""
    generate_benchmark(GENERATED[name], out)
    files = _tree(out)
    return {f: _sha256(out / f) for f in files}, _decoded_masks(out, files)


def _leaves(tree: dict, prefix: tuple[str, ...] = ()) -> dict[tuple[str, ...], str]:
    out = {}
    for key, value in tree.items():
        if isinstance(value, dict):
            out.update(_leaves(value, (*prefix, key)))
        else:
            out[(*prefix, key)] = value
    return out


def changes(old: dict, new: dict) -> list[str]:
    """One line per digest that differs between two ``golden.json`` trees:
    ``changed``, ``added`` or ``dropped``, then its section, its arm, spec
    or kernel, and its key."""
    before, after = _leaves(old), _leaves(new)
    lines = []
    for key in sorted(before.keys() | after.keys()):
        if key not in after:
            status = "dropped"
        elif key not in before:
            status = "added"
        elif before[key] != after[key]:
            status = "changed"
        else:
            continue
        lines.append(f"{status} {' / '.join(key)}")
    return lines


def main() -> int:
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    key = blas_key()
    files: dict[str, dict[str, str]] = {}
    ckpts: dict[str, dict[str, str]] = {}
    generated: dict[str, dict[str, str]] = {}
    decoded: dict[str, dict[str, dict[str, str]]] = {"files": {}, "generated": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for name in ARMS:
            files[name], ckpts[name], decoded["files"][name] = run_arm(
                name, Path(tmp) / name)
        for name in GENERATED:
            generated[name], decoded["generated"][name] = generate(
                name, Path(tmp) / "gen" / name)
    checkpoints = {**old.get("checkpoints", {}), key: ckpts}
    golden = {"files": files, "generated": generated,
              "checkpoints": dict(sorted(checkpoints.items())),
              "decoded_masks": decoded}
    GOLDEN.write_text(json.dumps(golden, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN} (checkpoints for OpenBLAS {key})")
    lines = changes(old, golden)
    print("\n".join(lines) if lines else "no digest changed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
