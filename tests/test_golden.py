"""Outputs stay byte-identical across commits: each arm in ``golden.py`` is
run once, each generation-only spec synthesized once, and their file
digests are compared with ``golden.json``.

Checkpoint digests are kept per OpenBLAS kernel. On a kernel that
``golden.json`` has no entry for, ``test_checkpoint_digests`` is reported
as skipped, with the kernel's name and the command that adds its entry; the
other files are checked on every kernel.
"""

from __future__ import annotations

import json

import pytest

from golden import (
    ARMS,
    BY_VOLUME,
    CROPS,
    GENERATED,
    GOLDEN,
    NON_CUBIC,
    POOL_ID,
    blas_core,
    generate,
    run_arm,
)

from ftaseg.preprocess import read_manifest
from ftaseg.volume import read_dims

_EXPECTED = json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    return tmp_path_factory.mktemp("golden")


@pytest.fixture(scope="module")
def runs(out):
    """Digests of every arm, each run once for the module into ``out``."""
    return {name: run_arm(name, out / name) for name in ARMS}


@pytest.mark.parametrize("arm", list(ARMS))
def test_output_digests(runs, arm):
    assert runs[arm][0] == _EXPECTED["files"][arm]


@pytest.mark.parametrize("arm", list(ARMS))
def test_checkpoint_digests(runs, arm):
    core = blas_core()
    if core not in _EXPECTED["checkpoints"]:
        pytest.skip(
            f"golden.json has no checkpoint digests for OpenBLAS kernel {core!r}; "
            "`PYTHONPATH=src python tests/golden.py` adds them"
        )
    assert runs[arm][1] == _EXPECTED["checkpoints"][core][arm]


def test_non_cubic_arm_trains_on_a_pool_volume_of_other_dims(runs, out):
    run = out / NON_CUBIC
    manifest = (run / "stage2" / "manifest.txt").read_text(encoding="utf-8")
    pseudo_ids = next(line.split(" = ")[1] for line in manifest.splitlines()
                      if line.startswith("pseudo_ids = "))
    assert POOL_ID not in pseudo_ids.split(",")
    dims = read_dims(run / "data" / "unlabeled" / f"{POOL_ID}.vol")
    assert dims == CROPS[POOL_ID] != CROPS["labeled"]


def test_by_volume_arm_scores_the_planes_of_one_held_out_volume(runs, out):
    run = out / BY_VOLUME
    manifest = read_manifest(run / "slices" / "labeled" / "manifest.csv")
    held_out = manifest.subset("val")
    assert len({e.source_id for e in held_out}) == 1
    assert len(held_out) == 3 * ARMS[BY_VOLUME].synth_dim
    rows = (run / "scores.csv").read_text(encoding="utf-8").splitlines()
    assert len(rows) == 1 + len(held_out) + 1  # header, planes, mean


@pytest.mark.parametrize("name", list(GENERATED))
def test_generated_digests(tmp_path, name):
    assert generate(name, tmp_path) == _EXPECTED["generated"][name]
