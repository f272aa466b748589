"""Outputs stay byte-identical across commits: each arm in ``golden.py`` is
run once, each generation-only spec synthesized once, and their file
digests, and the digests of the arrays their masks decode to, are compared
with ``golden.json``.

Checkpoint digests are kept per OpenBLAS kernel and BLAS thread count. On a
kernel and count that ``golden.json`` has no entry for,
``test_checkpoint_digests`` is reported as skipped, naming both and the
command that adds their entry; the other files are checked on every kernel.
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
    blas_key,
    changes,
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


@pytest.fixture(scope="module")
def generated(out):
    """Digests of every generation-only spec, each synthesized once."""
    return {name: generate(name, out / "gen" / name) for name in GENERATED}


@pytest.mark.parametrize("arm", list(ARMS))
def test_output_digests(runs, arm):
    assert runs[arm][0] == _EXPECTED["files"][arm]


@pytest.mark.parametrize("arm", list(ARMS))
def test_checkpoint_digests(runs, arm):
    key = blas_key()
    if key not in _EXPECTED["checkpoints"]:
        pytest.skip(
            f"golden.json has no checkpoint digests for OpenBLAS {key!r} "
            "(kernel, thread count); `PYTHONPATH=src python tests/golden.py` "
            "under the same OPENBLAS_NUM_THREADS adds them"
        )
    assert runs[arm][1] == _EXPECTED["checkpoints"][key][arm]


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
def test_generated_digests(generated, name):
    assert generated[name][0] == _EXPECTED["generated"][name]


@pytest.mark.parametrize(
    "section, name",
    [("files", arm) for arm in ARMS] + [("generated", spec) for spec in GENERATED],
)
def test_decoded_mask_digests(runs, generated, section, name):
    decoded = runs[name][2] if section == "files" else generated[name][1]
    assert decoded == _EXPECTED["decoded_masks"][section][name]
    # Every mask file whose bytes are pinned has its array pinned too.
    digests = _EXPECTED[section][name]
    assert sorted(decoded) == sorted(f for f in digests if f.endswith("_mask.vol"))


def test_changes_names_each_changed_added_and_dropped_digest():
    old = {"files": {"a": {"x": "1", "y": "2"}}, "checkpoints": {"K": {"a": {"c": "3"}}}}
    new = {"files": {"a": {"x": "9", "z": "4"}}, "checkpoints": {"K": {"a": {"c": "3"}}}}
    assert changes(old, new) == [
        "changed files / a / x", "dropped files / a / y", "added files / a / z",
    ]
    assert changes(new, new) == []
