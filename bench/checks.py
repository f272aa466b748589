"""Output checks applied to every benchmark run.

The checker reads the documented formats itself instead of reusing the
program's constants, so a change to the program's output shows as a
failure here rather than moving the check along with it.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

SCORES_HEADER = "case,dice,iou,hd_raw,hd_norm,score"
WEIGHTS = (0.4, 0.3, 0.3)
# Rows hold 6 decimals; the mean of rounded rows and the rounded mean, and
# a score recomputed from rounded terms, differ by at most a few units of
# the last place.
TOL = 3e-6


def check_scores(text: str, cases: list[str], dims: tuple[int, int, int]) -> list[str]:
    """Problems with a ``scores.csv``: header, one row per validation case in
    case order, a final mean row, values in range, each score equal to its
    weighted terms and the mean row equal to the mean of the case rows."""
    lines = text.splitlines()
    if not lines or lines[0] != SCORES_HEADER:
        return [f"bad header {lines[:1]}"]
    rows = [line.split(",") for line in lines[1:]]
    names = [r[0] for r in rows]
    if names != cases + ["mean"]:
        return [f"rows {names} do not match cases {cases} plus mean"]
    try:
        values = [[float(v) for v in r[1:]] for r in rows]
    except ValueError as exc:
        return [f"non-numeric value: {exc}"]
    if any(len(v) != 5 for v in values):
        return ["row does not hold 5 values"]
    extent = sum(d - 1 for d in dims)
    problems = []
    for name, (dice, iou, hd_raw, hd_norm, score) in zip(names, values):
        for label, val in (("dice", dice), ("iou", iou), ("hd_norm", hd_norm),
                           ("score", score)):
            if not 0.0 <= val <= 1.0:
                problems.append(f"{name}: {label} {val} outside [0, 1]")
        if not 0.0 <= hd_raw <= extent:
            problems.append(f"{name}: hd_raw {hd_raw} outside [0, {extent}]")
        if name != "mean" and abs(hd_norm - hd_raw / extent) > TOL:
            problems.append(f"{name}: hd_norm {hd_norm} != hd_raw / {extent}")
        expect = WEIGHTS[0] * dice + WEIGHTS[1] * iou + WEIGHTS[2] * (1.0 - hd_norm)
        if abs(score - expect) > TOL:
            problems.append(f"{name}: score {score} != weighted terms {expect:.6f}")
    case_rows = values[:-1]
    for col, label in enumerate(SCORES_HEADER.split(",")[1:]):
        mean = sum(r[col] for r in case_rows) / len(case_rows)
        if abs(values[-1][col] - mean) > TOL:
            problems.append(f"mean row {label} {values[-1][col]} != {mean:.6f}")
    return problems


def check_checkpoints(paths: list[Path]) -> list[str]:
    """Problems loading the checkpoints with the program's own loader."""
    import numpy as np
    from ftaseg.errors import FtasegError
    from ftaseg.model import load_checkpoint

    problems = []
    for path in paths:
        try:
            model, _ = load_checkpoint(path)
        except (OSError, FtasegError) as exc:
            problems.append(f"{path.name}: {exc}")
            continue
        if not np.all(np.isfinite(model.params)):
            problems.append(f"{path}: non-finite parameters")
    return problems


def digest(paths: list[Path]) -> str:
    """One hash over the bytes of several files, in order."""
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()
