"""The benchmark's workloads: ``PipelineConfig`` overrides per workload.

All of them train at ``lr = 1e-3``: at the default ``1e-4`` these short
budgets leave both methods near initialisation, with probabilities on the
0.5 cut, so the quality metrics would flip on rounding changes.
"""

from __future__ import annotations

COMMON = {"lr": 1e-3}

WORKLOADS: dict[str, dict] = {
    # The paper's method: stage 2 (FTA pairs, consistency loss, forward and
    # backward of four views) takes most of the time.
    "ssl-fta-32": {"stage1_epochs": 2, "stage2_iters": 200, "val_points": 2},
    # Paired baseline on the same data and budget; FTA, consistency,
    # threshold and pseudo-labelling do no work here.
    "supervised-32": {
        "stage1_epochs": 2, "stage2_iters": 200, "val_points": 2,
        "supervised_only": True,
    },
    # Wide volumes, little training: volume I/O, slicing, pseudo-labelling
    # and forward-only validation and scoring take the time.
    "ingest-infer-48": {
        "synth_dim": 48, "synth_labeled": 2, "synth_unlabeled": 40,
        "synth_val": 20, "stage1_pseudo_count": 20, "stage1_epochs": 1,
        "stage2_iters": 1, "val_points": 1,
    },
}


def overrides(workload: str, seed: int) -> dict:
    """``PipelineConfig`` keyword arguments of one workload at one seed."""
    return {**COMMON, **WORKLOADS[workload], "seed": seed}
