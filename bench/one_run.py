"""One pipeline run in a fresh process, so import time and peak RSS belong
to this run alone.

    python3 bench/one_run.py --workload W --seed N --workdir DIR --result FILE
                             [--spans FILE | --setup-only]

Set-up imports ``ftaseg`` and generates the workload's inputs into
``DIR/data``; then ``run_pipeline`` writes its run directory to ``DIR/run``.
With ``--spans`` the run is traced: wrappers are installed before the
inputs are generated, removed after the pipeline returns, and the spans
are written to that file. With ``--setup-only`` the run stops after
set-up, which gives set-up time another sample at little cost.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up time includes the import of ftaseg

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import overrides  # noqa: E402


def blas_info() -> tuple[str, int | None]:
    """BLAS library name and version, and the thread count it runs with."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        name = "unknown"
    threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = {ln.split()[-1] for ln in f if "openblas" in ln.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
    return name, threads


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas, threads = blas_info()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--spans", type=Path)
    mode.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    from ftaseg.pipeline import PipelineConfig, generate_benchmark, run_pipeline

    tracer = None
    if args.spans is not None:
        from tracer import WRAPS, Tracer

        tracer = Tracer()
        tracer.install(WRAPS)
    try:
        kw = overrides(args.workload, args.seed)
        data = args.workdir / "data"
        generate_benchmark(PipelineConfig(**kw).benchmark_spec(), data)
        setup_s = time.perf_counter() - T0
        if args.setup_only:
            args.result.write_text(json.dumps({"setup_s": setup_s}), encoding="utf-8")
            return
        cfg = PipelineConfig(
            **kw,
            labeled_dir=str(data / "labeled"),
            unlabeled_dir=str(data / "unlabeled"),
            val_dir=str(data / "val"),
        )
        t1 = time.perf_counter()
        paths = run_pipeline(cfg, args.workdir / "run")
        wall_s = time.perf_counter() - t1
    finally:
        if tracer is not None:
            tracer.restore()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        # Recorded, not reported: they tell contention and page-fault cost
        # apart when wall_s moves.
        "user_s": usage.ru_utime,
        "sys_s": usage.ru_stime,
        "minor_faults": usage.ru_minflt,
        "run_dir": str(paths.out),
        "scores_csv": str(paths.scores_csv),
        "checkpoints": [str(paths.stage1_ckpt), str(paths.stage2_ckpt)],
        "val_dir": str(data / "val"),
        "dims": [cfg.synth_dim] * 3,
        "env": environment(args.seed),
    }
    if tracer is not None:
        tracer.write(args.spans)
        result["layers"] = tracer.layer_metrics()
    args.result.write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
