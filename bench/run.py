"""Benchmark harness for the ftaseg pipeline.

    python3 bench/run.py --workload ssl-fta-32 --seed 0 --seconds 20 --trace 0

Runs the real ``ftaseg.pipeline.run_pipeline`` on seeded phantom inputs,
one pipeline at a time (closed loop), each in a fresh process. Every run's
outputs are checked; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: it runs the
workload at ``--seed`` until the runs have taken ``--seconds`` (at least
once) and reports medians over the runs.

``--trace 1`` reports the per-layer metrics: one untraced and one traced
run at ``--seed``.

All runs of one invocation use the same seed, so each must reproduce the
first one's ``scores.csv`` and final checkpoint byte for byte; a traced run
that does not shows a tracer that changed the program's behaviour.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"

# The whole invocation must end within 180 s; no run starts that would
# probably end after this.
HARD_LIMIT_S = 165.0
# Extra set-up-only processes per --trace 0 invocation, so that set-up time
# is a median of at least three samples even when one pipeline run fills
# --seconds.
SETUP_SAMPLES = 2
# Printed and recorded with every result but not in BENCHMARK.json, whose
# bounds they cannot meet: quality moves with the seed by far more than the
# largest bound (see README.md), and failed_frac is 0 when all is well.
UNGATED = {"score_mean": ("fraction", "higher"), "dice_mean": ("fraction", "higher"),
           "failed_frac": ("fraction", "lower")}
# Single-threaded BLAS: the matrices are small, and on a shared 2-core
# machine a second BLAS thread makes timings depend on the neighbours.
BLAS_THREADS = 1

sys.path.insert(0, str(BENCH))

from checks import check_checkpoints, check_scores, digest  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@dataclass
class Run:
    """One pipeline run: its measurements, or why it failed."""

    traced: bool
    result: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    digest: str = ""

    @property
    def ok(self) -> bool:
        return bool(self.result) and not self.problems


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _dir_size(path: Path) -> tuple[int, int]:
    files = [p for p in path.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def execute(workload: str, seed: int, n: int, traced: bool, timeout: float,
            setup_only: bool = False) -> Run:
    """Run the pipeline once in a child process and check its outputs; with
    ``setup_only`` the child only sets up and nothing is checked."""
    run = Run(traced)
    workdir = WORK / f"{workload}-{n}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    result_file = workdir / "result.json"
    cmd = [sys.executable, str(BENCH / "one_run.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", str(workdir),
           "--result", str(result_file)]
    if traced:
        cmd += ["--spans", str(WORK / f"spans-{workload}-{seed}.json")]
    if setup_only:
        cmd += ["--setup-only"]
    try:
        proc = subprocess.run(cmd, env=_child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        run.problems.append(f"timed out after {timeout:.0f} s")
        return run
    if proc.returncode != 0 or not result_file.exists():
        tail = proc.stderr.strip().splitlines()[-3:]
        run.problems.append(f"exit code {proc.returncode}: {' | '.join(tail)}")
        return run
    run.result = res = json.loads(result_file.read_text(encoding="utf-8"))
    if setup_only:
        shutil.rmtree(workdir, ignore_errors=True)
        return run
    files, size = _dir_size(Path(res["run_dir"]))
    res["run_dir_files"] = files
    res["run_dir_mb"] = size / 2**20

    scores = Path(res["scores_csv"])
    ckpts = [Path(p) for p in res["checkpoints"]]
    cases = sorted(p.stem for p in Path(res["val_dir"]).glob("*.vol")
                   if not p.stem.endswith("_mask"))
    text = scores.read_text(encoding="utf-8") if scores.is_file() else ""
    run.problems += check_scores(text, cases, tuple(res["dims"]))
    run.problems += check_checkpoints(ckpts)
    if not run.problems:
        mean = text.splitlines()[-1].split(",")
        res["dice_mean"], res["score_mean"] = float(mean[1]), float(mean[5])
        run.digest = digest([scores, ckpts[-1]])
    shutil.rmtree(workdir, ignore_errors=True)
    return run


def end_to_end(runs: list[Run], setups: list[Run]) -> dict[str, float]:
    ok = [r.result for r in runs if r.ok]
    if not ok:
        return {}
    out = {key: statistics.median(r[key] for r in ok)
           for key in ("wall_s", "peak_rss_mb", "run_dir_files", "run_dir_mb")}
    out["setup_s"] = statistics.median(r.result["setup_s"] for r in runs + setups if r.ok)
    out["score_mean"], out["dice_mean"] = ok[0]["score_mean"], ok[0]["dice_mean"]
    return out


def per_layer(runs: list[Run]) -> dict[str, float]:
    plain = [r.result["wall_s"] for r in runs if r.ok and not r.traced]
    traced = [r.result for r in runs if r.ok and r.traced]
    if not plain or not traced:
        return {}
    out = dict(traced[0]["layers"])
    out["trace.overhead_frac"] = traced[0]["wall_s"] / statistics.median(plain) - 1.0
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = time.monotonic()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import ftaseg  # fail here, before any run, without the sources
    except ImportError as exc:
        print(f"error: cannot import ftaseg from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(ftaseg.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: ftaseg imported from {ftaseg.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    setups = [] if args.trace else [
        execute(args.workload, args.seed, n, False, HARD_LIMIT_S, setup_only=True)
        for n in range(SETUP_SAMPLES)
    ]
    runs: list[Run] = []
    first_digest = ""
    longest = 0.0
    measuring = time.monotonic()
    while True:
        n = len(runs)
        now = time.monotonic()
        if args.trace:
            if n == 2:
                break
        elif n >= 1 and (now - measuring >= args.seconds
                         or now - start + 1.5 * longest > HARD_LIMIT_S):
            break
        traced = bool(args.trace) and n == 1
        run = execute(args.workload, args.seed, n, traced,
                      max(5.0, HARD_LIMIT_S - (now - start)))
        longest = max(longest, time.monotonic() - now)
        runs.append(run)
        if run.ok:
            first_digest = first_digest or run.digest
            if run.digest != first_digest:
                run.problems.append("scores.csv or checkpoint differ from run 1")
        wall = run.result.get("wall_s", float("nan"))
        print(f"run {n + 1}: traced={int(traced)} wall_s={wall:.3f} "
              f"{'ok' if run.ok else 'FAILED ' + '; '.join(run.problems)}", flush=True)

    for r in setups:
        if not r.ok:
            print(f"set-up run FAILED {'; '.join(r.problems)}")
    attempted = len(runs) + len(setups)
    failed = sum(not r.ok for r in runs + setups)
    measured = per_layer(runs) if args.trace else end_to_end(runs, setups)
    measured["failed_frac"] = failed / attempted
    gated = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in gated:
        if m["name"] in measured:
            metrics[m["name"]] = {"value": measured[m["name"]], "unit": m["unit"]}
        else:
            print(f"warning: metric {m['name']} was not measured", file=sys.stderr)
    env = next((r.result["env"] for r in runs if r.result), {})
    print("env " + json.dumps(env))
    table = [(m["name"], m["unit"], m["better"]) for m in gated]
    table += [(name, *UNGATED[name]) for name in UNGATED if name in measured]
    for name, unit, better in table:
        if name in measured:
            print(f"  {name:<34} {measured[name]:>14.6g} {unit:<11} {better}")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": env, "metrics": measured,
              "runs": [{"traced": r.traced, "problems": r.problems,
                        **{k: v for k, v in r.result.items() if k != "layers"}}
                       for r in runs],
              "setup_only_s": [r.result.get("setup_s") for r in setups]}
    (WORK / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
