"""The iksea benchmark: one command, every metric with its unit, outputs checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  Workloads: big-jobs, small-jobs (see
jobs.py and BENCHMARK.json).

A run executes passes until the next pass would end after S seconds, with at
least MIN_PASSES.  Each pass is a fresh interpreter (passrun.py) that first
imports ``iksea.cli``, then runs all of the workload's jobs and checks their
outputs against the recorded reference.  Set-up time is measured on every
pass, from spawning the interpreter until the import has finished; runs with
fewer than SETUP_SAMPLES passes add import-only starts to reach that many.

--trace 0 reports the end-to-end metrics (medians over the passes):
  setup_s       s         fresh interpreter until iksea.cli.main is importable
  points_per_s  points/s  completed points / pass wall time
  peak_rss_mb   MB        peak resident memory of the pass process
  ok_ratio      ratio     jobs that exited 0 with correct outputs / jobs run
                          (1 - error_ratio; error_ratio is printed as well)

--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of the traced passes (see tracer.layer_metrics), the cumulative
import time of iksea.oracle (the passes run under -X importtime), and
points_per_s traced and untraced with the difference as tracing overhead.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  A per-run record with machine info and every pass is
written to .bench_results/.  The exit code is non-zero, with no result
line, if the program cannot be imported from ./src or a pass crashes.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from jobs import WORKLOADS  # noqa: E402

RESULTS_DIR = ".bench_results"
MIN_PASSES = 2
#: set-up samples per run; runs with fewer passes add import-only starts
SETUP_SAMPLES = 5
PASS_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "points_per_s": "points/s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

#: per-layer metric -> unit; counts repeat exactly from pass to pass
PER_LAYER = {
    "model.block_elements.calls": "count",
    "model.block_elements.self_s": "s",
    "ground.ground_qfi.calls": "count",
    "ground.ground_qfi.modes": "count",
    "ground.ground_qfi.self_s": "s",
    "ground.ground_qfi.ns_per_mode": "ns",
    "dynamics.dynamical_qfi.calls": "count",
    "dynamics.dynamical_qfi.modes": "count",
    "dynamics.dynamical_qfi.self_s": "s",
    "dynamics.dynamical_qfi.ns_per_mode": "ns",
    "dynamics.rescaled_share": "ratio",
    "scaling.power_law_fit.calls": "count",
    "scaling.power_law_fit.self_s": "s",
    "scaling.sweep.self_s": "s",
    "oracle.spectral_decomposition.calls": "count",
    "oracle.spectral_decomposition.self_s": "s",
    "oracle.spectrum_match_error.self_s": "s",
    "oracle.fit_energy_scale.self_s": "s",
    "oracle.dense_evolution_qfi.self_s": "s",
    "oracle.run_oracle_suite.self_s": "s",
    "runner.run_grid.calls": "count",
    "runner.run_grid.self_s": "s",
    "runner.item_wait_s": "s",
    "runner.sha256_file.bytes": "bytes",
    "runner.sha256_file.self_s": "s",
    "runner.Manifest.write.self_s": "s",
    "config.RunConfig.from_file.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.write.self_s": "s",
    "cli.write.bytes": "bytes",
    "cli.files_byte_identical": "count",
    "setup.oracle_import_s": "s",
    "trace.points_per_s_untraced": "points/s",
    "trace.points_per_s_traced": "points/s",
    "trace.overhead": "ratio",
}


def child_env(root: str) -> dict:
    """Environment of every child: the program from ./src, BLAS on one thread.

    Threads per job (pool plus BLAS) then stay within the worker count the
    job asks for, which jobs.py keeps within nproc.
    """
    env = dict(os.environ)
    env.pop("IKSEA_WORKERS", None)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def check_program(root: str) -> None:
    for path in ("src/iksea/cli.py", "configs"):
        if not os.path.exists(os.path.join(root, path)):
            raise SystemExit(f"bench: {path} not found under {root}; run from "
                             f"the root of an iksea checkout")


def oracle_import_s(stderr: str) -> float:
    """Cumulative import time of iksea.oracle from -X importtime output."""
    match = re.search(r"^import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*iksea\.oracle$",
                      stderr, re.MULTILINE)
    if match is None:
        raise SystemExit("bench: iksea.oracle missing from -X importtime")
    return int(match.group(1)) / 1e6


def run_pass(root: str, env: dict, args, trace: int, index: int) -> dict:
    """One pass in a fresh interpreter; its result with set-up time added."""
    stem = os.path.join(root, RESULTS_DIR,
                        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    result = f"{stem}-pass{index}.json"
    cmd = [sys.executable, os.path.join(HERE, "passrun.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(trace), "--root", root, "--result", result]
    if args.trace:
        cmd[1:1] = ["-X", "importtime"]
    if trace:
        cmd += ["--spans", f"{stem}-spans.npz"]
    spawned = time.perf_counter()
    proc = subprocess.run(cmd, env=env, timeout=PASS_TIMEOUT_S,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench: pass {index} exited {proc.returncode}")
    with open(result, encoding="utf-8") as fh:
        body = json.load(fh)
    os.remove(result)
    body["setup_s"] = body.pop("imported_at") - spawned
    if args.trace:
        body["oracle_import_s"] = oracle_import_s(proc.stderr)
    return body


def setup_samples(root: str, env: dict, count: int) -> list:
    """Set-up times of ``count`` import-only starts of passrun.py."""
    cmd = [sys.executable, os.path.join(HERE, "passrun.py"), "--root", root,
           "--import-only"]
    times = []
    for _ in range(count):
        spawned = time.perf_counter()
        out = subprocess.run(cmd, env=env, timeout=60, check=True,
                             capture_output=True, text=True).stdout
        times.append(float(out.split()[-1]) - spawned)
    return times


def points_per_s(p: dict) -> float:
    """Completed points per second of the pass's job time."""
    return sum(j["points"] for j in p["jobs"] if not j["failed"]) / p["pass_s"]


def run_passes(root: str, env: dict, args) -> list:
    """Passes until the next would end after --seconds (at least MIN_PASSES).

    With --trace 1 the passes alternate untraced, traced, ...
    """
    passes, walls = [], []
    start = time.perf_counter()
    while True:
        trace = len(passes) % 2 if args.trace else 0
        t0 = time.perf_counter()
        passes.append(run_pass(root, env, args, trace, len(passes)))
        walls.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and \
                elapsed + statistics.median(walls) > args.seconds:
            return passes


def layer_summary(traced: list, untraced: list) -> dict:
    """Per-layer metrics: counts of the first traced pass, else medians."""
    out = {}
    for name, value in traced[0]["layers"].items():
        if PER_LAYER[name] in ("count", "bytes"):
            out[name] = value
        else:
            out[name] = statistics.median(p["layers"][name] for p in traced)
    plain = statistics.median(points_per_s(p) for p in untraced)
    with_trace = statistics.median(points_per_s(p) for p in traced)
    out["trace.points_per_s_untraced"] = plain
    out["trace.points_per_s_traced"] = with_trace
    out["trace.overhead"] = 1.0 - with_trace / plain if plain else 0.0
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    check_program(root)
    os.makedirs(os.path.join(root, RESULTS_DIR), exist_ok=True)
    env = child_env(root)

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace}
    passes = run_passes(root, env, args)

    jobs = [j for p in passes for j in p["jobs"]]
    attempted = len(jobs)
    failed = sum(j["failed"] for j in jobs)
    correct = not any(j["wrong"] for j in jobs)
    if args.trace:
        traced = [p for p in passes if p["trace"]]
        metrics = layer_summary(traced, [p for p in passes if not p["trace"]])
        metrics["setup.oracle_import_s"] = statistics.median(
            p["oracle_import_s"] for p in passes)
        units = PER_LAYER
        record["counts_repeat"] = all(
            len({p["layers"][k] for p in traced}) == 1
            for k, unit in PER_LAYER.items()
            if unit in ("count", "bytes") and k in traced[0]["layers"])
    else:
        setup = [p["setup_s"] for p in passes]
        setup += setup_samples(root, env, SETUP_SAMPLES - len(setup))
        record["setup_samples"] = setup
        metrics = {
            "setup_s": statistics.median(setup),
            "points_per_s": statistics.median(points_per_s(p) for p in passes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            "ok_ratio": (attempted - failed) / attempted,
        }
        units = END_TO_END
    missing = set(units) - set(metrics)
    if missing:
        raise SystemExit(f"bench: metrics not produced: {sorted(missing)}")

    record.update(machine=passes[0]["machine"], passes=passes, metrics=metrics)
    out = os.path.join(root, RESULTS_DIR,
                       f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"machine: {json.dumps(passes[0]['machine'], sort_keys=True)}")
    print(f"workload {args.workload}, seed {args.seed}, {len(passes)} passes, "
          f"{attempted} jobs, {failed} failed, error_ratio "
          f"{failed / attempted:.6g}")
    for job in passes[0]["jobs"]:
        if job["failed"]:
            print(f"  failed job {job['name']}: {job['detail']}")
    for name, unit in units.items():
        print(f"  {name:40s} {metrics[name]:>16.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
