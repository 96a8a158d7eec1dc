"""Run one benchmark pass in this (fresh) interpreter and write its result.

    python3 bench/passrun.py --root CHECKOUT --workload W --seed N
                             --trace 0|1 --result FILE [--spans FILE]
    python3 bench/passrun.py --root CHECKOUT --import-only

The first thing it does is import ``iksea.cli``; the result records the
``time.perf_counter()`` reading (system-wide monotonic clock) at which the
import finished, so run.py can time set-up from its own spawn time.  Every
job of the pass is an ``iksea.cli.main`` call in this process; the pass time
covers the jobs only.  After the jobs, each job's outputs are compared with
the recorded reference.  With ``--trace 1`` the layers are
wrapped by :class:`tracer.Tracer` during the pass, and the per-layer metrics
and spans are written out afterwards.  run.py starts one of these per pass,
so every pass starts from the same process state.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback

import numpy as np

from jobs import make_jobs, rescaled_pairs
from refcheck import References
from tracer import Tracer, layer_metrics

WORK_DIR = ".bench_work"


def import_program(root: str):
    """Import iksea.cli from the checkout's src/, never from elsewhere."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import iksea
    where = os.path.realpath(iksea.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"iksea imported from {where}, not from {src}")
    from iksea import cli
    return cli


def machine_info() -> dict:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def run_job(main, argv):
    """(exit code, captured stderr) of one CLI call."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:        # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:                # a bug, not a contracted error
            traceback.print_exc()
            rc = -1
    return rc, err.getvalue()


def prepare(jobs, root: str, work: str):
    """Fresh output directory and config file per job; the CLI argv of each."""
    shutil.rmtree(work, ignore_errors=True)
    argvs = []
    for job in jobs:
        out_dir = os.path.join(work, job.name)
        os.makedirs(out_dir)
        if job.shipped:
            cfg_path = os.path.join(root, "configs", job.shipped)
        else:
            cfg_path = os.path.join(out_dir, "job.cfg")
            with open(cfg_path, "w", encoding="utf-8") as fh:
                fh.write(job.config)
        argvs.append(job.argv(cfg_path, out_dir))
    return argvs


def save_spans(path: str, spans: dict, names: list) -> None:
    """Write the pass's spans: ids and names as integers, times in seconds."""
    ints = {"id": np.int32, "parent": np.int32, "name": np.int16, "job": np.int16}
    np.savez_compressed(path, names=np.array(names), **{
        k: v.astype(ints.get(k, np.float64)) for k, v in spans.items()})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True)
    ap.add_argument("--import-only", action="store_true",
                    help="print the import-finished clock reading and exit")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result")
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    root = os.path.abspath(args.root)
    cli = import_program(root)
    imported_at = time.perf_counter()
    if args.import_only:
        print(repr(imported_at))
        return 0
    if args.workload is None or args.seed is None or args.result is None:
        ap.error("--workload, --seed and --result are required for a pass")
    jobs = make_jobs(args.workload, args.seed, os.path.join(root, "configs"),
                     nproc=len(os.sched_getaffinity(0)))

    work = os.path.join(root, WORK_DIR, args.workload)
    argvs = prepare(jobs, root, work)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    runs = []
    try:
        t0 = time.perf_counter()
        for i, argv_i in enumerate(argvs):
            if tracer is not None:
                tracer.job = i
            runs.append(run_job(cli.main, argv_i))
        pass_s = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    refs = References()

    job_results = []
    for job, (rc, err) in zip(jobs, runs):
        check = refs.check(job, rc, os.path.join(work, job.name))
        job_results.append({
            "name": job.name, "exit": rc, "points": job.points,
            "failed": check.failed, "wrong": check.wrong,
            "identical": check.identical,
            "detail": check.detail or err.strip()[-400:],
        })
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "imported_at": imported_at, "pass_s": pass_s,
        "peak_rss_mb": peak_rss_mb,
        "jobs": job_results, "machine": machine_info(),
    }
    if tracer is not None:
        spans = tracer.spans()
        layers = layer_metrics(spans, tracer.names)
        rescaled, pairs = rescaled_pairs(jobs)
        layers["dynamics.rescaled_share"] = rescaled / pairs if pairs else 0.0
        layers["cli.files_byte_identical"] = sum(j["identical"] for j in job_results)
        result["layers"] = layers
        if args.spans:
            save_spans(args.spans, spans, tracer.names)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
