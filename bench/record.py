"""Record the reference outputs the benchmark checks every pass against.

    python3 bench/record.py        (from the repository root)

Writes bench/reference/:

* outputs.json: exit code, sha256 and parsed data of every output file of
  the seed-independent jobs (big-jobs, and the shipped configs and the fit
  of small-jobs);
* field_scan.csv and field_scan_landmarks.json: the ground-qfi rows and
  phase landmarks of the whole field lattice from which small-jobs draws its
  seeded scan;
* oracle_pool.json: the oracle-check report of every suite seed in the pool
  (and a check that each has the pool's size mix).

Run it only when a change to the program's outputs is intended, and say so
in CHANGES.md: the recorded values are what later commits are held to.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from jobs import (ORACLE_POOL, ORACLE_SIZE_MIX, SCAN_LATTICE, WORKLOADS, Job,
                  lattice_field, make_jobs, oracle_job, scan_config)
from passrun import WORK_DIR, import_program, prepare, run_job
from refcheck import (LANDMARKS_FILE, ORACLE_FILE, OUTPUTS_FILE, REF_DIR,
                      SCAN_FILE, read_data, recorded, sha256)


def run(cli, jobs, root):
    work = os.path.join(root, WORK_DIR, "record")
    for job, argv in zip(jobs, prepare(jobs, root, work)):
        rc, err = run_job(cli.main, argv)
        print(f"{job.name}: exit {rc} {err.strip()[-200:]}")
        yield job, rc, os.path.join(work, job.name)


def main() -> int:
    root = os.getcwd()
    cli = import_program(root)
    configs = os.path.join(root, "configs")

    fixed = [job for w in WORKLOADS
             for job in make_jobs(w, 0, configs, nproc=2) if job.ref == "files"]
    outputs = {job.name: recorded(out, rc) for job, rc, out in run(cli, fixed, root)}

    lattice = Job("scan_lattice", "ground-qfi", scan_config(
        "scan", [lattice_field(k) for k in range(1, SCAN_LATTICE + 1)]))
    os.makedirs(REF_DIR, exist_ok=True)
    [(_, rc, out)] = run(cli, [lattice], root)
    if rc != 0:
        raise SystemExit(f"scan lattice failed with exit {rc}")
    shutil.copyfile(os.path.join(out, "scan.csv"), os.path.join(REF_DIR, SCAN_FILE))
    landmarks = read_data(os.path.join(out, "scan_summary.json"))["landmarks"]

    pool = {}
    for job, rc, out in run(cli, [oracle_job(s) for s in ORACLE_POOL], root):
        path = os.path.join(out, f"{job.name}_report.json")
        report = read_data(path)
        mix = {n: sum(r["quantity"].startswith(f"ground_qfi (N={n},")
                      for r in report["rows"]) for n in ORACLE_SIZE_MIX}
        if mix != ORACLE_SIZE_MIX:
            raise SystemExit(f"{job.name}: size mix {mix} != {ORACLE_SIZE_MIX}")
        pool[job.ref.split(":")[1]] = {"exit": rc, "sha256": sha256(path),
                                       "report": report}

    for fname, body, indent in ((OUTPUTS_FILE, outputs, 1),
                                (LANDMARKS_FILE, landmarks, None),
                                (ORACLE_FILE, pool, None)):
        with open(os.path.join(REF_DIR, fname), "w", encoding="utf-8") as fh:
            json.dump(body, fh, indent=indent, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
