"""Compare a pass's output files with the reference recorded by record.py.

Non-float cells must match exactly and floats to REL_TOL relative, the
dense-oracle columns included.  Those depend on the BLAS thread count (run.py
pins BLAS to one thread, as the references were recorded).

A job whose recorded exit code is non-zero (a known failure at the commit
the reference was recorded on) counts as failed while it keeps failing, but
not as wrong; if it starts to succeed, nothing is recorded to check its
outputs against.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from dataclasses import dataclass
from typing import Dict, List

from jobs import Job, SCAN_SIZES, parse_config

REL_TOL = 1e-12

REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
OUTPUTS_FILE = "outputs.json"
SCAN_FILE = "field_scan.csv"
LANDMARKS_FILE = "field_scan_landmarks.json"
ORACLE_FILE = "oracle_pool.json"


@dataclass
class Check:
    failed: bool          # exited non-zero or an output is off the reference
    wrong: bool           # an output or exit code contradicts a recorded success
    identical: int = 0    # output files byte-identical to the recorded ones
    detail: str = ""


# ------------------------------------------------------------- reading files


def data_files(out_dir: str) -> List[str]:
    """Data files a job wrote (everything but the manifest), sorted."""
    if not os.path.isdir(out_dir):
        return []
    return sorted(f for f in os.listdir(out_dir)
                  if not f.endswith("_manifest.json") and not f.endswith(".cfg"))


def read_data(path: str):
    """CSV as a list of rows of cells; JSON parsed."""
    if path.endswith(".csv"):
        with open(path, encoding="utf-8", newline="") as fh:
            return list(csv.reader(fh))
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# --------------------------------------------------------------- comparisons


def _close(a: float, b: float) -> bool:
    if a == b:
        return True
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def cell_text(value) -> str:
    """A JSON value written the way the CLI writes CSV cells."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def cells_match(got: str, exp: str) -> bool:
    if got == exp:
        return True
    try:
        return _close(float(got), float(exp))
    except ValueError:
        return False


def values_match(got, exp) -> bool:
    """Recursive JSON comparison: floats to REL_TOL relative, the rest exact."""
    if isinstance(exp, bool) or isinstance(got, bool):
        return got is exp
    if isinstance(exp, (int, float)) and isinstance(got, (int, float)):
        if isinstance(exp, int) and isinstance(got, int):
            return got == exp
        return _close(float(got), float(exp))
    if isinstance(exp, dict):
        return isinstance(got, dict) and got.keys() == exp.keys() and all(
            values_match(got[k], exp[k]) for k in exp)
    if isinstance(exp, list):
        return isinstance(got, list) and len(got) == len(exp) and all(
            values_match(g, e) for g, e in zip(got, exp))
    return got == exp


def rows_match(got: list, exp: list) -> bool:
    return len(got) == len(exp) and all(
        len(g) == len(e) and all(cells_match(a, b) for a, b in zip(g, e))
        for g, e in zip(got, exp))


def data_match(got, exp) -> bool:
    if isinstance(exp, list) and exp and isinstance(exp[0], list):
        return isinstance(got, list) and rows_match(got, exp)
    return values_match(got, exp)


# ---------------------------------------------------------------- references


class References:
    """The recorded outputs, loaded once per pass."""

    def __init__(self):
        with open(os.path.join(REF_DIR, OUTPUTS_FILE), encoding="utf-8") as fh:
            self.outputs: Dict[str, dict] = json.load(fh)
        header, *rows = read_data(os.path.join(REF_DIR, SCAN_FILE))
        self.scan_header = header
        self.scan_rows = {(row[0], row[1]): row for row in rows}
        self.scan_landmarks = read_data(os.path.join(REF_DIR, LANDMARKS_FILE))
        with open(os.path.join(REF_DIR, ORACLE_FILE), encoding="utf-8") as fh:
            self.oracle: Dict[str, dict] = json.load(fh)

    def check(self, job: Job, rc: int, out_dir: str) -> Check:
        if job.ref == "files":
            return self._check_files(job, rc, out_dir, self.outputs[job.name])
        if job.ref == "scan":
            return self._check_scan(job, rc, out_dir)
        seed = job.ref.split(":", 1)[1]
        return self._check_oracle(job, rc, out_dir, self.oracle[seed])

    def _check_files(self, job: Job, rc: int, out_dir: str, ref: dict) -> Check:
        if ref["exit"] != 0:
            if rc != 0:
                return Check(failed=True, wrong=False,
                             detail=f"exit {rc} (recorded exit {ref['exit']})")
            return Check(failed=False, wrong=False,
                         detail=f"exit 0 (recorded exit {ref['exit']}); "
                                f"no reference outputs to compare")
        if rc != 0:
            return Check(failed=True, wrong=True, detail=f"exit {rc}, recorded 0")
        files = ref["files"]
        found = data_files(out_dir)
        if found != sorted(files):
            return Check(failed=True, wrong=True,
                         detail=f"files {found} != recorded {sorted(files)}")
        check = Check(failed=False, wrong=False)
        for fname, rec in files.items():
            path = os.path.join(out_dir, fname)
            check.identical += sha256(path) == rec["sha256"]
            if not data_match(read_data(path), rec["data"]):
                check.failed = check.wrong = True
                check.detail = f"{fname} differs from the reference"
        return check

    def expected_scan(self, job: Job):
        """(rows including header, summary) the seeded scan must reproduce."""
        fields = parse_config(job.config).get("grid", "h_values").split()
        keys = ["%.17g" % float(h) for h in fields]
        rows = [self.scan_header] + [self.scan_rows[str(n), k]
                                     for n in SCAN_SIZES for k in keys]
        summary = {"command": "ground-qfi", "rows": len(rows) - 1,
                   "landmarks": {k: self.scan_landmarks[k] for k in keys}}
        return rows, summary

    def _check_scan(self, job: Job, rc: int, out_dir: str) -> Check:
        if rc != 0:
            return Check(failed=True, wrong=True, detail=f"exit {rc}, recorded 0")
        rows, summary = self.expected_scan(job)
        fmt = "json" if "json" in job.flags else "csv"
        expected_files = sorted([f"scan.{fmt}", "scan_summary.json"])
        found = data_files(out_dir)
        if found != expected_files:
            return Check(failed=True, wrong=True,
                         detail=f"files {found} != expected {expected_files}")
        data = read_data(os.path.join(out_dir, f"scan.{fmt}"))
        if fmt == "json":
            header = rows[0]
            if any(not isinstance(rec, dict) or list(rec) != header for rec in data):
                return Check(failed=True, wrong=True,
                             detail="scan.json records lack the CSV columns")
            data = [header] + [[cell_text(v) for v in rec.values()] for rec in data]
        ok = rows_match(data, rows) and values_match(
            read_data(os.path.join(out_dir, "scan_summary.json")), summary)
        return Check(failed=not ok, wrong=not ok,
                     detail="" if ok else "scan output differs from the lattice reference")

    def _check_oracle(self, job: Job, rc: int, out_dir: str, ref: dict) -> Check:
        if rc != ref["exit"]:
            return Check(failed=True, wrong=True,
                         detail=f"exit {rc}, recorded {ref['exit']}")
        fname = f"{job.name}_report.json"
        found = data_files(out_dir)
        if found != [fname]:
            return Check(failed=True, wrong=True, detail=f"files {found}")
        path = os.path.join(out_dir, fname)
        ok = values_match(read_data(path), ref["report"])
        return Check(failed=not ok, wrong=not ok,
                     identical=int(sha256(path) == ref["sha256"]),
                     detail="" if ok else "oracle report differs from the reference")


def recorded(out_dir: str, rc: int) -> dict:
    """Reference entry for a job: exit code and every data file."""
    return {"exit": rc, "files": {
        f: {"sha256": sha256(os.path.join(out_dir, f)),
            "data": read_data(os.path.join(out_dir, f))}
        for f in data_files(out_dir)} if rc == 0 else {}}

