"""Workloads of the iksea benchmark: the CLI jobs of one pass, made from a seed.

A pass is a list of :class:`Job` objects run one after another through
``iksea.cli.main`` in a single process.  Jobs are generated here and only
here, so the harness, the reference recorder and the self-tests agree on the
inputs.  Point counts are derived from the generated config text, never from
the program's outputs.

Workloads (why each was chosen is in BENCHMARK.json):

* ``big-jobs``: a few heavy calls.  Two ``sweep variable=n_sites`` jobs,
  N = 2^12 .. 2^20, and four ``dyn-qfi`` series of 40 geometric times in
  [0.1, 1500] at N in {1024, 4096}, h in {0.5 (broken), 1.5 (unbroken)}.
* ``small-jobs``: many light calls.  The eight shipped ``configs/*.cfg``, a
  seeded field scan (CSV with 2 workers, then JSON), a ``fit`` of one of the
  pass's own sweep CSVs, and ``oracle-check`` at sizes 4, 6, 8 with 20
  points and dynamics, for suite seeds picked by the benchmark seed from a
  recorded pool.
"""

from __future__ import annotations

import configparser
import os
import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

WORKLOADS = ("big-jobs", "small-jobs")

#: field lattice of the seeded scan: h_k = k * SCAN_STEP for k = 1 .. SCAN_LATTICE
SCAN_STEP = 0.002
SCAN_LATTICE = 1000
SCAN_FIELDS = 400
SCAN_SIZES = (8, 16, 32, 64, 128)
SCAN_MODEL = {"gamma": 0.5, "k_ksea": 0.2}

ORACLE_JOBS = 4
ORACLE_SIZES = (4, 6, 8)
ORACLE_POINTS = 20
#: dynamics rows of run_oracle_suite: fields (1.5, 0.5) x times (0.5, 2, 5)
ORACLE_DYNAMICS_ROWS = 6
#: ORACLE_SIZE_MIX[n]: how many of the suite's ORACLE_POINTS sampled points
#: have N = n.  The dense work grows steeply with N, so the pool holds only
#: suite seeds with this mix: every pass then does the same amount of work,
#: whichever seeds it draws.
ORACLE_SIZE_MIX = {4: 9, 6: 6, 8: 5}
#: the first 32 suite seeds with that mix; a pass runs ORACLE_JOBS of them
ORACLE_POOL = (14, 19, 42, 59, 112, 117, 127, 145, 148, 151, 171, 176, 177,
               228, 250, 287, 314, 316, 318, 325, 383, 403, 414, 465, 532, 566,
               590, 625, 671, 683, 688, 704)

#: sqrt(-eps_sq) * t above which dynamics switches to the rescaled frame
RESCALED_ARG = 100.0

SHIPPED_CONFIGS = (
    "crit2_critical_heisenberg.cfg",
    "crit3_exceptional_heisenberg.cfg",
    "crit4_super_heisenberg.cfg",
    "crit5_saturation.cfg",
    "fig1_ground_field_scan.cfg",
    "fig2_offset_exponent.cfg",
    "fig3_kappa_exponent.cfg",
    "fig4_dynamical_qfi.cfg",
)
FIT_SOURCE = "crit2_critical_heisenberg"


@dataclass(frozen=True)
class Job:
    """One CLI invocation.

    name    unique within the pass; the job's output directory
    command CLI sub-command (must match the config's [run] command)
    config  config text; written to <work>/<name>/job.cfg unless shipped
    shipped file name under configs/ when the job runs a shipped config
    flags   extra CLI flags
    ref     reference key: "files" (recorded outputs), "scan" or "oracle:<k>"
    """

    name: str
    command: str
    config: str
    shipped: Optional[str] = None
    flags: Tuple[str, ...] = ("--workers", "1")
    ref: str = "files"

    @property
    def points(self) -> int:
        return count_points(self.config)

    def argv(self, config_path: str, out_dir: str) -> List[str]:
        return [self.command, "--config", config_path, "--out", out_dir,
                *self.flags]


def _cfg(sections: dict) -> str:
    lines = []
    for section, kv in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{k} = {v}" for k, v in kv.items())
        lines.append("")
    return "\n".join(lines)


def parse_config(text: str) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(interpolation=None, delimiters=("=",),
                                   comment_prefixes=("#", ";"))
    cp.optionxform = str
    cp.read_string(text)
    return cp


def _words(cp, section, key, default=""):
    return cp.get(section, key, fallback=default).split()


def count_points(config_text: str) -> int:
    """Points a job computes, read from its config.

    A point is one (N, h) ground evaluation, one (N, t) dynamical evaluation
    or one oracle report row; a fit computes none.
    """
    cp = parse_config(config_text)
    command = cp.get("run", "command")
    if command == "sweep":
        variable = cp.get("sweep", "variable")
        ns = len(_words(cp, "sweep", "n_values"))
        if variable == "n_sites":
            return ns
        key = "dh_values" if variable == "dh" else "kappa_values"
        return ns * len(_words(cp, "sweep", key))
    if command == "ground-qfi":
        ns = len(_words(cp, "grid", "n_values")) or 1
        hs = len(_words(cp, "grid", "h_values")) or 1
        return ns * hs
    if command == "dyn-qfi":
        values = _words(cp, "times", "values")
        return len(values) if values else cp.getint("times", "count")
    if command == "oracle-check":
        sizes = len(_words(cp, "oracle", "sizes", "4 6 8"))
        points = cp.getint("oracle", "points", fallback=20)
        dyn = cp.getboolean("oracle", "include_dynamics", fallback=True)
        # spectrum row per size, one energy-scale row, one row per point
        return sizes + 1 + points + (ORACLE_DYNAMICS_ROWS if dyn else 0)
    return 0


# ------------------------------------------------------------------ workloads


def _ground_large_n() -> List[Job]:
    ns = " ".join(str(2 ** k) for k in range(12, 21))
    phases = (("critical", 1.0, 0.2, 0.5), ("broken", 0.5, 0.5, 0.2))
    return [
        Job(f"gl_{tag}", "sweep", _cfg({
            "run": {"command": "sweep", "prefix": f"gl_{tag}"},
            "model": {"h": h, "gamma": gam, "k_ksea": k, "n_sites": 4096},
            "sweep": {"variable": "n_sites", "n_values": ns},
        }))
        for tag, h, gam, k in phases
    ]


def _dyn_series() -> List[Job]:
    jobs = []
    for n in (1024, 4096):
        for h in (0.5, 1.5):
            name = f"dyn_n{n}_h{h:g}"
            jobs.append(Job(name, "dyn-qfi", _cfg({
                "run": {"command": "dyn-qfi", "prefix": name},
                "model": {"h": h, "gamma": 0.5, "k_ksea": 0.2, "n_sites": n},
                "times": {"start": 0.1, "stop": 1500, "count": 40,
                          "spacing": "geometric"},
            })))
    return jobs


def scan_fields(seed: int) -> List[str]:
    """The seeded scan's field values, as config strings, in lattice order."""
    picks = sorted(random.Random(seed).sample(range(1, SCAN_LATTICE + 1),
                                              SCAN_FIELDS))
    return [lattice_field(k) for k in picks]


def lattice_field(k: int) -> str:
    return f"{k * SCAN_STEP:.3f}"


def scan_config(name: str, fields: List[str]) -> str:
    return _cfg({
        "run": {"command": "ground-qfi", "prefix": name},
        "model": {"h": 1.0, "n_sites": SCAN_SIZES[0], **SCAN_MODEL},
        "grid": {"n_values": " ".join(map(str, SCAN_SIZES)),
                 "h_values": " ".join(fields)},
    })


def _small_jobs(seed: int, configs_dir: str, scan_workers: int) -> List[Job]:
    jobs = []
    for fname in SHIPPED_CONFIGS:
        with open(os.path.join(configs_dir, fname), encoding="utf-8") as fh:
            text = fh.read()
        command = parse_config(text).get("run", "command")
        jobs.append(Job(fname[:-4], command, text, shipped=fname))
    fields = scan_fields(seed)
    jobs.append(Job("scan_csv", "ground-qfi", scan_config("scan", fields),
                    flags=("--workers", str(scan_workers)), ref="scan"))
    jobs.append(Job("scan_json", "ground-qfi", scan_config("scan", fields),
                    flags=("--workers", "1", "--format", "json"), ref="scan"))
    src = f"../{FIT_SOURCE}/{FIT_SOURCE}.csv"
    jobs.append(Job("fit", "fit", _cfg({
        "run": {"command": "fit", "prefix": "fit"},
        "fit": {"input": src, "x_column": "N", "y_column": "qfi_total"},
    })))
    return jobs


def oracle_seeds(seed: int) -> List[int]:
    return sorted(random.Random(seed).sample(ORACLE_POOL, ORACLE_JOBS))


def oracle_job(suite_seed: int) -> Job:
    name = f"oracle_s{suite_seed}"
    return Job(name, "oracle-check", _cfg({
        "run": {"command": "oracle-check", "prefix": name},
        "oracle": {"sizes": " ".join(map(str, ORACLE_SIZES)),
                   "points": ORACLE_POINTS, "include_dynamics": "true"},
    }), flags=("--workers", "1", "--seed", str(suite_seed)),
        ref=f"oracle:{suite_seed}")


def make_jobs(workload: str, seed: int, configs_dir: str,
              nproc: int) -> List[Job]:
    """All jobs of one pass of ``workload`` for ``seed``."""
    if workload == "big-jobs":
        return _ground_large_n() + _dyn_series()
    if workload == "small-jobs":
        return (_small_jobs(seed, configs_dir, scan_workers=min(2, nproc))
                + [oracle_job(s) for s in oracle_seeds(seed)])
    raise ValueError(f"unknown workload {workload!r}; expected one of "
                     f"{', '.join(WORKLOADS)}")


# ------------------------------------------------------- workload properties


def rescaled_pairs(jobs: List[Job]) -> Tuple[int, int]:
    """(rescaled, total) (mode, t) pairs over the dyn-qfi jobs.

    A pair is rescaled when sqrt(-eps_sq) * t > RESCALED_ARG, with eps_sq
    from the program's own block_elements on its momentum grid.
    """
    # imported here: run.py imports this module without ./src on its path
    from iksea.model import ChainParams, block_elements, momentum_grid

    rescaled = total = 0
    for job in jobs:
        if job.command != "dyn-qfi":
            continue
        cp = parse_config(job.config)
        params = ChainParams(*(cp.getfloat("model", key)
                               for key in ("h", "gamma", "k_ksea")),
                             n_sites=cp.getint("model", "n_sites"))
        eps_sq = block_elements(params, momentum_grid(params.n_sites))[3]
        rates = np.sqrt(np.maximum(-eps_sq, 0.0))
        times = _times(cp)
        total += rates.size * times.size
        rescaled += int(np.count_nonzero(np.outer(rates, times) > RESCALED_ARG))
    return rescaled, total


def _times(cp):
    """The job's time grid, spaced as the CLI spaces it."""
    values = _words(cp, "times", "values")
    if values:
        return np.array(values, dtype=float)
    start, stop = cp.getfloat("times", "start"), cp.getfloat("times", "stop")
    count = cp.getint("times", "count")
    if cp.get("times", "spacing", fallback="linear") == "geometric":
        return np.geomspace(start, stop, count)
    return np.linspace(start, stop, count)
