"""Sweep execution and run-manifest bookkeeping.

Grid points run one after the other, in input order; a point that fails gives
the IkseaError it raised in place of its value, and the sweep goes on.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import os
import platform
import sys
from typing import Callable, List, Sequence

import numpy as np

from . import __version__
from .config import RunConfig
from .errors import IkseaError

__all__ = ["run_grid", "sha256_file", "Manifest"]


def run_grid(fn: Callable, items: Sequence) -> list:
    """fn(item) for each item, in input order, or the IkseaError it raised."""
    results = []
    for item in items:
        try:
            results.append(fn(item))
        except IkseaError as exc:
            results.append(exc)
    return results


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class Manifest:
    """Collects run metadata and writes <prefix>_manifest.json.

    The command, seed, config text and prefix are read from the RunConfig
    at write time.  The manifest is the only emitted file with timestamps;
    "package_version", "python", "numpy" and "scipy" (null unless the process
    loaded it) name the software that ran.
    """

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.started = datetime.datetime.now(datetime.timezone.utc).isoformat()
        self.tasks: List[dict] = []
        self.outputs: List[dict] = []

    def task(self, name: str, status: str, detail: str = "") -> None:
        self.tasks.append({"name": name, "status": status, "detail": detail})

    def output(self, path: str) -> None:
        self.outputs.append({
            "path": os.path.basename(path),
            "sha256": sha256_file(path),
            "bytes": os.path.getsize(path),
        })

    def write(self, out_dir: str) -> None:
        body = {
            "command": self.cfg.command,
            "package_version": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": getattr(sys.modules.get("scipy"), "__version__", None),
            "seed": self.cfg.seed,
            "started": self.started,
            "finished": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "config": self.cfg.text,
            "tasks": self.tasks,
            "outputs": self.outputs,
        }
        path = os.path.join(out_dir, f"{self.cfg.prefix}_manifest.json")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(body, fh, indent=1, sort_keys=False)
            fh.write("\n")
