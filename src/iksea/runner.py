"""Sweep execution and run-manifest bookkeeping.

Grid points run one after the other, in input order; a point that fails gives
the IkseaError it raised in place of its value, and the sweep goes on.  The
``--workers`` count selects no code path: it is recorded in the manifest, so
that existing scripts keep working.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import os
import platform
from typing import Callable, List, Sequence

import numpy as np
import scipy

from . import __version__
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

    The manifest is the only emitted file containing timestamps; data files
    stay byte-reproducible across runs.  "version" is the config-format tag;
    "package_version", "python", "numpy" and "scipy" name the software that
    ran.
    """

    def __init__(self, command: str, config_text: str, seed: int,
                 workers: int, version: str):
        self.command = command
        self.config_text = config_text
        self.seed = seed
        self.workers = workers
        self.version = version
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

    def write(self, out_dir: str, prefix: str) -> str:
        body = {
            "command": self.command,
            "version": self.version,
            "package_version": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "seed": self.seed,
            "workers": self.workers,
            "started": self.started,
            "finished": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "config": self.config_text,
            "tasks": self.tasks,
            "outputs": self.outputs,
        }
        path = os.path.join(out_dir, f"{prefix}_manifest.json")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(body, fh, indent=1, sort_keys=False)
            fh.write("\n")
        return path
