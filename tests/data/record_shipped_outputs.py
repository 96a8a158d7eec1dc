"""Write shipped_outputs.json, the pins of the shipped-config digest test.

    PYTHONPATH=src python tests/data/record_shipped_outputs.py

Runs every configs/*.cfg through the CLI and records, per config, its exit
code, the sha256 of each data file it writes (the run manifest, which
carries timestamps, is left out) and the [name, status] of each manifest
task whose status is not "ok".
tests/test_cli.py::test_shipped_configs_match_recorded_digests holds every
shipped config to these pins.  Re-record only for an intended change to the
program's outputs, and name each changed file in CHANGES.md with its old
and new digest.
"""

from __future__ import annotations

import json
import os
import tempfile

from iksea.cli import main as run_cli
from iksea.config import RunConfig
from iksea.runner import sha256_file

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIGS = os.path.join(HERE, os.pardir, os.pardir, "configs")
PINS = os.path.join(HERE, "shipped_outputs.json")


def record(out_root: str) -> dict:
    """{config name: {"exit": code, "files": {data file: sha256},
    "failed_tasks": [[task name, status], ...]}}."""
    pins = {}
    for name in sorted(f[:-4] for f in os.listdir(CONFIGS) if f.endswith(".cfg")):
        path = os.path.join(CONFIGS, name + ".cfg")
        out = os.path.join(out_root, name)
        cfg = RunConfig.from_file(path)
        code = run_cli([cfg.command, "--config", path, "--out", out,
                        "--workers", "1"])
        pins[name] = {"exit": code, "files": {
            f: sha256_file(os.path.join(out, f)) for f in sorted(os.listdir(out))
            if not f.endswith("_manifest.json")},
            "failed_tasks": failed_tasks(os.path.join(out, f"{cfg.prefix}_manifest.json"))}
    return pins


def failed_tasks(manifest_path: str) -> list:
    """[name, status] of each task in a run manifest whose status is not "ok"."""
    with open(manifest_path, encoding="utf-8") as fh:
        return [[t["name"], t["status"]] for t in json.load(fh)["tasks"]
                if t["status"] != "ok"]


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        pins = record(tmp)
    with open(PINS, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(pins)} configs to {PINS}")


if __name__ == "__main__":
    main()
