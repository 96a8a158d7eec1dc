"""Self-tests of the benchmark harness (run with pytest from the repo root).

They check that the tracer's wrappers are installed and fully restored, the
self-time arithmetic on nested and parallel spans, that point counts come
from the generated inputs, and the reference comparison rules.
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
if not any(os.path.abspath(p) == os.path.join(ROOT, "src") for p in sys.path):
    sys.path.insert(0, os.path.join(ROOT, "src"))

import jobs  # noqa: E402
import refcheck  # noqa: E402
import tracer as tr  # noqa: E402

CONFIGS = os.path.join(ROOT, "configs")


def _iksea_namespaces():
    import iksea.cli  # noqa: F401  (loads every iksea module)
    from iksea.config import RunConfig
    from iksea.runner import Manifest
    spaces = {name: mod for name, mod in sys.modules.items()
              if name == "iksea" or name.startswith("iksea.")}
    return spaces, (RunConfig, Manifest)


def _snapshot(spaces, classes):
    mods = {name: dict(vars(mod)) for name, mod in spaces.items()}
    return mods, {cls: dict(cls.__dict__) for cls in classes}


def test_wrappers_installed_and_fully_restored(tmp_path):
    spaces, classes = _iksea_namespaces()
    before = _snapshot(spaces, classes)
    import iksea.cli as cli
    import iksea.ground as ground
    import iksea.model as model
    import iksea.oracle as oracle
    import iksea.scaling as scaling
    original = ground.ground_qfi

    t = tr.Tracer()
    t.install()
    try:
        # every namespace that bound the original now holds the wrapper
        for mod in (ground, cli, scaling, oracle, sys.modules["iksea"]):
            assert mod.ground_qfi is not original
            assert mod.ground_qfi.__wrapped__ is original
        assert model.block_elements is not before[0]["iksea.model"]["block_elements"]
        assert classes[0].__dict__["from_file"] is not before[1][classes[0]]["from_file"]
        with pytest.raises(RuntimeError):
            t.install()

        cfg = tmp_path / "s.cfg"
        cfg.write_text("[run]\ncommand = sweep\nprefix = s\n[model]\nh = 1.0\n"
                       "gamma = 0.2\nk_ksea = 0.5\nn_sites = 64\n[sweep]\n"
                       "variable = n_sites\nn_values = 64 128 256 512\n")
        t.job = 0
        assert cli.main(["sweep", "--config", str(cfg), "--out",
                         str(tmp_path), "--workers", "2"]) == 0
    finally:
        t.uninstall()

    after = _snapshot(spaces, classes)
    for name, attrs in before[0].items():
        for key, value in attrs.items():
            assert after[0][name][key] is value, f"{name}.{key} not restored"
    for cls, attrs in before[1].items():
        for key, value in attrs.items():
            assert after[1][cls][key] is value, f"{cls.__name__}.{key} not restored"

    spans = t.spans()
    names = np.array(t.names)[spans["name"].astype(int)]
    parent = spans["parent"].astype(int)
    grid = np.nonzero(names == "runner.run_grid")[0]
    items = np.nonzero(names == tr.ITEM)[0]
    gq = np.nonzero(names == "ground.ground_qfi")[0]
    assert grid.size == 1 and items.size == 4 and gq.size == 4
    # items hang off run_grid from whichever pool thread ran them, and each
    # ground_qfi call hangs off its item
    assert set(parent[items]) == {grid[0]}
    assert set(parent[gq]) == set(items)
    assert spans["work"][gq].sum() == (64 + 128 + 256 + 512) // 2
    metrics = tr.layer_metrics(spans, t.names)
    assert metrics["ground.ground_qfi.calls"] == 4
    assert metrics["cli.main.calls"] == 1
    assert metrics["runner.sha256_file.bytes"] == metrics["cli.write.bytes"] > 0
    assert all(v >= 0 for v in metrics.values())


def _spans(rows):
    cols = np.array(rows, dtype=float)
    return {c: cols[:, i] for i, c in enumerate(tr.COLUMNS)}


def test_self_time_on_nested_and_parallel_spans():
    #        id parent name job start end work
    spans = _spans([
        (0, -1, 0, 0, 0.0, 10.0, 0),    # root
        (1, 0, 1, 0, 1.0, 4.0, 0),      # child of 0
        (2, 1, 2, 0, 2.0, 3.0, 0),      # grandchild
        (3, 0, 1, 0, 5.0, 6.0, 0),      # second child of 0
        (4, -1, 3, 0, 20.0, 30.0, 0),   # a grid span
        (5, 4, 4, 0, 21.0, 25.0, 0),    # parallel items overlapping
        (6, 4, 4, 0, 23.0, 28.0, 0),    # ... on another thread
        (7, 4, 4, 0, 29.0, 31.0, 0),    # runs past its parent: clipped
    ])
    own = tr.self_times(spans)
    np.testing.assert_allclose(own, [6.0, 2.0, 1.0, 1.0, 2.0, 4.0, 5.0, 2.0])


def test_self_time_sums_per_layer_and_counts_nested_write_bytes_once():
    names = ["cli.main", "cli.write", "runner.run_grid", tr.ITEM]
    spans = _spans([
        (0, -1, 0, 0, 0.0, 10.0, 0),
        (1, 0, 1, 0, 1.0, 3.0, 100),    # _write_rows
        (2, 1, 1, 0, 1.5, 2.5, 100),    # ... calling _write_json: same file
        (3, 0, 2, 0, 4.0, 8.0, 0),
        (4, 3, 3, 0, 4.5, 6.0, 0.5),
        (5, 3, 3, 0, 5.0, 7.0, 1.0),
    ])
    m = tr.layer_metrics(spans, names)
    assert m["cli.main.self_s"] == pytest.approx(10.0 - 2.0 - 4.0)
    assert m["cli.write.self_s"] == pytest.approx(2.0)
    assert m["cli.write.bytes"] == 100
    assert m["runner.run_grid.self_s"] == pytest.approx(4.0 - 2.5)
    assert m["runner.item_wait_s"] == pytest.approx(1.5)
    assert m["ground.ground_qfi.calls"] == 0
    assert m["ground.ground_qfi.ns_per_mode"] == 0.0


def test_self_times_rejects_gaps_in_ids():
    spans = _spans([(0, -1, 0, 0, 0.0, 1.0, 0), (2, 0, 0, 0, 0.2, 0.4, 0)])
    with pytest.raises(ValueError):
        tr.self_times(spans)


def test_point_counts_come_from_the_generated_inputs():
    big = {j.name: j.points for j in jobs.make_jobs("big-jobs", 7, CONFIGS, 2)}
    assert big == {"gl_critical": 9, "gl_broken": 9,
                   "dyn_n1024_h0.5": 40, "dyn_n1024_h1.5": 40,
                   "dyn_n4096_h0.5": 40, "dyn_n4096_h1.5": 40}
    small = {j.name: j.points for j in jobs.make_jobs("small-jobs", 7, CONFIGS, 2)}
    oracle = {n: small.pop(n) for n in list(small) if n.startswith("oracle_s")}
    assert small == {
        "crit2_critical_heisenberg": 5, "crit3_exceptional_heisenberg": 5,
        "crit4_super_heisenberg": 8, "crit5_saturation": 5,
        "fig1_ground_field_scan": 40, "fig2_offset_exponent": 24,
        "fig3_kappa_exponent": 15, "fig4_dynamical_qfi": 40,
        "scan_csv": 2000, "scan_json": 2000, "fit": 0}
    # an oracle report row per size, one energy-scale row, one per point and
    # one per dynamics check
    assert list(oracle.values()) == [3 + 1 + 20 + 6] * jobs.ORACLE_JOBS
    # the count follows the config text, whatever the program later does
    text = "[run]\ncommand = dyn-qfi\n[times]\nvalues = 1 2 3\n"
    assert jobs.count_points(text) == 3


def test_jobs_follow_the_seed():
    def texts(workload, seed):
        return [(j.name, j.config, j.flags)
                for j in jobs.make_jobs(workload, seed, CONFIGS, 2)]
    for workload in jobs.WORKLOADS:
        assert texts(workload, 3) == texts(workload, 3)
    assert texts("small-jobs", 3) != texts("small-jobs", 4)
    assert texts("big-jobs", 3) == texts("big-jobs", 4)
    assert len(set(jobs.oracle_seeds(5))) == jobs.ORACLE_JOBS
    assert set(jobs.oracle_seeds(5)) <= set(jobs.ORACLE_POOL)
    fields = jobs.scan_fields(11)
    assert len(set(fields)) == jobs.SCAN_FIELDS
    assert all(0 < float(h) <= jobs.SCAN_LATTICE * jobs.SCAN_STEP for h in fields)


def test_rescaled_share_is_a_property_of_the_inputs():
    dyn = [j for j in jobs.make_jobs("big-jobs", 0, CONFIGS, 2)
           if j.command == "dyn-qfi"]
    rescaled, total = jobs.rescaled_pairs(dyn)
    assert total == 40 * (512 + 2048) * 2
    # only the broken phase (h = 0.5) has imaginary modes
    broken = [j for j in dyn if "h0.5" in j.name]
    assert jobs.rescaled_pairs(broken)[0] == rescaled > 0


def test_reference_comparison_rules():
    assert refcheck.cells_match("1.0000000000000001", "1")
    assert refcheck.cells_match("1.0000000000001", "1")          # 1e-13
    assert not refcheck.cells_match("1.00000000001", "1")        # 1e-11
    assert not refcheck.cells_match("Broken", "Unbroken")
    assert refcheck.values_match({"a": [1, 2.0, True]}, {"a": [1, 2.0 + 1e-15, True]})
    assert not refcheck.values_match({"a": True}, {"a": 1})
    assert not refcheck.values_match({"a": 1}, {"a": 1, "b": 2})
    assert refcheck.cell_text(0.1) == "%.17g" % 0.1
    assert refcheck.cell_text(False) == "false"


def test_benchmark_json_lists_the_metrics_the_harness_prints():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        pytest.skip("no BENCHMARK.json next to bench/")
    import run
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
