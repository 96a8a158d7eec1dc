"""The CLI contract over the whole config grammar.

Each command runs on configs whose keys take plausible values (POOLS) or
edge values (EDGE, ODD): with each key the command reads changed alone, and
on derandomized hypothesis draws that change up to three.  Whatever the
config, the run ends with exit 0, 2, 3 or 4; exits 2 and 3 print exactly
one stderr line and the others none; no RuntimeWarning escapes; and an
exit 3 leaves a manifest that names the failed task.  Sizes stay at most
256 (oracle sizes 6, 2 points), so the two tests take about 3 s.
"""

import contextlib
import io
import json
import os
import tempfile
import warnings


from hypothesis import given, settings
from hypothesis import strategies as st

from iksea.cli import main
from iksea.config import _KEYS, COMMANDS

#: values any key may take instead of its own
EDGE = ["0", "-2", "5e-324", "1e50", "nan", "inf", "", "abc"]

#: each key's plausible values ([run] command is the command run); gamma = K
#: with h = -cos(pi/4) puts the N = 4 mode pi/4 on an exceptional point
POOLS = {
    ("run", "seed"): ["3"],
    ("run", "prefix"): ["run"],
    ("model", "h"): ["0.5", "1.5", "-0.7071067811865476"],
    ("model", "gamma"): ["0.4", "0.5"],
    ("model", "k_ksea"): ["0.4", "0.2"],
    ("model", "n_sites"): ["4", "8", "256"],
    ("grid", "n_values"): ["4", "8 256", "4 16"],
    ("grid", "h_values"): ["0.5", "1 -0.7071067811865476", "-0.7071067811865476 0.3"],
    ("times", "values"): ["0.5 2", "-1 0 1e200", "2"],
    ("times", "start"): ["0.1", "1"],
    ("times", "stop"): ["2", "5"],
    ("times", "count"): ["1", "3"],
    ("times", "spacing"): ["linear", "geometric"],
    ("sweep", "variable"): ["n_sites", "dh", "kappa"],
    ("sweep", "n_values"): ["8 16 32", "4 8 16 32", "16 64 256"],
    ("sweep", "dh_values"): ["0.1", "0.1 -0.2"],
    ("sweep", "kappa_values"): ["1e-3", "1e-3 0.1"],
    ("sweep", "anchor"): ["h_c", "h_e"],
    ("fit", "input"): ["data.csv"],
    ("fit", "x_column"): ["N"],
    ("fit", "y_column"): ["qfi"],
    ("fit", "window_lo"): ["4", "8"],
    ("fit", "window_hi"): ["64", "256"],
    ("oracle", "sizes"): ["4", "4 6"],
    ("oracle", "points"): ["1", "2"],
    # the default, true, costs 0.2 s a run: it comes only as a changed value
    ("oracle", "include_dynamics"): ["false"],
    ("oracle", "corrupt_scale"): ["1", "1.5", "1e3"],
}

#: values a changed key may take besides EDGE
ODD = {("run", "prefix"): [".", "a/b"], ("model", "n_sites"): ["7"],
       ("grid", "n_values"): ["7"], ("times", "count"): ["1000000000000000"],
       ("times", "spacing"): ["log"],
       ("sweep", "variable"): ["N"], ("sweep", "anchor"): ["h_x"],
       ("fit", "input"): ["bad.csv", "missing.csv"], ("fit", "x_column"): ["M"],
       ("oracle", "sizes"): ["2", "3"], ("oracle", "include_dynamics"): ["true", "maybe"]}

#: keys that hold lists
LISTS = {("grid", "n_values"), ("grid", "h_values"), ("times", "values"),
         ("sweep", "n_values"), ("sweep", "dh_values"), ("sweep", "kappa_values"),
         ("oracle", "sizes")}

#: groups of keys a config holds or leaves out by one coin flip; every
#: other key is there unless changed
OPTIONAL = [[("run", "seed")], [("run", "prefix")], [("grid", "n_values")],
            [("grid", "h_values")], [("times", "values")], [("times", "spacing")],
            [("fit", "window_lo"), ("fit", "window_hi")], [("sweep", "anchor")],
            [("oracle", "corrupt_scale")]]

#: the sections each command reads besides [run]
READS = {"ground-qfi": ("model", "grid"), "dyn-qfi": ("model", "times"),
         "sweep": ("model", "sweep", "fit"), "fit": ("fit",),
         "oracle-check": ("oracle",), "phase": ("model",)}

FILES = {"data.csv": "N,qfi\n8,64\n16,256\n32,1024\n64,4096\n",
         "bad.csv": "N,qfi\n8,64\n16,x\n"}


def test_pools_cover_every_key():
    keys = {(s, k) for s, names in _KEYS.items() for k in names.split()}
    assert set(POOLS) == keys - {("run", "command")}
    assert set(READS) == set(COMMANDS)
    assert set(ODD) | LISTS | {k for group in OPTIONAL for k in group} <= set(POOLS)


def _run(tmp, command, values):
    """Run command in tmp on the config of values ({(section, key): text},
    None leaves a key out), assert the contract and return the exit code."""
    values = {("run", "command"): command, **values}
    text = "".join(f"[{section}]\n" + "".join(
        f"{k} = {v}\n" for (s, k), v in values.items() if s == section and v is not None)
        for section in _KEYS)
    cfg, out, err = os.path.join(tmp, "run.cfg"), tempfile.mkdtemp(dir=tmp), io.StringIO()
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(text)
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = main([command, "--config", cfg, "--out", out])
    err = err.getvalue()
    assert code in (0, 2, 3, 4), (code, text)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], text
    if code in (2, 3):
        kind = "config" if code == 2 else "compute"
        assert err.startswith(f"{kind} error: ") and err.count("\n") == 1 \
            and err.endswith("\n"), (err, text)
    else:
        assert err == "", (err, text)
    if code == 3:
        (manifest,) = [f for f in os.listdir(out) if f.endswith("_manifest.json")]
        with open(os.path.join(out, manifest), encoding="utf-8") as fh:
            tasks = json.load(fh)["tasks"]
        # the failed point's own task, or "compute" where it has none
        assert any(err == "compute error: " + ("" if t["name"] == "compute"
                                               else t["name"] + ": ") + t["detail"] + "\n"
                   for t in tasks if t["status"] == "error"), (err, tasks)
    return code


@contextlib.contextmanager
def _workdir():
    """A temporary directory holding FILES."""
    with tempfile.TemporaryDirectory() as path:
        for name, body in FILES.items():
            with open(os.path.join(path, name), "w", encoding="utf-8") as fh:
                fh.write(body)
        yield path


def _changes(key, old):
    """The values a changed key takes: EDGE and ODD values, for a list also
    after its old value, and None (left out)."""
    new = EDGE + ODD.get(key, [])
    return new + [f"{old} {v}" for v in new] * (key in LISTS and old is not None) + [None]


def test_every_key_at_every_edge_value():
    # one key changed at a time, from each command's first-choice config;
    # the dh and kappa sweeps change only [sweep] keys
    base = {k: None if any(k in g for g in OPTIONAL) else v[0] for k, v in POOLS.items()}
    codes = set()
    with _workdir() as tmp:
        for command in COMMANDS:
            for variable in POOLS["sweep", "variable"] if command == "sweep" else [None]:
                start = {**base, ("sweep", "variable"): variable or base["sweep", "variable"]}
                sections = ("run",) + READS[command] if variable in (None, "n_sites") \
                    else ("sweep",)
                for key in POOLS:
                    if key[0] in sections:
                        for value in _changes(key, start[key]):
                            codes.add(_run(tmp, command, {**start, key: value}))
    assert codes == {0, 2, 3, 4}


@st.composite
def configs(draw):
    """(command, values): every key from its pool, then up to three keys of
    the sections the command reads changed as _changes changes them."""
    command = draw(st.sampled_from(COMMANDS))
    out = {key for group in OPTIONAL if draw(st.booleans()) for key in group}
    values = {key: draw(st.sampled_from(POOLS[key])) for key in POOLS if key not in out}
    read = sorted(k for k in POOLS if k[0] in ("run",) + READS[command])
    for key in draw(st.lists(st.sampled_from(read), max_size=3)):
        values[key] = draw(st.sampled_from(_changes(key, values.get(key))))
    return command, values


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(configs())
def test_random_configs_keep_the_exit_contract(case):
    with _workdir() as tmp:
        _run(tmp, *case)
