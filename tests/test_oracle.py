"""Dense-matrix oracle: spectra, calibration, FD QFI, and its self-checks."""

import os
import re
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import iksea
import iksea.oracle
from iksea.dynamics import dynamical_qfi
from iksea.errors import (CapacityError, ExceptionalModeError, LevelCrossingError,
                          ParameterError)
from iksea.ground import ground_qfi
from iksea.model import ChainParams
from iksea.oracle import (
    _assignment,
    _map,
    _fd_qfi_from_states,
    block_even_multiset,
    calibrate_energy_scale,
    dense_evolution_qfi,
    dense_hamiltonian,
    even_sector_indices,
    fd_qfi_ground,
    fit_energy_scale,
    parity_vector,
    run_oracle_suite,
    sample_conditioned_params,
    sector_hamiltonian,
    spectral_decomposition,
    spectral_ground_state,
    spectrum_match_error,
)

BROKEN = ChainParams(h=0.5, gamma=0.5, k_ksea=0.2, n_sites=6)
UNBROKEN = ChainParams(h=1.5, gamma=0.5, k_ksea=0.2, n_sites=6)


def test_dense_hamiltonian_basic_structure():
    for p in (BROKEN, UNBROKEN):
        hm = dense_hamiltonian(p)
        assert hm.shape == (64, 64)
        np.testing.assert_allclose(np.trace(hm), 0.0, atol=1e-12)
    # no anisotropy: the chain is Hermitian exactly
    ph = ChainParams(h=0.7, gamma=0.0, k_ksea=0.4, n_sites=4)
    hm = dense_hamiltonian(ph)
    np.testing.assert_allclose(hm, hm.conj().T, atol=0)


def test_dense_hamiltonian_commutes_with_parity():
    par = parity_vector(6).astype(float)
    for p in (BROKEN, UNBROKEN):
        hm = dense_hamiltonian(p)
        comm = hm * par[None, :] - par[:, None] * hm
        # [H, P] = 0 means H never connects the two parity sectors
        np.testing.assert_allclose(comm, 0.0, atol=1e-14)


def test_parity_vector_is_minus_one_to_the_popcount():
    # one expression on every numpy, with or without np.bitwise_count
    for n in range(1, 13):
        want = [1 - 2 * (bin(x).count("1") % 2) for x in range(1 << n)]
        got = parity_vector(n)
        assert got.dtype == np.int_ and got.tolist() == want


def test_parity_sector_sizes():
    for n in (2, 4, 6, 8):
        idx = even_sector_indices(n)
        assert idx.size == 2 ** (n - 1)
        p = ChainParams(h=1.0, gamma=0.3, k_ksea=0.4, n_sites=n)
        m, idx2 = sector_hamiltonian(p, scale=1.3)
        assert m.shape == (2 ** (n - 1),) * 2
        np.testing.assert_array_equal(idx, idx2)
        # built on the sector basis, it is the dense matrix's block bit for bit
        want = dense_hamiltonian(p, scale=1.3)[np.ix_(idx, idx)]
        assert (m.view(np.int64) == want.view(np.int64)).all()


def test_spectrum_closed_under_conjugation():
    # the symmetry behind the real/complex-pair structure: eigenvalues come
    # in conjugate pairs (or are real) in both phases
    for p in (BROKEN, UNBROKEN):
        m, _ = sector_hamiltonian(p)
        vals = np.linalg.eigvals(m)
        conj_sorted = np.sort_complex(vals.conj())
        np.testing.assert_allclose(np.sort_complex(vals), conj_sorted,
                                   atol=1e-8)


def test_block_multiset_matches_dense_spectrum():
    rng = np.random.default_rng(31)
    pts = [BROKEN, UNBROKEN] + list(sample_conditioned_params(rng, 6,
                                                              sizes=(4, 6, 8)))
    for p in pts:
        err = spectrum_match_error(p)
        assert err <= 1e-8 * max(1.0, abs(p.h) + 2.0)
        ms = block_even_multiset(p)
        assert ms.size == 2 ** (p.n_sites - 1)


@st.composite
def _cost_matrices(draw):
    """Square costs of size 1..12: floats, small-integer ties, tenths (whose
    sums round, so the order of the reduced-cost operations shows), or |a - b|
    of a complex spectrum with conjugate pairs against a permutation of it
    moved by a few ulps, as the oracle's matching sees them."""
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["floats", "ties", "tenths", "spectrum"]))
    if kind != "spectrum":
        cells = {"floats": st.floats(0.0, 1e3, allow_nan=False),
                 "ties": st.integers(0, 3), "tenths": st.integers(0, 9)}[kind]
        cost = np.array(draw(st.lists(cells, min_size=n * n, max_size=n * n)), float)
        return cost.reshape(n, n) / (10.0 if kind == "tenths" else 1.0)
    small = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    re, im, ulps = np.array(draw(small)), np.array(draw(small)), np.array(draw(small))
    a = 0.5 * re + 0.25j * im
    a[1::2] = a[0:-1:2].conj()
    b = a[draw(st.permutations(range(n)))] * (1.0 + ulps * 2.0 ** -52)
    return np.abs(a[:, None] - b[None, :])


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(_cost_matrices())
def test_assignment_equals_scipy_columns(cost):
    # fit_energy_scale's lstsq sees the pairs in this order, so an equally
    # optimal but different assignment would move pinned bits
    assert (_assignment(cost) == linear_sum_assignment(cost)[1]).all()


def test_assignment_equals_scipy_on_an_oracle_matrix():
    # the N = 8 spectrum-distance point of oracle suite seed 14: 128 x 128
    p = ChainParams(h=1.44347013379679, gamma=0.6730515061120323,
                    k_ksea=0.47373500312868166, n_sites=8)
    dense = np.linalg.eigvals(sector_hamiltonian(p)[0])
    cost = np.abs(dense[:, None] - block_even_multiset(p)[None, :])
    assert cost.shape == (128, 128)
    assert (_assignment(cost) == linear_sum_assignment(cost)[1]).all()


@pytest.mark.parametrize("cost, match", [
    (np.ones((2, 3)), "square"),
    (np.ones(4), "square"),
    (np.array([[0.0, np.nan], [1.0, 2.0]]), "finite"),
    (np.array([[0.0, np.inf], [1.0, 2.0]]), "finite"),
    (np.array([[np.inf, np.inf], [1.0, 2.0]]), "finite"),
], ids=["non-square", "one-dimensional", "nan", "inf-entry", "inf-row"])
def test_assignment_rejects_bad_costs(cost, match):
    with pytest.raises(ValueError, match=match):
        _assignment(cost)


def test_cli_import_leaves_scipy_optimize_out():
    code = ("import sys, iksea.cli; "
            "assert 'iksea.oracle' in sys.modules; "
            "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize'")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(iksea.__file__)))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr


def test_cli_import_leaves_scipy_linalg_out(tmp_path):
    # scipy.linalg loads only when oracle-check evolves a dense state
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\ncommand = oracle-check\n[oracle]\nsizes = 4\n"
                   "points = 1\ninclude_dynamics = true\n")
    code = ("import sys, iksea.cli; "
            "assert 'iksea.oracle' in sys.modules; "
            "assert not [m for m in sys.modules if m.startswith('scipy.linalg')]; "
            f"rc = iksea.cli.main(['oracle-check', '--config', {str(cfg)!r}, "
            f"'--out', {str(tmp_path)!r}]); "
            "assert rc == 0, rc; "
            "assert 'scipy.linalg' in sys.modules")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(iksea.__file__)))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert "all checks passed" in run.stdout


def _eig_then(monkeypatch, spoil):
    """Make np.linalg.eig return its result passed through spoil."""
    eig = np.linalg.eig

    def spoiled(mat):
        vals, vecs = eig(mat)
        return spoil(vals.copy(), vecs.copy())

    monkeypatch.setattr(np.linalg, "eig", spoiled)


def test_spectral_decomposition_rejects_a_large_residual(monkeypatch):
    def perturb(vals, vecs):
        vecs[0, 1] += 1e-3
        return vals, vecs

    _eig_then(monkeypatch, perturb)
    with pytest.raises(ExceptionalModeError, match="residual .* exceeds"):
        spectral_decomposition(UNBROKEN)


def test_spectral_decomposition_rejects_a_singular_eigenbasis(monkeypatch):
    def repeat(vals, vecs):
        vals[1], vecs[:, 1] = vals[0], vecs[:, 0]
        return vals, vecs

    _eig_then(monkeypatch, repeat)
    with pytest.raises(ExceptionalModeError, match="condition number"):
        spectral_decomposition(UNBROKEN)


def test_capacity_errors():
    with pytest.raises(CapacityError):
        dense_hamiltonian(ChainParams(h=1.0, gamma=0.3, k_ksea=0.4, n_sites=16))
    with pytest.raises(CapacityError):
        sector_hamiltonian(ChainParams(h=1.0, gamma=0.3, k_ksea=0.4, n_sites=16))
    with pytest.raises(CapacityError):
        dense_evolution_qfi(ChainParams(h=1.0, gamma=0.3, k_ksea=0.4,
                                        n_sites=14), 1.0)


def test_calibration_is_identity_and_parameter_independent():
    s, c = calibrate_energy_scale()
    np.testing.assert_allclose(s, 1.0, atol=1e-10)
    np.testing.assert_allclose(c, 0.0, atol=1e-10)
    rng = np.random.default_rng(43)
    for p in sample_conditioned_params(rng, 8, sizes=(4, 6)):
        s_i, c_i, resid = fit_energy_scale(p)
        np.testing.assert_allclose(s_i, 1.0, atol=1e-8)
        np.testing.assert_allclose(c_i, 0.0, atol=1e-8)
        assert resid <= 1e-8


def test_fit_energy_scale_recovers_injected_scale():
    # moderate scalings keep the eigenvalue pairing intact and are recovered
    # exactly; a gross one breaks the pairing but announces itself through
    # the residual
    s, c, resid = fit_energy_scale(UNBROKEN, scale=1.1)
    np.testing.assert_allclose(s, 1.1, rtol=1e-10)
    np.testing.assert_allclose(c, 0.0, atol=1e-10)
    assert resid <= 1e-10
    _, _, resid_bad = fit_energy_scale(UNBROKEN, scale=1.7)
    assert resid_bad > 1.0


def test_ground_state_gauge_is_fixed():
    # largest-magnitude component is made real positive, so repeated calls
    # give identical vectors (no eigensolver phase wobble)
    a, ea = spectral_ground_state(BROKEN)
    b, eb = spectral_ground_state(BROKEN)
    np.testing.assert_array_equal(a, b)
    assert ea == eb
    i = int(np.argmax(np.abs(a)))
    assert abs(a[i].imag) <= 1e-12 * abs(a[i]) and a[i].real > 0
    np.testing.assert_allclose(np.linalg.norm(a), 1.0, rtol=1e-12)
    # with a mode inside the negative-eps_sq well the selected eigenvalue is
    # the max-imaginary one (the N=6 grid misses the well, N=8 does not)
    _, e8 = spectral_ground_state(BROKEN.replace(n_sites=8))
    assert e8.imag > 1e-6


def test_fd_qfi_is_gauge_invariant():
    # multiplying the +/- displaced states by arbitrary phases must not move
    # the FD value: the overlap-alignment step removes exactly that freedom
    delta = 1e-5
    psi0, _ = spectral_ground_state(UNBROKEN)
    psi_p, _ = spectral_ground_state(UNBROKEN.replace(h=UNBROKEN.h + delta))
    psi_m, _ = spectral_ground_state(UNBROKEN.replace(h=UNBROKEN.h - delta))
    base = _fd_qfi_from_states(psi0, psi_p, psi_m, delta)
    rng = np.random.default_rng(7)
    for _ in range(5):
        ph_p = np.exp(1j * rng.uniform(0, 2 * np.pi))
        ph_m = np.exp(1j * rng.uniform(0, 2 * np.pi))
        val = _fd_qfi_from_states(psi0, ph_p * psi_p, ph_m * psi_m, delta)
        np.testing.assert_allclose(val, base, rtol=1e-8)


def test_fd_qfi_guards_against_state_jumps():
    # orthogonal +/- inputs mean the eigenstate tracking failed
    dim = 8
    psi0 = np.zeros(dim, dtype=complex); psi0[0] = 1.0
    psi_p = psi0.copy()
    psi_m = np.zeros(dim, dtype=complex); psi_m[1] = 1.0
    with pytest.raises(LevelCrossingError):
        _fd_qfi_from_states(psi0, psi_p, psi_m, 1e-5)


def test_fd_step_richardson_stability():
    # halving the step should leave the ground QFI stable well past the
    # target tolerance of the comparisons that use it
    for p in (BROKEN, UNBROKEN):
        a = fd_qfi_ground(p, delta=1e-5)
        b = fd_qfi_ground(p, delta=5e-6)
        np.testing.assert_allclose(a, b, rtol=1e-7)


def test_fd_qfi_matches_closed_form_spot_checks():
    for p in (BROKEN, UNBROKEN,
              ChainParams(h=0.9, gamma=0.35, k_ksea=0.55, n_sites=8)):
        np.testing.assert_allclose(ground_qfi(p).total, fd_qfi_ground(p),
                                   rtol=1e-6)


def test_dense_evolution_spot_check():
    p = ChainParams(h=1.5, gamma=0.5, k_ksea=0.2, n_sites=4)
    for t in (0.5, 2.0):
        np.testing.assert_allclose(dynamical_qfi(p, t),
                                   dense_evolution_qfi(p, t), rtol=1e-6)


def test_sampler_respects_conditioning():
    from iksea.model import block_elements, momentum_grid
    rng = np.random.default_rng(3)
    pts = sample_conditioned_params(rng, 50, sizes=(4, 6, 8))
    assert len(pts) == 50
    for p in pts:
        assert 0.2 <= p.h <= 2.0
        assert 0.05 <= p.gamma <= 0.95 and 0.05 <= p.k_ksea <= 0.95
        assert p.n_sites in (4, 6, 8)
        for phi in momentum_grid(p.n_sites):
            g, ap, am, eps_sq = block_elements(p, float(phi))
            scale = max(1.0, g * g, abs(ap * am))
            assert abs(eps_sq) >= 0.2 * scale


def test_oracle_suite_passes_clean():
    report = run_oracle_suite(sizes=(4, 6), n_points=6, seed=1,
                              include_dynamics=False)
    assert report["ok"] is True
    assert report["seed"] == 1
    assert all(r["pass"] for r in report["rows"])
    assert all(r["rel_err"] >= 0 for r in report["rows"])
    quantities = [r["quantity"] for r in report["rows"]]
    assert any(q.startswith("even-sector spectrum") for q in quantities)
    assert any(q.startswith("energy-scale consistency") for q in quantities)
    assert any(q.startswith("ground_qfi") for q in quantities)


@pytest.mark.parametrize("kw, message", [
    ({"sizes": (4, 5)}, "sizes must be even integers in [2, 14] (dense capacity), "
                        "got [4, 5]"),
    ({"sizes": (16,)}, "sizes must be even integers in [2, 14]"),
    ({"sizes": ()}, "sizes must be even integers in [2, 14] (dense capacity), got []"),
    ({"n_points": -1}, "points must be >= 0, got -1"),
    ({"corrupt_scale": 1e300}, "corrupt_scale must be finite with magnitude <= 1e150, "
                               "got 1e+300"),
    ({"corrupt_scale": float("nan")}, "corrupt_scale must be finite"),
], ids=["odd-size", "over-cap", "no-sizes", "negative-points", "overflowing-scale",
        "nan-scale"])
def test_oracle_suite_refuses_bad_inputs_before_any_work(kw, message):
    # these used to reach numpy (an overflow warning at corrupt_scale = 1e300)
    args = {"sizes": (4,), "n_points": 1, "include_dynamics": False, **kw}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match=re.escape(message)):
            run_oracle_suite(**args)


def test_oracle_suite_catches_corruption():
    # scaling the dense Hamiltonian must trip the named invariants
    report = run_oracle_suite(sizes=(4,), n_points=4, seed=1,
                              include_dynamics=False, corrupt_scale=1.01)
    assert report["ok"] is False
    failed = [r["quantity"] for r in report["rows"] if not r["pass"]]
    assert any(q.startswith("even-sector spectrum") for q in failed)
    assert any(q.startswith("energy-scale consistency") for q in failed)


@pytest.mark.parametrize("scale, failing", [
    (-1.0, {"ground_qfi"}),
    (1.01, {"even-sector spectrum distance", "energy-scale consistency"})],
    ids=["negated", "scaled"])
def test_oracle_suite_rows_catch_their_corruption(scale, failing):
    # -H has the spectrum of H (the even sector's is symmetric), so only the
    # ground rows, whose states come from the other end of it, see the sign;
    # a 1 % scale keeps every eigenvector and moves only the spectrum
    report = run_oracle_suite(sizes=(4, 6), n_points=6, seed=1,
                              include_dynamics=False, corrupt_scale=scale)
    kinds = [r["quantity"].split(" (")[0] for r in report["rows"]]
    assert set(kinds) == {"even-sector spectrum distance",
                          "energy-scale consistency", "ground_qfi"}
    assert [r["pass"] for r in report["rows"]] == \
        [kind not in failing for kind in kinds]


# ------------------------------------------------- two-thread dense states


def _cpus(monkeypatch, n):
    """Make _map see n CPUs free to the process, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


@pytest.mark.parametrize("seed", [14, 250, 704])   # from the benchmark's suite pool
def test_suite_report_with_the_helper_equals_the_one_cpu_report(monkeypatch, seed):
    kw = dict(sizes=(4, 6, 8), n_points=20, seed=seed, include_dynamics=True)
    _cpus(monkeypatch, 1)
    serial = run_oracle_suite(**kw)
    _cpus(monkeypatch, 2)
    assert run_oracle_suite(**kw) == serial
    assert len(serial["rows"]) == 3 + 1 + 20 + 6


@pytest.mark.parametrize("cpus", [1, 2])
def test_map_keeps_input_order_and_runs_on_the_helper_with_a_second_cpu(monkeypatch, cpus):
    _cpus(monkeypatch, cpus)
    threads = set()

    def fn(x):
        threads.add(threading.get_ident())
        time.sleep(0.002)               # lets go of the GIL, as LAPACK does
        return x * x

    assert _map(fn, list(range(40))) == [x * x for x in range(40)]
    assert len(threads) == cpus
    assert _map(fn, []) == []


def test_map_hands_out_each_index_once_under_fast_thread_switches(monkeypatch):
    # a lost update of the shared index would run an item twice or not at all
    _cpus(monkeypatch, 2)
    calls, interval = [], sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = _map(lambda i: calls.append(i) or -i, list(range(3000)))
    finally:
        sys.setswitchinterval(interval)
    assert got == [-i for i in range(3000)]
    assert sorted(calls) == list(range(3000))


def _stencil_error(monkeypatch, cpus, fail):
    """run_oracle_suite's error when the dense ground states at the stencil
    indices in fail (index: seconds before it raises) fail, and the stencil
    in order; only row 3 calls spectral_decomposition."""
    _cpus(monkeypatch, cpus)
    stencil, bad = [], {}

    def failing(params, scale=1.0):
        stencil.append(params)
        if params in bad:
            time.sleep(bad[params])
            raise ExceptionalModeError(detail=f"state at h={params.h!r}")
        return spectral_decomposition(params, scale=scale)

    monkeypatch.setattr(iksea.oracle, "spectral_decomposition", failing)
    kw = dict(sizes=(4,), n_points=4, seed=5, include_dynamics=False)
    run_oracle_suite(**kw)
    bad.update({stencil[i]: delay for i, delay in fail.items()})
    with pytest.raises(ExceptionalModeError) as err:
        run_oracle_suite(**kw)
    return str(err.value), stencil


def test_two_failing_states_raise_the_serial_loops_error(monkeypatch):
    # point 1's h + delta (index 4) fails slowly, its h - delta (5) at once:
    # with the helper the later index fails first, yet 4's error is raised
    fail = {4: 0.2, 5: 0.0}
    one, stencil = _stencil_error(monkeypatch, 1, fail)
    two, _ = _stencil_error(monkeypatch, 2, fail)
    assert one == two and one.endswith(f" state at h={stencil[4].h!r}")
    assert stencil[4].h == stencil[3].h + 1e-5


@pytest.mark.parametrize("cpus", [1, 2])
def test_map_starts_no_item_after_a_failure(monkeypatch, cpus):
    _cpus(monkeypatch, cpus)
    events, lock = [], threading.Lock()

    def fn(i):
        with lock:
            events.append(("start", i))
        time.sleep(0.005)
        if i in (3, 6):
            with lock:
                events.append(("fail", i))
            raise KeyboardInterrupt(f"item {i}") if i == 3 else RuntimeWarning(i)
        return i

    with pytest.raises(KeyboardInterrupt, match="item 3"):
        _map(fn, list(range(30)))
    first_fail = events.index(("fail", 3))
    assert all(kind == "fail" for kind, _ in events[first_fail:])
    assert len([i for kind, i in events if kind == "start"]) < 10


def test_map_raises_the_lowest_failing_index_not_the_first_in_time(monkeypatch):
    _cpus(monkeypatch, 2)

    def fn(i):
        if i == 0:
            time.sleep(0.1)
            raise ValueError("item 0")
        raise LevelCrossingError(f"item {i}")

    with pytest.raises(ValueError, match="item 0"):
        _map(fn, [0, 1])


def test_map_helper_sees_the_callers_numpy_error_state_and_warning_filters(monkeypatch):
    # item 1 runs on the helper while item 0 sleeps on the calling thread
    _cpus(monkeypatch, 2)

    def fn(x):
        if x == 1.0:
            time.sleep(0.05)
        return np.float64(1e308) * x

    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        _map(fn, [1.0, 10.0])
    with np.errstate(over="warn"), warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeWarning, match="overflow"):
            _map(fn, [1.0, 10.0])
    with np.errstate(over="ignore"):
        assert _map(fn, [1.0, 10.0]) == [1e308, np.inf]
