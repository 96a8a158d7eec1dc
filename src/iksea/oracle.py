"""Independent dense-spin-space oracle.

Everything here is built straight from Pauli matrix elements on the full
2^N-dimensional spin space with bit-twiddling — no momentum blocks, no closed
forms — so it can cross-check the production code along a completely
independent route:

  * dense Hamiltonian of the chain (bit j of a basis index: 0 = spin up,
    1 = spin down; the all-down state is index 2^N - 1),
  * spin-flip-parity sectors (parity of popcount),
  * even-sector spectrum vs the multiset generated by the momentum-block
    dispersions (pair occupation +-eps_p, extended by the "broken pair"
    states where a {p,-p} pair holds one fermion and contributes zero,
    degeneracy 2 per pair, even number of broken pairs),
  * finite-difference ground-state QFI with explicit gauge alignment, its dense
    states made on the calling thread and one helper (_map), as one thread makes them,
  * matrix-exponential time evolution of the all-down state, serial.

The dense-to-block energy scale is a check, not a factor: least squares on
assignment-matched spectra must fit the same value, 1, at every point.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import threading
from typing import List, Tuple

import numpy as np

from .errors import CalibrationError, ExceptionalModeError, LevelCrossingError, ParameterError
from .dynamics import dynamical_qfi
from .ground import ground_qfi
from .model import ChainParams, block_elements, dispersion, momentum_grid

__all__ = [
    "DENSE_CAP", "EVOLUTION_CAP", "dense_hamiltonian", "parity_vector", "even_sector_indices",
    "sector_hamiltonian", "spectral_decomposition", "spectral_ground_state",
    "block_even_multiset", "spectrum_match_error", "fd_qfi_ground", "dense_evolution_qfi",
    "calibrate_energy_scale", "fit_energy_scale", "sample_conditioned_params",
    "run_oracle_suite",
]

DENSE_CAP = 14
EVOLUTION_CAP = 12


def _hamiltonian(params: ChainParams, scale: float, even: bool):
    """(matrix, basis) on all 2^N basis states or on the even parity sector,
    which the two-spin flips of every bond map into itself."""
    n = params.n_sites
    if n > DENSE_CAP:
        raise ParameterError(f"dense oracle supports n_sites <= {DENSE_CAP}, got {n}")
    a = even_sector_indices(n) if even else np.arange(1 << n)
    dim = a.size
    pos = np.empty(1 << n, dtype=np.intp)     # row of each basis state
    pos[a] = col = np.arange(dim)
    h_mat = np.zeros((dim, dim), dtype=complex)
    gam, k, h = params.gamma, params.k_ksea, params.h
    cxx = (1.0 + 1j * gam) / 4.0
    cyy = (1.0 - 1j * gam) / 4.0
    for j in range(n):
        jj = (j + 1) % n
        bj = (a >> j) & 1
        bk = (a >> jj) & 1
        flip = pos[a ^ ((1 << j) | (1 << jj))]
        # sx sx flips both spins with amplitude +1
        h_mat[flip, col] += cxx
        # sy sy flips both spins; -1 when the bits agree, +1 when they differ
        h_mat[flip, col] += cyy * np.where(bj == bk, -1.0, 1.0)
        # K/4 (sx sy + sy sx): nonzero only when the bits agree
        ks = np.where((bj == 0) & (bk == 0), 2j,
                      np.where((bj == 1) & (bk == 1), -2j, 0.0))
        h_mat[flip, col] += (k / 4.0) * ks
        # field term, diagonal: bit 0 means spin up (+1)
        h_mat[col, col] += (h / 2.0) * (1.0 - 2.0 * bj)
    if scale != 1.0:
        h_mat *= scale
    return h_mat, a


def dense_hamiltonian(params: ChainParams, scale: float = 1.0) -> np.ndarray:
    """Full 2^N dense Hamiltonian, assembled bond by bond from Pauli action.

    scale multiplies the whole operator (test hook for the calibration
    cross-check; physical value 1).
    """
    return _hamiltonian(params, scale, even=False)[0]


def parity_vector(n_sites: int) -> np.ndarray:
    """Spin-flip parity (+1/-1) of each basis state: (-1)^popcount."""
    bits = np.arange(1 << n_sites)[:, None] >> np.arange(n_sites) & 1
    return 1 - 2 * (bits.sum(axis=1) % 2)


def even_sector_indices(n_sites: int) -> np.ndarray:
    return np.nonzero(parity_vector(n_sites) == 1)[0]


def sector_hamiltonian(params: ChainParams,
                       scale: float = 1.0) -> Tuple[np.ndarray, np.ndarray]:
    """(restricted matrix, basis indices) for the even parity sector."""
    return _hamiltonian(params, scale, even=True)


def spectral_decomposition(params: ChainParams, scale: float = 1.0):
    """(eigenvalues, right eigenvectors as columns, basis indices) of the
    even parity sector, with residual checks.

    Raises ExceptionalModeError when the sector matrix is (numerically)
    defective: eigenvector matrix close to singular or residuals beyond
    1e-8 * ||H||.
    """
    mat, idx = sector_hamiltonian(params, scale=scale)
    vals, vecs = np.linalg.eig(mat)
    resid = np.linalg.norm(mat @ vecs - vecs * vals[None, :], axis=0)
    # max|lambda| <= ||H||_2: below half that floor the SVD cannot matter
    if resid.max() > 0.5e-8 * max(1.0, np.abs(vals).max()):
        scale_h = np.linalg.norm(mat, ord=2)
        if np.any(resid > 1e-8 * max(1.0, scale_h)):
            raise ExceptionalModeError(
                detail=f"worst eigenpair residual {resid.max():.3e} exceeds "
                       f"1e-8 * ||H|| = {1e-8 * max(1.0, scale_h):.3e}")
    cond = np.linalg.cond(vecs)
    if cond > 1e12:
        raise ExceptionalModeError(
            detail=f"eigenvector matrix condition number "
                   f"{cond:.3e} indicates a defective sector")
    return vals, vecs, idx


def _select_ground(vals: np.ndarray) -> int:
    """Index of the ground eigenvalue.

    All-real spectrum (|Im| <= 1e-8 throughout): smallest real part.
    Otherwise: largest imaginary part, ties broken by smallest real part.
    The imaginary-part tie is grouped with a 1e-8 tolerance so that eig()
    round-off noise cannot reorder genuinely degenerate imaginary parts.
    """
    if np.max(np.abs(vals.imag)) <= 1e-8:
        return int(np.argmin(vals.real))
    im_max = float(np.max(vals.imag))
    group = np.nonzero(vals.imag >= im_max - 1e-8 * max(1.0, abs(im_max)))[0]
    return int(group[np.argmin(vals.real[group])])


def spectral_ground_state(params: ChainParams, scale: float = 1.0):
    """(normalised ground vector in the full space, its eigenvalue).

    Gauge fixed by making the largest-magnitude component real positive.
    """
    vals, vecs, idx = spectral_decomposition(params, scale=scale)
    i = _select_ground(vals)
    vec = np.zeros(1 << params.n_sites, dtype=complex)
    vec[idx] = vecs[:, i]
    vec /= np.linalg.norm(vec)
    j = int(np.argmax(np.abs(vec)))
    ph = vec[j] / abs(vec[j])
    vec *= np.conj(ph)
    return vec, complex(vals[i])


def block_even_multiset(params: ChainParams) -> np.ndarray:
    """Even-sector spectrum predicted by the momentum blocks.

    Fully paired states contribute sum_p s_p eps_p over s_p = +-1.  States
    where a subset S of the {p,-p} pairs is singly occupied ("broken pairs",
    allowed in the even sector when |S| is even) contribute the same sums
    over the complement: a singly occupied pair has n_p + n_{-p} = 1, so its
    g (n_p + n_{-p} - 1) term vanishes and it adds zero, with degeneracy
    2^|S| from the choice of which member of each pair is filled.
    """
    n = params.n_sites
    phi = momentum_grid(n)
    _, eps = dispersion(params, phi)
    npairs = phi.size
    out: List[complex] = []
    for nb in range(0, npairs + 1, 2):
        for broken in itertools.combinations(range(npairs), nb):
            rest = [p for p in range(npairs) if p not in broken]
            for signs in itertools.product((-1, 1), repeat=len(rest)):
                val = sum(s * eps[p] for s, p in zip(signs, rest))
                out.extend([val] * (1 << nb))
    return np.asarray(out, dtype=complex)


def _assignment(cost: np.ndarray) -> np.ndarray:
    """Column of each row in a minimum-cost assignment: shortest augmenting
    paths (Crouse 2016, IEEE TAES 52(4)) in the scan order, tie rule and dual
    updates of scipy.optimize.linear_sum_assignment, so it returns the same
    columns.  A non-square or non-finite matrix raises ValueError."""
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValueError(f"cost matrix must be square, got shape {cost.shape}")
    if not np.isfinite(cost).all():
        raise ValueError("cost matrix must be finite")
    n = cost.shape[0]
    u, v = np.zeros(n), np.zeros(n)
    col4row, row4col, path = (np.full(n, -1) for _ in range(3))
    for cur in range(n):
        spc = np.full(n, np.inf)          # shortest path cost to each column
        remaining = np.arange(n - 1, -1, -1)
        rows, cols, i, min_val, sink = [], [], cur, 0.0, -1
        while sink < 0:
            rows.append(i)
            rem = remaining[: n - len(cols)]
            r = ((min_val + cost[i, rem]) - u[i]) - v[rem]
            d = spc[rem]
            better = r < d
            path[rem[better]] = i
            spc[rem] = d = np.where(better, r, d)
            min_val = d.min()
            at_min = np.flatnonzero(d == min_val)
            free = at_min[row4col[rem[at_min]] < 0]
            k = free[-1] if free.size else at_min[0]
            j = rem[k]
            if row4col[j] < 0:
                sink = j
            else:
                i = row4col[j]
            cols.append(j)
            rem[k] = rem[-1]
        u[cur] += min_val
        u[rows[1:]] += min_val - spc[col4row[rows[1:]]]
        v[cols] -= min_val - spc[cols]
        i, j = -1, sink
        while i != cur:                   # augment along the path to cur
            i = row4col[j] = path[j]
            col4row[i], j = j, col4row[i]
    return col4row


def _matched_spectra(params: ChainParams, scale: float):
    """(dense even-sector eigenvalues, the block multiset in the order that
    pairs it with them at minimum total |a_i - b_j|)."""
    a = np.linalg.eigvals(sector_hamiltonian(params, scale=scale)[0])
    b = block_even_multiset(params)
    if a.size != b.size:
        raise CalibrationError(
            f"sector dimension {a.size} != block multiset size {b.size}")
    return a, b[_assignment(np.abs(a[:, None] - b[None, :]))]


def spectrum_match_error(params: ChainParams, scale: float = 1.0) -> float:
    """Max matched distance between dense even-sector eigenvalues and the
    block-generated multiset."""
    a, b = _matched_spectra(params, scale)
    return float(np.max(np.abs(a - b)))


def fit_energy_scale(params: ChainParams, scale: float = 1.0) -> Tuple[float, float, float]:
    """Fit dense ~ s * block + c on assignment-matched even-sector spectra.

    Returns (s, c, max_residual).  s and c are real by construction of the
    model (both routes produce conjugation-symmetric spectra).
    """
    a, b = _matched_spectra(params, scale)
    design = np.zeros((2 * a.size, 2))
    design[: a.size, 0] = b.real
    design[: a.size, 1] = 1.0
    design[a.size:, 0] = b.imag
    rhs = np.concatenate([a.real, a.imag])
    sol, *_ = np.linalg.lstsq(design, rhs, rcond=None)
    s, c = float(sol[0]), float(sol[1])
    resid = float(np.max(np.abs(a - (s * b + c))))
    return s, c, resid


def calibrate_energy_scale() -> Tuple[float, float]:
    """(scale, const) between the dense and block energy conventions.

    Fitted at a fixed generic point (N=4); the fit must reproduce the
    spectra to ~1e-10, else CalibrationError.
    """
    ref = ChainParams(h=0.9, gamma=0.35, k_ksea=0.55, n_sites=4)
    s, c, resid = fit_energy_scale(ref)
    if resid > 1e-10 * max(1.0, abs(s)):
        raise CalibrationError(
            f"energy-scale fit residual {resid:.3e} too large at the "
            f"reference point; dense and block routes disagree structurally")
    return s, c


def _fd_qfi_from_states(psi0, psi_plus, psi_minus, delta: float) -> float:
    """QFI from three normalised state snapshots, with gauge alignment.

    The +-delta states are rotated by the unit phase that makes their overlap
    with psi0 real positive, which removes the arbitrary eigenvector gauge.
    """
    def align(psi):
        o = np.vdot(psi0, psi)
        if abs(o) == 0.0:
            raise LevelCrossingError("zero overlap with the central state")
        return psi * (np.conj(o) / abs(o))

    cross = abs(np.vdot(psi_minus, psi_plus))
    if cross < 0.99:
        raise LevelCrossingError(
            f"|<psi(h-d)|psi(h+d)>| = {cross:.6f} < 0.99: finite-difference "
            f"stencil straddles a level crossing")
    pp = align(psi_plus)
    pm = align(psi_minus)
    dpsi = (pp - pm) / (2.0 * delta)
    dd = float(np.real(np.vdot(dpsi, dpsi)))
    ov = np.vdot(psi0, dpsi)
    return 4.0 * (dd - abs(ov) ** 2)


def _map(fn, items: list) -> list:
    """[fn(x) for x in items] on the calling thread and, with a second CPU free, one
    helper in a copy of the caller's context (numpy's error state).  Each takes the next
    index under one lock, none after a failure; the lowest failing index's error, the
    serial loop's (every lower index ran), is raised."""
    out, failed, lock, todo = [None] * len(items), {}, threading.Lock(), iter(range(len(items)))

    def work():
        while True:
            with lock:
                i = None if failed else next(todo, None)
            if i is None:
                return
            try:
                out[i] = fn(items[i])
            except BaseException as exc:        # KeyboardInterrupt too
                failed[i] = exc

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    helper = threading.Thread(target=contextvars.copy_context().run, args=(work,))
    if (cpus or 1) > 1:
        helper.start()
    try:
        work()
    finally:
        todo = iter(())         # interrupted, in the join too: hand out no more
        if helper.ident is not None:
            helper.join()
    if failed:
        raise failed[min(failed)]
    return out


def _central_fd(state, points, delta: float, each=map) -> list:
    """_fd_qfi_from_states of each point on state(p) at h, h + delta and
    h - delta; each(state, stencil) makes the 3 len(points) states in order."""
    s = list(each(state, [q for p in points for q in (
        p, p.replace(h=p.h + delta), p.replace(h=p.h - delta))]))
    return [_fd_qfi_from_states(*s[i:i + 3], delta) for i in range(0, len(s), 3)]


def fd_qfi_ground(params: ChainParams, delta: float = 1e-5) -> float:
    """Dense-oracle ground-state QFI by central finite differences in h."""
    return _central_fd(lambda p: spectral_ground_state(p)[0], [params], delta, _map)[0]


def _evolved_dense_state(params: ChainParams, t: float,
                         corrupt: float = 1.0) -> np.ndarray:
    import scipy.linalg as sla      # 0.2 s and 20 MB that only this needs
    # the last column evolves the all-down state, the fermionic vacuum
    out = sla.expm(-1j * dense_hamiltonian(params, scale=corrupt) * t)[:, -1]
    return out / np.linalg.norm(out)


def dense_evolution_qfi(params: ChainParams, t: float,
                        corrupt: float = 1.0) -> float:
    """Central-difference QFI, step 1e-5 in h, of the evolved all-down state.

    scipy.linalg, imported at the first call, exponentiates the full (N <= 12)
    Hamiltonian; an evolution that overflows (a large corrupt) gives a quiet NaN.
    """
    if params.n_sites > EVOLUTION_CAP:
        raise ParameterError(
            f"dense evolution supports n_sites <= {EVOLUTION_CAP}, got {params.n_sites}")
    with np.errstate(over="ignore", invalid="ignore"):
        return _central_fd(lambda p: _evolved_dense_state(p, t, corrupt),
                           [params], 1e-5)[0]


def sample_conditioned_params(rng: np.random.Generator, n_points: int,
                              sizes=(4, 6, 8)) -> List[ChainParams]:
    """Seeded random parameter points kept away from dispersion crossings.

    Central-difference oracles lose accuracy when a mode sits close to
    eps_sq = 0 (the state varies on an h-scale ~ eps_sq / 2g), so candidate
    points are rejected unless every mode satisfies
    |eps_sq| >= 0.2 max(1, g^2, |a+ a-|) and every real-branch
    denominator satisfies |gamma g + eps K| >= 0.05.
    """
    out: List[ChainParams] = []
    while len(out) < n_points:
        n = int(rng.choice(sizes))
        p = ChainParams(
            h=float(rng.uniform(0.2, 2.0)),
            gamma=float(rng.uniform(0.05, 0.95)),
            k_ksea=float(rng.uniform(0.05, 0.95)),
            n_sites=n,
        )
        g, ap, am, eps_sq = block_elements(p, momentum_grid(n))
        floor = 0.2 * np.maximum(1.0, np.maximum(g * g, np.abs(ap * am)))
        if np.any(np.abs(eps_sq) < floor):
            continue
        real = eps_sq > 0
        if real.any():
            den = p.gamma * g[real] + np.sqrt(eps_sq[real]) * p.k_ksea
            if np.any(np.abs(den) < 0.05):
                continue
        out.append(p)
    return out


def run_oracle_suite(sizes=(4, 6, 8), n_points: int = 20, seed: int = 0,
                     include_dynamics: bool = True,
                     corrupt_scale: float = 1.0) -> dict:
    """Cross-check the production code against the dense oracle.

    Returns a report dict whose "rows" each carry (quantity, analytic,
    oracle, rel_err, pass), None where not finite; report["ok"] is the verdict.
    corrupt_scale (test hook, physical value 1.0) multiplies the dense
    Hamiltonian so the suite can be shown to fail.  Bad sizes or n_points and
    |corrupt_scale| > 1e150 raise ParameterError before any work.
    """
    if not sizes or any(n % 2 or not 2 <= n <= DENSE_CAP for n in sizes):
        raise ParameterError(f"sizes must be even integers in [2, {DENSE_CAP}] "
                             f"(dense capacity), got {list(sizes)}")
    if n_points < 0:
        raise ParameterError(f"points must be >= 0, got {n_points}")
    if not abs(corrupt_scale) <= 1e150:     # squares overflow from 1.3e154
        raise ParameterError(f"corrupt_scale must be finite with magnitude "
                             f"<= 1e150, got {corrupt_scale!r}")
    rng = np.random.default_rng(seed)
    rows = []

    def num(x):
        return float(x) if np.isfinite(x) else None

    def add(quantity, analytic, oracle, rel_err, ok, detail=""):
        rows.append({"quantity": quantity, "analytic": num(analytic),
                     "oracle": num(oracle), "rel_err": num(rel_err),
                     "pass": bool(ok), "detail": detail})

    # 1. even-sector spectrum equals the block multiset (expected distance 0)
    for n in sizes:
        p = ChainParams(h=float(rng.uniform(0.3, 1.8)),
                        gamma=float(rng.uniform(0.1, 0.9)),
                        k_ksea=float(rng.uniform(0.1, 0.9)), n_sites=int(n))
        err = spectrum_match_error(p, scale=corrupt_scale)
        tol = 1e-8 * max(1.0, abs(p.h) + 2.0)
        add(f"even-sector spectrum distance (N={n})", 0.0, err, err, err <= tol,
            f"h={p.h:.4f} gamma={p.gamma:.4f} K={p.k_ksea:.4f}, tol {tol:.1e}")

    # 2. energy-scale parameter independence
    s_ref, c_ref = calibrate_energy_scale()
    worst, worst_s = 0.0, s_ref
    for p in sample_conditioned_params(rng, max(4, n_points // 4), sizes=(4, 6)):
        s, c, _ = fit_energy_scale(p, scale=corrupt_scale)
        dev = max(abs(s - s_ref) / max(1.0, abs(s_ref)), abs(c - c_ref))
        if dev > worst:
            worst, worst_s = dev, s
    add("energy-scale consistency", s_ref, worst_s, worst, worst <= 1e-8,
        "worst refitted scale across random points vs cached calibration, tol 1e-08")

    # 3. dense FD ground QFI vs closed forms, one row per sampled point (one _map)
    points = sample_conditioned_params(rng, n_points, sizes=sizes)
    for p, ref in zip(points, _central_fd(lambda q: spectral_ground_state(
            q, scale=corrupt_scale)[0], points, 1e-5, _map)):
        val = ground_qfi(p).total
        rel = abs(val - ref) / max(abs(ref), 1e-300)
        add(f"ground_qfi (N={p.n_sites}, h={p.h:.4f}, gamma={p.gamma:.4f}, "
            f"K={p.k_ksea:.4f})", val, ref, rel, rel <= 1e-5, "tol 1e-05")

    # 4. dense evolution QFI vs block dynamics, serial (scipy.linalg's expm)
    if include_dynamics:
        for h in (1.5, 0.5):
            p = ChainParams(h=h, gamma=0.5, k_ksea=0.2, n_sites=6)
            for t in (0.5, 2.0, 5.0):
                ref = dense_evolution_qfi(p, t, corrupt=corrupt_scale)
                val = dynamical_qfi(p, t)
                rel = abs(val - ref) / max(abs(ref), 1e-300)
                add(f"dynamical_qfi (N=6, h={h}, t={t})", val, ref, rel,
                    rel <= 1e-5, "tol 1e-05")

    return {"ok": all(r["pass"] for r in rows), "rows": rows,
            "seed": seed, "sizes": list(sizes), "n_points": n_points}
