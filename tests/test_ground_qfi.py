"""Ground-state QFI: closed forms on both branches, fallbacks, asymptotics."""

import hashlib
import math
import warnings

import numpy as np
import pytest

import iksea.ground
import iksea.model
from iksea.errors import (
    DomainError,
    ExceptionalModeError,
    NearSingularWarning,
    OutOfWindowError,
    ParameterError,
)
from iksea.ground import asymptotic_qfi, ground_qfi
from iksea.model import (
    EXACT_SUM_CUTOVER,
    ChainParams,
    block_elements,
    block_matrix,
    exceptional_tolerance,
    momentum_grid,
    zero_crossings,
)
from iksea.oracle import _select_ground, block_fd_qfi, sample_conditioned_params


def eig_ground(p, phi):
    """(energy, (u, v)) of the block ground state from np.linalg.eig.

    The eigenvector is scaled to u = a_plus, where the closed form reads
    (u, v) = (a_plus, eps - g) with Dirac norm A = |u|^2 + |v|^2.
    """
    vals, vecs = np.linalg.eig(block_matrix(p, phi))
    i = _select_ground(vals)
    ap = complex(block_elements(p, phi)[1])
    return vals[i], (ap, vecs[1, i] * ap / vecs[0, i])


def kernel_qfi(p, phi):
    """The ground kernel's QFI of the mode at one angle phi, on or off the grid."""
    return float(iksea.ground._mode_qfi(p, np.array([phi]))[1][0])


def test_imag_branch_frozen_value():
    # at g = 0 the imaginary-branch closed form reduces to a clean rational
    p = ChainParams(h=0.5, gamma=0.5, k_ksea=0.2, n_sites=6)
    np.testing.assert_allclose(kernel_qfi(p, 2 * np.pi / 3), 16.0 / 3.0,
                               rtol=1e-13)


def test_real_branch_frozen_value():
    p = ChainParams(h=2.0, gamma=0.2, k_ksea=0.5, n_sites=4)
    np.testing.assert_allclose(kernel_qfi(p, np.pi / 2),
                               0.005151926868506159, rtol=1e-14)


def test_ground_eigenvector_frozen():
    # the frozen eigenvector (u, v), its Dirac norm A and energy give the
    # frozen real-branch QFI 4 (u v / (eps A))^2 of the kernel
    p = ChainParams(h=2.0, gamma=0.2, k_ksea=0.5, n_sites=4)
    energy, (u, v) = eig_ground(p, np.pi / 2)
    np.testing.assert_allclose(u, 0.7, rtol=1e-15)
    np.testing.assert_allclose(v, 0.051828452868319275, rtol=1e-13)
    np.testing.assert_allclose(abs(u) ** 2 + abs(v) ** 2, 0.4926861885267235,
                               rtol=1e-13)
    np.testing.assert_allclose(energy, -2.0518284528683193, rtol=1e-14)
    a, eps = 0.4926861885267235, 2.0518284528683193
    np.testing.assert_allclose(
        kernel_qfi(p, np.pi / 2),
        4.0 * (0.7 * 0.051828452868319275 / (eps * a)) ** 2, rtol=1e-13)

    # broken branch: eps = -i sqrt(-eps_sq), ground energy has +Im
    pb = ChainParams(h=0.5, gamma=0.5, k_ksea=0.2, n_sites=6)
    energy, (_, v) = eig_ground(pb, 2 * np.pi / 3)
    r = math.sqrt(0.1575)
    np.testing.assert_allclose(energy, 1j * r, rtol=1e-13)
    np.testing.assert_allclose(v, -1j * r, rtol=1e-13, atol=1e-15)
    assert energy.imag > 0


def test_dirac_norm_closed_form_real_branch():
    # A = |u|^2 + |v|^2 = 2K(gamma+K) sin^2 + 2 g (g - eps) on the real branch
    rng = np.random.default_rng(3)
    for _ in range(100):
        p = ChainParams(h=rng.uniform(0.2, 2.0), gamma=rng.uniform(0.05, 0.95),
                        k_ksea=rng.uniform(0.05, 0.95), n_sites=8)
        phi = rng.uniform(0.05, np.pi - 0.05)
        g, ap, am, eps_sq = block_elements(p, phi)
        if eps_sq <= 1e-8:
            continue
        _, (u, v) = eig_ground(p, phi)
        s2 = np.sin(phi) ** 2
        a_closed = (2 * p.k_ksea * (p.gamma + p.k_ksea) * s2
                    + 2 * g * (g - np.sqrt(eps_sq)))
        np.testing.assert_allclose(abs(u) ** 2 + abs(v) ** 2, a_closed,
                                   rtol=1e-10)


def test_real_branch_closed_form_equals_eigenvector_form():
    # F = sin^2 (g^2-K^2 style rational) must equal 4 (u v / (eps A))^2
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 120:
        p = ChainParams(h=rng.uniform(0.2, 2.0), gamma=rng.uniform(0.05, 0.95),
                        k_ksea=rng.uniform(0.05, 0.95), n_sites=8)
        phi = rng.uniform(0.05, np.pi - 0.05)
        g, ap, am, eps_sq = block_elements(p, phi)
        if eps_sq <= 1e-4:
            continue
        _, (u, v) = eig_ground(p, phi)
        eps = np.sqrt(eps_sq)
        a = abs(u) ** 2 + abs(v) ** 2
        via_state = 4.0 * (u.real * v.real / (eps * a)) ** 2
        np.testing.assert_allclose(kernel_qfi(p, phi), via_state,
                                   rtol=1e-9, atol=1e-30)
        checked += 1


def test_exceptional_mode_error_names_the_angle():
    # gamma = K makes eps_sq = g^2; pick h so g vanishes exactly at phi_1
    h = -float(np.cos(np.pi / 4))
    p = ChainParams(h=h, gamma=0.4, k_ksea=0.4, n_sites=4)
    with pytest.raises(ExceptionalModeError) as exc_info:
        ground_qfi(p)
    err = exc_info.value
    assert err.mode_index == 1
    np.testing.assert_allclose(err.phi, np.pi / 4, rtol=1e-12)
    assert "phi=" in str(err)
    # the kernel refuses the same block at that one angle
    with pytest.raises(ExceptionalModeError):
        kernel_qfi(p, np.pi / 4)


def test_gamma_equals_k_line_is_finite():
    # on gamma = K the generic closed form is 0/0 for g < 0; the eigenvector
    # limit must kick in silently and give finite, branch-consistent values
    p = ChainParams(h=0.3, gamma=0.4, k_ksea=0.4, n_sites=8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = ground_qfi(p)
    np.testing.assert_allclose(rec.total, 27.113671605275588, rtol=1e-12)
    np.testing.assert_allclose(
        rec.values, [0.0, 0.0, 26.563268860007877, 0.55040274526771],
        rtol=1e-12)
    assert (block_elements(p, rec.phi)[3] > 0).all()
    assert rec.flag_near_singular is False

    # the kernel on one angle at a time agrees with the record
    grid = momentum_grid(8)
    for value, phi in zip(rec.values, grid):
        np.testing.assert_allclose(kernel_qfi(p, phi), value,
                                   rtol=1e-12, atol=1e-300)


def test_gamma_k_zero_gives_zero_qfi():
    # no anisotropy at all: ground state is field-independent
    p = ChainParams(h=2.0, gamma=0.0, k_ksea=0.0, n_sites=6)
    rec = ground_qfi(p)
    assert rec.total == 0.0
    # the diagonal block's ground state is a field-independent basis vector
    vals, vecs = np.linalg.eig(block_matrix(p, np.pi / 6))
    np.testing.assert_allclose(vecs[:, _select_ground(vals)], [1.0, 0.0],
                               rtol=0)
    # g < 0 flips to the other basis vector
    vals, vecs = np.linalg.eig(block_matrix(p.replace(h=-2.0), np.pi / 6))
    np.testing.assert_allclose(vecs[:, _select_ground(vals)], [0.0, 1.0],
                               rtol=0)


def test_per_mode_branches_match_zero_crossings():
    p = ChainParams(h=0.5, gamma=0.5, k_ksea=0.2, n_sites=64)
    lo, hi = zero_crossings(p)
    rec = ground_qfi(p)
    real = block_elements(p, rec.phi)[3] > 0
    for phi, is_real, value in zip(rec.phi, real, rec.values):
        inside = lo < phi < hi
        assert is_real == (not inside)
        assert value >= 0.0


def test_record_structure_and_fsum_total():
    p = ChainParams(h=0.5, gamma=0.5, k_ksea=0.2, n_sites=6)
    rec = ground_qfi(p)
    np.testing.assert_allclose(rec.total, 21.649674098050713, rtol=1e-13)
    np.testing.assert_allclose(
        rec.values,
        [0.006702926086341442, 13.109393579072478, 8.533577592891895],
        rtol=1e-13)
    np.testing.assert_allclose(rec.phi, momentum_grid(6))
    # total is the fsum of the per-mode values, bit for bit
    assert rec.total == math.fsum(rec.values.tolist())


def test_per_mode_equals_stored_arrays():
    p = ChainParams(h=0.5, gamma=0.5, k_ksea=0.2, n_sites=64)
    rec = ground_qfi(p)
    assert rec.phi.tolist() == momentum_grid(64).tolist()
    assert rec.values.shape == (32,)
    real = block_elements(p, rec.phi)[3] > 0
    assert not real.all() and real.any()
    assert rec.total == math.fsum(rec.values.tolist())
    for a in (rec.phi, rec.values):
        with pytest.raises(ValueError):
            a[0] = 1.0           # the record's arrays are read-only


@pytest.mark.parametrize("h, gamma, k", [
    (0.5, 0.5, 0.2), (1.0, 0.5, 0.2), (1.5, 0.5, 0.2), (0.5, 0.4, 0.4)])
def test_total_is_fsum_above_the_cutover(h, gamma, k):
    # 32768 modes take exact_sum's array path, not math.fsum itself
    rec = ground_qfi(ChainParams(h=h, gamma=gamma, k_ksea=k, n_sites=2 ** 16))
    assert rec.values.size > 16 * EXACT_SUM_CUTOVER
    assert rec.total == math.fsum(rec.values.tolist())


def test_fd_oracle_matches_both_branches():
    # central finite differences on the normalized block eigenvector; the
    # conditioned sampler is dominated by real-branch modes, so a few
    # hand-picked broken-phase points guarantee imaginary-branch coverage
    rng = np.random.default_rng(17)
    pts = list(sample_conditioned_params(rng, 40, sizes=(6, 8)))
    pts += [
        ChainParams(h=0.5, gamma=0.5, k_ksea=0.2, n_sites=8),
        ChainParams(h=0.3, gamma=0.8, k_ksea=0.1, n_sites=8),
        ChainParams(h=0.7, gamma=0.9, k_ksea=0.3, n_sites=6),
    ]
    n_imag = 0
    for p in pts:
        rec = ground_qfi(p)
        for phi, analytic in zip(rec.phi, rec.values):
            g, ap, am, eps_sq = block_elements(p, float(phi))
            if abs(eps_sq) < 1e-3:  # FD step is not reliable that close to
                continue            # a branch crossing
            fd = block_fd_qfi(p, float(phi))
            np.testing.assert_allclose(analytic, fd, rtol=1e-6, atol=1e-12)
            n_imag += int(eps_sq < 0)
    assert n_imag >= 3  # the panel has to exercise the broken branch too


def test_field_derivative_identities_real_branch():
    # d eps/dh = g/eps, du/dh = 0, dv/dh = -v/eps, dA/dh = -2 v^2 / eps
    rng = np.random.default_rng(23)
    delta = 1e-6
    checked = 0
    while checked < 60:
        p = ChainParams(h=rng.uniform(0.3, 2.0), gamma=rng.uniform(0.05, 0.95),
                        k_ksea=rng.uniform(0.05, 0.95), n_sites=8)
        phi = float(rng.uniform(0.1, np.pi - 0.1))
        g, ap, am, eps_sq = block_elements(p, phi)
        if eps_sq < 0.05:
            continue
        eps = math.sqrt(eps_sq)
        ep, (up, vp) = eig_ground(p.replace(h=p.h + delta), phi)
        em, (um, vm) = eig_ground(p.replace(h=p.h - delta), phi)
        _, (_, v) = eig_ground(p, phi)
        d_eps = (-ep.real + em.real) / (2 * delta)
        d_u = (up - um) / (2 * delta)
        d_v = (vp - vm) / (2 * delta)
        d_a = (abs(up) ** 2 + abs(vp) ** 2
               - abs(um) ** 2 - abs(vm) ** 2) / (2 * delta)
        np.testing.assert_allclose(d_eps, g / eps, rtol=1e-6)
        assert abs(d_u) < 1e-12
        np.testing.assert_allclose(d_v.real, -v.real / eps, rtol=1e-5,
                                   atol=1e-8)
        np.testing.assert_allclose(d_a, -2 * v.real ** 2 / eps, rtol=1e-5,
                                   atol=1e-8)
        checked += 1


def test_near_singular_flag_plumbing(monkeypatch):
    # the overflow guard is unreachable with physical parameters (the
    # closed-form denominator has no zeros off the gamma = K line), so drop
    # the threshold artificially to check the warning + flag wiring
    monkeypatch.setattr(iksea.ground, "NEAR_SINGULAR_CONTRIB", 1.0)
    p = ChainParams(h=0.5, gamma=0.5, k_ksea=0.2, n_sites=6)
    with pytest.warns(NearSingularWarning):
        rec = ground_qfi(p)
    assert rec.flag_near_singular is True
    assert (rec.values >= 1.0).any()


def test_no_warning_on_ordinary_sweep():
    p = ChainParams(h=1.0, gamma=0.2, k_ksea=0.5, n_sites=512)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = ground_qfi(p)
    assert rec.flag_near_singular is False


def test_asymptotic_qfi_formulas():
    n = 1000
    p_crit = ChainParams(h=1.0, gamma=0.2, k_ksea=0.5, n_sites=n)
    np.testing.assert_allclose(asymptotic_qfi(p_crit, "critical_unbroken"),
                               (n / np.pi) ** 2 / 0.25, rtol=1e-14)
    # h_e = 1.1; at N = 1000 the tangency angle lies x pi/N from the nearest
    # grid mode, x = 0.2223
    p_exc = ChainParams(h=1.1, gamma=0.5, k_ksea=0.2, n_sites=n)
    (omega_c,) = zero_crossings(p_exc)
    x = float(np.min(np.abs(momentum_grid(n) - omega_c))) * n / np.pi
    assert abs(x - 0.2223) < 1e-4
    np.testing.assert_allclose(asymptotic_qfi(p_exc, "exceptional"),
                               (n / np.pi) ** 2 / (0.25 * x * x), rtol=1e-9)
    kappa = 1e-6
    p_deg = ChainParams(h=1.0, gamma=0.5, k_ksea=0.5 + kappa, n_sites=120)
    np.testing.assert_allclose(asymptotic_qfi(p_deg, "near_degenerate"),
                               16 * kappa ** 2 * (120 / np.pi) ** 6, rtol=1e-9)


def test_asymptotic_qfi_domain_errors():
    with pytest.raises(DomainError):
        asymptotic_qfi(ChainParams(h=1.0, gamma=0.5, k_ksea=0.2, n_sites=100),
                       "critical_unbroken")   # needs K > gamma
    with pytest.raises(DomainError):
        asymptotic_qfi(ChainParams(h=1.5, gamma=0.2, k_ksea=0.5, n_sites=100),
                       "critical_unbroken")   # needs h = 1
    with pytest.raises(DomainError):
        asymptotic_qfi(ChainParams(h=1.1, gamma=0.2, k_ksea=0.5, n_sites=100),
                       "exceptional")         # needs gamma > K
    with pytest.raises(DomainError):
        asymptotic_qfi(ChainParams(h=1.0, gamma=0.5, k_ksea=0.2, n_sites=100),
                       "exceptional")         # h off the exceptional field
    # h_e = sqrt(2) puts the tangency angle at 3 pi/4, the grid mode p = 377
    p_on = ChainParams(h=math.sqrt(2.0), gamma=1.0, k_ksea=0.0, n_sites=1004)
    with pytest.raises(ExceptionalModeError) as exc_info:
        asymptotic_qfi(p_on, "exceptional")
    assert exc_info.value.mode_index == 377
    with pytest.raises(ExceptionalModeError):
        ground_qfi(p_on)
    with pytest.raises(OutOfWindowError):
        asymptotic_qfi(ChainParams(h=1.0, gamma=0.5, k_ksea=0.51, n_sites=4096),
                       "near_degenerate")     # pi/N << 10 theta*
    with pytest.raises(OutOfWindowError):
        # pi/N > 10 kappa holds, yet at theta = pi/N the mode is 2% below
        # the leading term: pi/N = 0.0157 < 10 theta* = 0.02
        asymptotic_qfi(ChainParams(h=1.0, gamma=0.5, k_ksea=0.5 + 1e-6,
                                   n_sites=200), "near_degenerate")
    with pytest.raises(DomainError, match="near_degenerate regime requires h = 1"):
        asymptotic_qfi(ChainParams(h=1.1, gamma=0.5, k_ksea=0.5 + 1e-6,
                                   n_sites=200), "near_degenerate")
    with pytest.raises(ParameterError):
        asymptotic_qfi(ChainParams(h=1.0, gamma=0.5, k_ksea=0.2, n_sites=100),
                       "no_such_regime")


M = iksea.model.PARAM_MAX


@pytest.mark.parametrize("n", [8, 64])
def test_ground_qfi_is_clean_up_to_the_parameter_bound(n):
    # every |h|, gamma, K <= PARAM_MAX gives a finite total >= 0 or a
    # contracted error, with no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for h in (1.0, 0.3, M, -M):
            for gam in (0.5, M):
                for k in (0.2, M, M * (1 - 1e-15)):
                    try:
                        total = ground_qfi(ChainParams(h=h, gamma=gam, k_ksea=k,
                                                       n_sites=n)).total
                    except ExceptionalModeError:
                        continue
                    assert 0.0 <= total < math.inf


B = iksea.ground._BLOCK


@pytest.mark.parametrize("half", [B - 1, B, B + 1, 2 * B + 1, 3 * 2 ** 12])
@pytest.mark.parametrize("h, gamma, k", [
    (1.0, 0.2, 0.5),      # unbroken, K > gamma
    (0.5, 0.5, 0.2),      # broken: both branches on one grid
    (0.5, 0.3, 0.3),      # gamma = K: eigenvector fallback for g < 0
])
def test_blocked_values_equal_one_whole_grid_pass(half, h, gamma, k):
    p = ChainParams(h=h, gamma=gamma, k_ksea=k, n_sites=2 * half)
    rec = ground_qfi(p)
    _, whole = iksea.ground._mode_qfi(p, momentum_grid(p.n_sites))
    assert (rec.values.view(np.int64) == whole.view(np.int64)).all()
    assert rec.total == math.fsum(whole.tolist())


def test_exceptional_mode_in_a_later_block_keeps_its_global_index():
    # the tangency angle 3 pi/4 of h = h_e = sqrt(2) is grid mode 8195 at
    # N = 21852, in the second block
    p = ChainParams(h=math.sqrt(2.0), gamma=1.0, k_ksea=0.0, n_sites=21852)
    with pytest.raises(ExceptionalModeError) as exc_info:
        ground_qfi(p)
    assert exc_info.value.mode_index == 8195
    assert 8195 > B


def test_near_singular_warns_once_per_call_with_the_total(monkeypatch):
    p = ChainParams(h=0.5, gamma=0.5, k_ksea=0.2, n_sites=2 * (2 * B + 1))
    threshold = float(np.median(ground_qfi(p).values))
    monkeypatch.setattr(iksea.ground, "NEAR_SINGULAR_CONTRIB", threshold)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rec = ground_qfi(p)
    count = int(np.count_nonzero(rec.values >= threshold))
    assert count > B                  # spread over more than one block
    assert [type(w.message) for w in caught] == [NearSingularWarning]
    assert str(caught[0].message).startswith(f"{count} mode(s)")
    assert rec.flag_near_singular is True


def _block_kinds(p):
    """'real', 'imag' or 'mixed' for each kernel block of p's grid."""
    eps_sq = block_elements(p, momentum_grid(p.n_sites))[3]
    bound = exceptional_tolerance(abs(p.h) + 1.0, p.gamma + p.k_ksea,
                                  p.gamma - p.k_ksea)
    return ["real" if e.min() > bound else "imag" if e.max() < -bound
            else "mixed" for e in np.split(eps_sq, range(B, eps_sq.size, B))]


@pytest.mark.parametrize("h, gamma, k, n, kinds, digest, total", [
    (1.0, 0.2, 0.5, 2 ** 15, ["real"] * 2,
     "887eca6924f89c33540bdb91da4bf06bc4f5e4d8313a602d942afcc59ad23fdc",
     4737783055138204955),
    (0.3, 1.5, 0.2, 2 ** 16, ["mixed", "imag", "imag", "mixed"],
     "604cedc015abdaf902a9352127c6e3e1340c40730cdbabfaed0d32e53ef62db3",
     4686304566592716363),
    # gamma = K: the closed form is 0/0 for g < 0, the eigenvector form holds
    (0.5, 0.5, 0.5, 2 ** 14, ["real"],
     "3a26addfdccd8b1ae29c4ff5eea18b6ed15692c089a6d3fc1cb0332bcc7aa8e6",
     4672616691125581199),
    (-0.8, 0.5, 0.5, 2 ** 14, ["real"],
     "4e1f8106bcb51b7145b8d1d38fec36e65295307c864e29a986a84895b5e8973c",
     4674448850027631744),
])
def test_block_branches_keep_the_pinned_bits(h, gamma, k, n, kinds, digest,
                                             total):
    # per-mode values (sha256 of their bytes) and the total's bits as the
    # np.where kernel gave them before all-real and all-imaginary blocks
    # evaluated one branch
    p = ChainParams(h=h, gamma=gamma, k_ksea=k, n_sites=n)
    assert _block_kinds(p) == kinds
    rec = ground_qfi(p)
    if gamma == k:
        assert (block_elements(p, rec.phi)[0] < 0).any()
    assert hashlib.sha256(rec.values.tobytes()).hexdigest() == digest
    assert np.float64(rec.total).view(np.int64) == total


@pytest.mark.parametrize("h, gamma, k, phi", [
    (0.5, 0.2, 0.5, 0.0),           # g = |h| + 1: the (|h| + 1)^2 term
    (-0.5, 0.2, 0.5, math.pi),      # g = -(|h| + 1)
    (0.0, 2.0, 0.0, math.pi / 2),   # |a_plus a_minus| = |(gamma + K)(gamma - K)|
])
@pytest.mark.parametrize("exc_tol", [
    np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)])
def test_exceptional_bound_is_attained_and_keeps_the_verdict(
        monkeypatch, h, gamma, k, phi, exc_tol):
    # with EXC_TOL near 1 a mode's |eps_sq| sits just above, on or just below
    # its tolerance, which equals the scalar bound: the kernel must give the
    # per-mode verdict, so any bound lower than the tolerance fails here
    monkeypatch.setattr(iksea.model, "EXC_TOL", float(exc_tol))
    p = ChainParams(h=h, gamma=gamma, k_ksea=k, n_sites=4)
    g, ap, am, eps_sq = block_elements(p, phi)
    tol = exceptional_tolerance(g, ap, am)
    assert tol == exceptional_tolerance(abs(h) + 1.0, gamma + k, gamma - k)
    assert (abs(eps_sq) == tol) == (exc_tol == 1.0)
    if abs(eps_sq) <= tol:
        with pytest.raises(ExceptionalModeError):
            kernel_qfi(p, phi)
    else:
        kernel_qfi(p, phi)


def _per_point(params, hs):
    """ground_qfi at each field of hs: (total, flag) or the error it raises."""
    out = []
    for h in hs:
        try:
            rec = ground_qfi(params.replace(h=h))
            out.append((rec.total, rec.flag_near_singular))
        except ExceptionalModeError as exc:
            out.append(exc)
    return out


def _assert_rows_equal_per_point(params, hs):
    rows = iksea.ground._field_rows(params, hs)
    points = _per_point(params, hs)
    assert len(rows) == len(points) == len(hs)
    for h, row, point in zip(hs, rows, points):
        if isinstance(point, ExceptionalModeError):
            assert type(row) is type(point), h
            assert (str(row), row.mode_index) == (str(point), point.mode_index)
            continue
        total, flag, values = row
        assert np.float64(total).view(np.int64) == \
            np.float64(point[0]).view(np.int64), h
        assert flag is point[1]
        whole = ground_qfi(params.replace(h=h)).values
        assert (values.view(np.int64) == whole.view(np.int64)).all()
    return rows


@pytest.mark.parametrize("gamma, k", [
    (0.5, 0.2),     # K < gamma: broken below h_e, unbroken above
    (0.2, 0.5),     # K > gamma: unbroken everywhere
    (0.4, 0.4),     # gamma = K: eigenvector fallback where the form is 0/0
])
@pytest.mark.parametrize("n", [4, 8, 64, 2 * 2730])
def test_field_rows_equal_per_point_calls(gamma, k, n):
    # unbroken, broken and mixed-phase fields in one grid, both signs of h;
    # at N = 5460 the kernel takes three rows per block
    hs = [-1.7, -0.93, -0.5, -0.2, 0.0, 0.13, 0.5, 0.77, 0.999, 1.0, 1.08,
          1.3, 2.4]
    p = ChainParams(h=1.0, gamma=gamma, k_ksea=k, n_sites=n)
    rows = _assert_rows_equal_per_point(p, hs)
    if gamma == k and n > 4:
        g = block_elements(p.replace(h=-0.5), momentum_grid(n))[0]
        assert (g < 0).any() and not isinstance(rows[2], Exception)


def test_field_rows_run_many_row_blocks():
    # 5000 fields at N = 8 make three row blocks of up to _BLOCK // 4 rows
    hs = list(np.linspace(-2.0, 2.0, 5000))
    p = ChainParams(h=1.0, gamma=0.5, k_ksea=0.2, n_sites=8)
    assert len(hs) > 2 * (B // 4)
    _assert_rows_equal_per_point(p, hs)


@pytest.mark.parametrize("n, mode", [(12, 5), (20, 8)])
def test_exceptional_field_mid_grid_fails_alone(n, mode):
    # h = h_e = sqrt(2) at gamma = 1, K = 0 puts the tangency angle 3 pi/4 on
    # a grid mode; -sqrt(2) puts it at pi/4
    hs = [0.3, 1.2, math.sqrt(2.0), 1.5, -math.sqrt(2.0), 2.0]
    p = ChainParams(h=1.0, gamma=1.0, k_ksea=0.0, n_sites=n)
    rows = _assert_rows_equal_per_point(p, hs)
    assert [isinstance(r, ExceptionalModeError) for r in rows] == \
        [False, False, True, False, True, False]
    assert rows[2].mode_index == mode
    assert rows[4].mode_index == n // 2 + 1 - mode


def test_exceptional_field_in_a_wide_row_keeps_its_global_index():
    # mode 8195 of N = 21852 lies in the row's second block of _BLOCK modes
    hs = [1.2, math.sqrt(2.0), 0.5]
    p = ChainParams(h=1.0, gamma=1.0, k_ksea=0.0, n_sites=21852)
    rows = _assert_rows_equal_per_point(p, hs)
    assert rows[1].mode_index == 8195


@pytest.mark.parametrize("half", [B - 1, B, B + 1])
def test_field_rows_at_the_block_edges(half):
    hs = [0.3, 0.5, 1.0, 1.7]
    _assert_rows_equal_per_point(
        ChainParams(h=1.0, gamma=0.5, k_ksea=0.2, n_sites=2 * half), hs)


def test_near_singular_rows_warn_once_per_field(monkeypatch):
    hs = [0.2, 0.5, 1.5, 0.8]
    p = ChainParams(h=1.0, gamma=0.5, k_ksea=0.2, n_sites=64)
    threshold = float(np.median(ground_qfi(p.replace(h=0.5)).values))
    monkeypatch.setattr(iksea.ground, "NEAR_SINGULAR_CONTRIB", threshold)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = iksea.ground._field_rows(p, hs)
    counts = [int(np.count_nonzero(values >= threshold)) for _, _, values in rows]
    flagged = [(c, h) for c, h in zip(counts, hs) if c]
    assert 0 < len(flagged) < len(hs)
    assert [type(w.message) for w in caught] == [NearSingularWarning] * len(flagged)
    assert [str(w.message) for w in caught] == [
        f"{c} mode(s) contribute within 1e6 of float overflow at h={h:.12g}"
        for c, h in flagged]
    assert [flag for _, flag, _ in rows] == [c > 0 for c in counts]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NearSingularWarning)
        _assert_rows_equal_per_point(p, hs)
