import functools
import json
import struct
import warnings
from dataclasses import fields

import numpy as np
import pytest

from anisoeit import (beltrami, beltrami_coefficient, extend_mu, affine_map,
                      solve_beltrami, pushforward_tensor, save_qcmap,
                      BeltramiConvergenceError)
from anisoeit.beltrami import MuGrid
from anisoeit.phantoms import STOCK

GENERAL = np.array([[2.0, 0.7], [0.7, 1.1]])


@pytest.fixture(scope="module")
def maps(catalog_maps):
    """The catalog maps and one of a complex dilatation."""
    return {**catalog_maps, "general": solve_beltrami(extend_mu(GENERAL))}


# ---------------------------------------------------------------------------
# Beltrami coefficient


def test_mu_catalog_values():
    expected = {"A1": 0.0655, "A2": -0.0655, "A3": 0.3333, "A4": -0.3333}
    for name, (_, A0) in STOCK.items():
        mu = beltrami_coefficient(A0)
        assert mu.imag == 0.0
        assert mu.real == pytest.approx(expected[name], abs=5e-5)


def test_mu_identity_zero():
    assert beltrami_coefficient(np.eye(2)) == 0.0


def test_mu_general_matrix():
    # direct evaluation of the defining formula with sqrt(det) = sqrt(1.75)
    mu = beltrami_coefficient(np.array([[2.0, 0.5], [0.5, 1.0]]))
    expected = (-1.0 - 1.0j) / (3.0 + 2.0 * np.sqrt(1.75))
    assert mu == pytest.approx(expected, abs=1e-15)


def test_mu_scale_invariant_exact():
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    base = beltrami_coefficient(A)
    for c in (2.0, 4.0, 0.5, 0.25):   # powers of two keep sqrt exact
        assert beltrami_coefficient(c * A) == base


def test_mu_bounded_for_random_spd():
    rng = np.random.default_rng(42)
    for _ in range(10_000):
        ev = rng.uniform(0.1, 10.0, size=2)
        t = rng.uniform(0, np.pi)
        Q = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
        A = Q @ np.diag(ev) @ Q.T
        A = 0.5 * (A + A.T)
        assert abs(beltrami_coefficient(A)) < 1.0


def test_mu_rejects_bad_input():
    with pytest.raises(ValueError):
        beltrami_coefficient(np.array([[1.0, 0.3], [0.2, 1.0]]))
    with pytest.raises(ValueError):
        beltrami_coefficient(np.diag([1.0, -1.0]))


# ---------------------------------------------------------------------------
# coefficient extension


def test_extend_mu_identity_zero():
    mu = extend_mu(np.eye(2), n=128)
    assert not np.abs(mu.mu).any()


def test_extend_mu_center_value():
    mu = extend_mu(np.diag([1.0, 4.0]), n=128)
    center = mu.mu[64, 64]
    assert center.real == pytest.approx(0.3333, abs=5e-5)


def test_extend_mu_ramp_midpoint():
    r, blend, n, s = 2.0, 0.5, 512, 4.0
    mu = extend_mu(np.diag([1.0, 4.0]), r=r, blend=blend, n=n, s=s)
    # sample exactly at |x| = r - blend/2 along the grid x-axis
    x_target = r - blend / 2.0
    ax = mu.axis()
    j = int(round((x_target + s) / mu.spacing))
    assert ax[j] == pytest.approx(x_target, abs=1e-12)
    val = mu.mu[j, n // 2]
    assert val == pytest.approx(mu.mu0 / 2.0, abs=1e-12)
    assert np.abs(mu.mu[np.hypot(*mu.meshgrid()) >= r]).max() == 0.0


def test_extend_mu_rejects_bad_geometry():
    with pytest.raises(ValueError):
        extend_mu(np.eye(2), r=2.0, blend=2.5)
    with pytest.raises(ValueError):
        extend_mu(np.eye(2), r=2.0, s=3.0)


def test_mu_grid_is_radial_by_construction():
    # a MuGrid holds no samples, only (n, s, r, blend, mu0): its grid mu is
    # mu0 rho(|z|), with the one ramp that the radial solve reads on its nodes
    mu = extend_mu(np.array([[2.0, 0.7], [0.7, 1.1]]), n=64)
    assert [f.name for f in fields(MuGrid)] == ["n", "s", "r", "blend", "mu0"]
    X, Y = mu.meshgrid()
    assert np.array_equal(mu.mu, mu.mu0 * mu.ramp(np.hypot(X, Y)))
    x = mu.axis()
    assert np.array_equal(mu.mu[:, 32], mu.mu0 * mu.ramp(np.abs(x)))
    assert mu.ramp(np.array([0.0, 1.5, 1.75, 2.0, 3.0])).tolist() == \
        [1.0, 1.0, 0.5, 0.0, 0.0]


# ---------------------------------------------------------------------------
# independent reference: the fixed-point iteration h <- T[mu h] + T[mu],
# Phi = z + P[mu (h + 1)] on the whole zero-padded grid, with T the Fourier
# multiplier conj(zeta)/zeta and P the convolution with 1/(pi z)


def _cauchy_kernel(idx, d, refine=4):
    # 1/(pi z) at the displacements (idx[i] + 1j idx[j]) * d; cells within
    # `refine` spacings of the singularity carry exact cell averages
    # (Gauss-Legendre), and the singular cell integrates to zero by symmetry
    DX, DY = np.meshgrid(idx * d, idx * d, indexing="ij")
    Z = DX + 1j * DY
    with np.errstate(divide="ignore", invalid="ignore"):
        K = 1.0 / (np.pi * Z)
    nodes, weights = np.polynomial.legendre.leggauss(12)
    nodes = nodes * d / 2.0
    weights = weights * d / 2.0
    GX, GY = np.meshgrid(nodes, nodes, indexing="ij")
    GW = np.outer(weights, weights)
    near = {int(v): p for p, v in enumerate(idx) if abs(v) <= refine}
    for i, p in near.items():
        for j, q in near.items():
            if i == 0 and j == 0:
                K[p, q] = 0.0
                continue
            cell = (i * d + GX) + 1j * (j * d + GY)
            K[p, q] = np.sum(GW / (np.pi * cell)) / (d * d)
    return K


def _full_grid_hilbert(g, s, pad):
    # the transform as full-grid fft2/ifft2 on the embedded array
    n = g.shape[0]
    m = pad * n
    lo = (m - n) // 2
    big = np.zeros((m, m), dtype=complex)
    big[lo:lo + n, lo:lo + n] = g
    freq = np.fft.fftfreq(m, d=2.0 * (pad * s) / m)
    FX, FY = np.meshgrid(freq, freq, indexing="ij")
    zeta = FX + 1j * FY
    with np.errstate(divide="ignore", invalid="ignore"):
        symbol = np.conj(zeta) / zeta
    symbol[0, 0] = 0.0
    return np.fft.ifft2(symbol * np.fft.fft2(big))[lo:lo + n, lo:lo + n]


def _full_grid_cauchy(g, s):
    # the transform as full-grid fft2/ifft2 on the 2n x 2n zero-padded grid
    n = g.shape[0]
    d = 2.0 * s / n
    gp = np.zeros((2 * n, 2 * n), dtype=complex)
    gp[:n, :n] = g
    idx = np.arange(2 * n)
    Khat = np.fft.fft2(_cauchy_kernel(np.where(idx < n, idx, idx - 2 * n), d))
    conv = np.fft.ifft2(np.fft.fft2(gp) * Khat)[:n, :n] * (d * d)
    return conv - conv[n // 2, n // 2]


@functools.lru_cache(maxsize=None)
def _full_grid_solve(pad):
    # A4 on the 256 grid; returns Phi and the sup-norm increments
    mu = extend_mu(STOCK["A4"][1], n=256)
    m = mu.mu
    h = tmu = _full_grid_hilbert(m, mu.s, pad)
    increments = []
    for _ in range(200):
        h_next = _full_grid_hilbert(m * h, mu.s, pad) + tmu
        increments.append(np.abs(h_next - h).max())
        h = h_next
        if increments[-1] <= 1e-10:
            break
    X, Y = mu.meshgrid()
    return X + 1j * Y + _full_grid_cauchy(m * (h + 1.0), mu.s), increments


def _stock_grid(n=512, s=4.0):
    x = -s + (2 * s / n) * np.arange(n)
    X, Y = np.meshgrid(x, x, indexing="ij")
    return X, Y, X + 1j * Y


def test_hilbert_maps_dbar_to_d():
    # the reference T satisfies T(dbar f) = d f
    X, Y, Z = _stock_grid()
    G = np.exp(-2.0 * (X ** 2 + Y ** 2))
    dbarG = -2.0 * Z * G
    dG = -2.0 * np.conj(Z) * G
    q = len(Z) // 4
    for pad in (1, 2):
        out = _full_grid_hilbert(dbarG, 4.0, pad)
        rel = np.abs(out - dG)[q:-q, q:-q].max() / np.abs(dG).max()
        assert rel < 1e-6


def test_hilbert_plancherel():
    # the reference T is unitary on zero-mean data
    rng = np.random.default_rng(0)
    g = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
    g -= g.mean()   # the zero mode is annihilated by convention
    out = _full_grid_hilbert(g, 4.0, 1)
    assert abs(np.linalg.norm(out) - np.linalg.norm(g)) < 1e-10 * np.linalg.norm(g)


def test_cauchy_dbar_identity():
    # the reference P inverts dbar and vanishes at the origin
    X, Y, _ = _stock_grid()
    rho2 = (X - 0.3) ** 2 + (Y + 0.2) ** 2
    bump = np.clip(1.0 - rho2 / 9.0, 0.0, None) ** 3    # C^2, support radius 3
    P = _full_grid_cauchy(bump, 4.0)
    d = 8.0 / len(P)
    fx = (np.roll(P, -1, 0) - np.roll(P, 1, 0)) / (2 * d)
    fy = (np.roll(P, -1, 1) - np.roll(P, 1, 1)) / (2 * d)
    dbarP = 0.5 * (fx + 1j * fy)
    q = len(P) // 4
    rel = np.abs(dbarP - bump)[q:-q, q:-q].max() / np.abs(bump).max()
    assert rel < 1e-4
    assert abs(P[len(P) // 2, len(P) // 2]) < 1e-12


# ---------------------------------------------------------------------------
# Beltrami solve


def test_solve_zero_mu_is_identity(identity_qcmap):
    qc = identity_qcmap
    X, Y = qc.mu.meshgrid()
    assert np.abs(qc.phi - (X + 1j * Y)).max() == 0.0
    assert qc.iterations == 1 and list(qc.increments) == [0.0]
    pts = np.random.default_rng(2).uniform(-4, 4, size=(200, 2))
    assert np.array_equal(qc(pts), pts)
    assert np.array_equal(qc.jacobian(pts), np.broadcast_to(np.eye(2), (200, 2, 2)))


@pytest.mark.parametrize("pad", [1, 2, 4])
def test_solve_matches_full_grid_iteration(pad):
    # the full-grid iteration takes as many steps as the series has terms,
    # and its map lies within its periodization error of the series: on
    # the 256 grid 2.2e-3, 1.6e-4, 1.7e-4 for pad 1, 2, 4 (past pad 2 the
    # grid's own discretization error dominates away from the disk)
    mu = extend_mu(STOCK["A4"][1], n=256)
    qc = solve_beltrami(mu)
    phi, increments = _full_grid_solve(pad)
    assert qc.iterations == len(increments)
    assert np.abs(qc.phi - phi).max() <= {1: 3e-3, 2: 2e-4, 4: 2e-4}[pad]


def test_solve_residuals_catalog(catalog_maps):
    for name, qc in catalog_maps.items():
        assert qc.residual <= 1e-3, f"{name}: residual {qc.residual:.2e}"


def test_solve_increments_geometric(catalog_maps):
    for name, qc in catalog_maps.items():
        sup = float(np.abs(qc.mu.mu).max())
        inc = qc.increments
        ratios = inc[1:] / inc[:-1]
        assert ratios.max() <= sup + 0.05, f"{name}: ratio {ratios.max():.3f}"


def test_solve_nonconvergence_error():
    mu = extend_mu(np.diag([1.0, 4.0]), n=128)
    with pytest.raises(BeltramiConvergenceError) as err:
        solve_beltrami(mu, max_iter=1)
    assert err.value.last_increment > 0
    for budget in (0, -1):
        with pytest.raises(ValueError, match="max_iter"):
            solve_beltrami(mu, max_iter=budget)


def test_divergent_series_exhausts_budget_without_overflow():
    # sup |mu| = 0.9998: the terms grow through all 200, in scaled powers
    # that neither overflow nor warn
    mu = extend_mu(np.diag([1.0, 1e8]), n=64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BeltramiConvergenceError) as err:
            solve_beltrami(mu)
    assert err.value.iterations == 200
    assert np.isfinite(err.value.last_increment)


def test_overflowing_series_stops_at_first_nonfinite_term():
    # r / (r - blend) = 20: the powers (r / |z|)^{2j+2} overflow at term
    # 117 of a series that would converge in 15 terms at the default
    # geometry, and the solve names that term and the ratio, silently
    mu = extend_mu(np.diag([1.0, 4.0]), r=2.0, blend=1.9, n=32)
    message = r"term 117 is not finite.*r/\(r - blend\) = 20$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BeltramiConvergenceError, match=message) as err:
            solve_beltrami(mu)
    assert err.value.iterations == 117
    assert not np.isfinite(err.value.last_increment)


def test_padding_converges_to_exact_affine_map():
    # on the disk the series is the exact map z + mu0 conj(z), and the
    # full-grid iteration approaches it as padding suppresses its
    # periodization error (measured 2.2e-3, 1.4e-4, 8.7e-6 for pad 1, 2,
    # 4); its first increment approaches the series' too
    mu = extend_mu(STOCK["A4"][1], n=256)
    qc = solve_beltrami(mu)
    X, Y = mu.meshgrid()
    Z = X + 1j * Y
    disk = np.abs(Z) <= 1.0
    assert np.abs(qc.phi - (Z + mu.mu0 * np.conj(Z)))[disk].max() <= 1e-13
    dev, first = [], []
    for pad in (1, 2, 4):
        phi, increments = _full_grid_solve(pad)
        dev.append(np.abs(phi - qc.phi)[disk].max())
        first.append(abs(increments[0] - qc.increments[0]))
    assert dev[1] * 5 <= dev[0] and dev[2] * 5 <= dev[1], dev
    assert dev[1] <= 2e-4 and dev[2] <= 2e-5
    assert first[2] < first[1] < first[0], first


@pytest.mark.parametrize("name", ["A1", "A3"])
def test_halving_radial_nodes_moves_phi_below_1e8(monkeypatch, name):
    # the radial quadrature is resolved: half its nodes give the same map
    mu = extend_mu(STOCK[name][1])
    full = solve_beltrami(mu)
    monkeypatch.setattr(beltrami, "_NODES", beltrami._NODES // 2)
    half = solve_beltrami(mu)
    assert half.iterations == full.iterations
    assert np.abs(half.phi - full.phi).max() <= 1e-8


def _points_in_regions(mu, count=300, seed=9):
    # as many points inside r - blend, on the ramp annulus and out to s
    rng = np.random.default_rng(seed)
    r0, R = mu.r - mu.blend, mu.r
    radii = np.concatenate([rng.uniform(0, r0, count), rng.uniform(r0, R, count),
                            rng.uniform(R, mu.s, count)])
    t = 2 * np.pi * rng.random(3 * count)
    return np.stack([radii * np.cos(t), radii * np.sin(t)], axis=1)


def _difference_jacobian(qc, pts, eps=1e-6):
    # centred difference quotients of the map itself
    J = np.empty((len(pts), 2, 2))
    for k in range(2):
        step = np.zeros(2)
        step[k] = eps
        J[:, :, k] = (qc(pts + step) - qc(pts - step)) / (2 * eps)
    return J


@pytest.mark.parametrize("name", [*STOCK, "general"])
def test_jacobian_matches_difference_quotients(maps, name):
    qc = maps[name]
    pts = _points_in_regions(qc.mu)
    err = np.abs(qc.jacobian(pts) - _difference_jacobian(qc, pts)).max()
    assert err <= 1e-8, f"{name}: {err:.2e}"


@pytest.mark.parametrize("name", [*STOCK, "general"])
def test_series_solves_beltrami_off_grid(maps, name):
    # dbar Phi - mu d Phi from difference quotients of the map, at points
    # anywhere in the plane, is the series' truncation and rounding error
    qc = maps[name]
    pts = _points_in_regions(qc.mu, seed=10)
    J = _difference_jacobian(qc, pts)
    fx, fy = J[:, 0, 0] + 1j * J[:, 1, 0], J[:, 0, 1] + 1j * J[:, 1, 1]
    mu = qc.mu.mu0 * qc.mu.ramp(np.hypot(*pts.T))
    res = np.abs(0.5 * (fx + 1j * fy) - mu * 0.5 * (fx - 1j * fy)).max()
    assert res <= 1e-8, f"{name}: {res:.2e}"


def test_map_continuous_across_ramp_edges(maps):
    qc = maps["general"]
    t = np.linspace(0, 2 * np.pi, 16, endpoint=False)
    ray = np.stack([np.cos(t), np.sin(t)], axis=1)
    for radius in (qc.mu.r - qc.mu.blend, qc.mu.r):
        inner, outer = qc(ray * radius * (1 - 1e-13)), qc(ray * radius * (1 + 1e-13))
        assert np.abs(inner - outer).max() <= 1e-11, radius


# ---------------------------------------------------------------------------
# map evaluation


def test_evaluate_identity(identity_qcmap):
    pts = np.array([[0.3, -0.4], [1.0, 0.0], [-0.7, 0.7]])
    out = identity_qcmap(pts)
    assert np.abs(out - pts).max() < 1e-12


def test_evaluate_grid_nodes_exact(maps):
    # the grid samples are the series evaluated at the grid nodes
    for name, qc in maps.items():
        X, Y = qc.mu.meshgrid()
        out = qc(np.stack([X.ravel(), Y.ravel()], axis=1))
        assert np.array_equal(out[:, 0] + 1j * out[:, 1], qc.phi.ravel()), name


def test_evaluation_by_distinct_radius_keeps_each_point(maps):
    # a shuffled set where radii repeat: whole ramp-annulus grid rings
    # (4 or 8 nodes per radius), the ramp edges r - blend and r on the
    # axes, and repeated far points; each value must go back to its own
    # point, so the set evaluates as each point does alone
    qc = maps["general"]
    mu = qc.mu
    rng = np.random.default_rng(12)
    X, Y = mu.meshgrid()
    radius = np.hypot(X, Y).ravel()
    ring = (radius >= mu.r - mu.blend) & (radius <= mu.r)
    chosen = rng.choice(np.unique(radius[ring]), 16, replace=False)
    axes = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float)
    far = rng.uniform(-mu.s, mu.s, (12, 2))
    far = far[np.hypot(*far.T) > mu.r]
    pts = np.concatenate([
        np.stack([X.ravel(), Y.ravel()], axis=1)[np.isin(radius, chosen)],
        (mu.r - mu.blend) * axes, mu.r * axes, far, far, 1.5 * mu.r * axes])
    pts = pts[rng.permutation(len(pts))]
    assert len(np.unique(np.hypot(*pts.T))) < len(pts) // 2
    for evaluate in (qc, qc.jacobian):
        whole = evaluate(pts)
        alone = np.concatenate([evaluate(p[None]) for p in pts])
        assert np.abs(whole - alone).max() <= 1e-15 * np.abs(whole).max()


def test_horner_matches_polyval():
    from numpy.polynomial import polynomial
    rng = np.random.default_rng(13)
    w = rng.uniform(0, 1, 500) * np.exp(2j * np.pi * rng.random(500))
    scalars = rng.normal(size=17) + 1j * rng.normal(size=17)
    arrays = rng.normal(size=(17, 500)) + 1j * rng.normal(size=(17, 500))
    for coefs, tensor in ((scalars, True), (arrays, False)):
        ref = polynomial.polyval(w, coefs, tensor=tensor)
        got = beltrami._horner(w, coefs)
        assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()


def test_evaluate_rejects_nonfinite_point(catalog_maps):
    qc = catalog_maps["A1"]
    for bad in ([0.0, np.nan], [np.inf, 0.0]):
        with pytest.raises(ValueError, match="not finite"):
            qc(np.array([[0.3, 0.1], bad]))
        with pytest.raises(ValueError, match="not finite"):
            qc.jacobian(np.array([bad]))
    assert np.isfinite(qc(np.array([[3.0, 0.0], [40.0, -7.0]]))).all()


def test_far_field_decay(catalog_maps):
    # |Phi(z) - z| on the |z| = s/2 ring, bounded by the measured tail of
    # the compactly supported coefficient (larger anisotropy, larger tail)
    bounds = {"A1": 0.12, "A2": 0.12, "A3": 0.60, "A4": 0.60}
    for name, qc in catalog_maps.items():
        t = np.linspace(0, 2 * np.pi, 128, endpoint=False)
        ring = (qc.mu.s / 2) * np.stack([np.cos(t), np.sin(t)], axis=1)
        out = qc(ring)
        dev = np.abs((out[:, 0] + 1j * out[:, 1]) - (ring[:, 0] + 1j * ring[:, 1]))
        assert dev.max() <= bounds[name], f"{name}: {dev.max():.3f}"


def test_grid_injectivity(catalog_maps):
    from scipy.spatial import cKDTree
    for name, qc in catalog_maps.items():
        sub = qc.phi[::2, ::2]
        pts = np.stack([sub.real.ravel(), sub.imag.ravel()], axis=1)
        tree = cKDTree(pts)
        pairs = tree.query_pairs(r=qc.mu.spacing / 2.0, output_type="ndarray")
        if len(pairs):
            # only neighbors in the index grid may come close; distant grid
            # points mapping to the same spot would mean a fold
            m = sub.shape[0]
            ij = np.stack(np.divmod(pairs, m), axis=-1)   # (P, 2, 2)
            cheb = np.abs(ij[:, 0] - ij[:, 1]).max(axis=(1,))
            assert cheb.max() <= 2, f"{name}: fold detected"


# ---------------------------------------------------------------------------
# pushforward


def test_pushforward_identity(identity_qcmap):
    pts = np.array([[0.1, 0.2], [0.5, -0.5]])
    out = pushforward_tensor(np.eye(2), identity_qcmap, pts)
    assert np.abs(out - np.eye(2)).max() < 1e-10


class _FixedJacobian:
    def __init__(self, J):
        self.J = J

    def jacobian(self, pts):
        return self.J


def test_pushforward_matches_three_operand_product():
    rng = np.random.default_rng(5)
    J = rng.normal(size=(300, 2, 2))
    flip = np.linalg.det(J) < 0
    J[flip] = J[flip][:, ::-1]                     # rows swapped: det > 0
    F = rng.normal(size=(300, 2, 2))
    A = F @ F.transpose(0, 2, 1) + 0.1 * np.eye(2)
    out = pushforward_tensor(lambda pts: A, _FixedJacobian(J), np.zeros((300, 2)))
    det = np.linalg.det(J)[:, None, None]
    ref = np.einsum("nij,njk,nlk->nil", J, A, J) / det
    assert np.abs(out - ref).max() <= 1e-14 * np.abs(ref).max()


def test_pushforward_isotropizes_catalog(catalog_maps):
    # the map is exact on the disk, so the flattened tensor is
    # sqrt(det A0) I to rounding
    rng = np.random.default_rng(1)
    r = np.sqrt(rng.random(400)) * 0.95
    t = 2 * np.pi * rng.random(400)
    pts = np.stack([r * np.cos(t), r * np.sin(t)], axis=1)
    for name, (_, A0) in STOCK.items():
        qc = catalog_maps[name]
        out = pushforward_tensor(A0, qc, pts)
        sq = np.sqrt(np.linalg.det(A0))
        off = np.abs(out[:, 0, 1]) / sq
        tr = np.abs(0.5 * (out[:, 0, 0] + out[:, 1, 1]) - sq) / sq
        eig = np.linalg.eigvalsh(0.5 * (out + np.swapaxes(out, 1, 2)))
        ratio = eig[:, 1] / eig[:, 0]
        assert off.max() <= 1e-13, name
        assert tr.max() <= 1e-13, name
        assert ratio.max() <= 1 + 1e-13, name


def test_pushforward_jacobian_positive_on_grid(catalog_maps):
    for name, qc in catalog_maps.items():
        q = qc.mu.n // 8
        X, Y = (g[q:-q, q:-q].ravel() for g in qc.mu.meshgrid())
        assert (np.linalg.det(qc.jacobian(np.stack([X, Y], axis=1))) > 0).all(), name


def test_pushforward_rejects_orientation_violation():
    folded = _FixedJacobian(np.array([[[1.0, 0.0], [0.0, -1.0]]]))
    with pytest.raises(ValueError, match="orientation"):
        pushforward_tensor(np.eye(2), folded, np.array([[0.1, 0.1]]))


# ---------------------------------------------------------------------------
# exact-solution oracle and serialization


def test_solver_matches_exact_affine_solution(catalog_maps):
    # inside the constant-coefficient disk |z| <= r - blend every term of
    # the series after the first vanishes, and the first is mu0 conj(z):
    # the map on the unit circle is z + mu0 conj(z) to rounding
    t = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    circle = np.stack([np.cos(t), np.sin(t)], axis=1)
    zc = circle[:, 0] + 1j * circle[:, 1]
    for name, qc in catalog_maps.items():
        exact = zc + qc.mu.mu0 * np.conj(zc)
        got = qc(circle)
        dev = np.abs((got[:, 0] + 1j * got[:, 1]) - exact).max()
        assert dev <= 1e-13, f"{name}: map deviates {dev:.2e} from exact"


@pytest.mark.parametrize("name", [*STOCK, "general"])
def test_affine_map_is_exact_flattening(maps, name):
    # the closed form fixes 0, pushes A0 forward to sqrt(det A0) I, and the
    # solve meets it on the unit disk to rounding
    A0 = STOCK[name][1] if name in STOCK else GENERAL
    qc = maps[name]
    phi = affine_map(A0)
    assert np.array_equal(phi(np.zeros((1, 2))), np.zeros((1, 2)))
    J = np.stack([phi(np.array([[1.0, 0.0]]))[0],
                  phi(np.array([[0.0, 1.0]]))[0]], axis=1)
    pushed = J @ A0 @ J.T / np.linalg.det(J)
    sq = np.sqrt(np.linalg.det(A0))
    assert np.abs(pushed - sq * np.eye(2)).max() <= 1e-14 * sq
    rng = np.random.default_rng(3)
    t = 2 * np.pi * rng.random(400)
    r = np.sqrt(rng.random(400))
    r[:64] = 1.0
    disk = np.stack([r * np.cos(t), r * np.sin(t)], axis=1)
    assert np.abs(phi(disk) - qc(disk)).max() <= 1e-13


def test_affine_map_of_isotropic_tensor_is_identity():
    pts = np.random.default_rng(4).uniform(-3, 3, size=(50, 2))
    for c in (1.0, 2.5):
        assert np.array_equal(affine_map(c * np.eye(2))(pts), pts)


def _read_map(path):
    """(n, s, r, blend, mu0, phi) of a map file, by its documented layout:
    a 60-byte header, then n^2 row-major complex128 samples."""
    raw = path.read_bytes()
    assert raw[:12] == b"ANISOEITQC1\x00"
    n, s, r, blend, re0, im0 = struct.unpack_from("<qddddd", raw, 12)
    assert len(raw) == 60 + 16 * n * n
    phi = np.frombuffer(raw, dtype=np.complex128, offset=60).reshape(n, n)
    return n, s, r, blend, complex(re0, im0), phi


def test_qcmap_serialization_roundtrip(tmp_path, catalog_maps):
    qc = catalog_maps["A2"]
    path = tmp_path / "map.bin"
    save_qcmap(qc, path)
    n, s, r, blend, mu0, phi = _read_map(path)
    assert np.array_equal(phi, qc.phi)
    assert (n, s, r, blend) == (qc.mu.n, qc.mu.s, qc.mu.r, qc.mu.blend)
    assert mu0 == qc.mu.mu0
    doc = json.loads((tmp_path / "map.json").read_text())
    assert doc["residual"] == qc.residual
    assert doc["iterations"] == qc.iterations
    with pytest.raises(ValueError, match="its own sidecar"):
        save_qcmap(qc, tmp_path / "phi.json")


def test_qcmap_failed_save_keeps_old_file(tmp_path, catalog_maps):
    # the header is written before the samples fail to convert, so the
    # write fails partway; the existing map and sidecar keep their bytes
    # and no temporary file is left beside them
    from types import SimpleNamespace
    qc = catalog_maps["A2"]
    path = tmp_path / "map.bin"
    save_qcmap(qc, path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    broken = SimpleNamespace(mu=qc.mu, phi=np.array(["x"]), residual=0.0,
                             iterations=1, config_sha256="")
    with pytest.raises(ValueError, match="complex"):
        save_qcmap(broken, path)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

