import json
import struct

import numpy as np
import pytest

from anisoeit import (beltrami_coefficient, extend_mu, affine_map,
                      hilbert_transform, cauchy_transform, solve_beltrami,
                      pushforward_tensor, save_qcmap,
                      BeltramiConvergenceError)
from anisoeit.beltrami import (MuGrid, QCMap, _cauchy_kernel,
                               _cauchy_multiplier, _centred_gradient,
                               _hilbert_multiplier)
from anisoeit.phantoms import STOCK


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


# ---------------------------------------------------------------------------
# transforms


def test_hilbert_zero():
    out = hilbert_transform(np.zeros((64, 64)), s=4.0)
    assert not np.abs(out).any()


def test_hilbert_maps_dbar_to_d():
    n, s = 512, 4.0
    x = -s + (2 * s / n) * np.arange(n)
    X, Y = np.meshgrid(x, x, indexing="ij")
    Z = X + 1j * Y
    G = np.exp(-2.0 * (X ** 2 + Y ** 2))
    dbarG = -2.0 * Z * G
    dG = -2.0 * np.conj(Z) * G
    q = n // 4
    for pad in (1, 2):
        out = hilbert_transform(dbarG, s, pad=pad)
        rel = np.abs(out - dG)[q:-q, q:-q].max() / np.abs(dG).max()
        assert rel < 1e-6


def test_hilbert_plancherel():
    rng = np.random.default_rng(0)
    g = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
    g -= g.mean()   # the zero mode is annihilated by convention
    out = hilbert_transform(g, s=4.0)
    assert abs(np.linalg.norm(out) - np.linalg.norm(g)) < 1e-10 * np.linalg.norm(g)


def test_hilbert_rejects_nan():
    g = np.zeros((32, 32))
    g[3, 3] = np.nan
    with pytest.raises(ValueError):
        hilbert_transform(g, s=4.0)


@pytest.mark.parametrize("pad", [0, -3])
def test_hilbert_rejects_pad_below_one(pad):
    with pytest.raises(ValueError, match="pad must be at least 1"):
        hilbert_transform(np.zeros((32, 32)), s=4.0, pad=pad)


def test_cauchy_zero():
    out = cauchy_transform(np.zeros((64, 64)), s=4.0)
    assert not np.abs(out).any()


def test_cauchy_dbar_identity():
    n, s = 512, 4.0
    x = -s + (2 * s / n) * np.arange(n)
    X, Y = np.meshgrid(x, x, indexing="ij")
    rho2 = (X - 0.3) ** 2 + (Y + 0.2) ** 2
    bump = np.clip(1.0 - rho2 / 9.0, 0.0, None) ** 3    # C^2, support radius 3
    P = cauchy_transform(bump, s)
    d = 2 * s / n
    fx = (np.roll(P, -1, 0) - np.roll(P, 1, 0)) / (2 * d)
    fy = (np.roll(P, -1, 1) - np.roll(P, 1, 1)) / (2 * d)
    dbarP = 0.5 * (fx + 1j * fy)
    q = n // 4
    rel = np.abs(dbarP - bump)[q:-q, q:-q].max() / np.abs(bump).max()
    assert rel < 1e-4
    assert abs(P[n // 2, n // 2]) < 1e-12


def test_cauchy_rejects_nan():
    g = np.zeros((32, 32), dtype=complex)
    g[1, 2] = np.nan
    with pytest.raises(ValueError):
        cauchy_transform(g, s=4.0)


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


def _window_inputs(w):
    rng = np.random.default_rng(w)
    inputs = {"zero": np.zeros((w, w), dtype=complex)}
    for ij in ((0, 0), (0, w - 1), (w - 1, 0), (w - 1, w - 1)):
        g = np.zeros((w, w), dtype=complex)
        g[ij] = 0.7 - 1.3j
        inputs[f"pixel{ij}"] = g
    g = np.zeros((w, w), dtype=complex)
    g[1:w // 2, w // 3:w - 1] = 1.5 - 0.5j   # off-centre block
    inputs["block"] = g
    inputs["complex"] = rng.standard_normal((w, w)) + 1j * rng.standard_normal((w, w))
    inputs["real"] = rng.standard_normal((w, w))
    return inputs


@pytest.mark.parametrize("n", [32, 33, 64])
def test_transforms_match_full_grid(n):
    # on a window [lo, lo + w)^2 the transforms convolve with the kernels'
    # values at the displacements they read, so they equal the full-grid
    # FFTs up to rounding; windows: the whole grid, off-centre, far corner
    for lo, w in ((0, n), (3, n // 2 + 1), (n - n // 3, n // 3)):
        for name, block in _window_inputs(w).items():
            g = np.zeros((n, n), dtype=complex)
            g[lo:lo + w, lo:lo + w] = block
            for pad in (1, 2, 3):
                ref = _full_grid_hilbert(g, 4.0, pad)[lo:lo + w, lo:lo + w]
                got = hilbert_transform(block, 4.0, pad=pad, n=n)
                err = np.abs(got - ref).max()
                assert err <= 1e-14 * np.abs(ref).max(), (lo, w, name, pad, err)
            ref = _full_grid_cauchy(g, 4.0)
            got = cauchy_transform(block, 4.0, n=n, lo=lo)
            err = np.abs(got - ref).max()
            assert err <= 1e-14 * np.abs(ref).max(), (lo, w, name, err)


def test_transforms_reject_block_outside_grid():
    with pytest.raises(ValueError, match="does not fit"):
        hilbert_transform(np.zeros((33, 33)), s=4.0, n=32)
    for lo in (-1, 20):
        with pytest.raises(ValueError, match="does not fit"):
            cauchy_transform(np.zeros((16, 16)), s=4.0, n=32, lo=lo)


def test_transform_caches_read_only_and_reused():
    for build, key in ((_hilbert_multiplier, (64, 4.0, 2, 31)),
                       (_cauchy_multiplier, (64, 4.0, 31, 17))):
        arr = build(*key)
        assert build(*key) is arr
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0


# ---------------------------------------------------------------------------
# Beltrami solve


def test_solve_zero_mu_is_identity(identity_qcmap, monkeypatch):
    qc = identity_qcmap
    X, Y = qc.mu.meshgrid()
    assert np.abs(qc.phi - (X + 1j * Y)).max() == 0.0
    assert qc.iterations == 1

    def no_transform(*args, **kwargs):
        raise AssertionError("a zero mu needs no transform")

    from anisoeit import beltrami
    monkeypatch.setattr(beltrami, "hilbert_transform", no_transform)
    monkeypatch.setattr(beltrami, "cauchy_transform", no_transform)
    again = solve_beltrami(qc.mu)
    assert np.array_equal(again.phi, qc.phi)
    assert again.iterations == 1 and list(again.increments) == [0.0]


@pytest.mark.parametrize("pad", [1, 2, 4])
def test_solve_matches_full_grid_iteration(pad):
    # the same iteration on the whole grid from full-grid FFTs, with the
    # increment's sup over the whole grid: the windowed solve reproduces
    # its iteration count, its increments to rounding (relative to the
    # first, largest one; the last ones are differences near 1e-11) and Phi
    mu = extend_mu(STOCK["A4"][1], n=128)
    qc = solve_beltrami(mu, pad=pad)
    h = tmu = _full_grid_hilbert(mu.mu, mu.s, pad)
    increments = []
    for _ in range(200):
        h_next = _full_grid_hilbert(mu.mu * h, mu.s, pad) + tmu
        increments.append(np.abs(h_next - h).max())
        h = h_next
        if increments[-1] <= 1e-10:
            break
    X, Y = mu.meshgrid()
    phi = X + 1j * Y + _full_grid_cauchy(mu.mu * (h + 1.0), mu.s)
    assert qc.iterations == len(increments)
    assert np.abs(qc.increments - increments).max() <= 1e-12 * increments[0]
    assert np.abs(qc.phi - phi).max() <= 1e-13


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


def test_padding_converges_to_exact_affine_map():
    # inside the constant-coefficient disk the exact map is z + mu0 conj(z);
    # the FFT solve deviates from it by periodization error, which padding
    # suppresses (measured 2.2e-3, 1.4e-4, 9.9e-6 for pad 1, 2, 4)
    mu = extend_mu(STOCK["A4"][1], r=2.0, blend=0.5, n=128, s=4.0)
    X, Y = mu.meshgrid()
    Z = X + 1j * Y
    disk = np.abs(Z) <= 1.0
    dev = []
    for pad in (1, 2, 4):
        phi = solve_beltrami(mu, pad=pad).phi
        dev.append(np.abs(phi - (Z + mu.mu0 * np.conj(Z)))[disk].max())
    assert dev[1] * 5 <= dev[0] and dev[2] * 5 <= dev[1], dev
    assert dev[2] <= 2e-5


# ---------------------------------------------------------------------------
# map evaluation


def test_evaluate_identity(identity_qcmap):
    pts = np.array([[0.3, -0.4], [1.0, 0.0], [-0.7, 0.7]])
    out = identity_qcmap(pts)
    assert np.abs(out - pts).max() < 1e-12


def test_evaluate_grid_nodes_exact(catalog_maps):
    qc = catalog_maps["A3"]
    ax = qc.mu.axis()
    i, j = 200, 300
    out = qc(np.array([[ax[i], ax[j]]]))[0]
    assert out[0] == pytest.approx(qc.phi[i, j].real, abs=1e-13)
    assert out[1] == pytest.approx(qc.phi[i, j].imag, abs=1e-13)


def test_evaluate_rejects_outside_window(catalog_maps):
    with pytest.raises(ValueError):
        catalog_maps["A1"](np.array([[3.0, 0.0]]))
    with pytest.raises(ValueError):
        catalog_maps["A1"](np.array([[0.0, np.nan]]))


@pytest.mark.parametrize("name", ["A1", "A3", "A4"])
def test_bilinear_matches_scipy_interpolator(catalog_maps, name):
    # scipy is only the reference here: the map and its gradients must
    # interpolate bit for bit as scipy's linear RegularGridInterpolator does
    from scipy.interpolate import RegularGridInterpolator
    qc = catalog_maps[name]
    ax, w = qc.mu.axis(), qc.window
    nodes = ax[np.abs(ax) <= w]
    gx, gy = np.meshgrid(nodes, nodes, indexing="ij")
    rng = np.random.default_rng(7)
    pts = np.concatenate([
        np.stack([gx.ravel(), gy.ravel()], axis=1),
        rng.uniform(-w, w, size=(20_000, 2)),
        w * np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]]),
    ])
    ref = RegularGridInterpolator((ax, ax), qc.phi, method="linear")(pts)
    out = qc(pts)
    assert np.array_equal(out, np.stack([ref.real, ref.imag], axis=1))
    # the Jacobian also extrapolates past the grid edges, as scipy does
    s = qc.mu.s
    pts = np.concatenate([pts, [[-s - 0.3, 0.2], [s, s], [0.1, s - 0.01]]])
    fx, fy = (RegularGridInterpolator((ax, ax), g, method="linear",
                                      bounds_error=False, fill_value=None)(pts)
              for g in _centred_gradient(qc.phi, qc.mu.spacing))
    J = qc.jacobian(pts)
    assert np.array_equal(J[:, 0, 0], fx.real)
    assert np.array_equal(J[:, 0, 1], fy.real)
    assert np.array_equal(J[:, 1, 0], fx.imag)
    assert np.array_equal(J[:, 1, 1], fy.imag)


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


def test_pushforward_matches_three_operand_product():
    rng = np.random.default_rng(5)
    J = rng.normal(size=(300, 2, 2))
    flip = np.linalg.det(J) < 0
    J[flip] = J[flip][:, ::-1]                     # rows swapped: det > 0
    F = rng.normal(size=(300, 2, 2))
    A = F @ F.transpose(0, 2, 1) + 0.1 * np.eye(2)

    class FixedJacobian:
        def jacobian(self, pts):
            return J

    out = pushforward_tensor(lambda pts: A, FixedJacobian(), np.zeros((300, 2)))
    det = np.linalg.det(J)[:, None, None]
    ref = np.einsum("nij,njk,nlk->nil", J, A, J) / det
    assert np.abs(out - ref).max() <= 1e-14 * np.abs(ref).max()


def test_pushforward_isotropizes_catalog(catalog_maps):
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
        assert off.max() <= 0.05, name
        assert tr.max() <= 0.05, name
        assert ratio.max() <= 1.05, name


def test_pushforward_jacobian_positive_on_grid(catalog_maps):
    for name, qc in catalog_maps.items():
        fx, fy = _centred_gradient(qc.phi, qc.mu.spacing)
        det = fx.real * fy.imag - fy.real * fx.imag
        q = qc.mu.n // 8
        assert (det[q:-q, q:-q] > 0).all(), name


def test_pushforward_rejects_orientation_violation(identity_qcmap):
    folded = QCMap(phi=np.conj(identity_qcmap.phi), mu=identity_qcmap.mu,
                   residual=0.0, iterations=1,
                   increments=np.array([0.0]))
    with pytest.raises(ValueError, match="orientation"):
        pushforward_tensor(np.eye(2), folded, np.array([[0.1, 0.1]]))


# ---------------------------------------------------------------------------
# exact-solution oracle and serialization


def test_solver_matches_exact_affine_solution(catalog_maps):
    # For the radially ramped constant coefficient, expanding the solution
    # in angular modes e^{-i m theta} decouples the equation into first-
    # order radial ODEs whose ramp-driven corrections vanish identically
    # inside the constant-coefficient region; the principal solution there
    # is exactly z + mu0 * conj(z).  Strong independent accuracy oracle.
    t = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    circle = np.stack([np.cos(t), np.sin(t)], axis=1)
    zc = circle[:, 0] + 1j * circle[:, 1]
    for name, qc in catalog_maps.items():
        exact = zc + qc.mu.mu0 * np.conj(zc)
        got = qc(circle)
        dev = np.abs((got[:, 0] + 1j * got[:, 1]) - exact).max()
        assert dev < 3e-4, f"{name}: map deviates {dev:.2e} from exact"


@pytest.mark.parametrize("name", [*STOCK, "general"])
def test_affine_map_is_exact_flattening(catalog_maps, name):
    # the closed form fixes 0, pushes A0 forward to sqrt(det A0) I, and the
    # FFT solve meets it on the unit disk within the oracle bound above
    if name in STOCK:
        A0, qc = STOCK[name][1], catalog_maps[name]
    else:
        A0 = np.array([[2.0, 0.7], [0.7, 1.1]])
        qc = solve_beltrami(extend_mu(A0))
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
    assert np.abs(phi(disk) - qc(disk)).max() < 3e-4


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

