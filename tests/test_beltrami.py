import numpy as np
import pytest

from anisoeit import (beltrami_coefficient, extend_mu, hilbert_transform,
                      cauchy_transform, solve_beltrami, evaluate_map,
                      invert_map, pushforward_tensor, save_qcmap, load_qcmap,
                      a0_catalog, BeltramiConvergenceError, MapInversionError)
from anisoeit.beltrami import (MuGrid, QCMap, _cauchy_kernel, _cauchy_kernel_hat,
                               _centred_gradient, _hilbert_symbol)


# ---------------------------------------------------------------------------
# Beltrami coefficient


def test_mu_catalog_values():
    expected = {"A1": 0.0655, "A2": -0.0655, "A3": 0.3333, "A4": -0.3333}
    for name, A0 in a0_catalog().items():
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
    n = g.shape[0]
    d = 2.0 * s / n
    gp = np.zeros((2 * n, 2 * n), dtype=complex)
    gp[:n, :n] = g
    Khat = np.fft.fft2(_cauchy_kernel(n, s))
    conv = np.fft.ifft2(np.fft.fft2(gp) * Khat)[:n, :n] * (d * d)
    return conv - conv[n // 2, n // 2]


def _transform_inputs(n):
    rng = np.random.default_rng(n)
    inputs = {"zero": np.zeros((n, n), dtype=complex)}
    for ij in ((0, 0), (0, n - 1), (n - 1, n - 1)):
        g = np.zeros((n, n), dtype=complex)
        g[ij] = 0.7 - 1.3j
        inputs[f"pixel{ij}"] = g
    g = np.zeros((n, n), dtype=complex)
    g[5:n // 2, n // 3:n - 4] = 1.5 - 0.5j   # off-centre block
    inputs["block"] = g
    inputs["complex"] = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    inputs["real"] = rng.standard_normal((n, n))
    return inputs


@pytest.mark.parametrize("n", [32, 33, 64])
def test_transforms_bit_identical_to_full_grid(n):
    # the pruned transforms run the same 1-D FFTs as the full grid, so the
    # values agree exactly (signed zeros aside, hence array_equal); from
    # n = 64 at pad 2 the padded spectrum is large enough (256 KiB) for
    # numpy to multiply into the temporary in place
    for name, g in _transform_inputs(n).items():
        for pad in (1, 2, 3):
            got = hilbert_transform(g, 4.0, pad=pad)
            assert np.array_equal(got, _full_grid_hilbert(g, 4.0, pad)), (name, pad)
        assert np.array_equal(cauchy_transform(g, 4.0),
                              _full_grid_cauchy(g, 4.0)), name


def test_transform_caches_read_only_and_reused():
    for build in (_hilbert_symbol, _cauchy_kernel_hat):
        arr = build(64, 4.0)
        assert build(64, 4.0) is arr
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0


# ---------------------------------------------------------------------------
# Beltrami solve


def test_solve_zero_mu_is_identity(identity_qcmap):
    qc = identity_qcmap
    X, Y = qc.mu.meshgrid()
    assert np.abs(qc.phi - (X + 1j * Y)).max() == 0.0
    assert qc.iterations == 1


def test_solve_residuals_catalog(catalog_maps):
    for name, qc in catalog_maps.items():
        assert qc.residual <= 1e-3, f"{name}: residual {qc.residual:.2e}"


def test_solve_increments_geometric(catalog_maps):
    for name, qc in catalog_maps.items():
        sup = float(np.abs(qc.mu.mu).max())
        inc = qc.increments
        ratios = inc[1:] / inc[:-1]
        assert ratios.max() <= sup + 0.05, f"{name}: ratio {ratios.max():.3f}"


def test_solve_initial_guess_constant_same_fixed_point():
    mu = extend_mu(np.diag([1.0, 4.0]), n=256)
    qa = solve_beltrami(mu)
    qb = solve_beltrami(mu, h0=mu.mu0)
    assert np.abs(qa.phi - qb.phi).max() < 1e-8


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
    mu = extend_mu(a0_catalog()["A4"], r=2.0, blend=0.5, n=128, s=4.0)
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
    out = evaluate_map(identity_qcmap, pts)
    assert np.abs(out - pts).max() < 1e-12


def test_evaluate_grid_nodes_exact(catalog_maps):
    qc = catalog_maps["A3"]
    ax = qc.mu.axis()
    i, j = 200, 300
    out = evaluate_map(qc, np.array([[ax[i], ax[j]]]))[0]
    assert out[0] == pytest.approx(qc.phi[i, j].real, abs=1e-13)
    assert out[1] == pytest.approx(qc.phi[i, j].imag, abs=1e-13)


def test_evaluate_rejects_outside_window(catalog_maps):
    with pytest.raises(ValueError):
        evaluate_map(catalog_maps["A1"], np.array([[3.0, 0.0]]))


def test_far_field_decay(catalog_maps):
    # |Phi(z) - z| on the |z| = s/2 ring, bounded by the measured tail of
    # the compactly supported coefficient (larger anisotropy, larger tail)
    bounds = {"A1": 0.12, "A2": 0.12, "A3": 0.60, "A4": 0.60}
    for name, qc in catalog_maps.items():
        t = np.linspace(0, 2 * np.pi, 128, endpoint=False)
        ring = (qc.mu.s / 2) * np.stack([np.cos(t), np.sin(t)], axis=1)
        out = evaluate_map(qc, ring)
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


def test_invert_identity(identity_qcmap):
    pts = np.array([[0.2, 0.1], [-0.5, 0.4]])
    back = invert_map(identity_qcmap, pts)
    assert np.abs(back - pts).max() < 1e-10


def test_invert_round_trip(catalog_maps):
    rng = np.random.default_rng(5)
    r = np.sqrt(rng.random(1000))
    t = 2 * np.pi * rng.random(1000)
    pts = np.stack([r * np.cos(t), r * np.sin(t)], axis=1)
    for name in ("A1", "A3"):
        qc = catalog_maps[name]
        fwd = evaluate_map(qc, pts)
        back = invert_map(qc, fwd)
        assert np.abs(back - pts).max() < 1e-7, name


def test_invert_boundary_circle(catalog_maps):
    qc = catalog_maps["A4"]
    t = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    circle = np.stack([np.cos(t), np.sin(t)], axis=1)
    back = invert_map(qc, evaluate_map(qc, circle))
    assert np.abs(np.hypot(back[:, 0], back[:, 1]) - 1.0).max() < 1e-6


def test_invert_unreachable_point_raises(catalog_maps):
    with pytest.raises(MapInversionError):
        invert_map(catalog_maps["A1"], np.array([[50.0, 50.0]]))


# ---------------------------------------------------------------------------
# pushforward


def test_pushforward_identity(identity_qcmap):
    pts = np.array([[0.1, 0.2], [0.5, -0.5]])
    out = pushforward_tensor(np.eye(2), identity_qcmap, pts)
    assert np.abs(out - np.eye(2)).max() < 1e-10


def test_pushforward_isotropizes_catalog(catalog_maps):
    rng = np.random.default_rng(1)
    r = np.sqrt(rng.random(400)) * 0.95
    t = 2 * np.pi * rng.random(400)
    pts = np.stack([r * np.cos(t), r * np.sin(t)], axis=1)
    for name, A0 in a0_catalog().items():
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
        got = evaluate_map(qc, circle)
        dev = np.abs((got[:, 0] + 1j * got[:, 1]) - exact).max()
        assert dev < 3e-4, f"{name}: map deviates {dev:.2e} from exact"


def test_qcmap_serialization_roundtrip(tmp_path, catalog_maps):
    qc = catalog_maps["A2"]
    path = tmp_path / "map.bin"
    save_qcmap(qc, path)
    back = load_qcmap(path)
    assert (tmp_path / "map.json").exists()
    assert path.stat().st_size == 60 + 16 * qc.mu.n ** 2
    assert np.array_equal(back.phi, qc.phi)
    assert back.mu.n == qc.mu.n and back.mu.s == qc.mu.s
    assert back.mu.mu0 == qc.mu.mu0
    assert np.allclose(back.mu.mu, qc.mu.mu)
    assert back.residual == qc.residual
    assert back.iterations == qc.iterations
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


def test_qcmap_loads_without_sidecar(tmp_path, catalog_maps):
    # the sidecar normally supplies residual, iterations and config hash;
    # without one the residual is recomputed from Phi
    qc = catalog_maps["A3"]
    path = tmp_path / "phi.bin"
    save_qcmap(qc, path)
    path.with_suffix(".json").unlink()
    back = load_qcmap(path)
    assert np.array_equal(back.phi, qc.phi)
    assert back.residual == pytest.approx(qc.residual, rel=1e-12)
    assert back.iterations == 0 and back.config_sha256 == ""
