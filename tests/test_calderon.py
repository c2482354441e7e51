import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import j0, j1

from anisoeit import (affine_map, cgo_traces, bilinear_form, fhat_grid,
                      inverse_fourier, reconstruct_field,
                      save_field, load_field, place_electrodes)
from anisoeit.calderon import (BG_RING_RADIUS, BG_RING_SAMPLES, FhatGrid,
                               _median, lattice_traces, masked_lattice)
from anisoeit.forward import DNMatrix

IDENTITY = affine_map(np.eye(2))


def analytic_disk_dn_matrix(L: int, sigma: float = 1.0) -> DNMatrix:
    """Continuum boundary map of the homogeneous unit disk, expressed in
    the normalized trig pattern basis: diagonal with entries
    2*pi*sigma*k / L (harmonic k scaled by the midpoint cell measure)."""
    half = L // 2
    freqs = np.concatenate([np.arange(1, half + 1), np.arange(1, half)])
    dn = np.diag(2.0 * np.pi * sigma * freqs / L)
    layout = place_electrodes(L, 0.5, 0.01)
    return DNMatrix(dn=dn, nd=np.linalg.inv(dn), asymmetry=0.0,
                    layout=layout)


# ---------------------------------------------------------------------------
# CGO traces


def test_cgo_basic_construction():
    # z = (1, 0) has companion b = (0, 1)
    phi1, phi2 = cgo_traces([[1.0, 0.0]], [[0.4, -0.3]])
    assert phi1.shape == phi2.shape == (1, 1)
    assert phi1[0, 0] == pytest.approx(
        np.exp(1j * np.pi * 0.4 + np.pi * (-0.3)), abs=1e-15)
    assert phi2[0, 0] == pytest.approx(
        np.exp(1j * np.pi * 0.4 - np.pi * (-0.3)), abs=1e-15)
    zs = np.array([[1.0, 0.0], [0.7, -1.1], [-0.2, 0.5]])
    pts = np.array([[0.4, -0.3], [0.1, 0.2], [-0.5, 0.0], [0.3, 0.3]])
    phi1, phi2 = cgo_traces(zs, pts)
    assert phi1.shape == phi2.shape == (4, 3)
    for p in range(3):
        one1, one2 = cgo_traces(zs[p], pts)
        assert np.allclose(phi1[:, p], one1[:, 0], rtol=1e-14, atol=0)
        assert np.allclose(phi2[:, p], one2[:, 0], rtol=1e-14, atol=0)


def test_cgo_product_identity():
    phi1, phi2 = cgo_traces([[0.7, -1.1]], [[0.3, -0.2]])
    expected = np.exp(2j * np.pi * (0.7 * 0.3 + (-1.1) * (-0.2)))
    assert phi1[0, 0] * phi2[0, 0] == pytest.approx(expected, rel=1e-14)


def test_cgo_constraints_exact():
    rng = np.random.default_rng(3)
    for _ in range(100):
        z = rng.standard_normal(2)
        b = np.array([-z[1], z[0]])
        # z.b = 0: at y = z the real exponent vanishes to rounding, so
        # both traces are unimodular and coincide
        phi1, phi2 = cgo_traces(z, z)
        assert abs(phi1[0, 0]) == pytest.approx(1.0, rel=1e-14)
        assert phi1[0, 0] == pytest.approx(phi2[0, 0], rel=1e-14)
        # |b| = |z|: at y = b the phase vanishes and the growth is
        # exp(pi |z|^2)
        phi1, phi2 = cgo_traces(z, b)
        zz = z[0] * z[0] + z[1] * z[1]
        assert phi1[0, 0] == pytest.approx(np.exp(np.pi * zz), rel=1e-14)
        assert phi2[0, 0] == pytest.approx(np.exp(-np.pi * zz), rel=1e-14)
        # (iz + b).(iz - b) = -2|z|^2 for the rotation choice
        c1 = 1j * z + b
        c2 = 1j * z - b
        val = c1[0] * c2[0] + c1[1] * c2[1]
        assert val == pytest.approx(-2.0 * zz, rel=1e-14)


def test_cgo_rejects_zero_frequency():
    with pytest.raises(ValueError):
        cgo_traces([0.0, 0.0], [[0.1, 0.2]])
    with pytest.raises(ValueError):
        cgo_traces([[1.0, 0.5], [0.0, 0.0]], [[0.1, 0.2]])


def test_cgo_harmonicity_taylor_bound():
    z = np.array([1.3, -0.7])
    y0 = np.array([0.3, -0.2])
    h = 1e-3
    stencil = np.array([y0, y0 + [h, 0], y0 - [h, 0], y0 + [0, h], y0 - [0, h]])
    nz = np.hypot(*z)
    for trace in cgo_traces(z, stencil):
        vals = trace[:, 0]
        lap = (vals[1] + vals[2] + vals[3] + vals[4] - 4 * vals[0]) / h ** 2
        mag = abs(vals[0])
        # fourth derivatives of the trace are bounded by (pi|z|)^4 |phi|
        bound = (np.pi * nz) ** 4 * h ** 2 * mag \
            * np.exp(2 * np.pi * nz * h) / 6.0
        assert abs(lap) <= 1.05 * bound
        assert abs(lap) / mag < 1e-4


# ---------------------------------------------------------------------------
# bilinear form


def test_bilinear_cosine_diagonal():
    L = 32
    dn = analytic_disk_dn_matrix(L)
    th = dn.layout.centers
    for k in (1, 2, 3, 4):
        val = bilinear_form(dn, np.cos(k * th), np.cos(k * th))
        assert val == pytest.approx(np.pi * k, rel=1e-12)


def test_bilinear_cos_sin_orthogonal():
    dn = analytic_disk_dn_matrix(32)
    th = dn.layout.centers
    val = bilinear_form(dn, np.cos(2 * th), np.sin(3 * th))
    assert abs(val) < 1e-10


def test_bilinear_symmetric(dn_identity16):
    th = dn_identity16.layout.centers
    phi1 = np.exp(1j * th) + 0.3 * np.cos(2 * th)
    phi2 = np.cos(th) - 0.5j * np.sin(3 * th)
    a = bilinear_form(dn_identity16, phi1, phi2)
    b = bilinear_form(dn_identity16, phi2, phi1)
    assert a == pytest.approx(b, rel=1e-10)


def test_bilinear_scales_with_conductivity():
    dn1 = analytic_disk_dn_matrix(16, sigma=1.0)
    dn2 = analytic_disk_dn_matrix(16, sigma=2.0)
    th = dn1.layout.centers
    v1 = bilinear_form(dn1, np.cos(th), np.cos(th))
    v2 = bilinear_form(dn2, np.cos(th), np.cos(th))
    assert v2 == pytest.approx(2.0 * v1, rel=1e-12)


def test_bilinear_batched_matches_single(dn_identity16):
    th = dn_identity16.layout.centers
    phi1 = np.stack([np.exp(1j * k * th) for k in (1, 2, 3)], axis=1)
    phi2 = np.stack([np.cos(k * th) - 0.5j * np.sin(th) for k in (2, 1, 3)],
                    axis=1)
    batched = bilinear_form(dn_identity16, phi1, phi2)
    assert batched.shape == (3,)
    for p in range(3):
        single = bilinear_form(dn_identity16, phi1[:, p], phi2[:, p])
        assert batched[p] == pytest.approx(single, rel=1e-12)


def test_bilinear_rejects_wrong_length(dn_identity16):
    with pytest.raises(ValueError):
        bilinear_form(dn_identity16, np.ones(8), np.ones(16))
    with pytest.raises(ValueError):
        bilinear_form(dn_identity16, np.ones((16, 3)), np.ones((16, 2)))
    with pytest.raises(ValueError):
        bilinear_form(dn_identity16, np.ones((16, 2, 2)), np.ones((16, 2, 2)))


def _a4_flattened_centers(dn):
    # electrode centers mapped onto the A4-flattened ellipse (semi-axes
    # 2/3 and 4/3), where the traces grow most
    return dn.electrode_centers() * [2.0 / 3.0, 4.0 / 3.0]


def _flattened_a4_probe():
    """L=128 disk DN plus a small symmetric perturbation, and the R=2.3
    lattice traces at the A4-flattened electrode centers."""
    dn = analytic_disk_dn_matrix(128)
    rng = np.random.default_rng(7)
    E = 1e-3 * dn.dn[0, 0] * rng.standard_normal(dn.dn.shape)
    dn = replace(dn, dn=dn.dn + E + E.T)
    zs, _ = masked_lattice(2.3, 33)
    return dn, cgo_traces(zs, _a4_flattened_centers(dn))


def test_bilinear_matches_extended_precision():
    dn, (phi1, phi2) = _flattened_a4_probe()
    B = bilinear_form(dn, phi1, phi2)
    # c1^T D c2 with the projection and the pairing in long double
    t_hat = dn.basis.T.astype(np.longdouble)
    tw = t_hat * (2.0 * np.pi / dn.L)
    project = tw / (tw * t_hat).sum(axis=1)[:, None]
    c1 = project @ phi1.astype(np.clongdouble)
    c2 = project @ phi2.astype(np.clongdouble)
    ref = (c1 * (dn.dn.astype(np.longdouble) @ c2)).sum(axis=0)
    scale = np.abs(ref).max()
    assert np.abs(B - ref).max() <= 1e-9 * scale


def test_bilinear_ignores_memory_layout():
    # Fortran-ordered and strided traces pair exactly as their contiguous
    # copies do
    dn, (phi1, phi2) = _flattened_a4_probe()
    B = bilinear_form(dn, phi1, phi2)
    fortran = bilinear_form(dn, np.asfortranarray(phi1),
                            np.asfortranarray(phi2))
    wide1 = np.repeat(phi1, 2, axis=1)
    wide2 = np.repeat(phi2, 2, axis=1)
    strided = bilinear_form(dn, wide1[:, ::2], wide2[:, 1::2])
    assert np.array_equal(fortran, B)
    assert np.array_equal(strided, B)
    single = bilinear_form(dn, phi1[:, 5], phi2[:, 5])
    assert single == bilinear_form(dn, np.ascontiguousarray(phi1[:, 5]),
                                   np.ascontiguousarray(phi2[:, 5]))


def test_bilinear_conjugate_symmetric():
    # the traces of -z are conj(phi2(z)) and conj(phi1(z)), so the
    # pairing at -z must be conj(B(z))
    dn, (phi1, phi2) = _flattened_a4_probe()
    B = bilinear_form(dn, phi1, phi2)
    B_mirror = bilinear_form(dn, np.conj(phi2), np.conj(phi1))
    assert np.abs(B_mirror - np.conj(B)).max() <= 1e-14 * np.abs(B).max()


# ---------------------------------------------------------------------------
# spectrum assembly


def test_fhat_matches_disk_indicator(dn_identity32):
    fh = fhat_grid(dn_identity32, IDENTITY, R=1.0, m=17)
    rho = np.hypot(fh.zs[:, 0], fh.zs[:, 1])
    target = j1(2 * np.pi * rho) / rho
    scale = np.abs(target).max()
    err = np.abs(fh.values - target)
    # pointwise 10% away from the zero crossing of the oracle, and 10% of
    # the spectrum scale everywhere
    sel = np.abs(target) >= 0.1 * scale
    assert (err[sel] / np.abs(target[sel])).max() < 0.10
    assert err.max() < 0.10 * scale


def test_fhat_hermitian(dn_identity32):
    # Fhat(-z) = conj(Fhat(z)) bit for bit; the mirror -z of the k-th
    # lattice point is the k-th from the end
    v = fhat_grid(dn_identity32, IDENTITY, R=1.5, m=21).values
    assert np.array_equal(v[::-1], np.conj(v))


def test_half_lattice_fhat_matches_full_pairing():
    # the spectrum paired on the upper half and mirrored agrees with the
    # pairing of every lattice point's own traces
    dn, (phi1, phi2) = _flattened_a4_probe()
    fh = fhat_grid(dn, lambda p: p * [2.0 / 3.0, 4.0 / 3.0], R=2.3, m=33)
    B = bilinear_form(dn, phi1, phi2)
    rho = np.hypot(fh.zs[:, 0], fh.zs[:, 1])
    got = -fh.values * (2.0 * np.pi ** 2 * rho ** 2)
    assert np.abs(got - B).max() <= 1e-9 * np.abs(B).max()


def test_fhat_metadata(dn_identity32):
    fh = fhat_grid(dn_identity32, IDENTITY, R=2.0, m=33)
    rho = np.hypot(fh.zs[:, 0], fh.zs[:, 1])
    assert fh.R == 2.0 and fh.m == 33
    assert fh.spacing == pytest.approx(4.0 / 32)
    assert rho.max() <= 2.0 + 1e-12 and rho.min() > 0
    assert len(fh.zs) == len(fh.values)


@pytest.mark.parametrize("R,m", [(1.8, 49), (1.8, 41), (1.9, 61)])
def test_fhat_lattice_centre_excluded(dn_identity32, R, m):
    # np.linspace(-R, R, m) would leave the centre at +-2.2e-16 for these
    # pairs; the z = 0 mode must be dropped
    fh = fhat_grid(dn_identity32, IDENTITY, R=R, m=m)
    assert np.hypot(fh.zs[:, 0], fh.zs[:, 1]).min() >= fh.spacing * 0.999
    assert np.abs(fh.values).max() < 10.0
    pts = np.stack([np.linspace(-0.9, 0.9, 21), np.zeros(21)], axis=1)
    _, imres = inverse_fourier(fh, pts)
    assert imres <= 1e-6


def test_lattice_point_symmetric_and_hermitian_defect():
    # the mirror -z of the k-th masked lattice point is exactly the k-th
    # from the end, which fhat_grid's mirrored half relies on, and the
    # axis centre is exactly 0
    for R in (1.6, 1.7, 1.8, 1.9, 2.0, 2.3, 3.1):
        for m in range(3, 98, 2):
            zs, spacing = masked_lattice(R, m)
            assert np.array_equal(zs[::-1], -zs), (R, m)
            axis = np.unique(zs[:, 0])
            assert len(axis) == m and axis[m // 2] == 0.0, (R, m)
            assert axis[m // 2 + 1] == spacing, (R, m)


@pytest.mark.parametrize("R", [1.8, 2.3, 3.1])
@pytest.mark.parametrize("m", [21, 33, 49])
def test_lattice_traces_match_cgo_traces(R, m):
    # the per-axis products are the traces of the upper lattice half
    y = _a4_flattened_centers(analytic_disk_dn_matrix(128))
    zs, _ = masked_lattice(R, m)
    upper = zs[len(zs) // 2:]
    for got, want in zip(lattice_traces(R, m, y), cgo_traces(upper, y)):
        assert got.shape == want.shape == (128, len(upper))
        assert (np.abs(got - want) / np.abs(want)).max() <= 1e-13


def test_fhat_rejects_bad_lattice(dn_identity32):
    with pytest.raises(ValueError):
        fhat_grid(dn_identity32, IDENTITY, R=-1.0)
    with pytest.raises(ValueError):
        fhat_grid(dn_identity32, IDENTITY, R=2.0, m=32)


@pytest.mark.parametrize("R", [np.nan, np.inf])
def test_nonfinite_radius_rejected(dn_identity16, R):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite and positive"):
            fhat_grid(dn_identity16, IDENTITY, R=R)
        with pytest.raises(ValueError, match="finite and positive"):
            reconstruct_field(dn_identity16, IDENTITY, np.eye(2), R=R)


def test_overflowing_traces_rejected_without_warning(dn_identity16):
    # at R = 300 the growth exp(pi b.y) overflows to inf and its inverse
    # underflows to 0, so phase / growth divides by zero: the non-finite
    # samples raise ValueError and no numpy warning leaks
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite samples"):
            fhat_grid(dn_identity16, IDENTITY, R=300)
        with pytest.raises(ValueError, match="non-finite samples"):
            reconstruct_field(dn_identity16, IDENTITY, np.eye(2), R=300)


# ---------------------------------------------------------------------------
# truncated inverse transform


def _indicator_lattice(R, m):
    zs, spacing = masked_lattice(R, m)
    rho = np.hypot(zs[:, 0], zs[:, 1])
    return FhatGrid(R=R, m=m, zs=zs, values=j1(2 * np.pi * rho) / rho,
                    spacing=spacing, det_background=1.0)


def test_inverse_zero_spectrum():
    fh = _indicator_lattice(2.0, 33)
    fh.values = np.zeros_like(fh.values)
    vals, imres = inverse_fourier(fh, np.array([[0.0, 0.0], [0.3, 0.3]]))
    assert not vals.any()


def test_inverse_indicator_center_value():
    # radial oracle: integral of J1(2 pi rho)/rho over |z| <= R equals
    # 1 - J0(2 pi R); the lattice sum approaches it under refinement
    continuum = 1.0 - j0(2 * np.pi * 2.0)
    vals, _ = inverse_fourier(_indicator_lattice(2.0, 33),
                              np.array([[0.0, 0.0]]))
    assert vals[0] == pytest.approx(0.8025, abs=0.005)     # frozen lattice value
    assert abs(vals[0] - continuum) < 0.06 * abs(continuum)


def test_inverse_lattice_refinement_converges():
    pt = np.array([[0.0, 0.0]])
    prev = None
    changes = []
    for m in (33, 65, 129):
        val = inverse_fourier(_indicator_lattice(2.0, m), pt)[0][0]
        if prev is not None:
            changes.append(abs(val - prev) / abs(prev))
        prev = val
    assert changes[-1] <= 0.01
    assert changes[-1] < changes[0]


def test_inverse_imag_residual_small():
    fh = _indicator_lattice(1.5, 25)
    _, imres = inverse_fourier(fh, np.array([[0.2, -0.4], [0.0, 0.1]]))
    assert imres < 1e-12


def _direct_inverse(fh, pts):
    # the (lattice x points) phase-matrix sum the separable form replaces
    phases = np.exp(-2j * np.pi * (fh.zs @ pts.T))
    return (fh.values @ phases) * fh.spacing ** 2


# explicit ids keep the names of the m-only cases stable; the last two are
# pairs where np.linspace(-R, R, m) puts the centre at +-2.2e-16
@pytest.mark.parametrize("R,m", [pytest.param(2.3, m, id=str(m))
                                 for m in (3, 33, 65)]
                         + [(1.8, 49), (1.9, 61)])
def test_inverse_separable_matches_direct_sum(R, m):
    rng = np.random.default_rng(m)
    zs, spacing = masked_lattice(R, m)
    values = rng.standard_normal(len(zs)) + 1j * rng.standard_normal(len(zs))
    fh = FhatGrid(R=R, m=m, zs=zs, values=values, spacing=spacing,
                  det_background=1.0)
    pts = rng.uniform(-1.3, 1.3, size=(257, 2))
    direct = _direct_inverse(fh, pts)
    vals, imres = inverse_fourier(fh, pts)
    scale = np.abs(direct.real).max()
    assert np.abs(vals - direct.real).max() <= 1e-13 * scale
    assert imres == pytest.approx(np.abs(direct.imag).max() / scale,
                                  rel=1e-13)


def test_inverse_rejects_wrong_sample_count():
    fh = _indicator_lattice(2.0, 33)
    fh.values = fh.values[:-1]
    with pytest.raises(ValueError, match="spectrum samples"):
        inverse_fourier(fh, np.array([[0.0, 0.0]]))


def test_inverse_memory_bounded():
    # lattice 65 over the 7,845 points of a 101 x 101 grid inside the
    # disk: a full phase matrix would hold 3,208 x 7,845 complex values
    # (403 MB); the two phase factors are 8.2 MB each
    import tracemalloc
    fh = _indicator_lattice(2.0, 65)
    axis = np.linspace(-1.0, 1.0, 101)
    GX, GY = np.meshgrid(axis, axis, indexing="ij")
    pts = np.stack([GX.ravel(), GY.ravel()], axis=1)
    pts = pts[np.hypot(pts[:, 0], pts[:, 1]) <= 1.0]
    assert len(pts) == 7845
    tracemalloc.start()
    try:
        inverse_fourier(fh, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6


def test_inverse_rejects_empty():
    fh = _indicator_lattice(2.0, 33)
    fh.zs = fh.zs[:0]
    fh.values = fh.values[:0]
    with pytest.raises(ValueError):
        inverse_fourier(fh, np.array([[0.0, 0.0]]))


# ---------------------------------------------------------------------------
# pullback and tensor assembly


def test_reconstruct_field_composes_with_map(dn_identity16):
    # the field is the flattened-domain inverse transform at Phi(x), plus
    # the offset that pins the median over the mapped ring to one
    def shrink(points):
        return 0.8 * np.asarray(points)

    field = reconstruct_field(dn_identity16, shrink, np.eye(2), R=1.5,
                              lattice=21, grid=31)
    fh = fhat_grid(dn_identity16, shrink, R=1.5, m=21)
    assert np.array_equal(field.fhat.values, fh.values)
    t = np.linspace(0.0, 2.0 * np.pi, BG_RING_SAMPLES, endpoint=False)
    ring = BG_RING_RADIUS * np.stack([np.cos(t), np.sin(t)], axis=1)
    offset = 1.0 - np.median(inverse_fourier(fh, shrink(ring))[0])
    assert field.background_offset == pytest.approx(offset, abs=1e-13)
    GX, GY = np.meshgrid(field.grid_axis, field.grid_axis, indexing="ij")
    pts = np.stack([GX[field.mask], GY[field.mask]], axis=1)
    want = inverse_fourier(fh, shrink(pts))[0] + offset
    assert np.abs(field.a[field.mask] - want).max() <= 1e-12


def test_ring_median_is_numpy_median_bit_for_bit():
    # heavy-tailed ring samples over many scales, with ties and infinities
    rng = np.random.default_rng(14)
    for k in range(300):
        v = rng.standard_cauchy(BG_RING_SAMPLES) * 10.0 ** rng.integers(-12, 12)
        if k % 3 == 0:
            v[rng.integers(0, len(v), 20)] = v[0]
        if k % 5 == 0:
            v[rng.integers(0, len(v), 3)] = rng.choice([np.inf, -np.inf], 3)
        assert np.float64(_median(v)).tobytes() == \
            np.float64(np.median(v)).tobytes(), v
    for where in (0, 31, 32, BG_RING_SAMPLES - 1):
        v = np.linspace(0.0, 1.0, BG_RING_SAMPLES)
        v[where] = np.nan
        assert np.isnan(_median(v)) and np.isnan(np.median(v))


# ---------------------------------------------------------------------------
# pipeline-level properties


def test_isotropic_reduction(dn_identity16, identity_qcmap):
    # the anisotropic pipeline with the trivial map must agree with the
    # direct isotropic path to near machine precision
    fa = fhat_grid(dn_identity16, identity_qcmap, R=1.5, m=21)
    fb = fhat_grid(dn_identity16, IDENTITY, R=1.5, m=21)
    pts = np.stack([np.linspace(-0.9, 0.9, 41), np.zeros(41)], axis=1)
    va, _ = inverse_fourier(fa, pts)
    vb, _ = inverse_fourier(fb, pts)
    assert np.abs(fa.values - fb.values).max() < 1e-8 * np.abs(fb.values).max()
    assert np.abs(va - vb).max() <= 1e-8 * max(1.0, np.abs(vb).max())


def test_reconstruct_field_output_contract(dn_identity16):
    field = reconstruct_field(dn_identity16, IDENTITY, np.eye(2), R=1.8,
                              lattice=33, grid=101)
    assert field.a.shape == (101, 101)
    assert field.mask.shape == (101, 101)
    assert np.isnan(field.a[~field.mask]).all()
    assert np.isfinite(field.a[field.mask]).all()
    assert field.imag_residual < 1e-6
    inside = np.hypot(*np.meshgrid(field.grid_axis, field.grid_axis,
                                   indexing="ij")) <= 1.0
    assert np.array_equal(field.mask, inside)
    # the cross-section is the grid's middle column, on the x-axis
    assert np.array_equal(field.cross_section_x, field.grid_axis)
    assert np.array_equal(field.cross_section, field.a[:, 50])
    with pytest.raises(ValueError, match="odd"):
        reconstruct_field(dn_identity16, IDENTITY, np.eye(2), R=1.8, grid=100)


def test_reconstruct_field_cross_section_even(dn_identity16, identity_qcmap):
    # radially symmetric data: the cross-section is even in x
    field = reconstruct_field(dn_identity16, identity_qcmap, np.eye(2), R=1.8)
    cs = field.cross_section
    rel = np.abs(cs - cs[::-1]).max() / np.abs(cs).max()
    assert rel < 0.05


def test_fhat_serialization_roundtrip(tmp_path, dn_identity16):
    from anisoeit import save_fhat
    fh = fhat_grid(dn_identity16, IDENTITY, R=1.5, m=21)
    fh.config_sha256 = "f00d"
    save_fhat(fh, tmp_path / "fhat.json", tmp_path / "fhat.bin")
    doc = json.loads((tmp_path / "fhat.json").read_text())
    values = np.fromfile(tmp_path / doc["values_file"], dtype=np.complex128)
    assert np.array_equal(values, fh.values)
    assert np.array_equal(masked_lattice(doc["R"], doc["m"])[0], fh.zs)
    assert doc["R"] == fh.R and doc["m"] == fh.m
    assert doc["spacing"] == fh.spacing
    assert doc["config_sha256"] == "f00d"


def test_sidecars_reload_after_move(tmp_path, dn_identity16):
    from anisoeit import save_fhat
    field = reconstruct_field(dn_identity16, IDENTITY, np.eye(2), R=1.5,
                              lattice=21, grid=31)
    before = tmp_path / "before"
    before.mkdir()
    save_fhat(field.fhat, before / "fhat.json", before / "fhat.bin")
    save_field(field, before / "recon.json", before / "recon.bin")
    for name, key in (("fhat", "values_file"), ("recon", "grid_file")):
        doc = json.loads((before / f"{name}.json").read_text())
        assert doc[key] == f"{name}.bin"
    after = tmp_path / "after"
    before.rename(after)
    doc = json.loads((after / "fhat.json").read_text())
    values = np.fromfile(after / doc["values_file"], dtype=np.complex128)
    assert np.array_equal(values, field.fhat.values)
    assert np.array_equal(masked_lattice(doc["R"], doc["m"])[0], field.fhat.zs)
    back = load_field(after / "recon.json")
    assert np.array_equal(np.isnan(back.a), np.isnan(field.a))
    assert np.array_equal(back.a[back.mask], field.a[field.mask])


def test_field_serialization_roundtrip(tmp_path, dn_identity16):
    field = reconstruct_field(dn_identity16, IDENTITY, np.eye(2), R=1.8,
                              lattice=21, grid=61, config_sha256="beef")
    jp, bp = tmp_path / "recon.json", tmp_path / "recon.bin"
    save_field(field, jp, bp)
    back = load_field(jp)
    assert np.array_equal(
        np.nan_to_num(back.a, nan=-9.0), np.nan_to_num(field.a, nan=-9.0))
    assert np.array_equal(back.cross_section, field.cross_section)
    assert back.R == field.R and back.lattice == field.lattice
    assert back.background_offset == field.background_offset
    assert back.config_sha256 == "beef"


def test_field_stamps_its_spectrum(dn_identity16):
    # the spectrum carries the reconstruction's stamp, not the DN matrix's
    assert dn_identity16.config_sha256 == ""
    field = reconstruct_field(dn_identity16, IDENTITY, np.eye(2), R=1.8,
                              lattice=9, grid=21, config_sha256="beef")
    assert field.config_sha256 == field.fhat.config_sha256 == "beef"
