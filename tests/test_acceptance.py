"""Acceptance suite: one test per numbered criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS line
per criterion.  Criterion 7 is parametrized per phantom; the A4 high-
anisotropy case at the largest truncation radius is expected to fail its
background clause (see the analysis in the repository notes): the
exponentially growing probing traces amplify data and map error on the
stretched axis beyond what double-precision electrode data supports.
"""

import hashlib
import json
import time

import numpy as np
import pytest
from scipy.special import j1

from anisoeit import (a0_catalog, beltrami_coefficient, bilinear_form,
                      build_disk_mesh, constant_tensor, dn_matrix,
                      evaluate_map, fhat_grid, inverse_fourier,
                      place_electrodes, phantom_by_name, pushforward_tensor,
                      reconstruct_field, simulate_voltages, solve_forward,
                      assemble_cem_system, trig_current_patterns)
from anisoeit.cli import main
from anisoeit.config import RunConfig, save_config

MU_EXPECTED = {"A1": 0.0655, "A2": -0.0655, "A3": 0.3333, "A4": -0.3333}
TRUNCATION_RADII = {"A1": (1.8, 2.0), "A2": (1.8, 2.0),
               "A3": (2.0, 2.3), "A4": (2.0, 2.3)}

_imag_residuals = []


def _report(num, text):
    print(f"[criterion {num}] PASS: {text}")


# --- criterion 1 -----------------------------------------------------------

def test_criterion_1_mu_catalog():
    t0 = time.perf_counter()
    for name, A0 in a0_catalog().items():
        mu = beltrami_coefficient(A0)
        assert mu.real == pytest.approx(MU_EXPECTED[name], abs=5e-5), name
        assert mu.imag == 0.0
    assert time.perf_counter() - t0 < 1.0
    _report(1, "catalog dilatations match (+-0.0655, +-0.3333) within 5e-5")


# --- criterion 2 -----------------------------------------------------------

def test_criterion_2_identity_reduction(identity_qcmap, dn_identity16):
    X, Y = identity_qcmap.mu.meshgrid()
    dev = np.abs(identity_qcmap.phi - (X + 1j * Y)).max()
    assert dev <= 1e-10

    with_map = reconstruct_field(dn_identity16, identity_qcmap, np.eye(2),
                                 R=1.8, lattice=33, grid=61)
    direct = reconstruct_field(dn_identity16, None, np.eye(2),
                               R=1.8, lattice=33, grid=61)
    m = with_map.mask
    diff = np.abs(with_map.a[m] - direct.a[m]).max()
    assert diff <= 1e-8, f"pipelines differ by {diff:.2e}"
    _report(2, f"identity map exact ({dev:.1e}); pipelines agree to {diff:.1e}")


# --- criterion 3 -----------------------------------------------------------

def test_criterion_3_beltrami_residuals(catalog_maps):
    # one fresh solve of the strongest tensor checks the per-tensor budget
    from anisoeit import extend_mu, solve_beltrami
    t0 = time.perf_counter()
    solve_beltrami(extend_mu(a0_catalog()["A3"]))
    assert time.perf_counter() - t0 < 60.0
    worst_res, worst_ratio = 0.0, 0.0
    for name, qc in catalog_maps.items():
        assert qc.mu.n == 512 and qc.mu.s == 4.0
        assert qc.residual <= 1e-3, f"{name}: residual {qc.residual:.2e}"
        sup = float(np.abs(qc.mu.mu).max())
        ratios = qc.increments[1:] / qc.increments[:-1]
        assert ratios.max() <= sup + 0.05, f"{name}: ratio {ratios.max():.3f}"
        worst_res = max(worst_res, qc.residual)
        worst_ratio = max(worst_ratio, float(ratios.max()) - sup)
    _report(3, f"residuals <= {worst_res:.1e} (bound 1e-3); contraction "
               f"ratios within sup|mu| + {worst_ratio:.3f}")


# --- criterion 4 -----------------------------------------------------------

def test_criterion_4_pushforward_isotropy(catalog_maps):
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    r = 0.97 * np.sqrt(rng.random(500))
    t = 2 * np.pi * rng.random(500)
    pts = np.stack([r * np.cos(t), r * np.sin(t)], axis=1)
    worst_off, worst_ratio = 0.0, 1.0
    for name, A0 in a0_catalog().items():
        out = pushforward_tensor(A0, catalog_maps[name], pts)
        sq = np.sqrt(np.linalg.det(A0))
        off = np.abs(out[:, 0, 1]).max() / sq
        eig = np.linalg.eigvalsh(0.5 * (out + np.swapaxes(out, 1, 2)))
        ratio = (eig[:, 1] / eig[:, 0]).max()
        assert off <= 0.05, f"{name}: off-diagonal {off:.3f}"
        assert 0.95 <= (eig[:, 0] / eig[:, 1]).min() and ratio <= 1.05, \
            f"{name}: eigenvalue ratio {ratio:.3f}"
        worst_off = max(worst_off, off)
        worst_ratio = max(worst_ratio, ratio)
    assert time.perf_counter() - t0 < 10.0
    _report(4, f"flattened tensors isotropic: off-diag <= {worst_off:.4f}, "
               f"eigen ratio <= {worst_ratio:.4f}")


# --- criterion 5 -----------------------------------------------------------

def test_criterion_5_forward_physics(mesh32_fine, layout32_fine,
                                     dn_identity32):
    assert dn_identity32.asymmetry <= 1e-8

    system = assemble_cem_system(mesh32_fine, constant_tensor(np.eye(2)),
                                 layout32_fine)
    pat = trig_current_patterns(32)
    U = solve_forward(system, pat.T[:, 2])
    assert abs(U.sum()) <= 1e-12

    th = layout32_fine.centers
    worst = 0.0
    for k in (1, 2, 3, 4):
        for trace in (np.cos(k * th), np.sin(k * th)):
            est = bilinear_form(dn_identity32, trace, trace).real / np.pi
            rel = abs(est - k) / k
            assert rel <= 0.10, f"k={k}: eigenvalue {est:.3f}"
            worst = max(worst, rel)
    _report(5, f"reciprocity {dn_identity32.asymmetry:.1e}; ground exact; "
               f"disk eigenvalues within {worst:.1%} of sigma*k")


# --- criterion 6 -----------------------------------------------------------

def test_criterion_6_calderon_sanity(dn_identity32):
    t0 = time.perf_counter()
    fh = fhat_grid(dn_identity32, None, R=1.0, m=17)
    rho = np.hypot(fh.zs[:, 0], fh.zs[:, 1])
    target = j1(2 * np.pi * rho) / rho
    scale = np.abs(target).max()
    err = np.abs(fh.values - target)
    sel = np.abs(target) >= 0.1 * scale   # relative match needs a nonzero ref
    rel = (err[sel] / np.abs(target[sel])).max()
    assert rel <= 0.10, f"spectrum mismatch {rel:.3f}"
    assert err.max() <= 0.10 * scale

    field = reconstruct_field(dn_identity32, None, np.eye(2), R=1.8,
                              lattice=33, grid=61)
    _imag_residuals.append(field.imag_residual)
    center = field.cross_section[len(field.cross_section) // 2]
    assert 0.85 <= center <= 1.15, f"atilde(0) = {center:.3f}"
    assert time.perf_counter() - t0 < 120.0
    _report(6, f"spectrum within {rel:.1%} of the disk transform; "
               f"atilde(0) = {center:.3f} in [0.85, 1.15]")


# --- criterion 7 -----------------------------------------------------------

@pytest.fixture(scope="module")
def reconstruction_runs(catalog_maps):
    """Cross-sections for all four phantoms at both truncation radii.

    Data quality is pushed as far as the electrode model allows (many
    small electrodes, low contact impedance, fine mesh); the radii and
    the clauses checked are fixed, only the data configuration is free.
    """
    t0 = time.perf_counter()
    L, h, z = 128, 0.012, 2.5e-4
    layout = place_electrodes(L, 0.5, z)
    mesh = build_disk_mesh(1.0, h, layout)
    runs = {}
    for name in ("A1", "A2", "A3", "A4"):
        ph = phantom_by_name(name)
        dn = dn_matrix(simulate_voltages(mesh, ph.tensor, layout))
        qc = catalog_maps[name]
        for R in TRUNCATION_RADII[name]:
            field = reconstruct_field(dn, qc, ph.A0, R=R, lattice=33,
                                      grid=61)
            _imag_residuals.append(field.imag_residual)
            runs[name, R] = field
    runs["elapsed"] = time.perf_counter() - t0
    return runs


def _slope(field):
    xs, cs = field.cross_section_x, field.cross_section
    d = np.gradient(cs, xs)
    sel = (np.abs(xs) >= 0.3) & (np.abs(xs) <= 0.7)
    return float(np.nanmax(np.abs(d[sel])))


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4"])
def test_criterion_7_phantom_reconstructions(reconstruction_runs, name):
    M = phantom_by_name(name).M
    slopes = []
    summary = []
    for R in TRUNCATION_RADII[name]:
        field = reconstruction_runs[name, R]
        xs, cs = field.cross_section_x, field.cross_section
        bg = float(np.nanmean(cs[(np.abs(xs) >= 0.6) & (np.abs(xs) <= 0.9)]))
        center = float(cs[len(xs) // 2])
        slopes.append(_slope(field))
        summary.append(f"R={R}: center {center:.2f}, background {bg:.2f}")
        assert 0.8 <= bg <= 1.2, (
            f"{name} R={R}: background annulus mean {bg:.2f} outside "
            f"[0.8, 1.2] (A4 at R=2.3 is a known limitation: the probing "
            f"traces grow along the stretched axis and amplify residual "
            f"data error; see notes)")
        assert center > bg, f"{name} R={R}: center {center:.2f} <= bg {bg:.2f}"
        if M == 4.0:
            assert center > 1.5, f"{name} R={R}: center {center:.2f}"
    assert slopes[1] > slopes[0], (
        f"{name}: slope did not steepen with R ({slopes})")
    assert reconstruction_runs["elapsed"] < 600.0
    _report(7, f"{name}: {'; '.join(summary)}; slope "
               f"{slopes[0]:.1f} -> {slopes[1]:.1f}")


# --- criterion 8 -----------------------------------------------------------

def test_criterion_8_hermitian_real_output(dn_identity16):
    if not _imag_residuals:
        field = reconstruct_field(dn_identity16, None, np.eye(2), R=1.8,
                                  lattice=21, grid=41)
        _imag_residuals.append(field.imag_residual)
    worst = max(_imag_residuals)
    assert worst <= 1e-6, f"imaginary residual {worst:.2e}"
    _report(8, f"imaginary residual <= {worst:.1e} over "
               f"{len(_imag_residuals)} reconstruction runs")


# --- criterion 9 -----------------------------------------------------------

def test_criterion_9_determinism(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = RunConfig(phantom="A1", target_h=0.1, truncation_radii=[1.8],
                    noise=0.003, seed=17)
    cfg.validate()
    save_config(cfg, "cfg.json")
    digests = []
    for _ in range(2):
        for cmd in ("simulate", "map", "reconstruct"):
            assert main([cmd, "--config", "cfg.json"]) == 0
        digests.append({
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted((tmp_path / "out").iterdir())})
    assert digests[0] == digests[1]
    _report(9, f"two seeded runs produced byte-identical outputs "
               f"({len(digests[0])} files)")
