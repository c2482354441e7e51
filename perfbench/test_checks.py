"""Each benchmark check accepts a correct output and rejects one
deliberately wrong input.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import anisoeit as A  # noqa: E402
import checks  # noqa: E402
from workloads import PHANTOMS, _check_phantom  # noqa: E402

A3 = np.array(PHANTOMS["A3"][1])


@pytest.fixture(scope="module")
def small_run():
    """Coarse A3 data (L=16), its map on a 128 grid and one reconstruction."""
    layout = A.place_electrodes(16, 0.5, 0.01)
    mesh = A.build_disk_mesh(1.0, 0.08, layout)
    ph = A.phantom_by_name("A3")
    dn = A.dn_matrix(A.simulate_voltages(mesh, ph.tensor, layout))
    qc = A.solve_beltrami(A.extend_mu(ph.A0, n=128))
    field = A.reconstruct_field(dn, qc, ph.A0, R=2.0, lattice=17, grid=41)
    return dn, qc, field


def test_dn_rejects_transposed_block(small_run):
    dn = small_run[0].dn
    assert checks.check_dn(dn) == []
    # one off-diagonal block written transposed: an orientation bug
    bad = dn.copy()
    k = (len(dn) - 1) // 2
    bad[:k, k:2 * k] = dn[:k, k:2 * k].T
    assert not np.array_equal(bad, bad.T)
    assert checks.check_dn(bad)


def test_dn_rejects_indefinite():
    assert checks.check_dn(-np.eye(5))


def test_map_rejects_missing_conjugate_term(small_run):
    qc = small_run[1]
    n, s = qc.mu.n, qc.mu.s
    assert checks.check_affine_map(qc.phi, n, s, A3) == []
    x = -s + (2 * s / n) * np.arange(n)
    X, Y = np.meshgrid(x, x, indexing="ij")
    off = qc.phi - checks.dilatation(A3) * (X - 1j * Y)
    assert checks.check_affine_map(off, n, s, A3)


def test_hermitian_rejects_broken_pair(small_run):
    fh = small_run[2].fhat
    assert checks.check_hermitian(fh.zs, fh.values, fh.spacing) == []
    bad = fh.values.copy()
    bad[3] += 1e-3 * np.abs(bad).max()
    assert checks.check_hermitian(fh.zs, bad, fh.spacing)


def test_phantom_rejects_wrong_contrast():
    M, A0 = PHANTOMS["A3"]
    assert _check_phantom(A.phantom_by_name("A3"), M, np.array(A0)) == []
    wrong = A.make_phantom(1.3, np.array(A0))
    assert _check_phantom(wrong, M, np.array(A0))


def test_evaluate_rejects_wrong_contrast(small_run):
    field = small_run[2]
    a, axis = field.a, field.grid_axis
    M = PHANTOMS["A3"][0]
    GX, GY = np.meshgrid(axis, axis, indexing="ij")
    rho = np.hypot(GX, GY)
    right = {"l2_rel": checks.l2_rel(a, axis, M),
             "center": float(a[len(axis) // 2, len(axis) // 2]),
             "bg_mean": float(a[(rho >= 0.6) & (rho <= 0.9)].mean())}
    assert checks.check_evaluate(right, a, axis, M) == []
    wrong = dict(right, l2_rel=checks.l2_rel(a, axis, 1.3))
    assert checks.check_evaluate(wrong, a, axis, M)


def test_band_rejects_known_a4_background():
    xs = np.linspace(-1.0, 1.0, 61)
    cs = np.where(np.abs(xs) < 0.5, 6.9, 2.14)
    a = np.ones((61, 61))
    problems, fig = checks.check_reconstruction(a, xs, xs, cs, 4.0)
    assert [p for p in problems if p.startswith("background band")]
    assert fig["bg"] == pytest.approx(2.14)


def test_disk_eigenvalues_reject_wrong_conductivity():
    L = 32
    layout = A.place_electrodes(L, 0.5, 0.005)
    mesh = A.build_disk_mesh(1.0, 0.05, layout)
    dn = A.dn_matrix(A.simulate_voltages(mesh, A.constant_tensor(np.eye(2)),
                                         layout)).dn
    assert checks.check_disk_eigenvalues(dn, L) == []
    assert checks.check_disk_eigenvalues(1.3 * dn, L)
