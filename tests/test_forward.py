import dataclasses

import numpy as np
import pytest

from anisoeit import (build_disk_mesh, place_electrodes, constant_tensor,
                      trig_current_patterns, assemble_cem_system,
                      solve_forward, simulate_voltages, dn_matrix,
                      save_voltages, load_voltages, save_dn, load_dn,
                      phantom_by_name)
from anisoeit.forward import element_stiffness, VoltageData
from anisoeit.mesh import boundary_edge_electrodes

REF_TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def test_patterns_L4_columns():
    pat = trig_current_patterns(4)
    assert np.allclose(pat.T[:, 0], [1.0, 0.0, -1.0, 0.0], atol=1e-15)
    assert np.allclose(pat.T[:, 2], [0.0, 1.0, 0.0, -1.0], atol=1e-15)


def test_patterns_conserve_current():
    for L in (4, 8, 16, 32):
        pat = trig_current_patterns(L)
        assert np.abs(pat.T.sum(axis=0)).max() < 1e-13


def test_patterns_orthogonal():
    pat = trig_current_patterns(16)
    G = pat.T.T @ pat.T
    off = G - np.diag(np.diag(G))
    assert np.abs(off).max() < 1e-12


def test_patterns_reject_odd():
    with pytest.raises(ValueError):
        trig_current_patterns(5)
    with pytest.raises(ValueError):
        trig_current_patterns(2)


def test_element_stiffness_identity():
    K = element_stiffness(REF_TRIANGLE[None], np.eye(2)[None])[0]
    expected = np.array([[1.0, -0.5, -0.5],
                         [-0.5, 0.5, 0.0],
                         [-0.5, 0.0, 0.5]])
    assert np.allclose(K, expected, atol=1e-14)


def test_element_stiffness_anisotropic():
    K = element_stiffness(REF_TRIANGLE[None], np.diag([4.0, 1.0])[None])[0]
    expected = np.array([[2.5, -2.0, -0.5],
                         [-2.0, 2.0, 0.0],
                         [-0.5, 0.0, 0.5]])
    assert np.allclose(K, expected, atol=1e-14)


def test_d_block_structure(mesh16, layout16):
    system = assemble_cem_system(mesh16, constant_tensor(np.eye(2)), layout16)
    N, L = mesh16.n_nodes, layout16.L
    D = system.matrix[N:, N:].toarray()
    # polygonal arc lengths per electrode
    edges = mesh16.boundary_edges()
    owner = boundary_edge_electrodes(mesh16, layout16)
    s = np.zeros(L)
    for (i, j), l in zip(edges, owner):
        if l >= 0:
            s[l] += np.linalg.norm(mesh16.nodes[j] - mesh16.nodes[i])
    z = layout16.contact_impedances
    expected = s[0] / z[0] * np.ones((L - 1, L - 1)) + np.diag(s[1:] / z[1:])
    assert np.allclose(D, expected, rtol=1e-12)


def test_c_block_structure(mesh16, layout16):
    layout = dataclasses.replace(layout16,
                                 contact_impedances=np.linspace(0.01, 0.04, 16))
    system = assemble_cem_system(mesh16, constant_tensor(np.eye(2)), layout)
    N, L = mesh16.n_nodes, layout.L
    C = system.matrix[:N, N:].toarray()
    # w[l, k] = integral of phi_k over electrode l (half of each edge length)
    edges = mesh16.boundary_edges()
    owner = boundary_edge_electrodes(mesh16, layout)
    w = np.zeros((L, N))
    for (i, j), l in zip(edges, owner):
        if l >= 0:
            s = np.linalg.norm(mesh16.nodes[j] - mesh16.nodes[i])
            w[l, i] += s / 2
            w[l, j] += s / 2
    wz = w / layout.contact_impedances[:, None]
    # C[k, j] = -w_1[k] / z_1 + w_{j+1}[k] / z_{j+1}
    expected = -wz[0][:, None] + wz[1:].T
    assert np.allclose(C, expected, rtol=1e-12, atol=0.0)
    assert np.allclose(system.matrix[N:, :N].toarray(), expected.T,
                       rtol=1e-12, atol=0.0)


def test_system_symmetric_positive_definite(layout16):
    mesh = build_disk_mesh(1.0, 0.2, layout16)
    system = assemble_cem_system(mesh, constant_tensor(np.eye(2)), layout16)
    M = system.matrix.toarray()
    assert np.allclose(M, M.T, atol=1e-12)
    assert np.linalg.eigvalsh(M)[0] > 0


def test_solve_ground_condition(mesh16, layout16):
    system = assemble_cem_system(mesh16, constant_tensor(np.eye(2)), layout16)
    pat = trig_current_patterns(16)
    for k in (0, 7, 10):
        U = solve_forward(system, pat.T[:, k])
        assert abs(U.sum()) < 1e-12


def test_solve_cosine_symmetry(mesh16, layout16):
    system = assemble_cem_system(mesh16, constant_tensor(np.eye(2)), layout16)
    pat = trig_current_patterns(16)
    U = solve_forward(system, pat.T[:, 0])
    # mirror across the y-axis maps electrode l to (L/2 - l) mod L and
    # flips the sign of a cos(theta) voltage profile
    mirror = [(8 - l) % 16 for l in range(16)]
    assert np.abs(U + U[mirror]).max() < 1e-8 * np.abs(U).max()
    corr = np.corrcoef(U, np.cos(layout16.centers))[0, 1]
    assert corr > 0.999999


def test_solve_rejects_nonconserving_pattern(mesh16, layout16):
    system = assemble_cem_system(mesh16, constant_tensor(np.eye(2)), layout16)
    with pytest.raises(ValueError):
        solve_forward(system, np.ones(16))


def test_block_solve_matches_single_columns(mesh16, layout16):
    system = assemble_cem_system(mesh16, constant_tensor(np.diag([1.0, 1.3])),
                                 layout16)
    T = trig_current_patterns(16).T
    U = solve_forward(system, T)
    assert U.shape == (16, 15)
    for k in range(15):
        Uk = solve_forward(system, T[:, k])
        assert np.abs(U[:, k] - Uk).max() <= 1e-12 * np.abs(Uk).max()
    assert np.abs(U.sum(axis=0)).max() < 1e-12


def test_block_solve_names_nonconserving_column(mesh16, layout16):
    system = assemble_cem_system(mesh16, constant_tensor(np.eye(2)), layout16)
    T = trig_current_patterns(16).T.copy()
    T[3, 9] += 0.5
    with pytest.raises(ValueError, match="column 9 "):
        solve_forward(system, T)
    with pytest.raises(ValueError, match="shape"):
        solve_forward(system, T[:15])


def test_assemble_rejects_degenerate_triangle(mesh16, layout16):
    bad = mesh16.triangles.copy()
    bad[3] = [bad[3][0], bad[3][0], bad[3][1]]
    from anisoeit.mesh import Mesh
    broken = Mesh(nodes=mesh16.nodes, triangles=bad,
                  boundary_nodes=mesh16.boundary_nodes, radius=1.0)
    with pytest.raises(ValueError, match="triangle 3"):
        assemble_cem_system(broken, constant_tensor(np.eye(2)), layout16)


def test_simulate_deterministic(mesh16, layout16):
    A = constant_tensor(np.eye(2))
    U1 = simulate_voltages(mesh16, A, layout16).U
    U2 = simulate_voltages(mesh16, A, layout16).U
    assert np.array_equal(U1, U2)


def test_simulate_sensitive_to_anisotropy(mesh16, layout16):
    U_iso = simulate_voltages(mesh16, constant_tensor(np.eye(2)), layout16).U
    U_ani = simulate_voltages(mesh16, constant_tensor(np.diag([1.0, 1.3])),
                              layout16).U
    rel = np.abs(U_iso - U_ani).max() / np.abs(U_iso).max()
    assert rel > 1e-3


def test_simulate_noise_keeps_ground_and_changes_data(mesh16, layout16):
    A = constant_tensor(np.eye(2))
    clean = simulate_voltages(mesh16, A, layout16)
    noisy = simulate_voltages(mesh16, A, layout16, noise=0.01, seed=3)
    assert np.abs(noisy.U.sum(axis=0)).max() < 1e-12
    assert not np.array_equal(clean.U, noisy.U)
    again = simulate_voltages(mesh16, A, layout16, noise=0.01, seed=3)
    assert np.array_equal(noisy.U, again.U)


def test_voltage_columns_sum_to_zero(mesh16, layout16):
    data = simulate_voltages(mesh16, constant_tensor(np.eye(2)), layout16)
    assert np.abs(data.U.sum(axis=0)).max() < 1e-12


def test_self_convergence(layout16):
    A = constant_tensor(np.eye(2))
    U = {}
    for h in (0.12, 0.06, 0.03):
        mesh = build_disk_mesh(1.0, h, layout16)
        U[h] = simulate_voltages(mesh, A, layout16).U
    d_coarse = np.linalg.norm(U[0.12] - U[0.03])
    d_fine = np.linalg.norm(U[0.06] - U[0.03])
    assert d_coarse / d_fine >= 2.0


def test_dn_reciprocity(dn_identity16):
    assert dn_identity16.asymmetry < 1e-8


def test_dn_noise_breaks_reciprocity(mesh16, layout16):
    data = simulate_voltages(mesh16, constant_tensor(np.eye(2)), layout16,
                             noise=0.01, seed=1)
    dn = dn_matrix(data)
    assert dn.asymmetry > 1e-8


def test_dn_scaling_doubles(mesh16):
    # exact homogeneity: scaling the tensor by 2 and the contact layers by
    # 1/2 halves all voltages, doubling the DN matrix
    lay1 = place_electrodes(16, 0.5, 0.01)
    lay2 = place_electrodes(16, 0.5, 0.005)
    dn1 = dn_matrix(simulate_voltages(mesh16, constant_tensor(np.eye(2)), lay1))
    dn2 = dn_matrix(simulate_voltages(mesh16, constant_tensor(2 * np.eye(2)),
                                      lay2))
    rel = np.abs(dn2.dn - 2 * dn1.dn).max() / np.abs(dn1.dn).max()
    assert rel < 1e-10


def test_nd_positive_definite(dn_identity16):
    assert np.linalg.eigvalsh(0.5 * (dn_identity16.nd + dn_identity16.nd.T))[0] > 0


def test_dn_eigenvalues_approach_continuum_with_more_electrodes():
    # the homogeneous-disk boundary-map eigenvalue for harmonic k is
    # sigma*k; the electrode estimate approaches it as L grows
    A = constant_tensor(np.eye(2))
    devs = {}
    for L in (16, 32):
        layout = place_electrodes(L, 0.5, 0.002)
        mesh = build_disk_mesh(1.0, 0.03, layout)
        dn = dn_matrix(simulate_voltages(mesh, A, layout))
        freqs, est = dn.harmonic_eigenvalues()
        sel = freqs <= 2
        devs[L] = np.abs(est[sel] / freqs[sel] - 1.0).max()
    assert devs[32] < devs[16]
    assert devs[32] < 0.05


def test_nd_loewner_monotonicity(mesh16, layout16):
    # pointwise-larger conductivity gives a smaller ND matrix
    pairs = [
        (constant_tensor(np.eye(2)), constant_tensor(2.0 * np.eye(2))),
        (constant_tensor(phantom_by_name("A1").A0), phantom_by_name("A1").tensor),
    ]
    for small, large in pairs:
        nd_small = dn_matrix(simulate_voltages(mesh16, small, layout16)).nd
        nd_large = dn_matrix(simulate_voltages(mesh16, large, layout16)).nd
        diff = 0.5 * ((nd_small - nd_large) + (nd_small - nd_large).T)
        assert np.linalg.eigvalsh(diff)[0] > -1e-10


def test_dn_rejects_degenerate_data(mesh16, layout16):
    pat = trig_current_patterns(16)
    data = VoltageData(U=np.zeros((16, 15)), patterns=pat,
                       contact_impedances=layout16.contact_impedances,
                       layout=layout16)
    with pytest.raises(ValueError):
        dn_matrix(data)


def test_voltage_json_roundtrip(tmp_path, mesh16, layout16):
    data = simulate_voltages(mesh16, constant_tensor(np.eye(2)), layout16,
                             noise=0.005, seed=11)
    data.config_sha256 = "cafe"
    path = tmp_path / "voltages.json"
    save_voltages(data, path)
    back = load_voltages(path)
    assert np.array_equal(back.U, data.U)
    assert np.array_equal(back.patterns.T, data.patterns.T)
    assert back.noise == data.noise and back.seed == data.seed
    assert back.config_sha256 == "cafe"


def test_dn_json_roundtrip(tmp_path, dn_identity16):
    path = tmp_path / "dn.json"
    save_dn(dn_identity16, path)
    back = load_dn(path)
    assert np.array_equal(back.dn, dn_identity16.dn)
    assert np.array_equal(back.nd, dn_identity16.nd)
    assert back.asymmetry == dn_identity16.asymmetry
