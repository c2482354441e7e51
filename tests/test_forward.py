import dataclasses

import numpy as np
import pytest
import scipy.linalg

from anisoeit import (build_disk_mesh, place_electrodes, constant_tensor,
                      trig_current_patterns, assemble_cem_system,
                      solve_forward, simulate_voltages, dn_matrix,
                      save_dn, load_dn, phantom_by_name)
from anisoeit.forward import element_stiffness, VoltageData
from anisoeit.mesh import Mesh, boundary_edge_electrodes

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


def test_element_stiffness_matches_three_operand_product():
    rng = np.random.default_rng(4)
    p = rng.uniform(-1.0, 1.0, (200, 3, 2))
    e1, e2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    cw = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0] < 0
    p[cw] = p[cw][:, ::-1]                       # counterclockwise vertices
    F = rng.normal(size=(200, 2, 2))
    A = F @ F.transpose(0, 2, 1) + 0.1 * np.eye(2)
    K = element_stiffness(p, A)
    x, y = p[..., 0], p[..., 1]
    area2 = np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], 1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], 1)
    G = np.stack([b, c], axis=1) / area2[:, None, None]
    ref = 0.5 * area2[:, None, None] * np.einsum("mki,mkl,mlj->mij", G, A, G)
    scale = np.abs(ref).max(axis=(1, 2))[:, None, None]
    assert (np.abs(K - ref) <= 1e-14 * scale).all()


def _bordered_matrix(system):
    """The bordered (N + L - 1) CEM matrix
    [[B, -Wz^T G], [-G^T Wz, G^T diag(|e|/z) G]] in the ground basis
    G = [1; -I], built densely from the condensed system's pieces."""
    L = system.layout.L
    G = np.vstack([np.ones((1, L - 1)), -np.eye(L - 1)])
    C = -system.wz.toarray().T @ G
    return np.block([[system.matrix.toarray(), C],
                     [C.T, G.T @ np.diag(system.ez) @ G]]), G


def _edge_integrals(mesh, layout):
    """w[l, k] = integral of phi_k over electrode l (half of each edge
    length); arc[l] = polygonal length of electrode l."""
    N, L = mesh.n_nodes, layout.L
    edges = mesh.boundary_edges()
    owner = boundary_edge_electrodes(mesh, layout)
    w, arc = np.zeros((L, N)), np.zeros(L)
    for (i, j), l in zip(edges, owner):
        if l >= 0:
            s = np.linalg.norm(mesh.nodes[j] - mesh.nodes[i])
            w[l, i] += s / 2
            w[l, j] += s / 2
            arc[l] += s
    return w, arc


def test_c_block_structure(mesh16, layout16):
    # impedances that differ per electrode, so a wrong z index shows
    layout = dataclasses.replace(layout16,
                                 contact_impedances=np.linspace(0.01, 0.04, 16))
    system = assemble_cem_system(mesh16, constant_tensor(np.eye(2)), layout)
    N, L = mesh16.n_nodes, layout.L
    w, _ = _edge_integrals(mesh16, layout)
    wz = w / layout.contact_impedances[:, None]
    assert system.wz.shape == (L, N)
    assert np.allclose(system.wz.toarray(), wz, rtol=1e-12, atol=0.0)
    M, _ = _bordered_matrix(system)
    # C[k, j] = -w_1[k] / z_1 + w_{j+1}[k] / z_{j+1}
    expected = -wz[0][:, None] + wz[1:].T
    assert np.allclose(M[:N, N:], expected, rtol=1e-12, atol=0.0)
    assert np.allclose(M[N:, :N], expected.T, rtol=1e-12, atol=0.0)


def test_d_block_structure(mesh16, layout16):
    layout = dataclasses.replace(layout16,
                                 contact_impedances=np.linspace(0.01, 0.04, 16))
    system = assemble_cem_system(mesh16, constant_tensor(np.eye(2)), layout)
    N, L = mesh16.n_nodes, layout.L
    _, arc = _edge_integrals(mesh16, layout)
    z = layout.contact_impedances
    assert np.allclose(system.ez, arc / z, rtol=1e-12, atol=0.0)
    M, _ = _bordered_matrix(system)
    expected = arc[0] / z[0] * np.ones((L - 1, L - 1)) + np.diag(arc[1:] / z[1:])
    assert np.allclose(M[N:, N:], expected, rtol=1e-12)


def _bordered_voltages(system, P):
    """U from a dense solve of the bordered CEM system."""
    N, L = system.mesh.n_nodes, system.layout.L
    M, G = _bordered_matrix(system)
    rhs = np.zeros((N + L - 1, P.shape[1]))
    rhs[N:] = G.T @ P
    return G @ np.linalg.solve(M, rhs)[N:]


@pytest.mark.parametrize("A0", [np.eye(2), np.diag([1.0, 1.3])])
def test_condensed_solve_matches_bordered_system(mesh16, layout16, A0):
    system = assemble_cem_system(mesh16, constant_tensor(A0), layout16)
    T = trig_current_patterns(16).T
    U = solve_forward(system, T)
    ref = _bordered_voltages(system, T)
    assert np.abs(U - ref).max() <= 1e-12 * np.abs(ref).max()


def test_electrode_matrix_symmetric_semidefinite(mesh16, layout16):
    layout = dataclasses.replace(layout16,
                                 contact_impedances=np.linspace(0.01, 0.04, 16))
    system = assemble_cem_system(mesh16, constant_tensor(np.diag([1.0, 1.3])),
                                 layout)
    S = system.electrode_matrix()
    assert S.shape == (16, 16)
    scale = np.abs(S).max()
    assert np.abs(S - S.T).max() <= 1e-12 * scale
    assert np.abs(S @ np.ones(16)).max() <= 1e-12 * scale
    lam, vec = np.linalg.eigh(0.5 * (S + S.T))
    # one zero eigenvalue, on the constants; the rest positive
    assert abs(lam[0]) <= 1e-12 * lam[-1]
    assert lam[1] > 1e-6 * lam[-1]
    assert np.allclose(np.abs(vec[:, 0]), 0.25, atol=1e-10)
    assert system.electrode_matrix() is S                 # cached


@pytest.mark.parametrize("name", ["A1", "A4"])
def test_electrode_matrix_matches_dense_oracle(mesh16, layout16, name):
    layout = dataclasses.replace(layout16,
                                 contact_impedances=np.linspace(0.01, 0.04, 16))
    system = assemble_cem_system(mesh16, phantom_by_name(name).tensor, layout)
    S = system.electrode_matrix()
    wz = system.wz.toarray()
    ref = np.diag(system.ez) - wz @ np.linalg.solve(system.matrix.toarray(),
                                                    wz.T)
    assert np.abs(S - ref).max() <= 1e-12 * np.abs(ref).max()


def _relabeled(mesh, order):
    """The same mesh with node order[i] renamed i."""
    label = np.empty_like(order)
    label[order] = np.arange(order.size)
    return Mesh(nodes=mesh.nodes[order], triangles=label[mesh.triangles],
                boundary_nodes=label[mesh.boundary_nodes], radius=mesh.radius)


def test_electrode_nodes_numbered_last(layout16):
    mesh = build_disk_mesh(1.0, 0.05, layout16)
    N = mesh.n_nodes
    edges = mesh.boundary_edges()[boundary_edge_electrodes(mesh, layout16) >= 0]
    arc = np.unique(edges)
    assert np.array_equal(arc, np.arange(N - arc.size, N))     # 80 of 1,597
    # any order of the other nodes gives the same DN map
    rng = np.random.default_rng(15)
    order = np.r_[rng.permutation(N - arc.size), arc]
    A = phantom_by_name("A4").tensor
    ref = dn_matrix(simulate_voltages(mesh, A, layout16)).dn
    dn = dn_matrix(simulate_voltages(_relabeled(mesh, order), A, layout16)).dn
    assert np.abs(dn - ref).max() <= 1e-13 * np.abs(ref).max()


def test_electrode_nodes_not_last_raises(mesh16, layout16):
    order = np.roll(np.arange(mesh16.n_nodes), 1)    # last node becomes 0
    system = assemble_cem_system(_relabeled(mesh16, order),
                                 constant_tensor(np.eye(2)), layout16)
    with pytest.raises(ValueError, match="electrode nodes last"):
        system.electrode_matrix()
    assert system._factor is None                     # raised before factoring


def test_electrode_matrix_l128_matches_full_solve():
    layout = place_electrodes(128, 0.5, 2.5e-4)
    mesh = build_disk_mesh(1.0, 0.012, layout)
    system = assemble_cem_system(mesh, phantom_by_name("A4").tensor, layout)
    S = system.electrode_matrix()
    ref = (np.diag(system.ez)
           - system.wz @ system.factor().solve(system.wz.T.toarray()))
    assert np.abs(S - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("value", [1.0, np.nan])
def test_node_solve_residual_names_electrode_column(mesh16, layout16, value,
                                                    monkeypatch):
    solve = scipy.linalg.solve_triangular

    def spoiled(*args, **kwargs):
        Y = solve(*args, **kwargs)
        Y[:, 13] += value
        return Y

    monkeypatch.setattr(scipy.linalg, "solve_triangular", spoiled)
    system = assemble_cem_system(mesh16, constant_tensor(np.eye(2)), layout16)
    with pytest.raises(RuntimeError, match="electrode column 13 "):
        system.electrode_matrix()


class _Factor:
    """Factor stand-in: the real factor with some attributes replaced."""

    def __init__(self, lu, **replaced):
        self._lu = lu
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def test_perturbed_factor_diagonal_fails_probe(mesh16, layout16):
    system = assemble_cem_system(mesh16, constant_tensor(np.eye(2)), layout16)
    lu = system.factor()
    U = lu.U.copy()
    d = U.diagonal()
    d[-1] *= 1.0 + 1e-6             # the root of the elimination tree
    U.setdiag(d)
    system._factor = _Factor(lu, U=U)
    with pytest.raises(RuntimeError, match="electrode probe"):
        system.electrode_matrix()


def test_unsymmetric_permutation_raises(mesh16, layout16):
    system = assemble_cem_system(mesh16, constant_tensor(np.eye(2)), layout16)
    lu = system.factor()
    system._factor = _Factor(lu, perm_c=lu.perm_c[::-1].copy())
    with pytest.raises(RuntimeError, match="permutations differ"):
        system.electrode_matrix()


def test_factor_moving_electrode_node_raises(mesh16, layout16):
    system = assemble_cem_system(mesh16, constant_tensor(np.eye(2)), layout16)
    lu = system.factor()
    perm = np.arange(mesh16.n_nodes)
    perm[[0, -1]] = perm[[-1, 0]]
    system._factor = _Factor(lu, perm_r=perm, perm_c=perm)
    with pytest.raises(RuntimeError,
                       match=f"electrode node {mesh16.n_nodes - 1} "):
        system.electrode_matrix()


def test_forward_residual_names_pattern_column(mesh16, layout16):
    system = assemble_cem_system(mesh16, constant_tensor(np.eye(2)), layout16)
    T = trig_current_patterns(16).T
    # an electrode matrix with a NaN entry fails the residual check
    system._electrode = system.electrode_matrix().copy()
    system._electrode[1, 1] = np.nan
    with pytest.raises(RuntimeError, match="pattern column 0 "):
        solve_forward(system, T)


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
        # the diagonal rescaled by L / (2 pi R); cos modes 1..L/2 first,
        # then sin modes 1..L/2-1
        freqs = np.concatenate([np.arange(1, L // 2 + 1), np.arange(1, L // 2)])
        est = np.diag(dn.dn) * L / (2.0 * np.pi * layout.radius)
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
    data = VoltageData(U=np.zeros((16, 15)), patterns=pat, layout=layout16)
    with pytest.raises(ValueError):
        dn_matrix(data)


def test_dn_json_roundtrip(tmp_path, dn_identity16):
    path = tmp_path / "dn.json"
    save_dn(dn_identity16, path)
    back = load_dn(path)
    assert np.array_equal(back.dn, dn_identity16.dn)
    assert np.array_equal(back.nd, dn_identity16.nd)
    assert back.asymmetry == dn_identity16.asymmetry
