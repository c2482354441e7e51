import dataclasses
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from anisoeit import (build_disk_mesh, place_electrodes, constant_tensor,
                      trig_current_patterns, assemble_cem_system,
                      solve_forward, simulate_voltages, dn_matrix,
                      save_dn, load_dn, phantom_by_name, make_phantom)
import anisoeit
from anisoeit.forward import (element_stiffness, VoltageData, _front_matrix,
                              _kernels)
from anisoeit.mesh import Mesh, _front_tree

REF_TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def test_patterns_L4_columns():
    pat = trig_current_patterns(4)
    assert pat.shape == (4, 3)
    assert np.allclose(pat[:, 0], [1.0, 0.0, -1.0, 0.0], atol=1e-15)
    assert np.allclose(pat[:, 2], [0.0, 1.0, 0.0, -1.0], atol=1e-15)


def test_patterns_conserve_current():
    for L in (4, 8, 16, 32):
        pat = trig_current_patterns(L)
        assert pat.shape == (L, L - 1)
        assert np.abs(pat.sum(axis=0)).max() < 1e-13


def test_patterns_orthogonal():
    pat = trig_current_patterns(16)
    G = pat.T @ pat
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


def _edge_integrals(mesh, layout):
    """w[l, k] = integral of phi_k over electrode l (half of each edge
    length); arc[l] = polygonal length of electrode l."""
    N, L = mesh.n_nodes, layout.L
    w, arc = np.zeros((L, N)), np.zeros(L)
    for (i, j), l in zip(mesh.boundary_edges(), mesh.fronts.contact):
        if l >= 0:
            s = np.linalg.norm(mesh.nodes[j] - mesh.nodes[i])
            w[l, i] += s / 2
            w[l, j] += s / 2
            arc[l] += s
    return w, arc


def _oracle(mesh, A, layout):
    """Sparse K (element part), B = K + Kz and Wz (L x N), assembled with
    scipy.sparse from the element matrices and the electrode edges, apart
    from the fronts the solver scatters into."""
    N, t = mesh.n_nodes, mesh.triangles
    p = mesh.nodes[t]
    Ke = element_stiffness(p, A(p.mean(axis=1)))
    K = scipy.sparse.coo_matrix(
        (Ke.ravel(), (np.repeat(t, 3, axis=1).ravel(),
                      np.tile(t, (1, 3)).ravel())), shape=(N, N)).tocsr()
    z = layout.contact_impedance
    Kz = scipy.sparse.lil_matrix((N, N))
    for (i, j), l in zip(mesh.boundary_edges(), mesh.fronts.contact):
        if l >= 0:
            m = np.linalg.norm(mesh.nodes[j] - mesh.nodes[i]) / 6 / z
            Kz[i, i] += 2 * m
            Kz[j, j] += 2 * m
            Kz[i, j] += m
            Kz[j, i] += m
    w, _ = _edge_integrals(mesh, layout)
    return K, (K + Kz).tocsc(), scipy.sparse.csr_matrix(w / z)


def _incidence(mesh, layout):
    """Dense N x L incidence E' of the electrode-arc nodes on the
    electrodes."""
    return (_edge_integrals(mesh, layout)[0].T > 0).astype(float)


def _bordered_matrix(mesh, A, layout):
    """The bordered (N + L - 1) CEM matrix
    [[B, -Wz^T G], [-G^T Wz, G^T diag(|e|/z) G]] in the ground basis
    G = [1; -I], built densely from the oracle."""
    L = layout.L
    _, B, wz = _oracle(mesh, A, layout)
    ez = _edge_integrals(mesh, layout)[1] / layout.contact_impedance
    G = np.vstack([np.ones((1, L - 1)), -np.eye(L - 1)])
    C = -wz.toarray().T @ G
    return np.block([[B.toarray(), C],
                     [C.T, G.T @ np.diag(ez) @ G]]), G


def _contact_drop_oracle(mesh, A, layout):
    """The dense (N + L) CEM matrix in contact-drop variables,
    [[B, C], [C^T, D]] with C = K E' and D = E'^T K E', and its Schur
    complement D - C^T B^-1 C onto the voltages."""
    K, B, _ = _oracle(mesh, A, layout)
    E = _incidence(mesh, layout)
    C = K @ E
    D = E.T @ C
    B = B.toarray()
    S = D - C.T @ scipy.linalg.cho_solve(scipy.linalg.cho_factor(B), C)
    return np.block([[B, C], [C.T, D]]), S


def _contact_masses(system):
    """The system's contact masses scattered into a dense N x N matrix."""
    N = system.mesh.n_nodes
    ij = system.mesh.boundary_edges()[system.mesh.fronts.contact >= 0]
    kz = np.zeros((N, N))
    np.add.at(kz, (ij[:, :, None], ij[:, None, :]), system.kz)
    return kz


def test_c_block_structure(mesh16, layout16):
    # an impedance other than the fixture's 0.01, so that z in place of
    # 1/z shows
    layout = dataclasses.replace(layout16, contact_impedance=0.025)
    A = constant_tensor(np.eye(2))
    system = assemble_cem_system(mesh16, A, layout)
    N, L = mesh16.n_nodes, layout.L
    K, B, wz = _oracle(mesh16, A, layout)
    wz = wz.toarray()
    kz = _contact_masses(system)
    assert np.allclose(kz, (B - K).toarray(), rtol=1e-12, atol=0.0)
    # W_t = Kz E': the identity that frees the contact energy of U
    E = _incidence(mesh16, layout)
    assert np.abs(kz @ E - wz.T).max() <= 1e-12 * np.abs(wz).max()
    M, _ = _bordered_matrix(mesh16, A, layout)
    # C[k, j] = (-w_1[k] + w_{j+1}[k]) / z
    expected = -wz[0][:, None] + wz[1:].T
    assert np.allclose(M[:N, N:], expected, rtol=1e-12, atol=0.0)
    assert np.allclose(M[N:, :N], expected.T, rtol=1e-12, atol=0.0)


def test_d_block_structure(mesh16, layout16):
    layout = dataclasses.replace(layout16, contact_impedance=0.025)
    A = constant_tensor(np.eye(2))
    system = assemble_cem_system(mesh16, A, layout)
    N, L = mesh16.n_nodes, layout.L
    _, arc = _edge_integrals(mesh16, layout)
    z = layout.contact_impedance
    # E'^T Kz E' = diag(|e| / z)
    E = _incidence(mesh16, layout)
    assert np.allclose(E.T @ _contact_masses(system) @ E, np.diag(arc / z),
                       rtol=1e-12, atol=1e-12 * (arc / z).max())
    M, _ = _bordered_matrix(mesh16, A, layout)
    expected = arc[0] / z * np.ones((L - 1, L - 1)) + np.diag(arc[1:] / z)
    assert np.allclose(M[N:, N:], expected, rtol=1e-12)


def _bordered_voltages(mesh, A, layout, P):
    """U from a dense solve of the bordered CEM system."""
    N, L = mesh.n_nodes, layout.L
    M, G = _bordered_matrix(mesh, A, layout)
    rhs = np.zeros((N + L - 1, P.shape[1]))
    rhs[N:] = G.T @ P
    return G @ np.linalg.solve(M, rhs)[N:]


@pytest.mark.parametrize("A0", [np.eye(2), np.diag([1.0, 1.3])])
def test_condensed_solve_matches_bordered_system(mesh16, layout16, A0):
    A = constant_tensor(A0)
    system = assemble_cem_system(mesh16, A, layout16)
    T = trig_current_patterns(16)
    U = solve_forward(system, T)
    ref = _bordered_voltages(mesh16, A, layout16, T)
    assert np.abs(U - ref).max() <= 1e-12 * np.abs(ref).max()


def test_electrode_matrix_symmetric_semidefinite(mesh16, layout16):
    layout = dataclasses.replace(layout16, contact_impedance=0.025)
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
    layout = dataclasses.replace(layout16, contact_impedance=0.025)
    A = phantom_by_name(name).tensor
    system = assemble_cem_system(mesh16, A, layout)
    S = system.electrode_matrix()
    _, B, wz = _oracle(mesh16, A, layout)
    wz = wz.toarray()
    ez = _edge_integrals(mesh16, layout)[1] / layout.contact_impedance
    ref = np.diag(ez) - wz @ np.linalg.solve(B.toarray(), wz.T)
    assert np.abs(S - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("L, h", [(16, 0.05), (32, 0.05)])
def test_electrode_matrix_matches_contact_drop_oracle(L, h):
    # the same bordered system in contact-drop variables, eliminated
    # densely: the factor's S agrees to rounding
    layout = place_electrodes(L, 0.5, 0.025)
    mesh = build_disk_mesh(1.0, h, layout)
    for name in ("A1", "A4"):
        A = phantom_by_name(name).tensor
        S = assemble_cem_system(mesh, A, layout).electrode_matrix()
        ref = _contact_drop_oracle(mesh, A, layout)[1]
        assert np.abs(S - ref).max() <= 1e-13 * np.abs(ref).max(), name


@pytest.mark.parametrize("L, h", [(16, 0.05), (32, 0.05)])
def test_front_scatter_covers_each_entry_once(L, h):
    layout = place_electrodes(L, 0.5, 0.01)
    mesh = build_disk_mesh(1.0, h, layout)
    tree, N = mesh.fronts, mesh.n_nodes
    n = N + L
    # the lower-triangle slots that receive an entry, over all fronts
    slots = []
    for f, idx in enumerate(tree.index):
        dst = tree.elem_dst[tree.elem_ptr[f]:tree.elem_ptr[f + 1]]
        i, j = np.divmod(np.unique(dst), idx.size)
        slots.append(idx[i] * n + idx[j])
    slots = np.concatenate(slots)
    # the nodes' edges and diagonal; each voltage with the nodes of the
    # triangles at its arc, and with the voltages those triangles touch
    t = mesh.triangles
    e = t[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    on = _incidence(mesh, layout)[t]             # (M, 3, L)
    at = on.any(axis=(1, 2))
    tu = np.where(on.any(axis=2), N + on.argmax(axis=2), -1)[at]
    ux = [(u, x) for us, xs in zip(tu, t[at]) for u in us if u >= 0
          for x in xs]
    uu = [(max(u, v), min(u, v)) for us in tu for u in us for v in us
          if u >= 0 and v >= 0]
    want = np.unique(np.r_[e.max(axis=1) * n + e.min(axis=1),
                           np.arange(N) * (n + 1),
                           [u * n + x for u, x in ux + uu]])
    assert slots.size == want.size                     # no slot twice
    assert np.array_equal(np.sort(slots), want)
    for name in ("A1", "A2", "A3", "A4"):
        A = phantom_by_name(name).tensor
        system = assemble_cem_system(mesh, A, layout)
        M = _contact_drop_oracle(mesh, A, layout)[0]
        vals = np.concatenate([system.ke.ravel(),
                               system.kz.ravel()])[tree.elem_src]
        scale = np.abs(_oracle(mesh, A, layout)[0]).max()   # max|K|
        for f, idx in enumerate(tree.index):
            F = _front_matrix(tree, f, vals)
            # every slot of the lower triangle, the entries that cancel to
            # 0 in M among them; the boundary block takes no entries
            m = tree.start[f + 1] - tree.start[f]
            ref = np.tril(M[np.ix_(idx, idx)])
            ref[m:, m:] = 0.0
            assert np.abs(F - ref).max() <= 1e-15 * scale, (name, f)


def _relabeled(mesh, order):
    """The same mesh with node order[i] renamed i."""
    label = np.empty_like(order)
    label[order] = np.arange(order.size)
    return Mesh(nodes=mesh.nodes[order], triangles=label[mesh.triangles],
                boundary_nodes=label[mesh.boundary_nodes])


def test_root_front_has_order_L(layout16):
    mesh = build_disk_mesh(1.0, 0.05, layout16)
    tree, N = mesh.fronts, mesh.n_nodes
    assert np.array_equal(tree.index[-1], np.arange(N, N + 16))
    assert tree.start[-1] - tree.start[-2] == 16 and tree.start[-2] == N
    # the electrode-arc nodes are dissected with the others, not last
    arc = np.flatnonzero(_incidence(mesh, layout16).any(axis=1))
    assert arc.size == 80 and arc[0] < N - 1000
    # any order of the nodes within each front gives the same DN map
    start, parent = tree.start, tree.parent
    rng = np.random.default_rng(15)
    order = np.concatenate([a + rng.permutation(b - a)
                            for a, b in zip(start[:-2], start[1:-1])])
    moved = _relabeled(mesh, order)
    moved = dataclasses.replace(moved, fronts=_front_tree(
        moved.triangles, moved.boundary_nodes, tree.contact, tree.width,
        start, parent))
    A = phantom_by_name("A4").tensor
    ref = dn_matrix(simulate_voltages(mesh, A, layout16)).dn
    dn = dn_matrix(simulate_voltages(moved, A, layout16)).dn
    assert np.abs(dn - ref).max() <= 1e-13 * np.abs(ref).max()


def _unsampled(points):
    """A conductivity that fails the test if an element matrix is formed."""
    raise AssertionError("the conductivity was sampled")


def _refused(mesh, layout):
    """The message of the ValueError with which the assembly refuses a mesh
    whose front tree does not fit the layout, raised before any element
    matrix is formed."""
    N, L = mesh.n_nodes, layout.L
    return re.escape(f"mesh has no front tree that ends with the {L} "
                     f"electrode voltages [{N}, {N + L}) and was built for "
                     f"arcs of width {layout.angular_width:.17g}")


def test_electrode_nodes_not_last_raises(mesh16, layout16):
    # the nodes relabeled without their front tree: no node order is
    # required, but the voltages need a tree, so the assembly refuses it
    order = np.roll(np.arange(mesh16.n_nodes), 1)    # last node becomes 0
    mesh = _relabeled(mesh16, order)
    with pytest.raises(ValueError, match=_refused(mesh, layout16)):
        assemble_cem_system(mesh, _unsampled, layout16)


def test_front_tree_must_end_with_electrode_nodes(mesh16, layout16):
    # the last front holds the L electrode voltages, not the arc nodes
    cases = [(dataclasses.replace(mesh16, fronts=None), layout16),
             (mesh16, place_electrodes(8, 0.25, 0.01))]
    t = mesh16.fronts
    for k, shift in ((-2, -1), (-1, 1)):   # the last front takes one node,
        start = t.start.copy()              # or one more unknown
        start[k] += shift
        cases.append((dataclasses.replace(mesh16, fronts=dataclasses.replace(
            t, start=start)), layout16))
    for mesh, layout in cases:
        with pytest.raises(ValueError, match=_refused(mesh, layout)):
            assemble_cem_system(mesh, _unsampled, layout)


def test_front_tree_of_other_electrodes_raises(mesh16, layout16):
    # the same electrode count on other arcs: the tree's voltage entries
    # and contact masses would land on the wrong nodes
    for coverage in (0.3, np.nextafter(0.5, 1.0)):
        layout = place_electrodes(16, coverage, 0.01)
        assert layout.angular_width != mesh16.fronts.width
        with pytest.raises(ValueError, match=_refused(mesh16, layout)):
            assemble_cem_system(mesh16, _unsampled, layout)


def test_assembly_accepts_a_layout_of_other_impedance(mesh16, layout16):
    # the tree fixes the arcs, not the contact impedance
    A = constant_tensor(np.eye(2))
    ref = assemble_cem_system(mesh16, A, layout16)
    other = assemble_cem_system(mesh16, A, dataclasses.replace(
        layout16, contact_impedance=0.025))
    assert np.array_equal(other.ke, ref.ke)
    assert np.abs(other.kz * 2.5 - ref.kz).max() <= 1e-15 * ref.kz.max()


@pytest.fixture(scope="module")
def mesh128():
    layout = place_electrodes(128, 0.5, 2.5e-4)
    return build_disk_mesh(1.0, 0.012, layout), layout


def test_electrode_matrix_l128_matches_full_solve(mesh128):
    mesh, layout = mesh128
    A = phantom_by_name("A4").tensor
    system = assemble_cem_system(mesh, A, layout)
    S = system.electrode_matrix()
    _, B, wz = _oracle(mesh, A, layout)
    lu = scipy.sparse.linalg.splu(B)
    ez = _edge_integrals(mesh, layout)[1] / layout.contact_impedance
    ref = np.diag(ez) - wz @ lu.solve(wz.T.toarray())
    assert np.abs(S - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("z", [1e-300, 1.0])
def test_contact_impedance_range_l128(mesh128, z):
    # at the acceptance mesh every stock phantom's S passes checks (c) and
    # (d) for z from 1e-300 to 1; from z = 3, check (d) fails for A3 and
    # A4: |S 1| stays at a few eps max|D|, while max|S| falls as 1/z
    mesh, layout = mesh128
    layout = dataclasses.replace(layout, contact_impedance=z)
    for name in ("A1", "A2", "A3", "A4"):
        S = assemble_cem_system(mesh, phantom_by_name(name).tensor,
                                layout).electrode_matrix()
        assert np.isfinite(S).all(), name


@pytest.mark.parametrize("L", [16, 128])
def test_electrode_matrix_commutes_with_both_mirrors(L, mesh16, layout16,
                                                     mesh128):
    # the stock phantoms are radial scalars times diagonal backgrounds, and
    # the mesh is its own image under x -> -x and y -> -y, which map
    # electrode l to L/2 - l and to -l
    mesh, layout = (mesh16, layout16) if L == 16 else mesh128
    l = np.arange(L)
    for name in ("A1", "A2", "A3", "A4"):
        S = assemble_cem_system(mesh, phantom_by_name(name).tensor,
                                layout).electrode_matrix()
        for P in ((L // 2 - l) % L, -l % L):
            assert np.abs(S[np.ix_(P, P)] - S).max() <= 1e-12 * np.abs(S).max()


@pytest.mark.parametrize("L", [16, 32])
def test_dn_separates_odd_and_even_harmonics(L):
    # a radial scalar times any constant A0 is invariant under z -> -z,
    # as is the mesh; that maps electrode l to l + L/2, and pattern
    # cos(k theta) or sin(k theta) to (-1)^k times itself, so the DN map
    # couples no odd harmonic to an even one
    layout = place_electrodes(L, 0.5, 0.01)
    mesh = build_disk_mesh(1.0, 0.05, layout)
    k = np.arange(1, L)
    odd = np.where(k <= L // 2, k, k - L // 2) % 2 == 1
    for ph in (phantom_by_name("A4"),
               make_phantom(4.0, np.array([[2.0, 0.7], [0.7, 1.1]]))):
        dn = dn_matrix(simulate_voltages(mesh, ph.tensor, layout)).dn
        assert np.abs(dn[np.ix_(odd, ~odd)]).max() <= 1e-13 * np.abs(dn).max()


@pytest.mark.parametrize("spoil", ["voltage row", "leaf front", "root"])
def test_spoiled_factor_entry_fails_probe(mesh16, layout16, spoil):
    system = assemble_cem_system(mesh16, constant_tensor(np.eye(2)), layout16)
    fac = system.factor()
    N = mesh16.n_nodes
    if spoil == "root":                      # an entry of S, both halves
        fac.s[3, 5] *= 1.0 + 1e-6
        fac.s[5, 3] = fac.s[3, 5]
        match = "S c deviates from the node solve"
    else:
        # the last row of the first front whose boundary holds a voltage,
        # or the first row of leaf front 0 whose node lies off the arcs
        # (the contact drops on them are small)
        index = mesh16.fronts.index
        off = ~_incidence(mesh16, layout16).any(axis=1)
        if spoil == "voltage row":
            f = next(f for f, idx in enumerate(index) if idx[-1] >= N)
        else:
            f = 0
        L21 = fac.blocks[f][1]
        bnd = index[f][-L21.shape[0]:]
        row = -1 if spoil == "voltage row" else np.flatnonzero(
            off[np.minimum(bnd, N - 1)] & (bnd < N))[0]
        assert (bnd[row] >= N) == (spoil == "voltage row")
        L21[row, np.argmax(np.abs(L21[row]))] *= 1.0 + 1e-6
        match = "node solve residual"
    with pytest.raises(RuntimeError, match=f"electrode probe: {match}"):
        system.electrode_matrix()


def test_perturbed_factor_diagonal_fails_probe(mesh16, layout16):
    # a leaf front, the front below the top separator and the top separator
    for front in (0, -2, -1):
        system = assemble_cem_system(mesh16, constant_tensor(np.eye(2)),
                                     layout16)
        L11 = system.factor().blocks[front][0]
        L11[-1, -1] *= 1.0 + 1e-6
        with pytest.raises(RuntimeError, match="electrode probe"):
            system.electrode_matrix()


def test_indefinite_element_names_node(mesh16, layout16):
    bad = 123

    def tensor(points):
        A = np.broadcast_to(np.eye(2), (len(points), 2, 2)).copy()
        A[bad] *= -100.0
        return A

    system = assemble_cem_system(mesh16, tensor, layout16)
    node = mesh16.triangles[bad].min()        # the first pivot it reaches
    with pytest.raises(RuntimeError, match=f"front Cholesky fails at node "
                       f"{node}$"):
        system.electrode_matrix()


def test_forward_residual_names_pattern_column(mesh16, layout16):
    system = assemble_cem_system(mesh16, constant_tensor(np.eye(2)), layout16)
    T = trig_current_patterns(16)
    # an electrode matrix with a NaN entry fails the residual check
    system._electrode = system.electrode_matrix().copy()
    system._electrode[1, 1] = np.nan
    with pytest.raises(RuntimeError, match="pattern column 0 "):
        solve_forward(system, T)


def _dense_factor(lu):
    """The dense lower-triangular L, with the identity on the voltages,
    held front by front in ``lu``."""
    t = lu.tree
    L = np.eye(t.start[-1])
    for f, (L11, L21) in enumerate(lu.blocks):
        own = np.arange(t.start[f], t.start[f + 1])
        L[own[:, None], own] = np.tril(L11)
        L[t.index[f][own.size:, None], own] = L21
    return L


def test_system_symmetric_positive_definite(layout16):
    mesh = build_disk_mesh(1.0, 0.2, layout16)
    A = constant_tensor(np.eye(2))
    system = assemble_cem_system(mesh, A, layout16)
    M, S = _contact_drop_oracle(mesh, A, layout16)
    N = mesh.n_nodes
    assert np.allclose(M, M.T, atol=1e-12)
    assert np.linalg.eigvalsh(M[:N, :N])[0] > 0
    # M = L diag(I, S) L^T, S the last front
    fac = system.factor()
    L = _dense_factor(fac)
    D = np.zeros_like(M)
    D[:N, :N] = np.eye(N)
    D[N:, N:] = fac.s
    assert np.abs(L @ D @ L.T - M).max() <= 1e-13 * np.abs(M).max()
    assert np.abs(fac.s - S).max() <= 1e-13 * np.abs(S).max()


def test_forward_needs_no_scipy_sparse(layout16, monkeypatch):
    import scipy
    mesh = build_disk_mesh(1.0, 0.05, layout16)
    monkeypatch.delattr(scipy, "sparse")
    for name in [m for m in sys.modules if m.startswith("scipy.sparse")]:
        monkeypatch.setitem(sys.modules, name, None)
    with pytest.raises(ImportError):
        import scipy.sparse  # noqa: F401
    data = simulate_voltages(mesh, phantom_by_name("A3").tensor, layout16)
    assert np.isfinite(dn_matrix(data).dn).all()


_KERNELS_FIRST = """\
import json, sys
from anisoeit.forward import _kernels
blas, lapack = _kernels()
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
import scipy.linalg
print(json.dumps([loaded, [
    lapack.dpotrf is scipy.linalg.lapack.dpotrf,
    blas.dtrsm is scipy.linalg.blas.dtrsm,
    blas.dsyrk is scipy.linalg.blas.dsyrk,
    blas.dtrsv is scipy.linalg.blas.dtrsv]]))
"""


def test_kernels_are_scipys_wrappers():
    # the factor calls the very wrappers that scipy.linalg exposes, in
    # either load order: here scipy.linalg is imported first, and in a
    # fresh process the kernels load first, without any scipy package
    blas, lapack = _kernels()
    assert lapack.dpotrf is scipy.linalg.lapack.dpotrf
    assert blas.dtrsm is scipy.linalg.blas.dtrsm
    assert blas.dsyrk is scipy.linalg.blas.dsyrk
    assert blas.dtrsv is scipy.linalg.blas.dtrsv
    src = os.path.dirname(os.path.dirname(anisoeit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", _KERNELS_FIRST],
                         capture_output=True, text=True, env=env, check=True)
    loaded, same = json.loads(run.stdout)
    assert loaded == ["scipy.linalg._fblas", "scipy.linalg._flapack"]
    assert same == [True] * 4


def test_solve_ground_condition(mesh16, layout16):
    system = assemble_cem_system(mesh16, constant_tensor(np.eye(2)), layout16)
    pat = trig_current_patterns(16)
    for k in (0, 7, 10):
        U = solve_forward(system, pat[:, k])
        assert abs(U.sum()) < 1e-12


def test_solve_cosine_symmetry(mesh16, layout16):
    system = assemble_cem_system(mesh16, constant_tensor(np.eye(2)), layout16)
    pat = trig_current_patterns(16)
    U = solve_forward(system, pat[:, 0])
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
    T = trig_current_patterns(16)
    U = solve_forward(system, T)
    assert U.shape == (16, 15)
    for k in range(15):
        Uk = solve_forward(system, T[:, k])
        assert np.abs(U[:, k] - Uk).max() <= 1e-12 * np.abs(Uk).max()
    assert np.abs(U.sum(axis=0)).max() < 1e-12


def test_block_solve_names_nonconserving_column(mesh16, layout16):
    system = assemble_cem_system(mesh16, constant_tensor(np.eye(2)), layout16)
    T = trig_current_patterns(16)
    T[3, 9] += 0.5
    with pytest.raises(ValueError, match="column 9 "):
        solve_forward(system, T)
    with pytest.raises(ValueError, match="shape"):
        solve_forward(system, T[:15])


def test_assemble_rejects_degenerate_triangle(mesh16, layout16):
    bad = mesh16.triangles.copy()
    bad[3] = [bad[3][0], bad[3][0], bad[3][1]]
    broken = dataclasses.replace(mesh16, triangles=bad)   # keeps its tree
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
        # the diagonal rescaled by L / (2 pi); cos modes 1..L/2 first,
        # then sin modes 1..L/2-1
        freqs = np.concatenate([np.arange(1, L // 2 + 1), np.arange(1, L // 2)])
        est = np.diag(dn.dn) * L / (2.0 * np.pi)
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
    data = VoltageData(U=np.zeros((16, 15)), layout=layout16)
    with pytest.raises(ValueError):
        dn_matrix(data)


def test_dn_json_roundtrip(tmp_path, dn_identity16):
    path = tmp_path / "dn.json"
    save_dn(dn_identity16, path)
    back = load_dn(path)
    assert np.array_equal(back.dn, dn_identity16.dn)
    assert np.array_equal(back.nd, dn_identity16.nd)
    assert back.asymmetry == dn_identity16.asymmetry
    assert back.L == 16
    doc = json.loads(path.read_text())
    assert np.array_equal(doc["patterns"]["T"], trig_current_patterns(16))


def test_dn_json_ignores_pattern_amplitude(tmp_path, dn_identity16):
    # older files record the pattern amplitude and scale the patterns by
    # it; both are read past, and new files write neither
    path = tmp_path / "dn.json"
    save_dn(dn_identity16, path)
    doc = json.loads(path.read_text())
    assert sorted(doc["patterns"]) == ["L", "T", "normalization"]
    doc["patterns"]["amplitude"] = 3.0
    doc["patterns"]["T"] = (3.0 * np.array(doc["patterns"]["T"])).tolist()
    path.write_text(json.dumps(doc))
    back = load_dn(path)
    assert np.array_equal(back.dn, dn_identity16.dn)
