import numpy as np
import pytest

from anisoeit import (build_disk_mesh, place_electrodes, constant_tensor,
                      phantom_by_name)
from anisoeit.mesh import Mesh, boundary_edge_electrodes


def test_place_electrodes_arc_length():
    layout = place_electrodes(16, 0.5, 0.01)
    assert layout.angular_width * layout.radius == pytest.approx(np.pi / 16,
                                                                 abs=1e-15)


def test_place_electrodes_centers_L4():
    layout = place_electrodes(4, 0.5, 0.01)
    assert np.allclose(layout.centers, [0, np.pi / 2, np.pi, 3 * np.pi / 2])


def test_place_electrodes_rejects_odd_and_small():
    with pytest.raises(ValueError):
        place_electrodes(3, 0.5, 0.01)
    with pytest.raises(ValueError):
        place_electrodes(6, 0.5, -1.0)
    with pytest.raises(ValueError):
        place_electrodes(10, 1.5, 0.01)


def test_total_coverage():
    for L, cov in [(16, 0.5), (32, 0.3), (8, 0.9)]:
        layout = place_electrodes(L, cov, 0.01)
        assert L * layout.angular_width == pytest.approx(cov * 2 * np.pi,
                                                         abs=1e-12)
        # arcs pairwise disjoint: width strictly below spacing
        assert layout.angular_width < 2 * np.pi / L


def test_mesh_contains_electrode_endpoints():
    layout = place_electrodes(4, 0.5, 0.01)
    mesh = build_disk_mesh(1.0, 0.5, layout)
    th = mesh.boundary_angles()
    for a in layout.arc_bounds().ravel():
        a = np.mod(a, 2 * np.pi)
        assert np.min(np.abs(np.angle(np.exp(1j * (th - a))))) < 1e-12
    assert len(mesh.boundary_nodes) >= 4


def test_mesh_quality_and_validity():
    layout = place_electrodes(16, 0.5, 0.01)
    mesh = build_disk_mesh(1.0, 0.1, layout)
    mesh.validate()
    assert (mesh.signed_areas() > 0).all()
    p = mesh.nodes[mesh.triangles]
    edges = p - np.roll(p, -1, axis=1)
    assert np.linalg.norm(edges, axis=2).max() <= 0.15


def _generation_order(mesh):
    """Node indices in the order the mesher generates the points: the
    boundary by angle, the centre, then ring by ring, each by angle."""
    inner = np.setdiff1d(np.arange(mesh.n_nodes), mesh.boundary_nodes)
    x, y = mesh.nodes[inner].T
    ring = np.round(np.hypot(x, y), 9)
    theta = np.mod(np.arctan2(y, x), 2 * np.pi)
    return np.r_[mesh.boundary_nodes, inner[np.lexsort((theta, ring))]]


@pytest.mark.parametrize("L, h", [(16, 0.05), (128, 0.012)])
def test_node_numbering_only_relabels_triangulation(L, h):
    from scipy.spatial import Delaunay
    layout = place_electrodes(L, 0.5, 0.01)
    mesh = build_disk_mesh(1.0, h, layout)
    mesh.validate()
    gen = _generation_order(mesh)
    assert np.array_equal(np.sort(gen), np.arange(mesh.n_nodes))
    # qhull breaks ties between cocircular points by input order, so
    # triangulate the same points in the order they were generated
    old = np.sort(Delaunay(mesh.nodes[gen]).simplices, axis=1)
    pos = np.empty_like(gen)
    pos[gen] = np.arange(gen.size)
    new = np.sort(pos[mesh.triangles], axis=1)
    assert np.array_equal(old[np.lexsort(old.T)], new[np.lexsort(new.T)])
    p = mesh.nodes[mesh.triangles]
    edges = p - np.roll(p, -1, axis=1)
    assert np.linalg.norm(edges, axis=2).max() <= 1.5 * h


def test_mesh_interior_edges_shared_twice():
    layout = place_electrodes(8, 0.5, 0.01)
    mesh = build_disk_mesh(1.0, 0.2, layout)
    edges = {}
    for tri in mesh.triangles:
        for a, b in ((0, 1), (1, 2), (2, 0)):
            key = (min(tri[a], tri[b]), max(tri[a], tri[b]))
            edges[key] = edges.get(key, 0) + 1
    boundary = {tuple(sorted(e)) for e in mesh.boundary_edges()}
    for key, count in edges.items():
        assert count == (1 if key in boundary else 2)


def test_validate_rejects_edge_shared_by_three_triangles():
    layout = place_electrodes(8, 0.5, 0.01)
    mesh = build_disk_mesh(1.0, 0.2, layout)
    tris = np.concatenate([mesh.triangles, mesh.triangles[:1]])
    bad = Mesh(nodes=mesh.nodes, triangles=tris,
               boundary_nodes=mesh.boundary_nodes, radius=1.0)
    with pytest.raises(ValueError, match="shared by more than two triangles"):
        bad.validate()


def test_validate_rejects_short_boundary_loop():
    layout = place_electrodes(8, 0.5, 0.01)
    mesh = build_disk_mesh(1.0, 0.2, layout)
    bad = Mesh(nodes=mesh.nodes, triangles=mesh.triangles,
               boundary_nodes=np.delete(mesh.boundary_nodes, 3), radius=1.0)
    with pytest.raises(ValueError, match="boundary loop does not match"):
        bad.validate()


def test_boundary_angles_increase():
    layout = place_electrodes(16, 0.5, 0.01)
    mesh = build_disk_mesh(1.0, 0.08, layout)
    th = mesh.boundary_angles()
    assert (np.diff(th) > 0).all()


def test_refinement_doubles_boundary_nodes():
    layout = place_electrodes(16, 0.5, 0.01)
    coarse = build_disk_mesh(1.0, 0.1, layout)
    fine = build_disk_mesh(1.0, 0.05, layout)
    assert len(fine.boundary_nodes) >= 2 * len(coarse.boundary_nodes)


def test_every_electrode_owns_boundary_edges():
    layout = place_electrodes(16, 0.5, 0.01)
    mesh = build_disk_mesh(1.0, 0.08, layout)
    owners = boundary_edge_electrodes(mesh, layout)
    for l in range(16):
        assert (owners == l).sum() >= 1


def test_build_rejects_bad_h():
    layout = place_electrodes(16, 0.5, 0.01)
    with pytest.raises(ValueError):
        build_disk_mesh(1.0, 1.5, layout)
    with pytest.raises(ValueError):
        build_disk_mesh(1.0, 0.0, layout)
    with pytest.raises(ValueError):
        build_disk_mesh(2.0, 0.1, layout)   # layout radius mismatch


def test_tensor_identity():
    field = constant_tensor(np.eye(2))
    A = field(np.array([[0.3, 0.1], [0.0, 0.0]]))
    assert np.allclose(A, np.eye(2))


def test_tensor_factored_low_contrast():
    field = phantom_by_name("A1").tensor
    A0val = field(np.array([[0.0, 0.0]]))[0]
    assert np.allclose(A0val, np.diag([1.3, 1.69]))


def test_tensor_factored_high_contrast_outside():
    field = phantom_by_name("A4").tensor
    val = field(np.array([[0.75, 0.0]]))[0]
    assert np.allclose(val, np.diag([4.0, 1.0]))


def test_tensor_rejects_bad_background():
    with pytest.raises(ValueError):
        constant_tensor(np.array([[1.0, 0.5], [0.4, 1.0]]))
    with pytest.raises(ValueError):
        constant_tensor(np.diag([1.0, -2.0]))


def test_tensor_symmetry_and_floor_random_points():
    field = phantom_by_name("A1").tensor
    rng = np.random.default_rng(7)
    r = np.sqrt(rng.random(10_000))
    t = 2 * np.pi * rng.random(10_000)
    pts = np.stack([r * np.cos(t), r * np.sin(t)], axis=1)
    A = field(pts)
    assert np.allclose(A, np.swapaxes(A, 1, 2))
    eigs = np.linalg.eigvalsh(A)
    assert (eigs[:, 0] >= 1.0 - 1e-14).all()   # inf a * min eig A0 = 1
