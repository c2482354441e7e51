import dataclasses

import numpy as np
import pytest

from anisoeit import (build_disk_mesh, place_electrodes, constant_tensor,
                      phantom_by_name)
from anisoeit.config import mesh_nodes
from anisoeit.mesh import FRONT_NODES, ElectrodeLayout, Mesh


def test_place_electrodes_arc_length():
    layout = place_electrodes(16, 0.5, 0.01)
    assert layout.angular_width == pytest.approx(np.pi / 16, abs=1e-15)


def test_place_electrodes_centers_L4():
    layout = place_electrodes(4, 0.5, 0.01)
    assert np.allclose(layout.centers, [0, np.pi / 2, np.pi, 3 * np.pi / 2])


def test_place_electrodes_rejects_odd_and_small():
    with pytest.raises(ValueError):
        place_electrodes(3, 0.5, 0.01)
    with pytest.raises(ValueError):
        place_electrodes(6, 0.5, -1.0)
    with pytest.raises(ValueError):
        place_electrodes(6, 0.5, float("nan"))
    with pytest.raises(ValueError):
        place_electrodes(10, 1.5, 0.01)


@pytest.mark.parametrize("L, coverage, z, match", [
    (0, 0.5, 0.01, "count must be even and >= 4, got L=0$"),
    (-2, 0.5, 0.01, "count must be even and >= 4, got L=-2$"),
    (2, 0.5, 0.01, "count must be even and >= 4, got L=2$"),
    (7, 0.5, 0.01, "count must be even and >= 4, got L=7$"),
    (8, float("nan"), 0.01, "width nan is not in"),
    (8, 0.0, 0.01, "width 0.0 is not in"),
    (8, -0.5, 0.01, "width -0.39269908169872414 is not in"),
    (8, 1.0, 0.01, "width 0.7853981633974483 is not in"),   # arcs touch
    (8, 0.5, 0.0, "impedance must be positive, got 0.0$"),
    (8, 0.5, -1.0, "impedance must be positive, got -1.0$"),
    (8, 0.5, float("nan"), "impedance must be positive, got nan$"),
])
def test_every_way_to_make_a_layout_checks_it(L, coverage, z, match):
    # the layout holds the rules, so a direct construction, the placement
    # from a coverage and a layout with one field replaced all refuse the
    # same layouts (a dn.json layout: test_cli.py::test_malformed_dn_exit_2)
    width = coverage * 2 * np.pi / L if L else np.nan
    good = place_electrodes(8, 0.5, 0.01)
    bad = dict([("L", L) if L != 8 else ("angular_width", width)
                if coverage != 0.5 else ("contact_impedance", z)])
    for make in (lambda: place_electrodes(L, coverage, z),
                 lambda: ElectrodeLayout(L, width, z),
                 lambda: dataclasses.replace(good, **bad)):
        with pytest.raises(ValueError, match=match):
            make()


def test_total_coverage():
    for L, cov in [(16, 0.5), (32, 0.3), (8, 0.9)]:
        layout = place_electrodes(L, cov, 0.01)
        assert L * layout.angular_width == pytest.approx(cov * 2 * np.pi,
                                                         abs=1e-12)
        # arcs pairwise disjoint: width strictly below spacing
        assert layout.angular_width < 2 * np.pi / L


@pytest.mark.parametrize("L", [4, 16, 128, 512])
@pytest.mark.parametrize("coverage", [0.1, 0.5, 0.99])
def test_electrode_of_angle_matches_every_centre(L, coverage):
    # the nearest centre decides, as testing every centre does: on random
    # angles, at the arc ends and just past them, and a turn away
    layout = place_electrodes(L, coverage, 0.01)
    rng = np.random.default_rng(L)
    ends = layout.arc_bounds().ravel()
    theta = np.concatenate([rng.uniform(0, 2 * np.pi, 4000), ends,
                            ends + 1e-12, ends - 1e-12, ends + 2e-12,
                            ends - 2e-12, layout.centers + np.pi / L])
    theta = np.concatenate([theta, theta + 2 * np.pi, theta - 2 * np.pi])
    ref, hits = np.full(theta.shape, -1), np.zeros(theta.shape, dtype=int)
    for l, c in enumerate(layout.centers):
        d = np.abs(np.mod(theta - c + np.pi, 2 * np.pi) - np.pi)
        covered = d <= 0.5 * layout.angular_width + 1e-12
        ref[covered] = l
        hits += covered
    assert hits.max() == 1
    assert np.array_equal(layout.electrode_of_angle(theta), ref)


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


@pytest.mark.parametrize("L, h", [(16, 0.05), (128, 0.012)])
def test_mesh_is_delaunay(L, h):
    layout = place_electrodes(L, 0.5, 0.01)
    mesh = build_disk_mesh(1.0, h, layout)
    mesh.validate()
    # empty circles: the two angles opposite each interior edge sum to at
    # most pi
    p = mesh.nodes[mesh.triangles]
    u = np.roll(p, -1, axis=1) - p          # from each corner to the
    v = np.roll(p, 1, axis=1) - p           # other two
    angle = np.arctan2(np.abs(u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]),
                       (u * v).sum(axis=2))
    a = np.roll(mesh.triangles, -1, axis=1)     # the edge opposite a corner
    b = np.roll(mesh.triangles, 1, axis=1)
    key = (np.minimum(a, b) * mesh.n_nodes + np.maximum(a, b)).ravel()
    _, inv, counts = np.unique(key, return_inverse=True, return_counts=True)
    total = np.bincount(inv, angle.ravel())
    assert counts.max() == 2
    assert total[counts == 2].max() <= np.pi + 1e-12
    edges = p - np.roll(p, -1, axis=1)
    assert np.linalg.norm(edges, axis=2).max() <= 1.5 * h


@pytest.mark.parametrize("L, h", [(8, 0.2), (16, 0.05), (32, 0.03),
                                  (128, 0.012)])
def test_mesh_is_its_own_mirror_image(L, h):
    layout = place_electrodes(L, 0.5, 0.01)
    mesh = build_disk_mesh(1.0, h, layout)
    node = {xy: i for i, xy in enumerate(map(tuple, np.round(mesh.nodes, 9)))}
    tris = set(map(frozenset, mesh.triangles.tolist()))
    for flip in ([-1, 1], [1, -1]):             # x -> -x and y -> -y
        image = mesh.nodes * flip
        index = np.array([node[xy] for xy in map(tuple, np.round(image, 9))])
        assert np.abs(mesh.nodes[index] - image).max() <= 1e-12
        assert set(map(frozenset, index[mesh.triangles].tolist())) == tris


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
               boundary_nodes=mesh.boundary_nodes)
    with pytest.raises(ValueError, match="shared by more than two triangles"):
        bad.validate()


def test_validate_rejects_short_boundary_loop():
    layout = place_electrodes(8, 0.5, 0.01)
    mesh = build_disk_mesh(1.0, 0.2, layout)
    bad = Mesh(nodes=mesh.nodes, triangles=mesh.triangles,
               boundary_nodes=np.delete(mesh.boundary_nodes, 3))
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


def _chord_contact(mesh, layout):
    """The electrode of each boundary edge, -1 in a gap: the arc, tested
    against every centre, that holds the angle of the edge's chord
    midpoint."""
    mid = mesh.nodes[mesh.boundary_edges()].mean(axis=1)
    angle = np.arctan2(mid[:, 1], mid[:, 0])
    ref = np.full(len(mid), -1)
    for l, c in enumerate(layout.centers):
        d = np.abs(np.mod(angle - c + np.pi, 2 * np.pi) - np.pi)
        ref[d <= 0.5 * layout.angular_width + 1e-12] = l
    return ref


@pytest.mark.parametrize("h", [0.9, 0.1])
@pytest.mark.parametrize("coverage", [1e-9, 0.01, 0.5, 0.99, 1 - 1e-9])
@pytest.mark.parametrize("L", [4, 16, 128, 512])
def test_every_electrode_owns_boundary_edges(L, coverage, h):
    # each arc's two ends are boundary nodes, so the arc holds an edge
    # whose midpoint lies inside it, however narrow the arc or the gaps
    # and however coarse the mesh
    layout = place_electrodes(L, coverage, 0.01)
    mesh = build_disk_mesh(1.0, h, layout)
    tree = mesh.fronts
    assert tree.width == layout.angular_width
    assert np.array_equal(tree.contact, _chord_contact(mesh, layout))
    assert np.array_equal(np.unique(tree.contact), np.arange(-1, L))


@pytest.mark.parametrize("L, h", [(8, 0.1), (16, 0.05), (32, 0.024),
                                  (128, 0.012)])
def test_closed_form_node_count_tracks_the_mesher(L, h):
    # the run config caps target_h by this count, without building a mesh
    mesh = build_disk_mesh(1.0, h, place_electrodes(L, 0.5, 0.01))
    assert mesh_nodes(h) == pytest.approx(mesh.n_nodes, rel=0.05)


def test_build_rejects_bad_h():
    layout = place_electrodes(16, 0.5, 0.01)
    with pytest.raises(ValueError):
        build_disk_mesh(1.0, 1.5, layout)
    with pytest.raises(ValueError):
        build_disk_mesh(1.0, 0.0, layout)
    with pytest.raises(ValueError):
        build_disk_mesh(2.0, 0.1, layout)   # not the unit disk
    with pytest.raises(ValueError):
        build_disk_mesh(float("nan"), 0.1, layout)


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


@pytest.mark.parametrize("L, h", [(16, 0.1), (32, 0.05)])
def test_front_tree_matches_its_subtrees(L, h):
    layout = place_electrodes(L, 0.5, 0.01)
    mesh = build_disk_mesh(1.0, h, layout)
    t, N = mesh.fronts, mesh.n_nodes
    nf, n = t.parent.size, N + L
    # post-order fronts own consecutive ranges; the last owns the voltages
    assert t.start[0] == 0 and t.start[-2] == N and t.start[-1] == n
    assert (np.diff(t.start) > 0).all()
    assert (t.parent[:-1] > np.arange(nf - 1)).all() and t.parent[-1] == -1
    assert np.diff(t.start).max() <= max(FRONT_NODES, L)
    # the boundary of a front: the later nodes joined by an edge to its
    # subtree, found here from the edges and the parent links alone
    below = [{f} for f in range(nf)]
    for f in range(nf - 1):
        below[t.parent[f]] |= below[f]
    # the dissection stops at the front size: a part of at most
    # FRONT_NODES nodes is one front, and a front with a child is the
    # separator of a larger part
    own = np.diff(t.start)
    for f in range(nf):
        if f in t.parent:
            assert sum(own[g] for g in below[f]) > FRONT_NODES
        else:
            assert own[f] <= FRONT_NODES
    owner = np.repeat(np.arange(nf), own)
    # the graph: the triangles' edges, and voltage U_l = N + l joined to
    # every vertex of the triangles at arc l, which takes the others' U
    adj = [set() for _ in range(n)]
    el = {}
    for (i, j), l in zip(mesh.boundary_edges(), t.contact):
        if l >= 0:
            el[i] = el[j] = N + l
    for tri in mesh.triangles:
        vs = set(tri) | {el[v] for v in tri if v in el}
        for a in vs:
            adj[a] |= vs - {a}
    for f, idx in enumerate(t.index):
        sub = [v for v in range(n) if owner[v] in below[f]]
        later = sorted({w for v in sub for w in adj[v]
                        if w >= t.start[f + 1]})
        assert np.array_equal(idx, np.r_[t.start[f]:t.start[f + 1], later])
        if f < nf - 1:
            assert np.array_equal(t.index[t.parent[f]][t.extend[f]],
                                  idx[t.start[f + 1] - t.start[f]:])
