"""Triangulated disk domains with boundary electrodes.

Builds conforming triangular meshes of a disk whose boundary nodes include
every electrode arc endpoint, with the nodes numbered for the forward
solver's elimination.  This module holds geometry only; the
conductivities the forward solver integrates over it are in ``phantoms``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi


def _wrap_angle(theta):
    """Map angles to [0, 2*pi)."""
    return np.mod(theta, TWO_PI)


@dataclass(frozen=True)
class ElectrodeLayout:
    """L electrode arcs on a circle, with contact impedances.

    Arcs are stored by center angle and common angular width; they are
    equispaced, pairwise disjoint and ordered counterclockwise starting
    at angle 0.
    """

    L: int
    centers: np.ndarray        # (L,) center angles in [0, 2*pi)
    angular_width: float       # arc opening angle, identical for all arcs
    contact_impedances: np.ndarray  # (L,) positive, Ohm*m nominal
    radius: float = 1.0

    def arc_bounds(self) -> np.ndarray:
        """(L, 2) start/end angles of each arc (end may exceed 2*pi)."""
        half = 0.5 * self.angular_width
        return np.stack([self.centers - half, self.centers + half], axis=1)

    def electrode_of_angle(self, theta) -> np.ndarray:
        """Electrode index covering each angle, or -1 in the gaps."""
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        out = np.full(theta.shape, -1, dtype=int)
        half = 0.5 * self.angular_width
        for l, c in enumerate(self.centers):
            d = np.abs(_wrap_angle(theta - c + np.pi) - np.pi)
            out[d <= half + 1e-12] = l
        return out


def place_electrodes(L: int, coverage: float, z: float,
                     radius: float = 1.0) -> ElectrodeLayout:
    """Equispaced electrode layout covering a fraction of the boundary.

    Parameters
    ----------
    L : int
        Electrode count; must be even and >= 4 (the trigonometric
        current-pattern basis needs an L/2 cosine / L/2-1 sine split).
    coverage : float
        Fraction of the circle covered by electrodes, in (0, 1).
        Each arc has length ``coverage * 2*pi*radius / L``.
    z : float
        Contact impedance, identical for all electrodes, > 0.
    radius : float
        Circle radius the layout lives on.
    """
    if L < 4:
        raise ValueError(f"need at least 4 electrodes, got L={L}")
    if L % 2 != 0:
        raise ValueError(f"electrode count must be even, got L={L}")
    if not 0.0 < coverage < 1.0:
        raise ValueError(f"coverage must lie in (0, 1), got {coverage}")
    if z <= 0.0:
        raise ValueError(f"contact impedance must be positive, got {z}")
    centers = TWO_PI * np.arange(L) / L
    width = coverage * TWO_PI / L
    return ElectrodeLayout(L=L, centers=centers, angular_width=width,
                           contact_impedances=np.full(L, float(z)),
                           radius=float(radius))


@dataclass(frozen=True)
class Mesh:
    """Conforming triangulation of a disk.

    ``boundary_nodes`` traverse the boundary circle counterclockwise; their
    angular positions strictly increase modulo 2*pi.  All triangles are
    counterclockwise (positive signed area).  The forward solver factors
    the node block in index order and needs the electrode-arc nodes
    numbered last; ``build_disk_mesh`` numbers them so.
    """

    nodes: np.ndarray           # (N, 2)
    triangles: np.ndarray       # (M, 3) int
    boundary_nodes: np.ndarray  # (Nb,) int, ordered by angle
    radius: float = 1.0

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    def boundary_angles(self) -> np.ndarray:
        p = self.nodes[self.boundary_nodes]
        return _wrap_angle(np.arctan2(p[:, 1], p[:, 0]))

    def signed_areas(self) -> np.ndarray:
        p = self.nodes[self.triangles]
        e1 = p[:, 1] - p[:, 0]
        e2 = p[:, 2] - p[:, 0]
        return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])

    def boundary_edges(self) -> np.ndarray:
        """(Nb, 2) consecutive boundary node pairs, counterclockwise."""
        b = self.boundary_nodes
        return np.stack([b, np.roll(b, -1)], axis=1)

    def validate(self) -> None:
        """Check mesh invariants; raises ValueError on the first violation."""
        areas = self.signed_areas()
        if not (areas > 0).all():
            bad = int(np.argmin(areas))
            raise ValueError(f"triangle {bad} has non-positive area {areas[bad]:g}")
        th = self.boundary_angles()
        gaps = np.diff(np.concatenate([th, [th[0] + TWO_PI]]))
        if not (gaps > 0).all():
            raise ValueError("boundary node angles do not strictly increase")
        # every interior edge is shared by exactly two triangles
        pairs = np.sort(self.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2),
                        axis=1).astype(np.int64)
        _, counts = np.unique(pairs[:, 0] * self.n_nodes + pairs[:, 1],
                              return_counts=True)
        if not ((counts == 1) | (counts == 2)).all():
            raise ValueError("an edge is shared by more than two triangles")
        n_hull = int((counts == 1).sum())
        if n_hull != len(self.boundary_nodes):
            raise ValueError("boundary loop does not match single-count edges")


def build_disk_mesh(radius: float, target_h: float,
                    layout: ElectrodeLayout) -> Mesh:
    """Triangulate a disk so that electrode arc endpoints are boundary nodes.

    Boundary nodes are placed at every arc endpoint and filled along arcs
    and gaps at spacing <= ``target_h``; the interior is filled with
    concentric rings of matching density and triangulated with Delaunay.
    Maximum edge length is bounded by ``1.5 * target_h``.

    The nodes are numbered for elimination: the nodes off the electrode
    arcs in nested-dissection order, then the electrode-arc nodes in
    boundary order.  The numbering only relabels the Delaunay
    triangulation of the points in the order they are generated, as qhull
    breaks ties between cocircular points by input order.

    Raises
    ------
    ValueError
        If ``target_h`` is not smaller than the radius, the layout radius
        disagrees, or an electrode arc ends up containing no boundary edge.
    """
    if target_h <= 0 or target_h >= radius:
        raise ValueError(f"target_h must lie in (0, radius); got {target_h}")
    if abs(layout.radius - radius) > 1e-12:
        raise ValueError("layout radius does not match the requested disk radius")

    # boundary breakpoints: all arc endpoints, sorted on the circle
    bounds = layout.arc_bounds()
    breakpoints = np.sort(_wrap_angle(bounds.ravel()))
    # fill each circular segment at spacing <= target_h
    thetas = []
    nseg_list = np.empty(len(breakpoints), dtype=int)
    for i in range(len(breakpoints)):
        a0 = breakpoints[i]
        a1 = breakpoints[(i + 1) % len(breakpoints)]
        if i + 1 == len(breakpoints):
            a1 += TWO_PI
        seg_len = (a1 - a0) * radius
        nseg = max(1, int(np.ceil(seg_len / target_h)))
        nseg_list[i] = nseg
        thetas.append(a0 + (a1 - a0) * np.arange(nseg) / nseg)
    theta_b = _wrap_angle(np.concatenate(thetas))
    theta_b = np.sort(theta_b)
    boundary_pts = radius * np.stack([np.cos(theta_b), np.sin(theta_b)], axis=1)

    # electrode arcs must own at least one full boundary edge
    mids = _wrap_angle(theta_b + np.diff(np.concatenate([theta_b, [theta_b[0] + TWO_PI]])) / 2)
    owners = layout.electrode_of_angle(mids)
    for l in range(layout.L):
        if not (owners == l).any():
            raise ValueError(
                f"target_h={target_h:g} too coarse: electrode {l} contains no boundary edge")

    # interior rings; radial spacing ~0.85 h keeps edges short and triangles fat.
    # Even per-ring counts with offsets 0 or pi/n keep the point set invariant
    # under both axis mirrors.  The triangulation is not: qhull breaks ties
    # between cocircular points arbitrarily, so 140 (y -> -y) and 188
    # (x -> -x) of the 51,760 triangles at L=128, h=0.012 have no mirror
    # image, and the DN couplings that the mirrors forbid reach 4.8e-5 of
    # max|DN| for A3 there.  Symmetric conductivities give symmetric data
    # only to that level.
    n_rings = max(2, int(round(radius / (0.85 * target_h))))
    dr = radius / n_rings
    pts = [boundary_pts, np.zeros((1, 2))]
    for i in range(1, n_rings):
        r_i = i * dr
        n_i = 2 * max(3, int(np.ceil(np.pi * r_i / target_h)))
        offs = (i % 2) * np.pi / n_i
        ang = offs + TWO_PI * np.arange(n_i) / n_i
        pts.append(r_i * np.stack([np.cos(ang), np.sin(ang)], axis=1))
    nodes = np.concatenate(pts, axis=0)

    from scipy.spatial import Delaunay    # only the mesher needs it
    tri = Delaunay(nodes)
    triangles = tri.simplices.copy()
    # orient counterclockwise
    p = nodes[triangles]
    cross = ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
             - (p[:, 1, 1] - p[:, 0, 1]) * (p[:, 2, 0] - p[:, 0, 0]))
    flip = cross < 0
    triangles[flip] = triangles[flip][:, [0, 2, 1]]

    # number the nodes for elimination: a relabeling of the triangulation
    # above, with the electrode-arc nodes last
    loop = np.arange(len(theta_b))               # the boundary nodes
    on_arc = np.zeros(len(nodes), dtype=bool)
    edge = np.flatnonzero(owners >= 0)
    on_arc[edge] = on_arc[(edge + 1) % loop.size] = True
    # counterclockwise triangles hold an interior edge in both directions,
    # so keep it once, but a boundary edge in one only: add the loop
    pairs = triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    edges = np.concatenate([pairs[pairs[:, 0] < pairs[:, 1]],
                            np.stack([loop, np.roll(loop, -1)], axis=1)])
    order = _dissection_order(nodes, edges, on_arc)
    label = np.empty_like(order)
    label[order] = np.arange(order.size)
    mesh = Mesh(nodes=nodes[order], triangles=label[triangles],
                boundary_nodes=label[loop], radius=float(radius))
    mesh.validate()
    return mesh


def _dissection_order(nodes: np.ndarray, edges: np.ndarray,
                      last: np.ndarray) -> np.ndarray:
    """Elimination order of a planar graph: the nodes outside the mask
    ``last`` by nested dissection (George 1973), then those in ``last``
    in index order.

    Recursive coordinate bisection: every part of more than 8 nodes is
    split at its median along the longer side of its box, and the nodes
    of the upper half with a neighbour (``edges``, (E, 2)) in the lower half
    form a one-sided vertex separator, numbered after both halves.  Each
    pass splits every part of one level of the tree at once.  Returns the
    node indices in elimination order.
    """
    n, leaf = len(nodes), 8
    depth = n.bit_length()            # halving n nodes this often leaves <= 1
    rank = np.empty((2, n), dtype=np.int64)    # distinct ranks break ties
    for a in (0, 1):
        rank[a, np.argsort(nodes[:, a], kind="stable")] = np.arange(n)
    # post-order key: base-3 digit d is 0 (lower half at level d), 1 (upper
    # half) or 2 (separator at level d, or a leaf before it)
    key = np.full(n, 3 ** depth - 1, dtype=np.int64)
    part = np.zeros(n, dtype=np.int64)         # children of q: 2q, 2q + 1
    side = np.empty(n, dtype=np.int8)
    idx = np.flatnonzero(~last)
    box = np.stack([nodes[idx].min(axis=0), nodes[idx].max(axis=0)])[None]
    i, j = edges.T
    for d in range(depth):
        if not idx.size:
            break
        p = part[idx]
        w = box[:, 1] - box[:, 0]
        ax = (w[:, 1] > w[:, 0]).astype(np.intp)[p]
        o = np.argsort(p * n + rank[ax, idx])
        idx, p, ax = idx[o], p[o], ax[o]
        start = np.flatnonzero(np.r_[True, p[1:] != p[:-1]])
        cnt = np.diff(np.r_[start, idx.size])
        half = cnt // 2
        split = np.repeat(cnt > leaf, cnt)
        side[:] = -1
        side[idx[split]] = (np.arange(idx.size) - np.repeat(start + half, cnt)
                            >= 0)[split]
        box = np.repeat(box, 2, axis=0)
        q, a = p[start], ax[start]
        box[2 * q, 1, a] = box[2 * q + 1, 0, a] = nodes[idx[start + half], a]
        si, sj = side[i], side[j]
        cut = (si != sj) & (si >= 0) & (sj >= 0)
        side[np.where(si[cut] == 1, i[cut], j[cut])] = -1
        # keep the edges inside a child part; one at a separator node goes
        # on the next pass, where the separator has no side
        live = (si == sj) & (si >= 0)
        i, j = i[live], j[live]
        idx = np.flatnonzero(side >= 0)
        s = side[idx].astype(np.int64)
        key[idx] -= (2 - s) * 3 ** (depth - 1 - d)
        part[idx] = 2 * part[idx] + s
    key[last] = 3 ** depth
    return np.argsort(key, kind="stable")


def boundary_edge_electrodes(mesh: Mesh, layout: ElectrodeLayout) -> np.ndarray:
    """Electrode index of each boundary edge (-1 for gap edges)."""
    edges = mesh.boundary_edges()
    mid = 0.5 * (mesh.nodes[edges[:, 0]] + mesh.nodes[edges[:, 1]])
    ang = _wrap_angle(np.arctan2(mid[:, 1], mid[:, 0]))
    return layout.electrode_of_angle(ang)
