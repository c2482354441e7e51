"""Triangulated disk domains with boundary electrodes.

Builds conforming triangular meshes of a disk whose boundary nodes include
every electrode arc endpoint.  This module holds geometry only; the
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
    counterclockwise (positive signed area).
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

    boundary_nodes = np.arange(len(theta_b))
    mesh = Mesh(nodes=nodes, triangles=triangles,
                boundary_nodes=boundary_nodes, radius=float(radius))
    mesh.validate()
    return mesh


def boundary_edge_electrodes(mesh: Mesh, layout: ElectrodeLayout) -> np.ndarray:
    """Electrode index of each boundary edge (-1 for gap edges)."""
    edges = mesh.boundary_edges()
    mid = 0.5 * (mesh.nodes[edges[:, 0]] + mesh.nodes[edges[:, 1]])
    ang = _wrap_angle(np.arctan2(mid[:, 1], mid[:, 0]))
    return layout.electrode_of_angle(ang)
