"""Triangulated disk domains with boundary electrodes.

Builds conforming triangular meshes of a disk whose boundary nodes include
every electrode arc endpoint, triangulated ring to ring in closed form,
with the nodes numbered for the forward solver's elimination and the
fronts of that elimination, its symbolic phase, computed once per mesh.
This module holds geometry only; the conductivities the forward solver
integrates over it are in ``phantoms``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

TWO_PI = 2.0 * np.pi
# the nested dissection splits only parts of more than this many nodes,
# and each part it leaves whole is one front: at L=128, h=0.012 the
# factor with S and its probe took 60-93 ms (64), 59-88 ms (128) and
# 87-122 ms (256) per conductivity (medians of 9 in each of three runs,
# one BLAS thread, a shared 2-core host)
FRONT_NODES = 128


def _wrap_angle(theta):
    """Map angles to [0, 2*pi)."""
    return np.mod(theta, TWO_PI)


@dataclass(frozen=True)
class ElectrodeLayout:
    """L electrode arcs on the unit circle with one contact impedance: arc
    l is centred at angle 2*pi*l/L and all share one angular width below
    2*pi/L, so they are equispaced, pairwise disjoint and ordered
    counterclockwise starting at angle 0.  Making a layout outside these
    rules raises a ValueError: an even L >= 4 (the trigonometric current
    patterns need an L/2 cosine / L/2 - 1 sine split),
    0 < angular_width < 2*pi/L and contact_impedance > 0."""

    L: int
    angular_width: float       # arc opening angle, identical for all arcs
    contact_impedance: float   # positive, identical for all arcs, Ohm*m nominal

    def __post_init__(self):
        L, width, z = self.L, self.angular_width, self.contact_impedance
        if not (L >= 4 and L % 2 == 0):
            raise ValueError(f"electrode count must be even and >= 4, "
                             f"got L={L}")
        if not 0.0 < width < TWO_PI / L:
            raise ValueError(f"electrode width {width} is not in "
                             f"(0, 2 pi / L) for L={L}")
        if not z > 0.0:
            raise ValueError(f"contact impedance must be positive, got {z}")

    @property
    def centers(self) -> np.ndarray:
        """(L,) center angles 2*pi*l/L in [0, 2*pi)."""
        return TWO_PI * np.arange(self.L) / self.L

    def arc_bounds(self) -> np.ndarray:
        """(L, 2) start/end angles of each arc (end may exceed 2*pi)."""
        half = 0.5 * self.angular_width
        return np.stack([self.centers - half, self.centers + half], axis=1)

    def electrode_of_angle(self, theta) -> np.ndarray:
        """Electrode index covering each angle, or -1 in the gaps."""
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        # an arc that covers an angle is the one centred nearest to it
        l = np.rint(_wrap_angle(theta) * self.L / TWO_PI).astype(int) % self.L
        d = np.abs(_wrap_angle(theta - self.centers[l] + np.pi) - np.pi)
        return np.where(d <= 0.5 * self.angular_width + 1e-12, l, -1)


def place_electrodes(L: int, coverage: float, z: float) -> ElectrodeLayout:
    """Equispaced electrode layout covering a fraction of the unit circle.

    Parameters
    ----------
    L : int
        Electrode count.
    coverage : float
        Fraction of the circle covered by electrodes, in (0, 1).
        Each arc has length ``coverage * 2*pi / L``.
    z : float
        Contact impedance, identical for all electrodes.

    ``ElectrodeLayout`` refuses, with a ValueError, an L, a coverage or a
    z outside its rules.
    """
    # L = 0 leaves a NaN width, and the layout refuses L before the width
    return ElectrodeLayout(
        L=L, angular_width=coverage * TWO_PI / (L or np.nan),
        contact_impedance=float(z))


@dataclass(frozen=True)
class FrontTree:
    """Multifrontal elimination of a mesh's CEM system in its node order.

    The unknowns are the N mesh nodes, then the L electrode voltages
    U_l = N + l.  On the electrode arcs the node unknowns are the drops
    u - U_l across the contact layer, so each voltage is joined to the
    nodes of every triangle that touches its arc.  Front f owns the
    unknowns [start[f], start[f + 1]); the last front owns the L voltages,
    and the others are the separators and the parts left whole (at most
    ``FRONT_NODES`` nodes) of the nested dissection that numbered the
    nodes.  ``index[f]`` holds the unknowns of front f's dense matrix in
    increasing order: its own, then its boundary, the later unknowns that
    its subtree is joined to.  Eliminating the own unknowns leaves an
    update matrix on the boundary, which ``extend[f]`` places in the
    matrix of ``parent[f]``.  The last front takes the updates of the
    fronts under no separator; with its own entries they sum to the
    Schur complement onto the voltages.

    The gather maps place the system's entries: entry ``elem_src[i]`` of
    the flattened (M, 3, 3) element matrices followed by the flattened
    (E, 2, 2) contact masses of the E electrode edges (the boundary edges
    with ``contact`` >= 0, in boundary order) adds to entry
    ``elem_dst[i]`` of the flattened matrix of the front that owns the
    earlier of its two unknowns, for the fronts in turn as ``elem_ptr``
    bounds them.  Only the lower triangle of each front is filled.

    ``contact`` holds the electrode of each boundary edge, -1 in a gap,
    for the arcs of angular width ``width`` centred at 2*pi*l/L: the one
    table of which edge lies on which electrode that the forward solver
    reads.
    """

    start: np.ndarray        # (F + 2,)
    parent: np.ndarray       # (F + 1,), -1 for the last front
    index: tuple             # F + 1 sorted unknown index arrays
    extend: tuple            # F position arrays into the parent's index
    elem_src: np.ndarray     # int32, one per entry
    elem_dst: np.ndarray     # int32, as elem_src
    elem_ptr: np.ndarray     # (F + 2,)
    contact: np.ndarray      # (Nb,) int
    width: float             # the arcs' angular width


@dataclass(frozen=True)
class Mesh:
    """Conforming triangulation of a disk.

    ``boundary_nodes`` traverse the boundary circle counterclockwise; their
    angular positions strictly increase modulo 2*pi.  All triangles are
    counterclockwise (positive signed area).  The forward solver
    eliminates the nodes in index order on the tree ``fronts``, whose last
    front holds the electrode voltages and whose ``contact`` says which
    boundary edge lies on which electrode; ``build_disk_mesh`` numbers the
    nodes so and builds the tree for its electrode layout.  A mesh made
    otherwise has no fronts and can be validated, but not assembled.
    """

    nodes: np.ndarray           # (N, 2)
    triangles: np.ndarray       # (M, 3) int
    boundary_nodes: np.ndarray  # (Nb,) int, ordered by angle
    fronts: Optional[FrontTree] = None

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
        a = self.triangles.astype(np.int64)
        b = np.roll(a, -1, axis=1)
        _, counts = np.unique(np.minimum(a, b) * self.n_nodes
                              + np.maximum(a, b), return_counts=True)
        if not ((counts == 1) | (counts == 2)).all():
            raise ValueError("an edge is shared by more than two triangles")
        n_hull = int((counts == 1).sum())
        if n_hull != len(self.boundary_nodes):
            raise ValueError("boundary loop does not match single-count edges")


def build_disk_mesh(radius: float, target_h: float,
                    layout: ElectrodeLayout) -> Mesh:
    """Triangulate the unit disk so that the arc endpoints are boundary nodes.

    Boundary nodes are placed at every arc endpoint and filled along arcs
    and gaps at spacing <= ``target_h``; the interior is filled with
    concentric rings of matching density, and each pair of consecutive
    rings (the centre node the first, the boundary nodes the last) is
    joined by its Delaunay triangulation in closed form.  Maximum edge
    length is bounded by ``1.5 * target_h``.  Ties between cocircular
    nodes are broken by a rule that commutes with both axis mirrors, so
    the mesh is its own image under x -> -x and y -> -y, and so are the
    data of conductivities that are.

    The nodes are numbered for elimination, all of them in
    nested-dissection order.  The dissection tree becomes the mesh's
    ``fronts`` (``FrontTree``): the parts of at most ``FRONT_NODES`` nodes
    that the dissection leaves whole and the separators above them, then
    the L electrode voltages of ``layout`` as the last front, with the
    index sets and gather maps that the forward solver's multifrontal
    elimination uses for every conductivity, and the electrode of each
    boundary edge: the one whose arc holds the angle midway between the
    edge's ends.  Every arc holds an edge, as its two ends are boundary
    nodes.

    Raises
    ------
    ValueError
        If ``radius`` is not 1 (the electrodes lie on the unit circle),
        ``target_h`` is not in (0, 1), or arc ends or gaps so short that
        they round away leave an invalid mesh (``Mesh.validate``).
    """
    if radius != 1.0:
        raise ValueError(f"the disk radius must be 1.0, got {radius}")
    if target_h <= 0 or target_h >= 1.0:
        raise ValueError(f"target_h must lie in (0, 1); got {target_h}")

    # boundary breakpoints: all arc endpoints, sorted on the circle
    bounds = layout.arc_bounds()
    breakpoints = np.sort(_wrap_angle(bounds.ravel()))
    # fill each circular segment at spacing <= target_h
    thetas = []
    for i in range(len(breakpoints)):
        a0 = breakpoints[i]
        a1 = breakpoints[(i + 1) % len(breakpoints)]
        if i + 1 == len(breakpoints):
            a1 += TWO_PI
        nseg = max(1, int(np.ceil((a1 - a0) / target_h)))
        thetas.append(a0 + (a1 - a0) * np.arange(nseg) / nseg)
    theta_b = _wrap_angle(np.concatenate(thetas))
    theta_b = np.sort(theta_b)

    # interior rings; radial spacing ~0.85 h keeps edges short and triangles
    # fat.  Counts that are multiples of 4, with half-step offsets that
    # alternate from the boundary inward (the outermost ring has a node at
    # angle 0), keep the nodes invariant under both axis mirrors and no two
    # consecutive rings' arc ends (below) together on an axis.
    # config.mesh_nodes counts these nodes in closed form from the same
    # spacing, to cap target_h; change the two together.
    n_rings = max(2, int(round(1.0 / (0.85 * target_h))))
    dr = 1.0 / n_rings
    rings = [np.zeros(1)]                     # the centre: a one-node ring
    for i in range(1, n_rings):
        n = 4 * max(2, int(np.ceil(np.pi * i * dr / (2 * target_h))))
        rings.append(((n_rings - 1 - i) % 2 + 2 * np.arange(n)) * np.pi / n)
    rings.append(theta_b)
    # the boundary nodes first, then the centre and the rings outward;
    # ``first`` is each ring's first node
    in_order = rings[-1:] + rings[:-1]
    nodes = np.concatenate([r * np.stack([np.cos(t), np.sin(t)], axis=1) for
                            r, t in zip([1.0, *np.arange(n_rings) * dr],
                                        in_order)])
    first = np.roll(np.cumsum([0] + [t.size for t in in_order[:-1]]), -1)
    # a node owns the arc of its ring up to the midpoints to its neighbours
    ends = [_wrap_angle(t + np.diff(t, append=t[0] + TWO_PI) / 2)
            for t in rings]

    owners = layout.electrode_of_angle(ends[-1])     # of each boundary edge

    # zip each pair of consecutive rings: crossing the arc end between
    # nodes j and j + 1 of one ring makes the triangle of those two and the
    # node of the other ring that owns the angle, counterclockwise as
    # written.  For concentric rings that is the Delaunay choice.  Arc ends
    # closer than ``tol`` coincide, and are crossed inner ring first where
    # sin(2 phi) > 0: a rule that commutes with both mirrors.
    tol = 1e-9
    tris = []
    for k in range(len(rings) - 1):
        for side in (0, 1) if k else (1,):    # the centre has no arc ends
            phi, other = ends[k + side], ends[k + 1 - side]
            early = (np.sin(2 * phi) > 0) != bool(side)
            o = np.argsort(other)
            at = np.searchsorted(other[o], phi + np.where(early, -tol, tol),
                                 "right")
            j = np.arange(phi.size)
            a, b = first[k + side] + j, first[k + side] + (j + 1) % j.size
            # the owner follows the other ring's last arc end before phi
            c = first[k + 1 - side] + (o[at - 1] + 1) % other.size
            tris.append(np.stack([b, a, c] if side == 0 else [a, b, c],
                                 axis=1))
    triangles = np.concatenate(tris)

    # number the nodes for elimination (a relabeling of the triangulation
    # above); the L electrode voltages come after them
    loop = np.arange(len(theta_b))               # the boundary nodes
    # counterclockwise triangles hold an interior edge in both directions,
    # so keep it once, but a boundary edge in one only: add the loop
    pairs = triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    edges = np.concatenate([pairs[pairs[:, 0] < pairs[:, 1]],
                            np.stack([loop, np.roll(loop, -1)], axis=1)])
    order, start, parent = _dissection_order(nodes, edges)
    label = np.empty_like(order)
    label[order] = np.arange(order.size)
    triangles = label[triangles]
    fronts = _front_tree(triangles, label[loop], owners, layout.angular_width,
                         np.r_[start, start[-1] + layout.L], np.r_[parent, -1])
    mesh = Mesh(nodes=nodes[order], triangles=triangles,
                boundary_nodes=label[loop], fronts=fronts)
    mesh.validate()
    return mesh


def _dissection_order(nodes: np.ndarray, edges: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Elimination order of a planar graph by nested dissection (George
    1973), and its fronts.

    Recursive coordinate bisection: every part of more than
    ``FRONT_NODES`` nodes is split at its median along the longer side of
    its box, and the nodes of the upper half with a neighbour (``edges``,
    (E, 2)) in the lower half form a one-sided vertex separator, numbered
    after both halves.  Each pass splits every part of one level of the
    tree at once.  The fronts are the parts left whole and the
    separators, in post-order; the parent of a front is the separator of
    its nearest ancestor part that has one.  Returns the node indices in
    elimination order, ``start`` ((F + 1,): front f owns positions
    [start[f], start[f + 1])) and ``parent`` ((F,)), which is F, the
    front after the last, for the top front.
    """
    n = len(nodes)
    depth = n.bit_length()            # halving n nodes this often leaves <= 1
    rank = np.empty((2, n), dtype=np.int64)    # distinct ranks break ties
    for a in (0, 1):
        rank[a, np.argsort(nodes[:, a], kind="stable")] = np.arange(n)
    # post-order key: base-3 digit d is 0 (lower half at level d), 1 (upper
    # half) or 2 (separator at level d, or a part left whole before it)
    key = np.full(n, 3 ** depth - 1, dtype=np.int64)
    part = np.zeros(n, dtype=np.int64)         # children of q: 2q, 2q + 1
    side = np.empty(n, dtype=np.int8)
    idx = np.arange(n)
    box = np.stack([nodes.min(axis=0), nodes.max(axis=0)])[None]
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
        split = np.repeat(cnt > FRONT_NODES, cnt)
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
    order = np.argsort(key, kind="stable")
    # each distinct key is one front; its ancestors' separators have the
    # keys of its leading digits followed by 2s
    keys = key[order]
    start = np.flatnonzero(np.diff(keys, prepend=-1))
    own = keys[start]
    nf = own.size
    parent = np.full(nf, nf)
    for d in range(depth):            # from the root down: the nearest wins
        w = 3 ** (depth - d)
        up = own - own % w + (w - 1)
        at = np.minimum(np.searchsorted(own, up), nf - 1)
        hit = (own[at] == up) & (up != own)
        parent[hit] = at[hit]
    return order, np.r_[start, n], parent


def _front_tree(triangles: np.ndarray, boundary: np.ndarray,
                contact: np.ndarray, width: float, start: np.ndarray,
                parent: np.ndarray) -> FrontTree:
    """Index sets and gather maps of the fronts ``start`` / ``parent``
    (those of ``_dissection_order`` with the L electrode voltages as the
    last front) for the CEM system of the triangles and of the boundary
    loop ``boundary``, whose edge k lies on electrode ``contact[k]`` (-1
    in a gap) of the arcs of angular width ``width``."""
    nf = parent.size
    n = int(start[-1])                 # the N nodes, then the L voltages
    N = int(start[-2])
    owner = np.repeat(np.arange(nf, dtype=np.int32), np.diff(start))
    end = start[1:]
    # entries (r, c) with r >= c, placed in the front that owns c, and the
    # element matrix entry each takes.  They are counted in int32, which
    # halves the memory traffic; (front, node) keys are int64.
    # The node entries: the diagonal and one per edge.
    a, b = np.array([[0, 1, 2, 0, 1, 0], [0, 1, 2, 1, 2, 2]])
    ta = triangles[:, a].astype(np.int32)
    tb = triangles[:, b].astype(np.int32)
    r, c = np.maximum(ta, tb).ravel(), np.minimum(ta, tb).ravel()
    src = (np.where(ta >= tb, 3 * a + b, 3 * b + a).astype(np.int32)
           + 9 * np.arange(len(ta), dtype=np.int32)[:, None]).ravel()
    # The voltage entries: a vertex a on electrode l adds U_l = N + l to
    # the nodes of its triangle and row a of the element matrix to U_l's
    # row: (U_l, x_b) for each vertex b, and (U_l, U_l') for each vertex b
    # on an electrode l' <= l
    tv = arc_electrodes(boundary, contact, N)[triangles]
    m = np.flatnonzero((tv >= 0).any(axis=1))     # the triangles at an arc
    k = (9 * m[:, None, None] + 3 * np.arange(3)[:, None]
         + np.arange(3)).astype(np.int32)           # entry (a, b) of each
    va = np.broadcast_to(tv[m][:, :, None], k.shape)
    vb = np.broadcast_to(tv[m][:, None, :], k.shape)
    ux = va >= 0
    uu = ux & (vb >= 0) & (va >= vb)
    xb = np.broadcast_to(triangles[m][:, None, :].astype(np.int32), k.shape)
    # The contact masses: electrode edge e = (i, j) adds its (2, 2) matrix,
    # which follows the 9 M element entries, to (i, i), (j, j) and to the
    # lower of (i, j) and (j, i)
    i, j = np.stack([boundary, np.roll(boundary, -1)]).astype(np.int32)[
        :, contact >= 0]
    e = 9 * len(triangles) + 4 * np.arange(i.size, dtype=np.int32)[:, None]
    r = np.concatenate([r, N + va[ux], N + va[uu],
                        np.stack([i, j, np.maximum(i, j)], axis=1).ravel()])
    c = np.concatenate([c, xb[ux], N + vb[uu],
                        np.stack([i, j, np.minimum(i, j)], axis=1).ravel()])
    src = np.concatenate([src, k[ux], k[uu],
                          (e + np.array([0, 3, 1], np.int32)).ravel()])
    f = owner[c]
    first = start[f].astype(np.int32)
    row = r - first
    far = np.flatnonzero(r >= end[f])
    # boundary of each front: the later nodes joined by an edge to its own
    # nodes, and so to those of each ancestor whose own range ends before
    pair = f[far].astype(np.int64) * n + r[far]
    by = np.argsort(pair)
    head = np.diff(pair[by], prepend=-1) != 0    # first of each value
    pool = pair[by[head]]
    g, j = np.divmod(pool, n)
    found = []
    while g.size:
        found.append(g * n + j)
        g = parent[g]
        up = j >= end[g]
        g, j = g[up], j[up]
    keys = np.sort(np.concatenate([owner * np.int64(n) + np.arange(n),
                                   *found]))
    keys = keys[np.diff(keys, prepend=-1) != 0]    # np.unique hashes: slower
    off = np.searchsorted(keys, np.arange(nf + 1) * n)
    size = np.diff(off)
    index = tuple(np.split(keys - np.repeat(np.arange(nf) * n, size),
                           off[1:-1]))
    # a boundary node's position in its parent's matrix
    g = np.repeat(np.arange(nf), size)
    j = keys - g * n
    bnd = j >= end[g]
    g, j = g[bnd], j[bnd]
    u = parent[g]
    pos = j - start[u]
    out = j >= end[u]
    pos[out] = np.searchsorted(keys, u[out] * n + j[out]) - off[u[out]]
    extend = tuple(np.split(pos, np.cumsum(np.bincount(g, minlength=nf))[:-2]))
    # the rows of the far entries: one search per distinct (front, node)
    inv = np.empty(far.size, dtype=np.int64)
    inv[by] = np.cumsum(head) - 1
    row[far] = (np.searchsorted(keys, pool) - off[pool // n])[inv]
    dst = row * size[f].astype(np.int32) + (c - first)
    o = np.argsort(f.astype(np.min_scalar_type(nf)), kind="stable")
    ptr = np.r_[0, np.cumsum(np.bincount(f, minlength=nf))]
    return FrontTree(start=start, parent=parent, index=index, extend=extend,
                     elem_src=src[o], elem_dst=dst[o], elem_ptr=ptr,
                     contact=contact, width=width)


def arc_electrodes(boundary: np.ndarray, contact: np.ndarray,
                   n: int) -> np.ndarray:
    """(n,) electrode of each node on an electrode's arc, -1 elsewhere,
    for the boundary loop ``boundary`` whose edge k lies on electrode
    ``contact[k]`` (-1 in a gap)."""
    el = np.full(n, -1, dtype=np.int32)
    on = contact >= 0
    el[boundary[on]] = el[np.roll(boundary, -1)[on]] = contact[on]
    return el
