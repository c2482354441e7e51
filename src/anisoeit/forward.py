"""Complete electrode model forward solver and boundary-map extraction.

Assembles the P1 finite-element system for the anisotropic conductivity
equation with L finite electrodes, one contact impedance and shunting,
applies trigonometric current patterns, and condenses the simulated
voltages into discrete Neumann-to-Dirichlet / Dirichlet-to-Neumann
matrices in the normalized trigonometric basis.

With node potentials u and electrode voltages U, the model for a current
pattern I is

    [[B, -Wz^T], [-Wz, diag(|e_l| / z)]] (u, U) = (0, I)

where B = K + Kz is the conductivity stiffness plus the electrode mass
terms, and Wz[l, k] is the integral of the basis function phi_k over
electrode e_l divided by the contact impedance z.  B is symmetric
positive definite (Kz is positive on constants).

The solver writes the node unknowns on each electrode's arc as contact
drops: u = x + E' U, with E' the N x L incidence of the arc nodes on the
electrodes, so x is u off the arcs and u - U_l on arc l.  With
Wz^T = Kz E' and E'^T Kz E' = diag(|e_l| / z), the contact energy is
x^T Kz x, and the system becomes

    [[B, C], [C^T, D]] (x, U) = (0, I),    C = K E',  D = E'^T K E':

the voltages meet only the stiffness, through K's columns summed over
each arc.  Eliminating x leaves the electrode matrix

    S = D - C^T B^-1 C,

an L x L symmetric positive semidefinite matrix whose null space is the
constants, equal to diag(|e_l| / z) - Wz B^-1 Wz^T of the first form.
No term of it grows as 1/z, so S keeps its accuracy as z -> 0.  As z
grows, S falls as 1/z while D and C^T B^-1 C stay of order 1, so S
loses about log10(z) digits to the cancellation.

``build_disk_mesh`` numbers every node by nested dissection and keeps
the dissection tree, with the L voltages as its last front, as the
mesh's fronts (``mesh.FrontTree``).  The multifrontal Cholesky (Duff &
Reid 1983) eliminates the nodes without forming B.  Each front gathers
its element and contact-mass entries and its children's update matrices
into a dense matrix.  It factors the block of its own nodes,
F_11 = L_11 L_11^T, solves L_21 = F_21 L_11^-T and passes
F_22 - L_21 L_21^T on to its parent.  The last front, whose matrix then
is S, is read and not factored (80 arc nodes became 16 voltages at
L=16, h=0.05, and 512 became 128 at L=128, h=0.012).  At L=128,
h=0.012 the factor takes 2.73e8 flops against 4.41e8 with the arc nodes
as the last front, and S agrees with that form's to 5.1e-15 of max|S|.

Writing U = G beta in the ground basis G = [1; -I] (L x (L-1)), whose
columns sum to zero, every pattern is one dense solve
(G^T S G) beta = G^T I.

The factor and the node solve call four kernels, LAPACK's dpotrf and
BLAS's dtrsm, dsyrk and dtrsv, through scipy's f2py wrappers.
``_kernels`` loads only the two extension modules that hold them,
``scipy.linalg._fblas`` and ``scipy.linalg._flapack``, from their files,
and not the ``scipy.linalg`` package: importing the package takes about
300 ms in a fresh process (it loads numpy.f2py, numpy.fft and numpy.ma),
several times the work of a small simulation.  The modules are loaded
under their full names, and the interpreter keeps one instance of each
extension module, so they are the very modules that ``scipy.linalg``
uses, whichever of the two loads first.  Only a simulation loads them.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .atomic import count, float_array, read_json, write_json
from .mesh import ElectrodeLayout, FrontTree, Mesh, arc_electrodes

# a conductivity: points (N, 2) -> symmetric positive-definite tensors (N, 2, 2)
Conductivity = Callable[[np.ndarray], np.ndarray]


def trig_current_patterns(L: int) -> np.ndarray:
    """(L, L-1) trigonometric current patterns T[l, k] for k = 1..L-1.

    Column k injects cos(k theta_l) on electrode l for k <= L/2 and
    sin((k - L/2) theta_l) for k > L/2.  Columns sum to zero
    (conservation of current) and are pairwise orthogonal for
    equispaced electrodes.
    """
    if L < 4 or L % 2 != 0:
        raise ValueError(f"electrode count must be even and >= 4, got L={L}")
    theta, half = 2.0 * np.pi * np.arange(L) / L, L // 2
    return np.concatenate([np.cos(np.outer(theta, np.arange(1, half + 1))),
                           np.sin(np.outer(theta, np.arange(1, half)))], 1)


@lru_cache(maxsize=8)
def _trig_set(L: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The trig set T of L, its column norms and the normalized columns
    T / norms, built once per L and read-only."""
    T = trig_current_patterns(L)
    norms = np.linalg.norm(T, axis=0)
    basis = T / norms
    for a in (T, norms, basis):
        a.flags.writeable = False
    return T, norms, basis


def _ground_matrix(L: int) -> np.ndarray:
    """Dense L x (L-1) ground basis G: U = G beta sums to zero."""
    return np.vstack([np.ones((1, L - 1)), -np.eye(L - 1)])


def _residuals(AX: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Relative residual ||A x - r|| / ||r|| of each column, from A X."""
    return (np.linalg.norm(AX - rhs, axis=0)
            / np.maximum(np.linalg.norm(rhs, axis=0), 1e-300))


@lru_cache(maxsize=1)
def _kernels() -> tuple:
    """(blas, lapack): scipy's extension modules ``scipy.linalg._fblas``
    and ``scipy.linalg._flapack``, loaded from their files without running
    the ``scipy`` or ``scipy.linalg`` package.  Raises RuntimeError naming
    a module that cannot be found."""
    spec = importlib.util.find_spec("scipy")
    where = [os.path.join(p, "linalg")
             for p in (spec and spec.submodule_search_locations or [])]
    mods = []
    for name in ("scipy.linalg._fblas", "scipy.linalg._flapack"):
        found = importlib.machinery.PathFinder.find_spec(name, where)
        if found is None:
            raise RuntimeError(f"BLAS/LAPACK wrappers not found: no module "
                               f"{name}")
        mods.append(importlib.util.module_from_spec(found))
        found.loader.exec_module(mods[-1])
    return tuple(mods)


def _front_matrix(tree: FrontTree, f: int, vals: np.ndarray) -> np.ndarray:
    """Front f's dense matrix of the system's entries, lower triangle
    filled; ``vals`` holds the element matrix and contact mass entries
    ordered as ``elem_src``."""
    n = tree.index[f].size
    lo, hi = tree.elem_ptr[f], tree.elem_ptr[f + 1]
    return np.bincount(tree.elem_dst[lo:hi], vals[lo:hi],
                       minlength=n * n).reshape(n, n)


@dataclass
class FrontFactor:
    """The eliminated CEM system: B = L L^T on the mesh nodes, and S.

    ``blocks[f]`` is (L_11, L_21) for each front f below the last: the
    rows of front f's own nodes and of its boundary.  The rows of the
    boundary's voltages make up L_Ux = C^T L^-T.  ``s`` is the last
    front's matrix, the L x L electrode matrix S.  ``nnz`` counts the
    stored entries of L and of S's lower triangle.
    """

    tree: FrontTree
    blocks: list
    s: np.ndarray
    nnz: int

    def solve(self, c: np.ndarray) -> np.ndarray:
        """[x; c] for the node values x = -B^-1 C c at the voltages c.

        L^T x = -L_Ux^T c, so a front's own x follows from the x and the c
        of its boundary, in one backward pass through the fronts.
        """
        t, trsv = self.tree, _kernels()[0].dtrsv
        x = np.empty(t.start[-1])
        x[t.start[-2]:] = c
        for f in range(len(self.blocks) - 1, -1, -1):
            L11, L21 = self.blocks[f]
            m = L11.shape[0]
            x[t.start[f]:t.start[f + 1]] = trsv(
                L11, -(L21.T @ x[t.index[f][m:]]), lower=1, trans=1)
        return x


def _factor_fronts(tree: FrontTree, vals: np.ndarray) -> FrontFactor:
    """Multifrontal elimination of the mesh nodes from the entries
    ``vals`` (element matrices, then contact masses), front by front in
    post-order; the last front's matrix is S.  Raises RuntimeError naming
    the node whose pivot is not positive."""
    blas, lapack = _kernels()
    potrf, trsm, syrk = lapack.dpotrf, blas.dtrsm, blas.dsyrk
    vals = vals[tree.elem_src]
    updates = [[] for _ in tree.index]
    blocks, nnz = [], 0
    for f, idx in enumerate(tree.index):
        F = _front_matrix(tree, f, vals)
        # extend-add of each child's update U, which is column-major:
        # faster than F[np.ix_(pos, pos)] += U
        for pos, U in updates[f]:
            np.add.at(F.reshape(-1), (pos * F.shape[0] + pos[:, None])
                      .ravel(), U.ravel(order="F"))
        updates[f] = None
        m = int(tree.start[f + 1] - tree.start[f])
        nnz += m * (m + 1) // 2 + (idx.size - m) * m
        if f == len(tree.index) - 1:
            return FrontFactor(tree=tree, blocks=blocks,
                               s=np.tril(F) + np.tril(F, -1).T, nnz=nnz)
        L11, info = potrf(F[:m, :m], lower=1)
        if info:
            raise RuntimeError(f"node block is not positive definite: the "
                               f"front Cholesky fails at node "
                               f"{tree.start[f] + info - 1}")
        L21 = trsm(1.0, L11, F[m:, :m], side=1, lower=1, trans_a=1)
        updates[tree.parent[f]].append(
            (tree.extend[f], syrk(-1.0, L21, beta=1.0, c=F[m:, m:], lower=1)))
        blocks.append((L11, L21))


@dataclass
class CEMSystem:
    """Assembled CEM system, ready to eliminate onto the electrodes.

    ``ke`` holds the (M, 3, 3) element stiffness matrices and ``kz`` the
    (E, 2, 2) contact masses of the E electrode edges, in boundary order:
    the edges with ``mesh.fronts.contact`` >= 0.
    """

    mesh: Mesh
    layout: ElectrodeLayout
    ke: np.ndarray                   # (M, 3, 3)
    kz: np.ndarray                   # (E, 2, 2)
    _factor: Optional[FrontFactor] = None
    _electrode: Optional[np.ndarray] = None

    def factor(self) -> FrontFactor:
        """Cached multifrontal factor of the system on the mesh's fronts,
        which ``assemble_cem_system`` checked against the layout."""
        if self._factor is None:
            self._factor = _factor_fronts(self.mesh.fronts, np.concatenate(
                [self.ke.ravel(), self.kz.ravel()]))
        return self._factor

    def electrode_matrix(self) -> np.ndarray:
        """Cached L x L electrode matrix S, the last front of the factor.

        Two checks certify S, each raising with the failing quantity
        named:
        (c) for the fixed probe voltages c = 1 + l/L, the node solve
            x = -B^-1 C c through the stored fronts meets the 1e-10
            relative residual bound on B x + C c, applied element by
            element, and S c matches the electrode currents
            E'^T K (x + E' c) within 1e-10 of max|E'^T K E' c|: this
            covers every front of the factor, and as c has no zero entry
            a fault in any one column of S moves S c;
        (d) |S 1| <= 1e-12 max|S|, since the constants are S's null space.
            |S 1| stays at a few eps max|D| while max|S| falls as 1/z, so
            (d) fails at large z: at L=128, h=0.012 from z = 3.
        """
        if self._electrode is None:
            fac = self.factor()
            S, N, L = fac.s, self.mesh.n_nodes, self.layout.L
            contact = self.mesh.fronts.contact
            c = 1.0 + np.arange(L) / L
            ij = self.mesh.boundary_edges()[contact >= 0]
            el = arc_electrodes(self.mesh.boundary_nodes, contact, N)
            arc = np.flatnonzero(el >= 0)
            ec = np.zeros(N)                    # E' c: c_l on arc l
            ec[arc] = c[el[arc]]
            x = fac.solve(c)[:N]
            tris = self.mesh.triangles

            def stiffness(v, m):     # K v, element by element on triangles m
                return np.bincount(tris[m].ravel(), np.einsum(
                    "mij,mj->mi", self.ke[m], v[tris[m]]).ravel(),
                    minlength=N)

            Ku = stiffness(x + ec, slice(None))
            Kc = stiffness(ec, (el[tris] >= 0).any(axis=1))
            r = Ku + np.bincount(ij.ravel(), np.einsum(
                "eij,ej->ei", self.kz, x[ij]).ravel(), minlength=N)
            res = np.linalg.norm(r) / max(np.linalg.norm(Kc), 1e-300)
            if not res <= 1e-10:
                raise RuntimeError(f"electrode probe: node solve residual "
                                   f"{res:.3e} exceeds 1e-10")
            Dc = np.bincount(el[arc], Kc[arc], minlength=L)
            dev = (np.abs(S @ c - np.bincount(el[arc], Ku[arc], minlength=L))
                   .max() / np.abs(Dc).max())
            if not dev <= 1e-10:
                raise RuntimeError(f"electrode probe: S c deviates from the "
                                   f"node solve by {dev:.3e}, above 1e-10")
            rows = np.abs(S.sum(axis=1)).max() / np.abs(S).max()
            if not rows <= 1e-12:
                raise RuntimeError(f"electrode matrix row sums reach "
                                   f"{rows:.3e} of max|S|, above 1e-12")
            self._electrode = S
        return self._electrode


def element_stiffness(p: np.ndarray, A: np.ndarray) -> np.ndarray:
    """(M, 3, 3) stiffness of M linear triangles with constant tensors.

    ``p`` holds the (M, 3, 2) counterclockwise vertices and ``A`` the
    (M, 2, 2) tensors.  Entries are area * (grad phi_i)^T A (grad phi_j);
    the basis gradients are constant on each element.  Raises on a
    triangle with non-positive signed area, naming its index.
    """
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    area2 = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]   # 2*area (signed)
    if (area2 <= 0).any():
        bad = int(np.argmin(area2))
        raise ValueError(f"degenerate triangle {bad}: "
                         f"signed area {0.5 * area2[bad]:g}")
    # grad phi_i = (b_i, c_i) / area2, so entry (i, j) is
    # (b_i (A00 b_j + A01 c_j) + c_i (A10 b_j + A11 c_j)) / (2 area2)
    x, y = p[..., 0], p[..., 1]
    b = y[:, [1, 2, 0]] - y[:, [2, 0, 1]]
    c = x[:, [2, 0, 1]] - x[:, [1, 2, 0]]
    r0 = A[:, 0, 0, None] * b + A[:, 0, 1, None] * c
    r1 = A[:, 1, 0, None] * b + A[:, 1, 1, None] * c
    return ((0.5 / area2)[:, None, None]
            * (b[:, :, None] * r0[:, None, :] + c[:, :, None] * r1[:, None, :]))


def assemble_cem_system(mesh: Mesh, A: Conductivity,
                        layout: ElectrodeLayout) -> CEMSystem:
    """Element matrices and electrode terms of the CEM system for tensor A.

    The mesh's front tree must end with the layout's L electrode voltages
    after the N nodes and must have been built for arcs of the layout's
    width (its contact impedance may differ); a ValueError otherwise,
    before any element matrix is formed.  The tensor is sampled once per
    triangle at the centroid (exact integration of the piecewise-constant
    coefficient against the constant P1 gradients); electrode mass terms
    are integrated exactly on the boundary edges that the tree's
    ``contact`` puts on an electrode.  No global matrix is formed:
    ``CEMSystem.factor`` scatters these terms into the mesh's fronts.
    """
    tree, N, L = mesh.fronts, mesh.n_nodes, layout.L
    if (tree is None or tree.start[-2] != N or tree.start[-1] != N + L
            or tree.width != layout.angular_width):
        raise ValueError(f"mesh has no front tree that ends with the {L} "
                         f"electrode voltages [{N}, {N + L}) and was built "
                         f"for arcs of width {layout.angular_width:.17g}")
    nodes, tris = mesh.nodes, mesh.triangles
    p = nodes[tris]                                    # (M, 3, 2)
    Ke = element_stiffness(p, A((p[:, 0] + p[:, 1] + p[:, 2]) / 3))

    # contact masses s/(6 z) [[2, 1], [1, 2]] of the electrode edges
    ij = mesh.boundary_edges()[tree.contact >= 0]
    d = nodes[ij[:, 1]] - nodes[ij[:, 0]]
    s = np.sqrt(np.vecdot(d, d))                       # edge lengths |e|
    kz = ((s / 6 / layout.contact_impedance)[:, None, None]
          * np.array([[2.0, 1.0], [1.0, 2.0]]))
    return CEMSystem(mesh=mesh, layout=layout, ke=Ke, kz=kz)


def solve_forward(system: CEMSystem, patterns: np.ndarray) -> np.ndarray:
    """Electrode voltages for an (L,) pattern or an (L, K) block of them.

    Every column must conserve current (entries summing to zero).  All
    columns share one dense solve (G^T S G) beta = G^T I on the cached
    electrode matrix S, each must meet the 1e-10 relative residual bound,
    and an error names the failing column.  The voltages U = G beta sum
    to zero by construction of the ground basis G.
    """
    P = np.asarray(patterns, dtype=float)
    L = system.layout.L
    if P.ndim not in (1, 2) or P.shape[0] != L:
        raise ValueError(f"patterns must have shape ({L},) or ({L}, K), "
                         f"got {P.shape}")
    block = P.reshape(L, -1)
    tot = np.abs(block.sum(axis=0))
    bad = tot > 1e-10 * np.maximum(1.0, np.abs(block).max(axis=0))
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"pattern column {k} violates current conservation "
                         f"(sum {tot[k]:g})")
    G = _ground_matrix(L)
    SG = G.T @ system.electrode_matrix() @ G
    rhs = G.T @ block
    beta = np.linalg.solve(SG, rhs)
    resid = _residuals(SG @ beta, rhs)
    if not (resid <= 1e-10).all():
        k = int(np.argmin(resid <= 1e-10))
        raise RuntimeError(f"forward solve residual {resid[k]:.3e} of "
                           f"pattern column {k} exceeds 1e-10")
    return (G @ beta).reshape(P.shape)


@dataclass
class VoltageData:
    """Electrode voltages for the full trigonometric pattern set.

    Column k of ``U`` is the voltage response to column k of
    ``trig_current_patterns(layout.L)``; every column sums to zero (ground
    condition), re-imposed after optional additive noise.
    """

    U: np.ndarray                  # (L, L-1)
    layout: ElectrodeLayout
    noise: float = 0.0
    seed: int = 0
    config_sha256: str = ""


def simulate_voltages(mesh: Mesh, A: Conductivity,
                      layout: ElectrodeLayout,
                      noise: float = 0.0, seed: int = 0) -> VoltageData:
    """Solve every trigonometric current pattern and collect electrode
    voltages.

    ``noise`` adds independent Gaussian perturbations with standard
    deviation noise * max|U| to every entry (counter-based Philox
    generator, reproducible from ``seed``), after which each column is
    re-centered to preserve the ground condition.
    """
    U = solve_forward(assemble_cem_system(mesh, A, layout),
                      _trig_set(layout.L)[0])
    if noise > 0.0:
        rng = np.random.Generator(np.random.Philox(seed))
        U = U + noise * np.abs(U).max() * rng.standard_normal(U.shape)
        U = U - U.mean(axis=0, keepdims=True)
    return VoltageData(U=U, layout=layout, noise=float(noise), seed=int(seed))


@dataclass
class DNMatrix:
    """Discrete Dirichlet-to-Neumann map in the normalized trig basis.

    ``nd`` is the Neumann-to-Dirichlet matrix R with R[m, n] =
    sum_l U^n_l T^m_l / (||T^m|| ||T^n||), T = trig_current_patterns(L);
    ``dn`` is its inverse, symmetrized, with the raw relative asymmetry
    recorded.  Basis vectors are the normalized columns ``basis``; with
    the electrode centers as midpoint quadrature nodes on the boundary
    circle, the quadratic form  c1^T dn c2  approximates the boundary
    power pairing integral of two traces, so the harmonic eigenvalue
    estimate of mode k is  dn[k, k] * L / (2 pi)  (equals sigma*k on a
    homogeneous disk in the many-electrode limit).
    """

    dn: np.ndarray                 # (L-1, L-1), symmetrized
    nd: np.ndarray                 # (L-1, L-1)
    asymmetry: float               # ||dn_raw - dn_raw^T|| / ||dn_raw||
    layout: ElectrodeLayout
    config_sha256: str = ""

    @property
    def L(self) -> int:
        return self.layout.L

    @property
    def basis(self) -> np.ndarray:
        """(L, L-1) columns T[:, k] / ||T[:, k]|| of T = the trig set,
        read-only."""
        return _trig_set(self.L)[2]

    def electrode_centers(self) -> np.ndarray:
        th = self.layout.centers
        return np.stack([np.cos(th), np.sin(th)], axis=1)


def dn_matrix(data: VoltageData) -> DNMatrix:
    """Condense voltage data into ND / DN matrices.

    Raises if the ND matrix is numerically singular (condition number
    above 1e12) or the DN asymmetry is not finite (voltages so large,
    e.g. from noise of 1e300, that the DN norm underflows), which signal
    degenerate data.
    """
    T, norms, _ = _trig_set(data.layout.L)
    R = (T.T @ data.U) / np.outer(norms, norms)
    cond = np.linalg.cond(R)
    if cond > 1e12:
        raise ValueError(f"ND matrix is ill-conditioned (cond {cond:.3e})")
    dn_raw = np.linalg.inv(R)
    with np.errstate(invalid="ignore"):              # checked just below
        asym = np.linalg.norm(dn_raw - dn_raw.T) / np.linalg.norm(dn_raw)
    if not np.isfinite(asym):
        raise ValueError(f"DN asymmetry is {asym}: degenerate voltage data")
    dn = 0.5 * (dn_raw + dn_raw.T)
    return DNMatrix(dn=dn, nd=R, asymmetry=float(asym), layout=data.layout,
                    config_sha256=data.config_sha256)


# ---------------------------------------------------------------------------
# JSON serialization


def _layout_to_dict(layout: ElectrodeLayout) -> dict:
    # centres, radius and L impedances stay in the format, checked on read
    return {
        "L": layout.L,
        "centers": layout.centers.tolist(),
        "angular_width": layout.angular_width,
        "contact_impedances": [layout.contact_impedance] * layout.L,
        "radius": 1.0,
    }


def _layout_from_dict(d: dict) -> ElectrodeLayout:
    """The layout of an ``electrodes`` block: one that ``ElectrodeLayout``
    accepts, on radius 1, with centres 2*pi*l/L (each within 1e-12) and L
    equal impedances; a ValueError otherwise."""
    L, radius = count(d, "L"), float(d["radius"])
    if not abs(radius - 1.0) <= 1e-12:
        raise ValueError(f"electrode radius {radius} is not 1")
    z = float_array(d, "contact_impedances", (L,))
    if not (z == z[:1]).all():
        raise ValueError("contact impedances are not equal")
    # L = 0 leaves no impedance to read; the layout refuses that L first
    layout = ElectrodeLayout(L=L, angular_width=float(d["angular_width"]),
                             contact_impedance=float(z[0]) if z.size
                             else np.nan)
    dev = np.abs(float_array(d, "centers", (L,)) - layout.centers).max()
    if not dev <= 1e-12:
        raise ValueError(f"electrode centers are {dev:.3e} off 2 pi l / L")
    return layout


def _patterns_to_dict(L: int) -> dict:
    return {"L": L, "T": _trig_set(L)[0].tolist(),
            "normalization": "euclidean"}


def save_voltages(data: VoltageData, path) -> None:
    doc = {
        "format": "anisoeit-voltages",
        "version": 1,
        "electrodes": _layout_to_dict(data.layout),
        "patterns": _patterns_to_dict(data.layout.L),
        "voltages_row_major": data.U.tolist(),
        "noise": data.noise,
        "seed": data.seed,
        "rng": "philox",
        "config_sha256": data.config_sha256,
    }
    write_json(path, doc)


def save_dn(dn: DNMatrix, path) -> None:
    doc = {
        "format": "anisoeit-dn",
        "version": 1,
        "electrodes": _layout_to_dict(dn.layout),
        "patterns": _patterns_to_dict(dn.L),
        "dn_row_major": dn.dn.tolist(),
        "nd_row_major": dn.nd.tolist(),
        "asymmetry": dn.asymmetry,
        "config_sha256": dn.config_sha256,
    }
    write_json(path, doc)


def load_dn(path) -> DNMatrix:
    """Read a DN matrix written by ``save_dn``.  Its patterns must be the
    trig set of its L up to a positive scale of each column (earlier
    versions scaled them by an amplitude); a ValueError otherwise."""
    doc = read_json(path, "anisoeit-dn")
    layout = _layout_from_dict(doc["electrodes"])
    L = layout.L
    dn = DNMatrix(dn=float_array(doc, "dn_row_major", (L - 1, L - 1)),
                  nd=float_array(doc, "nd_row_major", (L - 1, L - 1)),
                  asymmetry=float(doc["asymmetry"]), layout=layout,
                  config_sha256=doc.get("config_sha256", ""))
    T = float_array(doc["patterns"], "T", (L, L - 1))
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero column
        dev = np.abs(T / np.linalg.norm(T, axis=0) - dn.basis).max()
    if not dev <= 1e-12:
        raise ValueError(f"patterns T deviate from the trigonometric set of "
                         f"L={L} by {dev:.3e} after column normalization")
    return dn
