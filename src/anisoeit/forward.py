"""Complete electrode model forward solver and boundary-map extraction.

Assembles the P1 finite-element system for the anisotropic conductivity
equation with L finite electrodes, contact impedances and shunting,
applies trigonometric current patterns, and condenses the simulated
voltages into discrete Neumann-to-Dirichlet / Dirichlet-to-Neumann
matrices in the normalized trigonometric basis.

With node potentials u and electrode voltages U, the model for a current
pattern I is

    [[B, -Wz^T], [-Wz, diag(|e_l| / z_l)]] (u, U) = (0, I)

where B = K + Kz is the conductivity stiffness plus the electrode mass
terms, and Wz[l, k] is the integral of the basis function phi_k over
electrode e_l divided by its contact impedance z_l.  B is symmetric
positive definite (Kz is positive on constants), so it is factored on its
own with a symmetric fill-reducing ordering and diagonal pivots.
Eliminating u leaves the electrode Schur complement

    S = diag(|e_l| / z_l) - Wz B^-1 Wz^T,

an L x L symmetric positive semidefinite matrix whose null space is the
constants.  The ordering is symmetric (perm_r == perm_c), so
P B P^T = L D L^T with D = diag(U), and

    Wz B^-1 Wz^T = Y^T D^-1 Y,    Y = L^-1 P Wz^T.

Y is non-zero only on the reach of the electrode nodes in the graph of
L: their paths to the root of the elimination tree (Gilbert & Peierls
1988).  So S takes one triangular solve on L restricted to that reach
(691 of 1,597 rows at L=16, h=0.05) and no solve over the other nodes.
Writing U = G beta in the ground basis G = [1; -I] (L x (L-1)), whose
columns sum to zero, every pattern is one dense solve
(G^T S G) beta = G^T I.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy          # scipy.sparse loads on first use, in simulate only

from .atomic import write_json
from .mesh import ElectrodeLayout, Mesh, boundary_edge_electrodes

# a conductivity: points (N, 2) -> symmetric positive-definite tensors (N, 2, 2)
Conductivity = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class CurrentPatternSet:
    """Trigonometric current patterns T[l, k] for k = 1..L-1.

    Column k injects amplitude*cos(k theta_l) on electrode l for
    k <= L/2 and amplitude*sin((k - L/2) theta_l) for k > L/2.  Columns
    sum to zero (conservation of current) and are pairwise orthogonal
    for equispaced electrodes.
    """

    L: int
    amplitude: float
    T: np.ndarray            # (L, L-1)

    @property
    def norms(self) -> np.ndarray:
        """Euclidean norm of each pattern column."""
        return np.linalg.norm(self.T, axis=0)

    @property
    def normalized(self) -> np.ndarray:
        """(L, L-1) columns T[:, k] / ||T[:, k]||."""
        return self.T / self.norms


def trig_current_patterns(L: int, amplitude: float = 1.0) -> CurrentPatternSet:
    if L < 4 or L % 2 != 0:
        raise ValueError(f"electrode count must be even and >= 4, got L={L}")
    theta = 2.0 * np.pi * np.arange(L) / L
    k, half = np.arange(1, L), L // 2
    T = np.where(k <= half, np.cos(np.outer(theta, k)),
                 np.sin(np.outer(theta, k - half)))
    return CurrentPatternSet(L=L, amplitude=float(amplitude), T=amplitude * T)


def _ground_matrix(L: int) -> np.ndarray:
    """Dense L x (L-1) ground basis G: U = G beta sums to zero."""
    return np.vstack([np.ones((1, L - 1)), -np.eye(L - 1)])


def _residuals(A, X: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Relative residual ||A x - r|| / ||r|| of each column."""
    return (np.linalg.norm(A @ X - rhs, axis=0)
            / np.maximum(np.linalg.norm(rhs, axis=0), 1e-300))


def _elimination_reach(L, seeds: np.ndarray) -> np.ndarray:
    """Sorted rows reachable from ``seeds`` in the graph of the lower
    factor L (CSC, diagonal stored): the union of the seeds' paths to
    the root of the elimination tree.  The parent of column j is the
    smallest row below j in it; L's row indices need not be sorted.
    """
    n = L.shape[0]
    col = np.repeat(np.arange(n), np.diff(L.indptr))
    parent = np.minimum.reduceat(np.where(L.indices > col, L.indices, n),
                                 L.indptr[:-1])
    seen = np.zeros(n + 1, dtype=bool)
    seen[n] = True                                     # above every root
    front = np.unique(seeds)
    while front.size:
        seen[front] = True
        front = np.unique(parent[front])
        front = front[~seen[front]]
    return np.flatnonzero(seen[:n])


def _restrict(L, R: np.ndarray):
    """L[R, R] as CSC, raising unless every non-zero L[i, j] with j in R
    has i in R: then L[R, R] y = w is the whole of L y = w for w and y
    zero off R, and the restricted solve is exact."""
    C = L[:, R]
    pos = np.full(L.shape[0], -1, dtype=C.indices.dtype)
    pos[R] = np.arange(R.size)
    rows = pos[C.indices]
    if (rows < 0).any():
        k = int(np.argmax(rows < 0))
        j = R[np.searchsorted(C.indptr, k, side="right") - 1]
        raise RuntimeError(f"elimination reach is not closed: L[{C.indices[k]}, "
                           f"{j}] lies outside it")
    return scipy.sparse.csc_array((C.data, rows, C.indptr),
                                  shape=(R.size, R.size))


@dataclass
class CEMSystem:
    """Assembled CEM system, ready to factor and condense to the electrodes.

    ``matrix`` is the node block B = K + Kz, ``wz`` the sparse coupling
    W / z and ``ez`` the electrode lengths over the contact impedances.
    """

    mesh: Mesh
    layout: ElectrodeLayout
    matrix: scipy.sparse.csc_matrix  # N x N, symmetric positive definite
    wz: scipy.sparse.csr_matrix      # L x N
    ez: np.ndarray                   # (L,) |e_l| / z_l
    _factor: Optional[object] = None
    _electrode: Optional[np.ndarray] = None

    def factor(self):
        """Cached LU of B with a symmetric ordering and diagonal pivots."""
        if self._factor is None:
            self._factor = scipy.sparse.linalg.splu(
                self.matrix, permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0, options={"SymmetricMode": True})
        return self._factor

    def electrode_matrix(self) -> np.ndarray:
        """Cached L x L Schur complement S = diag(ez) - Y^T D^-1 Y.

        Y = L^-1 P Wz^T is solved on the elimination reach R of the
        electrode rows only.  Four checks certify it, each raising with
        the failing quantity named:
        (a) every electrode column's triangular residual on L[R, R] is
            within 1e-10 of its right-hand side;
        (b) R is closed under L's pattern, so (a) is the residual of the
            full N-row solve (raised while restricting);
        (c) for the fixed probe c = 1 + l/L, the node solve x = B^-1 Wz^T c
            meets the 1e-10 relative residual bound on B, and S c matches
            ez*c - Wz x within 1e-10 of max|ez*c|: this covers the factor
            and the identity U = D L^T, which all columns share, and as c
            has no zero entry a fault in any one column of S moves S c;
        (d) |S 1| <= 1e-12 max|S|, since B^-1 Wz^T 1 = 1 exactly.
        """
        if self._electrode is None:
            lu = self.factor()
            if not np.array_equal(lu.perm_r, lu.perm_c):
                raise RuntimeError("factor is not symmetric: its row and "
                                   "column permutations differ")
            Lf = lu.L
            R = _elimination_reach(Lf, lu.perm_r[self.wz.indices])
            LR = _restrict(Lf, R)
            W = self.wz[:, np.argsort(lu.perm_r)[R]].T.toarray()  # (P Wz^T)[R]
            Y = scipy.sparse.linalg.spsolve_triangular(LR, W, lower=True,
                                                       unit_diagonal=True)
            resid = _residuals(LR, Y, W)
            if not (resid <= 1e-10).all():
                j = int(np.argmin(resid <= 1e-10))
                raise RuntimeError(
                    f"triangular solve residual {resid[j]:.3e} of electrode "
                    f"column {j} exceeds 1e-10")
            S = np.diag(self.ez) - Y.T @ (Y / lu.U.diagonal()[R, None])

            c = 1.0 + np.arange(self.layout.L) / self.layout.L
            r = self.wz.T @ c
            x = lu.solve(r)
            res = _residuals(self.matrix, x, r)
            if not res <= 1e-10:
                raise RuntimeError(f"electrode probe: node solve residual "
                                   f"{res:.3e} exceeds 1e-10")
            ezc = self.ez * c
            dev = np.abs(S @ c - (ezc - self.wz @ x)).max() / np.abs(ezc).max()
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
    x, y = p[..., 0], p[..., 1]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    G = np.stack([b, c], axis=1) / area2[:, None, None]   # (M, 2, 3)
    return 0.5 * area2[:, None, None] * (G.transpose(0, 2, 1) @ A @ G)


def assemble_cem_system(mesh: Mesh, A: Conductivity,
                        layout: ElectrodeLayout) -> CEMSystem:
    """Assemble the CEM node block and electrode coupling for tensor A.

    The tensor is sampled once per triangle at the centroid (exact
    integration of the piecewise-constant coefficient against the constant
    P1 gradients); electrode mass terms are integrated exactly on the
    boundary edges each electrode covers.
    """
    nodes, tris = mesh.nodes, mesh.triangles
    N = mesh.n_nodes
    L = layout.L
    p = nodes[tris]                                    # (M, 3, 2)
    Ke = element_stiffness(p, A(p.mean(axis=1)))       # (M, 3, 3)

    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    K = scipy.sparse.coo_matrix((Ke.ravel(), (rows, cols)), shape=(N, N))

    # electrode terms on the boundary edges (i, j) each electrode l covers
    z = layout.contact_impedances
    owner = boundary_edge_electrodes(mesh, layout)
    ij, l = mesh.boundary_edges()[owner >= 0], owner[owner >= 0]
    d = nodes[ij[:, 1]] - nodes[ij[:, 0]]
    s = np.sqrt(np.vecdot(d, d))                       # edge lengths |e|
    m = s / 6 / z[l]                 # segment mass s/(6 z) [[2, 1], [1, 2]]
    Kz = scipy.sparse.coo_matrix(
        (np.stack([2 * m, m, m, 2 * m], axis=1).ravel(),
         (np.repeat(ij, 2, axis=1).ravel(), np.tile(ij, 2).ravel())),
        shape=(N, N))
    # W[l, k] = integral of phi_k over e_l, summed before dividing by z_l
    W = scipy.sparse.coo_matrix(
        (np.repeat(s / 2, 2), (np.repeat(l, 2), ij.ravel())), shape=(L, N))
    W.sum_duplicates()
    W.data /= z[W.row]
    arcs = np.bincount(l, weights=s, minlength=L)    # electrode lengths
    return CEMSystem(mesh=mesh, layout=layout, matrix=(K + Kz).tocsc(),
                     wz=W.tocsr(), ez=arcs / z)


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
    resid = _residuals(SG, beta, rhs)
    if not (resid <= 1e-10).all():
        k = int(np.argmin(resid <= 1e-10))
        raise RuntimeError(f"forward solve residual {resid[k]:.3e} of "
                           f"pattern column {k} exceeds 1e-10")
    return (G @ beta).reshape(P.shape)


@dataclass
class VoltageData:
    """Electrode voltages for a full set of current patterns.

    Column k of ``U`` is the voltage response to pattern column k; every
    column sums to zero (ground condition), re-imposed after optional
    additive noise.
    """

    U: np.ndarray                  # (L, L-1)
    patterns: CurrentPatternSet
    layout: ElectrodeLayout
    noise: float = 0.0
    seed: int = 0
    config_sha256: str = ""

    @property
    def L(self) -> int:
        return self.patterns.L


def simulate_voltages(mesh: Mesh, A: Conductivity,
                      layout: ElectrodeLayout,
                      patterns: Optional[CurrentPatternSet] = None,
                      noise: float = 0.0, seed: int = 0) -> VoltageData:
    """Solve every current pattern and collect electrode voltages.

    ``noise`` adds independent Gaussian perturbations with standard
    deviation noise * max|U| to every entry (counter-based Philox
    generator, reproducible from ``seed``), after which each column is
    re-centered to preserve the ground condition.
    """
    if patterns is None:
        patterns = trig_current_patterns(layout.L)
    U = solve_forward(assemble_cem_system(mesh, A, layout), patterns.T)
    if noise > 0.0:
        rng = np.random.Generator(np.random.Philox(seed))
        U = U + noise * np.abs(U).max() * rng.standard_normal(U.shape)
        U = U - U.mean(axis=0, keepdims=True)
    return VoltageData(U=U, patterns=patterns, layout=layout,
                       noise=float(noise), seed=int(seed))


@dataclass
class DNMatrix:
    """Discrete Dirichlet-to-Neumann map in the normalized trig basis.

    ``nd`` is the Neumann-to-Dirichlet matrix R with
    R[m, n] = sum_l U^n_l T^m_l / (||T^m|| ||T^n||); ``dn`` is its inverse,
    symmetrized, with the raw relative asymmetry recorded.  Basis vectors
    are the Euclidean-normalized pattern columns; with the electrode
    centers as midpoint quadrature nodes on the boundary circle, the
    quadratic form  c1^T dn c2  approximates the boundary power pairing
    integral of two traces, so the harmonic eigenvalue estimate of mode k
    is  dn[k, k] * L / (2 pi)  (equals sigma*k on a homogeneous disk in
    the many-electrode limit).
    """

    dn: np.ndarray                 # (L-1, L-1), symmetrized
    nd: np.ndarray                 # (L-1, L-1)
    asymmetry: float               # ||dn_raw - dn_raw^T|| / ||dn_raw||
    patterns: CurrentPatternSet
    layout: ElectrodeLayout
    config_sha256: str = ""

    @property
    def L(self) -> int:
        return self.patterns.L

    def electrode_centers(self) -> np.ndarray:
        th = self.layout.centers
        return self.layout.radius * np.stack([np.cos(th), np.sin(th)], axis=1)


def dn_matrix(data: VoltageData) -> DNMatrix:
    """Condense voltage data into ND / DN matrices.

    Raises if the ND matrix is numerically singular (condition number
    above 1e12) or the DN asymmetry is not finite (voltages so large,
    e.g. from noise of 1e300, that the DN norm underflows), which signal
    degenerate data.
    """
    T = data.patterns.T
    norms = data.patterns.norms
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
    return DNMatrix(dn=dn, nd=R, asymmetry=float(asym),
                    patterns=data.patterns, layout=data.layout,
                    config_sha256=data.config_sha256)


# ---------------------------------------------------------------------------
# JSON serialization


def _layout_to_dict(layout: ElectrodeLayout) -> dict:
    return {
        "L": layout.L,
        "centers": layout.centers.tolist(),
        "angular_width": layout.angular_width,
        "contact_impedances": layout.contact_impedances.tolist(),
        "radius": layout.radius,
    }


def _layout_from_dict(d: dict) -> ElectrodeLayout:
    return ElectrodeLayout(L=int(d["L"]), centers=np.array(d["centers"]),
                           angular_width=float(d["angular_width"]),
                           contact_impedances=np.array(d["contact_impedances"]),
                           radius=float(d["radius"]))


def _patterns_to_dict(p: CurrentPatternSet) -> dict:
    return {"L": p.L, "amplitude": p.amplitude, "T": p.T.tolist(),
            "normalization": "euclidean"}


def save_voltages(data: VoltageData, path) -> None:
    doc = {
        "format": "anisoeit-voltages",
        "version": 1,
        "electrodes": _layout_to_dict(data.layout),
        "patterns": _patterns_to_dict(data.patterns),
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
        "patterns": _patterns_to_dict(dn.patterns),
        "dn_row_major": dn.dn.tolist(),
        "nd_row_major": dn.nd.tolist(),
        "asymmetry": dn.asymmetry,
        "config_sha256": dn.config_sha256,
    }
    write_json(path, doc)


def load_dn(path) -> DNMatrix:
    with open(path) as f:
        doc = json.load(f)
    if doc.get("format") != "anisoeit-dn":
        raise ValueError(f"{path}: not a DN matrix file")
    layout = _layout_from_dict(doc["electrodes"])
    pat = CurrentPatternSet(L=int(doc["patterns"]["L"]),
                            amplitude=float(doc["patterns"]["amplitude"]),
                            T=np.array(doc["patterns"]["T"]))
    return DNMatrix(dn=np.array(doc["dn_row_major"]),
                    nd=np.array(doc["nd_row_major"]),
                    asymmetry=float(doc["asymmetry"]),
                    patterns=pat, layout=layout,
                    config_sha256=doc.get("config_sha256", ""))
