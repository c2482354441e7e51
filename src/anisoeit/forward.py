"""Complete electrode model forward solver and boundary-map extraction.

Assembles the P1 finite-element system for the anisotropic conductivity
equation with L finite electrodes, contact impedances and shunting,
applies trigonometric current patterns, and condenses the simulated
voltages into discrete Neumann-to-Dirichlet / Dirichlet-to-Neumann
matrices in the normalized trigonometric basis.

Electrode voltages are written U = G beta in the ground basis
G = [1; -I] (L x (L-1)), whose columns sum to zero.  The block system
solved for current patterns I is

    [[B, C], [C^T, D]] (alpha, beta) = (0, G^T I)

with B the conductivity stiffness plus electrode mass terms,
C = -(W / z) G and D = G^T diag(|e_l| / z_l) G, where W[l, k] is the
integral of the basis function phi_k over electrode e_l.  The form is
symmetric for real coefficients.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .atomic import atomic_open
from .mesh import (ConductivityTensorField, ElectrodeLayout, Mesh,
                   boundary_edge_electrodes)


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


def _ground_matrix(L: int) -> sparse.csr_matrix:
    """Sparse L x (L-1) ground basis G: U = G beta sums to zero."""
    return sparse.vstack([np.ones((1, L - 1)), -sparse.identity(L - 1)],
                         format="csr")


@dataclass
class CEMSystem:
    """Assembled sparse CEM block system, ready to factor and solve."""

    mesh: Mesh
    layout: ElectrodeLayout
    matrix: sparse.csc_matrix       # (N+L-1) x (N+L-1), symmetric
    _factor: Optional[object] = None

    def factor(self):
        if self._factor is None:
            self._factor = splu(self.matrix)
        return self._factor


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
    return 0.5 * area2[:, None, None] * np.einsum("mki,mkl,mlj->mij", G, A, G)


def assemble_cem_system(mesh: Mesh, A: ConductivityTensorField,
                        layout: ElectrodeLayout) -> CEMSystem:
    """Assemble the CEM block matrix for tensor conductivity A.

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
    K = sparse.coo_matrix((Ke.ravel(), (rows, cols)), shape=(N, N))

    # electrode terms on the boundary edges (i, j) each electrode l covers
    z = layout.contact_impedances
    owner = boundary_edge_electrodes(mesh, layout)
    ij, l = mesh.boundary_edges()[owner >= 0], owner[owner >= 0]
    d = nodes[ij[:, 1]] - nodes[ij[:, 0]]
    s = np.sqrt(np.vecdot(d, d))                       # edge lengths |e|
    m = s / 6 / z[l]                 # segment mass s/(6 z) [[2, 1], [1, 2]]
    Kz = sparse.coo_matrix((np.stack([2 * m, m, m, 2 * m], axis=1).ravel(),
                            (np.repeat(ij, 2, axis=1).ravel(),
                             np.tile(ij, 2).ravel())), shape=(N, N))
    # W[l, k] = integral of phi_k over e_l, summed before dividing by z_l
    W = sparse.coo_matrix((np.repeat(s / 2, 2), (np.repeat(l, 2), ij.ravel())),
                          shape=(L, N))
    W.sum_duplicates()
    W.data /= z[W.row]
    G = _ground_matrix(L)
    C = -(W.T @ G)                                     # (N, L-1)
    D = G.T @ sparse.diags(np.bincount(l, weights=s, minlength=L) / z) @ G

    M = sparse.bmat([[K + Kz, C], [C.T, D]], format="csc")
    return CEMSystem(mesh=mesh, layout=layout, matrix=M)


def solve_forward(system: CEMSystem, patterns: np.ndarray) -> np.ndarray:
    """Electrode voltages for an (L,) pattern or an (L, K) block of them.

    Every column must conserve current (entries summing to zero).  All
    columns share one solve on the cached factor, each must meet the 1e-10
    relative residual bound, and an error names the failing column.  The
    voltages U = G beta sum to zero by construction of the ground basis G.
    """
    P = np.asarray(patterns, dtype=float)
    L, N = system.layout.L, system.mesh.n_nodes
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
    rhs = np.zeros((N + L - 1, block.shape[1]))
    rhs[N:] = G.T @ block
    sol = system.factor().solve(rhs)
    resid = (np.linalg.norm(system.matrix @ sol - rhs, axis=0)
             / np.maximum(np.linalg.norm(rhs, axis=0), 1e-300))
    if not (resid <= 1e-10).all():
        k = int(np.argmin(resid <= 1e-10))
        raise RuntimeError(f"forward solve residual {resid[k]:.3e} of "
                           f"pattern column {k} exceeds 1e-10")
    return (G @ sol[N:]).reshape(P.shape)


@dataclass
class VoltageData:
    """Electrode voltages for a full set of current patterns.

    Column k of ``U`` is the voltage response to pattern column k; every
    column sums to zero (ground condition), re-imposed after optional
    additive noise.
    """

    U: np.ndarray                  # (L, L-1)
    patterns: CurrentPatternSet
    contact_impedances: np.ndarray
    layout: ElectrodeLayout
    noise: float = 0.0
    seed: int = 0
    config_sha256: str = ""

    @property
    def L(self) -> int:
        return self.patterns.L


# a K-column solve holds 3 (N+L-1) x K arrays in SuperLU (RHS, copy, work)
_BLOCK = 32


def simulate_voltages(mesh: Mesh, A: ConductivityTensorField,
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
    system = assemble_cem_system(mesh, A, layout)
    U = np.concatenate([solve_forward(system, patterns.T[:, k:k + _BLOCK])
                        for k in range(0, layout.L - 1, _BLOCK)], axis=1)
    if noise > 0.0:
        rng = np.random.Generator(np.random.Philox(seed))
        U = U + noise * np.abs(U).max() * rng.standard_normal(U.shape)
        U = U - U.mean(axis=0, keepdims=True)
    return VoltageData(U=U, patterns=patterns,
                       contact_impedances=layout.contact_impedances.copy(),
                       layout=layout, noise=float(noise), seed=int(seed))


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

    def harmonic_eigenvalues(self) -> tuple[np.ndarray, np.ndarray]:
        """(frequencies, estimates): diagonal in the trig basis rescaled by
        L/(2 pi R) to the continuum normalization."""
        L = self.L
        half = L // 2
        freqs = np.concatenate([np.arange(1, half + 1), np.arange(1, half)])
        scale = L / (2.0 * np.pi * self.layout.radius)
        return freqs, np.diag(self.dn) * scale


def dn_matrix(data: VoltageData) -> DNMatrix:
    """Condense voltage data into ND / DN matrices.

    Raises if the ND matrix is numerically singular (condition number
    above 1e12), which signals degenerate data.
    """
    T = data.patterns.T
    norms = data.patterns.norms
    R = (T.T @ data.U) / np.outer(norms, norms)
    cond = np.linalg.cond(R)
    if cond > 1e12:
        raise ValueError(f"ND matrix is ill-conditioned (cond {cond:.3e})")
    dn_raw = np.linalg.inv(R)
    asym = np.linalg.norm(dn_raw - dn_raw.T) / np.linalg.norm(dn_raw)
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
    with atomic_open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def load_voltages(path) -> VoltageData:
    with open(path) as f:
        doc = json.load(f)
    if doc.get("format") != "anisoeit-voltages":
        raise ValueError(f"{path}: not a voltage data file")
    layout = _layout_from_dict(doc["electrodes"])
    pat = CurrentPatternSet(L=int(doc["patterns"]["L"]),
                            amplitude=float(doc["patterns"]["amplitude"]),
                            T=np.array(doc["patterns"]["T"]))
    return VoltageData(U=np.array(doc["voltages_row_major"]), patterns=pat,
                       contact_impedances=layout.contact_impedances,
                       layout=layout, noise=float(doc["noise"]),
                       seed=int(doc["seed"]),
                       config_sha256=doc.get("config_sha256", ""))


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
    with atomic_open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


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
