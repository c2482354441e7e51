"""Quasi-conformal flattening of a constant anisotropy tensor.

The complex dilatation of an SPD tensor A is

    mu_A = (A22 - A11 - 2i A12) / (A11 + A22 + 2 sqrt(det A)),

with |mu_A| < 1.  Extending mu compactly to the plane and solving the
Beltrami equation  dbar(Phi) = mu * d(Phi)  yields coordinates in which
the tensor becomes the scalar sqrt(det A) * identity.  The solve is the
classical fixed-point iteration

    h^{n+1} = T[mu h^n] + T[mu],      Phi(z) = P[mu (h* + 1)](z) + z,

where T is the two-dimensional Hilbert (Beurling) transform, realized as
the Fourier multiplier conj(zeta)/zeta, and P is the solid Cauchy
transform (the dbar inverse), realized by zero-padded FFT convolution
with the 1/(pi z) kernel and normalized so that P[g](0) = 0.  Both
transforms embed their input in a larger zero grid; their FFTs skip the
all-zero rows of the embedded input and the columns the crop discards,
and return bit-for-bit what full-grid fft2/ifft2 would.  The Hilbert
symbol and the Cauchy kernel transform are cached per grid.

All grid functions live on a uniform n x n lattice over [-s, s)^2 with
the support of mu inside |z| <= r (s >= 2r).
"""

from __future__ import annotations

import functools
import json
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np
from scipy.interpolate import RegularGridInterpolator

from .atomic import atomic_open


def beltrami_coefficient(A: np.ndarray) -> complex:
    """Complex dilatation mu of a symmetric positive-definite 2x2 matrix.

    Scale-invariant (mu(c*A) = mu(A) for c > 0) and |mu| < 1 exactly
    when A is SPD.  Rejects non-symmetric or non-positive-definite input.
    """
    A = np.asarray(A, dtype=float)
    if A.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {A.shape}")
    if not np.allclose(A, A.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(A).max())):
        raise ValueError("matrix is not symmetric")
    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    if det <= 0 or A[0, 0] <= 0:
        raise ValueError("matrix is not positive definite")
    return complex(A[1, 1] - A[0, 0] - 2j * A[0, 1]) / (A[0, 0] + A[1, 1] + 2.0 * np.sqrt(det))


@dataclass(frozen=True)
class MuGrid:
    """Compactly supported Beltrami coefficient sampled on a square grid.

    The grid covers [-s, s)^2 with n points per axis and spacing 2s/n;
    mu equals the constant ``mu0`` inside |z| <= r - blend, is zero for
    |z| >= r, and is ramped by a C^1 smoothstep in between.
    """

    mu: np.ndarray          # (n, n) complex, axis 0 = x, axis 1 = y
    n: int
    s: float
    r: float
    blend: float
    mu0: complex

    @property
    def spacing(self) -> float:
        return 2.0 * self.s / self.n

    def axis(self) -> np.ndarray:
        return -self.s + self.spacing * np.arange(self.n)

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        x = self.axis()
        return np.meshgrid(x, x, indexing="ij")


def extend_mu(A0: np.ndarray, r: float = 2.0, blend: float = 0.5,
              n: int = 512, s: float = 4.0) -> MuGrid:
    """Sample the compact C^1 extension of mu_{A0} on the solver grid.

    The constant tensor is blended to the identity between radii
    r - blend and r, which scales mu by a smoothstep ramp; the domain of
    interest must sit inside |z| <= r - blend.
    """
    if blend <= 0 or blend >= r:
        raise ValueError(f"blend width must lie in (0, r); got blend={blend}, r={r}")
    if s < 2.0 * r:
        raise ValueError(f"grid half-width s={s} must be at least 2r={2 * r}")
    return _ramped_mu(beltrami_coefficient(A0), n, s, r, blend)


def _ramped_mu(mu0: complex, n: int, s: float, r: float,
               blend: float) -> MuGrid:
    """mu0 times the ramp 1 - smoothstep((|z| - (r - blend)) / blend)."""
    x = -s + (2.0 * s / n) * np.arange(n)
    X, Y = np.meshgrid(x, x, indexing="ij")
    t = np.clip((np.hypot(X, Y) - (r - blend)) / blend, 0.0, 1.0)
    ramp = 1.0 - (3.0 * t * t - 2.0 * t ** 3)
    return MuGrid(mu=mu0 * ramp, n=int(n), s=float(s), r=float(r),
                  blend=float(blend), mu0=mu0)


# ---------------------------------------------------------------------------
# singular integral transforms


def hilbert_transform(g: np.ndarray, s: float, pad: int = 1) -> np.ndarray:
    """Two-dimensional Hilbert (Beurling) transform on the periodic grid.

    Fourier multiplier conj(zeta)/zeta on the discrete frequency lattice,
    with the zero frequency annihilated.  This is the unique unimodular
    multiplier satisfying T(dbar f) = d f, so the transform preserves the
    discrete L2 norm of zero-mean data.

    ``pad > 1`` embeds the data centrally in a pad*n grid before applying
    the multiplier and crops afterwards, which suppresses the
    periodization error for compactly supported input.  The padded
    transforms skip the all-zero rows of the embedded input and the
    cropped-away columns of the output, and the symbol is built once per
    grid (``_hilbert_symbol``); the result is bit-for-bit that of full
    ``np.fft.fft2``/``ifft2`` on the embedded array.
    """
    g = np.asarray(g)
    if np.isnan(g).any():
        raise ValueError("input contains NaNs")
    n = g.shape[0]
    if g.shape != (n, n):
        raise ValueError(f"expected a square grid, got shape {g.shape}")
    if pad < 1:
        raise ValueError(f"pad must be at least 1, got {pad}")
    m = pad * n
    lo = (m - n) // 2
    # numpy's complex multiply is not bit-commutative, and it reuses a large
    # temporary operand as the output, so keep the full-grid formula's
    # ``symbol * fft`` form (``fft * kernel`` in cauchy_transform) as is
    return _cropped_ifft2(_hilbert_symbol(m, pad * s) * _padded_fft2(g, m, lo),
                          lo, n)


@functools.lru_cache(maxsize=4)
def _hilbert_symbol(m: int, s: float) -> np.ndarray:
    """Read-only multiplier conj(zeta)/zeta of the m x m grid over
    [-s, s)^2, zero at the zero frequency."""
    freq = np.fft.fftfreq(m, d=2.0 * s / m)
    FX, FY = np.meshgrid(freq, freq, indexing="ij")
    zeta = FX + 1j * FY
    with np.errstate(divide="ignore", invalid="ignore"):
        symbol = np.conj(zeta) / zeta
    symbol[0, 0] = 0.0
    symbol.flags.writeable = False
    return symbol


def _padded_fft2(g: np.ndarray, m: int, lo: int) -> np.ndarray:
    """``np.fft.fft2`` of the n x n array g embedded at [lo, lo+n)^2 in an
    m x m zero grid.

    Same 1-D transforms in the same order as fft2 (axis 1, then axis 0),
    but the axis-1 pass runs only on the rows of g's non-zero bounding
    box: the other rows transform to zero.
    """
    n = g.shape[0]
    F = np.zeros((m, m), dtype=complex)
    rows = np.flatnonzero(g.any(axis=1))
    if rows.size:
        r0, r1 = rows[0], rows[-1] + 1
        block = np.zeros((r1 - r0, m), dtype=complex)
        block[:, lo:lo + n] = g[r0:r1]
        F[lo + r0:lo + r1] = np.fft.fft(block, axis=1)
    return np.fft.fft(F, axis=0, out=F)


def _cropped_ifft2(F: np.ndarray, lo: int, n: int) -> np.ndarray:
    """The [lo, lo+n)^2 block of ``np.fft.ifft2(F)``: the axis-1 pass on
    every row, then the axis-0 pass on the kept columns only.  F is
    overwritten."""
    rows = np.fft.ifft(F, axis=1, out=F)[:, lo:lo + n]
    return np.fft.ifft(rows, axis=0)[lo:lo + n]


def _cauchy_kernel(n: int, s: float, refine: int = 4) -> np.ndarray:
    """1/(pi z) kernel on the padded 2n x 2n displacement lattice.

    Cells within ``refine`` spacings of the singularity carry exact cell
    averages (Gauss-Legendre); the singular cell itself integrates to
    zero by symmetry.  Returned in FFT (wrapped) index order.
    """
    d = 2.0 * s / n
    m = 2 * n
    idx = np.arange(m)
    idx = np.where(idx < m // 2, idx, idx - m)
    DX, DY = np.meshgrid(idx * d, idx * d, indexing="ij")
    Z = DX + 1j * DY
    with np.errstate(divide="ignore", invalid="ignore"):
        K = 1.0 / (np.pi * Z)
    K[0, 0] = 0.0
    nodes, weights = np.polynomial.legendre.leggauss(12)
    nodes = nodes * d / 2.0
    weights = weights * d / 2.0
    GX, GY = np.meshgrid(nodes, nodes, indexing="ij")
    GW = np.outer(weights, weights)
    for i in range(-refine, refine + 1):
        for j in range(-refine, refine + 1):
            if i == 0 and j == 0:
                continue
            cell = (i * d + GX) + 1j * (j * d + GY)
            K[i, j] = np.sum(GW / (np.pi * cell)) / (d * d)
    return K


@functools.lru_cache(maxsize=4)
def _cauchy_kernel_hat(n: int, s: float) -> np.ndarray:
    """Read-only 2-D FFT of the padded Cauchy kernel for the n x n grid."""
    Khat = np.fft.fft2(_cauchy_kernel(n, s))
    Khat.flags.writeable = False
    return Khat


def cauchy_transform(g: np.ndarray, s: float) -> np.ndarray:
    """Solid Cauchy transform P with dbar P[g] = g and P[g](0) = 0.

    FFT convolution of the compactly supported input with the 1/(pi z)
    kernel on a zero-padded 2n x 2n grid (true linear convolution over the
    window, no wrap-around), followed by subtraction of the value at the
    origin.  The kernel transform is built once per grid
    (``_cauchy_kernel_hat``).
    """
    g = np.asarray(g, dtype=complex)
    if np.isnan(g).any():
        raise ValueError("input contains NaNs")
    n = g.shape[0]
    if g.shape != (n, n):
        raise ValueError(f"expected a square grid, got shape {g.shape}")
    d = 2.0 * s / n
    conv = _cropped_ifft2(_padded_fft2(g, 2 * n, 0) * _cauchy_kernel_hat(n, s),
                          0, n) * (d * d)
    return conv - conv[n // 2, n // 2]


# ---------------------------------------------------------------------------
# Beltrami equation solve


class BeltramiConvergenceError(RuntimeError):
    """Fixed-point iteration failed to reach the requested tolerance."""

    def __init__(self, iterations: int, last_increment: float):
        super().__init__(
            f"no convergence after {iterations} iterations; "
            f"last sup-norm increment {last_increment:.3e}")
        self.iterations = iterations
        self.last_increment = last_increment


@dataclass
class QCMap:
    """Grid-sampled quasi-conformal map and its inverse evaluation."""

    phi: np.ndarray            # (n, n) complex samples of Phi
    mu: MuGrid
    residual: float            # sup |dbar Phi - mu d Phi| on inner half-grid
    iterations: int
    increments: np.ndarray     # sup-norm increment per iteration
    config_sha256: str = ""

    def __post_init__(self):
        ax = self.mu.axis()
        self._interp = RegularGridInterpolator((ax, ax), self.phi,
                                               method="linear", bounds_error=True)
        dx, dy = _centred_gradient(self.phi, self.mu.spacing)
        self._grad_x = RegularGridInterpolator((ax, ax), dx, method="linear",
                                               bounds_error=False, fill_value=None)
        self._grad_y = RegularGridInterpolator((ax, ax), dy, method="linear",
                                               bounds_error=False, fill_value=None)

    @property
    def window(self) -> float:
        """Half-width of the trusted evaluation window [-s/2, s/2]^2."""
        return self.mu.s / 2.0

    def jacobian(self, points: np.ndarray) -> np.ndarray:
        """(N, 2, 2) Jacobian of Phi = (Re f, Im f) at interior points,
        from centered finite differences interpolated off the grid."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        fx = self._grad_x(pts)
        fy = self._grad_y(pts)
        J = np.empty((len(pts), 2, 2))
        J[:, 0, 0] = fx.real
        J[:, 0, 1] = fy.real
        J[:, 1, 0] = fx.imag
        J[:, 1, 1] = fy.imag
        return J


def _centred_gradient(phi: np.ndarray, d: float
                      ) -> tuple[np.ndarray, np.ndarray]:
    """(d/dx, d/dy) of grid samples with spacing d by centred differences,
    wrapping periodically at the grid edges."""
    fx = (np.roll(phi, -1, axis=0) - np.roll(phi, 1, axis=0)) / (2 * d)
    fy = (np.roll(phi, -1, axis=1) - np.roll(phi, 1, axis=1)) / (2 * d)
    return fx, fy


def _beltrami_residual(phi: np.ndarray, mu: MuGrid) -> float:
    """sup |dbar Phi - mu d Phi| over the inner half-grid."""
    fx, fy = _centred_gradient(phi, mu.spacing)
    dbar = 0.5 * (fx + 1j * fy)
    dphi = 0.5 * (fx - 1j * fy)
    q = mu.n // 4
    return float(np.abs(dbar - mu.mu * dphi)[q:-q, q:-q].max())


def solve_beltrami(mu: MuGrid, tol: float = 1e-10, max_iter: int = 200,
                   h0: Optional[Union[complex, np.ndarray]] = None,
                   pad: int = 2) -> QCMap:
    """Solve dbar Phi = mu d Phi by the contraction iteration.

    Parameters
    ----------
    mu : MuGrid
        Compactly supported coefficient with sup |mu| < 1.
    tol : float
        Termination threshold on the sup-norm iterate increment.
    max_iter : int
        Iteration budget, at least 1; exceeding it raises
        BeltramiConvergenceError carrying the last increment.
    h0 : complex or array, optional
        Initial iterate.  Default is T[mu]; passing the constant mu0
        value reproduces the constant-coefficient starting guess.
    pad : int
        Zero-padding factor for the Hilbert transform inside the
        iteration; the input is compactly supported, so padding only
        reduces periodization error.

    The Beltrami residual stored on the result is the sup norm of
    dbar Phi - mu d Phi over the inner half-grid, with derivatives by
    centered finite differences.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    sup_mu = float(np.abs(mu.mu).max())
    if sup_mu >= 1.0:
        raise ValueError(f"sup |mu| = {sup_mu:g} >= 1: not quasi-conformal")
    s, n = mu.s, mu.n
    T = lambda g: hilbert_transform(g, s, pad=pad)
    tmu = T(mu.mu)
    if h0 is None:
        h = tmu.copy()
    elif np.isscalar(h0):
        h = np.full((n, n), complex(h0))
    else:
        h = np.asarray(h0, dtype=complex).copy()

    increments = []
    converged = sup_mu == 0.0
    if converged:
        h = np.zeros((n, n), dtype=complex)
        increments.append(0.0)
    else:
        for _ in range(max_iter):
            h_next = T(mu.mu * h) + tmu
            inc = float(np.abs(h_next - h).max())
            increments.append(inc)
            h = h_next
            if inc <= tol:
                converged = True
                break
    if not converged:
        raise BeltramiConvergenceError(len(increments), increments[-1])

    w = cauchy_transform(mu.mu * (h + 1.0), s)
    X, Y = mu.meshgrid()
    phi = (X + 1j * Y) + w
    return QCMap(phi=phi, mu=mu, residual=_beltrami_residual(phi, mu),
                 iterations=len(increments), increments=np.array(increments))


# ---------------------------------------------------------------------------
# map evaluation


def evaluate_map(qcmap: QCMap, points: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of Phi at points inside [-s/2, s/2]^2."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    w = qcmap.window
    if (np.abs(pts) > w + 1e-12).any():
        bad = pts[np.abs(pts).max(axis=1) > w + 1e-12][0]
        raise ValueError(f"point {tuple(bad)} outside evaluation window |x|<= {w:g}")
    vals = qcmap._interp(pts)
    return np.stack([vals.real, vals.imag], axis=1)


class MapInversionError(RuntimeError):
    def __init__(self, point, residual):
        super().__init__(
            f"Newton inversion diverged at target {tuple(point)} "
            f"(residual {residual:.3e})")
        self.point = point


def invert_map(qcmap: QCMap, points: np.ndarray, tol: float = 1e-8,
               max_iter: int = 50) -> np.ndarray:
    """Solve Phi(x) = y for each target y by damped Newton iteration.

    Seeds at the grid preimage whose image is nearest to the target and
    stops when |Phi(x) - y| <= tol; divergence after ``max_iter`` steps
    raises MapInversionError naming the point.
    """
    targets = np.atleast_2d(np.asarray(points, dtype=float))
    n, w = qcmap.mu.n, qcmap.window
    ax = qcmap.mu.axis()
    sel = np.abs(ax) <= w
    sub = qcmap.phi[np.ix_(sel, sel)]
    gx, gy = np.meshgrid(ax[sel], ax[sel], indexing="ij")
    grid_pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    grid_img = np.stack([sub.real.ravel(), sub.imag.ravel()], axis=1)
    from scipy.spatial import cKDTree
    tree = cKDTree(grid_img)

    _, idx = tree.query(targets)
    out = np.empty_like(targets)
    for i, y in enumerate(targets):
        x = grid_pts[idx[i]].copy()
        ok = False
        for _ in range(max_iter):
            fx = evaluate_map(qcmap, x[None, :])[0]
            res = fx - y
            if np.hypot(*res) <= tol:
                ok = True
                break
            J = qcmap.jacobian(x[None, :])[0]
            try:
                step = np.linalg.solve(J, res)
            except np.linalg.LinAlgError:
                break
            x = np.clip(x - step, -w, w)
        if not ok:
            fx = evaluate_map(qcmap, x[None, :])[0]
            raise MapInversionError(y, float(np.hypot(*(fx - y))))
        out[i] = x
    return out


def pushforward_tensor(A, qcmap: QCMap, points: np.ndarray) -> np.ndarray:
    """Tensor J A J^T / det J at the image of each point, J = grad Phi.

    For the background tensor of the map itself the result approximates
    sqrt(det A0) times the identity.  Raises if det J <= 0 at any query
    point (orientation violation).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    J = qcmap.jacobian(pts)
    det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
    if (det <= 0).any():
        bad = pts[det <= 0][0]
        raise ValueError(f"map Jacobian not orientation-preserving at {tuple(bad)}")
    Avals = A(pts) if callable(A) else np.broadcast_to(np.asarray(A, dtype=float),
                                                       (len(pts), 2, 2))
    out = np.einsum("nij,njk,nlk->nil", J, Avals, J)
    return out / det[:, None, None]


# ---------------------------------------------------------------------------
# serialization: binary grid + JSON sidecar

_MAGIC = b"ANISOEITQC1\x00"
_HEADER = len(_MAGIC) + 8 + 5 * 8     # magic, n, s, r, blend, mu0


def save_qcmap(qcmap: QCMap, path) -> None:
    """Write the header (n, s, r, blend, mu0) and the row-major complex
    samples of Phi, plus the JSON sidecar ``path.with_suffix(".json")``
    with the mu parameters, residual, iteration count and config hash."""
    sidecar = Path(path).with_suffix(".json")
    if sidecar == Path(path):
        raise ValueError(f"{path}: the map binary would be its own sidecar")
    with atomic_open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<qddd", qcmap.mu.n, qcmap.mu.s, qcmap.mu.r,
                            qcmap.mu.blend))
        f.write(struct.pack("<dd", qcmap.mu.mu0.real, qcmap.mu.mu0.imag))
        f.write(np.ascontiguousarray(qcmap.phi, dtype=np.complex128).tobytes())
    with atomic_open(sidecar, "w") as f:
        json.dump({
            "format": "anisoeit-qcmap",
            "n": qcmap.mu.n, "s": qcmap.mu.s, "r": qcmap.mu.r,
            "blend": qcmap.mu.blend,
            "mu0": [qcmap.mu.mu0.real, qcmap.mu.mu0.imag],
            "residual": qcmap.residual,
            "iterations": qcmap.iterations,
            "config_sha256": qcmap.config_sha256,
        }, f, indent=2, sort_keys=True)
        f.write("\n")


def load_qcmap(path) -> QCMap:
    """Read a map written by ``save_qcmap``.

    The residual, iteration count and config hash come from the JSON
    sidecar ``path.with_suffix(".json")``; without it the residual is
    recomputed from Phi and the hash is empty.  A file that is not
    exactly 60 + 16 n^2 bytes long (truncated, or an older map that still
    carries a trailing h* block) raises ``ValueError``.
    """
    raw = Path(path).read_bytes()
    if raw[:len(_MAGIC)] != _MAGIC:
        raise ValueError(f"{path}: not a QC map file")
    if len(raw) < _HEADER:
        raise ValueError(f"{path}: {len(raw)} bytes, shorter than the "
                         f"{_HEADER}-byte header")
    n, s, r, blend, re0, im0 = struct.unpack_from("<qddddd", raw, len(_MAGIC))
    expected = _HEADER + 16 * n * n
    if len(raw) != expected:
        raise ValueError(f"{path}: {len(raw)} bytes, but a map with n={n} "
                         f"has {_HEADER} + 16 n^2 = {expected}")
    mu0 = complex(re0, im0)
    phi = np.frombuffer(raw, dtype=np.complex128,
                        offset=_HEADER).reshape(n, n).copy()
    mu = _ramped_mu(mu0, n, s, r, blend)
    sidecar = Path(path).with_suffix(".json")
    doc = json.loads(sidecar.read_text()) if sidecar.exists() else {}
    residual = doc.get("residual")
    if residual is None:
        residual = _beltrami_residual(phi, mu)
    return QCMap(phi=phi, mu=mu, residual=float(residual),
                 iterations=int(doc.get("iterations", 0)),
                 increments=np.array([]),
                 config_sha256=doc.get("config_sha256", ""))
